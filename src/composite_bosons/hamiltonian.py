"""Second-quantized Hamiltonian terms as sparse sector-block matrices.

Seven normal-ordered operator strings cover every process with at most two
entities (atoms or molecules) on each side:

====== =======================================================
SS     atom one-body hopping/energy
SSSS   atom-atom scattering
CC     molecule one-body energy
CSS    two atoms -> one molecule (rearrangement)
SSC    one molecule -> two atoms (adjoint rearrangement)
SCSC   atom-molecule scattering, direct plus two exchange kets
CCCC   molecule-molecule scattering, direct plus two exchange kets
====== =======================================================

Each term is applied to every ket basis state by explicit ladder actions.
The bra-ket coefficients of a term form one tensor per model, a closed-form
contraction of ``O``, ``T4`` and the pair coefficients ``phi[a, p, q]``
built once by :func:`coefficient_tensors`.  This route does not use
:mod:`composite_bosons.algebra`; only the oracle does.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterator, Mapping

import numpy as np

# Unused here, kept importable: perfbench's layer probe reports four algebra metrics by it.
from .algebra import ElementEngine  # noqa: F401
from .fock import OccupationState, SectorBasis, apply_ladder
from .modespace import CompositeSpectrum, ModeSpace
from .numerics import SparseMatrix

HERMITICITY_TOL = 1e-12

_SQRT_HALF = 1.0 / math.sqrt(2.0)


class TermId(enum.Enum):
    SS = "SS"
    SSSS = "SSSS"
    CC = "CC"
    CSS = "CSS"
    SSC = "SSC"
    SCSC = "SCSC"
    CCCC = "CCCC"


TERM_PREFACTOR: Mapping[TermId, float] = {
    TermId.SS: 1.0,
    TermId.SSSS: 0.5,
    TermId.CC: 1.0,
    TermId.CSS: _SQRT_HALF,
    TermId.SSC: _SQRT_HALF,
    TermId.SCSC: 1.0,
    TermId.CCCC: 0.5,
}

CoefficientTensors = Mapping[TermId, np.ndarray]


# ---------------------------------------------------------------------------
# Bra-ket coefficients, one tensor per term.


def coefficient_tensors(space: ModeSpace, spectrum: CompositeSpectrum) -> dict[TermId, np.ndarray]:
    """The seven coefficient tensors of one model, indexed as the walk reads them.

    ``SS[n, m]``, ``SSSS[m, n, p, q]``, ``CC[a, b]``, ``CSS[a, m, n]``,
    ``SSC[m, n, a]``, ``SCSC[m, a, b, n]`` and ``CCCC[a, b, t, u]`` hold the
    bra indices first and the ket indices last.  Each is the exact
    contraction of its bra and ket particle-label structures with the
    operator the term carries.  ``SSC`` is the transpose of ``CSS``, so the
    two rearrangement blocks come out bitwise transposed.
    """
    o = space.one_body.mat
    t4 = space.two_body.t4
    phi = spectrum.coefficients

    def contract(subscripts: str, *operands: np.ndarray) -> np.ndarray:
        return np.einsum(subscripts, *operands, optimize=True)

    # Bra tensors times an operator, indexed by the ket modes of particles
    # 1, 2, ... in their last axes.
    # <phi_a(1,2)| O(1) + O(2) + T(1,2)
    pair = contract("aij,ik->akj", phi, o) + contract("aij,jl->ail", phi, o)
    pair += contract("aij,ijkl->akl", phi, t4)
    # <m(1) phi_a(2,3)| under T(1,2) + T(1,3), then under all three-particle terms
    atom_pair_cross = contract("mjnq,ajk->manqk", t4, phi) + contract("mknr,ajk->manjr", t4, phi)
    eye = np.eye(space.n_modes)
    atom_pair = contract("mn,ajk->manjk", o, phi) + contract("mn,ajk->manjk", eye, pair)
    atom_pair += atom_pair_cross
    # <phi_a(1,2) phi_b(3,4)| under T(1,3) + T(1,4) + T(2,3) + T(2,4), then
    # under all four-particle terms
    pair_pair_cross = (
        contract("ikpr,aij,bkl->abpjrl", t4, phi, phi)
        + contract("ilps,aij,bkl->abpjks", t4, phi, phi)
        + contract("jkqr,aij,bkl->abiqrl", t4, phi, phi)
        + contract("jlqs,aij,bkl->abiqks", t4, phi, phi)
    )
    pair_pair = contract("aij,bkl->abijkl", pair, phi) + contract("aij,bkl->abijkl", phi, pair)
    pair_pair += pair_pair_cross

    css = pair.transpose(0, 2, 1)  # ket: m on particle 2, n on particle 1
    return {
        TermId.SS: o,
        TermId.SSSS: t4.transpose(0, 1, 3, 2),  # ket: p on particle 2, q on particle 1
        TermId.CC: contract("aij,bij->ab", pair, phi),
        TermId.CSS: css,
        TermId.SSC: css.T,
        # direct ket phi_b(2,3) n(1); exchange kets phi_b(1,3) n(2) and phi_b(1,2) n(3)
        TermId.SCSC: contract("manjk,bjk->mabn", atom_pair_cross, phi)
        + contract("maink,bik->mabn", atom_pair, phi)
        + contract("maijn,bij->mabn", atom_pair, phi),
        # direct ket phi_t(3,4) phi_u(1,2); exchange kets phi_t(2,4) phi_u(1,3)
        # and phi_t(2,3) phi_u(1,4)
        TermId.CCCC: contract("abijkl,tkl,uij->abtu", pair_pair_cross, phi, phi)
        + contract("abijkl,tjl,uik->abtu", pair_pair, phi, phi)
        + contract("abijkl,tjk,uil->abtu", pair_pair, phi, phi),
    }


# ---------------------------------------------------------------------------
# Ladder-path evaluation.


def _walk(
    state: OccupationState,
    steps: list[tuple[str, int, str]],
) -> tuple[float, OccupationState] | None:
    """Apply ladder steps right-to-left, returning (coefficient, image).

    The coefficient multiplies the sqrt factors in sorted order so that a
    path and its reverse produce bitwise-equal products.
    """
    factors: list[float] = []
    current = state
    for species, index, direction in steps:
        coeff, nxt = apply_ladder(current, species, index, direction)  # type: ignore[arg-type]
        if nxt is None:
            return None
        factors.append(coeff)
        current = nxt
    product = 1.0
    for f in sorted(factors):
        product *= f
    return product, current


def _occupied(counts: tuple[int, ...]) -> list[int]:
    return [i for i, n in enumerate(counts) if n > 0]


def _term_contributions(
    term: TermId,
    ket: OccupationState,
    tensors: CoefficientTensors,
) -> Iterator[tuple[OccupationState, float]]:
    """Yield (bra state, value) pairs for one term applied to one ket."""
    n_modes = len(ket.atoms)
    n_comp = len(ket.molecules)
    pref = TERM_PREFACTOR[term]
    c = tensors[term]

    if term is TermId.SS:
        for m in _occupied(ket.atoms):
            for n in range(n_modes):
                coeff = c[n, m]
                if coeff == 0.0:
                    continue
                walked = _walk(ket, [("atom", m, "annihilate"), ("atom", n, "create")])
                if walked:
                    ladder, bra = walked
                    yield bra, pref * coeff * ladder

    elif term is TermId.SSSS:
        for q in _occupied(ket.atoms):
            _, after_q = apply_ladder(ket, "atom", q, "annihilate")
            assert after_q is not None
            for p in _occupied(after_q.atoms):
                for m in range(n_modes):
                    for n in range(n_modes):
                        coeff = c[m, n, p, q]
                        if coeff == 0.0:
                            continue
                        walked = _walk(
                            ket,
                            [
                                ("atom", q, "annihilate"),
                                ("atom", p, "annihilate"),
                                ("atom", n, "create"),
                                ("atom", m, "create"),
                            ],
                        )
                        if walked:
                            ladder, bra = walked
                            yield bra, pref * coeff * ladder

    elif term is TermId.CC:
        for b in _occupied(ket.molecules):
            for a in range(n_comp):
                coeff = c[a, b]
                if coeff == 0.0:
                    continue
                walked = _walk(
                    ket, [("molecule", b, "annihilate"), ("molecule", a, "create")]
                )
                if walked:
                    ladder, bra = walked
                    yield bra, pref * coeff * ladder

    elif term is TermId.CSS:
        for n in _occupied(ket.atoms):
            _, after_n = apply_ladder(ket, "atom", n, "annihilate")
            assert after_n is not None
            for m in _occupied(after_n.atoms):
                for a in range(n_comp):
                    coeff = c[a, m, n]
                    if coeff == 0.0:
                        continue
                    walked = _walk(
                        ket,
                        [
                            ("atom", n, "annihilate"),
                            ("atom", m, "annihilate"),
                            ("molecule", a, "create"),
                        ],
                    )
                    if walked:
                        ladder, bra = walked
                        yield bra, pref * coeff * ladder

    elif term is TermId.SSC:
        for a in _occupied(ket.molecules):
            for m in range(n_modes):
                for n in range(n_modes):
                    coeff = c[m, n, a]
                    if coeff == 0.0:
                        continue
                    walked = _walk(
                        ket,
                        [
                            ("molecule", a, "annihilate"),
                            ("atom", n, "create"),
                            ("atom", m, "create"),
                        ],
                    )
                    if walked:
                        ladder, bra = walked
                        yield bra, pref * coeff * ladder

    elif term is TermId.SCSC:
        for n in _occupied(ket.atoms):
            _, after_n = apply_ladder(ket, "atom", n, "annihilate")
            assert after_n is not None
            for b in _occupied(after_n.molecules):
                for a in range(n_comp):
                    for m in range(n_modes):
                        coeff = c[m, a, b, n]
                        if coeff == 0.0:
                            continue
                        walked = _walk(
                            ket,
                            [
                                ("atom", n, "annihilate"),
                                ("molecule", b, "annihilate"),
                                ("molecule", a, "create"),
                                ("atom", m, "create"),
                            ],
                        )
                        if walked:
                            ladder, bra = walked
                            yield bra, pref * coeff * ladder

    elif term is TermId.CCCC:
        for t in _occupied(ket.molecules):
            _, after_t = apply_ladder(ket, "molecule", t, "annihilate")
            assert after_t is not None
            for u in _occupied(after_t.molecules):
                for b in range(n_comp):
                    for a in range(n_comp):
                        coeff = c[a, b, t, u]
                        if coeff == 0.0:
                            continue
                        walked = _walk(
                            ket,
                            [
                                ("molecule", t, "annihilate"),
                                ("molecule", u, "annihilate"),
                                ("molecule", b, "create"),
                                ("molecule", a, "create"),
                            ],
                        )
                        if walked:
                            ladder, bra = walked
                            yield bra, pref * coeff * ladder

    else:  # pragma: no cover - exhaustive enum
        raise ValueError(f"unknown term {term!r}")


def _check_consistent(basis: SectorBasis, space: ModeSpace, spectrum: CompositeSpectrum) -> None:
    if basis.n_atom_modes != space.n_modes:
        raise ValueError(
            f"basis has {basis.n_atom_modes} atom modes, mode space has {space.n_modes}"
        )
    if spectrum.n_modes != space.n_modes:
        raise ValueError(
            f"spectrum was built over {spectrum.n_modes} modes, mode space has {space.n_modes}"
        )
    if basis.n_molecule_modes != spectrum.n_composites:
        raise ValueError(
            f"basis has {basis.n_molecule_modes} molecule modes, spectrum has "
            f"{spectrum.n_composites} composites"
        )


def build_term(
    term: TermId,
    basis: SectorBasis,
    space: ModeSpace,
    spectrum: CompositeSpectrum,
    tensors: CoefficientTensors | None = None,
) -> SparseMatrix:
    """Sector-block matrix of a single term on the given basis.

    ``tensors`` is the model's :func:`coefficient_tensors`, built here when
    omitted.  Contributions landing outside the basis are dropped (projection
    onto the span); within a fixed-N sector that never happens because every
    term conserves the constituent number.
    """
    _check_consistent(basis, space, spectrum)
    if tensors is None:
        tensors = coefficient_tensors(space, spectrum)
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    for j, ket in enumerate(basis.states):
        for bra, value in _term_contributions(term, ket, tensors):
            i = basis.position(bra)
            if i is not None and value != 0.0:
                rows.append(i)
                cols.append(j)
                vals.append(value)
    return SparseMatrix.from_triples(basis.dim, rows, cols, vals)


class HermiticityError(AssertionError):
    """Assembled matrix failed the Hermiticity (or adjoint-pairing) check."""


@dataclass(frozen=True)
class SparseHamiltonian:
    """Assembled sector Hamiltonian: per-term blocks plus their sum."""

    basis: SectorBasis
    terms: Mapping[TermId, SparseMatrix]
    total: SparseMatrix

    def term(self, term: TermId) -> SparseMatrix:
        return self.terms[term]


def _worst_asymmetry_entries(mat: SparseMatrix, limit: int = 5) -> str:
    dense = mat.to_dense()
    diff = np.abs(dense - dense.T)
    flat = np.argsort(diff, axis=None)[::-1][:limit]
    rows, cols = np.unravel_index(flat, diff.shape)
    parts = [
        f"({r},{c}): {dense[r, c]!r} vs ({c},{r}): {dense[c, r]!r}"
        for r, c in zip(rows, cols)
        if diff[r, c] > 0
    ]
    return "; ".join(parts) if parts else "none"


def assemble_hamiltonian(
    basis: SectorBasis,
    space: ModeSpace,
    spectrum: CompositeSpectrum,
    tensors: CoefficientTensors | None = None,
) -> SparseHamiltonian:
    """Build all seven term blocks and their sum on one sector basis.

    Hermiticity of the sum and the adjoint pairing between the two
    rearrangement blocks are asserted, not assumed; a failure raises with
    the offending entries.
    """
    if tensors is None:
        tensors = coefficient_tensors(space, spectrum)
    terms = {term: build_term(term, basis, space, spectrum, tensors) for term in TermId}
    total = SparseMatrix.zero(basis.dim)
    for term in TermId:
        total = total + terms[term]
    asym = total.max_abs_asymmetry()
    if asym > HERMITICITY_TOL:
        raise HermiticityError(
            f"assembled sector matrix asymmetry {asym:.3e} exceeds {HERMITICITY_TOL:.1e}; "
            f"worst entries: {_worst_asymmetry_entries(total)}"
        )
    pairing = (terms[TermId.CSS] + _negate(terms[TermId.SSC].transpose())).max_abs()
    if pairing > HERMITICITY_TOL:
        raise HermiticityError(
            f"rearrangement blocks are not adjoint: max |CSS - SSC^T| = {pairing:.3e}"
        )
    return SparseHamiltonian(basis, terms, total)


def _negate(mat: SparseMatrix) -> SparseMatrix:
    return SparseMatrix(mat.dim, mat.rows, mat.cols, -mat.vals)
