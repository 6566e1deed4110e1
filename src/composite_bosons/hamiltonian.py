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

The bra-ket coefficients of a term form one tensor per model, a closed-form
contraction of ``O``, ``T4`` and the pair coefficients ``phi[a, p, q]``
built once by :func:`coefficient_tensors`.  Each term's block is the sparse
product ``pref * L^T (C (x) I) R``: ``L`` and ``R`` are the annihilator
ladders of the term's bra and ket groups, and ``C`` is the tensor with its
bra axes flattened into rows.  The ladders come from
:attr:`SectorBasis.annihilator_ladders`, built once per basis by array
operations on its occupation array, with the images of all groups ranked
jointly, and shared by every term.  ``(C (x) I) R`` is formed without the
Kronecker product, as ``C`` times the ket ladder with its (image, state)
pairs as columns, and the block is read straight from the CSR product.
Each block is bitwise the one the Kronecker form gives.  This route does
not use :mod:`composite_bosons.algebra`; only the oracle does.

Every term conserves the constituent number, so on a union of fixed-N
sectors each term is the direct sum of its sector blocks, bit for bit.  A
run therefore builds its ladders and its seven term blocks once, on the
union of all its sectors, and :func:`split_sectors` reads each sector's
Hamiltonian off the result as diagonal slices.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Mapping, Sequence

import numpy as np
import scipy.sparse as sp

# Unused here, kept importable: perfbench's layer probe reports four algebra metrics by it.
from .algebra import ElementEngine  # noqa: F401
from .fock import AnnihilatorLadder, SectorBasis, Species
# Not called here, kept importable: perfbench wraps it to count ladder calls.
from .fock import apply_ladder  # noqa: F401
from .modespace import CompositeSpectrum, ModeSpace
from .numerics import SparseMatrix, row_sorted_csr

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


@lru_cache(maxsize=None)
def _greedy_path(subscripts: str, shapes: tuple[tuple[int, ...], ...]) -> list:
    """The path ``np.einsum(..., optimize=True)`` searches for operands of
    ``shapes``, searched once per (subscripts, shapes); einsum runs along it
    bitwise as along a fresh search."""
    return np.einsum_path(subscripts, *(np.empty(shape) for shape in shapes), optimize="greedy")[0]


def coefficient_tensors(space: ModeSpace, spectrum: CompositeSpectrum) -> dict[TermId, np.ndarray]:
    """The seven coefficient tensors of one model.

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
        path = _greedy_path(subscripts, tuple(a.shape for a in operands))
        return np.einsum(subscripts, *operands, optimize=path)

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
# Terms as products of annihilator stacks.

# The species of each term's bra group and ket group, in the order of the
# tensor axes.  A term is ``pref * sum c[g, h] (L_g)^T R_h``, where L_g and R_h
# map the basis through the annihilator products of the two groups.  SSC has
# no row: it is the CSS block transposed.
_GROUPS: Mapping[TermId, tuple[tuple[Species, ...], tuple[Species, ...]]] = {
    TermId.SS: (("atom",), ("atom",)),
    TermId.SSSS: (("atom", "atom"), ("atom", "atom")),
    TermId.CC: (("molecule",), ("molecule",)),
    TermId.CSS: (("molecule",), ("atom", "atom")),
    TermId.SCSC: (("atom", "molecule"), ("molecule", "atom")),
    TermId.CCCC: (("molecule", "molecule"), ("molecule", "molecule")),
}


def _product(term: TermId, basis: SectorBasis, tensors: CoefficientTensors) -> SparseMatrix:
    """``pref * L^T (C (x) I) R`` of one term with a row in ``_GROUPS``.

    ``(C (x) I) R`` is formed as ``C`` times the ket ladder with its images
    carried in the columns, then its rows are re-indexed to (g, image)
    straight into CSR, with no coordinate copy (:func:`_by_image`).  Its
    entries sum over h ascending, as the Kronecker product does, and each
    block entry sums over g ascending along a row of ``by_state``, so the
    block is bitwise the Kronecker form's.  No product is as wide as
    ``n_images * dim``: a sparse product keeps a dense accumulator as wide
    as its result.
    """
    bra_group, ket_group = _GROUPS[term]
    ladders = basis.annihilator_ladders
    bra, ket = ladders.groups[bra_group], ladders.groups[ket_group]
    if not (bra.by_state.nnz and ket.by_state.nnz):
        return SparseMatrix.zero(basis.dim)
    coeffs = sp.csr_matrix(TERM_PREFACTOR[term] * tensors[term].reshape(bra.size, ket.size))
    # the re-indexed product is freed before the block is canonicalized
    return SparseMatrix.from_csr(
        bra.by_state @ _by_image(coeffs @ ket.by_group, ket, ladders.n_images)
    )


def _by_image(applied: sp.csr_matrix, ket: AnnihilatorLadder, n_images: int) -> sp.csr_matrix:
    """``applied``, with rows g and the ket's (image, state) pairs as columns,
    re-indexed to rows (g, image) and columns state.  The pairs ascend, so
    with each row sorted the entries come in row-major order."""
    applied.sort_indices()
    pairs = applied.indices
    rows = np.repeat(np.arange(applied.shape[0]) * n_images, np.diff(applied.indptr))
    rows += ket.pair_images[pairs]
    shape = (applied.shape[0] * n_images, ket.by_state.shape[0])
    return row_sorted_csr(rows, ket.pair_states[pairs], applied.data, shape)


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
    if term is TermId.SSC:
        return _product(TermId.CSS, basis, tensors).transpose()
    return _product(term, basis, tensors)


class HermiticityError(AssertionError):
    """Assembled matrix failed the Hermiticity (or adjoint-pairing) check."""


@dataclass(frozen=True)
class SparseHamiltonian:
    """Assembled sector Hamiltonian: per-term blocks plus their sum."""

    basis: SectorBasis
    terms: Mapping[TermId, SparseMatrix]
    total: SparseMatrix


def _worst_asymmetry_entries(mat: SparseMatrix, limit: int = 5) -> str:
    """The ``limit`` largest |A - A^T| entries, largest first, ties by (row, col)."""
    csr = mat.to_csr()
    diff = (csr - csr.T).tocoo()
    size = np.abs(diff.data)
    worst = np.lexsort((diff.col, diff.row, -size))[:limit]
    parts = [
        f"({r},{c}): {float(csr[r, c])!r} vs ({c},{r}): {float(csr[c, r])!r}"
        for r, c in zip(diff.row[worst], diff.col[worst])
    ]
    return "; ".join(parts) if parts else "none"


def assemble_hamiltonian(
    basis: SectorBasis,
    space: ModeSpace,
    spectrum: CompositeSpectrum,
    tensors: CoefficientTensors | None = None,
) -> SparseHamiltonian:
    """Build all seven term blocks and their sum on one sector basis.

    The blocks are canonical, so the total is their CSR sum, added left to
    right in :class:`TermId` order and canonicalized once.  Hermiticity of
    the sum (to ``HERMITICITY_TOL * max(1, max|H|)``: roundoff scales with
    the entries) and the bitwise adjoint pairing ``CSS == SSC^T`` are
    asserted, not assumed; a Hermiticity failure names the worst entries by
    their indices in ``basis``, which on a union basis are union indices.
    """
    if tensors is None:
        tensors = coefficient_tensors(space, spectrum)
    terms = {term: build_term(term, basis, space, spectrum, tensors) for term in TermId}
    total = SparseMatrix.from_csr(reduce(operator.add, (b.to_csr() for b in terms.values())))
    asym, tol = total.max_abs_asymmetry(), HERMITICITY_TOL * max(1.0, total.max_abs())
    if asym > tol:
        raise HermiticityError(
            f"assembled sector matrix asymmetry {asym:.3e} exceeds {tol:.1e}; "
            f"worst entries: {_worst_asymmetry_entries(total)}"
        )
    css, ssc_t = terms[TermId.CSS], terms[TermId.SSC].transpose()
    pairs = ((css.indptr, ssc_t.indptr), (css.indices, ssc_t.indices), (css.data, ssc_t.data))
    if not all(np.array_equal(x, y) for x, y in pairs):
        raise HermiticityError("rearrangement blocks are not adjoint: CSS differs from SSC^T")
    return SparseHamiltonian(basis, terms, total)


def split_sectors(ham: SparseHamiltonian, bases: Sequence[SectorBasis]) -> list[SparseHamiltonian]:
    """The Hamiltonian of each basis, read off ``ham`` assembled on their union.

    ``ham.basis`` must be ``SectorBasis.union(*bases)``.  Each sector's term
    blocks and total are diagonal slices of ``ham``'s, bitwise equal to
    :func:`assemble_hamiltonian` on the sector itself: no term couples two
    sectors, each total entry sums the same term entries in the same order,
    and the drop only pairs entries within one sector.  The slices are
    copies, so ``ham`` can be freed once they are taken.
    """
    bounds = np.cumsum([0, *(basis.dim for basis in bases)]).tolist()
    if bounds[-1] != ham.basis.dim:
        raise ValueError(f"sectors of total dimension {bounds[-1]} do not split {ham.basis.dim}")
    return [
        SparseHamiltonian(
            basis,
            {term: block.diagonal_block(lo, hi) for term, block in ham.terms.items()},
            ham.total.diagonal_block(lo, hi),
        )
        for basis, lo, hi in zip(bases, bounds, bounds[1:])
    ]
