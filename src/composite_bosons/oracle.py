"""Independent verification path via labeled-particle permutation expansion.

An occupation state is expanded into its symmetrized sum over all particle
relabelings; each Hamiltonian term is then applied in first-quantized form,
with classification projectors selecting the partition structure of the ket
and re-emitting the target structure with exactly contracted amplitudes.
Matrix elements computed this way never touch ladder operators, so they
cross-check the second-quantized construction term by term.

One plan, :func:`_plan`, says how a term acts on a labeled product.  It is
built from the product's label layout (which labels are atoms, which are
paired), not from the modes: :func:`_term_blueprints` yields, from the
layout's atom and pair labels, only the blueprints whose right slots the
layout fills, and the plan reads their factor positions and spectators off
the layout; every bra configuration a matched blueprint emits depends on
the layout alone too.  The plan is made once per (term, layout).  The
amplitudes a matched blueprint emits depend only on its shape (the term,
operators and slots with labels renumbered in order) and the modes of the
matched factors.  Each shape is contracted once, as one
:func:`~composite_bosons.algebra.fragment_table` per left structure over
every mode choice of its slots; a matched mode choice emits the nonzero
entries of that choice's column.  Plans and tables live in a memo the
caller creates per call, so nothing outlives one model or one sweep.  The
tables are built from the blueprint slots alone, never from the
second-quantized coefficient tensors.

:func:`apply_projected_term` collects one output product per emission.
:func:`oracle_matrix_element` applies a term to every labeled product of
the ket's expansion and takes the ideal inner product with the bra's
expansion; it is the brute-force reference.  :func:`sweep_columns` reads
the same plans and tables for a run of kets at a time as arrays, yields
each ket's column of each term block beside the second-quantized one, and
uses two closed forms of those expansions:

* Each projected term sums over all label choices, so it commutes with
  relabeling, and every bra expansion is a symmetric sum; hence <B|H|p> is
  the same for every labeled product p of the ket K.  The sweep applies each
  term to one representative, the identity-permutation product (atoms take
  labels 1.. in mode order, then each pair two consecutive labels), weighted
  by the sum of K's expansion weights, N! times its normalization constant.
  :func:`_kets` reads the layouts, modes and codes of a sector's
  representatives from its occupation array; no product is built.
* A labeled product fixes its occupation (atoms per mode, pairs per
  composite), so each emission is read into its bra through the occupation
  alone: the ket's spectators plus the emitted factors, kept as an integer
  code modulo 2**64, a sum of :func:`_digits`, that the plan holds per bra.
  In the expansion of bra B a labeled product carries the weight
  w_B = c_B * prod(n_m!) * prod(k_a! 2^k_a), c_B the normalization constant:
  the count of label permutations that fix one labeled product.  Each
  emission adds to its bra with that weight; no output product is built.

The second-quantized side of the sweep is the fixed-N sector Hamiltonians
its caller assembled, read as given: this module builds no second-quantized
term, so it checks the very blocks the caller diagonalizes or writes.
:func:`verify_sectors` folds the sweep's columns into a summary; the report's
layout, with a row per checked element, belongs to ``cli verify``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations, permutations, product
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .algebra import (
    Atom,
    FormalFactor,
    FormalProduct,
    FormalState,
    OneBody,
    Operator,
    Pair,
    Slot,
    TwoBody,
    formal_inner_product,
    fragment_table,
    pair_interaction_ops,
    slot_labels,
)
from .fock import OccupationState, SectorBasis, normalization_constant
from .hamiltonian import SparseHamiltonian, TermId
# Not called here, kept importable: perfbench wraps both until ROADMAP item 1 lands.
from .fock import enumerate_sector  # noqa: F401
from .hamiltonian import build_term  # noqa: F401
from .modespace import CompositeSpectrum, ModeSpace

EXPANSION_GUARD = 6

# How the printed index regions with one-sided exchange strings are read;
# recorded verbatim in verification reports.
TERM_READING = {
    "atom_molecule_exchange": (
        "for each (atom label; unordered pair) split, the direct string keeps "
        "the same split with only the atom-molecule interaction, and the two "
        "rearranged splits carry the full three-particle operator"
    ),
    "molecule_molecule_exchange": (
        "pair partitions are enumerated unordered; the exchange strings use "
        "the two alternative pair partitions of the four labels with the "
        "full four-particle operator"
    ),
}


def expand_basis_state(state: OccupationState) -> FormalState:
    """Symmetrized labeled-particle expansion of one occupation state.

    Sums the normalization prefactor times the factor product over all N!
    label permutations, merging identical products.  Guarded at N <= 6.
    """
    n = state.constituents
    if n > EXPANSION_GUARD:
        raise ValueError(
            f"expansion of an N={n} state needs {math.factorial(n)} permutations; "
            f"the guard is N <= {EXPANSION_GUARD} ({math.factorial(EXPANSION_GUARD)} terms)"
        )
    atom_modes = [m for m, count in enumerate(state.atoms) for _ in range(count)]
    pair_modes = [a for a, count in enumerate(state.molecules) for _ in range(count)]
    weight = normalization_constant(state)
    products = []
    for perm in permutations(range(1, n + 1)):
        factors: list[FormalFactor] = []
        pos = 0
        for mode in atom_modes:
            factors.append(Atom(mode, perm[pos]))
            pos += 1
        for comp in pair_modes:
            factors.append(Pair(comp, (perm[pos], perm[pos + 1])))
            pos += 2
        products.append(FormalProduct(weight, tuple(factors)))
    return FormalState.collect(products)


# ---------------------------------------------------------------------------
# Blueprints: for every index region of a term, the right projector slots,
# the sandwiched operator, and the left projector structures to re-emit.

Blueprint = tuple[tuple[Slot, ...], tuple[Operator, ...], tuple[tuple[Slot, ...], ...]]


def _s(label: int) -> Slot:
    return ("S", label)


def _c(i: int, j: int) -> Slot:
    return ("C", (i, j) if i < j else (j, i))


def _full_ops(labels: Sequence[int]) -> tuple[Operator, ...]:
    ops: list[Operator] = [OneBody(i) for i in labels]
    ops.extend(TwoBody(i, j) for i, j in combinations(labels, 2))
    return tuple(ops)


def _term_blueprints(
    term: TermId, atoms: Sequence[int], pairs: Sequence[tuple[int, int]]
) -> Iterator[Blueprint]:
    """The blueprints of ``term`` whose right slots a layout fills: its atom
    labels and its pair labels, each ascending."""
    if term is TermId.SS:
        for i in atoms:
            yield ((_s(i),), (OneBody(i),), ((_s(i),),))
    elif term is TermId.SSSS:
        for i, j in combinations(atoms, 2):
            slots = (_s(i), _s(j))
            yield (slots, (TwoBody(i, j),), (slots,))
    elif term is TermId.CC:
        for i, j in pairs:
            slots = (_c(i, j),)
            yield (slots, pair_interaction_ops(i, j), (slots,))
    elif term is TermId.CSS:
        for i, j in combinations(atoms, 2):
            yield ((_s(i), _s(j)), pair_interaction_ops(i, j), ((_c(i, j),),))
    elif term is TermId.SSC:
        for i, j in pairs:
            yield ((_c(i, j),), pair_interaction_ops(i, j), ((_s(i), _s(j)),))
    elif term is TermId.SCSC:
        for (j, k), i in product(pairs, atoms):
            right = (_s(i), _c(j, k))
            yield (right, (TwoBody(i, j), TwoBody(i, k)), (right,))
            yield (
                right,
                _full_ops((i, j, k)),
                ((_s(j), _c(i, k)), (_s(k), _c(i, j))),
            )
    elif term is TermId.CCCC:
        # unordered pair partitions: the first pair holds the smallest label
        for (i, j), (k, l) in combinations(pairs, 2):
            right = (_c(i, j), _c(k, l))
            cross = (TwoBody(i, k), TwoBody(i, l), TwoBody(j, k), TwoBody(j, l))
            yield (right, cross, (right,))
            yield (
                right,
                _full_ops((i, j, k, l)),
                ((_c(i, k), _c(j, l)), (_c(i, l), _c(j, k))),
            )
    else:  # pragma: no cover - exhaustive enum
        raise ValueError(f"unknown projected term {term!r}")


Layout = tuple[tuple[int, ...], ...]  # the labels of each factor, in factor order
Emission = tuple[int, float]  # (position in the entry's bra list, amplitude)


def _labels_of(factor: FormalFactor) -> tuple[int, ...]:
    return (factor.label,) if isinstance(factor, Atom) else factor.labels


def _mode_of(factor: FormalFactor) -> int:
    return factor.mode if isinstance(factor, Atom) else factor.index


def _digits(n: int, n_modes: int, n_composites: int) -> list[int]:
    """The occupation code of one atom in each mode, then of one pair in each
    composite, over labels 1..n: one digit each, in the least odd base above
    n.  A product's code, the sum of its factors' codes, names its occupation
    state; an odd digit is a unit modulo 2**64, so none vanishes there."""
    return [(n + 1 + n % 2) ** d for d in range(n_modes + n_composites)]


def _emit_configs(
    slots: tuple[Slot, ...],
    n_modes: int,
    n_composites: int,
) -> Iterator[tuple[FormalFactor, ...]]:
    ranges = [
        range(n_modes) if kind == "S" else range(n_composites) for kind, _ in slots
    ]
    for choice in product(*ranges):
        factors: list[FormalFactor] = []
        for (kind, where), idx in zip(slots, choice):
            if kind == "S":
                factors.append(Atom(idx, where))  # type: ignore[arg-type]
            else:
                factors.append(Pair(idx, where))  # type: ignore[arg-type]
        yield tuple(factors)


def _shape(term: TermId, ops: tuple[Operator, ...], right: tuple[Slot, ...],
           left: tuple[tuple[Slot, ...], ...]) -> tuple:
    """A matched blueprint with its labels renumbered 0, 1, ... in order."""
    rank = {lab: r for r, lab in enumerate(sorted(sum(map(slot_labels, right), ())))}.__getitem__

    def slots(group: tuple[Slot, ...]) -> tuple:
        return tuple((slot[0], tuple(map(rank, slot_labels(slot)))) for slot in group)

    acted = (((op.label,) if isinstance(op, OneBody) else (op.a, op.b)) for op in ops)
    return (term, tuple(tuple(map(rank, labs)) for labs in acted),
            slots(right), tuple(map(slots, left)))


@dataclass(eq=False)
class _Table:
    """The amplitudes of one blueprint shape for every mode choice.

    ``amplitudes`` is indexed (bra position, matched modes...): the
    :func:`fragment_table` of each left structure, its left axes flattened
    in :func:`_emit_configs` order, concatenated over the structures.  It is
    built on first use from any one blueprint of the shape: an
    order-preserving relabeling generates the same contractions, so every
    blueprint of the shape gets the same table.
    """

    left: tuple[tuple[Slot, ...], ...]
    ops: tuple[Operator, ...]
    right: tuple[Slot, ...]
    space: ModeSpace
    spectrum: CompositeSpectrum

    @cached_property
    def amplitudes(self) -> np.ndarray:
        parts = [
            fragment_table(slots, self.ops, self.right, self.space, self.spectrum)
            for slots in self.left
        ]
        return np.concatenate([part.reshape(-1, *part.shape[len(slots):])
                               for part, slots in zip(parts, self.left)])


def _u64(codes: Iterable[int]) -> np.ndarray:
    """Occupation codes modulo 2**64, as ``uint64``."""
    return np.array([code % 2**64 for code in codes], dtype=np.uint64)


@dataclass(eq=False)
class _Entry:
    """One blueprint of a term matched against one label layout.

    It holds the matched factor positions (in slot order), the spectator
    positions and the table of the blueprint's shape, shared by every entry
    of that shape: an order-preserving relabeling maps bra k of one entry
    to bra k of the other with the same amplitude.  The bra configurations
    of its left structures, in emission order, are built on first use: as
    products where an output product needs them, and as occupation codes
    modulo 2**64 (from :func:`_digits` over labels 1..n) where the sweep
    reads the bra.
    """

    matched: tuple[int, ...]
    spectators: tuple[int, ...]
    left: tuple[tuple[Slot, ...], ...]
    table: _Table
    n: int  # the number of labels
    sizes: tuple[int, int]  # (M, A)

    @cached_property
    def bras(self) -> list[FormalProduct]:
        return [
            FormalProduct(1.0, factors)
            for slots in self.left
            for factors in _emit_configs(slots, *self.sizes)
        ]

    @cached_property
    def codes(self) -> np.ndarray:
        digits = _digits(self.n, *self.sizes)
        atoms, pairs = digits[: self.sizes[0]], digits[self.sizes[0] :]
        return _u64(
            sum(choice)
            for slots in self.left
            for choice in product(*(atoms if kind == "S" else pairs for kind, _ in slots))
        )

    def emitted(self, modes: tuple[int, ...]) -> list[Emission]:
        """The nonzero emissions of a product with these factor modes, in bra order."""
        column = self.table.amplitudes[(slice(None), *[modes[p] for p in self.matched])]
        nonzero = np.flatnonzero(column)
        return list(zip(nonzero.tolist(), column[nonzero].tolist()))


@dataclass
class _Memo:
    """What one call works out once and reuses across its products: the
    plan of each (term, label layout) and the table of each shape.  The
    caller creates one per call, so nothing outlives one model or sweep."""

    space: ModeSpace
    spectrum: CompositeSpectrum
    plans: dict[tuple, list[_Entry]] = field(default_factory=dict)
    tables: dict[tuple, _Table] = field(default_factory=dict)


def _plan(term: TermId, layout: Layout, memo: _Memo) -> list[_Entry]:
    """Every blueprint of ``term`` that matches ``layout``, planned once per call."""
    plan = memo.plans.get((term, layout))
    if plan is not None:
        return plan
    sizes = (memo.space.n_modes, memo.spectrum.n_composites)
    atoms = sorted(labs[0] for labs in layout if len(labs) == 1)
    pairs = sorted(labs for labs in layout if len(labs) == 2)
    position = {labs: p for p, labs in enumerate(layout)}
    plan = memo.plans[term, layout] = []
    for right, ops, left in _term_blueprints(term, atoms, pairs):
        matched = tuple([position[slot_labels(slot)] for slot in right])
        spectators = tuple(p for p in range(len(layout)) if p not in matched)
        shape = _shape(term, ops, right, left)
        table = memo.tables.get(shape)
        if table is None:
            table = memo.tables[shape] = _Table(left, ops, right, memo.space, memo.spectrum)
        plan.append(_Entry(matched, spectators, left, table, len(atoms) + 2 * len(pairs), sizes))
    return plan


def apply_projected_term(
    term: TermId,
    state: FormalState,
    space: ModeSpace,
    spectrum: CompositeSpectrum,
) -> FormalState:
    """Apply one first-quantized projected term to a formal state.

    For each product of the state and each blueprint whose right slots match
    it, every nonzero emission of the blueprint's left structures is one
    output product: the emitted bra configuration, then the spectators,
    weighted by the product's weight times the exact fragment element read
    from the shape's table.  The output products are collected; terms whose
    arity exceeds the particle count produce the empty (annihilating) state.
    """
    memo = _Memo(space, spectrum)
    out = [
        FormalProduct(
            prod.weight * amp,
            entry.bras[k].factors + tuple([prod.factors[p] for p in entry.spectators]),
        )
        for prod in state.products
        for entry in _plan(term, tuple(map(_labels_of, prod.factors)), memo)
        for k, amp in entry.emitted(tuple(map(_mode_of, prod.factors)))
    ]
    if not out:
        return FormalState(())
    return FormalState.collect(out)


def oracle_matrix_element(
    term: TermId,
    bra: OccupationState,
    ket: OccupationState,
    space: ModeSpace,
    spectrum: CompositeSpectrum,
) -> float:
    """<bra|term|ket> by permutation expansion, without ladder operators."""
    if bra.constituents != ket.constituents:
        return 0.0
    applied = apply_projected_term(term, expand_basis_state(ket), space, spectrum)
    if applied.is_empty:
        return 0.0
    return formal_inner_product(expand_basis_state(bra), applied)


# ---------------------------------------------------------------------------
# Full-sweep verification against the second-quantized construction.


class Column(NamedTuple):
    """One ket's column of one term block on one sector, read both ways.

    The column is sparse: ``sq``, ``oracle`` and ``diff`` hold the values at
    ``rows`` only, and every other bra is +0.0 on both routes.
    """

    term: str
    sector: int
    bras: list[str]  # the names of the sector's states, in bra order
    ket: str
    rows: list[int]  # ascending: the rows sq stores and the bras oracle adds to
    sq: list[float]
    oracle: list[float]
    diff: list[float]  # |sq - oracle| per listed row


RUN = 512  # the kets whose oracle columns the sweep builds at once


class _Sector(NamedTuple):
    """One sector as the sweep reads it for every term: its layouts' kets
    (:func:`_kets`), its states' occupation codes modulo 2**64, ascending,
    the state of each code and the weight w_i of one labeled product in
    each state's expansion."""

    kets: list[tuple]
    codes: np.ndarray
    order: np.ndarray
    w: np.ndarray


def _oracle_run(
    term: TermId, sector: _Sector, a: int, b: int, memo: _Memo
) -> tuple[np.ndarray, np.ndarray]:
    """The emissions of kets a..b-1, in emission order (plan order, then bra
    position, for each ket): the key ``(j - a) * dim + i`` of the (ket j,
    bra i) element each adds to, and the value it adds."""
    dim = len(sector.w)
    keys, values = [np.zeros(0, dtype=np.int64)], [np.zeros(0)]
    for layout, kets, modes, codes, weight in sector.kets:
        lo, hi = np.searchsorted(kets, (a, b)).tolist()
        if lo == hi:
            continue
        kets, modes, codes, weight = kets[lo:hi], modes[lo:hi], codes[lo:hi], weight[lo:hi]
        for entry in _plan(term, layout, memo):
            amps = entry.table.amplitudes[(slice(None), *modes[:, list(entry.matched)].T)].T
            j, k = np.nonzero(amps)
            # the ket's code minus the matched factors' is its spectators'
            rest = codes[:, list(entry.spectators)].sum(axis=1, dtype=np.uint64)
            bra_codes = rest[j] + entry.codes[k]
            found = np.minimum(np.searchsorted(sector.codes, bra_codes), dim - 1)
            if np.any(sector.codes[found] != bra_codes):
                raise ValueError(f"a {term.value} emission leaves the sector")
            bras = sector.order[found]
            keys.append((kets[j] - a) * dim + bras)
            values.append(sector.w[bras] * (weight[j] * amps[j, k]))
    return np.concatenate(keys), np.concatenate(values)


def _weights(basis: SectorBasis) -> tuple[np.ndarray, np.ndarray]:
    """Two weights per state, from its normalization constant c, evaluated
    once: c * prod(n_m!) * prod(k_a! 2^k_a), the weight of one labeled
    product in its expansion (the product counts the label permutations
    that fix it), and N! * c, the sum of the expansion's weights."""
    c = np.array([normalization_constant(s) for s in basis.states])
    fixing = [math.prod(map(math.factorial, s.atoms))
              * math.prod(math.factorial(k) * 2**k for k in s.molecules) for s in basis.states]
    return c * np.array(fixing, dtype=float), float(math.factorial(basis.constituents)) * c


def _kets(basis: SectorBasis, digits: np.ndarray, weights: np.ndarray) -> list[tuple]:
    """Each label layout's kets of ``basis``, read from its occupation counts:
    their indices, factor modes, factor codes (``digits`` of the factors'
    occupation columns) and ``weights``.  A ket is applied as its
    representative, the identity-permutation product of its expansion:
    atoms take labels 1.. in mode order, then each pair two consecutive
    labels, so the number of atoms fixes the layout.  The weight is N! times
    the normalization constant, the sum of the expansion's weights."""
    occ, m, n = basis.occupations, basis.n_atom_modes, basis.constituents
    n_atoms = occ[:, :m].sum(axis=1)
    out = []
    for a in np.unique(n_atoms).tolist():
        kets = np.flatnonzero(n_atoms == a)
        rows = occ[kets]
        columns = np.repeat(np.tile(np.arange(occ.shape[1]), len(kets)), rows.ravel())
        columns = columns.reshape(len(kets), -1)  # atom modes ascending, then composites
        layout = tuple((lab,) for lab in range(1, a + 1)) + tuple(
            (lab, lab + 1) for lab in range(a + 1, n, 2)
        )
        out.append((layout, kets, np.where(columns < m, columns, columns - m), digits[columns],
                    weights[kets]))
    return out


def sweep_columns(
    space: ModeSpace,
    spectrum: CompositeSpectrum,
    hams: Iterable[SparseHamiltonian],
) -> Iterator[Column]:
    """Every column of every term block of ``hams``, sq beside oracle.

    Each Hamiltonian is one fixed-N sector of ``space`` and ``spectrum``,
    numbered by ``ham.basis.constituents`` (a basis without one raises
    ValueError), and its sq values are read from ``ham.terms`` alone.
    Columns come for all seven terms, term by term within a sector,
    sectors in the order given, kets in basis order.  Each term is applied
    to one labeled representative per ket, the identity-permutation product
    weighted by N! times the normalization constant (the sum of the
    expansion's weights).  This is exact because the projected terms
    commute with relabeling and the bra expansions are symmetric.

    The oracle columns of one term are built for a run of :data:`RUN` kets
    at a time with array operations, read from :func:`_kets`: each plan
    entry is applied to all the run's kets of its layout at once, its
    amplitudes read from the shape's table at their matched modes.  Each
    emission's bra occupation code (the ket's, minus the matched factors',
    plus the emitted bra's, modulo 2**64 and checked distinct per sector)
    is found among the sector's codes, and the emission adds ``w_i *
    (weight * amp)`` to bra i, w_i being the weight of any one labeled
    product in bra i's expansion.  Each (ket, bra) sums its emissions from
    0.0 in emission order (plan order, then bra position), so every value is
    the one a per-emission loop forms, bitwise.  No expansion and no output
    product is built; the column is the one :func:`apply_projected_term`
    would give up to roundoff, not bitwise.

    One memo serves the whole sweep: the plan of each (term, label layout)
    and the table of each shape are computed once and reused by every run,
    sector and term that meets them, so each shape is contracted once, even
    relabeled.  Each column is sparse (:class:`Column`): its rows join the
    rows sq stores and the bras the oracle adds to, read for the run as
    sorted (ket, bra) keys, and no list of the sector's dimension is built.
    Nothing is kept from one run to the next, so a consumer that does not
    keep the columns runs in memory that does not grow with their number.
    """
    memo = _Memo(space, spectrum)
    for ham in hams:
        basis, n = ham.basis, ham.basis.constituents
        if n is None:
            raise ValueError("the oracle sweeps fixed-N sectors, and this basis mixes N")
        names = [str(s) for s in basis.states]
        digits = _u64(_digits(n, space.n_modes, spectrum.n_composites))
        codes = basis.occupations.astype(np.uint64) @ digits
        order = np.argsort(codes)
        codes = codes[order]
        if np.any(codes[1:] == codes[:-1]):
            raise ValueError(f"occupation codes of sector {n} collide modulo 2**64")
        w, ket_weights = _weights(basis)
        sector = _Sector(_kets(basis, digits, ket_weights), codes, order, w)
        for term in TermId:
            # the block stored by column: ket j's entries are one slice
            by_column = ham.terms[term].transpose()
            for a in range(0, basis.dim, RUN):
                b = min(a + RUN, basis.dim)
                keys, emitted = _oracle_run(term, sector, a, b, memo)
                s, e = by_column.indptr[a], by_column.indptr[b]
                held = np.repeat(np.arange(b - a), np.diff(by_column.indptr[a : b + 1]))
                held = held * basis.dim + by_column.indices[s:e]
                # one sorted key set of the stored and the emitted (ket, bra)
                rows, inverse = np.unique(np.concatenate([held, keys]), return_inverse=True)
                sq = np.zeros(len(rows))
                sq[inverse[: len(held)]] = by_column.data[s:e]
                # each element's emissions summed from 0.0 in emission order
                oracle = np.bincount(inverse[len(held) :], weights=emitted, minlength=len(rows))
                bounds = np.searchsorted(rows, np.arange(b - a + 1) * basis.dim).tolist()
                arrays = (rows % basis.dim, sq, oracle, np.abs(sq - oracle))
                for j, (x, y) in enumerate(zip(bounds, bounds[1:])):
                    yield Column(term.value, n, names, names[a + j],
                                 *[array[x:y].tolist() for array in arrays])


def verify_sectors(
    space: ModeSpace,
    spectrum: CompositeSpectrum,
    hams: Iterable[SparseHamiltonian],
) -> dict:
    """Compare every term matrix element of the given fixed-N sector
    Hamiltonians against the oracle.

    Folds :func:`sweep_columns` into ``{"max_abs_diff", "pairs_checked"}``:
    the largest difference over the rows each sparse column lists, since
    every other row differs by +0.0, and the number of elements checked.
    No column is kept, so memory does not grow with the sectors.
    """
    max_diff = 0.0
    checked = 0
    for col in sweep_columns(space, spectrum, hams):
        max_diff = max([max_diff, *col.diff])
        checked += len(col.bras)
    return {"max_abs_diff": max_diff, "pairs_checked": checked}
