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
every mode choice of its slots, and the emissions of a matched mode choice
are the nonzero entries of that choice's column, stored as (position in the
bra list, amplitude).  Plans and tables live in a memo the caller creates
per call, so nothing outlives one model or one sweep.  The tables are built
from the blueprint slots alone, never from the second-quantized coefficient
tensors.

:func:`apply_projected_term` collects the output products of
:func:`_emissions`.  :func:`oracle_matrix_element` applies a term to every
labeled product of the ket's expansion and takes the ideal inner product
with the bra's expansion; it is the brute-force reference.
:func:`sweep_columns` reads the same plans and tables through
:func:`_oracle_column`, yields each ket's column of each term block beside
the second-quantized one, and uses two closed forms of those expansions:

* Each projected term sums over all label choices, so it commutes with
  relabeling, and every bra expansion is a symmetric sum; hence <B|H|p> is
  the same for every labeled product p of the ket K.  The sweep applies each
  term to one representative, the identity-permutation product (atoms take
  labels 1.. in mode order, then each pair two consecutive labels), weighted
  by the sum of K's expansion weights, N! times its normalization constant.
  :func:`_ket` reads its layout, modes and codes from K's occupation counts;
  no product is built.
* A labeled product fixes its occupation (atoms per mode, pairs per
  composite), so each emission is read into its bra through the occupation
  alone: the ket's, minus the matched factors, plus the emitted ones, kept
  as an integer code, a sum of :func:`_digits`, that the plan holds per
  bra.  In the expansion of bra B a labeled product carries the weight
  w_B = c_B * prod(n_m!) * prod(k_a! 2^k_a), c_B the normalization constant:
  the count of label permutations that fix one labeled product.  Each
  emission is added straight into its bra with that weight; no output
  product is built.

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
from .fock import OccupationState, SectorBasis, enumerate_sector, normalization_constant
from .hamiltonian import TermId, build_term, coefficient_tensors
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


def labeled_product_weight(state: OccupationState) -> float:
    """Weight of each labeled product in ``state``'s expansion: the
    normalization constant times prod(n_m!) * prod(k_a! 2^k_a), the number of
    label permutations that leave one labeled product unchanged."""
    fixing = 1
    for count in state.atoms:
        fixing *= math.factorial(count)
    for count in state.molecules:
        fixing *= math.factorial(count) * 2**count
    return normalization_constant(state) * fixing


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
    composite, over labels 1..n: one base-(n+1) digit each.  A product's
    code, the sum of its factors' codes, names its occupation state."""
    return [(n + 1) ** d for d in range(n_modes + n_composites)]


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
    blueprint of the shape gets the same table.  ``emissions`` maps each
    matched mode choice to the nonzero ``(bra position, amplitude)`` entries
    of its column, in bra order.
    """

    left: tuple[tuple[Slot, ...], ...]
    ops: tuple[Operator, ...]
    right: tuple[Slot, ...]
    space: ModeSpace
    spectrum: CompositeSpectrum
    emissions: dict[tuple[int, ...], list[Emission]] = field(default_factory=dict)

    @cached_property
    def amplitudes(self) -> np.ndarray:
        parts = [
            fragment_table(slots, self.ops, self.right, self.space, self.spectrum)
            for slots in self.left
        ]
        return np.concatenate([part.reshape(-1, *part.shape[len(slots):])
                               for part, slots in zip(parts, self.left)])

    def emitted(self, matched_modes: tuple[int, ...]) -> list[Emission]:
        out = self.emissions.get(matched_modes)
        if out is None:
            column = self.amplitudes[(slice(None), *matched_modes)]
            nonzero = np.flatnonzero(column)
            out = self.emissions[matched_modes] = list(
                zip(nonzero.tolist(), column[nonzero].tolist())
            )
        return out


@dataclass(eq=False)
class _Entry:
    """One blueprint of a term matched against one label layout.

    It holds the matched factor positions (in slot order), the spectator
    positions and the table of the blueprint's shape, shared by every entry
    of that shape: an order-preserving relabeling maps bra k of one entry
    to bra k of the other with the same amplitude.  The bra configurations
    of its left structures, in emission order, are built on first use: as
    products where an output product needs them, and as occupation codes
    (from :func:`_digits` over labels 1..n) where the sweep reads the bra.
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
    def codes(self) -> list[int]:
        digits = _digits(self.n, *self.sizes)
        atoms, pairs = digits[: self.sizes[0]], digits[self.sizes[0] :]
        return [
            sum(choice)
            for slots in self.left
            for choice in product(*(atoms if kind == "S" else pairs for kind, _ in slots))
        ]

    def emitted(self, modes: tuple[int, ...]) -> list[Emission]:
        """The nonzero emissions of a product with these factor modes."""
        return self.table.emitted(tuple([modes[p] for p in self.matched]))


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


def _emissions(
    term: TermId, prod: FormalProduct, memo: _Memo
) -> Iterator[tuple[_Entry, list[Emission]]]:
    """The emissions of a projected term applied to one labeled product.

    For each blueprint whose right slots match ``prod`` it yields the plan
    entry and the nonzero ``(bra position, amplitude)`` emissions of its left
    structures; the entry names the matched and spectator factors and the
    bras.  The amplitude is the exact fragment element, read from the
    shape's table; ``prod``'s own weight is not applied.

    ``memo`` holds the plan of each (term, label layout) and the table of
    each shape (the term, operators and slots with labels renumbered in
    order); the caller creates it per call and reuses it across the
    products of that call, so each shape is contracted once.
    """
    modes = tuple(map(_mode_of, prod.factors))
    for entry in _plan(term, tuple(map(_labels_of, prod.factors)), memo):
        emitted = entry.emitted(modes)
        if emitted:
            yield entry, emitted


class _Ket(NamedTuple):
    """A ket's representative, the identity-permutation product of its
    expansion, read once for every term: its factors' label layout, modes
    and occupation codes, and its total weight."""

    weight: float
    layout: Layout
    modes: tuple[int, ...]
    codes: list[int]  # the occupation code of each factor
    occupation: int


def _ket(state: OccupationState, digits: list[int]) -> _Ket:
    """``state``'s representative, read from its counts and ``digits``
    (:func:`_digits` over its labels).  Atoms take labels 1.. in mode order,
    then each pair two consecutive labels; the weight is N! times the
    normalization constant, the sum of the expansion's weights."""
    n_modes, n = len(state.atoms), state.constituents
    atoms = [m for m, count in enumerate(state.atoms) for _ in range(count)]
    pairs = [a for a, count in enumerate(state.molecules) for _ in range(count)]
    codes = [digits[m] for m in atoms] + [digits[n_modes + a] for a in pairs]
    a = len(atoms)
    layout = tuple((lab,) for lab in range(1, a + 1)) + tuple(
        (lab, lab + 1) for lab in range(a + 1, n, 2)
    )
    weight = math.factorial(n) * normalization_constant(state)
    return _Ket(weight, layout, tuple(atoms + pairs), codes, sum(codes))


def _oracle_column(
    term: TermId,
    ket: _Ket,
    index: dict[int, tuple[int, float]],
    memo: _Memo,
) -> dict[int, float]:
    """Column ``<i|term|ket>`` read from the emissions of ket's representative,
    keyed by the bras i it adds to; every other entry is +0.0.

    Each emission is read into its bra through the occupation code (see
    :func:`_digits`): the ket's, minus the matched factors', plus the
    emitted bra's from the plan, looked up in ``index``
    ``occupation -> (i, w_i)``, and added there, starting from 0.0, as
    ``w_i * (weight * amp)``.
    """
    column: dict[int, float] = {}
    weight = ket.weight
    for entry in _plan(term, ket.layout, memo):
        emitted = entry.emitted(ket.modes)
        if emitted:
            occupation = ket.occupation - sum([ket.codes[p] for p in entry.matched])
            codes = entry.codes
            for k, amp in emitted:
                i, w_i = index[occupation + codes[k]]
                column[i] = column.get(i, 0.0) + w_i * (weight * amp)
    return column


def apply_projected_term(
    term: TermId,
    state: FormalState,
    space: ModeSpace,
    spectrum: CompositeSpectrum,
) -> FormalState:
    """Apply one first-quantized projected term to a formal state.

    Collects the emission core's output products over every product of the
    state.  Terms whose arity exceeds the particle count simply produce the
    empty (annihilating) state.
    """
    memo = _Memo(space, spectrum)
    out = [
        FormalProduct(
            prod.weight * amp,
            entry.bras[k].factors + tuple([prod.factors[p] for p in entry.spectators]),
        )
        for prod in state.products
        for entry, emitted in _emissions(term, prod, memo)
        for k, amp in emitted
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


def sweep_columns(
    space: ModeSpace,
    spectrum: CompositeSpectrum,
    sector_numbers: Iterable[int],
) -> Iterator[Column]:
    """Every column of every term block on the given sectors, sq beside oracle.

    Columns come for all seven terms, term by term within a sector, kets in
    basis order.  Each term is applied to one labeled representative per
    ket, the identity-permutation product weighted by N! times the
    normalization constant (the sum of the expansion's weights).  This is
    exact because the projected terms commute with relabeling and the bra
    expansions are symmetric.  Column j is read straight from the emission
    core: each emission's bra occupation (the ket's, minus the matched
    factors, plus the emitted ones) indexes ``occupation code -> (bra
    index, w_i)``, w_i being the weight of any one labeled product in bra
    i's expansion.  No expansion and no output product is built, and the
    sums run in emission order, so the column is the one
    :func:`apply_projected_term` would give up to roundoff, not bitwise.

    One memo serves the whole sweep: the plan of each (term, label layout),
    the table of each shape and the emissions of each matched mode choice
    are computed once and reused by every ket, sector and term that meets
    them, so each shape is contracted once, even relabeled.  Each term block is
    read by column, one ket's slice at a time as Python floats, so no copy of
    a whole block is made as Python objects.  Each column is sparse
    (:class:`Column`): its rows join the rows sq stores and the bras the
    oracle column adds to, and no list of the sector's dimension is built.

    The second-quantized blocks are built once per term, on the union of the
    distinct requested sectors, and each sector's block is read off as a
    diagonal slice, bitwise the block :func:`build_term` gives on the sector
    itself; repeated or unordered sector numbers are swept in the order
    given.  Beyond those blocks nothing is kept from one column to the next,
    so a consumer that does not keep the columns runs in memory that does
    not grow with their number.
    """
    numbers = list(sector_numbers)
    if not numbers:
        return
    memo = _Memo(space, spectrum)
    bases = {
        n: enumerate_sector(n, space.n_modes, spectrum.n_composites)
        for n in dict.fromkeys(numbers)
    }
    union = SectorBasis.union(*bases.values())
    tensors = coefficient_tensors(space, spectrum)
    union_blocks = {term: build_term(term, union, space, spectrum, tensors) for term in TermId}
    starts = dict(zip(bases, np.cumsum([0, *(b.dim for b in bases.values())]).tolist()))
    for n in numbers:
        basis, lo = bases[n], starts[n]
        names = [str(s) for s in basis.states]
        digits = _digits(n, space.n_modes, spectrum.n_composites)
        kets = [_ket(s, digits) for s in basis.states]
        index = {
            ket.occupation: (i, labeled_product_weight(s))
            for i, (ket, s) in enumerate(zip(kets, basis.states))
        }
        for term in TermId:
            # the block stored by column: ket j's entries are one slice
            by_column = union_blocks[term].diagonal_block(lo, lo + basis.dim).transpose()
            bounds = by_column.indptr.tolist()
            stored_rows, stored = by_column.indices, by_column.data
            for j, ket in enumerate(kets):
                column = slice(bounds[j], bounds[j + 1])
                sq = dict(zip(stored_rows[column].tolist(), stored[column].tolist()))
                oracle = _oracle_column(term, ket, index, memo)
                rows = sorted(sq.keys() | oracle.keys())
                sqs = [sq.get(i, 0.0) for i in rows]
                oracles = [oracle.get(i, 0.0) for i in rows]
                diffs = [abs(a - b) for a, b in zip(sqs, oracles)]
                yield Column(term.value, n, names, names[j], rows, sqs, oracles, diffs)


def verify_sectors(
    space: ModeSpace,
    spectrum: CompositeSpectrum,
    sector_numbers: Iterable[int],
) -> dict:
    """Compare every term matrix element on full sectors against the oracle.

    Folds :func:`sweep_columns` into ``{"max_abs_diff", "pairs_checked"}``:
    the largest difference over the rows each sparse column lists, since
    every other row differs by +0.0, and the number of elements checked.
    No column is kept, so memory does not grow with the sectors.
    """
    max_diff = 0.0
    checked = 0
    for col in sweep_columns(space, spectrum, sector_numbers):
        max_diff = max([max_diff, *col.diff])
        checked += len(col.bras)
    return {"max_abs_diff": max_diff, "pairs_checked": checked}
