"""Independent verification path via labeled-particle permutation expansion.

An occupation state is expanded into its symmetrized sum over all particle
relabelings; each Hamiltonian term is then applied in first-quantized form,
with classification projectors selecting the partition structure of the ket
and re-emitting the target structure with exactly contracted amplitudes.
Matrix elements computed this way never touch ladder operators, so they
cross-check the second-quantized construction term by term.

One emission core, :func:`_emissions`, applies a term to a labeled product.
Which blueprints match the product, at which factor positions, and which
factors are spectators depends only on its label layout (which labels are
atoms, which are paired), not on the modes; so does every bra configuration
a matched blueprint emits.  The core plans that once per (term, layout).
The amplitudes a matched blueprint emits depend only on its shape (the
term, operators and slots with labels renumbered in order) and the modes of
the matched factors.  Each shape is contracted once, as one
:func:`~composite_bosons.algebra.fragment_table` per left structure over
every mode choice of its slots, and the emissions of a matched mode choice
are the nonzero entries of that choice's column, stored as (position in the
bra list, amplitude).  Plans and tables live in a memo the caller creates
per call, so nothing outlives one model or one sweep.  The tables are
built from the blueprint slots alone, never from the second-quantized
coefficient tensors.

:func:`apply_projected_term` collects the core's output products.
:func:`oracle_matrix_element` applies a term to every labeled product of the
ket's expansion and takes the ideal inner product with the bra's expansion;
it is the brute-force reference.  :func:`sweep_columns` reads the same
emission core directly, yields each ket's column of each term block beside
the second-quantized one, and uses two closed forms of those expansions:

* Each projected term sums over all label choices, so it commutes with
  relabeling, and every bra expansion is a symmetric sum; hence <B|H|p> is
  the same for every labeled product p of the ket K.  The sweep applies each
  term to one representative, the identity-permutation product (atoms take
  labels 1.. in mode order, then each pair two consecutive labels), weighted
  by the sum of K's expansion weights, N! times its normalization constant.
* A labeled product fixes its occupation (atoms per mode, pairs per
  composite), so each emission is read into its bra through the occupation
  alone: the ket's, minus the matched factors, plus the emitted ones, kept
  as integer codes (:func:`_slot_codes`) that the plan holds per bra.  In
  the expansion of bra B a labeled product carries the weight
  w_B = c_B * prod(n_m!) * prod(k_a! 2^k_a), c_B the normalization constant:
  the count of label permutations that fix one labeled product.  No output
  product is built.

:func:`verify_sectors` collects the sweep's columns into a report dict.
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
from .numerics import SparseMatrix

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


def representative_product(state: OccupationState) -> FormalProduct:
    """The identity-permutation product of ``state``'s expansion, carrying its
    total weight N! times the normalization constant.

    Atoms take labels 1.. in mode order, then each pair two consecutive labels.
    """
    factors: list[FormalFactor] = []
    label = 1
    for mode, count in enumerate(state.atoms):
        for _ in range(count):
            factors.append(Atom(mode, label))
            label += 1
    for comp, count in enumerate(state.molecules):
        for _ in range(count):
            factors.append(Pair(comp, (label, label + 1)))
            label += 2
    weight = math.factorial(state.constituents) * normalization_constant(state)
    return FormalProduct(weight, tuple(factors))


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


def _term_blueprints(term: TermId, labels: Sequence[int]) -> Iterator[Blueprint]:
    if term is TermId.SS:
        for i in labels:
            yield ((_s(i),), (OneBody(i),), ((_s(i),),))
    elif term is TermId.SSSS:
        for i, j in combinations(labels, 2):
            slots = (_s(i), _s(j))
            yield (slots, (TwoBody(i, j),), (slots,))
    elif term is TermId.CC:
        for i, j in combinations(labels, 2):
            slots = (_c(i, j),)
            yield (slots, pair_interaction_ops(i, j), (slots,))
    elif term is TermId.CSS:
        for i, j in combinations(labels, 2):
            yield ((_s(i), _s(j)), pair_interaction_ops(i, j), ((_c(i, j),),))
    elif term is TermId.SSC:
        for i, j in combinations(labels, 2):
            yield ((_c(i, j),), pair_interaction_ops(i, j), ((_s(i), _s(j)),))
    elif term is TermId.SCSC:
        for j, k in combinations(labels, 2):
            for i in labels:
                if i == j or i == k:
                    continue
                right = (_s(i), _c(j, k))
                yield (right, (TwoBody(i, j), TwoBody(i, k)), (right,))
                yield (
                    right,
                    _full_ops((i, j, k)),
                    ((_s(j), _c(i, k)), (_s(k), _c(i, j))),
                )
    elif term is TermId.CCCC:
        # unordered pair partitions: the first pair holds the smallest label
        for i, j in combinations(labels, 2):
            rest = [x for x in labels if x not in (i, j)]
            for k, l in combinations(rest, 2):
                if min(i, j) > min(k, l):
                    continue
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
Factors = tuple[FormalFactor, ...]
Emission = tuple[int, float]  # (position in the entry's bra list, amplitude)


def _labels_of(factor: FormalFactor) -> tuple[int, ...]:
    return (factor.label,) if isinstance(factor, Atom) else factor.labels


def _mode_of(factor: FormalFactor) -> int:
    return factor.mode if isinstance(factor, Atom) else factor.index


def _slot_of(factor: FormalFactor) -> Slot:
    return _s(factor.label) if isinstance(factor, Atom) else _c(*factor.labels)


def _slot_codes(slot: Slot, n: int, n_modes: int, n_composites: int) -> list[tuple[int, int]]:
    """The (key, occupation) codes of each factor that can fill ``slot`` in a
    labeled product over labels 1..n, by mode or composite.

    Both codes of a product are the sums of its factors' codes.  The key
    holds one base-R digit per label, most significant first, R = (n + 1) K
    and K = max(M, A): a factor puts the digit ``partner * K + mode`` at its
    smallest label, partner being 0 for an atom and the other label for a
    pair.  Two products share a key only if they are equal, and keys order
    products as their ``sort_key`` does.  The occupation holds one base-(n+1)
    digit per atom mode, then one per composite: it names the product's
    occupation state.
    """
    radix = max(n_modes, n_composites)
    base = n + 1
    kind, where = slot
    if kind == "S":
        place = (radix * base) ** (n - where)  # type: ignore[operator]
        return [(mode * place, base**mode) for mode in range(n_modes)]
    first, second = where  # type: ignore[misc]
    place = (radix * base) ** (n - first)
    return [((second * radix + a) * place, base ** (n_modes + a)) for a in range(n_composites)]


def _match_slots(
    position: dict[tuple[int, ...], int], slots: tuple[Slot, ...]
) -> tuple[int, ...] | None:
    """The factor positions that fill the projector slots, in slot order, if
    the partition structure agrees with them; otherwise None.  ``position``
    maps the labels of each factor of the layout to its position."""
    matched = []
    for slot in slots:
        p = position.get(slot_labels(slot))
        if p is None:
            return None
        matched.append(p)
    return tuple(matched)


def _emit_configs(
    slots: tuple[Slot, ...],
    n_modes: int,
    n_composites: int,
) -> Iterator[Factors]:
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
    products where an output product needs them, and as (key, occupation)
    codes (:func:`_slot_codes`, over labels 1..n) where the sweep merges
    emissions.
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
    def codes(self) -> list[tuple[int, int]]:
        return [
            (sum(key for key, _ in choice), sum(occupation for _, occupation in choice))
            for slots in self.left
            for choice in product(*(_slot_codes(slot, self.n, *self.sizes) for slot in slots))
        ]

    def emitted(self, modes: tuple[int, ...]) -> list[Emission]:
        """The nonzero emissions of a product with these factor modes."""
        return self.table.emitted(tuple([modes[p] for p in self.matched]))


@dataclass
class _Memo:
    """What one call works out once and reuses across its products: the
    blueprints of each (term, labels), the plan of each (term, label
    layout) and the table of each shape.  The caller creates one per call,
    so nothing outlives one model or sweep."""

    space: ModeSpace
    spectrum: CompositeSpectrum
    blueprints: dict[tuple, list[Blueprint]] = field(default_factory=dict)
    plans: dict[tuple, list[_Entry]] = field(default_factory=dict)
    tables: dict[tuple, _Table] = field(default_factory=dict)


def _plan(term: TermId, layout: Layout, memo: _Memo) -> list[_Entry]:
    """Every blueprint of ``term`` that matches ``layout``, planned once per call."""
    plan = memo.plans.get((term, layout))
    if plan is not None:
        return plan
    sizes = (memo.space.n_modes, memo.spectrum.n_composites)
    labels = tuple(sorted(lab for labs in layout for lab in labs))
    blueprints = memo.blueprints.get((term, labels))
    if blueprints is None:
        blueprints = memo.blueprints[term, labels] = list(_term_blueprints(term, labels))
    position = {labs: p for p, labs in enumerate(layout)}
    plan = memo.plans[term, layout] = []
    for right, ops, left in blueprints:
        matched = _match_slots(position, right)
        if matched is None:
            continue
        spectators = tuple(p for p in range(len(layout)) if p not in matched)
        shape = _shape(term, ops, right, left)
        table = memo.tables.get(shape)
        if table is None:
            table = memo.tables[shape] = _Table(left, ops, right, memo.space, memo.spectrum)
        plan.append(_Entry(matched, spectators, left, table, len(labels), sizes))
    return plan


def _emissions(
    term: TermId, prod: FormalProduct, memo: _Memo
) -> Iterator[tuple[_Entry, list[Emission]]]:
    """The emission core of a projected term applied to one labeled product.

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
    """A ket's representative product, read once for every term."""

    weight: float
    factors: Factors
    layout: Layout
    modes: tuple[int, ...]
    codes: list[tuple[int, int]]  # (key, occupation) code of each factor
    key: int
    occupation: int


def _ket(state: OccupationState, n_modes: int, n_composites: int) -> _Ket:
    rep = representative_product(state)
    n = state.constituents
    modes = tuple(map(_mode_of, rep.factors))
    codes = [_slot_codes(_slot_of(f), n, n_modes, n_composites)[m] for f, m in zip(rep.factors, modes)]
    return _Ket(rep.weight, rep.factors, tuple(map(_labels_of, rep.factors)), modes, codes,
                sum(key for key, _ in codes), sum(occupation for _, occupation in codes))


def _oracle_column(
    term: TermId,
    ket: _Ket,
    index: dict[int, tuple[int, float]],
    dim: int,
    memo: _Memo,
) -> tuple[list[float], set[int]]:
    """Column ``<i|term|ket>`` read from the emissions of ket's representative,
    and the set of bras i it adds to (every other entry is +0.0).

    Each emitted product is read through two integer codes (see
    :func:`_slot_codes`): the ket's, minus the matched factors', plus the
    emitted bra's from the plan.  The key merges emissions of one labeled
    product in emission order; the occupation is looked up in ``index``
    ``occupation -> (i, w_i)``.  The products are added in key order, the
    order ``FormalState.collect`` gives them, so the column is bitwise the
    one read from :func:`apply_projected_term`.
    """
    merged: dict[int, list] = {}  # product key -> [weight, occupation]
    weight = ket.weight
    for entry in _plan(term, ket.layout, memo):
        emitted = entry.emitted(ket.modes)
        if not emitted:
            continue
        key, occupation = ket.key, ket.occupation
        for p in entry.matched:
            key -= ket.codes[p][0]
            occupation -= ket.codes[p][1]
        codes = entry.codes
        for k, amp in emitted:
            bra_key, bra_occupation = codes[k]
            product_sum = merged.get(key + bra_key)
            if product_sum is None:
                merged[key + bra_key] = [weight * amp, occupation + bra_occupation]
            else:
                product_sum[0] += weight * amp
    column = [0.0] * dim
    touched = set()
    for product_key in sorted(merged):
        total, occupation = merged[product_key]
        if total != 0.0:
            i, w_i = index[occupation]
            column[i] += w_i * total
            touched.add(i)
    return column, touched


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
    """One ket's column of one term block on one sector, read both ways."""

    term: str
    sector: int
    bras: list[str]  # the names of the sector's states, in bra order
    ket: str
    sq: list[float]
    oracle: list[float]
    diff: list[float]  # |sq - oracle| per bra
    # the bra positions, ascending, outside which sq, oracle and diff are
    # all +0.0; None if not known
    rows: list[int] | None = None


def _stored_rows(block: SparseMatrix) -> list[list[int]]:
    """The rows of each column's stored entries, ascending."""
    by_column = block.transpose()
    bounds = np.searchsorted(by_column.rows, np.arange(block.dim + 1)).tolist()
    rows = by_column.cols.tolist()
    return [rows[bounds[j] : bounds[j + 1]] for j in range(block.dim)]


def sweep_columns(
    space: ModeSpace,
    spectrum: CompositeSpectrum,
    sector_numbers: Iterable[int],
    terms: Sequence[TermId] = tuple(TermId),
) -> Iterator[Column]:
    """Every column of every term block on the given sectors, sq beside oracle.

    Columns come term by term within a sector, kets in basis order.  Each
    term is applied to one labeled representative per ket, the
    identity-permutation product weighted by N! times the normalization
    constant (the sum of the expansion's weights).  This is exact because the
    projected terms commute with relabeling and the bra expansions are
    symmetric.  Column j is read straight from the emission core: each
    emission's bra occupation (the ket's, minus the matched factors, plus the
    emitted ones) indexes ``occupation code -> (bra index, w_i)``, w_i being
    the weight of any one labeled product in bra i's expansion.  No
    expansion and no output product is built, and the column is bitwise the
    one :func:`apply_projected_term` would give.

    One memo serves the whole sweep: the plan of each (term, label layout),
    the table of each shape and the emissions of each matched mode choice
    are computed once and reused by every ket, sector and term that meets
    them, so each shape is contracted once, even relabeled.  Each term block is
    read once as Python floats; ``Column.rows`` joins its stored rows and
    the bras the oracle column adds to, and ``diff`` is computed there only.

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
    union_blocks = {term: build_term(term, union, space, spectrum, tensors) for term in terms}
    starts = dict(zip(bases, np.cumsum([0, *(b.dim for b in bases.values())]).tolist()))
    for n in numbers:
        basis, lo = bases[n], starts[n]
        names = [str(s) for s in basis.states]
        kets = [_ket(s, space.n_modes, spectrum.n_composites) for s in basis.states]
        index = {
            ket.occupation: (i, labeled_product_weight(s))
            for i, (ket, s) in enumerate(zip(kets, basis.states))
        }
        for term in terms:
            block = union_blocks[term].diagonal_block(lo, lo + basis.dim)
            sq_columns = block.to_dense().T.tolist()
            stored = _stored_rows(block)
            for j, ket in enumerate(kets):
                sq = sq_columns[j]
                oracle, touched = _oracle_column(term, ket, index, basis.dim, memo)
                rows = sorted(touched.union(stored[j]))
                diff = [0.0] * basis.dim
                for i in rows:
                    diff[i] = abs(sq[i] - oracle[i])
                yield Column(term.value, n, names, names[j], sq, oracle, diff, rows)


def report_layout(checks, summary) -> dict:
    """The members of a verification report, in the order they are written."""
    return {
        "schema_version": 1,
        "conventions": dict(TERM_READING),
        "checks": checks,
        "summary": summary,
    }


def verify_sectors(
    space: ModeSpace,
    spectrum: CompositeSpectrum,
    sector_numbers: Iterable[int],
    terms: Sequence[TermId] = tuple(TermId),
    include_rows: bool = True,
) -> dict:
    """Compare every term matrix element on full sectors against the oracle.

    Builds the report from :func:`sweep_columns`: one row per (term, bra,
    ket) in sweep order, unless ``include_rows`` is false, and a summary of
    the largest difference and the number of elements checked.  The report
    holds every row, so its size grows with the sectors; ``cli verify``
    writes the same text from the columns as they come instead.  Structure
    is stable for JSON serialization.
    """
    rows: list[dict] = []
    max_diff = 0.0
    checked = 0
    for col in sweep_columns(space, spectrum, sector_numbers, terms):
        max_diff = max(max_diff, *col.diff)
        checked += len(col.diff)
        if include_rows:
            rows.extend(
                {
                    "term": col.term,
                    "sector": col.sector,
                    "bra": bra,
                    "ket": col.ket,
                    "sq_value": sq_value,
                    "oracle_value": oracle_value,
                    "abs_diff": diff,
                }
                for bra, sq_value, oracle_value, diff in zip(col.bras, col.sq, col.oracle, col.diff)
            )
    return report_layout(rows, {"max_abs_diff": max_diff, "pairs_checked": checked})
