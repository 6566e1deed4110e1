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
The emitted ``(bra factors, amplitude)`` list depends only on the term, the
operators and the matched factors, so it is contracted once per fragment.
Both live in a dict the caller creates per call, so nothing outlives one
model or one sweep.

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
  alone: the ket's, minus the matched factors, plus the emitted ones.  In
  the expansion of bra B a labeled product carries the weight
  w_B = c_B * prod(n_m!) * prod(k_a! 2^k_a), c_B the normalization constant:
  the count of label permutations that fix one labeled product.  No output
  product is built.

:func:`verify_sectors` collects the sweep's columns into a report dict.
"""

from __future__ import annotations

import math
from itertools import combinations, permutations, product
from typing import Iterable, Iterator, NamedTuple, Sequence

from .algebra import (
    Atom,
    ElementEngine,
    FormalFactor,
    FormalProduct,
    FormalState,
    OneBody,
    Operator,
    Pair,
    TwoBody,
    formal_inner_product,
    pair_interaction_ops,
)
from .fock import OccupationState, enumerate_sector, normalization_constant
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


def _key_part(factor: FormalFactor) -> tuple:
    """(labels, mode or composite) of one factor.  Sorted, the parts of a
    labeled product key it, and order products as their ``sort_key`` does."""
    if isinstance(factor, Atom):
        return (factor.label,), factor.mode
    return factor.labels, factor.index


def _shift(
    atoms: list[int], molecules: list[int], factors: Iterable[FormalFactor], step: int
) -> None:
    """Add ``step`` to the occupation of each factor's mode or composite."""
    for f in factors:
        if isinstance(f, Atom):
            atoms[f.mode] += step
        else:
            molecules[f.index] += step


# ---------------------------------------------------------------------------
# Blueprints: for every index region of a term, the right projector slots,
# the sandwiched operator, and the left projector structures to re-emit.

Slot = tuple[str, object]  # ("S", label) or ("C", (label, label))
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
# One matched blueprint of a plan: operators, matched factor positions (in slot
# order), spectator positions, and the bra configurations of its left variants.
PlanEntry = tuple[tuple[Operator, ...], tuple[int, ...], tuple[int, ...], list[FormalProduct]]


def _labels_of(factor: FormalFactor) -> tuple[int, ...]:
    return (factor.label,) if isinstance(factor, Atom) else factor.labels


def _match_slots(
    layout: Layout, slots: tuple[Slot, ...]
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Split a layout into (matched positions, spectator positions) if its
    partition structure agrees with the projector slots; otherwise None."""
    position = {labels: p for p, labels in enumerate(layout)}
    matched = []
    for kind, where in slots:
        p = position.get((where,) if kind == "S" else where)  # type: ignore[arg-type]
        if p is None:
            return None
        matched.append(p)
    spectators = tuple(p for p in range(len(layout)) if p not in matched)
    return tuple(matched), spectators


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


def _plan(term: TermId, layout: Layout, n_modes: int, n_composites: int) -> list[PlanEntry]:
    """Every blueprint of ``term`` that matches ``layout``, with the bra
    configurations of all its left variants in emission order."""
    labels = sorted(lab for labs in layout for lab in labs)
    plan = []
    for right_slots, ops, left_variants in _term_blueprints(term, labels):
        split = _match_slots(layout, right_slots)
        if split is None:
            continue
        bras = [
            FormalProduct(1.0, factors)
            for left_slots in left_variants
            for factors in _emit_configs(left_slots, n_modes, n_composites)
        ]
        plan.append((ops, *split, bras))
    return plan


def _emissions(
    term: TermId, prod: FormalProduct, eng: ElementEngine, memo: dict
) -> Iterator[tuple[Factors, Factors, list[tuple[Factors, float]]]]:
    """The emission core of a projected term applied to one labeled product.

    For each blueprint whose right slots match ``prod`` it yields the matched
    ket factors, the spectators, and the emitted ``(bra factors, amplitude)``
    pairs of the left structures with nonzero amplitude.  The amplitude is
    the exact fragment element; ``prod``'s own weight is not applied.

    ``memo`` holds the plan of each (term, label layout) and the emission
    list of each (term, operators, matched factors); the caller creates it
    per call and reuses it across the products of that call.
    """
    factors = prod.factors
    layout = tuple(_labels_of(f) for f in factors)
    plan = memo.get((term, layout))
    if plan is None:
        n_modes, n_composites = eng.space.n_modes, eng.spectrum.n_composites
        plan = memo[term, layout] = _plan(term, layout, n_modes, n_composites)
    for ops, positions, spectator_positions, bras in plan:
        matched = tuple(factors[p] for p in positions)
        emitted = memo.get((term, ops, matched))
        if emitted is None:
            ket_frag = FormalProduct(1.0, matched)
            emitted = memo[term, ops, matched] = [
                (bra.factors, amp)
                for bra in bras
                if (amp := eng.element(bra, ops, ket_frag)) != 0.0
            ]
        yield matched, tuple(factors[p] for p in spectator_positions), emitted


def _oracle_column(
    term: TermId,
    ket: OccupationState,
    rep: FormalProduct,
    index: dict[tuple[tuple[int, ...], tuple[int, ...]], tuple[int, float]],
    dim: int,
    eng: ElementEngine,
    memo: dict,
) -> list[float]:
    """Column ``<i|term|ket>`` read from the emissions of ket's representative.

    Each emitted product's bra is read through its occupation: the ket's,
    minus the matched factors, plus the emitted ones, looked up in ``index``
    ``(atoms, molecules) -> (i, w_i)``.  Emissions of one labeled product are
    summed first and the products added in sort-key order, the order
    ``FormalState.collect`` gives them, so the column is bitwise the one read
    from :func:`apply_projected_term`.
    """
    merged: dict[tuple, list] = {}  # product key -> [weight, i, w_i]
    for matched, spectators, emitted in _emissions(term, rep, eng, memo):
        atoms, molecules = list(ket.atoms), list(ket.molecules)
        _shift(atoms, molecules, matched, -1)
        spectator_parts = [_key_part(f) for f in spectators]
        for bra_factors, amp in emitted:
            key = tuple(sorted(spectator_parts + [_key_part(f) for f in bra_factors]))
            entry = merged.get(key)
            if entry is not None:
                entry[0] += rep.weight * amp
                continue
            bra_atoms, bra_molecules = atoms.copy(), molecules.copy()
            _shift(bra_atoms, bra_molecules, bra_factors, 1)
            merged[key] = [rep.weight * amp, *index[tuple(bra_atoms), tuple(bra_molecules)]]
    column = [0.0] * dim
    for key in sorted(merged):
        weight, i, w_i = merged[key]
        if weight != 0.0:
            column[i] += w_i * weight
    return column


def apply_projected_term(
    term: TermId,
    state: FormalState,
    space: ModeSpace,
    spectrum: CompositeSpectrum,
    engine: ElementEngine | None = None,
) -> FormalState:
    """Apply one first-quantized projected term to a formal state.

    Collects the emission core's output products over every product of the
    state.  Terms whose arity exceeds the particle count simply produce the
    empty (annihilating) state.
    """
    eng = engine if engine is not None else ElementEngine(space, spectrum)
    memo: dict = {}
    out = [
        FormalProduct(prod.weight * amp, bra_factors + spectators)
        for prod in state.products
        for _, spectators, emitted in _emissions(term, prod, eng, memo)
        for bra_factors, amp in emitted
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
    engine: ElementEngine | None = None,
) -> float:
    """<bra|term|ket> by permutation expansion, without ladder operators."""
    if bra.constituents != ket.constituents:
        return 0.0
    applied = apply_projected_term(term, expand_basis_state(ket), space, spectrum, engine)
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
    emitted ones) indexes ``(atoms, molecules) -> (bra index, w_i)``, w_i
    being the weight of any one labeled product in bra i's expansion.  No
    expansion and no output product is built, and the column is bitwise the
    one :func:`apply_projected_term` would give.

    One memo serves the whole sweep: the blueprint plan of each (term, label
    layout), and the emissions of each (term, operators, matched factors),
    are computed once and reused by every ket, sector and term that meets
    them, so no (bra, operators, ket) fragment reaches the engine twice.
    Each term block is read once as Python floats.  Nothing else is kept
    from one column to the next, so a consumer that does not keep the
    columns runs in memory that does not grow with their number.
    """
    eng = ElementEngine(space, spectrum)
    memo: dict = {}
    tensors = coefficient_tensors(space, spectrum)
    for n in sector_numbers:
        basis = enumerate_sector(n, space.n_modes, spectrum.n_composites)
        names = [str(s) for s in basis.states]
        representatives = [representative_product(s) for s in basis.states]
        index = {
            (s.atoms, s.molecules): (i, labeled_product_weight(s))
            for i, s in enumerate(basis.states)
        }
        for term in terms:
            sq_columns = build_term(term, basis, space, spectrum, tensors).to_dense().T.tolist()
            for j, (ket, rep) in enumerate(zip(basis.states, representatives)):
                sq = sq_columns[j]
                oracle = _oracle_column(term, ket, rep, index, basis.dim, eng, memo)
                diff = [abs(s - o) for s, o in zip(sq, oracle)]
                yield Column(term.value, n, names, names[j], sq, oracle, diff)


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
