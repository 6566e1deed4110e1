"""Independent verification path via labeled-particle permutation expansion.

An occupation state is expanded into its symmetrized sum over all particle
relabelings; each Hamiltonian term is then applied in first-quantized form,
with classification projectors selecting the partition structure of the ket
and re-emitting the target structure with exactly contracted amplitudes.
Matrix elements computed this way never touch ladder operators, so they
cross-check the second-quantized construction term by term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, permutations, product
from typing import Iterable, Iterator, Sequence

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


def _match_slots(
    prod: FormalProduct,
    slots: tuple[Slot, ...],
) -> tuple[tuple[FormalFactor, ...], tuple[FormalFactor, ...]] | None:
    """Split the product into (matched factors, spectators) if its partition
    structure agrees with the projector slots; otherwise None."""
    by_label: dict[int, FormalFactor] = {}
    for f in prod.factors:
        if isinstance(f, Atom):
            by_label[f.label] = f
        else:
            by_label[f.labels[0]] = f
            by_label[f.labels[1]] = f
    matched: list[FormalFactor] = []
    used: set[int] = set()
    for kind, where in slots:
        if kind == "S":
            f = by_label.get(where)  # type: ignore[arg-type]
            if not isinstance(f, Atom):
                return None
            matched.append(f)
            used.add(f.label)
        else:
            i, j = where  # type: ignore[misc]
            f = by_label.get(i)
            if not isinstance(f, Pair) or f.labels != (i, j):
                return None
            matched.append(f)
            used.update(f.labels)
    spectators = tuple(
        f for f in prod.factors if min(_labels_of(f)) not in used
    )
    return tuple(matched), spectators


def _labels_of(factor: FormalFactor) -> tuple[int, ...]:
    return (factor.label,) if isinstance(factor, Atom) else factor.labels


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


def apply_projected_term(
    term: TermId,
    state: FormalState,
    space: ModeSpace,
    spectrum: CompositeSpectrum,
    engine: ElementEngine | None = None,
) -> FormalState:
    """Apply one first-quantized projected term to a formal state.

    Terms whose arity exceeds the particle count simply produce the empty
    (annihilating) state.
    """
    eng = engine if engine is not None else ElementEngine(space, spectrum)
    out: list[FormalProduct] = []
    for prod in state.products:
        labels = sorted(prod.labels)
        for right_slots, ops, left_variants in _term_blueprints(term, labels):
            split = _match_slots(prod, right_slots)
            if split is None:
                continue
            matched, spectators = split
            ket_frag = FormalProduct(1.0, matched)
            for left_slots in left_variants:
                for bra_factors in _emit_configs(
                    left_slots, space.n_modes, spectrum.n_composites
                ):
                    amp = eng.element(FormalProduct(1.0, bra_factors), ops, ket_frag)
                    if amp != 0.0:
                        out.append(
                            FormalProduct(prod.weight * amp, bra_factors + spectators)
                        )
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


@dataclass(frozen=True)
class VerificationSummary:
    max_abs_diff: float
    pairs_checked: int

    @property
    def passed(self) -> bool:
        return self.max_abs_diff <= 1e-10


def verify_sectors(
    space: ModeSpace,
    spectrum: CompositeSpectrum,
    sector_numbers: Iterable[int],
    terms: Sequence[TermId] = tuple(TermId),
    include_rows: bool = True,
) -> dict:
    """Compare every term matrix element on full sectors against the oracle.

    Returns a report dict with one row per (term, bra, ket) and a summary;
    structure is stable for JSON serialization.
    """
    eng = ElementEngine(space, spectrum)
    tensors = coefficient_tensors(space, spectrum)
    rows: list[dict] = []
    max_diff = 0.0
    checked = 0
    for n in sector_numbers:
        basis = enumerate_sector(n, space.n_modes, spectrum.n_composites)
        expansions = [expand_basis_state(s) for s in basis.states]
        for term in terms:
            block = build_term(term, basis, space, spectrum, tensors).to_dense()
            for j, ket in enumerate(basis.states):
                applied = apply_projected_term(term, expansions[j], space, spectrum, eng)
                for i, bra in enumerate(basis.states):
                    if applied.is_empty:
                        oracle_value = 0.0
                    else:
                        oracle_value = formal_inner_product(expansions[i], applied)
                    sq_value = float(block[i, j])
                    diff = abs(sq_value - oracle_value)
                    max_diff = max(max_diff, diff)
                    checked += 1
                    if include_rows:
                        rows.append(
                            {
                                "term": term.value,
                                "sector": n,
                                "bra": str(bra),
                                "ket": str(ket),
                                "sq_value": sq_value,
                                "oracle_value": oracle_value,
                                "abs_diff": diff,
                            }
                        )
    report = {
        "schema_version": 1,
        "conventions": dict(TERM_READING),
        "checks": rows,
        "summary": {"max_abs_diff": max_diff, "pairs_checked": checked},
    }
    return report
