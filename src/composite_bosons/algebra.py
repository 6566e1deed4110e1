"""Labeled-particle tensor products and matrix elements between them.

A :class:`FormalProduct` assigns each particle label either an unbound mode
(:class:`Atom`) or membership of a composite (:class:`Pair`).  Two layers of
evaluation are deliberately kept apart:

* :func:`formal_inner_product` applies the ideal mode-orthogonality rules:
  factors overlap only when their partition structure matches exactly,
  atoms by mode delta, pairs by composite-index delta.
* :func:`fragment_table` is exact multilinear contraction of one- and
  two-body operators between projector slots, for every mode choice of the
  slots at once, with pairs expanded through their coefficient tensors; no
  idealization enters here.  The oracle reads its amplitudes from these
  tables.  :func:`labeled_matrix_element` and :class:`ElementEngine`
  contract one element at a time; they are kept as the per-element
  reference the tables are tested against.
"""

from __future__ import annotations

import string
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Sequence, Union

import numpy as np

from .modespace import CompositeSpectrum, ModeSpace


@dataclass(frozen=True)
class Atom:
    """One particle label carrying an unbound mode."""

    mode: int
    label: int


@dataclass(frozen=True)
class Pair:
    """Two particle labels bound into one composite."""

    index: int
    labels: tuple[int, int]

    def __post_init__(self) -> None:
        a, b = self.labels
        if a == b:
            raise ValueError("pair labels must be distinct")
        if a > b:
            object.__setattr__(self, "labels", (b, a))


FormalFactor = Union[Atom, Pair]


def _factor_labels(factor: FormalFactor) -> tuple[int, ...]:
    return (factor.label,) if isinstance(factor, Atom) else factor.labels


def _factor_key(factor: FormalFactor):
    if isinstance(factor, Atom):
        return (0, (factor.label,), factor.mode)
    return (1, factor.labels, factor.index)


@dataclass(frozen=True)
class FormalProduct:
    """Weighted product of factors covering each particle label exactly once."""

    weight: float
    factors: tuple[FormalFactor, ...]

    def __post_init__(self) -> None:
        factors = tuple(sorted(self.factors, key=lambda f: min(_factor_labels(f))))
        object.__setattr__(self, "factors", factors)
        seen: set[int] = set()
        for f in factors:
            for lab in _factor_labels(f):
                if lab in seen:
                    raise ValueError(f"particle label {lab} appears twice")
                seen.add(lab)

    @cached_property
    def labels(self) -> frozenset[int]:
        return frozenset(
            lab for f in self.factors for lab in _factor_labels(f)
        )

    @cached_property
    def sort_key(self):
        return tuple(_factor_key(f) for f in self.factors)


@dataclass(frozen=True)
class FormalState:
    """Merged linear combination of formal products over one label set."""

    products: tuple[FormalProduct, ...]

    @staticmethod
    def collect(products: Iterable[FormalProduct]) -> "FormalState":
        merged: dict[tuple, tuple[float, FormalProduct]] = {}
        label_set: frozenset[int] | None = None
        for p in products:
            if label_set is None:
                label_set = p.labels
            elif p.labels != label_set:
                raise ValueError("formal state mixes different label sets")
            key = p.sort_key
            if key in merged:
                merged[key] = (merged[key][0] + p.weight, merged[key][1])
            else:
                merged[key] = (p.weight, p)
        out = [
            FormalProduct(w, rep.factors)
            for _, (w, rep) in sorted(merged.items())
            if w != 0.0
        ]
        return FormalState(tuple(out))

    @property
    def is_empty(self) -> bool:
        return not self.products


def _as_state(obj: FormalProduct | FormalState) -> FormalState:
    if isinstance(obj, FormalProduct):
        return FormalState((obj,))
    return obj


def formal_inner_product(
    bra: FormalProduct | FormalState,
    ket: FormalProduct | FormalState,
) -> float:
    """Ideal inner product: structures must match factor-for-factor.

    Atom-vs-pair overlap on any label, or differing pair partitions, give a
    hard zero.  Bra and ket must cover the same label set.
    """
    bra_state, ket_state = _as_state(bra), _as_state(ket)
    if bra_state.is_empty or ket_state.is_empty:
        return 0.0
    bra_labels = bra_state.products[0].labels
    ket_labels = ket_state.products[0].labels
    if bra_labels != ket_labels:
        raise ValueError(
            f"label sets differ: bra covers {sorted(bra_labels)}, "
            f"ket covers {sorted(ket_labels)}"
        )
    ket_by_key = {p.sort_key: p.weight for p in ket_state.products}
    total = 0.0
    for p in bra_state.products:
        w = ket_by_key.get(p.sort_key)
        if w is not None:
            total += p.weight * w
    return total


@dataclass(frozen=True)
class OneBody:
    """The single-particle operator acting on one label."""

    label: int


@dataclass(frozen=True)
class TwoBody:
    """The pair interaction acting on two labels."""

    a: int
    b: int

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise ValueError("two-body operator needs distinct labels")
        if self.a > self.b:
            a, b = self.a, self.b
            object.__setattr__(self, "a", b)
            object.__setattr__(self, "b", a)


Operator = Union[OneBody, TwoBody]


def pair_interaction_ops(i: int, j: int) -> tuple[Operator, ...]:
    """O(i) + O(j) + T(i, j)."""
    return (OneBody(i), OneBody(j), TwoBody(i, j))


def _op_labels(op: Operator) -> tuple[int, ...]:
    return (op.label,) if isinstance(op, OneBody) else (op.a, op.b)


def _operand_for_factor(
    factor: FormalFactor,
    subs: dict[int, str],
    space: ModeSpace,
    spectrum: CompositeSpectrum | None,
) -> tuple[np.ndarray, str]:
    if isinstance(factor, Atom):
        return space.one_hot(factor.mode), subs[factor.label]
    if spectrum is None:
        raise ValueError("matrix element with pair factors needs a composite spectrum")
    i, j = factor.labels
    return spectrum.coefficients[factor.index], subs[i] + subs[j]


def _single_op_value(
    bra: FormalProduct,
    op: Operator,
    tensor: np.ndarray,
    ket: FormalProduct,
    space: ModeSpace,
    spectrum: CompositeSpectrum | None,
) -> float:
    """<bra| op |ket> as one einsum over the factors' tensors and ``tensor``,
    the operator's array (``O`` for a one-body operator, a ``T4``-shaped one
    for a two-body operator).

    Acted-on labels get a bra and a ket letter, spectators one shared letter.
    The contraction runs as the pairwise steps of its greedy path, planned
    once per (subscripts, shapes); each step is a plain two-operand
    ``np.einsum``.  Its values may differ in the last bits from
    ``np.einsum(expr, *operands, optimize=path)``, which multiplies each
    pair through ``matmul``.
    """
    labels = sorted(bra.labels)
    acted = set(_op_labels(op))
    letters = iter(string.ascii_letters)
    bra_sub: dict[int, str] = {}
    ket_sub: dict[int, str] = {}
    for lab in labels:
        if lab in acted:
            bra_sub[lab] = next(letters)
            ket_sub[lab] = next(letters)
        else:
            shared = next(letters)
            bra_sub[lab] = shared
            ket_sub[lab] = shared
    operands: list[np.ndarray] = []
    subscripts: list[str] = []
    for f in bra.factors:
        arr, sub = _operand_for_factor(f, bra_sub, space, spectrum)
        operands.append(arr)
        subscripts.append(sub)
    for f in ket.factors:
        arr, sub = _operand_for_factor(f, ket_sub, space, spectrum)
        operands.append(arr)
        subscripts.append(sub)
    operands.append(tensor)
    if isinstance(op, OneBody):
        subscripts.append(bra_sub[op.label] + ket_sub[op.label])
    else:
        subscripts.append(bra_sub[op.a] + bra_sub[op.b] + ket_sub[op.a] + ket_sub[op.b])
    return float(_contract(",".join(subscripts) + "->", operands))


def _fused(ops: Sequence[Operator]) -> list[tuple[Operator, bool, bool]]:
    """``sum(ops)`` as (operator, O on its first label, O on its second).

    Each one-body operator is folded into the first two-body operator on
    its label; one-body operators left over stay on their own.  O(i) + O(j)
    + T(i, j) becomes T(i, j) with O on both labels, one contraction.
    """
    loose = Counter(op.label for op in ops if isinstance(op, OneBody))
    fused: list[tuple[Operator, bool, bool]] = []
    for op in ops:
        if isinstance(op, TwoBody):
            first, second = loose[op.a] > 0, loose[op.b] > 0
            loose[op.a] -= first
            loose[op.b] -= second
            fused.append((op, first, second))
    fused.extend((OneBody(label), False, False) for label, n in loose.items() for _ in range(n))
    return fused


def _contract(expr: str, operands: list[np.ndarray]) -> np.ndarray:
    """The contraction ``expr`` of ``operands``, run along its cached steps.

    Each step pops its operands and appends their two-operand einsum, so
    numpy plans nothing per call.  The last step writes the output indices
    of ``expr``; with none, the result is a 0-d array.
    """
    for positions, subscripts in _contraction_steps(expr, tuple(a.shape for a in operands)):
        operands.append(np.einsum(subscripts, *[operands.pop(p) for p in positions]))
    return operands[0]


def _contraction_path(expr: str, shapes: tuple[tuple[int, ...], ...]) -> list:
    """Greedy contraction order of one subscripts string for operands of ``shapes``."""
    return np.einsum_path(expr, *(np.empty(shape) for shape in shapes), optimize="greedy")[0]


@lru_cache(maxsize=None)
def _contraction_steps(
    expr: str, shapes: tuple[tuple[int, ...], ...]
) -> tuple[tuple[tuple[int, ...], str], ...]:
    """The greedy path of ``expr`` as (positions to pop, subscripts) steps.

    Positions are popped in decreasing order.  A step keeps the indices its
    operands share with the rest or the output, ordered by (dimension,
    letter), the order ``np.einsum_path`` gives its intermediates.
    """
    inputs, output = expr.split("->")
    remaining = inputs.split(",")
    size = {c: d for sub, shape in zip(remaining, shapes) for c, d in zip(sub, shape)}
    path = _contraction_path(expr, shapes)[1:]
    steps = []
    for n, pair in enumerate(path):
        positions = tuple(sorted(pair, reverse=True))
        picked = [remaining.pop(p) for p in positions]
        if n == len(path) - 1:
            kept = output
        else:
            wanted = set(output).union(*remaining)
            kept = "".join(sorted({c for c in "".join(picked) if c in wanted},
                                  key=lambda c: (size[c], c)))
        remaining.append(kept)
        steps.append((positions, ",".join(picked) + "->" + kept))
    return tuple(steps)


Slot = tuple[str, object]  # ("S", label) for an atom, ("C", (i, j)) with i < j for a pair


def slot_labels(slot: Slot) -> tuple[int, ...]:
    kind, where = slot
    return (where,) if kind == "S" else where  # type: ignore[return-value]


def fragment_table(
    left: Sequence[Slot],
    ops: Sequence[Operator],
    right: Sequence[Slot],
    space: ModeSpace,
    spectrum: CompositeSpectrum | None = None,
) -> np.ndarray:
    """<left config| sum(ops) |right config> for every mode choice at once.

    ``left`` and ``right`` are projector slots over one label set.  The
    table is indexed (left slot indices..., right slot indices...): a mode
    for an atom slot, a composite for a pair slot.  Entry for entry it is
    :func:`labeled_matrix_element` between the unit-weight products that
    fill the slots, up to roundoff.

    Operators are fused as there, and each fused operator is one
    contraction, its subscripts generated as :func:`_single_op_value`
    generates them.  An atom slot's letter is a free output index, so no
    one-hot vector enters; a pair slot contributes the coefficient tensor
    with its composite index free.  A spectator label that is an atom on
    both sides gets a bra and a ket letter joined by an identity operand,
    since one letter cannot be two output indices.  Each contraction runs
    along its cached steps, the last of which writes the table's indices.
    """
    labels = sorted(lab for slot in right for lab in slot_labels(slot))
    left_labels = sorted(lab for slot in left for lab in slot_labels(slot))
    if left_labels != labels:
        raise ValueError(f"label sets differ: left covers {left_labels}, right covers {labels}")
    for op in ops:
        missing = set(_op_labels(op)) - set(labels)
        if missing:
            raise ValueError(f"operator acts on labels {sorted(missing)} not in the slots")
    if spectrum is None and any(kind == "C" for kind, _ in (*left, *right)):
        raise ValueError("matrix element with pair factors needs a composite spectrum")
    sizes = {"S": space.n_modes, "C": spectrum.n_composites if spectrum is not None else 0}
    table = np.zeros([sizes[kind] for kind, _ in (*left, *right)])
    atoms_both = {w for k, w in left if k == "S"} & {w for k, w in right if k == "S"}
    for op, first, second in _fused(ops):
        acted = set(_op_labels(op))
        letters = iter(string.ascii_letters)
        bra_sub: dict[int, str] = {}
        ket_sub: dict[int, str] = {}
        operands: list[np.ndarray] = []
        subscripts: list[str] = []
        for lab in labels:
            bra_sub[lab] = next(letters)
            if lab in acted:
                ket_sub[lab] = next(letters)
            elif lab in atoms_both:
                ket_sub[lab] = next(letters)
                operands.append(np.eye(space.n_modes))
                subscripts.append(bra_sub[lab] + ket_sub[lab])
            else:
                ket_sub[lab] = bra_sub[lab]
        output = []
        for slots, sub in ((left, bra_sub), (right, ket_sub)):
            for kind, where in slots:
                if kind == "S":
                    output.append(sub[where])  # type: ignore[index]
                else:
                    i, j = where  # type: ignore[misc]
                    composite = next(letters)
                    operands.append(spectrum.coefficients)  # type: ignore[union-attr]
                    subscripts.append(composite + sub[i] + sub[j])
                    output.append(composite)
        if isinstance(op, OneBody):
            operands.append(space.one_body.mat)
            subscripts.append(bra_sub[op.label] + ket_sub[op.label])
        else:
            operands.append(space.pair_operator(first, second))
            subscripts.append(bra_sub[op.a] + bra_sub[op.b] + ket_sub[op.a] + ket_sub[op.b])
        table += _contract(",".join(subscripts) + "->" + "".join(output), operands)
    return table


def labeled_matrix_element(
    bra: FormalProduct,
    ops: Sequence[Operator],
    ket: FormalProduct,
    space: ModeSpace,
    spectrum: CompositeSpectrum | None = None,
) -> float:
    """Exact contraction <bra| sum(ops) |ket> over matching label sets.

    Pairs are expanded through the composite coefficient tensors; spectator
    labels are delta-matched between bra and ket.  Each one-body operator is
    folded into a two-body operator on its label (``ModeSpace.pair_operator``),
    so O(i) + O(j) + T(i, j) is one contraction; the sum then differs from
    the per-operator sum by roundoff only.  Linear in the operator list and
    symmetric under bra/ket exchange (real tensors).
    """
    if bra.labels != ket.labels:
        raise ValueError(
            f"label sets differ: bra covers {sorted(bra.labels)}, "
            f"ket covers {sorted(ket.labels)}"
        )
    for op in ops:
        missing = set(_op_labels(op)) - bra.labels
        if missing:
            raise ValueError(f"operator acts on labels {sorted(missing)} not in the products")
    total = 0.0
    for op, first, second in _fused(ops):
        if isinstance(op, OneBody):
            tensor = space.one_body.mat
        else:
            tensor = space.pair_operator(first, second)
        total += _single_op_value(bra, op, tensor, ket, space, spectrum)
    return bra.weight * ket.weight * total


class ElementEngine:
    """Caches exact matrix elements between small formal fragments.

    The oracle reads its amplitudes from :func:`fragment_table`; the engine
    is the per-element reference the tables are tested against, and stays
    importable for the benchmark's per-layer algebra metrics.

    Each distinct (bra structure, operator list, ket structure) is contracted
    once up to label names.  Bra/ket orientation is canonicalized first, by
    sort key; the cache key then renumbers the union of the bra, ket and
    operator labels 0, 1, ... in increasing order.  That renumbering keeps
    the order of the labels, hence the factor order and every einsum
    subscript string, so a cache hit returns bitwise the value a fresh
    contraction would give.  It is also one-to-one on the labels, so a call
    whose bra and ket (or operator) labels differ never shares a key with a
    valid one and still raises.
    """

    def __init__(self, space: ModeSpace, spectrum: CompositeSpectrum):
        self.space = space
        self.spectrum = spectrum
        self._cache: dict[tuple, float] = {}

    def element(
        self,
        bra: FormalProduct,
        ops: Sequence[Operator],
        ket: FormalProduct,
    ) -> float:
        ops = tuple(ops)
        if ket.sort_key < bra.sort_key:
            bra, ket = ket, bra
        bkey, kkey = bra.sort_key, ket.sort_key
        op_labels = [_op_labels(op) for op in ops]
        labels = set().union(*op_labels, *(f[1] for f in bkey + kkey))
        rank = {lab: r for r, lab in enumerate(sorted(labels))}.__getitem__
        key = (
            _renumbered(bkey, rank),
            tuple(tuple(map(rank, labs)) for labs in op_labels),
            _renumbered(kkey, rank),
        )
        value = self._cache.get(key)
        if value is None:
            value = labeled_matrix_element(
                FormalProduct(1.0, bra.factors),
                ops,
                FormalProduct(1.0, ket.factors),
                self.space,
                self.spectrum,
            )
            self._cache[key] = value
        return bra.weight * ket.weight * value


def _renumbered(key: tuple, rank) -> tuple:
    """A sort key with each label replaced by its rank."""
    return tuple((kind, tuple(map(rank, labs)), tag) for kind, labs, tag in key)
