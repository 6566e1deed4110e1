import dataclasses
import itertools
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from composite_bosons import algebra, cli, oracle
from composite_bosons.algebra import (
    Atom,
    ElementEngine,
    FormalProduct,
    FormalState,
    OneBody,
    Pair,
    TwoBody,
    factor_labels,
    formal_inner_product,
    labeled_matrix_element,
    pair_interaction_ops,
)
from composite_bosons.fock import (
    OccupationState,
    SectorBasis,
    enumerate_sector,
    normalization_constant,
)
from composite_bosons.hamiltonian import TermId, assemble_hamiltonian
from composite_bosons.modespace import BelowEdge, LowestK
from composite_bosons.models import build_ring_model, random_mode_space
from composite_bosons.numerics import SparseMatrix
from composite_bosons.oracle import (
    apply_projected_term,
    expand_basis_state,
    oracle_matrix_element,
    verify_sectors,
)

R2 = math.sqrt(2.0)


def labeled_product_weight(state):
    # the weight of each labeled product in the state's expansion: the
    # normalization constant times the number of label permutations that
    # leave one labeled product unchanged, prod(n_m!) * prod(k_a! 2^k_a)
    fixing = 1
    for count in state.atoms:
        fixing *= math.factorial(count)
    for count in state.molecules:
        fixing *= math.factorial(count) * 2**count
    return normalization_constant(state) * fixing


def _hams(space, spectrum, numbers):
    # the assembled Hamiltonians of sectors ``numbers``, in the order given,
    # read off the one assembly of sectors 0..max a run makes
    numbers = list(numbers)
    hams = cli._sector_hamiltonians(space, spectrum, max(numbers, default=0))
    return [hams[n] for n in numbers]


def _sweep(space, spectrum, numbers):
    return oracle.sweep_columns(space, spectrum, _hams(space, spectrum, numbers))


def _verify(space, spectrum, numbers):
    return verify_sectors(space, spectrum, _hams(space, spectrum, numbers))


@pytest.fixture(scope="module")
def two_site():
    space = build_ring_model(2, 1.0, -4.0)
    return space, space.solve_composites(LowestK(1))


@pytest.fixture(scope="module")
def random_model():
    space = random_mode_space(3, seed=20240, attraction=(40.0, 55.0))
    return space, space.solve_composites(LowestK(2))


@pytest.fixture(scope="module")
def ring6():
    space = build_ring_model(6, 1.0, -20.0)
    return space, space.solve_composites(BelowEdge())


@pytest.fixture(scope="module")
def wide_model():
    # 8 modes and 26 composites, each bound by a well of its own
    space = random_mode_space(8, seed=20240, attraction=tuple(np.linspace(400.0, 550.0, 26)))
    return space, space.solve_composites(LowestK(26))


def test_expand_single_atom():
    state = expand_basis_state(OccupationState((1, 0), (0,)))
    assert len(state.products) == 1
    p = state.products[0]
    assert p.weight == 1.0
    assert p.factors == (Atom(0, 1),)


def test_expand_single_molecule_merges_pair_orientations():
    state = expand_basis_state(OccupationState((0, 0), (1,)))
    assert len(state.products) == 1
    p = state.products[0]
    assert p.factors == (Pair(0, (1, 2)),)
    assert p.weight == pytest.approx(1.0, abs=1e-15)


def test_expand_two_distinct_atoms():
    state = expand_basis_state(OccupationState((1, 1), (0,)))
    assert len(state.products) == 2
    for p in state.products:
        assert p.weight == pytest.approx(1 / R2, abs=1e-15)


def test_expansions_orthonormal():
    basis = enumerate_sector(2, 2, 1)
    expansions = [expand_basis_state(s) for s in basis.states]
    for i, bi in enumerate(expansions):
        for j, bj in enumerate(expansions):
            want = 1.0 if i == j else 0.0
            assert formal_inner_product(bi, bj) == pytest.approx(want, abs=1e-12)


def test_expand_guard():
    with pytest.raises(ValueError, match="permutations"):
        expand_basis_state(OccupationState((7,), ()))


def test_apply_ss_single_atom(two_site):
    space, spectrum = two_site
    state = expand_basis_state(OccupationState((1, 0), (0,)))
    out = apply_projected_term(TermId.SS, state, space, spectrum)
    weights = {p.factors[0].mode: p.weight for p in out.products}
    for n in range(space.n_modes):
        want = space.one_body.mat[n, 0]
        if want != 0.0:
            assert weights[n] == pytest.approx(want, abs=1e-14)


def test_apply_on_vacuum_is_empty(two_site):
    space, spectrum = two_site
    vacuum = expand_basis_state(OccupationState((0, 0), (0,)))
    for term in TermId:
        assert apply_projected_term(term, vacuum, space, spectrum).is_empty


def test_apply_arity_mismatch_annihilates(two_site):
    space, spectrum = two_site
    one = expand_basis_state(OccupationState((1, 0), (0,)))
    for term in (TermId.SSSS, TermId.CC, TermId.CSS, TermId.SCSC, TermId.CCCC):
        assert apply_projected_term(term, one, space, spectrum).is_empty


def test_apply_css_on_two_atoms(two_site):
    space, spectrum = two_site
    state = expand_basis_state(OccupationState((1, 1), (0,)))
    out = apply_projected_term(TermId.CSS, state, space, spectrum)
    assert all(isinstance(p.factors[0], Pair) for p in out.products)
    want = R2 * spectrum.energies[0] * spectrum.coefficients[0, 0, 1]
    got = {p.factors[0].index: p.weight for p in out.products}
    assert got[0] == pytest.approx(want, abs=1e-12)


def test_oracle_css_two_distinct_atoms(two_site):
    space, spectrum = two_site
    bra = OccupationState((0, 0), (1,))
    ket = OccupationState((1, 1), (0,))
    got = oracle_matrix_element(TermId.CSS, bra, ket, space, spectrum)
    want = R2 * spectrum.energies[0] * spectrum.coefficients[0, 0, 1]
    assert got == pytest.approx(want, abs=1e-12)


def test_oracle_css_double_occupation(two_site):
    space, spectrum = two_site
    bra = OccupationState((0, 0), (1,))
    ket = OccupationState((2, 0), (0,))
    got = oracle_matrix_element(TermId.CSS, bra, ket, space, spectrum)
    want = spectrum.energies[0] * spectrum.coefficients[0, 0, 0]
    assert got == pytest.approx(want, abs=1e-12)


def test_oracle_cross_sector_is_zero(two_site):
    space, spectrum = two_site
    bra = OccupationState((1, 0), (0,))
    ket = OccupationState((1, 1), (0,))
    for term in TermId:
        assert oracle_matrix_element(term, bra, ket, space, spectrum) == 0.0


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_unit_resolution_consistency(two_site, n):
    # summing all seven projected terms reproduces the assembled action
    space, spectrum = two_site
    basis = enumerate_sector(n, space.n_modes, spectrum.n_composites)
    ham = assemble_hamiltonian(basis, space, spectrum)
    total = ham.total.to_dense()
    for j, ket in enumerate(basis.states):
        for i, bra in enumerate(basis.states):
            summed = sum(
                oracle_matrix_element(term, bra, ket, space, spectrum)
                for term in TermId
            )
            assert summed == pytest.approx(total[i, j], abs=1e-10)


def test_verify_sectors_two_site(two_site):
    # the summary folds the swept columns: the largest listed difference and
    # every (bra, ket) element of every term block
    space, spectrum = two_site
    summary = _verify(space, spectrum, range(0, 4))
    columns = list(_sweep(space, spectrum, range(0, 4)))
    assert summary == {
        "max_abs_diff": max(d for col in columns for d in col.diff),
        "pairs_checked": sum(len(col.bras) for col in columns),
    }
    assert summary["max_abs_diff"] <= 1e-10
    assert summary["pairs_checked"] == sum(
        7 * enumerate_sector(n, 2, 1).dim ** 2 for n in range(0, 4)
    )


def test_verify_sectors_random_model_n3(random_model):
    space, spectrum = random_model
    assert _verify(space, spectrum, range(0, 4))["max_abs_diff"] <= 1e-10


def test_n5_spot_check(two_site):
    # beyond the full-sweep range the expansion stays available for spot
    # checks: one rearrangement element in the N=5 sector
    from composite_bosons.hamiltonian import build_term

    space, spectrum = two_site
    basis = enumerate_sector(5, space.n_modes, spectrum.n_composites)
    block = build_term(TermId.CSS, basis, space, spectrum).to_dense()
    ket = OccupationState((2, 1), (1,))
    bra = OccupationState((0, 1), (2,))
    i = basis.states.index(bra)
    j = basis.states.index(ket)
    got = oracle_matrix_element(TermId.CSS, bra, ket, space, spectrum)
    assert got == pytest.approx(block[i, j], abs=1e-10)
    assert abs(got) > 1e-8  # the element is genuinely nonzero


@pytest.mark.parametrize("model", ["two_site", "random_model"])
def test_verify_sectors_matches_full_expansion(model, request):
    # the sweep applies each term to one labeled representative per ket; the
    # full-orbit application of oracle_matrix_element is the reference, with
    # each ket's applied expansion computed once and projected on every bra
    space, spectrum = request.getfixturevalue(model)
    swept = _swept_oracle(space, spectrum, range(0, 5))
    compared = 0
    for n in range(0, 5):
        states = enumerate_sector(n, space.n_modes, spectrum.n_composites).states
        expansions = [expand_basis_state(s) for s in states]
        for term in TermId:
            for ket, ket_expansion in zip(states, expansions):
                applied = apply_projected_term(term, ket_expansion, space, spectrum)
                for bra, bra_expansion in zip(states, expansions):
                    want = formal_inner_product(bra_expansion, applied)
                    got = swept[(term.value, str(bra), str(ket))]
                    assert got == pytest.approx(want, abs=1e-12), (term, bra, ket)
                    compared += 1
    assert compared == _verify(space, spectrum, range(0, 5))["pairs_checked"] == len(swept)


def _read_kets(basis, digits):
    # each ket of the basis as the sweep's array reader gives it, by index:
    # (layout, factor modes, factor codes, weight)
    return {
        i: (layout, tuple(m), c, w)
        for layout, kets, modes, codes, weight in oracle._kets(
            basis, digits, oracle._weights(basis)[1]
        )
        for i, m, c, w in zip(kets.tolist(), modes.tolist(), codes.tolist(), weight.tolist())
    }


def _swept_oracle(space, spectrum, sectors):
    # the oracle value of every (term, bra, ket) the sweep checks; each
    # column is +0.0 at the rows it does not list
    swept = {}
    for col in _sweep(space, spectrum, sectors):
        listed = dict(zip(col.rows, col.oracle))
        for i, bra in enumerate(col.bras):
            swept[col.term, bra, col.ket] = listed.get(i, 0.0)
    return swept


def _split(prod, slots):
    # (matched factors, spectators) of a product against projector slots it
    # fills: an atom slot names an unpaired label, a pair slot a pair
    by_labels = {
        ((f.label,) if isinstance(f, Atom) else f.labels): f for f in prod.factors
    }
    matched = tuple(by_labels[algebra.slot_labels(slot)] for slot in slots)
    return matched, tuple(f for f in prod.factors if f not in matched)


def _blueprint_loop(term, state, space, spectrum):
    # the blueprint loop written out once more, matching every product anew
    # and contracting every fragment afresh in the engine's orientation
    # (lower sort key as the bra)
    out = []
    for prod in state.products:
        layout = tuple(map(factor_labels, prod.factors))
        for right, ops, lefts in oracle._term_blueprints(term, *_atoms_and_pairs(layout)):
            matched, spectators = _split(prod, right)
            ket = FormalProduct(1.0, matched)
            for left in lefts:
                for factors in oracle._emit_configs(left, space.n_modes, spectrum.n_composites):
                    bra = FormalProduct(1.0, factors)
                    lo, hi = (ket, bra) if ket.sort_key < bra.sort_key else (bra, ket)
                    amp = labeled_matrix_element(lo, ops, hi, space, spectrum)
                    if amp != 0.0:
                        out.append(FormalProduct(prod.weight * amp, factors + spectators))
    return FormalState.collect(out) if out else FormalState(())


def test_apply_projected_term_matches_blueprint_loop(random_model):
    # apply_projected_term collects the shared emission core over the full
    # expansion; it emits exactly the written-out loop's products, and each
    # weight agrees to 1e-12 relative to the largest weight of the applied
    # state: the core reads its amplitudes from the shape tables, whose sums
    # run in another order than the per-element contractions, and weights
    # that vanish by orthogonality (CC between two composites) are roundoff
    space, spectrum = random_model
    compared = 0
    for n in range(0, 4):
        for state in enumerate_sector(n, space.n_modes, spectrum.n_composites).states:
            expansion = expand_basis_state(state)
            for term in TermId:
                got = apply_projected_term(term, expansion, space, spectrum)
                want = _blueprint_loop(term, expansion, space, spectrum)
                assert [p.factors for p in got.products] == [
                    p.factors for p in want.products
                ], (term, state)
                scale = max((abs(p.weight) for p in want.products), default=0.0)
                for g, w in zip(got.products, want.products):
                    assert abs(g.weight - w.weight) <= 1e-12 * scale, (term, state, g)
                compared += len(want.products)
    assert compared > 900


@pytest.mark.parametrize("model", ["two_site", "random_model"])
def test_verify_sectors_columns_are_the_collected_ones(model, request):
    # the sweep adds each emission of the core straight into its bra, without
    # building output products; each value equals the column read from
    # apply_projected_term's collected products on the same representative to
    # 1e-14 of the column's largest value (at least 1), since the sweep sums
    # in emission order and collect sums per product first.  N <= 5 of
    # random_model is the 26,110 pairs of the oracle-verify benchmark model
    space, spectrum = request.getfixturevalue(model)
    swept = _swept_oracle(space, spectrum, range(0, 6))
    compared = 0
    for n in range(0, 6):
        basis = enumerate_sector(n, space.n_modes, spectrum.n_composites)
        states = basis.states
        index = {
            (s.atoms, s.molecules): (i, labeled_product_weight(s)) for i, s in enumerate(states)
        }
        digits = oracle._digits(n, space.n_modes, spectrum.n_composites)
        read = _read_kets(basis, oracle._u64(digits))
        for term in TermId:
            for j, ket in enumerate(states):
                layout, modes, _, weight = read[j]
                factors = tuple(
                    Atom(m, *labs) if len(labs) == 1 else Pair(m, labs)
                    for labs, m in zip(layout, modes)
                )
                rep = FormalState((FormalProduct(weight, factors),))
                column = [0.0] * len(states)
                for p in apply_projected_term(term, rep, space, spectrum).products:
                    atoms, molecules = [0] * space.n_modes, [0] * spectrum.n_composites
                    for f in p.factors:
                        if isinstance(f, Atom):
                            atoms[f.mode] += 1
                        else:
                            molecules[f.index] += 1
                    i, weight = index[tuple(atoms), tuple(molecules)]
                    column[i] += weight * p.weight
                tol = 1e-14 * max(1.0, *map(abs, column))
                for bra, want in zip(states, column):
                    got = swept[(term.value, str(bra), str(ket))]
                    assert abs(got - want) <= tol, (term, bra, ket, got, want)
                    compared += 1
    assert compared == _verify(space, spectrum, range(0, 6))["pairs_checked"] == len(swept)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**16), n_modes=st.integers(2, 3), k=st.integers(0, 2))
def test_sq_matches_oracle_on_random_models(seed, n_modes, k):
    # every term element on sectors N <= 3 of a seeded random model with k
    # composites, sq against the oracle sweep
    space = random_mode_space(n_modes, seed, attraction=(40.0, 55.0)[:k])
    assume(space.solve_composites(BelowEdge()).n_composites >= k)  # the k-th state is bound
    spectrum = space.solve_composites(LowestK(k))
    summary = _verify(space, spectrum, range(4))
    assert summary["max_abs_diff"] <= 1e-10, summary


def _recording_tables(monkeypatch):
    # every fragment_table call the oracle makes, as (left, ops, right), with
    # the per-element path made to fail if the oracle still reaches it
    calls = []
    table = oracle.fragment_table

    def recording(left, ops, right, *args):
        calls.append((tuple(left), tuple(ops), tuple(right)))
        return table(left, ops, right, *args)

    def per_element(*args):
        pytest.fail("the oracle evaluated one element at a time")

    monkeypatch.setattr(oracle, "fragment_table", recording)
    monkeypatch.setattr(ElementEngine, "element", per_element)
    monkeypatch.setattr(algebra, "labeled_matrix_element", per_element)
    return calls


def test_verify_sectors_contracts_each_fragment_once(random_model, monkeypatch):
    # every (left structure, operators, right slots) fragment is contracted
    # once per sweep, as one table over all its mode choices, and no element
    # is evaluated on its own
    space, spectrum = random_model
    calls = _recording_tables(monkeypatch)
    assert _verify(space, spectrum, range(0, 6))["pairs_checked"] == 26_110
    assert calls
    assert len(set(calls)) == len(calls)


def _renumbered(left, ops, right):
    # a fragment with its labels renumbered 0, 1, ... in order
    labels = sorted(lab for slot in right for lab in algebra.slot_labels(slot))
    rank = {lab: r for r, lab in enumerate(labels)}.__getitem__

    def slots(group):
        return tuple((slot[0], tuple(map(rank, algebra.slot_labels(slot)))) for slot in group)

    acted = tuple(
        ("O", rank(op.label)) if isinstance(op, OneBody) else ("T", rank(op.a), rank(op.b))
        for op in ops
    )
    return slots(left), acted, slots(right)


def test_verify_sectors_builds_each_shape_table_once(random_model, monkeypatch):
    # the tables are kept per shape: fragments that differ only by an
    # order-preserving relabeling are contracted once.  The oracle-verify
    # sweep meets 9 shapes, with 11 left structures among them
    space, spectrum = random_model
    calls = _recording_tables(monkeypatch)
    assert _verify(space, spectrum, range(0, 6))["pairs_checked"] == 26_110
    shapes = [_renumbered(*call) for call in calls]
    assert len(shapes) == len(set(shapes)) == 11


@pytest.mark.parametrize("model", ["two_site", "random_model"])
def test_fragment_tables_match_per_element_contractions(model, request):
    # every blueprint shape reachable at N <= 4, whatever its label order
    # (every atoms/pairs split of labels 1..n): each table entry is the
    # per-element contraction of the unit-weight products that fill its slots
    space, spectrum = request.getfixturevalue(model)
    n_modes, n_composites = space.n_modes, spectrum.n_composites
    seen = set()
    compared = 0
    for n, term in itertools.product(range(1, 5), TermId):
        for layout in _layouts(range(1, n + 1)):
            for right, ops, lefts in oracle._term_blueprints(term, *_atoms_and_pairs(layout)):
                for left in lefts:
                    shape = _renumbered(left, ops, right)
                    if shape in seen:
                        continue
                    seen.add(shape)
                    table = algebra.fragment_table(left, ops, right, space, spectrum)
                    kets = list(oracle._emit_configs(right, n_modes, n_composites))
                    bras = list(oracle._emit_configs(left, n_modes, n_composites))
                    assert table.shape[: len(left)] == tuple(
                        n_modes if kind == "S" else n_composites for kind, _ in left
                    )
                    flat = table.reshape(len(bras), len(kets))
                    for k, bra in enumerate(bras):
                        for j, ket in enumerate(kets):
                            want = labeled_matrix_element(
                                FormalProduct(1.0, bra), ops, FormalProduct(1.0, ket),
                                space, spectrum,
                            )
                            assert abs(flat[k, j] - want) <= 1e-12 * max(1.0, abs(want)), (
                                term, left, ops, right, bra, ket
                            )
                            compared += 1
    assert len(seen) == 23
    assert compared > 50


def _layouts(labels):
    # every label layout of the labels: each pair partition of a subset of
    # them, the rest atoms, groups ordered by their smallest label
    labels = tuple(labels)
    if not labels:
        yield ()
        return
    first, others = labels[0], labels[1:]
    for tail in _layouts(others):
        yield ((first,),) + tail
    for k, partner in enumerate(others):
        for tail in _layouts(others[:k] + others[k + 1 :]):
            yield ((first, partner),) + tail


def _atoms_and_pairs(layout):
    # a layout's atom labels and pairs, each ascending
    return (
        sorted(g[0] for g in layout if len(g) == 1),
        sorted(g for g in layout if len(g) == 2),
    )


def _label_blueprints(term, labels):
    # the reference: every blueprint over the ascending label set, whichever
    # labels a layout pairs; a layout's plan holds those it fills, in order
    def s(i):
        return ("S", i)

    def c(i, j):
        return ("C", (min(i, j), max(i, j)))

    def full(labs):
        return (*map(OneBody, labs), *itertools.starmap(TwoBody, itertools.combinations(labs, 2)))

    two = list(itertools.combinations(labels, 2))
    if term is TermId.SS:
        for i in labels:
            yield ((s(i),), (OneBody(i),), ((s(i),),))
    elif term is TermId.SSSS:
        for i, j in two:
            yield ((s(i), s(j)), (TwoBody(i, j),), ((s(i), s(j)),))
    elif term is TermId.CC:
        for i, j in two:
            yield ((c(i, j),), pair_interaction_ops(i, j), ((c(i, j),),))
    elif term is TermId.CSS:
        for i, j in two:
            yield ((s(i), s(j)), pair_interaction_ops(i, j), ((c(i, j),),))
    elif term is TermId.SSC:
        for i, j in two:
            yield ((c(i, j),), pair_interaction_ops(i, j), ((s(i), s(j)),))
    elif term is TermId.SCSC:
        for j, k in two:
            for i in labels:
                if i == j or i == k:
                    continue
                right = (s(i), c(j, k))
                yield (right, (TwoBody(i, j), TwoBody(i, k)), (right,))
                yield (right, full((i, j, k)), ((s(j), c(i, k)), (s(k), c(i, j))))
    elif term is TermId.CCCC:
        for i, j in two:
            rest = [x for x in labels if x not in (i, j)]
            for k, l in itertools.combinations(rest, 2):
                if min(i, j) > min(k, l):
                    continue
                right = (c(i, j), c(k, l))
                cross = (TwoBody(i, k), TwoBody(i, l), TwoBody(j, k), TwoBody(j, l))
                yield (right, cross, (right,))
                yield (right, full((i, j, k, l)), ((c(i, k), c(j, l)), (c(i, l), c(j, k))))


def test_term_blueprints_are_the_layout_filtered_label_blueprints():
    # for every layout of labels 1..n, n <= 6, the blueprints yielded from its
    # atoms and pairs are, in order, the label-set generator's blueprints
    # whose right slots the layout fills; each plan, and so each sum over its
    # emissions, runs in that order
    cases = 0
    for n, term in itertools.product(range(0, 7), TermId):
        labels = tuple(range(1, n + 1))
        for layout in _layouts(labels):
            filled = set(layout)
            want = [
                blueprint for blueprint in _label_blueprints(term, labels)
                if all(algebra.slot_labels(slot) in filled for slot in blueprint[0])
            ]
            got = list(oracle._term_blueprints(term, *_atoms_and_pairs(layout)))
            assert got == want, (term, layout)
            cases += 1
    assert cases == 7 * 120


def _labeled_products(n, n_modes, n_composites):
    # every labeled product over labels 1..n: each label layout, with every
    # mode and composite choice
    for groups in _layouts(range(1, n + 1)):
        ranges = [range(n_modes) if len(g) == 1 else range(n_composites) for g in groups]
        for choice in itertools.product(*ranges):
            yield FormalProduct(1.0, tuple(
                Atom(c, g[0]) if len(g) == 1 else Pair(c, g) for g, c in zip(groups, choice)
            ))


@pytest.mark.parametrize("n, n_modes, n_composites", [(4, 3, 2), (5, 2, 3), (3, 1, 1)])
def test_product_codes_name_occupations(n, n_modes, n_composites):
    # the sweep reads each emission's bra through an integer occupation code,
    # the sum of per-factor codes: codes and occupation numbers correspond one
    # to one, so distinct occupations get distinct codes
    products = list(_labeled_products(n, n_modes, n_composites))
    digits = oracle._digits(n, n_modes, n_composites)
    codes = [
        sum(digits[f.mode] if isinstance(f, Atom) else digits[n_modes + f.index] for f in p.factors)
        for p in products
    ]
    occupation = {}
    for p, code in zip(products, codes):
        atoms, molecules = [0] * n_modes, [0] * n_composites
        for f in p.factors:
            if isinstance(f, Atom):
                atoms[f.mode] += 1
            else:
                molecules[f.index] += 1
        assert occupation.setdefault(code, (atoms, molecules)) == (atoms, molecules)
    assert len(occupation) == len({(tuple(a), tuple(m)) for a, m in occupation.values()})


def test_verify_sectors_memo_does_not_outlive_a_call(two_site, random_model):
    # a sweep of another model in the same process leaves nothing behind:
    # every swept column, each value to its last bit, equals the one a fresh
    # interpreter gives
    script = (
        "import json, sys\n"
        "from composite_bosons.modespace import LowestK\n"
        "from composite_bosons.models import random_mode_space\n"
        "from composite_bosons.cli import _sector_hamiltonians\n"
        "from composite_bosons.oracle import sweep_columns\n"
        "space = random_mode_space(3, seed=20240, attraction=(40.0, 55.0))\n"
        "spectrum = space.solve_composites(LowestK(2))\n"
        "columns = sweep_columns(space, spectrum, _sector_hamiltonians(space, spectrum, 3))\n"
        "json.dump([list(col) for col in columns], sys.stdout)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    list(_sweep(*two_site, range(0, 4)))
    columns = _sweep(*random_model, range(0, 4))
    assert json.dumps([list(col) for col in columns]) == done.stdout


def test_verify_sectors_detects_missing_scsc_exchange(random_model, monkeypatch):
    # dropping one rearranged structure of the SCSC exchange string must show,
    # even though the sweep applies each term to one representative product
    space, spectrum = random_model
    intact = oracle._term_blueprints

    def broken(term, atoms, pairs):
        for right, ops, lefts in intact(term, atoms, pairs):
            if term is TermId.SCSC and len(lefts) == 2:
                lefts = lefts[:1]
            yield right, ops, lefts

    monkeypatch.setattr(oracle, "_term_blueprints", broken)
    assert _verify(space, spectrum, range(0, 4))["max_abs_diff"] > 1e-10


def test_verify_sectors_detects_a_moved_sq_entry(random_model):
    # an sq-side fault: the sweep reads the blocks it is given, so one stored
    # SCSC entry of an assembled sector moved by 1e-9 shows as that difference
    space, spectrum = random_model
    [ham] = _hams(space, spectrum, [3])
    assert verify_sectors(space, spectrum, [ham])["max_abs_diff"] < 1e-12
    block = ham.terms[TermId.SCSC]
    data = block.data.copy()
    data[np.argmax(np.abs(data))] += 1e-9
    moved = SparseMatrix(block.dim, block.indptr, block.indices, data)
    faulty = dataclasses.replace(ham, terms={**ham.terms, TermId.SCSC: moved})
    summary = verify_sectors(space, spectrum, [faulty])
    assert summary["max_abs_diff"] == pytest.approx(1e-9, rel=1e-3)
    assert summary["max_abs_diff"] > 1e-10


def test_sweep_columns_refuses_a_basis_without_a_fixed_n(random_model):
    # a union of sectors has no one constituent number to sweep
    space, spectrum = random_model
    bases = [enumerate_sector(n, space.n_modes, spectrum.n_composites) for n in (2, 3)]
    union = assemble_hamiltonian(SectorBasis.union(*bases), space, spectrum)
    assert union.basis.constituents is None
    with pytest.raises(ValueError, match="fixed-N"):
        next(oracle.sweep_columns(space, spectrum, [union]))


def test_closed_forms_match_expansion(random_model, ring6):
    # the sweep reads each ket's representative and each bra's weight from the
    # occupation; the expansion is the reference, its first product the
    # identity permutation.  Its weights are sums of up to N! copies of the
    # normalization constant, so they carry a few ulps of summation roundoff
    # (14.5 ulps at most here), hence rel=1e-14
    for (space, spectrum), max_n in [(random_model, 6), (ring6, 4)]:
        for n in range(0, max_n + 1):
            digits = oracle._digits(n, space.n_modes, spectrum.n_composites)
            basis = enumerate_sector(n, space.n_modes, spectrum.n_composites)
            read = _read_kets(basis, oracle._u64(digits))
            bra_weights = oracle._weights(basis)[0]
            for j, state in enumerate(basis.states):
                products = expand_basis_state(state).products
                layout, modes, codes, ket_weight = read[j]
                assert layout == tuple(map(factor_labels, products[0].factors)), state
                assert modes == tuple(map(oracle._mode_of, products[0].factors)), state
                counts = state.atoms + state.molecules
                assert sum(codes) == sum(c * d for c, d in zip(counts, digits)), state
                weight = labeled_product_weight(state)
                assert bra_weights[j] == weight, state
                for p in products:
                    assert p.weight == pytest.approx(weight, rel=1e-14, abs=0.0), state
                total = math.factorial(n) * normalization_constant(state)
                assert ket_weight == total
                assert sum(p.weight for p in products) == pytest.approx(total, rel=1e-14, abs=0.0)


def _per_emission_columns(space, spectrum, n):
    # the reference the sweep's arrays replace, one ket and one emission at a
    # time: each ket's representative read from its counts, each emission's
    # bra found through its exact occupation code and added into a dict from
    # 0.0, in plan order, then bra position.  {(term, ket index): {bra: value}}
    memo = oracle._Memo(space, spectrum)
    n_modes = space.n_modes
    states = enumerate_sector(n, n_modes, spectrum.n_composites).states
    digits = oracle._digits(n, n_modes, spectrum.n_composites)

    def code(factors):
        return sum(
            digits[f.mode] if isinstance(f, Atom) else digits[n_modes + f.index] for f in factors
        )

    index = {
        sum(c * d for c, d in zip(s.atoms + s.molecules, digits)): (i, labeled_product_weight(s))
        for i, s in enumerate(states)
    }
    columns = {}
    for j, state in enumerate(states):
        atoms = [m for m, count in enumerate(state.atoms) for _ in range(count)]
        pairs = [a for a, count in enumerate(state.molecules) for _ in range(count)]
        a = len(atoms)
        layout = tuple((lab,) for lab in range(1, a + 1)) + tuple(
            (lab, lab + 1) for lab in range(a + 1, n, 2)
        )
        modes = tuple(atoms + pairs)
        factor_codes = [digits[m] for m in atoms] + [digits[n_modes + c] for c in pairs]
        weight = math.factorial(n) * normalization_constant(state)
        for term in TermId:
            column = columns[term.value, j] = {}
            for entry in oracle._plan(term, layout, memo):
                spectators = sum(factor_codes[p] for p in entry.spectators)
                for k, amp in entry.emitted(modes):
                    i, w_i = index[spectators + code(entry.bras[k].factors)]
                    column[i] = column.get(i, 0.0) + w_i * (weight * amp)
    return columns


def _assert_per_emission_sums_bitwise(space, spectrum, sectors):
    # asserts every column of the sweep against _per_emission_columns;
    # returns how many values that lists and how many of them are 0.0
    references = {n: _per_emission_columns(space, spectrum, n) for n in sectors}
    kets = {
        (n, str(s)): j
        for n in references
        for j, s in enumerate(enumerate_sector(n, space.n_modes, spectrum.n_composites).states)
    }
    listed = cancelled = 0
    for col in _sweep(space, spectrum, sectors):
        want = references[col.sector][col.term, kets[col.sector, col.ket]]
        assert set(want) <= set(col.rows), (col.term, col.ket)
        got = [v.hex() for v in col.oracle]
        assert got == [want.get(i, 0.0).hex() for i in col.rows], (col.term, col.ket)
        listed += len(want)
        cancelled += sum(v == 0.0 for v in want.values())
    return listed, cancelled


@pytest.mark.parametrize("model, max_n, min_cancelled", [("random_model", 5, 0), ("ring6", 4, 1)])
def test_sweep_oracle_values_are_the_per_emission_sums_bitwise(
    model, max_n, min_cancelled, request
):
    # every oracle value the sweep lists is, to its last bit, the sum the
    # per-emission loop forms, and every bra that loop adds to is listed,
    # also where its emissions cancel to 0.0 (on ring6 some do)
    space, spectrum = request.getfixturevalue(model)
    listed, cancelled = _assert_per_emission_sums_bitwise(space, spectrum, range(max_n + 1))
    assert listed > 1000
    assert cancelled >= min_cancelled


def test_sweep_takes_occupation_codes_past_2_64(wide_model):
    # sector 3 of 8 modes and 26 composites: its real digits pass 2**64 from
    # the 28th on, and in base n + 1 = 4 the last two, 4**32 and 4**33, are
    # 0 modulo 2**64, so codes of that base collide there.  The sweep's odd
    # digits are units modulo 2**64; every oracle value is the per-emission
    # sum over exact codes, to the last bit, and sq agrees with it
    space, spectrum = wide_model
    n, n_modes, n_composites = 3, space.n_modes, spectrum.n_composites
    digits = oracle._digits(n, n_modes, n_composites)
    assert max(digits) > 2**64 and all(d % 2 for d in digits)
    occupations = enumerate_sector(n, n_modes, n_composites).occupations.astype(np.uint64)
    even = oracle._u64([4**d for d in range(n_modes + n_composites)])
    assert len(np.unique(occupations @ even)) < len(occupations)
    assert len(np.unique(occupations @ oracle._u64(digits))) == len(occupations)
    _assert_per_emission_sums_bitwise(space, spectrum, [n])
    summary = _verify(space, spectrum, [n])
    assert summary["pairs_checked"] == 7 * len(occupations) ** 2
    assert summary["max_abs_diff"] <= 1e-10


def test_occupation_codes_colliding_modulo_2_64_raise(random_model, monkeypatch):
    # distinct occupations whose codes agree modulo 2**64 are refused, not
    # read into one another's bras
    monkeypatch.setattr(
        oracle, "_digits", lambda n, m, a: [(n + 1) ** d * 2**64 + 1 for d in range(m + a)]
    )
    columns = _sweep(*random_model, [0, 2])
    assert len(list(itertools.islice(columns, 7))) == 7  # sector 0 has one state
    with pytest.raises(ValueError, match=r"codes of sector 2 collide modulo 2\*\*64"):
        next(columns)


def test_verify_sectors_full_sweep_n6(random_model):
    space, spectrum = random_model
    summary = _verify(space, spectrum, [6])
    assert summary["pairs_checked"] == 7 * 80**2 == 44_800
    assert summary["max_abs_diff"] <= 1e-10


@pytest.mark.parametrize("numbers", [[2, 2], [3, 1], [4, 0, 2], []])
def test_sweep_columns_takes_sectors_in_the_order_given(random_model, numbers):
    # the sectors are swept in the order their Hamiltonians come; each column
    # is the one a sweep of its sector alone gives, and its sq values, read
    # off the assembly of sectors 0..max, are bitwise the sector's own
    # build_term column
    from composite_bosons.hamiltonian import build_term

    space, spectrum = random_model
    got = list(oracle.sweep_columns(space, spectrum, iter(_hams(space, spectrum, numbers))))
    want = [col for n in numbers for col in _sweep(space, spectrum, [n])]
    assert got == want
    bases = {n: enumerate_sector(n, space.n_modes, spectrum.n_composites) for n in numbers}
    assert [col.sector for col in got] == [n for n in numbers for _ in range(7 * bases[n].dim)]
    blocks = {
        (n, term.value): build_term(term, basis, space, spectrum).to_dense()
        for n, basis in bases.items()
        for term in TermId
    }
    for col in got:
        assert col.bras == [str(s) for s in bases[col.sector].states]
        want_sq = blocks[col.sector, col.term][:, col.bras.index(col.ket)]
        assert np.array_equal(_dense(col, col.sq).view(np.int64), want_sq.view(np.int64))


def _dense(col, values):
    out = np.zeros(len(col.bras))
    out[col.rows] = values
    return out


@pytest.mark.parametrize("model", ["two_site", "random_model"])
def test_sweep_columns_are_sparse(model, request):
    # a column lists its rows ascending, every row the sq block stores among
    # them; expanded to dense it is bitwise the build_term column, and the
    # vacuum's columns list no row while the summary still counts their pairs
    from composite_bosons.hamiltonian import build_term

    space, spectrum = request.getfixturevalue(model)
    blocks = {
        (n, term.value): build_term(term, enumerate_sector(n, space.n_modes, spectrum.n_composites),
                                    space, spectrum)
        for n in range(6)
        for term in TermId
    }
    for col in _sweep(space, spectrum, range(6)):
        block, j = blocks[col.sector, col.term], col.bras.index(col.ket)
        assert col.rows == sorted(set(col.rows))
        by_column = block.transpose()
        stored = by_column.indices[by_column.indptr[j] : by_column.indptr[j + 1]]
        assert set(stored.tolist()) <= set(col.rows)
        assert len(col.sq) == len(col.oracle) == len(col.diff) == len(col.rows)
        want = block.to_dense()[:, j]
        assert np.array_equal(_dense(col, col.sq).view(np.int64), want.view(np.int64))
        if col.sector == 0:
            assert col.rows == []
    summary = _verify(space, spectrum, [0])
    assert summary == {"max_abs_diff": 0.0, "pairs_checked": 7}
