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

from composite_bosons import algebra, oracle
from composite_bosons.algebra import (
    Atom,
    ElementEngine,
    FormalProduct,
    FormalState,
    OneBody,
    Pair,
    TwoBody,
    formal_inner_product,
    labeled_matrix_element,
    pair_interaction_ops,
)
from composite_bosons.fock import OccupationState, enumerate_sector, normalization_constant
from composite_bosons.hamiltonian import TermId, assemble_hamiltonian
from composite_bosons.modespace import BelowEdge, LowestK
from composite_bosons.models import build_ring_model, random_mode_space
from composite_bosons.oracle import (
    apply_projected_term,
    expand_basis_state,
    labeled_product_weight,
    oracle_matrix_element,
    verify_sectors,
)

R2 = math.sqrt(2.0)


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
    summary = verify_sectors(space, spectrum, range(0, 4))
    columns = list(oracle.sweep_columns(space, spectrum, range(0, 4)))
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
    assert verify_sectors(space, spectrum, range(0, 4))["max_abs_diff"] <= 1e-10


def test_n5_spot_check(two_site):
    # beyond the full-sweep range the expansion stays available for spot
    # checks: one rearrangement element in the N=5 sector
    from composite_bosons.hamiltonian import build_term

    space, spectrum = two_site
    basis = enumerate_sector(5, space.n_modes, spectrum.n_composites)
    block = build_term(TermId.CSS, basis, space, spectrum).to_dense()
    ket = OccupationState((2, 1), (1,))
    bra = OccupationState((0, 1), (2,))
    i = basis.position(bra)
    j = basis.position(ket)
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
    assert compared == verify_sectors(space, spectrum, range(0, 5))["pairs_checked"] == len(swept)


def _swept_oracle(space, spectrum, sectors):
    # the oracle value of every (term, bra, ket) the sweep checks; each
    # column is +0.0 at the rows it does not list
    swept = {}
    for col in oracle.sweep_columns(space, spectrum, sectors):
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
        layout = tuple(map(oracle._labels_of, prod.factors))
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
        states = enumerate_sector(n, space.n_modes, spectrum.n_composites).states
        index = {
            (s.atoms, s.molecules): (i, labeled_product_weight(s)) for i, s in enumerate(states)
        }
        digits = oracle._digits(n, space.n_modes, spectrum.n_composites)
        for term in TermId:
            for ket in states:
                read = oracle._ket(ket, digits)
                factors = tuple(
                    Atom(m, *labs) if len(labs) == 1 else Pair(m, labs)
                    for labs, m in zip(read.layout, read.modes)
                )
                rep = FormalState((FormalProduct(read.weight, factors),))
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
    assert compared == verify_sectors(space, spectrum, range(0, 6))["pairs_checked"] == len(swept)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**16), n_modes=st.integers(2, 3), k=st.integers(0, 2))
def test_sq_matches_oracle_on_random_models(seed, n_modes, k):
    # every term element on sectors N <= 3 of a seeded random model with k
    # composites, sq against the oracle sweep
    space = random_mode_space(n_modes, seed, attraction=(40.0, 55.0)[:k])
    assume(space.solve_composites(BelowEdge()).n_composites >= k)  # the k-th state is bound
    spectrum = space.solve_composites(LowestK(k))
    summary = verify_sectors(space, spectrum, range(4))
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
    assert verify_sectors(space, spectrum, range(0, 6))["pairs_checked"] == 26_110
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
    assert verify_sectors(space, spectrum, range(0, 6))["pairs_checked"] == 26_110
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
        "from composite_bosons.oracle import sweep_columns\n"
        "space = random_mode_space(3, seed=20240, attraction=(40.0, 55.0))\n"
        "columns = sweep_columns(space, space.solve_composites(LowestK(2)), range(0, 4))\n"
        "json.dump([list(col) for col in columns], sys.stdout)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    list(oracle.sweep_columns(*two_site, range(0, 4)))
    columns = oracle.sweep_columns(*random_model, range(0, 4))
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
    assert verify_sectors(space, spectrum, range(0, 4))["max_abs_diff"] > 1e-10


def test_closed_forms_match_expansion(random_model, ring6):
    # the sweep reads each ket's representative and each bra's weight from the
    # occupation; the expansion is the reference, its first product the
    # identity permutation.  Its weights are sums of up to N! copies of the
    # normalization constant, so they carry a few ulps of summation roundoff
    # (14.5 ulps at most here), hence rel=1e-14
    for (space, spectrum), max_n in [(random_model, 6), (ring6, 4)]:
        for n in range(0, max_n + 1):
            digits = oracle._digits(n, space.n_modes, spectrum.n_composites)
            for state in enumerate_sector(n, space.n_modes, spectrum.n_composites).states:
                products = expand_basis_state(state).products
                ket = oracle._ket(state, digits)
                assert ket.layout == tuple(map(oracle._labels_of, products[0].factors)), state
                assert ket.modes == tuple(map(oracle._mode_of, products[0].factors)), state
                counts = state.atoms + state.molecules
                assert ket.occupation == sum(c * d for c, d in zip(counts, digits)), state
                weight = labeled_product_weight(state)
                for p in products:
                    assert p.weight == pytest.approx(weight, rel=1e-14, abs=0.0), state
                total = math.factorial(n) * normalization_constant(state)
                assert ket.weight == total
                assert sum(p.weight for p in products) == pytest.approx(total, rel=1e-14, abs=0.0)


def test_verify_sectors_full_sweep_n6(random_model):
    space, spectrum = random_model
    summary = verify_sectors(space, spectrum, [6])
    assert summary["pairs_checked"] == 7 * 80**2 == 44_800
    assert summary["max_abs_diff"] <= 1e-10


@pytest.mark.parametrize("numbers", [[2, 2], [3, 1], [4, 0, 2], []])
def test_sweep_columns_takes_sectors_in_the_order_given(random_model, numbers):
    # the sq blocks come off one union of the distinct sectors; each column is
    # still the one a sweep of its sector alone gives, and its sq values are
    # bitwise the sector's own build_term column
    from composite_bosons.hamiltonian import build_term

    space, spectrum = random_model
    got = list(oracle.sweep_columns(space, spectrum, iter(numbers)))
    want = [col for n in numbers for col in oracle.sweep_columns(space, spectrum, [n])]
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
    for col in oracle.sweep_columns(space, spectrum, range(6)):
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
    summary = verify_sectors(space, spectrum, [0])
    assert summary == {"max_abs_diff": 0.0, "pairs_checked": 7}
