import itertools
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from composite_bosons import algebra, oracle
from composite_bosons.algebra import (
    Atom,
    ElementEngine,
    FormalProduct,
    FormalState,
    OneBody,
    Pair,
    formal_inner_product,
    labeled_matrix_element,
)
from composite_bosons.fock import OccupationState, enumerate_sector, normalization_constant
from composite_bosons.hamiltonian import TermId, assemble_hamiltonian
from composite_bosons.modespace import LowestK
from composite_bosons.models import build_ring_model, random_mode_space
from composite_bosons.oracle import (
    apply_projected_term,
    expand_basis_state,
    labeled_product_weight,
    oracle_matrix_element,
    representative_product,
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
    space, spectrum = two_site
    report = verify_sectors(space, spectrum, range(0, 4))
    assert report["summary"]["max_abs_diff"] <= 1e-10
    assert report["summary"]["pairs_checked"] == sum(
        7 * enumerate_sector(n, 2, 1).dim ** 2 for n in range(0, 4)
    )
    row = report["checks"][0]
    assert set(row) == {"term", "sector", "bra", "ket", "sq_value", "oracle_value", "abs_diff"}
    assert "conventions" in report


def test_verify_sectors_random_model_n3(random_model):
    space, spectrum = random_model
    report = verify_sectors(space, spectrum, range(0, 4), include_rows=False)
    assert report["summary"]["max_abs_diff"] <= 1e-10


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
    report = verify_sectors(space, spectrum, range(0, 5))
    swept = {(r["term"], r["bra"], r["ket"]): r["oracle_value"] for r in report["checks"]}
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
    assert compared == report["summary"]["pairs_checked"] == len(swept)


def _split(prod, slots):
    # (matched factors, spectators) of a product against projector slots, or
    # None; an atom slot needs that label unpaired, a pair slot that pair
    by_labels = {
        ((f.label,) if isinstance(f, Atom) else f.labels): f for f in prod.factors
    }
    matched = []
    for kind, where in slots:
        f = by_labels.get((where,) if kind == "S" else where)
        if f is None:
            return None
        matched.append(f)
    return tuple(matched), tuple(f for f in prod.factors if f not in matched)


def _blueprint_loop(term, state, space, spectrum):
    # the blueprint loop written out once more, matching every product anew
    # and contracting every fragment afresh in the engine's orientation
    # (lower sort key as the bra)
    out = []
    for prod in state.products:
        for right, ops, lefts in oracle._term_blueprints(term, sorted(prod.labels)):
            split = _split(prod, right)
            if split is None:
                continue
            matched, spectators = split
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
def test_verify_sectors_columns_are_bitwise_the_collected_ones(model, request):
    # the sweep sums the emission core without building output products; each
    # value equals bitwise the column read from apply_projected_term's
    # collected products on the same representative.  N <= 5 of random_model
    # is the 26,110 pairs of the oracle-verify benchmark model
    space, spectrum = request.getfixturevalue(model)
    report = verify_sectors(space, spectrum, range(0, 6))
    swept = {(r["term"], r["bra"], r["ket"]): r["oracle_value"] for r in report["checks"]}
    compared = 0
    for n in range(0, 6):
        states = enumerate_sector(n, space.n_modes, spectrum.n_composites).states
        index = {
            (s.atoms, s.molecules): (i, labeled_product_weight(s)) for i, s in enumerate(states)
        }
        for term in TermId:
            for ket in states:
                rep = FormalState((representative_product(ket),))
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
                for bra, want in zip(states, column):
                    assert swept[(term.value, str(bra), str(ket))] == want, (term, bra, ket)
                    compared += 1
    assert compared == report["summary"]["pairs_checked"] == len(swept)


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
    report = verify_sectors(space, spectrum, range(0, 6), include_rows=False)
    assert report["summary"]["pairs_checked"] == 26_110
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
    report = verify_sectors(space, spectrum, range(0, 6), include_rows=False)
    assert report["summary"]["pairs_checked"] == 26_110
    shapes = [_renumbered(*call) for call in calls]
    assert len(shapes) == len(set(shapes)) == 11


@pytest.mark.parametrize("model", ["two_site", "random_model"])
def test_fragment_tables_match_per_element_contractions(model, request):
    # every blueprint shape reachable at N <= 4, whatever its label order:
    # each table entry is the per-element contraction of the unit-weight
    # products that fill its slots
    space, spectrum = request.getfixturevalue(model)
    n_modes, n_composites = space.n_modes, spectrum.n_composites
    seen = set()
    compared = 0
    for n in range(1, 5):
        for term in TermId:
            for right, ops, lefts in oracle._term_blueprints(term, range(1, n + 1)):
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


def _labeled_products(n, n_modes, n_composites):
    # every labeled product over labels 1..n: each pair partition of a
    # subset of the labels, with every mode and composite choice
    labels = tuple(range(1, n + 1))

    def partitions(rest):
        if not rest:
            yield ()
            return
        first, others = rest[0], rest[1:]
        for tail in partitions(others):
            yield ((first,),) + tail
        for k, partner in enumerate(others):
            for tail in partitions(others[:k] + others[k + 1 :]):
                yield ((first, partner),) + tail

    for groups in partitions(labels):
        ranges = [range(n_modes) if len(g) == 1 else range(n_composites) for g in groups]
        for choice in itertools.product(*ranges):
            yield FormalProduct(1.0, tuple(
                Atom(c, g[0]) if len(g) == 1 else Pair(c, g) for g, c in zip(groups, choice)
            ))


@pytest.mark.parametrize("n, n_modes, n_composites", [(4, 3, 2), (5, 2, 3), (3, 1, 1)])
def test_product_codes_order_products_as_sort_keys(n, n_modes, n_composites):
    # the sweep merges emissions by an integer key and reads the bra through
    # an integer occupation, both sums of per-factor codes: keys are distinct
    # for distinct products and sort as sort_key does, and the occupation
    # names the occupation numbers
    products = list(_labeled_products(n, n_modes, n_composites))
    codes = []
    for p in products:
        parts = [
            oracle._slot_codes(oracle._slot_of(f), n, n_modes, n_composites)[oracle._mode_of(f)]
            for f in p.factors
        ]
        codes.append((sum(k for k, _ in parts), sum(o for _, o in parts)))
    keys = [k for k, _ in codes]
    assert len(set(keys)) == len(products)
    assert sorted(range(len(products)), key=keys.__getitem__) == sorted(
        range(len(products)), key=lambda i: products[i].sort_key
    )
    occupation = {}
    for p, (_, code) in zip(products, codes):
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
    # the report equals one computed in a fresh interpreter
    script = (
        "import json, sys\n"
        "from composite_bosons.modespace import LowestK\n"
        "from composite_bosons.models import random_mode_space\n"
        "from composite_bosons.oracle import verify_sectors\n"
        "space = random_mode_space(3, seed=20240, attraction=(40.0, 55.0))\n"
        "report = verify_sectors(space, space.solve_composites(LowestK(2)), range(0, 4))\n"
        "json.dump(report, sys.stdout)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    fresh = json.loads(done.stdout)
    verify_sectors(*two_site, range(0, 4))
    assert verify_sectors(*random_model, range(0, 4)) == fresh


def test_verify_sectors_detects_missing_scsc_exchange(random_model, monkeypatch):
    # dropping one rearranged structure of the SCSC exchange string must show,
    # even though the sweep applies each term to one representative product
    space, spectrum = random_model
    intact = oracle._term_blueprints

    def broken(term, labels):
        for right, ops, lefts in intact(term, labels):
            if term is TermId.SCSC and len(lefts) == 2:
                lefts = lefts[:1]
            yield right, ops, lefts

    monkeypatch.setattr(oracle, "_term_blueprints", broken)
    report = verify_sectors(space, spectrum, range(0, 4), terms=(TermId.SCSC,), include_rows=False)
    assert report["summary"]["max_abs_diff"] > 1e-10


def test_closed_forms_match_expansion(random_model):
    # the sweep reads each ket's representative and each bra's weight from the
    # occupation; the expansion is the reference.  Its weights are sums of up
    # to N! copies of the normalization constant, so they carry a few ulps of
    # summation roundoff (14.5 ulps at most here), hence rel=1e-14
    space, spectrum = random_model
    for n in range(0, 7):
        for state in enumerate_sector(n, space.n_modes, spectrum.n_composites).states:
            products = expand_basis_state(state).products
            rep = representative_product(state)
            assert rep.factors == products[0].factors, state
            weight = labeled_product_weight(state)
            for p in products:
                assert p.weight == pytest.approx(weight, rel=1e-14, abs=0.0), state
            total = math.factorial(n) * normalization_constant(state)
            assert rep.weight == total
            assert sum(p.weight for p in products) == pytest.approx(total, rel=1e-14, abs=0.0)


def test_verify_sectors_full_sweep_n6(random_model):
    space, spectrum = random_model
    report = verify_sectors(space, spectrum, [6], include_rows=False)
    assert report["summary"]["pairs_checked"] == 7 * 80**2 == 44_800
    assert report["summary"]["max_abs_diff"] <= 1e-10


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
        assert np.array_equal(np.array(col.sq).view(np.int64), want_sq.view(np.int64))
