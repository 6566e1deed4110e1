import numpy as np
import pytest
from hypothesis import given, settings
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
from composite_bosons.modespace import BelowEdge, LowestK, mode_space
from composite_bosons.models import build_explicit_model, random_mode_space
from composite_bosons.oracle import verify_sectors


@pytest.fixture(scope="module")
def site_space():
    o = np.array([[0.0, -1.0], [-1.0, 0.0]])
    t4 = np.zeros((2, 2, 2, 2))
    t4[0, 0, 0, 0] = -4.0
    t4[1, 1, 1, 1] = -4.0
    return mode_space(o, t4)


@pytest.fixture(scope="module")
def site_spectrum(site_space):
    return site_space.solve_composites(BelowEdge())


def brute_force_element(bra, ops, ket, space, spectrum):
    """Naive quadruple-loop contraction, independent of the einsum path."""
    m = space.n_modes

    def expand(product):
        terms = [(product.weight, {})]
        for f in product.factors:
            new = []
            if isinstance(f, Atom):
                for w, assign in terms:
                    a2 = dict(assign)
                    a2[f.label] = f.mode
                    new.append((w, a2))
            else:
                i, j = f.labels
                for w, assign in terms:
                    for p in range(m):
                        for q in range(m):
                            c = spectrum.coefficients[f.index, p, q]
                            if c != 0.0:
                                a2 = dict(assign)
                                a2[i] = p
                                a2[j] = q
                                new.append((w * c, a2))
            terms = new
        return terms

    total = 0.0
    for wb, ab in expand(bra):
        for wk, ak in expand(ket):
            for op in ops:
                acted = {op.label} if isinstance(op, OneBody) else {op.a, op.b}
                if any(ab[l] != ak[l] for l in ab if l not in acted):
                    continue
                if isinstance(op, OneBody):
                    total += wb * wk * space.one_body.mat[ab[op.label], ak[op.label]]
                else:
                    total += wb * wk * space.two_body.t4[
                        ab[op.a], ab[op.b], ak[op.a], ak[op.b]
                    ]
    return total


def test_inner_product_identity():
    p = FormalProduct(1.0, (Atom(0, 1), Atom(1, 2)))
    assert formal_inner_product(p, p) == 1.0


def test_inner_product_atom_vs_pair_is_zero():
    atoms = FormalProduct(1.0, (Atom(0, 1), Atom(1, 2)))
    pair = FormalProduct(1.0, (Pair(0, (1, 2)),))
    assert formal_inner_product(atoms, pair) == 0.0


def test_inner_product_partition_mismatch_is_zero():
    bra = FormalProduct(1.0, (Pair(0, (1, 2)), Pair(1, (3, 4))))
    ket = FormalProduct(1.0, (Pair(0, (1, 3)), Pair(1, (2, 4))))
    assert formal_inner_product(bra, ket) == 0.0


def test_inner_product_label_mismatch_rejected():
    bra = FormalProduct(1.0, (Atom(0, 1),))
    ket = FormalProduct(1.0, (Atom(0, 2),))
    with pytest.raises(ValueError, match="label sets differ"):
        formal_inner_product(bra, ket)


def test_inner_product_symmetric(site_space, site_spectrum):
    a = FormalProduct(0.3, (Atom(0, 1), Pair(1, (2, 3))))
    b = FormalProduct(-0.7, (Atom(0, 1), Pair(1, (2, 3))))
    assert formal_inner_product(a, b) == formal_inner_product(b, a)


def test_state_merging():
    p1 = FormalProduct(0.5, (Atom(0, 1),))
    p2 = FormalProduct(0.25, (Atom(0, 1),))
    p3 = FormalProduct(-0.75, (Atom(1, 1),))
    state = FormalState.collect([p1, p2, p3])
    assert len(state.products) == 2
    weights = {p.factors: p.weight for p in state.products}
    assert weights[(Atom(0, 1),)] == 0.75
    assert weights[(Atom(1, 1),)] == -0.75


def test_one_body_element(site_space):
    bra = FormalProduct(1.0, (Atom(0, 1),))
    ket = FormalProduct(1.0, (Atom(1, 1),))
    got = labeled_matrix_element(bra, (OneBody(1),), ket, site_space)
    assert got == pytest.approx(-1.0, abs=1e-14)


def test_eigenstate_property(site_space, site_spectrum):
    for a in range(site_spectrum.n_composites):
        for b in range(site_spectrum.n_composites):
            bra = FormalProduct(1.0, (Pair(a, (1, 2)),))
            ket = FormalProduct(1.0, (Pair(b, (1, 2)),))
            got = labeled_matrix_element(
                bra, pair_interaction_ops(1, 2), ket, site_space, site_spectrum
            )
            want = site_spectrum.energies[a] if a == b else 0.0
            assert got == pytest.approx(want, abs=1e-10)


def test_three_particle_direct_term_vs_brute_force(site_space, site_spectrum):
    bra = FormalProduct(1.0, (Atom(0, 1), Pair(0, (2, 3))))
    ket = FormalProduct(1.0, (Pair(1, (2, 3)), Atom(1, 1)))
    ops = (TwoBody(1, 2), TwoBody(1, 3))
    got = labeled_matrix_element(bra, ops, ket, site_space, site_spectrum)
    want = brute_force_element(bra, ops, ket, site_space, site_spectrum)
    assert got == pytest.approx(want, abs=1e-12)


def test_four_particle_elements_vs_brute_force(site_space, site_spectrum):
    bra = FormalProduct(1.0, (Pair(0, (1, 2)), Pair(1, (3, 4))))
    kets = [
        FormalProduct(1.0, (Pair(1, (3, 4)), Pair(0, (1, 2)))),
        FormalProduct(1.0, (Pair(0, (2, 4)), Pair(1, (1, 3)))),
        FormalProduct(1.0, (Pair(1, (2, 3)), Pair(0, (1, 4)))),
    ]
    ops = tuple(OneBody(i) for i in (1, 2, 3, 4)) + tuple(
        TwoBody(i, j) for i, j in [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    )
    for ket in kets:
        got = labeled_matrix_element(bra, ops, ket, site_space, site_spectrum)
        want = brute_force_element(bra, ops, ket, site_space, site_spectrum)
        assert got == pytest.approx(want, abs=1e-12)


def test_linearity_in_operator_list(site_space, site_spectrum):
    bra = FormalProduct(1.0, (Atom(0, 1), Atom(0, 2)))
    ket = FormalProduct(1.0, (Atom(1, 1), Atom(1, 2)))
    ops = pair_interaction_ops(1, 2)
    total = labeled_matrix_element(bra, ops, ket, site_space, site_spectrum)
    split = sum(
        labeled_matrix_element(bra, (op,), ket, site_space, site_spectrum) for op in ops
    )
    assert total == pytest.approx(split, abs=1e-14)


def test_bra_ket_symmetry(site_space, site_spectrum):
    bra = FormalProduct(1.0, (Pair(0, (1, 2)),))
    ket = FormalProduct(1.0, (Atom(0, 1), Atom(1, 2)))
    ops = pair_interaction_ops(1, 2)
    ab = labeled_matrix_element(bra, ops, ket, site_space, site_spectrum)
    ba = labeled_matrix_element(ket, ops, bra, site_space, site_spectrum)
    assert ab == pytest.approx(ba, abs=1e-14)


def test_relabeling_invariance(site_space, site_spectrum):
    bra = FormalProduct(1.0, (Atom(0, 1), Pair(0, (2, 3))))
    ket = FormalProduct(1.0, (Atom(1, 2), Pair(1, (1, 3))))
    ops = (OneBody(1), TwoBody(1, 2), TwoBody(2, 3))
    base = labeled_matrix_element(bra, ops, ket, site_space, site_spectrum)
    relabel = {1: 5, 2: 9, 3: 7}

    def map_product(p):
        factors = []
        for f in p.factors:
            if isinstance(f, Atom):
                factors.append(Atom(f.mode, relabel[f.label]))
            else:
                factors.append(Pair(f.index, (relabel[f.labels[0]], relabel[f.labels[1]])))
        return FormalProduct(p.weight, tuple(factors))

    mapped_ops = (
        OneBody(relabel[1]),
        TwoBody(relabel[1], relabel[2]),
        TwoBody(relabel[2], relabel[3]),
    )
    moved = labeled_matrix_element(
        map_product(bra), mapped_ops, map_product(ket), site_space, site_spectrum
    )
    assert moved == pytest.approx(base, abs=1e-14)


def test_label_mismatch_rejected(site_space):
    bra = FormalProduct(1.0, (Atom(0, 1),))
    ket = FormalProduct(1.0, (Atom(0, 2),))
    with pytest.raises(ValueError, match="label sets differ"):
        labeled_matrix_element(bra, (OneBody(1),), ket, site_space)


def test_engine_caches_and_respects_weights(site_space, site_spectrum):
    eng = ElementEngine(site_space, site_spectrum)
    bra = FormalProduct(2.0, (Atom(0, 1),))
    ket = FormalProduct(3.0, (Atom(1, 1),))
    v = eng.element(bra, (OneBody(1),), ket)
    assert v == pytest.approx(6.0 * -1.0, abs=1e-14)
    assert len(eng._cache) == 1
    # swapped orientation reuses the same cache entry
    v2 = eng.element(ket, (OneBody(1),), bra)
    assert len(eng._cache) == 1
    assert v2 == v


def test_pair_label_normalization():
    p = Pair(0, (3, 1))
    assert p.labels == (1, 3)
    with pytest.raises(ValueError):
        Pair(0, (2, 2))


def test_duplicate_labels_rejected():
    with pytest.raises(ValueError, match="twice"):
        FormalProduct(1.0, (Atom(0, 1), Atom(1, 1)))


RANDOM_SPACE = random_mode_space(3, 20240, attraction=(40.0, 55.0))
RANDOM_SPECTRUM = RANDOM_SPACE.solve_composites(LowestK(2))


@st.composite
def fragments(draw):
    """(bra, ops, ket) over labels 1..n with random partition structures."""
    n = draw(st.integers(1, 4))
    composites = st.integers(0, RANDOM_SPECTRUM.n_composites - 1)
    modes = st.integers(0, RANDOM_SPACE.n_modes - 1)

    def product():
        order = draw(st.permutations(range(1, n + 1)))
        k = draw(st.integers(0, n // 2))
        factors = [Pair(draw(composites), (order[2 * i], order[2 * i + 1])) for i in range(k)]
        factors += [Atom(draw(modes), lab) for lab in order[2 * k:]]
        weight = draw(st.floats(-2.0, 2.0, allow_nan=False))
        return FormalProduct(weight, tuple(factors))

    labels = st.integers(1, n)
    one = st.builds(OneBody, labels)
    two = st.lists(labels, min_size=2, max_size=2, unique=True).map(lambda ab: TwoBody(*ab))
    ops = tuple(draw(st.lists(one | two if n > 1 else one, min_size=1, max_size=3)))
    return product(), ops, product()


def relabeled(mapping, bra, ops, ket):
    def move(p):
        factors = tuple(
            Atom(f.mode, mapping[f.label]) if isinstance(f, Atom)
            else Pair(f.index, tuple(mapping[lab] for lab in f.labels))
            for f in p.factors
        )
        return FormalProduct(p.weight, factors)

    moved_ops = tuple(
        OneBody(mapping[op.label]) if isinstance(op, OneBody)
        else TwoBody(mapping[op.a], mapping[op.b])
        for op in ops
    )
    return move(bra), moved_ops, move(ket)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    fragment=fragments(),
    targets=st.lists(
        st.lists(st.integers(1, 40), min_size=4, max_size=4, unique=True), min_size=1, max_size=4
    ),
)
def test_engine_cache_hit_is_bitwise_contraction_up_to_label_order(fragment, targets):
    # the cache key renumbers labels in order, so every order-preserving
    # relabeling of one fragment shares one entry and returns the bitwise
    # value of a fresh, uncached contraction in the engine's orientation
    eng = ElementEngine(RANDOM_SPACE, RANDOM_SPECTRUM)
    for target in [[1, 2, 3, 4]] + targets:
        mapping = dict(zip(range(1, 5), sorted(target)))
        bra, ops, ket = relabeled(mapping, *fragment)
        lo, hi = (ket, bra) if ket.sort_key < bra.sort_key else (bra, ket)
        want = labeled_matrix_element(lo, ops, hi, RANDOM_SPACE, RANDOM_SPECTRUM)
        assert eng.element(bra, ops, ket) == want
    assert len(eng._cache) == 1


def test_engine_rejects_label_mismatch_after_structural_twin_is_cached():
    eng = ElementEngine(RANDOM_SPACE, RANDOM_SPECTRUM)
    ops = (TwoBody(1, 2),)
    eng.element(
        FormalProduct(1.0, (Atom(0, 1), Atom(1, 2))), ops, FormalProduct(1.0, (Pair(0, (1, 2)),))
    )
    assert len(eng._cache) == 1
    with pytest.raises(ValueError, match="label sets differ"):
        eng.element(
            FormalProduct(1.0, (Atom(0, 5), Atom(1, 6))),
            (TwoBody(5, 6),),
            FormalProduct(1.0, (Pair(0, (6, 7)),)),
        )
    with pytest.raises(ValueError, match="label sets differ"):
        eng.element(
            FormalProduct(1.0, (Atom(0, 1), Atom(1, 2))),
            ops,
            FormalProduct(1.0, (Pair(0, (1, 3)),)),
        )
    assert len(eng._cache) == 1


def test_engine_keys_operators_and_ket_of_consecutive_calls():
    # consecutive calls that change the operators or the ket must each get
    # their own fresh-contraction value, not a neighbour's cache entry
    eng = ElementEngine(RANDOM_SPACE, RANDOM_SPECTRUM)
    kets = [
        FormalProduct(1.0, (Atom(0, 1), Pair(1, (2, 3)))),
        FormalProduct(1.0, (Atom(1, 1), Pair(1, (2, 3)))),
    ]
    bras = [
        FormalProduct(1.0, (Atom(2, 1), Pair(0, (2, 3)))),
        FormalProduct(1.0, (Atom(0, 2), Pair(1, (1, 3)))),
    ]
    op_lists = [(TwoBody(1, 2), TwoBody(1, 3)), (OneBody(1), TwoBody(2, 3)), (OneBody(2),)]
    # each step of the sequence changes either the operators or the ket
    sequence = [
        (ops, ket) for n, ops in enumerate(op_lists) for ket in (kets if n % 2 else kets[::-1])
    ]
    for ops, ket in sequence + sequence:
        for bra in bras:
            lo, hi = (ket, bra) if ket.sort_key < bra.sort_key else (bra, ket)
            want = labeled_matrix_element(lo, ops, hi, RANDOM_SPACE, RANDOM_SPECTRUM)
            assert eng.element(bra, ops, ket) == want, (ops, ket, bra)
    assert len(eng._cache) == len(op_lists) * len(kets) * len(bras)
    # a bra label outside the ket and the operators still raises
    with pytest.raises(ValueError, match="label sets differ"):
        eng.element(FormalProduct(1.0, (Atom(2, 1), Pair(0, (2, 4)))), op_lists[2], kets[1])


def _oracle_model():
    # the oracle-verify model: the seeded random model as an explicit config
    space = build_explicit_model(
        RANDOM_SPACE.one_body.mat.tolist(), np.asarray(RANDOM_SPACE.two_body.t4).ravel().tolist()
    )
    return space, space.solve_composites(LowestK(2))


def _sweep_tables(monkeypatch, space, spectrum):
    # the (left, ops, right) of every table an N <= 5 sweep builds
    tables = []
    table = oracle.fragment_table

    def recording(left, ops, right, *args):
        tables.append((left, tuple(ops), right))
        return table(left, ops, right, *args)

    monkeypatch.setattr(oracle, "fragment_table", recording)
    assert verify_sectors(space, spectrum, range(6))["pairs_checked"] == 26110
    return tables


def test_step_plan_matches_planned_einsum(monkeypatch):
    # the sweep's tables run along cached step plans that keep their output
    # indices; each plan gives the planned einsum's array
    space, spectrum = _oracle_model()
    planned = set()
    calls = {"element": 0, "contract": 0}
    steps, element, contract = (
        algebra._contraction_steps, ElementEngine.element, algebra.labeled_matrix_element
    )

    def recording_steps(expr, shapes):
        planned.add((expr, shapes))
        return steps(expr, shapes)

    def counting_element(*args):
        calls["element"] += 1
        return element(*args)

    def counting_contract(*args):
        calls["contract"] += 1
        return contract(*args)

    monkeypatch.setattr(algebra, "_contraction_steps", recording_steps)
    monkeypatch.setattr(ElementEngine, "element", counting_element)
    monkeypatch.setattr(algebra, "labeled_matrix_element", counting_contract)
    tables = _sweep_tables(monkeypatch, space, spectrum)
    assert len(tables) == 11
    assert calls == {"element": 0, "contract": 0}
    assert len(planned) > 10
    assert all(expr.split("->")[1] for expr, _ in planned)  # every plan keeps an output

    rng = np.random.default_rng(20240)
    for expr, shapes in sorted(planned):
        operands = [rng.standard_normal(shape) for shape in shapes]
        want = np.einsum(expr, *operands, optimize=algebra._contraction_path(expr, shapes))
        got = algebra._contract(expr, list(operands))
        assert got.shape == want.shape, expr
        assert np.allclose(got, want, rtol=1e-13, atol=1e-13 * np.abs(want).max()), expr


def test_fused_operators_agree_with_separate_ones(monkeypatch):
    # fragment_table folds each one-body operator into a two-body operator
    # on its label; on every table an N <= 5 oracle-verify sweep builds,
    # that sum equals the sum of the per-operator tables up to roundoff
    space, spectrum = _oracle_model()
    tables = _sweep_tables(monkeypatch, space, spectrum)
    monkeypatch.undo()
    assert len(tables) == 11
    folded = 0
    for left, ops, right in tables:
        fused = algebra.fragment_table(left, ops, right, space, spectrum)
        parts = [algebra.fragment_table(left, (op,), right, space, spectrum) for op in ops]
        scale = sum(map(np.abs, parts))
        assert np.all(np.abs(fused - sum(parts)) <= 1e-13 * scale), (left, ops, right)
        folded += any(isinstance(op, OneBody) for op in ops) and len(ops) > 1
    assert folded == 7


def test_fragment_table_checks_its_slots(site_space, site_spectrum):
    ops = (TwoBody(1, 2),)
    with pytest.raises(ValueError, match="label sets differ"):
        algebra.fragment_table((("S", 1), ("S", 3)), ops, (("S", 1), ("S", 2)), site_space)
    with pytest.raises(ValueError, match="not in the slots"):
        algebra.fragment_table((("S", 1),), ops, (("S", 1),), site_space)
    with pytest.raises(ValueError, match="needs a composite spectrum"):
        algebra.fragment_table((("C", (1, 2)),), ops, (("S", 1), ("S", 2)), site_space)
    table = algebra.fragment_table((("C", (1, 2)),), ops, (("S", 1), ("S", 2)),
                                   site_space, site_spectrum)
    assert table.shape == (site_spectrum.n_composites, 2, 2)


def test_fragment_table_joins_spectator_atoms_by_identity():
    # label 2 is an atom on both sides and O(1) leaves it alone: the table
    # is O (x) 1, entry for entry the per-element contraction
    slots = (("S", 1), ("S", 2))
    table = algebra.fragment_table(slots, (OneBody(1),), slots, RANDOM_SPACE)
    n = RANDOM_SPACE.n_modes
    assert table.shape == (n, n, n, n)
    for m1, m2, p1, p2 in np.ndindex(table.shape):
        bra = FormalProduct(1.0, (Atom(m1, 1), Atom(m2, 2)))
        ket = FormalProduct(1.0, (Atom(p1, 1), Atom(p2, 2)))
        want = labeled_matrix_element(bra, (OneBody(1),), ket, RANDOM_SPACE)
        assert table[m1, m2, p1, p2] == want
        assert want == (RANDOM_SPACE.one_body.mat[m1, p1] if m2 == p2 else 0.0)


def test_fused_pair_operator_is_the_kronecker_sum():
    # T4 + O (x) 1 + 1 (x) O, read-only, one array per choice of folded labels
    o, t4, eye = RANDOM_SPACE.one_body.mat, RANDOM_SPACE.two_body.t4, np.eye(RANDOM_SPACE.n_modes)
    first, second = np.einsum("mp,nq->mnpq", o, eye), np.einsum("mp,nq->mnpq", eye, o)
    assert RANDOM_SPACE.pair_operator(False, False) is RANDOM_SPACE.pair_operator(False, False)
    assert np.array_equal(RANDOM_SPACE.pair_operator(False, False), t4)
    assert np.array_equal(RANDOM_SPACE.pair_operator(True, False), t4 + first)
    assert np.array_equal(RANDOM_SPACE.pair_operator(False, True), t4 + second)
    assert np.array_equal(RANDOM_SPACE.pair_operator(True, True), t4 + first + second)
    assert not RANDOM_SPACE.pair_operator(True, True).flags.writeable
