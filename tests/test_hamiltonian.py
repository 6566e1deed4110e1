import math
import operator
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from composite_bosons import hamiltonian
from composite_bosons.fock import SectorBasis, enumerate_sector, ladder_matrix
from composite_bosons.hamiltonian import (
    HERMITICITY_TOL,
    HermiticityError,
    TermId,
    assemble_hamiltonian,
    build_term,
    coefficient_tensors,
    split_sectors,
)
from composite_bosons.modespace import BelowEdge, LowestK, mode_space
from composite_bosons.models import build_ring_model, random_mode_space
from composite_bosons.numerics import SparseMatrix

R2 = math.sqrt(2.0)


@pytest.fixture(scope="module")
def two_site():
    space = build_ring_model(2, 1.0, -4.0)
    spectrum = space.solve_composites(LowestK(1))
    return space, spectrum


@pytest.fixture(scope="module")
def random_model():
    space = random_mode_space(3, seed=20240, attraction=(40.0, 55.0))
    spectrum = space.solve_composites(LowestK(2))
    return space, spectrum


def _reference_element(space, spectrum, term, index):
    """One coefficient as a per-element labeled contraction, with the
    particle-label structure of its term."""
    from composite_bosons.algebra import (
        Atom,
        FormalProduct,
        OneBody,
        Pair,
        TwoBody,
        labeled_matrix_element,
        pair_interaction_ops,
    )

    def element(bra, ops, ket):
        return labeled_matrix_element(
            FormalProduct(1.0, bra), ops, FormalProduct(1.0, ket), space, spectrum
        )

    def full(labels):
        ops = [OneBody(i) for i in labels]
        return tuple(ops + [TwoBody(i, j) for i in labels for j in labels if i < j])

    h2 = pair_interaction_ops(1, 2)
    if term is TermId.SS:
        n, m = index
        return element((Atom(n, 1),), (OneBody(1),), (Atom(m, 1),))
    if term is TermId.SSSS:
        m, n, p, q = index
        return element((Atom(m, 1), Atom(n, 2)), (TwoBody(1, 2),), (Atom(p, 2), Atom(q, 1)))
    if term is TermId.CC:
        a, b = index
        return element((Pair(a, (1, 2)),), h2, (Pair(b, (1, 2)),))
    if term is TermId.CSS:
        a, m, n = index
        return element((Pair(a, (1, 2)),), h2, (Atom(m, 2), Atom(n, 1)))
    if term is TermId.SSC:
        m, n, a = index
        return element((Atom(m, 1), Atom(n, 2)), h2, (Pair(a, (1, 2)),))
    if term is TermId.SCSC:
        m, a, b, n = index
        bra = (Atom(m, 1), Pair(a, (2, 3)))
        return (
            element(bra, (TwoBody(1, 2), TwoBody(1, 3)), (Pair(b, (2, 3)), Atom(n, 1)))
            + element(bra, full((1, 2, 3)), (Pair(b, (1, 3)), Atom(n, 2)))
            + element(bra, full((1, 2, 3)), (Pair(b, (1, 2)), Atom(n, 3)))
        )
    a, b, t, u = index
    bra = (Pair(a, (1, 2)), Pair(b, (3, 4)))
    cross = (TwoBody(1, 3), TwoBody(1, 4), TwoBody(2, 3), TwoBody(2, 4))
    return (
        element(bra, cross, (Pair(t, (3, 4)), Pair(u, (1, 2))))
        + element(bra, full((1, 2, 3, 4)), (Pair(t, (2, 4)), Pair(u, (1, 3))))
        + element(bra, full((1, 2, 3, 4)), (Pair(t, (2, 3)), Pair(u, (1, 4))))
    )


@pytest.mark.parametrize("model", ["random_model", "two_site"])
def test_tensors_match_labeled_contractions(model, request):
    space, spectrum = request.getfixturevalue(model)
    tensors = coefficient_tensors(space, spectrum)
    for term in TermId:
        for index in np.ndindex(*tensors[term].shape):
            want = _reference_element(space, spectrum, term, index)
            assert tensors[term][index] == pytest.approx(want, abs=1e-12), (term, index)


@pytest.mark.parametrize("model", ["two_site", "random_model"])
def test_cached_paths_give_the_searched_tensors_bitwise(model, request, monkeypatch):
    # coefficient_tensors searches each einsum path once per (subscripts,
    # shapes); the tensors are bitwise those of a fresh search on every call
    space, spectrum = request.getfixturevalue(model)
    cached = coefficient_tensors(space, spectrum)
    misses = hamiltonian._greedy_path.cache_info().misses
    again = coefficient_tensors(space, spectrum)
    assert hamiltonian._greedy_path.cache_info().misses == misses
    monkeypatch.setattr(hamiltonian, "_greedy_path", lambda subscripts, shapes: True)
    searched = coefficient_tensors(space, spectrum)
    for term in TermId:
        want = np.ascontiguousarray(searched[term]).view(np.int64)
        for got in (cached[term], again[term]):
            assert np.array_equal(np.ascontiguousarray(got).view(np.int64), want), term


def test_ssss_tensor_swaps_ket_slots(random_model):
    space, spectrum = random_model
    ssss = coefficient_tensors(space, spectrum)[TermId.SSSS]
    t4 = space.two_body.t4
    for m, n, p, q in np.ndindex(*t4.shape):
        assert ssss[m, n, p, q] == t4[m, n, q, p]


def test_ssss_tensor_contact():
    t4 = np.zeros((2, 2, 2, 2))
    t4[1, 1, 1, 1] = -3.5
    space = mode_space(np.zeros((2, 2)), t4)
    ssss = coefficient_tensors(space, space.solve_composites(LowestK(0)))[TermId.SSSS]
    assert ssss[1, 1, 1, 1] == -3.5
    assert np.count_nonzero(ssss) == 1


def test_ssss_tensor_exchange_symmetry(random_model):
    space, spectrum = random_model
    ssss = coefficient_tensors(space, spectrum)[TermId.SSSS]
    assert np.max(np.abs(ssss - ssss.transpose(1, 0, 3, 2))) <= 1e-14


def test_tensors_vanish_for_zero_model(random_model):
    _, spectrum = random_model
    space = mode_space(np.zeros((3, 3)), np.zeros((3, 3, 3, 3)))
    for term, tensor in coefficient_tensors(space, spectrum).items():
        assert not np.any(tensor), term


def test_ssc_is_css_transposed_bitwise(random_model):
    space, spectrum = random_model
    tensors = coefficient_tensors(space, spectrum)
    assert np.array_equal(tensors[TermId.SSC], tensors[TermId.CSS].T)


def test_ss_single_particle_block(random_model):
    space, spectrum = random_model
    basis = enumerate_sector(1, space.n_modes, spectrum.n_composites)
    block = build_term(TermId.SS, basis, space, spectrum).to_dense()
    assert np.max(np.abs(block - space.one_body.mat)) <= 1e-12


def test_cc_single_molecule_diagonal(two_site):
    space, spectrum = two_site
    basis = enumerate_sector(2, space.n_modes, spectrum.n_composites)
    cc = build_term(TermId.CC, basis, space, spectrum).to_dense()
    j = [i for i, s in enumerate(basis.states) if s.n_molecules == 1][0]
    assert cc[j, j] == pytest.approx(spectrum.energies[0], abs=1e-12)
    assert np.max(np.abs(np.delete(np.delete(cc, j, 0), j, 1))) == 0.0


def test_css_element_double_occupation(two_site):
    # <molecule b | CSS | two atoms in mode p> reduces to eps_b * c_b[p, p]
    space, spectrum = two_site
    basis = enumerate_sector(2, space.n_modes, spectrum.n_composites)
    css = build_term(TermId.CSS, basis, space, spectrum).to_dense()
    states = list(basis.states)
    i_mol = states.index(next(s for s in states if s.n_molecules == 1))
    for p in range(space.n_modes):
        atoms = [0, 0]
        atoms[p] = 2
        j = states.index(next(s for s in states if s.atoms == tuple(atoms)))
        want = spectrum.energies[0] * spectrum.coefficients[0, p, p]
        assert css[i_mol, j] == pytest.approx(want, abs=1e-12)


def test_assemble_vacuum_and_single(random_model):
    space, spectrum = random_model
    b0 = enumerate_sector(0, space.n_modes, spectrum.n_composites)
    h0 = assemble_hamiltonian(b0, space, spectrum)
    assert h0.total.to_dense().shape == (1, 1)
    assert h0.total.nnz == 0

    b1 = enumerate_sector(1, space.n_modes, spectrum.n_composites)
    h1 = assemble_hamiltonian(b1, space, spectrum)
    ss = h1.terms[TermId.SS].to_dense()
    assert np.max(np.abs(h1.total.to_dense() - ss)) == 0.0
    for term in TermId:
        if term is not TermId.SS:
            assert h1.terms[term].nnz == 0


def test_two_site_n2_assembled_matrix(two_site):
    # analytic form: atom block is the pair Hamiltonian in the mode basis,
    # the molecule couples through eps0 * (bound eigenvector), diagonal eps0
    space, spectrum = two_site
    basis = enumerate_sector(2, 2, 1)
    ham = assemble_hamiltonian(basis, space, spectrum)
    eps0 = -(2.0 + 2.0 * R2)
    x, y = math.cos(math.pi / 8.0), math.sin(math.pi / 8.0)
    expected = np.array(
        [
            [-4.0, 0.0, -2.0, eps0 * x],
            [0.0, -4.0, 0.0, 0.0],
            [-2.0, 0.0, 0.0, eps0 * y],
            [eps0 * x, 0.0, eps0 * y, eps0],
        ]
    )
    assert np.max(np.abs(ham.total.to_dense() - expected)) <= 1e-12


def test_atom_block_equals_pair_hamiltonian(two_site):
    space, spectrum = two_site
    basis = enumerate_sector(2, 2, 1)
    ham = assemble_hamiltonian(basis, space, spectrum)
    atom_block = (
        ham.terms[TermId.SS].to_dense() + ham.terms[TermId.SSSS].to_dense()
    )[:3, :3]
    assert np.max(np.abs(atom_block - space.pair_hamiltonian().mat)) <= 1e-12


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_hermiticity_and_adjoint_pairing(random_model, n):
    space, spectrum = random_model
    basis = enumerate_sector(n, space.n_modes, spectrum.n_composites)
    ham = assemble_hamiltonian(basis, space, spectrum)
    total = ham.total.to_dense()
    assert np.max(np.abs(total - total.T)) <= 1e-12
    css = ham.terms[TermId.CSS].to_dense()
    ssc = ham.terms[TermId.SSC].to_dense()
    assert np.array_equal(css, ssc.T)


def test_constituent_number_conservation(random_model):
    space, spectrum = random_model
    b2 = enumerate_sector(2, space.n_modes, spectrum.n_composites)
    b3 = enumerate_sector(3, space.n_modes, spectrum.n_composites)
    union = SectorBasis.union(b2, b3)
    for term in TermId:
        block = build_term(term, union, space, spectrum).to_dense()
        cross = block[: b2.dim, b2.dim :]
        cross2 = block[b2.dim :, : b2.dim]
        assert np.all(cross == 0.0)
        assert np.all(cross2 == 0.0)


def test_union_basis_terms_are_direct_sums(random_model):
    # images of a union basis span two sectors; each term must still be the
    # direct sum of its per-sector blocks, bit for bit
    space, spectrum = random_model
    tensors = coefficient_tensors(space, spectrum)
    b2 = enumerate_sector(2, space.n_modes, spectrum.n_composites)
    b3 = enumerate_sector(3, space.n_modes, spectrum.n_composites)
    union = SectorBasis.union(b2, b3)
    assert [tuple(r) for r in union.occupations.tolist()] == [
        s.atoms + s.molecules for s in union.states
    ]
    for term in TermId:
        got = build_term(term, union, space, spectrum, tensors)
        low = build_term(term, b2, space, spectrum, tensors)
        high = build_term(term, b3, space, spectrum, tensors)
        indptr = np.concatenate([low.indptr, high.indptr[1:] + low.nnz])
        assert np.array_equal(got.indptr, indptr), term
        assert np.array_equal(got.indices, np.concatenate([low.indices, high.indices + b2.dim])), term
        assert np.array_equal(got.data, np.concatenate([low.data, high.data])), term


def _assert_same_storage(got: SparseMatrix, want: SparseMatrix, what) -> None:
    assert got.dim == want.dim, what
    for a, b in ((got.indptr, want.indptr), (got.indices, want.indices), (got.data, want.data)):
        assert a.dtype == b.dtype, what
        assert np.array_equal(a, b), what


@pytest.mark.parametrize(
    "space, policy, n_max",
    [
        (build_ring_model(6, 1.0, -20.0), BelowEdge(), 4),
        (build_ring_model(8, 1.0, -20.0), LowestK(1), 4),
        (random_mode_space(3, seed=20240, attraction=(40.0, 55.0)), LowestK(2), 5),
        (build_ring_model(2, 1.0, -4.0), LowestK(1), 4),
    ],
    ids=["ring6", "ring8", "random3", "two_site"],
)
def test_split_union_equals_per_sector_assembly(space, policy, n_max):
    spectrum = space.solve_composites(policy)
    tensors = coefficient_tensors(space, spectrum)
    bases = [enumerate_sector(n, space.n_modes, spectrum.n_composites) for n in range(n_max + 1)]
    union = assemble_hamiltonian(SectorBasis.union(*bases), space, spectrum, tensors)
    sectors = split_sectors(union, bases)
    assert len(sectors) == len(bases)
    for n, (basis, got) in enumerate(zip(bases, sectors)):
        want = assemble_hamiltonian(basis, space, spectrum, tensors)
        assert got.basis is basis
        assert list(got.terms) == list(TermId)
        for term in TermId:
            _assert_same_storage(got.terms[term], want.terms[term], (n, term))
        _assert_same_storage(got.total, want.total, (n, "total"))


def _assert_canonical_csr(mat: SparseMatrix, what) -> None:
    indptr, indices = mat.indptr, mat.indices
    assert indptr.size == mat.dim + 1 and indptr[0] == 0 and indptr[-1] == mat.nnz, what
    assert np.all(np.diff(indptr) >= 0), what
    rows = zip(indptr[:-1].tolist(), indptr[1:].tolist())
    assert all(np.all(np.diff(indices[a:b]) > 0) for a, b in rows), what
    assert indptr.dtype == indices.dtype == np.int32, what
    assert not any(a.flags.writeable for a in (indptr, indices, mat.data)), what
    csr = mat.to_csr()
    for wrapped, stored in ((csr.indptr, indptr), (csr.indices, indices), (csr.data, mat.data)):
        # np.shares_memory is False for empty arrays: those share their address
        assert np.shares_memory(wrapped, stored) or stored.size == 0, what
        assert wrapped.__array_interface__["data"] == stored.__array_interface__["data"], what
    assert csr.has_sorted_indices, what


@pytest.mark.parametrize(
    "space, policy, n_max",
    [
        (build_ring_model(6, 1.0, -20.0), BelowEdge(), 4),
        (random_mode_space(3, seed=20240, attraction=(40.0, 55.0)), LowestK(2), 5),
    ],
    ids=["ring6", "random3"],
)
def test_blocks_are_stored_as_canonical_int32_csr(space, policy, n_max):
    spectrum = space.solve_composites(policy)
    bases = [enumerate_sector(n, space.n_modes, spectrum.n_composites) for n in range(n_max + 1)]
    union = assemble_hamiltonian(SectorBasis.union(*bases), space, spectrum)
    for n, ham in [("union", union), *enumerate(split_sectors(union, bases))]:
        for term in TermId:
            _assert_canonical_csr(ham.terms[term], (n, term))
        _assert_canonical_csr(ham.total, (n, "total"))


def test_spectrum_assembly_builds_no_states():
    space = build_ring_model(6, 1.0, -20.0)
    spectrum = space.solve_composites(BelowEdge())
    bases = [enumerate_sector(n, space.n_modes, spectrum.n_composites) for n in range(5)]
    union = SectorBasis.union(*bases)
    split_sectors(assemble_hamiltonian(union, space, spectrum), bases)
    assert all("states" not in basis.__dict__ for basis in (union, *bases))


@pytest.mark.parametrize(
    "space, policy, n_comp",
    [
        (build_ring_model(6, 1.0, -20.0), BelowEdge(), 6),
        (build_ring_model(8, 1.0, -20.0), LowestK(1), 1),
        (random_mode_space(3, seed=20240, attraction=(40.0, 55.0)), LowestK(2), 2),
    ],
    ids=["ring6", "ring8", "random3"],
)
def test_two_constituent_spectrum_closed_form(space, policy, n_comp):
    # N=2 holds the atom pairs, where the total is the pair Hamiltonian, and
    # one composite C_a per bound state E_a.  C_a and the pair eigenstate
    # phi_a span a block [[E_a, E_a], [E_a, E_a]] decoupled from the rest,
    # so E_a splits into 2 E_a and 0.
    spectrum = space.solve_composites(policy)
    assert spectrum.n_composites == n_comp
    pair = np.linalg.eigvalsh(space.pair_hamiltonian().mat)
    assert np.allclose(pair[:n_comp], spectrum.energies, rtol=0, atol=1e-10)
    want = np.sort(np.concatenate([pair[n_comp:], 2 * pair[:n_comp], np.zeros(n_comp)]))
    basis = enumerate_sector(2, space.n_modes, n_comp)
    got = np.linalg.eigvalsh(assemble_hamiltonian(basis, space, spectrum).total.to_dense())
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-10


def test_split_needs_the_union_of_the_sectors(random_model):
    space, spectrum = random_model
    bases = [enumerate_sector(n, space.n_modes, spectrum.n_composites) for n in range(3)]
    union = assemble_hamiltonian(SectorBasis.union(*bases), space, spectrum)
    with pytest.raises(ValueError, match="do not split"):
        split_sectors(union, bases[:2])


def test_ring6_n6_sector_assembles():
    # dim 1715: SCSC carries -1.0019e-12 at (1270, 1386) and a transpose
    # partner just below the drop tolerance, which must not be dropped alone
    space = build_ring_model(6, 1.0, -20.0)
    spectrum = space.solve_composites(BelowEdge())
    basis = enumerate_sector(6, space.n_modes, spectrum.n_composites)
    ham = assemble_hamiltonian(basis, space, spectrum)
    assert basis.dim == 1715
    assert ham.total.max_abs_asymmetry() <= HERMITICITY_TOL
    for term in TermId:
        block = ham.terms[term].to_csr()
        if term not in (TermId.CSS, TermId.SSC):
            assert abs(block - block.T).max() <= HERMITICITY_TOL, term


def test_asymmetry_report_stays_sparse(random_model, monkeypatch):
    # the failure message is taken from the sparse A - A^T and names the
    # same entries as a dense reference: largest |A - A^T| first, ties in
    # row-major order
    space, spectrum = random_model
    basis = enumerate_sector(3, space.n_modes, spectrum.n_composites)
    rng = np.random.default_rng(7)
    dense = rng.standard_normal((basis.dim, basis.dim))
    dense[rng.random(dense.shape) < 0.5] = 0.0
    rows, cols = np.nonzero(dense)
    skewed = SparseMatrix.from_triples(basis.dim, rows, cols, dense[rows, cols])
    empty = SparseMatrix.zero(basis.dim)

    def fake_build_term(term, *args):
        return skewed if term is TermId.SS else empty

    def no_dense(self):
        raise AssertionError("densified")

    monkeypatch.setattr(hamiltonian, "build_term", fake_build_term)
    monkeypatch.setattr(SparseMatrix, "to_dense", no_dense)
    with pytest.raises(HermiticityError) as err:
        assemble_hamiltonian(basis, space, spectrum)
    diff = np.abs(dense - dense.T)
    worst = np.argsort(-diff, axis=None, kind="stable")[:5]
    want = "; ".join(
        f"({r},{c}): {float(dense[r, c])!r} vs ({c},{r}): {float(dense[c, r])!r}"
        for r, c in zip(*np.unravel_index(worst, diff.shape))
    )
    assert str(err.value).endswith(f"worst entries: {want}")


def test_interaction_linearity(random_model):
    # doubling the two-body tensor (same composites) exactly doubles the
    # interaction-driven parts of every term
    space, spectrum = random_model
    doubled = mode_space(space.one_body.mat, 2.0 * space.two_body.t4)
    zeroed = mode_space(space.one_body.mat, np.zeros_like(space.two_body.t4))
    basis = enumerate_sector(3, space.n_modes, spectrum.n_composites)
    for term in TermId:
        base = build_term(term, basis, space, spectrum).to_dense()
        two = build_term(term, basis, doubled, spectrum).to_dense()
        none = build_term(term, basis, zeroed, spectrum).to_dense()
        assert np.max(np.abs((two - none) - 2.0 * (base - none))) <= 1e-10


def test_build_term_rejects_mismatched_spectrum(two_site, random_model):
    space, _ = two_site
    _, spectrum3 = random_model
    basis = enumerate_sector(2, 2, 1)
    with pytest.raises(ValueError, match="modes"):
        build_term(TermId.SS, basis, space, spectrum3)


# Each term's normal-ordered operator string, one (species, direction) per
# tensor axis, and its prefactor.
_OPERATOR_STRINGS = {
    TermId.SS: (1.0, (("atom", "create"), ("atom", "annihilate"))),
    TermId.SSSS: (
        0.5,
        (("atom", "create"), ("atom", "create"), ("atom", "annihilate"), ("atom", "annihilate")),
    ),
    TermId.CC: (1.0, (("molecule", "create"), ("molecule", "annihilate"))),
    TermId.CSS: (
        1.0 / R2,
        (("molecule", "create"), ("atom", "annihilate"), ("atom", "annihilate")),
    ),
    TermId.SSC: (
        1.0 / R2,
        (("atom", "create"), ("atom", "create"), ("molecule", "annihilate")),
    ),
    TermId.SCSC: (
        1.0,
        (
            ("atom", "create"),
            ("molecule", "create"),
            ("molecule", "annihilate"),
            ("atom", "annihilate"),
        ),
    ),
    TermId.CCCC: (
        0.5,
        (
            ("molecule", "create"),
            ("molecule", "create"),
            ("molecule", "annihilate"),
            ("molecule", "annihilate"),
        ),
    ),
}


def _dense_term(term, states, tensor):
    """pref * sum_idx c[idx] * prod_k ladder_k(idx_k) as dense matrices on ``states``."""
    pref, string = _OPERATOR_STRINGS[term]
    ladders = {}
    out = np.zeros((len(states), len(states)))
    for idx in np.ndindex(*tensor.shape):
        if tensor[idx] == 0.0:
            continue
        product = np.eye(len(states))
        for (species, direction), i in zip(string, idx):
            key = (species, i, direction)
            if key not in ladders:
                ladders[key] = ladder_matrix(states, species, i, direction)
            product = product @ ladders[key]
        out += tensor[idx] * product
    return pref * out


@settings(max_examples=15, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**16), n=st.integers(0, 3))
def test_terms_match_dense_ladder_products(seed, n):
    # On the union of sectors 0..n every intermediate state of a
    # normal-ordered string applied to sector n stays inside, so the
    # sector-n block of the dense product is the exact term.
    space = random_mode_space(3, seed, attraction=(40.0, 55.0))
    spectrum = space.solve_composites(LowestK(2))
    tensors = coefficient_tensors(space, spectrum)
    union = [
        s for k in range(n + 1) for s in enumerate_sector(k, 3, spectrum.n_composites).states
    ]
    basis = enumerate_sector(n, 3, spectrum.n_composites)
    assert union[-basis.dim :] == list(basis.states)
    for term in TermId:
        want = _dense_term(term, union, tensors[term])[-basis.dim :, -basis.dim :]
        got = build_term(term, basis, space, spectrum, tensors).to_dense()
        assert np.max(np.abs(got - want)) <= 1e-10, term


# ---------------------------------------------------------------------------
# Bitwise lock against the first array-native form of each block: annihilator
# stacks built per term, images ranked with np.unique(axis=0), the Kronecker
# product C (x) I, and canonicalization through from_triples.


def _kron_stack(group, basis):
    occ, cols = basis.occupations, np.arange(basis.dim)
    groups, vals = np.zeros(basis.dim, dtype=np.int64), np.ones(basis.dim)
    stride = 1
    for species in reversed(group):  # annihilate right to left
        atom = species == "atom"
        offset = 0 if atom else basis.n_atom_modes
        size = basis.n_atom_modes if atom else basis.n_molecule_modes
        rows, modes = np.nonzero(occ[:, offset : offset + size])
        occ = occ[rows]
        vals = vals[rows] * np.sqrt(occ[np.arange(rows.size), offset + modes])
        occ[np.arange(rows.size), offset + modes] -= 1
        groups = groups[rows] + modes * stride
        cols = cols[rows]
        stride *= size
    return groups, occ, cols, vals


def _kron_product(term, basis, tensors):
    import scipy.sparse as sp

    if term is TermId.SSC:
        css = _kron_product(TermId.CSS, basis, tensors)
        coo = css.to_csr().tocoo()
        return SparseMatrix.from_triples(basis.dim, coo.col, coo.row, coo.data)
    bra_group, ket_group = hamiltonian._GROUPS[term]
    stacks = [_kron_stack(g, basis) for g in dict.fromkeys((bra_group, ket_group))]
    if not all(vals.size for *_, vals in stacks):
        return SparseMatrix.zero(basis.dim)
    images = np.concatenate([occ for _, occ, _, _ in stacks])
    unique, ranks = np.unique(images, axis=0, return_inverse=True)
    n_img = len(unique)
    c = tensors[term]
    n_bra = math.prod(c.shape[: len(bra_group)])
    coeffs = sp.csr_matrix(hamiltonian.TERM_PREFACTOR[term] * c.reshape(n_bra, -1))
    mats = [
        sp.csr_matrix((vals, (index * n_img + rank, cols)), shape=(size * n_img, basis.dim))
        for (index, _, cols, vals), rank, size in zip(
            stacks, np.split(ranks.ravel(), [stacks[0][3].size]), coeffs.shape
        )
    ]
    l_mat, r_mat = mats[0], mats[-1]
    block = (l_mat.T @ (sp.kron(coeffs, sp.identity(n_img), format="csr") @ r_mat)).tocoo()
    return SparseMatrix.from_triples(basis.dim, block.row, block.col, block.data)


def _assert_bitwise(got, want, what):
    assert got.dim == want.dim, what
    assert np.array_equal(got.indptr, want.indptr), what
    assert np.array_equal(got.indices, want.indices), what
    assert np.array_equal(got.data.view(np.int64), want.data.view(np.int64)), what


def _lock_cases():
    ring6 = build_ring_model(6, 1.0, -20.0)
    ring8 = build_ring_model(8, 1.0, -20.0)
    rand = random_mode_space(3, seed=20240, attraction=(40.0, 55.0))
    for name, space, policy, ns in (
        ("ring6", ring6, BelowEdge(), range(5)),
        ("ring8", ring8, BelowEdge(), range(5)),
        ("ring8-k1", ring8, LowestK(1), range(5)),
        ("random3", rand, LowestK(2), range(6)),
    ):
        spectrum = space.solve_composites(policy)
        for n in ns:
            yield name, space, spectrum, enumerate_sector(n, space.n_modes, spectrum.n_composites)
    spectrum = rand.solve_composites(LowestK(2))
    union = SectorBasis.union(*(enumerate_sector(n, 3, spectrum.n_composites) for n in (1, 3, 4)))
    yield "random3-union", rand, spectrum, union


def test_blocks_are_bitwise_the_kronecker_form():
    for name, space, spectrum, basis in _lock_cases():
        tensors = coefficient_tensors(space, spectrum)
        want = {term: _kron_product(term, basis, tensors) for term in TermId}
        if basis.constituents is None:
            for term in TermId:
                got = build_term(term, basis, space, spectrum, tensors)
                _assert_bitwise(got, want[term], (name, term))
            continue
        ham = assemble_hamiltonian(basis, space, spectrum, tensors)
        for term in TermId:
            _assert_bitwise(ham.terms[term], want[term], (name, basis.dim, term))
        # the total is the CSR sum of the blocks, added left to right
        total = SparseMatrix.from_csr(reduce(operator.add, (want[t].to_csr() for t in TermId)))
        _assert_bitwise(ham.total, total, (name, basis.dim, "total"))
