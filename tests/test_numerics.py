import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from composite_bosons.numerics import (
    NonSymmetricError,
    SparseMatrix,
    dense_symmetric_eigen,
    sparse_lowest_eigen,
)


def sparse_from_dense(mat):
    mat = np.asarray(mat, dtype=float)
    rows, cols = np.nonzero(mat)
    return SparseMatrix.from_triples(mat.shape[0], rows, cols, mat[rows, cols])


def test_exchange_matrix():
    vals, _ = dense_symmetric_eigen([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(vals, [-1.0, 1.0], atol=1e-12)


def test_identity():
    vals, vecs = dense_symmetric_eigen(np.eye(3))
    assert np.allclose(vals, [1.0, 1.0, 1.0])
    assert np.allclose(vecs.T @ vecs, np.eye(3), atol=1e-12)


def test_two_site_pair_matrix_lowest():
    # symmetric two-particle matrix of the two-site hopping+contact model,
    # pair order (0,0),(0,1),(1,1); lowest value from the 2x2 reduction over
    # the site-inversion-even sector is -(2 + 2*sqrt(2))
    r2 = math.sqrt(2.0)
    mat = np.array([[-4.0, -r2, 0.0], [-r2, 0.0, -r2], [0.0, -r2, -4.0]])
    vals, _ = dense_symmetric_eigen(mat)
    assert vals[0] == pytest.approx(-(2.0 + 2.0 * r2), abs=1e-12)


def test_rejects_asymmetric_with_diagnostic():
    with pytest.raises(NonSymmetricError, match=r"max \|A - A\^T\| = 2\.000e-01"):
        dense_symmetric_eigen([[0.0, 0.3], [0.1, 0.0]])


def test_sign_convention_and_determinism():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((8, 8))
    m = a + a.T
    vals1, vecs1 = dense_symmetric_eigen(m)
    vals2, vecs2 = dense_symmetric_eigen(m.copy())
    assert np.array_equal(vals1, vals2)
    assert np.array_equal(vecs1, vecs2)
    for col in range(8):
        first = vecs1[np.abs(vecs1[:, col]) > 1e-10, col][0]
        assert first > 0


def _per_column_eigen(mat):
    # the per-column sign fix and the full group sort that
    # dense_symmetric_eigen replaced, kept as its bitwise reference
    values, vectors = np.linalg.eigh(np.asarray(mat, dtype=float))
    vectors = vectors.copy()
    for col in range(vectors.shape[1]):
        v = vectors[:, col]
        big = np.nonzero(np.abs(v) > 1e-10)[0]
        if big.size and v[big[0]] < 0.0:
            vectors[:, col] = -v
    tol = 1e-10 * max(1.0, float(np.max(np.abs(values))))
    order, i, n = [], 0, len(values)
    while i < n:
        j = i
        while j + 1 < n and values[j + 1] - values[i] <= tol:
            j += 1
        order.extend(sorted(range(i, j + 1), key=lambda c: tuple(vectors[:, c])))
        i = j + 1
    return values, vectors[:, order]


def _ring_hopping(m):
    o = np.zeros((m, m))
    for s in range(m):
        o[s, (s + 1) % m] = o[(s + 1) % m, s] = -1.0
    return o


def _degenerate_cluster(seed):
    # a random orthogonal basis with a threefold and a twofold eigenvalue
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((9, 9)))
    m = q @ np.diag([-2.0, 0.5, 0.5, 0.5, 1.0, 3.0, 3.0, 4.0, 7.0]) @ q.T
    return 0.5 * (m + m.T)


@pytest.mark.parametrize(
    "mat",
    [_ring_hopping(8), _ring_hopping(6), _degenerate_cluster(1), _degenerate_cluster(2), np.eye(4)],
    ids=["ring8", "ring6", "cluster-1", "cluster-2", "identity"],
)
def test_dense_eigen_is_bitwise_the_per_column_loop(mat):
    want_values, want_vectors = _per_column_eigen(mat)
    values, vectors = dense_symmetric_eigen(mat)
    assert values.tobytes() == want_values.tobytes()
    assert vectors.tobytes() == want_vectors.tobytes()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_eigen_properties(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((12, 12))
    m = a + a.T
    vals, vecs = dense_symmetric_eigen(m)
    assert np.all(np.diff(vals) >= 0)
    assert np.max(np.abs(vecs.T @ vecs - np.eye(12))) <= 1e-10
    recon = np.max(np.abs(m @ vecs - vecs * vals))
    assert recon <= 1e-9


def test_sparse_diagonal():
    m = sparse_from_dense(np.diag([5.0, 1.0, 3.0]))
    assert np.allclose(sparse_lowest_eigen(m, 2), [1.0, 3.0], atol=1e-12)


def test_sparse_k_too_large():
    m = sparse_from_dense(np.eye(3))
    with pytest.raises(ValueError, match="exceeds"):
        sparse_lowest_eigen(m, 4)


def test_sparse_random_50_matches_dense():
    rng = np.random.default_rng(50)
    a = rng.standard_normal((50, 50))
    dense = a + a.T
    m = sparse_from_dense(dense)
    got = sparse_lowest_eigen(m, 4)
    want = dense_symmetric_eigen(dense)[0][:4]
    assert np.max(np.abs(got - want)) <= 1e-8


def test_sparse_chain_closed_form():
    n = 10
    dense = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    m = sparse_from_dense(dense)
    got = sparse_lowest_eigen(m, 1)
    assert got[0] == pytest.approx(2.0 - 2.0 * math.cos(math.pi / (n + 1)), abs=1e-10)


@pytest.mark.parametrize("dim", [20, 80, 200])
def test_sparse_dense_agreement(dim):
    rng = np.random.default_rng(dim)
    a = rng.standard_normal((dim, dim))
    a[np.abs(a) < 1.0] = 0.0  # keep it sparse
    dense = a + a.T
    m = sparse_from_dense(dense)
    k = 4
    got = sparse_lowest_eigen(m, k)
    want = dense_symmetric_eigen(dense)[0][:k]
    assert np.max(np.abs(got - want)) <= 1e-8


def test_sparse_storage_is_canonical():
    m = SparseMatrix.from_triples(
        3, [2, 0, 0, 2], [1, 1, 1, 1], [0.5, 1.0, 2.0, -0.5]
    )
    assert m.indptr.tolist() == [0, 1, 1, 1]
    assert m.indices.tolist() == [1]
    assert m.data.tolist() == [3.0]


def test_sparse_drop_tolerance():
    m = SparseMatrix.from_triples(2, [0, 1], [0, 1], [1e-13, 1.0])
    assert m.nnz == 1
    assert m.to_dense()[1, 1] == 1.0


def test_sparse_drop_keeps_straddling_pair():
    # one partner above the drop tolerance keeps the other, so the stored
    # matrix stays as symmetric as its input
    m = SparseMatrix.from_triples(2, [0, 1], [1, 0], [1.0000001e-12, 0.9999999e-12])
    assert m.nnz == 2
    assert m.data.tolist() == [1.0000001e-12, 0.9999999e-12]


def test_sparse_drop_removes_small_pairs_and_lone_entries():
    lone = SparseMatrix.from_triples(3, [0, 2], [1, 2], [0.5e-12, 1.0])
    assert (lone.indptr.tolist(), lone.indices.tolist()) == ([0, 0, 0, 1], [2])
    both = SparseMatrix.from_triples(2, [0, 1], [1, 0], [0.9e-12, -0.8e-12])
    assert both.nnz == 0


def test_sparse_rejects_asymmetric():
    m = SparseMatrix.from_triples(2, [0], [1], [1.0])
    with pytest.raises(NonSymmetricError):
        sparse_lowest_eigen(m, 1)


def test_coordinate_csv_format():
    m = SparseMatrix.from_triples(2, [0, 1], [1, 0], [0.5, 0.5])
    text = m.to_coordinate_csv()
    assert text.splitlines()[0] == "row,col,value"
    assert text.splitlines()[1] == "0,1,0.5"


def test_coordinate_csv_matches_numpy_scalar_formatting():
    # the writer formats Python numbers; each line equals the formatting of
    # the stored numpy scalars themselves, for either index dtype and also
    # for a strided array
    vals = np.array([-0.1, 0.0, 1e-300, 0.0, 1.7976931348623157e308, 0.0, -2.0 / 3.0])[::2]
    rows = [0, 2, 2, 3]
    for dtype in (np.int32, np.int64):
        indptr = np.array([0, 1, 1, 3, 4], dtype=dtype)
        indices = np.array([3, 0, 2, 1], dtype=dtype)
        m = SparseMatrix(4, indptr, indices, vals)
        want = ["row,col,value"] + [f"{r},{c},{v:.17g}" for r, c, v in zip(rows, indices, vals)]
        assert m.to_coordinate_csv() == "\n".join(want) + "\n"
        assert "2,2,1.7976931348623157e+308" in want


def test_coordinate_csv_keeps_the_two_zeros_apart():
    # each distinct value is formatted once, keyed by its bits: -0.0 prints
    # as -0 and 0.0 as 0, wherever they stand, as the per-entry loop does
    vals = np.array([0.0, -0.0, 0.25, -0.0, 0.25, 0.0, -1.0 / 3.0, 1e-300, -0.0])
    rows = np.arange(vals.size, dtype=np.int32)
    cols = rows[::-1].copy()
    m = SparseMatrix(vals.size, np.arange(vals.size + 1, dtype=np.int32), cols, vals)
    want = ["row,col,value"] + [f"{r},{c},{v:.17g}" for r, c, v in zip(rows, cols, vals)]
    assert m.to_coordinate_csv() == "\n".join(want) + "\n"
    assert "1,7,-0" in want and "0,8,0" in want


# values on both sides of the drop tolerance, exact zeros and ordinary sizes
_VALUES = st.sampled_from(
    [0.0, -0.0, 0.5e-12, -0.99e-12, 1e-12, -1e-12, 1.0000001e-12, -1.01e-12, 0.25, -3.0, 1e-3]
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    dim=st.integers(1, 5),
    triples=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4), _VALUES), max_size=30),
    seed=st.integers(0, 2**16),
)
def test_transpose_and_csr_canonicalizer_store_like_from_triples(dim, triples, seed):
    triples = [(r % dim, c % dim, v) for r, c, v in triples]
    rows, cols, vals = (np.array(x) for x in zip(*triples)) if triples else ([], [], [])
    m = SparseMatrix.from_triples(dim, rows, cols, vals)

    def same(a, b):
        return (
            a.dim == b.dim
            and a.indptr.dtype == a.indices.dtype == b.indices.dtype
            and np.array_equal(a.indptr, b.indptr)
            and np.array_equal(a.indices, b.indices)
            and np.array_equal(a.data.view(np.int64), b.data.view(np.int64))
        )

    # the transpose is a permutation of the canonical storage
    assert same(m.transpose(), SparseMatrix.from_triples(dim, cols, rows, vals))
    assert same(m.transpose().transpose(), m)
    # one entry per position, rows grouped, columns shuffled within each row
    keys = {}
    for r, c, v in triples:
        keys[r, c] = v
    entries = list(keys.items())
    np.random.default_rng(seed).shuffle(entries)
    entries.sort(key=lambda e: e[0][0])  # stable: columns stay shuffled
    r = np.array([rc[0] for rc, _ in entries], dtype=np.int64)
    c = np.array([rc[1] for rc, _ in entries], dtype=np.int64)
    v = np.array([x for _, x in entries], dtype=float)
    indptr = np.searchsorted(r, np.arange(dim + 1))
    csr = sp.csr_matrix((v.copy(), c.copy(), indptr), shape=(dim, dim))  # sorted in place
    assert same(SparseMatrix.from_csr(csr), SparseMatrix.from_triples(dim, r, c, v))


def test_csr_and_asymmetry_are_built_once(monkeypatch):
    m = SparseMatrix.from_triples(3, [0, 1, 2], [1, 0, 2], [1.0, 1.5, 2.0])
    # the CSR is built once, as the storage: to_csr wraps it without a copy
    csr = m.to_csr()
    for wrapped, stored in ((csr.indptr, m.indptr), (csr.indices, m.indices), (csr.data, m.data)):
        assert np.shares_memory(wrapped, stored)
    assert csr.has_sorted_indices
    assert m.max_abs_asymmetry() == 0.5
    monkeypatch.setattr(SparseMatrix, "to_csr", lambda self: pytest.fail("rebuilt"))
    assert m.max_abs_asymmetry() == 0.5
    with pytest.raises(NonSymmetricError):
        sparse_lowest_eigen(m, 1)
    with pytest.raises(ValueError, match="read-only"):
        m.data[0] = 2.0


def test_dense_path_checks_symmetry_without_a_csr(monkeypatch):
    # a sector small enough for the dense solver goes straight to it: no CSR
    # and no sparse asymmetry are built, its values are the dense solver's
    # bit for bit, and an asymmetric matrix still raises
    def no_csr(self):
        pytest.fail("dense path built a CSR")

    monkeypatch.setattr(SparseMatrix, "to_csr", no_csr)
    mat = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, -0.25], [0.0, -0.25, 3.0]])
    got = sparse_lowest_eigen(sparse_from_dense(mat), 2)
    assert np.array_equal(got, dense_symmetric_eigen(mat)[0][:2])
    asymmetric = SparseMatrix.from_triples(3, [0, 1, 2], [1, 0, 2], [1.0, 1.5, 2.0])
    with pytest.raises(NonSymmetricError, match=r"max \|A - A\^T\| = 5\.000e-01"):
        sparse_lowest_eigen(asymmetric, 1)


def test_diagonal_block_is_the_dense_block_rebased():
    mat = np.zeros((6, 6))
    mat[0, 0], mat[1, 2], mat[2, 1] = 1.0, 2.0, 2.0
    mat[3, 3], mat[4, 5], mat[5, 4], mat[5, 5] = -1.0, 0.5, 0.5, 3.0
    stored = sparse_from_dense(mat)
    for lo, hi in ((0, 1), (1, 3), (3, 6), (0, 3), (0, 6), (2, 2)):
        block = stored.diagonal_block(lo, hi)
        want = sparse_from_dense(mat[lo:hi, lo:hi])
        assert block.dim == hi - lo
        pairs = ((block.indptr, want.indptr), (block.indices, want.indices), (block.data, want.data))
        for got, ref in pairs:
            assert got.dtype == ref.dtype
            assert np.array_equal(got, ref)
            assert not got.flags.writeable
    block = stored.diagonal_block(1, 3)
    # copies: the parent can be freed
    assert all(arr.base is None for arr in (block.indptr, block.indices, block.data))


@pytest.mark.parametrize("lo, hi", [(0, 2), (2, 4), (2, 6)])
def test_diagonal_block_rejects_coupling_outside_the_block(lo, hi):
    mat = np.eye(6)
    mat[1, 2] = mat[2, 1] = 0.25
    with pytest.raises(ValueError, match="couple outside"):
        sparse_from_dense(mat).diagonal_block(lo, hi)


@pytest.mark.parametrize("lo, hi", [(-1, 2), (3, 2), (0, 7)])
def test_diagonal_block_rejects_a_range_outside_the_matrix(lo, hi):
    with pytest.raises(ValueError, match="out of range"):
        sparse_from_dense(np.eye(6)).diagonal_block(lo, hi)
