import math

import numpy as np
import pytest

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
    assert m.rows.tolist() == [0]
    assert m.cols.tolist() == [1]
    assert m.vals.tolist() == [3.0]


def test_sparse_drop_tolerance():
    m = SparseMatrix.from_triples(2, [0, 1], [0, 1], [1e-13, 1.0])
    assert m.nnz == 1
    assert m.to_dense()[1, 1] == 1.0


def test_sparse_drop_keeps_straddling_pair():
    # one partner above the drop tolerance keeps the other, so the stored
    # matrix stays as symmetric as its input
    m = SparseMatrix.from_triples(2, [0, 1], [1, 0], [1.0000001e-12, 0.9999999e-12])
    assert m.nnz == 2
    assert m.vals.tolist() == [1.0000001e-12, 0.9999999e-12]


def test_sparse_drop_removes_small_pairs_and_lone_entries():
    lone = SparseMatrix.from_triples(3, [0, 2], [1, 2], [0.5e-12, 1.0])
    assert (lone.rows.tolist(), lone.cols.tolist()) == ([2], [2])
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
