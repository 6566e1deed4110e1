"""Deterministic dense and sparse symmetric eigensolvers and sparse storage.

All solvers share the same output conventions so that repeated runs give
bit-identical results: eigenvalues ascending, each eigenvector's first
component of magnitude above 1e-10 made positive, and degenerate groups
ordered lexicographically after the sign fix.

Sparse matrices are stored as their canonical CSR (:class:`SparseMatrix`),
the arrays scipy's products and the Krylov solver read, so handing one to
scipy copies nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from numpy.typing import NDArray

Matrix = NDArray[np.float64]

SYMMETRY_TOL = 1e-12
DROP_TOL = 1e-12

_SIGN_TOL = 1e-10
_START_VECTOR_SEED = 12345
_DENSE_FALLBACK_DIM = 32


class NonSymmetricError(ValueError):
    """Raised when a routine requiring a symmetric matrix gets an asymmetric one."""


class EigenConvergenceError(RuntimeError):
    """Raised when the iterative eigensolver fails: no convergence, or an
    ARPACK error such as a start vector it reduces to zero."""


def symmetry_tolerance(largest: float) -> float:
    """The rule of every symmetry, exchange and Hermiticity check: ``A`` and
    its image ``B`` agree when ``max|A - B| <= SYMMETRY_TOL * max(1, max|A|)``,
    ``largest`` being ``max|A|``, since roundoff scales with the entries."""
    return SYMMETRY_TOL * max(1.0, largest)


def asymmetry(a: NDArray, b: NDArray) -> tuple[float, float]:
    """``max|a - b|`` and the :func:`symmetry_tolerance` it is held to."""
    diff = float(np.max(np.abs(a - b), initial=0.0))
    return diff, symmetry_tolerance(float(np.max(np.abs(a), initial=0.0)))


def _check_symmetric(asym: float, tol: float, name: str) -> None:
    if asym > tol:
        raise NonSymmetricError(
            f"{name} is not symmetric: max |A - A^T| = {asym:.3e} exceeds {tol:.1e}"
        )


def require_symmetric(mat: Matrix, name: str = "matrix") -> None:
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{name} must be square, got shape {mat.shape}")
    _check_symmetric(*asymmetry(mat, mat.T), name)


def _fix_signs(vectors: Matrix) -> Matrix:
    """Each column negated where its first entry of magnitude above
    ``_SIGN_TOL`` is negative."""
    if not vectors.size:
        return vectors.copy()
    big = np.abs(vectors) > _SIGN_TOL
    lead = vectors[np.argmax(big, axis=0), np.arange(vectors.shape[1])]
    return np.where(big.any(axis=0) & (lead < 0.0), -vectors, vectors)


def _order_degenerate(values: Matrix, vectors: Matrix) -> tuple[Matrix, Matrix]:
    # Within a degenerate group the order returned by LAPACK is arbitrary;
    # sort those columns lexicographically so output is reproducible.
    n = len(values)
    if n == 0:
        return values, vectors
    tol = 1e-10 * max(1.0, float(np.max(np.abs(values))))
    order = np.arange(n)
    i = 0
    while i < n:
        j = i
        while j + 1 < n and values[j + 1] - values[i] <= tol:
            j += 1
        if j > i:
            order[i : j + 1] = sorted(range(i, j + 1), key=lambda c: tuple(vectors[:, c]))
        i = j + 1
    return values, vectors[:, order]


def dense_symmetric_eigen(mat: Matrix) -> tuple[Matrix, Matrix]:
    """Full eigendecomposition of a real symmetric matrix.

    Returns ``(values, vectors)`` with values ascending and deterministic
    eigenvector signs/ordering.  Rejects input that fails
    :func:`symmetry_tolerance`.
    """
    m = np.asarray(mat, dtype=float)
    require_symmetric(m)
    values, vectors = np.linalg.eigh(m)
    vectors = _fix_signs(vectors)
    return _order_degenerate(values, vectors)


def row_sorted_csr(rows, cols, vals, shape: tuple[int, int]) -> sp.csr_matrix:
    """CSR of entries listed row by row, rows ascending; each row keeps the
    order its columns are listed in."""
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=shape[0]))))
    return sp.csr_matrix((vals, cols, indptr), shape=shape)


@dataclass(frozen=True, eq=False)
class SparseMatrix:
    """Square sparse matrix stored as its canonical CSR.

    ``indptr``, ``indices`` and ``data`` are read-only and share one index
    dtype, the one scipy picks (int32 whenever it fits).  Each row lists
    its columns ascending, with duplicates summed.  An entry below
    ``DROP_TOL`` in magnitude is removed unless its transpose partner is
    stored at or above it, so the drop never splits a symmetric pair.  Two
    equal matrices always carry identical storage.
    """

    dim: int
    indptr: NDArray[np.integer]
    indices: NDArray[np.integer]
    data: NDArray[np.float64]

    def __post_init__(self) -> None:
        for arr in (self.indptr, self.indices, self.data):
            arr.setflags(write=False)

    @staticmethod
    def from_triples(dim: int, rows, cols, vals) -> "SparseMatrix":
        rows = np.array(rows, dtype=np.int64)
        cols = np.array(cols, dtype=np.int64)
        vals = np.array(vals, dtype=float)
        if not (rows.shape == cols.shape == vals.shape):
            raise ValueError("rows, cols and vals must have equal length")
        if rows.size:
            if rows.min() < 0 or rows.max() >= dim or cols.min() < 0 or cols.max() >= dim:
                raise ValueError(f"triple index out of range for dimension {dim}")
            order = np.lexsort((cols, rows))
            rows, cols, vals = rows[order], cols[order], vals[order]
            # merge duplicates (stable: contributions are already sorted)
            uniq, start = np.unique(rows * dim + cols, return_index=True)
            rows, cols = np.divmod(uniq, dim)
            vals = np.add.reduceat(vals, start)
        return SparseMatrix.from_csr(row_sorted_csr(rows, cols, vals, (dim, dim)))

    @staticmethod
    def from_csr(mat: sp.csr_matrix) -> "SparseMatrix":
        """The canonical storage of a square CSR matrix with no duplicate entries.

        Equal to :meth:`from_triples` of its entries; sorts ``mat`` in place
        and keeps its arrays, made read-only.
        """
        mat.sort_indices()
        dim, indptr, indices, data = mat.shape[0], mat.indptr, mat.indices, mat.data
        keep = np.abs(data) >= DROP_TOL
        small = np.flatnonzero(~keep)
        if small.size:
            # a small entry stays when its transpose partner is stored and
            # kept; the partners are looked up among the row-major keys
            rows = np.repeat(np.arange(dim, dtype=np.int64), np.diff(indptr))
            keys = rows * dim + indices
            mirror = indices[small].astype(np.int64) * dim + rows[small]
            at = np.minimum(np.searchsorted(keys, mirror), keys.size - 1)
            keep[small] = (keys[at] == mirror) & keep[at]
            kept_before = np.concatenate(([0], np.cumsum(keep)))
            indptr = kept_before[indptr].astype(indptr.dtype)
            indices, data = indices[keep], data[keep]
        return SparseMatrix(dim, indptr, indices, data)

    @staticmethod
    def zero(dim: int) -> "SparseMatrix":
        return SparseMatrix.from_triples(dim, [], [], [])

    @property
    def nnz(self) -> int:
        return int(self.data.size)

    def _rows(self) -> NDArray[np.integer]:
        """The row of each stored entry."""
        return np.repeat(np.arange(self.dim, dtype=self.indices.dtype), np.diff(self.indptr))

    def to_dense(self) -> Matrix:
        out = np.zeros((self.dim, self.dim))
        out[self._rows(), self.indices] = self.data
        return out

    def to_csr(self) -> sp.csr_matrix:
        """The matrix as a scipy CSR that shares the stored arrays."""
        csr = sp.csr_matrix((self.data, self.indices, self.indptr), shape=(self.dim, self.dim))
        csr.has_canonical_format = True
        return csr

    def transpose(self) -> "SparseMatrix":
        # row-major entries sorted stably by column are the transpose's
        # row-major order; the drop treats both halves of a pair alike, so
        # nothing drops
        order = np.argsort(self.indices, kind="stable")
        counts = np.bincount(self.indices, minlength=self.dim)
        indptr = np.concatenate(([0], np.cumsum(counts))).astype(self.indptr.dtype)
        return SparseMatrix(self.dim, indptr, self._rows()[order], self.data[order])

    def diagonal_block(self, lo: int, hi: int) -> "SparseMatrix":
        """The block of rows and columns ``lo .. hi - 1``, re-based to ``lo``.

        The block's entries are one slice of the storage, already canonical,
        and copied out of it.  Raises ValueError when a row of the block
        holds an entry outside its columns.
        """
        if not 0 <= lo <= hi <= self.dim:
            raise ValueError(f"block [{lo}, {hi}) out of range for dimension {self.dim}")
        start, stop = self.indptr[lo], self.indptr[hi]
        indices = self.indices[start:stop] - lo
        if indices.size and (indices.min() < 0 or indices.max() >= hi - lo):
            raise ValueError(f"rows [{lo}, {hi}) couple outside the block")
        return SparseMatrix(
            hi - lo, self.indptr[lo : hi + 1] - start, indices, self.data[start:stop].copy()
        )

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.data))) if self.nnz else 0.0

    def max_abs_asymmetry(self) -> float:
        """max |A - A^T|."""
        csr = self.to_csr()
        diff = csr - csr.T
        return float(np.max(np.abs(diff.data))) if diff.nnz else 0.0

    def to_coordinate_csv(self) -> str:
        # each distinct value is formatted once; keyed by its bits, so -0.0
        # (printed as -0) stays apart from 0.0
        bits, which = np.unique(self.data.view(np.int64), return_inverse=True)
        texts = [f"{v:.17g}" for v in memoryview(bits.view(np.float64))]
        lines = ["row,col,value"]
        # memoryviews yield Python ints one at a time: formatting them skips
        # numpy's scalar formatting without whole-array lists
        for r, c, k in zip(memoryview(self._rows()), memoryview(self.indices), memoryview(which)):
            lines.append(f"{r},{c},{texts[k]}")
        return "\n".join(lines) + "\n"


def sparse_lowest_eigen(m: SparseMatrix, k: int) -> Matrix:
    """Lowest ``k`` eigenvalues of a symmetric sparse matrix, ascending.

    Uses an ARPACK Krylov iteration (full reorthogonalization, fixed-seed
    start vector); dimensions too small for ARPACK's ``k < dim - 1``
    requirement are solved densely, which agrees within the documented
    1e-8 tolerance.  Both paths reject a matrix that fails
    :func:`symmetry_tolerance`; the dense one checks the dense matrix and
    builds no CSR.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k > m.dim:
        raise ValueError(f"k={k} exceeds matrix dimension {m.dim}")
    if k == 0:
        return np.zeros(0)
    if m.dim <= _DENSE_FALLBACK_DIM or k >= m.dim - 1:
        values, _ = dense_symmetric_eigen(m.to_dense())
        return values[:k].copy()
    _check_symmetric(m.max_abs_asymmetry(), symmetry_tolerance(m.max_abs()), "sparse matrix")
    rng = np.random.default_rng(_START_VECTOR_SEED)
    v0 = rng.standard_normal(m.dim)
    v0 /= np.linalg.norm(v0)
    try:
        values = spla.eigsh(m.to_csr(), k=k, which="SA", v0=v0, return_eigenvectors=False)
    except spla.ArpackError as exc:  # no convergence, or ARPACK's own error codes
        raise EigenConvergenceError(str(exc)) from exc
    return np.sort(values)
