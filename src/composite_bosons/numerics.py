"""Deterministic dense and sparse symmetric eigensolvers and sparse storage.

All solvers share the same output conventions so that repeated runs give
bit-identical results: eigenvalues ascending, each eigenvector's first
component of magnitude above 1e-10 made positive, and degenerate groups
ordered lexicographically after the sign fix.
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
    """Raised when the iterative eigensolver fails to converge."""


def require_symmetric(mat: Matrix, tol: float = SYMMETRY_TOL, name: str = "matrix") -> None:
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{name} must be square, got shape {mat.shape}")
    asym = float(np.max(np.abs(mat - mat.T))) if mat.size else 0.0
    if asym > tol:
        raise NonSymmetricError(
            f"{name} is not symmetric: max |A - A^T| = {asym:.3e} exceeds {tol:.1e}"
        )


def _fix_signs(vectors: Matrix) -> Matrix:
    vectors = vectors.copy()
    for col in range(vectors.shape[1]):
        v = vectors[:, col]
        big = np.nonzero(np.abs(v) > _SIGN_TOL)[0]
        if big.size and v[big[0]] < 0.0:
            vectors[:, col] = -v
    return vectors


def _order_degenerate(values: Matrix, vectors: Matrix) -> tuple[Matrix, Matrix]:
    # Within a degenerate group the order returned by LAPACK is arbitrary;
    # sort those columns lexicographically so output is reproducible.
    n = len(values)
    if n == 0:
        return values, vectors
    tol = 1e-10 * max(1.0, float(np.max(np.abs(values))))
    order: list[int] = []
    i = 0
    while i < n:
        j = i
        while j + 1 < n and values[j + 1] - values[i] <= tol:
            j += 1
        group = sorted(range(i, j + 1), key=lambda c: tuple(vectors[:, c]))
        order.extend(group)
        i = j + 1
    return values, vectors[:, order]


def dense_symmetric_eigen(mat: Matrix) -> tuple[Matrix, Matrix]:
    """Full eigendecomposition of a real symmetric matrix.

    Returns ``(values, vectors)`` with values ascending and deterministic
    eigenvector signs/ordering.  Rejects input whose asymmetry exceeds
    ``SYMMETRY_TOL``.
    """
    m = np.asarray(mat, dtype=float)
    require_symmetric(m)
    values, vectors = np.linalg.eigh(m)
    vectors = _fix_signs(vectors)
    return _order_degenerate(values, vectors)


@dataclass(frozen=True)
class SparseMatrix:
    """Square sparse matrix in canonical coordinate storage.

    Triples are stored row-major (row, then column) with duplicates summed.
    An entry below ``DROP_TOL`` in magnitude is removed unless its transpose
    partner is stored at or above it, so the drop never splits a symmetric
    pair.  Two equal matrices always carry identical storage.
    """

    dim: int
    rows: NDArray[np.int64]
    cols: NDArray[np.int64]
    vals: NDArray[np.float64]

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
            keys = rows * dim + cols
            uniq, start = np.unique(keys, return_index=True)
            summed = np.add.reduceat(vals, start)
            rows = (uniq // dim).astype(np.int64)
            cols = (uniq % dim).astype(np.int64)
            vals = summed
            keep = np.abs(vals) >= DROP_TOL
            # a small entry stays when its transpose partner is stored and kept
            small = np.flatnonzero(~keep)
            mirror = cols[small] * dim + rows[small]
            at = np.minimum(np.searchsorted(uniq, mirror), uniq.size - 1)
            keep[small] = (uniq[at] == mirror) & keep[at]
            rows, cols, vals = rows[keep], cols[keep], vals[keep]
        for arr in (rows, cols, vals):
            arr.setflags(write=False)
        return SparseMatrix(dim, rows, cols, vals)

    @staticmethod
    def zero(dim: int) -> "SparseMatrix":
        return SparseMatrix.from_triples(dim, [], [], [])

    @property
    def nnz(self) -> int:
        return int(self.vals.size)

    def to_dense(self) -> Matrix:
        out = np.zeros((self.dim, self.dim))
        out[self.rows, self.cols] = self.vals
        return out

    def to_csr(self) -> sp.csr_matrix:
        return sp.csr_matrix(
            (self.vals, (self.rows, self.cols)), shape=(self.dim, self.dim)
        )

    def transpose(self) -> "SparseMatrix":
        return SparseMatrix.from_triples(self.dim, self.cols, self.rows, self.vals)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.vals))) if self.nnz else 0.0

    def max_abs_asymmetry(self) -> float:
        csr = self.to_csr()
        diff = csr - csr.T
        return float(np.max(np.abs(diff.data))) if diff.nnz else 0.0

    def to_coordinate_csv(self) -> str:
        lines = ["row,col,value"]
        for r, c, v in zip(self.rows, self.cols, self.vals):
            lines.append(f"{r},{c},{v:.17g}")
        return "\n".join(lines) + "\n"


def sparse_lowest_eigen(m: SparseMatrix, k: int) -> Matrix:
    """Lowest ``k`` eigenvalues of a symmetric sparse matrix, ascending.

    Uses an ARPACK Krylov iteration (full reorthogonalization, fixed-seed
    start vector); dimensions too small for ARPACK's ``k < dim - 1``
    requirement are solved densely, which agrees within the documented
    1e-8 tolerance.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k > m.dim:
        raise ValueError(f"k={k} exceeds matrix dimension {m.dim}")
    if k == 0:
        return np.zeros(0)
    asym = m.max_abs_asymmetry()
    if asym > SYMMETRY_TOL:
        raise NonSymmetricError(
            f"sparse matrix is not symmetric: max |A - A^T| = {asym:.3e}"
        )
    if m.dim <= _DENSE_FALLBACK_DIM or k >= m.dim - 1:
        values, _ = dense_symmetric_eigen(m.to_dense())
        return values[:k].copy()
    rng = np.random.default_rng(_START_VECTOR_SEED)
    v0 = rng.standard_normal(m.dim)
    v0 /= np.linalg.norm(v0)
    try:
        values = spla.eigsh(m.to_csr(), k=k, which="SA", v0=v0, return_eigenvectors=False)
    except spla.ArpackNoConvergence as exc:  # pragma: no cover - hard to trigger
        raise EigenConvergenceError(str(exc)) from exc
    return np.sort(values)
