"""Single-particle model tensors, pair Hamiltonian and composites.

A system of identical bosons is described by a one-body tensor ``O[m, n]``
and a two-body tensor ``T4[m, n, p, q]`` over ``M`` unbound modes.  The
two-particle (pair) Hamiltonian O(1) + O(2) + T(1, 2), restricted to the
bosonic (symmetric) pair subspace, defines the composite modes: its
eigenstates below the two-free-particle continuum edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.typing import NDArray

from .numerics import dense_symmetric_eigen, require_symmetric

Matrix = NDArray[np.float64]

_EXCHANGE_TOL = 1e-12
_ORTHONORMALITY_TOL = 1e-10


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class OneBodyTensor:
    """Real symmetric single-particle operator in the unbound-mode basis."""

    mat: Matrix

    def __post_init__(self) -> None:
        object.__setattr__(self, "mat", _readonly(self.mat))
        require_symmetric(self.mat, name="one-body tensor")

    @property
    def n_modes(self) -> int:
        return self.mat.shape[0]


@dataclass(frozen=True, eq=False)
class TwoBodyTensor:
    """Two-particle interaction tensor ``T4[m, n, p, q]``.

    Index convention: ``T4[m, n, p, q]`` is the element between the bra with
    mode m on particle 1 and n on particle 2, and the ket with p on particle
    1 and q on particle 2.  Required symmetries: particle exchange
    ``T4[m, n, p, q] == T4[n, m, q, p]`` and Hermiticity
    ``T4[m, n, p, q] == T4[p, q, m, n]``.
    """

    t4: NDArray[np.float64]

    def __post_init__(self) -> None:
        t4 = np.array(self.t4, dtype=float)
        if t4.ndim != 4 or len(set(t4.shape)) != 1:
            raise ValueError(f"two-body tensor must have shape (M,M,M,M), got {t4.shape}")
        object.__setattr__(self, "t4", _readonly(t4))
        exch = float(np.max(np.abs(t4 - t4.transpose(1, 0, 3, 2)))) if t4.size else 0.0
        if exch > _EXCHANGE_TOL:
            raise ValueError(
                f"two-body tensor violates particle-exchange symmetry by {exch:.3e}"
            )
        herm = float(np.max(np.abs(t4 - t4.transpose(2, 3, 0, 1)))) if t4.size else 0.0
        if herm > _EXCHANGE_TOL:
            raise ValueError(f"two-body tensor violates Hermiticity by {herm:.3e}")

    @property
    def n_modes(self) -> int:
        return self.t4.shape[0]


def symmetric_pairs(n_modes: int) -> tuple[tuple[int, int], ...]:
    """Canonical (p, q) ordering of the unordered pair basis, p <= q."""
    return tuple((p, q) for p in range(n_modes) for q in range(p, n_modes))


@dataclass(frozen=True, eq=False)
class PairHamiltonian:
    """Two-particle Hamiltonian on the symmetric (bosonic) pair subspace.

    Rows and columns follow :func:`symmetric_pairs`; off-diagonal pairs use
    the symmetric normalization (|pq> + |qp>)/sqrt(2).
    """

    pairs: tuple[tuple[int, int], ...]
    mat: Matrix

    def __post_init__(self) -> None:
        object.__setattr__(self, "mat", _readonly(self.mat))
        require_symmetric(self.mat, name="pair Hamiltonian")
        if self.mat.shape[0] != len(self.pairs):
            raise ValueError("pair Hamiltonian dimension does not match pair list")

    @property
    def dim(self) -> int:
        return len(self.pairs)


@lru_cache(maxsize=None)
def pair_isometry(n_modes: int) -> Matrix:
    """Isometry from the symmetric pair basis into the full two-particle space.

    Built once per mode count; the array is read-only.
    """
    pairs = symmetric_pairs(n_modes)
    s = np.zeros((n_modes * n_modes, len(pairs)))
    for col, (p, q) in enumerate(pairs):
        if p == q:
            s[p * n_modes + p, col] = 1.0
        else:
            s[p * n_modes + q, col] = 1.0 / math.sqrt(2.0)
            s[q * n_modes + p, col] = 1.0 / math.sqrt(2.0)
    s.setflags(write=False)
    return s


def two_particle_matrix(one_body: OneBodyTensor, two_body: TwoBodyTensor) -> Matrix:
    """O(1) + O(2) + T(1,2) as a dense matrix on the full product space."""
    m = one_body.n_modes
    eye = np.eye(m)
    return (
        np.kron(one_body.mat, eye)
        + np.kron(eye, one_body.mat)
        + two_body.t4.reshape(m * m, m * m)
    )


def build_pair_hamiltonian(one_body: OneBodyTensor, two_body: TwoBodyTensor) -> PairHamiltonian:
    """Restrict O(1) + O(2) + T(1,2) to the symmetric pair subspace."""
    if one_body.n_modes != two_body.n_modes:
        raise ValueError("one-body and two-body tensors have different mode counts")
    m = one_body.n_modes
    s = pair_isometry(m)
    h_full = two_particle_matrix(one_body, two_body)
    h_pair = s.T @ h_full @ s
    h_pair = 0.5 * (h_pair + h_pair.T)
    return PairHamiltonian(symmetric_pairs(m), h_pair)


@dataclass(frozen=True)
class BelowEdge:
    """Keep every pair eigenstate with energy < edge - margin.

    ``margin=None`` selects the default 1e-8*|edge| + 1e-12.
    """

    margin: float | None = None

    def __post_init__(self) -> None:
        if self.margin is not None and self.margin < 0:
            raise ValueError("margin must be nonnegative")


@dataclass(frozen=True)
class LowestK:
    """Keep the k lowest pair eigenstates (all must lie below the edge)."""

    k: int

    def __post_init__(self) -> None:
        if self.k < 0:
            raise ValueError("k must be nonnegative")


BoundPolicy = BelowEdge | LowestK


@dataclass(frozen=True, eq=False)
class CompositeSpectrum:
    """Bound pair eigenstates: energies and pair-coefficient tensors.

    ``coefficients[a, p, q]`` is the amplitude of |psi_p(1) psi_q(2)> in the
    a-th composite, symmetric in (p, q) and orthonormal over ordered (p, q).
    """

    energies: NDArray[np.float64]
    coefficients: NDArray[np.float64]
    continuum_edge: float

    def __post_init__(self) -> None:
        energies = _readonly(np.atleast_1d(self.energies))
        coeffs = np.array(self.coefficients, dtype=float)
        object.__setattr__(self, "energies", energies)
        object.__setattr__(self, "coefficients", _readonly(coeffs))
        if coeffs.ndim != 3 or coeffs.shape[1] != coeffs.shape[2]:
            raise ValueError("coefficients must have shape (A, M, M)")
        if coeffs.shape[0] != energies.shape[0]:
            raise ValueError("energy and coefficient counts differ")
        if energies.size:
            if np.any(np.diff(energies) < 0):
                raise ValueError("composite energies must be ascending")
            if np.max(energies) >= self.continuum_edge:
                raise ValueError(
                    "composite energies must lie strictly below the continuum edge "
                    f"{self.continuum_edge!r}"
                )
            sym = float(np.max(np.abs(coeffs - coeffs.transpose(0, 2, 1))))
            if sym > _EXCHANGE_TOL:
                raise ValueError(f"pair coefficients not symmetric: {sym:.3e}")
            gram = np.einsum("apq,bpq->ab", coeffs, coeffs)
            err = float(np.max(np.abs(gram - np.eye(coeffs.shape[0]))))
            if err > _ORTHONORMALITY_TOL:
                raise ValueError(f"pair coefficients not orthonormal: {err:.3e}")

    @property
    def n_composites(self) -> int:
        return int(self.energies.shape[0])

    @property
    def n_modes(self) -> int:
        return int(self.coefficients.shape[1])

    def pair_overlap(self, alpha: int, p: int, q: int) -> float:
        """Amplitude <phi_alpha(1,2)|psi_p(1) psi_q(2)>."""
        a_count, m = self.n_composites, self.n_modes
        if not 0 <= alpha < a_count:
            raise IndexError(f"composite index {alpha} out of range [0, {a_count})")
        if not (0 <= p < m and 0 <= q < m):
            raise IndexError(f"mode index ({p}, {q}) out of range [0, {m})")
        return float(self.coefficients[alpha, p, q])


def continuum_edge(one_body: OneBodyTensor) -> float:
    """Minimum energy of two non-interacting constituents."""
    return float(2.0 * np.linalg.eigh(one_body.mat)[0][0])


def solve_bound_states(
    pair_h: PairHamiltonian,
    one_body: OneBodyTensor,
    policy: BoundPolicy,
) -> CompositeSpectrum:
    """Diagonalize the pair Hamiltonian and select the bound eigenstates.

    The returned spectrum may be empty (no binding is not an error).
    """
    edge = continuum_edge(one_body)
    values, vectors = dense_symmetric_eigen(pair_h.mat)
    if isinstance(policy, BelowEdge):
        margin = policy.margin
        if margin is None:
            margin = 1e-8 * abs(edge) + 1e-12
        selected = np.flatnonzero(values < edge - margin)
    elif isinstance(policy, LowestK):
        if policy.k > len(values):
            raise ValueError(
                f"lowest_k requests {policy.k} states but the pair subspace has "
                f"dimension {len(values)}"
            )
        selected = np.arange(policy.k)
        for i in selected:
            if values[i] >= edge:
                raise ValueError(
                    f"lowest_k selection includes energy {float(values[i])!r} at or above "
                    f"the continuum edge {edge!r}"
                )
    else:  # pragma: no cover - exhaustive by type
        raise TypeError(f"unknown bound policy {policy!r}")

    m = one_body.n_modes
    coeffs = np.zeros((len(selected), m, m))
    p, q = np.array(pair_h.pairs, dtype=np.intp).reshape(-1, 2).T
    diagonal = p == q
    chosen = vectors[:, selected]
    coeffs[:, p[diagonal], p[diagonal]] = chosen[diagonal].T
    off = chosen[~diagonal].T * (1.0 / math.sqrt(2.0))
    coeffs[:, p[~diagonal], q[~diagonal]] = off
    coeffs[:, q[~diagonal], p[~diagonal]] = off
    return CompositeSpectrum(values[selected], coeffs, edge)


@dataclass(eq=False)
class ModeSpace:
    """The one-body and two-body model tensors over ``n_modes`` unbound modes."""

    one_body: OneBodyTensor
    two_body: TwoBodyTensor
    _one_hot: Matrix = field(init=False, repr=False, compare=False)
    _pair_operators: dict[tuple[bool, bool], NDArray[np.float64]] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        if self.one_body.n_modes != self.two_body.n_modes:
            raise ValueError("one-body and two-body mode counts differ")
        if self.one_body.n_modes < 1:
            raise ValueError("mode space needs at least one mode")
        self._one_hot = _readonly(np.eye(self.one_body.n_modes))

    @property
    def n_modes(self) -> int:
        return self.one_body.n_modes

    def one_hot(self, mode: int) -> Matrix:
        return self._one_hot[mode]

    def pair_operator(self, first: bool, second: bool) -> NDArray[np.float64]:
        """``T4`` plus O on particle 1 if ``first`` and on particle 2 if
        ``second``, indexed as ``T4``; built once per choice, read-only."""
        fused = self._pair_operators.get((first, second))
        if fused is None:
            fused = np.array(self.two_body.t4)
            if first:
                fused += np.einsum("mp,nq->mnpq", self.one_body.mat, self._one_hot)
            if second:
                fused += np.einsum("mp,nq->mnpq", self._one_hot, self.one_body.mat)
            fused = self._pair_operators[first, second] = _readonly(fused)
        return fused

    def pair_hamiltonian(self) -> PairHamiltonian:
        return build_pair_hamiltonian(self.one_body, self.two_body)

    def solve_composites(self, policy: BoundPolicy) -> CompositeSpectrum:
        """The bound eigenstates of O(1) + O(2) + T(1, 2) that ``policy`` keeps."""
        return solve_bound_states(self.pair_hamiltonian(), self.one_body, policy)


def mode_space(one_body: Matrix | OneBodyTensor, two_body: NDArray | TwoBodyTensor) -> ModeSpace:
    """Convenience constructor from raw arrays."""
    if not isinstance(one_body, OneBodyTensor):
        one_body = OneBodyTensor(np.asarray(one_body, dtype=float))
    if not isinstance(two_body, TwoBodyTensor):
        two_body = TwoBodyTensor(np.asarray(two_body, dtype=float))
    return ModeSpace(one_body, two_body)
