"""Occupation-number states over atom and molecule modes.

States count bosons in ``M`` unbound (atom) modes and ``A`` composite
(molecule) modes.  The constituent number N = sum(atoms) + 2*sum(molecules)
is conserved by every Hamiltonian term, so Fock space splits into exact
fixed-N sectors which this module enumerates deterministically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from typing import Iterable, Iterator, Literal

import numpy as np

MAX_CONSTITUENTS = 64

Species = Literal["atom", "molecule"]
Direction = Literal["create", "annihilate"]


@dataclass(frozen=True)
class OccupationState:
    """Occupation counts per atom mode and per molecule mode."""

    atoms: tuple[int, ...]
    molecules: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(n < 0 for n in self.atoms) or any(n < 0 for n in self.molecules):
            raise ValueError("occupation counts must be nonnegative")
        if self.constituents > MAX_CONSTITUENTS:
            raise ValueError(
                f"constituent number {self.constituents} exceeds the supported "
                f"maximum {MAX_CONSTITUENTS}"
            )

    @property
    def n_atoms(self) -> int:
        return sum(self.atoms)

    @property
    def n_molecules(self) -> int:
        return sum(self.molecules)

    @property
    def constituents(self) -> int:
        return self.n_atoms + 2 * self.n_molecules

    def __str__(self) -> str:
        atoms = ",".join(str(n) for n in self.atoms)
        mols = ",".join(str(n) for n in self.molecules)
        return f"|{atoms} ; {mols}⟩"


def normalization_constant(state: OccupationState) -> float:
    """Symmetrization prefactor 1/sqrt(N! 2^N_M prod(n_m!) prod(n_a!))."""
    total = math.factorial(state.constituents) * 2 ** state.n_molecules
    for n in state.atoms:
        total *= math.factorial(n)
    for n in state.molecules:
        total *= math.factorial(n)
    return 1.0 / math.sqrt(total)


def apply_ladder(
    state: OccupationState,
    species: Species,
    index: int,
    direction: Direction,
) -> tuple[float, OccupationState | None]:
    """Bosonic ladder action on one mode.

    Annihilation on occupation n returns (sqrt(n), lowered state) or
    (0.0, None) when n == 0; creation returns (sqrt(n+1), raised state).
    """
    counts = state.atoms if species == "atom" else state.molecules
    if not 0 <= index < len(counts):
        raise IndexError(f"{species} mode index {index} out of range [0, {len(counts)})")
    n = counts[index]
    if direction == "annihilate":
        if n == 0:
            return 0.0, None
        coeff = math.sqrt(n)
        new_n = n - 1
    elif direction == "create":
        coeff = math.sqrt(n + 1)
        new_n = n + 1
    else:
        raise ValueError(f"unknown ladder direction {direction!r}")
    new_counts = counts[:index] + (new_n,) + counts[index + 1 :]
    if species == "atom":
        return coeff, OccupationState(new_counts, state.molecules)
    return coeff, OccupationState(state.atoms, new_counts)


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def sector_dimension(constituents: int, n_atom_modes: int, n_molecule_modes: int) -> int:
    """Closed-form sector size: sum over molecule counts of two multiset counts."""

    def multiset(modes: int, n: int) -> int:
        if n == 0:
            return 1
        if modes == 0:
            return 0
        return math.comb(n + modes - 1, n)

    return sum(
        multiset(n_atom_modes, constituents - 2 * n_m) * multiset(n_molecule_modes, n_m)
        for n_m in range(constituents // 2 + 1)
    )


@dataclass(frozen=True)
class SectorBasis:
    """Ordered list of occupation states, usually one fixed-N sector.

    ``constituents`` is None for mixed unions (used only by conservation
    checks).  States are ordered by descending (atoms, molecules) tuples.
    """

    states: tuple[OccupationState, ...]
    n_atom_modes: int
    n_molecule_modes: int
    constituents: int | None

    def __post_init__(self) -> None:
        if len(set(self.states)) != len(self.states):
            raise ValueError("sector basis contains duplicate states")
        for s in self.states:
            if len(s.atoms) != self.n_atom_modes or len(s.molecules) != self.n_molecule_modes:
                raise ValueError(f"state {s} has wrong mode counts for this basis")
            if self.constituents is not None and s.constituents != self.constituents:
                raise ValueError(
                    f"state {s} has constituent number {s.constituents}, "
                    f"expected {self.constituents}"
                )

    @cached_property
    def _index(self) -> dict[OccupationState, int]:
        return {s: i for i, s in enumerate(self.states)}

    def position(self, state: OccupationState) -> int | None:
        return self._index.get(state)

    @cached_property
    def occupations(self) -> np.ndarray:
        """The states as a ``(dim, M + A)`` int64 array, atom counts first."""
        out = np.array([s.atoms + s.molecules for s in self.states], dtype=np.int64)
        out = out.reshape(self.dim, self.n_atom_modes + self.n_molecule_modes)
        out.setflags(write=False)
        return out

    @property
    def dim(self) -> int:
        return len(self.states)

    @staticmethod
    def union(*bases: "SectorBasis") -> "SectorBasis":
        if not bases:
            raise ValueError("union needs at least one basis")
        m = bases[0].n_atom_modes
        a = bases[0].n_molecule_modes
        states: list[OccupationState] = []
        for b in bases:
            if b.n_atom_modes != m or b.n_molecule_modes != a:
                raise ValueError("cannot union bases with different mode counts")
            states.extend(b.states)
        ns = {b.constituents for b in bases}
        constituents = ns.pop() if len(ns) == 1 else None
        return SectorBasis(tuple(states), m, a, constituents)


def enumerate_sector(
    constituents: int,
    n_atom_modes: int,
    n_molecule_modes: int,
) -> SectorBasis:
    """All occupation states with the given constituent number.

    N = 0 yields the single vacuum state.
    """
    if constituents < 0:
        raise ValueError("constituent number must be nonnegative")
    if constituents > MAX_CONSTITUENTS:
        raise ValueError(f"constituent number {constituents} exceeds {MAX_CONSTITUENTS}")
    states = [
        OccupationState(atoms, molecules)
        for n_m in range(constituents // 2 + 1)
        for atoms in _compositions(constituents - 2 * n_m, n_atom_modes)
        for molecules in _compositions(n_m, n_molecule_modes)
    ]
    states.sort(key=lambda s: (s.atoms, s.molecules), reverse=True)
    return SectorBasis(tuple(states), n_atom_modes, n_molecule_modes, constituents)


def truncated_states(
    n_atom_modes: int,
    n_molecule_modes: int,
    cap: int,
) -> list[OccupationState]:
    """All states with every occupation <= cap (for operator matrix checks)."""
    return [
        OccupationState(atoms, molecules)
        for atoms in product(range(cap + 1), repeat=n_atom_modes)
        for molecules in product(range(cap + 1), repeat=n_molecule_modes)
    ]


def ladder_matrix(
    states: Iterable[OccupationState],
    species: Species,
    index: int,
    direction: Direction,
) -> np.ndarray:
    """Matrix of one ladder operator on an explicit state list.

    Images falling outside the list are dropped (truncation).
    """
    states = list(states)
    lookup = {s: i for i, s in enumerate(states)}
    out = np.zeros((len(states), len(states)))
    for j, s in enumerate(states):
        coeff, image = apply_ladder(s, species, index, direction)
        if image is not None:
            i = lookup.get(image)
            if i is not None:
                out[i, j] = coeff
    return out


def _extract_square(n: int) -> tuple[int, int]:
    """n = k**2 * s with s square-free; returns (k, s)."""
    k, s = 1, n
    d = 2
    while d * d <= s:
        while s % (d * d) == 0:
            s //= d * d
            k *= d
        d += 1
    return k, s


@dataclass(frozen=True)
class SqrtRational:
    """Exact number r*sqrt(s) with rational r and square-free integer s.

    Closed under multiplication; addition is defined within one radical
    class (enough for ladder-operator products, where every matrix entry is
    a single product of square roots).  Lets commutator identities be
    checked exactly rather than to float roundoff.
    """

    r: Fraction
    s: int

    @staticmethod
    def zero() -> "SqrtRational":
        return SqrtRational(Fraction(0), 1)

    @staticmethod
    def sqrt_of(n: int) -> "SqrtRational":
        if n < 0:
            raise ValueError("negative radicand")
        if n == 0:
            return SqrtRational.zero()
        k, s = _extract_square(n)
        return SqrtRational(Fraction(k), s)

    def __mul__(self, other: "SqrtRational") -> "SqrtRational":
        if self.r == 0 or other.r == 0:
            return SqrtRational.zero()
        k, s = _extract_square(self.s * other.s)
        return SqrtRational(self.r * other.r * k, s)

    def __add__(self, other: "SqrtRational") -> "SqrtRational":
        if self.r == 0:
            return other
        if other.r == 0:
            return self
        if self.s != other.s:
            raise ValueError(f"cannot add sqrt({self.s}) and sqrt({other.s}) terms")
        total = self.r + other.r
        return SqrtRational(total, 1 if total == 0 else self.s)

    def __sub__(self, other: "SqrtRational") -> "SqrtRational":
        return self + SqrtRational(-other.r, other.s)

    def __float__(self) -> float:
        return float(self.r) * math.sqrt(self.s)

    def is_integer(self, n: int) -> bool:
        return (self.r == n and self.s == 1) or (n == 0 and self.r == 0)


def exact_ladder_matrix(
    states: Iterable[OccupationState],
    species: Species,
    index: int,
    direction: Direction,
) -> list[list[SqrtRational]]:
    """Like :func:`ladder_matrix` but with exact square-root entries."""
    states = list(states)
    lookup = {s: i for i, s in enumerate(states)}
    zero = SqrtRational.zero()
    out = [[zero] * len(states) for _ in range(len(states))]
    for j, s in enumerate(states):
        counts = s.atoms if species == "atom" else s.molecules
        n = counts[index]
        radicand = n if direction == "annihilate" else n + 1
        _, image = apply_ladder(s, species, index, direction)
        if image is not None:
            i = lookup.get(image)
            if i is not None:
                out[i][j] = SqrtRational.sqrt_of(radicand)
    return out


def exact_commutator(
    a: list[list[SqrtRational]],
    b: list[list[SqrtRational]],
) -> list[list[SqrtRational]]:
    """[a, b] = ab - ba over exact square-root entries."""
    n = len(a)
    zero = SqrtRational.zero()
    out = [[zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            acc = zero
            for k in range(n):
                acc = acc + a[i][k] * b[k][j]
                acc = acc - b[i][k] * a[k][j]
            out[i][j] = acc
    return out
