"""Occupation-number states over atom and molecule modes.

States count bosons in ``M`` unbound (atom) modes and ``A`` composite
(molecule) modes.  The constituent number N = sum(atoms) + 2*sum(molecules)
is conserved by every Hamiltonian term, so Fock space splits into exact
fixed-N sectors which this module enumerates deterministically.  A sector
basis is its array of occupation counts, built and checked as a whole.  Its
five annihilator ladders, one per product of one or two annihilators, serve
every Hamiltonian term; SCSC reads the (atom, molecule) one on both sides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, combinations_with_replacement, product
from typing import Iterable, Literal, Mapping

import numpy as np
import scipy.sparse as sp

from .numerics import row_sorted_csr

MAX_CONSTITUENTS = 64

Species = Literal["atom", "molecule"]
Direction = Literal["create", "annihilate"]


@dataclass(frozen=True)
class OccupationState:
    """Occupation counts per atom mode and per molecule mode."""

    atoms: tuple[int, ...]
    molecules: tuple[int, ...]

    def __post_init__(self) -> None:
        if min((0, *self.atoms, *self.molecules)) < 0:
            raise ValueError("occupation counts must be nonnegative")
        if self.constituents > MAX_CONSTITUENTS:
            raise ValueError(
                f"constituent number {self.constituents} exceeds the supported "
                f"maximum {MAX_CONSTITUENTS}"
            )

    @property
    def n_molecules(self) -> int:
        return sum(self.molecules)

    @property
    def constituents(self) -> int:
        return sum(self.atoms) + 2 * sum(self.molecules)

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


def _compositions(total: int, parts: int) -> np.ndarray:
    """Every way to write ``total`` as ``parts`` nonnegative counts, one per
    row, descending lexicographically: the gaps of the stars-and-bars bars
    0 <= e_1 <= ... <= e_{parts-1} <= total, which ascend with the bars."""
    if parts == 0:
        return np.zeros((int(total == 0), 0), dtype=np.int64)
    rows = math.comb(total + parts - 1, total)
    bars = chain.from_iterable(combinations_with_replacement(range(total + 1), parts - 1))
    edges = np.full((rows, parts + 1), total, dtype=np.int64)
    edges[:, 0] = 0
    edges[:, 1:-1] = np.fromiter(bars, np.int64, rows * (parts - 1)).reshape(rows, parts - 1)
    return np.diff(edges)[::-1]


def sector_dimension(constituents: int, n_atom_modes: int, n_molecule_modes: int) -> int:
    """Closed-form sector size: sum over molecule counts of two multiset counts."""

    def multiset(modes: int, n: int) -> int:
        return math.comb(n + modes - 1, n) if modes else int(n == 0)

    return sum(
        multiset(n_atom_modes, constituents - 2 * n_m) * multiset(n_molecule_modes, n_m)
        for n_m in range(constituents // 2 + 1)
    )


@dataclass(frozen=True, eq=False)
class SectorBasis:
    """Ordered occupation states, usually one fixed-N sector: the rows of the
    read-only ``(dim, M + A)`` int64 array ``occupations``, atom counts first,
    checked as a whole (no negative count, at most ``MAX_CONSTITUENTS`` and,
    unless None, ``constituents`` constituents a row, no repeated row).  A
    sector's rows descend as (atoms, molecules) tuples; :attr:`states` makes
    one :class:`OccupationState` per row only when first read.
    """

    occupations: np.ndarray
    n_atom_modes: int
    n_molecule_modes: int
    constituents: int | None

    def __post_init__(self) -> None:
        occ, m = np.asarray(self.occupations, dtype=np.int64), self.n_atom_modes
        if occ.ndim != 2 or occ.shape[1] != m + self.n_molecule_modes:
            raise ValueError(f"occupation rows of shape {occ.shape[1:]} have wrong mode counts")
        occ.setflags(write=False)
        object.__setattr__(self, "occupations", occ)
        if np.any(occ < 0):
            raise ValueError("occupation counts must be nonnegative")
        n = occ[:, :m].sum(axis=1) + 2 * occ[:, m:].sum(axis=1)
        if np.any(n > MAX_CONSTITUENTS):
            raise ValueError(f"constituent number {n.max()} exceeds {MAX_CONSTITUENTS}")
        if self.constituents is not None and np.any(n != self.constituents):
            row = np.flatnonzero(n != self.constituents)[0]
            raise ValueError(f"row {row} has {n[row]} constituents, expected {self.constituents}")
        if lexicographic_ranks(occ)[1] != self.dim:
            raise ValueError("sector basis contains duplicate states")

    @cached_property
    def states(self) -> tuple[OccupationState, ...]:
        m = self.n_atom_modes
        return tuple(OccupationState(tuple(r[:m]), tuple(r[m:])) for r in self.occupations.tolist())

    @property
    def dim(self) -> int:
        return self.occupations.shape[0]

    @cached_property
    def annihilator_ladders(self) -> "AnnihilatorLadders":
        """Every annihilator group of :data:`ANNIHILATOR_GROUPS` on this basis."""
        return _annihilator_ladders(self)

    @staticmethod
    def union(*bases: "SectorBasis") -> "SectorBasis":
        """One basis of the rows of ``bases``, in the order given.

        A run assembles all its sectors at once on their union: every term
        conserves N, so each term there is the direct sum of its sector
        blocks.  Duplicate states are rejected, so a sector can be listed
        only once; ``constituents`` is None unless all bases share one.
        """
        if not bases:
            raise ValueError("union needs at least one basis")
        m, a = bases[0].n_atom_modes, bases[0].n_molecule_modes
        if any(b.n_atom_modes != m or b.n_molecule_modes != a for b in bases):
            raise ValueError("cannot union bases with different mode counts")
        ns = {b.constituents for b in bases}
        constituents = ns.pop() if len(ns) == 1 else None
        return SectorBasis(np.concatenate([b.occupations for b in bases]), m, a, constituents)


# ---------------------------------------------------------------------------
# Annihilator ladders of a basis.

# Every product of one or two annihilators once, by the species of its factors,
# atoms first: a_n c_b and c_b a_n are one operator, the modes being independent.
ANNIHILATOR_GROUPS: tuple[tuple[Species, ...], ...] = (
    ("atom",),
    ("molecule",),
    ("atom", "atom"),
    ("atom", "molecule"),
    ("molecule", "molecule"),
)


@dataclass(frozen=True, eq=False)
class AnnihilatorLadder:
    """The nonzero ``<image| a_{i_1} a_{i_2} ... |state>`` of one group on a basis.

    A group index g flattens (i_1, i_2, ...) row-major over ``size`` values,
    and an image is its rank among all images of the basis's ladders
    (:class:`AnnihilatorLadders`).  The entries are stored in two layouts:

    * ``by_state``, CSR of shape (dim, size * n_images): the ladder matrix
      transposed, column ``g * n_images + image``, ascending within a row;
    * ``by_group``, CSR of shape (size, n_pairs): row g, one column per
      distinct (image, state) pair of the entries.  The pairs ascend, and
      ``pair_images`` and ``pair_states`` name them.
    """

    size: int
    by_state: sp.csr_matrix
    by_group: sp.csr_matrix
    pair_images: np.ndarray
    pair_states: np.ndarray


@dataclass(frozen=True)
class AnnihilatorLadders:
    """The ladders of every group in :data:`ANNIHILATOR_GROUPS` on one basis.

    Their images are ranked jointly, ``0 .. n_images - 1`` in ascending
    lexicographic order of the image occupation rows (atom counts first), so
    one image reached by several groups has one rank.  On a union basis the
    images may lie in several sectors.
    """

    n_images: int
    groups: Mapping[tuple[Species, ...], AnnihilatorLadder]


def _annihilate(
    group: tuple[Species, ...], basis: SectorBasis
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(group index, image occupations, state, value) of every nonzero entry.

    The operators are applied left to right, so the entries come ordered by
    state and then by group index.  They commute, and a value is a product
    of at most two square roots either way round, so the order changes no bit.
    """
    occ, states = basis.occupations, np.arange(basis.dim)
    index, vals = np.zeros(basis.dim, dtype=np.int64), np.ones(basis.dim)
    for species in group:
        atom = species == "atom"
        offset = 0 if atom else basis.n_atom_modes
        size = basis.n_atom_modes if atom else basis.n_molecule_modes
        rows, modes = np.nonzero(occ[:, offset : offset + size])
        occ = occ[rows]
        vals = vals[rows] * np.sqrt(occ[np.arange(rows.size), offset + modes])
        occ[np.arange(rows.size), offset + modes] -= 1
        index = index[rows] * size + modes
        states = states[rows]
    return index, occ, states, vals


def lexicographic_ranks(rows: np.ndarray) -> tuple[np.ndarray, int]:
    """Dense ranks of the rows of a nonnegative integer array, ascending
    lexicographically, and the number of distinct rows.

    Runs of adjacent columns are packed into mixed-radix int64 keys (radix:
    the column maximum plus one), each run only as long as its keys fit, so
    no key overflows at any size; ``np.lexsort`` orders the keys.
    """
    n = rows.shape[0]
    if n == 0:
        return np.zeros(0, dtype=np.int64), 0
    keys, key, span = [], np.zeros(n, dtype=np.int64), 1
    for column, radix in zip(rows.T, (rows.max(axis=0) + 1).tolist()):
        if span * radix >= 2**63:  # past the int64 maximum
            keys.append(key)
            key, span = np.zeros(n, dtype=np.int64), 1
        key = key * radix + column
        span *= radix
    keys.append(key)
    order = np.lexsort(keys[::-1])
    step = np.zeros(n, dtype=np.int64)
    for k in keys:
        ordered = k[order]
        step[1:] |= ordered[1:] != ordered[:-1]
    ranks = np.empty(n, dtype=np.int64)
    ranks[order] = np.cumsum(step)
    return ranks, int(ranks[order[-1]]) + 1


def _annihilator_ladders(basis: SectorBasis) -> AnnihilatorLadders:
    entries = [_annihilate(group, basis) for group in ANNIHILATOR_GROUPS]
    ranks, n_images = lexicographic_ranks(np.concatenate([occ for _, occ, _, _ in entries]))
    splits = np.cumsum([vals.size for *_, vals in entries])[:-1]
    modes = {"atom": basis.n_atom_modes, "molecule": basis.n_molecule_modes}
    dim = basis.dim
    groups = {}
    for group, (index, _, states, vals), images in zip(
        ANNIHILATOR_GROUPS, entries, np.split(ranks, splits)
    ):
        size = math.prod(modes[species] for species in group)
        pairs, pair_of = np.unique(images * dim + states, return_inverse=True)
        by_index = np.argsort(index, kind="stable")
        groups[group] = AnnihilatorLadder(
            size,
            row_sorted_csr(states, index * n_images + images, vals, (dim, size * n_images)),
            row_sorted_csr(index[by_index], pair_of[by_index], vals[by_index], (size, pairs.size)),
            *np.divmod(pairs, dim),
        )
    return AnnihilatorLadders(n_images, groups)


def enumerate_sector(
    constituents: int,
    n_atom_modes: int,
    n_molecule_modes: int,
) -> SectorBasis:
    """All occupation states with the given constituent number, as
    descending (atoms, molecules) rows.

    The atom rows are the compositions of N over the atom modes and one
    slack part, 2 n_m, kept where that is even; each is followed by the
    molecule rows of its n_m.  N = 0 yields the single vacuum state.
    """
    if not 0 <= constituents <= MAX_CONSTITUENTS:
        raise ValueError(f"constituent number {constituents} is outside 0..{MAX_CONSTITUENTS}")
    atoms = _compositions(constituents, n_atom_modes + 1)
    atoms = atoms[atoms[:, -1] % 2 == 0]
    atoms, n_m = atoms[:, :-1], atoms[:, -1] // 2
    molecules = [_compositions(k, n_molecule_modes) for k in range(constituents // 2 + 1)]
    sizes = np.array([len(block) for block in molecules])
    repeats = sizes[n_m]
    # the k-th row after atom row i is molecule row k of block n_m[i]
    offsets = (np.cumsum(sizes) - sizes)[n_m] - (np.cumsum(repeats) - repeats)
    picks = np.arange(repeats.sum()) + np.repeat(offsets, repeats)
    occupations = np.empty((picks.size, n_atom_modes + n_molecule_modes), dtype=np.int64)
    occupations[:, :n_atom_modes] = np.repeat(atoms, repeats, axis=0)
    occupations[:, n_atom_modes:] = np.concatenate(molecules)[picks]
    return SectorBasis(occupations, n_atom_modes, n_molecule_modes, constituents)


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
