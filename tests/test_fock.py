import math

import numpy as np
import pytest
import scipy.sparse as sp

from composite_bosons import fock
from composite_bosons.fock import (
    ANNIHILATOR_GROUPS,
    OccupationState,
    SectorBasis,
    SqrtRational,
    apply_ladder,
    enumerate_sector,
    exact_commutator,
    exact_ladder_matrix,
    ladder_matrix,
    lexicographic_ranks,
    normalization_constant,
    sector_dimension,
    truncated_states,
)


def test_vacuum_sector():
    basis = enumerate_sector(0, 3, 2)
    assert basis.dim == 1
    assert basis.states[0] == OccupationState((0, 0, 0), (0, 0))


def test_small_sector_enumeration():
    basis = enumerate_sector(2, 2, 1)
    assert [(s.atoms, s.molecules) for s in basis.states] == [
        ((2, 0), (0,)),
        ((1, 1), (0,)),
        ((0, 2), (0,)),
        ((0, 0), (1,)),
    ]


def test_three_constituents_one_mode():
    basis = enumerate_sector(3, 1, 1)
    assert [(s.atoms, s.molecules) for s in basis.states] == [((3,), (0,)), ((1,), (1,))]


def test_sector_sizes_match_closed_form():
    for n in range(9):
        for m in range(1, 5):
            for a in range(0, 4):
                basis = enumerate_sector(n, m, a)
                assert basis.dim == sector_dimension(n, m, a), (n, m, a)
                assert all(s.constituents == n for s in basis.states)
                assert len(set(basis.states)) == basis.dim


def _recursive_compositions(total, parts):
    """The recursive generator ``fock._compositions`` replaced; the reference."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total, -1, -1):
        for rest in _recursive_compositions(total - first, parts - 1):
            yield (first,) + rest


def test_compositions_match_the_recursive_generator():
    for parts in range(9):
        for total in range(7):
            rows = fock._compositions(total, parts)
            assert rows.dtype == np.int64 and rows.shape[1:] == (parts,)
            # both list the compositions descending
            got = [tuple(row) for row in rows.tolist()]
            assert got == list(_recursive_compositions(total, parts)), (total, parts)


def test_sectors_match_the_recursive_enumeration():
    # the states the recursive generator gave, in the documented order
    for m in range(1, 9):
        for a in range(7):
            for n in range(7):
                want = [
                    (atoms, molecules)
                    for n_m in range(n // 2 + 1)
                    for atoms in _recursive_compositions(n - 2 * n_m, m)
                    for molecules in _recursive_compositions(n_m, a)
                ]
                want.sort(reverse=True)
                basis = enumerate_sector(n, m, a)
                assert "states" not in basis.__dict__  # built from the rows when read
                rows = [tuple(row) for row in basis.occupations.tolist()]
                assert rows == [atoms + molecules for atoms, molecules in want], (n, m, a)
                assert [(s.atoms, s.molecules) for s in basis.states] == want, (n, m, a)


def test_normalization_worked_values():
    one_atom = OccupationState((1, 0), (0,))
    assert normalization_constant(one_atom) == 1.0
    one_molecule = OccupationState((0, 0), (1,))
    assert normalization_constant(one_molecule) == 0.5
    double_atom = OccupationState((2, 0), (0,))
    assert normalization_constant(double_atom) == 0.5


def test_normalization_permutation_invariance():
    a = OccupationState((3, 1, 0), (2, 0))
    b = OccupationState((0, 3, 1), (0, 2))
    assert normalization_constant(a) == normalization_constant(b)


def test_ladder_examples():
    s = OccupationState((3,), (0,))
    coeff, down = apply_ladder(s, "atom", 0, "annihilate")
    assert coeff == pytest.approx(math.sqrt(3.0))
    assert down.atoms == (2,)

    empty = OccupationState((0,), (0,))
    coeff, none = apply_ladder(empty, "molecule", 0, "annihilate")
    assert coeff == 0.0 and none is None

    m = OccupationState((0,), (1,))
    coeff, up = apply_ladder(m, "molecule", 0, "create")
    assert coeff == pytest.approx(math.sqrt(2.0))
    assert up.molecules == (2,)


def test_ladder_index_out_of_range():
    s = OccupationState((1,), (0,))
    with pytest.raises(IndexError):
        apply_ladder(s, "atom", 1, "create")


def test_pretty_print():
    s = OccupationState((2, 0), (1,))
    assert str(s) == "|2,0 ; 1⟩"


def test_negative_counts_rejected():
    with pytest.raises(ValueError):
        OccupationState((-1,), ())


@pytest.mark.parametrize("atoms, molecules", [((0, 2), (0, -1)), ((), (-3,)), ((1, -1), (1,))])
def test_negative_counts_rejected_in_either_species(atoms, molecules):
    with pytest.raises(ValueError, match="nonnegative"):
        OccupationState(atoms, molecules)


def test_modeless_state_is_the_vacuum():
    assert OccupationState((), ()).constituents == 0


def test_constituent_guard():
    with pytest.raises(ValueError, match="exceeds"):
        OccupationState((65,), ())
    for n in (-1, 65):
        with pytest.raises(ValueError, match=f"constituent number {n} is outside 0..64"):
            enumerate_sector(n, 2, 1)


def test_same_mode_commutator_is_identity_below_cap():
    cap = 6
    states = truncated_states(1, 0, cap)
    a = exact_ladder_matrix(states, "atom", 0, "annihilate")
    adag = exact_ladder_matrix(states, "atom", 0, "create")
    comm = exact_commutator(a, adag)
    for j, s in enumerate(states):
        if s.atoms[0] < cap:
            for i in range(len(states)):
                assert comm[i][j].is_integer(1 if i == j else 0)
    # the float representation agrees to a few ulps on the diagonal
    af = ladder_matrix(states, "atom", 0, "annihilate")
    cf = ladder_matrix(states, "atom", 0, "create")
    comm_f = af @ cf - cf @ af
    below = [j for j, s in enumerate(states) if s.atoms[0] < cap]
    sub = comm_f[np.ix_(below, below)] - np.eye(len(states))[np.ix_(below, below)]
    assert np.max(np.abs(sub)) <= 4e-15


def test_sqrt_rational_arithmetic():
    r2 = SqrtRational.sqrt_of(2)
    assert (r2 * r2).is_integer(2)
    r8 = SqrtRational.sqrt_of(8)
    assert r8.r == 2 and r8.s == 2
    assert (r8 - r2 - r2).is_integer(0)
    with pytest.raises(ValueError, match="cannot add"):
        SqrtRational.sqrt_of(2) + SqrtRational.sqrt_of(3)


def test_cross_mode_and_cross_species_commutators_vanish():
    states = truncated_states(1, 1, 4)
    a_atom = ladder_matrix(states, "atom", 0, "annihilate")
    c_atom = ladder_matrix(states, "atom", 0, "create")
    a_mol = ladder_matrix(states, "molecule", 0, "annihilate")
    c_mol = ladder_matrix(states, "molecule", 0, "create")
    assert np.array_equal(a_atom @ c_mol - c_mol @ a_atom, np.zeros_like(a_atom))
    assert np.array_equal(a_atom @ a_mol - a_mol @ a_atom, np.zeros_like(a_atom))
    assert np.array_equal(c_atom @ c_mol - c_mol @ c_atom, np.zeros_like(a_atom))

    two_atoms = truncated_states(2, 0, 4)
    a0 = ladder_matrix(two_atoms, "atom", 0, "annihilate")
    c1 = ladder_matrix(two_atoms, "atom", 1, "create")
    assert np.array_equal(a0 @ c1 - c1 @ a0, np.zeros_like(a0))


def test_union_basis():
    b1, b2, b3 = (enumerate_sector(n, 2, 1) for n in (1, 2, 3))
    u = SectorBasis.union(b2, b3)
    assert u.constituents is None
    assert u.dim == b2.dim + b3.dim
    assert u.states.index(b3.states[0]) == b2.dim
    # the rows are kept in the order given; a repeated sector is a duplicate
    u = SectorBasis.union(b3, b1, b2)
    want = np.concatenate([b3.occupations, b1.occupations, b2.occupations])
    assert np.array_equal(u.occupations, want)
    assert u.states == b3.states + b1.states + b2.states
    with pytest.raises(ValueError, match="duplicate"):
        SectorBasis.union(b1, b2, b1)


def test_occupations_rows_are_states():
    for basis in (enumerate_sector(2, 2, 1), enumerate_sector(0, 3, 0)):
        occ = basis.occupations
        assert occ.dtype == np.int64
        assert occ.shape == (basis.dim, basis.n_atom_modes + basis.n_molecule_modes)
        want = [s.atoms + s.molecules for s in basis.states]
        assert [tuple(row) for row in occ.tolist()] == want


def test_duplicate_states_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        SectorBasis(np.array([[1, 0], [1, 0]]), 1, 1, None)


@pytest.mark.parametrize(
    "rows, constituents, match",
    [
        ([[2, 0], [-1, 1]], None, "nonnegative"),
        ([[2, 0, 0], [0, 1, 0]], None, "wrong mode counts"),
        ([[2], [0]], None, "wrong mode counts"),
        ([[2, 0], [1, 1]], 2, "row 1 has 3 constituents, expected 2"),
        ([[0, 33]], None, "exceeds"),
    ],
    ids=["negative", "too-wide", "too-narrow", "constituents", "too-many"],
)
def test_basis_rows_are_checked(rows, constituents, match):
    with pytest.raises(ValueError, match=match):
        SectorBasis(np.array(rows), 1, 1, constituents)


def test_basis_occupations_are_read_only():
    occ = enumerate_sector(2, 2, 1).occupations
    with pytest.raises(ValueError, match="read-only"):
        occ[0, 0] = 5


def _unique_ranks(rows):
    unique, ranks = np.unique(rows, axis=0, return_inverse=True)
    return ranks.ravel(), len(unique)


def test_image_ranks_past_int64_keys():
    # (N+1)^(M+A) = 5^28 > 2^63: a single base-(N+1) key would overflow
    basis = enumerate_sector(4, 14, 14)
    assert 5**28 > 2**63
    images = np.concatenate([fock._annihilate(g, basis)[1] for g in ANNIHILATOR_GROUPS])
    ranks, n_images = lexicographic_ranks(images)
    want, n_want = _unique_ranks(images)
    assert n_images == n_want == basis.annihilator_ladders.n_images
    assert np.array_equal(ranks, want)


@pytest.mark.parametrize("high", [2, 1000, 2**40])
def test_lexicographic_ranks_over_several_keys(high):
    # wide rows with large entries span several int64 keys
    rng = np.random.default_rng(high)
    rows = rng.integers(0, high, size=(400, 40))
    rows = np.concatenate([rows, rows[::3], rows[:, ::-1]])
    ranks, n = lexicographic_ranks(rows)
    want, n_want = _unique_ranks(rows)
    assert n == n_want
    assert np.array_equal(ranks, want)
    assert lexicographic_ranks(np.zeros((0, 3), dtype=np.int64))[1] == 0


def test_annihilator_ladders_match_ladder_matrices():
    # each ladder, read back per (group index, image, state), is the product
    # of single-mode ladder matrices on the union of sectors 0..3
    basis = enumerate_sector(3, 3, 2)
    union = [s for k in range(4) for s in enumerate_sector(k, 3, 2).states]
    lookup = {s: i for i, s in enumerate(union)}
    ladders = basis.annihilator_ladders
    assert basis.annihilator_ladders is ladders
    images = {}
    for group, ladder in ladders.groups.items():
        sizes = [3 if species == "atom" else 2 for species in group]
        assert ladder.size == math.prod(sizes)
        mat = ladder.by_state.tocoo()
        g, image = np.divmod(mat.col, ladders.n_images)
        for state, gi, im, val in zip(mat.row, g, image, mat.data):
            modes = np.unravel_index(gi, sizes)
            product = np.eye(len(union))
            for species, mode in zip(group, modes):
                product = product @ ladder_matrix(union, species, int(mode), "annihilate")
            column = product[:, lookup[basis.states[state]]]
            (target,) = np.flatnonzero(column)
            assert val == column[target]
            assert images.setdefault(int(im), union[target]) == union[target]
        # by_group holds the same entries, the pairs ascending
        pairs = ladder.by_group.tocoo()
        back = sp.csr_matrix(
            (
                pairs.data,
                (
                    ladder.pair_states[pairs.col],
                    pairs.row * ladders.n_images + ladder.pair_images[pairs.col],
                ),
            ),
            shape=ladder.by_state.shape,
        )
        assert (back != ladder.by_state).nnz == 0
        assert np.all(np.diff(ladder.pair_images * basis.dim + ladder.pair_states) > 0)
    # one rank per image, ascending lexicographically in (atoms, molecules)
    order = [images[k] for k in sorted(images)]
    assert len(set(order)) == len(order) == ladders.n_images
    assert order == sorted(order, key=lambda s: s.atoms + s.molecules)
