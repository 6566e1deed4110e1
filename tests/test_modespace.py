import math

import numpy as np
import pytest

from composite_bosons.fock import enumerate_sector
from composite_bosons.hamiltonian import assemble_hamiltonian
from composite_bosons.models import build_ring_model, random_mode_space
from composite_bosons.modespace import (
    BelowEdge,
    CompositeSpectrum,
    LowestK,
    OneBodyTensor,
    TwoBodyTensor,
    build_pair_hamiltonian,
    mode_space,
    solve_bound_states,
    two_particle_matrix,
)
from composite_bosons.numerics import dense_symmetric_eigen

R2 = math.sqrt(2.0)


def two_site_site_basis(t=1.0, u=-4.0):
    o = np.array([[0.0, -t], [-t, 0.0]])
    t4 = np.zeros((2, 2, 2, 2))
    t4[0, 0, 0, 0] = u
    t4[1, 1, 1, 1] = u
    return mode_space(o, t4)


def test_tensor_invariants_rejected():
    with pytest.raises(Exception, match="not symmetric"):
        OneBodyTensor(np.array([[0.0, 1.0], [0.5, 0.0]]))
    bad = np.zeros((2, 2, 2, 2))
    bad[0, 1, 0, 0] = 1.0
    with pytest.raises(ValueError, match="particle-exchange"):
        TwoBodyTensor(bad)
    bad2 = np.zeros((2, 2, 2, 2))
    bad2[0, 0, 1, 1] = 1.0
    bad2[1, 1, 0, 0] = -1.0  # exchange-symmetric but not Hermitian
    with pytest.raises(ValueError, match="Hermiticity"):
        TwoBodyTensor(bad2)


@pytest.mark.parametrize(
    "entry, message", [((0, 0, 1, 1), "Hermiticity"), ((0, 1, 0, 1), "particle-exchange")]
)
def test_two_body_symmetries_are_checked_relative_to_the_largest_entry(entry, message):
    # a rotated tensor's roundoff scales with max|T4| (600 here): an entry
    # off by 1e-13 of it (6e-11, past 1e-12 absolute) passes, 1e-6 does not
    t4 = np.zeros((2, 2, 2, 2))
    t4[0, 0, 0, 0] = -600.0
    t4[0, 0, 1, 1] = t4[1, 1, 0, 0] = t4[0, 1, 0, 1] = t4[1, 0, 1, 0] = 100.0
    for relative, refused in [(1e-13, False), (1e-6, True)]:
        skewed = t4.copy()
        skewed[entry] += 600.0 * relative
        if refused:
            with pytest.raises(ValueError, match=message):
                TwoBodyTensor(skewed)
        else:
            TwoBodyTensor(skewed)


def test_pair_hamiltonian_single_mode():
    o = np.array([[0.7]])
    t4 = np.full((1, 1, 1, 1), -0.3)
    ph = build_pair_hamiltonian(OneBodyTensor(o), TwoBodyTensor(t4))
    assert ph.mat.shape == (1, 1)
    assert ph.mat[0, 0] == pytest.approx(2 * 0.7 - 0.3, abs=1e-14)


def test_pair_hamiltonian_two_site():
    space = two_site_site_basis()
    ph = space.pair_hamiltonian()
    assert ph.pairs == ((0, 0), (0, 1), (1, 1))
    expected = np.array(
        [[-4.0, -R2, 0.0], [-R2, 0.0, -R2], [0.0, -R2, -4.0]]
    )
    assert np.max(np.abs(ph.mat - expected)) <= 1e-12


def test_pair_hamiltonian_zero():
    o = np.zeros((3, 3))
    t4 = np.zeros((3, 3, 3, 3))
    ph = build_pair_hamiltonian(OneBodyTensor(o), TwoBodyTensor(t4))
    assert np.all(ph.mat == 0.0)


def test_bound_state_two_site():
    space = two_site_site_basis(t=1.0, u=-4.0)
    spectrum = solve_bound_states(space.pair_hamiltonian(), space.one_body, BelowEdge())
    assert spectrum.continuum_edge == pytest.approx(-2.0, abs=1e-12)
    assert spectrum.energies[0] == pytest.approx(-(2.0 + 2.0 * R2), abs=1e-12)
    # the site-inversion-odd pair state at u also lies below the edge
    assert spectrum.n_composites == 2
    assert spectrum.energies[1] == pytest.approx(-4.0, abs=1e-12)


def test_no_interaction_no_binding():
    space = two_site_site_basis(u=0.0)
    spectrum = space.solve_composites(BelowEdge())
    assert spectrum.n_composites == 0


def test_strong_coupling_closed_form():
    t, u = 1.0, -40.0
    space = two_site_site_basis(t=t, u=u)
    spectrum = space.solve_composites(LowestK(1))
    expected = (u - math.sqrt(u * u + 16 * t * t)) / 2.0
    assert spectrum.energies[0] == pytest.approx(expected, abs=1e-9)


def test_lowest_k_validation():
    space = two_site_site_basis()
    with pytest.raises(ValueError, match="dimension"):
        space.solve_composites(LowestK(4))
    with pytest.raises(ValueError, match="continuum edge"):
        space.solve_composites(LowestK(3))  # third state is unbound


def test_pair_overlap_single_pair_composite():
    # isolated attractive well on the unordered pair {0,1}: the composite is
    # exactly (|01> + |10>)/sqrt(2), so the overlap with |01> is 1/sqrt(2)
    o = np.zeros((2, 2))
    t4 = np.zeros((2, 2, 2, 2))
    for idx in [(0, 1, 0, 1), (0, 1, 1, 0), (1, 0, 0, 1), (1, 0, 1, 0)]:
        t4[idx] = -2.5
    space = mode_space(o, t4)
    spectrum = space.solve_composites(BelowEdge())
    assert spectrum.n_composites == 1
    assert spectrum.energies[0] == pytest.approx(-5.0, abs=1e-12)
    assert spectrum.pair_overlap(0, 0, 1) == pytest.approx(1 / R2, abs=1e-12)
    assert spectrum.pair_overlap(0, 1, 0) == pytest.approx(1 / R2, abs=1e-12)
    assert spectrum.pair_overlap(0, 0, 0) == pytest.approx(0.0, abs=1e-12)


def test_pair_overlap_range_checks():
    space = two_site_site_basis()
    spectrum = space.solve_composites(LowestK(1))
    with pytest.raises(IndexError):
        spectrum.pair_overlap(1, 0, 0)
    with pytest.raises(IndexError):
        spectrum.pair_overlap(0, 2, 0)


def test_two_site_coefficients_regression():
    space = two_site_site_basis()
    spectrum = space.solve_composites(LowestK(1))
    c = spectrum.coefficients[0]
    assert c[0, 0] == pytest.approx(c[1, 1], abs=1e-12)
    assert c[0, 1] == pytest.approx(c[1, 0], abs=1e-12)
    # values fixed by diagonalization of the site-basis pair matrix
    assert c[0, 0] == pytest.approx(0.6532814824381883, abs=1e-12)
    assert c[0, 1] == pytest.approx(0.2705980500730985, abs=1e-12)


@pytest.mark.parametrize("model", ["ring8", "random"])
def test_bound_states_are_bitwise_the_per_entry_fill(model):
    # the edge, the selection and the coefficients filled by index arrays
    # equal, bit for bit, the per-entry loop they replaced
    if model == "ring8":
        space, policy = build_ring_model(8, 1.0, -20.0), BelowEdge()
    else:
        space, policy = random_mode_space(3, 20240, attraction=(40.0, 55.0)), LowestK(2)
    pair_h = space.pair_hamiltonian()
    spectrum = solve_bound_states(pair_h, space.one_body, policy)
    edge = 2.0 * dense_symmetric_eigen(space.one_body.mat)[0][0]
    values, vectors = dense_symmetric_eigen(pair_h.mat)
    selected = [i for i, v in enumerate(values) if v < edge - (1e-8 * abs(edge) + 1e-12)]
    if isinstance(policy, LowestK):
        selected = list(range(policy.k))
    m = space.n_modes
    coeffs = np.zeros((len(selected), m, m))
    for out, col in enumerate(selected):
        for row, (p, q) in enumerate(pair_h.pairs):
            if p == q:
                coeffs[out, p, p] = vectors[row, col]
            else:
                coeffs[out, p, q] = coeffs[out, q, p] = vectors[row, col] * (1.0 / math.sqrt(2.0))
    assert spectrum.continuum_edge == float(edge)
    assert spectrum.energies.tobytes() == values[selected].tobytes()
    assert spectrum.coefficients.tobytes() == coeffs.tobytes()
    assert spectrum.n_composites == (8 if model == "ring8" else 2)


def test_coefficient_orthonormality():
    space = two_site_site_basis()
    spectrum = space.solve_composites(BelowEdge())
    gram = np.einsum("apq,bpq->ab", spectrum.coefficients, spectrum.coefficients)
    assert np.max(np.abs(gram - np.eye(spectrum.n_composites))) <= 1e-10


def test_eigenstate_property_by_contraction():
    space = two_site_site_basis()
    spectrum = space.solve_composites(BelowEdge())
    h_full = two_particle_matrix(space.one_body, space.two_body)
    flat = spectrum.coefficients.reshape(spectrum.n_composites, -1)
    sandwich = flat @ h_full @ flat.T
    assert np.max(np.abs(sandwich - np.diag(spectrum.energies))) <= 1e-10


@pytest.mark.parametrize("seed", [7, 8])
def test_bound_energies_basis_invariant(seed):
    rng = np.random.default_rng(seed)
    m = 3
    a = rng.standard_normal((m, m))
    o = a + a.T
    r = rng.standard_normal((m,) * 4)
    t4 = 0.25 * (r + r.transpose(1, 0, 3, 2) + r.transpose(2, 3, 0, 1) + r.transpose(3, 2, 1, 0))
    g = rng.standard_normal((m, m))
    g = 0.5 * (g + g.T)
    t4 = t4 - 30.0 * np.einsum("mn,pq->mnpq", g / np.linalg.norm(g), g / np.linalg.norm(g))
    space = mode_space(o, t4)
    spectrum = space.solve_composites(BelowEdge())
    assert spectrum.n_composites >= 1

    q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    o2 = q.T @ o @ q
    o2 = 0.5 * (o2 + o2.T)
    t42 = np.einsum("am,bn,cp,dq,abcd->mnpq", q, q, q, q, t4)
    space2 = mode_space(o2, t42)
    spec2 = space2.solve_composites(BelowEdge())
    assert spec2.n_composites == spectrum.n_composites
    assert np.max(np.abs(spectrum.energies - spec2.energies)) <= 1e-10
    assert abs(spectrum.continuum_edge - spec2.continuum_edge) <= 1e-10


def test_all_bound_below_edge():
    space = two_site_site_basis()
    spectrum = space.solve_composites(BelowEdge())
    assert np.all(spectrum.energies < spectrum.continuum_edge)


def test_mode_space_rejects_mismatched_or_empty_tensors():
    with pytest.raises(ValueError, match="mode counts differ"):
        mode_space(np.zeros((2, 2)), np.zeros((3, 3, 3, 3)))
    with pytest.raises(ValueError, match="at least one mode"):
        mode_space(np.zeros((0, 0)), np.zeros((0, 0, 0, 0)))


def test_custom_pair_operator_hook():
    # solving a different Hermitian pair operator changes the composite
    # definition without touching the one-body edge
    space = two_site_site_basis()
    ph = space.pair_hamiltonian()
    shifted = type(ph)(ph.pairs, ph.mat - 10.0 * np.eye(ph.dim))
    spectrum = solve_bound_states(shifted, space.one_body, BelowEdge())
    assert spectrum.n_composites == 3
    assert spectrum.energies[0] == pytest.approx(-(2 + 2 * R2) - 10.0, abs=1e-12)


def test_spectrum_invariant_violations_rejected():
    with pytest.raises(ValueError, match="ascending"):
        CompositeSpectrum(
            np.array([-1.0, -2.0]), np.zeros((2, 2, 2)), continuum_edge=0.0
        )
    with pytest.raises(ValueError, match="below the continuum edge"):
        CompositeSpectrum(np.array([1.0]), np.zeros((1, 2, 2)), continuum_edge=0.0)


def test_array_holders_compare_by_identity():
    # the generated field-wise __eq__ compared numpy arrays and raised
    def build():
        space = build_ring_model(4, 1.0, -8.0)
        spectrum = space.solve_composites(LowestK(1))
        basis = enumerate_sector(2, space.n_modes, spectrum.n_composites)
        ham = assemble_hamiltonian(basis, space, spectrum)
        ladder = next(iter(basis.annihilator_ladders.groups.values()))
        return [space, space.one_body, space.two_body, space.pair_hamiltonian(),
                spectrum, ham.total, ladder]

    first, second = build(), build()
    for a, b in zip(first, second):
        assert (a == b) is False, type(a).__name__
        assert (a == a) is True, type(a).__name__
