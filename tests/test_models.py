import json
import math

import numpy as np
import pytest

from composite_bosons.modespace import BelowEdge, LowestK
from composite_bosons.numerics import dense_symmetric_eigen
from composite_bosons.models import (
    ConfigError,
    ExplicitModel,
    RingModel,
    _to_mode_basis,
    build_explicit_model,
    build_mode_space,
    build_ring_model,
    load_config,
    random_mode_space,
)


def test_two_site_mode_energies():
    space = build_ring_model(2, 1.0, -4.0)
    assert np.allclose(np.diag(space.one_body.mat), [-1.0, 1.0], atol=1e-12)


def test_two_site_bound_energy():
    space = build_ring_model(2, 1.0, -4.0)
    spectrum = space.solve_composites(BelowEdge())
    assert spectrum.energies[0] == pytest.approx(-(2.0 + 2.0 * math.sqrt(2.0)), abs=1e-12)


def test_free_model_has_zero_interaction():
    space = build_ring_model(4, 1.0, 0.0)
    assert np.max(np.abs(space.two_body.t4)) == 0.0


def test_ring_needs_two_sites():
    with pytest.raises(ValueError, match="at least 2"):
        build_ring_model(1, 1.0, -1.0)


@pytest.mark.parametrize("sites", [2, 3, 6])
def test_mode_basis_consistency(sites):
    space = build_ring_model(sites, 1.0, -5.0)
    o = space.one_body.mat
    assert np.max(np.abs(o - np.diag(np.diag(o)))) <= 1e-12
    t4 = space.two_body.t4
    assert np.max(np.abs(t4 - t4.transpose(1, 0, 3, 2))) <= 1e-12
    assert np.max(np.abs(t4 - t4.transpose(2, 3, 0, 1))) <= 1e-12
    # hopping matrix is traceless; the eigenbasis keeps the trace
    assert abs(np.trace(o)) <= 1e-12


def test_ring_six_single_particle_energies():
    space = build_ring_model(6, 1.0, -1.0)
    want = sorted(-2.0 * math.cos(2.0 * math.pi * k / 6.0) for k in range(6))
    assert np.allclose(np.diag(space.one_body.mat), want, atol=1e-12)


def ring_site_tensors(sites, t, u):
    o_site = np.zeros((sites, sites))
    for s in range(sites):
        o_site[s, (s + 1) % sites] = -t
        o_site[(s + 1) % sites, s] = -t
    t4_site = np.zeros((sites,) * 4)
    for s in range(sites):
        t4_site[s, s, s, s] = u
    return o_site, t4_site


def rotated_ring(sites, t, u):
    """The ring's site tensors through the generic O(M^8) rotation."""
    return _to_mode_basis(*ring_site_tensors(sites, t, u))


RING_COUPLINGS = [(1.0, -20.0), (1.0, -4.0), (0.7, 3.3), (1.0, 0.0), (1.0, -1.0)]


@pytest.mark.parametrize("t,u", RING_COUPLINGS)
@pytest.mark.parametrize("sites", range(2, 10))
def test_ring_closed_form_is_bitwise_the_rotation(sites, t, u):
    got = build_ring_model(sites, t, u)
    want = rotated_ring(sites, t, u)
    assert np.array_equal(got.one_body.mat.view(np.int64), want.one_body.mat.view(np.int64))
    assert np.array_equal(got.two_body.t4.view(np.int64), want.two_body.t4.view(np.int64))


def test_ring_closed_form_matches_chunked_rotation():
    # from M = 10 the einsum sums its reduction in buffer chunks
    got = build_ring_model(10, 1.0, -20.0).two_body.t4
    want = rotated_ring(10, 1.0, -20.0).two_body.t4
    assert np.max(np.abs(got - want)) <= 1e-15 * 20.0


def test_ring_closed_form_rotates_back_to_contact_interaction():
    o_site, t4_site = ring_site_tensors(12, 1.0, -20.0)
    _, vectors = dense_symmetric_eigen(o_site)
    space = build_ring_model(12, 1.0, -20.0)
    assert np.allclose(vectors.T @ o_site @ vectors, space.one_body.mat, atol=1e-12)
    # T4_site[a, b, c, d] = sum V[a, m] V[b, n] V[c, p] V[d, q] T4[m, n, p, q],
    # one mode axis at a time; tensordot appends each new site axis last
    t4 = space.two_body.t4
    for _ in range(4):
        t4 = np.tensordot(t4, vectors, axes=([0], [1]))
    assert np.max(np.abs(t4 - t4_site)) <= 1e-12


def test_trace_preserved_by_basis_change():
    o_site = [[0.3, -1.0], [-1.0, -0.9]]
    t4 = np.zeros(16)
    space = build_explicit_model(o_site, t4.tolist())
    assert np.trace(space.one_body.mat) == pytest.approx(0.3 - 0.9, abs=1e-12)


def test_explicit_model_round_trip():
    base = build_ring_model(2, 1.0, -4.0)
    # feed the site-basis tensors explicitly and recover the same spectrum
    o_site = [[0.0, -1.0], [-1.0, 0.0]]
    t4 = np.zeros((2, 2, 2, 2))
    t4[0, 0, 0, 0] = -4.0
    t4[1, 1, 1, 1] = -4.0
    space = build_explicit_model(o_site, t4.reshape(-1).tolist())
    got = space.solve_composites(BelowEdge())
    want = base.solve_composites(BelowEdge())
    assert np.allclose(got.energies, want.energies, atol=1e-10)


def test_random_mode_space_is_valid_and_binds():
    space = random_mode_space(3, seed=11, attraction=(40.0,))
    spectrum = space.solve_composites(BelowEdge())
    assert spectrum.n_composites >= 1


def test_load_config_ring():
    config = load_config(
        '{"model":{"type":"ring","sites":6,"t":1.0,"U":-8.0},"truncation":{"n_max":4}}'
    )
    assert config.model == RingModel(6, 1.0, -8.0)
    assert config.n_max == 4
    assert config.bound_policy == BelowEdge()


def test_load_config_defaults():
    config = load_config('{"model":{"type":"ring","sites":2,"t":1.0,"U":-4.0}}')
    assert config.n_max == 4
    assert config.bound_policy == BelowEdge()
    assert config.output.directory == "."


def test_load_config_missing_model():
    with pytest.raises(ConfigError, match="model"):
        load_config('{"truncation":{"n_max":2}}')


def test_load_config_single_site_rejected():
    with pytest.raises(ConfigError, match="sites"):
        load_config('{"model":{"type":"ring","sites":1,"t":1.0,"U":-4.0}}')


def test_load_config_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        load_config('{"model":{"type":"ring","sites":2,"t":1.0,"U":-4.0,"mu":0.1}}')
    with pytest.raises(ConfigError, match="unknown key"):
        load_config('{"model":{"type":"ring","sites":2,"t":1.0,"U":-4.0},"extra":1}')


def test_load_config_parse_error_has_position():
    with pytest.raises(ConfigError, match="line 1"):
        load_config('{"model": }')


def test_load_config_policies():
    config = load_config(
        '{"model":{"type":"ring","sites":2,"t":1.0,"U":-4.0},'
        '"bound":{"policy":"lowest_k","k":1}}'
    )
    assert config.bound_policy == LowestK(1)
    config = load_config(
        '{"model":{"type":"ring","sites":2,"t":1.0,"U":-4.0},'
        '"bound":{"policy":"below_edge","margin":0.5}}'
    )
    assert config.bound_policy == BelowEdge(0.5)
    with pytest.raises(ConfigError, match="policy"):
        load_config(
            '{"model":{"type":"ring","sites":2,"t":1.0,"U":-4.0},'
            '"bound":{"policy":"everything"}}'
        )


def test_load_config_explicit_model():
    t4 = np.zeros(16)
    t4[0] = -4.0
    t4[15] = -4.0
    doc = {
        "model": {"type": "explicit", "O": [[0.0, -1.0], [-1.0, 0.0]], "T4": t4.tolist()},
        "bound": {"policy": "below_edge"},
    }
    config = load_config(json.dumps(doc))
    assert isinstance(config.model, ExplicitModel)
    space = build_mode_space(config)
    assert space.n_modes == 2


def test_explicit_model_bad_t4_length():
    doc = {"model": {"type": "explicit", "O": [[0.0, -1.0], [-1.0, 0.0]], "T4": [0.0] * 15}}
    config = load_config(json.dumps(doc))
    with pytest.raises(ConfigError, match="T4"):
        build_mode_space(config)


@pytest.mark.parametrize("bad", ["1.5", True, None, "x", [1.0]])
def test_ring_parameters_must_be_numbers(bad):
    doc = {"model": {"type": "ring", "sites": 2, "t": 1.0, "U": bad}}
    with pytest.raises(ConfigError, match=r"model\.U must be a finite number"):
        load_config(json.dumps(doc))


@pytest.mark.parametrize(
    "text",
    ["NaN", "Infinity", "-Infinity", "1" + "0" * 400],
    ids=["nan", "inf", "-inf", "int-1e400"],
)
def test_non_finite_numbers_rejected(text):
    with pytest.raises(ConfigError, match=r"model\.t must be a finite number"):
        load_config('{"model":{"type":"ring","sites":2,"t":%s,"U":-4.0}}' % text)
    with pytest.raises(ConfigError, match=r"bound\.margin must be a finite number"):
        load_config(
            '{"model":{"type":"ring","sites":2,"t":1.0,"U":-4.0},'
            '"bound":{"policy":"below_edge","margin":%s}}' % text
        )


@pytest.mark.parametrize("bad", ["x", None, "1.5", True, float("nan"), float("inf")])
def test_explicit_entries_must_be_finite_numbers(bad):
    o = [[0.0, -1.0], [-1.0, 0.0]]
    t4 = [0.0] * 16
    bad_o = [[0.0, -1.0], [bad, 0.0]]
    with pytest.raises(ConfigError, match=r"model\.O\[1\]\[0\] must be a finite number"):
        load_config(json.dumps({"model": {"type": "explicit", "O": bad_o, "T4": t4}}))
    bad_t4 = t4[:5] + [bad] + t4[6:]
    with pytest.raises(ConfigError, match=r"model\.T4\[5\] must be a finite number"):
        load_config(json.dumps({"model": {"type": "explicit", "O": o, "T4": bad_t4}}))


def test_integer_past_digit_limit_is_config_error():
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config('{"model":{"type":"ring","sites":2,"t":%s,"U":-4.0}}' % ("1" * 5000))
