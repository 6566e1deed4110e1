"""Concrete model builders and JSON configuration ingestion.

The bundled lattice model is a ring of sites with nearest-neighbour hopping
and an on-site contact interaction; attractive contact coupling binds a
dimer below the two-particle continuum, giving a clean composite mode while
keeping the transformed interaction tensor dense in the mode basis.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .modespace import (
    BelowEdge,
    BoundPolicy,
    LowestK,
    ModeSpace,
    OneBodyTensor,
    TwoBodyTensor,
)
from .numerics import NonSymmetricError, dense_symmetric_eigen, require_symmetric


class ConfigError(ValueError):
    """Configuration document is malformed or fails validation."""


@dataclass(frozen=True)
class RingModel:
    sites: int
    t: float
    u: float


@dataclass(frozen=True)
class ExplicitModel:
    one_body: tuple
    t4_flat: tuple


@dataclass(frozen=True)
class OutputOptions:
    directory: str = "."
    formats: tuple[str, ...] = ("json",)


@dataclass(frozen=True)
class ModelConfig:
    model: RingModel | ExplicitModel
    n_max: int = 4
    bound_policy: BoundPolicy = field(default_factory=BelowEdge)
    output: OutputOptions = field(default_factory=OutputOptions)


def _eigenbasis_space(values: np.ndarray, t4_mode: np.ndarray) -> ModeSpace:
    return ModeSpace(OneBodyTensor(np.diag(values)), TwoBodyTensor(t4_mode))


def _to_mode_basis(o_raw: np.ndarray, t4_raw: np.ndarray) -> ModeSpace:
    """Rotate tensors into the eigenbasis of the one-body operator.

    In that basis the one-body tensor is exactly diagonal and the continuum
    edge reads off the lowest eigenvalue.  The rotation is one O(M^8)
    einsum over a general site tensor.
    """
    values, vectors = dense_symmetric_eigen(o_raw)
    t4_mode = np.einsum("am,bn,cp,dq,abcd->mnpq", vectors, vectors, vectors, vectors, t4_raw)
    return _eigenbasis_space(values, t4_mode)


def build_ring_model(m_sites: int, t: float, u: float) -> ModeSpace:
    """Ring of sites with hopping -t and on-site contact interaction u.

    Returned in the one-body eigenbasis.  For two sites the wrap-around bond
    coincides with the direct bond and is counted once.

    The site interaction is ``u`` on the diagonal ``[s, s, s, s]`` only, so
    the mode-basis tensor is the closed form
    ``T4[m, n, p, q] = sum_s (((V[s, m] V[s, n]) V[s, p]) V[s, q]) u``,
    added into zeros with s ascending; no site tensor is built.  Per term and
    over s this is the arithmetic of the ``_to_mode_basis`` einsum, so up to
    M = 9 the result is bitwise equal to it; from M = 10 the einsum sums in
    buffer chunks and the two differ in the last bits.
    """
    if m_sites < 2:
        raise ValueError(f"ring model needs at least 2 sites, got {m_sites}")
    o_site = np.zeros((m_sites, m_sites))
    for s in range(m_sites):
        o_site[s, (s + 1) % m_sites] = -t
        o_site[(s + 1) % m_sites, s] = -t
    values, vectors = dense_symmetric_eigen(o_site)
    t4_mode = np.zeros((m_sites,) * 4)
    for row in vectors:
        t4_mode += np.multiply.outer(np.multiply.outer(np.multiply.outer(row, row), row), row) * u
    return _eigenbasis_space(values, t4_mode)


def build_explicit_model(one_body: Sequence[Sequence[float]], t4_flat: Sequence[float]) -> ModeSpace:
    """Mode space from explicit tensors, rotated into the one-body eigenbasis.

    ``t4_flat`` is the flat row-major two-body tensor of length M**4 with
    index order [m, n, p, q].
    """
    try:
        o_raw = np.asarray(one_body, dtype=float)
    except ValueError as exc:  # rows of unequal length
        lengths = [len(row) for row in one_body]
        raise ConfigError(f"model.O must be a square matrix, got rows of lengths {lengths}") from exc
    if o_raw.ndim != 2 or o_raw.shape[0] != o_raw.shape[1]:
        raise ConfigError(f"model.O must be a square matrix, got shape {o_raw.shape}")
    try:
        require_symmetric(o_raw, name="model.O")
    except NonSymmetricError as exc:
        raise ConfigError(str(exc)) from exc
    m = o_raw.shape[0]
    t4 = np.asarray(t4_flat, dtype=float)
    if t4.shape != (m**4,):
        raise ConfigError(
            f"model.T4 must be a flat row-major array of length M^4 = {m**4}, "
            f"got length {t4.size}"
        )
    return _to_mode_basis(o_raw, t4.reshape(m, m, m, m))


def build_mode_space(config: ModelConfig) -> ModeSpace:
    if isinstance(config.model, RingModel):
        return build_ring_model(config.model.sites, config.model.t, config.model.u)
    return build_explicit_model(
        config.model.one_body, config.model.t4_flat
    )


def random_mode_space(
    n_modes: int,
    seed: int,
    attraction: Sequence[float] = (),
) -> ModeSpace:
    """Seeded random symmetric one-body and symmetric-Hermitian two-body tensors.

    Each entry of ``attraction`` adds a separable attractive well of that
    strength, pulling one pair eigenstate below the continuum edge; use as
    many entries as composites the verification run needs.
    """
    rng = np.random.default_rng(seed)
    o_raw = rng.standard_normal((n_modes, n_modes))
    o = 0.5 * (o_raw + o_raw.T)
    r = rng.standard_normal((n_modes,) * 4)
    t4 = 0.25 * (
        r
        + r.transpose(1, 0, 3, 2)
        + r.transpose(2, 3, 0, 1)
        + r.transpose(3, 2, 1, 0)
    )
    for strength in attraction:
        g_raw = rng.standard_normal((n_modes, n_modes))
        g = 0.5 * (g_raw + g_raw.T)
        g /= np.linalg.norm(g)
        t4 = t4 - strength * np.einsum("mn,pq->mnpq", g, g)
    return ModeSpace(OneBodyTensor(o), TwoBodyTensor(t4))


# ---------------------------------------------------------------------------
# JSON configuration.

_TOP_KEYS = {"model", "truncation", "bound", "output"}
_RING_KEYS = {"type", "sites", "t", "U"}
_EXPLICIT_KEYS = {"type", "O", "T4"}
_TRUNCATION_KEYS = {"n_max"}
_BOUND_KEYS = {"policy", "margin", "k"}
_OUTPUT_KEYS = {"dir", "formats"}
_FORMATS = {"json", "csv"}


def _require_keys(section: dict, allowed: set[str], where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")


def _finite(value: object, name: str) -> float:
    """``value`` as a float; it must be a finite JSON number and not a bool."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        if math.isfinite(number):
            return number
    raise ConfigError(f"{name} must be a finite number, got {value!r}")


def _number(section: dict, key: str, where: str) -> float:
    if key not in section:
        raise ConfigError(f"missing required key {where}.{key}")
    return _finite(section[key], f"{where}.{key}")


def load_config(text: str) -> ModelConfig:
    """Parse and fully validate a JSON configuration document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"configuration is not valid JSON: {exc.msg} at line {exc.lineno} "
            f"column {exc.colno}"
        ) from exc
    except ValueError as exc:  # e.g. an integer literal past the digit limit
        raise ConfigError(f"configuration is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("configuration document must be a JSON object")
    _require_keys(doc, _TOP_KEYS, "top level")
    if "model" not in doc:
        raise ConfigError("missing required section 'model'")
    model_sec = doc["model"]
    if not isinstance(model_sec, dict):
        raise ConfigError("'model' must be an object")
    kind = model_sec.get("type")
    if kind == "ring":
        _require_keys(model_sec, _RING_KEYS, "model")
        sites = model_sec.get("sites")
        if not isinstance(sites, int) or isinstance(sites, bool) or sites < 2:
            raise ConfigError(f"model.sites must be an integer >= 2, got {sites!r}")
        model: RingModel | ExplicitModel = RingModel(
            sites=sites,
            t=_number(model_sec, "t", "model"),
            u=_number(model_sec, "U", "model"),
        )
    elif kind == "explicit":
        _require_keys(model_sec, _EXPLICIT_KEYS, "model")
        if "O" not in model_sec or "T4" not in model_sec:
            raise ConfigError("explicit model requires 'O' and 'T4'")
        o = model_sec["O"]
        t4 = model_sec["T4"]
        if not isinstance(o, list) or not all(isinstance(row, list) for row in o):
            raise ConfigError("model.O must be a list of rows")
        if not isinstance(t4, list):
            raise ConfigError("model.T4 must be a flat list")
        model = ExplicitModel(
            one_body=tuple(
                tuple(_finite(x, f"model.O[{i}][{j}]") for j, x in enumerate(row))
                for i, row in enumerate(o)
            ),
            t4_flat=tuple(_finite(x, f"model.T4[{i}]") for i, x in enumerate(t4)),
        )
    else:
        raise ConfigError(f"model.type must be 'ring' or 'explicit', got {kind!r}")

    n_max = 4
    if "truncation" in doc:
        trunc = doc["truncation"]
        if not isinstance(trunc, dict):
            raise ConfigError("'truncation' must be an object")
        _require_keys(trunc, _TRUNCATION_KEYS, "truncation")
        n_max = trunc.get("n_max", 4)
        if not isinstance(n_max, int) or isinstance(n_max, bool) or n_max < 0:
            raise ConfigError(f"truncation.n_max must be a nonnegative integer, got {n_max!r}")

    policy: BoundPolicy = BelowEdge()
    if "bound" in doc:
        bound = doc["bound"]
        if not isinstance(bound, dict):
            raise ConfigError("'bound' must be an object")
        _require_keys(bound, _BOUND_KEYS, "bound")
        pol = bound.get("policy", "below_edge")
        if pol == "below_edge":
            if "k" in bound:
                raise ConfigError("bound.k is only valid with policy 'lowest_k'")
            margin = bound.get("margin")
            if margin is not None:
                margin = _number(bound, "margin", "bound")
                if margin < 0:
                    raise ConfigError("bound.margin must be nonnegative")
            policy = BelowEdge(margin)
        elif pol == "lowest_k":
            if "margin" in bound:
                raise ConfigError("bound.margin is only valid with policy 'below_edge'")
            k = bound.get("k")
            if not isinstance(k, int) or isinstance(k, bool) or k < 0:
                raise ConfigError(f"bound.k must be a nonnegative integer, got {k!r}")
            policy = LowestK(k)
        else:
            raise ConfigError(
                f"bound.policy must be 'below_edge' or 'lowest_k', got {pol!r}"
            )

    output = OutputOptions()
    if "output" in doc:
        out = doc["output"]
        if not isinstance(out, dict):
            raise ConfigError("'output' must be an object")
        _require_keys(out, _OUTPUT_KEYS, "output")
        directory = out.get("dir", ".")
        if not isinstance(directory, str):
            raise ConfigError("output.dir must be a string")
        formats = out.get("formats", ["json"])
        if not isinstance(formats, list) or not set(formats) <= _FORMATS:
            raise ConfigError(
                f"output.formats must be a list drawn from {sorted(_FORMATS)}"
            )
        output = OutputOptions(directory, tuple(formats))

    return ModelConfig(model=model, n_max=n_max, bound_policy=policy, output=output)
