"""The three benchmark workloads and the generator that writes their configs.

Each workload is one CLI command on one JSON config.  The program under
test sees only the files :func:`generate` writes.  The two ring configs
are fixed; the seed selects the random two-composite model of
``oracle-verify``.  Why each workload was chosen is recorded in
``BENCHMARK.json`` and ``README.md``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ACCEPTANCE_SEED = 20240
ORACLE_MODES = 3
ORACLE_ATTRACTION = (40.0, 55.0)
ORACLE_COMPOSITES = 2
ORACLE_MAX_N = 5


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    extra_args: tuple[str, ...]

    @property
    def config_file(self) -> str:
        return f"{self.name}.json"

    def argv(self, config_dir: Path, out_dir: Path) -> list[str]:
        return [
            self.command,
            "--config",
            str(config_dir / self.config_file),
            "--out-dir",
            str(out_dir),
            *self.extra_args,
        ]


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("ring6-composites", "spectrum", ()),
        Workload("ring8-atoms", "spectrum", ()),
        Workload("oracle-verify", "verify", ("--max-n", str(ORACLE_MAX_N))),
    )
}


class SeedRefused(ValueError):
    """The seed's random model does not bind exactly two composites."""


def _ring(sites: int, n_max: int, bound: dict, formats: list[str]) -> dict:
    return {
        "model": {"type": "ring", "sites": sites, "t": 1.0, "U": -20.0},
        "truncation": {"n_max": n_max},
        "bound": bound,
        "output": {"formats": formats},
    }


def oracle_config(seed: int) -> dict:
    """Explicit config of the random 3-mode model; refuses unless it binds two."""
    from composite_bosons import BelowEdge, build_explicit_model, random_mode_space

    space = random_mode_space(ORACLE_MODES, seed, attraction=ORACLE_ATTRACTION)
    one_body = space.one_body.mat.tolist()
    t4_flat = np.asarray(space.two_body.t4).ravel().tolist()
    bound = build_explicit_model(one_body, t4_flat).solve_composites(BelowEdge())
    if bound.n_composites != ORACLE_COMPOSITES:
        raise SeedRefused(
            f"seed {seed} binds {bound.n_composites} composites, "
            f"oracle-verify needs exactly {ORACLE_COMPOSITES}"
        )
    return {
        "model": {"type": "explicit", "O": one_body, "T4": t4_flat},
        "bound": {"policy": "lowest_k", "k": ORACLE_COMPOSITES},
        "output": {"formats": ["json"]},
    }


def accepted_seed(seed: int) -> int:
    """The smallest seed >= ``seed`` whose oracle model binds exactly two."""
    candidate = seed
    while True:
        try:
            oracle_config(candidate)
        except SeedRefused:
            candidate += 1
        else:
            return candidate


def generate(seed: int, directory: Path) -> None:
    """Write the workload configs for ``seed`` into ``directory``."""
    configs = {
        "ring6-composites": _ring(6, 4, {"policy": "below_edge"}, ["json"]),
        "ring8-atoms": _ring(8, 4, {"policy": "lowest_k", "k": 1}, ["json", "csv"]),
        "oracle-verify": oracle_config(seed),
    }
    directory.mkdir(parents=True, exist_ok=True)
    for name, doc in configs.items():
        (directory / WORKLOADS[name].config_file).write_text(json.dumps(doc, indent=1) + "\n")
