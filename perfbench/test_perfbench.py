"""Tests of the benchmark itself: generator, failure counting, span arithmetic.

Run with ``python3 -m pytest -q perfbench`` from the repository root.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import checks
import layers
import run
import workloads
from spans import Span, Tracer, self_times

run.load_library()


# -- generator ----------------------------------------------------------------


def test_generator_is_deterministic_per_seed(tmp_path):
    seed = workloads.ACCEPTANCE_SEED
    workloads.generate(seed, tmp_path / "a")
    workloads.generate(seed, tmp_path / "b")
    workloads.generate(workloads.accepted_seed(seed + 1), tmp_path / "c")
    for w in workloads.WORKLOADS.values():
        assert (tmp_path / "a" / w.config_file).read_bytes() == (
            tmp_path / "b" / w.config_file
        ).read_bytes()
    name = workloads.WORKLOADS["oracle-verify"].config_file
    assert (tmp_path / "a" / name).read_bytes() != (tmp_path / "c" / name).read_bytes()


def test_generator_refuses_seed_without_two_composites(tmp_path):
    # seed 0 binds three composites below the edge
    with pytest.raises(workloads.SeedRefused):
        workloads.generate(0, tmp_path)
    assert workloads.accepted_seed(0) > 0
    assert workloads.accepted_seed(workloads.ACCEPTANCE_SEED) == workloads.ACCEPTANCE_SEED


# -- failure counting ---------------------------------------------------------


def _ring6_report(ref: dict, perturb: float) -> dict:
    sectors = [
        {**s, "lowest_eigenvalues": list(s["lowest_eigenvalues"])} for s in ref["sectors"]
    ]
    sectors[3]["lowest_eigenvalues"][1] += perturb
    return {"sectors": sectors}


@pytest.fixture
def ring6(tmp_path):
    config_dir = tmp_path / "configs"
    workloads.generate(workloads.ACCEPTANCE_SEED, config_dir)
    return workloads.WORKLOADS["ring6-composites"], config_dir, tmp_path / "out"


@pytest.mark.parametrize("perturb, fails", [(0.0, False), (1e-6, True)])
def test_perturbed_eigenvalue_counts_as_failure(monkeypatch, ring6, perturb, fails):
    from composite_bosons import cli

    workload, config_dir, out_dir = ring6
    ref = checks.load_reference()[workload.name]

    def fake_main(argv):
        out_dir.mkdir(parents=True)
        (out_dir / "report.json").write_text(json.dumps(_ring6_report(ref, perturb)))
        return 0

    monkeypatch.setattr(cli, "main", fake_main)
    it, _ = run.run_once(workload, config_dir, out_dir, ref, traced=False)
    assert it.failed is fails


def test_exit_code_3_counts_as_failure(monkeypatch, ring6):
    from composite_bosons import cli

    workload, config_dir, out_dir = ring6
    monkeypatch.setattr(cli, "main", lambda argv: 3)
    ref = checks.load_reference()[workload.name]
    it, _ = run.run_once(workload, config_dir, out_dir, ref, traced=False)
    assert it.failed and it.problems == ["exit code 3"]


def test_exception_counts_as_failure(monkeypatch, ring6):
    from composite_bosons import cli

    def boom(argv):
        raise RuntimeError("boom")

    workload, config_dir, out_dir = ring6
    monkeypatch.setattr(cli, "main", boom)
    ref = checks.load_reference()[workload.name]
    it, _ = run.run_once(workload, config_dir, out_dir, ref, traced=False)
    assert it.failed and it.exit_code is None


# -- spans and self time --------------------------------------------------------


def test_self_times_on_hand_built_tree():
    spans = [
        Span(0, "root", None, 0.0, 10.0, duration=10.0, calls=1),
        Span(1, "a", 0, 1.0, 5.0, duration=4.0, calls=1),
        Span(2, "b", 0, 5.0, 9.0, duration=4.0, calls=1),
        Span(3, "a.child", 1, 2.0, 3.5, duration=1.5, calls=1),
        Span(4, "hot", 2, 5.5, 8.0, duration=2.0, calls=100),  # aggregate
    ]
    own = self_times(spans)
    assert own == {0: 2.0, 1: 2.5, 2: 2.0, 3: 1.5, 4: 2.0}
    assert sum(own.values()) == pytest.approx(10.0)


def test_tracer_nesting_and_aggregates():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    with tracer.span("root"):  # t=0
        for _ in range(3):
            tracer.enter("hot", aggregate=True)  # t=1,3,5
            tracer.exit()  # t=2,4,6
        with tracer.span("leaf", domain="oracle"):  # t=7
            tracer.enter("hot", aggregate=True)  # t=8
            tracer.exit()  # t=9
        # leaf closes at t=10
    # root closes at t=11
    root, hot, leaf, hot_in_leaf = tracer.spans
    assert (root.duration, hot.calls, hot.duration, leaf.duration) == (11.0, 3, 3.0, 3.0)
    assert (hot_in_leaf.parent, hot_in_leaf.domain) == (leaf.id, "oracle")
    assert hot_in_leaf.duration == 1.0
    own = self_times(tracer.spans)
    assert own[root.id] == 11.0 - 3.0 - 3.0
    assert own[leaf.id] == 2.0


def test_vanished_target_makes_metric_absent_not_zero(monkeypatch):
    import composite_bosons.hamiltonian as hamiltonian

    monkeypatch.delattr(hamiltonian, "apply_ladder")
    tracer = Tracer()
    layers.install(tracer)
    tracer.unwrap_all()
    metrics = layers.layer_metrics(tracer)
    assert "composite_bosons.hamiltonian.apply_ladder" in tracer.missing
    assert "fock.ladder_calls" not in metrics
    assert metrics["fock.enumerate_s"] == 0.0


def test_wrappers_are_removed_after_tracing():
    import composite_bosons.algebra as algebra
    import composite_bosons.numerics as numerics

    element = algebra.ElementEngine.__dict__["element"]
    from_triples = numerics.SparseMatrix.__dict__["from_triples"]
    tracer = Tracer()
    layers.install(tracer)
    assert algebra.ElementEngine.__dict__["element"] is not element
    tracer.unwrap_all()
    assert algebra.ElementEngine.__dict__["element"] is element
    assert numerics.SparseMatrix.__dict__["from_triples"] is from_triples


# -- BENCHMARK.json agrees with the code ---------------------------------------


def test_benchmark_json_matches_code():
    doc = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    per_layer = {m["name"]: m["unit"] for m in doc["per_layer"]}
    expected = {m.name: m.unit for m in layers.METRICS}
    expected.update({"trace.wall_s": "s", "trace.overhead_s": "s"})
    assert per_layer == expected
    assert {m["name"] for m in doc["end_to_end"]} == {"wall_s", "setup_s", "peak_rss_mb"}
