"""Benchmark: time to a verified result for the composite-bosons CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ring6-composites --seed 20240 --seconds 20 --trace 0

It imports the library from ``src/`` of the checkout and runs one CLI
command (``spectrum`` or ``verify``) in-process, again and
again for about ``--seconds`` seconds, checking the outputs of every
iteration.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced iterations and reports the per-layer
metrics.  A table with units goes to stdout first; the last stdout line is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Generated configs, outputs and traces go to
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import os

# One BLAS thread, so a run stays on one core of the machine; set before
# numpy is first imported.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "composite_bosons" / "__init__.py"
OUT = ROOT / ".perfbench_out"
SETUP_BATCH_SECONDS = 0.25
TAIL_BEYOND = 10


def load_library() -> None:
    """Put the checkout's ``src/`` first on the path and import from it."""
    if not PACKAGE.is_file():
        raise SystemExit(f"error: {PACKAGE.relative_to(ROOT)} not found; "
                         "run from the root of a full checkout")
    sys.path.insert(0, str(PACKAGE.parents[1]))
    import composite_bosons

    if Path(composite_bosons.__file__).resolve() != PACKAGE:
        raise SystemExit(f"error: imported composite_bosons from {composite_bosons.__file__}")


@dataclass
class Iteration:
    seconds: float
    exit_code: int | None
    problems: list[str]
    traced: bool = False
    metrics: dict[str, float] = field(default_factory=dict)
    self_sum: float = 0.0

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def run_once(
    workload, config_dir: Path, out_dir: Path, ref: dict, traced: bool
) -> tuple[Iteration, dict | None]:
    """One CLI command, timed from call to return, with its outputs checked."""
    from composite_bosons import cli

    shutil.rmtree(out_dir, ignore_errors=True)
    argv = workload.argv(config_dir, out_dir)
    tracer = Tracer() if traced else None
    error = None
    sink = io.StringIO()
    if tracer is not None:
        layers.install(tracer)
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            started = time.perf_counter()
            try:
                if tracer is None:
                    code = cli.main(argv)
                else:
                    with tracer.span(layers.ROOT):
                        code = cli.main(argv)
            except Exception:
                code, error = None, traceback.format_exc()
            seconds = time.perf_counter() - started
    finally:
        if tracer is not None:
            tracer.unwrap_all()
    if error is not None:
        problems = [f"exception: {error.strip().splitlines()[-1]}"]
        sys.stderr.write(error)
    else:
        problems = checks.check_outputs(workload.command, code, out_dir, ref)
    it = Iteration(seconds, code, problems, traced)
    if tracer is not None:
        it.metrics = layers.layer_metrics(tracer)
        it.self_sum = sum(it.metrics.get(n, 0.0) for n in layers.SELF_TIME_METRICS)
        nnz = {t: it.metrics.get(f"hamiltonian.nnz.{t}") for t in layers.TERMS}
        if all(v is not None for v in nnz.values()):
            it.problems += checks.check_nnz(nnz, ref)
    if it.problems:
        sys.stderr.write(f"iteration failed: {'; '.join(it.problems)}\n{sink.getvalue()[-2000:]}")
    return it, (tracer.to_json() if tracer is not None else None)


def timed_loop(seconds: float, step: Callable[[], None]) -> None:
    """Call ``step`` once, and again until ``seconds`` have passed."""
    started = time.perf_counter()
    step()
    while time.perf_counter() - started < seconds:
        step()


def measure_setup(config) -> list[float]:
    """Set-up time: build the mode space and solve for the composites,
    repeated for at least SETUP_BATCH_SECONDS."""
    from composite_bosons import build_mode_space

    times: list[float] = []
    started = time.perf_counter()
    while not times or time.perf_counter() - started < SETUP_BATCH_SECONDS:
        t0 = time.perf_counter()
        build_mode_space(config).solve_composites(config.bound_policy)
        times.append(time.perf_counter() - t0)
    return times


def tail(samples: list[float]) -> str:
    """The highest percentile with at least TAIL_BEYOND samples beyond it."""
    n = len(samples)
    if n <= TAIL_BEYOND:
        return f"n/a (needs more than {TAIL_BEYOND} samples)"
    rank = n - TAIL_BEYOND - 1
    return f"p{100.0 * (rank + 1) / n:.1f} = {sorted(samples)[rank]:.6f} s"


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "machine": platform.machine(),
    }


def _print_table(rows: list[tuple[str, float, str, str]]) -> None:
    for name, value, unit, note in rows:
        print(f"  {name:<36} {value:>16.6f} {unit:<6} {note}".rstrip())


def end_to_end(
    workload, config_dir: Path, out_dir: Path, ref: dict, seconds: float
) -> tuple[list[Iteration], dict]:
    from composite_bosons import load_config

    # Set-up batches are interleaved with the commands so that both sample
    # the same stretch of time on a machine whose speed drifts.
    config = load_config((config_dir / workload.config_file).read_text())
    setup: list[float] = []
    iterations: list[Iteration] = []

    def step() -> None:
        setup.extend(measure_setup(config))
        iterations.append(run_once(workload, config_dir, out_dir, ref, False)[0])

    timed_loop(seconds, step)
    walls = [it.seconds for it in iterations]
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    _print_table([
        ("wall_s", metrics["wall_s"][0], "s",
         f"median of {len(walls)}; tail {tail(walls)}"),
        ("setup_s", metrics["setup_s"][0], "s", f"median of {len(setup)}"),
        ("peak_rss_mb", metrics["peak_rss_mb"][0], "MiB", ""),
    ])
    return iterations, metrics


def per_layer(workload, config_dir: Path, out_dir: Path, ref: dict, seconds: float,
              trace_path: Path, env: dict) -> tuple[list[Iteration], dict]:
    iterations: list[Iteration] = []
    traces: list[dict] = []

    def pair() -> None:
        # alternate which of the two goes first, so order effects cancel
        for traced in (False, True) if len(traces) % 2 == 0 else (True, False):
            it, trace = run_once(workload, config_dir, out_dir, ref, traced)
            iterations.append(it)
            if traced:
                traces.append({"wall_s": it.seconds, **trace})

    timed_loop(seconds, pair)
    traced = [it for it in iterations if it.traced]
    plain = [it.seconds for it in iterations if not it.traced]
    traced_wall = statistics.median(it.seconds for it in traced)
    units = {m.name: m.unit for m in layers.METRICS}
    common = set.intersection(*(set(it.metrics) for it in traced))
    metrics = {
        name: (statistics.median(it.metrics[name] for it in traced), units[name])
        for name in units
        if name in common
    }
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - statistics.median(plain), "s")
    _print_table([(name, value, unit, "") for name, (value, unit) in metrics.items()])
    shares = sorted(
        ((metrics[n][0], n) for n in layers.SELF_TIME_METRICS if n in metrics), reverse=True
    )
    print("self time by layer (share of traced wall_s):")
    for value, name in shares[:6]:
        print(f"  {name:<36} {value / traced_wall:>7.1%}")
    print(
        f"layer self times sum to {statistics.median(it.self_sum for it in traced):.6f} s; "
        f"traced wall_s {traced_wall:.6f} s; untraced wall_s {statistics.median(plain):.6f} s"
    )
    trace_path.write_text(json.dumps({"environment": env, "iterations": traces}) + "\n")
    return iterations, metrics


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.ACCEPTANCE_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    load_library()
    workload = workloads.WORKLOADS[args.workload]
    ref = checks.load_reference()[workload.name]
    model_seed = workloads.accepted_seed(args.seed)
    work_dir = OUT / workload.name
    config_dir, out_dir = work_dir / "configs", work_dir / "out"
    workloads.generate(model_seed, config_dir)

    env = environment()
    print(f"workload {workload.name}: {' '.join(workload.argv(config_dir, out_dir))}")
    print(f"seed {args.seed} (oracle model seed {model_seed}), "
          f"{args.seconds:g} s, trace {args.trace}")
    print(f"environment {json.dumps(env)}")
    if args.trace:
        trace_path = work_dir / f"trace-seed{args.seed}.json"
        iterations, metrics = per_layer(workload, config_dir, out_dir, ref, args.seconds,
                                         trace_path, env)
        print(f"spans written to {trace_path.relative_to(ROOT)}")
    else:
        iterations, metrics = end_to_end(workload, config_dir, out_dir, ref, args.seconds)
    failed = sum(it.failed for it in iterations)
    print(f"  {'failed_fraction':<36} {failed / len(iterations):>16.6f} ratio  "
          f"{failed} of {len(iterations)} iterations failed")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(iterations),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
