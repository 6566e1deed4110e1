"""Command-line front end: solve-pair, spectrum, verify, export-matrix.

Exit codes: 0 success, 1 configuration error, 2 numerical failure,
3 verification failure.  All numeric JSON output uses 17 significant
digits so identical runs produce byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Sequence

import numpy as np

from .fock import enumerate_sector
from .hamiltonian import (
    HermiticityError,
    SparseHamiltonian,
    TermId,
    assemble_hamiltonian,
    coefficient_tensors,
)
from .modespace import CompositeSpectrum, ModeSpace
from .models import ConfigError, ModelConfig, build_mode_space, load_config
from .numerics import EigenConvergenceError, sparse_lowest_eigen
from .oracle import EXPANSION_GUARD, verify_sectors

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_VERIFY = 3

VERIFY_TOL = 1e-10
REPORT_SCHEMA_VERSION = 1
_EIGENVALUES_PER_SECTOR = 6


class OutputError(RuntimeError):
    """Artifact could not be written."""


def _format_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError(f"non-finite number {x!r} in report")
    return f"{x:.17g}"


def dump_json(obj, indent: int = 0) -> str:
    """Minimal JSON writer with stable key order and 17-digit floats."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [
            f'{inner}{dump_json(str(k))}: {dump_json(v, indent + 1)}' for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(parts) + f"\n{pad}" + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        parts = [f"{inner}{dump_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(parts) + f"\n{pad}" + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if isinstance(obj, str):
        import json as _json

        return _json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _write_text(path: Path, text: str) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc}") from exc


def _config_echo(config: ModelConfig) -> dict:
    from .models import RingModel
    from .modespace import BelowEdge

    model = config.model
    if isinstance(model, RingModel):
        model_doc = {"type": "ring", "sites": model.sites, "t": model.t, "U": model.u}
    else:
        model_doc = {
            "type": "explicit",
            "O": [list(row) for row in model.one_body],
            "T4": list(model.t4_flat),
        }
    policy = config.bound_policy
    if isinstance(policy, BelowEdge):
        bound_doc: dict = {"policy": "below_edge"}
        if policy.margin is not None:
            bound_doc["margin"] = policy.margin
    else:
        bound_doc = {"policy": "lowest_k", "k": policy.k}
    return {
        "model": model_doc,
        "truncation": {"n_max": config.n_max},
        "bound": bound_doc,
        "output": {"dir": config.output.directory, "formats": list(config.output.formats)},
    }


def _spectrum_doc(spectrum: CompositeSpectrum) -> dict:
    return {
        "continuum_edge": spectrum.continuum_edge,
        "bound_states": [
            {
                "index": a,
                "energy": float(spectrum.energies[a]),
                "coefficients": [list(row) for row in spectrum.coefficients[a]],
            }
            for a in range(spectrum.n_composites)
        ],
    }


def _solve(config: ModelConfig) -> tuple[ModeSpace, CompositeSpectrum]:
    space = build_mode_space(config)
    spectrum = space.solve_composites(config.bound_policy)
    return space, spectrum


def _cmd_solve_pair(config: ModelConfig, out_dir: Path | None) -> int:
    _, spectrum = _solve(config)
    doc = {"schema_version": REPORT_SCHEMA_VERSION, **_spectrum_doc(spectrum)}
    text = dump_json(doc) + "\n"
    sys.stdout.write(text)
    if out_dir is not None:
        _write_text(out_dir / "composite_spectrum.json", text)
    return EXIT_OK


def _sector_csv(n: int, eigenvalues: Sequence[float]) -> str:
    lines = ["N,index,eigenvalue"]
    for i, v in enumerate(eigenvalues):
        lines.append(f"{n},{i},{_format_float(float(v))}")
    return "\n".join(lines) + "\n"


def _cmd_spectrum(config: ModelConfig, out_dir: Path, verify_max_n: int | None) -> int:
    started = time.perf_counter()
    space, spectrum = _solve(config)
    tensors = coefficient_tensors(space, spectrum)
    sectors = []
    sector_eigs: dict[int, list[float]] = {}
    hams: dict[int, SparseHamiltonian] = {}
    for n in range(config.n_max + 1):
        basis = enumerate_sector(n, space.n_modes, spectrum.n_composites)
        ham = assemble_hamiltonian(basis, space, spectrum, tensors)
        hams[n] = ham
        k = min(basis.dim, _EIGENVALUES_PER_SECTOR)
        eigs = [float(v) for v in sparse_lowest_eigen(ham.total, k)]
        sector_eigs[n] = eigs
        sectors.append(
            {
                "n": n,
                "dimension": basis.dim,
                "lowest_eigenvalues": eigs,
                "term_norms": {t.value: ham.term(t).max_abs() for t in TermId},
            }
        )
    report = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "config": _config_echo(config),
        "composite_spectrum": _spectrum_doc(spectrum),
        "sectors": sectors,
    }
    if verify_max_n is not None:
        _check_max_n(verify_max_n)
        verification = verify_sectors(
            space, spectrum, range(verify_max_n + 1), include_rows=False
        )
        report["verification"] = verification["summary"]
    write_report(report, sector_eigs, hams if "csv" in config.output.formats else None, out_dir)
    sys.stderr.write(f"spectrum finished in {time.perf_counter() - started:.3f}s\n")
    return EXIT_OK


def _check_max_n(max_n: int) -> None:
    if max_n > EXPANSION_GUARD:
        raise ConfigError(
            f"--max-n {max_n} exceeds the permutation-expansion guard {EXPANSION_GUARD}"
        )
    if max_n < 0:
        raise ConfigError("--max-n must be nonnegative")


def write_report(
    report: dict,
    sector_eigs: dict[int, list[float]],
    hams: dict[int, SparseHamiltonian] | None,
    out_dir: Path,
) -> None:
    """Write report.json plus per-sector CSVs; byte-identical across reruns."""
    _write_text(out_dir / "report.json", dump_json(report) + "\n")
    for n, eigs in sector_eigs.items():
        _write_text(out_dir / f"sector_{n}_eigs.csv", _sector_csv(n, eigs))
    if hams is not None:
        for n, ham in hams.items():
            for term in TermId:
                _write_text(
                    out_dir / f"term_{term.value}_sector_{n}.csv",
                    ham.term(term).to_coordinate_csv(),
                )


def _cmd_verify(config: ModelConfig, out_dir: Path | None, max_n: int) -> int:
    _check_max_n(max_n)
    space, spectrum = _solve(config)
    report = verify_sectors(space, spectrum, range(max_n + 1))
    text = dump_json(report) + "\n"
    if out_dir is not None:
        _write_text(out_dir / "verification.json", text)
    summary = report["summary"]
    sys.stderr.write(
        f"verified {summary['pairs_checked']} matrix elements, "
        f"max |sq - oracle| = {summary['max_abs_diff']:.3e}\n"
    )
    if out_dir is None:
        sys.stdout.write(text)
    return EXIT_OK if summary["max_abs_diff"] <= VERIFY_TOL else EXIT_VERIFY


def _cmd_export_matrix(config: ModelConfig, out_dir: Path) -> int:
    space, spectrum = _solve(config)
    tensors = coefficient_tensors(space, spectrum)
    for n in range(config.n_max + 1):
        basis = enumerate_sector(n, space.n_modes, spectrum.n_composites)
        ham = assemble_hamiltonian(basis, space, spectrum, tensors)
        for term in TermId:
            _write_text(
                out_dir / f"term_{term.value}_sector_{n}.csv",
                ham.term(term).to_coordinate_csv(),
            )
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="composite-bosons",
        description="Build and verify second-quantized Hamiltonians with composite modes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in [
        ("solve-pair", "solve the pair Hamiltonian and print the composite spectrum"),
        ("spectrum", "assemble sector Hamiltonians and report lowest eigenvalues"),
        ("verify", "cross-check all terms against the permutation-expansion oracle"),
        ("export-matrix", "write per-term per-sector coordinate CSV files"),
    ]:
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", required=True, help="path to JSON configuration")
        p.add_argument("--out-dir", default=None, help="directory for output artifacts")
        p.add_argument(
            "--max-n",
            type=int,
            default=None,
            help="largest constituent sector for oracle verification (guarded at 6); "
            "on `spectrum` this also embeds a verification summary in the report",
        )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config_text = Path(args.config).read_text()
    except OSError as exc:
        sys.stderr.write(f"error: cannot read config: {exc}\n")
        return EXIT_CONFIG
    try:
        config = load_config(config_text)
    except ConfigError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG

    out_dir = Path(args.out_dir) if args.out_dir else None
    if out_dir is None and args.command in ("spectrum", "export-matrix"):
        out_dir = Path(config.output.directory)

    try:
        if args.command == "solve-pair":
            return _cmd_solve_pair(config, out_dir)
        if args.command == "spectrum":
            return _cmd_spectrum(config, out_dir, args.max_n)
        if args.command == "verify":
            return _cmd_verify(config, out_dir, 4 if args.max_n is None else args.max_n)
        if args.command == "export-matrix":
            return _cmd_export_matrix(config, out_dir)
    except (ConfigError, OutputError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG
    except (EigenConvergenceError, FloatingPointError, HermiticityError) as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_NUMERICAL
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG
    raise AssertionError("unreachable")


def entrypoint() -> None:  # pragma: no cover - thin wrapper
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    entrypoint()
