"""Command-line front end: solve-pair, spectrum, verify, export-matrix.

Exit codes: 0 success, 1 configuration or usage error (running out of
memory included), 2 numerical failure, 3 verification failure.  All numeric
JSON output uses 17 significant digits so identical runs produce
byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from contextlib import contextmanager, suppress
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .fock import SectorBasis, enumerate_sector
from .hamiltonian import (
    HermiticityError,
    SparseHamiltonian,
    TermId,
    assemble_hamiltonian,
    split_sectors,
)
from .modespace import CompositeSpectrum, ModeSpace
from .models import ConfigError, ModelConfig, build_mode_space, load_config
from .numerics import EigenConvergenceError, NonSymmetricError, sparse_lowest_eigen
from .oracle import TERM_READING, Column, sweep_columns, verify_sectors

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_VERIFY = 3

VERIFY_TOL = 1e-10
# the largest --max-n: a sweep's time and its report grow steeply with N;
# verify_sectors checks larger sectors in-process
VERIFY_MAX_N = 6
REPORT_SCHEMA_VERSION = 1
_EIGENVALUES_PER_SECTOR = 6
_WRITE_BUFFER = 1 << 20  # bytes; a report of several MB goes out in few system calls


class OutputError(RuntimeError):
    """Artifact could not be written."""


def _format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"non-finite number {x!r} in report")
    return f"{x:.17g}"


def dump_json(obj, indent: int = 0) -> str:
    """Minimal JSON writer with stable key order and 17-digit floats.

    Strings are quoted by the function ``json.dumps`` itself uses for them
    (ASCII-escaped), without its per-call encoder set-up.
    """
    if isinstance(obj, str):
        return _quote(obj)
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [
            f'{inner}{_quote(str(k))}: {dump_json(v, indent + 1)}' for k, v in obj.items()
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
    raise TypeError(f"cannot serialize {type(obj)!r}")


_ZERO_VALUES = ',\n      "sq_value": 0,\n      "oracle_value": 0,\n      "abs_diff": 0\n    }'


def _values(sq: float, oracle: float, diff: float) -> str:
    return (
        f',\n      "sq_value": {_format_float(sq)},\n'
        f'      "oracle_value": {_format_float(oracle)},\n'
        f'      "abs_diff": {_format_float(diff)}\n    }}'
    )


class _RowFormatter:
    """Rows of ``checks`` in the layout :func:`dump_json` gives them.

    A sector's bra names are quoted once.  A :class:`Column` lists the rows
    it holds values for; every other row is all +0.0, most rows of a sweep,
    and they share one constant tail.
    Each run of them between two listed rows is written by one ``str.join``
    over the quoted bra names.  A listed row of zeros comes out as the shared
    tail does, and -0.0 prints as ``-0``.
    """

    def __init__(self) -> None:
        self._bras: Sequence[str] = ()
        self._quoted: list[str] = []

    def __call__(self, col: Column) -> str:
        """The rows of one column, one per bra, joined by ``",\n"``."""
        head = (
            f'    {{\n      "term": {_quote(col.term)},\n'
            f'      "sector": {col.sector:d},\n      "bra": '
        )
        if col.bras is not self._bras:  # the columns of a sector share one list
            self._bras, self._quoted = col.bras, [_quote(bra) for bra in col.bras]
        quoted = self._quoted
        ket_part = f',\n      "ket": {_quote(col.ket)}'
        zero_tail = ket_part + _ZERO_VALUES
        zero_gap = zero_tail + ",\n" + head
        pieces = []
        start = 0
        for row, sq, oracle, diff in zip(col.rows, col.sq, col.oracle, col.diff):
            if row > start:
                pieces.append(head + zero_gap.join(quoted[start:row]) + zero_tail)
            pieces.append(head + quoted[row] + ket_part + _values(sq, oracle, diff))
            start = row + 1
        if len(quoted) > start:
            pieces.append(head + zero_gap.join(quoted[start:]) + zero_tail)
        return ",\n".join(pieces)


def _write_verification(
    write: Callable[[str], object], columns: Iterable[Column]
) -> tuple[dict, float]:
    """Write the verification report of ``columns`` as they are computed.

    This is the report's one writer and layout: the schema version, the term
    readings, one row per (term, bra, ket) in sweep order and the summary,
    as :func:`dump_json` gives them, and a newline.  Each column's rows are
    written before the next column is asked for, so memory does not grow
    with the row count.  Maxima are taken over the rows each sparse column
    lists, since every other row differs by +0.0, so the summary is the one
    ``verify_sectors`` gives for the same sweep.  Returns the summary and,
    beside it, the largest difference over the entries where the sq value
    is nonzero: the gated maximum also covers entries that the sq route
    dropped as roundoff.
    """
    summary = {"max_abs_diff": 0.0, "pairs_checked": 0}
    stored_max = 0.0
    format_rows = _RowFormatter()
    write(
        f'{{\n  "schema_version": {dump_json(REPORT_SCHEMA_VERSION, 1)},\n'
        f'  "conventions": {dump_json(TERM_READING, 1)},\n  "checks": '
    )
    opening = "[\n"
    for col in columns:
        summary["max_abs_diff"] = max([summary["max_abs_diff"], *col.diff])
        summary["pairs_checked"] += len(col.bras)
        stored_max = max([stored_max, *(d for sq, d in zip(col.sq, col.diff) if sq != 0.0)])
        write(opening)
        write(format_rows(col))
        opening = ",\n"
    write("[]" if opening == "[\n" else "\n  ]")
    # the summary is formatted only once every column has filled it in
    write(f',\n  "summary": {dump_json(summary, 1)}\n}}\n')
    return summary, stored_max


@contextmanager
def _replacing(path: Path) -> Iterator[Callable[[str], object]]:
    """A writer whose text replaces ``path`` only once all of it is written.

    The text goes to a temporary file beside ``path``, renamed over it on
    success and removed on any failure, so an earlier ``path`` is never
    left half written.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "w", buffering=_WRITE_BUFFER) as f:
            yield f.write
        os.replace(tmp, path)
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc}") from exc
    finally:
        with suppress(OSError):
            tmp.unlink(missing_ok=True)


@contextmanager
def _writing_stdout() -> Iterator[Callable[[str], object]]:
    """``sys.stdout.write``, flushed at the end; an OSError on the way, such
    as a pipe closed by its reader, becomes an :class:`OutputError`."""
    try:
        yield sys.stdout.write
        sys.stdout.flush()
    except OSError as exc:
        raise OutputError(f"cannot write to stdout: {exc}") from exc


def _write_text(path: Path, text: str) -> None:
    with _replacing(path) as write:
        write(text)


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
    with _writing_stdout() as write:
        write(text)
    if out_dir is not None:
        _write_text(out_dir / "composite_spectrum.json", text)
    return EXIT_OK


def _sector_csv(n: int, eigenvalues: Sequence[float]) -> str:
    lines = ["N,index,eigenvalue"]
    for i, v in enumerate(eigenvalues):
        lines.append(f"{n},{i},{_format_float(float(v))}")
    return "\n".join(lines) + "\n"


def _sector_hamiltonians(
    space: ModeSpace, spectrum: CompositeSpectrum, n_max: int
) -> list[SparseHamiltonian]:
    """The assembled Hamiltonian of each sector N = 0..n_max, at index N.

    All sectors are assembled at once, on their union, and read off it: a
    run's one build of the blocks it solves, writes and verifies.
    """
    bases = [enumerate_sector(n, space.n_modes, spectrum.n_composites) for n in range(n_max + 1)]
    union = assemble_hamiltonian(SectorBasis.union(*bases), space, spectrum)
    return split_sectors(union, bases)


def _cmd_spectrum(config: ModelConfig, out_dir: Path, verify_max_n: int | None) -> int:
    started = time.perf_counter()
    if verify_max_n is not None:
        _check_max_n(verify_max_n)
    space, spectrum = _solve(config)
    # sectors verified past n_max are assembled with the rest, not solved
    hams = _sector_hamiltonians(space, spectrum, max(config.n_max, verify_max_n or 0))
    solved = hams[: config.n_max + 1]
    sectors = []
    sector_eigs: dict[int, list[float]] = {}
    for n, ham in enumerate(solved):
        k = min(ham.basis.dim, _EIGENVALUES_PER_SECTOR)
        eigs = [float(v) for v in sparse_lowest_eigen(ham.total, k)]
        sector_eigs[n] = eigs
        sectors.append(
            {
                "n": n,
                "dimension": ham.basis.dim,
                "lowest_eigenvalues": eigs,
                "term_norms": {t.value: ham.terms[t].max_abs() for t in TermId},
            }
        )
    report = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "config": _config_echo(config),
        "composite_spectrum": _spectrum_doc(spectrum),
        "sectors": sectors,
    }
    status = EXIT_OK
    if verify_max_n is not None:
        summary = verify_sectors(space, spectrum, hams[: verify_max_n + 1])
        report["verification"] = summary
        status = _verify_status(summary)
        _print_verified(summary)
    write_report(report, sector_eigs, solved if "csv" in config.output.formats else None, out_dir)
    sys.stderr.write(f"spectrum finished in {time.perf_counter() - started:.3f}s\n")
    return status


def _print_verified(summary: dict) -> None:
    sys.stderr.write(
        f"verified {summary['pairs_checked']} matrix elements, "
        f"max |sq - oracle| = {summary['max_abs_diff']:.3e}\n"
    )


def _verify_status(summary: dict) -> int:
    """Exit 3 when any checked element differs from the oracle beyond 1e-10."""
    return EXIT_OK if summary["max_abs_diff"] <= VERIFY_TOL else EXIT_VERIFY


def _check_max_n(max_n: int) -> None:
    if max_n > VERIFY_MAX_N:
        raise ConfigError(
            f"--max-n {max_n} exceeds the verification cap {VERIFY_MAX_N}: "
            "the sweep's time and report size grow steeply with N"
        )
    if max_n < 0:
        raise ConfigError("--max-n must be nonnegative")


def write_report(
    report: dict,
    sector_eigs: dict[int, list[float]],
    hams: Sequence[SparseHamiltonian] | None,
    out_dir: Path,
) -> None:
    """Write report.json plus per-sector CSVs, the term CSVs of ``hams``
    (sector N at index N) if given; byte-identical across reruns."""
    _write_text(out_dir / "report.json", dump_json(report) + "\n")
    for n, eigs in sector_eigs.items():
        _write_text(out_dir / f"sector_{n}_eigs.csv", _sector_csv(n, eigs))
    for n, ham in enumerate(hams or ()):
        _write_term_csvs(out_dir, n, ham)


def _write_term_csvs(out_dir: Path, n: int, ham: SparseHamiltonian) -> None:
    for term in TermId:
        _write_text(
            out_dir / f"term_{term.value}_sector_{n}.csv",
            ham.terms[term].to_coordinate_csv(),
        )


def _cmd_verify(config: ModelConfig, out_dir: Path | None, max_n: int) -> int:
    _check_max_n(max_n)
    space, spectrum = _solve(config)
    columns = sweep_columns(space, spectrum, _sector_hamiltonians(space, spectrum, max_n))
    output = _writing_stdout() if out_dir is None else _replacing(out_dir / "verification.json")
    with output as write:
        summary, stored_max = _write_verification(write, columns)
    _print_verified(summary)
    sys.stderr.write(f"max |sq - oracle| where sq is nonzero = {stored_max:.3e}\n")
    return _verify_status(summary)


def _cmd_export_matrix(config: ModelConfig, out_dir: Path) -> int:
    space, spectrum = _solve(config)
    for n, ham in enumerate(_sector_hamiltonians(space, spectrum, config.n_max)):
        _write_term_csvs(out_dir, n, ham)
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
        if name in ("spectrum", "verify"):
            p.add_argument(
                "--max-n",
                type=int,
                default=None,
                help=f"largest constituent sector for oracle verification (at most {VERIFY_MAX_N}); "
                "on `spectrum` this also embeds a verification summary in the report",
            )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        if exc.code == 0:  # --help
            raise
        return EXIT_CONFIG  # argparse has written the usage error to stderr
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
    except (
        EigenConvergenceError,
        FloatingPointError,
        HermiticityError,
        NonSymmetricError,
    ) as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_NUMERICAL
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG
    except MemoryError as exc:  # numpy's message names the failed allocation
        sys.stderr.write(f"error: out of memory: {str(exc) or 'an allocation failed'}\n")
        return EXIT_CONFIG
    raise AssertionError("unreachable")


def entrypoint() -> None:  # pragma: no cover - thin wrapper
    status = main()
    try:
        sys.stdout.flush()
    except OSError:
        # stdout's reader has gone; the interpreter flushes stdout again on
        # exit, so point it at devnull to keep that from raising a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(status)


if __name__ == "__main__":  # pragma: no cover
    entrypoint()
