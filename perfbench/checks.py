"""Correctness checks applied to the outputs of every benchmark iteration.

References live in ``reference.json``: the outputs of the library at the
commit that introduced this benchmark.  Eigenvalues are compared with a
tolerance, never CSV bytes, because the ring's degenerate one-body modes
make coefficient CSVs depend on the BLAS build.
"""

from __future__ import annotations

import json
from pathlib import Path

EIGENVALUE_TOL = 1e-8
VERIFY_TOL = 1e-10


def load_reference() -> dict:
    return json.loads(Path(__file__).with_name("reference.json").read_text())


def _max_gap(got: list[float], want: list[float]) -> float:
    if len(got) != len(want):
        return float("inf")
    return max((abs(a - b) for a, b in zip(got, want)), default=0.0)


def _spectrum(out_dir: Path, ref: dict) -> list[str]:
    report = json.loads((out_dir / "report.json").read_text())
    sectors = {s["n"]: s for s in report["sectors"]}
    problems = []
    if sorted(sectors) != [s["n"] for s in ref["sectors"]]:
        return [f"sectors {sorted(sectors)} differ from the reference"]
    for want in ref["sectors"]:
        got = sectors[want["n"]]
        if got["dimension"] != want["dimension"]:
            problems.append(
                f"sector {want['n']} dimension {got['dimension']} != {want['dimension']}"
            )
        gap = _max_gap(got["lowest_eigenvalues"], want["lowest_eigenvalues"])
        if not gap <= EIGENVALUE_TOL:
            problems.append(f"sector {want['n']} eigenvalues off the reference by {gap:.3e}")
    lock = ref.get("ground_lock")
    if lock is not None:
        ground = sectors[lock["n"]]["lowest_eigenvalues"][0]
        if not abs(ground - lock["energy"]) <= lock["tol"]:
            problems.append(f"N={lock['n']} ground energy {ground!r} != {lock['energy']!r}")
    if ref.get("term_csv"):
        rows = {term: 0 for term in ref["nnz"]}
        for term in rows:
            for n in sectors:
                text = (out_dir / f"term_{term}_sector_{n}.csv").read_text()
                rows[term] += len(text.splitlines()) - 1
        problems += check_nnz(rows, ref)
    return problems


def _verify(out_dir: Path, ref: dict) -> list[str]:
    report = json.loads((out_dir / "verification.json").read_text())
    summary = report["summary"]
    problems = []
    if not summary["max_abs_diff"] <= VERIFY_TOL:
        problems.append(f"max |sq - oracle| = {summary['max_abs_diff']!r} > {VERIFY_TOL}")
    if summary["pairs_checked"] != ref["pairs_checked"]:
        problems.append(f"pairs_checked {summary['pairs_checked']} != {ref['pairs_checked']}")
    if len(report["checks"]) != ref["pairs_checked"]:
        problems.append(f"{len(report['checks'])} rows, expected {ref['pairs_checked']}")
    return problems


_CHECKERS = {"spectrum": _spectrum, "verify": _verify}


def check_outputs(command: str, exit_code: int, out_dir: Path, ref: dict) -> list[str]:
    """Problems with one CLI run; an empty list means it passed."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        return _CHECKERS[command](out_dir, ref)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"]


def check_nnz(nnz: dict[str, float], ref: dict) -> list[str]:
    """Compare per-term nonzero counts (summed over sectors) to the reference."""
    want = ref.get("nnz")
    if want is None:
        return []
    return [
        f"nnz of {term} is {nnz.get(term)} != {count}"
        for term, count in want.items()
        if nnz.get(term) != count
    ]
