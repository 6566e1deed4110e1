import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from composite_bosons import cli, oracle
from composite_bosons.modespace import LowestK
from composite_bosons.models import build_ring_model, random_mode_space
from composite_bosons.oracle import TERM_READING, Column, sweep_columns, verify_sectors


TWO_SITE = {
    "model": {"type": "ring", "sites": 2, "t": 1.0, "U": -4.0},
    "truncation": {"n_max": 2},
    "bound": {"policy": "lowest_k", "k": 1},
}

TWO_SITE_CSV = {**TWO_SITE, "output": {"formats": ["json", "csv"]}}

_RANDOM_SPACE = random_mode_space(3, seed=20240, attraction=(40.0, 55.0))
# the seeded random model as an explicit config, as the oracle-verify benchmark runs it
RANDOM_EXPLICIT = {
    "model": {
        "type": "explicit",
        "O": _RANDOM_SPACE.one_body.mat.tolist(),
        "T4": np.asarray(_RANDOM_SPACE.two_body.t4).ravel().tolist(),
    },
    "bound": {"policy": "lowest_k", "k": 2},
}

RING6 = {
    "model": {"type": "ring", "sites": 6, "t": 1.0, "U": -20.0},
    "bound": {"policy": "below_edge"},
}

U_ZERO = {
    "model": {"type": "ring", "sites": 2, "t": 1.0, "U": 0.0},
    "truncation": {"n_max": 1},
}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_solve_pair_two_site(tmp_path, capsys):
    cfg = write_config(tmp_path, TWO_SITE)
    rc = cli.main(["solve-pair", "--config", cfg, "--out-dir", str(tmp_path / "o")])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["continuum_edge"] == pytest.approx(-2.0)
    assert len(doc["bound_states"]) == 1
    assert doc["bound_states"][0]["energy"] == pytest.approx(-(2 + 2 * math.sqrt(2)))
    on_disk = json.loads((tmp_path / "o" / "composite_spectrum.json").read_text())
    assert on_disk == doc


def test_solve_pair_no_binding(tmp_path, capsys):
    cfg = write_config(tmp_path, U_ZERO)
    rc = cli.main(["solve-pair", "--config", cfg])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["bound_states"] == []
    assert doc["continuum_edge"] == pytest.approx(-2.0)


def test_spectrum_writes_report_and_csv(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, TWO_SITE)
    rc = cli.main(["spectrum", "--config", cfg, "--out-dir", str(out)])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["schema_version"] == 1
    assert [s["n"] for s in report["sectors"]] == [0, 1, 2]
    assert report["sectors"][2]["dimension"] == 4
    csv_text = (out / "sector_2_eigs.csv").read_text().splitlines()
    assert csv_text[0] == "N,index,eigenvalue"
    assert csv_text[1].startswith("2,0,")


def _files(directory, pattern="*"):
    return {path.name: path.read_bytes() for path in sorted(directory.glob(pattern))}


def test_spectrum_deterministic(tmp_path):
    cfg = write_config(tmp_path, TWO_SITE_CSV)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["spectrum", "--config", cfg, "--out-dir", str(out1)]) == 0
    assert cli.main(["spectrum", "--config", cfg, "--out-dir", str(out2)]) == 0
    written = _files(out1)
    assert "report.json" in written and "sector_2_eigs.csv" in written
    assert len(_files(out1, "term_*_sector_*.csv")) == 7 * 3
    assert written == _files(out2)


def test_spectrum_csv_format_writes_term_blocks(tmp_path):
    cfg = write_config(tmp_path, TWO_SITE_CSV)
    out = tmp_path / "out"
    assert cli.main(["spectrum", "--config", cfg, "--out-dir", str(out)]) == 0
    term_file = out / "term_CSS_sector_2.csv"
    assert term_file.exists()
    assert term_file.read_text().splitlines()[0] == "row,col,value"


def test_spectrum_embeds_verification_when_requested(tmp_path):
    cfg = write_config(tmp_path, TWO_SITE)
    out = tmp_path / "out"
    assert cli.main(["spectrum", "--config", cfg, "--out-dir", str(out), "--max-n", "2"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["verification"]["max_abs_diff"] <= 1e-10
    assert report["verification"]["pairs_checked"] > 0


def test_spectrum_prints_the_verified_line_of_verify(tmp_path, capsys):
    # built from the embedded summary, before the finished line; without
    # --max-n only the finished line is printed
    cfg = write_config(tmp_path, TWO_SITE)
    out = tmp_path / "out"
    capsys.readouterr()
    assert cli.main(["spectrum", "--config", cfg, "--out-dir", str(out), "--max-n", "2"]) == 0
    verified, finished = capsys.readouterr().err.splitlines()
    summary = json.loads((out / "report.json").read_text())["verification"]
    assert verified == (
        f"verified {summary['pairs_checked']} matrix elements, "
        f"max |sq - oracle| = {summary['max_abs_diff']:.3e}"
    )
    assert finished.startswith("spectrum finished in ")
    assert cli.main(["verify", "--config", cfg, "--out-dir", str(tmp_path / "v"), "--max-n", "2"]) == 0
    assert capsys.readouterr().err.splitlines()[0] == verified
    assert cli.main(["spectrum", "--config", cfg, "--out-dir", str(out)]) == 0
    assert capsys.readouterr().err.startswith("spectrum finished in ")


def test_verify_two_site(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, TWO_SITE)
    rc = cli.main(["verify", "--config", cfg, "--out-dir", str(out), "--max-n", "3"])
    assert rc == 0
    report = json.loads((out / "verification.json").read_text())
    assert report["summary"]["max_abs_diff"] <= 1e-10
    assert report["summary"]["pairs_checked"] > 0


def test_verify_exit_code_on_failure(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, TWO_SITE)

    def fake_sweep(space, spectrum, sectors):
        yield Column("SS", 0, ["|0 ; 0⟩"], "|0 ; 0⟩", [0], [1e-6], [0.0], [1e-6])

    monkeypatch.setattr(cli, "sweep_columns", fake_sweep)
    rc = cli.main(["verify", "--config", cfg, "--out-dir", str(tmp_path / "o")])
    assert rc == 3
    report = json.loads((tmp_path / "o" / "verification.json").read_text())
    assert report["summary"] == {"max_abs_diff": 1e-6, "pairs_checked": 1}


@pytest.mark.parametrize("doc, max_n", [(TWO_SITE, 3), (RANDOM_EXPLICIT, 5)], ids=["two-site", "random"])
def test_verify_streams_verification_text(tmp_path, capsys, doc, max_n):
    cfg = write_config(tmp_path, doc)
    space, spectrum = cli._solve(cli.load_config(json.dumps(doc)))
    hams = cli._sector_hamiltonians(space, spectrum, max_n)
    report = _dense_report(sweep_columns(space, spectrum, hams),
                           verify_sectors(space, spectrum, hams))
    want = cli.dump_json(report) + "\n"
    out = tmp_path / "out"
    assert cli.main(["verify", "--config", cfg, "--out-dir", str(out), "--max-n", str(max_n)]) == 0
    assert (out / "verification.json").read_bytes() == want.encode("ascii")
    assert [p.name for p in out.iterdir()] == ["verification.json"]
    capsys.readouterr()
    assert cli.main(["verify", "--config", cfg, "--max-n", str(max_n)]) == 0
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("doc", [TWO_SITE, RING6], ids=["two-site", "ring6"])
def test_verify_reports_the_stored_entry_maximum_beside_the_gated_one(tmp_path, capsys, doc):
    # the largest |sq - oracle| where sq is nonzero goes to stderr only, after
    # the gated maximum over every entry, and never exceeds it
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    capsys.readouterr()
    assert cli.main(["verify", "--config", cfg, "--out-dir", str(out), "--max-n", "2"]) == 0
    verified, stored = capsys.readouterr().err.splitlines()
    gated = json.loads((out / "verification.json").read_text())["summary"]["max_abs_diff"]
    assert verified.endswith(f"max |sq - oracle| = {gated:.3e}")
    prefix = "max |sq - oracle| where sq is nonzero = "
    assert stored.startswith(prefix)
    assert float(stored[len(prefix):]) <= float(f"{gated:.3e}")


class _ClosedPipe:
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


@pytest.mark.parametrize("command", ["verify", "solve-pair"])
def test_stdout_closed_by_its_reader_exits_1(tmp_path, monkeypatch, capsys, command):
    cfg = write_config(tmp_path, TWO_SITE)
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert cli.main([command, "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert "error: cannot write to stdout: " in err
    assert "Traceback" not in err


def test_entrypoint_into_a_closed_pipe_exits_1_without_a_traceback(tmp_path):
    # the pipe has no reader before the report is written; neither the write
    # nor the interpreter's flush at exit prints a traceback
    cfg = write_config(tmp_path, TWO_SITE)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    reader, writer = os.pipe()
    os.close(reader)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "composite_bosons.cli", "verify", "--config", cfg],
            stdout=writer, stderr=subprocess.PIPE, env=env, text=True, timeout=60,
        )
    finally:
        os.close(writer)
    assert done.returncode == 1
    assert done.stderr == "error: cannot write to stdout: [Errno 32] Broken pipe\n"


def _sweep_failing_with(kind):
    def sweep(space, spectrum, sectors):
        yield Column("SS", 0, ["a", "b"], "a", [0], [1.0], [1.0], [0.0])
        if kind == "non-finite":
            yield Column("SS", 0, ["a", "b"], "b", [1], [1.0], [math.nan], [math.nan])
        else:
            raise OSError(28, "No space left on device")

    return sweep


@pytest.mark.parametrize("kind", ["non-finite", "oserror-mid-stream", "oserror-on-replace"])
def test_verify_failure_keeps_earlier_report(tmp_path, monkeypatch, capsys, kind):
    cfg = write_config(tmp_path, TWO_SITE)
    out = tmp_path / "out"
    assert cli.main(["verify", "--config", cfg, "--out-dir", str(out), "--max-n", "2"]) == 0
    before = (out / "verification.json").read_bytes()
    if kind == "oserror-on-replace":
        def refuse(src, dst):
            raise OSError(13, "Permission denied")

        monkeypatch.setattr(cli.os, "replace", refuse)
    else:
        monkeypatch.setattr(cli, "sweep_columns", _sweep_failing_with(kind))
    capsys.readouterr()
    assert cli.main(["verify", "--config", cfg, "--out-dir", str(out), "--max-n", "3"]) == 1
    assert ("non-finite" if kind == "non-finite" else "cannot write") in capsys.readouterr().err
    assert (out / "verification.json").read_bytes() == before
    assert [p.name for p in out.iterdir()] == ["verification.json"]


def _out_of_memory(*args, **kwargs):
    raise MemoryError("Unable to allocate 11.9 GiB for an array with shape (200, 200, 200, 200)")


def _sweep_out_of_memory(space, spectrum, sectors):
    yield Column("SS", 0, ["a", "b"], "a", [0], [1.0], [1.0], [0.0])
    raise MemoryError()


@pytest.mark.parametrize("command", ["solve-pair", "verify"])
def test_out_of_memory_exits_1_without_a_traceback(tmp_path, monkeypatch, capsys, command):
    cfg = write_config(tmp_path, TWO_SITE)
    out = tmp_path / "out"
    if command == "solve-pair":
        monkeypatch.setattr(cli, "build_mode_space", _out_of_memory)
        want = "error: out of memory: Unable to allocate 11.9 GiB"
    else:
        monkeypatch.setattr(cli, "sweep_columns", _sweep_out_of_memory)
        want = "error: out of memory: an allocation failed"
    assert cli.main([command, "--config", cfg, "--out-dir", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(want) and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    # verify had begun its report beside verification.json; it is removed
    assert out.is_dir() == (command == "verify")
    assert not list(out.glob(".verification.json.*.tmp"))
    assert not (out / "verification.json").exists()


def test_verify_colliding_occupation_codes_exit_1_without_a_traceback(tmp_path, monkeypatch, capsys):
    # every digit 1 modulo 2**64: the sweep refuses the colliding codes of
    # sector 1 after writing sector 0's columns, and the report is removed
    monkeypatch.setattr(
        oracle, "_digits", lambda n, m, a: [(n + 1) ** d * 2**64 + 1 for d in range(m + a)]
    )
    out = tmp_path / "out"
    cfg = write_config(tmp_path, TWO_SITE)
    assert cli.main(["verify", "--config", cfg, "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "error: occupation codes of sector 1 collide modulo 2**64\n"
    assert not list(out.glob("*verification.json*"))


def test_verify_sweeps_codes_past_2_64_in_an_even_base(tmp_path, capsys):
    # 8 modes and 26 composites: sector 3's codes, of base 4 as n + 1, would
    # collide modulo 2**64; the sweep's odd base keeps them apart
    space = random_mode_space(8, seed=20240, attraction=tuple(np.linspace(400.0, 550.0, 26)))
    doc = {
        "model": {
            "type": "explicit",
            # diagonal, so the mode basis is the given one and T4 keeps its
            # exact symmetries at wells of this depth
            "O": np.diag(np.arange(8.0)).tolist(),
            "T4": np.asarray(space.two_body.t4).ravel().tolist(),
        },
        "bound": {"policy": "lowest_k", "k": 26},
    }
    out = tmp_path / "out"
    cfg = write_config(tmp_path, doc)
    assert cli.main(["verify", "--config", cfg, "--max-n", "3", "--out-dir", str(out)]) == 0
    assert "error" not in capsys.readouterr().err
    summary = json.loads((out / "verification.json").read_text())["summary"]
    assert summary["max_abs_diff"] <= 1e-10


# eight modes with 26 composites bound by wells 400-550 deep, max|T4| = 605,
# given with its own non-diagonal O: the rotation into O's eigenbasis leaves
# 1.023e-12 of roundoff in T4's Hermiticity and in the assembled sectors',
# inside both checks' tolerance relative to the largest entry
_DEEP_SPACE = random_mode_space(8, seed=20240, attraction=tuple(np.linspace(400.0, 550.0, 26)))
DEEP_WELLS = {
    "model": {
        "type": "explicit",
        "O": _DEEP_SPACE.one_body.mat.tolist(),
        "T4": np.asarray(_DEEP_SPACE.two_body.t4).ravel().tolist(),
    },
    "bound": {"policy": "lowest_k", "k": 26},
}


@pytest.mark.parametrize("argv", [["solve-pair"], ["verify", "--max-n", "2"]], ids=" ".join)
def test_deep_wells_rotate_within_the_relative_tolerance(tmp_path, capsys, argv):
    cfg = write_config(tmp_path, DEEP_WELLS)
    out = tmp_path / "out"
    assert cli.main([*argv, "--config", cfg, "--out-dir", str(out)]) == 0
    assert "error" not in capsys.readouterr().err
    if argv[0] == "verify":
        summary = json.loads((out / "verification.json").read_text())["summary"]
        assert summary["max_abs_diff"] <= 1e-10
        assert summary["pairs_checked"] == 7 * (1 + 8**2 + (8 * 9 // 2 + 26) ** 2)


def test_verify_memory_stays_below_half_the_report(tmp_path):
    # the rows are written as the sweep computes them, so the traced peak
    # does not grow with the report (a buffered report peaks at about 4x it)
    cfg = write_config(tmp_path, RANDOM_EXPLICIT)
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        rc = cli.main(["verify", "--config", cfg, "--out-dir", str(out), "--max-n", "5"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 0
    size = (out / "verification.json").stat().st_size
    assert size > 5_000_000
    assert peak < size / 2, (peak, size)


@pytest.mark.parametrize("command", ["spectrum", "verify"])
def test_hermiticity_error_exit_code(tmp_path, monkeypatch, capsys, command):
    # verify sweeps the blocks assembled under the same checks as spectrum's
    from composite_bosons.hamiltonian import HermiticityError

    cfg = write_config(tmp_path, TWO_SITE)

    def fake_assemble(*args, **kwargs):
        raise HermiticityError("assembled sector matrix asymmetry 1.000e-06 exceeds 1.0e-12")

    monkeypatch.setattr(cli, "assemble_hamiltonian", fake_assemble)
    rc = cli.main([command, "--config", cfg, "--out-dir", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: assembled sector matrix asymmetry")
    assert err.count("\n") == 1
    assert not (tmp_path / "o").exists()  # the run stopped before writing


@pytest.mark.parametrize(
    "argv",
    [["spectrum"], ["export-matrix"], ["verify", "--max-n", "2"], ["spectrum", "--max-n", "2"]],
    ids=" ".join,
)
def test_sectors_are_assembled_once_on_their_union(tmp_path, monkeypatch, argv):
    # one build per run: the oracle sweep reads the blocks the run assembled
    from composite_bosons import hamiltonian

    calls = {"assemble": [], "build_term": 0}
    assemble, build_term = cli.assemble_hamiltonian, hamiltonian.build_term

    def counting_assemble(basis, *args, **kwargs):
        calls["assemble"].append(basis)
        return assemble(basis, *args, **kwargs)

    def counting_build_term(*args, **kwargs):
        calls["build_term"] += 1
        return build_term(*args, **kwargs)

    monkeypatch.setattr(cli, "assemble_hamiltonian", counting_assemble)
    monkeypatch.setattr(hamiltonian, "build_term", counting_build_term)
    cfg = write_config(tmp_path, TWO_SITE_CSV)
    assert cli.main([*argv, "--config", cfg, "--out-dir", str(tmp_path / "o")]) == 0
    [basis] = calls["assemble"]
    assert basis.constituents is None and basis.dim == 1 + 2 + 4  # sectors N = 0, 1, 2
    assert calls["build_term"] == 7
    written = list((tmp_path / "o").glob("term_*_sector_*.csv"))
    assert len(written) == (0 if argv[0] == "verify" else 3 * 7)


def test_spectrum_verifies_past_n_max_without_solving_there(tmp_path, monkeypatch):
    # --max-n above n_max: sectors 0..max-n are assembled once and swept, and
    # only 0..n_max are solved and reported; the report is the plain run's
    # plus the verification summary of the whole sweep
    from composite_bosons import hamiltonian

    built = []
    build_term = hamiltonian.build_term

    def recording_build_term(term, basis, *args, **kwargs):
        built.append(basis.dim)
        return build_term(term, basis, *args, **kwargs)

    cfg = write_config(tmp_path, TWO_SITE_CSV)  # n_max 2
    plain, verified = tmp_path / "plain", tmp_path / "verified"
    assert cli.main(["spectrum", "--config", cfg, "--out-dir", str(plain)]) == 0
    monkeypatch.setattr(hamiltonian, "build_term", recording_build_term)
    assert cli.main(["spectrum", "--config", cfg, "--out-dir", str(verified), "--max-n", "4"]) == 0
    assert built == [1 + 2 + 4 + 6 + 9] * 7  # sectors N = 0..4, on their union
    report = json.loads((verified / "report.json").read_text())
    assert [sector["n"] for sector in report["sectors"]] == [0, 1, 2]
    space, spectrum = cli._solve(cli.load_config(json.dumps(TWO_SITE_CSV)))
    want = verify_sectors(space, spectrum, cli._sector_hamiltonians(space, spectrum, 4))
    assert report.pop("verification") == want
    assert cli.dump_json(report) + "\n" == (plain / "report.json").read_text()
    assert _files(verified, "*.csv") == _files(plain, "*.csv")


def test_non_symmetric_error_exit_code(tmp_path, monkeypatch, capsys):
    from composite_bosons.numerics import NonSymmetricError

    cfg = write_config(tmp_path, TWO_SITE)

    def fake_eigen(*args, **kwargs):
        raise NonSymmetricError("matrix is not symmetric: max |A - A^T| = 1.000e-06")

    monkeypatch.setattr(cli, "sparse_lowest_eigen", fake_eigen)
    rc = cli.main(["spectrum", "--config", cfg, "--out-dir", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: matrix is not symmetric")
    assert err.count("\n") == 1


def test_spectrum_exit_code_on_verification_failure(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, TWO_SITE)
    out = tmp_path / "o"

    def fake_verify(space, spectrum, sectors):
        return {"max_abs_diff": 1e-6, "pairs_checked": 1}

    monkeypatch.setattr(cli, "verify_sectors", fake_verify)
    rc = cli.main(["spectrum", "--config", cfg, "--out-dir", str(out), "--max-n", "2"])
    assert rc == 3
    report = json.loads((out / "report.json").read_text())
    assert report["verification"] == {"max_abs_diff": 1e-6, "pairs_checked": 1}


def test_verify_max_n_guard(tmp_path, capsys):
    # the cap bounds the sweep's cost; the sweep expands no permutations
    cfg = write_config(tmp_path, TWO_SITE)
    rc = cli.main(["verify", "--config", cfg, "--max-n", "7"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --max-n 7 exceeds the verification cap 6: ")
    assert "permutation" not in err


@pytest.mark.parametrize("max_n", ["7", "-1"])
def test_spectrum_refuses_max_n_before_assembly(tmp_path, monkeypatch, max_n):
    calls = []

    def refuse(*args, **kwargs):
        calls.append(args)
        raise AssertionError("assembled before --max-n was checked")

    monkeypatch.setattr(cli, "assemble_hamiltonian", refuse)
    cfg = write_config(tmp_path, TWO_SITE)
    out = str(tmp_path / "o")
    rc = cli.main(["spectrum", "--config", cfg, "--out-dir", out, "--max-n", max_n])
    assert rc == 1
    assert calls == []


def test_verify_deterministic(tmp_path):
    cfg = write_config(tmp_path, RANDOM_EXPLICIT)
    texts = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert cli.main(["verify", "--config", cfg, "--out-dir", str(out), "--max-n", "5"]) == 0
        texts.append((out / "verification.json").read_bytes())
    assert texts[0] == texts[1]
    assert len(json.loads(texts[0])["checks"]) == 26110


def test_export_matrix(tmp_path):
    out = tmp_path / "mats"
    cfg = write_config(tmp_path, TWO_SITE)
    rc = cli.main(["export-matrix", "--config", cfg, "--out-dir", str(out)])
    assert rc == 0
    for term in ["SS", "SSSS", "CC", "CSS", "SSC", "SCSC", "CCCC"]:
        for n in range(3):
            assert (out / f"term_{term}_sector_{n}.csv").exists()


def test_export_matrix_csvs_equal_spectrum_csvs(tmp_path):
    exported, spectrum = tmp_path / "mats", tmp_path / "spectrum"
    assert cli.main(["export-matrix", "--config", write_config(tmp_path, TWO_SITE),
                     "--out-dir", str(exported)]) == 0
    assert cli.main(["spectrum", "--config", write_config(tmp_path, TWO_SITE_CSV, "csv.json"),
                     "--out-dir", str(spectrum)]) == 0
    terms = _files(exported)
    assert len(terms) == 7 * 3
    assert terms == _files(spectrum, "term_*_sector_*.csv")


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum"],
        ["spectrum", "--config", "{cfg}", "--max-n", "abc"],
        ["no-such-command", "--config", "{cfg}"],
        ["solve-pair", "--config", "{cfg}", "--max-n", "3"],
        ["export-matrix", "--config", "{cfg}", "--max-n", "3"],
    ],
    ids=["no-config", "max-n-not-int", "unknown-command", "solve-pair-max-n", "export-max-n"],
)
def test_usage_error_exits_1(tmp_path, capsys, argv):
    # exit 2 means numerical failure; argparse's own usage exit code is 2
    cfg = write_config(tmp_path, TWO_SITE)
    out = tmp_path / "o"
    rc = cli.main([arg.format(cfg=cfg) for arg in argv] + ["--out-dir", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("usage: composite-bosons") and "error: " in err
    assert not out.exists()


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["spectrum", "--help"])
    assert exc.value.code == 0
    assert "--max-n" in capsys.readouterr().out


def test_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"model":{"type":"ring","sites":1,"t":1.0,"U":-4.0}}')
    assert cli.main(["solve-pair", "--config", str(bad)]) == 1
    assert cli.main(["solve-pair", "--config", str(tmp_path / "missing.json")]) == 1


TWO_SITE_EXPLICIT = {"O": [[0.0, -1.0], [-1.0, 0.0]], "T4": [-4.0] + [0.0] * 14 + [-4.0]}


@pytest.mark.parametrize(
    "model,bound,key",
    [
        ({"type": "ring", "sites": 2, "t": 1.0, "U": math.nan}, None, "model.U"),
        ({"type": "ring", "sites": 2, "t": math.inf, "U": -4.0}, None, "model.t"),
        (
            {"type": "ring", "sites": 2, "t": 1.0, "U": -4.0},
            {"policy": "below_edge", "margin": math.nan},
            "bound.margin",
        ),
        (
            {"type": "explicit", **TWO_SITE_EXPLICIT, "O": [[0.0, "x"], [-1.0, 0.0]]},
            None,
            "model.O[0][1]",
        ),
        (
            {"type": "explicit", **TWO_SITE_EXPLICIT, "T4": [None] + [0.0] * 15},
            None,
            "model.T4[0]",
        ),
        (
            {"type": "explicit", **TWO_SITE_EXPLICIT, "T4": [0.0] * 15 + [-math.inf]},
            None,
            "model.T4[15]",
        ),
    ],
)
@pytest.mark.parametrize("command", ["solve-pair", "spectrum"])
def test_non_finite_or_non_number_config_exits_1(tmp_path, capsys, model, bound, key, command):
    doc = {"model": model} if bound is None else {"model": model, "bound": bound}
    cfg = write_config(tmp_path, doc)
    rc = cli.main([command, "--config", cfg, "--out-dir", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(f"error: {key} must be a finite number")
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "one_body, message",
    [
        ([[0.0, -1.0], [-1.0]], "model.O must be a square matrix, got rows of lengths [2, 1]"),
        ([[0.0, -1.0], [-0.5, 0.0]], "model.O is not symmetric: max |A - A^T| = 5.000e-01"),
    ],
)
@pytest.mark.parametrize("command", ["solve-pair", "spectrum"])
def test_malformed_one_body_exits_1(tmp_path, capsys, one_body, message, command):
    # ragged rows used to fail inside numpy, and an asymmetric O exited 2
    # as a numerical failure although it is a configuration error
    cfg = write_config(tmp_path, {"model": {"type": "explicit", **TWO_SITE_EXPLICIT, "O": one_body}})
    rc = cli.main([command, "--config", cfg, "--out-dir", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(f"error: {message}")
    assert "inhomogeneous" not in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_lowest_k_past_the_edge_prints_plain_floats(tmp_path, capsys):
    # the 15 pair states of a 5-site ring reach past the continuum edge
    doc = {
        "model": {"type": "ring", "sites": 5, "t": 1.0, "U": -20.0},
        "bound": {"policy": "lowest_k", "k": 15},
    }
    rc = cli.main(["solve-pair", "--config", write_config(tmp_path, doc)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: lowest_k selection includes energy -3.11")
    assert "at or above the continuum edge -3.99" in err
    assert "np.float64" not in err


def test_dump_json_seventeen_digits():
    text = cli.dump_json({"x": 1.0 / 3.0, "n": 4, "s": "a", "flag": True, "none": None})
    parsed = json.loads(text)
    assert parsed["x"] == 1.0 / 3.0  # round-trip exact
    assert "0.33333333333333331" in text


def test_dump_json_quotes_strings_like_json_dumps():
    strings = ["|1,0 ; 2⟩", 'say "hi"', "back\\slash", "tab\tnew\nline", "", "é\u2028"]
    doc = {s: [s, {"k": s}] for s in strings}
    # with no floats, the writer's layout is json.dumps(indent=2) exactly
    assert cli.dump_json(doc) == json.dumps(doc, indent=2)
    assert cli.dump_json("⟩\"\\") == json.dumps("⟩\"\\") == '"\\u27e9\\"\\\\"'


def test_dump_json_rejects_non_finite():
    with pytest.raises(ValueError, match="non-finite"):
        cli.dump_json({"x": float("nan")})


def _dense_report(columns, summary):
    # the verification report as plain data: one row per (term, bra, ket) in
    # sweep order, every row a sparse column does not list all +0.0
    rows = []
    for col in columns:
        listed = dict(zip(col.rows, zip(col.sq, col.oracle, col.diff)))
        for i, bra in enumerate(col.bras):
            sq_value, oracle_value, diff = listed.get(i, (0.0, 0.0, 0.0))
            rows.append({"term": col.term, "sector": col.sector, "bra": bra, "ket": col.ket,
                         "sq_value": sq_value, "oracle_value": oracle_value, "abs_diff": diff})
    return {"schema_version": 1, "conventions": TERM_READING, "checks": rows, "summary": summary}


def _swept(space, spectrum, sectors):
    hams = cli._sector_hamiltonians(space, spectrum, max(sectors, default=0))
    hams = [hams[n] for n in sectors]
    return list(sweep_columns(space, spectrum, hams)), verify_sectors(space, spectrum, hams)


def _two_site_sweep():
    space = build_ring_model(2, 1.0, -4.0)
    return _swept(space, space.solve_composites(LowestK(1)), range(0, 4))


def _random_sweep(sectors=range(0, 4)):
    space = random_mode_space(3, seed=20240, attraction=(40.0, 55.0))
    return _swept(space, space.solve_composites(LowestK(2)), sectors)


def _hand_made_sweep():
    # names with é, ⟩, a tab, quotes and a backslash; values with -0.0,
    # 1e-300 and ±1.8e308; each column leaves one row unlisted
    values = [0.0, -0.0, 1e-300, -2.5, 1.0 / 3.0, -1.7976931348623157e308]
    pairs = list(zip(values, reversed(values)))
    bras = ["|0,2 ; 1⟩é", 'tab\t"q"\\', "|1 ; 0⟩", "|0 ; 1⟩"]
    columns = []
    for j, rows in enumerate([[0, 1, 3], [1, 2, 3]]):
        sqs, oracles = map(list, zip(*pairs[3 * j:3 * j + 3]))
        diffs = [abs(a - b) for a, b in zip(sqs, oracles)]
        columns.append(Column("SCSC", 12, bras, bras[j + 1], rows, sqs, oracles, diffs))
    summary = {"max_abs_diff": max(d for col in columns for d in col.diff),
               "pairs_checked": sum(len(col.bras) for col in columns)}
    return columns, summary


@pytest.mark.parametrize(
    "make",
    [_two_site_sweep, _random_sweep, lambda: _random_sweep([]), _hand_made_sweep],
    ids=["two-site", "random", "no-rows", "hand-made"],
)
def test_verification_text_is_dump_json(make):
    # the streamed report is dump_json of the dense report, and the summary it
    # folds is verify_sectors'
    columns, summary = make()
    pieces = []
    written, _ = cli._write_verification(pieces.append, iter(columns))
    assert written == summary
    assert "".join(pieces) == cli.dump_json(_dense_report(columns, summary)) + "\n"


def test_verification_text_rejects_non_finite():
    columns, summary = _hand_made_sweep()
    columns[0].oracle[1] = float("nan")
    with pytest.raises(ValueError, match="non-finite"):
        cli.dump_json(_dense_report(columns, summary))
    with pytest.raises(ValueError, match="non-finite"):
        cli._write_verification(lambda text: None, columns)


@pytest.mark.parametrize(
    "rows", [[], [0], [4], [1, 2], [0, 2, 4], [0, 1, 2, 3, 4]], ids=lambda r: f"rows{r}"
)
def test_row_formatter_writes_zero_runs_as_each_row_alone(rows):
    # runs of all-zero rows are joined in one go around the listed rows;
    # the text equals the one of a column that lists every row, each row
    # formatted on its own, also for -0.0 (printed -0) and for a listed row
    # of zeros
    sqs = [v if row in rows else 0.0 for row, v in enumerate([0.0, -0.0, 0.25, 0.0, -1.5])]
    oracles = [v if row in rows else 0.0 for row, v in enumerate([0.0, 0.0, 0.25, 0.0, -1.25])]
    diffs = [abs(s - o) for s, o in zip(sqs, oracles)]
    bras = [f"|{b}⟩" for b in range(5)]

    def column(listed):
        values = [[v[i] for i in listed] for v in (sqs, oracles, diffs)]
        return Column("SS", 2, bras, "|k⟩", listed, *values)

    formatted = cli._RowFormatter()(column(rows))
    every_row = cli._RowFormatter()(column(list(range(5))))
    assert formatted == every_row
    assert formatted.count('"bra"') == 5
