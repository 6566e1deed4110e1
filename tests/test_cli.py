import json
import math

import pytest

from composite_bosons import cli


TWO_SITE = {
    "model": {"type": "ring", "sites": 2, "t": 1.0, "U": -4.0},
    "truncation": {"n_max": 2},
    "bound": {"policy": "lowest_k", "k": 1},
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


def test_spectrum_deterministic(tmp_path):
    cfg = write_config(tmp_path, TWO_SITE)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["spectrum", "--config", cfg, "--out-dir", str(out1)]) == 0
    assert cli.main(["spectrum", "--config", cfg, "--out-dir", str(out2)]) == 0
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    assert (out1 / "sector_2_eigs.csv").read_bytes() == (out2 / "sector_2_eigs.csv").read_bytes()


def test_spectrum_csv_format_writes_term_blocks(tmp_path):
    doc = dict(TWO_SITE)
    doc["output"] = {"formats": ["json", "csv"]}
    cfg = write_config(tmp_path, doc)
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

    def fake_verify(space, spectrum, sectors):
        return {
            "schema_version": 1,
            "conventions": {},
            "checks": [],
            "summary": {"max_abs_diff": 1e-6, "pairs_checked": 1},
        }

    monkeypatch.setattr(cli, "verify_sectors", fake_verify)
    rc = cli.main(["verify", "--config", cfg, "--out-dir", str(tmp_path / "o")])
    assert rc == 3


def test_hermiticity_error_exit_code(tmp_path, monkeypatch, capsys):
    from composite_bosons.hamiltonian import HermiticityError

    cfg = write_config(tmp_path, TWO_SITE)

    def fake_assemble(*args, **kwargs):
        raise HermiticityError("assembled sector matrix asymmetry 1.000e-06 exceeds 1.0e-12")

    monkeypatch.setattr(cli, "assemble_hamiltonian", fake_assemble)
    rc = cli.main(["spectrum", "--config", cfg, "--out-dir", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: assembled sector matrix asymmetry")
    assert err.count("\n") == 1


def test_verify_max_n_guard(tmp_path):
    cfg = write_config(tmp_path, TWO_SITE)
    rc = cli.main(["verify", "--config", cfg, "--max-n", "7"])
    assert rc == 1


def test_export_matrix(tmp_path):
    out = tmp_path / "mats"
    cfg = write_config(tmp_path, TWO_SITE)
    rc = cli.main(["export-matrix", "--config", cfg, "--out-dir", str(out)])
    assert rc == 0
    for term in ["SS", "SSSS", "CC", "CSS", "SSC", "SCSC", "CCCC"]:
        for n in range(3):
            assert (out / f"term_{term}_sector_{n}.csv").exists()


def test_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"model":{"type":"ring","sites":1,"t":1.0,"U":-4.0}}')
    assert cli.main(["solve-pair", "--config", str(bad)]) == 1
    assert cli.main(["solve-pair", "--config", str(tmp_path / "missing.json")]) == 1


def test_dump_json_seventeen_digits():
    text = cli.dump_json({"x": 1.0 / 3.0, "n": 4, "s": "a", "flag": True, "none": None})
    parsed = json.loads(text)
    assert parsed["x"] == 1.0 / 3.0  # round-trip exact
    assert "0.33333333333333331" in text


def test_dump_json_rejects_non_finite():
    with pytest.raises(ValueError, match="non-finite"):
        cli.dump_json({"x": float("nan")})
