"""Config parsing, CSV/JSON emission, exit codes, and byte determinism."""

from __future__ import annotations

import csv
import json
import math
import os
import stat

import numpy as np
import pytest

from bykov import ConstraintViolation, ParseError
from bykov.cli import emit_csv, main, parse_config

BASE_CONFIG = {
    "params": {"C1": 2, "E1": 1, "omega1": 1, "C2": 3, "E2": 1.5, "omega2": 2, "a": 0.5},
    "seed": {"theta0": 1.0, "z0": 0.1},
    "n_pairs": 10,
}

MATCHED_G = {"C1": 4, "E1": 2, "omega1": 7 / 3, "C2": 6, "E2": 3, "omega2": 1, "a": 0.25}


def _dump(cfg) -> bytes:
    return json.dumps(cfg).encode()


def test_parse_config_defaults():
    cfg = parse_config(_dump({"params": BASE_CONFIG["params"]}))
    assert (cfg.theta0, cfg.z0) == (1.0, 0.1)
    assert cfg.n_pairs == 12
    assert cfg.observable.kind == "piecewise_constant"
    assert (cfg.observable.g_sigma1, cfg.observable.g_sigma2) == (0.0, 1.0)
    assert cfg.tol is None
    assert cfg.params_g is None


def test_parse_config_missing_parameter_path():
    doc = {"params": {k: v for k, v in BASE_CONFIG["params"].items() if k != "a"}}
    with pytest.raises(ParseError) as err:
        parse_config(_dump(doc))
    assert "$.params.a" in str(err.value)
    assert err.value.path == "$.params.a"


def test_parse_config_error_paths():
    with pytest.raises(ParseError, match=r"\$\.params"):
        parse_config(b"{}")
    with pytest.raises(ParseError, match="top level"):
        parse_config(b"[1, 2]")
    with pytest.raises(ParseError, match="invalid JSON"):
        parse_config(b"{not json")
    doc = dict(BASE_CONFIG, n_pairs="ten")
    with pytest.raises(ParseError, match=r"\$\.n_pairs"):
        parse_config(_dump(doc))
    doc = {"params": dict(BASE_CONFIG["params"], omega1=True)}
    with pytest.raises(ParseError, match=r"\$\.params\.omega1"):
        parse_config(_dump(doc))
    doc = {"params": dict(BASE_CONFIG["params"]), "observable": {"kind": "smooth"}}
    with pytest.raises(ParseError, match=r"\$\.observable"):
        parse_config(_dump(doc))


def test_parse_config_constraint_checks_are_eager():
    doc = {"params": dict(BASE_CONFIG["params"], a=1.2)}
    with pytest.raises(ConstraintViolation, match="a must"):
        parse_config(_dump(doc))
    doc = dict(BASE_CONFIG, seed={"theta0": 0.0, "z0": 1.5})
    with pytest.raises(ConstraintViolation, match="z0"):
        parse_config(_dump(doc))
    doc = dict(BASE_CONFIG, n_pairs=0)
    with pytest.raises(ConstraintViolation, match="n_pairs"):
        parse_config(_dump(doc))
    doc = dict(BASE_CONFIG, tol=-1.0)
    with pytest.raises(ConstraintViolation, match="tol"):
        parse_config(_dump(doc))


def test_parse_config_perturbation_requires_all_fields():
    params = dict(BASE_CONFIG["params"], perturbation={"c1": 0.1, "c2": 0.1})
    with pytest.raises(ParseError, match=r"\$\.params\.perturbation\.eps"):
        parse_config(_dump({"params": params}))
    params["perturbation"]["eps"] = 0.5
    cfg = parse_config(_dump({"params": params}))
    assert cfg.params.perturbation.eps == 0.5


def test_parse_config_warns_on_unknown_keys(caplog):
    doc = dict(
        BASE_CONFIG,
        banana=1,
        params=dict(BASE_CONFIG["params"], perturbaton={"c1": 0.1}),
        seed={"theta0": 1.0, "z0": 0.1, "z00": 0.2},
        observable={"kind": "piecewise_constant", "g_sigma1": 0.0, "g_sigma2": 1.0,
                    "g_boundry": 0.5},
    )
    with caplog.at_level("WARNING", logger="bykov"):
        cfg = parse_config(_dump(doc))
    assert any("banana" in r.message for r in caplog.records)
    # a misspelt key below the top level is ignored too, and named by its path
    assert cfg.params.perturbation is None
    messages = [r.message for r in caplog.records]
    for path in ("$.params.perturbaton", "$.seed.z00", "$.observable.g_boundry"):
        assert f"ignoring unknown config key {path!r}" in messages


def test_emit_csv_roundtrip_and_quoting(tmp_path):
    rng = np.random.default_rng(1)
    values = rng.standard_normal(20) * 10.0 ** rng.integers(-8, 8, size=20)
    rows = [[i, float(v), f"note,{i}"] for i, v in enumerate(values)]
    path = tmp_path / "table.csv"
    emit_csv(rows, path, header=["i", "value", "label"])
    text = path.read_bytes().decode()
    assert "\r" not in text  # LF only
    with open(path, newline="") as f:
        back = list(csv.reader(f))
    assert back[0] == ["i", "value", "label"]
    for row, (i, v, label) in zip(back[1:], rows):
        assert float(row[1]) == v  # 17 significant digits round-trip exactly
        assert row[2] == label


def test_emit_csv_empty_and_undefined(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv([], path, header=["a", "b"])
    assert path.read_bytes() == b"a,b\n"
    path2 = tmp_path / "holes.csv"
    emit_csv([[1, math.nan, None]], path2, header=["i", "x", "y"])
    assert path2.read_bytes() == b"i,x,y\n1,,\n"


def test_simulate_writes_expected_first_row(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_bytes(_dump(BASE_CONFIG))
    out = tmp_path / "out"
    code = main(["simulate", "--config", str(cfg), "--out", str(out), "--pairs", "8"])
    assert code == 0
    with open(out / "hitting.csv", newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["index", "time", "chart", "theta_lifted", "log_coord"]
    assert len(rows) - 1 == 2 * 8 + 2
    assert rows[1][:3] == ["0", "0", "Out2"]
    np.testing.assert_allclose(float(rows[2][1]), 2.995732273553991, rtol=1e-15)
    assert rows[2][2] == "Out1"


def test_output_bytes_are_deterministic(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_bytes(_dump(BASE_CONFIG))
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        outs.append((out / "hitting.csv").read_bytes())
    assert outs[0] == outs[1]


def test_diagnostics_csv_layout(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_bytes(_dump(BASE_CONFIG))
    out = tmp_path / "out"
    assert main(["diagnostics", "--config", str(cfg), "--out", str(out)]) == 0
    with open(out / "diagnostics.csv", newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["i", "lemma1", "lemma2", "lemma3", "residual",
                       "ratio1", "ratio2", "ratio3", "ratio4"]
    # row i=0 has no backward-looking entries
    assert rows[1][1] == "" and rows[1][3] == ""
    np.testing.assert_allclose(float(rows[2][1]), math.log(2), rtol=1e-12)


def test_birkhoff_cli_certificate(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_bytes(_dump(BASE_CONFIG))
    out = tmp_path / "out"
    assert main(["birkhoff", "--config", str(cfg), "--out", str(out)]) == 0
    with open(out / "birkhoff.csv", newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["parity", "index", "time", "average", "predicted", "abs_error"]
    even_rows = [r for r in rows[1:] if r[0] == "even"]
    np.testing.assert_allclose(float(even_rows[0][3]), 4 / 7, atol=1e-12)
    np.testing.assert_allclose(float(even_rows[0][4]), 4 / 7, atol=1e-12)


def test_adjusted_csv_diff_column(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_bytes(_dump(BASE_CONFIG))
    out = tmp_path / "out"
    assert main(["adjusted", "--config", str(cfg), "--out", str(out)]) == 0
    with open(out / "adjusted.csv", newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["i", "T", "Ttil", "t_even", "t_til_even",
                       "t_odd", "t_til_odd", "diff"]
    for row in rows[1:]:
        np.testing.assert_allclose(
            float(row[3]) - float(row[4]), float(row[7]), atol=1e-9
        )


def test_conjugacy_cli_verdicts_and_exit_codes(tmp_path):
    matched = dict(BASE_CONFIG, params_g=MATCHED_G)
    cfg = tmp_path / "ok.json"
    cfg.write_bytes(_dump(matched))
    out = tmp_path / "ok"
    assert main(["conjugacy", "--config", str(cfg), "--out", str(out)]) == 0
    doc = json.loads((out / "conjugacy.json").read_text())
    assert set(doc) == {"verdict", "max_dev", "deviations", "image"}
    assert doc["verdict"] is True
    assert doc["max_dev"] < 1e-8
    np.testing.assert_allclose(doc["image"]["z0"], 0.01, rtol=1e-10)
    np.testing.assert_allclose(doc["image"]["rho1"], 6.25e-6, rtol=1e-10)
    assert len(doc["deviations"]) == 2 * 10 + 2

    bad = dict(matched, params_g=dict(MATCHED_G, C2=6.6))
    cfg2 = tmp_path / "bad.json"
    cfg2.write_bytes(_dump(bad))
    out2 = tmp_path / "bad"
    assert main(["conjugacy", "--config", str(cfg2), "--out", str(out2)]) == 2
    doc2 = json.loads((out2 / "conjugacy.json").read_text())
    assert doc2["verdict"] is False

    cfg3 = tmp_path / "none.json"
    cfg3.write_bytes(_dump(BASE_CONFIG))
    assert main(["conjugacy", "--config", str(cfg3), "--out", str(tmp_path / "x")]) == 1


def test_cli_error_exit_codes(tmp_path):
    missing = tmp_path / "nope.json"
    assert main(["simulate", "--config", str(missing), "--out", str(tmp_path)]) == 1
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"params": {"C1": 2}}')
    assert main(["simulate", "--config", str(bad), "--out", str(tmp_path)]) == 1


def test_pairs_override_wins_over_config(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_bytes(_dump(dict(BASE_CONFIG, n_pairs=4)))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out), "--pairs", "2"]) == 0
    with open(out / "hitting.csv", newline="") as f:
        assert len(list(csv.reader(f))) - 1 == 2 * 2 + 2


@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
@pytest.mark.parametrize("subcommand", ["birkhoff", "conjugacy"])
def test_tol_option_is_checked_like_the_config(tmp_path, capsys, subcommand, tol):
    cfg = tmp_path / "c.json"
    cfg.write_bytes(_dump(dict(BASE_CONFIG, params_g=MATCHED_G)))
    argv = [subcommand, "--config", str(cfg), "--out", str(tmp_path / "out"), "--tol", tol]
    assert main(argv) == 1
    assert "tol" in capsys.readouterr().err


def test_oversized_integer_is_a_parse_error(tmp_path, capsys):
    text = json.dumps(BASE_CONFIG).replace('"a": 0.5', '"a": 1' + "0" * 400)
    with pytest.raises(ParseError) as err:
        parse_config(text)
    assert err.value.path == "$.params.a"
    assert "finite" in str(err.value)
    cfg = tmp_path / "c.json"
    cfg.write_text(text)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert "$.params.a" in capsys.readouterr().err


def test_usage_errors_exit_1_and_help_exits_0(capsys):
    for argv in (["simulate"], ["verify-all", "--pairs", "0"], []):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1, argv
        assert "usage: bykov" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--help"])
    assert exc.value.code == 0


@pytest.mark.parametrize(
    "argv",
    [["simulate", "--tol", "5"], ["diagnostics", "--tol", "5"], ["adjusted", "--tol", "5"],
     ["verify-all", "--config", "c.json"], ["verify-all", "--pairs", "0"],
     ["verify-all", "--tol", "-1"]],
    ids=lambda argv: "-".join(argv[:2]),
)
def test_each_subcommand_takes_only_the_options_it_reads(tmp_path, capsys, argv):
    cfg = tmp_path / "c.json"
    cfg.write_bytes(_dump(BASE_CONFIG))
    if argv[0] != "verify-all":
        argv = argv + ["--config", str(cfg), "--out", str(tmp_path / "out")]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert f"unrecognized arguments: {' '.join(argv[1:3])}" in capsys.readouterr().err


def test_verify_all_writes_no_files(tmp_path, capsys):
    out = tmp_path / "X"
    assert main(["verify-all", "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "9/9 checks passed"
    assert not out.exists()


def test_output_files_get_the_umask_mode(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_bytes(_dump(BASE_CONFIG))
    out = tmp_path / "out"
    umask = os.umask(0o022)
    try:
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    finally:
        os.umask(umask)
    assert stat.S_IMODE((out / "hitting.csv").stat().st_mode) == 0o644
