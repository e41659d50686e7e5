import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from imputed_ridge.cli import build_parser, main


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory):
    rng = np.random.default_rng(23)
    m, d = 120, 4
    X = rng.random((m, d))
    y = X @ np.array([1.0, -1.0, 0.5, 2.0]) + 0.05 * rng.standard_normal(m)
    path = tmp_path_factory.mktemp("cli") / "data.csv"
    with open(path, "w") as fh:
        for i in range(m):
            fh.write(",".join(f"{v:.7f}" for v in X[i]) + f",{y[i]:.7f}\n")
    return str(path)


COMMON = [
    "--train-size", "50",
    "--trials", "2",
    "--grid=-5,-3,-1",  # leading dash needs the = form under argparse
    "--beta", "0.5",
]


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_parser_defaults(data_csv):
    args = build_parser().parse_args(["bench", "--data", data_csv, "--out", "r.json"])
    assert args.corruption == "independent"
    assert args.label_col == -1
    assert args.trials == 5
    assert args.grid == tuple(range(-12, 11))


def test_bench_writes_json_and_tsv(data_csv, tmp_path, capsys):
    out = tmp_path / "report.json"
    tsv = tmp_path / "report.tsv"
    code = main(
        ["bench", "--data", data_csv, "--out", str(out), "--tsv", str(tsv)]
        + COMMON
        + ["--methods", "zero,irr"]
    )
    assert code == 0
    obj = json.loads(out.read_text())
    assert set(obj["methods"]) == {"zero", "irr"}
    assert obj["corruption"]["kind"] == "independent"
    assert obj["corruption"]["beta"] == 0.5
    assert obj["trials"] == 2
    assert tsv.read_text().count("\n") == 2
    printed = capsys.readouterr().out
    assert "rmse" in printed


def test_bench_deterministic(data_csv, tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        code = main(
            ["bench", "--data", data_csv, "--out", str(out)]
            + COMMON
            + ["--methods", "zero,mean"]
        )
        assert code == 0
        obj = json.loads(out.read_text())
        obj.pop("runtime_seconds")
        outs.append(obj)
    assert outs[0] == outs[1]


def test_bench_missing_rate_is_error(data_csv, tmp_path, capsys):
    code = main(
        ["bench", "--data", data_csv, "--out", str(tmp_path / "r.json"),
         "--corruption", "dependent", "--trials", "1", "--train-size", "40"]
    )
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


def test_bench_nonexistent_file(tmp_path, capsys):
    code = main(
        ["bench", "--data", str(tmp_path / "nope.csv"), "--out",
         str(tmp_path / "r.json"), "--beta", "0.5"]
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_solver_config_file(data_csv, tmp_path):
    cfg = tmp_path / "solver.json"
    cfg.write_text('{"tol": 1e-2, "max_outer": 30, "inner_steps": 100}')
    out = tmp_path / "r.json"
    code = main(
        ["bench", "--data", data_csv, "--out", str(out), "--solver-config", str(cfg)]
        + COMMON
        + ["--methods", "irr"]
    )
    assert code == 0
    assert "irr" in json.loads(out.read_text())["methods"]


@pytest.mark.parametrize(
    "text", ['{"max_iter": 5}', "[1, 2]", '{"max_outer": 2.7}', '{"inner_steps": true}']
)
def test_solver_config_file_rejected(data_csv, tmp_path, capsys, text):
    cfg = tmp_path / "solver.json"
    cfg.write_text(text)
    code = main(
        ["bench", "--data", data_csv, "--out", str(tmp_path / "r.json"),
         "--solver-config", str(cfg)]
        + COMMON
        + ["--methods", "irr"]
    )
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


def test_sweep_writes_tsv(data_csv, tmp_path):
    out = tmp_path / "sweep.tsv"
    code = main(
        ["sweep", "--data", data_csv, "--out", str(out),
         "--fractions", "0.9,0.75", "--methods", "zero,mean",
         "--train-size", "50", "--trials", "2", "--grid=-4,-2"]
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("fraction\t")
    assert len(lines) == 5  # header + 2 fractions x 2 methods


def test_sweep_empty_fractions_rejected(data_csv, tmp_path, capsys):
    """An empty --fractions is an error, with or without --beta."""
    out = tmp_path / "sweep.tsv"
    for beta in ([], ["--beta", "0.3"]):
        code = main(
            ["sweep", "--data", data_csv, "--out", str(out), "--fractions", "",
             "--methods", "zero", "--train-size", "50", "--trials", "1"] + beta
        )
        assert code == 1
        assert "at least one observed fraction" in capsys.readouterr().err
        assert not out.exists()


def test_digits_one_vs_all(data_csv, tmp_path):
    rng = np.random.default_rng(31)
    digits = tmp_path / "digits.csv"
    with open(digits, "w") as fh:
        for _ in range(120):
            row = [f"{rng.random():.6f}" for _ in range(4)]
            fh.write(",".join(row) + f",{rng.integers(0, 10)}\n")
    out = tmp_path / "digits.json"
    code = main(
        ["digits", "--data", str(digits), "--digit", "3", "--out", str(out),
         "--block-size", "2", "--eligible-blocks", "0,1",
         "--train-size", "50", "--trials", "2", "--grid=-4,-2,0",
         "--methods", "zero,irr"]
    )
    assert code == 0
    obj = json.loads(out.read_text())
    assert obj["corruption"]["kind"] == "column"
    assert obj["corruption"]["block_size"] == 2
    assert obj["fraction_remaining"]["mean"] == pytest.approx(0.5)


def test_digits_bad_digit(data_csv, tmp_path, capsys):
    code = main(
        ["digits", "--data", data_csv, "--digit", "11",
         "--out", str(tmp_path / "r.json"), "--trials", "1", "--train-size", "40"]
    )
    assert code == 1
    assert "digit" in capsys.readouterr().err


def test_import_loads_no_scipy():
    """The package and its CLI run on numpy alone."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    code = "import sys, imputed_ridge, imputed_ridge.cli; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "False"
