"""Self-test of the output checker: real outputs pass, corrupted copies fail.

Run from the repository root: python3 -m pytest -q bench/test_check.py
"""
from __future__ import annotations

import shutil
import subprocess
from pathlib import Path

import pytest

import workloads
from check import Checker
from run import ROOT, child_env, cli_argv

SEED = 5


def _run(command: workloads.Command) -> None:
    proc = subprocess.run(cli_argv(command), cwd=ROOT, env=child_env(1),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Real CLI outputs on small inputs: the three-phase preset and a short risk study."""
    base = tmp_path_factory.mktemp("outputs")
    daily, risk = base / "daily", base / "risk"
    _run(workloads.synth(daily, SEED, "--preset", "three-phase"))
    _run(workloads.synth(risk, SEED, "--preset", "risk-study"))
    commands = {
        "gap": workloads.gap(daily, base / "gap", step=10),
        "entropy": workloads.entropy(daily, base / "entropy", workloads.event_date(daily)),
        "portfolio": workloads.portfolio(risk, base / "portfolio", SEED,
                                         workloads.event_date(risk), portfolios=20),
    }
    for command in commands.values():
        _run(command)
    return {"daily": daily, "risk": risk, **commands}


def _check(outputs, label: str, out_dir: Path | None = None):
    command = outputs[label]
    if out_dir is not None:
        command = workloads.Command(command.label, command.argv, out_dir, command.params)
    inputs = outputs["risk" if label == "portfolio" else "daily"]
    return Checker(inputs, SEED).check(command)


def _copy(outputs, label: str, tmp_path: Path) -> Path:
    return Path(shutil.copytree(outputs[label].out_dir, tmp_path / label))


@pytest.mark.parametrize("label,windows", [("gap", 36 * 6), ("entropy", 0),
                                           ("portfolio", 18 * 20 * 2)])
def test_real_outputs_pass(outputs, label, windows):
    assert _check(outputs, label) == ([], windows)


def test_changed_lambda_max_digit_fails(outputs, tmp_path):
    out = _copy(outputs, "gap", tmp_path)
    path = out / "gap_SYN.csv"
    lines = path.read_text(encoding="utf-8").split("\n")
    fields = lines[2].split(",")
    lambda_max = fields[2]
    assert lambda_max[-1].isdigit(), lambda_max
    fields[2] = lambda_max[:-1] + str((int(lambda_max[-1]) + 5) % 10)  # 9th digit moves by 5
    lines[2] = ",".join(fields)
    path.write_text("\n".join(lines), encoding="utf-8")
    errors, _ = _check(outputs, "gap", out)
    assert any("lambda_max" in e for e in errors), errors


@pytest.mark.parametrize("cut", ["row", "byte"])
def test_truncated_observations_fail(outputs, tmp_path, cut):
    out = _copy(outputs, "portfolio", tmp_path)
    path = out / "observations.csv"
    text = path.read_text(encoding="utf-8")
    if cut == "row":
        text = "\n".join(text.split("\n")[:-11]) + "\n"  # drop the last 10 rows
    else:
        text = text[:len(text) // 2]
    path.write_text(text, encoding="utf-8")
    errors, _ = _check(outputs, "portfolio", out)
    assert errors


def test_entropy_probabilities_not_summing_to_one_fail(outputs, tmp_path):
    out = _copy(outputs, "entropy", tmp_path)
    path = out / "entropy_SYN.csv"
    lines = path.read_text(encoding="utf-8").split("\n")
    fields = lines[10].split(",")
    fields[3] = format(float(fields[3]) + 0.01, ".9g")  # p0
    lines[10] = ",".join(fields)
    path.write_text("\n".join(lines), encoding="utf-8")
    errors, _ = _check(outputs, "entropy", out)
    assert any("sum to" in e for e in errors), errors
