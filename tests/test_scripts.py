"""Smoke tests of scripts/: each runs as a subprocess on small inputs, exits
0 and writes a CSV with the expected header."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RECORD_HEADER = "exp_id,algebra,p,d,m,s,sigma,t,op,x_coords,count,exponent,seed"


def _run(script, *args, cwd):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return subprocess.run([sys.executable, os.path.join(ROOT, "scripts", script),
                           *args], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=120)


def _header(path):
    """The first line of a CSV that is not a '# config' comment."""
    with open(path) as fh:
        return next(ln.rstrip("\r\n") for ln in fh if not ln.startswith("#"))


@pytest.mark.parametrize("script,args,outputs,header", [
    ("run_counterexamples.py", ["--m", "3", "--out-prefix", "ce"],
     ["ce_one.csv", "ce_two.csv"], RECORD_HEADER),
    ("run_expansion.py", ["--m", "4", "--out", "expansion.csv"],
     ["expansion.csv"], RECORD_HEADER),
    ("run_inequality_ledger.py", ["--trials", "3", "--m", "4", "--out", "ledger.csv"],
     ["ledger.csv"], "instance,lhs,rhs,slack"),
], ids=["counterexamples", "expansion", "ledger"])
def test_script_runs_and_writes_csv(tmp_path, script, args, outputs, header):
    proc = _run(script, *args, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    for name in outputs:
        assert _header(tmp_path / name) == header
    assert not list(tmp_path.glob("*.tmp"))


@pytest.mark.parametrize("script,args,env,code,line", [
    ("run_expansion.py", ["--m", "5", "--out", "expansion.csv"],
     {"DLAB_BUDGET_POINTS": "1000"}, 3, "dlab: budget exhausted: sumset:"),
    ("run_counterexamples.py", ["--m", "0"], {}, 2, "dlab: precision exponent"),
], ids=["budget", "validation"])
def test_script_errors_exit_like_the_cli(tmp_path, monkeypatch, script, args, env, code, line):
    """A script ends on a dlab error as the CLI does: one line on standard
    error and exit 3 for an exhausted budget, 2 for any other error, with no
    traceback."""
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    proc = _run(script, *args, cwd=tmp_path)
    assert proc.returncode == code
    assert proc.stderr.startswith(line) and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr
