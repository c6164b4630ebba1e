"""One op per workload, each followed by the check of its output.

Every library call goes through a module attribute (``jacobi.reconstruct``,
not a name bound at import), so the traced run can swap in its wrappers.
Tolerances are the pinned ones of the acceptance suite:

* continued-fraction oracle against m_value: <= 1e-6;
* flow against the Riccati oracle (schrodinger jobs): <= 1e-6, moments
  inside R^(n+2);
* reflectionless residual: <= 10 eta;
* Jacobi windows: a_n >= 1 and the adjacent-ratio bounds.

An op returns a dict of what it observed; a failed check raises OpFailed.
"""

from __future__ import annotations

import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import time
from contextlib import redirect_stderr
from pathlib import Path

import numpy as np

from reflectionless import cli, errors, herglotz, jacobi, measure

ORACLE_TOL = 1e-6
RICCATI_TOL = 1e-6
RESIDUAL_ETAS = 10.0
ENVELOPE_SLACK = 1e-9
ETA = 1e-4
RESIDUAL_GRID = 512
CLI_TIMEOUT_S = 60


class OpFailed(Exception):
    """An op's output broke one of the benchmark's checks."""


class KnownDefect(OpFailed):
    """A CLI job failed in exactly the way its known defect names."""


def _require(cond, message):
    if not cond:
        raise OpFailed(message)


def load(m):
    """(Measure, Setting) from a generated measure dict."""
    sigma = measure.Measure.with_pieces(
        [(a["t"], a["w"]) for a in m["atoms"]],
        [(p["a"], p["b"], p["cheb"]) for p in m["pieces"]],
    )
    if m["setting"] == "jacobi":
        return sigma, herglotz.Setting.jacobi(m["R"])
    return sigma, herglotz.Setting.schrodinger(m["R"])


# ---------------------------------------------------------------------------
# jacobi-deep


def check_window(window, setting):
    a = np.asarray(window.a)
    _require(float(np.min(a)) >= 1.0, f"a_n >= 1 violated: min a = {np.min(a)!r}")
    try:
        ratios = jacobi.prop311_check(window, setting.r)
    except errors.FreeOperator:
        return
    _require(ratios.passed, f"ratio bound violated by {-ratios.worst_margin:.3e}")


def oracle_residual(window, sigma, setting):
    z = np.asarray(cli.ORACLE_GRID)
    worst = 0.0
    for side in ("plus", "minus"):
        approx = jacobi.m_oracle(window, z, side)
        exact = np.array([herglotz.m_value(sigma, setting, zz, side) for zz in z])
        worst = max(worst, float(np.max(np.abs(approx - exact))))
    return worst


def jacobi_op(op):
    sigma, setting = load(op["measure"])
    window = jacobi.reconstruct(sigma, setting, op["N"])
    check_window(window, setting)
    worst = oracle_residual(window, sigma, setting)
    _require(worst <= ORACLE_TOL, f"oracle residual {worst:.3e} > {ORACLE_TOL}")
    return {"oracle_residual": worst}


# ---------------------------------------------------------------------------
# cli-jobs


def job_argv(job, job_dir):
    """argv for one CLI job: its measure goes into job_dir/input.json."""
    argv = list(job["argv"])
    if "measure" in job:
        path = job_dir / "input.json"
        path.write_text(json.dumps(job["measure"], allow_nan=True))
        argv += ["--input", str(path)]
    return argv + ["--out", str(job_dir / "out")]


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def run_cli_subprocess(job, job_dir, env):
    """One job in a fresh interpreter; returns (exit status, stderr, wall s)."""
    argv = job_argv(job, job_dir)
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "reflectionless.cli", *argv],
            env=env, capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
            cwd=job_dir,
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        return None, f"no exit within {CLI_TIMEOUT_S} s", time.perf_counter() - t0
    return proc.returncode, proc.stderr, time.perf_counter() - t0


def run_cli_in_process(job, job_dir):
    """The same job through cli.main in this process.  An exception that
    escapes main is what a user would see: exit 1 and a traceback."""
    argv = job_argv(job, job_dir)
    err = io.StringIO()
    with redirect_stderr(err):
        try:
            status = cli.main(argv)
        except Exception as exc:  # noqa: BLE001 - classified, not swallowed
            return 1, f"Traceback (most recent call last):\n{type(exc).__name__}: {exc}\n"
    return status, err.getvalue()


def _strict_json(path):
    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(Path(path).read_text(), parse_constant=refuse)


def _csv_rows(path):
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    _require(rows and all(len(r) == len(header) for r in rows), f"{path.name}: ragged rows")
    _require(all(math.isfinite(v) for r in rows for v in r), f"{path.name}: non-finite value")
    return header, np.array(rows)


def _check_artifacts(out):
    """Every artifact parses as strict JSON or finite CSV."""
    for path in sorted(out.iterdir()):
        try:
            if path.suffix == ".json":
                _strict_json(path)
            elif path.suffix == ".csv":
                _csv_rows(path)
        except ValueError as exc:
            raise OpFailed(f"{path.name}: {exc}") from None


def _check_results(job, out, status):
    """Numerical checks on the artifacts of a valid job; returns what they
    observed."""
    seen = {}
    R = None
    if "measure" in job:
        R = job["measure"]["R"]
    if (out / "admissibility.json").exists():
        rep = _strict_json(out / "admissibility.json")
        _require(rep["passed"] is (status == 0), "admissibility verdict disagrees with exit code")
        R = rep["R"]
    if (out / "jacobi_window.csv").exists():
        _, rows = _csv_rows(out / "jacobi_window.csv")
        window = jacobi.JacobiWindow(
            int(rows[0, 0]), int(rows[-1, 0]), tuple(rows[:, 1]), tuple(rows[:, 2]), R
        )
        check_window(window, herglotz.Setting.jacobi(R))
        worst = _strict_json(out / "oracle_residual.json")["max_abs_residual"]
        _require(worst <= ORACLE_TOL, f"oracle residual {worst:.3e} > {ORACLE_TOL}")
        seen["oracle_residual"] = worst
    if (out / "potential_trace.csv").exists():
        header, rows = _csv_rows(out / "potential_trace.csv")
        n_sig = len(header) - 2
        envelope = R ** (np.arange(n_sig) + 2.0) * (1.0 + ENVELOPE_SLACK)
        _require(bool(np.all(np.abs(rows[:, 2:]) <= envelope)), "moment envelope violated")
        mismatch = _strict_json(out / "riccati_residual.json")["max_abs_mismatch"]
        _require(mismatch <= RICCATI_TOL, f"Riccati mismatch {mismatch:.3e} > {RICCATI_TOL}")
        seen["riccati_mismatch"] = mismatch
    if (out / "verify.json").exists():
        ratio = _strict_json(out / "verify.json")["residual_over_eta"]
        _require(ratio <= RESIDUAL_ETAS, f"residual {ratio:.3g} eta > {RESIDUAL_ETAS} eta")
        seen["residual"] = ratio * ETA
    return seen


EXPECTED_ARTIFACTS = {
    "check": ("admissibility.json",),
    "jacobi": ("jacobi_window.csv", "oracle_residual.json"),
    "schrodinger": ("potential_trace.csv", "riccati_residual.json"),
    "verify": ("verify.json",),
    "example": ("admissibility.json", "verify.json"),
}


def is_known_defect(job, status, stderr):
    """Whether the job failed in exactly the way its known defect names."""
    known = job.get("known_defect")
    if known is None or status != known["status"]:
        return False
    lines = stderr.splitlines()
    last = lines[-1] if lines else ""
    has_traceback = "Traceback (most recent call last)" in stderr
    return has_traceback == known["traceback"] and re.fullmatch(known["stderr"], last) is not None


def check_cli(job, status, stderr, out):
    """The CLI contract plus, for valid jobs, the numerical checks.

    Contract: exit 0 or 2 with artifacts that parse, or exit 1 with exactly
    one JSON line on stderr; never a traceback.  Raises KnownDefect when the
    job failed in its named known way, OpFailed on any other failure;
    returns the values the numerical checks observed.
    """
    if is_known_defect(job, status, stderr):
        raise KnownDefect(job["known_defect"]["note"])
    _require("Traceback" not in stderr, "Python traceback on stderr")
    _require(status == job["expect"], f"exit {status}, expected {job['expect']}")
    if status == 1:
        lines = stderr.splitlines()
        _require(len(lines) == 1, f"{len(lines)} stderr lines, expected one JSON line")
        try:
            payload = json.loads(lines[0])
        except ValueError:
            raise OpFailed("stderr line is not JSON") from None
        _require(isinstance(payload, dict) and "error" in payload, "stderr JSON has no error")
        return {}
    for name in EXPECTED_ARTIFACTS[job["argv"][0]]:
        _require((out / name).exists(), f"missing artifact {name}")
    _check_artifacts(out)
    return _check_results(job, out, status)


def cli_env(src):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env
