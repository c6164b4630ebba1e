"""Batch command-line front end.

One job per invocation: parse a measure (JSON file or built-in preset), run
one of check / jacobi / schrodinger / verify / example, and write CSV + JSON
artifacts into the output directory.  Output is deterministic: sorted JSON
keys, 17-significant-digit CSV values, LF line endings.  Exit codes: 0 on
success, 1 on errors (machine-readable JSON on stderr), 2 when an
admissibility check fails.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import measure, presets
from .errors import (
    AdmissibilityRequired,
    BadParameter,
    IoError,
    NonFiniteOutput,
    ReflectionlessError,
    SchemaError,
)
from .herglotz import (
    Setting,
    admissibility,
    default_residual_grid,
    m_value,
    reflectionless_residual,
)
from .jacobi import MAX_ORDER, ORACLE_GRID, oracle_residual, reconstruct
from .measure import Measure, moment
from .schrodinger import MIN_FLOW_ORDER, default_step, flow_budget, integrate_flow, riccati_mismatch

COMMANDS = ("check", "jacobi", "schrodinger", "verify", "example")


@dataclass(frozen=True)
class Job:
    command: str
    measure: Measure
    setting: Setting
    params: dict  # N, eta, grid, x_max, step


def _finite(val, pointer):
    """A JSON number as a float, refused unless it is finite."""
    if not isinstance(val, (int, float)) or isinstance(val, bool):
        raise SchemaError(pointer, f"expected a number, got {type(val).__name__}")
    try:
        val = float(val)
    except OverflowError:  # an integer beyond the float range
        val = math.inf
    if not math.isfinite(val):
        raise SchemaError(pointer, f"expected a finite number, got {val!r}")
    return val


def _require(obj, key, pointer, kind=None):
    """obj[key]: a finite number as a float when kind is None, else a kind."""
    if key not in obj:
        raise SchemaError(f"{pointer}/{key}", "missing required field")
    val = obj[key]
    if kind is None:
        return _finite(val, f"{pointer}/{key}")
    if not isinstance(val, kind):
        raise SchemaError(f"{pointer}/{key}", f"expected {kind.__name__}, got {type(val).__name__}")
    return val


def _objects(obj, key):
    """(pointer, item) for each object in the list obj[key], which may be absent."""
    items = obj.get(key, [])
    if not isinstance(items, list):
        raise SchemaError(f"/{key}", "expected a list")
    for i, item in enumerate(items):
        if not isinstance(item, dict):
            raise SchemaError(f"/{key}/{i}", "expected an object")
        yield f"/{key}/{i}", item


_PARAM_KEYS = ("N", "eta", "grid", "x_max", "step")
# largest accepted grid: one beyond it can exhaust memory or run for minutes
MAX_GRID = 512


def _json_object(json_text):
    """The JSON object in a str or bytes document, or a SchemaError."""
    try:
        obj = json.loads(json_text)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SchemaError("", f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise SchemaError("", "job must be a JSON object")
    return obj


def _parse_job(command, obj):
    """Validated Job for a subcommand from a decoded job object: the one check
    of every field, then of the measure, which the flow budget counts."""
    if command == "example":
        name = _require(obj, "name", "", str)
        fields = {key: _finite(obj[key], f"/{key}") for key in ("epsilon", "mass") if key in obj}
        try:
            mu, setting = presets.get(name, **fields)
        except BadParameter as exc:
            # each preset reads one field; only an unknown name is the name's fault
            pointer = {"soliton": "/epsilon", "delta0": "/mass"}.get(name, "/name")
            raise SchemaError(pointer, str(exc)) from None
    else:
        setting_kind = _require(obj, "setting", "", str)
        if setting_kind not in ("jacobi", "schrodinger"):
            raise SchemaError("/setting", f"unknown setting {setting_kind!r}")
        if command in ("jacobi", "schrodinger") and setting_kind != command:
            raise SchemaError("/setting", f"the {command} command needs the {command} setting")
        R = _require(obj, "R", "")
        atoms = [(_require(atom, "t", p), _require(atom, "w", p)) for p, atom in _objects(obj, "atoms")]
        pieces = []
        for p, piece in _objects(obj, "pieces"):
            a, b = _require(piece, "a", p), _require(piece, "b", p)
            cheb = _require(piece, "cheb", p, list)
            pieces.append((a, b, tuple(_finite(c, f"{p}/cheb/{j}") for j, c in enumerate(cheb))))
        mu = Measure.with_pieces(atoms, pieces)
        setting = Setting.jacobi(R) if setting_kind == "jacobi" else Setting.schrodinger(R)
    params = {"N": 40, "eta": 1e-4, "grid": MAX_GRID, "x_max": 0.8 / setting.R, "step": default_step(setting.R)}

    for key in _PARAM_KEYS:
        if key in obj:
            val = _finite(obj[key], f"/{key}")
            if key in ("N", "grid"):
                if not val.is_integer():
                    raise SchemaError(f"/{key}", f"expected an integer, got {val!r}")
                if val < 1:
                    raise SchemaError(f"/{key}", f"must be at least 1, got {val:g}")
                most = MAX_ORDER if key == "N" else MAX_GRID
                if val > most:
                    raise SchemaError(f"/{key}", f"must be at most {most}, got {val:g}")
                val = int(val)
            elif not val > 0.0:
                raise SchemaError(f"/{key}", f"must be positive, got {val!r}")
            params[key] = val
    flow = setting.kind == "schrodinger" and command in ("schrodinger", "example")
    if flow and params["N"] < MIN_FLOW_ORDER:
        raise SchemaError("/N", f"must be at least {MIN_FLOW_ORDER} for the flow, got {params['N']}")
    measure.validate(mu, setting)  # after every field, so a bad field wins over a bad measure
    if flow:
        try:
            flow_budget(mu, params["N"], params["x_max"] / params["step"])
        except BadParameter as exc:
            raise SchemaError("/step", str(exc)) from None

    return Job(command=command, measure=mu, setting=setting, params=params)


# ---------------------------------------------------------------------------
# deterministic emission


def _fmt(value):
    return format(float(value), ".17g")


def emit_json(report, path):
    try:
        text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False)
    except ValueError:
        raise NonFiniteOutput(f"non-finite value in {Path(path).name}") from None
    _write(path, text + "\n")


def emit_csv(header, table, path):
    """A float table under its header, one pass; a row holding a non-finite
    value is refused by its first cell."""
    finite = np.isfinite(table).all(axis=1)
    if not finite.all():
        first = _fmt(table[np.argmin(finite), 0])
        raise NonFiniteOutput(f"non-finite value in {Path(path).name}, row {first}")
    lines = [",".join(header)]
    lines.extend(",".join(map(_fmt, row)) for row in table.tolist())
    _write(path, "\n".join(lines) + "\n")


def _write(path, text):
    try:
        Path(path).write_text(text, newline="\n")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from None


# ---------------------------------------------------------------------------
# commands


def run_check(job, out):
    setting = job.setting
    rep = admissibility(job.measure, setting)
    emit_json(
        {
            "R": setting.R,
            "argmin": rep.argmin,
            "min_value": rep.min_value,
            "passed": rep.passed,
            "samples": [[e, v] for e, v in rep.samples],
            "setting": setting.kind,
        },
        out / "admissibility.json",
    )
    return 0 if rep.passed else 2


def run_jacobi(job, out):
    N, setting = job.params["N"], job.setting
    window = reconstruct(job.measure, setting, N)
    table = np.column_stack([np.arange(window.n_min, window.n_max + 1), window.a, window.b])
    emit_csv(("n", "a_n", "b_n"), table, out / "jacobi_window.csv")
    emit_json(
        {
            "N": N,
            "max_abs_residual": oracle_residual(window, job.measure, setting),  # a NaN is refused
            "z_grid": [[z.real, z.imag] for z in ORACLE_GRID],
        },
        out / "oracle_residual.json",
    )
    return 0


def run_schrodinger(job, out):
    N, R = job.params["N"], job.setting.R
    trace = integrate_flow(job.measure, N, R, job.params["x_max"], step=job.params["step"])
    n_sig = min(N, 8) + 1
    header = ["x", "V"] + [f"sigma_{k}" for k in range(n_sig)]
    table = np.column_stack([trace.xs, trace.V, trace.moments(n_sig)])
    emit_csv(header, table, out / "potential_trace.csv")

    ws = np.array([0.3 / R, 0.3j / R, -0.3 / R])
    mismatch, _ = riccati_mismatch(trace, ws)
    emit_json(
        {
            "N": N,
            "est_error": trace.est_error,
            "max_abs_mismatch": mismatch,
            "w_values": [[w.real, w.imag] for w in ws],
            "x_max": float(trace.xs[-1]),
        },
        out / "riccati_residual.json",
    )
    return 0


def run_verify(job, out):
    eta, setting = job.params["eta"], job.setting
    grid = default_residual_grid(setting, job.params["grid"])
    residual = reflectionless_residual(job.measure, setting, grid, eta)
    payload = {
        "eta": eta,
        "grid": [float(x) for x in grid],
        "residual": residual,
        "residual_over_eta": residual / eta,
        "setting": setting.kind,
    }
    if setting.kind == "jacobi":
        y = 1e6
        val = y * m_value(job.measure, setting, 1j * y, "plus")
        payload["asymptotic_y_m_plus_iy"] = [val.real, val.imag]
        payload["asymptotic_error"] = abs(val - 1j)
    else:
        y = 100.0 * (setting.R * setting.R)
        z = complex(-y, 1e-8 * y)
        val = m_value(job.measure, setting, z, "plus")
        payload["asymptotic_m_plus_minus_y"] = [val.real, val.imag]
        payload["asymptotic_error"] = abs(val + math.sqrt(y))
        payload["asymptotic_bound"] = 2.0 * moment(job.measure, 0) / math.sqrt(y)
    emit_json(payload, out / "verify.json")
    return 0


def run_example(job, out):
    status = run_check(job, out)
    if status == 0:
        (run_jacobi if job.setting.kind == "jacobi" else run_schrodinger)(job, out)
    run_verify(job, out)
    return status


def run(job, out_dir="."):
    """Make the output directory, then dispatch; returns the exit status."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot make {out}: {exc}") from None
    runner = {
        "check": run_check,
        "jacobi": run_jacobi,
        "schrodinger": run_schrodinger,
        "verify": run_verify,
        "example": run_example,
    }[job.command]
    return runner(job, out)


# ---------------------------------------------------------------------------
# argument handling


class _Parser(argparse.ArgumentParser):
    """A usage error is a SchemaError, reported like any other bad input
    (exit 1, one JSON line), never argparse's exit 2 with usage text."""

    def error(self, message):
        raise SchemaError("", message)


def build_parser():
    parser = _Parser(
        prog="reflectionless",
        allow_abbrev=False,
        description="Measure-driven construction and verification of reflectionless operators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name, allow_abbrev=False)
        p.add_argument("--input", help="job/measure JSON file")
        p.add_argument("--out", default=".", help="output directory")
        # number flags stay text here: _parse_job's checks read them like job-file fields
        p.add_argument("--order", dest="N", help="order N: window half-width, or the flow's piece-rule order")
        p.add_argument("--eta", help="boundary offset for residuals")
        p.add_argument("--grid", help="number of residual grid points")
        p.add_argument("--xmax", dest="x_max", help="flow half-width")
        p.add_argument("--step", help="flow step size")
        if name == "example":
            p.add_argument("--name", help="preset: free, delta1, soliton, delta0")
            p.add_argument("--epsilon", help="soliton mass defect")
            p.add_argument("--mass", help="delta0 atom mass")
    return parser


def _number(text, pointer):
    try:
        return float(text)
    except ValueError:
        raise SchemaError(pointer, f"expected a number, got {text!r}") from None


def _job_from_args(args):
    obj = {}
    if args.input:
        try:
            obj = _json_object(Path(args.input).read_bytes())
        except OSError as exc:
            raise IoError(f"cannot read {args.input}: {exc}") from None
    for key in ("name", "epsilon", "mass", *_PARAM_KEYS):
        text = getattr(args, key, None)
        if text is not None:
            obj[key] = text if key == "name" else _number(text, f"/{key}")
    return _parse_job(args.command, obj)


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        # stderr holds nothing but the error line: floating-point warnings stay
        # off while the job is parsed and run (a valid piece's weights can
        # overflow), and a non-finite result is refused where it is written
        with np.errstate(all="ignore"):
            return run(_job_from_args(args), args.out)
    except AdmissibilityRequired as exc:
        _emit_error(exc)
        return 2
    except (ReflectionlessError, OSError, ArithmeticError) as exc:
        _emit_error(exc)
        return 1


def _emit_error(exc):
    payload = {"error": type(exc).__name__, "message": str(exc)}
    for attr in ("pointer", "pivot", "offender"):
        if hasattr(exc, attr):
            payload[attr] = getattr(exc, attr)
    sys.stderr.write(json.dumps(payload, sort_keys=True, default=str) + "\n")


if __name__ == "__main__":
    sys.exit(main())
