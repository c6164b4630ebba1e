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

from . import presets
from .errors import (
    AdmissibilityRequired,
    IoError,
    NonFiniteOutput,
    ReflectionlessError,
    SchemaError,
    UnknownCommand,
)
from .herglotz import (
    Setting,
    admissible_continuous,
    admissible_discrete,
    default_residual_grid,
    m_value,
    reflectionless_residual,
)
from .jacobi import m_oracle, reconstruct
from .measure import Measure, moment
from .schrodinger import MIN_FLOW_ORDER, integrate_flow, riccati_mismatch

COMMANDS = ("check", "jacobi", "schrodinger", "verify", "example")

ORACLE_GRID = tuple(
    complex(x, y) for x in (-2.0, -1.0, 0.0, 1.0, 2.0) for y in (1.0, 1.5, 2.0, 2.5, 3.0)
)


@dataclass(frozen=True)
class Job:
    command: str
    measure: Measure
    setting_kind: str
    R: float
    params: tuple  # sorted (key, value) pairs
    preset: str = None
    epsilon: float = None
    mass: float = None

    def param(self, key, default=None):
        for k, v in self.params:
            if k == key:
                return v
        return default


def _require(obj, key, kinds, pointer):
    if key not in obj:
        raise SchemaError(f"{pointer}/{key}", "missing required field")
    val = obj[key]
    if not isinstance(val, kinds) or isinstance(val, bool):
        want = "number" if kinds == (int, float) else getattr(kinds, "__name__", str(kinds))
        raise SchemaError(f"{pointer}/{key}", f"expected {want}, got {type(val).__name__}")
    return val


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


def _require_finite(obj, key, pointer):
    if key not in obj:
        raise SchemaError(f"{pointer}/{key}", "missing required field")
    return _finite(obj[key], f"{pointer}/{key}")


_PARAM_KEYS = ("N", "eta", "grid", "x_max", "step")
# largest accepted sizes: one parameter beyond them can exhaust memory or run for minutes
MAX_ORDER = 10_000
MAX_FLOW_STEPS = 10_000  # per direction, ceil(x_max / step)
# ceil(x_max / step) * (N + 1)^2 for jobs that may run the flow: each step costs
# a dozen O(N^2) convolutions, and the slowest job this admits (N = 141 at 10^4
# steps) runs in about 4.3 s on 2 vCPUs
MAX_FLOW_WORK = 2e8


def default_params(R):
    return {
        "N": 40,
        "eta": 1e-4,
        "grid": 512,
        "x_max": 0.8 / R,
        "step": 1.0 / (20.0 * R),
    }


def _json_object(json_text):
    """The JSON object in a str or bytes document, or a SchemaError."""
    try:
        obj = json.loads(json_text)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SchemaError("", f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise SchemaError("", "job must be a JSON object")
    return obj


def parse_input(json_text):
    """Validated Job from a JSON job description (measure + parameters)."""
    obj = _json_object(json_text)
    command = obj.get("command", "check")
    if not isinstance(command, str) or command not in COMMANDS:
        raise UnknownCommand(f"/command: unknown command {command!r}")

    if command == "example":
        name = _require(obj, "name", str, "")
        epsilon = obj.get("epsilon")
        mass = obj.get("mass")
        try:
            measure, setting = presets.get(name, epsilon=epsilon, mass=mass)
        except ValueError as exc:
            raise SchemaError("/name", str(exc)) from None
        params = default_params(setting.R)
    else:
        setting_kind = _require(obj, "setting", str, "")
        if setting_kind not in ("jacobi", "schrodinger"):
            raise SchemaError("/setting", f"unknown setting {setting_kind!r}")
        R = _require_finite(obj, "R", "")
        atoms = obj.get("atoms", [])
        if not isinstance(atoms, list):
            raise SchemaError("/atoms", "expected a list")
        parsed_atoms = []
        for i, atom in enumerate(atoms):
            if not isinstance(atom, dict):
                raise SchemaError(f"/atoms/{i}", "expected an object")
            t = _require_finite(atom, "t", f"/atoms/{i}")
            w = _require_finite(atom, "w", f"/atoms/{i}")
            parsed_atoms.append((t, w))
        pieces = obj.get("pieces", [])
        if not isinstance(pieces, list):
            raise SchemaError("/pieces", "expected a list")
        parsed_pieces = []
        for i, piece in enumerate(pieces):
            if not isinstance(piece, dict):
                raise SchemaError(f"/pieces/{i}", "expected an object")
            a = _require_finite(piece, "a", f"/pieces/{i}")
            b = _require_finite(piece, "b", f"/pieces/{i}")
            cheb = _require(piece, "cheb", list, f"/pieces/{i}")
            cheb = tuple(_finite(c, f"/pieces/{i}/cheb/{j}") for j, c in enumerate(cheb))
            parsed_pieces.append((a, b, cheb))
        measure = Measure.with_pieces(parsed_atoms, parsed_pieces)
        setting = Setting.jacobi(R) if setting_kind == "jacobi" else Setting.schrodinger(R)
        params = default_params(R)

    for key in _PARAM_KEYS:
        if key in obj:
            val = _finite(obj[key], f"/{key}")
            if key in ("N", "grid"):
                if not val.is_integer():
                    raise SchemaError(f"/{key}", f"expected an integer, got {val!r}")
                if val < 1:
                    raise SchemaError(f"/{key}", f"must be at least 1, got {val:g}")
                val = int(val)
            elif not val > 0.0:
                raise SchemaError(f"/{key}", f"must be positive, got {val!r}")
            params[key] = val
    if params["N"] > MAX_ORDER:
        raise SchemaError("/N", f"must be at most {MAX_ORDER}, got {params['N']:g}")
    if params["x_max"] / params["step"] > MAX_FLOW_STEPS:
        raise SchemaError(
            "/step", f"x_max / step must be at most {MAX_FLOW_STEPS} flow steps"
        )
    if setting.kind == "schrodinger" or command == "schrodinger":  # jobs that may run the flow
        N = params["N"]
        if N < MIN_FLOW_ORDER:
            raise SchemaError("/N", f"must be at least {MIN_FLOW_ORDER} for the flow, got {N}")
        if math.ceil(params["x_max"] / params["step"]) * (N + 1) ** 2 > MAX_FLOW_WORK:
            raise SchemaError("/N", f"flow steps x (N + 1)^2 must be at most {MAX_FLOW_WORK:g}")

    return Job(
        command=command,
        measure=measure,
        setting_kind=setting.kind,
        R=setting.R,
        params=tuple(sorted(params.items())),
        preset=obj.get("name"),
        epsilon=obj.get("epsilon"),
        mass=obj.get("mass"),
    )


def job_to_json(job):
    """Serialize a Job back to its JSON schema (round-trips parse_input)."""
    obj = {"command": job.command}
    if job.command == "example":
        obj["name"] = job.preset
        if job.epsilon is not None:
            obj["epsilon"] = job.epsilon
        if job.mass is not None:
            obj["mass"] = job.mass
    else:
        obj["setting"] = job.setting_kind
        obj["R"] = job.R
        obj["atoms"] = [{"t": t, "w": w} for t, w in job.measure.atoms]
        obj["pieces"] = [
            {"a": p.a, "b": p.b, "cheb": list(p.cheb)} for p in job.measure.pieces
        ]
    obj.update({k: v for k, v in job.params})
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


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


def emit_csv(header, rows, path):
    lines = [",".join(header)]
    for row in rows:
        if not all(math.isfinite(v) for v in row if isinstance(v, (int, float))):
            raise NonFiniteOutput(f"non-finite value in {Path(path).name}, row {row[0]!r}")
        lines.append(",".join(_fmt(v) if isinstance(v, (int, float)) else str(v) for v in row))
    _write(path, "\n".join(lines) + "\n")


def _write(path, text):
    try:
        Path(path).write_text(text, newline="\n")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from None


# ---------------------------------------------------------------------------
# commands


def _admissibility_report(job, setting):
    if setting.kind == "jacobi":
        rep = admissible_discrete(job.measure, setting)
    else:
        rep = admissible_continuous(job.measure, setting)
    return rep, {
        "R": setting.R,
        "argmin": rep.argmin,
        "min_value": rep.min_value,
        "passed": rep.passed,
        "samples": [[e, v] for e, v in rep.samples],
        "setting": setting.kind,
    }


def run_check(job, setting, out):
    rep, payload = _admissibility_report(job, setting)
    emit_json(payload, out / "admissibility.json")
    return 0 if rep.passed else 2


def run_jacobi(job, setting, out):
    N = int(job.param("N"))
    window = reconstruct(job.measure, setting, N)
    rows = [
        (n, window.a_at(n), window.b_at(n))
        for n in range(window.n_min, window.n_max + 1)
    ]
    emit_csv(("n", "a_n", "b_n"), rows, out / "jacobi_window.csv")
    z_grid = np.asarray(ORACLE_GRID)
    residuals = [
        np.abs(m_oracle(window, z_grid, side)
               - np.array([m_value(job.measure, setting, z, side) for z in z_grid]))
        for side in ("plus", "minus")
    ]
    worst = float(np.max(residuals))  # NaN stays NaN, refused where it is written
    emit_json(
        {
            "N": N,
            "max_abs_residual": worst,
            "z_grid": [[z.real, z.imag] for z in z_grid],
        },
        out / "oracle_residual.json",
    )
    return 0


def run_schrodinger(job, setting, out):
    N = int(job.param("N"))
    trace = integrate_flow(
        job.measure, N, setting.R, job.param("x_max"), step=job.param("step")
    )
    n_sig = min(N, 8) + 1
    header = ["x", "V"] + [f"sigma_{k}" for k in range(n_sig)]
    rows = [
        tuple([trace.xs[i], trace.V[i]] + list(trace.sigmas[i, :n_sig]))
        for i in range(len(trace.xs))
    ]
    emit_csv(header, rows, out / "potential_trace.csv")

    ws = np.array([0.3 / setting.R, 0.3j / setting.R, -0.3 / setting.R])
    mismatch, _ = riccati_mismatch(trace, ws)
    emit_json(
        {
            "N": N,
            "est_truncation_error": trace.est_truncation_error,
            "max_abs_mismatch": mismatch,
            "w_values": [[w.real, w.imag] for w in ws],
            "x_max": float(trace.xs[-1]),
        },
        out / "riccati_residual.json",
    )
    return 0


def run_verify(job, setting, out):
    eta = float(job.param("eta"))
    n_grid = int(job.param("grid"))
    grid = default_residual_grid(setting, min(n_grid, 512))
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
        y = 100.0 * setting.R ** 2
        z = complex(-y, 1e-8 * y)
        val = m_value(job.measure, setting, z, "plus")
        payload["asymptotic_m_plus_minus_y"] = [val.real, val.imag]
        payload["asymptotic_error"] = abs(val + math.sqrt(y))
        payload["asymptotic_bound"] = 2.0 * moment(job.measure, 0) / math.sqrt(y)
    emit_json(payload, out / "verify.json")
    return 0


def run_example(job, setting, out):
    status = run_check(job, setting, out)
    if setting.kind == "jacobi":
        if status == 0:
            run_jacobi(job, setting, out)
    else:
        run_schrodinger(job, setting, out)
    run_verify(job, setting, out)
    return status


def run(job, out_dir="."):
    """Validate the job's measure, then dispatch; returns the exit status."""
    setting = Setting.jacobi(job.R) if job.setting_kind == "jacobi" else Setting.schrodinger(job.R)
    setting.validated(job.measure)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    runner = {
        "check": run_check,
        "jacobi": run_jacobi,
        "schrodinger": run_schrodinger,
        "verify": run_verify,
        "example": run_example,
    }[job.command]
    return runner(job, setting, out)


# ---------------------------------------------------------------------------
# argument handling


def build_parser():
    parser = argparse.ArgumentParser(
        prog="reflectionless",
        description="Measure-driven construction and verification of reflectionless operators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--input", help="job/measure JSON file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--order", type=int, dest="N", help="truncation order N")
        p.add_argument("--eta", type=float, help="boundary offset for residuals")
        p.add_argument("--grid", type=int, help="number of residual grid points")
        p.add_argument("--xmax", type=float, dest="x_max", help="flow half-width")
        p.add_argument("--step", type=float, help="flow step size")
        if name == "example":
            p.add_argument("--name", help="preset: free, delta1, soliton, delta0")
            p.add_argument("--epsilon", type=float, help="soliton mass defect")
            p.add_argument("--mass", type=float, help="delta0 atom mass")
    return parser


def _job_from_args(args):
    obj = _json_object(Path(args.input).read_bytes()) if args.input else {}
    obj["command"] = args.command
    if args.command == "example":
        if getattr(args, "name", None):
            obj["name"] = args.name
        if getattr(args, "epsilon", None) is not None:
            obj["epsilon"] = args.epsilon
        if getattr(args, "mass", None) is not None:
            obj["mass"] = args.mass
    for key in _PARAM_KEYS:
        val = getattr(args, key, None)
        if val is not None:
            obj[key] = val
    return parse_input(json.dumps(obj))


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        job = _job_from_args(args)
        # stderr holds nothing but the error line: floating-point warnings
        # stay off, and a non-finite result is refused where it is written
        with np.errstate(all="ignore"):
            return run(job, args.out)
    except AdmissibilityRequired as exc:
        _emit_error(exc)
        return 2
    except (ReflectionlessError, OSError, ArithmeticError) as exc:
        _emit_error(exc)
        return 1


def _emit_error(exc):
    payload = {"error": type(exc).__name__, "message": str(exc)}
    for attr in ("pointer", "pivot", "x", "offender"):
        if hasattr(exc, attr):
            payload[attr] = getattr(exc, attr)
    sys.stderr.write(json.dumps(payload, sort_keys=True, default=str) + "\n")


if __name__ == "__main__":
    sys.exit(main())
