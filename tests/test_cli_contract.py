"""Property tests of the CLI contract.

On every input, ``main`` returns exit 0, or exit 2 from check or example,
with finite artifacts and nothing on stderr; exit 2 from jacobi or
schrodinger with one AdmissibilityRequired line on stderr; or exit 1 with
exactly one JSON line on stderr.  It never raises and never prints a
traceback or a warning.
"""

import ast
import io
import json
import math
import tempfile
import warnings
from contextlib import redirect_stderr
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from helpers import free_window
import reflectionless
from reflectionless import cli, errors, herglotz, jacobi, schrodinger
from reflectionless.cli import main
from reflectionless.herglotz import (
    AdmissibilityReport,
    Setting,
    boundary_value_discrete,
    herglotz_exp,
    m_value,
    phi_inv,
)
from reflectionless.jacobi import JacobiWindow, m_oracle, moments_to_recurrence, reconstruct
from reflectionless.measure import SUPPORT_MARGIN_REL, Measure, solve_r
from reflectionless.schrodinger import (
    MIN_FLOW_ORDER,
    binomial_sum_identity,
    init_flow,
    integrate_flow,
    riccati_oracle,
)

# Most drawn jobs take about 10 ms.  The slowest jobs the CLI's limits admit are
# flows at the edge of the flow budget, which prices each step by the flow's
# atoms: on 2 vCPUs, as whole CLI processes, one atom at 10,000 steps takes
# 2.8-3.4 s at N = 4 or 10^4, a 121-node piece at N = 40 and 1,771 steps
# 3.0-3.1 s, and a 481-node piece measure at N = 10^4 and 133 steps 3.0-3.1 s.
# A flow's retries in substeps spend the same budget, so only a job that
# escapes the limits misses the deadline.
CONTRACT = settings(
    max_examples=60, deadline=timedelta(seconds=6.5), suppress_health_check=[HealthCheck.too_slow]
)

# any JSON value: what a job file may hold where a number or a name belongs
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=4,
)
PRESET_NAMES = st.sampled_from(["free", "delta1", "soliton", "delta0"])
# the example command's fields: a preset name, and epsilon and mass each
# optional and in their usual ranges
PRESET_FIELDS = st.fixed_dictionaries(
    {"name": PRESET_NAMES}, optional={"epsilon": st.floats(0.0, 1.0), "mass": st.floats(0.0, 4.0)}
)
# the same fields when they may hold any JSON value
ANY_PRESET_FIELDS = st.fixed_dictionaries(
    {"name": PRESET_NAMES | JSON_VALUES},
    optional={"epsilon": st.floats(0.0, 1.0) | JSON_VALUES, "mass": st.floats(0.0, 4.0) | JSON_VALUES},
)


COMMANDS = st.sampled_from(["check", "jacobi", "schrodinger", "verify", "example"])
# the command of the example being drawn, so that a valid job can match it
COMMAND = st.shared(COMMANDS, key="command")


def _allowed(kind, R):
    """The open intervals the support must stay strictly inside: each edge
    moved inward by SUPPORT_MARGIN_REL of itself."""
    d = SUPPORT_MARGIN_REL
    if kind == "jacobi":
        r = solve_r(R)
        lo, hi = r * (1.0 + d), (1.0 - d) / r
        return [(lo, hi), (-hi, -lo)]
    return [(-R * (1.0 - d), R * (1.0 - d))]


@st.composite
def valid_jobs(draw):
    """Measures inside the support region, some pieces within 1e-6 R of its
    edge; weights range from tiny to inadmissibly large.  N is drawn
    log-uniformly from [MIN_FLOW_ORDER, MAX_ORDER] three times in four, and
    from [1, MAX_ORDER] otherwise; grid log-uniformly over its accepted
    range, and eta and x_max from [1e-300, 1e300].  Three times in four step
    is x_max over a step count log-uniform up to one atom's flow budget,
    and otherwise it is drawn from [1e-300, 1e300].  Each job also
    names a preset, which the example command runs instead of the measure.
    The setting is the command's own for jacobi and schrodinger."""
    command = draw(COMMAND)
    kind = command if command in ("jacobi", "schrodinger") else draw(st.sampled_from(["jacobi", "schrodinger"]))
    R = draw(st.floats(2.0005, 4.0) if kind == "jacobi" else st.floats(0.5, 3.0))
    lo, hi = draw(st.sampled_from(_allowed(kind, R)))
    cuts = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3, unique=True)))
    near = draw(st.sampled_from([None, "lo", "hi"]))
    gap = draw(st.floats(1e-12, 1e-6)) * R
    a = lo + gap if near == "lo" else lo + cuts[0] * (hi - lo)
    b = hi - gap if near == "hi" else lo + cuts[1] * (hi - lo)
    mass = draw(st.floats(1e-9, 2.0))
    c1, c2 = draw(st.floats(-0.45, 0.45)), draw(st.floats(-0.45, 0.45))
    job = {"setting": kind, "R": R, "atoms": [], "pieces": []}
    least = draw(st.sampled_from([MIN_FLOW_ORDER] * 3 + [1]))
    job["N"] = N = round(least * (jacobi.MAX_ORDER / least) ** draw(st.floats(0.0, 1.0)))
    job["grid"] = round(cli.MAX_GRID ** draw(st.floats(0.0, 1.0)))
    job["eta"] = 10.0 ** draw(st.floats(-300.0, 300.0))
    job["x_max"] = 10.0 ** draw(st.floats(-300.0, 300.0))
    if draw(st.sampled_from([False] * 3 + [True])):
        job["step"] = 10.0 ** draw(st.floats(-300.0, 300.0))
    else:
        max_steps = schrodinger.MAX_FLOW_WORK / schrodinger.FLOW_STEP_COST
        job["step"] = job["x_max"] / max_steps ** draw(st.floats(0.0, 1.0))
    if b > a:
        job["pieces"].append({"a": a, "b": b, "cheb": [mass, c1 * mass, c2 * mass]})
    t = lo + cuts[2] * (hi - lo)
    if draw(st.booleans()) and not a <= t <= b:
        job["atoms"].append({"t": t, "w": draw(st.floats(1e-9, 2.0)) * mass})
    return {**job, **draw(PRESET_FIELDS)}


ATOM_SCHRODINGER = {"setting": "schrodinger", "R": 2, "atoms": [{"t": 0.3, "w": 0.8}]}
ATOM_JACOBI = {"setting": "jacobi", "R": 2.01, "atoms": [{"t": 1.05, "w": 0.001}]}
README_MEASURE = {
    "setting": "jacobi", "R": 2.01,
    "atoms": [{"t": 1.05, "w": 0.001}, {"t": -1.02, "w": 0.002}],
    "pieces": [{"a": 0.92, "b": 0.98, "cheb": [0.005, 0.0, 0.001]}],
}

BIG_CHEB = {"setting": "jacobi", "R": 2.5, "pieces": [{"a": 1.2, "b": 1.4, "cheb": [1e308, 1e308]}]}

BOUNDARY = st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 1e-310, 1e300, 2.0, 2.0 + 4e-16, 1.0, -1.0, 1e-9])


@st.composite
def boundary_jobs(draw):
    """Jobs whose numbers sit on or next to the edges of what is allowed,
    with preset fields that may hold any JSON value."""
    job = {"setting": draw(st.sampled_from(["jacobi", "schrodinger", "other"])), "R": draw(BOUNDARY)}
    if draw(st.booleans()):
        job["atoms"] = [{"t": draw(BOUNDARY), "w": draw(BOUNDARY)}]
    if draw(st.booleans()):
        piece = {"a": draw(BOUNDARY), "b": draw(BOUNDARY), "cheb": [draw(BOUNDARY)]}
        # now and then a piece one ulp wide, or with no coefficients: invalid
        # before its rule is built
        shape = draw(st.sampled_from(["drawn"] * 8 + ["one-ulp", "no-cheb"]))
        if shape == "one-ulp":
            piece["b"] = math.nextafter(piece["a"], math.inf)
        elif shape == "no-cheb":
            piece["cheb"] = []
        job["pieces"] = [piece]
    for key in draw(st.lists(st.sampled_from(["N", "grid", "eta"]), unique=True)):
        job[key] = draw(st.sampled_from([1, 2, 1e-300, 0.5, 1e300]))
    return {**job, **draw(ANY_PRESET_FIELDS)}


def _corrupt(data, edits):
    data = bytearray(data)
    for pos, byte in edits:
        if data:
            data[pos % len(data)] = byte
    return bytes(data)


def _assert_contract(command, payload, flags=()):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "job.json"
        path.write_bytes(payload)
        out = Path(tmp) / "out"
        err = io.StringIO()
        argv = [command, "--input", str(path), "--out", str(out), *flags]
        with warnings.catch_warnings(record=True) as caught, redirect_stderr(err):
            warnings.simplefilter("always")
            status = main(argv)
        assert not caught, [str(w.message) for w in caught]
        lines = err.getvalue().splitlines()
        assert status in (0, 1, 2)
        if status == 1:
            assert len(lines) == 1
            error = getattr(errors, json.loads(lines[0])["error"], None)
            assert isinstance(error, type), lines[0]
            assert issubclass(error, errors.ReflectionlessError), lines[0]
            return
        if status == 2 and command in ("jacobi", "schrodinger"):
            # the reconstruction's own gate refused the measure
            assert len(lines) == 1
            assert json.loads(lines[0])["error"] == "AdmissibilityRequired", lines[0]
        else:
            # check and example write the failed report instead
            assert lines == [], lines
        _assert_finite_artifacts(out)


def _refuse_constant(name):
    raise AssertionError(f"non-finite JSON constant {name}")


def _assert_finite_artifacts(out):
    for f in out.iterdir():
        text = f.read_text()
        if f.suffix == ".json":
            json.loads(text, parse_constant=_refuse_constant)
        else:
            for row in text.splitlines()[1:]:
                assert all(math.isfinite(float(v)) for v in row.split(","))


@CONTRACT
@given(COMMAND, valid_jobs())
@example("jacobi", {"setting": "schrodinger", "R": 3.0, "atoms": [{"t": -1.5, "w": 0.5}]})
@example("schrodinger", {**ATOM_SCHRODINGER, "N": 3})
@example("schrodinger", {**ATOM_SCHRODINGER, "N": 10_000, "x_max": 0.002, "step": 0.001})  # the largest order
@example("verify", {**ATOM_JACOBI, "eta": 1e300})
@example("verify", {**README_MEASURE, "eta": 1e300})
@example("verify", {**README_MEASURE, "eta": 1e200})
@example("example", {"name": "delta0", "mass": 5})  # an inadmissible preset
def test_valid_jobs_meet_the_contract(command, job):
    _assert_contract(command, json.dumps(job).encode())


@CONTRACT
@given(COMMANDS, boundary_jobs())
@example("jacobi", {"setting": "schrodinger", "R": 2.0, "atoms": [{"t": 1e-300, "w": 1e-300}]})
@example("verify", {"setting": "schrodinger", "R": 1e300})
@example("schrodinger", {"setting": "schrodinger", "R": 1e300})
# past the float range: verify's R^2 is inf, not an OverflowError, and the atom flow stays finite
@example("schrodinger", {"setting": "schrodinger", "R": 1e130, "atoms": [{"t": 0.5, "w": 0.01}]})
@example("verify", {"setting": "schrodinger", "R": 1e155, "atoms": [{"t": 0.5, "w": 0.01}]})
@example("example", {"name": "soliton", "epsilon": [1]})
@example("example", {"name": "delta0", "mass": {"a": 1}})
# a finite density whose samples overflow: refused, not scanned into an all-NaN slice
@example("check", BIG_CHEB)
@example("jacobi", BIG_CHEB)
# pieces refused by validation before the flow budget counts their rule's nodes
@example("schrodinger", {"setting": "schrodinger", "R": 2, "pieces": [{"a": 0.1, "b": 0.5, "cheb": []}]})
@example("schrodinger", {"setting": "schrodinger", "R": 2,
                         "pieces": [{"a": 0.5, "b": math.nextafter(0.5, 1.0), "cheb": [1]}]})
# a valid piece whose weights overflow while the flow budget counts its nodes
@example("schrodinger", {"setting": "schrodinger", "R": 1e200, "pieces": [{"a": 1, "b": 1e199, "cheb": [1e200]}]})
def test_boundary_numbers_meet_the_contract(command, job):
    _assert_contract(command, json.dumps(job).encode())


@CONTRACT
@given(
    COMMAND,
    valid_jobs(),
    st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 255)), min_size=1, max_size=4),
)
def test_corrupted_bytes_meet_the_contract(command, job, edits):
    _assert_contract(command, _corrupt(json.dumps(job).encode(), edits))


FLAGS = ["--order", "--eta", "--grid", "--xmax", "--step", "--epsilon", "--mass", "--name"]
# number spellings of every kind, and text that is no number at all
FLAG_TEXT = st.one_of(
    st.text(max_size=12),
    st.integers().map(str),
    st.floats().map(repr),
    st.floats().map(lambda x: format(x, "e")),
    st.from_regex(r"[+-]?(\d{1,5}(\.\d{0,3})?|\.\d{1,3})([eE][+-]?\d{1,3})?", fullmatch=True),
)


@st.composite
def flag_argv(draw):
    """Flags with drawn text, each as `--flag text` or `--flag=text`."""
    argv = []
    for flag, text in draw(st.lists(st.tuples(st.sampled_from(FLAGS), FLAG_TEXT), min_size=1, max_size=3)):
        argv += [f"{flag}={text}"] if draw(st.booleans()) else [flag, text]
    return argv


@CONTRACT
@given(
    COMMANDS,
    st.sampled_from([{**README_MEASURE, "name": "soliton", "epsilon": 0.25},
                     {**ATOM_SCHRODINGER, "name": "delta0"}]),
    flag_argv(),
)
@example("jacobi", README_MEASURE, ["--order", "abc"])
@example("jacobi", README_MEASURE, ["--order", "1.5"])
# r^2 underflows to 0 at R = 1e170: the ratio check's bounds are (0, inf)
@example("jacobi", {"setting": "jacobi", "R": 1e170, "atoms": [{"t": 1.5, "w": 0.01}]},
         ["--order", "10"])
@example("jacobi", README_MEASURE, ["--eta", "x"])
@example("jacobi", README_MEASURE, ["--frob", "1"])
@example("jacobi", README_MEASURE, ["--order"])
@example("example", README_MEASURE, ["--name", "soliton", "--epsilon", "2"])
def test_flag_text_meets_the_contract(command, job, flags):
    _assert_contract(command, json.dumps(job).encode(), flags)


def _nan_window(*args, **kwargs):
    return JacobiWindow(-1, 1, (1.0, math.nan, 1.0), (0.0, 0.0, 0.0), 2.0)


@pytest.mark.parametrize(
    "command, name, patched",
    [
        ("verify", "reflectionless_residual", lambda *args: math.nan),
        ("check", "admissibility", lambda *args: AdmissibilityReport(True, math.inf, -2.0, ())),
        ("jacobi", "reconstruct", _nan_window),
        # the plus side's residual comes first and must not hide a NaN after it;
        # the oracle residual reads m_value on herglotz, not on cli
        ("jacobi", "m_value", lambda sigma, setting, z, side: math.nan if side == "minus" else 0j),
    ],
)
def test_non_finite_result_is_refused(tmp_path, capsys, monkeypatch, command, name, patched):
    monkeypatch.setattr(herglotz if name == "m_value" else cli, name, patched)
    measure = tmp_path / "m.json"
    measure.write_text('{"setting":"jacobi","R":2.5,"atoms":[{"t":1.2,"w":0.01}]}')
    out = tmp_path / "out"
    assert main([command, "--input", str(measure), "--out", str(out)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "NonFiniteOutput"
    for f in out.iterdir():
        text = f.read_text().lower()
        assert "nan" not in text and "inf" not in text


def _low_coupling(*args):
    # a_1 = sqrt(beta_1) = 0.5 on each side
    alpha, beta = moments_to_recurrence(*args)
    beta[1] = 0.25
    return alpha, beta


def _ratio_jump(*args):
    # excess ratio 100 between sites 1 and 2, beyond 1/r^2 = 4 at R = 2.5
    alpha, beta = moments_to_recurrence(*args)
    beta[2] = 1.0 + 100.0 * (beta[1] - 1.0)
    return alpha, beta


def _nan_coupling(*args):
    alpha, beta = moments_to_recurrence(*args)
    beta[2] = math.nan  # a NaN coupling on each side: min a passes it, the ratio check may not
    return alpha, beta


def _run_one_error(tmp_path, capsys, command, out):
    measure = tmp_path / "m.json"
    measure.write_text('{"setting":"jacobi","R":2.5,"atoms":[{"t":1.2,"w":0.01}]}')
    assert main([command, "--input", str(measure), "--out", str(out)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])


@pytest.mark.parametrize(
    "patched, postcondition",
    [(_low_coupling, "a_n >= 1 - 1e-9"), (_ratio_jump, "adjacent ratio"), (_nan_coupling, "adjacent ratio")],
)
def test_window_postconditions_raise_moment_mismatch(tmp_path, capsys, monkeypatch, patched, postcondition):
    monkeypatch.setattr(jacobi, "moments_to_recurrence", patched)
    err = _run_one_error(tmp_path, capsys, "jacobi", tmp_path / "out")
    assert err["error"] == "MomentMismatch"
    assert postcondition in err["message"]


def test_unwritable_artifact_is_io_error(tmp_path, capsys):
    out = tmp_path / "out"
    (out / "admissibility.json").mkdir(parents=True)
    err = _run_one_error(tmp_path, capsys, "check", out)
    assert err["error"] == "IoError"


def test_every_error_type_is_exported():
    for name, obj in vars(errors).items():
        if isinstance(obj, type) and issubclass(obj, errors.ReflectionlessError):
            assert getattr(reflectionless, name, None) is obj, name


_DELTA0 = Measure.point(0.0, 1.0)
_FREE = free_window(3)
_ATOM = Measure.point(0.3, 0.8)


@pytest.mark.parametrize(
    "call",
    [
        lambda: reconstruct(Measure.zero(), Setting.jacobi(2.5), 0),
        lambda: init_flow(_DELTA0, 3, 2.0),
        lambda: integrate_flow(_DELTA0, 8, 2.0, 0.0),
        lambda: m_oracle(_FREE, -1j, "plus"),
        lambda: m_oracle(_FREE, 1j, "up"),
        lambda: riccati_oracle(integrate_flow(_DELTA0, 8, 2.0, 0.4), 0.6),
        lambda: phi_inv(Setting.jacobi(2.5), 1j, "middle"),
        lambda: m_value(Measure.zero(), Setting.jacobi(2.5), 1j, "up"),
        lambda: boundary_value_discrete(Measure.point(0.9, 0.5), math.nan),
        lambda: herglotz_exp([], 0.0, 1j),
        lambda: herglotz_exp([(0.0, 1.0, 1.5)], 1.0, 1j),
        lambda: JacobiWindow(1, 2, (1.0, 1.0), (0.0, 0.0), 2.0),
        lambda: JacobiWindow(-1, 1, (1.0,), (0.0,), 2.0),
        lambda: binomial_sum_identity(0, 2, 1),
        # each flow argument is refused before any work: the step count of an
        # infinite x_max or a zero step, a NaN or negative step, a fractional N
        lambda: integrate_flow(_ATOM, 10, 2.0, math.inf),
        lambda: integrate_flow(_ATOM, 10, 2.0, 1.0, step=0.0),
        lambda: integrate_flow(_ATOM, 10, 2.0, 1.0, step=math.nan),
        lambda: integrate_flow(_ATOM, 10, 2.0, 1.0, step=-0.1),
        lambda: integrate_flow(_ATOM, 10.5, 2.0, 1.0),
        lambda: integrate_flow(_ATOM, 10, 2.0, 1e300, step=1e-300),
        lambda: reconstruct(Measure.zero(), Setting.jacobi(2.5), 10.5),
        # sizes beyond the library's own limits, refused before anything is allocated
        lambda: reconstruct(Measure.zero(), Setting.jacobi(2.5), jacobi.MAX_ORDER + 1),
        lambda: integrate_flow(_ATOM, 4, 2.0, 1e6, step=1e-7),
        lambda: integrate_flow(_ATOM, 10**200, 2.0, 1.0),
        # a non-finite z, like m_value's
        lambda: m_oracle(_FREE, complex(math.nan, 1.0), "plus"),
        lambda: phi_inv(Setting.jacobi(2.5), complex(math.nan, 1.0), "upper"),
        lambda: herglotz_exp([(0.0, 1.0, 0.5)], 1.0, complex(math.nan, 1.0)),
        lambda: herglotz_exp([(0.0, 1.0, 0.5)], math.inf, 1j),
        # a reversed piece (its value leaves the upper half-plane), a NaN end,
        # and a fractional binomial argument (math.comb's bare TypeError)
        lambda: herglotz_exp([(2.0, 1.0, 0.5)], 1.0, 1j),
        lambda: herglotz_exp([(math.nan, 1.0, 0.5)], 1.0, 1j),
        lambda: binomial_sum_identity(1.5, 2, 1),
    ],
    ids=["reconstruct-N", "init_flow-N", "integrate_flow-x_max", "m_oracle-z", "m_oracle-side",
         "riccati_oracle-w", "phi_inv-region", "m_value-side", "boundary_value-E-nan",
         "herglotz_exp-C", "herglotz_exp-xi", "window-site-0", "window-lengths", "binomial-range",
         "integrate_flow-x_max-inf", "integrate_flow-step-0", "integrate_flow-step-nan",
         "integrate_flow-step-negative", "integrate_flow-N-fraction", "integrate_flow-ratio-inf",
         "reconstruct-N-fraction", "reconstruct-N-max", "integrate_flow-budget", "integrate_flow-N-huge",
         "m_oracle-z-nan", "phi_inv-z-nan", "herglotz_exp-z-nan", "herglotz_exp-C-inf",
         "herglotz_exp-xi-reversed", "herglotz_exp-xi-nan", "binomial-fraction"],
)
def test_bad_parameter_is_a_typed_value_error(call):
    with pytest.raises(errors.BadParameter) as err:
        call()
    assert isinstance(err.value, ValueError)


def test_every_raise_names_a_library_error():
    # each refusal the library makes is one of its typed errors, so a caller
    # can tell it from a bug by class
    untyped = []
    for path in sorted(Path(reflectionless.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", "")
            if not isinstance(getattr(errors, name, None), type):
                untyped.append(f"{path.name}:{node.lineno}")
    assert untyped == []
