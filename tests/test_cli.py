import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import soliton_potential
import reflectionless
from reflectionless import schrodinger
from reflectionless.cli import (
    MAX_GRID,
    _json_object,
    _parse_job,
    emit_csv,
    main,
    run,
)
from reflectionless.errors import NonFiniteOutput, SchemaError, SupportViolation
from reflectionless.herglotz import m_value
from reflectionless.jacobi import MAX_ORDER
from reflectionless.measure import solve_r
from reflectionless.schrodinger import FLOW_PAIR_COST, FLOW_STEP_COST, MAX_FLOW_WORK, integrate_flow

ATOM_S = '"setting":"schrodinger","R":2,"atoms":[{"t":0.3,"w":0.8}]'


def job_from_text(json_text):
    """The Job of a JSON job text whose "command" field names the subcommand,
    through the CLI's one parse route."""
    obj = _json_object(json_text)
    return _parse_job(obj.pop("command"), obj)


class TestParseInput:
    def test_check_job_echo(self):
        job = job_from_text('{"command":"check","setting":"jacobi","R":4,"atoms":[{"t":1,"w":1}]}')
        assert job.command == "check"
        assert job.setting.kind == "jacobi"
        assert job.setting.R == 4.0
        assert job.measure.atoms == ((1.0, 1.0),)
        assert job.params["N"] == 40
        assert job.params["eta"] == 1e-4
        assert job.params["grid"] == 512
        assert job.params["x_max"] == pytest.approx(0.2)
        assert job.params["step"] == pytest.approx(1.0 / 80.0)

    def test_missing_R(self):
        with pytest.raises(SchemaError) as err:
            job_from_text('{"command":"check","setting":"jacobi"}')
        assert err.value.pointer == "/R"

    def test_bad_atom_field(self):
        with pytest.raises(SchemaError) as err:
            job_from_text('{"command":"check","setting":"jacobi","R":4,"atoms":[{"t":1}]}')
        assert err.value.pointer == "/atoms/0/w"

    @pytest.mark.parametrize(
        "fields, pointer",
        [
            ('"R":NaN', "/R"),
            ('"R":Infinity', "/R"),
            ('"R":4,"atoms":[{"t":NaN,"w":0.5}]', "/atoms/0/t"),
            ('"R":4,"atoms":[{"t":1,"w":-Infinity}]', "/atoms/0/w"),
            ('"R":' + "9" * 400, "/R"),
            ('"R":4,"pieces":[{"a":NaN,"b":0.6,"cheb":[1]}]', "/pieces/0/a"),
            ('"R":4,"pieces":[{"a":0.5,"b":0.6,"cheb":[1,NaN]}]', "/pieces/0/cheb/1"),
            ('"R":4,"N":0', "/N"),
            ('"R":4,"grid":-3', "/grid"),
            ('"R":4,"N":Infinity', "/N"),
            ('"R":4,"eta":0', "/eta"),
            ('"R":4,"x_max":-0.1', "/x_max"),
            ('"R":4,"step":NaN', "/step"),
            ('"R":4,"N":2.7', "/N"),
            ('"R":4,"grid":2.5', "/grid"),
            ('"R":4,"N":10001', "/N"),
            ('"R":4,"grid":513', "/grid"),
            # every field is checked before the measure: the atom lies past 1/r
            ('"R":4,"atoms":[{"t":5,"w":1}],"grid":0', "/grid"),
        ],
    )
    def test_out_of_range_numbers(self, fields, pointer):
        with pytest.raises(SchemaError) as err:
            job_from_text('{"command":"verify","setting":"jacobi",' + fields + "}")
        assert err.value.pointer == pointer

    def test_size_limits_are_inclusive(self):
        job = job_from_text('{"command":"verify","setting":"jacobi","R":4,"N":10000.0,"grid":512}')
        assert job.params["N"] == MAX_ORDER and type(job.params["N"]) is int
        assert job.params["grid"] == MAX_GRID
        job = job_from_text('{"command":"schrodinger","setting":"schrodinger","R":4,"N":4}')
        assert job.params["N"] == 4
        # jobs that never run the flow keep the general limits
        job = job_from_text('{"command":"jacobi","setting":"jacobi","R":4,"N":1}')
        assert job.params["N"] == 1

    @pytest.mark.parametrize("N", [4, 73])
    @pytest.mark.parametrize("command", ["schrodinger", "example"])
    def test_flow_budget_edge(self, command, N):
        # step = 2^-13 and x_max = k steps of it: the step count is exact, and
        # one atom fits 10,000 steps at any order
        def job(k):
            fields = f'"N":{N},"x_max":{k * 2.0 ** -13!r},"step":{2.0 ** -13!r}'
            if command == "example":
                return job_from_text(f'{{"command":"example","name":"delta0",{fields}}}')
            return job_from_text(f'{{"command":"schrodinger","setting":"schrodinger","R":4,{fields}}}')

        steps = 10_000
        assert steps * FLOW_STEP_COST <= MAX_FLOW_WORK
        params = job(steps).params
        assert params["x_max"] / params["step"] == steps
        with pytest.raises(SchemaError) as err:
            job(steps + 1)
        assert err.value.pointer == "/step"

    def test_flow_budget_charges_atom_pairs(self):
        # the pieces count by the nodes of their rule at order N: 121 atoms at
        # N = 40 take FLOW_PAIR_COST * 121 * 120 more per step than one atom
        piece = '"setting":"schrodinger","R":1.5,"atoms":[{"t":0.9,"w":0.2}],' \
                '"pieces":[{"a":-0.5,"b":0.5,"cheb":[0.4,0.0,0.1]}]'
        per_step = FLOW_PAIR_COST * 121 * 120 + FLOW_STEP_COST
        steps = int(MAX_FLOW_WORK // per_step)

        def job(k):
            fields = f'"N":40,"x_max":{k * 2.0 ** -13!r},"step":{2.0 ** -13!r}'
            return job_from_text(f'{{"command":"schrodinger",{piece},{fields}}}')

        assert job(steps).params["x_max"] / 2.0 ** -13 == steps
        with pytest.raises(SchemaError, match=r"n = 121,") as err:
            job(steps + 1)
        assert err.value.pointer == "/step"

    def test_flow_budget_edge_at_a_decimal_step(self):
        # 1.3 / 1.3e-04 is 10000.000000000002 in floating point, and the flow
        # takes 10,000 steps: the most that one atom fits.  10,001 steps are refused.
        def job(x_max):
            return job_from_text(f'{{"command":"schrodinger",{ATOM_S},"N":4,"x_max":{x_max},"step":1.3e-04}}')

        assert job(1.3).params["x_max"] == 1.3
        with pytest.raises(SchemaError) as err:
            job(1.30013)
        assert err.value.pointer == "/step"

    @settings(max_examples=40)
    @given(st.integers(1, 64), st.integers(1, 600))
    @example(3, 7)  # 0.00021 / 7e-05 is 3.0000000000000004
    def test_flow_budget_charges_the_steps_the_flow_takes(self, n, d):
        # decimal x_max = n d 1e-5 and step = d 1e-5: a budget of exactly the
        # steps integrate_flow takes admits the job, and one unit less refuses it
        text = f'{{"command":"schrodinger",{ATOM_S},"N":4,"x_max":{n * d}e-5,"step":{d}e-5}}'
        job = job_from_text(text)
        trace = integrate_flow(job.measure, 4, 2.0, job.params["x_max"], step=job.params["step"])
        work = (len(trace.xs) - 1) // 2 * FLOW_STEP_COST
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(schrodinger, "MAX_FLOW_WORK", work)
            job_from_text(text)
            mp.setattr(schrodinger, "MAX_FLOW_WORK", work - 1)
            with pytest.raises(SchemaError):
                job_from_text(text)

    @pytest.mark.parametrize(
        "command, setting, fields",
        [
            ("schrodinger", "schrodinger", '"N":3'),
            ("schrodinger", "jacobi", '"N":3'),
            # the flow's least N is checked before the measure: the atom lies past R
            ("schrodinger", "schrodinger", '"N":3,"atoms":[{"t":5,"w":1}]'),
        ],
    )
    def test_flow_limits(self, command, setting, fields):
        with pytest.raises(SchemaError) as err:
            job_from_text(f'{{"command":"{command}","setting":"{setting}","R":4,{fields}}}')
        # a command on the other setting's measure is refused before its limits
        assert err.value.pointer == ("/N" if setting == command else "/setting")

    def test_bad_measure_wins_over_flow_budget(self):
        # the budget counts the nodes of a validated measure, so the measure
        # is checked before it: an over-budget step on an atom outside (-2, 2)
        # is the measure's error, not a SchemaError at /step
        bad_atom = ATOM_S.replace('"t":0.3', '"t":3')
        with pytest.raises(SupportViolation):
            job_from_text(f'{{"command":"schrodinger",{bad_atom},"N":4,"x_max":1,"step":1e-9}}')
        with pytest.raises(SchemaError) as err:
            job_from_text(f'{{"command":"schrodinger",{ATOM_S},"N":4,"x_max":1,"step":1e-9}}')
        assert err.value.pointer == "/step"

    def test_example_preset(self):
        job = job_from_text('{"command":"example","name":"soliton","epsilon":0.25}')
        assert job.command == "example"
        assert job.measure.atoms == ((1.0, 0.75),)
        assert job.setting.kind == "jacobi"
        assert job.setting.R == pytest.approx(5.0, rel=1e-5)


class TestRun:
    def test_check_free_passes(self, tmp_path):
        job = job_from_text('{"command":"check","setting":"jacobi","R":2}')
        assert run(job, tmp_path) == 0
        rep = json.loads((tmp_path / "admissibility.json").read_text())
        assert rep["passed"] is True
        assert rep["min_value"] == pytest.approx(1.0)

    def test_check_delta1_fails_with_exit_2(self, tmp_path):
        job = job_from_text('{"command":"check","setting":"jacobi","R":4,"atoms":[{"t":1,"w":1}]}')
        assert run(job, tmp_path) == 2
        rep = json.loads((tmp_path / "admissibility.json").read_text())
        assert rep["passed"] is False

    def test_jacobi_free_window(self, tmp_path):
        job = job_from_text('{"command":"jacobi","setting":"jacobi","R":2,"N":6}')
        assert run(job, tmp_path) == 0
        lines = (tmp_path / "jacobi_window.csv").read_text().splitlines()
        assert lines[0] == "n,a_n,b_n"
        rows = [line.split(",") for line in lines[1:]]
        assert [int(r[0]) for r in rows] == list(range(-6, 7))
        assert all(float(r[1]) == pytest.approx(1.0, abs=1e-9) for r in rows)
        assert all(float(r[2]) == pytest.approx(0.0, abs=1e-9) for r in rows)
        residual = json.loads((tmp_path / "oracle_residual.json").read_text())
        assert residual["max_abs_residual"] < 1e-9

    def test_schrodinger_delta0(self, tmp_path):
        job = job_from_text(
            '{"command":"schrodinger","setting":"schrodinger","R":2,'
            '"atoms":[{"t":0,"w":1}],"N":24,"x_max":0.4}'
        )
        assert run(job, tmp_path) == 0
        lines = (tmp_path / "potential_trace.csv").read_text().splitlines()
        assert lines[0].startswith("x,V,sigma_0")
        mid = lines[1 + (len(lines) - 1) // 2].split(",")
        assert float(mid[0]) == 0.0
        assert float(mid[1]) == -2.0
        resid = json.loads((tmp_path / "riccati_residual.json").read_text())
        assert resid["max_abs_mismatch"] < 1e-6
        # the Riccati walk's three w: 0.3/R on the real axis both ways and on
        # the imaginary axis
        assert resid["w_values"] == [[0.3 / 2, 0.0], [0.0, 0.3 / 2], [-0.3 / 2, 0.0]]

    @pytest.mark.parametrize("N", [4, 40])
    def test_trace_columns(self, tmp_path, N):
        # x, V and the moments sigma_0 .. sigma_{min(N, 8)}, in every row
        job = job_from_text(f'{{"command":"schrodinger",{ATOM_S},"N":{N},"x_max":0.4}}')
        assert run(job, tmp_path) == 0
        header, *rows = (tmp_path / "potential_trace.csv").read_text().splitlines()
        assert header == ",".join(["x", "V"] + [f"sigma_{k}" for k in range(min(N, 8) + 1)])
        assert {len(row.split(",")) for row in rows} == {min(N, 8) + 3}

    def test_schrodinger_long_atom_flow(self, tmp_path):
        # R = 2, the atom (0.3, 0.8), --xmax 10 --step 0.1: V within 2e-6 of
        # the one-soliton and within the error figure the job reports
        job = tmp_path / "atom-s.json"
        job.write_text("{" + ATOM_S + "}")
        assert main(["schrodinger", "--input", str(job), "--xmax", "10", "--step", "0.1",
                     "--out", str(tmp_path)]) == 0
        header, *rows = (tmp_path / "potential_trace.csv").read_text().splitlines()
        table = np.array([[float(v) for v in row.split(",")] for row in rows])
        err = np.max(np.abs(table[:, 1] - soliton_potential([(0.3, 0.8)], table[:, 0])))
        resid = json.loads((tmp_path / "riccati_residual.json").read_text())
        assert err <= 2e-6 and err <= resid["est_error"] <= 100.0 * err
        assert table[-1, 0] == 10.0 and len(table) == 201

    def test_verify_free(self, tmp_path):
        job = job_from_text('{"command":"verify","setting":"jacobi","R":2,"grid":64}')
        assert run(job, tmp_path) == 0
        rep = json.loads((tmp_path / "verify.json").read_text())
        assert rep["residual"] <= 10 * rep["eta"]
        assert rep["asymptotic_error"] < 1e-4
        # y m_plus(iy) at y = 1e6, where it is i up to O(1/y^2)
        val = 1e6 * m_value(job.measure, job.setting, 1e6j, "plus")
        assert rep["asymptotic_y_m_plus_iy"] == [val.real, val.imag]

    def test_example_full_pipeline(self, tmp_path):
        job = job_from_text('{"command":"example","name":"soliton","epsilon":0.25}')
        assert run(job, tmp_path) == 0
        for name in ("admissibility.json", "jacobi_window.csv", "verify.json"):
            assert (tmp_path / name).exists()

    def test_deterministic_output(self, tmp_path):
        job = job_from_text('{"command":"check","setting":"jacobi","R":4,"atoms":[{"t":1,"w":0.5}]}')
        d1, d2 = tmp_path / "a", tmp_path / "b"
        run(job, d1)
        run(job, d2)
        assert (d1 / "admissibility.json").read_bytes() == (d2 / "admissibility.json").read_bytes()

    def test_deterministic_trace(self, tmp_path):
        text = (
            '{"command":"schrodinger","setting":"schrodinger","R":2,'
            '"atoms":[{"t":0.3,"w":0.8}],"N":16,"x_max":0.3}'
        )
        d1, d2 = tmp_path / "a", tmp_path / "b"
        run(job_from_text(text), d1)
        run(job_from_text(text), d2)
        for name in ("potential_trace.csv", "riccati_residual.json"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_bool_is_not_a_number(self):
        with pytest.raises(SchemaError) as err:
            job_from_text('{"command":"check","setting":"jacobi","R":true}')
        assert err.value.pointer == "/R"

    def test_csv_line_endings(self, tmp_path):
        job = job_from_text('{"command":"jacobi","setting":"jacobi","R":2,"N":3}')
        run(job, tmp_path)
        raw = (tmp_path / "jacobi_window.csv").read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")

    def test_csv_cells_and_non_finite_rows(self, tmp_path):
        path = tmp_path / "t.csv"
        emit_csv(("n", "x"), np.array([[-1.0, 0.1], [2.0, 1e-300]]), path)
        assert path.read_text() == "n,x\n-1,0.10000000000000001\n2,1e-300\n"
        table = np.array([[0.0, 1.0], [0.1, np.nan]])
        with pytest.raises(NonFiniteOutput, match=r"t\.csv, row 0\.10000000000000001$"):
            emit_csv(("x", "V"), table, path)


# Two jobs at R well above 2 whose windows the CLI once wrote wrong with exit
# 0; the true rows come from the Toda n-soliton (helpers.soliton_window).
WIDE_R_JOBS = [
    ('{"setting":"jacobi","R":9.159841224713482,"N":10,"atoms":['
     '{"t":-8.845973551509562,"w":0.03389321092778422},'
     '{"t":7.935035960172147,"w":0.008858636118858768},'
     '{"t":6.56590144532958,"w":0.004138532861037201},'
     '{"t":-1.0734352100359454,"w":0.00941511492883028}]}',
     {(9, "a_n"): 1.0006997494228804, (10, "a_n"): 1.0005590707166307}),
    ('{"setting":"jacobi","R":8.129876193485044,"N":10,"atoms":['
     '{"t":2.7336661419840893,"w":0.23953492002175528},'
     '{"t":6.853626083504565,"w":0.027192322808290967},'
     '{"t":-4.51303666563873,"w":0.0926088366558157}]}',
     {(-10, "b_n"): -2.6034841098600838e-05}),
]


ATOM_SCHRODINGER = '{"setting":"schrodinger","R":2,"atoms":[{"t":0.3,"w":0.8}]}'
ATOM_JACOBI = '{"setting":"jacobi","R":2.01,"atoms":[{"t":1.05,"w":0.001}]}'
# two atoms whose flow is stiff at the default grid: each side is retried in substeps
STIFF_SCHRODINGER = '{"setting":"schrodinger","R":1.227,"atoms":[{"t":0.1081,"w":0.6361},{"t":0.1736,"w":0.1447}]}'
# the measure file shown in the README
README_MEASURE = (
    '{"setting":"jacobi","R":2.01,'
    '"atoms":[{"t":1.05,"w":0.001},{"t":-1.02,"w":0.002}],'
    '"pieces":[{"a":0.92,"b":0.98,"cheb":[0.005,0.0,0.001]}]}'
)


class TestMain:
    @pytest.mark.parametrize("text, rows", WIDE_R_JOBS, ids=["R9.16", "R8.13"])
    def test_cli_jacobi_wide_R_rows(self, tmp_path, text, rows):
        measure = tmp_path / "m.json"
        measure.write_text(text)
        assert main(["jacobi", "--input", str(measure), "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "jacobi_window.csv").read_text().splitlines()
        table = {int(n): {"a_n": float(a), "b_n": float(b)}
                 for n, a, b in (line.split(",") for line in lines[1:])}
        for (n, column), true in rows.items():
            assert table[n][column] == pytest.approx(true, abs=1e-14)

    def test_cli_check(self, tmp_path, capsys):
        measure = tmp_path / "m.json"
        measure.write_text('{"setting":"jacobi","R":4,"atoms":[{"t":1.0,"w":0.5}]}')
        status = main(["check", "--input", str(measure), "--out", str(tmp_path)])
        assert status == 0

    def test_cli_example_delta0(self, tmp_path):
        status = main(["example", "--name", "delta0", "--out", str(tmp_path)])
        assert status == 0
        assert (tmp_path / "potential_trace.csv").exists()

    def test_cli_error_json_on_stderr(self, tmp_path, capsys):
        measure = tmp_path / "bad.json"
        measure.write_text('{"setting":"jacobi"}')
        status = main(["check", "--input", str(measure), "--out", str(tmp_path)])
        assert status == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "SchemaError"
        assert err["pointer"] == "/R"

    @pytest.mark.parametrize("R", ["1e9", "1e300"])
    def test_cli_check_at_huge_R(self, tmp_path, R):
        # r = 1/R to the last bit; r + 1/r = R once cancelled to r = 0 or NaN
        measure = tmp_path / "m.json"
        measure.write_text(f'{{"setting":"jacobi","R":{R}}}')
        assert main(["check", "--input", str(measure), "--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize("k", [2.0, -10.0])
    def test_cli_jacobi_atom_near_the_inner_edge(self, tmp_path, k):
        # an atom at 2r or -10r with R = 1e5, inside the margin while it was 1e-9 R
        t = k * solve_r(1e5)
        measure = tmp_path / "m.json"
        measure.write_text(json.dumps({"setting": "jacobi", "R": 1e5, "atoms": [{"t": t, "w": 1e-3 * t * t}]}))
        assert main(["jacobi", "--input", str(measure), "--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize("eps", ["1e-9", "1e-12"])
    def test_cli_soliton_at_tiny_epsilon_is_validated(self, tmp_path, capsys, eps):
        # the atom at t = 1 lies well inside the ring at R ~ 1/eps; only the
        # admissibility tolerance refuses it, with exit 2
        assert main(["example", "--name", "soliton", "--epsilon", eps, "--out", str(tmp_path)]) == 2
        assert "SupportViolation" not in capsys.readouterr().err

    def test_cli_flag_overrides(self, tmp_path):
        measure = tmp_path / "m.json"
        measure.write_text('{"setting":"jacobi","R":2}')
        status = main(
            ["jacobi", "--input", str(measure), "--order", "4", "--out", str(tmp_path)]
        )
        assert status == 0
        lines = (tmp_path / "jacobi_window.csv").read_text().splitlines()
        assert len(lines) == 1 + 9  # header + sites -4..4

    @pytest.mark.parametrize(
        "command, text",
        [("check", ATOM_SCHRODINGER), ("verify", ATOM_SCHRODINGER), ("jacobi", README_MEASURE)],
        ids=["check", "verify", "jacobi"],
    )
    def test_flow_limits_bind_only_flow_jobs(self, tmp_path, command, text):
        # an order below the flow's and a step past its budget are never read here
        measure = tmp_path / "m.json"
        measure.write_text(text)
        argv = [command, "--order", "3", "--step", "1e-9", "--grid", "8"]
        assert main(argv + ["--input", str(measure), "--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize(
        "argv, text, status, error",
        [
            (["example", "--name", "free"], None, 0, None),
            (["example", "--name", "soliton", "--epsilon", "0.25"], None, 0, None),
            (["schrodinger"], '{"setting":"schrodinger","R":2,"atoms":[{"t":0.3,"w":0.8}],"N":16,"x_max":0.3}',
             0, None),
            (["check", "--order", "2"], ATOM_SCHRODINGER, 0, None),
            # the flow budget's edge at a decimal step: one atom fits the 10,000 steps the flow takes
            (["schrodinger", "--order", "4", "--xmax", "1.3", "--step", "1.3e-04"], ATOM_SCHRODINGER, 0, None),
            # the order reaches the flow only through a piece's rule: an atom measure flows at any N
            (["schrodinger", "--order", "10000"], ATOM_SCHRODINGER, 0, None),
            (["schrodinger", "--order", "3948"], STIFF_SCHRODINGER, 0, None),
            # the zero measure's V, like example free's b_0, is +0
            (["schrodinger"], '{"setting":"schrodinger","R":1}', 0, None),
            # past the float range: r^2 underflows to 0 at R = 1e170, and the
            # atom flow at R = 1e130 stays finite; verify's R^2 at R = 1e155
            # overflows to inf, which is refused
            (["jacobi", "--order", "10"], '{"setting":"jacobi","R":1e170,"atoms":[{"t":1.5,"w":0.01}]}', 0, None),
            (["schrodinger"], '{"setting":"schrodinger","R":1e130,"atoms":[{"t":0.5,"w":0.01}]}', 0, None),
            (["verify"], '{"setting":"schrodinger","R":1e155,"atoms":[{"t":0.5,"w":0.01}]}', 1, "NonFiniteOutput"),
            # a point mass of 0.75 at t = 1 fails check at R = 5 and passes at R = 5.000005
            (["check"], '{"setting":"jacobi","R":5,"atoms":[{"t":1,"w":0.75}]}', 2, None),
            (["check"], '{"setting":"jacobi","R":5.000005,"atoms":[{"t":1,"w":0.75}]}', 0, None),
            # a valid piece whose widest panel's weights overflow while the
            # flow budget counts its nodes: no warning, the gate's one line
            (["schrodinger"], '{"setting":"schrodinger","R":1e200,"pieces":[{"a":1,"b":1e199,"cheb":[1e200]}]}',
             2, "AdmissibilityRequired"),
        ],
        ids=["example-free", "example-soliton", "schrodinger-N16", "check-order-2", "flow-budget-edge",
             "schrodinger-N10000", "stiff-N3948", "schrodinger-zero",
             "jacobi-R1e170", "schrodinger-R1e130", "verify-R1e155", "point-mass-R5", "point-mass-R5.000005",
             "schrodinger-piece-R1e200"],
    )
    @pytest.mark.filterwarnings("error")
    def test_cli_exit_status(self, tmp_path, capsys, argv, text, status, error):
        if text is not None:
            measure = tmp_path / "m.json"
            measure.write_text(text)
            argv = argv + ["--input", str(measure)]
        assert main(argv + ["--out", str(tmp_path / "out")]) == status
        if error is None:
            assert capsys.readouterr().err == ""
        else:
            assert _one_error_line(capsys)["error"] == error
        for table in (tmp_path / "out").glob("*.csv"):  # no cell reads -0
            assert "-0" not in table.read_text().replace("\n", ",").split(",")

    def test_order_leaves_an_atom_trace_unchanged(self, tmp_path):
        # the stiff measure's flow takes the same retries at N = 3948 as at N = 40
        measure = tmp_path / "m.json"
        measure.write_text(STIFF_SCHRODINGER)
        for N in ("40", "3948"):
            assert main(["schrodinger", "--order", N, "--input", str(measure), "--out", str(tmp_path / N)]) == 0
        trace = "potential_trace.csv"
        assert (tmp_path / "3948" / trace).read_bytes() == (tmp_path / "40" / trace).read_bytes()

    def test_cli_admissibility_exit_code(self, tmp_path, capsys):
        # a reconstruction refused by the gate names it in one line on stderr
        for command, text in [
            ("jacobi", '{"setting":"jacobi","R":4,"atoms":[{"t":1.0,"w":1.0}]}'),
            ("schrodinger", '{"setting":"schrodinger","R":2,"atoms":[{"t":0.0,"w":5.0}]}'),
        ]:
            measure = tmp_path / f"{command}.json"
            measure.write_text(text)
            status = main([command, "--input", str(measure), "--out", str(tmp_path / command)])
            assert status == 2
            err = _one_error_line(capsys)
            assert err["error"] == "AdmissibilityRequired"
            assert f"fails the {command} admissibility inequality" in err["message"]

    @pytest.mark.parametrize(
        "preset", [["delta1"], ["delta0", "--mass", "5"]], ids=["jacobi", "schrodinger"]
    )
    def test_cli_example_on_inadmissible_preset(self, tmp_path, capsys, preset):
        # one pipeline for both settings: the failed check skips the
        # reconstruction, and verify still runs
        status = main(["example", "--name", *preset, "--out", str(tmp_path)])
        assert status == 2
        assert capsys.readouterr().err == ""
        assert sorted(f.name for f in tmp_path.iterdir()) == ["admissibility.json", "verify.json"]
        assert json.loads((tmp_path / "admissibility.json").read_text())["passed"] is False

    @pytest.mark.parametrize(
        "argv, text, pointer",
        [
            (["jacobi", "--order", "0"], '{"setting":"jacobi","R":2}', "/N"),
            (["verify"], '{"setting":"jacobi","R":NaN}', "/R"),
            # sizes that would exhaust memory or run for minutes are refused
            (["jacobi", "--order", "100000000000"], '{"setting":"jacobi","R":2}', "/N"),
            (["schrodinger"], '{"setting":"schrodinger","R":2,"N":1e12}', "/N"),
            (["schrodinger"], '{"setting":"schrodinger","R":2,"step":1e-200}', "/step"),
            (["schrodinger"], '{"setting":"schrodinger","R":2,"N":2.7}', "/N"),
            # the flow needs N >= 4, and no job takes N beyond 10^4
            (["schrodinger", "--order", "3"], ATOM_SCHRODINGER, "/N"),
            (["example", "--name", "delta0", "--order", "2"], "{}", "/N"),
            (["schrodinger", "--order", "10001"], ATOM_SCHRODINGER, "/N"),
            # flag text is read like a job-file number, not by argparse (exit 2)
            (["jacobi", "--order", "abc"], README_MEASURE, "/N"),
            (["jacobi", "--order", "1.5"], README_MEASURE, "/N"),
            (["jacobi", "--eta", "x"], README_MEASURE, "/eta"),
            (["jacobi", "--grid", "nan"], README_MEASURE, "/grid"),
            (["jacobi", "--step", "1e999"], README_MEASURE, "/step"),
            (["jacobi", "--xmax", ""], README_MEASURE, "/x_max"),
            # preset fields are finite JSON numbers, refused at their own pointer
            (["example"], '{"name":"soliton","epsilon":[1]}', "/epsilon"),
            (["example"], '{"name":"delta0","mass":{"a":1}}', "/mass"),
            (["example"], '{"name":"delta0","mass":"2"}', "/mass"),
            (["example"], '{"name":"soliton","epsilon":NaN}', "/epsilon"),
            (["example"], '{"name":"soliton"}', "/epsilon"),
            (["example"], '{"name":7}', "/name"),
            (["example", "--name", "soliton", "--epsilon", "2"], "{}", "/epsilon"),
            (["example", "--name", "delta0", "--mass", "-1"], "{}", "/mass"),
            (["example", "--name", "delta0", "--mass", "0"], "{}", "/mass"),
            (["example", "--name", "nope"], "{}", "/name"),
            # the flow budget binds the flow jobs at any order, 10,001 steps of 2^-16 for one atom,
            # and grids beyond 512 points are refused
            (["schrodinger", "--order", "73", "--xmax", "0.1526031494140625", "--step", "1.52587890625e-05"],
             ATOM_SCHRODINGER, "/step"),
            (["example", "--name", "delta0", "--step", "1e-9"], "{}", "/step"),
            (["verify", "--grid", "513"], README_MEASURE, "/grid"),
            # each reconstructing command reads its own setting
            (["schrodinger"], README_MEASURE, "/setting"),
            (["jacobi"], ATOM_SCHRODINGER, "/setting"),
            (["schrodinger"], ATOM_JACOBI, "/setting"),
            (["verify", "--grid", "513"], ATOM_JACOBI, "/grid"),
            (["jacobi", "--order", "abc"], ATOM_JACOBI, "/N"),
            # one step past the flow budget at N = 4 too
            (["schrodinger", "--order", "4", "--xmax", "0.1526031494140625", "--step", "1.52587890625e-05"],
             ATOM_SCHRODINGER, "/step"),
            # the default x_max = 0.8/R and step = 1/(20 R) overflow to inf, so their ratio is NaN
            (["schrodinger"], '{"setting":"schrodinger","R":1e-310}', "/step"),
        ],
    )
    def test_cli_refuses_out_of_range(self, tmp_path, capsys, argv, text, pointer):
        measure = tmp_path / "m.json"
        measure.write_text(text)
        status = main(argv + ["--input", str(measure), "--out", str(tmp_path)])
        assert status == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "SchemaError"
        assert err["pointer"] == pointer


# the atom at 0.95 lies inside the piece [0.92, 0.98]
OVERLAP_MEASURE = (
    '{"setting":"jacobi","R":2.01,'
    '"atoms":[{"t":0.95,"w":0.01},{"t":-1.02,"w":0.02}],'
    '"pieces":[{"a":0.92,"b":0.98,"cheb":[0.05,0.0,0.01]}]}'
)


class TestMainRefusals:
    @pytest.mark.parametrize(
        "raw",
        [b'{"setting": "jacobi", "R": 2.01,', b'{"setting": "jacobi", "R": 2.01}\xff'],
        ids=["truncated", "not-utf8"],
    )
    def test_undecodable_input(self, tmp_path, capsys, raw):
        measure = tmp_path / "bad.json"
        measure.write_bytes(raw)
        status = main(["check", "--input", str(measure), "--out", str(tmp_path)])
        assert status == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "SchemaError"
        assert err["pointer"] == ""
        assert "invalid JSON" in err["message"]

    @pytest.mark.parametrize("command", ["check", "verify", "jacobi", "schrodinger"])
    @pytest.mark.parametrize(
        "text, error",
        [
            ('{"setting":"jacobi","R":4,"atoms":[{"t":1.0,"w":-0.01}]}', "NegativeWeight"),
            ('{"setting":"schrodinger","R":2,"atoms":[{"t":0.0,"w":-0.01}]}', "NegativeWeight"),
            ('{"setting":"jacobi","R":2,"atoms":[{"t":1.0,"w":1.0}]}', "SupportViolation"),
            (OVERLAP_MEASURE, "SupportViolation"),
            (
                '{"setting":"jacobi","R":3.0,"pieces":[{"a":2.618031752681917,'
                '"b":2.6180317526819175,"cheb":[0.1,0,0]}]}',
                "SupportViolation",
            ),
            (
                '{"setting":"jacobi","R":3.0,"pieces":[{"a":2.0,"b":2.00000000000001,"cheb":[0.1]}]}',
                "SupportViolation",
            ),
            # a density whose samples overflow: a non-finite mass
            (
                '{"setting":"jacobi","R":2.5,"pieces":[{"a":1.2,"b":1.4,"cheb":[1e308,1e308]}]}',
                "NegativeWeight",
            ),
            # pieces the flow's node count would read: refused before the flow budget
            ('{"setting":"schrodinger","R":2,"pieces":[{"a":0.1,"b":0.5,"cheb":[]}]}', "NegativeWeight"),
            (
                '{"setting":"schrodinger","R":2,"pieces":[{"a":0.5,"b":0.5000000000000001,"cheb":[1]}]}',
                "SupportViolation",
            ),
        ],
        ids=[
            "negative-weight-jacobi", "negative-weight-schrodinger", "outside-support", "overlap",
            "piece-1-ulp-wide", "piece-1e-14-wide", "overflowing-density",
            "empty-cheb-schrodinger", "piece-1-ulp-wide-schrodinger",
        ],
    )
    def test_invalid_measure_refused(self, tmp_path, capsys, command, text, error):
        if command in ("jacobi", "schrodinger") and f'"setting":"{command}"' not in text:
            error = "SchemaError"  # the command refuses the other setting before the measure
        measure = tmp_path / "m.json"
        measure.write_text(text)
        status = main([command, "--input", str(measure), "--out", str(tmp_path / "out")])
        assert status == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == error
        assert not (tmp_path / "out").exists()

    def test_nan_flow_refused(self, tmp_path, capsys):
        # the flow's state is NaN after its first step, which neither of the
        # kernel's step checks may let through
        argv = ["example", "--name", "delta0", "--order", "749", "--xmax", "2.96e158", "--step", "6.2e156"]
        assert main(argv + ["--out", str(tmp_path)]) == 1
        assert _one_error_line(capsys)["error"] == "StepTooLarge"

    @pytest.mark.parametrize(
        "text, eta",
        [
            (ATOM_JACOBI, "1e300"),
            (README_MEASURE, "1e300"),
            (README_MEASURE, "1e200"),
        ],
        ids=["atom-1e300", "readme-1e300", "readme-1e200"],
    )
    def test_overflowing_eta_refused(self, tmp_path, capsys, text, eta):
        # z = x + i eta overflows in the disk root; the NaN it leaves is
        # refused, neither written as 0 nor graded into a traceback
        measure = tmp_path / "m.json"
        measure.write_text(text)
        status = main(["verify", "--eta", eta, "--input", str(measure), "--out", str(tmp_path)])
        assert status == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "NonFiniteOutput"
        assert not (tmp_path / "verify.json").exists()

    @pytest.mark.parametrize("xmax, step", [("1e160", "1e157"), ("1e300", "1e297")])
    def test_overflowing_potential_refused(self, tmp_path, capsys, xmax, step):
        # the Hermite interpolant of V overflows at these steps and leaves NaN
        # samples, even though p = 0 for the zero measure: refused, not read
        # as a Riccati blow-up
        measure = tmp_path / "m.json"
        measure.write_text('{"setting":"schrodinger","R":2}')
        argv = ["schrodinger", "--input", str(measure), "--xmax", xmax, "--step", step]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 1
        assert _one_error_line(capsys)["error"] == "NonFiniteOutput"

    @pytest.mark.parametrize("command", ["check", "jacobi", "verify"])
    def test_readme_measure_passes(self, tmp_path, command):
        measure = tmp_path / "m.json"
        measure.write_text(README_MEASURE)
        assert main([command, "--input", str(measure), "--out", str(tmp_path)]) == 0


def _one_error_line(capsys):
    """The single JSON error line a refused job leaves on stderr."""
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])


class TestUsageErrors:
    """Usage and file errors exit 1 with one JSON line, never argparse's exit
    2 with usage text or a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [["frobnicate"], ["check", "--frob", "1"], ["jacobi", "--order"], [],
         ["example", "--nam", "free"], ["example", "--name", "free", "--ord", "5"]],
        ids=["unknown-command", "unknown-flag", "missing-value", "no-command",
             "abbreviated-flag", "abbreviated-order"],
    )
    def test_usage_error(self, capsys, argv):
        assert main(argv) == 1
        err = _one_error_line(capsys)
        assert err["error"] == "SchemaError"
        assert err["pointer"] == ""

    def test_order_in_exponent_notation(self, tmp_path):
        measure = tmp_path / "m.json"
        measure.write_text('{"setting":"jacobi","R":2}')
        assert main(["jacobi", "--order", "4e1", "--input", str(measure), "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "jacobi_window.csv").read_text().splitlines()
        assert len(lines) == 1 + 81  # header + sites -40..40

    def test_unreadable_input_is_io_error(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert main(["check", "--input", str(missing), "--out", str(tmp_path)]) == 1
        assert _one_error_line(capsys)["error"] == "IoError"

    def test_output_directory_that_cannot_be_made_is_io_error(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main(["example", "--name", "free", "--out", str(blocker / "out")]) == 1
        assert _one_error_line(capsys)["error"] == "IoError"


def _run_isolated(code):
    """Run code in a fresh interpreter that sees this checkout's package."""
    src = str(Path(reflectionless.__file__).parents[1])
    return subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r}); " + code],
        capture_output=True, text=True, check=True,
    ).stdout


def test_import_loads_neither_scipy_nor_numba():
    out = _run_isolated(
        "import reflectionless; "
        "print(sorted(m for m in ('scipy', 'numba') if m in sys.modules))"
    )
    assert out.strip() == "[]"


def test_example_delta0_runs_without_scipy(tmp_path):
    out = _run_isolated(
        "from reflectionless.cli import main; "
        f"status = main(['example', '--name', 'delta0', '--out', {str(tmp_path)!r}]); "
        "print(status, 'scipy' in sys.modules)"
    )
    assert out.strip() == "0 False"
    assert (tmp_path / "riccati_residual.json").exists()
