"""Benchmark of the reflectionless library: a measure in, a verified operator out.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the library is imported from ``src/`` next to this
directory, so nothing needs installing.  Workloads (see README.md):

  cli-jobs          one fresh ``python -m reflectionless.cli`` process per op
  jacobi-deep       reconstruct at N = 80 / 160 plus the oracle check

Load is a closed loop with one client in one process: the next op starts
when the previous one has finished.  A run holds a fixed number of whole
cycles of ops, sized from ``--seconds`` at a nominal cost per op (see
``op_count``), so that every commit is measured on the same ops.
``--trace 0`` measures the end-to-end metrics; ``--trace 1`` replays the
ops once untraced and once under the span tracer and reports the per-layer
metrics; its two loops together fill about ``--seconds``.  The last line of
standard output is the result object; the line before it holds the run
manifest.
"""

from __future__ import annotations

from time import perf_counter

# Taken before anything imports numpy (inputs does), so that the import
# counted in set-up is the whole import of the library and its dependencies.
T_START = perf_counter()

import os

# One thread of work: BLAS pools would compete with the op for the few cores
# of a small machine.  Set before numpy loads; CLI children inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import sys
import traceback
from collections import Counter
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 3
MAX_REPORTED_PROBLEMS = 5

# Nominal seconds per op (timed run, traced run), used only to size a run's
# fixed op count.  A count taken from measured time would move the tail's
# percentile, and the counts, with the speed of the code.  cli-jobs runs a
# fresh process per op when timed and replays in process when traced.
NOMINAL_OP_S = {
    "cli-jobs": (1.2, 0.1),
    "jacobi-deep": (0.6, 0.65),
}
# A cli-jobs block of 16 jobs takes about 20 s; two blocks put its tail (the
# 11th slowest op) above its median.
MIN_TIMED_CYCLES = 2


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = _parse_args(argv)
    if not (SRC / "reflectionless" / "__init__.py").is_file():
        print(f"perfbench: library source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import reflectionless  # noqa: F401  - timed: the import is part of set-up
    import_s = perf_counter() - T_START

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        bench = Bench(args.workload, args.seed, args.seconds, work)
        if args.trace:
            manifest, result = bench.traced()
        else:
            manifest, result = bench.timed(import_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it, or it holds span files
    print(json.dumps({"manifest": manifest}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


class Bench:
    def __init__(self, workload, seed, seconds, work):
        import ops  # imports the library, so only once src/ is on sys.path

        self.inputs_mod, self.ops = inputs, ops
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.work = work
        self.env = ops.cli_env(SRC)
        self.op_fn = ops.jacobi_op if workload == "jacobi-deep" else None

    # -- set-up -------------------------------------------------------------

    def setup_once(self):
        """Fresh caches, inputs from the seed, warm-up; returns the inputs."""
        reset_caches()
        inputs = self.inputs_mod.make(self.workload, self.seed)
        if self.workload == "cli-jobs":
            # one child run fills the OS file cache and the bytecode cache
            job = {"name": "warm-up", "argv": ["example", "--name", "free"], "expect": 0}
            _, problem, _ = self.run_subprocess_job(job)
            if problem is not None:
                raise RuntimeError(f"warm-up job failed: {problem}")
        else:
            for op in inputs["warm"]:
                self.op_fn(op)
        return inputs

    def timed_setup(self):
        """setup_once and its wall time: (inputs, seconds)."""
        t0 = perf_counter()
        inputs = self.setup_once()
        return inputs, perf_counter() - t0

    # -- ops ----------------------------------------------------------------

    def run_subprocess_job(self, job):
        ops = self.ops
        job_dir = ops.fresh_dir(self.work / "job")
        status, stderr, wall = ops.run_cli_subprocess(job, job_dir, self.env)
        try:
            report = ops.check_cli(job, status, stderr, job_dir / "out")
        except ops.OpFailed as exc:
            return wall, exc, None
        return wall, None, report

    def run_in_process(self, op):
        """(seconds, problem, report) for one op in this process; problem is
        None when every check passed, else the OpFailed that a check raised;
        report holds what the checks saw."""
        ops = self.ops
        t0 = perf_counter()
        try:
            if self.workload == "cli-jobs":
                job_dir = ops.fresh_dir(self.work / "job")
                status, stderr = ops.run_cli_in_process(op, job_dir)
                report = ops.check_cli(op, status, stderr, job_dir / "out")
            else:
                report = self.op_fn(op)
        except ops.OpFailed as exc:
            return perf_counter() - t0, exc, None
        except Exception:  # noqa: BLE001 - the loop must go on and report it
            return perf_counter() - t0, ops.OpFailed(traceback.format_exc(limit=3)), None
        return perf_counter() - t0, None, report

    @staticmethod
    def loop(op_list, count, run, tracer=None):
        """Closed loop over the first `count` ops of op_list, cycled."""
        tally = Tally()
        start = perf_counter()
        for i in range(count):
            if tracer is not None:
                tracer.op = i
            op = op_list[i % len(op_list)]
            tally.add(op, *run(op))
        tally.elapsed = perf_counter() - start
        return tally

    # -- the two kinds of run ----------------------------------------------

    def timed(self, import_s):
        inputs, first_setup_s = self.timed_setup()
        run = self.run_subprocess_job if self.workload == "cli-jobs" else self.run_in_process
        op_list = self.inputs_mod.op_list(self.workload, inputs)
        count = op_count(self.workload, self.seconds, inputs["cycle"], traced=False)
        tally = self.loop(op_list, count, run)
        if self.workload == "cli-jobs":
            peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        else:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # The other set-ups come after the loop, where clearing the caches
        # costs the timed ops nothing, so that set-up is sampled at both ends
        # of the run and not only in the machine state of its first seconds.
        setups = [first_setup_s] + [self.timed_setup()[1] for _ in range(SETUP_REPEATS - 1)]
        setup_s = statistics.median(setups)
        if self.workload != "cli-jobs":
            setup_s += import_s
        p50, tail, pct = tally.percentiles()
        metrics = {
            "op_p50_s": (p50, "s"),
            "op_tail_s": (tail, "s"),
            "ops_per_s": (len(tally.times) / tally.elapsed, "1/s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        }
        manifest = self.manifest(inputs, tally, traced=False)
        manifest["run"]["tail_percentile"] = pct
        return manifest, tally.result(metrics)

    def traced(self):
        import tracing

        inputs = self.setup_once()
        op_list = self.inputs_mod.op_list(self.workload, inputs)
        count = op_count(self.workload, self.seconds, inputs["cycle"], traced=True)
        untraced = self.loop(op_list, count, self.run_in_process)

        self.setup_once()  # back to the post-set-up cache state
        tracer = tracing.Tracer()
        caches_before = tracing.cache_counts()
        restore, unwrapped = tracing.install(tracer)
        try:
            tally = self.loop(op_list, count, self.run_in_process, tracer=tracer)
        finally:
            restore()
        caches_after = tracing.cache_counts()

        metrics = tracing.layer_metrics(tracer, caches_before, caches_after)
        metrics.update(tracing.import_times(self.env))
        metrics.update(self.scaling_rows(tracing.SCALING_N) if self.workload == "jacobi-deep"
                       else {f"jacobi.reconstruct_s.N{N}": 0.0 for N in tracing.SCALING_N})
        metrics["jacobi.oracle_residual_max"] = tally.worst.get("oracle_residual", 0.0)
        metrics["cli.contract_breaks"] = tally.contract_breaks
        traced_p50 = tally.percentiles()[0]
        untraced_p50 = untraced.percentiles()[0]
        metrics["trace.op_p50_s"] = traced_p50
        metrics["trace.overhead_s"] = traced_p50 - untraced_p50

        WORK.mkdir(parents=True, exist_ok=True)
        spans_path = WORK / f"spans-{self.workload}-seed{self.seed}.tsv.gz"
        tracer.write_spans(spans_path)

        manifest = self.manifest(inputs, tally, traced=True)
        manifest["run"].update({
            "spans": len(tracer.spans),
            "spans_file": str(spans_path.relative_to(ROOT)),
            "unwrapped": unwrapped,
            "untraced_op_p50_s": untraced_p50,
        })
        units = tracing.METRIC_UNITS
        return manifest, tally.result({k: (v, units[k]) for k, v in metrics.items()})

    def scaling_rows(self, orders):
        """reconstruct on one fixed measure at each N in orders, timed on a
        second call so that the rows compare warm caches."""
        ops = self.ops
        sigma, setting = ops.load(self.inputs_mod.scaling_measure())
        rows = {}
        for N in orders:
            ops.jacobi.reconstruct(sigma, setting, N)
            t0 = perf_counter()
            ops.jacobi.reconstruct(sigma, setting, N)
            rows[f"jacobi.reconstruct_s.N{N}"] = perf_counter() - t0
        return rows

    # -- manifest -----------------------------------------------------------

    def manifest(self, inputs, tally, traced):
        import numpy
        import scipy
        from reflectionless import _kernels

        inp = self.inputs_mod
        shares = {}
        for w in inp.WORKLOADS:
            w_inputs = inputs if w == self.workload else inp.make(w, self.seed)
            n = op_count(w, self.seconds, w_inputs["cycle"], traced)
            shares[w] = inp.repeated_r_share(w, w_inputs, n)
        return {
            "workload": self.workload,
            "seed": self.seed,
            "seconds": self.seconds,
            "commit": git_commit(),
            "source_sha256": source_digest(),
            "inputs_sha256": inp.digest(inputs),
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "numba_enabled": bool(getattr(_kernels, "NUMBA_ENABLED", False)),
            "nproc": os.cpu_count(),
            "load": "closed loop, one client, one process",
            "repeated_r_share": shares,
            "run": tally.summary(),
        }


class Tally:
    """Op times and outcomes of one loop."""

    def __init__(self):
        self.times = []
        self.worst = {}  # largest value each check observed
        self.known = Counter()  # jobs that failed in exactly their named known way
        self.contract_breaks = 0  # invalid inputs not refused as the contract says
        self.problems = []  # unexpected failures
        self.elapsed = 0.0

    def add(self, op, dt, problem, report):
        self.times.append(dt)
        for key, value in (report or {}).items():
            self.worst[key] = max(self.worst.get(key, value), value)
        if problem is None:
            return
        from ops import KnownDefect  # ops loads once the library is on sys.path

        self.contract_breaks += op.get("expect") == 1
        if isinstance(problem, KnownDefect):
            self.known[op["name"]] += 1
        else:
            self.problems.append(f"{op.get('name', 'op')}: {problem}")

    def percentiles(self):
        """(median, tail, tail percentile).  The tail is the highest
        percentile with at least ten samples beyond it (nearest rank); with
        ten ops or fewer it is the slowest op."""
        times = sorted(self.times)
        n = len(times)
        if n > 10:
            tail, pct = times[-11], 100.0 * (n - 10) / n
        else:
            tail, pct = times[-1], 100.0
        return statistics.median(times), tail, pct

    def summary(self):
        n = len(self.times)
        return {
            "attempted": n,
            "failed": len(self.problems),
            "known_defects": dict(self.known),
            "contract_breaks": self.contract_breaks,
            "error_rate": (len(self.problems) + sum(self.known.values())) / max(n, 1),
            "problems": self.problems[:MAX_REPORTED_PROBLEMS],
            "elapsed_s": self.elapsed,
        }

    def result(self, metrics):
        return {
            "correct": not self.problems,
            "attempted": len(self.times),
            "failed": len(self.problems),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }


def op_count(workload, seconds, cycle, traced):
    """Whole cycles of ops filling about `seconds` at nominal speed (half of
    it for each loop of a traced run); a timed run holds at least
    MIN_TIMED_CYCLES."""
    loop_s = seconds / 2 if traced else seconds
    cycles = round(loop_s / (NOMINAL_OP_S[workload][traced] * cycle))
    return cycle * max(1 if traced else MIN_TIMED_CYCLES, cycles)


def reset_caches():
    """Clear every functools cache of the library (series, moments, rules)."""
    from reflectionless import _kernels, cli, herglotz, jacobi, measure, schrodinger, series

    for mod in (series, measure, herglotz, jacobi, schrodinger, _kernels, cli):
        for obj in vars(mod).values():
            if getattr(obj, "__module__", None) == mod.__name__ and hasattr(obj, "cache_clear"):
                obj.cache_clear()


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "reflectionless").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit():
    """HEAD commit when the checkout is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


if __name__ == "__main__":
    sys.exit(main())
