"""Span tracer for the traced run, and the per-layer metrics built from it.

The wrappers live here, in the benchmark's own files: ``install`` swaps them
into the module namespaces where the library looks its calls up (for
example ``jacobi._conv``, which jacobi imports from series directly) and
returns a function that puts the originals back.  No library source is
edited.

A span is (name, start, end, parent index, op id); spans are kept in memory
and written once, at the end, by ``write_spans``.  The finest-grained calls
(quadrature rules, moment-hierarchy derivatives) only bump counters.
"""

from __future__ import annotations

import functools
import gzip
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.maxima = defaultdict(float)
        self.op = None
        self._stack = []

    def span(self, name, hook=None):
        """Decorator factory: time each call as a span named ``name`` (or
        ``name(args)``), then pass (args, result) to ``hook``."""

        def decorate(fn):
            spans, stack = self.spans, self._stack

            def traced(*args, **kwargs):
                idx = len(spans)
                spans.append(None)
                parent = stack[-1] if stack else -1
                stack.append(idx)
                t0 = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = perf_counter()
                    stack.pop()
                    label = name(args) if callable(name) else name
                    spans[idx] = (label, t0, t1, parent, self.op)
                if hook is not None:
                    hook(self, args, result)
                return result

            return functools.update_wrapper(traced, fn)

        return decorate

    def counter(self, key, amount):
        def decorate(fn):
            counts = self.counts

            def counted(*args, **kwargs):
                counts[key] += amount(args)
                return fn(*args, **kwargs)

            return functools.update_wrapper(counted, fn)

        return decorate

    # -- aggregation --------------------------------------------------------

    def summary(self):
        """Per span name: calls, total (inclusive) time, self time, and the
        time of outermost spans per layer (busy time)."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls, total, own = Counter(), defaultdict(float), defaultdict(float)
        busy = defaultdict(float)
        for i, (name, t0, t1, parent, _) in enumerate(self.spans):
            dur = t1 - t0
            calls[name] += 1
            total[name] += dur
            own[name] += dur - child[i]
            layer = _layer(name)
            if parent < 0 or _layer(self.spans[parent][0]) != layer:
                busy[layer] += dur
        return calls, total, own, busy

    def write_spans(self, path):
        """All spans as gzip TSV: name, start, end, parent, op id."""
        base = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt") as fh:
            fh.write("name\tstart_s\tend_s\tparent\top\n")
            for name, t0, t1, parent, op in self.spans:
                fh.write(f"{name}\t{t0 - base:.9f}\t{t1 - base:.9f}\t{parent}\t{op}\n")


def _layer(name):
    return name.split(".", 1)[0]


def conv_madds(a, b, n):
    """Multiply-adds of series._conv(a, b, n) from the argument sizes:
    sum over i < min(len a, n) of min(n - i, len b)."""
    A, B = min(len(a), n), len(b)
    full = max(0, min(A, n - B + 1))  # rows that use all of b
    return full * B + (A - full) * n - (A - 1 + full) * (A - full) // 2


# ---------------------------------------------------------------------------
# hooks: counts taken where the work happens


def _on_conv(tr, args, result):
    tr.counts["series.conv_madds"] += conv_madds(args[0], args[1], args[2])


def _on_recurrence(tr, args, result):
    if len(result) == 3:
        tr.counts["jacobi.rows_requested"] += args[1]
        tr.counts["jacobi.rows_valid"] += result[2]


def _on_flow(tr, args, result):
    states, _, _, worst_err = result
    tr.counts["kernels.flow_steps"] += len(states) - 1
    tr.maxima["schrodinger.flow_worst_err"] = max(tr.maxima["schrodinger.flow_worst_err"], worst_err)


def _on_riccati_path(tr, args, result):
    tr.counts["kernels.riccati_steps"] += args[2].size


def _on_cf(tr, args, result):
    tr.counts["kernels.cf_site_evals"] += args[0].size * args[2].size


def _on_mismatch(tr, args, result):
    key = "schrodinger.riccati_mismatch_max"
    tr.maxima[key] = max(tr.maxima[key], result[0])


def _on_emit(tr, args, result):
    tr.counts["cli.emit_bytes"] += Path(args[-1]).stat().st_size


class _TimedSpline:
    """CubicSpline stand-in whose construction and evaluation are spans."""

    def __init__(self, tracer, cls):
        self._make = tracer.span("schrodinger.spline")(cls)
        self._tracer = tracer

    def __call__(self, *args, **kwargs):
        spline = self._make(*args, **kwargs)
        return self._tracer.span("schrodinger.spline")(spline)


def install(tracer):
    """Swap traced wrappers into the library's namespaces; returns
    (restore, names that could not be wrapped)."""
    from reflectionless import _kernels, cli, herglotz, jacobi, measure, schrodinger, series

    sp, ct = tracer.span, tracer.counter
    plan = []

    def add(modules, attr, wrap):
        plan.extend((mod, attr, wrap) for mod in modules)

    # series: jacobi imports _conv and _compose_dense directly
    add((series, jacobi), "_conv", sp("series.conv", _on_conv))
    add((series, jacobi), "_compose_dense", sp("series.compose"))
    add((series, jacobi), "ts_compose", sp("series.ts_compose"))
    add((series, jacobi), "ts_revert", sp("series.revert"))
    # jacobi
    add((jacobi, cli), "reconstruct", sp("jacobi.reconstruct"))
    add((jacobi,), "rho_plus_moments", sp("jacobi.moments"))
    add((jacobi,), "rho_minus_moments", sp("jacobi.moments"))
    add((jacobi,), "moments_to_recurrence", sp("jacobi.recurrence", _on_recurrence))
    add((jacobi, cli), "m_oracle", sp("jacobi.oracle"))
    add((jacobi,), "prop311_check", sp("jacobi.postcheck"))
    # measure
    add((measure, herglotz, jacobi, schrodinger, cli), "moment", sp("measure.moment"))
    add((measure, herglotz), "cauchy", sp("measure.cauchy"))
    add((measure, herglotz), "adaptive_gauss_legendre", sp("measure.quad"))
    add((measure, herglotz), "validate", sp("measure.validate"))
    add((measure,), "_gl_apply", ct("measure.quad_nodes", lambda args: args[3]))
    # herglotz
    add((herglotz, jacobi, cli), "admissible_discrete", sp("herglotz.admissibility"))
    add((herglotz, schrodinger, cli), "admissible_continuous", sp("herglotz.admissibility"))
    add((herglotz,), "boundary_value_discrete", sp("herglotz.boundary_value"))
    add((herglotz, cli), "m_value", sp("herglotz.m_value"))
    add((herglotz, cli), "reflectionless_residual", sp("herglotz.residual"))
    # schrodinger
    add((schrodinger,), "init_flow", sp("schrodinger.init"))
    add((schrodinger, cli), "integrate_flow", sp("schrodinger.flow"))
    add((schrodinger, cli), "riccati_mismatch", sp("schrodinger.riccati", _on_mismatch))
    add((schrodinger,), "CubicSpline", lambda cls: _TimedSpline(tracer, cls))
    # _kernels: schrodinger and jacobi look these up as _kernels attributes
    add((_kernels,), "flow_integrate", sp("kernels.flow", _on_flow))
    add((_kernels,), "riccati_path", sp("kernels.riccati", _on_riccati_path))
    add((_kernels,), "cf_plus", sp("kernels.cf", _on_cf))
    add((_kernels,), "cf_minus", sp("kernels.cf", _on_cf))
    add((_kernels,), "_deriv_numpy", ct("kernels.deriv_evals", lambda args: 1))
    # cli
    add((cli,), "build_parser", sp("cli.parse"))
    add((cli,), "_job_from_args", sp("cli.parse"))
    add((cli,), "run", sp(lambda args: f"cli.run.{args[0].command}"))
    add((cli,), "emit_json", sp("cli.emit", _on_emit))
    add((cli,), "emit_csv", sp("cli.emit", _on_emit))

    # capture every original before the first swap; a name the library no
    # longer has is reported, and its metrics read zero
    found = [(mod, attr, getattr(mod, attr), wrap) for mod, attr, wrap in plan if hasattr(mod, attr)]
    unwrapped = [f"{mod.__name__}.{attr}" for mod, attr, _ in plan if not hasattr(mod, attr)]
    for mod, attr, orig, wrap in found:
        setattr(mod, attr, wrap(orig))

    def restore():
        for mod, attr, orig, _ in found:
            setattr(mod, attr, orig)

    return restore, unwrapped


# ---------------------------------------------------------------------------
# caches the per-layer ratios are read from


def _cache_totals(caches):
    infos = [c.cache_info() for c in caches if c is not None]
    return sum(i.hits for i in infos), sum(i.misses for i in infos)


def cache_counts():
    """(hits, misses) of the series caches and of herglotz's moment cache."""
    from reflectionless import herglotz, jacobi

    return {
        "series": _cache_totals([getattr(jacobi, "_lambda_of_u", None),
                                 getattr(jacobi, "_lambda_small_of_v", None)]),
        "moment": _cache_totals([getattr(herglotz, "_cached_moment", None)]),
    }


def _hit_ratio(before, after):
    hits, misses = after[0] - before[0], after[1] - before[1]
    return hits / (hits + misses) if hits + misses else 0.0


# ---------------------------------------------------------------------------
# import layer: -X importtime in a fresh interpreter


def _importtime_tree(stderr):
    """Roots of the -X importtime forest as (name, cumulative us, children)."""
    stack = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip(" "))) // 2
        node = (name.strip(), int(cumulative), [])
        while stack and stack[-1][0] > depth:
            node[2].append(stack.pop()[1])
        stack.append((depth, node))
    return [node for _, node in stack]


def _outermost_us(nodes, prefix):
    """Cumulative microseconds of the outermost modules named prefix or
    prefix.*."""
    total = 0
    for name, cumulative, children in nodes:
        if name == prefix or name.startswith(prefix + "."):
            total += cumulative
        else:
            total += _outermost_us(children, prefix)
    return total


def import_times(env, repeats=3):
    """Median -X importtime figures of ``import reflectionless``, seconds."""
    rows = defaultdict(list)
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import reflectionless"],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        roots = _importtime_tree(proc.stderr)
        for pkg in ("reflectionless", "scipy", "numpy"):
            rows[pkg].append(_outermost_us(roots, pkg) / 1e6)
    return {f"import.{pkg}_s": statistics.median(v) for pkg, v in rows.items()}


# ---------------------------------------------------------------------------
# per-layer metrics

CLI_COMMANDS = ("check", "jacobi", "schrodinger", "verify", "example")
SCALING_N = (10, 40, 80, 160)

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = [
    ("import.reflectionless_s", "s", "lower"),
    ("import.scipy_s", "s", "lower"),
    ("import.numpy_s", "s", "lower"),
    ("cli.parse_s", "s", "lower"),
    *[(f"cli.run_s.{cmd}", "s", "lower") for cmd in CLI_COMMANDS],
    ("cli.emit_s", "s", "lower"),
    ("cli.emit_bytes", "bytes", "lower"),
    ("cli.contract_breaks", "count", "lower"),
    ("series.busy_s", "s", "lower"),
    ("series.conv_calls", "count", "lower"),
    ("series.conv_madds", "count", "lower"),
    ("series.madds_per_s", "1/s", "higher"),
    ("series.compose_calls", "count", "lower"),
    ("series.revert_s", "s", "lower"),
    ("series.cache_hit_ratio", "ratio", "higher"),
    *[(f"jacobi.reconstruct_s.N{N}", "s", "lower") for N in SCALING_N],
    ("jacobi.moments_s", "s", "lower"),
    ("jacobi.recurrence_s", "s", "lower"),
    ("jacobi.rows_valid_ratio", "ratio", "higher"),
    ("jacobi.oracle_s", "s", "lower"),
    ("jacobi.postcheck_s", "s", "lower"),
    ("jacobi.oracle_residual_max", "abs", "lower"),
    ("measure.moment_calls", "count", "lower"),
    ("measure.moment_s", "s", "lower"),
    ("measure.cauchy_calls", "count", "lower"),
    ("measure.cauchy_s", "s", "lower"),
    ("measure.quad_calls", "count", "lower"),
    ("measure.quad_nodes", "count", "lower"),
    ("measure.validate_s", "s", "lower"),
    ("herglotz.admissibility_s", "s", "lower"),
    ("herglotz.boundary_value_calls", "count", "lower"),
    ("herglotz.m_value_calls", "count", "lower"),
    ("herglotz.m_value_s", "s", "lower"),
    ("herglotz.residual_s", "s", "lower"),
    ("herglotz.moment_cache_hit_ratio", "ratio", "higher"),
    ("schrodinger.init_s", "s", "lower"),
    ("schrodinger.flow_s", "s", "lower"),
    ("schrodinger.riccati_s", "s", "lower"),
    ("schrodinger.spline_s", "s", "lower"),
    ("schrodinger.flow_worst_err", "abs", "lower"),
    ("schrodinger.riccati_mismatch_max", "abs", "lower"),
    ("kernels.flow_s", "s", "lower"),
    ("kernels.flow_steps", "count", "lower"),
    ("kernels.deriv_evals", "count", "lower"),
    ("kernels.riccati_s", "s", "lower"),
    ("kernels.riccati_steps", "count", "lower"),
    ("kernels.cf_s", "s", "lower"),
    ("kernels.cf_site_evals", "count", "lower"),
    ("trace.op_p50_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]
METRIC_UNITS = {name: unit for name, unit, _ in PER_LAYER}


def layer_metrics(tracer, caches_before, caches_after):
    calls, total, own, busy = tracer.summary()
    c, mx = tracer.counts, tracer.maxima
    conv_s = total["series.conv"]
    out = {
        "cli.parse_s": total["cli.parse"],
        **{f"cli.run_s.{cmd}": total[f"cli.run.{cmd}"] for cmd in CLI_COMMANDS},
        "cli.emit_s": total["cli.emit"],
        "cli.emit_bytes": c["cli.emit_bytes"],
        "series.busy_s": busy["series"],
        "series.conv_calls": calls["series.conv"],
        "series.conv_madds": c["series.conv_madds"],
        "series.madds_per_s": c["series.conv_madds"] / conv_s if conv_s else 0.0,
        "series.compose_calls": calls["series.compose"],
        "series.revert_s": total["series.revert"],
        "series.cache_hit_ratio": _hit_ratio(caches_before["series"], caches_after["series"]),
        "jacobi.moments_s": own["jacobi.moments"],
        "jacobi.recurrence_s": total["jacobi.recurrence"],
        "jacobi.rows_valid_ratio": (c["jacobi.rows_valid"] / c["jacobi.rows_requested"]
                                    if c["jacobi.rows_requested"] else 0.0),
        "jacobi.oracle_s": total["jacobi.oracle"],
        "jacobi.postcheck_s": total["jacobi.postcheck"],
        "measure.moment_calls": calls["measure.moment"],
        "measure.moment_s": total["measure.moment"],
        "measure.cauchy_calls": calls["measure.cauchy"],
        "measure.cauchy_s": total["measure.cauchy"],
        "measure.quad_calls": calls["measure.quad"],
        "measure.quad_nodes": c["measure.quad_nodes"],
        "measure.validate_s": total["measure.validate"],
        "herglotz.admissibility_s": total["herglotz.admissibility"],
        "herglotz.boundary_value_calls": calls["herglotz.boundary_value"],
        "herglotz.m_value_calls": calls["herglotz.m_value"],
        "herglotz.m_value_s": total["herglotz.m_value"],
        "herglotz.residual_s": total["herglotz.residual"],
        "herglotz.moment_cache_hit_ratio": _hit_ratio(caches_before["moment"], caches_after["moment"]),
        "schrodinger.init_s": total["schrodinger.init"],
        "schrodinger.flow_s": total["schrodinger.flow"],
        "schrodinger.riccati_s": total["schrodinger.riccati"],
        "schrodinger.spline_s": total["schrodinger.spline"],
        "schrodinger.flow_worst_err": mx["schrodinger.flow_worst_err"],
        "schrodinger.riccati_mismatch_max": mx["schrodinger.riccati_mismatch_max"],
        "kernels.flow_s": total["kernels.flow"],
        "kernels.flow_steps": c["kernels.flow_steps"],
        "kernels.deriv_evals": c["kernels.deriv_evals"],
        "kernels.riccati_s": total["kernels.riccati"],
        "kernels.riccati_steps": c["kernels.riccati_steps"],
        "kernels.cf_s": total["kernels.cf"],
        "kernels.cf_site_evals": c["kernels.cf_site_evals"],
    }
    return out
