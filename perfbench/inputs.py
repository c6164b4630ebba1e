"""Seeded input generators for the two workloads.

Everything here is plain numpy and JSON-able dicts, so inputs can be made,
hashed and summarised without importing the library under test.  Measures
are admissible by construction (support kept a fixed fraction away from the
edges of the allowed region, total mass scaled against the boundary
inequality); the workloads still run the library's own validation and
admissibility checks on every op.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

WORKLOADS = ("cli-jobs", "jacobi-deep")

# jacobi-deep: a small pool of R close to 2 and a fixed N pattern.  The
# modified-moment problem on [-R, R] loses conditioning with depth as R
# moves away from 2: from about R = 2.006 on, some N = 160 windows fail the
# ratio post-check in their last rows.  One op in four is at N = 160, so the
# median op is an N = 80 one and, once a run holds well over eleven cycles,
# the tail (the 11th slowest op) an N = 160 one: neither falls on the gap
# between the two kinds of op.
DEEP_R_RANGE = (2.002, 2.004)
DEEP_POOL = 3
DEEP_N_CYCLE = (80, 80, 80, 160)
DEEP_OPS = 160
WARM_R = 2.0015  # outside DEEP_R_RANGE, used only by the set-up warm-up

# soliton presets that reconstruct at the CLI's default N = 40; about a
# quarter of epsilon values in (0, 1) fail the ratio post-check there, which
# the job example-soliton-0.3 shows
SOLITON_EPS = (0.1, 0.25, 0.5)

# The README's example measure: the atom at 0.95 sits inside the piece
# [0.92, 0.98], so the measure must be refused with SupportViolation.
README_MEASURE = {
    "setting": "jacobi",
    "R": 2.01,
    "atoms": [{"t": 0.95, "w": 0.01}, {"t": -1.02, "w": 0.02}],
    "pieces": [{"a": 0.92, "b": 0.98, "cheb": [0.05, 0.0, 0.01]}],
}


def small_root(R):
    """r in (0, 1] with r + 1/r = R."""
    return (R - math.sqrt(R * R - 4.0)) / 2.0


def _rng(seed, workload):
    return np.random.default_rng([int(seed), WORKLOADS.index(workload)])


def _signs(rng, k):
    return np.where(rng.random(k) < 0.5, -1.0, 1.0)


def jacobi_atoms(rng, R, edge=0.12):
    """Atoms on both rings of (-1/r, -r) u (r, 1/r), mass below the
    boundary-inequality scale beta * (ring - beta)."""
    r = small_root(R)
    ring = 1.0 / r - r
    lo, hi = r + edge * ring, 1.0 / r - edge * ring
    k = int(rng.integers(2, 6))
    ts = rng.uniform(lo, hi, k) * _signs(rng, k)
    beta = edge * ring
    ws = rng.dirichlet(np.ones(k)) * float(rng.uniform(0.2, 0.8)) * beta * (ring - beta)
    return _measure("jacobi", R, zip(ts, ws), ())


def schrodinger_atoms(rng, R, edge=0.1):
    """Atoms in (-R, R) with 1 + sum w / (t^2 - R^2) kept positive."""
    k = int(rng.integers(1, 5))
    ts = rng.uniform(-R * (1 - edge), R * (1 - edge), k)
    caps = R * R - ts * ts
    ws = rng.dirichlet(np.ones(k)) * caps * float(rng.uniform(0.1, 0.8))
    ws = ws * min(1.0, 0.9 / float(np.sum(ws / caps)))
    return _measure("schrodinger", R, zip(ts, ws), ())


def _cheb_density(rng):
    """Chebyshev coefficients of a strictly positive density with unit
    leading coefficient."""
    c = rng.uniform(-1.0, 1.0, 2)
    c *= float(rng.uniform(0.2, 0.6)) / float(np.sum(np.abs(c)))
    return [1.0, float(c[0]), float(c[1])]


def _piece_mass(a, b, cheb):
    # int_{-1}^{1} T0 = 2, T1 = 0, T2 = -2/3
    return 0.5 * (b - a) * (2.0 * cheb[0] - (2.0 / 3.0) * cheb[2])


def _segments(rng, lo, hi, k):
    """k + 1 sorted points from lo to hi cutting [lo, hi] into k segments."""
    widths = rng.dirichlet(np.full(k, 4.0)) * (hi - lo)
    return lo + np.concatenate([[0.0], np.cumsum(widths)])


def _scaled_pieces(rng, spans, shares, weight):
    """Density pieces on spans whose integral of weight(t) d sigma is at most
    the matching share."""
    out = []
    for (a, b), share in zip(spans, shares):
        c = _cheb_density(rng)
        scale = share / (weight(a, b) * _piece_mass(a, b, c))
        out.append((a, b, [scale * x for x in c]))
    return out


def jacobi_pieces(rng, R, edge=0.15):
    """A density piece on the positive ring, an atom and a second piece on
    the negative ring, mass below the boundary-inequality scale."""
    r = small_root(R)
    ring = 1.0 / r - r
    lo, hi = r + edge * ring, 1.0 / r - edge * ring
    pos = _segments(rng, lo, hi, 3)
    neg = -_segments(rng, lo, hi, 4)[::-1]  # ascending, from -hi to -lo
    spans = [(float(pos[1]), float(pos[2])), (float(neg[1]), float(neg[2]))]
    atom_t = float(neg[3])
    beta = edge * ring
    shares = rng.dirichlet(np.ones(3)) * float(rng.uniform(0.2, 0.6)) * beta * (ring - beta)
    return _measure(
        "jacobi", R, [(atom_t, shares[2])],
        _scaled_pieces(rng, spans, shares[:2], lambda a, b: 1.0),
    )


def schrodinger_pieces(rng, R, edge=0.1):
    """Two density pieces and an atom between them inside (-R, R), with
    int d sigma / (R^2 - t^2) kept below 0.3: the endpoint value stays
    positive and the reflectionless residual well inside 10 eta."""
    top = R * (1.0 - edge)
    cut = _segments(rng, -top, top, 5)
    spans = [(float(cut[1]), float(cut[2])), (float(cut[4]), float(cut[5]))]
    atom_t = float(cut[3])
    shares = rng.dirichlet(np.ones(3)) * float(rng.uniform(0.1, 0.3))
    atom_w = shares[2] * (R * R - atom_t * atom_t)
    return _measure(
        "schrodinger", R, [(atom_t, atom_w)],
        _scaled_pieces(rng, spans, shares[:2],
                       lambda a, b: 1.0 / (R * R - max(a * a, b * b))),
    )


def _measure(setting, R, atoms, pieces):
    return {
        "setting": setting,
        "R": float(R),
        "atoms": [{"t": float(t), "w": float(w)} for t, w in atoms],
        "pieces": [{"a": float(a), "b": float(b), "cheb": [float(x) for x in c]}
                   for a, b, c in pieces],
    }


# ---------------------------------------------------------------------------
# per-workload inputs


def defect(note, status, stderr="", traceback=False):
    """A known defect: what goes wrong, the exit status it ends in, a regular
    expression the last line of stderr must match in full ("" for an empty
    stderr) and whether stderr holds a Python traceback."""
    return {"note": note, "status": status, "stderr": stderr, "traceback": traceback}


def cli_jobs(seed):
    """One block of CLI jobs, in a fixed order with seeded parameters; the
    workload cycles through it.

    Valid jobs carry the exit status they must reach; invalid inputs must
    end in exit 1.  ``known_defect`` names the way a job fails at the
    commit that introduced this benchmark, and the exact outcome of that
    failure (see ``defect``); a job failing any other way is a failure.
    """
    rng = _rng(seed, "cli-jobs")

    def near2():
        return float(rng.uniform(2.002, 2.02))

    def wide():
        return float(rng.uniform(1.0, 3.0))

    jobs = [
        {"name": "example-free", "argv": ["example", "--name", "free"], "expect": 0},
        {"name": "jacobi-40", "argv": ["jacobi", "--order", "40"],
         "measure": jacobi_atoms(rng, near2()), "expect": 0},
        {"name": "invalid-missing-R", "argv": ["check"],
         "measure": {k: v for k, v in jacobi_atoms(rng, near2()).items() if k != "R"},
         "expect": 1},
        {"name": "verify-pieces", "argv": ["verify"],
         "measure": schrodinger_pieces(rng, wide()), "expect": 0},
        {"name": "example-delta1", "argv": ["example", "--name", "delta1"], "expect": 2},
        {"name": "check-atoms", "argv": ["check"],
         "measure": schrodinger_atoms(rng, wide()), "expect": 0},
        {"name": "invalid-readme-overlap", "argv": ["check"], "measure": README_MEASURE,
         "expect": 1, "known_defect": defect("exit 2 (inadmissible) instead of SupportViolation", 2)},
        {"name": "schrodinger-atoms", "argv": ["schrodinger"],
         "measure": schrodinger_atoms(rng, wide()), "expect": 0},
        {"name": "example-soliton",
         "argv": ["example", "--name", "soliton", "--epsilon", repr(float(rng.choice(SOLITON_EPS)))],
         "expect": 0},
        {"name": "jacobi-80", "argv": ["jacobi", "--order", "80"],
         "measure": jacobi_atoms(rng, float(rng.uniform(*DEEP_R_RANGE))), "expect": 0},
        {"name": "invalid-R-nan", "argv": ["verify"],
         "measure": {**jacobi_atoms(rng, near2()), "R": math.nan},
         "expect": 1, "known_defect": defect("exit 0 on a non-finite R", 0)},
        {"name": "verify-atoms", "argv": ["verify"],
         "measure": jacobi_atoms(rng, near2()), "expect": 0},
        {"name": "example-delta0",
         "argv": ["example", "--name", "delta0", "--mass", repr(float(rng.uniform(0.5, 1.5)))],
         "expect": 0},
        {"name": "check-pieces", "argv": ["check"],
         "measure": jacobi_pieces(rng, float(rng.uniform(2.3, 3.0))), "expect": 0},
        {"name": "invalid-order-0", "argv": ["jacobi", "--order", "0"],
         "measure": jacobi_atoms(rng, near2()),
         "expect": 1,
         "known_defect": defect("Python traceback instead of a JSON error line", 1,
                                r"ValueError: window half-width N must be at least 1",
                                traceback=True)},
        {"name": "example-soliton-0.3", "argv": ["example", "--name", "soliton", "--epsilon", "0.3"],
         "expect": 0,
         "known_defect": defect("exit 1, MomentMismatch: the ratio post-check fails at the spectral edge",
                                1, r'\{"error": "MomentMismatch", "message": "window postcondition: .*\}')},
    ]
    return {"jobs": jobs, "cycle": len(jobs)}


def jacobi_deep(seed):
    rng = _rng(seed, "jacobi-deep")
    pool = [float(x) for x in rng.uniform(*DEEP_R_RANGE, DEEP_POOL)]
    ops = []
    for i in range(DEEP_OPS):
        N = DEEP_N_CYCLE[i % len(DEEP_N_CYCLE)]
        # rotate the pool separately per N so every (R, N) pair goes cold once
        step = i // len(DEEP_N_CYCLE) if N == 160 else i
        ops.append({"N": N, "measure": jacobi_atoms(rng, pool[step % DEEP_POOL])})
    # one fixed warm-up measure for every seed
    warm_measure = jacobi_atoms(np.random.default_rng(0), WARM_R)
    warm = [{"N": N, "measure": warm_measure} for N in sorted(set(DEEP_N_CYCLE))]
    return {"ops": ops, "warm": warm, "cycle": len(DEEP_N_CYCLE)}


GENERATORS = {
    "cli-jobs": cli_jobs,
    "jacobi-deep": jacobi_deep,
}


def make(workload, seed):
    return GENERATORS[workload](seed)


def digest(inputs):
    """SHA-256 of the canonical JSON form of a workload's inputs."""
    text = json.dumps(inputs, sort_keys=True, allow_nan=True)
    return hashlib.sha256(text.encode()).hexdigest()


def op_list(workload, inputs):
    """The ops a run cycles through (cli-jobs: one block of jobs)."""
    return inputs["jobs"] if workload == "cli-jobs" else inputs["ops"]


def repeated_r_share(workload, inputs, n_ops):
    """Share of the first n_ops ops (the op list cycled) whose R already
    occurred earlier; jobs without a measure file count as not repeated."""
    ops = op_list(workload, inputs)
    seen = set()
    repeats = 0
    for i in range(n_ops):
        R = ops[i % len(ops)].get("measure", {}).get("R")
        if R is None or math.isnan(R):
            continue
        repeats += R in seen
        seen.add(R)
    return repeats / n_ops


def scaling_measure():
    """The fixed measure of the traced run's N-scaling rows (seed-free)."""
    return jacobi_atoms(np.random.default_rng(0), 0.5 * sum(DEEP_R_RANGE))
