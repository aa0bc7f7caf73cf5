"""Seeded job lists for the three benchmark workloads.

A job is a dict with an ``id``, a ``kind`` and what the worker needs to run
it: ``argv`` for an in-process ``gllflow.cli.main`` call (the worker
appends ``--out-dir``), or ``call`` plus ``args`` for one public library
call.  ``check`` carries what the independent reference check needs.

The seed decides the drawn parameters only.  Every draw that changes the
cost of a job a lot (r_max of a pure-Schroedinger solve, the label and
radius of a scalar solve, the step count of an evolution) is stratified or
drawn in antithetic pairs (u and 1 - u), so that the work in one pass, and
so ``wall_s``, hardly depends on the seed while every parameter still
covers its whole range across seeds.  ``profiles`` and ``scalar_batch`` also
carry one fixed job each at the worst error-to-tolerance case found on the
seed code, so ``err_ratio_max`` does not depend on the seed either.

Job flags are chosen to survive the planned refactors: no ``--workers``,
an explicit ``--tol`` on every ``selfsim`` job (otherwise alpha = 0
silently tightens it to 1e-12), and (alpha, beta) only on the unit circle.
"""

from __future__ import annotations

import math

import numpy as np

WORKLOADS = ("profiles", "scalar_batch", "evolve_certify")

# evolution grids: r_max and nodes fix dr, and dt = DT_FACTOR * dr^2
EVOLVE_R_MAX = 12.0
DT_FACTOR = 0.1


def _rng(workload, seed):
    return np.random.default_rng([int(seed), WORKLOADS.index(workload)])


def _num(x):
    """Shortest round-tripping text for a float argument."""
    return repr(float(x))


def _stratified(rng, k):
    """k uniform draws on [0, 1), one per stratum, in random order."""
    return rng.permutation((np.arange(k) + rng.random(k)) / k)


def _flow_draw(kind, rng):
    """(alpha, beta) on the unit circle for a job class.

    Mixed jobs draw theta with density ~ theta on (0, pi/2): weighted toward
    the dispersive (Schroedinger) end.
    """
    if kind == "heat":
        return 1.0, 0.0
    if kind == "schrodinger":
        return 0.0, 1.0
    theta = 0.5 * math.pi * math.sqrt(rng.uniform(0.05, 0.95))
    return math.cos(theta), math.sin(theta)


# ---------------------------------------------------------------------------
# profiles: a few long sphere-valued selfsim solves plus `verify selfsim`
# ---------------------------------------------------------------------------

# (class, n, tol) of each antithetic pair; half of the seeded solves are
# pure Schroedinger, which costs several times more steps per unit r.
PROFILE_PAIRS = (("schrodinger", 2, 1e-8), ("schrodinger", 3, 1e-10),
                 ("mixed", 2, 1e-10), ("mixed", 3, 1e-8))


# The profile with the largest error-to-tolerance ratio (0.123) a scan of
# the drawn ranges found on the seed code; fixed, so that err_ratio_max
# follows the solver's worst case rather than the seed's luck (seeded jobs
# reach 0.107-0.118).
PROFILE_ANCHOR = {"n": 2, "alpha": 0.9021467848893593, "beta": 0.4314292276999695,
                  "v": [-1.139454674988265, -0.7020255980749522], "r_max": 40.0,
                  "tol": 1e-10}


def _selfsim_job(job_id, n, alpha, beta, v1, v2, r_max, tol):
    return {
        "id": job_id, "kind": "cli",
        "argv": ["selfsim", "--n", str(n), "--alpha", _num(alpha), "--beta", _num(beta),
                 "--v1", _num(v1), "--v2", _num(v2), "--r-max", _num(r_max),
                 "--tol", _num(tol)],
        "check": {"type": "selfsim", "n": n, "alpha": alpha, "beta": beta,
                  "v": [v1, v2], "r_max": r_max, "tol": tol},
    }


def profiles(seed):
    rng = _rng("profiles", seed)
    jobs = []
    for kind, n, tol in PROFILE_PAIRS:
        u_r, u_v, phase = rng.random(3)
        for k, (s_r, s_v) in enumerate(((u_r, u_v), (1.0 - u_r, 1.0 - u_v))):
            alpha, beta = _flow_draw(kind, rng)
            r_max = 40.0 + 40.0 * s_r
            vmag = 0.6 + 0.8 * s_v
            ph = 2.0 * math.pi * phase + k * math.pi
            v1, v2 = vmag * math.cos(ph), vmag * math.sin(ph)
            jobs.append(_selfsim_job(f"selfsim-{kind}-n{n}-{k}", n, alpha, beta, v1, v2,
                                     r_max, tol))
    a = PROFILE_ANCHOR
    jobs.append(_selfsim_job("selfsim-anchor", a["n"], a["alpha"], a["beta"], *a["v"],
                             a["r_max"], a["tol"]))
    jobs.append({"id": "verify-selfsim", "kind": "cli", "argv": ["verify", "selfsim"],
                 "check": {"type": "verify"}})
    return jobs


# ---------------------------------------------------------------------------
# scalar_batch: many short scalar solves
# ---------------------------------------------------------------------------

N_REALHEAT_JOBS = 20
REALHEAT_TOL = 1e-10
# The scalar solver's global error jumps between ~0 and ~60-80 times its
# tolerance from one label to the next.  This fixed job is the worst case a
# scan of labels 0.1-30 and n = 2-5 found (83 times), so err_ratio_max
# follows the solver's worst case instead of whether a seed happens to draw
# near one.
REALHEAT_ANCHOR = {"beta": 11.056687500834824, "n": 5, "r_max": 10.0}


def scalar_batch(seed):
    rng = _rng("scalar_batch", seed)
    jobs = [{"id": "realheat-figure", "kind": "cli", "argv": ["realheat", "figure"],
             "check": {"type": "figure"}}]
    k = N_REALHEAT_JOBS
    log_lo, log_hi = math.log(0.1), math.log(30.0)
    labels = np.exp(log_lo + (log_hi - log_lo) * _stratified(rng, k))
    radii = 5.0 + 10.0 * _stratified(rng, k)
    dims = rng.permutation(np.resize(np.arange(2, 6), k))
    draws = [(float(labels[i]), int(dims[i]), float(radii[i])) for i in range(k)]
    anchor = (REALHEAT_ANCHOR["beta"], REALHEAT_ANCHOR["n"], REALHEAT_ANCHOR["r_max"])
    for i, (beta, n, r_max) in enumerate(draws + [anchor]):
        jobs.append({
            "id": f"realheat-selfsim-{i:02d}" if i < k else "realheat-selfsim-anchor",
            "kind": "cli",
            "argv": ["realheat", "selfsim", "--beta", _num(beta), "--n", str(n),
                     "--r-max", _num(r_max), "--tol", _num(REALHEAT_TOL)],
            "check": {"type": "realheat_selfsim", "slope": 2.0 * beta, "n": n,
                      "r_max": r_max, "tol": REALHEAT_TOL},
        })
    suite_labels = np.exp(math.log(0.1) + math.log(100.0) * _stratified(rng, 4))
    jobs.append({"id": "comparison-suite", "kind": "call", "call": "comparison_suite",
                 "args": {"labels": sorted(float(b) for b in suite_labels),
                          "n": 3, "r_max": 10.0},
                 "check": {"type": "comparison_suite"}})
    for suite in ("realheat", "singular"):
        jobs.append({"id": f"verify-{suite}", "kind": "cli", "argv": ["verify", suite],
                     "check": {"type": "verify"}})
    return jobs


# ---------------------------------------------------------------------------
# evolve_certify: MOL evolution and certification, no integrator work
# ---------------------------------------------------------------------------

def evolve_T(nodes, steps):
    dr = EVOLVE_R_MAX / (nodes - 1)
    return steps * DT_FACTOR * dr * dr


def _bump_args(rng):
    return {"amplitude": rng.uniform(0.3, 0.7), "center": rng.uniform(2.5, 4.0),
            "width": rng.uniform(0.8, 1.3)}


def evolve_certify(seed):
    rng = _rng("evolve_certify", seed)
    jobs = []
    # store-often: residual certification of every stored frame plus frame
    # CSVs; store-rarely: >= 1000 MOL steps with a handful of frames.
    # Node counts alternate within each kind so the cost per pass is fixed.
    often = [("heat", 201), ("schrodinger", 401), ("mixed", 201), ("mixed", 401)]
    rarely = [("heat", 401), ("schrodinger", 201), ("mixed", 401)]
    plans = ([(kind, nodes, "often") for kind, nodes in often]
             + [(kind, nodes, "rarely") for kind, nodes in rarely])
    u_steps = _stratified(rng, len(plans))
    for i, (kind, nodes, mode) in enumerate(plans):
        alpha, beta = _flow_draw(kind, rng)
        bump = _bump_args(rng)
        if mode == "often":
            steps, store_every = int(100 + 40 * u_steps[i]), 6
        else:
            steps, store_every = int(1000 + 200 * u_steps[i]), 400
        T = evolve_T(nodes, steps)
        jobs.append({
            "id": f"evolve-bump-{mode}-{kind}-{nodes}", "kind": "cli",
            "argv": ["evolve", "--preset", "bump", "--n", "2", "--alpha", _num(alpha),
                     "--beta", _num(beta), "--r-max", _num(EVOLVE_R_MAX),
                     "--nodes", str(nodes), "--T", _num(T),
                     "--dt-factor", _num(DT_FACTOR), "--store-every", str(store_every),
                     "--amplitude", _num(bump["amplitude"]),
                     "--center", _num(bump["center"]), "--width", _num(bump["width"])],
            "check": {"type": "bump", "kind": kind},
        })
    jobs.append({
        "id": "evolve-harmonic", "kind": "cli",
        "argv": ["evolve", "--preset", "harmonic", "--n", "2", "--alpha", "1.0",
                 "--beta", "0.0", "--v1", "1.0", "--v2", "0.0", "--r-max", "10.0",
                 "--nodes", "201", "--T", "0.05", "--store-every", "50"],
        "check": {"type": "harmonic", "v": [1.0, 0.0]},
    })
    bump = _bump_args(rng)
    jobs.append({"id": "qpde-residual", "kind": "call", "call": "qpde_residual",
                 "args": dict(bump, nodes=201, steps=int(120 + 40 * rng.random()),
                              store_every=15),
                 "check": {"type": "qpde"}})
    jobs.append({"id": "hasimoto-run", "kind": "cli", "argv": ["hasimoto", "run"],
                 "check": {"type": "hasimoto_run", "v": [1.0, 0.0]}})
    for suite in ("pde", "hasimoto", "geom"):
        jobs.append({"id": f"verify-{suite}", "kind": "cli", "argv": ["verify", suite],
                     "check": {"type": "verify"}})
    return jobs


def build(workload, seed):
    return {"profiles": profiles, "scalar_batch": scalar_batch,
            "evolve_certify": evolve_certify}[workload](seed)
