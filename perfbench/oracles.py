"""Reference checks that do not depend on the code under test.

Each check reads what a job wrote (CSV files, or the JSON the worker saved
for a library call) and returns ``(ok, err_ratio, detail)``: ``err_ratio``
is the job's error against its reference divided by the tolerance stated
for that job, or None for pass/fail checks.  They run after timing, in the
benchmark's parent process, so scipy never loads into the measured one.

References:

* sphere-valued ``selfsim`` profiles: scipy DOP853 on the benchmark's own
  copy of the profile ODE, started from the closed-form origin series
  F = a r + c3 r^3 with c3 = -(alpha - i beta) a / (8 (n+1)).  Up to r = 1
  it integrates the stereographic chart form; after that the sphere form.
  The sphere form alone loses ~1e-9 near the origin to cancellation in
  1 - psi3^2, which is more than the error being measured.  Tolerance: the
  job's ``--tol``.
* scalar ``realheat selfsim`` profiles: scipy DOP853 on
  g'' = -((2n-1)/r + r/2) g' + eta(g)/r^2 from g = a r + c3 r^3 with
  c3 = -a (3 + 2(n+1) a^2) / (24 (n+1)).  Tolerance: the job's ``--tol``.
* figure curves: the digitized reference points, frozen here by digest,
  against the simulated column, with per-curve tolerances below.
* harmonic preset: the closed-form stationary map; tolerance dr^2, the
  order of the scheme's truncation error.
* heat bump: great-circle deviation |u2| <= 1e-8 (the heat flow keeps
  great-circle data on its circle).
* every evolution: unit norm to 1e-12 and u(0) = e3 exactly.
* ``hasimoto run``: |q| against the closed form |u_r| = 2|v| / (1 + |v|^2 r^2).
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

ORACLE_RTOL = 1e-13      # global error ~1e-12, well below the 1e-10 job tolerances
ORACLE_ATOL = 1e-15
R0 = 1e-4                # series start, as far from the origin as the package's
CHART_UNTIL = 1.0

# An adaptive solve controls its local error only, so its global error may
# exceed --tol; err_ratio_max tracks by how much.  A profile is wrong, and
# its job failed, beyond this multiple of its tolerance.
GLOBAL_ERROR_LIMIT = 1000.0

UNIT_NORM_TOL = 1e-12
GREAT_CIRCLE_TOL = 1e-8
Q_ISOMETRY_TOL = 1e-10

# sha256 of the float64 (x_plot, y_reference) columns of each curve file.
FIGURE_DIGESTS = {
    0.25: "af0ccca4c3bb6d77095905fef2a53e450d323db7c3f6f93fabb49009eb29c474",
    0.5: "eb923c5679971f8d7f7fed9f5b054e2d3288e2508600975e9f9da77f9d56676f",
    1.0: "99ba3e180594360db62754db6e2c808f03e2c0309321cbb06f8f4c33e4508959",
    2.0: "8151d4fc609e4b83eb955b43fcddd79368010bbd6a9519e12d8a7d571ba11444",
    4.5: "66f1f511ead91676d23123ee10b651fcd213ebdf80e1b0e99ca89ab1f481b73e",
    10.0: "f0303b9c7de597fa6aa3bac36986b9eae61a0de1e5e601b99229b63265d771a3",
    30.0: "6c07ac5260874384a777a99594f94cf52dfc5e41fa1c70927576a36517a865d9",
    100.0: "7440e7143b063b554a6d781426f38944f95675b94641c1f74de93d36b2398a39",
}

# Plot-unit tolerance per label: the digitized values carry six significant
# digits, and the two steepest curves were digitized less precisely (the
# beta = 100 data lies above the exact chord near the origin by ~6e-3).
FIGURE_TOL = {0.25: 1e-4, 0.5: 1e-4, 1.0: 1e-4, 2.0: 1e-4, 4.5: 1e-4, 10.0: 1e-4,
              30.0: 1e-3, 100.0: 1e-2}


def _read_csv(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _solve(fun, span, y0):
    from scipy.integrate import solve_ivp
    sol = solve_ivp(fun, span, y0, method="DOP853", rtol=ORACLE_RTOL, atol=ORACLE_ATOL,
                    dense_output=True)
    if not sol.success:
        raise RuntimeError(f"oracle failed: {sol.message}")
    return sol


# ---------------------------------------------------------------------------
# sphere-valued profiles
# ---------------------------------------------------------------------------

def _chart_rhs(n, alpha, beta):
    k = 2 * n - 1
    w = complex(alpha, -beta)

    def fun(r, y):
        F, P = complex(y[0], y[1]), complex(y[2], y[3])
        q = 1.0 + abs(F) ** 2
        acc = (-k * (P / r - F / (r * r)) + 2.0 * F.conjugate() * P * P / q
               - 2.0 * abs(F) ** 2 * F / (r * r * q) - w * (0.5 * r) * P)
        return [P.real, P.imag, acc.real, acc.imag]
    return fun


def _sphere_rhs(n, alpha, beta):
    c1n, c2n = 2 * n - 1, 2 * n - 2

    def fun(r, y):
        p1, p2, p3, d1, d2, d3 = y
        dd = d1 * d1 + d2 * d2 + d3 * d3
        c1, c2, h = c1n / r, (c2n + p3) / (r * r), 0.5 * r
        x1, x2, x3 = p2 * d3 - p3 * d2, p3 * d1 - p1 * d3, p1 * d2 - p2 * d1
        return [d1, d2, d3,
                -dd * p1 - c1 * d1 + c2 * p3 * p1 - h * (alpha * d1 - beta * x1),
                -dd * p2 - c1 * d2 + c2 * p3 * p2 - h * (alpha * d2 - beta * x2),
                -dd * p3 - c1 * d3 - c2 * (1.0 - p3 * p3) - h * (alpha * d3 - beta * x3)]
    return fun


def _lift(F, P):
    """Sphere point and its r-derivative from chart value F and slope P."""
    x, y = np.real(F), np.imag(F)
    wx, wy = np.real(P), np.imag(P)
    d = 1.0 + x * x + y * y
    u = np.stack([2 * x / d, 2 * y / d, (1 - x * x - y * y) / d])
    du = np.stack([(2 * (d - 2 * x * x) * wx - 4 * x * y * wy) / d ** 2,
                   (-4 * x * y * wx + 2 * (d - 2 * y * y) * wy) / d ** 2,
                   (-4 * x * wx - 4 * y * wy) / d ** 2])
    return u, du


def sphere_profile_reference(n, alpha, beta, v, r_max):
    """psi(r) at arbitrary radii from the independent oracle."""
    a = complex(v[0], v[1])
    c3 = -complex(alpha, -beta) * a / (8.0 * (n + 1))
    F0, P0 = a * R0 + c3 * R0 ** 3, a + 3.0 * c3 * R0 ** 2
    r_sw = min(CHART_UNTIL, r_max)
    chart = _solve(_chart_rhs(n, alpha, beta), (R0, r_sw), [F0.real, F0.imag, P0.real, P0.imag])
    Fe = chart.y[:, -1]
    u, du = _lift(complex(Fe[0], Fe[1]), complex(Fe[2], Fe[3]))
    sphere = (_solve(_sphere_rhs(n, alpha, beta), (r_sw, r_max), np.concatenate([u, du]))
              if r_max > r_sw else None)

    def psi(r):
        r = np.asarray(r, float)
        out = np.empty((r.size, 3))
        near = r <= r_sw
        y = chart.sol(r[near])
        out[near] = _lift(y[0] + 1j * y[1], y[2] + 1j * y[3])[0].T
        if sphere is not None:
            out[~near] = sphere.sol(r[~near])[:3].T
        return out
    return psi


def check_selfsim(job_dir, spec):
    data = _read_csv(job_dir / "profile.csv")
    r, psi = data[:, 0], data[:, 1:4]
    ref = sphere_profile_reference(spec["n"], spec["alpha"], spec["beta"], spec["v"],
                                   spec["r_max"])(r)
    err = float(np.max(np.abs(psi - ref)))
    tail = json.loads((job_dir / "tail_report.json").read_text())
    err_inf = float(np.max(np.abs(np.array(tail["psi_inf"]) - ref[-1])))
    err = max(err, err_inf)
    ratio = err / spec["tol"]
    detail = f"max |psi - oracle| = {err:.3e} over {r.size} nodes (tol {spec['tol']:g})"
    return ratio <= GLOBAL_ERROR_LIMIT, ratio, detail


# ---------------------------------------------------------------------------
# scalar profiles
# ---------------------------------------------------------------------------

def scalar_profile_reference(slope, n, r_max):
    k, m = 2 * n - 1, 2 * n - 2
    a = slope
    c3 = -a * (3.0 + 2.0 * (n + 1) * a * a) / (24.0 * (n + 1))

    def fun(r, y):
        g, gp = y
        return [gp, -(k / r + 0.5 * r) * gp + (m * math.sin(g) + 0.5 * math.sin(2 * g)) / (r * r)]

    sol = _solve(fun, (R0, r_max), [a * R0 + c3 * R0 ** 3, a + 3.0 * c3 * R0 ** 2])
    return lambda r: sol.sol(np.asarray(r, float))[0]


def check_realheat_selfsim(job_dir, spec):
    data = _read_csv(job_dir / "profile.csv")
    r, g = data[:, 0], data[:, 1]
    ref = scalar_profile_reference(spec["slope"], spec["n"], spec["r_max"])(r)
    err = float(np.max(np.abs(g - ref)))
    ratio = err / spec["tol"]
    return ratio <= GLOBAL_ERROR_LIMIT, ratio, f"max |g - oracle| = {err:.3e} over {r.size} nodes"


# ---------------------------------------------------------------------------
# figure curves
# ---------------------------------------------------------------------------

def _label_of(path):
    return float(path.stem[len("curve_beta_"):].replace("p", "."))


def figure_digest(points):
    return hashlib.sha256(np.ascontiguousarray(points, dtype=np.float64).tobytes()).hexdigest()


def check_figure(job_dir, spec):
    files = sorted(job_dir.glob("curve_beta_*.csv"))
    labels = {_label_of(p): p for p in files}
    if sorted(labels) != sorted(FIGURE_TOL):
        return False, None, f"curve files for labels {sorted(labels)}"
    worst, where = 0.0, None
    for label, path in labels.items():
        data = _read_csv(path)
        if figure_digest(data[:, :2]) != FIGURE_DIGESTS[label]:
            return False, None, f"reference points of label {label:g} are not the digitized data"
        ratio = float(np.max(np.abs(data[:, 2] - data[:, 1]))) / FIGURE_TOL[label]
        if ratio > worst:
            worst, where = ratio, label
    return worst <= 1.0, worst, f"worst curve: label {where:g}"


# ---------------------------------------------------------------------------
# evolutions
# ---------------------------------------------------------------------------

def _frames(job_dir):
    paths = sorted(job_dir.glob("frame_*.csv"))
    return [_read_csv(p) for p in paths]


def _sphere_defects(us):
    """(max | |u| - 1 |, whether u(0) = e3 exactly) over frames."""
    norm = max(float(np.max(np.abs(np.linalg.norm(u, axis=1) - 1.0))) for u in us)
    pinned = all(np.array_equal(u[0], [0.0, 0.0, 1.0]) for u in us)
    return norm, pinned


def check_bump(job_dir, spec):
    frames = _frames(job_dir)
    if len(frames) < 2:
        return False, None, f"{len(frames)} frames written"
    norm, pinned = _sphere_defects([f[:, 1:4] for f in frames])
    ok = pinned and norm <= UNIT_NORM_TOL
    ratio = norm / UNIT_NORM_TOL
    detail = f"{len(frames)} frames, unit-norm defect {norm:.2e}, origin pinned: {pinned}"
    if spec["kind"] == "heat":
        dev = max(float(np.max(np.abs(f[:, 2]))) for f in frames)
        ok = ok and dev <= GREAT_CIRCLE_TOL
        ratio = max(ratio, dev / GREAT_CIRCLE_TOL)
        detail += f", great-circle deviation {dev:.2e}"
    return ok, ratio, detail


def check_harmonic(job_dir, spec):
    frames = _frames(job_dir)
    r = frames[0][:, 0]
    v1, v2 = spec["v"]
    a = v1 * v1 + v2 * v2
    d = 1.0 + a * r * r
    exact = np.stack([2 * r * v1 / d, 2 * r * v2 / d, (1 - a * r * r) / d], axis=1)
    err = max(float(np.max(np.abs(f[:, 1:4] - exact))) for f in frames)
    tol = float(np.max(np.diff(r))) ** 2
    detail = f"max |u - harmonic map| = {err:.3e} (dr^2 = {tol:.3e})"
    return len(frames) >= 2 and err <= tol, err / tol, detail


def check_qpde(job_dir, spec):
    doc = json.loads((job_dir / "call_result.json").read_text())
    us = [np.array(u) for u in doc["u"]]
    norm, pinned = _sphere_defects(us)
    finite = all(np.all(np.isfinite(doc[k])) for k in ("l2", "linf"))
    ok = pinned and finite and norm <= UNIT_NORM_TOL and len(doc["l2"]) == doc["frames"] - 2
    return ok, norm / UNIT_NORM_TOL, (f"{doc['frames']} frames, unit-norm defect {norm:.2e}, "
                                      f"residuals finite: {finite}")


def check_hasimoto_run(job_dir, spec):
    data = _read_csv(job_dir / "qfield.csv")
    r, q, alpha_g = data[:, 0], data[:, 1] + 1j * data[:, 2], data[:, 3]
    vmag = math.hypot(*spec["v"])
    exact = 2.0 * vmag / (1.0 + vmag * vmag * r * r)
    err = float(np.max(np.abs(np.abs(q) - exact)))
    ok = alpha_g[0] == 0.0 and err <= Q_ISOMETRY_TOL
    return ok, err / Q_ISOMETRY_TOL, f"max ||q| - |u_r|| = {err:.2e}, alpha_g(0) = {alpha_g[0]}"


# ---------------------------------------------------------------------------
# pass/fail jobs
# ---------------------------------------------------------------------------

def check_comparison_suite(job_dir, spec):
    doc = json.loads((job_dir / "call_result.json").read_text())
    failed = [c["name"] for c in doc["report"]["checks"] if not c["passed"]]
    ok = doc["passed"] and not failed and not doc["informational"]
    return ok, None, f"failed orderings: {failed}" if failed else "all orderings hold"


def check_verify(job_dir, spec):
    lines = (job_dir / "verify_checks.txt").read_text().split("\n")
    lines = [ln for ln in lines if ln]
    failed = [ln for ln in lines if ln.startswith("[FAIL]")]
    return bool(lines) and not failed, None, f"{len(lines)} checks, failed: {failed}"


CHECKS = {
    "selfsim": check_selfsim, "realheat_selfsim": check_realheat_selfsim,
    "figure": check_figure, "bump": check_bump, "harmonic": check_harmonic,
    "qpde": check_qpde, "hasimoto_run": check_hasimoto_run,
    "comparison_suite": check_comparison_suite, "verify": check_verify,
}


def check(job, job_dir: Path):
    """Run the job's reference check; a check that cannot run is a failure."""
    spec = job["check"]
    try:
        ok, ratio, detail = CHECKS[spec["type"]](job_dir, spec)
    except (OSError, ValueError, KeyError, IndexError, RuntimeError) as exc:
        return False, None, f"check could not run: {type(exc).__name__}: {exc}"
    if ratio is not None and not math.isfinite(ratio):
        ok = False
    return ok, ratio, detail
