"""Executable invariant suites, one per module, driven by `gllflow verify`.

Each suite returns a list of `manifest.CheckResult` rows; a suite passes
when every row does; a NaN sample fails its check.  All randomness is
seeded, so repeated runs are identical.  The geom families run as array
passes, each sample bit for bit its value when computed alone.
"""

from __future__ import annotations

import numpy as np

from . import _numerics as num
from . import geometry as geo
from . import realflow as rf
from .evolution import (RESIDUAL_MARGIN, EvolveConfig, evolve, great_circle_bump,
                        energy_history, make_grid, residual)
from .geometry import (CPPoint, E3, FlowParams, RadialProfile, TangentVec,
                       embed_equivariant, energy, fs_distance, gll_rhs_arr,
                       harmonic_map_jet, stereo_lift_arr, stereo_lift_differential,
                       stereo_rhs, unitary_action)
from .hasimoto import FRAME_TOL, compute_q, pole_projection_coordinates, transport_frame
from .errors import EnergyBoundError
from .manifest import CheckResult
from .selfsim import apriori_identity_residual, derivative_energy_bound, solve_profile
from .singular_ode import hardy_check, series_start

GEOM_CHUNK = 10     # profiles per array pass: more raises the peak memory, not the speed
POLE_GAP_MARGIN = 0.5   # least |psi - e3| / min(1, 2|v| r) of a profile that leaves e3 for good


def _bump(t):
    """The C-infinity bump exp(1 - 1/(1 - t^2)) on |t| < 1, zero outside."""
    return np.where(np.abs(t) < 1.0, np.exp(1.0 - 1.0 / np.maximum(1e-300, 1.0 - t**2)), 0.0)


def _chart_profile_arrays(rng, k):
    """k random smooth compactly supported chart profiles on one grid, lifted:
    r (N,), u and u_r (k, N, 3); each draws c, centre and width in turn."""
    r = np.linspace(1e-6, 6.0, 801)
    c, center, width = np.empty((k, 2), complex), np.empty(k), np.empty(k)
    for i in range(k):
        c[i] = rng.normal(size=2) + 1j * rng.normal(size=2)
        center[i] = 1.5 + rng.random()
        width[i] = 0.6 + 0.5 * rng.random()
    f = (c[:, :1] + c[:, 1:] * r) * _bump((r - center[:, None]) / width[:, None])
    fp = np.gradient(f, r[1] - r[0], axis=-1, edge_order=2)
    return r, stereo_lift_arr(f), stereo_lift_differential(f, fp)


def _tangency_ratios(rng):
    """|<v, u>| / max(|v|, 1) of the velocity v at 200 random states under
    three flows, (200, 3); the dots and norms stay per sample (BLAS)."""
    u, ur, urr, r = np.empty((200, 3)), np.empty((200, 3)), np.empty((200, 3)), np.empty(200)
    for k in range(200):
        u[k] = rng.normal(size=3)
        u[k] /= np.linalg.norm(u[k])
        ur[k] = rng.normal(size=3)
        ur[k] -= (ur[k] @ u[k]) * u[k]
        urr[k] = rng.normal(size=3)
        r[k] = 0.2 + 2 * rng.random()
    vs = [gll_rhs_arr(u, ur, urr, r, FlowParams(2, al, be))
          for al, be in ((1.0, 0.0), (0.0, 1.0), (np.sqrt(0.5), np.sqrt(0.5)))]
    return np.array([[abs(v[k] @ u[k]) / max(np.linalg.norm(v[k]), 1.0) for v in vs]
                     for k in range(200)])


def _chart_energies(rng):
    """Energy (n = 2) and ||u_r||^2 of 200 random chart profiles, GEOM_CHUNK at a time."""
    E, grad2 = [], []
    for k0 in range(0, 200, GEOM_CHUNK):
        r, u, u_r = _chart_profile_arrays(rng, min(GEOM_CHUNK, 200 - k0))
        E.append(energy(RadialProfile(r, u, u_r), 2))
        grad2.append(geo.sphere_surface_measure(4)
                     * num.radial_integral(np.sum(u_r**2, axis=-1), r, 4))
    return np.concatenate(E), np.concatenate(grad2)


def _fs_distance_changes(rng):
    """|d(Qp, Qq) - d(p, q)| for 100 random pairs in CP^2 or CP^3 and unitaries Q."""
    changes = []
    for _ in range(100):
        n = 2 + int(rng.integers(0, 2))
        z1 = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
        z2 = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
        p, q = CPPoint(z1), CPPoint(z2)
        M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        Q, _ = np.linalg.qr(M)
        changes.append(abs(fs_distance(unitary_action(Q, p), unitary_action(Q, q))
                           - fs_distance(p, q)))
    return np.array(changes)


def _chart_sphere_velocities(rng):
    """Sphere velocity (u_rr by 4th-order differences) and lifted chart velocity
    of f = c0 r + c1 r^2 e^{-r}, 20 random c, r = 0.5, 1, 2, heat and Schroedinger
    flow: (20, 3, 2, 3) each.  The chart side keeps numpy's scalar paths."""
    radii, h5 = (0.5, 1.0, 2.0), 1e-3
    flows = (FlowParams(2, 1.0, 0.0), FlowParams(2, 0.0, 1.0))
    c = np.array([rng.normal(size=2) * 0.5 + 1j * rng.normal(size=2) * 0.5 for _ in range(20)])
    rs = np.array([[r + k * h5 for k in (-2, -1, 0, 1, 2)] for r in radii])
    c0, c1, ers = c[:, :1, None], c[:, 1:, None], np.exp(-rs)
    fk = c0 * rs + c1 * rs**2 * ers
    urk = stereo_lift_differential(fk, c0 + c1 * (2 * rs - rs**2) * ers)
    urr = (-urk[:, :, 4] + 8 * urk[:, :, 3] - 8 * urk[:, :, 1] + urk[:, :, 0]) / (12 * h5)
    u, rr = stereo_lift_arr(fk[:, :, 2]), np.broadcast_to(radii, (20, 3))
    sphere = np.stack([gll_rhs_arr(u, urk[:, :, 2], urr, rr, p) for p in flows], axis=2)
    chart = np.empty_like(sphere)
    for i, (a, b) in enumerate(c):
        for j, r in enumerate(radii):
            f = a * r + b * r**2 * np.exp(-r)
            fp = a + b * (2 * r - r**2) * np.exp(-r)
            fpp = b * (2 - 4 * r + r**2) * np.exp(-r)
            for m, params in enumerate(flows):
                chart[i, j, m] = stereo_lift_differential(f, stereo_rhs(f, fp, fpp, r, params))
    return sphere, chart


# ---------------------------------------------------------------------------

def suite_geom():
    out = []
    rng = np.random.default_rng(101)

    # tangency and unit norm of flow outputs on random states
    worst_t = float(np.max(_tangency_ratios(rng)))
    out.append(CheckResult("flow_outputs_tangent", worst_t <= geo.NORM_TOL,
                           f"max normal component {worst_t:.2e}"))

    # energy equivalence on 200 random smooth compact profiles, n = 2
    E, grad2 = _chart_energies(rng)
    E, grad2, counted = E[grad2 > 0], grad2[grad2 > 0], int(np.sum(grad2 > 0))
    worst_lower = float(np.min(2.0 * E / grad2, initial=np.inf))
    worst_C = float(np.max(E / grad2, initial=0.0))
    out.append(CheckResult("energy_equivalence", counted == 200 and worst_lower >= 1.0 - 1e-12,
                           f"min 2E/||u_r||^2 = {worst_lower:.4f}, fitted C = {worst_C:.4f}"
                           + ("" if counted == 200 else f"; only {counted}/200 with u_r != 0")))

    # Fubini-Study invariance under the lifted unitaries
    worst = float(np.max(_fs_distance_changes(rng)))
    out.append(CheckResult("fs_distance_isometry", worst <= 1e-12,
                           f"max distance change {worst:.2e}"))

    # chart/sphere right-hand-side equivalence through the lift differential
    sphere, chart = _chart_sphere_velocities(rng)
    worst = float(np.max(np.abs(sphere - chart)))
    out.append(CheckResult("chart_sphere_rhs_equivalence", worst <= 1e-9,
                           f"max mismatch {worst:.2e}"))

    # energy-density identity against finite differences of the embedding
    details = []
    ok = True
    for n in (2, 3):
        errs = [_embedding_density_error(h, n=n) for h in (1e-2, 1e-3, 1e-4)]
        ok = ok and errs[2] < 1e-6 and errs[0] > 20 * errs[1] and errs[1] > 20 * errs[2]
        details.append(f"n={n}: " + ", ".join(f"{e:.2e}" for e in errs))
    out.append(CheckResult("embedding_density_identity", ok,
                           "errors at h=1e-2,1e-3,1e-4: " + "; ".join(details)))
    return out


def _embedding_density_error(h, n):
    """|dv|^2 by central differences of the embedding vs twice
    `geometry.energy_density_arr`, the density `energy` integrates, at r = 1.3."""
    r = 1.3
    rng = np.random.default_rng(11)
    c = rng.normal(size=2)

    def u_of(rr):
        f = complex(c[0] * rr + c[1] * rr**2 * np.exp(-rr), 0.3 * c[1] * rr)
        return stereo_lift_arr(f), f

    u0, _ = u_of(r)
    z = np.zeros(n, dtype=complex)
    z[0] = r

    def v_of(rr, zz):
        uu, _ = u_of(rr)
        return embed_equivariant(geo.SpherePoint.from_array(uu), zz).coords

    # orthonormal complex directions: w1 = z/r (radial), w2.. orthogonal
    dirs = np.eye(n, dtype=complex)
    total = 0.0
    v0 = v_of(r, z)

    def project(w, base):
        return w - np.vdot(base, w) * base

    for k in range(n):
        w = dirs[k]
        radial = (k == 0)
        # real and imaginary directional derivatives
        if radial:
            vp = v_of(r + h, z + h * w)
            vm = v_of(r - h, z - h * w)
        else:
            vp = v_of(r, z + h * w)
            vm = v_of(r, z - h * w)
        d_re = (vp - vm) / (2 * h)
        vp = v_of(r, z + 1j * h * w)
        vm = v_of(r, z - 1j * h * w)
        d_im = (vp - vm) / (2 * h)
        dw = 0.5 * (d_re - 1j * d_im)
        dwbar = 0.5 * (d_re + 1j * d_im)
        total += 4.0 * (np.linalg.norm(project(dw, v0)) ** 2
                        + np.linalg.norm(project(dwbar, v0)) ** 2)
    hh = 1e-5
    up, _ = u_of(r + hh)
    um, _ = u_of(r - hh)
    twice_density = 2.0 * float(geo.energy_density_arr(u0, (up - um) / (2 * hh), r, n))
    return abs(2.0 * total - twice_density) / max(twice_density, 1.0)


# ---------------------------------------------------------------------------

def suite_singular():
    out = []
    rng = np.random.default_rng(202)

    # f''(r) -> 0 toward the origin for the suite problems
    worst_seq = []
    for ivp in (rf.real_selfsim_ivp(1.0, 2), rf.real_selfsim_ivp(2.0, 3),
                rf.real_selfsim_ivp(0.5, 2, drift=False)):
        fun = ivp.rhs()
        vals = []
        for rr in (1e-2, 1e-3, 1e-4):
            f0, fp0 = series_start(ivp, rr)
            vals.append(float(abs(fun(rr, np.array([f0, fp0]))[1])))
        worst_seq.append(vals)
    ok = all(v[0] > v[1] > v[2] for v in worst_seq)
    out.append(CheckResult("second_derivative_vanishes_at_origin", ok,
                           f"|f''| samples at r=1e-2,1e-3,1e-4: {worst_seq}"))

    # Hardy ratio over a 50-function random family
    ratios = []
    r = np.linspace(1e-6, 10.0, 4001)
    for _ in range(50):
        center = 2.0 + 3.0 * rng.random()
        width = 0.5 + 1.5 * rng.random()
        f = _bump((r - center) / width)
        fr = np.gradient(f, r[1] - r[0], edge_order=2)
        rep = hardy_check(r, f, fr, d=4, p=2, k=0)
        ratios.append(rep.ratio / rep.bound)
    worst = float(np.max(ratios))      # a NaN ratio fails
    out.append(CheckResult("hardy_ratio_below_bound", worst <= 1.0 + 5e-3,
                           f"max ratio/bound = {worst:.6f}"))

    # determinism: identical inputs -> bit-identical solutions: nodes,
    # counts, and the dense rows of every step, compared as bytes (equal
    # values would let -0.0 pass for 0.0 and fail a NaN against itself)
    s1 = rf.solve_selfsim_real(1.0, 2, 5.0, rel_tol=1e-9).sol
    s2 = rf.solve_selfsim_real(1.0, 2, 5.0, rel_tol=1e-9).sol
    steps = np.arange(s1.r.size - 1)
    same = all(a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
               for a, b in zip(map(np.asarray, s1[:3] + s1[4:] + (s1.rows(steps),)),
                               map(np.asarray, s2[:3] + s2[4:] + (s2.rows(steps),))))
    out.append(CheckResult("deterministic_grids", same,
                           f"{s1.r.size} nodes, bit-identical: {same}"))
    return out


# ---------------------------------------------------------------------------

def suite_selfsim():
    out = []
    bound = derivative_energy_bound(2)
    try:
        prof = solve_profile((1.0, 0.0), FlowParams(2, 1.0, 0.0), 30.0)
    except EnergyBoundError as exc:  # the profile is refused: nothing else can be checked
        return [CheckResult("derivative_energy_bounded", False,
                            f"max A = {exc.max_A:.4f} > {exc.bound}; no profile to check further")]
    out.append(CheckResult("derivative_energy_bounded",
                           float(prof.A.max()) <= bound,
                           f"max A = {prof.A.max():.4f} <= {bound}"))

    res_coarse = apriori_identity_residual(prof, n_resample=1000, r_stop=20.0)
    res_fine = apriori_identity_residual(prof, n_resample=4000, r_stop=20.0)
    out.append(CheckResult("identity_residual_refines",
                           res_fine < 1e-6 and res_fine <= res_coarse,
                           f"residual {res_coarse:.2e} -> {res_fine:.2e} under refinement"))

    # |psi - e3| in units of its origin value 2|v| r (|v| = 1), capped at 1
    ratio = np.linalg.norm(prof.psi - E3, axis=1) / np.minimum(1.0, 2.0 * prof.r)
    i = int(np.argmin(ratio))
    out.append(CheckResult("never_returns_to_north_pole", bool(ratio[i] >= POLE_GAP_MARGIN),
                           f"min |psi - e3| / min(1, 2|v| r) = {ratio[i]:.3g} at r = "
                           f"{prof.r[i]:.2f} >= {POLE_GAP_MARGIN}"))

    theta = 0.9
    R = np.array([[np.cos(theta), -np.sin(theta), 0.0],
                  [np.sin(theta), np.cos(theta), 0.0],
                  [0.0, 0.0, 1.0]])
    v2 = R[:2, :2] @ np.array([1.0, 0.0])
    prof2 = solve_profile(v2, FlowParams(2, 1.0, 0.0), 30.0)
    qr = np.array([3.0, 7.0, 15.0])
    a1, _ = prof.eval(qr)
    a2, _ = prof2.eval(qr)
    worst = float(np.max(np.abs(a1 @ R.T - a2)))
    out.append(CheckResult("rotation_equivariance", worst <= 1e-10,
                           f"max mismatch after rotating the data: {worst:.2e}"))
    return out


# ---------------------------------------------------------------------------

def suite_realheat():
    out = []

    lhs = rf.eta_prime(np.pi - 0.1, 2), rf.eta_prime(np.pi + 0.1, 2)
    mid = rf.eta_prime(np.pi, 2)
    out.append(CheckResult("pi_is_local_max_of_eta_prime",
                           lhs[0] < mid and lhs[1] < mid,
                           f"eta'(pi-+0.1) = {lhs[0]:.4f}, {lhs[1]:.4f} < eta'(pi) = {mid:.4f}"))

    bad = [n for n in range(3, 51) if rf.classify_uniqueness(n).verdict != "unique"]
    out.append(CheckResult("unique_for_3_to_50", not bad,
                           f"non-unique verdicts at n = {bad}" if bad else "all 48 dimensions unique"))

    rep = rf.comparison_suite([0.25, 0.5, 1.0, 2.0], 3, 10.0)
    out.append(CheckResult("selfsim_orderings_n3", rep.passed,
                           "; ".join(f"{c.name}:{'ok' if c.passed else c.detail}" for c in rep.checks)))

    res = _great_circle_reduction_residuals()
    out.append(CheckResult("great_circle_reduction_consistency",
                           res[1] < res[0] / 3.0,
                           f"scalar-equation residual {res[0]:.2e} -> {res[1]:.2e} on refinement"))
    return out


def _great_circle_reduction_residuals():
    """Evolve great-circle heat-flow data, extract the angle, and measure the
    scalar-equation residual on two nested grids."""
    resids = []
    for N in (81, 161):
        r = make_grid(8.0, N)
        field = great_circle_bump(r, 0.6, 2.5, 1.0)
        traj = evolve(field, FlowParams(2, 1.0, 0.0), 0.02, EvolveConfig(store_every=4))
        k = len(traj.frames) // 2
        window = traj.frames[k - 1:k + 2]       # the middle frame and its neighbours
        angles = [np.arctan2(f.u[:, 0], f.u[:, 2]) for f in window]
        _, g_t = next(num.frame_rates(angles, [f.t for f in window]))
        g = angles[1]
        g_r = num.derivative_nonuniform(r, g, order=1)
        g_rr = num.derivative_nonuniform(r, g, order=2)
        res = np.zeros_like(g)
        res[1:] = g_t[1:] - (g_rr[1:] + 3.0 / r[1:] * g_r[1:] - rf.eta(g[1:], 2) / r[1:] ** 2)
        resids.append(num.weighted_norms(res, r, 2, RESIDUAL_MARGIN)[0])
    return resids


# ---------------------------------------------------------------------------

def suite_pde():
    out = []
    r = make_grid(10.0, 81)
    field = great_circle_bump(r, 0.5, 3.0, 1.0)
    traj = evolve(field, FlowParams(2, 1.0, 0.0), 0.05, EvolveConfig(store_every=8))

    out.append(CheckResult("norm_drift_bounded",
                           traj.max_norm_drift <= 1e-6,
                           f"max pre-projection drift {traj.max_norm_drift:.2e}"))

    pinned = all(np.array_equal(f.u[0], E3) for f in traj.frames)
    out.append(CheckResult("origin_pinned_exactly", pinned, "u(0, t) = e3 for all frames"))

    E = energy_history(traj)
    worst = float(np.max(np.diff(E)))
    out.append(CheckResult("heat_flow_energy_monotone", worst <= 1e-6,
                           f"max energy increase {worst:.2e}"))

    l2s = []
    for N in (81, 161, 321):
        rr = make_grid(10.0, N)
        f0 = great_circle_bump(rr, 0.5, 3.0, 1.0)
        tr = evolve(f0, FlowParams(2, 1.0, 0.0), 0.02, EvolveConfig(store_every=4))
        l2s.append(residual(tr).max_l2)
    orders = [np.log2(a / b) for a, b in zip(l2s[:-1], l2s[1:])]
    out.append(CheckResult("residual_second_order", min(orders) >= 1.8,
                           f"L2 residuals {[f'{v:.2e}' for v in l2s]}, orders {[f'{o:.2f}' for o in orders]}"))
    return out


# ---------------------------------------------------------------------------

def suite_hasimoto():
    out = []
    r = np.linspace(0.0, 10.0, 2001)
    u, ur, _ = harmonic_map_jet(TangentVec(1.0, 0.0, 0.0), r)
    fr = transport_frame(r, u, np.array([1.0, 0.0, 0.0]))
    worst = fr.defect(u)
    out.append(CheckResult("frame_orthonormal_tangent", worst <= FRAME_TOL,
                           f"max frame defect {worst:.2e}"))

    params = FlowParams(2, 0.0, 1.0)
    qf = compute_q(r, u, fr, params, u_r=ur)
    worst = float(np.max(np.abs(np.abs(qf.q) - np.linalg.norm(ur, axis=1))))
    out.append(CheckResult("q_isometry", worst <= 1e-10,
                           f"max | |q| - |u_r| | = {worst:.2e}"))

    th = 1.1
    # rotate the seed by +th in the (e, Je) orientation: Je(e1) = e2 at the pole
    seed2 = np.array([np.cos(th), np.sin(th), 0.0])
    fr2 = transport_frame(r, u, seed2)
    qf2 = compute_q(r, u, fr2, params, u_r=ur)
    worst = float(np.max(np.abs(qf2.q - np.exp(-1j * th) * qf.q)))
    worst_g = float(np.max(np.abs(qf2.alpha_g - qf.alpha_g)))
    out.append(CheckResult("gauge_covariance",
                           worst <= 1e-10 and worst_g <= 1e-12,
                           f"q defect {worst:.2e}, alpha_g defect {worst_g:.2e}"))

    pe3 = np.stack([-u[:, 2] * u[:, 0], -u[:, 2] * u[:, 1], 1 - u[:, 2] ** 2], axis=1)
    lhs = np.sum(pe3 * fr.e, axis=1) + 1j * np.sum(pe3 * fr.je, axis=1)
    worst = float(np.max(np.abs(lhs - pole_projection_coordinates(qf))))
    out.append(CheckResult("pole_projection_integral_identity", worst <= 1e-5,
                           f"max mismatch {worst:.2e} (quadrature-limited)"))
    return out


SUITES = {
    "geom": suite_geom,
    "singular": suite_singular,
    "selfsim": suite_selfsim,
    "realheat": suite_realheat,
    "pde": suite_pde,
    "hasimoto": suite_hasimoto,
}

