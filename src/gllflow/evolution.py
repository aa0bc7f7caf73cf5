"""Method-of-lines evolution of the reduced flow on a radial grid.

Second-order central differences in r (3-point stencils on a possibly
graded grid), classical RK4 in time with dt = factor * min(dr)^2, the
origin pinned at the north pole, and projection back to the sphere after
every step, on a full-width (3, N) state whose raveled form the stencils
run over, zero-weighted at the end columns and component seams (see
_spatial_operator).  Residual certification differentiates the stored frames
with an independent 4th-order stencil so that it measures the scheme's real
truncation error instead of reproducing its own discretization.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ._numerics import check_grid, derivative_nonuniform, frame_rates, weighted_norms
from .errors import DomainError, GridError, InstabilityError
from .geometry import (E3, REPAIR_TOL, FlowParams, RadialProfile, _flow_velocity,
                       _velocity_scratch, energy, gll_rhs_arr)
from .manifest import write_csv
from .selfsim import SelfSimProfile

RESIDUAL_MARGIN = 3       # nodes dropped at each end of a residual norm
# nodes of the stencil that differentiates a profile's stored psi_r: an
# 8th-order first derivative, DOP853's order, so on its node spacing the
# truncation error stays below the solve's own (5 points would dominate)
CONSISTENCY_STENCIL = 9


def make_grid(r_max: float, n_nodes: int, grading: float = 1.0):
    """Radial grid r_i = r_max (i/(N-1))^grading with r_0 = 0."""
    if n_nodes < 5:
        raise GridError("need at least 5 nodes")
    s = np.linspace(0.0, 1.0, n_nodes)
    return r_max * s**grading


@dataclass(frozen=True)
class RadialField:
    """Grid snapshot of the sphere-valued field; u(0) = e3 exactly."""

    r: np.ndarray
    u: np.ndarray       # (N, 3)
    t: float = 0.0

    def __post_init__(self):
        r = np.asarray(self.r, float)
        u = np.array(self.u, float)
        if r[0] != 0.0:
            raise GridError("evolution grid starts at r = 0")
        if r.size > 2:
            check_grid(r[1:])
        norms = np.linalg.norm(u, axis=1)
        if not np.max(np.abs(norms - 1.0)) <= REPAIR_TOL:  # NaN too
            raise DomainError("field off the unit sphere beyond repair tolerance")
        u = u / norms[:, None]
        u[0] = E3
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "u", u)

    def to_csv(self, path):
        write_csv(path, "r,u1,u2,u3", self.r, self.u)


@dataclass(frozen=True)
class EvolveConfig:
    """Time-stepping policy: classical RK4, reprojected onto the sphere
    after every step.

    dt = dt_factor * min(dr)^2; dt_factor must stay <= 0.25 for the
    explicit scheme.  outer_boundary is "clamp" (hold the initial value)
    or "neumann" (zero-gradient copy).
    """

    dt_factor: float = 0.1
    outer_boundary: str = "clamp"
    store_every: int = 1

    def __post_init__(self):
        if not (0.0 < self.dt_factor <= 0.25):
            raise DomainError("explicit stepping needs 0 < dt_factor <= 0.25")
        if self.outer_boundary not in ("clamp", "neumann"):
            raise DomainError("outer_boundary must be 'clamp' or 'neumann'")
        if self.store_every < 1:
            raise DomainError("store_every must be >= 1")


@dataclass(frozen=True)
class Trajectory:
    frames: tuple
    params: FlowParams
    dt: float
    max_norm_drift: float
    n_steps: int        # RK4 steps taken

    @property
    def r(self):
        return self.frames[0].r

    @property
    def times(self):
        return np.array([f.t for f in self.frames])


def _spatial_operator(r, params: FlowParams):
    """The flow velocity on a radial grid from 3-point nonuniform stencils,
    with the work buffers of one solve.

    Returns bind(u): for a C-contiguous (3, N) state u, the function that
    writes u's velocity into a (3, N) out.  The stencils run over the raveled
    u through its slices f[:-2], f[1:-1], f[2:], weights tiled to (2, 3N-2)
    (rows u_r, u_rr).  The end columns (r = 0, r_max) and the component seams
    have weight 0, (2n-1)/r = 0 and r^2 = inf: their velocity is a zero of
    either sign, in columns the step resets.  Interior nodes take the (N, 3)
    loop's operations in its order, and that sign never reaches them: a
    stage reads +0 + ±0 = +0 at r = 0, and at r_max it can flip only a zero
    u_r or u_rr whose partner is +0 or nonzero, leaving their sum b as is.
    """
    N, hm, hp = r.size, r[1:-1] - r[:-2], r[2:] - r[1:-1]
    w = np.zeros((3, 2, 3, N))          # (f[:-2], f[1:-1], f[2:]) x (u_r, u_rr)
    # row 0: first derivative, exact for quadratics; row 1: second derivative
    w[..., 1:-1] = np.array([[-hp / (hm * (hm + hp)), 2.0 / (hm * (hm + hp))],
                             [(hp - hm) / (hm * hp), -2.0 / (hm * hp)],
                             [hm / (hp * (hm + hp)), 2.0 / (hp * (hm + hp))]])[:, :, None]
    w_m, w_0, w_p = w.reshape(3, 2, 3 * N)[:, :, 1:-1].copy()
    coef1 = np.tile(np.r_[0.0, (2 * params.n - 1) / r[1:-1], 0.0], 3)
    r2 = np.r_[np.inf, r[1:-1] ** 2, np.inf]
    d = np.zeros((2, 3, N))             # u_r, u_rr; the stencil leaves the flat ends 0
    d_in, (u_r, b_flat), b, b3 = d.reshape(2, 3 * N)[:, 1:-1], d.reshape(2, 3 * N), d[1], d[1, 2]
    t, s, scratch = np.empty((2, 3 * N - 2)), np.empty(N), _velocity_scratch(N)
    c2, alpha, beta = 2 * params.n - 2, params.alpha, params.beta

    def bind(u):
        u3, f = u[2], u.reshape(-1)
        f_m, f_0, f_p = f[:-2], f[1:-1], f[2:]

        def velocity(out):
            np.multiply(w_m, f_m, out=d_in)
            np.add(d_in, np.multiply(w_0, f_0, out=t), out=d_in)
            np.add(d_in, np.multiply(w_p, f_p, out=t), out=d_in)
            np.multiply(u_r, coef1, out=u_r)
            np.add(b_flat, u_r, out=b_flat)         # u_rr + ((2n-1)/r) u_r
            np.divide(np.add(u3, c2, out=s), r2, out=s)     # (2n-2 + u3)/r^2
            np.add(b3, s, out=b3)
            _flow_velocity(u, b, alpha, beta, out, scratch)
        return velocity
    return bind


def evolve(field0: RadialField, params: FlowParams, T: float,
           config: EvolveConfig = EvolveConfig()) -> Trajectory:
    """Run the flow to time T; returns the stored frame sequence.

    Norm drift beyond 1e-6 before reprojection aborts with diagnostics.
    The loop steps a full-width (3, N) copy, writing only into buffers bound once.
    """
    if not 0 < T < np.inf:
        raise DomainError(f"need 0 < T < inf, got {T!r}")
    r = field0.r
    bind = _spatial_operator(r, params)
    dr_min = float(np.min(np.diff(r)))
    dt = config.dt_factor * dr_min**2
    # the slack is relative: T/dt overshoots an intended integer by rounding
    n_steps = max(1, int(np.ceil(T / dt * (1.0 - 1e-12))))
    dt = T / n_steps
    half, sixth = 0.5 * dt, dt / 6.0
    u = field0.u.T.copy()
    y, k1, k2, k3, k4, sq = (np.empty_like(u) for _ in range(6))
    (sq1, sq2, sq3), norms, dev = sq, np.empty(r.size), np.empty(r.size)
    velocity_u, velocity_y = bind(u), bind(y)
    origin, outer = u[:, 0], u[:, -1]
    outer_value = outer.copy() if config.outer_boundary == "clamp" else u[:, -2]
    frames = [replace(field0, t=field0.t)]
    max_drift = 0.0
    for step in range(1, n_steps + 1):
        velocity_u(k1)
        np.add(np.multiply(k1, half, out=y), u, out=y)
        velocity_y(k2)
        np.add(np.multiply(k2, half, out=y), u, out=y)
        velocity_y(k3)
        np.add(np.multiply(k3, dt, out=y), u, out=y)
        velocity_y(k4)
        # u + dt/6 (k1 + 2 k2 + 2 k3 + k4), summed left to right
        np.add(np.multiply(k2, 2.0, out=y), k1, out=y)
        y += np.multiply(k3, 2.0, out=k3)
        y += k4
        u += np.multiply(y, sixth, out=y)
        outer[:] = outer_value
        origin[:] = E3
        np.multiply(u, u, out=sq)
        np.sqrt(np.add(np.add(sq1, sq2, out=norms), sq3, out=norms), out=norms)
        np.abs(np.subtract(norms, 1.0, out=dev), out=dev)
        drift = float(dev.max())
        max_drift = max(max_drift, drift)
        if not drift <= REPAIR_TOL:  # NaN too
            raise InstabilityError(
                "norm drift beyond 1e-6 before projection",
                diagnostics={"t": field0.t + step * dt, "drift": drift,
                             "node": int(np.argmax(dev)), "dt": dt})
        u /= norms
        origin[:] = E3
        if step % config.store_every == 0 or step == n_steps:
            frames.append(RadialField(r, u.T.copy(), field0.t + step * dt))
    return Trajectory(frames=tuple(frames), params=params,
                      dt=dt, max_norm_drift=max_drift, n_steps=n_steps)


# ---------------------------------------------------------------------------
# residual certification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResidualReport:
    times: np.ndarray
    l2: np.ndarray        # weighted L2 (r^{2n-1} dr) over interior nodes
    linf: np.ndarray

    @property
    def max_l2(self):
        return float(np.max(self.l2))

    @property
    def max_linf(self):
        return float(np.max(self.linf))


def residual(trajectory: Trajectory) -> ResidualReport:
    """Centered-in-time u_t minus the flow velocity, on the stored frames.

    u_t is `frame_rates` over each frame's two neighbours (needs >= 3
    stored frames); u_r and u_rr use 5-point stencils, one order better
    than the scheme.  u_t spans the stored-frame spacing, not dt, so with a
    large store_every the report includes the frames' time-sampling error:
    `rarely-schrodinger-201` (benchmark seed 5, every 400th step stored)
    reads 3.61 where store-often runs read 0.005-0.03.  ROADMAP item 3 has
    the fix (keep the states one step either side of each stored frame).
    """
    params = trajectory.params
    frames = trajectory.frames
    r = trajectory.r
    rows = []       # (t, l2, linf) per interior frame
    rates = frame_rates([f.u for f in frames], [f.t for f in frames])
    # the interior frames side by side, (N, F, 3): one stencil pass per order
    inner = np.stack([f.u for f in frames[1:-1]], axis=1)
    ur_all, urr_all = (derivative_nonuniform(r, inner, order=m) for m in (1, 2))
    for k, u_t in rates:
        u, ur, urr = frames[k].u, ur_all[:, k - 1], urr_all[:, k - 1]
        rhs = np.zeros_like(u)
        rhs[1:] = gll_rhs_arr(u[1:], ur[1:], urr[1:], r[1:], params)
        rows.append((frames[k].t, *weighted_norms(u_t - rhs, r, params.n, RESIDUAL_MARGIN)))
    return ResidualReport(*map(np.array, zip(*rows)))


def energy_history(trajectory: Trajectory):
    """Total energy per stored frame (trapezoid; derivative by 4th-order FD,
    all frames side by side so the stencil weights are derived once)."""
    r, n, frames = trajectory.r, trajectory.params.n, trajectory.frames
    ur_all = derivative_nonuniform(r, np.stack([f.u for f in frames], axis=1), order=1)
    return np.array([energy(RadialProfile(r, f.u, ur_all[:, k]), n)
                     for k, f in enumerate(frames)])


def great_circle_deviation(trajectory: Trajectory, v0) -> float:
    """Max over nodes and frames of |<u, w>| with w = v0 x e3 normalized.

    Zero (to discretization accuracy) exactly when the flow preserves the
    great circle spanned by e3 and v0.
    """
    v0 = np.asarray(v0, float)
    w = np.cross(v0, E3)
    nw = np.linalg.norm(w)
    if nw == 0.0:
        raise DomainError("v0 must not be parallel to e3")
    w = w / nw
    worst = 0.0
    for f in trajectory.frames:
        worst = max(worst, float(np.max(np.abs(f.u @ w))))
    return worst


# ---------------------------------------------------------------------------
# self-similar consistency
# ---------------------------------------------------------------------------

def field_from_profile(profile: SelfSimProfile, grid_r, t0: float) -> RadialField:
    """Sample u(r, t0) = psi(r / sqrt(t0)) onto an evolution grid.

    rho = r/sqrt(t0) beyond the profile's last node raises DomainError (no
    extrapolation).  Below its first node, the series start r0 > 0, rho is
    clamped to r0: RadialField pins the node r = 0 to e3, the profile's
    value at the origin, and psi(r0) stands within O(r0) of it elsewhere.
    """
    grid_r = np.asarray(grid_r, float)
    rho = grid_r / np.sqrt(t0)
    beyond = rho > profile.r[-1]
    if np.any(beyond):
        raise DomainError(f"{np.count_nonzero(beyond)} grid nodes lie beyond the profile: "
                          f"rho up to {float(rho.max())!r} > r_max = {float(profile.r[-1])!r}")
    psi, _ = profile.eval(np.maximum(rho, profile.r[0]))
    return RadialField(grid_r, psi, t0)


def selfsim_consistency(profile: SelfSimProfile, t: float, params: FlowParams):
    """Residual of u(r, t) = psi(r/sqrt(t)) in the flow equation.

    psi'' comes from finite differences of the stored psi_r (independent
    of the rearrangement used to integrate, which would be a tautology);
    the residual therefore vanishes at the differentiation order under
    profile-grid refinement.  Returns (l2, linf) over interior nodes.
    """
    if t <= 0:
        raise DomainError("need t > 0")
    rho = profile.r
    psi = profile.psi
    dpsi = profile.psi_r
    ddpsi = derivative_nonuniform(rho, dpsi, order=1, points=CONSISTENCY_STENCIL)
    u_t = -(rho / (2.0 * t))[:, None] * dpsi
    rhs = gll_rhs_arr(psi, dpsi, ddpsi, rho, params) / t
    return weighted_norms(u_t - rhs, rho, params.n, RESIDUAL_MARGIN)


# ---------------------------------------------------------------------------
# canned initial data
# ---------------------------------------------------------------------------

def great_circle_bump(grid_r, amplitude: float, center: float, width: float,
                      v0=(1.0, 0.0, 0.0)) -> RadialField:
    """Bump profile on the great circle through e3 and v0; u(0) = e3 exactly.

    The angle is g(r) = amplitude (r/center)^2 exp(-((r-center)/width)^2).
    """
    grid_r = np.asarray(grid_r, float)
    v0 = np.asarray(v0, float)
    v0 = v0 / np.linalg.norm(v0)
    g = amplitude * (grid_r / center) ** 2 * np.exp(-((grid_r - center) / width) ** 2)
    u = np.cos(g)[:, None] * E3 + np.sin(g)[:, None] * v0
    return RadialField(grid_r, u, 0.0)
