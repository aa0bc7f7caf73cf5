"""Method-of-lines evolution of the reduced flow on a radial grid.

Second-order central differences in r (3-point stencils on a possibly
graded grid), classical RK4 in time with dt = factor * min(dr)^2, the
origin pinned at the north pole, and projection back to the sphere after
every step.  Residual certification differentiates the stored frames with
an independent 4th-order stencil so that it measures the scheme's real
truncation error instead of reproducing its own discretization.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ._numerics import check_grid, derivative_nonuniform, frame_rates, weighted_norms
from .errors import DomainError, GridError, InstabilityError
from .geometry import (E3, REPAIR_TOL, FlowParams, RadialProfile, _flow_velocity, energy,
                       gll_rhs_arr)
from .manifest import read_csv, write_csv
from .selfsim import SelfSimProfile, consistency_second_derivative

RESIDUAL_MARGIN = 3       # nodes dropped at each end of a residual norm


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
        if np.max(np.abs(norms - 1.0)) > REPAIR_TOL:
            raise DomainError("field off the unit sphere beyond repair tolerance")
        u = u / norms[:, None]
        u[0] = E3
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "u", u)

    def to_csv(self, path):
        write_csv(path, "r,u1,u2,u3", self.r, self.u)

    @classmethod
    def read_csv(cls, path, t=0.0):
        data = read_csv(path)
        return cls(data[:, 0], data[:, 1:4], t)


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
    config: EvolveConfig
    dt: float
    max_norm_drift: float
    n_steps: int        # RK4 steps taken

    @property
    def r(self):
        return self.frames[0].r

    @property
    def times(self):
        return np.array([f.t for f in self.frames])


class _SpatialOperator:
    """The flow velocity on a radial grid, from 3-point nonuniform stencils.

    Holds, for the interior nodes, the stencil rows of u_r and u_rr (stacked
    so that one product forms both), (2n-1)/r and r^2.
    """

    def __init__(self, r, params: FlowParams):
        hm = r[1:-1] - r[:-2]
        hp = r[2:] - r[1:-1]
        # row 0: first derivative, exact for quadratics; row 1: second derivative
        self.w_m = np.stack([-hp / (hm * (hm + hp)), 2.0 / (hm * (hm + hp))])[:, None]
        self.w_0 = np.stack([(hp - hm) / (hm * hp), -2.0 / (hm * hp)])[:, None]
        self.w_p = np.stack([hm / (hp * (hm + hp)), 2.0 / (hp * (hm + hp))])[:, None]
        self.coef1 = (2 * params.n - 1) / r[1:-1]
        self.r2 = r[1:-1] ** 2
        self.params = params

    def velocity(self, u, out):
        """Write the velocity of the component-major (3, N) state u into
        out[:, 1:-1]; the end columns of out are left alone."""
        n, alpha, beta = self.params.n, self.params.alpha, self.params.beta
        u0 = u[:, 1:-1]
        d = self.w_m * u[:, :-2]            # (2, 3, N-2): u_r, u_rr
        t = self.w_0 * u0
        d += t
        np.multiply(self.w_p, u[:, 2:], out=t)
        d += t
        u_r, b = d
        u_r *= self.coef1
        b += u_r                            # u_rr + ((2n-1)/r) u_r
        b[2] += (2 * n - 2 + u0[2]) / self.r2
        _flow_velocity(u0, b, alpha, beta, out[:, 1:-1])


def evolve(field0: RadialField, params: FlowParams, T: float,
           config: EvolveConfig = EvolveConfig()) -> Trajectory:
    """Run the flow to time T; returns the stored frame sequence.

    Norm drift beyond 1e-6 before reprojection aborts with diagnostics.
    The loop steps a component-major (3, N) copy of the field.
    """
    if T <= 0:
        raise DomainError("need T > 0")
    r = field0.r
    op = _SpatialOperator(r, params)
    dr_min = float(np.min(np.diff(r)))
    dt = config.dt_factor * dr_min**2
    # the slack is relative: T/dt overshoots an intended integer by rounding
    n_steps = max(1, int(np.ceil(T / dt * (1.0 - 1e-12))))
    dt = T / n_steps
    half, sixth = 0.5 * dt, dt / 6.0
    u = field0.u.T.copy()
    u_outer0 = u[:, -1].copy()
    k1, k2, k3, k4 = (np.zeros_like(u) for _ in range(4))
    y = np.empty_like(u)
    frames = [replace(field0, t=field0.t)]
    max_drift = 0.0
    for step in range(1, n_steps + 1):
        op.velocity(u, k1)
        np.multiply(k1, half, out=y)
        y += u
        op.velocity(y, k2)
        np.multiply(k2, half, out=y)
        y += u
        op.velocity(y, k3)
        np.multiply(k3, dt, out=y)
        y += u
        op.velocity(y, k4)
        # u + dt/6 (k1 + 2 k2 + 2 k3 + k4), summed left to right
        np.multiply(k2, 2.0, out=y)
        y += k1
        k3 *= 2.0
        y += k3
        y += k4
        y *= sixth
        u += y
        if config.outer_boundary == "clamp":
            u[:, -1] = u_outer0
        else:
            u[:, -1] = u[:, -2]
        u[:, 0] = E3
        sq = u * u
        norms = sq[0] + sq[1]
        norms += sq[2]
        np.sqrt(norms, out=norms)
        dev = np.abs(norms - 1.0)
        drift = float(dev.max())
        max_drift = max(max_drift, drift)
        if drift > REPAIR_TOL:
            raise InstabilityError(
                "norm drift beyond 1e-6 before projection",
                diagnostics={"t": field0.t + step * dt, "drift": drift,
                             "node": int(np.argmax(dev)), "dt": dt})
        u /= norms
        u[:, 0] = E3
        if step % config.store_every == 0 or step == n_steps:
            frames.append(RadialField(r, u.T.copy(), field0.t + step * dt))
    return Trajectory(frames=tuple(frames), params=params, config=config,
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
    reads 3.61 where store-often runs read 0.005-0.03.  ROADMAP item 4 has
    the fix (keep the states one step either side of each stored frame).
    """
    params = trajectory.params
    frames = trajectory.frames
    r = trajectory.r
    rows = []       # (t, l2, linf) per interior frame
    for k, u_t in frame_rates([f.u for f in frames], [f.t for f in frames]):
        u = frames[k].u
        ur = derivative_nonuniform(r, u, order=1)
        urr = derivative_nonuniform(r, u, order=2)
        rhs = np.zeros_like(u)
        rhs[1:] = gll_rhs_arr(u[1:], ur[1:], urr[1:], r[1:], params)
        rows.append((frames[k].t, *weighted_norms(u_t - rhs, r, params.n, RESIDUAL_MARGIN)))
    return ResidualReport(*map(np.array, zip(*rows)))


def energy_history(trajectory: Trajectory):
    """Total energy per stored frame (trapezoid; derivative by 4th-order FD)."""
    r = trajectory.r
    n = trajectory.params.n
    out = []
    for f in trajectory.frames:
        ur = derivative_nonuniform(r, f.u, order=1)
        prof = RadialProfile(r, f.u, ur)
        out.append(energy(prof, n))
    return np.array(out)


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
    """Sample u(r, t0) = psi(r / sqrt(t0)) onto an evolution grid."""
    grid_r = np.asarray(grid_r, float)
    rho = grid_r / np.sqrt(t0)
    rho = np.clip(rho, profile.r[0], profile.r[-1])
    psi, _ = profile.eval(rho)
    psi[grid_r == 0.0] = E3
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
    ddpsi = consistency_second_derivative(profile)
    u_t = -(rho / (2.0 * t))[:, None] * dpsi
    rhs = np.zeros_like(psi)    # node 0 (r = 0 on a trivial profile) lies in the margin
    rhs[1:] = gll_rhs_arr(psi[1:], dpsi[1:], ddpsi[1:], rho[1:], params) / t
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
