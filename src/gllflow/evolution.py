"""Method-of-lines evolution of the reduced flow on a radial grid.

Second-order central differences in r (3-point stencils on a possibly
graded grid), classical RK4 in time with dt = factor * min(dr)^2, the
origin pinned at the north pole, and projection back to the sphere after
every step, on a full-width (3, N) state whose raveled form one folded
bracket row runs over in length-3 windows, one multiply, one window sum and
one add per stage, zero-weighted at the end columns and component seams (see
_spatial_operator).  Residual certification differentiates the stored frames
with an independent 4th-order stencil so that it measures the scheme's real
truncation error instead of reproducing its own discretization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._numerics import (ResidualReport, check_grid, derivative_nonuniform, frame_rates,
                        require_positive, weighted_norms)
from .errors import DomainError, GridError, InstabilityError
from .geometry import (E3, REPAIR_TOL, FlowParams, RadialProfile, _flow_velocity,
                       _velocity_scratch, energy, gll_rhs_arr, stereo_lift_arr)
from .manifest import write_csv
from .selfsim import SelfSimProfile
from .singular_ode import series_start

RESIDUAL_MARGIN = 3       # nodes dropped at each end of a residual norm
# nodes of the stencil that differentiates a profile's stored psi_r: an
# 8th-order first derivative, DOP853's order, so on its node spacing the
# truncation error stays below the solve's own (5 points would dominate)
CONSISTENCY_STENCIL = 9


def make_grid(r_max: float, n_nodes: int, grading: float = 1.0):
    """Radial grid r_i = r_max (i/(N-1))^grading with r_0 = 0."""
    if n_nodes < 5:
        raise GridError("need at least 5 nodes")
    require_positive(r_max=r_max, grading=grading)
    return r_max * np.linspace(0.0, 1.0, n_nodes) ** grading


@dataclass(frozen=True)
class RadialField:
    """Grid snapshot of the sphere-valued field; u(0) = e3 exactly."""

    r: np.ndarray
    u: np.ndarray       # (N, 3)
    t: float = 0.0

    def __post_init__(self):
        r = check_grid(self.r)
        u = np.array(self.u, float)
        if r[0] != 0.0:
            raise GridError("evolution grid starts at r = 0")
        norms = np.linalg.norm(u, axis=1)
        if not np.max(np.abs(norms - 1.0)) <= REPAIR_TOL:  # NaN too
            raise DomainError("field off the unit sphere beyond repair tolerance")
        u = u / norms[:, None]
        u[0] = E3
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "u", u)

    @classmethod
    def stepped(cls, r, u, t):
        """A frame of `evolve`: its projected state as stepped, on its checked
        grid.  Neither the check nor the division by the norms runs again:
        a second division moves up to 3% of the entries by an ulp."""
        field = object.__new__(cls)
        for name, value in (("r", r), ("u", u), ("t", t)):
            object.__setattr__(field, name, value)
        return field

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
    writes u's velocity into a (3, N) out.  The bracket
    b = u_rr + ((2n-1)/r) u_r + ((2n-2+u3)/r^2) e3 is one weight row (the u_rr
    row, plus (2n-1)/r times the u_r row, plus 1/r^2 on u3's center weight)
    run over the raveled u through its length-3 windows, f[j:j+3] for the
    center j+1: one multiply by the (3, 3N-2) weights, one window sum
    (w_m f_m + w_0 f_0) + w_p f_p, and one add of the (2n-2)/r^2 column to b3.
    The end columns (r = 0, r_max) and the component seams have weight 0 and
    a zero column: their velocity is a zero of either sign, in columns the
    step resets, and the sign never reaches an interior node: a stage reads
    +0 + ±0 = +0 at r = 0, where u is e3, and at r_max it can flip only a
    zero f_p, the last term of node N-2's sum after a +0 or nonzero partial.
    """
    N, hm, hp = r.size, r[1:-1] - r[:-2], r[2:] - r[1:-1]
    den_m, den_0, den_p = hm * (hm + hp), hm * hp, hp * (hm + hp)
    coef1, r2 = (2 * params.n - 1) / r[1:-1], r[1:-1] ** 2
    w = np.zeros((3, 3, N))             # (f[j], f[j+1], f[j+2]) x component x node
    d1 = np.array([-hp / den_m, (hp - hm) / den_0, hm / den_p])   # u_r, exact for quadratics
    d2 = np.array([2.0 / den_m, -2.0 / den_0, 2.0 / den_p])        # u_rr
    w[..., 1:-1] = (d2 + coef1 * d1)[:, None]
    w[1, 2, 1:-1] += 1.0 / r2
    w = w.reshape(3, 3 * N)[:, 1:-1].copy()
    c2 = np.r_[0.0, (2 * params.n - 2) / r2, 0.0]
    b = np.zeros((3, N))                # the sum leaves the flat ends 0
    b_in, b3 = b.reshape(-1)[1:-1], b[2]
    t, scratch = np.empty(w.shape), _velocity_scratch(N)

    def bind(u):
        windows = sliding_window_view(u.reshape(-1), 3).T
        flow = _flow_velocity(u, b, params.alpha, params.beta, scratch)

        def velocity(out):
            np.add.reduce(np.multiply(w, windows, t), 0, None, b_in)
            np.add(b3, c2, b3)
            flow(out)
        return velocity
    return bind


def evolve(field0: RadialField, params: FlowParams, T: float,
           config: EvolveConfig = EvolveConfig()) -> Trajectory:
    """Run the flow to time T; returns the stored frames: field0 itself,
    then the projected states the loop steps from (`RadialField.stepped`).

    Norm drift beyond 1e-6 before reprojection aborts with diagnostics.
    The loop steps a full-width (3, N) copy, writing only into buffers bound
    once.  The origin is reset to e3 before the norms, so the projection
    leaves it e3 (e3/1 is exact).
    """
    require_positive(T=T)
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
    norms, dev = np.empty(r.size), np.empty(r.size)
    velocity_u, velocity_y = bind(u), bind(y)
    origin, outer = u[:, 0], u[:, -1]
    outer_value = outer.copy() if config.outer_boundary == "clamp" else u[:, -2]
    frames = [field0]
    max_drift = 0.0
    for step in range(1, n_steps + 1):
        velocity_u(k1)
        np.add(np.multiply(k1, half, y), u, y)
        velocity_y(k2)
        np.add(np.multiply(k2, half, y), u, y)
        velocity_y(k3)
        np.add(np.multiply(k3, dt, y), u, y)
        velocity_y(k4)
        # u + dt/6 (k1 + 2 k2 + 2 k3 + k4), summed left to right
        np.add(np.multiply(k2, 2.0, y), k1, y)
        np.add(y, np.multiply(k3, 2.0, k3), y)
        np.add(y, k4, y)
        np.add(u, np.multiply(y, sixth, y), u)
        outer[:] = outer_value
        origin[:] = E3
        np.sqrt(np.add.reduce(np.multiply(u, u, sq), 0, None, norms), norms)
        np.abs(np.subtract(norms, 1.0, dev), dev)
        drift = float(np.maximum.reduce(dev))
        max_drift = max(max_drift, drift)
        if not drift <= REPAIR_TOL:  # NaN too
            raise InstabilityError(
                "norm drift beyond 1e-6 before projection",
                diagnostics={"t": field0.t + step * dt, "drift": drift,
                             "node": int(np.argmax(dev)), "dt": dt})
        np.divide(u, norms, u)
        if step % config.store_every == 0 or step == n_steps:
            frames.append(RadialField.stepped(r, u.T.copy(), field0.t + step * dt))
    return Trajectory(frames=tuple(frames), params=params,
                      dt=dt, max_norm_drift=max_drift, n_steps=n_steps)


# ---------------------------------------------------------------------------
# residual certification
# ---------------------------------------------------------------------------

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
    params, frames, r = trajectory.params, trajectory.frames, trajectory.r
    rows = []       # (t, l2, linf) per interior frame
    rates = frame_rates([f.u for f in frames], [f.t for f in frames])
    # the interior frames side by side, (N, F, 3): one stencil pass per order
    inner = np.stack([f.u for f in frames[1:-1]], axis=1)
    ur_all, urr_all = (derivative_nonuniform(r, inner, order=m) for m in (1, 2))
    for k, u_t in rates:
        u, ur, urr = frames[k].u, ur_all[:, k - 1], urr_all[:, k - 1]
        rhs = np.zeros_like(u)  # per frame: one pass over all frames raises the peak RSS
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
    w = np.cross(np.asarray(v0, float), E3)
    nw = np.linalg.norm(w)
    if not nw > 0.0:  # NaN too
        raise DomainError("v0 must not be parallel to e3")
    w = w / nw
    return max(float(np.max(np.abs(f.u @ w))) for f in trajectory.frames)


# ---------------------------------------------------------------------------
# self-similar consistency
# ---------------------------------------------------------------------------

def field_from_profile(profile: SelfSimProfile, grid_r, t0: float) -> RadialField:
    """Sample u(r, t0) = psi(r / sqrt(t0)) onto an evolution grid.

    rho = r/sqrt(t0) beyond the profile's last node raises DomainError (no
    extrapolation).  Below its first node, the series start r0 > 0, psi is
    the lifted origin series that started it (a profile built from nodes
    clamps rho to r0 there), and RadialField pins the node r = 0 to e3, the
    profile's value at the origin.
    """
    require_positive(t0=t0)
    grid_r = np.asarray(grid_r, float)
    rho = grid_r / np.sqrt(t0)
    beyond = rho > profile.r[-1]
    if np.any(beyond):
        raise DomainError(f"{np.count_nonzero(beyond)} grid nodes lie beyond the profile: "
                          f"rho up to {float(rho.max())!r} > r_max = {float(profile.r[-1])!r}")
    psi, _ = profile.eval(np.maximum(rho, profile.r[0]))
    if profile.ivp is not None:
        for i in np.flatnonzero((rho > 0.0) & (rho < profile.r[0])):
            psi[i] = stereo_lift_arr(series_start(profile.ivp, float(rho[i]))[0])
    return RadialField(grid_r, psi, t0)


def selfsim_consistency(profile: SelfSimProfile, t: float, params: FlowParams):
    """Residual of u(r, t) = psi(r/sqrt(t)) in the flow equation.

    psi'' comes from finite differences of the stored psi_r (independent
    of the rearrangement used to integrate, which would be a tautology);
    the residual therefore vanishes at the differentiation order under
    profile-grid refinement.  Returns (l2, linf) over interior nodes.
    """
    require_positive(t=t)
    rho, psi, dpsi = profile.r, profile.psi, profile.psi_r
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
    if not np.isfinite(amplitude):
        raise DomainError(f"need a finite amplitude, got {amplitude!r}")
    require_positive(center=center, width=width)
    grid_r = np.asarray(grid_r, float)
    v0 = np.asarray(v0, float)
    v0 = v0 / np.sqrt(np.add.reduce(v0 * v0))     # not np.linalg.norm: its BLAS dot rounds by CPU
    g = amplitude * (grid_r / center) ** 2 * np.exp(-((grid_r - center) / width) ** 2)
    u = np.cos(g)[:, None] * E3 + np.sin(g)[:, None] * v0
    return RadialField(grid_r, u, 0.0)
