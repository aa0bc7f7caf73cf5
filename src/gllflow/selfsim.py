"""Self-similar profiles of the reduced flow.

A self-similar solution u(r, t) = psi(r / sqrt(t)) has a profile psi that
solves the flow ODE with an extra (r/2) drift term.  Integration uses the
explicit second-order rearrangement (apply psi x to the drift form and use
psi x (psi x X) = -X on tangent vectors):

    psi'' = -|psi'|^2 psi - ((2n-1)/r) psi' - ((2n-2+psi3)/r^2) P_psi e3
            - (r/2) (alpha psi' - beta psi x psi')

started at the singular origin through the stereographic chart, where the
problem fits the singular-ODE class of `singular_ode`.

Convention: the initial data v = (v1, v2, 0) is the same coefficient that
parameterizes the stationary profiles (chart slope v1 + i v2); the actual
origin slope of psi is 2v.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from ._numerics import cumquad0, require_dimension
# derivative_nonuniform, hermite_eval and series_start are not called here
# (origin_start calls series_start): perfbench/tracer.py looks them up in
# this module
from ._numerics import derivative_nonuniform, hermite_eval  # noqa: F401
from .errors import DomainError, NonConvergedError, NormDriftError
from .geometry import (E3, REPAIR_TOL, FlowParams, SpherePoint, stereo_lift_arr,
                       stereo_lift_differential, tangent_project_arr)
from .manifest import report_json, write_csv
from .singular_ode import DenseSolution, SingularIVP, integrate_rk, origin_start
from .singular_ode import series_start  # noqa: F401

UNIT_NORM_TOL = 1e-10
TAIL_RATE_CONSTANT = 40.0     # rate bound 40 n^2 / r^2 for |psi_inf - psi(r)|
TAIL_MIN_R_MAX = 10.0         # shortest profile whose tail limit is estimated


def derivative_energy_bound(n: int) -> float:
    """The a-priori bound A(r) <= 4n, with 1e-6 of slack for the solve."""
    return 4.0 * n + 1e-6


def stereo_selfsim_ivp(v, params: FlowParams) -> SingularIVP:
    """Chart form of the profile ODE as a singular initial-value problem.

    F'' = -(2n-1)(F'/r - F/r^2) + 2 conj(F) F'^2/(1+|F|^2)
          - 2 |F|^2 F / (r^2 (1+|F|^2)) - (alpha - i beta)(r/2) F'

    Its start is cubic: the two nonlinear terms cancel at F = a r, so the
    drift alone sets c3 = -(alpha - i beta) a / (8(n+1)), a = v1 + i v2.
    """
    al, be = params.alpha, params.beta
    alpha0 = complex(v[0], v[1])

    def A(z1, z2, r):
        return 2.0 * np.conj(z2) * z1**2 / (1.0 + abs(z2) ** 2) - (al - 1j * be) * (r / 2.0) * z1

    def B(z):
        return -2.0 * abs(z) ** 2 * z / (1.0 + abs(z) ** 2)

    c3 = -(al - 1j * be) * alpha0 / (8.0 * (params.n + 1))
    return SingularIVP(k=2 * params.n - 1, A=A, B=B, alpha0=alpha0, series=(c3,))


def sphere_profile_rhs(params: FlowParams):
    """Second-order rearrangement as a first-order system on y = (psi, psi_r)."""
    n, al, be = params.n, params.alpha, params.beta
    c_n1 = 2 * n - 1
    c_n2 = 2 * n - 2

    def fun(r, y):
        # Python floats do the same float64 operations as numpy scalars, in
        # the same order, at a fraction of the per-operation cost
        p1, p2, p3, d1, d2, d3 = y.tolist()
        dd = d1 * d1 + d2 * d2 + d3 * d3
        c1 = c_n1 / r
        c2 = (c_n2 + p3) / (r * r)
        # P_psi e3 = e3 - p3 psi
        e1 = -p3 * p1
        e2 = -p3 * p2
        e3c = 1.0 - p3 * p3
        # psi x psi_r
        x1 = p2 * d3 - p3 * d2
        x2 = p3 * d1 - p1 * d3
        x3 = p1 * d2 - p2 * d1
        half_r = 0.5 * r
        a1 = -dd * p1 - c1 * d1 - c2 * e1 - half_r * (al * d1 - be * x1)
        a2 = -dd * p2 - c1 * d2 - c2 * e2 - half_r * (al * d2 - be * x2)
        a3 = -dd * p3 - c1 * d3 - c2 * e3c - half_r * (al * d3 - be * x3)
        return d1, d2, d3, a1, a2, a3  # integrate_rk stores a copy

    return fun


def _project_state(r, y):
    """Back onto the sphere: psi / |psi|, and psi_r made tangent there."""
    p1, p2, p3, d1, d2, d3 = y.tolist()
    nrm = math.sqrt(p1 * p1 + p2 * p2 + p3 * p3)
    if abs(nrm - 1.0) > REPAIR_TOL:
        raise NormDriftError(f"profile left the sphere at r={r} (|psi|-1 = {nrm - 1.0:.3e})")
    p1, p2, p3 = p1 / nrm, p2 / nrm, p3 / nrm
    dp = d1 * p1 + d2 * p2 + d3 * p3
    return np.array([p1, p2, p3, d1 - dp * p1, d2 - dp * p2, d3 - dp * p3])


@dataclass(frozen=True)
class SelfSimProfile:
    """Solved profile: the dense solution of the state (psi, psi_r), and the
    drift parameters."""

    sol: DenseSolution     # y = (psi, psi_r), (N, 6)
    params: FlowParams

    def __post_init__(self):
        norms = np.linalg.norm(self.psi, axis=1)
        if not np.max(np.abs(norms - 1.0)) <= UNIT_NORM_TOL:  # NaN too
            raise NormDriftError("profile nodes off the unit sphere beyond 1e-10")
        if self.params.n >= 2:
            bound = derivative_energy_bound(self.params.n)
            if not np.max(self.A) <= bound:  # NaN too
                raise NormDriftError(f"derivative invariant A(r) exceeded {bound}")

    @property
    def r(self):
        return self.sol.r

    @property
    def psi(self):
        return self.sol.y[:, :3]

    @property
    def psi_r(self):
        return self.sol.y[:, 3:]

    @property
    def A(self):
        """Weighted derivative energy A(r) = r^2 |psi_r|^2."""
        return self.r**2 * np.sum(self.psi_r**2, axis=1)

    @property
    def r_max(self):
        return float(self.r[-1])

    def eval(self, r_query):
        """Dense-output (psi, psi_r) at query radii, projected to the sphere."""
        y = self.sol.eval(r_query)
        psi = y[:, :3] / np.linalg.norm(y[:, :3], axis=-1, keepdims=True)
        return psi, tangent_project_arr(psi, y[:, 3:])

    def to_csv(self, path):
        write_csv(path, "r,psi1,psi2,psi3,psi_r_norm,A",
                  self.r, self.psi, np.linalg.norm(self.psi_r, axis=1), self.A)


def solve_profile(v, params: FlowParams, r_max: float, rel_tol: float | None = None,
                  max_step: float = np.inf) -> SelfSimProfile:
    """Integrate the profile ODE from the singular origin out to r_max.

    v = (v1, v2) or (v1, v2, 0).  rel_tol defaults to 1e-10, tightened to
    1e-12 for alpha = 0 where no dissipation damps the error.
    """
    v = np.asarray(v, float)
    if v.size == 2:
        v = np.array([v[0], v[1], 0.0])
    if abs(v[2]) > 1e-14:
        raise DomainError("initial data must be tangent at the north pole: v = (v1, v2, 0)")
    require_dimension(params.n, 2)
    if rel_tol is None:
        rel_tol = 1e-12 if params.alpha == 0.0 else 1e-10

    start = origin_start(stereo_selfsim_ivp(v, params), rel_tol)
    F0, Fp0 = start.y0
    y0 = np.concatenate([stereo_lift_arr(F0), stereo_lift_differential(F0, Fp0)])
    sol = integrate_rk(sphere_profile_rhs(params), start.r0, y0, r_max, rel_tol=rel_tol,
                       max_step=max_step, postprocess=_project_state)
    return SelfSimProfile(sol, params)


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

def apriori_identity_residual(profile: SelfSimProfile, n_resample: int = 4000,
                              r_stop: float | None = None) -> float:
    """Max residual of the integrated derivative-energy identity

        A(r) + int_0^r (2(2n-2)/s + alpha s) A(s) ds
            = 2(2n-2)(1 - psi3) + (1 - psi3^2).

    Both sides vanish at the origin and the identity holds exactly along
    true solutions, so the residual measures solver plus quadrature error.
    """
    n = profile.params.n
    r_hi = profile.r_max if r_stop is None else min(r_stop, profile.r_max)
    psi, A, I = _identity_terms(profile, np.linspace(profile.r[0], r_hi, n_resample))
    bracket = 2.0 * (2 * n - 2) * (1.0 - psi[:, 2]) + (1.0 - psi[:, 2] ** 2)
    return float(np.max(np.abs(A + I - bracket)))


def _identity_terms(profile: SelfSimProfile, rr):
    """psi, A(r) and the cumulative identity integral at the radii rr."""
    n, alpha = profile.params.n, profile.params.alpha
    psi, dpsi = profile.eval(rr)
    A = rr**2 * np.sum(dpsi**2, axis=1)
    integrand = (2.0 * (2 * n - 2) / rr + alpha * rr) * A
    # prepend the origin, where the integrand vanishes like r
    rr0 = np.concatenate([[0.0], rr])
    integ0 = np.concatenate([[0.0], integrand])
    return psi, A, cumquad0(integ0, rr0)[1:]


@dataclass(frozen=True)
class DecayFit:
    slope: float
    intercept: float
    underflow: bool = False


def decay_exponent(profile: SelfSimProfile, window) -> DecayFit:
    """Least-squares log-log slope of |psi_r| over the window (r_lo, r_hi)."""
    r_lo, r_hi = window
    mask = (profile.r >= r_lo) & (profile.r <= r_hi)
    if mask.sum() < 3:
        raise DomainError("decay window contains fewer than 3 grid nodes")
    rr = profile.r[mask]
    mag = np.linalg.norm(profile.psi_r[mask], axis=1)
    if np.any(mag < 1e-14):
        return DecayFit(slope=np.nan, intercept=np.nan, underflow=True)
    slope, intercept = np.polyfit(np.log(rr), np.log(mag), 1)
    return DecayFit(slope=float(slope), intercept=float(intercept))


@dataclass(frozen=True)
class TailReport:
    """Limit estimate with the a-priori rate bound self-check."""

    psi_inf: SpherePoint
    r_used: float
    rate_bound: float
    observed_gap: float
    empirical_rate_constant: float
    params: FlowParams
    grid_nodes: int

    def to_json(self):
        return report_json(dict(asdict(self), schema="gllflow.tail_report/1",
                                psi_inf=self.psi_inf.array.tolist()))


def tail_limit(profile: SelfSimProfile) -> TailReport:
    """Estimate psi_inf = psi(r_max) and self-check the 40 n^2 / r^2 rate.

    Consistency: |psi(r_max/2) - psi(r_max)| must not exceed the rate bound
    at r_max/2; a violation means the tail has not converged.
    """
    n = profile.params.n
    if profile.r_max < TAIL_MIN_R_MAX:
        raise DomainError(f"tail limit needs a profile reaching r_max >= {TAIL_MIN_R_MAX:g}")
    r_used = profile.r_max / 2.0
    psi_half, _ = profile.eval(np.array([r_used]))
    psi_end = profile.psi[-1]
    gap = float(np.linalg.norm(psi_half[0] - psi_end))
    bound = TAIL_RATE_CONSTANT * n**2 / r_used**2
    if gap > bound:
        raise NonConvergedError(
            f"|psi(r_max/2) - psi(r_max)| = {gap:.3e} exceeds rate bound {bound:.3e}; increase r_max")
    empirical = gap * r_used**2 / n**2
    return TailReport(psi_inf=SpherePoint.from_array(psi_end), r_used=r_used,
                      rate_bound=bound, observed_gap=gap, empirical_rate_constant=empirical,
                      params=profile.params, grid_nodes=profile.r.size)


def limit_map_continuity(v_samples, params: FlowParams, r_max: float,
                         rel_tol: float | None = None):
    """Table of (v, psi_inf, |psi_inf - e3|) along a path of initial data.

    Returns (rows, modulus) where modulus is the max ratio
    |psi_inf(v) - psi_inf(v')| / |v - v'| over consecutive samples.
    """
    rows = []
    for v in v_samples:
        v = np.asarray(v, float)
        prof = solve_profile(v, params, r_max, rel_tol=rel_tol)
        psi_inf = prof.psi[-1]
        rows.append({"v": v, "psi_inf": psi_inf,
                     "gap_to_e3": float(np.linalg.norm(psi_inf - E3))})
    modulus = 0.0
    for a, b in zip(rows[:-1], rows[1:]):
        dv = float(np.linalg.norm(a["v"] - b["v"]))
        if dv > 0:
            modulus = max(modulus, float(np.linalg.norm(a["psi_inf"] - b["psi_inf"])) / dv)
    return rows, modulus

