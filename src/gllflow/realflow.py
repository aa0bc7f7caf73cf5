"""The scalar 'real' heat flow: great-circle reduction of the dissipative
flow, its uniqueness classifier, stationary and self-similar profiles, and
the energy-comparison (non-uniqueness witness) machinery for n = 2.

Great-circle data u = cos(g) e3 + sin(g) v0 reduces the heat flow to

    g_t = g_rr + ((2n-1)/r) g_r - eta(g)/r^2,
    eta(x) = (2n-2) sin(x) + sin(2x)/2,

with stationary solutions 2 arctan(alpha r) for every n.  Throughout, a
profile "labeled" alpha/beta has origin slope 2*alpha (the label is the
arctan coefficient); this convention is fitted, not assumed, from the
reference curves in `figure_reference`.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

# hermite_eval is not called here: perfbench/tracer.py looks it up in this
# module (ROADMAP item 5)
from ._numerics import hermite_eval  # noqa: F401
from ._numerics import radial_integral, require_dimension
from .errors import DomainError
from .manifest import CheckResult, report_json, write_csv
from .singular_ode import DenseSolution, SingularIVP, integrate_rk, origin_start
# series_start is called through origin_start: perfbench/tracer.py looks it
# up in this module
from .singular_ode import series_start  # noqa: F401

# ---------------------------------------------------------------------------
# eta and its derivatives (closed forms)
# ---------------------------------------------------------------------------

def eta(x, n):
    """(2n-2) sin(x) + sin(2x)/2; n >= 2 for the flows considered here."""
    return (2 * n - 2) * np.sin(x) + 0.5 * np.sin(2 * x)


def eta_prime(x, n):
    return (2 * n - 2) * np.cos(x) + np.cos(2 * x)


def eta_double_prime(x, n):
    return -(2 * n - 2) * np.sin(x) - 2.0 * np.sin(2 * x)


def eta_triple_prime(x, n):
    return -(2 * n - 2) * np.cos(x) - 4.0 * np.cos(2 * x)


def eta_prime_at_pi(n) -> int:
    """Exact integer value (2n-2)(-1) + 1 = 3 - 2n."""
    return 3 - 2 * n


def eta_triple_prime_at_pi(n) -> int:
    """Exact integer value (2n-2) - 4 = 2n - 6 (negative only for n = 2)."""
    return 2 * n - 6


def gamma(x, n):
    """Antiderivative of eta normalized so that gamma(pi) = 0.

    gamma(x) = -(2n-2) cos(x) - cos(2x)/4 - [(2n-2) - 1/4].
    """
    return -(2 * n - 2) * np.cos(x) - 0.25 * np.cos(2 * x) - ((2 * n - 2) - 0.25)


# ---------------------------------------------------------------------------
# uniqueness classifier
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassifierReport:
    n: int
    d: int
    eta_prime_at_pi: float
    min_eta_prime: float
    threshold: float
    verdict: str            # "nonunique" | "unique" | "borderline"

    def to_json(self):
        return report_json(dict(asdict(self), schema="gllflow.classifier_report/1"))


def min_eta_prime(n) -> float:
    """Exact minimum of eta' over [0, 2pi].

    Critical points: sin x = 0 (value 3-2n at pi) and cos x = -(n-1)/2,
    which exists only for n <= 3 and gives -(n-1)^2/2 - 1.
    """
    vals = [float(eta_prime_at_pi(n))]
    if (n - 1) / 2.0 <= 1.0:
        vals.append(-((n - 1) ** 2) / 2.0 - 1.0)
    return min(vals)


def classify_uniqueness(n: int) -> ClassifierReport:
    """Threshold test of eta' against -(d-2)^2/4 with d = 2n.

    nonunique  if eta'(pi)  < threshold,
    unique     if min eta' >= threshold,
    borderline otherwise (the n = 2 case: equality at pi but the global
    minimum dips below; pi is a local maximum of eta').
    """
    require_dimension(n, 2)
    d = 2 * n
    thr = -((d - 2) ** 2) / 4.0
    at_pi = float(eta_prime_at_pi(n))
    mn = min_eta_prime(n)
    if at_pi < thr:
        verdict = "nonunique"
    elif mn >= thr:
        verdict = "unique"
    else:
        verdict = "borderline"
    return ClassifierReport(n=n, d=d, eta_prime_at_pi=at_pi, min_eta_prime=mn,
                            threshold=thr, verdict=verdict)


# ---------------------------------------------------------------------------
# stationary and self-similar scalar profiles
# ---------------------------------------------------------------------------

def stationary_profile(alpha, r):
    """2 arctan(alpha r): the stationary profile labeled alpha (slope 2 alpha)."""
    return 2.0 * np.arctan(alpha * np.asarray(r, float))


def stationary_profile_derivative(alpha, r):
    return 2.0 * alpha / (1.0 + (alpha * np.asarray(r, float)) ** 2)


def stationary_residual(alpha, r_samples, n) -> float:
    """Max over the samples of |psi'' + ((2n-1)/r) psi' - eta(psi)/r^2|, with
    analytic derivatives, relative to the largest of its terms (0 where all
    vanish).

    Independent of n up to rounding: the stationary family solves the ODE
    for every n.  Relative, because the terms grow like 1/r near the origin,
    where an absolute residual measures only their rounding.  The potential's
    linear part (2n-1) psi/r^2 counts among the terms: where psi rounds to
    pi (large alpha r) the computed terms are tiny and differ by psi's own
    rounding, carried through that part.  An alpha whose terms overflow at
    the largest sample (4 alpha^3 r, or (1 + (alpha r)^2)^2) is refused, and
    so is a sample whose r^2 is not a normal float.
    """
    require_dimension(n, 1)
    if not 0 <= alpha < np.inf:  # NaN too: it would read as residual 0
        raise DomainError(f"need 0 <= alpha < inf, got {alpha!r}")
    r = np.asarray(r_samples, float)
    if not np.all((r > 0) & (r < np.inf)):  # NaN too
        raise DomainError(f"samples need 0 < r < inf, got {r.tolist()!r}")
    # Python floats overflow to inf and underflow to 0 without a warning
    a, low, top = float(alpha), float(r.min()), float(r.max())
    wide = 1.0 + (a * top) * (a * top)
    if not (4.0 * a * a * a * top < np.inf and wide * wide < np.inf):
        raise DomainError(f"alpha={alpha!r} overflows the residual's terms at r={top!r}")
    for end in (low, top):
        if not np.finfo(float).tiny <= end * end < np.inf:
            raise DomainError(f"sample r={end!r}: r^2 is not a normal float")
    g = stationary_profile(alpha, r)
    gp = stationary_profile_derivative(alpha, r)
    gpp = -4.0 * alpha**3 * r / (1.0 + (alpha * r) ** 2) ** 2
    drift, pot = (2 * n - 1) / r * gp, eta(g, n) / r**2
    res = np.abs(gpp + drift - pot)
    scale = np.max(np.abs([gpp, drift, pot, (2 * n - 1) * g / r**2]), axis=0)
    return float(np.max(np.where(scale > 0, res / np.where(scale > 0, scale, 1.0), 0.0)))


def real_selfsim_ivp(slope: float, n: int, drift: bool = True) -> SingularIVP:
    """Scalar profile ODE as a singular IVP (drift=False gives the stationary ODE).

    phi'' = -((2n-1)/r + r/2) phi' + eta(phi)/r^2
          = -(2n-1)(phi'/r - phi/r^2) - (r/2) phi' + B(phi)/r^2,
    with B(z) = eta(z) - (2n-1) z = O(z^3).  The origin series
    phi = a r + c3 r^3 + c5 r^5 + c7 r^7 + ... (a = slope) comes from matching
    powers of r with eta(x) = (2n-1) x - (n+1) x^3/3 + (n+7) x^5/60 - ...;
    without drift it is that of the stationary profile 2 arctan(a r/2).
    """
    require_dimension(n, 1)

    def A(z1, z2, r):
        return -(r / 2.0) * z1 if drift else 0.0 * z1

    def B(z):
        return eta(z, n) - (2 * n - 1) * z

    a = float(slope)
    a2 = a * a
    try:  # a2 ** 3 raises where a product would give inf
        a6 = a2 ** 3
    except OverflowError:
        a6 = math.inf
    if drift:
        m, m2, m3 = n + 1, n + 2, n + 3
        series = (-a * (3.0 + 2.0 * m * a2) / (24.0 * m),
                  a * (8.0 * m * m2 * a2 * a2 + 20.0 * m * a2 + 15.0) / (640.0 * m * m2),
                  -a * (48.0 * m * m2 * m3 * a6 + 56.0 * (3 * n * n + 10 * n + 9) * a2 * a2
                        + 14.0 * (15 * n + 17) * a2 + 105.0) / (21504.0 * m * m2 * m3))
    else:
        series = (-a * a2 / 12.0, a * a2 * a2 / 80.0, -a * a6 / 448.0)
    if math.isfinite(a) and not all(map(math.isfinite, series)):  # else SingularIVP names it
        raise DomainError(f"slope {a!r} is out of range: its origin series is not finite")
    return SingularIVP(k=2 * n - 1, A=A, B=B, alpha0=complex(slope), series=series)


@dataclass(frozen=True)
class RealProfile:
    """Scalar profile: the dense solution of the state (g, g_r), g(0) = 0,
    and the next-term estimate of its series start at r[0]."""

    sol: DenseSolution     # y = (g, g_r), (N, 2)
    start_remainder: float

    def __post_init__(self):
        if not np.all(np.isfinite(self.sol.y)):
            raise DomainError("profile contains non-finite values")

    @property
    def r(self):
        return self.sol.r

    @property
    def g(self):
        return self.sol.y[:, 0]

    @property
    def g_r(self):
        return self.sol.y[:, 1]

    @property
    def g_inf(self) -> float:
        return float(self.g[-1])

    def eval(self, r_query):
        """Dense-output (g, g_r) at query radii."""
        y = self.sol.eval(r_query)
        return y[:, 0], y[:, 1]

    def to_csv(self, path):
        write_csv(path, "r,g,g_r", self.r, self.g, self.g_r)


def _selfsim_rhs(n: int):
    """`real_selfsim_ivp(slope, n).rhs()` on a pair of floats, in its split form
    and operation order: -(r/2)g' - k(g'/r - g/r^2) + B(g)/r^2, B = O(g^3)."""
    k = 2 * n - 1
    c = 2 * n - 2

    def fun(r, y):
        g, gp = y
        r2 = r * r
        try:
            b = c * math.sin(g) + 0.5 * math.sin(2 * g) - k * g
        except ValueError:  # g = +-inf: a NaN stage, rejected as non-finite
            b = math.nan
        return gp, -(r * 0.5) * gp - k * (gp / r - g / r2) + b / r2

    return fun


def solve_selfsim_real(beta_slope: float, n: int, r_max: float,
                       rel_tol: float = 1e-10) -> RealProfile:
    """Integrate the scalar self-similar profile with origin slope beta_slope.

    beta_slope is the actual derivative at the origin (a curve "labeled"
    beta in the comparison suite has beta_slope = 2*beta).  The state is
    real; `real_selfsim_ivp` (the complex spec) supplies the series start,
    at r0 = min(1e-2, 1e-2/beta_slope) (`origin_start`).
    """
    if beta_slope < 0:
        raise DomainError("need beta_slope >= 0")
    require_dimension(n, 2)
    start = origin_start(real_selfsim_ivp(beta_slope, n), rel_tol)
    sol = integrate_rk(_selfsim_rhs(n), start.r0, start.y0.real, r_max, rel_tol=rel_tol)
    return RealProfile(sol, start.remainder)


# ---------------------------------------------------------------------------
# comparison suite (maximum-principle orderings)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComparisonReport:
    n: int
    beta_labels: tuple
    informational: bool       # n = 2 runs are produced but not certified
    checks: tuple

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def to_json(self):
        return report_json(dict(asdict(self), schema="gllflow.comparison_report/1"))


ORDERING_TOL = 1e-8
LIMIT_BETA = 1e3          # the label whose profile must end near pi


def _first_max(values, where):
    """The largest entry of a (labels x radii) table and `where` of its row and
    column, the first in row-major order; (-inf, None) for an empty table."""
    if values.size == 0:
        return -np.inf, None
    i, j = np.unravel_index(np.argmax(values), values.shape)
    return float(values[i, j]), where(i, j)


def comparison_suite(beta_list, n: int, r_max: float) -> ComparisonReport:
    """Ordering checks for the self-similar scalar profiles.

    For each label beta (slope 2*beta): (i) phi <= matched stationary
    profile, (ii) monotone in r and < pi, (iii) pointwise strictly
    increasing in beta with the label-LIMIT_BETA profile near pi, (iv) the
    r_max value strictly increasing in beta.
    """
    betas = sorted(float(b) for b in beta_list)
    if any(b < 0 for b in betas):
        raise DomainError("beta labels must be >= 0")
    r_common = np.linspace(r_max / 400.0, r_max, 400)
    checks = []
    profiles = [solve_selfsim_real(2.0 * b, n, r_max) for b in betas]
    # g of every label on r_common, one row per label
    table = np.reshape([p.eval(r_common)[0] for p in profiles], (len(betas), r_common.size))

    nonzero = [i for i, b in enumerate(betas) if b != 0.0]
    excess = table[nonzero] - stationary_profile(np.array(betas)[nonzero, None], r_common)
    worst, where = _first_max(excess, lambda i, j: (betas[nonzero[i]], float(r_common[j])))
    checks.append(CheckResult(
        "below_matched_stationary", worst <= ORDERING_TOL,
        f"max(phi - stationary) = {worst:.3e} at (beta, r) = {where}"))

    worst, where = -np.inf, None
    top, top_where = -np.inf, None
    for b, p in zip(betas, profiles):
        dec = -np.min(np.diff(p.g))
        if dec > worst:
            worst, where = float(dec), b
        if p.g.max() > top:
            top, top_where = float(p.g.max()), b
    checks.append(CheckResult(
        "monotone_in_r", worst <= ORDERING_TOL,
        f"largest decrease {worst:.3e} (beta = {where})"))
    checks.append(CheckResult(
        "below_pi", top < math.pi,
        f"max phi = {top:.6f} (beta = {top_where}), pi = {math.pi:.6f}"))

    worst, where = _first_max(table[:-1] - table[1:],
                              lambda i, j: (betas[i], betas[i + 1], float(r_common[j])))
    checks.append(CheckResult(
        "increasing_in_beta", worst <= ORDERING_TOL,
        f"max(phi_lo - phi_hi) = {worst:.3e} at (beta_lo, beta_hi, r) = {where}"))

    big = solve_selfsim_real(2.0 * LIMIT_BETA, n, r_max)
    gap_pi = math.pi - big.g_inf
    checks.append(CheckResult(
        "large_beta_near_pi", 0.0 < gap_pi < 0.05,
        f"pi - phi_{{{LIMIT_BETA:g}}}(r_max) = {gap_pi:.4f}"))

    ginfs = [p.g_inf for p in profiles]
    incr = all(a < b for a, b in zip(ginfs[:-1], ginfs[1:]))
    checks.append(CheckResult(
        "limits_increasing_in_beta", incr,
        f"phi(infty) per beta: {[round(v, 6) for v in ginfs]}"))

    return ComparisonReport(n=n, beta_labels=tuple(betas),
                            informational=(n == 2), checks=tuple(checks))


# ---------------------------------------------------------------------------
# non-uniqueness witness machinery (n = 2, d = 4)
# ---------------------------------------------------------------------------

WITNESS_TAYLOR_C = 0.05   # quartic coefficient of the recorded Taylor domination
TAYLOR_SAMPLES = 20001    # samples of s in [0.01, 0.5] beyond the expansion

def f_kink(r, epsilon):
    """The near-Hardy-saturating kink family on [0, 1].

    1/epsilon on [0, epsilon], 1/r on [epsilon, 1/2], 4(1-r) on [1/2, 1].
    """
    r = np.asarray(r, float)
    return np.where(r <= epsilon, 1.0 / epsilon,
                    np.where(r <= 0.5, 1.0 / np.maximum(r, 1e-300), 4.0 * (1.0 - r)))


def f_kink_derivative(r, epsilon):
    r = np.asarray(r, float)
    safe = np.where(r > 0, r, 1.0)
    return np.where(r <= epsilon, 0.0, np.where(r <= 0.5, -1.0 / safe**2, -4.0))


def _witness_nodes(epsilon, quad_nodes):
    """(r, f, f') of the kink family on each segment of quadrature nodes
    between its breakpoints (log-spaced middle): quad_nodes // 3 nodes on
    each outer segment, twice that in the middle, at least 64."""
    if not quad_nodes >= 3 * 64:
        raise DomainError(f"need quad_nodes >= 192 (64 nodes a segment), got {quad_nodes!r}")
    m = quad_nodes // 3
    for r in (np.linspace(0.0, epsilon, m), np.geomspace(epsilon, 0.5, 2 * m),
              np.linspace(0.5, 1.0, m)):
        yield r, f_kink(r, epsilon), f_kink_derivative(r, epsilon)


def witness_energy_gap(epsilon, delta, quad_nodes=4000):
    """E(h) - E(pi) on [0, 1] for h = pi - (delta/2) f_epsilon, d = 4.

    The flow is the gradient flow of int (g_r^2/2 + gamma(g)/r^2) r^3 dr;
    E is twice that, so the integrand is |h'|^2 + 2(gamma(h) - gamma(pi))/r^2
    against r^{d-1} dr: exactly 2[e(h) - e(pi)] with e the energy density
    `geometry.energy_density_arr` of the lift u = (sin h, 0, cos h).
    Integrated piecewise so the kinks at r = epsilon and 1/2 stay sharp.
    """
    total = 0.0
    for r, f, fp in _witness_nodes(epsilon, quad_nodes):
        h = math.pi - (delta / 2.0) * f
        hp = -(delta / 2.0) * fp
        pot = np.where(r > 0, 2.0 * gamma(h, 2) / np.where(r > 0, r, 1.0) ** 2, 0.0)
        total += float(radial_integral(hp**2 + pot, r, 4))
    return total


def hardy_saturation_ratio(epsilon, quad_nodes=4000):
    """int |f'|^2 r^3 dr / int |f/r|^2 r^3 dr for the kink family (>= 1, -> 1)."""
    num = den = 0.0
    for r, f, fp in _witness_nodes(epsilon, quad_nodes):
        num += float(radial_integral(fp**2, r, 4))
        den += float(radial_integral(np.where(r > 0, (f / np.where(r > 0, r, 1.0)) ** 2, 0.0), r, 4))
    return num / den


def taylor_domination_delta(C=0.2, quadratic_coefficient=1.0):
    """Largest delta <= 0.5 with gamma(x) - gamma(pi) <= -q (x-pi)^2 - C (x-pi)^4
    on [pi-delta, pi+delta]; None if no delta works.

    Near pi the expansion gamma(pi+s) = -s^2/2 - s^4/12 + O(s^6) decides
    the small-s regime exactly: q = 1 (or any q > 1/2) fails for every
    delta, and q = 1/2 needs C < 1/12.  The remaining range is sampled.
    The energy's potential is 2 gamma, whose quadratic coefficient at pi
    is -1, so the q = 1/2 domination of gamma is the classical q = 1
    domination of the energy.
    """
    q = quadratic_coefficient
    if q > 0.5:
        return None
    if q == 0.5 and C >= 1.0 / 12.0:
        return None
    # small |s| is covered by the expansion; sample the rest
    s = np.linspace(0.01, 0.5, TAYLOR_SAMPLES)
    margin = gamma(math.pi + s, 2) + q * s**2 + C * s**4
    bad = s[margin > 1e-14]
    return 0.5 if bad.size == 0 else float(bad.min())


@dataclass(frozen=True)
class WitnessReport:
    epsilon: float
    delta: float
    energy_gap: float
    hardy_ratio: float
    taylor_delta_literal: float | None     # q = 1 radius for gamma (None: fails)
    taylor_delta_halved: float | None      # q = 1/2 for gamma = q = 1 for 2 gamma
    quad_nodes: int

    def to_json(self):
        return report_json(dict(asdict(self), schema="gllflow.witness_report/1",
                                taylor_C=WITNESS_TAYLOR_C,
                                kink_breakpoints=[self.epsilon, 0.5]))


def nonuniqueness_witness(epsilon, delta, quad_nodes=4000) -> WitnessReport:
    """Energy-comparison report for the equator map against the kink family.

    The quartic Taylor domination that the classical construction leans on
    is recorded for gamma with q = 1 and with q = 1/2.  The energy's
    potential is 2 gamma (quadratic coefficient -1 at pi), so gamma's
    q = 1/2 radius is the classical q = 1 domination of the energy.  The
    energy gap itself is computed from the exact potential, not the Taylor
    surrogate; its sign is decided by the family's Hardy deficit and
    quartic gain, not by the domination radius.
    """
    if not (0.0 < epsilon < 0.5):
        raise DomainError("need 0 < epsilon < 1/2")
    if not (0.0 <= delta <= 0.5):
        raise DomainError("need 0 <= delta <= 1/2")
    gap = 0.0 if delta == 0.0 else witness_energy_gap(epsilon, delta, quad_nodes=quad_nodes)
    return WitnessReport(
        epsilon=float(epsilon), delta=float(delta), energy_gap=gap,
        hardy_ratio=hardy_saturation_ratio(epsilon, quad_nodes=quad_nodes),
        taylor_delta_literal=taylor_domination_delta(WITNESS_TAYLOR_C, 1.0),
        taylor_delta_halved=taylor_domination_delta(WITNESS_TAYLOR_C, 0.5),
        quad_nodes=quad_nodes)


def search_negative_gap(epsilons, delta, quad_nodes=4000):
    """Scan the kink family for a negative energy gap; returns (min, argmin)."""
    best, arg = np.inf, None
    for eps in epsilons:
        g = witness_energy_gap(eps, delta, quad_nodes=quad_nodes)
        if g < best:
            best, arg = g, float(eps)
    return best, arg
