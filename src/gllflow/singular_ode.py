"""Integrator for radial ODEs that are singular at the origin.

The problem class is

    f''(r) = A(f', f, r) - k (f'/r - f/r^2) + B(f)/r^2,   f(0)=0, f'(0)=alpha0,

with k > 0, A smooth with A(alpha0, 0, 0) = 0, and B vanishing cubically
at 0.  The unique bounded-slope solution satisfies f''(0) = 0, so it looks
like f = alpha0 r + c3 r^3 + c5 r^5 + ... near the origin (the Frobenius
series at a regular singular point).  Every problem states its odd
coefficients in closed form: (c3,) for a cubic start, (c3, c5, c7) for a
quintic one whose next term is known.  `series_start` produces data at a
small r0 > 0, and `origin_start`, the one start of a solve, picks r0
(min(1e-2, 1e-2/|alpha0|) for a quintic start below ROUNDING_TOL, else
DEFAULT_R0) and checks the quintic series' next term against the tolerance.
`integrate_rk` carries the data outward with the DOP853 pair of Hairer,
Norsett & Wanner (8th order, 5th/3rd-order error estimate) and its
7th-order dense output, returned as a `DenseSolution`.

The stepper is deterministic: identical inputs give bit-identical grids.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import _dop853 as dop
from ._numerics import check_grid, hermite_eval, locate, radial_integral, require_positive
from .errors import DomainError, GridError, NonFiniteError, StiffnessError
from .manifest import write_csv

ERROR_FLOOR = 1e-14  # absolute term in the mixed error norm (avoids stalls at y ~ 0)
MAX_STEPS = 5_000_000  # step attempts, accepted and rejected, of one integration
# Near a singular origin the rhs cancels terms of size k |f'| / r, and the
# stages amplify their rounding into DOP853's error estimate: steps that the
# controller places there follow the last bit of the rhs (the real and
# complex forms of one scalar profile put start-up nodes up to 0.5% apart),
# and where h k / r nears 1 the dense output misses the tolerance between
# nodes (by up to 19x on scalar profiles at 1e-10 and 1e-11; 2.3x with the
# cap).  So from r0 > 0 every step is at most RADIAL_STEP r, which binds
# until the controller asks for less.  Only below ROUNDING_TOL: at 1e-6 the
# controller asks for more than 0.1 r out to r ~ 5 on the heat profile, and
# the cap instead of the tolerance would set the grid.
ROUNDING_TOL = 1e-9
RADIAL_STEP = 0.1
# every row that DOP853 applies to its 16 stages: the stage rows A, then the
# 8th-order update B and the 5th- and 3rd-order error estimates over stages
# 0-11, then the 4 dense-output rows D
_ROWS = np.concatenate([dop.A, np.pad([dop.B, dop.E5, dop.E3], ((0, 0), (0, 4))), dop.D])
STEP_CHUNK = 1024  # accepted steps per buffer of kept stages


class _Steps:
    """The stage arrays of one DOP853 solve, and what its accepted steps keep.

    YK holds a step's start state, then its 16 stages; M = [1, h _ROWS] (the
    1 only on the stage and update rows), so M[i, :i+1] . YK[:i+1] is stage
    i's state y + h A[i, :i] K[:i], one product gives the update and both
    error estimates, and another the dense-output rows q.  Each product is
    bound once: the views follow M and YK as they are refilled.  A step keeps
    h and stages 5-11: with the y and f of its nodes, all that stages 13-15
    and q read (A[13:, 1:5] = D[:, 1:5] = 0).
    """

    def __init__(self, fun, y):
        self.fun, self.h, self.kept = fun, [], []
        self.YK = YK = np.empty((17,) + y.shape, dtype=y.dtype)
        self.K = K = YK[1:]
        M = np.zeros((23, 17), dtype=y.dtype)
        M[:17, 0] = 1.0
        self.hM, C = M[:, 1:], dop.C.tolist()
        stages = [(i, C[i], M[i, :i + 1].dot, YK[:i + 1]) for i in range(16)]
        self.front, self.back = stages[1:12], stages[13:]
        self.update = functools.partial(M[16:19, :13].dot, YK[:13])
        self.dense = functools.partial(M[19:, 1:].dot, K)


class DenseSolution(NamedTuple):
    """Accepted nodes r (N,), states y and derivatives f (N, m), the steps
    between them, and the solver's counts (zero for data that no solve
    produced).

    Between nodes r[i] and r[i+1], at s = (r - r[i]) / (r[i+1] - r[i]),
    the state is the cubic Hermite of (y, f) at the step ends plus
    s^2 (1-s)^2 (q0 + s (q1 + (1-s) (q2 + s q3))): DOP853's 7th-order dense
    output, regrouped.  It is C^1 at the nodes, and q = 0 leaves the cubic
    Hermite.  A step's rows q are built on its first query from stages 13-15,
    3 calls of the solve's rhs, which must stay pure after the solve.
    """

    r: np.ndarray
    y: np.ndarray
    f: np.ndarray
    steps: _Steps
    steps_accepted: int = 0
    steps_rejected: int = 0
    rhs_evals: int = 0

    @classmethod
    def from_nodes(cls, r, y, f):
        """Nodes with values and derivatives only: cubic Hermite between them."""
        y = np.asarray(y)
        steps = _Steps(None, y[0])
        steps.q = np.zeros((y.shape[0] - 1, 4) + y.shape[1:], dtype=y.dtype)
        steps.built = np.ones(y.shape[0] - 1, dtype=bool)
        return cls(np.asarray(r, float), y, np.asarray(f), steps)

    def rows(self, idx):
        """The rows q (len(idx), 4, m) of steps idx, each built once as the solve would."""
        st, idx = self.steps, np.asarray(idx, dtype=np.intp)
        for i in np.unique(idx[~st.built[idx]]).tolist():
            r, h = float(self.r[i]), st.h[i]
            np.multiply(_ROWS, h, out=st.hM)
            st.YK[0], st.K[0], st.K[12] = self.y[i], self.f[i], self.f[i + 1]
            st.K[5:12] = st.kept[i // STEP_CHUNK][i % STEP_CHUNK]
            for j, c, dot, yk in st.back:
                st.K[j] = st.fun(r + c * h, dot(yk))
            st.q[i] = st.dense()
            st.built[i] = True
        return st.q[idx]

    def eval(self, r_query):
        """The state at query radii; DomainError outside [r[0], r[-1]]."""
        idx, s = locate(r_query, self.r)
        val = hermite_eval(r_query, self.r, self.y, self.f, cell=(idx, s))
        s = s.reshape((-1,) + (1,) * (self.y.ndim - 1))
        q0, q1, q2, q3 = np.moveaxis(self.rows(idx), 1, 0)
        return val + (s * (1 - s)) ** 2 * (q0 + s * (q1 + (1 - s) * (q2 + s * q3)))

    def counters(self):
        """The solver's counts as a manifest entry."""
        return {"steps_accepted": self.steps_accepted, "steps_rejected": self.steps_rejected,
                "rhs_evals": self.rhs_evals}


def _rms(w):
    """Root mean square of |w| over the entries of a real or complex array."""
    v = w.view(float) if w.dtype.kind == "c" else w
    return math.sqrt(v @ v / w.size)


def _error_norm(err, y_old, y_new, rel_tol):
    """DOP853's combined norm of the 5th- and 3rd-order error rows err[0], err[1]:
    |e5|^2 / sqrt(m (|e5|^2 + |e3|^2 / 100)), each row scaled by
    ERROR_FLOOR + rel_tol max(|y_old|, |y_new|); above 1 rejects the step.
    A complex entry adds re^2 + im^2, which is (a conj(a)).real to the bit."""
    e5 = e3 = 0.0
    real = err.dtype.kind != "c"
    for a5, a3, yo, yn in zip(*err.tolist(), y_old.tolist(), y_new.tolist()):
        ao, an = abs(yo), abs(yn)
        scale = ERROR_FLOOR + rel_tol * (an if an > ao else ao)  # max(ao, an), NaN too
        a5, a3 = a5 / scale, a3 / scale
        e5 += a5 * a5 if real else a5.real * a5.real + a5.imag * a5.imag
        e3 += a3 * a3 if real else a3.real * a3.real + a3.imag * a3.imag
    denom = e5 + 0.01 * e3
    return e5 / math.sqrt(denom * y_old.size) if denom else 0.0


def _initial_step(fun, r0, y0, f0, rel_tol, max_step):
    """Hairer's starting step for an error estimate of order 7."""
    scale = ERROR_FLOOR + rel_tol * np.abs(y0)
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, max_step)
    f1 = fun(r0 + h0, y0 + h0 * f0)
    d2 = _rms((f1 - f0) / scale) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, max_step)


def integrate_rk(fun: Callable, r0: float, y0: np.ndarray, r_max: float,
                 rel_tol: float = 1e-10, max_step: float = np.inf,
                 postprocess: Callable | None = None) -> DenseSolution:
    """Adaptive DOP853 from r0 to r_max, with its dense output built on query.

    fun(r, y) -> dy/dr on a flat ndarray state (real or complex), as any length-m
    sequence, stored by copy (the sphere and scalar rhs return tuples); the
    solution calls it again to build dense-output rows, so it must stay pure.
    postprocess(r, y) -> y is applied to every accepted state (used by the
    sphere-valued solver to re-project); the node derivative is taken at
    the result.  Stages run in matrix form, y + h A[i, :i] K[:i], and one
    product of the 12 step stages gives the update and both error
    estimates.  Step factor 0.9 err^(-1/8), kept in [0.2, 10] and at most 1
    right after a rejection.  The last node is r_max itself.  A non-finite
    r0, r_max, y0 or fun(r0, y0) is refused: the first step would be NaN;
    so is a max_step that is NaN or not positive.

    Radii count from the singular origin of this module's problems: from
    r0 > 0 and below ROUNDING_TOL, steps are at most RADIAL_STEP r.
    """
    if not -math.inf < r0 < r_max < math.inf:
        raise DomainError(f"need finite r0 < r_max, got r0={r0!r}, r_max={r_max!r}")
    require_positive(rel_tol=rel_tol)  # else ERROR_FLOOR + rel_tol max|y| bounds nothing
    if not max_step > 0.0:
        raise DomainError(f"need max_step > 0, got {max_step!r}")
    y = np.array(y0, copy=True)
    if not np.all(np.isfinite(y)):
        raise DomainError(f"non-finite start state y0={y!r}")
    r = float(r0)
    f = np.array(fun(r, y))  # a copy: fun may hand back one reused buffer
    if not np.all(np.isfinite(f)):
        raise NonFiniteError(f"non-finite derivative {f!r} at the start r0={r!r}", r_last=r)
    radial = r0 > 0 and rel_tol < ROUNDING_TOL

    def limit(r):
        return min(max_step, RADIAL_STEP * r) if radial else max_step

    h = _initial_step(fun, r, y, f, rel_tol, min(limit(r), r_max - r0))
    rs = [r]
    ys = [y]
    fs = [f]
    steps = _Steps(fun, y)
    YK, K, hM, front, update = steps.YK, steps.K, steps.hM, steps.front, steps.update
    hs, kept = steps.h, steps.kept
    rejected = 0
    retry = False  # the current step has had a rejected attempt
    nonfinite = None  # (r, h, first non-finite stage) of the last rejected attempt
    while r < r_max:
        if len(hs) + rejected > MAX_STEPS:
            raise StiffnessError(f"step budget exhausted: {MAX_STEPS} attempts, stopped at "
                                 f"r={r!r} with h={h!r}", r_last=r,
                                 partial=(np.array(rs), np.array(ys), np.array(fs)))
        r_new = r + h
        if r_max - r_new < 1e-14 * max(abs(r_new), 1.0):
            # clip the last step to end on r_max, and stretch one that would
            # leave a sliver too short to take (it would read as underflow)
            h, r_new = r_max - r, r_max
        if h < 1e-14 * max(abs(r), 1.0):
            partial = (np.array(rs), np.array(ys), np.array(fs))
            if nonfinite is not None and nonfinite[0] == r:
                _, h_bad, bad = nonfinite
                where = ("error estimate overflowed" if bad is None else
                         f"stage {bad} at r={float(r + dop.C[bad] * h_bad)!r}")
                raise NonFiniteError(
                    f"non-finite step from r={r!r} with h={h_bad!r} ({where}); "
                    f"state {y!r}", r_last=r, partial=partial)
            raise StiffnessError(f"step size underflow (stiffness/blowup) at r={r!r} with "
                                 f"h={h!r}", r_last=r, partial=partial)
        np.multiply(_ROWS, h, out=hM)
        YK[0] = y
        K[0] = f
        for i, c, dot, yk in front:
            K[i] = fun(r + c * h, dot(yk))
        rows = update()  # y_new, the 5th- and 3rd-order errors
        y_new = rows[0]
        enorm = _error_norm(rows[1:], y, y_new, rel_tol)
        if enorm <= 1.0:
            if postprocess is not None:
                y_new = postprocess(r_new, y_new)
            K[12] = fun(r_new, y_new)
            if len(hs) % STEP_CHUNK == 0:
                kept.append(np.empty((STEP_CHUNK, 7) + y.shape, dtype=y.dtype))
            kept[-1][len(hs) % STEP_CHUNK] = K[5:12]
            hs.append(h)
            r, y, f = r_new, y_new, K[12].copy()  # a view would change with the next step
            rs.append(r)
            ys.append(y)
            fs.append(f)
            factor = 10.0 if enorm == 0.0 else min(10.0, 0.9 * enorm ** -0.125)
            h = min(h * (min(1.0, factor) if retry else factor), limit(r))
            retry = False
        else:
            # a NaN/inf error norm is rejected like a large one (max() below
            # returns 0.2); remember it so the underflow it ends in says so
            nonfinite = None if math.isfinite(enorm) else (
                r, h, next((i for i in range(12) if not np.all(np.isfinite(K[i]))), None))
            h *= max(0.2, 0.9 * enorm ** -0.125)
            rejected += 1
            retry = True
    n = len(hs)  # q is built on query, as built marks
    kept[-1] = kept[-1][:(n - 1) % STEP_CHUNK + 1].copy()  # frees the unused tail
    steps.q, steps.built = np.empty((n, 4) + y.shape, dtype=y.dtype), np.zeros(n, dtype=bool)
    K[1:5] = 0.0  # weight 0 in stages 13-15 and the rows: no leftover is read
    # the start (f and one probe), 11 stages per attempt, one node derivative per step
    return DenseSolution(np.array(rs), np.array(ys), np.array(fs), steps, n, rejected,
                         2 + 11 * (n + rejected) + n)


# ---------------------------------------------------------------------------
# the singular problem class
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SingularIVP:
    """Data of the singular Cauchy problem (see module docstring), with the
    odd series coefficients of f = alpha0 r + c3 r^3 + c5 r^5 + c7 r^7 + ...
    in closed form: (c3,) starts the cubic series, (c3, c5, c7) the quintic
    one with its next term."""

    k: float
    A: Callable       # A(z1, z2, r) -> complex, smooth, A(alpha0, 0, 0) = 0
    B: Callable       # B(z) -> complex, |B(z)| <= C |z|^3 near 0
    alpha0: complex
    series: tuple     # (c3,) or (c3, c5, c7)

    def __post_init__(self):
        require_positive(k=self.k)

    def validate(self):
        """Runtime assertions: A(alpha0,0,0)=0 and cubic vanishing of B."""
        a = complex(self.A(self.alpha0, 0.0, 0.0))
        if abs(a) > 1e-12 * max(1.0, abs(self.alpha0)):
            raise DomainError(f"A(alpha0, 0, 0) = {a!r}, expected 0")
        # sample |B(z)|/|z|^3 on shrinking circles: for a genuine cubic the
        # ratio is bounded, while a quadratic contaminant grows 10x per decade
        per_mag = []
        for mag in (1e-3, 1e-4, 1e-5):
            worst = 0.0
            for phase in np.linspace(0.0, 2 * np.pi, 8, endpoint=False):
                z = mag * np.exp(1j * phase)
                worst = max(worst, abs(complex(self.B(z))) / mag**3)
            per_mag.append(worst)
        if per_mag[-1] > 30.0 * per_mag[0] + 1e-9 or per_mag[-1] > 1e6:
            raise DomainError(
                f"B does not vanish cubically near 0 (|B|/|z|^3 samples {per_mag})")
        return self

    def rhs(self):
        """First-order system y = (f, f') for the integrator."""
        k, A, B = self.k, self.A, self.B

        def fun(r, y):
            fval, fp = y
            return fp, A(fp, fval, r) - k * (fp / r - fval / r**2) + B(fval) / r**2

        return fun


def series_start(ivp: SingularIVP, r0: float):
    """(f(r0), f'(r0)) from the origin series.

    A cubic start is f = alpha0 r + c3 r^3 + O(r0^5); a quintic one is
    f = alpha0 r + c3 r^3 + c5 r^5, with remainder O((|alpha0| r0)^7) whose
    leading term `series_remainder` gives.  Refuses r0 > 1e-2: beyond that
    the remainder estimate (and so the accuracy contract) is unverifiable.
    """
    require_positive(r0=r0)
    if r0 > 1e-2:
        raise DomainError("series start only certified for r0 <= 1e-2")
    ivp.validate()
    a = ivp.alpha0
    if len(ivp.series) == 1:
        c3, = ivp.series
        f = a * r0 + c3 * r0**3
        fp = a + 3.0 * c3 * r0**2
    else:
        c3, c5, _ = ivp.series
        r2 = r0 * r0
        f = a * r0 + (c3 + c5 * r2) * r2 * r0
        fp = a + (3.0 * c3 + 5.0 * c5 * r2) * r2
    return complex(f), complex(fp)


def series_remainder(ivp: SingularIVP, r0: float) -> float | None:
    """The first term a quintic `series_start` at r0 leaves out, in f':
    7 |c7| r0^6 (in f it is r0/7 times that); None for a cubic start."""
    return None if len(ivp.series) == 1 else 7.0 * abs(ivp.series[2]) * r0**6


DEFAULT_R0 = 1e-4        # the singular pair amplifies start-up error quadratically
# |alpha0| r0 of a quintic start, so its remainder is O(START_REACH^7)
# relative to the data.  Below ROUNDING_TOL the steps climb from r0 at
# RADIAL_STEP r, 24 per decade of r, so a start two decades above DEFAULT_R0
# saves about 48 nodes.  Above it no cap binds, the controller climbs those
# decades in about six steps, and the start stays at DEFAULT_R0.
START_REACH = 1e-2


class OriginStart(NamedTuple):
    r0: float
    y0: np.ndarray               # (f, f') at r0, complex
    remainder: float | None      # `series_remainder` at r0


def origin_start(ivp: SingularIVP, rel_tol: float) -> OriginStart:
    """The series start of a solve at rel_tol.

    A quintic start below ROUNDING_TOL sits at r0 = min(1e-2, 1e-2/|alpha0|);
    one whose `series_remainder` exceeds rel_tol max|y0| is refused with a
    DomainError that names it.  A cubic start, a looser tolerance and
    alpha0 = 0 (where the series is exactly zero) keep r0 = DEFAULT_R0.
    """
    require_positive(rel_tol=rel_tol)
    a = abs(ivp.alpha0)
    r0 = (DEFAULT_R0 if len(ivp.series) == 1 or a == 0.0 or rel_tol >= ROUNDING_TOL
          else min(START_REACH, START_REACH / a))
    f0, fp0 = series_start(ivp, r0)
    remainder = series_remainder(ivp, r0)
    scale = rel_tol * max(abs(f0), abs(fp0))
    if remainder is not None and remainder > scale:
        raise DomainError(f"series start at r0={r0!r}: its next term {remainder:.3e} "
                          f"exceeds rel_tol max|y0| = {scale:.3e}")
    return OriginStart(r0, np.array([f0, fp0]), remainder)


@dataclass(frozen=True)
class ProfileGrid:
    """The dense solution of a state (f, f') on strictly increasing nodes, as CSV."""

    sol: DenseSolution

    def __post_init__(self):
        check_grid(self.sol.r)
        if not (np.all(np.isfinite(self.sol.y)) and np.all(np.isfinite(self.sol.f))):
            raise GridError("profile contains non-finite values")

    def to_csv(self, path):
        f, fp, fpp = self.sol.y[:, 0], self.sol.y[:, 1], self.sol.f[:, 1]
        write_csv(path, "r,re_f,im_f,re_fp,im_fp,re_fpp,im_fpp", self.sol.r, f.real, f.imag,
                  fp.real, fp.imag, fpp.real, fpp.imag)


# ---------------------------------------------------------------------------
# radial Hardy inequality checker
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HardyReport:
    ratio: float
    bound: float
    degenerate: bool = False   # f identically zero: 0/0 reported as ratio 0


def hardy_check(r, f, f_r, d: int, p: float, k: float) -> HardyReport:
    """Ratio ||f/r^{k+1}||_p / ||f_r/r^k||_p against the bound p/(d - p(k+1)).

    Norms are radial L^p(R^d) norms (the sphere measure cancels in the
    ratio).  Requires p >= 1, k >= 0 and p < d/(k+1); the samples should be
    a smooth compactly supported f with its derivative.
    """
    if not (p >= 1.0 and k >= 0.0):  # NaN too
        raise DomainError(f"need p >= 1 and k >= 0, got p={p!r}, k={k!r}")
    if p >= d / (k + 1.0):
        raise DomainError(f"exponent condition violated: p={p} >= d/(k+1)={d/(k+1)}")
    num, den = _hardy_norms(r, f, f_r, d, p, k)
    bound = p / (d - p * (k + 1.0))
    if den == 0.0:
        return HardyReport(ratio=0.0, bound=bound, degenerate=True)
    return HardyReport(ratio=float(num / den), bound=bound)


def hardy_ratio_raw(r, f, f_r, d: int, p: float, k: float) -> float:
    """The norm ratio without the exponent-condition gate (diagnostics only)."""
    num, den = _hardy_norms(r, f, f_r, d, p, k)
    return float(num / den) if den > 0 else 0.0


def _hardy_norms(r, f, f_r, d, p, k):
    """(||f/r^{k+1}||_p, ||f_r/r^k||_p) as radial L^p(R^d) norms."""
    r = check_grid(r)
    f = np.asarray(f, dtype=float)
    f_r = np.asarray(f_r, dtype=float)
    num = radial_integral(np.abs(f / r ** (k + 1)) ** p, r, d) ** (1.0 / p)
    den = radial_integral(np.abs(f_r / r**k) ** p, r, d) ** (1.0 / p)
    return num, den
