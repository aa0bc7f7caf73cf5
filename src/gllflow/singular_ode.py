"""Integrator for radial ODEs that are singular at the origin.

The problem class is

    f''(r) = A(f', f, r) - k (f'/r - f/r^2) + B(f)/r^2,   f(0)=0, f'(0)=alpha0,

with k > 0, A smooth with A(alpha0, 0, 0) = 0, and B vanishing cubically
at 0.  The unique bounded-slope solution satisfies f''(0) = 0, so it looks
like f = alpha0 r + c3 r^3 + ... near the origin; `series_start` produces
high-accuracy data at a small r0 > 0 and `integrate_adaptive` carries it
outward with an embedded Dormand-Prince 5(4) pair.

The stepper is deterministic: identical inputs give bit-identical grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._numerics import check_grid, hermite_eval, trapezoid
from .errors import DomainError, GridError, NonFiniteError, StiffnessError
from .manifest import read_csv, write_csv

# Dormand-Prince 5(4) tableau in matrix form; the 5th-order solution is
# propagated and the embedded 4th-order difference drives step control.
# Row 6 of A is the 5th-order weight row (first same as last), and the rows
# of _DP_BE are those weights and the error weights, so one product of
# _DP_BE with the stage matrix gives both the update and the error.
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [1 / 5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [3 / 40, 9 / 40, 0.0, 0.0, 0.0, 0.0, 0.0],
    [44 / 45, -56 / 15, 32 / 9, 0.0, 0.0, 0.0, 0.0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0, 0.0, 0.0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0, 0.0],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0],
])
_DP_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200,
                  22 / 525, -1 / 40])
_DP_BE = np.array([_DP_A[6], _DP_E])

ERROR_FLOOR = 1e-14  # absolute term in the mixed error norm (avoids stalls at y ~ 0)
MAX_STEPS = 5_000_000  # step budget of one integration


def _rms(w):
    """Root mean square of |w| over the entries of a real or complex array."""
    v = w.view(float) if w.dtype.kind == "c" else w
    return math.sqrt(v @ v / w.size)


def _error_norm(err, y_old, y_new, rel_tol):
    return _rms(err / (ERROR_FLOOR + rel_tol * np.maximum(np.abs(y_old), np.abs(y_new))))


def _initial_step(fun, r0, y0, f0, rel_tol, max_step):
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
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, max_step)


def integrate_rk(fun: Callable, r0: float, y0: np.ndarray, r_max: float,
                 rel_tol: float = 1e-10, max_step: float = np.inf,
                 postprocess: Callable | None = None):
    """Adaptive Dormand-Prince 5(4) from r0 to r_max.

    fun(r, y) -> dy/dr on a flat ndarray state (real or complex).
    postprocess(r, y) -> y is applied to every accepted state (used by the
    sphere-valued solver to re-project).  Returns (r_nodes, y_nodes,
    f_nodes) with the derivative stored at every accepted node; the last
    node is r_max itself.
    """
    if r_max <= r0:
        raise DomainError("need r_max > r0")
    y = np.array(y0, copy=True)
    r = float(r0)
    f = np.array(fun(r, y))  # a copy: fun may hand back one reused buffer
    h = _initial_step(fun, r, y, f, rel_tol, min(max_step, r_max - r0))
    rs = [r]
    ys = [y.copy()]
    fs = [f]
    K = np.empty((7,) + y.shape, dtype=y.dtype)
    # stage rows and the fused update/error rows in the state's dtype, so
    # no product below casts the tableau
    A = [_DP_A[i, :i].astype(y.dtype) for i in range(7)]
    BE = _DP_BE.astype(y.dtype)
    nsteps = 0
    nonfinite = None  # (r, h, first non-finite stage) of the last rejected attempt
    while r < r_max:
        if nsteps > MAX_STEPS:
            raise StiffnessError("step budget exhausted", r_last=r,
                                 partial=(np.array(rs), np.array(ys), np.array(fs)))
        r_new = r + h
        if r_max - r_new < 1e-14 * max(abs(r_new), 1.0):
            # clip the last step to end on r_max, and stretch one that would
            # leave a sliver too short to take (it would read as underflow)
            h, r_new = r_max - r, r_max
        if h < 1e-14 * max(abs(r), 1.0):
            partial = (np.array(rs), np.array(ys), np.array(fs))
            if nonfinite is not None and nonfinite[0] == r:
                _, h_bad, stage = nonfinite
                where = ("error estimate overflowed" if stage is None else
                         f"stage {stage} at r={float(r + _DP_C[stage] * h_bad)!r}")
                raise NonFiniteError(
                    f"non-finite step from r={r!r} with h={h_bad!r} ({where}); "
                    f"state {y!r}", r_last=r, partial=partial)
            raise StiffnessError("step size underflow (stiffness/blowup)", r_last=r,
                                 partial=partial)
        K[0] = f
        for i in range(1, 7):
            K[i] = fun(r + _DP_C[i] * h, y + h * A[i].dot(K[:i]))
        step = h * BE.dot(K)  # rows: the 5th-order increment, the error estimate
        y_new = y + step[0]
        enorm = _error_norm(step[1], y, y_new, rel_tol)
        if enorm <= 1.0:
            r = r_new
            if postprocess is not None:
                y_new = postprocess(r, y_new)
                f = np.array(fun(r, y_new))
            else:
                f = K[6].copy()  # FSAL; a view would be overwritten by the next attempt
            y = y_new
            rs.append(r)
            ys.append(y.copy())
            fs.append(f)
            nsteps += 1
            factor = 5.0 if enorm == 0.0 else min(5.0, 0.9 * enorm ** -0.2)
            h = min(h * factor, max_step)
        else:
            # a NaN/inf error norm is rejected like a large one (max() below
            # returns 0.2); remember it so the underflow it ends in says so
            nonfinite = None if math.isfinite(enorm) else (
                r, h, next((i for i in range(7) if not np.all(np.isfinite(K[i]))), None))
            h *= max(0.2, 0.9 * enorm ** -0.2)
    return np.array(rs), np.array(ys), np.array(fs)


# ---------------------------------------------------------------------------
# the singular problem class
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SingularIVP:
    """Data of the singular Cauchy problem (see module docstring)."""

    k: float
    A: Callable       # A(z1, z2, r) -> complex, smooth, A(alpha0, 0, 0) = 0
    B: Callable       # B(z) -> complex, |B(z)| <= C |z|^3 near 0
    alpha0: complex

    def __post_init__(self):
        if self.k <= 0:
            raise DomainError("singular strength k must be > 0")

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
            return np.array([fp, A(fp, fval, r) - k * (fp / r - fval / r**2) + B(fval) / r**2],
                            dtype=complex)

        return fun

    def cubic_coefficient(self):
        """c3 in f = alpha0 r + c3 r^3 + O(r^5), via Richardson on
        G(r) = A(alpha0, alpha0 r, r) + B(alpha0 r)/r^2:  c3 = G'(0)/(6+2k)."""
        a = self.alpha0

        def G(rr):
            return complex(self.A(a, a * rr, rr)) + complex(self.B(a * rr)) / rr**2

        rho = 1e-3
        gp0 = 2.0 * G(rho / 2) / (rho / 2) - G(rho) / rho
        return gp0 / (6.0 + 2.0 * self.k)


def series_start(ivp: SingularIVP, r0: float):
    """(f(r0), f'(r0)) from the origin series f = alpha0 r + c3 r^3 + O(r0^5).

    Refuses r0 > 1e-2: beyond that the O(r0^5) remainder estimate (and so
    the accuracy contract) is unverifiable.
    """
    if r0 <= 0.0:
        raise DomainError("need r0 > 0")
    if r0 > 1e-2:
        raise DomainError("series start only certified for r0 <= 1e-2")
    ivp.validate()
    c3 = ivp.cubic_coefficient()
    f = ivp.alpha0 * r0 + c3 * r0**3
    fp = ivp.alpha0 + 3.0 * c3 * r0**2
    return complex(f), complex(fp)


def series_error_estimate(ivp: SingularIVP, r0: float):
    """Richardson-style bound on the series truncation at r0.

    Starts the series at r0/2, integrates to r0 with fixed fine RK steps,
    and returns the mismatch against the direct series value at r0.
    """
    f_half, fp_half = series_start(ivp, r0 / 2)
    fun = ivp.rhs()
    y = np.array([f_half, fp_half], dtype=complex)
    nsub = 64
    h = (r0 / 2) / nsub
    r = r0 / 2
    for _ in range(nsub):
        k1 = fun(r, y)
        k2 = fun(r + h / 2, y + h / 2 * k1)
        k3 = fun(r + h / 2, y + h / 2 * k2)
        k4 = fun(r + h, y + h * k3)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        r += h
    f_direct, fp_direct = series_start(ivp, r0)
    return abs(y[0] - f_direct), abs(y[1] - fp_direct)


@dataclass(frozen=True)
class ProfileGrid:
    """Solver output: strictly increasing nodes with value and derivative."""

    r: np.ndarray
    f: np.ndarray
    fp: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "r", check_grid(self.r))
        object.__setattr__(self, "f", np.asarray(self.f, dtype=complex))
        object.__setattr__(self, "fp", np.asarray(self.fp, dtype=complex))
        if not (np.all(np.isfinite(self.f)) and np.all(np.isfinite(self.fp))):
            raise GridError("profile contains non-finite values")

    def interpolate(self, r_new):
        """Cubic Hermite value and derivative at arbitrary query points."""
        return hermite_eval(r_new, self.r, self.f, self.fp)

    def to_csv(self, path):
        write_csv(path, "r,re_f,im_f,re_fp,im_fp",
                  self.r, self.f.real, self.f.imag, self.fp.real, self.fp.imag)

    @classmethod
    def read_csv(cls, path):
        data = read_csv(path)
        return cls(data[:, 0], data[:, 1] + 1j * data[:, 2], data[:, 3] + 1j * data[:, 4])


DEFAULT_R0 = 1e-4        # the singular pair amplifies start-up error quadratically
DEFAULT_REL_TOL = 1e-10


def integrate_adaptive(ivp: SingularIVP, r_max: float,
                       rel_tol: float = DEFAULT_REL_TOL) -> ProfileGrid:
    """Solve the singular problem from the series start at DEFAULT_R0 out to
    r_max; the grid holds the solver-chosen accepted nodes."""
    f0, fp0 = series_start(ivp, DEFAULT_R0)
    rs, ys, _ = integrate_rk(ivp.rhs(), DEFAULT_R0, np.array([f0, fp0], dtype=complex), r_max,
                             rel_tol=rel_tol)
    return ProfileGrid(rs, ys[:, 0], ys[:, 1])


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
    if p < 1.0 or k < 0.0:
        raise DomainError("need p >= 1 and k >= 0")
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
    num = trapezoid(np.abs(f / r ** (k + 1)) ** p * r ** (d - 1), r) ** (1.0 / p)
    den = trapezoid(np.abs(f_r / r**k) ** p * r ** (d - 1), r) ** (1.0 / p)
    return num, den
