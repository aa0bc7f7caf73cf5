"""Integrator for radial ODEs that are singular at the origin.

The problem class is

    f''(r) = A(f', f, r) - k (f'/r - f/r^2) + B(f)/r^2,   f(0)=0, f'(0)=alpha0,

with k > 0, A smooth with A(alpha0, 0, 0) = 0, and B vanishing cubically
at 0; a `SingularIVP` checks all three when it is built.  The unique
bounded-slope solution satisfies f''(0) = 0, so it looks like f = alpha0 r
+ c3 r^3 + c5 r^5 + ... near the origin (the Frobenius series at a regular
singular point).  Every problem states its odd coefficients (c3, c5, c7)
in closed form.  `series_start` produces the quintic series at a small
r0 > 0, and `origin_start`, the one start of a solve, picks r0
(min(1e-2, 1e-2/|alpha0|) below ROUNDING_TOL, else DEFAULT_R0) and checks
the series' next term against the tolerance.
`integrate_rk` carries the data outward with the DOP853 pair of Hairer,
Norsett & Wanner (8th order, 5th/3rd-order error estimate) and its
7th-order dense output, returned as a `DenseSolution`.  Each attempt is
code generated once per state size (`_dop853.stepper`) that runs on
Python numbers: the rhs takes the state as a list and returns a length-m
sequence.  The dense rows are built on query, a batch of steps at a time,
as elementwise numpy sums in the attempt's order.

The stepper is deterministic: identical inputs give bit-identical grids.
No BLAS call rounds a stage, an error estimate or a dense row, so the
grids are the same under every BLAS kernel too.
"""

from __future__ import annotations

import functools
import math
from array import array
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
# dense rows are built ROW_BATCH steps at a time: a batch's arrays take
# about 4 kB per sphere step, and a row costs about 0.65x what it does in
# a batch of 16 (8.2 against 12.3 us on a sphere profile), 1.1x what it
# does in one of 256
ROW_BATCH = 64


class _Steps(NamedTuple):
    """What the accepted steps of a solve keep for their dense output: the
    rhs, each step's h (n,), its stages 5-11 (n, 7 m, filled from the
    attempt's flat list of them), and the rows q (n, 4, m) with the mask of
    those built.  With the y and f of its nodes, stages 5-11 are all that
    stages 13-15 and q read (A[13:, 1:5] = D[:, 1:5] = 0)."""

    fun: Callable | None     # None, h and kept None: nodes that no solve produced
    h: np.ndarray | None
    kept: np.ndarray | None
    q: np.ndarray
    built: np.ndarray


class DenseSolution(NamedTuple):
    """Accepted nodes r (N,), states y and derivatives f (N, m), the steps
    between them, and the solver's counts (zero for data that no solve
    produced).

    Between nodes r[i] and r[i+1], at s = (r - r[i]) / (r[i+1] - r[i]),
    the state is the cubic Hermite of (y, f) at the step ends plus
    s^2 (1-s)^2 (q0 + s (q1 + (1-s) (q2 + s q3))): DOP853's 7th-order dense
    output, regrouped.  It is C^1 at the nodes, and q = 0 leaves the cubic
    Hermite.  A step's rows q are built on its first query from stages 13-15,
    3 calls of the solve's rhs, which must stay pure after the solve; the
    steps queried together are built together, ROW_BATCH at a time, in
    numpy passes (`_dense_rows`).
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
        r, y = np.asarray(r, float), np.asarray(y)
        n = y.shape[0] - 1
        steps = _Steps(None, None, None, np.zeros((n, 4) + y.shape[1:], dtype=y.dtype),
                       np.ones(n, dtype=bool))
        return cls(r, y, np.asarray(f), steps)

    def rows(self, idx):
        """The rows q (len(idx), 4, m) of steps idx, each built once as the solve would."""
        st, idx = self.steps, np.asarray(idx, dtype=np.intp)
        todo = np.unique(idx[~st.built[idx]])
        for k in range(0, todo.size, ROW_BATCH):
            part = todo[k:k + ROW_BATCH]
            st.q[part] = _dense_rows(st.fun, self.r[part], st.h[part], self.y[part],
                                     self.f[part], self.f[part + 1], st.kept[part])
            st.built[part] = True
        return st.q[idx]

    def eval(self, r_query):
        """The state at query radii; DomainError outside [r[0], r[-1]]."""
        idx, s = locate(r_query, self.r)
        val = hermite_eval(r_query, self.r, self.y, self.f, cell=(idx, s))
        s = s.reshape((-1,) + (1,) * (self.y.ndim - 1))
        q0, q1, q2, q3 = np.moveaxis(self.rows(idx), 1, 0)
        return val + (s * (1 - s)) ** 2 * (q0 + s * (q1 + (1 - s) * (q2 + s * q3)))

    def counters(self):
        """The solver's counts and its smallest and largest step, as node
        spacings, with the node where the smallest starts: a manifest entry."""
        h = np.diff(self.r)
        i = int(np.argmin(h))
        return {"steps_accepted": self.steps_accepted, "steps_rejected": self.steps_rejected,
                "rhs_evals": self.rhs_evals, "h_min": float(h[i]),
                "r_at_h_min": float(self.r[i]), "h_max": float(np.max(h))}


# the terms of dense stages 13-15 and of the rows q (all four rows of D
# share their nonzeros), in the tableau's order
_STAGE_TERMS = [(i, np.flatnonzero(dop.A[i])) for i in (13, 14, 15)]
_Q_TERMS = np.flatnonzero(dop.D[0])


def _dense_rows(fun, r, h, y, f, f_new, kept):
    """The rows q (n, 4, m) of n steps from the r, y and f of their first
    nodes, f at their last, their h and stages 5-11 (n, 7 m).

    Each stage state of 13-15 is y + (a_l h) k_l + ... and each row of q
    (d_l h) k_l + ..., over the tableau's nonzero weights in its order, as
    the attempt sums a stage: one numpy pass over the steps per term, the
    terms added left to right (`_in_order`).  Only the rhs calls, one per
    step and stage, run in Python, on the stage rows as lists.
    """
    n, m = y.shape
    flat = np.empty((16, n * m), dtype=y.dtype)
    K = flat.reshape(16, n, m)  # a view: the stages k_l of the n steps
    K[0], K[5:12], K[12] = f, kept.reshape(n, 7, m).swapaxes(0, 1), f_new
    h = h[:, None]
    for i, nz in _STAGE_TERMS:
        stage, values = _in_order(y, *(dop.A[i, nz, None, None] * h * K[nz])), []
        for ri, yi in zip((r + dop.C[i] * h[:, 0]).tolist(), stage.tolist()):
            values.extend(fun(ri, yi))  # copied at once: fun may reuse one buffer
        flat[i] = values
    terms = dop.D.T[_Q_TERMS, :, None, None] * h * K[_Q_TERMS, None]  # (terms, 4, n, m)
    return _in_order(*terms).swapaxes(0, 1)


def _in_order(first, second, *rest):
    """first + second + ... elementwise, added left to right as Python's +
    adds them.  (np.add.reduce would add the terms of a single cell
    pairwise, and start from +0.0, which turns a sum of -0.0 into 0.0.)"""
    out = first + second
    for term in rest:
        out += term
    return out


def _rms(w):
    """Root mean square of |w| over a sequence of real or complex numbers,
    summed left to right."""
    return math.sqrt(sum(a.real * a.real + a.imag * a.imag for a in w) / len(w))


def _error_norm(err, y_old, y_new, rel_tol):
    """DOP853's combined norm of the 5th- and 3rd-order error rows err[0], err[1]:
    |e5|^2 / sqrt(m (|e5|^2 + |e3|^2 / 100)), each row scaled by
    ERROR_FLOOR + rel_tol max(|y_old|, |y_new|); above 1 rejects the step.
    All four are length-m sequences of numbers.  A complex entry adds
    re^2 + im^2, which is (a conj(a)).real to the bit."""
    e5 = e3 = 0.0
    real = not isinstance(err[0][0], complex)
    for a5, a3, yo, yn in zip(*err, y_old, y_new):
        ao, an = abs(yo), abs(yn)
        scale = ERROR_FLOOR + rel_tol * (an if an > ao else ao)  # max(ao, an), NaN too
        a5, a3 = a5 / scale, a3 / scale
        e5 += a5 * a5 if real else a5.real * a5.real + a5.imag * a5.imag
        e3 += a3 * a3 if real else a3.real * a3.real + a3.imag * a3.imag
    denom = e5 + 0.01 * e3
    return e5 / math.sqrt(denom * len(y_old)) if denom else 0.0


def _initial_step(fun, r0, y0, f0, rel_tol, max_step):
    """Hairer's starting step for an error estimate of order 7, on sequences."""
    scale = [ERROR_FLOOR + rel_tol * abs(a) for a in y0]
    d0 = _rms([a / s for a, s in zip(y0, scale)])
    d1 = _rms([a / s for a, s in zip(f0, scale)])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, max_step)
    f1 = fun(r0 + h0, [a + h0 * b for a, b in zip(y0, f0)])
    d2 = _rms([(a - b) / s for a, b, s in zip(f1, f0, scale)]) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, max_step)


def integrate_rk(fun: Callable, r0: float, y0: np.ndarray, r_max: float,
                 rel_tol: float = 1e-10, max_step: float = np.inf,
                 postprocess: Callable | None = None) -> DenseSolution:
    """Adaptive DOP853 from r0 to r_max, with its dense output built on query.

    y0 is a flat array (real or complex).  fun(r, y) -> dy/dr takes the state
    as a list of m Python numbers (numpy scalars for a longdouble y0) and
    returns any length-m sequence, which is unpacked at once, so it may be
    one reused buffer; the solution calls fun again to build dense-output
    rows, so it must stay pure.  postprocess(r, y) -> y, on the same
    sequences, is applied to every accepted state (used by the sphere-valued
    solver to re-project); the node derivative is taken at the result.
    Each attempt is `_dop853.stepper(m)`'s, generated for the state size:
    every stage, the update and both error rows are sums of Python numbers
    in the tableau's order, so the nodes do not depend on a BLAS kernel.
    Step factor 0.9 err^(-1/8), kept in [0.2, 10] and at most 1 right after
    a rejection.  The last node is r_max itself.  A non-finite r0, r_max, y0
    or fun(r0, y0) is refused: the first step would be NaN; so is a max_step
    that is NaN or not positive.

    Radii count from the singular origin of this module's problems: from
    r0 > 0 and below ROUNDING_TOL, steps are at most RADIAL_STEP r.
    """
    if not -math.inf < r0 < r_max < math.inf:
        raise DomainError(f"need finite r0 < r_max, got r0={r0!r}, r_max={r_max!r}")
    require_positive(rel_tol=rel_tol)  # else ERROR_FLOOR + rel_tol max|y| bounds nothing
    if not max_step > 0.0:
        raise DomainError(f"need max_step > 0, got {max_step!r}")
    y0 = np.asarray(y0)
    if not np.all(np.isfinite(y0)):
        raise DomainError(f"non-finite start state y0={y0!r}")
    m, r, y = y0.size, float(r0), y0.tolist()
    f = list(fun(r, y))  # a copy: fun may hand back one reused buffer
    if not np.all(np.isfinite(f)):
        raise NonFiniteError(f"non-finite derivative {np.array(f)!r} at the start r0={r!r}",
                             r_last=r)
    radial = r0 > 0 and rel_tol < ROUNDING_TOL

    def limit(r):
        return min(max_step, RADIAL_STEP * r) if radial else max_step

    h = _initial_step(fun, r, y, f, rel_tol, min(limit(r), r_max - r0))
    # nodes, steps and kept stages as flat float buffers that take lists
    # (lists for a state that is not float64)
    store = functools.partial(array, "d") if y0.dtype.char == "d" else list
    rs, ys, fs, hs, kept = store([r]), store(y), store(f), store(), store()
    add = list.extend if store is list else array.fromlist

    def nodes(read=np.array):
        """(r, y, f) of the accepted nodes; a copy with the default read."""
        return read(rs), np.reshape(read(ys), (-1, m)), np.reshape(read(fs), (-1, m))

    attempt = dop.stepper(m)
    rejected = 0
    retry = False  # the current step has had a rejected attempt
    nonfinite = None  # (r, h, first non-finite stage) of the last rejected attempt
    while r < r_max:
        if len(hs) + rejected > MAX_STEPS:
            raise StiffnessError(f"step budget exhausted: {MAX_STEPS} attempts, stopped at "
                                 f"r={float(r)!r} with h={float(h)!r}", r_last=r, partial=nodes())
        r_new = r + h
        if r_max - r_new < 1e-14 * max(abs(r_new), 1.0):
            # clip the last step to end on r_max, and stretch one that would
            # leave a sliver too short to take (it would read as underflow)
            h, r_new = r_max - r, r_max
        if h < 1e-14 * max(abs(r), 1.0):
            if nonfinite is not None and nonfinite[0] == r:
                _, h_bad, bad = nonfinite
                where = ("error estimate overflowed" if bad is None else
                         f"stage {bad} at r={float(r + dop.C[bad] * h_bad)!r}")
                raise NonFiniteError(
                    f"non-finite step from r={float(r)!r} with h={float(h_bad)!r} ({where}); "
                    f"state {np.array(y)!r}", r_last=r, partial=nodes())
            raise StiffnessError(f"step size underflow (stiffness/blowup) at r={float(r)!r} with "
                                 f"h={float(h)!r}", r_last=r, partial=nodes())
        y_new, err, front, back = attempt(fun, r, h, y, f)
        enorm = _error_norm(err, y, y_new, rel_tol)
        if enorm <= 1.0:
            if postprocess is not None:
                y_new = list(postprocess(r_new, y_new))
            f = list(fun(r_new, y_new))
            r, y = r_new, y_new
            rs.append(r)
            add(ys, y)
            add(fs, f)
            hs.append(h)
            add(kept, back)
            factor = 10.0 if enorm == 0.0 else min(10.0, 0.9 * enorm ** -0.125)
            h = min(h * (min(1.0, factor) if retry else factor), limit(r))
            retry = False
        else:
            # a NaN/inf error norm is rejected like a large one (max() below
            # returns 0.2); remember it so the underflow it ends in says so
            stages = front + back
            nonfinite = None if math.isfinite(enorm) else (r, h, next(
                (i for i in range(12) if not np.all(np.isfinite(stages[i * m:(i + 1) * m]))),
                None))
            h *= max(0.2, 0.9 * enorm ** -0.125)
            rejected += 1
            retry = True
    n = len(hs)  # q is built on query, as built marks
    read = np.array if store is list else np.frombuffer  # frombuffer shares, copies nothing
    r_arr, y_arr, f_arr = nodes(read)
    steps = _Steps(fun, np.array(hs), np.reshape(read(kept), (n, 7 * m)),
                   np.empty((n, 4, m), dtype=y_arr.dtype), np.zeros(n, dtype=bool))
    # the start (f and one probe), 11 stages per attempt, one node derivative per step
    return DenseSolution(r_arr, y_arr, f_arr, steps, n, rejected, 2 + 11 * (n + rejected) + n)


# ---------------------------------------------------------------------------
# the singular problem class
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SingularIVP:
    """Data of the singular Cauchy problem (see module docstring), with the
    odd series coefficients (c3, c5, c7) of f = alpha0 r + c3 r^3 + c5 r^5
    + c7 r^7 + ... in closed form: the quintic start and its next term."""

    k: float
    A: Callable       # A(z1, z2, r) -> complex, smooth, A(alpha0, 0, 0) = 0
    B: Callable       # B(z) -> complex, |B(z)| <= C |z|^3 near 0
    alpha0: complex
    series: tuple     # (c3, c5, c7)

    def __post_init__(self):
        """Refuse a spec outside the class: A(alpha0, 0, 0) = 0 and B cubic at 0."""
        require_positive(k=self.k)
        if not np.isfinite(self.alpha0):  # else it would read as A(alpha0, 0, 0) = nan
            raise DomainError(f"non-finite start state: alpha0 = {self.alpha0!r}")
        a = complex(self.A(self.alpha0, 0.0, 0.0))
        if not abs(a) <= 1e-12 * max(1.0, abs(self.alpha0)):  # NaN too
            raise DomainError(f"A(alpha0, 0, 0) = {a!r}, expected 0")
        # sample |B(z)|/|z|^3 on shrinking circles: for a genuine cubic the
        # ratio is bounded, while a quadratic contaminant grows 10x per decade
        circle = np.exp(1j * np.linspace(0.0, 2 * np.pi, 8, endpoint=False))
        per_mag = np.max([[abs(complex(self.B(z))) / mag**3 for z in mag * circle]
                          for mag in (1e-3, 1e-4, 1e-5)], axis=1)  # unlike max(), keeps a NaN
        if not np.all(per_mag[1:] <= np.minimum(30.0 * per_mag[0] + 1e-9, 1e6)):  # NaN too
            raise DomainError(f"B does not vanish cubically near 0 "
                              f"(|B|/|z|^3 samples {per_mag.tolist()})")

    def rhs(self):
        """First-order system y = (f, f') for the integrator."""
        k, A, B = self.k, self.A, self.B

        def fun(r, y):
            fval, fp = y
            return fp, A(fp, fval, r) - k * (fp / r - fval / r**2) + B(fval) / r**2

        return fun


def series_start(ivp: SingularIVP, r0: float):
    """(f(r0), f'(r0)) from the quintic origin series f = alpha0 r + c3 r^3
    + c5 r^5, with remainder O((|alpha0| r0)^7) whose leading term
    `series_remainder` gives.  Refuses r0 > 1e-2: beyond that the remainder
    estimate (and so the accuracy contract) is unverifiable.
    """
    require_positive(r0=r0)
    if r0 > 1e-2:
        raise DomainError("series start only certified for r0 <= 1e-2")
    a = ivp.alpha0
    c3, c5, _ = ivp.series
    r2 = r0 * r0
    f = a * r0 + (c3 + c5 * r2) * r2 * r0
    fp = a + (3.0 * c3 + 5.0 * c5 * r2) * r2
    return complex(f), complex(fp)


def series_remainder(ivp: SingularIVP, r0: float) -> float:
    """The first term `series_start` at r0 leaves out, in f': 7 |c7| r0^6
    (in f it is r0/7 times that)."""
    return 7.0 * abs(ivp.series[2]) * r0**6


DEFAULT_R0 = 1e-4        # the singular pair amplifies start-up error quadratically
# |alpha0| r0 of a start below ROUNDING_TOL, so its remainder is
# O(START_REACH^7) relative to the data.  There the steps climb from r0 at
# RADIAL_STEP r, 24 per decade of r, so a start two decades above DEFAULT_R0
# saves about 48 nodes.  Above it no cap binds and the start stays at
# DEFAULT_R0: the scalar form climbs those decades in about six steps, the
# sphere form in 40-60 (its two O(1/r) terms cancel), but a slope-scaled
# start there stops the scalar error from falling with the tolerance.
START_REACH = 1e-2


class OriginStart(NamedTuple):
    r0: float
    y0: np.ndarray               # (f, f') at r0, complex
    remainder: float             # `series_remainder` at r0


def origin_start(ivp: SingularIVP, rel_tol: float) -> OriginStart:
    """The series start of a solve at rel_tol.

    Below ROUNDING_TOL the start sits at r0 = min(1e-2, 1e-2/|alpha0|); a
    looser tolerance and alpha0 = 0 (where the series is exactly zero) keep
    r0 = DEFAULT_R0.  A start whose `series_remainder` exceeds
    rel_tol max|y0| is refused with a DomainError that names it.
    """
    require_positive(rel_tol=rel_tol)
    a = abs(ivp.alpha0)
    r0 = (DEFAULT_R0 if a == 0.0 or rel_tol >= ROUNDING_TOL
          else min(START_REACH, START_REACH / a))
    f0, fp0 = series_start(ivp, r0)
    remainder = series_remainder(ivp, r0)
    scale = rel_tol * max(abs(f0), abs(fp0))
    if not remainder <= scale:  # NaN too
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
