"""Parallel-transport frame along the radial curve, the complex derivative
field q, the gauge potential, and the associated residual identities.

For a frame e(r) with D_r e = 0 along r -> u(r), q = <u_r, e> + i <u_r, Je>
(Je = u x e) collects the derivative into one complex scalar.  With

    V = q_r + ((2n-1)/r) q - ((2n-2+u3)/r^2) int_0^r u3 q ds,

the tension field in frame coordinates is V e, so a flow trajectory
satisfies p = (alpha + i beta) V where p collects u_t; the gauge potential
alpha_g (D_t e = alpha_g Je, alpha_g(0) = 0) has rate -Im(p conj(q)), and q
itself satisfies q_t = (alpha + i beta) V_r - i alpha_g q.  The residual
functions certify these identities on discrete data; none of them solves
the q equation forward.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._numerics import (ResidualReport, check_grid, cumquad0, derivative_nonuniform,
                        frame_rates, require_dimension, weighted_norms)
from .errors import DomainError, GridError
from .geometry import E3, FlowParams
from .manifest import report_json, write_csv

FRAME_TOL = 1e-10
QPDE_SEED = np.array([1.0, 0.0, 0.0])   # frame seed in T_{e3} for every stored frame
QPDE_MARGIN = 4                         # nodes dropped at each end of the q-PDE norms
EIGEN_RNG_SEED = 7


@dataclass(frozen=True)
class Frame:
    """Orthonormal tangent frame (e, Je) along the radial curve."""

    r: np.ndarray
    e: np.ndarray        # (N, 3)
    je: np.ndarray       # (N, 3)

    def defect(self, u):
        """Largest departure of e from unit length, from T_u and from Je (NaN if any is)."""
        return float(np.max([np.max(np.abs(np.linalg.norm(self.e, axis=1) - 1.0)),
                             np.max(np.abs(np.sum(self.e * u, axis=1))),
                             np.max(np.abs(np.sum(self.e * self.je, axis=1)))]))

    def validate(self, u):
        bad = self.defect(u)
        if not bad <= FRAME_TOL:  # NaN too
            raise DomainError(f"frame invariants violated by {bad:.3e}")
        return self


def transport_frame(r, u, e_seed) -> Frame:
    """Parallel transport of e_seed in T_{e3} along the discrete curve u(r).

    Realizes D_r e = 0 by the exact rotation that maps u_i to u_{i+1}
    about u_i x u_{i+1} (parallel transport along the connecting geodesic,
    second-order accurate in the node spacing).  The segment rotations are
    composed by a parallel-prefix product (ceil(log2 N) batched matmuls)
    and each transported vector is projected onto T_{u_i} and normalized,
    so the frame is orthonormal to machine precision by construction.
    """
    u = np.asarray(u, float)
    e_seed = np.asarray(e_seed, float)
    if not (abs(np.linalg.norm(e_seed) - 1.0) <= FRAME_TOL and abs(e_seed @ E3) <= FRAME_TOL):
        raise DomainError("e_seed must be a unit vector tangent at the north pole")
    if not np.linalg.norm(u[0] - E3) <= 1e-9:  # NaN too
        raise DomainError("the curve must start at the north pole")
    a, b = u[:-1], u[1:]
    axis = np.cross(a, b)
    s = np.linalg.norm(axis, axis=1)
    c = np.sum(a * b, axis=1)
    # Rodrigues matrices c I + s [k]_x + (1 - c) k k^T, k = axis / s; the
    # identity where the segment has no well-defined axis
    flat = s < 1e-15
    k = axis / np.where(flat, 1.0, s)[:, None]
    cross = np.zeros((s.size, 3, 3))
    cross[:, 0, 1], cross[:, 0, 2], cross[:, 1, 2] = -k[:, 2], k[:, 1], -k[:, 0]
    cross[:, 1, 0], cross[:, 2, 0], cross[:, 2, 1] = k[:, 2], -k[:, 1], k[:, 0]
    R = (c[:, None, None] * np.eye(3) + s[:, None, None] * cross
         + (1.0 - c)[:, None, None] * k[:, :, None] * k[:, None, :])
    R[flat] = np.eye(3)
    # Hillis-Steele prefix products: after the pass with stride d, R[i]
    # holds the product of the min(i+1, 2d) rotations ending at segment i
    d = 1
    while d < R.shape[0]:
        R[d:] = R[d:] @ R[:-d]
        d *= 2
    w = R @ e_seed
    w -= np.sum(w * b, axis=1)[:, None] * b
    e = np.concatenate([e_seed[None, :], w / np.linalg.norm(w, axis=1)[:, None]])
    return Frame(np.asarray(r, float), e, np.cross(u, e))


@dataclass(frozen=True)
class QField:
    """Frame coordinates of u_r plus the gauge bookkeeping along the grid."""

    r: np.ndarray
    q: np.ndarray          # complex (N,)
    V: np.ndarray          # tension coordinates (the bracket of p = (alpha+i beta) V)
    alpha_g: np.ndarray    # real gauge potential, alpha_g(0) = 0
    cum_u3q: np.ndarray    # stored cumulative integral of u3 q

    def to_csv(self, path, u_r_norm):
        write_csv(path, "r,re_q,im_q,alpha_g,u_r_norm",
                  self.r, self.q.real, self.q.imag, self.alpha_g, u_r_norm)


def compute_q(r, u, frame: Frame, params: FlowParams, u_r=None) -> QField:
    """q = <u_r, e> + i <u_r, Je>, its tension coordinates V and the gauge
    potential along the grid.

    u_r defaults to a 5-point finite difference of u; pass analytic
    derivatives when available.  V's integral is parabolic (trapezoid loses
    an order against 1/r^2), its origin value extrapolated quadratically.
    The gauge rate -Im(p conj(q)), p = (alpha + i beta) V, is integrated
    from alpha_g(0) = 0.  r must be strictly increasing (GridError), with
    at least 4 nodes when it starts at 0.
    """
    r = check_grid(r)
    if r[0] == 0.0 and r.size < 4:
        raise GridError("V's origin extrapolation needs at least 4 nodes")
    u = np.asarray(u, float)
    if u_r is None:
        u_r = derivative_nonuniform(r, u, order=1)
    q = np.sum(u_r * frame.e, axis=1) + 1j * np.sum(u_r * frame.je, axis=1)
    u3 = u[:, 2]
    q_r = derivative_nonuniform(r, q, order=1)
    I = cumquad0(u3 * q, r)
    safe = np.where(r > 0, r, 1.0)
    V = q_r + (2 * params.n - 1) / safe * q - (2 * params.n - 2 + u3) / safe**2 * I
    if r[0] == 0.0:
        V[0] = 3.0 * V[1] - 3.0 * V[2] + V[3]
    p = (params.alpha + 1j * params.beta) * V
    rate = -np.imag(p * np.conj(q))
    alpha_g = cumquad0(rate, r).real
    return QField(r=r, q=q, V=V, alpha_g=alpha_g, cum_u3q=I)


def ip_residual(u_t, frame: Frame, qfield: QField, params: FlowParams, margin: int = 3):
    """Residual of the first-order identity p = (alpha + i beta) V.

    p collects u_t in the frame that produced q; for the pure Schroedinger
    flow this is the statement that i p equals minus the tension
    coordinates.  Returns (weighted L2, Linf) over interior nodes.
    """
    u_t = np.asarray(u_t, float)
    p = np.sum(u_t * frame.e, axis=1) + 1j * np.sum(u_t * frame.je, axis=1)
    res = p - (params.alpha + 1j * params.beta) * qfield.V
    return weighted_norms(res, qfield.r, params.n, margin)


def pole_projection_coordinates(qfield: QField):
    """Frame coordinates of P_u e3, which equal -int_0^r u3 q ds."""
    return -qfield.cum_u3q


def qpde_residual(trajectory, params: FlowParams):
    """Residual of q_t = (alpha + i beta) V_r - i alpha_g q on a trajectory.

    Every frame is transported from the same seed, QPDE_SEED: the gauge
    choice alpha_g(0) = 0 together with u(0, t) = e3 makes the origin
    frame time-independent, so a fixed seed is the time-coherent choice.
    Needs >= 3 stored frames; returns the `ResidualReport` (times, l2, linf).
    """
    frames = trajectory.frames
    r = trajectory.r
    qfields = [compute_q(r, f.u, transport_frame(r, f.u, QPDE_SEED), params) for f in frames]
    rows = []       # (t, l2, linf) per interior frame
    for k, q_t in frame_rates([qf.q for qf in qfields], [f.t for f in frames]):
        qf = qfields[k]
        V_r = derivative_nonuniform(r, qf.V, order=1)
        res = q_t - (params.alpha + 1j * params.beta) * V_r + 1j * qf.alpha_g * qf.q
        rows.append((frames[k].t, *weighted_norms(res, r, params.n, QPDE_MARGIN)))
    return ResidualReport(*map(np.array, zip(*rows)))


# ---------------------------------------------------------------------------
# the first-eigenfunction bookkeeping
# ---------------------------------------------------------------------------

def spherical_eigenfunction(x):
    """a(x) = x1 / |x| on the unit sphere of R^{2n}."""
    x = np.asarray(x, float)
    return x[..., 0] / np.linalg.norm(x, axis=-1)


def spherical_laplacian_x1(x):
    """Laplacian of the 0-homogeneous extension of a at |x| = 1, analytically.

    Delta(x1 g(r)) = x1 (g'' + (d+1) g'/r) for radial g; with g = 1/r and
    d = 2n this is -(d-1) x1 / r^3, i.e. the spherical Laplacian of a is
    -(2n-1) a.  Evaluated pointwise in floating point.
    """
    x = np.asarray(x, float)
    d = x.shape[-1]
    rr = np.linalg.norm(x, axis=-1)
    g1 = -1.0 / rr**2
    g2 = 2.0 / rr**3
    return x[..., 0] * (g2 + (d + 1) * g1 / rr) * rr**2  # times r^2: spherical part


def fd_laplacian(fn, x):
    """4th-order finite-difference Laplacian of fn at x (oracle helper)."""
    x = np.asarray(x, float)
    h = 5e-3
    total = 0.0
    for i in range(x.size):
        ei = np.zeros_like(x)
        ei[i] = 1.0
        total += (-fn(x + 2 * h * ei) + 16 * fn(x + h * ei) - 30 * fn(x)
                  + 16 * fn(x - h * ei) - fn(x - 2 * h * ei)) / (12 * h**2)
    return total


@dataclass(frozen=True)
class EigenReport:
    n: int
    eigenvalue: int
    max_analytic_residual: float
    max_fd_residual: float
    max_radial_reconstruction: float


def eigenfunction_check(n: int, sample_count: int = 100) -> EigenReport:
    """Confirm Delta_{S^{2n-1}} a = -(2n-1) a for a = x1/|x|.

    Three routes at random sphere points: the analytic polar split, a
    finite-difference Laplacian of the homogeneous extension, and the
    reconstruction of Delta(q(r) a) from the radial operator
    q'' + ((2n-1)/r) q' - ((2n-1)/r^2) q for a smooth test q.
    """
    require_dimension(n, 1)
    rng = np.random.default_rng(EIGEN_RNG_SEED)
    d = 2 * n
    lam = -(2 * n - 1)
    worst_analytic = worst_fd = worst_radial = 0.0

    def q_fn(rr):
        return np.sin(rr) * np.exp(-0.3 * rr)

    def q_fn_d1(rr):
        return (np.cos(rr) - 0.3 * np.sin(rr)) * np.exp(-0.3 * rr)

    def q_fn_d2(rr):
        return ((-np.sin(rr) - 0.3 * np.cos(rr)) - 0.3 * (np.cos(rr) - 0.3 * np.sin(rr))) * np.exp(-0.3 * rr)

    for _ in range(sample_count):
        x = rng.normal(size=d)
        x /= np.linalg.norm(x)
        a = spherical_eigenfunction(x)
        worst_analytic = max(worst_analytic, abs(spherical_laplacian_x1(x) - lam * a))
        worst_fd = max(worst_fd, abs(fd_laplacian(spherical_eigenfunction, x) - lam * a))
        # scale out to a generic radius for the radial reconstruction
        scale = 0.8 + 1.4 * rng.random()
        y = scale * x

        def w_fn(z):
            return q_fn(np.linalg.norm(z)) * spherical_eigenfunction(z)

        lhs = fd_laplacian(w_fn, y)
        rr = scale
        rhs = (q_fn_d2(rr) + (d - 1) / rr * q_fn_d1(rr) + lam / rr**2 * q_fn(rr)) * spherical_eigenfunction(y)
        worst_radial = max(worst_radial, abs(lhs - rhs))
    return EigenReport(n=n, eigenvalue=lam, max_analytic_residual=worst_analytic,
                       max_fd_residual=worst_fd, max_radial_reconstruction=worst_radial)


# ---------------------------------------------------------------------------
# scaling-exponent table
# ---------------------------------------------------------------------------

STANDARD_PAIRS = ((1, 0), (1, 1), (2, 0), (2, 1), (3, 1))


def _inverse_index(i, j, p):
    """1/s(i,j) = (i+j)/4 - i/(6p); the pair (1, 1) gives 1/r."""
    return Fraction(i + j, 4) - Fraction(i, 1) / (6 * p)


@dataclass(frozen=True)
class ExponentTable:
    """Lebesgue indices s(i,j) = 1 / `_inverse_index(i, j, p)`, exact rationals."""

    p: Fraction
    r: Fraction
    s: dict

    def holder_identity_holds(self):
        """1/s(i+k, j+m) = 1/s(i,j) + 1/s(k,m), exact, for tabled pairs."""
        return all(_inverse_index(i + k, j + m, self.p)
                   == _inverse_index(i, j, self.p) + _inverse_index(k, m, self.p)
                   for (i, j) in self.s for (k, m) in self.s)

    def to_json(self):
        return report_json({
            "schema": "gllflow.exponent_table/1",
            "p": str(self.p),
            "r": {"fraction": str(self.r), "float": float(self.r)},
            "s": {f"s({i},{j})": {"fraction": str(v), "float": float(v)}
                  for (i, j), v in sorted(self.s.items())},
            "holder_identity": self.holder_identity_holds(),
        })


def strichartz_exponents(p) -> ExponentTable:
    """Fill the index table for p in [1, 2]; s(1,1) coincides with r."""
    try:
        p = Fraction(str(p))
    except (ValueError, ZeroDivisionError):
        raise DomainError(f"p must be a rational number, got {str(p)!r}") from None
    if not (1 <= p <= 2):
        raise DomainError("p must lie in [1, 2]")
    table = {pair: 1 / _inverse_index(*pair, p) for pair in STANDARD_PAIRS}
    return ExponentTable(p=p, r=table[(1, 1)], s=table)
