"""Digitized reference curves for the scalar self-similar profiles.

The reference plot shows phi_beta(r) for r in [0, 2.5] and labels
beta = 0.25, 0.5, 1, 2, 4.5, 10, 30, 100; coordinates here are raw plot
units (x, y) with the axis scales

    r = x * 2.5 / 6,        g = y * pi / 4.

Neither the dimension n used for the curves nor the slope convention of
the labels is stated by the source, so `fit_convention` determines both
from the data: the label turns out to be the arctan coefficient (origin
slope 2*beta) and the best-fitting dimension is n = 3, reproducing every
curve except the steepest to a few parts in 1e-5 of a plot unit (the
beta = 100 reference data is itself off by ~6e-3 near the origin: its
first point lies above the exact chord 2*beta*r, which no true solution
with that slope can do).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .realflow import solve_selfsim_real

X_SCALE = 2.5 / 6.0
Y_SCALE = np.pi / 4.0

FIGURE_CURVES = {
    0.25: np.array([
        (0.24, 0.0636288), (0.48, 0.127059), (0.72, 0.190096), (0.96, 0.252548),
        (1.2, 0.314234), (1.44, 0.374979), (1.68, 0.434624), (1.92, 0.49302),
        (2.16, 0.550035), (2.4, 0.605552), (2.64, 0.659469), (2.88, 0.711703),
        (3.12, 0.762184), (3.36, 0.81086), (3.6, 0.857695), (3.84, 0.902665),
        (4.08, 0.945763), (4.32, 0.986992), (4.56, 1.02637), (4.8, 1.06391),
        (5.04, 1.09966), (5.28, 1.13365), (5.52, 1.16594), (5.76, 1.19657),
        (6.0, 1.2256)]),
    0.5: np.array([
        (0.24, 0.127178), (0.48, 0.253488), (0.72, 0.378093), (0.96, 0.500209),
        (1.2, 0.619137), (1.44, 0.734269), (1.68, 0.845106), (1.92, 0.951259),
        (2.16, 1.05245), (2.4, 1.14849), (2.64, 1.23931), (2.88, 1.32488),
        (3.12, 1.40528), (3.36, 1.48062), (3.6, 1.55106), (3.84, 1.61679),
        (4.08, 1.67803), (4.32, 1.735), (4.56, 1.78795), (4.8, 1.83712),
        (5.04, 1.88274), (5.28, 1.92505), (5.52, 1.96429), (5.76, 2.00066),
        (6.0, 2.03437)]),
    1.0: np.array([
        (0.24, 0.253725), (0.48, 0.502047), (0.72, 0.740189), (0.96, 0.964452),
        (1.2, 1.17241), (1.44, 1.36288), (1.68, 1.53565), (1.92, 1.69129),
        (2.16, 1.83082), (2.4, 1.95554), (2.64, 2.06683), (2.88, 2.16607),
        (3.12, 2.25458), (3.36, 2.33358), (3.6, 2.40417), (3.84, 2.46733),
        (4.08, 2.52394), (4.32, 2.57475), (4.56, 2.62046), (4.8, 2.66163),
        (5.04, 2.6988), (5.28, 2.73241), (5.52, 2.76287), (5.76, 2.79051),
        (6.0, 2.81565)]),
    2.0: np.array([
        (0.24, 0.502509), (0.48, 0.967821), (0.72, 1.37281), (0.96, 1.71138),
        (1.2, 1.98862), (1.44, 2.21413), (1.68, 2.39787), (1.92, 2.54847),
        (2.16, 2.67294), (2.4, 2.77669), (2.64, 2.86394), (2.88, 2.93792),
        (3.12, 3.00113), (3.36, 3.05552), (3.6, 3.10263), (3.84, 3.14366),
        (4.08, 3.1796), (4.32, 3.21124), (4.56, 3.2392), (4.8, 3.26403),
        (5.04, 3.28616), (5.28, 3.30596), (5.52, 3.32372), (5.76, 3.33971),
        (6.0, 3.35414)]),
    4.5: np.array([
        (0.24, 1.07649), (0.48, 1.86432), (0.72, 2.37228), (0.96, 2.7015),
        (1.2, 2.92457), (1.44, 3.08292), (1.68, 3.19992), (1.92, 3.28924),
        (2.16, 3.35928), (2.4, 3.4154), (2.64, 3.46119), (2.88, 3.49911),
        (3.12, 3.53092), (3.36, 3.55789), (3.6, 3.58098), (3.84, 3.6009),
        (4.08, 3.61821), (4.32, 3.63334), (4.56, 3.64666), (4.8, 3.65843),
        (5.04, 3.66888), (5.28, 3.6782), (5.52, 3.68654), (5.76, 3.69403),
        (6.0, 3.70078)]),
    10.0: np.array([
        (0.24, 1.9996), (0.48, 2.81762), (0.72, 3.1774), (0.96, 3.37127),
        (1.2, 3.49081), (1.44, 3.57129), (1.68, 3.62889), (1.92, 3.67196),
        (2.16, 3.70527), (2.4, 3.73169), (2.64, 3.7531), (2.88, 3.77074),
        (3.12, 3.78548), (3.36, 3.79794), (3.6, 3.80857), (3.84, 3.81773),
        (4.08, 3.82568), (4.32, 3.83263), (4.56, 3.83873), (4.8, 3.84412),
        (5.04, 3.8489), (5.28, 3.85316), (5.52, 3.85697), (5.76, 3.86039),
        (6.0, 3.86348)]),
    30.0: np.array([
        (0.024, 0.742467), (0.048, 1.3766), (0.072, 1.86656), (0.096, 2.23129),
        (0.12, 2.50302), (0.144, 2.70895), (0.168, 2.86848), (0.192, 2.99477),
        (0.216, 3.09677), (0.24, 3.18061), (0.264, 3.2506), (0.288, 3.30983),
        (0.312, 3.36054), (0.336, 3.40442), (0.36, 3.44274), (0.384, 3.47647),
        (0.408, 3.50639), (0.432, 3.53309), (0.456, 3.55706), (0.48, 3.5787),
        (0.504, 3.59833), (0.528, 3.61621), (0.552, 3.63256), (0.576, 3.64757),
        (0.6, 3.6614), (0.624, 3.67418), (0.648, 3.68603), (0.672, 3.69703),
        (0.696, 3.70729), (0.72, 3.71686), (0.96, 3.78636), (1.2, 3.82801),
        (1.44, 3.85566), (1.68, 3.87529), (1.92, 3.88989), (2.16, 3.90114),
        (2.4, 3.91005), (2.64, 3.91726), (2.88, 3.92319), (3.12, 3.92814),
        (3.36, 3.93232), (3.6, 3.93589), (3.84, 3.93896), (4.08, 3.94163),
        (4.32, 3.94395), (4.56, 3.946), (4.8, 3.9478), (5.04, 3.94941),
        (5.28, 3.95083), (5.52, 3.95211), (5.76, 3.95326), (6.0, 3.95429)]),
    100.0: np.array([
        (0.024, 2.00568), (0.048, 2.82386), (0.072, 3.18404), (0.096, 3.37879),
        (0.12, 3.49945), (0.144, 3.58121), (0.168, 3.64015), (0.192, 3.68461),
        (0.216, 3.71933), (0.24, 3.74717), (0.264, 3.77), (0.288, 3.78904),
        (0.312, 3.80517), (0.336, 3.81901), (0.36, 3.83101), (0.384, 3.84151),
        (0.408, 3.85078), (0.432, 3.85903), (0.456, 3.8664), (0.48, 3.87304),
        (0.504, 3.87904), (0.528, 3.8845), (0.552, 3.88949), (0.576, 3.89406),
        (0.6, 3.89826), (0.624, 3.90214), (0.648, 3.90573), (0.672, 3.90906),
        (0.696, 3.91216), (0.72, 3.91506), (0.84, 3.92704), (0.96, 3.93601),
        (1.08, 3.94297), (1.2, 3.94852), (1.44, 3.95681), (1.68, 3.96269),
        (1.92, 3.96706), (2.16, 3.97043), (2.4, 3.9731), (2.64, 3.97526),
        (2.88, 3.97703), (3.12, 3.97851), (3.36, 3.97976), (3.6, 3.98083),
        (3.84, 3.98175), (4.08, 3.98254), (4.32, 3.98324), (4.56, 3.98385),
        (4.8, 3.98439), (5.04, 3.98487), (5.28, 3.9853), (5.52, 3.98568),
        (5.76, 3.98602), (6.0, 3.98633)]),
}


FIT_N = (2, 3, 4)                # candidate dimensions
FIT_SLOPE_FACTORS = (1.0, 2.0)   # candidate origin slope per unit of label
FIT_LABELS = (0.25, 1.0)         # the curves the fit is scored on
FIT_REL_TOL = 1e-11              # the tolerance every figure profile is solved at


def _curves(labels, n, slope_factor, rel_tol, solved):
    """label -> columns [x_plot, y_ref, y_sim]: the reference points and the
    profile with origin slope slope_factor * label, in plot units.  Each
    profile is solved once: `solved` maps (slope, n) to it."""
    out = {}
    for lbl in labels:
        key = (slope_factor * lbl, n)
        if key not in solved:
            solved[key] = solve_selfsim_real(key[0], n, 2.55, rel_tol=rel_tol)
        pts = FIGURE_CURVES[lbl]
        g, _ = solved[key].eval(pts[:, 0] * X_SCALE)
        out[lbl] = np.column_stack([pts[:, 0], pts[:, 1], g / Y_SCALE])
    return out


def curve_error(label, n, slope_factor):
    """Max |simulated - reference| in plot y-units for one labeled curve."""
    data = _curves([label], n, slope_factor, FIT_REL_TOL, {})[label]
    return float(np.max(np.abs(data[:, 2] - data[:, 1])))


@dataclass(frozen=True)
class ConventionFit:
    n: int
    slope_factor: float          # profile origin slope = slope_factor * label
    max_err: float               # over the fitted curves, plot y-units
    per_candidate: dict          # (n, slope_factor) -> max err over fit curves
    curves: dict = field(repr=False, compare=False)  # label -> columns, fitted convention


def fit_convention(rel_tol=FIT_REL_TOL) -> ConventionFit:
    """Grid-fit the unstated dimension and slope convention of the labels,
    and reproduce every reference curve under the convention found."""
    scores, solved = {}, {}
    for n in FIT_N:
        for sf in FIT_SLOPE_FACTORS:
            curves = _curves(FIT_LABELS, n, sf, rel_tol, solved).values()
            scores[(n, sf)] = max(float(np.max(np.abs(c[:, 2] - c[:, 1]))) for c in curves)
    (n_best, sf_best) = min(scores, key=scores.get)
    return ConventionFit(n=n_best, slope_factor=sf_best, max_err=scores[(n_best, sf_best)],
                         per_candidate=scores,
                         curves=_curves(sorted(FIGURE_CURVES), n_best, sf_best, rel_tol, solved))
