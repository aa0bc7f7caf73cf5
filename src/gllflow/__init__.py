"""Numerical laboratory for the equivariant generalized Landau-Lifshitz flow
in reduced sphere-valued radial coordinates: geometry, self-similar
profiles, the scalar great-circle heat flow, method-of-lines evolution, the
parallel-transport (Hasimoto) gauge fields, and a verification CLI.
"""

__version__ = "0.1.0"

from .geometry import (CPPoint, FlowParams, RadialProfile, SpherePoint, TangentVec,
                       embed_equivariant, energy, energy_density, fs_distance, gll_rhs,
                       harmonic_map, harmonic_map_jet, stereo_lift, stereo_project,
                       stereo_rhs, tension)
from .singular_ode import HardyReport, ProfileGrid, SingularIVP, hardy_check, series_start
from .selfsim import (SelfSimProfile, TailReport, apriori_identity_residual,
                      decay_exponent, limit_map_continuity, solve_profile, tail_limit)
from .realflow import (ClassifierReport, RealProfile, WitnessReport, classify_uniqueness,
                       comparison_suite, eta, eta_prime, gamma, nonuniqueness_witness,
                       solve_selfsim_real, stationary_profile, stationary_residual)
from .evolution import (EvolveConfig, RadialField, Trajectory, evolve,
                        great_circle_deviation, make_grid, residual,
                        selfsim_consistency)
from .hasimoto import (ExponentTable, Frame, QField, compute_q, eigenfunction_check,
                       ip_residual, qpde_residual, strichartz_exponents,
                       transport_frame)

__all__ = [
    "CPPoint", "FlowParams", "RadialProfile", "SpherePoint", "TangentVec",
    "embed_equivariant", "energy", "energy_density", "fs_distance", "gll_rhs",
    "harmonic_map", "harmonic_map_jet", "stereo_lift", "stereo_project",
    "stereo_rhs", "tension",
    "HardyReport", "ProfileGrid", "SingularIVP", "hardy_check", "series_start",
    "SelfSimProfile", "TailReport", "apriori_identity_residual", "decay_exponent",
    "limit_map_continuity", "solve_profile", "tail_limit",
    "ClassifierReport", "RealProfile", "WitnessReport", "classify_uniqueness",
    "comparison_suite", "eta", "eta_prime", "gamma", "nonuniqueness_witness",
    "solve_selfsim_real", "stationary_profile", "stationary_residual",
    "EvolveConfig", "RadialField", "Trajectory", "evolve",
    "great_circle_deviation", "make_grid", "residual", "selfsim_consistency",
    "ExponentTable", "Frame", "QField", "compute_q", "eigenfunction_check",
    "ip_residual", "qpde_residual", "strichartz_exponents", "transport_frame",
]
