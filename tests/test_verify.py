"""The `verify` suites: the geom families' array passes against their loop
forms, chunk invariance, and NaN samples failing their checks."""

import dataclasses

import numpy as np
import pytest

from gllflow import _numerics as num
from gllflow import geometry as geo
from gllflow import realflow as rf
from gllflow import selfsim, verify
from gllflow.cli import main
from gllflow.hasimoto import Frame
from gllflow.selfsim import SelfSimProfile
from gllflow.singular_ode import DenseSolution
from gllflow.geometry import (CPPoint, FlowParams, RadialProfile, energy, fs_distance,
                              gll_rhs_arr, stereo_lift_arr, stereo_lift_differential,
                              stereo_rhs, unitary_action)

# `gllflow verify geom`'s check lines as the per-sample loops printed them
GEOM_LINES = [
    "[PASS] geom.flow_outputs_tangent: max normal component 7.82e-16",
    "[PASS] geom.energy_equivalence: min 2E/||u_r||^2 = 1.0117, fitted C = 0.5783",
    "[PASS] geom.fs_distance_isometry: max distance change 5.55e-16",
    "[PASS] geom.chart_sphere_rhs_equivalence: max mismatch 7.43e-11",
    "[PASS] geom.embedding_density_identity: errors at h=1e-2,1e-3,1e-4: "
    "n=2: 4.49e-05, 4.49e-07, 4.50e-09; n=3: 5.06e-05, 5.06e-07, 5.07e-09",
]


# --- the loop forms, one sample at a time, as the suite ran them before ----

def _loop_tangency(rng):
    out = []
    for _ in range(200):
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        ur = rng.normal(size=3)
        ur -= (ur @ u) * u
        urr = rng.normal(size=3)
        r = 0.2 + 2 * rng.random()
        for (al, be) in ((1.0, 0.0), (0.0, 1.0), (np.sqrt(0.5), np.sqrt(0.5))):
            outv = gll_rhs_arr(u, ur, urr, r, FlowParams(2, al, be))
            out.append(abs(outv @ u) / max(np.linalg.norm(outv), 1.0))
    return np.array(out).reshape(200, 3)


def _loop_energies(rng):
    E, grad2 = [], []
    for _ in range(200):
        r = np.linspace(1e-6, 6.0, 801)
        c = rng.normal(size=2) + 1j * rng.normal(size=2)
        center = 1.5 + rng.random()
        width = 0.6 + 0.5 * rng.random()
        f = (c[0] + c[1] * r) * verify._bump((r - center) / width)
        u = stereo_lift_arr(f)
        fp = np.gradient(f, r[1] - r[0], edge_order=2)
        u_r = stereo_lift_differential(f, fp)
        E.append(energy(RadialProfile(r, u, u_r), 2))
        grad2.append(float(geo.sphere_surface_measure(4) *
                           num.radial_integral(np.sum(u_r**2, axis=1), r, 4)))
    return np.array(E), np.array(grad2)


def _loop_fs_changes(rng):
    out = []
    for _ in range(100):
        n = 2 + int(rng.integers(0, 2))
        z1 = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
        z2 = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
        p, q = CPPoint(z1), CPPoint(z2)
        M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        Q, _ = np.linalg.qr(M)
        out.append(abs(fs_distance(unitary_action(Q, p), unitary_action(Q, q))
                       - fs_distance(p, q)))
    return np.array(out)


def _loop_chart_sphere(rng):
    sphere, chart = [], []
    for _ in range(20):
        c = rng.normal(size=2) * 0.5 + 1j * rng.normal(size=2) * 0.5
        for r in (0.5, 1.0, 2.0):
            f = c[0] * r + c[1] * r**2 * np.exp(-r)
            fp = c[0] + c[1] * (2 * r - r**2) * np.exp(-r)
            fpp = c[1] * (2 - 4 * r + r**2) * np.exp(-r)
            h5 = 1e-3
            rs = np.array([r + k * h5 for k in (-2, -1, 0, 1, 2)])
            fk = c[0] * rs + c[1] * rs**2 * np.exp(-rs)
            fpk = c[0] + c[1] * (2 * rs - rs**2) * np.exp(-rs)
            us = stereo_lift_arr(fk)
            urk = stereo_lift_differential(fk, fpk)
            urr = (-urk[4] + 8 * urk[3] - 8 * urk[1] + urk[0]) / (12 * h5)
            for params in (FlowParams(2, 1.0, 0.0), FlowParams(2, 0.0, 1.0)):
                sphere.append(gll_rhs_arr(us[2], urk[2], urr, r, params))
                chart.append(stereo_lift_differential(f, stereo_rhs(f, fp, fpp, r, params)))
    return np.array(sphere).reshape(20, 3, 2, 3), np.array(chart).reshape(20, 3, 2, 3)


def _families(seed, tangency, energies, fs_changes, chart_sphere):
    """Every per-sample value of the four random geom families, drawn in the
    suite's order from one stream, and the stream's state after them."""
    rng = np.random.default_rng(seed)
    values = [tangency(rng), *energies(rng), fs_changes(rng), *chart_sphere(rng)]
    return values, rng.bit_generator.state


def _batched(seed):
    return _families(seed, verify._tangency_ratios, verify._chart_energies,
                     verify._fs_distance_changes, verify._chart_sphere_velocities)


def _assert_same_bits(got, want):
    values, state = got
    ref_values, ref_state = want
    assert state == ref_state
    assert len(values) == len(ref_values) == 6
    for v, w in zip(values, ref_values):
        assert v.dtype == w.dtype and v.shape == w.shape
        assert v.tobytes() == w.tobytes()


class TestGeomArrayPasses:
    @pytest.mark.parametrize("seed", [101, 7, 2026])
    def test_every_sample_is_the_loops_bit_for_bit(self, seed):
        want = _families(seed, _loop_tangency, _loop_energies, _loop_fs_changes,
                         _loop_chart_sphere)
        _assert_same_bits(_batched(seed), want)

    @pytest.mark.parametrize("chunk", [1, 200])
    def test_energies_do_not_depend_on_the_chunk(self, chunk, monkeypatch):
        want = _batched(101)
        monkeypatch.setattr(verify, "GEOM_CHUNK", chunk)
        _assert_same_bits(_batched(101), want)

    def test_stacked_energy_is_each_profiles_own(self):
        r, u, u_r = verify._chart_profile_arrays(np.random.default_rng(3), 4)
        stacked = energy(RadialProfile(r, u, u_r), 2, r_min=0.5, r_max=4.0)
        alone = [energy(RadialProfile(r, u[k], u_r[k]), 2, r_min=0.5, r_max=4.0)
                 for k in range(4)]
        assert stacked.shape == (4,) and stacked.tolist() == alone

    def test_check_lines_are_the_loops_byte_for_byte(self, capsys):
        assert main(["verify", "geom"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [ln for ln in lines if ln.startswith(("[PASS]", "[FAIL]"))] == GEOM_LINES

    def test_flow_velocities_are_array_calls(self, monkeypatch):
        shapes = []

        def counted(u, *args):
            shapes.append(np.shape(u))
            return gll_rhs_arr(u, *args)

        monkeypatch.setattr(verify, "gll_rhs_arr", counted)
        assert all(c.passed for c in verify.suite_geom())
        assert shapes == [(200, 3)] * 3 + [(20, 3, 3)] * 2


def _nth_call_nan(monkeypatch, name, nth, poison):
    """Wrap verify.<name> so that its nth call's result passes through poison."""
    real, calls = getattr(verify, name), []

    def wrapped(*args, **kwargs):
        out = real(*args, **kwargs)
        calls.append(None)
        return poison(out) if len(calls) == nth else out

    monkeypatch.setattr(verify, name, wrapped)


def _with_nan(a, index):
    a = np.array(a, dtype=float)
    a[index] = np.nan
    return a


def _rows(suite):
    return {c.name: c for c in suite()}


class TestNaNSampleFailsItsCheck:
    """One NaN sample among otherwise passing ones fails the check it feeds;
    every other check of the suite still passes."""

    @pytest.mark.parametrize("name, nth, poison, check", [
        ("gll_rhs_arr", 2, lambda v: _with_nan(v, (17, 0)), "flow_outputs_tangent"),
        ("energy", 3, lambda e: _with_nan(e, 5), "energy_equivalence"),
        ("fs_distance", 41, lambda d: float("nan"), "fs_distance_isometry"),
        ("stereo_rhs", 9, lambda w: w * np.nan, "chart_sphere_rhs_equivalence"),
    ])
    def test_geom(self, monkeypatch, name, nth, poison, check):
        _nth_call_nan(monkeypatch, name, nth, poison)
        rows = _rows(verify.suite_geom)
        assert not rows[check].passed and "nan" in rows[check].detail
        assert all(c.passed for n, c in rows.items() if n != check)

    def test_hardy_ratio(self, monkeypatch):
        _nth_call_nan(monkeypatch, "hardy_check", 23,
                      lambda rep: dataclasses.replace(rep, ratio=float("nan")))
        rows = _rows(verify.suite_singular)
        assert not rows["hardy_ratio_below_bound"].passed
        assert rows["hardy_ratio_below_bound"].detail == "max ratio/bound = nan"
        assert rows["deterministic_grids"].passed

    def test_frame_defect(self, monkeypatch):
        # one NaN row of Je: Frame.defect's max() used to drop it.  q reads
        # Je too, so the q checks of that frame fail with it
        def poison(fr):
            return Frame(fr.r, fr.e, _with_nan(fr.je, (1000, 1)))

        _nth_call_nan(monkeypatch, "transport_frame", 1, poison)
        row = _rows(verify.suite_hasimoto)["frame_orthonormal_tangent"]
        assert not row.passed and row.detail == "max frame defect nan"

    def test_energy_equivalence_counts_every_sample(self, monkeypatch):
        real = verify._chart_energies

        def one_flat_profile(rng):
            E, grad2 = real(rng)
            grad2[7] = 0.0
            return E, grad2

        monkeypatch.setattr(verify, "_chart_energies", one_flat_profile)
        row = _rows(verify.suite_geom)["energy_equivalence"]
        assert not row.passed
        assert row.detail.endswith("; only 199/200 with u_r != 0")


def _meridian_profile(theta, theta_r, r):
    """The node-built heat profile psi = (sin theta, 0, cos theta), n = 2."""
    zero = np.zeros_like(r)
    y = np.column_stack([np.sin(theta), zero, np.cos(theta),
                         theta_r * np.cos(theta), zero, -theta_r * np.sin(theta)])
    return SelfSimProfile(DenseSolution.from_nodes(r, y, np.zeros_like(y)),
                          FlowParams(2, 1.0, 0.0))


class TestNorthPoleCheck:
    """`never_returns_to_north_pole` on node-built profiles that leave e3 at
    slope theta'(0) = 2, as the suite's v = (1, 0) does."""

    R = np.linspace(1e-2, 30.0, 1000)

    def test_a_profile_that_comes_back_to_e3_fails(self, monkeypatch):
        # theta = 2r (r-5)^2 / (25 + r^3) is back at e3 at r = 5, between two
        # nodes: min |psi - e3| = 3.0e-6 > 0 passed the check that asked only that
        r, d = self.R, 25.0 + self.R**3
        theta = 2 * r * (r - 5) ** 2 / d
        theta_r = (2 * (r - 5) ** 2 + 4 * r * (r - 5)) / d - 6 * r**3 * (r - 5) ** 2 / d**2
        prof = _meridian_profile(theta, theta_r, r)
        assert 0.0 < np.linalg.norm(prof.psi - verify.E3, axis=1).min() < 1e-5
        monkeypatch.setattr(verify, "solve_profile", lambda *args, **kwargs: prof)
        row = _rows(verify.suite_selfsim)["never_returns_to_north_pole"]
        assert not row.passed

    def test_a_profile_that_leaves_e3_for_good_passes(self, monkeypatch):
        # theta = 2 arctan r, the stationary harmonic map: |psi - e3| = 2r / sqrt(1 + r^2),
        # least against min(1, 2r) at the last node below r = 1/2, 1 / sqrt(1 + 0.49^2)
        prof = _meridian_profile(2 * np.arctan(self.R), 2 / (1 + self.R**2), self.R)
        monkeypatch.setattr(verify, "solve_profile", lambda *args, **kwargs: prof)
        row = _rows(verify.suite_selfsim)["never_returns_to_north_pole"]
        assert row.passed
        assert row.detail == "min |psi - e3| / min(1, 2|v| r) = 0.898 at r = 0.49 >= 0.5"


def test_deterministic_grids_tells_a_zero_from_minus_zero(monkeypatch):
    # the two solves differ only in the sign of one zero, which equal
    # values would not show
    real, signs = rf.solve_selfsim_real, iter([0.0, -0.0])

    def signed_zero(*args, **kwargs):
        prof = real(*args, **kwargs)
        y = prof.sol.y.copy()
        y[0, 0] = next(signs)
        return dataclasses.replace(prof, sol=prof.sol._replace(y=y))

    monkeypatch.setattr(rf, "solve_selfsim_real", signed_zero)
    row = _rows(verify.suite_singular)["deterministic_grids"]
    assert not row.passed and row.detail.endswith("bit-identical: False")


def test_singular_prints_plain_floats(capsys):
    assert main(["verify", "singular"]) == 0
    line = capsys.readouterr().out.splitlines()[0]
    assert line == (
        "[PASS] singular.second_derivative_vanishes_at_origin: |f''| samples at "
        "r=1e-2,1e-3,1e-4: [[0.007499554715093607, 0.0007499995548921764, "
        "7.499999585061087e-05], [0.04374095553187936, 0.0043749909524006805, "
        "0.0004374999735415302], [0.0006249921875979281, 6.249999216588475e-05, "
        "6.250000562688096e-06]]")


def test_derivative_energy_bound_can_fail(monkeypatch, capsys):
    # SelfSimProfile refuses a profile whose A(r) passes the bound, so the
    # check used to end in exit 2 (a solver error) and could not print FAIL;
    # with the bound lowered below the heat profile's max A it fails, exit 1
    monkeypatch.setattr(selfsim, "derivative_energy_bound", lambda n: 0.5)
    assert main(["verify", "selfsim"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("[FAIL] selfsim.derivative_energy_bounded: max A = ")
    assert lines[0].endswith(" > 0.5; no profile to check further")
    assert lines[1].startswith("suite selfsim: 0/1 in ")
