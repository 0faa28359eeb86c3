"""Dispersion, attenuation, and phase lag in conducting media."""

import cmath
import math

import numpy as np
import pytest

from btkit.errors import BtkitError, InvalidParameterError, TransversalityError
from btkit.maxwell_conductor import (ConductorWavePair, DispersionSolution, dispersion_solve,
                                     wave_residual)
from btkit.maxwell_vacuum import FieldPair, WavePair, maxwell_residual
from btkit.media import EPSILON0, MU0, MediumParams
from btkit.verify import Grid4D

from helpers import dispersion_root_search, fourier_phase, phase_difference

# synthetic medium with eps mu omega^2 = 3 and mu sigma omega = 4 at omega = 1:
# the closed form must give exactly k = 2, s = 1
SYNTH = MediumParams(epsilon=3.0, mu=1.0, sigma=4.0)


class TestDispersion:
    def test_synthetic_medium_gives_k2_s1(self):
        sol = dispersion_solve(SYNTH, omega=1.0)
        assert sol.k == pytest.approx(2.0, abs=1e-12)
        assert sol.s == pytest.approx(1.0, abs=1e-12)
        assert sol.phi == pytest.approx(math.atan2(1.0, 2.0), abs=1e-12)
        assert sol.skin_depth == pytest.approx(1.0, abs=1e-12)

    def test_nonconducting_limit_is_exact(self):
        medium = MediumParams(2.0 * EPSILON0, MU0, 0.0)
        omega = 1.0e9
        sol = dispersion_solve(medium, omega)
        assert sol.k == pytest.approx(omega * math.sqrt(2.0 * EPSILON0 * MU0), rel=1e-14)
        assert sol.s == 0.0
        assert sol.phi == 0.0
        assert sol.skin_depth is None

    def test_continuity_at_vanishing_conductivity(self):
        omega = 1.0e7
        sigma = 1e-12 * EPSILON0 * omega  # loss tangent 1e-12
        sol = dispersion_solve(MediumParams(EPSILON0, MU0, sigma), omega)
        assert abs(sol.s) < 1e-8 * sol.k

    def test_good_conductor_phase_approaches_pi_over_4(self):
        omega = 1.0e6
        sigma = 1e8 * EPSILON0 * omega
        sol = dispersion_solve(MediumParams(EPSILON0, MU0, sigma), omega)
        assert abs(sol.phi - math.pi / 4.0) < 1e-7

    def test_defining_equations_hold_across_twelve_decades(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            omega = 10.0 ** rng.uniform(3, 10)
            eps = EPSILON0 * 10.0 ** rng.uniform(0, 2)
            mu = MU0 * 10.0 ** rng.uniform(0, 1)
            q = 10.0 ** rng.uniform(-6, 6)
            medium = MediumParams(eps, mu, q * eps * omega)
            sol = dispersion_solve(medium, omega)
            r1 = abs(sol.s ** 2 - sol.k ** 2 + eps * mu * omega ** 2) / sol.k ** 2
            r2 = abs(mu * medium.sigma * omega - 2.0 * sol.s * sol.k) / sol.k ** 2
            assert r1 < 1e-10 and r2 < 1e-10

    def test_closed_form_matches_root_search_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            omega = 10.0 ** rng.uniform(4, 9)
            eps = EPSILON0 * 10.0 ** rng.uniform(0, 2)
            mu = MU0
            q = 10.0 ** rng.uniform(-6, 6)
            medium = MediumParams(eps, mu, q * eps * omega)
            sol = dispersion_solve(medium, omega)
            k_ref, s_ref = dispersion_root_search(eps, mu, medium.sigma, omega)
            assert sol.k == pytest.approx(k_ref, rel=1e-8)
            assert sol.s == pytest.approx(s_ref, rel=1e-8, abs=1e-8 * sol.k)

    def test_principal_root_over_the_benchmark_ranges(self):
        # k + i s = omega sqrt(mu (eps + i sigma / omega)), as the benchmark's
        # oracle computes it, over the conductor ranges its workload draws
        rng = np.random.default_rng(5)
        for _ in range(500):
            eps = EPSILON0 * rng.uniform(1.0, 10.0)
            mu = MU0 * rng.uniform(1.0, 2.0)
            sigma = 10.0 ** rng.uniform(-3.0, 8.0)
            omega = 2.0 * math.pi * 10.0 ** rng.uniform(3.0, 9.0)
            sol = dispersion_solve(MediumParams(eps, mu, sigma), omega)
            root = omega * cmath.sqrt(mu * complex(eps, sigma / omega))
            assert sol.k == pytest.approx(root.real, rel=1e-12)
            assert sol.s == pytest.approx(root.imag, rel=1e-12)

    @pytest.mark.parametrize("medium, omega", [
        (MediumParams(1e-300, 1e300, 1.0), 1e-10),      # sigma / (eps omega) = 1e310
        (MediumParams(EPSILON0, MU0, 1e300), 1e300),    # mu sigma omega = 1.3e594
        (MediumParams(2.37e-269, 3.02e204, 2.13e237), 3.17e-241),  # eps omega = 7.5e-510
    ], ids=["loss-tangent-overflow", "mu-sigma-omega-overflow", "eps-omega-underflow"])
    def test_no_overflow_on_the_way_to_a_representable_k(self, medium, omega):
        sol = dispersion_solve(medium, omega)
        # the same root with sqrt(mu) and sqrt(omega) taken outside, where
        # neither the root's argument nor its factors leave the float range
        root = (math.sqrt(medium.mu) * math.sqrt(omega)
                * cmath.sqrt(complex(medium.epsilon * omega, medium.sigma)))
        assert sol.k == pytest.approx(root.real, rel=1e-13)
        assert sol.s == pytest.approx(root.imag, rel=1e-13)

    @pytest.mark.parametrize("medium, omega", [
        (SYNTH, 1.0),
        (MediumParams(1.0, 1.0, 1.0), 1e160),           # k = 1e160: k * k is inf
    ], ids=["synthetic", "k-squared-overflows"])
    def test_a_wrong_closed_form_fails_its_self_check(self, monkeypatch, medium, omega):
        # the check divided by k * k: past k = 1.3e154 it read nan, which passed
        hypot = math.hypot
        monkeypatch.setattr(math, "hypot", lambda a, b: 1.01 * hypot(a, b))
        with pytest.raises(BtkitError, match="failed its self-check"):
            dispersion_solve(medium, omega)

    def test_attenuation_and_phase_grow_with_conductivity(self):
        omega = 1.0e8
        sigmas = np.logspace(-6, 4, 30)
        sols = [dispersion_solve(MediumParams(EPSILON0, MU0, s), omega) for s in sigmas]
        ss = np.array([sol.s for sol in sols])
        phis = np.array([sol.phi for sol in sols])
        assert np.all(np.diff(ss) > 0.0)
        assert np.all(np.diff(phis) > 0.0)
        assert np.all(phis < math.pi / 4.0)

    def test_bad_inputs_rejected(self):
        for omega in (0.0, -5.0, math.inf, math.nan):
            with pytest.raises(InvalidParameterError, match="omega must be finite and positive"):
                dispersion_solve(SYNTH, omega)
        # eps * omega is subnormal but not 0, and k ~ 3.3e-240 squares to 0,
        # which the self-check divides by
        for sigma in (0.0, 1e-300):
            with pytest.raises(InvalidParameterError, match=r"k \* k underflows to 0"):
                dispersion_solve(MediumParams(EPSILON0 * 1e-154, MU0, sigma), 1e-154)

    def test_solution_invariants_enforced(self):
        with pytest.raises(InvalidParameterError):
            DispersionSolution(k=1.0, s=2.0, phi=math.atan2(2.0, 1.0), omega=1.0)
        with pytest.raises(InvalidParameterError):
            DispersionSolution(k=2.0, s=1.0, phi=0.3, omega=1.0)
        with pytest.raises(InvalidParameterError, match="wavenumber must be finite and positive"):
            DispersionSolution(k=math.inf, s=0.0, phi=0.0, omega=1.0)
        with pytest.raises(InvalidParameterError, match="omega must be finite and positive"):
            DispersionSolution(k=1.0, s=0.0, phi=0.0, omega=math.inf)

    def test_json_shape_including_null_skin_depth(self):
        sol = dispersion_solve(MediumParams(EPSILON0, MU0, 0.0), 1e9)
        d = sol.to_dict()
        assert list(d) == ["k", "s", "phi", "omega", "skin_depth"]
        assert d["skin_depth"] is None


class TestConjugation:
    def test_synthetic_partner_amplitude(self):
        # k = 2, s = 1, omega = 1: B0 = (k + i s)/omega tau x E0 = (0, 2 + i, 0)
        pair = ConductorWavePair([1.0, 0.0, 0.0], [0.0, 0.0, 1.0], 1.0, SYNTH)
        np.testing.assert_allclose(pair.B0, [0.0, 2.0 + 1.0j, 0.0], atol=1e-12)

    def test_remaining_curl_relation_follows(self):
        rng = np.random.default_rng(3)
        omega = 1.0e8
        medium = MediumParams(4.0 * EPSILON0, MU0, 0.05)
        pair = ConductorWavePair([0.0, 2.0, 0.0], [1.0, 0.0, 0.0], omega, medium)
        d = pair.dispersion
        lhs = (d.k + 1j * d.s) * np.cross(pair.tau, pair.B0)
        rhs = -(medium.epsilon * medium.mu * omega + 1j * medium.mu * medium.sigma) * pair.E0
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10)

    def test_transversality_still_enforced(self):
        with pytest.raises(TransversalityError):
            ConductorWavePair([0.0, 0.0, 1.0], [0.0, 0.0, 1.0], 1.0, SYNTH)

    def test_overflowing_partner_amplitude_rejected(self):
        # B0 = ((k + i s) / omega) tau x E0 reads inf once k is huge
        medium = MediumParams(epsilon=1e100, mu=1e100, sigma=1.0)
        with pytest.raises(InvalidParameterError, match="partner amplitude B0 overflows"):
            ConductorWavePair([1e300, 0.0, 0.0], [0.0, 0.0, 1.0], 1.0, medium)

    def test_zero_conductivity_reduces_to_nonconducting_pair(self):
        medium = MediumParams(4.0 * EPSILON0, MU0, 0.0)
        omega = 1.0e9
        cond = ConductorWavePair([1.0, 0.0, 0.0], [0.0, 0.0, 1.0], omega, medium)
        vac = WavePair([1.0, 0.0, 0.0], [0.0, 0.0, 1.0], omega, medium)
        assert cond.dispersion.s == 0.0
        assert cond.dispersion.phi == 0.0
        np.testing.assert_allclose(cond.B0, vac.B0, rtol=1e-12)
        r0 = np.array([0.05, 0.02, -0.3])
        np.testing.assert_allclose(cond.E(r0, 1e-9), vac.E(r0, 1e-9), rtol=1e-12)


    @pytest.mark.parametrize("medium, omega, k", [
        (MediumParams.relative(4.0, 1.0), 1e9, 6.671281903962895),
        (MediumParams(1e-300, 3e-24), 1e200, 1.732050807568877e38),
        (MediumParams(1e-300, 1e-20), 1e200, 9.999999999999999e39),
    ], ids=["eps-rel-4", "subnormal-eps-mu-3e-324", "subnormal-eps-mu-1e-320"])
    def test_zero_conductivity_gives_the_non_conducting_wavenumber_bit_for_bit(
            self, medium, omega, k):
        # one lossless k = omega sqrt(eps) sqrt(mu): omega / (1/sqrt(eps mu))
        # read 6.671281903962896 at eps_rel = 4 and 2.2e38 at eps mu = 3e-324
        vac = WavePair([1.0, 0.0, 0.0], [0.0, 0.0, 1.0], omega, medium)
        cond = ConductorWavePair([1.0, 0.0, 0.0], [0.0, 0.0, 1.0], omega, medium)
        assert vac.k == cond.k == cond.dispersion.k == medium.lossless_wavenumber(omega) == k
        assert np.array_equal(vac.B0, cond.B0)

    def test_zero_attenuation_pair_shares_the_non_conducting_carrier(self):
        # one carrier serves both classes: with s = 0 and the same k the
        # conductor's E is bit-identical to the medium pair's, even at an
        # oblique direction where k (r . tau) and r . (k tau) round apart;
        # at eps mu = 4 both classes solve k = 2 omega exactly
        medium = MediumParams(4.0, 1.0, 0.0)
        omega = 1.0e9
        vac = WavePair([0.8, -0.64, 0.0], [0.48, 0.6, 0.64], omega, medium)
        cond = ConductorWavePair([0.8, -0.64, 0.0], [0.48, 0.6, 0.64], omega, medium)
        assert (cond.k, cond.s) == (vac.k, vac.s) == (2.0 * omega, 0.0)
        meshes = vac.default_grid(5).mesh()
        R = np.stack(meshes[:3], axis=-1)
        assert np.array_equal(cond.E(R, meshes[3]), vac.E(R, meshes[3]))
        np.testing.assert_array_equal(cond.k_vector, vac.k_vector)

    def test_conducting_pairs_are_wave_pairs(self):
        pairs = (ConductorWavePair([1.0, 0.0, 0.0], [0.0, 0.0, 1.0], 1.0, SYNTH),
                 ConductorWavePair(np.exp(0.3j) * np.array([1.0, 0.0, 0.0]), [0.0, 0.0, 1.0], 1.0,
                                   SYNTH, real=True))
        for pair in pairs:
            assert isinstance(pair, WavePair)
            assert (pair.k, pair.s) == (pair.dispersion.k, pair.dispersion.s)
            np.testing.assert_array_equal(pair.k_vector, [0.0, 0.0, pair.k])


class TestFieldScans:
    def test_pair_passes_conducting_field_equations(self):
        omega = 1.0e8
        medium = MediumParams(2.0 * EPSILON0, MU0, 0.01)
        pair = ConductorWavePair([1.0, 0.0, 0.0], [0.0, 0.0, 1.0], omega, medium)
        report = maxwell_residual(pair, pair.default_grid())
        assert report.max_abs < 1e-5

    @pytest.mark.parametrize("amplitude", [1.0, 1e-302, 1e-310, 1e-320])
    def test_wrong_conductivity_reads_the_same_at_any_amplitude(self, amplitude):
        # a 1e-300 floor under the scale once read 0.025 at 1e-302, a pass below 1e-303
        medium = MediumParams(2.0 * EPSILON0, MU0, 0.01)
        pair = ConductorWavePair([amplitude, 0.0, 0.0], [0.0, 0.0, 1.0], 1e8, medium)
        grid = Grid4D.for_wave(pair.k, 1e8)
        wrong = MediumParams(2.0 * EPSILON0, MU0, 0.03)
        report = wave_residual(pair.E, wrong, grid, amplitude * pair.k ** 2)
        assert report.max_abs == pytest.approx(3.3538981671593, rel=1e-3)

    def test_oblique_conducting_pair(self):
        omega = 2.0 * math.pi * 1.0e6
        copperish = MediumParams(EPSILON0, MU0, 100.0)
        tau = np.array([1.0, 2.0, 2.0]) / 3.0
        E0 = np.array([2.0, -1.0, 0.0])
        E0 = E0 - np.dot(E0, tau) * tau
        pair = ConductorWavePair(E0, tau, omega, copperish)
        assert maxwell_residual(pair, pair.default_grid()).max_abs < 1e-5

    def test_vacuum_pair_fails_conducting_equations(self):
        # sigma term is missing from the non-attenuated pair: k = sqrt(3), s = 0
        lossless = WavePair([1.0, 0.0, 0.0], [0.0, 0.0, 1.0], 1.0, MediumParams(3.0, 1.0))
        pair = FieldPair(lossless.E, lossless.B, lossless.k, lossless.e_scale, lossless.b_scale,
                         SYNTH)
        report = maxwell_residual(pair, lossless.default_grid())
        assert report.max_abs > 0.1


class TestRealFields:
    def test_magnetic_field_lags_by_phi(self):
        omega = 1.0
        alpha = 0.4
        pair = ConductorWavePair(np.exp(1j * alpha) * np.array([1.0, 0.0, 0.0]), [0.0, 0.0, 1.0],
                                 omega, SYNTH, real=True)
        d = pair.dispersion
        r0 = np.array([0.0, 0.0, 0.35])
        e_amp, e_phase = fourier_phase(lambda t: pair.E(r0, t)[0], omega)
        b_amp, b_phase = fourier_phase(lambda t: pair.B(r0, t)[1], omega)
        assert phase_difference(b_phase, e_phase) == pytest.approx(d.phi, abs=1e-10)
        assert b_amp / e_amp == pytest.approx(d.amplitude_ratio, rel=1e-10)

    def test_amplitude_decays_by_e_over_one_skin_depth(self):
        omega = 1.0
        pair = ConductorWavePair([1.0, 0.0, 0.0], [0.0, 0.0, 1.0],
                                 omega, SYNTH, real=True)
        depth = pair.dispersion.skin_depth
        amp0, _ = fourier_phase(lambda t: pair.E(np.zeros(3), t)[0], omega)
        amp1, _ = fourier_phase(lambda t: pair.E(np.array([0.0, 0.0, depth]), t)[0], omega)
        assert amp1 / amp0 == pytest.approx(math.exp(-1.0), rel=1e-10)

    def test_real_pair_passes_field_equations(self):
        omega = 1.0e8
        medium = MediumParams(2.0 * EPSILON0, MU0, 0.01)
        pair = ConductorWavePair(np.exp(1j * 0.7) * np.array([1.0, 0.0, 0.0]), [0.0, 0.0, 1.0],
                                 omega, medium, real=True)
        assert maxwell_residual(pair, pair.default_grid()).max_abs < 1e-5

    def test_phase_at_origin_is_alpha_plus_phi(self):
        omega = 1.0
        alpha = 1.2
        pair = ConductorWavePair(np.exp(1j * alpha) * np.array([1.0, 0.0, 0.0]), [0.0, 0.0, 1.0],
                                 omega, SYNTH, real=True)
        _, b_phase = fourier_phase(lambda t: pair.B(np.zeros(3), t)[1], omega)
        assert phase_difference(b_phase, alpha + pair.dispersion.phi) == pytest.approx(
            0.0, abs=1e-10
        )
