"""Dispersion, attenuation, and phase lag in conducting media."""

import math

import numpy as np
import pytest

from btkit.errors import BtkitError, InvalidParameterError, TransversalityError
from btkit.maxwell_conductor import (
    ConductorWavePair,
    DispersionSolution,
    conjugate_conducting,
    dispersion_solve,
    modified_wave_residual,
    real_fields_conducting,
)
from btkit.maxwell_vacuum import WavePair, conjugate_vacuum, maxwell_residual
from btkit.media import EPSILON0, MU0, MediumParams, VACUUM
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
        with pytest.raises(InvalidParameterError):
            dispersion_solve(SYNTH, 0.0)
        with pytest.raises(InvalidParameterError):
            dispersion_solve(SYNTH, -5.0)
        for sigma in (1.0, 0.0):
            # eps * mu = 1 is fine, but eps * omega underflows to 0, so the
            # loss tangent sigma / (eps omega) is undefined
            with pytest.raises(InvalidParameterError, match=r"epsilon \* omega underflows"):
                dispersion_solve(MediumParams(1e-300, 1e300, sigma), 1e-30)

    def test_solution_invariants_enforced(self):
        with pytest.raises(InvalidParameterError):
            DispersionSolution(k=1.0, s=2.0, phi=math.atan2(2.0, 1.0), omega=1.0)
        with pytest.raises(InvalidParameterError):
            DispersionSolution(k=2.0, s=1.0, phi=0.3, omega=1.0)

    def test_json_shape_including_null_skin_depth(self):
        sol = dispersion_solve(MediumParams(EPSILON0, MU0, 0.0), 1e9)
        d = sol.to_dict()
        assert list(d) == ["k", "s", "phi", "omega", "skin_depth"]
        assert d["skin_depth"] is None


class TestConjugation:
    def test_synthetic_partner_amplitude(self):
        # k = 2, s = 1, omega = 1: B0 = (k + i s)/omega tau x E0 = (0, 2 + i, 0)
        pair = ConductorWavePair(
            conjugate_vacuum([1.0, 0.0, 0.0], [0.0, 0.0, 1.0], 1.0, VACUUM).spec,
            SYNTH,
            dispersion_solve(SYNTH, 1.0),
        )
        np.testing.assert_allclose(pair.B0, [0.0, 2.0 + 1.0j, 0.0], atol=1e-12)

    def test_remaining_curl_relation_follows(self):
        rng = np.random.default_rng(3)
        omega = 1.0e8
        medium = MediumParams(4.0 * EPSILON0, MU0, 0.05)
        pair = conjugate_conducting([0.0, 2.0, 0.0], [1.0, 0.0, 0.0], medium, omega)
        d = pair.dispersion
        lhs = (d.k + 1j * d.s) * np.cross(pair.spec.tau, pair.B0)
        rhs = -(medium.epsilon * medium.mu * omega + 1j * medium.mu * medium.sigma) * pair.spec.E0
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10)

    def test_transversality_still_enforced(self):
        with pytest.raises(TransversalityError):
            conjugate_conducting([0.0, 0.0, 1.0], [0.0, 0.0, 1.0], SYNTH, 1.0)

    def test_overflowing_partner_amplitude_rejected(self):
        # B0 = ((k + i s) / omega) tau x E0 reads inf once k is huge
        medium = MediumParams(epsilon=1e100, mu=1e100, sigma=1.0)
        with pytest.raises(InvalidParameterError, match="partner amplitude B0 overflows"):
            conjugate_conducting([1e300, 0.0, 0.0], [0.0, 0.0, 1.0], medium, 1.0)

    def test_zero_conductivity_reduces_to_nonconducting_pair(self):
        medium = MediumParams(4.0 * EPSILON0, MU0, 0.0)
        omega = 1.0e9
        cond = conjugate_conducting([1.0, 0.0, 0.0], [0.0, 0.0, 1.0], medium, omega)
        vac = conjugate_vacuum([1.0, 0.0, 0.0], [0.0, 0.0, 1.0], omega, medium)
        assert cond.dispersion.s == 0.0
        assert cond.dispersion.phi == 0.0
        np.testing.assert_allclose(cond.B0, vac.B0, rtol=1e-12)
        r0 = np.array([0.05, 0.02, -0.3])
        np.testing.assert_allclose(cond.E(r0, 1e-9), vac.E(r0, 1e-9), rtol=1e-12)


    def test_zero_attenuation_pair_shares_the_non_conducting_carrier(self):
        # one carrier serves both classes: with s = 0 and the same k the
        # conductor's E is bit-identical to the medium pair's, even at an
        # oblique direction where k (r . tau) and r . (k tau) round apart
        medium = MediumParams(4.0 * EPSILON0, MU0, 0.0)
        omega = 1.0e9
        vac = conjugate_vacuum([0.8, -0.64, 0.0], [0.48, 0.6, 0.64], omega, medium)
        dispersion = DispersionSolution(k=vac.k, s=0.0, phi=0.0, omega=omega)
        cond = ConductorWavePair(vac.spec, medium, dispersion)
        meshes = vac.default_grid(5).mesh()
        R = np.stack(meshes[:3], axis=-1)
        assert np.array_equal(cond.E(R, meshes[3]), vac.E(R, meshes[3]))
        np.testing.assert_array_equal(cond.k_vector, vac.k_vector)

    def test_conducting_pairs_are_wave_pairs(self):
        pairs = (conjugate_conducting([1.0, 0.0, 0.0], [0.0, 0.0, 1.0], SYNTH, 1.0),
                 real_fields_conducting([1.0, 0.0, 0.0], 0.3, [0.0, 0.0, 1.0], SYNTH, 1.0))
        for pair in pairs:
            assert isinstance(pair, WavePair)
            assert (pair.k, pair.s) == (pair.dispersion.k, pair.dispersion.s)
            np.testing.assert_array_equal(pair.k_vector, [0.0, 0.0, pair.k])


class TestFieldScans:
    def test_pair_passes_conducting_field_equations(self):
        omega = 1.0e8
        medium = MediumParams(2.0 * EPSILON0, MU0, 0.01)
        pair = conjugate_conducting([1.0, 0.0, 0.0], [0.0, 0.0, 1.0], medium, omega)
        report = maxwell_residual(pair, pair.default_grid())
        assert report.max_abs < 1e-5

    def test_components_satisfy_damped_wave_equation(self):
        omega = 1.0e8
        medium = MediumParams(2.0 * EPSILON0, MU0, 0.01)
        pair = conjugate_conducting([1.0, 0.0, 0.0], [0.0, 0.0, 1.0], medium, omega)
        grid = Grid4D.for_wave(pair.k, omega, step_scale=5e-4)
        assert modified_wave_residual(
            pair.E, medium, grid, pair.e_scale * pair.k ** 2
        ).max_abs < 1e-5
        assert modified_wave_residual(
            pair.B, medium, grid, pair.b_scale * pair.k ** 2
        ).max_abs < 1e-5

    def test_oblique_conducting_pair(self):
        omega = 2.0 * math.pi * 1.0e6
        copperish = MediumParams(EPSILON0, MU0, 100.0)
        tau = np.array([1.0, 2.0, 2.0]) / 3.0
        E0 = np.array([2.0, -1.0, 0.0])
        E0 = E0 - np.dot(E0, tau) * tau
        pair = conjugate_conducting(E0, tau, copperish, omega)
        assert maxwell_residual(pair, pair.default_grid()).max_abs < 1e-5

    def test_vacuum_pair_fails_conducting_equations(self):
        # sigma term is missing from the non-attenuated pair
        omega = 1.0
        pair = ConductorWavePair(
            conjugate_vacuum([1.0, 0.0, 0.0], [0.0, 0.0, 1.0], omega, VACUUM).spec,
            SYNTH,
            DispersionSolution(
                k=math.sqrt(3.0), s=0.0, phi=0.0, omega=omega
            ),  # pretend sigma = 0
        )
        report = maxwell_residual(pair, pair.default_grid())
        assert report.max_abs > 0.1


class TestRealFields:
    def test_magnetic_field_lags_by_phi(self):
        omega = 1.0
        alpha = 0.4
        pair = real_fields_conducting([1.0, 0.0, 0.0], alpha, [0.0, 0.0, 1.0], SYNTH, omega)
        d = pair.dispersion
        r0 = np.array([0.0, 0.0, 0.35])
        e_amp, e_phase = fourier_phase(lambda t: pair.E(r0, t)[0], omega)
        b_amp, b_phase = fourier_phase(lambda t: pair.B(r0, t)[1], omega)
        assert phase_difference(b_phase, e_phase) == pytest.approx(d.phi, abs=1e-10)
        assert b_amp / e_amp == pytest.approx(d.amplitude_ratio, rel=1e-10)

    def test_amplitude_decays_by_e_over_one_skin_depth(self):
        omega = 1.0
        pair = real_fields_conducting([1.0, 0.0, 0.0], 0.0, [0.0, 0.0, 1.0], SYNTH, omega)
        depth = pair.dispersion.skin_depth
        amp0, _ = fourier_phase(lambda t: pair.E(np.zeros(3), t)[0], omega)
        amp1, _ = fourier_phase(lambda t: pair.E(np.array([0.0, 0.0, depth]), t)[0], omega)
        assert amp1 / amp0 == pytest.approx(math.exp(-1.0), rel=1e-10)

    def test_real_pair_passes_field_equations(self):
        omega = 1.0e8
        medium = MediumParams(2.0 * EPSILON0, MU0, 0.01)
        pair = real_fields_conducting([1.0, 0.0, 0.0], 0.7, [0.0, 0.0, 1.0], medium, omega)
        assert maxwell_residual(pair, pair.default_grid()).max_abs < 1e-5

    def test_phase_at_origin_is_alpha_plus_phi(self):
        omega = 1.0
        alpha = 1.2
        pair = real_fields_conducting([1.0, 0.0, 0.0], alpha, [0.0, 0.0, 1.0], SYNTH, omega)
        _, b_phase = fourier_phase(lambda t: pair.B(np.zeros(3), t)[1], omega)
        assert phase_difference(b_phase, alpha + pair.dispersion.phi) == pytest.approx(
            0.0, abs=1e-10
        )
