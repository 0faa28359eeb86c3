"""Plane-wave conjugation and field-equation scans in non-conducting media."""

import math
import re

import numpy as np
import pytest

from btkit.errors import (
    InvalidParameterError,
    NormalizationError,
    TransversalityError,
)
from btkit.maxwell_vacuum import (
    FieldPair,
    _norm,
    conjugate_vacuum,
    maxwell_residual,
    plane_wave,
    real_fields_vacuum,
    wave_residual,
)
from btkit.media import CONSTANTS, MediumParams, VACUUM
from btkit.verify import Grid4D

from helpers import (
    fourier_phase,
    phase_difference,
    random_direction,
    random_transverse_amplitude,
)

C = CONSTANTS.c
OMEGA = 2.0 * math.pi * 1.0e8


class TestConstants:
    def test_light_speed_derived_from_vacuum_constants(self):
        assert C == pytest.approx(299792458.0, rel=1e-9)

    def test_vacuum_medium_speed(self):
        assert VACUUM.wave_speed == pytest.approx(C, rel=1e-12)
        assert not VACUUM.is_conducting

    @pytest.mark.parametrize("kwargs", [
        dict(epsilon=-1.0, mu=1.0),
        dict(epsilon=1.0, mu=0.0),
        dict(epsilon=1.0, mu=1.0, sigma=-2.0),
    ])
    def test_bad_medium_rejected(self, kwargs):
        with pytest.raises(InvalidParameterError):
            MediumParams(**kwargs)

    @pytest.mark.parametrize("epsilon, mu", [(1e300, 1e300), (1e-200, 1e-200)],
                             ids=["overflow", "underflow"])
    def test_unrepresentable_epsilon_mu_product_rejected(self, epsilon, mu):
        # each factor is fine; the wave speed 1/sqrt(eps mu) is not
        with pytest.raises(InvalidParameterError, match="epsilon \\* mu"):
            MediumParams(epsilon, mu)


class TestConjugation:
    def test_dispersion_relation(self):
        pair = conjugate_vacuum([1.0, 0.0, 0.0], [0.0, 0.0, 1.0], OMEGA)
        assert pair.k == pytest.approx(OMEGA / C, rel=1e-14)

    def test_partner_amplitude_for_axis_aligned_wave(self):
        pair = conjugate_vacuum([2.0, 0.0, 0.0], [0.0, 0.0, 1.0], OMEGA)
        np.testing.assert_allclose(pair.B0, [0.0, 2.0 / C, 0.0], rtol=1e-14)

    def test_non_transverse_amplitude_rejected_not_projected(self):
        with pytest.raises(TransversalityError) as err:
            conjugate_vacuum([1.0, 0.0, 0.5], [0.0, 0.0, 1.0], OMEGA)
        assert "tau . E0" in str(err.value)

    def test_non_unit_direction_rejected(self):
        with pytest.raises(NormalizationError):
            conjugate_vacuum([1.0, 0.0, 0.0], [0.0, 0.0, 2.0], OMEGA)

    def test_longitudinal_amplitude_with_overflowing_norm_rejected(self):
        # |E0|^2 overflowed, so the transversality tolerance read inf
        with pytest.raises(TransversalityError, match=r"\|E0\| = 1.414213562373095e\+200"):
            conjugate_vacuum([1e200, 0.0, 1e200], [0.0, 0.0, 1.0], OMEGA)

    def test_overflowing_partner_amplitude_rejected(self):
        # B0 = tau x E0 / v reads inf once v is tiny and E0 huge
        medium = MediumParams(epsilon=1e100, mu=1e100)
        with pytest.raises(InvalidParameterError, match="partner amplitude B0 overflows"):
            conjugate_vacuum([1e300, 0.0, 0.0], [0.0, 0.0, 1.0], 1.0, medium=medium)

    @pytest.mark.parametrize("omega", [0.0, -1.0, math.inf])
    def test_bad_frequency_rejected(self, omega):
        with pytest.raises(InvalidParameterError):
            conjugate_vacuum([1.0, 0.0, 0.0], [0.0, 0.0, 1.0], omega)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf])
    def test_non_finite_phase_rejected(self, alpha):
        with pytest.raises(InvalidParameterError, match="alpha"):
            conjugate_vacuum([1.0, 0.0, 0.0], [0.0, 0.0, 1.0], OMEGA, alpha=alpha)

    def test_first_curl_relation_and_its_redundant_twin(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            tau = random_direction(rng)
            E0 = random_transverse_amplitude(rng, tau)
            pair = conjugate_vacuum(E0, tau, OMEGA)
            k_vec = pair.k_vector
            scale = pair.e_scale * pair.k
            # k x E0 = omega B0 defines B0; k x B0 = -(omega/c^2) E0 must follow
            np.testing.assert_allclose(
                np.cross(k_vec, E0), OMEGA * pair.B0, atol=1e-12 * scale
            )
            np.testing.assert_allclose(
                np.cross(k_vec, pair.B0),
                -(OMEGA / C ** 2) * E0,
                atol=1e-12 * scale / C,
            )

    def test_orthogonality_triple_under_bilinear_dot(self):
        rng = np.random.default_rng(11)
        tau = random_direction(rng)
        E0 = random_transverse_amplitude(rng, tau)
        pair = conjugate_vacuum(E0, tau, OMEGA)
        assert abs(np.dot(tau, E0)) < 1e-12 * pair.e_scale
        assert abs(np.dot(tau, pair.B0)) < 1e-12 * pair.b_scale
        assert abs(np.dot(E0, pair.B0)) < 1e-12 * pair.e_scale * pair.b_scale


class TestExtremeInputs:
    """Amplitudes near the bottom of the float range, directions near the top."""

    @pytest.mark.parametrize("E0", [(1e-320, 0.0, 0.0), (1e-310, 1e-310, 0.0), (0.0, 0.0, 0.0),
                                    (1e-305, 0.0, 1e-318)],
                             ids=["1e-320", "1e-310-pair", "zero", "1e-305-share-1e-13"])
    def test_tiny_transverse_amplitude_passes(self, E0):
        # at 1e-320 the scale is subnormal, and the complex quotient by it
        # read nan, which named the normalization scale as the fault
        pair = conjugate_vacuum(E0, [0.0, 0.0, 1.0], 1e9)
        assert pair.e_scale == pytest.approx(math.hypot(*E0), rel=1e-3)
        assert maxwell_residual(pair, pair.default_grid()).max_abs < 1e-6

    def test_subnormal_amplitude_has_the_rounded_partner(self):
        pair = conjugate_vacuum([1e-320, 0.0, 0.0], [0.0, 0.0, 1.0], 1e9)
        # |E0| / c is below the smallest subnormal
        assert not pair.B0.any()

    @pytest.mark.parametrize("E0", [(1e-320, 0.0, 1e-320), (1e-302, 0.0, 1e-302),
                                    (1e-305, 0.0, 1e-316)],
                             ids=["1e-320", "1e-302", "1e-305-share-1e-11"])
    def test_tiny_longitudinal_amplitude_rejected(self, E0):
        # the tolerance once had the absolute floor 1e-12 * 1e-300: it let a
        # longitudinal share up to 1e-12 * 1e-300 / |E0| through below
        # |E0| = 1e-300, and any share below about 1e-312
        with pytest.raises(TransversalityError, match=r"amplitude is not transverse"):
            conjugate_vacuum(E0, [0.0, 0.0, 1.0], 1e9)

    @pytest.mark.parametrize("tau, norm", [
        ((1e200, 0.0, 1e200), "1.414213562373095e+200"),
        ((0.0, 0.0, 1e300), "1e+300"),
    ])
    def test_huge_direction_rejected_with_its_length(self, tau, norm):
        with pytest.raises(NormalizationError, match=re.escape(f"|tau| = {norm}")):
            conjugate_vacuum([1.0, 0.0, 0.0], tau, 1e9)

    @pytest.mark.parametrize("decade", [-150, -20, 0, 20, 150])
    def test_norm_is_numpys_where_no_square_leaves_range(self, decade):
        rng = np.random.default_rng(decade + 300)
        for _ in range(50):
            vector = 10.0 ** decade * rng.standard_normal(3)
            assert _norm(vector) == float(np.linalg.norm(vector))


class TestResiduals:
    def test_conjugate_pair_passes_all_four_equations(self):
        pair = conjugate_vacuum([1.0, 0.0, 0.0], [0.0, 0.0, 1.0], OMEGA)
        report = maxwell_residual(pair, pair.default_grid())
        assert report.max_abs < 1e-6
        assert report.n_points == 9 ** 4

    def test_circular_amplitude_on_coarse_grid(self):
        E0 = np.array([1.0, 1.0j, 0.0]) / math.sqrt(2.0)
        pair = conjugate_vacuum(E0, [0.0, 0.0, 1.0], OMEGA)
        report = maxwell_residual(pair, pair.default_grid(samples=5))
        assert report.max_abs < 1e-6

    def test_oblique_direction_random_amplitudes(self):
        rng = np.random.default_rng(23)
        for _ in range(3):
            tau = random_direction(rng)
            E0 = random_transverse_amplitude(rng, tau, scale=10.0 ** rng.uniform(-2, 2))
            omega = 10.0 ** rng.uniform(6, 10)
            pair = conjugate_vacuum(E0, tau, omega)
            assert maxwell_residual(pair, pair.default_grid()).max_abs < 1e-6

    def test_components_satisfy_wave_equation_at_c(self):
        pair = conjugate_vacuum([1.0, 0.0, 0.0], [0.0, 0.0, 1.0], OMEGA)
        grid = Grid4D.for_wave(pair.k, OMEGA, step_scale=5e-4)
        scale = pair.e_scale * pair.k ** 2
        assert wave_residual(pair.E, C, grid, scale).max_abs < 1e-6
        scale_b = pair.b_scale * pair.k ** 2
        assert wave_residual(pair.B, C, grid, scale_b).max_abs < 1e-6

    def test_wrong_speed_fails_wave_equation(self):
        # omega = 2 c k makes the d'Alembertian at c equal 3 k^2 F
        k = OMEGA / C
        F = plane_wave([1.0, 0.0, 0.0], [0.0, 0.0, k], 2.0 * OMEGA)
        grid = Grid4D.for_wave(k, 2.0 * OMEGA)
        report = wave_residual(F, C, grid, scale=k ** 2)
        assert report.max_abs == pytest.approx(3.0, rel=1e-5)

    def test_wave_equation_alone_does_not_give_field_equations(self):
        # independent transverse amplitudes solve the wave equation but the
        # pair generically violates the curl relations
        rng = np.random.default_rng(5)
        tau = random_direction(rng)
        E0 = random_transverse_amplitude(rng, tau)
        B0 = random_transverse_amplitude(rng, tau) / C
        k = OMEGA / C
        k_vec = k * tau
        pair = FieldPair(
            E=plane_wave(E0, k_vec, OMEGA),
            B=plane_wave(B0, k_vec, OMEGA),
            k=k,
            e_scale=float(np.linalg.norm(E0)),
            b_scale=float(np.linalg.norm(B0)),
            medium=VACUUM,
        )
        wave_grid = Grid4D.for_wave(k, OMEGA, step_scale=5e-4)
        assert wave_residual(pair.E, C, wave_grid, pair.e_scale * k ** 2).max_abs < 1e-6
        assert wave_residual(pair.B, C, wave_grid, pair.b_scale * k ** 2).max_abs < 1e-6
        assert maxwell_residual(pair, Grid4D.for_wave(k, OMEGA)).max_abs > 0.1

    @pytest.mark.parametrize("amplitude", [1e150, 1e200])
    def test_huge_amplitude_pair_passes_and_a_wrong_partner_fails(self, amplitude):
        # at 1e200, |E0|^2 overflowed: both scales read inf and every
        # normalized residual 0, so the wrong partner passed too
        pair = conjugate_vacuum([amplitude, 0.0, 0.0], [0.0, 0.0, 1.0], 1e9)
        assert pair.e_scale == amplitude
        grid = pair.default_grid()
        assert maxwell_residual(pair, grid).max_abs < 1e-10
        wrong = FieldPair(pair.E, lambda r, t: 1.5 * pair.B(r, t), pair.k,
                          pair.e_scale, pair.b_scale)
        assert maxwell_residual(wrong, grid).max_abs == pytest.approx(0.5, rel=1e-3)

    def test_overflowing_normalization_scale_rejected(self):
        # |E0| = 2.1e308 overflows to inf; dividing by it read div E and
        # Faraday as 0, so this E, which adds the static field (0, 0, 1e300 z)
        # with div E = 1e300 (about 1.4 |E0| k), passed
        pair = conjugate_vacuum([1.5e308, 1.5e308, 0.0], [0.0, 0.0, 1.0], 1.0)
        assert pair.e_scale == math.inf

        def E(r, t):
            static = np.zeros(np.shape(r), dtype=complex)
            static[..., 2] = 1e300 * np.asarray(r)[..., 2]
            return pair.E(r, t) + static

        witness = FieldPair(E, pair.B, pair.k, pair.e_scale, pair.b_scale)
        grid = Grid4D(0.0, 1e5, 0.0, 1e5, 0.0, 1e5, 0.0, 1.0, h=(1e3, 1e3, 1e3, 1e-4))
        for fields in (pair, witness):
            with pytest.raises(InvalidParameterError, match=r"\|E0\| k = inf overflows"):
                maxwell_residual(fields, grid)
        # the same witness with a finite scale of the same order fails the scan
        finite = FieldPair(E, pair.B, pair.k, 1.5e308, pair.b_scale)
        assert maxwell_residual(finite, grid).max_abs == pytest.approx(2.0, rel=1e-3)

    def test_zero_partner_field_fails_loudly(self):
        E0 = np.array([1.0, 0.0, 0.0])
        k = OMEGA / C
        pair = FieldPair(
            E=plane_wave(E0, [0.0, 0.0, k], OMEGA),
            B=lambda r, t: np.zeros(np.shape(np.asarray(r))),
            k=k,
            e_scale=1.0,
            b_scale=1.0 / C,
            medium=VACUUM,
        )
        report = maxwell_residual(pair, Grid4D.for_wave(k, OMEGA))
        assert report.max_abs == pytest.approx(1.0, rel=1e-4)


class TestNonConductingMedium:
    def test_slower_speed_and_larger_wavenumber(self):
        medium = MediumParams.relative(4.0, 1.0)
        assert medium.wave_speed == pytest.approx(C / 2.0, rel=1e-12)
        pair = conjugate_vacuum([1.0, 0.0, 0.0], [0.0, 0.0, 1.0], OMEGA, medium)
        assert pair.k == pytest.approx(2.0 * OMEGA / C, rel=1e-12)
        np.testing.assert_allclose(pair.B0, [0.0, 2.0 / C, 0.0], rtol=1e-12)

    def test_pair_in_medium_passes_equations(self):
        medium = MediumParams.relative(2.25, 1.0)
        pair = conjugate_vacuum([0.0, 3.0, 0.0], [1.0, 0.0, 0.0], OMEGA, medium)
        assert maxwell_residual(pair, pair.default_grid()).max_abs < 1e-6

    def test_conducting_medium_rejected_by_vacuum_pair(self):
        medium = MediumParams(VACUUM.epsilon, VACUUM.mu, sigma=1.0)
        with pytest.raises(InvalidParameterError):
            conjugate_vacuum([1.0, 0.0, 0.0], [0.0, 0.0, 1.0], OMEGA, medium)


class TestRealFields:
    def test_real_pair_passes_field_equations(self):
        pair = real_fields_vacuum([1.0, 0.0, 0.0], 0.4, [0.0, 0.0, 1.0], OMEGA)
        assert maxwell_residual(pair, pair.default_grid()).max_abs < 1e-6

    def test_real_fields_oscillate_in_phase(self):
        alpha = 0.7
        pair = real_fields_vacuum([1.0, 0.0, 0.0], alpha, [0.0, 0.0, 1.0], OMEGA)
        r0 = np.array([0.1, -0.2, 0.55])
        e_amp, e_phase = fourier_phase(lambda t: pair.E(r0, t)[0], OMEGA)
        b_amp, b_phase = fourier_phase(lambda t: pair.B(r0, t)[1], OMEGA)
        assert phase_difference(b_phase, e_phase) == pytest.approx(0.0, abs=1e-12)
        assert b_amp == pytest.approx(e_amp / C, rel=1e-12)

    def test_real_part_phase_includes_alpha(self):
        alpha = 1.1
        pair = real_fields_vacuum([1.0, 0.0, 0.0], alpha, [0.0, 0.0, 1.0], OMEGA)
        _, e_phase = fourier_phase(lambda t: pair.E(np.zeros(3), t)[0], OMEGA)
        # at r = 0 the extracted phase is exactly alpha
        assert phase_difference(e_phase, alpha) == pytest.approx(0.0, abs=1e-12)

    def test_evaluators_return_real_arrays(self):
        pair = real_fields_vacuum([1.0, 0.0, 0.0], 0.0, [0.0, 0.0, 1.0], OMEGA)
        assert not np.iscomplexobj(pair.E(np.zeros(3), 0.0))


class TestSerialization:
    def test_spec_json_shape(self):
        pair = conjugate_vacuum([1.0, 0.0, 0.0], [0.0, 0.0, 1.0], OMEGA, alpha=0.3)
        d = pair.to_dict()
        assert list(d) == ["E0_re", "E0_im", "tau", "omega", "alpha"]
        assert d["E0_re"] == [1.0, 0.0, 0.0]
        assert d["alpha"] == 0.3
