"""Plane-wave conjugation and field-equation scans in non-conducting media."""

import inspect
import math
import re
import tracemalloc

import numpy as np
import pytest

from btkit.errors import (
    InvalidParameterError,
    NormalizationError,
    TransversalityError,
)
from btkit.maxwell_conductor import ConductorWavePair, wave_residual
from btkit.maxwell_vacuum import FieldPair, WavePair, _norm, maxwell_residual, plane_wave
from btkit.media import EPSILON0, MU0, MediumParams, VACUUM
from btkit.verify import Grid4D

from helpers import (
    fourier_phase,
    phase_difference,
    random_direction,
    random_transverse_amplitude,
)

C = 1.0 / math.sqrt(EPSILON0 * MU0)   # the vacuum light speed
OMEGA = 2.0 * math.pi * 1.0e8
SEAWATER = MediumParams.relative(81.0, 1.0, 4.0)
LOSSY = MediumParams(2.0 * VACUUM.epsilon, VACUUM.mu, 0.01)


class TestConstants:
    def test_light_speed_derived_from_vacuum_constants(self):
        assert C == pytest.approx(299792458.0, rel=1e-9)

    def test_vacuum_medium_speed(self):
        assert VACUUM.lossless_wavenumber(OMEGA) == pytest.approx(OMEGA / C, rel=1e-12)
        assert not VACUUM.is_conducting

    @pytest.mark.parametrize("kwargs", [
        dict(epsilon=-1.0, mu=1.0),
        dict(epsilon=1.0, mu=0.0),
        dict(epsilon=1.0, mu=1.0, sigma=-2.0),
    ])
    def test_bad_medium_rejected(self, kwargs):
        with pytest.raises(InvalidParameterError):
            MediumParams(**kwargs)

    @pytest.mark.parametrize("kwargs, message", [
        (dict(epsilon=math.inf, mu=1.0), "permittivity must be finite and positive, got inf"),
        (dict(epsilon=1.0, mu=math.nan), "permeability must be finite and positive, got nan"),
        (dict(epsilon=1.0, mu=1.0, sigma=math.inf),
         "conductivity must be finite and non-negative, got inf"),
    ], ids=["epsilon", "mu", "sigma"])
    def test_a_non_finite_medium_is_refused_as_not_finite(self, kwargs, message):
        with pytest.raises(InvalidParameterError, match=f"^{message}$"):
            MediumParams(**kwargs)

    @pytest.mark.parametrize("epsilon, mu", [(1e300, 1e300), (1e-200, 1e-200)],
                             ids=["overflow", "underflow"])
    def test_unrepresentable_epsilon_mu_product_rejected(self, epsilon, mu):
        # each factor is fine; the wave speed 1/sqrt(eps mu) is not
        with pytest.raises(InvalidParameterError, match="epsilon \\* mu"):
            MediumParams(epsilon, mu)

    def test_numpy_scalars_are_stored_as_floats_and_checked_without_warnings(self):
        # the suite turns RuntimeWarnings into errors: numpy's overflow
        # warnings on eps * mu came before the documented refusal
        with pytest.raises(InvalidParameterError, match="epsilon \\* mu"):
            MediumParams(np.float64(1e200), np.float64(1e200))
        medium = MediumParams(np.float64(2.0), np.float32(0.5), np.int64(3))
        assert [type(v) for v in medium.to_dict().values()] == [float, float, float]
        assert medium == MediumParams(2.0, 0.5, 3.0)


class TestConjugation:
    def test_dispersion_relation(self):
        pair = WavePair([1.0, 0.0, 0.0], [0.0, 0.0, 1.0], OMEGA)
        assert pair.k == pytest.approx(OMEGA / C, rel=1e-14)

    def test_partner_amplitude_for_axis_aligned_wave(self):
        pair = WavePair([2.0, 0.0, 0.0], [0.0, 0.0, 1.0], OMEGA)
        np.testing.assert_allclose(pair.B0, [0.0, 2.0 / C, 0.0], rtol=1e-14)

    def test_non_transverse_amplitude_rejected_not_projected(self):
        with pytest.raises(TransversalityError) as err:
            WavePair([1.0, 0.0, 0.5], [0.0, 0.0, 1.0], OMEGA)
        assert "tau . E0" in str(err.value)

    def test_non_unit_direction_rejected(self):
        with pytest.raises(NormalizationError):
            WavePair([1.0, 0.0, 0.0], [0.0, 0.0, 2.0], OMEGA)

    def test_longitudinal_amplitude_with_overflowing_norm_rejected(self):
        # |E0|^2 overflowed, so the transversality tolerance read inf
        with pytest.raises(TransversalityError, match=r"\|E0\| = 1.414213562373095e\+200"):
            WavePair([1e200, 0.0, 1e200], [0.0, 0.0, 1.0], OMEGA)

    def test_overflowing_partner_amplitude_rejected(self):
        # B0 = tau x E0 / v reads inf once v is tiny and E0 huge
        medium = MediumParams(epsilon=1e100, mu=1e100)
        with pytest.raises(InvalidParameterError, match="partner amplitude B0 overflows"):
            WavePair([1e300, 0.0, 0.0], [0.0, 0.0, 1.0], 1.0, medium=medium)

    def test_overflowing_wavenumber_is_named(self):
        # k = omega / v reads inf; the CLI once blamed the grid bounds [0, 0]
        # of the zero wavelength instead
        medium = MediumParams(epsilon=1e10, mu=1e10)
        with pytest.raises(InvalidParameterError, match=re.escape(
                "partner amplitude B0 overflows: ((k + i s) / omega) tau x E0 with k = inf, "
                "s = 0.0, omega = 1e+300, |E0| = 1.0")):
            WavePair([1.0, 0.0, 0.0], [0.0, 0.0, 1.0], 1e300, medium=medium)

    @pytest.mark.parametrize("omega", [0.0, -1.0, math.inf])
    def test_bad_frequency_rejected(self, omega):
        with pytest.raises(InvalidParameterError, match="omega must be finite and positive"):
            WavePair([1.0, 0.0, 0.0], [0.0, 0.0, 1.0], omega)

    def test_the_amplitude_carries_the_phase(self):
        # no phase argument: a polarization phase is put into E0 itself
        for family in (WavePair, ConductorWavePair):
            assert list(inspect.signature(family).parameters) == [
                "E0", "tau", "omega", "medium", "real"]

    def test_first_curl_relation_and_its_redundant_twin(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            tau = random_direction(rng)
            E0 = random_transverse_amplitude(rng, tau)
            pair = WavePair(E0, tau, OMEGA)
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
        pair = WavePair(E0, tau, OMEGA)
        assert abs(np.dot(tau, E0)) < 1e-12 * pair.e_scale
        assert abs(np.dot(tau, pair.B0)) < 1e-12 * pair.b_scale
        assert abs(np.dot(E0, pair.B0)) < 1e-12 * pair.e_scale * pair.b_scale


class TestExtremeInputs:
    """Amplitudes near the bottom of the float range, directions near the top."""

    @pytest.mark.parametrize("E0, low, high", [
        ((1e-320, 0.0, 0.0), 0.99, 1.0),        # B0 underflows to 0: Faraday reads curl E
        ((1e-310, 1e-310, 0.0), 1e-6, 1e-5),    # B0 is subnormal and has lost digits
        ((0.0, 0.0, 0.0), 0.0, 0.0),
        ((1e-305, 0.0, 1e-318), 0.0, 1e-10),
    ], ids=["1e-320", "1e-310-pair", "zero", "1e-305-share-1e-13"])
    def test_tiny_transverse_amplitude_passes(self, E0, low, high):
        # at 1e-320 the scale is subnormal, and the complex quotient by it
        # read nan, which named the normalization scale as the fault; the
        # scan reads the B0 the pair holds, so a partner that lost its
        # digits to underflow fails the 1e-6 tolerance
        pair = WavePair(E0, [0.0, 0.0, 1.0], 1e9)
        assert pair.e_scale == pytest.approx(math.hypot(*E0), rel=1e-3)
        assert low <= maxwell_residual(pair, pair.default_grid()).max_abs <= high

    @pytest.mark.parametrize("omega, amplitude", [(1e-292, 1.0), (1e-250, 1e-60)])
    def test_wrong_pairs_fail_where_unit_axis_partials_underflow(self, omega, amplitude):
        # k = 1e-15 omega: Ampere's terms, about k |B0| on unit axes, were
        # subnormal or 0, and every pair below read 0.0, the wrong ones too
        medium = MediumParams(1.0, 1e-30)
        pair = WavePair([amplitude, 0.0, 0.0], [0.0, 0.0, 1.0], omega, medium)
        grid = pair.default_grid()
        assert maxwell_residual(pair, grid).max_abs < 1e-15
        wrong = FieldPair(pair.E, lambda r, t: 1.5 * pair.B(r, t), pair.k,
                          pair.e_scale, pair.b_scale, medium)
        assert maxwell_residual(wrong, grid).max_abs == pytest.approx(0.5, rel=1e-9)
        other = WavePair([amplitude, 0.0, 0.0], [0.0, 0.0, 1.0], omega, MediumParams(1.001, 1e-30))
        probe = FieldPair(other.E, other.B, other.k, other.e_scale, other.b_scale, medium)
        report = maxwell_residual(probe, other.default_grid())
        assert report.max_abs == pytest.approx(1.0 - 1.0 / 1.001, rel=1e-6)

    @pytest.mark.parametrize("medium", [VACUUM, MediumParams(1.0, 1.0)], ids=["vacuum", "unit"])
    @pytest.mark.parametrize("amplitude", [1.0, 1e-302, 1e-310, 1e-320])
    def test_wrong_partner_fails_at_any_amplitude(self, amplitude, medium):
        # a 1e-300 floor under |E0| and |B0| once read the 1.5 B partner as
        # 0.005 at 1e-302 and 5e-11 at 1e-310 in vacuum, so it passed
        pair = WavePair([amplitude, 0.0, 0.0], [0.0, 0.0, 1.0], 1e9, medium)
        grid = pair.default_grid()
        wrong = FieldPair(pair.E, lambda r, t: 1.5 * pair.B(r, t), pair.k,
                          pair.e_scale, pair.b_scale, medium)
        genuine = maxwell_residual(pair, grid).max_abs
        if medium is VACUUM and amplitude == 1e-320:
            # B0 underflows to 0, so both partners are 0 and Faraday reads
            # curl E alone, for the printed pair as for the wrong one
            assert genuine == pytest.approx(1.0, rel=1e-3)
            assert maxwell_residual(wrong, grid).max_abs == pytest.approx(1.0, rel=1e-3)
        else:
            # in vacuum at 1e-310, B0 = |E0| / c is subnormal and the digits
            # it lost fail the printed pair
            assert (genuine > 1e-6) == (medium is VACUUM and amplitude == 1e-310)
            assert maxwell_residual(wrong, grid).max_abs == pytest.approx(0.5, rel=1e-4)

    def test_a_residual_past_the_float_range_of_its_scale_fails(self):
        # 0.5 |E0| k over a declared |E0| of 1e-320 overflows: it reads as the
        # largest float, not as a singular point, and raises no warning
        pair = WavePair([1.0, 0.0, 0.0], [0.0, 0.0, 1.0], 1e9)
        wrong = FieldPair(pair.E, lambda r, t: 1.5 * pair.B(r, t), pair.k, 1e-320, pair.b_scale)
        report = maxwell_residual(wrong, pair.default_grid())
        assert (report.max_abs, report.n_singular) == (np.finfo(float).max, 0)

    @pytest.mark.parametrize("amplitude", [1.0, 1e-302, 1e-310, 1e-320])
    def test_wave_scan_reads_the_same_at_any_amplitude(self, amplitude):
        # omega = 2 c k: the d'Alembertian at c is 3 k^2 F at every size
        k = OMEGA / C
        F = plane_wave([amplitude, 0.0, 0.0], [0.0, 0.0, k], 2.0 * OMEGA)
        grid = Grid4D.for_wave(k, 2.0 * OMEGA)
        report = wave_residual(F, VACUUM, grid, scale=amplitude * k ** 2)
        assert report.max_abs == pytest.approx(3.0, rel=1e-3)

    @pytest.mark.parametrize("amplitude", [1.0, 1e-302, 1e-310, 1e-320, 1e250])
    @pytest.mark.parametrize("build", [
        lambda a: WavePair([a, 0.0, 0.0], [0.0, 0.0, 1.0], 1e9),
        lambda a: WavePair(np.array([0.0, a, 0.0]) * np.exp(0.3j), [0.6, 0.0, 0.8], 1e9,
                           MediumParams.relative(2.25, 1.0), real=True),
        lambda a: ConductorWavePair([a, 0.0, 0.0], [0.0, 0.6, 0.8], 1e8, SEAWATER),
    ], ids=["vacuum", "medium", "conductor"])
    def test_a_pair_is_scanned_as_the_fields_it_holds(self, build, amplitude):
        # a WavePair is scanned as the FieldPair of its own evaluators and
        # scales, against the B0 it prints
        pair = build(amplitude)
        grid = pair.default_grid(5)
        fields = FieldPair(pair.E, pair.B, pair.k, pair.e_scale, pair.b_scale, pair.medium)
        assert maxwell_residual(pair, grid) == maxwell_residual(fields, grid)

    def test_subnormal_amplitude_has_the_rounded_partner(self):
        pair = WavePair([1e-320, 0.0, 0.0], [0.0, 0.0, 1.0], 1e9)
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
            WavePair(E0, [0.0, 0.0, 1.0], 1e9)

    @pytest.mark.parametrize("tau, norm", [
        ((1e200, 0.0, 1e200), "1.414213562373095e+200"),
        ((0.0, 0.0, 1e300), "1e+300"),
    ])
    def test_huge_direction_rejected_with_its_length(self, tau, norm):
        with pytest.raises(NormalizationError, match=re.escape(f"|tau| = {norm}")):
            WavePair([1.0, 0.0, 0.0], tau, 1e9)

    @pytest.mark.parametrize("decade", [-150, -20, 0, 20, 150])
    def test_norm_is_numpys_where_no_square_leaves_range(self, decade):
        rng = np.random.default_rng(decade + 300)
        for _ in range(50):
            vector = 10.0 ** decade * rng.standard_normal(3)
            assert _norm(vector) == float(np.linalg.norm(vector))


class TestResiduals:
    def test_conjugate_pair_passes_all_four_equations(self):
        pair = WavePair([1.0, 0.0, 0.0], [0.0, 0.0, 1.0], OMEGA)
        report = maxwell_residual(pair, pair.default_grid())
        assert report.max_abs < 1e-6
        assert report.n_points == 9 ** 4

    def test_circular_amplitude_on_coarse_grid(self):
        E0 = np.array([1.0, 1.0j, 0.0]) / math.sqrt(2.0)
        pair = WavePair(E0, [0.0, 0.0, 1.0], OMEGA)
        report = maxwell_residual(pair, pair.default_grid(samples=5))
        assert report.max_abs < 1e-6

    def test_oblique_direction_random_amplitudes(self):
        rng = np.random.default_rng(23)
        for _ in range(3):
            tau = random_direction(rng)
            E0 = random_transverse_amplitude(rng, tau, scale=10.0 ** rng.uniform(-2, 2))
            omega = 10.0 ** rng.uniform(6, 10)
            pair = WavePair(E0, tau, omega)
            assert maxwell_residual(pair, pair.default_grid()).max_abs < 1e-6

    @pytest.mark.parametrize("medium, misfit", [
        (VACUUM, 3.0), (MediumParams.relative(2.25, 1.0), 3.0), (LOSSY, 1.533365213788),
    ], ids=["vacuum", "dielectric", "conductor"])
    def test_components_satisfy_the_wave_equation_of_their_medium(self, medium, misfit):
        family = ConductorWavePair if medium.is_conducting else WavePair
        pair = family([1.0, 0.0, 0.0], [0.0, 0.0, 1.0], OMEGA, medium)
        grid = pair.default_grid()
        for F, scale in ((pair.E, pair.e_scale), (pair.B, pair.b_scale)):
            assert wave_residual(F, medium, grid, scale * pair.k ** 2).max_abs < 1e-6
        if medium.is_conducting:
            # three times the conductivity: the damping term is off by 2 mu sigma E_t
            wrong = MediumParams(medium.epsilon, medium.mu, 3.0 * medium.sigma)
            report = wave_residual(pair.E, wrong, grid, pair.e_scale * pair.k ** 2)
        else:
            # omega' = 2 omega at the same k: the residual is 3 k^2 F
            F = plane_wave([1.0, 0.0, 0.0], pair.k_vector, 2.0 * OMEGA)
            report = wave_residual(F, medium, Grid4D.for_wave(pair.k, 2.0 * OMEGA), pair.k ** 2)
        assert report.max_abs == pytest.approx(misfit, rel=1e-6)

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
        wave_grid = Grid4D.for_wave(k, OMEGA)
        assert wave_residual(pair.E, VACUUM, wave_grid, pair.e_scale * k ** 2).max_abs < 1e-6
        assert wave_residual(pair.B, VACUUM, wave_grid, pair.b_scale * k ** 2).max_abs < 1e-6
        assert maxwell_residual(pair, Grid4D.for_wave(k, OMEGA)).max_abs > 0.1

    @pytest.mark.parametrize("amplitude", [1e150, 1e200])
    def test_huge_amplitude_pair_passes_and_a_wrong_partner_fails(self, amplitude):
        # at 1e200, |E0|^2 overflowed: both scales read inf and every
        # normalized residual 0, so the wrong partner passed too
        pair = WavePair([amplitude, 0.0, 0.0], [0.0, 0.0, 1.0], 1e9)
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
        pair = WavePair([1.5e308, 1.5e308, 0.0], [0.0, 0.0, 1.0], 1.0)
        assert pair.e_scale == math.inf

        def E(r, t):
            # in r's own arithmetic, so the scan's jets carry its derivatives
            return pair.E(r, t) + 1e300 * (r * np.array([0.0, 0.0, 1.0]))

        witness = FieldPair(E, pair.B, pair.k, pair.e_scale, pair.b_scale)
        grid = Grid4D(0.0, 1e5, 0.0, 1e5, 0.0, 1e5, 0.0, 1.0)
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
            B=lambda r, t: 0.0 * r,
            k=k,
            e_scale=1.0,
            b_scale=1.0 / C,
            medium=VACUUM,
        )
        report = maxwell_residual(pair, Grid4D.for_wave(k, OMEGA))
        assert report.max_abs == pytest.approx(1.0, rel=1e-4)


    def test_an_evaluator_that_coerces_is_a_type_error(self):
        # np.asarray(r) is the jet's value alone: its derivatives would read 0
        pair = WavePair([1.0, 0.0, 0.0], [0.0, 0.0, 1.0], OMEGA)
        coerced = FieldPair(pair.E, lambda r, t: pair.B(np.asarray(r), np.asarray(t)),
                            pair.k, pair.e_scale, pair.b_scale)
        with pytest.raises(TypeError, match="not a Jet"):
            maxwell_residual(coerced, pair.default_grid(5))
        with pytest.raises(TypeError, match="not a Jet"):
            wave_residual(coerced.B, VACUUM, pair.default_grid(5))


class TestNonConductingMedium:
    def test_slower_speed_and_larger_wavenumber(self):
        medium = MediumParams.relative(4.0, 1.0)
        assert medium.lossless_wavenumber(OMEGA) == pytest.approx(2.0 * OMEGA / C, rel=1e-12)
        pair = WavePair([1.0, 0.0, 0.0], [0.0, 0.0, 1.0], OMEGA, medium)
        assert pair.k == pytest.approx(2.0 * OMEGA / C, rel=1e-12)
        np.testing.assert_allclose(pair.B0, [0.0, 2.0 / C, 0.0], rtol=1e-12)

    def test_pair_in_medium_passes_equations(self):
        medium = MediumParams.relative(2.25, 1.0)
        pair = WavePair([0.0, 3.0, 0.0], [1.0, 0.0, 0.0], OMEGA, medium)
        assert maxwell_residual(pair, pair.default_grid()).max_abs < 1e-6

    def test_subnormal_epsilon_mu_keeps_the_digits_of_its_factors(self):
        # eps * mu = 3e-324 rounds to the least subnormal 4.9e-324: a k taken
        # from the product read 2.2227587494850774e38, 28% high, and passed
        medium = MediumParams(1e-300, 3e-24)
        pair = WavePair([1.0, 0.0, 0.0], [0.0, 0.0, 1.0], 1e200, medium)
        assert pair.k == 1.732050807568877e38
        assert maxwell_residual(pair, pair.default_grid()).max_abs < 1e-15

    @pytest.mark.parametrize("factor", [1.002, 1 / 1.002])
    def test_a_pair_of_a_nearby_medium_fails_where_eps_mu_is_subnormal(self, factor):
        # both media round eps * mu to the same subnormal: a scan that
        # multiplied by that product read 0.0 for this pair
        medium = MediumParams(1e-300, 3e-24)
        other = WavePair([1.0, 0.0, 0.0], [0.0, 0.0, 1.0], 1e200,
                         MediumParams(1e-300 * factor, 3e-24))
        probe = FieldPair(other.E, other.B, other.k, other.e_scale, other.b_scale, medium)
        report = maxwell_residual(probe, other.default_grid())
        assert report.max_abs == pytest.approx(abs(1.0 - 1.0 / factor), rel=1e-6)

    def test_conducting_medium_needs_the_conductor_pair(self):
        medium = MediumParams(VACUUM.epsilon, VACUUM.mu, sigma=1.0)
        with pytest.raises(InvalidParameterError, match="conducting media need"):
            WavePair([1.0, 0.0, 0.0], [0.0, 0.0, 1.0], OMEGA, medium)
        pair = ConductorWavePair([1.0, 0.0, 0.0], [0.0, 0.0, 1.0], OMEGA, medium)
        assert pair.medium is medium and pair.s > 0.0


class TestRealFields:
    def test_real_pair_passes_field_equations(self):
        pair = WavePair(np.array([1.0, 0.0, 0.0]) * np.exp(1j * 0.4), [0.0, 0.0, 1.0], OMEGA,
                        real=True)
        assert maxwell_residual(pair, pair.default_grid()).max_abs < 1e-6

    def test_real_fields_oscillate_in_phase(self):
        alpha = 0.7
        pair = WavePair(np.array([1.0, 0.0, 0.0]) * np.exp(1j * alpha), [0.0, 0.0, 1.0], OMEGA,
                        real=True)
        r0 = np.array([0.1, -0.2, 0.55])
        e_amp, e_phase = fourier_phase(lambda t: pair.E(r0, t)[0], OMEGA)
        b_amp, b_phase = fourier_phase(lambda t: pair.B(r0, t)[1], OMEGA)
        assert phase_difference(b_phase, e_phase) == pytest.approx(0.0, abs=1e-12)
        assert b_amp == pytest.approx(e_amp / C, rel=1e-12)

    def test_real_part_phase_includes_alpha(self):
        alpha = 1.1
        pair = WavePair(np.array([1.0, 0.0, 0.0]) * np.exp(1j * alpha), [0.0, 0.0, 1.0], OMEGA,
                        real=True)
        _, e_phase = fourier_phase(lambda t: pair.E(np.zeros(3), t)[0], OMEGA)
        # at r = 0 the extracted phase is exactly alpha
        assert phase_difference(e_phase, alpha) == pytest.approx(0.0, abs=1e-12)

    def test_evaluators_return_real_arrays(self):
        pair = WavePair(np.array([1.0, 0.0, 0.0]) * np.exp(1j * 0.0), [0.0, 0.0, 1.0], OMEGA,
                        real=True)
        assert not np.iscomplexobj(pair.E(np.zeros(3), 0.0))


class TestSerialization:
    def test_spec_json_shape(self):
        pair = WavePair([1.0, 0.0, 0.0], [0.0, 0.0, 1.0], OMEGA)
        d = pair.to_dict()
        assert list(d) == ["E0_re", "E0_im", "tau", "omega"]
        assert d["E0_re"] == [1.0, 0.0, 0.0]


class TestScanMemory:
    # 390,625 points: jets of the whole grid at once peaked at 140 MB (maxwell)
    # and 146 MB (wave) here; one x-slab's jets and the per-point magnitudes,
    # with the grid's mesh and the report, take about 27 MB
    @pytest.mark.parametrize("scan", [
        pytest.param(lambda pair, grid: maxwell_residual(pair, grid), id="maxwell"),
        pytest.param(lambda pair, grid: wave_residual(pair.E, pair.medium, grid,
                                                      pair.e_scale * pair.k ** 2), id="wave"),
    ])
    def test_a_scan_holds_one_slab_of_jets(self, scan):
        pair = ConductorWavePair([1.0, 0.0, 0.0], [0.0, 0.0, 1.0], 1e9, LOSSY)
        grid = pair.default_grid(25)
        tracemalloc.start()
        try:
            report = scan(pair, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.n_points == 25 ** 4 and report.max_abs < 1e-5
        assert peak < 40 * 2 ** 20
