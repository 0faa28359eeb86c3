"""Acceptance gate: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL
lines.  Every tolerance, grid, and runtime bound here is part of the
package contract; nothing is loosened for convenience.
"""

import math
import time

import numpy as np

from btkit import (
    EPSILON0,
    VACUUM,
    ConductorWavePair,
    ConstantField,
    ExpSeedField,
    FieldPair,
    Grid2D,
    Grid4D,
    InvalidGridError,
    InvalidParameterError,
    MU0,
    MediumParams,
    NonCommutingError,
    NormalizationError,
    PathDependenceError,
    SingularMatrixError,
    TabulatedField,
    TransversalityError,
    WavePair,
    bt_residual_cr,
    bt_residual_liouville,
    bt_residual_sine_gordon,
    dispersion_solve,
    harmonic_conjugate_quadratic,
    harmonic_quadratic,
    hierarchy,
    liouville_from_trivial,
    liouville_residual,
    maxwell_residual,
    monomial_xy,
    plane_wave,
    potential,
    recursion_step,
    sine_gordon_from_vacuum,
    sine_gordon_residual,
    symmetry_residual,
    wave_residual,
    zero_field,
)
from helpers import (
    dispersion_root_search,
    fourier_phase,
    phase_difference,
    polynomial_degree,
    random_commuting_pair,
    random_direction,
    random_matrix,
    random_transverse_amplitude,
)

C = 1.0 / math.sqrt(EPSILON0 * MU0)   # the vacuum light speed


def _report(number, description, checks):
    failed = [name for name, ok in checks if not ok]
    status = "PASS" if not failed else "FAIL"
    suffix = "" if not failed else f"  [failed: {', '.join(failed)}]"
    print(f"{status}: criterion {number}: {description}{suffix}")
    assert not failed, f"criterion {number} failed checks: {failed}"


def _raises(exc_type, fn):
    try:
        fn()
    except exc_type:
        return True
    except Exception:
        return False
    return False


def test_criterion_1_classical_bt_suite():
    checks = []

    grid_l = Grid2D(-0.5, 0.5, -0.5, 0.5, 41, 41)
    start = time.perf_counter()
    u_l = liouville_from_trivial(2.0)
    pde_l = liouville_residual(u_l, grid_l)
    bt_l = bt_residual_liouville(u_l, zero_field(), grid_l)
    elapsed_l = time.perf_counter() - start
    checks.append(("liouville_pde<1e-6", pde_l.max_abs < 1e-6))
    checks.append(("liouville_bt<1e-6", bt_l.max_abs < 1e-6))
    checks.append(("liouville_runtime<2s", elapsed_l < 2.0))

    grid_sg = Grid2D(-2.0, 2.0, -2.0, 2.0, 41, 41)
    start = time.perf_counter()
    u_sg = sine_gordon_from_vacuum(1.0, 1.0)
    pde_sg = sine_gordon_residual(u_sg, grid_sg)
    bt_sg = bt_residual_sine_gordon(u_sg, zero_field(), 1.0, grid_sg)
    elapsed_sg = time.perf_counter() - start
    checks.append(("sine_gordon_pde<1e-6", pde_sg.max_abs < 1e-6))
    checks.append(("sine_gordon_bt<1e-6", bt_sg.max_abs < 1e-6))
    checks.append(("sine_gordon_runtime<2s", elapsed_sg < 2.0))

    _report(1, "classical BT suite (Liouville C=2, sine-Gordon a=1 C=1)", checks)


def test_criterion_2_harmonic_conjugacy():
    checks = []

    # coefficient mapping, each slot isolated so float arithmetic is exact
    alpha, beta, gamma = 0.7, -1.3, 2.9
    v_a = harmonic_conjugate_quadratic(alpha, 0.0, 0.0)
    checks.append(("kappa=2alpha", v_a(1.25, 3.0) == 2.0 * alpha * 1.25 * 3.0))
    v_b = harmonic_conjugate_quadratic(0.0, beta, 0.0)
    checks.append(("mu=beta", v_b(1.25, 3.0) == beta * 3.0))
    v_g = harmonic_conjugate_quadratic(0.0, 0.0, gamma)
    checks.append(("lambda=-gamma", v_g(1.25, 3.0) == -(gamma * 1.25)))
    u = harmonic_quadratic(alpha, beta, gamma)
    v = harmonic_conjugate_quadratic(alpha, beta, gamma)
    checks.append(("params_stored_exactly",
                   u.params == {"alpha": alpha, "beta": beta, "gamma": gamma}
                   and v.params == {"alpha": alpha, "beta": beta, "gamma": gamma}))

    # the xy family is certified by its scan: the defect peaks at |a| + |b|
    trivial = bt_residual_cr(monomial_xy(0.0), monomial_xy(0.0), Grid2D())
    opposite = bt_residual_cr(monomial_xy(2.0), monomial_xy(-2.0), Grid2D())
    residual = bt_residual_cr(monomial_xy(1.0), monomial_xy(1.0), Grid2D())
    checks.append(("trivial_pair_conjugate", trivial.max_abs == 0.0))
    checks.append(("nontrivial_pair_rejected",
                   residual.max_abs > 0.5 and opposite.max_abs == 4.0))
    checks.append(("xy_pair_residual>0.5", residual.max_abs > 0.5))

    _report(2, "harmonic conjugacy (quadratic match exact, xy family trivial)", checks)


def test_criterion_3_vacuum_maxwell():
    rng = np.random.default_rng(20260819)
    checks = []

    worst_scan, worst_redundancy, worst_ortho = 0.0, 0.0, 0.0
    for _ in range(20):
        tau = random_direction(rng)
        scale = 10.0 ** rng.uniform(-2.0, 2.0)
        E0 = random_transverse_amplitude(rng, tau, scale)
        omega = 10.0 ** rng.uniform(6.0, 10.0)
        pair = WavePair(E0, tau, omega)
        report = maxwell_residual(pair, pair.default_grid(9))
        worst_scan = max(worst_scan, report.max_abs)

        redundancy = np.max(np.abs(
            np.cross(pair.k_vector, pair.B0)
            + (omega / C ** 2) * pair.E0
        )) / (pair.k * pair.b_scale)
        worst_redundancy = max(worst_redundancy, redundancy)

        e, b = pair.e_scale, pair.b_scale
        ortho = max(
            abs(np.dot(pair.tau, pair.E0)) / e,
            abs(np.dot(pair.tau, pair.B0)) / b,
            abs(np.dot(pair.E0, pair.B0)) / (e * b),
        )
        worst_ortho = max(worst_ortho, ortho)

    checks.append(("20_random_scans<1e-6", worst_scan < 1e-6))
    checks.append(("redundancy<1e-12", worst_redundancy < 1e-12))
    checks.append(("orthogonality_triple<1e-12", worst_ortho < 1e-12))

    # separation witness: independent amplitudes solve the wave equation
    # at c yet fail the Maxwell scan
    tau = random_direction(rng)
    E0 = random_transverse_amplitude(rng, tau)
    B0 = random_transverse_amplitude(rng, tau)
    omega = 10.0 ** rng.uniform(6.0, 10.0)
    k = omega / C
    E_eval = plane_wave(E0, k * tau, omega)
    B_eval = plane_wave(B0, k * tau, omega)
    wave_grid = Grid4D.for_wave(k, omega, 9)
    wave_e = wave_residual(E_eval, VACUUM, wave_grid, scale=np.linalg.norm(E0))
    wave_b = wave_residual(B_eval, VACUUM, wave_grid, scale=np.linalg.norm(B0))
    mismatched = FieldPair(
        E=E_eval, B=B_eval, k=k,
        e_scale=float(np.linalg.norm(E0)), b_scale=float(np.linalg.norm(B0)),
    )
    maxwell = maxwell_residual(mismatched, Grid4D.for_wave(k, omega, 9))
    checks.append(("witness_wave_e<1e-6", wave_e.max_abs < 1e-6))
    checks.append(("witness_wave_b<1e-6", wave_b.max_abs < 1e-6))
    checks.append(("witness_maxwell>0.1", maxwell.max_abs > 0.1))

    _report(3, "vacuum Maxwell conjugacy (20 random specs + separation witness)",
            checks)


def test_criterion_4_conductor_dispersion():
    rng = np.random.default_rng(31415)
    checks = []

    start = time.perf_counter()
    worst_sub, worst_oracle = 0.0, 0.0
    for _ in range(1000):
        q = 10.0 ** rng.uniform(-6.0, 6.0)
        epsilon = EPSILON0 * 10.0 ** rng.uniform(0.0, 2.0)
        mu = 1.25663706212e-6 * 10.0 ** rng.uniform(0.0, 1.0)
        omega = 10.0 ** rng.uniform(3.0, 10.0)
        sigma = q * epsilon * omega
        medium = MediumParams(epsilon, mu, sigma)
        sol = dispersion_solve(medium, omega)
        k, s = sol.k, sol.s
        sub = max(
            abs(s * s - k * k + epsilon * mu * omega ** 2) / k ** 2,
            abs(mu * sigma * omega - 2.0 * s * k) / k ** 2,
        )
        worst_sub = max(worst_sub, sub)
        k_ref, s_ref = dispersion_root_search(epsilon, mu, sigma, omega)
        rel = np.hypot(k - k_ref, s - s_ref) / np.hypot(k_ref, s_ref)
        worst_oracle = max(worst_oracle, rel)
    elapsed = time.perf_counter() - start

    checks.append(("1000_substitution<1e-10", worst_sub < 1e-10))
    checks.append(("oracle_match<1e-8", worst_oracle < 1e-8))
    checks.append(("runtime<1s", elapsed < 1.0))

    synthetic = dispersion_solve(MediumParams(3.0, 1.0, 4.0), 1.0)
    checks.append(("synthetic_k=2", abs(synthetic.k - 2.0) <= 1e-12))
    checks.append(("synthetic_s=1", abs(synthetic.s - 1.0) <= 1e-12))

    omega = 1e9
    tiny = MediumParams.relative(1.0, 1.0, sigma=1e-12 * EPSILON0 * omega)
    low = dispersion_solve(tiny, omega)
    checks.append(("continuity_s<1e-8k", abs(low.s) < 1e-8 * low.k))

    _report(4, "conductor dispersion (substitution, oracle, synthetic, continuity)",
            checks)


def test_criterion_5_conductor_fields():
    rng = np.random.default_rng(2718)
    checks = []

    worst_scan, worst_redundancy = 0.0, 0.0
    media = [
        (MediumParams(3.0, 1.0, 4.0), 1.0),
        (MediumParams.relative(2.25, 1.0, sigma=100.0), 2.0 * np.pi * 1e8),
        (MediumParams.relative(1.0, 1.0, sigma=5.8e7), 2.0 * np.pi * 1e6),
    ]
    for medium, omega in media:
        tau = random_direction(rng)
        E0 = random_transverse_amplitude(rng, tau)
        pair = ConductorWavePair(E0, tau, omega, medium)
        report = maxwell_residual(pair, pair.default_grid(9))
        worst_scan = max(worst_scan, report.max_abs)

        d = pair.dispersion
        lhs = (d.k + 1j * d.s) * np.cross(pair.tau, pair.B0)
        rhs = -(omega * medium.epsilon * medium.mu
                + 1j * medium.mu * medium.sigma) * pair.E0
        scale = np.hypot(d.k, d.s) * pair.b_scale
        worst_redundancy = max(worst_redundancy,
                               float(np.max(np.abs(lhs - rhs))) / scale)

    checks.append(("curl_scans<1e-5", worst_scan < 1e-5))
    checks.append(("redundancy<1e-10", worst_redundancy < 1e-10))

    medium, omega = MediumParams(3.0, 1.0, 4.0), 1.0
    d = dispersion_solve(medium, omega)
    tau = np.array([0.0, 0.0, 1.0])
    real_pair = ConductorWavePair(np.exp(0.3j) * np.array([2.0, 0.0, 0.0]), tau, omega, medium,
                                  real=True)
    r0 = np.array([0.1, -0.2, 0.4])
    amp_e, psi_e = fourier_phase(lambda t: real_pair.E(r0, t)[0], omega)
    amp_b, psi_b = fourier_phase(lambda t: real_pair.B(r0, t)[1], omega)
    lag = phase_difference(psi_b, psi_e)
    checks.append(("b_lags_e_by_phi", abs(lag - d.phi) < 1e-10))
    checks.append(("amplitude_ratio", abs(amp_b / amp_e - d.amplitude_ratio)
                   < 1e-10 * d.amplitude_ratio))

    omega_p = 1e6
    probe = MediumParams.relative(1.0, 1.0, sigma=1e8 * EPSILON0 * omega_p)
    phi = dispersion_solve(probe, omega_p).phi
    checks.append(("good_conductor_phi", abs(phi - np.pi / 4.0) < 1e-7))

    _report(5, "conductor fields (curl scans, redundancy, phase lag, pi/4 probe)",
            checks)


def test_criterion_6_chiral_recursion():
    grid = Grid2D()
    X, T = grid.mesh()
    checks = []

    worst_level1, worst_symmetry, worst_path = 0.0, 0.0, 0.0
    worst_linearity = 0.0
    degrees_ok = True

    start = time.perf_counter()
    for index in range(10):
        n = 2 if index % 2 == 0 else 3
        rng = np.random.default_rng(1000 + index)
        A, B = random_commuting_pair(rng, n)
        M = random_matrix(rng, n)
        g = ExpSeedField(A, B)
        levels = hierarchy(g, M, 3, grid)

        X0 = X[..., None, None] * B - T[..., None, None] * A
        exact1 = X0 @ M - M @ X0
        worst_level1 = max(worst_level1,
                           float(np.max(np.abs(levels[1].phi.values - exact1))))

        for item in levels[1:]:
            report = symmetry_residual(item.phi, g, grid)
            worst_symmetry = max(worst_symmetry, report.max_abs)
            worst_path = max(worst_path, item.phi.path_disagreement)

        for item in levels:
            values = item.phi.sample(grid)
            fitted = [
                polynomial_degree(X, T, values[:, :, r, c])
                for r in range(n) for c in range(n)
            ]
            if max(d for d in fitted if d is not None) != item.level:
                degrees_ok = False

        if index < 3:
            M2 = random_matrix(rng, n)
            lhs = recursion_step(
                1.7 * TabulatedField.from_function(ConstantField(M), grid)
                + (-0.6) * TabulatedField.from_function(ConstantField(M2), grid),
                g, grid,
            )
            rhs = (1.7 * recursion_step(ConstantField(M), g, grid)
                   + (-0.6) * recursion_step(ConstantField(M2), g, grid))
            worst_linearity = max(worst_linearity,
                                  float(np.max(np.abs(lhs.values - rhs.values))))
    elapsed = time.perf_counter() - start

    checks.append(("level1_matches_[Bx-At,M]<1e-6", worst_level1 < 1e-6))
    checks.append(("symmetry_levels_1_3<1e-5", worst_symmetry < 1e-5))
    checks.append(("path_disagreement<1e-6", worst_path < 1e-6))
    checks.append(("linearity<1e-8", worst_linearity < 1e-8))
    checks.append(("degree_growth_0_3", degrees_ok))
    checks.append(("runtime<10s", elapsed < 10.0))

    _report(6, "chiral recursion (10 seeds, n=2 and 3, levels 0-3)", checks)


def test_criterion_7_negative_controls():
    grid = Grid2D()
    tau = np.array([0.0, 0.0, 1.0])
    bad_seed = TabulatedField.from_function(
        lambda X, T: np.exp((X ** 2))[..., None, None]
        * np.eye(2) + X[..., None, None] * np.array([[0.0, 1.0], [0.0, 0.0]]),
        grid,
    )

    def singular_fn(X, T):
        out = np.zeros(X.shape + (2, 2), dtype=complex)
        out[..., 0, 0] = X
        out[..., 1, 1] = 1.0
        return out

    checks = [
        ("non_transverse_E0", _raises(
            TransversalityError,
            lambda: WavePair([0.0, 0.0, 1.0], tau, 1e9))),
        ("non_unit_tau", _raises(
            NormalizationError,
            lambda: WavePair([1.0, 0.0, 0.0], [0.0, 0.0, 2.0], 1e9))),
        ("zero_bt_parameter", _raises(
            InvalidParameterError, lambda: sine_gordon_from_vacuum(0.0, 1.0))),
        ("zero_bt_parameter_in_scan", _raises(
            InvalidParameterError,
            lambda: bt_residual_sine_gordon(zero_field(), zero_field(), 0.0, grid))),
        ("noncommuting_seed", _raises(
            NonCommutingError,
            lambda: ExpSeedField([[0.0, 1.0], [0.0, 0.0]],
                                 [[0.0, 0.0], [1.0, 0.0]]))),
        ("non_solution_potential", _raises(
            PathDependenceError, lambda: potential(bad_seed, grid))),
        ("conducting_medium_in_vacuum_pair", _raises(
            InvalidParameterError,
            lambda: WavePair([1.0, 0.0, 0.0], tau, 1.0, MediumParams(3.0, 1.0, 4.0)))),
        ("nonpositive_omega", _raises(
            InvalidParameterError,
            lambda: WavePair([1.0, 0.0, 0.0], tau, 0.0))),
        ("negative_permittivity", _raises(
            InvalidParameterError, lambda: MediumParams(-1.0, 1.0, 0.0))),
        ("reversed_grid_bounds", _raises(
            InvalidGridError, lambda: Grid2D(1.0, -1.0, -1.0, 1.0))),
        ("singular_seed_matrix", _raises(
            SingularMatrixError,
            lambda: potential(TabulatedField.from_function(singular_fn, grid),
                              grid))),
        ("dimension_mismatch", _raises(
            InvalidParameterError,
            lambda: recursion_step(ConstantField(np.eye(3)),
                                   ExpSeedField(np.eye(2), np.eye(2)), grid))),
    ]

    _report(7, "negative controls (named rejections, no silent coercion)", checks)
