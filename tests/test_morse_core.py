import math

import numpy as np
import pytest

from morsecs.errors import DomainError, MarginalStateWarning
from morsecs.morse_core import (
    LogGrid,
    _log_basis_norm,
    _log_basis_norms,
    apply_operator_fd,
    bound_energy,
    bound_state_count,
    continuum_threshold,
    ground_energy,
    ground_x_expectation,
    norm_coefficient,
    pseudo_wavefunction,
    pseudo_wavefunction_recursive,
    pseudo_wavefunctions,
    shape_invariance_residual,
    x_from_y,
    y_from_x,
)
from morsecs.numerics import gauss_laguerre_rule


class TestCoordinateMaps:
    def test_forward(self):
        assert y_from_x(0.0) == 2.0
        assert abs(y_from_x(math.log(2.0)) - 1.0) < 1e-15

    def test_inverse(self):
        assert x_from_y(2.0) == 0.0
        for x in (-3.0, 0.4, 7.7):
            assert abs(x_from_y(y_from_x(x)) - x) < 1e-14

    def test_array_roundtrip(self):
        x = np.linspace(-2.0, 9.0, 23)
        assert np.abs(x_from_y(y_from_x(x)) - x).max() < 1e-13

    def test_domain(self):
        with pytest.raises(DomainError):
            x_from_y(0.0)
        with pytest.raises(DomainError):
            x_from_y(-1.0)

    def test_scalar_beyond_float_range_maps_to_inf(self):
        # Same outcome as the array branch: inf, which consumers reject.
        y = y_from_x(-800.0)
        assert y == math.inf
        with pytest.raises(DomainError):
            pseudo_wavefunction(0, 1.75, y)


class TestContinuumThreshold:
    def test_value(self):
        assert abs(continuum_threshold(3.6) - 16.81) < 1e-14

    def test_validation(self):
        for bad in (0.0, -1.0, math.inf):
            with pytest.raises(DomainError):
                continuum_threshold(bad)


class TestNormCoefficient:
    def test_values(self):
        assert abs(norm_coefficient(1, 1.0) - math.sqrt(2.0)) < 1e-15
        assert abs(norm_coefficient(2, 1.0) - math.sqrt(6.0)) < 1e-15
        assert norm_coefficient(1, 0.5) == 1.0

    def test_domain(self):
        with pytest.raises(DomainError):
            norm_coefficient(0, 1.0)


class TestLogBasisNorms:
    def test_bits_of_the_scalar_form(self):
        # The vector serves coefficients, projections and basis tables; each
        # entry must be the scalar normalizer's float, to the bit.
        shapes = np.concatenate([np.geomspace(0.0101, 511.5, 300),
                                 [0.5, 1.0, 1.75, 3.6, 511.0]])
        for s in shapes.tolist():
            want = np.array([_log_basis_norm(n, s) for n in range(2001)])
            assert _log_basis_norms(2001, s).tobytes() == want.tobytes(), s
        assert _log_basis_norms(0, 1.75).shape == (0,)

    def test_shape_parameter_checked(self):
        # Unchecked, nan gave a nan row, inf a row of -inf, -0.75 finite
        # values and -1 and 0 a bare ValueError from lgamma's pole.
        for bad in (math.nan, math.inf, -0.75, -1.0, 0.0):
            with pytest.raises(DomainError):
                _log_basis_norms(3, bad)


class TestPseudoWavefunction:
    def test_ground_state_value(self):
        # s = 1/2: phi_0 = sqrt(y) e^{-y/2} (Gamma(1) = 1).
        assert abs(pseudo_wavefunction(0, 0.5, 1.0) - math.exp(-0.5)) < 1e-14

    def test_ground_state_positive(self):
        y = np.geomspace(1e-4, 50.0, 300)
        assert np.all(pseudo_wavefunction(0, 1.75, y) > 0.0)

    def test_first_state_ladder_formula(self):
        # One rung applied analytically: phi_1 = (2s - y) phi_0 / sqrt(2s).
        s = 1.3
        y = np.linspace(0.1, 12.0, 57)
        want = (2.0 * s - y) * pseudo_wavefunction(0, s, y) / math.sqrt(2.0 * s)
        got = pseudo_wavefunction(1, s, y)
        assert np.abs(got - want).max() < 1e-14

    def test_normalized_under_quadrature(self):
        s = 1.75
        rule = gauss_laguerre_rule(200, 2.0 * s - 1.0)
        env = np.exp(s * np.log(rule.nodes) - 0.5 * rule.nodes)
        for n in range(21):
            # Divide out the envelope the rule's weight already carries.
            vals = pseudo_wavefunction(n, s, rule.nodes) / env
            assert abs(rule.integrate(vals * vals) - 1.0) < 1e-12, n

    def test_underflow_returns_zero(self):
        assert pseudo_wavefunction(0, 1.0, 5000.0) == 0.0

    def test_high_order_needs_no_table(self):
        # 2001 orders at 600 points is beyond the Laguerre table cap; one
        # row of the result is 600 values.
        y = np.linspace(0.5, 40.0, 600)
        got = pseudo_wavefunction(2000, 1.75, y)
        assert got.shape == (600,)
        assert np.all(np.isfinite(got))
        want = pseudo_wavefunctions(2000, 1.75, y[:500])[2000]
        assert got[:500].tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 40])
    def test_row_has_the_bits_of_the_table(self, n):
        y = y_from_x(np.linspace(-2.0, 10.0, 300))
        assert (pseudo_wavefunction(n, 1.75, y).tobytes()
                == pseudo_wavefunctions(n, 1.75, y)[n].tobytes())
        assert pseudo_wavefunction(n, 1.75, 0.8) == pseudo_wavefunctions(
            n, 1.75, 0.8)[n]

    def test_domain(self):
        with pytest.raises(DomainError):
            pseudo_wavefunction(-1, 1.0, 1.0)
        with pytest.raises(DomainError):
            pseudo_wavefunction(0, 1.0, 0.0)


class TestRecursiveWavefunction:
    def test_base_case(self):
        y = np.linspace(0.2, 8.0, 11)
        got = pseudo_wavefunction_recursive(0, 1.75, y)
        assert np.abs(got - pseudo_wavefunction(0, 1.75, y)).max() < 1e-15

    def test_pointwise_agreement(self):
        assert abs(pseudo_wavefunction_recursive(3, 1.75, 0.8)
                   - pseudo_wavefunction(3, 1.75, 0.8)) < 1e-10
        assert abs(pseudo_wavefunction_recursive(10, 3.6, 5.0)
                   - pseudo_wavefunction(10, 3.6, 5.0)) < 1e-10

    def test_agreement_on_quadrature_nodes(self):
        for s in (0.75, 1.75, 3.6):
            rule = gauss_laguerre_rule(200, 2.0 * s - 1.0)
            for n in range(21):
                a = pseudo_wavefunction_recursive(n, s, rule.nodes)
                b = pseudo_wavefunction(n, s, rule.nodes)
                assert np.abs(a - b).max() < 1e-9, (s, n)


class TestSpectralConstants:
    def test_ground_energy(self):
        assert ground_energy(1.0) == 1.25
        assert ground_energy(3.6) == 3.85

    def test_ground_energy_quadrature_oracle(self):
        # <phi_0 | H phi_0> by finite differences + trapezoid in x;
        # accuracy limited by the O(h^2) stencil, not the quadrature.
        s = 1.0
        grid = LogGrid(-6.0, 16.0, 4001)
        f = pseudo_wavefunction(0, s, grid.y)
        hf = apply_operator_fd("H", f, grid, s)
        val = np.trapezoid(f[1:-1] * hf, dx=grid.h)
        assert abs(val - ground_energy(s)) < 1e-5

    def test_bound_state_count(self):
        assert bound_state_count(3.6) == 4
        assert bound_state_count(0.5) == 1

    def test_bound_state_count_marginal(self):
        with pytest.warns(MarginalStateWarning):
            assert bound_state_count(1.0) == 2

    def test_bound_energy_values(self):
        assert bound_energy(0, 2.3) == ground_energy(2.3)
        assert abs(bound_energy(1, 3.6) - 10.05) < 1e-12
        assert abs(bound_energy(3, 3.6) - 16.45) < 1e-12

    def test_bound_energies_below_threshold(self):
        for s in (0.75, 1.75, 3.6):
            thr = (s + 0.5) ** 2
            for n in range(bound_state_count(s)):
                assert bound_energy(n, s) < thr

    def test_bound_energy_domain(self):
        with pytest.raises(DomainError):
            bound_energy(4, 3.6)
        with pytest.raises(DomainError):
            bound_energy(-1, 3.6)


class TestGroundXExpectation:
    def test_frozen_values(self):
        # ln 2 + EulerGamma and ln 2 - psi(2), frozen from mpmath.
        assert abs(ground_x_expectation(0.5) - 1.2703628454614782) < 1e-14
        assert abs(ground_x_expectation(1.0) - 0.2703628454614782) < 1e-14

    def test_quadrature_oracle(self):
        # Trapezoid in x: the measure dy/y is dx, the integrand
        # x |phi_0|^2 decays double-exponentially on the left and like
        # e^{-2sx} on the right, so the trapezoid is spectrally accurate.
        # (A Gauss rule in y sees the logarithmic factor x = ln(2/y) and
        # converges only algebraically.)
        for s in (0.75, 1.75, 3.6):
            x = np.linspace(-6.0, 34.0, 4001)
            f = pseudo_wavefunction(0, s, y_from_x(x))
            val = np.trapezoid(x * f * f, dx=x[1] - x[0])
            assert abs(val - ground_x_expectation(s)) < 1e-9, s


def _orders(residuals):
    return [math.log2(a / b) for a, b in zip(residuals, residuals[1:])]


class TestFiniteDifferenceOperators:
    def test_annihilation_order(self):
        s = 1.75
        res = []
        for n in (801, 1601, 3201):
            grid = LogGrid(-4.0, 12.0, n)
            f = pseudo_wavefunction(0, s, grid.y)
            res.append(np.abs(apply_operator_fd("A", f, grid, s)).max())
        for order in _orders(res):
            assert 1.8 < order < 2.2, res

    def test_hamiltonian_eigen_residual_order(self):
        s = 1.75
        res = []
        for n in (801, 1601, 3201):
            grid = LogGrid(-4.0, 12.0, n)
            f = pseudo_wavefunction(0, s, grid.y)
            hf = apply_operator_fd("H", f, grid, s)
            res.append(np.abs(hf - ground_energy(s) * f[1:-1]).max())
        for order in _orders(res):
            assert 1.8 < order < 2.2, res

    def test_creation_raises_one_rung(self):
        # Adag phi_0 = C_1 phi_1 up to the stencil error, which must halve
        # quadratically with h.
        s = 1.75
        errs = []
        for n in (3201, 6401):
            grid = LogGrid(-4.0, 12.0, n)
            f0 = pseudo_wavefunction(0, s, grid.y)
            up = apply_operator_fd("Adag", f0, grid, s)
            want = norm_coefficient(1, s) * pseudo_wavefunction(
                1, s, grid.y[1:-1])
            errs.append(np.abs(up - want).max())
        assert errs[0] < 5e-5
        assert 3.4 < errs[0] / errs[1] < 4.6

    def test_shift_parameter(self):
        s = 1.2
        grid = LogGrid(-3.0, 10.0, 101)
        f = pseudo_wavefunction(0, s, grid.y)
        base = apply_operator_fd("A", f, grid, s, k=0)
        shifted = apply_operator_fd("A", f, grid, s, k=3)
        assert np.abs(shifted - (base + 3.0 * f[1:-1])).max() < 1e-12

    def test_validation(self):
        grid = LogGrid(-2.0, 8.0, 32)
        f = np.zeros(32)
        with pytest.raises(DomainError):
            apply_operator_fd("Q", f, grid, 1.0)
        with pytest.raises(DomainError):
            apply_operator_fd("H", f, grid, 1.0, k=1)
        with pytest.raises(DomainError):
            apply_operator_fd("A", f[:-1], grid, 1.0)
        with pytest.raises(DomainError):
            LogGrid(-2.0, 8.0, 10)


class TestShapeInvariance:
    def test_residual_small_on_fine_grid(self):
        # The identity is pointwise, so the window only needs to cover the
        # region where it is nontrivial; this one brackets both peaks and
        # lets 2001 points push the stencil error below 1e-4.
        s = 3.6
        grid = LogGrid(-1.0, 1.5, 2001)
        f0 = pseudo_wavefunction(0, s, grid.y)
        assert shape_invariance_residual(s, grid, f0) < 1e-4
        f2 = pseudo_wavefunction(2, s - 1.0, grid.y)
        assert shape_invariance_residual(s, grid, f2) < 1e-4

    def test_second_order_contraction(self):
        s = 3.6
        coarse = LogGrid(-4.0, 12.0, 1001)
        fine = LogGrid(-4.0, 12.0, 2001)
        r_coarse = shape_invariance_residual(
            s, coarse, pseudo_wavefunction(0, s, coarse.y))
        r_fine = shape_invariance_residual(
            s, fine, pseudo_wavefunction(0, s, fine.y))
        assert 3.4 < r_coarse / r_fine < 4.6

    def test_domain(self):
        grid = LogGrid(-2.0, 8.0, 64)
        with pytest.raises(DomainError):
            shape_invariance_residual(0.9, grid, np.zeros(64))
