import math

import numpy as np
import pytest

from morsecs import operators
from morsecs.errors import CapabilityError, DomainError, MarginalStateWarning
from morsecs.morse_core import bound_energy, ground_energy
from morsecs.numerics import symtridiag_eigen
from morsecs.operators import (
    bound_spectrum,
    commutator,
    corner_defect,
    matrix_A,
    matrix_Adag,
    matrix_element_oracle,
    matrix_H,
    spectrum,
)


class TestLadderMatrices:
    def test_small_block_entries(self):
        a = matrix_A(1.0, 0, 3)
        assert np.allclose(np.diag(a, 1), [math.sqrt(2.0), math.sqrt(6.0)],
                           atol=1e-15)
        assert np.diag(a).tolist() == [0.0, -1.0, -2.0]

    def test_ground_state_annihilated(self):
        dense = matrix_A(1.75, 0, 8)
        assert np.all(dense[:, 0] == 0.0)

    def test_adjoint_is_transpose(self):
        a = matrix_A(1.3, 1, 6)
        ad = matrix_Adag(1.3, 1, 6)
        assert np.array_equal(ad, a.T)

    def test_shift_identity_bit_exact(self):
        # The whole k-dependence is k I; entries are sums of integer-valued
        # floats, so the identity holds with zero rounding error.
        base = matrix_A(1.75, 0, 40)
        eye = np.eye(40)
        for k in range(-3, 4):
            shifted = matrix_A(1.75, k, 40)
            assert np.array_equal(shifted, base + k * eye), k

    def test_validation(self):
        with pytest.raises(DomainError):
            matrix_A(1.0, 0, 1)
        with pytest.raises(DomainError):
            matrix_A(-1.0, 0, 4)


class TestHamiltonianMatrix:
    def test_small_block_entries(self):
        h = matrix_H(1.0, 3)
        assert h.diag.tolist() == [1.25, 4.25, 11.25]
        assert abs(h.offdiag[1] + math.sqrt(6.0)) < 1e-15
        assert h.offdiag[0] == 0.0

    def test_matches_factorization_product(self):
        s, n = 1.75, 30
        a = matrix_A(s, 0, n)
        dense = a.T @ a + ground_energy(s) * np.eye(n)
        got = matrix_H(s, n).to_dense()
        assert np.abs(got - dense).max() < 1e-12 * np.abs(dense).max()

    def test_ground_state_exact_eigenvector(self):
        h = matrix_H(3.6, 50).to_dense()
        e0 = np.zeros(50)
        e0[0] = 1.0
        assert np.array_equal(h @ e0, ground_energy(3.6) * e0)

    def test_exactly_symmetric(self):
        h = matrix_H(0.8, 20).to_dense()
        assert np.array_equal(h, h.T)


class TestCommutators:
    def test_same_side_commute(self):
        # The two operators differ by a multiple of I, so the commutator is
        # identically zero; what remains is matmul roundoff.
        for m, n in ((0, 0), (1, 3), (-2, 2)):
            a1 = matrix_A(1.4, m, 12)
            a2 = matrix_A(1.4, n, 12)
            assert np.abs(commutator(a1, a2)).max() < 1e-12, (m, n)

    def _check_canonical(self, s, n, k1, k2):
        a = matrix_A(s, k1, n)
        ad = matrix_Adag(s, k2, n)
        lhs = commutator(a, ad)
        a0 = matrix_A(s, 0, n)
        rhs = 2.0 * s * np.eye(n) - (a0 + a0.T)
        diff = np.abs(lhs - rhs)
        corner = diff[n - 1, n - 1]
        diff[n - 1, n - 1] = 0.0
        assert diff.max() <= 1e-12 * (2.0 * s + n)
        want = corner_defect(s, n)
        assert abs(corner - want) <= 1e-12 * want

    def test_canonical_commutator_with_corner(self):
        self._check_canonical(1.75, 25, 0, 0)

    def test_rhs_independent_of_shifts(self):
        # Different parameter shifts on the two factors leave the right
        # side unchanged.
        self._check_canonical(1.75, 25, 2, 5)

    def test_validation(self):
        with pytest.raises(DomainError):
            commutator(np.eye(3), np.eye(4))


class TestSpectrum:
    def test_ground_value_exact(self):
        # The decoupled first row makes 3.85 an exact eigenvalue of the
        # block; the solver splits the matrix and returns it unrounded.
        vals = spectrum(3.6, 800, 1)
        assert vals[0] == 3.85

    def test_variational_monotonicity(self):
        prev = spectrum(3.6, 100, 4)
        for n in (200, 400, 800):
            vals = spectrum(3.6, n, 4)
            assert np.all(vals <= prev + 1e-12)
            prev = vals

    def test_factorization_positivity(self):
        vals = spectrum(1.75, 300)
        assert vals.min() >= ground_energy(1.75) - 1e-10

    def test_bound_levels_match_bound_energies(self):
        for s in (0.3, 1.75, 3.6, 12.3, 50.3):
            vals = bound_spectrum(s)
            assert len(vals) == math.floor(s + 1.0)
            for k, v in enumerate(vals):
                e = bound_energy(k, s)
                assert abs(v - e) <= 1e-14 * e, (s, k)
            assert vals[0] == s + 0.25

    def test_near_threshold_state(self):
        vals = spectrum(3.6, 1600, 4)
        assert abs(vals[3] - bound_energy(3, 3.6)) < 5e-2

    def test_sigma_route_brackets_ritz(self):
        # Two independent routes. Ritz on the order-3200 block at sigma = s
        # is variational, so no level lies below the level-adapted value;
        # levels more than 2 below the threshold have converged to 1e-3
        # (nearer the threshold Ritz converges only algebraically: at
        # s = 12.3 level 11, 1.69 below, is still 0.067 above).
        for s in (1.75, 3.6, 12.3):
            exact = bound_spectrum(s)
            ritz = spectrum(s, 3200, len(exact))
            threshold = (s + 0.5) ** 2
            for n, e in enumerate(exact):
                assert ritz[n] >= e - 1e-10, (s, n)
                if threshold - e > 2.0:
                    assert ritz[n] <= e + 1e-3, (s, n)

    def test_integer_shape_levels(self):
        with pytest.warns(MarginalStateWarning):
            vals = bound_spectrum(3)
        assert len(vals) == 4
        for k in range(3):
            assert abs(vals[k] - bound_energy(k, 3.0)) <= 1e-14 * vals[k], k
        assert vals[0] == 3.25
        # The marginal level is the sigma = 0 limit block's threshold row.
        assert vals[3] == 3.5 ** 2

    @pytest.mark.parametrize("s", [1, 3, 60, 200, 511])
    def test_marginal_level_stays_near_threshold(self, s):
        with pytest.warns(MarginalStateWarning):
            top = bound_spectrum(float(s))[-1]
        assert top == (s + 0.5) ** 2

    def test_near_integer_shapes(self):
        for s in (np.nextafter(3.0, 4.0), np.nextafter(3.0, 0.0),
                  199.99999999):
            vals = bound_spectrum(float(s))
            assert len(vals) == math.floor(s + 1.0)
            for k, v in enumerate(vals):
                e = bound_energy(k, float(s))
                assert abs(v - e) <= 1e-14 * e, (s, k)

    def test_level_bound(self, monkeypatch):
        with pytest.warns(MarginalStateWarning):
            vals = bound_spectrum(200)
        assert len(vals) == 201
        assert vals[200] == 200.5 ** 2
        with pytest.raises(CapabilityError, match="supported maximum"):
            bound_spectrum(512.5)
        # The bound admits exactly _MAX_BOUND_LEVELS levels.
        monkeypatch.setattr(operators, "_MAX_BOUND_LEVELS", 4)
        assert len(bound_spectrum(3.6)) == 4
        with pytest.raises(CapabilityError):
            bound_spectrum(4.2)

    def test_sigma_block_decouples_level(self):
        # At sigma = s - n the (n, n+1) coupling is exactly zero.
        for s in (1.75, 12.3):
            for n in range(math.floor(s + 1.0)):
                assert matrix_H(s, n + 2, s - n).offdiag[n] == 0.0
        with pytest.raises(DomainError):
            matrix_H(1.75, 4, sigma=0.0)

    def test_order_bound(self, monkeypatch):
        # The bound admits exactly _MAX_MATRIX_ORDER rows.
        monkeypatch.setattr(operators, "_MAX_MATRIX_ORDER", 4)
        assert matrix_H(1.75, 4).order == 4
        with pytest.raises(CapabilityError, match="supported maximum"):
            matrix_H(1.75, 5)
        with pytest.raises(CapabilityError, match="supported maximum"):
            spectrum(1.75, 5, 1)

    def test_ritz_vector_residual(self):
        vals, vecs = symtridiag_eigen(matrix_H(1.75, 120), want_vectors=True,
                                      n_lowest=2)
        h = matrix_H(1.75, 120).to_dense()
        for i in range(2):
            r = np.abs(h @ vecs[:, i] - vals[i] * vecs[:, i]).max()
            assert r < 1e-10 * np.abs(h).max(), i

    def test_selected_levels_keep_variational_bound(self):
        # At this order a bisection stopped at eps * ||T|| (~7e-8) puts
        # level 1 below its exact value; the selected solve must not.
        vals = spectrum(3.6, 12800, 4)
        exact = np.array([bound_energy(k, 3.6) for k in range(4)])
        assert np.all(vals >= exact - 1e-10)
        assert abs(vals[0] - exact[0]) <= 1e-12

    def test_selected_levels_match_full_solve(self):
        for s in (1.75, 3.6, 50.3):
            k = math.floor(s + 1.0)
            full = spectrum(s, 3200)
            assert np.abs(spectrum(s, 3200, k) - full[:k]).max() < 1e-9, s

    def test_validation(self):
        with pytest.raises(DomainError):
            spectrum(1.0, 10, 11)


class TestMatrixElementOracle:
    def test_ground_diagonal(self):
        val, bar = matrix_element_oracle(0, 0, "H", 1.0)
        assert abs(val - 1.25) <= max(bar, 1e-9)
        assert bar < 1e-3

    def test_offdiagonal_symmetric_value(self):
        # The (1, 2) coupling at s = 1.75 is -1 sqrt(2 (2s + 1)) = -3.
        val, bar = matrix_element_oracle(1, 2, "H", 1.75)
        assert abs(val - (-3.0)) <= max(bar, 1e-9)
        val_t, bar_t = matrix_element_oracle(2, 1, "H", 1.75)
        assert abs(val_t - (-3.0)) <= max(bar_t, 1e-9)

    def test_ladder_entry(self):
        val, bar = matrix_element_oracle(0, 1, "A", 1.0)
        assert abs(val - math.sqrt(2.0)) <= max(bar, 1e-9)

    def test_bar_shrinks_quadratically(self):
        _, bar_c = matrix_element_oracle(2, 2, "H", 1.75, n_points=1001)
        _, bar_f = matrix_element_oracle(2, 2, "H", 1.75, n_points=2001)
        assert 3.0 < bar_c / bar_f < 5.0

    def test_small_block_against_closed_form(self):
        s = 1.75
        h = matrix_H(s, 5).to_dense()
        for m in range(5):
            for n in range(5):
                val, bar = matrix_element_oracle(m, n, "H", s)
                assert abs(val - h[m, n]) <= max(bar, 1e-9), (m, n)

    def test_validation(self):
        with pytest.raises(DomainError):
            matrix_element_oracle(0, 31, "H", 1.0)
        with pytest.raises(DomainError):
            matrix_element_oracle(0, 0, "Hp", 1.0)
        with pytest.raises(DomainError):
            matrix_element_oracle(0, 0, "H", 1.0, n_points=1000)
