import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from scipy.special import logsumexp

from morsecs import numerics
from morsecs.errors import CapabilityError, DomainError
from morsecs.numerics import (
    QuadratureRule,
    SymTridiagonal,
    digamma,
    gauss_laguerre_rule,
    laguerre_generating_sum,
    laguerre_sequence,
    log_gamma,
    _BISECTION_TOL,
    _christoffel_sums,
    symtridiag_eigen,
)

# Reference values frozen from an mpmath run at mp.dps = 30.
LGAMMA_SMALL = {
    0.5: 0.57236494292470008707,
    1.5: -0.12078223763524522235,
    3.7: 1.4280723266653881292,
    7.25: 7.0521854507385394449,
    12.5: 18.734347511936445702,
    19.0: 36.395445208033053576,
}
LGAMMA_LARGE = {
    100.0: 359.134205369575398776,
    1234.5: 7550.55090107789489573,
    10000.0: 82099.71749644237727265,
}
DIGAMMA_REF = {
    0.75: -1.0858608797864721696,
    1.0: -0.57721566490153286061,
    2.0: 0.42278433509846713939,
    3.6: 1.1356628373888608957,
    10.0: 2.2517525890667211076,
}


class TestLogGamma:
    def test_exact_integers(self):
        assert log_gamma(1.0) == 0.0
        assert abs(log_gamma(5.0) - math.log(24.0)) < 1e-15

    def test_small_arguments_absolute(self):
        # ln Gamma is O(10) here, so a few ulp stays far below 1e-13.
        for x, ref in LGAMMA_SMALL.items():
            assert abs(log_gamma(x) - ref) < 1e-13, x

    def test_large_arguments_relative(self):
        for x, ref in LGAMMA_LARGE.items():
            assert abs(log_gamma(x) - ref) / ref < 5e-15, x

    def test_domain(self):
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                log_gamma(bad)


class TestDigamma:
    def test_reference_values(self):
        for x, ref in DIGAMMA_REF.items():
            assert abs(digamma(x) - ref) < 1e-12, x

    def test_recurrence(self):
        assert abs(digamma(2.0) - (digamma(1.0) + 1.0)) < 1e-14

    def test_matches_log_gamma_derivative(self):
        h = 1e-5
        fd = (log_gamma(10.0 + h) - log_gamma(10.0 - h)) / (2.0 * h)
        assert abs(digamma(10.0) - fd) < 1e-8

    def test_domain(self):
        with pytest.raises(DomainError):
            digamma(-2.0)


class TestLaguerreSequence:
    def test_base_cases(self):
        assert laguerre_sequence(0, 0.3, 5.0).tolist() == [1.0]
        seq = laguerre_sequence(1, 2.0, 3.0)
        assert seq[0] == 1.0 and seq[1] == 0.0

    def test_rodrigues_values(self):
        # Frozen from exact rational evaluation of the Rodrigues expansion.
        assert abs(laguerre_sequence(2, 0.0, 1.0)[2] - (-0.5)) < 1e-14
        assert abs(laguerre_sequence(3, 1.5, 2.4)[3] - (-1.6815)) < 1e-13
        assert abs(laguerre_sequence(4, 0.5, 0.3)[4] - 0.82665) < 1e-13

    def test_vectorized(self):
        y = np.array([0.0, 1.0, 4.5])
        seq = laguerre_sequence(3, 0.7, y)
        assert seq.shape == (4, 3)
        for j, yj in enumerate(y):
            scalar = laguerre_sequence(3, 0.7, yj)
            assert np.allclose(seq[:, j], scalar, rtol=0, atol=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            laguerre_sequence(-1, 0.0, 1.0)
        with pytest.raises(DomainError):
            laguerre_sequence(2, -1.0, 1.0)
        with pytest.raises(DomainError):
            laguerre_sequence(2, 0.0, -0.1)

    def test_table_bound(self, monkeypatch):
        # The bound admits exactly _MAX_LAGUERRE_VALUES orders x points.
        monkeypatch.setattr(numerics, "_MAX_LAGUERRE_VALUES", 6)
        assert laguerre_sequence(2, 0.5, [1.0, 2.0]).shape == (3, 2)
        assert laguerre_sequence(5, 0.5, 1.0).shape == (6,)
        with pytest.raises(CapabilityError, match="supported maximum"):
            laguerre_sequence(2, 0.5, [1.0, 2.0, 3.0])
        with pytest.raises(CapabilityError, match="supported maximum"):
            laguerre_sequence(6, 0.5, 1.0)


class TestGeneratingSum:
    def test_w_zero(self):
        assert laguerre_generating_sum(0.0, 1.3, 2.0) == 1.0

    def test_partial_sum_real(self):
        w, alpha, y = 0.4, 1.0, 2.0
        seq = laguerre_sequence(200, alpha, y)
        partial = sum(w ** n * seq[n] for n in range(201))
        assert abs(laguerre_generating_sum(w, alpha, y) - partial) < 1e-10

    def test_partial_sum_complex(self):
        s = 1.25
        w, alpha, y = 0.3j, 2.0 * s - 1.0, 1.0
        seq = laguerre_sequence(300, alpha, y)
        partial = sum(w ** n * seq[n] for n in range(301))
        assert abs(laguerre_generating_sum(w, alpha, y) - partial) < 1e-10

    def test_domain(self):
        with pytest.raises(DomainError):
            laguerre_generating_sum(1.0, 0.0, 1.0)


def plain_christoffel_sums(nodes, jac_diag, jac_off):
    """The recurrence as one expression per step, with power-of-two
    rescaling at |p| > 2^500: the reference for the in-place loop."""
    n = nodes.size
    p_prev = np.zeros(n)
    p = np.ones(n)
    sq_sum = np.ones(n)
    shifts = np.zeros(n)
    for m in range(1, n):
        p_prev, p = p, ((nodes - jac_diag[m - 1]) * p
                        - (jac_off[m - 2] if m >= 2 else 0.0) * p_prev) / jac_off[m - 1]
        big = np.abs(p) > 2.0 ** 500
        if big.any():
            p[big] *= 2.0 ** -512
            p_prev[big] *= 2.0 ** -512
            sq_sum[big] *= 2.0 ** -1024
            shifts[big] += 1.0
        sq_sum += p * p
    return sq_sum, shifts


class TestGaussLaguerreRule:
    def test_one_point(self):
        rule = gauss_laguerre_rule(1, 0.0)
        assert abs(rule.nodes[0] - 1.0) < 1e-14
        assert abs(rule.weights[0] - 1.0) < 1e-14

    def test_two_point_closed_form(self):
        rule = gauss_laguerre_rule(2, 0.0)
        r2 = math.sqrt(2.0)
        assert np.allclose(rule.nodes, [2.0 - r2, 2.0 + r2], rtol=0, atol=1e-13)
        assert np.allclose(rule.weights, [(2.0 + r2) / 4.0, (2.0 - r2) / 4.0],
                           rtol=0, atol=1e-13)

    def test_zeroth_moment(self):
        s = 1.75
        rule = gauss_laguerre_rule(40, 2.0 * s - 1.0)
        assert abs(rule.weights.sum() - math.gamma(2.0 * s)) < 1e-12

    def test_monomial_exactness(self):
        # Degrees up to 2n-1; the high-degree half is compared in log space
        # because the raw moments overflow float64 around Gamma(190).
        for n in (1, 2, 8, 64):
            for alpha in (0.0, 0.5, 2.5, 10.0):
                rule = gauss_laguerre_rule(n, alpha)
                log_w = np.log(rule.weights)
                log_y = np.log(rule.nodes)
                for k in range(2 * n):
                    got = logsumexp(log_w + k * log_y)
                    want = math.lgamma(k + alpha + 1.0)
                    assert abs(got - want) < 1e-12, (n, alpha, k)

    def test_weights_positive_in_envelope(self):
        for n in (8, 64):
            for alpha in (0.0, 10.0):
                rule = gauss_laguerre_rule(n, alpha)
                assert np.all(rule.weights > 0.0)

    def test_orthonormality_constants(self):
        # Gram of L_n^{2s-1} under the rule equals Gamma(n+2s)/n!
        # on the diagonal and 0 elsewhere.
        for s in (0.75, 1.75, 3.6):
            alpha = 2.0 * s - 1.0
            rule = gauss_laguerre_rule(40, alpha)
            seq = laguerre_sequence(30, alpha, rule.nodes)
            gram = (seq * rule.weights) @ seq.T
            want = np.diag([math.exp(math.lgamma(n + 2.0 * s) - math.lgamma(n + 1.0))
                            for n in range(31)])
            rel = np.abs(gram - want) / np.abs(np.diag(want))[:, None]
            assert rel.max() < 1e-10, s

    def test_capability_cap(self):
        with pytest.raises(CapabilityError):
            gauss_laguerre_rule(513, 0.0)

    @pytest.mark.parametrize("n,alpha", [(10, 171.0), (200, 172.0)])
    def test_weights_beyond_float_range_are_capability_error(self, n, alpha):
        # Gamma(alpha + 1) leaves float range near alpha = 171; the rule
        # fails with one line before any overflow warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CapabilityError, match="exceeds float range"):
                gauss_laguerre_rule(n, alpha)

    def test_largest_alpha_within_float_range(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rule = gauss_laguerre_rule(200, 171.0)
        assert np.isfinite(rule.weights).all() and rule.weights.max() > 1e300

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 17, 64, 128, 200, 300, 512])
    def test_christoffel_sums_match_plain_loop_bitwise(self, n):
        # The in-place recurrence runs the plain loop's operations in the
        # same order, so its sums and rescale counts are the same bits.
        rescaled = False
        for alpha in (-0.9, -0.5, 0.0, 0.5, 1.0, 2.5, 7.3, 20.0, 60.0,
                      110.0, 170.0):
            k = np.arange(n, dtype=float)
            jac_diag = 2.0 * k + alpha + 1.0
            jac_off = np.sqrt(k[1:] * (k[1:] + alpha))
            nodes = scipy.linalg.eigh_tridiagonal(jac_diag, jac_off,
                                                  eigvals_only=True)
            sq_sum, shifts = _christoffel_sums(nodes, jac_diag, jac_off)
            want_sq, want_shifts = plain_christoffel_sums(nodes, jac_diag,
                                                          jac_off)
            assert sq_sum.tobytes() == want_sq.tobytes(), alpha
            assert shifts.tobytes() == want_shifts.tobytes(), alpha
            rescaled |= bool(shifts.any())
        assert rescaled or n < 200

    @pytest.mark.parametrize("n", [1, 2, 5, 64, 200, 512])
    def test_matches_direct_scipy_construction_bitwise(self, n):
        # The rule as it was built before its eigensolve went through
        # symtridiag_eigen: SciPy's default driver, called here.
        for alpha in (-0.9, 0.0, 2.5, 60.0, 170.0):
            k = np.arange(n, dtype=float)
            jac_diag = 2.0 * k + alpha + 1.0
            jac_off = np.sqrt(k[1:] * (k[1:] + alpha))
            nodes = scipy.linalg.eigh_tridiagonal(jac_diag, jac_off,
                                                  eigvals_only=True)
            sq_sum, shifts = _christoffel_sums(nodes, jac_diag, jac_off)
            log_w = math.lgamma(alpha + 1.0) - (
                np.log(sq_sum) + shifts * (1024.0 * math.log(2.0)))
            with np.errstate(under="ignore"):
                weights = np.exp(log_w)
            rule = gauss_laguerre_rule(n, alpha)
            assert rule.nodes.tobytes() == nodes.tobytes(), alpha
            assert rule.weights.tobytes() == weights.tobytes(), alpha

    def test_validation(self):
        with pytest.raises(DomainError):
            gauss_laguerre_rule(0, 0.0)
        with pytest.raises(DomainError):
            QuadratureRule(0.0, np.array([2.0, 1.0]), np.array([1.0, 1.0]))
        with pytest.raises(DomainError):
            QuadratureRule(0.0, np.array([1.0, 2.0]), np.array([1.0, -1.0]))

    def test_integrate_shape_guard(self):
        rule = gauss_laguerre_rule(4, 0.0)
        with pytest.raises(DomainError):
            rule.integrate(np.ones(5))


class TestSymTridiagEigen:
    def test_single_entry(self):
        t = SymTridiagonal(np.array([4.2]), np.array([]))
        assert symtridiag_eigen(t).tolist() == [4.2]

    def test_two_by_two(self):
        t = SymTridiagonal(np.array([0.0, 0.0]), np.array([1.0]))
        assert np.allclose(symtridiag_eigen(t), [-1.0, 1.0], atol=1e-15)

    def test_cubic_roots(self):
        # Roots of l^3 - 6 l^2 + 9 l - 2, frozen from exact radicals
        # (2 - sqrt(3), 2, 2 + sqrt(3)).
        t = SymTridiagonal(np.array([1.0, 2.0, 3.0]), np.array([1.0, 1.0]))
        want = [0.2679491924311227065, 2.0, 3.7320508075688772935]
        assert np.allclose(symtridiag_eigen(t), want, rtol=0, atol=1e-13)

    def test_vectors_reconstruct(self):
        rng = np.random.default_rng(7)
        diag = rng.normal(size=12)
        off = rng.normal(size=11)
        t = SymTridiagonal(diag, off)
        vals, vecs = symtridiag_eigen(t, want_vectors=True)
        dense = t.to_dense()
        scale = np.abs(dense).max()
        assert np.abs(vecs @ np.diag(vals) @ vecs.T - dense).max() < 1e-10 * scale
        assert np.abs(vecs.T @ vecs - np.eye(12)).max() < 1e-10
        resid = np.abs(dense @ vecs - vecs * vals).max()
        assert resid < 1e-10 * scale

    @pytest.mark.parametrize("order", [1, 2, 3, 200, 451, 512])
    def test_bits_of_scipy_default_drivers(self, order):
        # The drivers are named (stevd for a full solve, stebz for a
        # selected range), and they are the ones SciPy picks by default:
        # a change of default fails here by name, not in a parity replay.
        rng = np.random.default_rng(order)
        k = np.arange(order, dtype=float)
        for diag, off in ((rng.normal(size=order), rng.normal(size=order - 1)),
                          (2.0 * k + 3.5, np.sqrt(k[1:] * (k[1:] + 2.5)))):
            t = SymTridiagonal(diag, off)
            want = scipy.linalg.eigh_tridiagonal(diag, off)
            for got, ref in zip(symtridiag_eigen(t, want_vectors=True), want):
                assert got.tobytes() == ref.tobytes()
            assert (symtridiag_eigen(t).tobytes()
                    == scipy.linalg.eigh_tridiagonal(
                        diag, off, eigvals_only=True).tobytes())
            for n_low in {1, max(1, order // 3), max(1, order - 1)} - {order}:
                sel = {"select": "i", "select_range": (0, n_low - 1),
                       "tol": _BISECTION_TOL}
                want = scipy.linalg.eigh_tridiagonal(diag, off, **sel)
                got = symtridiag_eigen(t, want_vectors=True, n_lowest=n_low)
                for g, r in zip(got, want):
                    assert g.tobytes() == r.tobytes(), n_low
                assert (symtridiag_eigen(t, n_lowest=n_low).tobytes()
                        == scipy.linalg.eigh_tridiagonal(
                            diag, off, eigvals_only=True, **sel).tobytes())

    def test_lowest_selection_matches_full_solve(self):
        rng = np.random.default_rng(5)
        t = SymTridiagonal(rng.normal(size=40), rng.normal(size=39))
        vals, vecs = symtridiag_eigen(t, want_vectors=True)
        for k in (1, 7, 40):
            assert np.abs(symtridiag_eigen(t, n_lowest=k) - vals[:k]).max() < 1e-13
            sel_vals, sel_vecs = symtridiag_eigen(t, want_vectors=True,
                                                  n_lowest=k)
            assert sel_vecs.shape == (40, k)
            # Eigenvectors are fixed only up to sign.
            overlap = np.abs(np.sum(sel_vecs * vecs[:, :k], axis=0))
            assert np.abs(overlap - 1.0).max() < 1e-12

    def test_validation(self):
        with pytest.raises(DomainError):
            SymTridiagonal(np.array([1.0, 2.0]), np.array([1.0, 1.0]))
        with pytest.raises(DomainError):
            symtridiag_eigen(np.eye(3))
        t = SymTridiagonal(np.array([1.0, 2.0, 3.0]), np.array([1.0, 1.0]))
        for bad in (0, 4):
            with pytest.raises(DomainError):
                symtridiag_eigen(t, n_lowest=bad)
