"""Coherent-state layer: coefficients, overlaps, wavefunctions, phase-space
maps, resolutions of unity, expectations, displacement, projection.

Reference values are either hand computations (small binomials, geometric
sums), high-order partial sums evaluated in the test itself, or quadrature
cross-checks with a scheme independent of the implementation under test.
"""

import cmath
import math
import subprocess
import sys
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
import scipy.linalg
import scipy.special

from morsecs import coherent, verify
from morsecs.coherent import (
    _PS_BLOCK,
    _log_binom_sqrt,
    _log_envelope_scale,
    _q_strip_mass,
    _x_strip_mass,
    _MAX_ANGULAR_POINTS,
    _MAX_DISPLACEMENT_ORDER,
    _MAX_PS_BASIS,
    _MAX_PS_NODES,
    _MAX_RADIAL_POINTS,
    CoherentLabel,
    _jacobi01_rule,
    CoherentState,
    PhaseSpaceLabel,
    coefficient_tail_bound,
    coefficients,
    displacement_check,
    displacement_matrix,
    expectation_P,
    expectation_X,
    from_phase_space,
    gen_factorial,
    overlap,
    phase_factor,
    phase_space_measure_check,
    phase_space_tail_estimate,
    project_onto_basis,
    resolution_of_unity,
    to_phase_space,
    wavefunction_closed,
    wavefunction_series,
)
from morsecs.errors import (CapabilityError, ConsistencyError, DomainError,
                            TruncationWarning)
from morsecs.morse_core import (ground_x_expectation, pseudo_wavefunction,
                                pseudo_wavefunction_recursive, x_from_y)
from morsecs.numerics import (SymTridiagonal, digamma, gauss_laguerre_rule,
                              laguerre_sequence, symtridiag_eigen)
from morsecs.operators import _band_entries, matrix_A


class TestLabels:
    def test_disk_boundary_rejected(self):
        with pytest.raises(DomainError):
            CoherentLabel(1.0)
        with pytest.raises(DomainError):
            CoherentLabel(0.8 + 0.7j)
        with pytest.raises(DomainError):
            CoherentLabel(complex("inf"))

    def test_interior_accepted(self):
        assert CoherentLabel(0.999).beta == 0.999 + 0j

    def test_phase_space_label_finite(self):
        with pytest.raises(DomainError):
            PhaseSpaceLabel(math.nan, 0.0)
        lab = PhaseSpaceLabel(-2, 3)
        assert lab.x_tilde == -2.0 and lab.p_tilde == 3.0

    def test_state_coeffs_read_only(self):
        st = coefficients(0.2, 1.0, 5)
        with pytest.raises(ValueError):
            st.coeffs[0] = 0.0


class TestGenFactorial:
    def test_small_values(self):
        # Hand: {0}! = 1, {1}! = 1/(2s), {2}! = 2/(2s(2s+1)) = 1/3 at s = 1.
        assert gen_factorial(0, 2.7) == 1.0
        assert abs(gen_factorial(1, 1.0) - 0.5) < 1e-15
        assert abs(gen_factorial(2, 1.0) - 1.0 / 3.0) < 1e-15

    def test_decreasing_when_s_above_half(self):
        vals = [gen_factorial(n, 1.6) for n in range(10)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_negative_n_rejected(self):
        with pytest.raises(DomainError):
            gen_factorial(-1, 1.0)


class TestCoefficients:
    def test_origin_is_ground_state(self):
        c = coefficients(0.0, 1.75, 6).coeffs
        assert c[0] == 1.0 + 0j
        assert np.all(c[1:] == 0.0)

    def test_hand_value_s_one(self):
        # s = 1: C(n+1, n) = n+1, so c_2 = 0.75 * sqrt(3) * 0.25.
        c = coefficients(0.5, 1.0, 4).coeffs
        assert abs(c[2] - 0.1875 * math.sqrt(3.0)) < 1e-15

    def test_normalization_within_tail_bound(self):
        for s, beta, n in [(1.75, 0.4 + 0.2j, 400), (0.75, -0.6, 400),
                           (3.6, 0.55j, 300)]:
            st = coefficients(beta, s, n)
            bound = coefficient_tail_bound(beta, s, n)
            assert abs(st.norm_sq() - 1.0) <= bound + 5e-14

    def test_tail_bound_brackets_true_tail(self):
        s, beta = 1.25, 0.62
        full = coefficients(beta, s, 3000).coeffs
        total = float(np.add.reduce(np.abs(full) ** 2))
        for n in (10, 30, 80):
            part = float(np.add.reduce(np.abs(full[:n]) ** 2))
            true_tail = total - part
            assert true_tail <= coefficient_tail_bound(beta, s, n) + 1e-15

    def test_tail_bound_edge_cases(self):
        assert coefficient_tail_bound(0.0, 1.0, 5) == 0.0
        # q r^2 >= 1: ratio still above 1 at this truncation depth.
        assert math.isinf(coefficient_tail_bound(0.9999, 5.0, 1))

    def test_bad_sizes(self):
        with pytest.raises(DomainError):
            coefficients(0.1, 1.0, 0)

    def test_term_bound(self, monkeypatch):
        # The bound admits exactly _MAX_COEFFICIENTS terms.
        monkeypatch.setattr(coherent, "_MAX_COEFFICIENTS", 4)
        assert coefficients(0.3, 1.75, 4).n_terms == 4
        with pytest.raises(CapabilityError, match="supported maximum"):
            coefficients(0.3, 1.75, 5)


class TestOverlap:
    def test_self_overlap_is_one(self):
        for beta in (0.0, 0.3 - 0.5j, 0.85):
            assert abs(overlap(beta, beta, 1.25) - 1.0) < 1e-14

    def test_ground_overlap(self):
        s, beta = 2.2, 0.4 + 0.35j
        expected = (1.0 - abs(beta) ** 2) ** s
        assert abs(overlap(0.0, beta, s) - expected) < 1e-14

    def test_conjugate_symmetry(self):
        s = 1.4
        for b1, b2 in [(0.3, 0.5j), (0.2 + 0.6j, -0.4 + 0.1j)]:
            assert abs(overlap(b1, b2, s)
                       - overlap(b2, b1, s).conjugate()) < 1e-14

    def test_series_oracle(self):
        # <b1|b2> = sum conj(c_n(b1)) c_n(b2); 2000 terms saturate the
        # geometric decay far below the tolerance.
        s, b1, b2 = 1.25, 0.3, 0.5j
        c1 = coefficients(b1, s, 2000).coeffs
        c2 = coefficients(b2, s, 2000).coeffs
        series = complex(np.add.reduce(c1.conj() * c2))
        assert abs(series - overlap(b1, b2, s)) < 1e-12

    def test_cauchy_schwarz(self):
        assert abs(overlap(0.7, -0.6j, 3.6)) < 1.0


class TestWavefunction:
    def test_origin_reduces_to_ground_state(self):
        y = np.linspace(0.05, 40.0, 97)
        for s in (0.75, 1.75):
            closed = wavefunction_closed(0.0, s, y)
            assert np.abs(closed.imag).max() == 0.0
            assert np.abs(closed.real - pseudo_wavefunction(0, s, y)).max() < 1e-15

    def test_series_matches_closed(self):
        y = np.linspace(0.05, 60.0, 301)
        for s in (0.75, 1.75, 3.6):
            for beta in (0.5, -0.6, 0.3 + 0.4j, 0.6j):
                diff = np.abs(wavefunction_series(beta, s, y, 400)
                              - wavefunction_closed(beta, s, y)).max()
                assert diff < 1e-9, (s, beta, diff)

    def test_scalar_input(self):
        val = wavefunction_closed(0.2j, 1.0, 3.0)
        assert isinstance(val, complex)
        arr = wavefunction_closed(0.2j, 1.0, np.array([3.0]))
        assert abs(val - arr[0]) == 0.0

    def test_closed_form_is_normalized(self):
        # integral |phi|^2 dy/y under the native rule; the ratio against
        # the rule weight stays finite for this label.
        s, beta = 1.25, -0.35
        rule = gauss_laguerre_rule(200, 2.0 * s - 1.0)
        live = rule.weights > 0.0
        y = rule.nodes[live]
        phi = wavefunction_closed(beta, s, y)
        # assemble the envelope ratio in the exponent; the bare
        # exp(y - 2s ln y) overflows at the top nodes before the tiny
        # |phi|^2 can cancel it
        vals = np.exp(2.0 * np.log(np.abs(phi)) + y - 2.0 * s * np.log(y))
        total = float(np.add.reduce(vals * rule.weights[live]))
        assert abs(total - 1.0) < 1e-12

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            wavefunction_closed(0.2, 1.0, -1.0)
        with pytest.raises(DomainError):
            wavefunction_series(0.2, 1.0, np.array([1.0, 0.0]), 50)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("entry", [
        x_from_y,
        lambda y: pseudo_wavefunction(2, 1.75, y),
        lambda y: pseudo_wavefunction_recursive(2, 1.75, y),
        lambda y: wavefunction_series(0.3, 1.75, y, 20),
        lambda y: wavefunction_closed(0.3, 1.75, y),
    ], ids=["x_from_y", "pseudo_wavefunction", "pseudo_wavefunction_recursive",
            "wavefunction_series", "wavefunction_closed"])
    def test_y_must_be_positive_and_finite(self, entry, bad):
        for y in (bad, np.array([1.0, bad])):
            with pytest.raises(DomainError,
                               match="^y must be positive and finite$"):
                entry(y)


class TestPhaseSpaceMaps:
    def test_forward_values(self):
        ps = to_phase_space(0.5, 1.0)
        assert abs(ps.x_tilde - math.log(3.0)) < 1e-15
        assert ps.p_tilde == 0.0
        ps = to_phase_space(0.5j, 1.0)
        # w = (1+i/2)/(1-i/2) = (3 + 4i)/5.
        assert abs(ps.x_tilde - math.log(0.6)) < 1e-15
        assert abs(ps.p_tilde - 4.0 / 3.0) < 1e-15

    def test_origin_fixed_point(self):
        ps = to_phase_space(0.0, 2.3)
        assert ps.x_tilde == 0.0 and ps.p_tilde == 0.0
        assert from_phase_space(ps, 2.3).beta == 0.0 + 0j

    def test_round_trip(self):
        s = 1.6
        for beta in (0.95, -0.95, 0.67j, 0.5 - 0.7j, 1e-8 + 0j):
            lab = from_phase_space(to_phase_space(beta, s), s)
            assert abs(lab.beta - beta) < 1e-14
        for xt, pt in ((0.0, 0.0), (2.5, -30.0), (-3.0, 7.0)):
            ps = to_phase_space(from_phase_space(PhaseSpaceLabel(xt, pt), s), s)
            assert abs(ps.x_tilde - xt) < 1e-12
            assert abs(ps.p_tilde - pt) < 1e-12 * max(1.0, abs(pt))

    def test_tuple_accepted(self):
        assert from_phase_space((0.0, 0.0), 1.0).beta == 0.0 + 0j


class TestPhaseFactor:
    def test_real_labels_have_no_phase(self):
        for beta in (0.0, 0.5, -0.8):
            assert phase_factor(beta, 1.75) == 1.0 + 0j

    def test_unit_modulus(self):
        for beta in (0.3 + 0.4j, -0.2 + 0.65j):
            assert abs(abs(phase_factor(beta, 2.4)) - 1.0) < 1e-15

    def test_hand_value(self):
        # s = 1, beta = i/2: ((1 + i/2)/|1 + i/2|)^2 = (0.6 + 0.8i).
        assert abs(phase_factor(0.5j, 1.0) - (0.6 + 0.8j)) < 1e-15


class TestExpectations:
    def test_ground_state_values(self):
        for s in (0.75, 1.75):
            assert abs(expectation_X(0.0, s)
                       - (math.log(2.0) - digamma(2.0 * s))) < 1e-14
            assert expectation_P(0.0, s) == 0.0

    def test_real_label_shifts_X_only(self):
        val = expectation_X(0.5, 1.0)
        assert abs(val - (math.log(3.0) + ground_x_expectation(1.0))) < 1e-12
        assert expectation_P(0.5, 1.0) == 0.0

    def test_imaginary_label_momentum(self):
        assert abs(expectation_P(0.5j, 1.0) - 4.0 / 3.0) < 1e-12
        assert abs(expectation_X(0.5j, 1.0)
                   - (math.log(0.6) + ground_x_expectation(1.0))) < 1e-12

    def test_quadrature_guard_fires_on_drift(self, monkeypatch):
        import morsecs.coherent as mod
        monkeypatch.setattr(mod, "ground_x_expectation", lambda s: 1e3)
        with pytest.raises(ConsistencyError):
            expectation_X(0.3, 1.0)

    @pytest.mark.parametrize("drifted", [0, 1])
    def test_library_and_verify_read_one_pair(self, monkeypatch, drifted):
        # One (formula, quadrature) pair per moment serves expectation_X/P
        # and verify's rows: a formula drifted by 1e-6 fails both.
        pairs = coherent._expectation_pairs

        def drift(label, s):
            out = [list(pair) for pair in pairs(label, s)]
            out[drifted][0] += 1e-6
            return out

        monkeypatch.setattr(coherent, "_expectation_pairs", drift)
        rows = {r.name: r for r in verify._check_coherent(quick=True)}
        checks = [(rows["position expectation matches quadrature"],
                   expectation_X),
                  (rows["momentum expectation matches quadrature"],
                   expectation_P)]
        for moment, (row, expectation) in enumerate(checks):
            if moment == drifted:
                assert not row.passed and abs(row.residual - 1e-6) < 1e-8
                with pytest.raises(ConsistencyError):
                    expectation(0.3 + 0.2j, 1.75)
            else:
                assert row.passed
                expectation(0.3 + 0.2j, 1.75)


def direct_scipy_jacobi01_rule(n, b):
    """The radial rule as it was built before every tridiagonal eigensolve
    went through symtridiag_eigen, and before it took a second exponent:
    SciPy's default driver, called here, and weights summing to 1 / (b + 1)."""
    k = np.arange(n, dtype=float)
    with np.errstate(invalid="ignore", divide="ignore"):
        alpha = np.where(k == 0, b / (b + 2.0),
                         b * b / ((2.0 * k + b) * (2.0 * k + b + 2.0)))
        beta_k = (4.0 * k * k * (k + b) ** 2
                  / ((2.0 * k + b) ** 2 * (2.0 * k + b + 1.0)
                     * (2.0 * k + b - 1.0)))
    nodes, vecs = scipy.linalg.eigh_tridiagonal((1.0 + alpha) / 2.0,
                                                np.sqrt(beta_k[1:]) / 2.0)
    return nodes, vecs[0, :] ** 2 / (b + 1.0)


@pytest.mark.parametrize("n", [1, 2, 3, 64, 200, 400])
def test_jacobi01_rule_matches_direct_scipy_bitwise(n):
    for b in (-0.98, -0.5, 0.0, 1.5, 8.0):
        nodes, weights = _jacobi01_rule(n, b)
        want_nodes, want_weights = direct_scipy_jacobi01_rule(n, b)
        assert nodes.tobytes() == want_nodes.tobytes(), b
        assert (weights / (b + 1.0)).tobytes() == want_weights.tobytes(), b


@pytest.mark.parametrize("b,a", [(0.0, 0.0), (2.5, -0.98), (-0.5, 3.0),
                                 (1199.0, 398.0)])
def test_jacobi01_rule_integrates_beta_moments(b, a):
    # Weight u^b (1-u)^a normalized to 1: the rule's mean of u^k is
    # B(b+1+k, a+1) / B(b+1, a+1), exact for k < 2n up to rounding (which
    # reaches 4e-12 relative at b = 1199).
    nodes, weights = _jacobi01_rule(12, b, a)
    for k in range(24):
        want = math.exp(scipy.special.betaln(b + 1.0 + k, a + 1.0)
                        - scipy.special.betaln(b + 1.0, a + 1.0))
        assert abs(weights @ nodes ** k - want) <= 1e-10 * want, k


def dense_disk_resolution(s, m, n_radial, n_angular):
    """The polar product rule summed over the full (n, r, theta) panel.

    It takes the module's radial rule, so only the grouping of the sum
    differs; with scipy's roots_jacobi in its place the result moves by up
    to 1.1e-11 at s = 0.75, too much for this comparison."""
    b = 2.0 * s - 2.0
    u, w = _jacobi01_rule(n_radial, b)
    w = w / (b + 1.0)
    r = np.sqrt(1.0 - u)
    theta = 2.0 * math.pi * np.arange(n_angular) / n_angular
    n = np.arange(m)
    binom_sqrt = np.exp(0.5 * (scipy.special.gammaln(n + 2.0 * s)
                               - scipy.special.gammaln(n + 1.0)
                               - scipy.special.gammaln(2.0 * s)))
    z = r[:, None] * np.exp(1j * theta)[None, :]
    panel = binom_sqrt[:, None, None] * z[None, :, :] ** n[:, None, None]
    out = np.einsum("nij,mij->nm", (panel * w[None, :, None]).conj(), panel)
    return (2.0 * s - 1.0) * math.pi / n_angular * out


def row_by_row_phase_space(s, m, box, n_x, n_p):
    """The phase-space sum over the whole grid, one x node at a time, each
    column from exp/log; the q nodes (j - (n_p-1)/2) h of the module."""
    x_nodes = np.linspace(-box[0], box[0], n_x)
    h = 2.0 * box[1] / (n_p - 1)
    q_nodes = (np.arange(n_p) - 0.5 * (n_p - 1)) * h
    w_x = np.full(n_x, x_nodes[1] - x_nodes[0])
    w_x[[0, -1]] *= 0.5
    w_q = np.full(n_p, h)
    w_q[[0, -1]] *= 0.5
    n = np.arange(m)
    log_b = 0.5 * (scipy.special.gammaln(n + 2.0 * s)
                   - scipy.special.gammaln(n + 1.0)
                   - scipy.special.gammaln(2.0 * s))
    out = np.zeros((m, m), dtype=complex)
    for i in range(n_x):
        w = math.exp(x_nodes[i]) + 1j * q_nodes / s
        beta = (w - 1.0) / (w + 1.0)
        ab = np.abs(beta)
        # beta = 0 at x = q = 0: 0 * log 0 is nan in row 0, then replaced.
        with np.errstate(divide="ignore", invalid="ignore", under="ignore"):
            n_log = n[:, None] * np.log(ab)[None, :]
            n_log[0, :] = 0.0
            mag = np.exp(s * np.log1p(-ab * ab)[None, :] + log_b[:, None]
                         + n_log)
        col = mag * np.exp(1j * n[:, None] * np.angle(beta)[None, :])
        weight = w_x[i] * math.exp(-x_nodes[i]) * w_q
        out += (col.conj() * weight) @ col.T
    return out * (2.0 * s - 1.0) / (4.0 * s)


# Regression guard for the former O(m n_radial n_angular) panel: 3 GB for
# these sizes, so under the cap a panel fails as a MemoryError in the child.
_CAPPED_RESOLUTION = """
import math, resource, tracemalloc
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
import numpy as np
from morsecs.coherent import resolution_of_unity
tracemalloc.start()
out = resolution_of_unity(1.75, 400, n_radial=600, n_angular=800)
peak = tracemalloc.get_traced_memory()[1]
dev = np.abs(out - math.pi * np.eye(400)).max()
print(bool(np.isfinite(out).all()), repr(float(dev)), peak)
"""


class TestResolutionOfUnity:
    @pytest.mark.parametrize("s", [0.75, 1.75, 4.9])
    @pytest.mark.parametrize("m", [1, 6, 12])
    @pytest.mark.parametrize("angular", ["2m", 64])
    def test_matches_dense_panel(self, s, m, angular):
        n_angular = 2 * m if angular == "2m" else angular
        out = resolution_of_unity(s, m, n_radial=200, n_angular=n_angular)
        ref = dense_disk_resolution(s, m, 200, n_angular)
        assert np.abs(out - ref).max() < 1e-12

    @pytest.mark.skipif(sys.platform != "linux",
                        reason="RLIMIT_AS caps the address space on Linux")
    def test_large_truncation_under_memory_cap(self):
        result = subprocess.run([sys.executable, "-c", _CAPPED_RESOLUTION],
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        finite, dev, peak = result.stdout.split()
        assert finite == "True"
        assert float(dev) < 1e-10
        assert int(peak) < 64 * 2 ** 20

    def test_disk_integral_is_pi_identity(self):
        m = 12
        out = resolution_of_unity(1.75, m, n_radial=200, n_angular=64)
        assert np.abs(out - math.pi * np.eye(m)).max() < 1e-10

    def test_small_s_above_threshold(self):
        m = 6
        out = resolution_of_unity(0.75, m, n_radial=200, n_angular=32)
        assert np.abs(out - math.pi * np.eye(m)).max() < 1e-10

    def test_measure_divergence_rejected(self):
        with pytest.raises(DomainError):
            resolution_of_unity(0.5, 4)

    def test_angular_undersampling_rejected(self):
        with pytest.raises(DomainError):
            resolution_of_unity(1.75, 8, n_angular=10)

    @pytest.mark.parametrize("sizes", [
        {"n_radial": _MAX_RADIAL_POINTS + 1},
        {"n_angular": _MAX_ANGULAR_POINTS + 1},
        {"n_radial": 10 ** 9, "n_angular": 10 ** 9},
    ])
    def test_sizes_beyond_caps_are_capability_errors(self, sizes):
        with pytest.raises(CapabilityError, match="supported maximum"):
            resolution_of_unity(1.75, 3, **sizes)

    def test_sizes_at_caps_are_legal(self):
        out = resolution_of_unity(1.75, 3, n_radial=_MAX_RADIAL_POINTS,
                                  n_angular=_MAX_ANGULAR_POINTS)
        assert np.abs(out - math.pi * np.eye(3)).max() < 1e-10


def q_strip_mpmath(s, box_q, panels=400):
    """The |q| > Q strip of the envelope over all x, by 30-digit quadrature:
    C 4^{2s} B(6s, 2s-1) times the Beta(6s, 2s-1) mean of the q fraction
    g(t) = I_v(2s - 1/2, 1/2), v = 1 / (1 + (Q t / s)^2). Below s = 1 the
    weight's (1 - t)^{2s-2} end is taken out by 1 - t = w^{1/(2s-1)}, with
    breakpoints where Q t / s = 1, 3, 10, 30 and on a 1/32 grid; from s = 1
    it is Gauss-Legendre on `panels` equal panels in t."""
    with mpmath.workdps(30):
        ms, mq = mpmath.mpf(s), mpmath.mpf(box_q)
        a, b, c = 6 * ms, 2 * ms - 1, 2 * ms - mpmath.mpf(1) / 2
        scale = ms * mpmath.beta(0.5, c) * 4 ** (2 * ms)
        g = lambda t: mpmath.betainc(c, 0.5, 0, ms ** 2 / ((mq * t) ** 2
                                                            + ms ** 2),
                                     regularized=True)
        if b < 1:
            t_of = lambda w: 1 - w ** (1 / b)
            pts = {mpmath.mpf(0), mpmath.mpf(1)}
            pts |= {(1 - k * ms / mq) ** b for k in (1, 3, 10, 30)
                    if k * ms / mq < 1}
            pts |= {mpmath.mpf(k) / 32 for k in range(1, 32)}
            return scale * mpmath.quad(
                lambda w: t_of(w) ** (a - 1) * g(t_of(w)) / b, sorted(pts))
        log_b = mpmath.log(mpmath.beta(a, b))
        dens = lambda t: mpmath.exp((a - 1) * mpmath.log(t)
                                    + (b - 1) * mpmath.log1p(-t) - log_b)
        return scale * mpmath.beta(a, b) * mpmath.quad(
            lambda t: dens(t) * g(t),
            [mpmath.mpf(k) / panels for k in range(panels + 1)],
            method="gauss-legendre")


# q_strip_mpmath(s, Q) for s in rows (0.51, 0.76, 1.75, 2.5, 5, 20, 200)
# and Q in columns (80, 200, 400); 400 panels from s = 1.
Q_STRIP_REFERENCE = (
    (1.02938938661705, 0.396942745148077, 0.193044535410939),
    (5.08573258987076e-4, 7.845475495159e-5, 1.90777592191314e-5),
    (1.7494710034014e-10, 7.19157824335729e-13, 1.12426393403708e-14),
    (3.16270830779578e-14, 8.39052721137169e-18, 1.64159994655829e-20),
    (7.70785957164643e-24, 2.36376666852084e-31, 4.58136684861859e-37),
    (4.31421667468177e-52, 6.79799055922174e-81, 3.30509898867959e-104),
    (2.0103205405215e-165, 1.65807316823414e-224, 6.96208614374439e-339),
)


_CAPPED_PHASE_SPACE = """
import resource, tracemalloc, warnings
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
import numpy as np
from morsecs.coherent import (_MAX_PS_BASIS, _PS_BLOCK,
                              phase_space_measure_check)
from morsecs.errors import TruncationWarning
warnings.simplefilter("ignore", TruncationWarning)
tracemalloc.start()
out = phase_space_measure_check(1.75, _MAX_PS_BASIS, box=(8.0, 80.0),
                                n_x=2, n_p=8 * _PS_BLOCK)
print(bool(np.isfinite(out).all()), tracemalloc.get_traced_memory()[1])
"""


class TestPhaseSpaceMeasure:
    def test_sheared_box_reaches_tolerance(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            out = phase_space_measure_check(1.75, 8, box=(8.0, 80.0))
        assert np.abs(out - math.pi * np.eye(8)).max() < 1e-3

    def test_matches_disk_form(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ps = phase_space_measure_check(1.75, 6, box=(10.0, 200.0))
        disk = resolution_of_unity(1.75, 6, n_radial=200, n_angular=64)
        assert np.abs(ps - disk).max() < 1e-4

    @pytest.mark.parametrize("s,m,box,n_x,n_p", [
        (1.75, 8, (8.0, 80.0), 206, 878),
        (1.75, 8, (10.0, 200.0), 242, 2101),
        (0.8, 3, (8.0, 80.0), 104, 575),
        (4.5, 2, (10.0, 200.0), 89, 177),    # beta = 0 is a node
        (1.0, 1, (8.0, 80.0), 80, 100),
        (1.75, 4, (4.0, 20.0), 30, 2),       # the half grid is q = Q
        (0.9, 3, (4.0, 20.0), 9, 3),         # q = 0 and q = Q
        (0.5000001, 7, (4.0, 30.0), 40, 700),  # several rows per block
        (0.76, 12, (8.0, 80.0), 30, 1501),
        (1.91, 5, (10.0, 200.0), 30, 5000),  # half rows of 2500 nodes
        # Half rows wider than one block, odd and even n_p.
        (0.51, 12, (6.0, 50.0), 12, 2 * _PS_BLOCK + 3),
        (1.3, 6, (6.0, 60.0), 7, 2 * _PS_BLOCK + 2),
    ])
    def test_blocked_sum_matches_row_by_row(self, s, m, box, n_x, n_p):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            out = phase_space_measure_check(s, m, box=box, n_x=n_x, n_p=n_p)
        ref = row_by_row_phase_space(s, m, box, n_x, n_p)
        assert np.abs(out - ref).max() < 1e-13

    def test_result_is_real(self):
        # Mirror pairs q, -q sum to a real matrix, returned as one.
        out = phase_space_measure_check(1.75, 6, box=(10.0, 200.0))
        assert out.dtype == np.float64 and out.shape == (6, 6)

    @pytest.mark.parametrize("n_x,n_p", [(1, 100), (0, 100), (100, 1),
                                         (100, -5), (1, 10 ** 12)])
    def test_grids_below_two_nodes_rejected(self, n_x, n_p):
        # Refused before the node cap is read, so before any allocation.
        with pytest.raises(DomainError, match="n_x, n_p >= 2"):
            phase_space_measure_check(1.75, 2, n_x=n_x, n_p=n_p)

    @pytest.mark.parametrize("m_basis,box,nodes", [
        (_MAX_PS_BASIS + 1, (8.0, 80.0), {"n_x": 10, "n_p": 10}),
        (10 ** 9, (8.0, 80.0), {"n_x": 10, "n_p": 10}),
        (2, (8.0, 80.0), {"n_x": 2, "n_p": _MAX_PS_NODES // 2 + 1}),
        (2, (8.0, 80.0), {"n_x": 10 ** 9, "n_p": 10 ** 9}),
        # Default node counts past float range are clipped, not int()ed:
        # 8 box[1] overflows, while box[1] itself is a legal extent.
        (2, (8.0, 8e307), {}),
    ])
    def test_sizes_beyond_caps_are_capability_errors(self, m_basis, box,
                                                     nodes):
        with pytest.raises(CapabilityError, match="supported maximum"):
            phase_space_measure_check(1.75, m_basis, box=box, **nodes)

    def test_caps_admit_their_bound(self, monkeypatch):
        # The bounds admit exactly _MAX_PS_BASIS states on _MAX_PS_NODES.
        monkeypatch.setattr(coherent, "_MAX_PS_BASIS", 3)
        monkeypatch.setattr(coherent, "_MAX_PS_NODES", 20 * 30)
        out = phase_space_measure_check(1.75, 3, n_x=20, n_p=30)
        assert out.shape == (3, 3)
        for m_basis, n_x, n_p in ((4, 20, 30), (3, 20, 31)):
            with pytest.raises(CapabilityError, match="supported maximum"):
                phase_space_measure_check(1.75, m_basis, n_x=n_x, n_p=n_p)

    @pytest.mark.skipif(sys.platform != "linux",
                        reason="RLIMIT_AS caps the address space on Linux")
    def test_basis_cap_under_memory_cap(self):
        # Half rows of 4 blocks at the basis cap: memory follows the block,
        # m (_PS_BLOCK + m) values, not the row.
        result = subprocess.run(
            [sys.executable, "-c", _CAPPED_PHASE_SPACE],
            capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        finite, peak = result.stdout.split()
        assert finite == "True"
        assert int(peak) < 4 * 16 * _MAX_PS_BASIS * (_PS_BLOCK + _MAX_PS_BASIS)

    def test_small_box_warns(self):
        with pytest.warns(TruncationWarning):
            phase_space_measure_check(1.75, 4, box=(2.0, 5.0),
                                      n_x=100, n_p=100)

    @pytest.mark.parametrize("s", [0.51, 0.75, 1.75, 5.0, 20.0])
    @pytest.mark.parametrize("box_x", [2.0, 8.0])
    def test_x_strips_match_mpmath(self, s, box_x):
        # The |x| > X strips of the envelope, 2s B(1/2, 2s - 1/2) / 2 times
        # 4^{2s} e^{(2s-1)x} (1 + e^x)^{1-8s}, as incomplete Beta functions
        # evaluated at 40 digits.
        with mpmath.workdps(40):
            ms, t = mpmath.mpf(s), 1 / (1 + mpmath.exp(box_x))
            a, b = 2 * ms - 1, 6 * ms
            # Unregularized: each term carries its B(a, b).
            want = (ms * mpmath.beta(0.5, 2 * ms - 0.5) * 4 ** (2 * ms)
                    * (mpmath.betainc(a, b, 0, t) + mpmath.betainc(b, a, 0, t)))
        got = _x_strip_mass(s, box_x)
        assert abs(got - want) <= 1e-14 * want

    @pytest.mark.parametrize("s", [0.51, 0.75, 1.75])
    def test_x_strips_match_quadrature_in_x(self, s):
        # An independent route to the same mass: quadrature of the envelope
        # itself in x, with breakpoints on the scale of its decay.
        box_x = 8.0
        with mpmath.workdps(20):
            ms = mpmath.mpf(s)
            c = ms * mpmath.beta(0.5, 2 * ms - 0.5) * 4 ** (2 * ms)
            f = lambda x: (c * mpmath.exp((2 * ms - 1) * x)
                           * (1 + mpmath.exp(x)) ** (1 - 8 * ms))
            right = [box_x + j / (6 * ms) for j in range(0, 61, 4)]
            left = [-box_x - j / (2 * ms - 1) for j in range(60, -1, -4)]
            want = (mpmath.quad(f, right + [mpmath.inf])
                    + mpmath.quad(f, [-mpmath.inf] + left))
        assert abs(_x_strip_mass(s, box_x) - want) <= 1e-13 * want

    @pytest.mark.parametrize("s,want", zip(
        (0.51, 0.76, 1.75, 2.5, 5.0, 20.0, 200.0), Q_STRIP_REFERENCE))
    @pytest.mark.parametrize("col,box_q", enumerate((80.0, 200.0, 400.0)))
    def test_q_strip_matches_mpmath(self, s, want, col, box_q):
        got = _q_strip_mass(s, box_q)
        if want[col] < sys.float_info.min:
            # Below the normal range (s = 200, Q = 400): only the size.
            assert got < sys.float_info.min
        else:
            assert abs(got - want[col]) <= 1e-8 * want[col]

    @pytest.mark.parametrize("s,col,box_q", [(0.76, 1, 200.0),
                                             (1.75, 1, 200.0)])
    def test_q_strip_reference_table(self, s, col, box_q):
        # The table above comes from q_strip_mpmath, one case per route.
        row = (0.51, 0.76, 1.75, 2.5, 5.0, 20.0, 200.0).index(s)
        want = q_strip_mpmath(s, box_q, panels=100)
        assert abs(Q_STRIP_REFERENCE[row][col] - want) <= 1e-13 * want

    @pytest.mark.parametrize("s", [0.51, 0.76, 1.75, 20.0, 200.0])
    def test_q_strip_is_the_whole_envelope_as_the_box_closes(self, s):
        # At Q -> 0 every q lies outside: the strip is the envelope's total
        # mass C 4^{2s} B(6s, 2s - 1).
        total = math.exp(_log_envelope_scale(s)
                         + scipy.special.betaln(6.0 * s, 2.0 * s - 1.0))
        assert abs(_q_strip_mass(s, 1e-300) - total) <= 1e-11 * total

    def test_tail_estimate_shrinks_with_box(self):
        est = [phase_space_tail_estimate(1.75, 8, box)
               for box in ((4.0, 20.0), (8.0, 80.0), (12.0, 400.0))]
        assert est[0] > est[1] > est[2] > 0.0

    def test_measure_divergence_rejected(self):
        with pytest.raises(DomainError):
            phase_space_measure_check(0.5, 4)

    # At (8, 1e308) the q spacing 2 box[1] / (n_p - 1) overflowed and the
    # check returned nan.
    @pytest.mark.parametrize("box", [(800.0, 80.0), (math.nan, 80.0),
                                     (8.0, math.inf), (8.0, 1e308)])
    def test_box_beyond_float_range_rejected(self, box):
        with pytest.raises(DomainError):
            phase_space_measure_check(1.75, 2, box=box, n_x=10, n_p=10)

    @pytest.mark.parametrize("m_basis,box", [
        (0, (8.0, 80.0)), (-3, (8.0, 80.0)), (2, (800.0, 80.0)),
        (2, (math.nan, 80.0)), (2, (8.0, math.nan)), (2, (8.0, math.inf)),
        (2, (math.inf, 80.0)), (2, (0.0, 80.0)), (2, (8.0, -1.0)),
        (2, (8.0, 1e308))])
    def test_tail_estimate_rejects_what_the_check_rejects(self, m_basis, box):
        # The estimate and the check refuse the same arguments, each with
        # a DomainError, and the estimate never answers nan.
        for call in (phase_space_tail_estimate, phase_space_measure_check):
            with pytest.raises(DomainError):
                call(1.75, m_basis, box)

    @pytest.mark.parametrize("s,m_basis,box", [
        (0.51, 1, (4.0, 20.0)), (1.75, 8, (8.0, 80.0)),
        (5.0, 40, (12.0, 400.0)), (200.0, 3, (700.0, 1e6))])
    def test_tail_estimate_reads_the_last_binomial(self, s, m_basis, box):
        # Envelope factor at n = m_basis - 1, to the bit.
        b_max_sq = math.exp(2.0 * _log_binom_sqrt(s, m_basis)[-1])
        pieces = _q_strip_mass(s, box[1]) + _x_strip_mass(s, box[0])
        want = (2.0 * s - 1.0) / (4.0 * s) * b_max_sq * pieces
        assert phase_space_tail_estimate(s, m_basis, box) == want


def dense_displacement(ps, s, n, ordering):
    """The documented product formula, with dense scipy.linalg.expm."""
    a = matrix_A(s, 0, n)
    ph = phase_factor(from_phase_space(ps, s), s)
    xt, pt = ps.x_tilde, ps.p_tilde
    shift = scipy.linalg.expm(0.5 * xt * (a.T - a))
    if ordering == "xp":
        boost = scipy.linalg.expm((0.5j / s) * pt * (a + a.T))
        return ph * cmath.exp(-1j * pt) * (shift @ boost)
    pe = pt * math.exp(xt)
    boost = scipy.linalg.expm((0.5j / s) * pe * (a + a.T))
    return ph * cmath.exp(-1j * pe) * (boost @ shift)


def per_ordering_displacement(ps, s, n, ordering):
    """One ordering at a time, each factor from its own eigendecomposition:
    the construction the pair returned by displacement_matrix must match
    bit for bit."""
    def exp_i(t, theta):
        if theta == 0.0:
            return np.eye(t.order)
        vals, vecs = symtridiag_eigen(t, want_vectors=True)
        return (vecs * np.exp(1j * theta * vals)) @ vecs.T

    band = _band_entries(s, n)
    ph = phase_factor(from_phase_space(ps, s), s)
    xt = ps.x_tilde
    pb = ps.p_tilde if ordering == "xp" else ps.p_tilde * math.exp(xt)
    u = np.array([1.0, 1j, -1.0, -1j])[np.arange(n) % 4]
    shift = (u[:, None] * exp_i(SymTridiagonal(np.zeros(n), band), -0.5 * xt)
             * u.conj()).real
    boost = exp_i(SymTridiagonal(-2.0 * np.arange(n), band), 0.5 * pb / s)
    d = shift @ boost if ordering == "xp" else boost @ shift
    return ph * cmath.exp(-1j * pb) * d


class TestDisplacement:
    def test_matches_dense_matrix_exponentials(self):
        s = 1.75
        labels = [PhaseSpaceLabel(0.5, 1.0), PhaseSpaceLabel(-1.2, 7.5),
                  PhaseSpaceLabel(0.0, -3.0), PhaseSpaceLabel(1.0, 0.0)]
        for n in (8, 40, 150):
            for ps in labels:
                pair = displacement_matrix(ps, s, n)
                for ordering, got in zip(("xp", "px"), pair):
                    want = dense_displacement(ps, s, n, ordering)
                    dev = np.abs(got - want).max()
                    assert dev < 1e-12, (n, ps, ordering, dev)

    @pytest.mark.parametrize("n", [3, 5, 150, 300, 450, 451])
    def test_pair_matches_per_ordering_construction_bitwise(self, n):
        # Above 256 KiB NumPy scales an unnamed temporary in place, which
        # rounds differently; orders from 150 are past that size. At 3 and
        # 5 the compared block is one entry, and a one-row product goes to
        # gemv or dot, which sum in another order than gemm.
        for s, ps in ((1.75, PhaseSpaceLabel(0.5, 1.0)),
                      (0.1, PhaseSpaceLabel(3.0, 50.0)),
                      (4.2, PhaseSpaceLabel(-1.3, -6.0)),
                      (1.75, PhaseSpaceLabel(0.0, 2.0)),
                      (1.75, PhaseSpaceLabel(-0.7, 0.0)),
                      (1.75, PhaseSpaceLabel(0.0, 0.0))):
            pair = displacement_matrix(ps, s, n)
            for ordering, got in zip(("xp", "px"), pair):
                want = per_ordering_displacement(ps, s, n, ordering)
                assert got.tobytes() == want.tobytes(), (n, s, ps, ordering)
            # The checked path forms d_px on its leading third only; its
            # three numbers are those the full pair gives, bit for bit.
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", TruncationWarning)
                unit, d_e0, ordering = displacement_check(ps, s, n)
            d_xp, d_px = pair
            k = n // 3
            assert unit == float(np.abs(d_xp.conj().T @ d_xp
                                        - np.eye(n)).max()), (n, s, ps)
            assert d_e0.tobytes() == d_xp[:, 0].tobytes(), (n, s, ps)
            # A view into d_xp, so np.vdot sums it in the same order.
            assert d_e0.strides == d_xp[:, 0].strides
            assert ordering == float(np.abs((d_xp - d_px)[:k, :k]).max())

    def test_check_warns_on_truncated_intermediate_state(self):
        # The xp ordering's intermediate state (0, 50) at s = 0.1 has a
        # coefficient tail bound of 15.5 at order 300: one warning names
        # it. A small boost is silent.
        with pytest.warns(TruncationWarning, match=r"1\.552e\+01") as rec:
            displacement_check((3.0, 50.0), 0.1, 300)
        assert len(rec) == 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            displacement_check((0.5, 1.0), 1.75, 300)

    def test_peak_memory_for_both_orderings(self):
        n = 1024
        tracemalloc.start()
        try:
            displacement_matrix((0.5, 1.0), 1.75, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5.25 * 16 * n * n

    def test_identity_at_origin(self):
        for d in displacement_matrix(PhaseSpaceLabel(0.0, 0.0), 1.75, 8):
            assert np.abs(d - np.eye(8)).max() == 0.0

    def test_unitarity(self):
        n = 200
        for d in displacement_matrix(PhaseSpaceLabel(0.5, 1.0), 1.75, n):
            assert np.abs(d.conj().T @ d - np.eye(n)).max() < 1e-10

    def test_generates_coherent_state_with_phase(self):
        s, n = 1.75, 300
        ps = PhaseSpaceLabel(0.5, 1.0)
        d, _ = displacement_matrix(ps, s, n)
        want = coefficients(from_phase_space(ps, s), s, n).coeffs
        assert np.abs(d[:, 0] - want).max() < 1e-12

    def test_orderings_agree_away_from_truncation_edge(self):
        # The corner rows commit different truncation errors; matrix
        # elements on the protected top-left block are ordering-free.
        s, n = 1.75, 300
        ps = PhaseSpaceLabel(0.5, 1.0)
        d1, d2 = displacement_matrix(ps, s, n)
        k = n // 2
        assert np.abs((d1 - d2)[:k, :k]).max() < 1e-10

    def test_validation(self):
        with pytest.raises(DomainError):
            displacement_matrix(PhaseSpaceLabel(0.0, 0.0), 1.0, 1)
        # Order 2 is a legal operator but leaves no block to compare on.
        assert displacement_matrix((0.5, 1.0), 1.75, 2)[1].shape == (2, 2)
        with pytest.raises(DomainError, match="n_dim >= 3"):
            displacement_check((0.5, 1.0), 1.75, 2)
        with pytest.raises(CapabilityError, match="supported maximum"):
            displacement_matrix((0.5, 1.0), 1.75, _MAX_DISPLACEMENT_ORDER + 1)


class TestProjection:
    @pytest.mark.parametrize("s", [0.6, 1.75, 4.2, 30.0])
    def test_bits_of_the_written_out_normalizer(self, s):
        # The basis normalizer comes from morse_core; the projection keeps
        # the bits of the expression it used to write out inline.
        rule = gauss_laguerre_rule(200, 2.0 * s - 1.0)
        f = lambda y: wavefunction_closed(0.4 + 0.2j, s, y)
        got = project_onto_basis(f, s, 12, rule)
        live = rule.weights > 0.0
        y, w = rule.nodes[live], rule.weights[live]
        log_n = np.array([-0.5 * (math.lgamma(n + 2.0 * s)
                                  - math.lgamma(n + 1.0)) for n in range(12)])
        rows = laguerre_sequence(11, 2.0 * s - 1.0, y) * np.exp(log_n)[:, None]
        with np.errstate(over="ignore"):
            strip = f(y) * np.exp(0.5 * y - s * np.log(y))
        assert got.tobytes() == ((rows * w) @ strip).tobytes()

    def test_basis_functions_project_to_unit_vectors(self):
        s = 1.75
        rule = gauss_laguerre_rule(200, 2.0 * s - 1.0)
        got = project_onto_basis(lambda y: pseudo_wavefunction(3, s, y),
                                 s, 8, rule)
        want = np.zeros(8)
        want[3] = 1.0
        assert np.abs(got - want).max() < 1e-12

    def test_coherent_wavefunction_recovers_coefficients(self):
        s, beta = 1.75, 0.4
        rule = gauss_laguerre_rule(200, 2.0 * s - 1.0)
        got = project_onto_basis(lambda y: wavefunction_closed(beta, s, y),
                                 s, 12, rule)
        assert np.abs(got - coefficients(beta, s, 12).coeffs).max() < 1e-10

    def test_linearity(self):
        s = 1.0
        rule = gauss_laguerre_rule(150, 2.0 * s - 1.0)

        def f(y):
            return (2.0 * pseudo_wavefunction(1, s, y)
                    + 3.0j * pseudo_wavefunction(4, s, y))

        got = project_onto_basis(f, s, 6, rule)
        want = np.zeros(6, dtype=complex)
        want[1] = 2.0
        want[4] = 3.0j
        assert np.abs(got - want).max() < 1e-12

    def test_default_rule(self):
        got = project_onto_basis(lambda y: pseudo_wavefunction(2, 1.0, y),
                                 1.0, 4)
        assert abs(got[2] - 1.0) < 1e-12

    def test_callable_evaluated_once_on_live_nodes(self):
        s = 1.75
        rule = gauss_laguerre_rule(200, 2.0 * s - 1.0)
        calls = []

        def f(y):
            calls.append(np.shape(y))
            return pseudo_wavefunction(3, s, y)

        project_onto_basis(f, s, 8, rule)
        assert calls == [(int(np.count_nonzero(rule.weights > 0.0)),)]

    @pytest.mark.parametrize("f", [lambda y: 1.0, lambda y: np.ones(3),
                                   lambda y: np.ones((y.size, 2))])
    def test_wrong_shape_rejected(self, f):
        with pytest.raises(DomainError, match="one value per node"):
            project_onto_basis(f, 1.75, 4)

    def test_default_rule_beyond_float_range_is_capability_error(self):
        # alpha = 2s - 1 = 179: the default rule's weights leave float range.
        s = 90.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CapabilityError, match="exceeds float range"):
                project_onto_basis(lambda y: wavefunction_closed(0.3, s, y),
                                   s, 8)


class TestStrongContinuity:
    def test_norm_difference_scales_linearly(self):
        s, beta = 1.75, 0.9 + 0j

        def dist(delta):
            other = beta - delta * (1.0 + 1.0j) / math.sqrt(2.0)
            ovl = overlap(beta, other, s)
            return math.sqrt(max(0.0, 2.0 - 2.0 * ovl.real))

        d1 = dist(1e-6)
        d2 = dist(5e-7)
        assert d1 < 1e-2
        assert 1.9 < d1 / d2 < 2.1
