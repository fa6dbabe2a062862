"""Coherent states labeled by the open unit disk: coefficients, overlaps,
wavefunctions, phase-space labels, resolutions of unity, expectation values,
and the unitary displacement operator.

Branch convention. Every complex power in this module ((1-beta)^{-2s},
(1 - conj(beta1) beta2)^{-2s}, the unit-modulus phase factor) is taken on
the principal branch. All the bases have positive real part when the labels
stay inside the open disk, so the cut is never touched and the phases of the
closed wavefunction, the phase factor, and the displacement operator are
mutually consistent.

Phase-space coordinates. With w = (1 + beta)/(1 - beta) (right half plane),
the labels are x = ln Re w and p = s Im w / Re w; the map is a bijection of
the plane onto the disk.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.special

from .errors import (CapabilityError, ConsistencyError, DomainError,
                     TruncationWarning)
from .morse_core import (_check_s, _check_y, _log_basis_norm,
                         _log_basis_norms, _log_envelope,
                         ground_x_expectation, y_from_x)
from .numerics import (SymTridiagonal, gauss_laguerre_rule, laguerre_sequence,
                       symtridiag_eigen)
from .operators import _band_entries

__all__ = [
    "CoherentLabel",
    "PhaseSpaceLabel",
    "CoherentState",
    "gen_factorial",
    "coefficients",
    "coefficient_tail_bound",
    "overlap",
    "wavefunction_series",
    "wavefunction_closed",
    "to_phase_space",
    "from_phase_space",
    "phase_factor",
    "expectation_X",
    "expectation_P",
    "resolution_of_unity",
    "phase_space_measure_check",
    "phase_space_tail_estimate",
    "displacement_matrix",
    "displacement_check",
    "project_onto_basis",
]


@dataclass(frozen=True)
class CoherentLabel:
    """A point beta of the open unit disk."""

    beta: complex

    def __post_init__(self):
        beta = complex(self.beta)
        if not (math.isfinite(beta.real) and math.isfinite(beta.imag)):
            raise DomainError("beta must be finite")
        if abs(beta) >= 1.0:
            raise DomainError(
                f"|beta| = {abs(beta)} is outside the open unit disk")
        object.__setattr__(self, "beta", beta)


@dataclass(frozen=True)
class PhaseSpaceLabel:
    """The pair (x, p) equivalent to a disk label."""

    x_tilde: float
    p_tilde: float

    def __post_init__(self):
        if not (math.isfinite(self.x_tilde) and math.isfinite(self.p_tilde)):
            raise DomainError("phase-space labels must be finite")
        object.__setattr__(self, "x_tilde", float(self.x_tilde))
        object.__setattr__(self, "p_tilde", float(self.p_tilde))


@dataclass(frozen=True)
class CoherentState:
    """Truncated coefficient vector of |beta> over the pseudo-number basis."""

    s: float
    label: CoherentLabel
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.ascontiguousarray(self.coeffs, dtype=complex)
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def n_terms(self) -> int:
        return self.coeffs.size

    def norm_sq(self) -> float:
        # NumPy's pairwise summation: not ascending, but a fixed order for
        # a given length, so the output is reproducible.
        return float(np.add.reduce(np.abs(self.coeffs) ** 2))


def _as_label(label) -> CoherentLabel:
    if isinstance(label, CoherentLabel):
        return label
    return CoherentLabel(label)


def _as_ps(ps) -> PhaseSpaceLabel:
    if isinstance(ps, PhaseSpaceLabel):
        return ps
    return PhaseSpaceLabel(*ps)


def gen_factorial(n: int, s: float) -> float:
    """{n}! = n! / (2s (2s+1) ... (2s+n-1)), the inverse binomial weight."""
    s = _check_s(s)
    n = int(n)
    if n < 0:
        raise DomainError("n must be >= 0")
    return math.exp(2.0 * (_log_basis_norm(n, s) - _log_basis_norm(0, s)))


def _log_binom_sqrt(s: float, n_terms: int) -> np.ndarray:
    # 0.5 * ln C(n+2s-1, n) for n = 0 .. n_terms-1, from phi_n's normalizer.
    return _log_basis_norm(0, s) - _log_basis_norms(n_terms, s)


# Most coefficients of one state, 4 MiB of complex128 at the cap; the
# `coherent` report at the cap peaks at about 0.18 GB resident (JSON).
_MAX_COEFFICIENTS = 1 << 18


def coefficients(label, s: float, n_terms: int) -> CoherentState:
    """First n_terms coefficients c_n = (1-|b|^2)^s sqrt(C(n+2s-1,n)) b^n.

    The binomial square root is assembled in log space; the power b^n is
    taken directly (it only ever decays). At b = 0 the vector is e_0. More
    than _MAX_COEFFICIENTS terms raise CapabilityError before anything is
    allocated.
    """
    label = _as_label(label)
    s = _check_s(s)
    n_terms = int(n_terms)
    if n_terms < 1:
        raise DomainError("n_terms must be >= 1")
    if n_terms > _MAX_COEFFICIENTS:
        raise CapabilityError(
            f"{n_terms} coefficients exceed the supported maximum "
            f"of {_MAX_COEFFICIENTS}")
    b = label.beta
    n = np.arange(n_terms)
    log_mag = s * math.log1p(-abs(b) ** 2) + _log_binom_sqrt(s, n_terms)
    with np.errstate(under="ignore"):
        c = np.exp(log_mag) * np.power(b, n)
    return CoherentState(s=s, label=label, coeffs=c)


def coefficient_tail_bound(label, s: float, n_terms: int) -> float:
    """Upper bound on the weight sum_{n >= n_terms} |c_n|^2.

    Geometric-type remainder: the binomial ratio C(n+2s,n+1)/C(n+2s-1,n)
    = (n+2s)/(n+1) is monotone in n, so the tail is dominated by its first
    term times a geometric series of ratio q r^2, q = max(1, (N+2s)/(N+1)).
    Returns inf if q r^2 >= 1 (truncation too short for the bound to close).
    """
    label = _as_label(label)
    s = _check_s(s)
    n_terms = int(n_terms)
    if n_terms < 1:
        raise DomainError("n_terms must be >= 1")
    r_sq = abs(label.beta) ** 2
    if r_sq == 0.0:
        return 0.0
    q = max(1.0, (n_terms + 2.0 * s) / (n_terms + 1.0))
    if q * r_sq >= 1.0:
        return math.inf
    log_first = (2.0 * s * math.log1p(-r_sq)
                 + 2.0 * (_log_basis_norm(0, s) - _log_basis_norm(n_terms, s))
                 + n_terms * math.log(r_sq))
    return math.exp(log_first) / (1.0 - q * r_sq)


def overlap(label1, label2, s: float) -> complex:
    """<beta1|beta2> = (1-|b1|^2)^s (1-|b2|^2)^s (1 - conj(b1) b2)^{-2s}."""
    b1 = _as_label(label1).beta
    b2 = _as_label(label2).beta
    s = _check_s(s)
    return cmath.exp(s * math.log1p(-abs(b1) ** 2)
                     + s * math.log1p(-abs(b2) ** 2)
                     - 2.0 * s * cmath.log(1.0 - b1.conjugate() * b2))


def _w_of(beta: complex) -> complex:
    return (1.0 + beta) / (1.0 - beta)


def _log_prefactor(beta: complex, s: float) -> float:
    return s * math.log1p(-abs(beta) ** 2) + _log_basis_norm(0, s)


def wavefunction_series(label, s: float, y, n_terms: int):
    """Coordinate wavefunction of |beta> as a truncated Laguerre series.

    (1-|b|^2)^s Gamma(2s)^{-1/2} y^s e^{-y/2} sum_{n < n_terms} b^n L_n^{2s-1}(y),
    the sum one tensordot in NumPy/BLAS order: not ascending in n, but
    fixed for a given shape, so the output is reproducible.
    """
    label = _as_label(label)
    s = _check_s(s)
    n_terms = int(n_terms)
    if n_terms < 1:
        raise DomainError("n_terms must be >= 1")
    y_arr = _check_y(y)
    b = label.beta
    lag = laguerre_sequence(n_terms - 1, 2.0 * s - 1.0, y_arr)
    powers = np.power(b, np.arange(n_terms))
    series = np.tensordot(powers, lag, axes=(0, 0))
    with np.errstate(under="ignore"):
        env = np.exp(_log_prefactor(b, s) + s * np.log(y_arr) - 0.5 * y_arr)
    out = env * series
    return complex(out) if np.ndim(y) == 0 else out


def wavefunction_closed(label, s: float, y):
    """Closed form of the same wavefunction, via one complex exponential.

    (1-|b|^2)^s Gamma(2s)^{-1/2} (1-b)^{-2s} y^s exp(-(y/2)(1+b)/(1-b)),
    principal branch of (1-b)^{-2s}. The whole expression is assembled in
    the exponent, so extreme y cannot overflow on the way.
    """
    label = _as_label(label)
    s = _check_s(s)
    y_arr = _check_y(y)
    b = label.beta
    w = _w_of(b)
    const = (_log_prefactor(b, s) - 2.0 * s * cmath.log(1.0 - b))
    with np.errstate(under="ignore"):
        out = np.exp(const + s * np.log(y_arr) - 0.5 * w * y_arr)
    return complex(out) if np.ndim(y) == 0 else out


def to_phase_space(label, s: float) -> PhaseSpaceLabel:
    """(x, p) = (ln Re w, s Im w / Re w) with w = (1+beta)/(1-beta)."""
    label = _as_label(label)
    s = _check_s(s)
    w = _w_of(label.beta)
    return PhaseSpaceLabel(x_tilde=math.log(w.real),
                           p_tilde=s * w.imag / w.real)


def from_phase_space(ps: PhaseSpaceLabel, s: float) -> CoherentLabel:
    """Inverse map: w = e^x (1 + i p/s), beta = (w-1)/(w+1)."""
    ps = _as_ps(ps)
    s = _check_s(s)
    try:
        w = math.exp(ps.x_tilde) * (1.0 + 1j * ps.p_tilde / s)
    except OverflowError:
        # beta would round to the boundary point 1 long before this.
        raise DomainError(f"x = {ps.x_tilde!r} maps outside the open unit "
                          "disk") from None
    return CoherentLabel((w - 1.0) / (w + 1.0))


def phase_factor(label, s: float) -> complex:
    """Unit-modulus factor (|1-beta| / (1-beta))^{2s}, principal branch."""
    label = _as_label(label)
    s = _check_s(s)
    return cmath.exp(-2.0j * s * cmath.phase(1.0 - label.beta))


_EXPECT_TOL = 1e-8


def _expectation_pairs(label, s: float):
    # ((<X> formula, quadrature), (<P> formula, quadrature)) in |beta>.
    # Trapezoid in x around the density's center; the integrand decays
    # double-exponentially to the left and like e^{-2s(x - x_c)} to the
    # right, so this converges spectrally. Window and resolution are fixed
    # for determinism.
    label = _as_label(label)
    s = _check_s(s)
    ps = to_phase_space(label, s)
    w = _w_of(label.beta)
    x = np.linspace(ps.x_tilde - 9.0, ps.x_tilde + 36.0, 4001)
    h = x[1] - x[0]
    y = y_from_x(x)
    phi = wavefunction_closed(label, s, y)
    dens = (phi.conj() * phi).real
    norm = np.trapezoid(dens, dx=h)
    mean_x = np.trapezoid(x * dens, dx=h)
    # <P> from i y d/dy acting on the closed form: y phi' = (s - y w/2) phi.
    mean_p = 0.5 * w.imag * np.trapezoid(y * dens, dx=h)
    return ((ps.x_tilde + ground_x_expectation(s), mean_x / norm),
            (ps.p_tilde, mean_p / norm))


def _checked(name: str, value: float, quad: float) -> float:
    if abs(quad - value) > _EXPECT_TOL:
        raise ConsistencyError(
            f"{name} formula {value} vs quadrature {quad} disagree")
    return value


def expectation_X(label, s: float) -> float:
    """<X> in |beta>: x_tilde plus the ground-state offset ln 2 - psi(2s).

    Cross-checked against direct quadrature of x |phi_beta(x)|^2 on every
    call; disagreement beyond 1e-8 raises, since it would mean the closed
    form and the wavefunction have drifted apart.
    """
    return _checked("<X>", *_expectation_pairs(label, s)[0])


def expectation_P(label, s: float) -> float:
    """<P> in |beta>: exactly p_tilde; quadrature-checked like expectation_X."""
    return _checked("<P>", *_expectation_pairs(label, s)[1])


def _jacobi01_rule(n: int, b: float, a: float = 0.0):
    """Gauss rule for the weight u^b (1-u)^a on [0, 1], its weights summing
    to 1 (Golub-Welsch, closed-form recurrence coefficients of the shifted
    Jacobi polynomials)."""
    k = np.arange(n, dtype=float)
    # Recurrence on [-1, 1] for weight (1-t)^a (1+t)^b, mapped to [0, 1].
    ab = 2.0 * k + a + b
    with np.errstate(invalid="ignore", divide="ignore"):
        alpha = np.where(k == 0, (b - a) / (a + b + 2.0),
                         (b - a) * (b + a) / (ab * (ab + 2.0)))
        beta_k = (4.0 * k * (k + a) * ((k + b) * (k + a + b))
                  / (ab ** 2 * (ab + 1.0) * (ab - 1.0)))
    t = SymTridiagonal((1.0 + alpha) / 2.0, np.sqrt(beta_k[1:]) / 2.0)
    nodes, vecs = symtridiag_eigen(t, want_vectors=True)
    return nodes, vecs[0, :] ** 2


# Largest disk quadrature. The radial rule keeps n_radial^2 eigenvector
# entries (32 MiB at its cap) and the angular panel m_basis x n_angular
# complex entries, with m_basis <= n_angular / 2 (32 MiB at its cap). At
# both caps (m_basis = 1024) one call peaks at 104 MB (tracemalloc) and
# takes about 1.2 s.
_MAX_RADIAL_POINTS = 2048
_MAX_ANGULAR_POINTS = 2048


def resolution_of_unity(s: float, m_basis: int, n_radial: int = 200,
                        n_angular: int = 64) -> np.ndarray:
    """Integral of |beta><beta| over the disk with the invariant measure.

    The measure is (2s-1)(1-|beta|^2)^{-2} dRe dIm, integrable only for
    s > 1/2. In polar form the angle is handled by a uniform trapezoid
    (exact for the finite Fourier content of a truncated basis) and the
    radius by the substitution u = 1 - r^2, which turns the integrand's
    u^{2s} / u^2 into the Jacobi weight u^{2s-2} on [0, 1], handled by a
    dedicated Gauss rule. Returns the m_basis x m_basis matrix, which
    converges to pi times the identity.

    Each term b_n b_m r^{n+m} e^{i(m-n) theta} of the product rule splits
    into a radial and an angular factor, so the double sum is the entrywise
    product of a radial Gram matrix and an angular Gram matrix. Memory is
    O(m_basis (n_radial + n_angular) + n_radial^2), the last term for the
    radial rule's eigenvectors. Sizes above _MAX_RADIAL_POINTS or
    _MAX_ANGULAR_POINTS raise CapabilityError before anything is allocated.
    """
    s = _check_s(s)
    if s <= 0.5:
        raise DomainError("the disk measure needs s > 1/2")
    m_basis = int(m_basis)
    if m_basis < 1:
        raise DomainError("m_basis must be >= 1")
    n_radial = int(n_radial)
    n_angular = int(n_angular)
    if n_radial > _MAX_RADIAL_POINTS or n_angular > _MAX_ANGULAR_POINTS:
        raise CapabilityError(
            f"quadrature of {n_radial} radial x {n_angular} angular points "
            f"exceeds the supported maximum of {_MAX_RADIAL_POINTS} x "
            f"{_MAX_ANGULAR_POINTS}")
    if n_radial < 2 or n_angular < 2 * m_basis:
        raise DomainError("quadrature sizes too small for this truncation")
    b = 2.0 * s - 2.0
    u_nodes, u_weights = _jacobi01_rule(n_radial, b)
    u_weights = u_weights / (b + 1.0)   # the mass of u^b on [0, 1]
    radii = np.sqrt(1.0 - u_nodes)
    angles = 2.0 * math.pi * np.arange(n_angular) / n_angular
    n = np.arange(m_basis)
    # rad[n, i] = sqrt(C(n+2s-1, n)) r_i^n; the (1-r^2)^s normalization is
    # cancelled against the measure. The angular Gram matrix is summed, not
    # replaced by its closed form n_angular I, so the check does not assume
    # the angular rule's exactness.
    with np.errstate(under="ignore"):
        rad = np.exp(_log_binom_sqrt(s, m_basis)[:, None]
                     + n[:, None] * np.log(radii)[None, :])
    phase = np.exp(1j * n[:, None] * angles[None, :])
    # angle weight 2 pi / n_angular; radial du carries 1/2 from r dr.
    out = ((rad * u_weights) @ rad.T) * (phase.conj() @ phase.T)
    out *= (2.0 * s - 1.0) * math.pi / n_angular
    return out


def phase_space_tail_estimate(s: float, m_basis: int,
                              box: tuple[float, float]) -> float:
    """Estimated mass the phase-space check drops outside its box.

    The entry-wise envelope of the integrand is bounded by
    (2s-1)/(4s) b_n b_m (1-|beta|^2)^{2s} with b_n the binomial square
    roots; in the sheared coordinates (x, q = p e^{x}) the q integral of
    the envelope has a closed incomplete-Beta form. The |x| > X strips
    then integrate in closed form too, and the |q| > Q strip over all x is
    a 20-point Gauss-Jacobi rule in sqrt(t), t = 1/(1 + e^x). This is an
    upper estimate of the envelope mass, not a certified bound on the
    oscillatory error.

    The arguments phase_space_measure_check refuses are refused here too,
    with a DomainError: s <= 1/2, m_basis < 1, and a box extent that is
    not positive, is not finite, or has box[0] >= 709.
    """
    s, m_basis, box_x, box_q = _check_ps_args(s, m_basis, box)
    pieces = _q_strip_mass(s, box_q) + _x_strip_mass(s, box_x)
    # 0.5 ln C(n+2s-1, n) at n = m_basis - 1, the largest b_n.
    log_b_max = _log_basis_norm(0, s) - _log_basis_norm(m_basis - 1, s)
    return (2.0 * s - 1.0) / (4.0 * s) * math.exp(2.0 * log_b_max) * pieces


def _check_ps_args(s, m_basis, box) -> tuple[float, int, float, float]:
    s = _check_s(s)
    if s <= 0.5:
        raise DomainError("the phase-space measure needs s > 1/2")
    m_basis = int(m_basis)
    if m_basis < 1:
        raise DomainError("m_basis must be >= 1")
    box_x, box_q = float(box[0]), float(box[1])
    if box_x <= 0.0 or box_q <= 0.0:
        raise DomainError("box extents must be positive")
    # The sum takes e^{+-x} at the box edge, which overflows past x ~ 709.8.
    if not (box_x < 709.0 and math.isfinite(box_q)):
        raise DomainError("box extents must be finite, with box[0] < 709")
    # The q spacing is 2 box[1] / (n_p - 1).
    if not math.isfinite(2.0 * box_q):
        raise DomainError("box[1] must not exceed half the largest float")
    return s, m_basis, box_x, box_q


def _log_envelope_scale(s: float) -> float:
    # ln(C 4^{2s}), C = 2s B(1/2, 2s - 1/2) / 2: the envelope over all q is
    # C 4^{2s} e^{(2s-1)x} (1 + e^x)^{1-8s} dx, which t = 1/(1 + e^x) turns
    # into C 4^{2s} t^{6s-1} (1 - t)^{2s-2} dt.
    return (math.log(s) + scipy.special.betaln(0.5, 2.0 * s - 0.5)
            + 2.0 * s * math.log(4.0))


def _x_strip_mass(s: float, box_x: float) -> float:
    # The envelope integrated over all q and |x| > box_x, in closed form:
    # each strip is a regularized incomplete Beta function of the t form
    # at t_X = 1/(1 + e^{box_x}).
    t_x = 1.0 / (1.0 + math.exp(box_x))
    a, b = 2.0 * s - 1.0, 6.0 * s
    log_scale = _log_envelope_scale(s) + scipy.special.betaln(a, b)
    return math.exp(log_scale) * float(scipy.special.betainc(a, b, t_x)
                                       + scipy.special.betainc(b, a, t_x))


# Points of the Gauss rule for the |q| > Q strip.
_Q_STRIP_POINTS = 20


def _q_strip_mass(s: float, box_q: float) -> float:
    # The envelope integrated over all x and |q| > box_q: in the t form it
    # carries the fraction g(t) of its q integral that lies beyond box_q,
    # g = I_v(2s - 1/2, 1/2) at v = 1 / (1 + tau^2), tau = box_q t / s, the
    # complementary incomplete Beta by symmetry, so no 1 - I cancels.
    # Past tau ~ 1, g falls like t^{-d} with d -> 4s - 1. The rule runs in
    # z = sqrt(t), which spreads out the bend at tau ~ 1, with the Jacobi
    # weight z^{2a-1} (1 - z)^{2s-2} of a = 6s - d, d the log-slope of g at
    # the mode of t^{6s-1} (1 - t)^{2s-2}; what it integrates,
    # 2 t^d (1 + z)^{2s-2} g, is smooth.
    c, b = 2.0 * s - 0.5, 2.0 * s - 1.0
    tau = box_q * min(1.0, (6.0 * s - 1.0) / (8.0 * s - 3.0)) / s
    v = 1.0 / (1.0 + tau * tau)
    g_mode = scipy.special.betainc(c, 0.5, v)
    # -d ln g / d ln t = 2 tau v^{c+1/2} / (B(c, 1/2) g), below 2c.
    d = 2.0 * c if not g_mode > 0.0 else min(2.0 * c, 2.0 * tau * math.exp(
        (c + 0.5) * math.log(v) - scipy.special.betaln(c, 0.5)) / g_mode)
    a = 6.0 * s - d
    z, w = _jacobi01_rule(_Q_STRIP_POINTS, 2.0 * a - 1.0, b - 1.0)
    t = z * z
    log_scale = (_log_envelope_scale(s) + scipy.special.betaln(2.0 * a, b)
                 + math.log(2.0))
    with np.errstate(over="ignore", divide="ignore", under="ignore"):
        g = scipy.special.betainc(c, 0.5, 1.0 / (1.0 + (box_q * t / s) ** 2))
        f = np.exp(log_scale + d * np.log(t) + (b - 1.0) * np.log1p(z)
                   + np.log(g))
    return float(w @ f)


# Nodes per block of the phase-space sum: whole x rows of the q >= 0 half
# grid, or slices of one row where a half row is wider than this.
_PS_BLOCK = 4096
# Most basis states and most (x, q) grid nodes of one phase-space check,
# checked before anything is allocated. A block holds at most _PS_BLOCK
# columns, so memory stays O(m_basis (_PS_BLOCK + m_basis)) at any node
# count.
_MAX_PS_BASIS = 256
_MAX_PS_NODES = 1 << 24


def _ps_node_counts(s: float, m_basis: int, box_x: float, box_q: float,
                    n_x: int | None, n_p: int | None) -> tuple[int, int]:
    # Resolve the fastest angular oscillation (n - m) arg beta at roughly
    # eight points per period, plus a safety floor. A default beyond the
    # node cap is clipped to it first, so a huge box cannot overflow int().
    if n_x is None:
        n_x = int(min(8.0 * box_x * max(m_basis - 1, 1) / math.pi,
                      _MAX_PS_NODES)) + 64
    if n_p is None:
        n_p = int(min(8.0 * box_q * max(m_basis - 1, 1) / (math.pi * s),
                      _MAX_PS_NODES)) + 64
    n_x, n_p = int(n_x), int(n_p)
    if n_x < 2 or n_p < 2:
        raise DomainError("the phase-space grid needs n_x, n_p >= 2")
    if m_basis > _MAX_PS_BASIS or n_x * n_p > _MAX_PS_NODES:
        raise CapabilityError(
            f"phase-space check of {m_basis} states on {n_x} x {n_p} nodes "
            f"exceeds the supported maximum of {_MAX_PS_BASIS} states on "
            f"{_MAX_PS_NODES} nodes")
    return n_x, n_p


def phase_space_measure_check(s: float, m_basis: int,
                              box: tuple[float, float] = (10.0, 200.0),
                              n_x: int | None = None,
                              n_p: int | None = None) -> np.ndarray:
    """Resolution of unity in the (x, p) coordinates over a finite box.

    The density (2s-1)/(4s) dx dp equals the disk measure under the label
    change, so the returned real m_basis x m_basis matrix converges to pi
    times the identity as the box grows; this operation is the numerical
    confirmation of that Jacobian identity.

    Box semantics: the integrand concentrates along the sheared curves
    p ~ const e^{-x}, so the box is taken in the coordinates
    (x, q = p e^{x}): |x| <= box[0], |q| <= box[1], with the e^{-x}
    Jacobian of q absorbed into the weights. A plain rectangle in (x, p)
    cuts through the support and stalls near 1e-1 deviation no matter how
    many nodes it gets; the sheared box reaches 1e-3 by (8, 80) and keeps
    improving (2.5e-6 at (12, 400) for s = 1.75, m_basis = 8).

    Both rules are trapezoids, n_x nodes in x and n_p in q, the q nodes
    q_j = (j - (n_p-1)/2) h exactly antisymmetric. q -> -q maps beta to
    its conjugate and each term of the sum to its complex conjugate, so
    only the q >= 0 half is evaluated, its weights doubled for q > 0, and
    the sum is the real part, Re(conj(c_m) c_n), one real product.

    The mass dropped outside the box is estimated by
    phase_space_tail_estimate; when it exceeds 1e-6 a TruncationWarning
    carrying the estimate is issued, meaning no node count can push the
    agreement much below that level on this box. Node counts default to
    about eight points per period of the fastest oscillation; both must be
    at least 2 (DomainError). More than _MAX_PS_BASIS states or
    _MAX_PS_NODES nodes raise CapabilityError before anything is allocated.
    """
    s, m_basis, box_x, box_q = _check_ps_args(s, m_basis, box)
    n_x, n_p = _ps_node_counts(s, m_basis, box_x, box_q, n_x, n_p)

    tail = phase_space_tail_estimate(s, m_basis, box)
    if tail > 1e-6:
        warnings.warn(
            f"phase-space box {box} leaves an estimated envelope mass "
            f"{tail:.3e} outside; grow the box for tighter agreement",
            TruncationWarning, stacklevel=2)

    x_nodes = np.linspace(-box_x, box_x, n_x)
    # x weights carry the e^{-x} Jacobian of q.
    w_x = np.full(n_x, x_nodes[1] - x_nodes[0]) * np.exp(-x_nodes)
    w_x[[0, -1]] *= 0.5
    h = 2.0 * box_q / (n_p - 1)
    q_nodes = (np.arange(n_p // 2, n_p) - 0.5 * (n_p - 1)) * h
    # Doubled for each mirror node -q, halved at q = Q; q = 0 counts once.
    w_q = np.where(q_nodes > 0.0, 2.0 * h, h)
    w_q[-1] = h

    b_n = np.exp(_log_binom_sqrt(s, m_basis))[:, None]
    out = np.zeros((m_basis, m_basis))
    # Blocks of about _PS_BLOCK nodes, accumulated in a fixed order: memory
    # stays flat, and the blocks depend only on n_p, so the result is a
    # pure function of the arguments.
    rows = max(1, _PS_BLOCK // q_nodes.size)
    for i0 in range(0, n_x, rows):
        x = x_nodes[i0:i0 + rows, None]
        for j0 in range(0, q_nodes.size, _PS_BLOCK):
            q = q_nodes[j0:j0 + _PS_BLOCK]
            w = (np.exp(x) + 1j * q / s).ravel()
            beta = (w - 1.0) / (w + 1.0)
            ab = np.abs(beta)
            # col[k] = (1-|beta|^2)^s beta^k by recurrence, then times b_k.
            col = np.empty((m_basis, w.size), dtype=complex)
            with np.errstate(under="ignore"):
                col[0] = np.exp(s * np.log1p(-(ab * ab)))
                for k in range(1, m_basis):
                    col[k] = col[k - 1] * beta
            # Re(conj(c_m) c_n) = Re c_m Re c_n + Im c_m Im c_n.
            cv = col.view(np.float64)
            cv *= b_n
            weight = (w_x[i0:i0 + rows, None] * w_q[j0:j0 + _PS_BLOCK]).ravel()
            out += (cv * np.repeat(weight, 2)) @ cv.T
    out *= (2.0 * s - 1.0) / (4.0 * s)
    return out


# Largest displacement order: the operator and its factors are dense, so
# memory grows as n^2 (a 1.34 GB peak for one call at this order).
_MAX_DISPLACEMENT_ORDER = 4096


def _exp_i(t: SymTridiagonal, *angles: tuple[float, int]):
    # The leading rows of expm(i theta T), one (theta, rows) pair per
    # factor, from one eigendecomposition; exact identity rows at 0.
    eig = None
    for theta, rows in angles:
        if theta == 0.0:
            yield np.eye(rows, t.order)
            continue
        vals, vecs = eig = eig or symtridiag_eigen(t, want_vectors=True)
        yield (vecs[:rows] * np.exp(1j * theta * vals)) @ vecs.T


def displacement_matrix(ps, s: float, n_dim: int):
    """Unitary displacement operator on the n_dim-truncated basis in both
    factor orderings, returned as the pair (d_xp, d_px):
        d_xp = e^{-i phi} e^{-i p} expm((x/2)(Adag - A)) expm((i/(2s)) p (A + Adag)),
    and d_px applies the factors the other way around with the matching
    phase e^{-i p e^{x}} and argument p e^{x}. (Adag - A) is real
    antisymmetric and i (A + Adag) anti-Hermitian, so every factor is
    unitary; the orderings agree up to truncation effects and exist so that
    agreement can be tested rather than assumed.

    Each generator is tridiagonal and diagonalized once for both orderings,
    instead of taking dense matrix exponentials. A + Adag is real symmetric
    (diagonal -2m, off-diagonal b_m = sqrt((m+1)(2s+m))). Adag - A =
    -i U T U^dag with U = diag(i^m) and T the symmetric matrix with zero
    diagonal and off-diagonal b_m, so the shift factor U expm(-i (x/2) T)
    U^dag is real and shared by both orderings.

    D e_0 reproduces the coefficient vector of the corresponding disk
    label, including its phase. Orders above _MAX_DISPLACEMENT_ORDER raise
    CapabilityError before anything is allocated.
    """
    return _displacement_pair(ps, s, n_dim, n_dim)


def displacement_check(ps, s: float, n_dim: int):
    """(unitarity deviation max |D^dag D - I|, D e_0, ordering deviation
    max |d_xp - d_px| on the leading n_dim // 3 block, away from the
    truncation edge) for D = d_xp. D e_0 is the view d_xp[:, 0]; only that
    block of d_px is formed, with displacement_matrix's bits.

    The xp ordering truncates its intermediate state, the label (0, p),
    first; a TruncationWarning names that state's coefficient tail bound
    when it exceeds 1e-12.
    """
    d_xp, d_px = _displacement_pair(ps, s, n_dim, int(n_dim) // 3)
    mid = from_phase_space(PhaseSpaceLabel(0.0, _as_ps(ps).p_tilde), s)
    tail = coefficient_tail_bound(mid, s, len(d_xp))
    if tail > 1e-12:
        warnings.warn(
            f"the xp ordering's intermediate state (0, p) leaves a "
            f"coefficient tail bound of {tail:.3e} at order {len(d_xp)} "
            "(above 1e-12); raise --n", TruncationWarning, stacklevel=2)
    k = len(d_px)
    return (float(np.abs(d_xp.conj().T @ d_xp - np.eye(len(d_xp))).max()),
            d_xp[:, 0], float(np.abs(d_xp[:k, :k] - d_px).max()))


def _displacement_pair(ps, s: float, n_dim: int, n_px: int):
    # d_xp in full and the leading n_px x n_px block of d_px. zgemm sums
    # each entry of the block in the same order as in the full product,
    # so the block has the full matrix's bits; the tests compare them
    # byte for byte, since that is a property of the BLAS, not of NumPy.
    ps = _as_ps(ps)
    s = _check_s(s)
    n_dim = int(n_dim)
    if n_dim < 2:
        raise DomainError("need n_dim >= 2")
    if n_dim > _MAX_DISPLACEMENT_ORDER:
        raise CapabilityError(
            f"displacement order {n_dim} exceeds the supported maximum "
            f"of {_MAX_DISPLACEMENT_ORDER}")
    if n_px < 1:
        raise DomainError(
            f"n_dim = {n_dim} leaves no leading block to compare the "
            "orderings on; need n_dim >= 3")
    band = _band_entries(s, n_dim)
    ph = phase_factor(from_phase_space(ps, s), s)
    xt, pt = ps.x_tilde, ps.p_tilde
    pe = pt * math.exp(xt)
    # U = diag(i^m), exactly (1j ** m drifts by 1e-13 past m = 100).
    u = np.array([1.0, 1j, -1.0, -1j])[np.arange(n_dim) % 4]
    # A contiguous real copy: a .real view keeps its complex parent alive.
    shift = np.ascontiguousarray((u[:, None] * next(_exp_i(
        SymTridiagonal(np.zeros(n_dim), band), (-0.5 * xt, n_dim)))
        * u.conj()).real)
    # NumPy takes a one-row product to gemv or dot, which sum in another
    # order than gemm, so the block is formed on at least two rows.
    rows = max(n_px, 2)
    boosts = _exp_i(SymTridiagonal(-2.0 * np.arange(n_dim), band),
                    (0.5 * pt / s, n_dim), (0.5 * pe / s, rows))
    # Name products before scaling: in-place scaling of temporaries moves bits.
    d_xp = shift @ next(boosts)
    d_xp = ph * cmath.exp(-1j * pt) * d_xp
    d_px = next(boosts) @ shift[:, :rows]
    d_px = ph * cmath.exp(-1j * pe) * d_px
    return d_xp, d_px[:n_px, :n_px]


def project_onto_basis(wavefunction, s: float, n_terms: int,
                       rule=None) -> np.ndarray:
    """Coefficients <n|f> = integral phi_n(y) f(y) dy/y for n < n_terms.

    `wavefunction` is a callable of an array of y, called once on the rule's
    nodes; nodes whose weights have underflowed to zero are left out so the
    callable is never evaluated where it cannot contribute.
    """
    s = _check_s(s)
    n_terms = int(n_terms)
    if n_terms < 1:
        raise DomainError("n_terms must be >= 1")
    if rule is None:
        rule = gauss_laguerre_rule(200, 2.0 * s - 1.0)
    live = rule.weights > 0.0
    y = rule.nodes[live]
    w = rule.weights[live]
    f_vals = np.asarray(wavefunction(y), dtype=complex)
    if f_vals.shape != y.shape:
        raise DomainError("the wavefunction must return one value per node")
    # The rule's weight already carries y^{2s-1} e^{-y}; divide the basis
    # envelope and the measure's 1/y out of the integrand.
    lag = laguerre_sequence(n_terms - 1, 2.0 * s - 1.0, y)
    rows = lag * np.exp(_log_basis_norms(n_terms, s))[:, None]
    with np.errstate(over="ignore"):
        strip = f_vals * np.exp(-_log_envelope(s, y))
    if not np.all(np.isfinite(strip)):
        raise DomainError(
            "wavefunction values overflow once the basis envelope is "
            "divided out; use a rule with fewer points")
    return (rows * w) @ strip
