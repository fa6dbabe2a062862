"""Shape parameter, pseudo-number-state wavefunctions, and spectral constants
for the one-dimensional Morse oscillator, plus finite-difference application
of the ladder operators in the physical coordinate.

Conventions. The physical coordinate is x, the working variable is
y = 2 e^{-x}, and all inner products are taken with the measure dy/y
(equivalently dx up to orientation). In x-representation the first-order
ladder operators read

    A(s)    = s - e^{-x} + d/dx
    Adag(s) = s - e^{-x} - d/dx

and the Hamiltonian is H = -d^2/dx^2 + (s + 1/2 - e^{-x})^2. The basis
function phi_n is, in y, a y^s e^{-y/2} envelope times a generalized
Laguerre polynomial of order n with parameter 2s - 1.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, MarginalStateWarning
from .numerics import _laguerre_rows, digamma, laguerre_sequence, log_gamma

__all__ = [
    "LogGrid",
    "y_from_x",
    "x_from_y",
    "norm_coefficient",
    "pseudo_wavefunction",
    "pseudo_wavefunctions",
    "pseudo_wavefunction_recursive",
    "ground_energy",
    "bound_state_count",
    "continuum_threshold",
    "bound_energy",
    "ground_x_expectation",
    "apply_operator_fd",
    "shape_invariance_residual",
]

_FD_OPS = ("A", "Adag", "H", "Hp")


def _check_s(s: float) -> float:
    s = float(s)
    if not math.isfinite(s) or s <= 0.0:
        raise DomainError(f"shape parameter must be positive, got {s!r}")
    return s


def _check_y(y) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if np.any(y <= 0.0) or not np.all(np.isfinite(y)):
        raise DomainError("y must be positive and finite")
    return y


@dataclass(frozen=True)
class LogGrid:
    """Uniform grid in the physical coordinate x (so geometric in y)."""

    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self):
        if not (math.isfinite(self.x_min) and math.isfinite(self.x_max)):
            raise DomainError("grid endpoints must be finite")
        if self.x_min >= self.x_max:
            raise DomainError("x_min must be < x_max")
        if int(self.n_points) < 16:
            raise DomainError("grid needs at least 16 points")
        object.__setattr__(self, "n_points", int(self.n_points))

    @property
    def h(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points - 1)

    @property
    def x(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_points)

    @property
    def y(self) -> np.ndarray:
        return y_from_x(self.x)


def y_from_x(x):
    """Coordinate map y = 2 exp(-x); accepts scalars or arrays.

    Inputs beyond float range, scalar or array, map to inf, which the
    consumers' "y must be positive and finite" checks reject.
    """
    if not np.ndim(x):
        try:
            return 2.0 * math.exp(-float(x))
        except OverflowError:
            return math.inf
    with np.errstate(over="ignore"):
        return 2.0 * np.exp(-np.asarray(x, dtype=float))


def x_from_y(y):
    """Inverse map x = ln(2/y) for y > 0."""
    y_arr = _check_y(y)
    out = math.log(2.0) - np.log(y_arr)
    return float(out) if np.ndim(y) == 0 else out


def norm_coefficient(n: int, s: float) -> float:
    """C_n = sqrt(n (2s + n - 1)), the ladder normalization for n >= 1."""
    s = _check_s(s)
    n = int(n)
    if n < 1:
        raise DomainError("norm_coefficient is defined for n >= 1")
    return math.sqrt(n * (2.0 * s + n - 1.0))


def _log_envelope(s: float, y: np.ndarray) -> np.ndarray:
    # log of y^s e^{-y/2}; y = 0 is excluded by callers.
    return s * np.log(y) - 0.5 * y


def _log_basis_norm(n: int, s: float) -> float:
    # ln of phi_n's normalizer 1 / sqrt(Gamma(n+2s) / n!).
    return -0.5 * (log_gamma(n + 2.0 * s) - log_gamma(n + 1.0))


def _log_basis_norms(n_terms: int, s: float) -> np.ndarray:
    # _log_basis_norm(n, s) for n < n_terms, to the bit.
    s = _check_s(s)
    n = np.arange(n_terms, dtype=float)
    return -0.5 * (np.array(list(map(math.lgamma, (n + 2.0 * s).tolist())))
                   - np.array(list(map(math.lgamma, (n + 1.0).tolist()))))


def _phi_from_laguerre(lag, log_norm: float, log_env: np.ndarray):
    # phi_n from L_n^{2s-1}(y), ln of its normalizer and the log envelope.
    with np.errstate(under="ignore"):
        return lag * np.exp(log_norm + log_env)


def pseudo_wavefunction(n: int, s: float, y):
    """phi_n(y): normalized basis function, evaluated in log space.

    Equals y^s e^{-y/2} L_n^{2s-1}(y) / sqrt(Gamma(n+2s)/n!). The envelope
    and the normalizer are combined in the exponent before a single exp so
    that large s or extreme quadrature nodes cannot overflow; results that
    fall below float range come back as exact zeros.
    """
    s = _check_s(s)
    n = int(n)
    if n < 0:
        raise DomainError("n must be >= 0")
    y_arr = _check_y(y)
    # The last row of the recurrence, without the table of the rows before.
    for lag in _laguerre_rows(n, 2.0 * s - 1.0, y_arr):
        pass
    out = _phi_from_laguerre(lag, _log_basis_norm(n, s), _log_envelope(s, y_arr))
    return float(out) if np.ndim(y) == 0 else out


def pseudo_wavefunctions(n_max: int, s: float, y) -> np.ndarray:
    """[phi_0(y), ..., phi_{n_max}(y)], shape (n_max + 1,) + shape(y).

    One Laguerre recurrence and one envelope serve every row; each row has
    the bits of pseudo_wavefunction(n, s, y).
    """
    s = _check_s(s)
    n_max = int(n_max)
    if n_max < 0:
        raise DomainError("n_max must be >= 0")
    y_arr = _check_y(y)
    lag = laguerre_sequence(n_max, 2.0 * s - 1.0, y_arr)
    log_env = _log_envelope(s, y_arr)
    for n, log_norm in enumerate(_log_basis_norms(n_max + 1, s).tolist()):
        lag[n] = _phi_from_laguerre(lag[n], log_norm, log_env)
    return lag


def pseudo_wavefunction_recursive(n: int, s: float, y):
    """phi_n(y) by the ladder recursion, independent of the closed form.

    Applies phi_k = C_k^{-1} (y d/dy + (s + k - 1) - y/2) phi_{k-1} starting
    from the ground state, carrying the pair (phi_k, phi_k') analytically so
    no numerical differentiation enters:

        u_k = (y v_{k-1} + (s + k - 1 - y/2) u_{k-1}) / C_k
        v_k = ((s + k - y/2) u_k - C_k u_{k-1}) / y

    The derivative update is the closed first-derivative relation for the
    Laguerre envelope and keeps the whole chain O(n) per point.
    """
    s = _check_s(s)
    n = int(n)
    if n < 0:
        raise DomainError("n must be >= 0")
    y_arr = _check_y(y)
    with np.errstate(under="ignore"):
        u = np.exp(_log_envelope(s, y_arr) + _log_basis_norm(0, s))
    v = (s / y_arr - 0.5) * u
    for k in range(1, n + 1):
        c_k = norm_coefficient(k, s)
        u_next = (y_arr * v + (s + k - 1.0 - 0.5 * y_arr) * u) / c_k
        v = ((s + k - 0.5 * y_arr) * u_next - c_k * u) / y_arr
        u = u_next
    return float(u) if np.ndim(y) == 0 else u


def ground_energy(s: float) -> float:
    """E_0(s) = s + 1/4, the additive constant in H = Adag A + E_0."""
    return _check_s(s) + 0.25


def bound_state_count(s: float) -> int:
    """Number of bound states, floor(s + 1).

    For integer s the top state of that count sits exactly at the continuum
    threshold (s + 1/2)^2; it is still counted, with a MarginalStateWarning,
    since its normalizability is a limiting case this package does not
    decide.
    """
    s = _check_s(s)
    if s == math.floor(s):
        warnings.warn(
            f"s = {s} is an integer: the highest counted state lies exactly "
            "at the continuum threshold", MarginalStateWarning, stacklevel=2)
    return int(math.floor(s + 1.0))


def continuum_threshold(s: float) -> float:
    """(s + 1/2)^2, the bottom of the continuum."""
    return (_check_s(s) + 0.5) ** 2


def bound_energy(n: int, s: float) -> float:
    """Bound-state energy E_n(s) = s + 1/4 + n(2s - n).

    Obtained by unrolling the shape-invariance chain
    E_n(s) = E_{n-1}(s - 1) + 2s down to the ground energy of the last
    partner. Valid for 0 <= n < bound_state_count(s).
    """
    s = _check_s(s)
    n = int(n)
    if not 0 <= n < math.floor(s + 1.0):
        raise DomainError(
            f"n = {n} is outside the bound spectrum for s = {s}")
    return s + 0.25 + n * (2.0 * s - n)


def ground_x_expectation(s: float) -> float:
    """<X> in the ground state: ln 2 - psi(2s)."""
    s = _check_s(s)
    return math.log(2.0) - digamma(2.0 * s)


def _d1(f: np.ndarray, h: float) -> np.ndarray:
    return (f[2:] - f[:-2]) / (2.0 * h)


def _d2(f: np.ndarray, h: float) -> np.ndarray:
    return (f[2:] - 2.0 * f[1:-1] + f[:-2]) / (h * h)


def apply_operator_fd(op: str, samples, grid: LogGrid, s: float,
                      k: int = 0) -> np.ndarray:
    """Apply A(s+k), Adag(s+k), H(s), or Hp(s) by central finite differences.

    `samples` are function values on the full grid; the result lives on the
    interior (one layer trimmed for the first-order operators and H, two
    layers for Hp, which is evaluated as the composition A(Adag f) plus the
    ground energy). Accuracy is O(h^2) in the grid spacing. Hp is the
    shape-invariance partner A(s) Adag(s) + E_0(s).
    """
    s = _check_s(s)
    if op not in _FD_OPS:
        raise DomainError(f"unknown operator code {op!r}")
    k = int(k)
    if op in ("H", "Hp") and k != 0:
        raise DomainError("the parameter shift k applies to ladder operators only")
    if not isinstance(grid, LogGrid):
        raise DomainError("expected a LogGrid")
    f = np.asarray(samples)
    if f.ndim != 1 or f.size != grid.n_points:
        raise DomainError("samples must be 1-d over the full grid")
    x = grid.x
    h = grid.h
    expn = np.exp(-x)
    if op == "A":
        return (s + k - expn[1:-1]) * f[1:-1] + _d1(f, h)
    if op == "Adag":
        return (s + k - expn[1:-1]) * f[1:-1] - _d1(f, h)
    if op == "H":
        return -_d2(f, h) + (s + 0.5 - expn[1:-1]) ** 2 * f[1:-1]
    # Hp: g = Adag(s) f on the first interior, then A(s) g on the second.
    g = (s - expn[1:-1]) * f[1:-1] - _d1(f, h)
    inner = (s - expn[2:-2]) * g[1:-1] + _d1(g, h)
    return inner + ground_energy(s) * f[2:-2]


def shape_invariance_residual(s: float, grid: LogGrid, samples) -> float:
    """Max-norm of [A(s) Adag(s) + E_0(s)] f - [H(s-1) + 2s] f.

    The two sides agree identically for the Morse family; what is measured
    here is pure finite-difference error, so the residual contracts as
    O(h^2) under grid refinement. Requires s > 1 so the shifted parameter
    stays in domain.
    """
    s = _check_s(s)
    if s <= 1.0:
        raise DomainError("shape invariance check needs s > 1")
    f = np.asarray(samples)
    lhs = apply_operator_fd("Hp", f, grid, s)
    rhs = apply_operator_fd("H", f, grid, s - 1.0)[1:-1] + 2.0 * s * f[2:-2]
    return float(np.abs(lhs - rhs).max())
