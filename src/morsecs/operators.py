"""Truncated matrix representations of the ladder operators and Hamiltonian
in the pseudo-number basis, the commutation algebra, the Rayleigh-Ritz
spectrum, and the bound spectrum from level-adapted blocks.

Truncation policy: every operator is the leading N x N block of its infinite
matrix. Adag(s) A(s), the parameter-shift identity, and commutators of
same-side operators are truncation-exact; A(s) Adag(s) picks up a single
defect in the (N-1, N-1) corner equal to the squared top coupling, and the
canonical commutator inherits it. Those facts are asserted, not hidden.
"""

from __future__ import annotations

import numpy as np

from .errors import CapabilityError, DomainError
from .morse_core import (LogGrid, _check_s, apply_operator_fd,
                         bound_state_count, pseudo_wavefunction)
from .numerics import SymTridiagonal, symtridiag_eigen

__all__ = [
    "matrix_A",
    "matrix_Adag",
    "matrix_H",
    "commutator",
    "corner_defect",
    "spectrum",
    "bound_spectrum",
    "matrix_element_oracle",
]


def _band_entries(s: float, n: int) -> np.ndarray:
    # The ladder band b_m = sqrt((m+1)(2s+m)), m < n-1: every matrix of the
    # algebra (A, Adag, H, the displacement generators) is this band plus a
    # diagonal in m.
    m = np.arange(n - 1, dtype=float)
    return np.sqrt((m + 1.0) * (2.0 * s + m))


def matrix_A(s: float, k: int, n: int) -> np.ndarray:
    """Annihilation-type operator at shifted parameter s + k, dense.

    Entries: (m, m+1) = sqrt((m+1)(2s+m)), (m, m) = -(m - k). The band is
    independent of k; the whole k-dependence is k times the identity, and
    the first column vanishes at k = 0 (the ground state is annihilated
    exactly).
    """
    s = _check_s(s)
    n = int(n)
    if n < 2:
        raise DomainError("need n >= 2")
    m = np.arange(n, dtype=float)
    return np.diag(-(m - int(k))) + np.diag(_band_entries(s, n), 1)


def matrix_Adag(s: float, k: int, n: int) -> np.ndarray:
    """Transpose of matrix_A(s, k, n)."""
    return matrix_A(s, k, n).T


# Largest Hamiltonian block, 2 MiB per float64 array at the cap; `ham` at
# the cap peaks at about 0.2 GB resident in either format.
_MAX_MATRIX_ORDER = 1 << 18


def _h_block(s: float, n: int, sigma: float) -> SymTridiagonal:
    """matrix_H(s, n, sigma) unvalidated. Its entries are polynomial in sigma,
    so it has a limit at sigma = 0, where no basis exists: there the first
    row decouples, with diagonal 1/4 + s(s + 1) = (s + 1/2)^2 exactly."""
    m = np.arange(n, dtype=float)
    d = s - sigma
    diag = (2.0 * m * (m + sigma - 0.5) + (sigma + 0.25)
            + d * (s + sigma + 1.0 - 2.0 * (m + sigma)))
    off = (d - m[:-1]) * _band_entries(sigma, n) + 0.0  # -0.0 -> 0.0 at the head
    return SymTridiagonal(diag, off)


def matrix_H(s: float, n: int, sigma: float | None = None) -> SymTridiagonal:
    """Hamiltonian block of H(s) = Adag(s) A(s) + E_0(s) I in the basis at
    parameter sigma (default s), assembled in closed form.

    With d = s - sigma, H(s) = H(sigma) + d (s + sigma + 1) I - d Y_sigma,
    Y_sigma the Laguerre Jacobi matrix (diagonal 2m + 2 sigma, couplings
    -b_m(sigma)), so the (m, m+1) coupling is (d - m) b_m(sigma) and the
    block is tridiagonal, exactly symmetric, and the leading block of the
    infinite matrix. At sigma = s the (0, 1) entry is exactly zero, so e_0
    is an exact eigenvector with eigenvalue E_0. Sigma must be positive, as
    the basis exists only there; bound_spectrum alone takes the sigma = 0
    limit. Orders above _MAX_MATRIX_ORDER raise CapabilityError before
    anything is allocated.
    """
    s = _check_s(s)
    sigma = s if sigma is None else _check_s(sigma)
    n = int(n)
    if n < 2:
        raise DomainError("need n >= 2")
    if n > _MAX_MATRIX_ORDER:
        raise CapabilityError(
            f"order {n} exceeds the supported maximum of {_MAX_MATRIX_ORDER}")
    return _h_block(s, n, sigma)


def commutator(ma: np.ndarray, mb: np.ndarray) -> np.ndarray:
    """ma @ mb - mb @ ma."""
    ma = np.asarray(ma)
    mb = np.asarray(mb)
    if ma.shape != mb.shape or ma.ndim != 2 or ma.shape[0] != ma.shape[1]:
        raise DomainError("commutator needs two square matrices of equal order")
    return ma @ mb - mb @ ma


def corner_defect(s: float, n: int) -> float:
    """Truncation defect of [A, Adag] at the (N-1, N-1) corner: N(2s+N-1).

    Equals the squared top coupling sqrt(N(2s+N-1))^2 that the finite block
    cannot see; every other entry of the canonical commutator identity is
    exact.
    """
    s = _check_s(s)
    return float(n) * (2.0 * s + n - 1.0)


def spectrum(s: float, n: int, n_eigen: int | None = None) -> np.ndarray:
    """Lowest Ritz eigenvalues of the order-n Hamiltonian block, ascending.

    Rayleigh-Ritz gives each value as a non-increasing function of n,
    converging to the true bound energy from above for indices below the
    bound-state count. Fewer than n values are found by index-selected
    bisection, at a cost linear in n.
    """
    h = matrix_H(s, n)
    if n_eigen is None:
        n_eigen = h.order
    n_eigen = int(n_eigen)
    if not 1 <= n_eigen <= h.order:
        raise DomainError("n_eigen must lie in [1, n]")
    return symtridiag_eigen(h, n_lowest=n_eigen)


_MAX_BOUND_LEVELS = 512  # one full solve per level: O(count^3) in all


def bound_spectrum(s: float) -> np.ndarray:
    """Every bound energy of H(s), ascending: levels n < floor(s + 1).

    Shape invariance puts psi_0 .. psi_n of H(s) inside the first n + 1
    basis states at sigma = s - n, where the (n, n+1) coupling vanishes, so
    level n is value n of the order-(n + 2) block there, exact up to
    rounding; level 0 is s + 1/4 to the bit. For integer s the top level has
    sigma = 0, where the block's limit gives the threshold (s + 1/2)^2 exactly.
    """
    s = _check_s(s)
    count = bound_state_count(s)
    if count > _MAX_BOUND_LEVELS:
        raise CapabilityError(
            f"{count} bound levels exceed the supported maximum "
            f"of {_MAX_BOUND_LEVELS}")
    return np.array([symtridiag_eigen(_h_block(s, n + 2, s - n))[n]
                     for n in range(count)])


_ORACLE_OPS = ("A", "Adag", "H")


def matrix_element_oracle(m: int, n: int, op: str, s: float,
                          x_min: float = -7.5, x_max: float = 9.0,
                          n_points: int = 2001):
    """<phi_m | Op phi_n> by finite differences, with an error bar.

    The operator is applied with second-order stencils on a uniform x grid
    and the integral taken by trapezoid in x, which is the measure dy/y in
    disguise; `n_points` must be odd so the same evaluation can be repeated
    on the stride-two subgrid. Returns (value, error_bar) where the bar is
    |value_h - value_2h|, an h^2-scaled bracket of the stencil error: a
    coarse grid shows up as a wide bar rather than a silently wrong number.
    """
    if op not in _ORACLE_OPS:
        raise DomainError(f"unsupported operator code {op!r}")
    m = int(m)
    n = int(n)
    if not (0 <= m <= 30 and 0 <= n <= 30):
        raise DomainError("oracle supports basis indices up to 30")
    n_points = int(n_points)
    if n_points % 2 == 0:
        raise DomainError("n_points must be odd")

    def _value(grid: LogGrid) -> float:
        f_n = pseudo_wavefunction(n, s, grid.y)
        g = apply_operator_fd(op, f_n, grid, s)
        f_m = pseudo_wavefunction(m, s, grid.y[1:-1])
        return float(np.trapezoid(f_m * g, dx=grid.h))

    fine = LogGrid(x_min, x_max, n_points)
    coarse = LogGrid(x_min, x_max, (n_points + 1) // 2)
    v_fine = _value(fine)
    v_coarse = _value(coarse)
    return v_fine, abs(v_fine - v_coarse)
