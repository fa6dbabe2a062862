"""Truncated matrix representations of the ladder operators and Hamiltonian
in the pseudo-number basis, the commutation algebra, and the Rayleigh-Ritz
spectrum.

Truncation policy: every operator is the leading N x N block of its infinite
matrix. Adag(s) A(s), the parameter-shift identity, and commutators of
same-side operators are truncation-exact; A(s) Adag(s) picks up a single
defect in the (N-1, N-1) corner equal to the squared top coupling, and the
canonical commutator inherits it. Those facts are asserted, not hidden.
"""

from __future__ import annotations

import numpy as np

from .errors import ConsistencyError, DomainError
from .morse_core import (LogGrid, _check_s, apply_operator_fd, ground_energy,
                         pseudo_wavefunction)
from .numerics import SymTridiagonal, symtridiag_eigen

__all__ = [
    "matrix_A",
    "matrix_Adag",
    "matrix_H",
    "commutator",
    "corner_defect",
    "spectrum",
    "converged_spectrum",
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


def matrix_H(s: float, n: int) -> SymTridiagonal:
    """Hamiltonian block Adag(s) A(s) + E_0(s) I, assembled in closed form.

    diag_m = 2 m (m + s - 1/2) + E_0(s); the (m, m+1) coupling is
    -m sqrt((m+1)(2s+m)), so the (0, 1) entry is exactly zero and the
    truncated matrix has e_0 as an exact eigenvector with eigenvalue E_0.
    The product Adag A closes within the block, so this equals the leading
    block of the infinite matrix with no truncation error, and it is
    exactly symmetric by construction.
    """
    s = _check_s(s)
    n = int(n)
    if n < 2:
        raise DomainError("need n >= 2")
    m = np.arange(n, dtype=float)
    diag = 2.0 * m * (m + s - 0.5) + ground_energy(s)
    off = -m[:-1] * _band_entries(s, n) + 0.0  # -0.0 -> 0.0 at the head
    return SymTridiagonal(diag, off)


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


def spectrum(s: float, n: int, n_eigen: int | None = None,
             want_vectors: bool = False):
    """Lowest Ritz eigenvalues of the order-n Hamiltonian block, ascending.

    With vectors requested, returns (values, columns). Rayleigh-Ritz gives
    each value as a non-increasing function of n, converging to the true
    bound energy from above for indices below the bound-state count. Fewer
    than n values are found by index-selected bisection, at a cost linear
    in n.
    """
    h = matrix_H(s, n)
    if n_eigen is None:
        n_eigen = h.order
    n_eigen = int(n_eigen)
    if not 1 <= n_eigen <= h.order:
        raise DomainError("n_eigen must lie in [1, n]")
    return symtridiag_eigen(h, want_vectors=want_vectors,
                            n_lowest=n_eigen)


def converged_spectrum(s: float, n_eigen: int, tol: float = 1e-6,
                       n_start: int = 200, n_max: int = 12800):
    """Ritz values after plateau detection under dimension doubling.

    Doubles the truncation order until every requested eigenvalue moves by
    less than `tol` between consecutive orders, then returns
    (values, order). Raises if the plateau is not reached by `n_max`;
    eigenvalue indices at or beyond the bound-state count generally sink
    toward the continuum threshold instead of converging, so callers should
    keep n_eigen within the discrete spectrum for tight tolerances.
    """
    s = _check_s(s)
    n_eigen = int(n_eigen)
    if n_eigen < 1:
        raise DomainError("n_eigen must be >= 1")
    n = max(int(n_start), n_eigen, 2)
    prev = spectrum(s, n, n_eigen)
    while 2 * n <= int(n_max):
        n *= 2
        vals = spectrum(s, n, n_eigen)
        if np.abs(vals - prev).max() < tol:
            return vals, n
        prev = vals
    raise ConsistencyError(
        f"Ritz values still moving more than {tol} at order {n}")


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
