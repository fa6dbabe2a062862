"""Special functions, quadrature, and small linear-algebra kernels.

Everything here is a pure function of its arguments. The two workhorses are
the generalized Gauss-Laguerre rule (inner products under y^alpha e^{-y})
and the symmetric tridiagonal eigensolver; the rest are thin, validated
wrappers so the rest of the package has a single place to call.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.special

from .errors import CapabilityError, DomainError

__all__ = [
    "QuadratureRule",
    "SymTridiagonal",
    "log_gamma",
    "digamma",
    "laguerre_sequence",
    "laguerre_generating_sum",
    "gauss_laguerre_rule",
    "symtridiag_eigen",
]

_MAX_RULE_POINTS = 512
# Largest Laguerre table, orders x points, 8 MiB of float64 at the cap. It
# bounds the `basis` and `wavefunction` reports, which peak at about 0.27 GB
# resident (JSON; 0.24 GB in CSV) at this cap and the grid cap.
_MAX_LAGUERRE_VALUES = 1 << 20
# exp(x) is finite exactly for x <= this float, ln of the largest float.
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights for the weight function y^alpha e^{-y} on (0, inf).

    Weights are nonnegative; for very large rules the weights attached to
    nodes beyond y ~ 745 fall below the smallest positive float64 and are
    stored as exact zeros. Nodes are strictly increasing.
    """

    alpha: float
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = _readonly(np.asarray(self.nodes, dtype=float))
        weights = _readonly(np.asarray(self.weights, dtype=float))
        if nodes.ndim != 1 or weights.ndim != 1 or nodes.size != weights.size:
            raise DomainError("nodes and weights must be 1-d and equal length")
        if nodes.size == 0:
            raise DomainError("empty rule")
        if not (np.isfinite(nodes).all() and np.isfinite(weights).all()):
            raise DomainError("non-finite rule data")
        if nodes[0] <= 0.0 or np.any(np.diff(nodes) <= 0.0):
            raise DomainError("nodes must be positive and strictly increasing")
        if np.any(weights < 0.0):
            raise DomainError("negative quadrature weight")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def n_points(self) -> int:
        return self.nodes.size

    def integrate(self, values: np.ndarray) -> complex | float:
        """Sum(weights * values): integral against y^alpha e^{-y} dy."""
        values = np.asarray(values)
        if values.shape[-1] != self.nodes.size:
            raise DomainError("values do not match the rule's nodes")
        return values @ self.weights


@dataclass(frozen=True)
class SymTridiagonal:
    """Real symmetric tridiagonal matrix stored as (diag, offdiag)."""

    diag: np.ndarray
    offdiag: np.ndarray

    def __post_init__(self):
        diag = _readonly(np.asarray(self.diag, dtype=float))
        offdiag = _readonly(np.asarray(self.offdiag, dtype=float))
        if diag.ndim != 1 or offdiag.ndim != 1:
            raise DomainError("diag and offdiag must be 1-d")
        if diag.size < 1 or offdiag.size != diag.size - 1:
            raise DomainError("offdiag length must be len(diag) - 1")
        if not (np.isfinite(diag).all() and np.isfinite(offdiag).all()):
            raise DomainError("non-finite matrix data")
        object.__setattr__(self, "diag", diag)
        object.__setattr__(self, "offdiag", offdiag)

    @property
    def order(self) -> int:
        return self.diag.size

    def to_dense(self) -> np.ndarray:
        m = np.diag(self.diag)
        if self.offdiag.size:
            m += np.diag(self.offdiag, 1) + np.diag(self.offdiag, -1)
        return m


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not math.isfinite(alpha) or alpha <= -1.0:
        raise DomainError("alpha must be finite and > -1")
    return alpha


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0.

    Accuracy is a few ulp of the result, i.e. absolute error well below
    1e-13 wherever ln Gamma itself is of order one, and relative error at
    machine level for large arguments.
    """
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"log_gamma requires x > 0, got {x!r}")
    return math.lgamma(x)


def digamma(x: float) -> float:
    """psi(x) = Gamma'(x)/Gamma(x) for x > 0."""
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"digamma requires x > 0, got {x!r}")
    return float(scipy.special.digamma(x))


def laguerre_sequence(n_max: int, alpha: float, y) -> np.ndarray:
    """Generalized Laguerre values [L_0^a(y), ..., L_{n_max}^a(y)].

    Upward three-term recurrence
        n L_n = (2n - 1 + a - y) L_{n-1} - (n - 1 + a) L_{n-2},
    stable for the argument ranges reached by Gauss-Laguerre nodes at the
    orders used here (n up to a few hundred). `y` may be a scalar or an
    array; the result has shape (n_max + 1,) + shape(y). A table of more
    than _MAX_LAGUERRE_VALUES values raises CapabilityError before it is
    allocated.
    """
    n_max = int(n_max)
    if n_max < 0:
        raise DomainError("n_max must be >= 0")
    alpha = _check_alpha(alpha)
    y = np.asarray(y, dtype=float)
    if not np.all(np.isfinite(y)) or np.any(y < 0.0):
        raise DomainError("y must be finite and >= 0")
    if (n_max + 1) * y.size > _MAX_LAGUERRE_VALUES:
        raise CapabilityError(
            f"{n_max + 1} Laguerre orders at {y.size} points exceed the "
            f"supported maximum of {_MAX_LAGUERRE_VALUES} values")
    out = np.empty((n_max + 1,) + y.shape, dtype=float)
    for n, row in enumerate(_laguerre_rows(n_max, alpha, y)):
        out[n] = row
    return out


def _laguerre_rows(n_max: int, alpha: float, y: np.ndarray):
    """Yield L_0^a(y), ..., L_{n_max}^a(y), one row at a time.

    The recurrence of laguerre_sequence, which validates the arguments;
    only the last two rows are held, so a caller that keeps one row needs
    no table.
    """
    row = np.ones_like(y)
    yield row
    if n_max >= 1:
        prev, row = row, 1.0 + alpha - y
        yield row
    for n in range(2, n_max + 1):
        prev, row = row, ((2.0 * n - 1.0 + alpha - y) * row
                          - (n - 1.0 + alpha) * prev) / n
        yield row


def laguerre_generating_sum(w: complex, alpha: float, y) -> complex | np.ndarray:
    """Closed form of sum_n w^n L_n^alpha(y) for |w| < 1.

    Returns (1 - w)^{-alpha-1} exp(-y w/(1 - w)) on the principal branch,
    which is safe because Re(1 - w) > 0 on the open unit disk.
    """
    w = complex(w)
    if abs(w) >= 1.0:
        raise DomainError("generating sum requires |w| < 1")
    alpha = _check_alpha(alpha)
    y = np.asarray(y, dtype=float)
    one_minus = 1.0 - w
    val = np.exp(-(alpha + 1.0) * np.log(one_minus) - y * (w / one_minus))
    return complex(val) if val.ndim == 0 else val


def _christoffel_sums(nodes: np.ndarray, jac_diag: np.ndarray,
                      jac_off: np.ndarray):
    """sum_k p_k(x_j)^2 over the orthonormal polynomials at every node.

    p is kept within [2^-500, 2^500] by exact power-of-two rescaling; the
    returned `shifts` counts how many factors of 2^-1024 each node's sum
    has absorbed. Each step runs in place in preallocated buffers, with
    the same operations in the same order as the plain expression
    ((x - a_{m-1}) p - b_{m-2} p_prev) / b_{m-1}.
    """
    n = nodes.size
    p_lim_sq = 2.0 ** 1000   # p^2 > 2^1000 exactly when |p| > 2^500
    scale = 2.0 ** -512
    diffs = nodes - jac_diag[:n - 1, None]
    p_prev = np.zeros(n)
    p = np.ones(n)
    tmp = np.empty(n)
    pp = np.empty(n)
    sq_sum = np.ones(n)
    shifts = np.zeros(n)
    for m in range(1, n):
        np.multiply(diffs[m - 1], p, out=tmp)
        np.multiply(jac_off[m - 2] if m >= 2 else 0.0, p_prev, out=p_prev)
        np.subtract(tmp, p_prev, out=p_prev)
        np.divide(p_prev, jac_off[m - 1], out=p_prev)
        p_prev, p = p, p_prev
        np.multiply(p, p, out=pp)
        if pp.max() > p_lim_sq:
            big = pp > p_lim_sq
            p[big] *= scale
            p_prev[big] *= scale
            sq_sum[big] *= scale * scale
            shifts[big] += 1.0
            pp[big] = p[big] * p[big]
        sq_sum += pp
    return sq_sum, shifts


def gauss_laguerre_rule(n_points: int, alpha: float) -> QuadratureRule:
    """Generalized Gauss-Laguerre rule for the weight y^alpha e^{-y}.

    Golub-Welsch construction: the nodes are the eigenvalues of the order-n
    Jacobi matrix of the weight (diagonal 2k + alpha + 1, off-diagonal
    sqrt(k (k + alpha))). Each weight equals the zeroth moment Gamma(alpha+1)
    times the squared first component of the corresponding normalized
    eigenvector; that quantity is evaluated through its Christoffel-function
    form, 1 / sum_k p_k(x_j)^2 over the orthonormal polynomials, so that
    weights far below the eigensolver's floor still come out correctly
    (exponent-tracked recurrence, no underflow until the weights leave
    float64 range entirely). A rule with a weight above float range, which
    Gamma(alpha + 1) brings about from alpha near 171, raises
    CapabilityError.
    """
    n_points = int(n_points)
    if n_points < 1:
        raise DomainError("n_points must be >= 1")
    if n_points > _MAX_RULE_POINTS:
        raise CapabilityError(
            f"rule with {n_points} points exceeds the supported maximum "
            f"of {_MAX_RULE_POINTS}")
    alpha = _check_alpha(alpha)

    n = n_points
    k = np.arange(n, dtype=float)
    jac_diag = 2.0 * k + alpha + 1.0
    jac_off = np.sqrt(k[1:] * (k[1:] + alpha))
    nodes = symtridiag_eigen(SymTridiagonal(jac_diag, jac_off))

    sq_sum, shifts = _christoffel_sums(nodes, jac_diag, jac_off)
    log_rescale = 1024.0 * math.log(2.0)
    log_w = log_gamma(alpha + 1.0) - (np.log(sq_sum) + shifts * log_rescale)
    # The zeroth moment Gamma(alpha + 1) leaves float range near alpha = 171.
    if log_w.max() > _LOG_FLOAT_MAX:
        raise CapabilityError(
            f"{n_points}-point rule at alpha = {alpha!r}: a weight of "
            f"e^{log_w.max():.1f} exceeds float range")
    with np.errstate(under="ignore"):
        weights = np.exp(log_w)
    return QuadratureRule(alpha=alpha, nodes=nodes, weights=weights)


# Absolute bisection tolerance: LAPACK's recommended 2 * safe minimum, so
# each selected eigenvalue is resolved to a few ulp of itself. The default
# (eps * ||T||) stops at ~7e-8 at order 12800 and can land below the exact
# level, breaking the Rayleigh-Ritz bound.
_BISECTION_TOL = 2.0 * np.finfo(float).tiny


def symtridiag_eigen(t: SymTridiagonal, want_vectors: bool = False,
                     n_lowest: int | None = None):
    """Eigenvalues (ascending), optionally with orthonormal eigenvectors.

    Returns `values` or `(values, vectors)`; vectors are columns. A full
    solve is LAPACK stevd; `n_lowest` below the order selects the lowest
    pairs by bisection (stebz, then inverse iteration for vectors) at
    O(order * n_lowest) cost. All tridiagonal eigensolves come here.
    """
    if not isinstance(t, SymTridiagonal):
        raise DomainError("expected a SymTridiagonal")
    select = {}
    if n_lowest is not None:
        n_lowest = int(n_lowest)
        if not 1 <= n_lowest <= t.order:
            raise DomainError("n_lowest must lie in [1, order]")
        if n_lowest < t.order:
            select = {"select": "i", "select_range": (0, n_lowest - 1),
                      "tol": _BISECTION_TOL}
    return scipy.linalg.eigh_tridiagonal(
        t.diag, t.offdiag, eigvals_only=not want_vectors,
        lapack_driver="stebz" if select else "stevd", **select)
