"""Deterministic self-check battery.

Each check computes a residual for one mathematical property of the library
and compares it against a fixed tolerance. Checks never sample randomness
and never depend on wall-clock or environment state, so repeated runs
produce byte-identical reports. The quick profile shrinks matrix sizes and
basis depths; it exercises every property, just at lower resolution.

Most checks require the residual to stay below tolerance. A few are
discriminating checks whose job is to show that the data rejects a nearby
wrong formula; those require the residual to exceed the tolerance and say
so in their name.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import coherent, morse_core, numerics, operators
from .errors import TruncationWarning

__all__ = ["CheckResult", "run_checks", "format_text"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    tolerance: float
    passed: bool
    exceeds: bool = False  # True for discriminating checks (pass = above)


def _below(name: str, residual: float, tolerance: float) -> CheckResult:
    return CheckResult(name, float(residual), float(tolerance),
                       bool(residual <= tolerance))


def _above(name: str, residual: float, tolerance: float) -> CheckResult:
    return CheckResult(name, float(residual), float(tolerance),
                       bool(residual > tolerance), exceeds=True)


def _check_gram(quick: bool):
    s, n_basis = 1.75, (12 if quick else 30)
    rule = numerics.gauss_laguerre_rule(128 if quick else 200, 2.0 * s - 1.0)
    env = np.exp(morse_core._log_envelope(s, rule.nodes))
    rows = morse_core.pseudo_wavefunctions(n_basis, s, rule.nodes) / env
    gram = (rows * rule.weights) @ rows.T
    dev = np.abs(gram - np.eye(n_basis + 1)).max()
    yield _below("basis orthonormality under native rule", dev, 1e-10)


def _check_recursion(quick: bool):
    s, n_top = 1.75, (8 if quick else 20)
    rule = numerics.gauss_laguerre_rule(96 if quick else 160, 2.0 * s - 1.0)
    dev = 0.0
    for n, direct in enumerate(
            morse_core.pseudo_wavefunctions(n_top, s, rule.nodes)):
        rec = morse_core.pseudo_wavefunction_recursive(n, s, rule.nodes)
        dev = max(dev, float(np.abs(direct - rec).max()))
    yield _below("recursive evaluation matches direct form", dev, 1e-9)


def _check_fd(quick: bool):
    s = 1.75
    grid_n = 801 if quick else 1601
    grids = [morse_core.LogGrid(-4.0, 12.0, grid_n),
             morse_core.LogGrid(-4.0, 12.0, 2 * grid_n - 1),
             morse_core.LogGrid(-4.0, 12.0, 4 * grid_n - 3)]
    errs_a, errs_h = [], []
    for g in grids:
        phi = morse_core.pseudo_wavefunction(0, s, g.y)
        scale = np.abs(phi).max()
        a_phi = morse_core.apply_operator_fd("A", phi, g, s)
        errs_a.append(float(np.abs(a_phi).max()) / scale)
        h_phi = morse_core.apply_operator_fd("H", phi, g, s)
        resid = h_phi - morse_core.ground_energy(s) * phi[1:-1]
        errs_h.append(float(np.abs(resid).max()) / scale)
    yield _below("lowering operator annihilates ground state", errs_a[0], 1e-3)
    yield _below("Hamiltonian reproduces ground energy", errs_h[0], 1e-3)
    order_a = math.log2(errs_a[0] / errs_a[1])
    order_h = math.log2(errs_h[0] / errs_h[1])
    order2_a = math.log2(errs_a[1] / errs_a[2])
    worst = max(abs(order_a - 2.0), abs(order_h - 2.0), abs(order2_a - 2.0))
    yield _below("stencil convergence order is quadratic", worst, 0.2)


def _check_matrices(quick: bool):
    s, n_dim = 1.75, (40 if quick else 120)
    a0 = operators.matrix_A(s, 0, n_dim)
    a3 = operators.matrix_A(s, 3, n_dim)
    shift_dev = np.abs(a3 - (a0 + 3.0 * np.eye(n_dim))).max()
    yield _below("parameter shift acts as identity offset", shift_dev, 0.0)

    comm = operators.commutator(a0, a0.T)
    expected = 2.0 * s * np.eye(n_dim) - (a0 + a0.T)
    dev = np.abs(comm - expected)
    corner = dev[-1, -1]
    dev[-1, -1] = 0.0
    yield _below("ladder commutator closes on the ladder sum",
                 float(dev.max()), 1e-12 * (2.0 * s + n_dim))

    defect = operators.corner_defect(s, n_dim)
    yield _below("truncation corner defect matches its formula",
                 abs(corner - defect) / defect, 1e-12)


def _check_spectrum(quick: bool):
    s = 3.6
    n_dim = 1600 if quick else 3200
    eigs = operators.spectrum(s, n_dim, n_eigen=4)
    chain = np.array([morse_core.bound_energy(n, s) for n in range(4)])
    yield _below("lowest Ritz value equals the closed ground energy",
                 abs(eigs[0] - chain[0]), 1e-12)
    yield _below("bound energies match s + 1/4 + n(2s - n)",
                 float(np.abs(eigs[:3] - chain[:3]).max()), 1e-3)
    alt = chain + np.arange(4)
    gap = float(np.abs(eigs[1:4] - alt[1:4]).min())
    yield _above("variant s + 1/4 + n(2s - n) + n rejected by Ritz data "
                 "(gap must exceed tolerance)", gap, 0.5)
    thr = morse_core.continuum_threshold(s)
    yield _below("continuum threshold equals (s + 1/2)^2",
                 abs(thr - (s + 0.5) ** 2), 0.0)


def _check_coherent(quick: bool):
    s, beta, n_terms = 1.75, 0.4 + 0.2j, (200 if quick else 400)
    st = coherent.coefficients(beta, s, n_terms)
    bound = coherent.coefficient_tail_bound(beta, s, n_terms)
    yield _below("coherent norm deviates less than its tail bound",
                 abs(st.norm_sq() - 1.0), bound + 5e-14)

    b1, b2 = 0.3, 0.5j
    c1 = coherent.coefficients(b1, s, 1200).coeffs
    c2 = coherent.coefficients(b2, s, 1200).coeffs
    series = complex(np.add.reduce(c1.conj() * c2))
    yield _below("overlap closed form matches coefficient series",
                 abs(series - coherent.overlap(b1, b2, s)), 1e-10)

    y = np.linspace(0.05, 50.0, 101 if quick else 251)
    dev = 0.0
    for lb in (0.5, -0.6, 0.3 + 0.4j):
        dev = max(dev, float(np.abs(
            coherent.wavefunction_series(lb, s, y, n_terms)
            - coherent.wavefunction_closed(lb, s, y)).max()))
    yield _below("wavefunction series matches closed form", dev, 1e-9)

    rt = 0.0
    for lb in (0.9, -0.9, 0.6j, 0.5 - 0.7j):
        back = coherent.from_phase_space(coherent.to_phase_space(lb, s), s)
        rt = max(rt, abs(back.beta - lb))
    yield _below("phase-space relabeling round-trips", rt, 1e-13)

    (x_f, x_q), (p_f, p_q) = coherent._expectation_pairs(0.3 + 0.2j, s)
    yield _below("position expectation matches quadrature",
                 abs(x_q - x_f), 1e-8)
    yield _below("momentum expectation matches quadrature",
                 abs(p_q - p_f), 1e-8)


def _check_resolutions(quick: bool):
    s = 1.75
    m = 8 if quick else 12
    disk = coherent.resolution_of_unity(s, m, n_radial=120 if quick else 200,
                                        n_angular=48 if quick else 64)
    yield _below("disk measure resolves the identity",
                 float(np.abs(disk - math.pi * np.eye(m)).max()), 1e-8)

    m_ps = 6 if quick else 8
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        ps = coherent.phase_space_measure_check(s, m_ps, box=(8.0, 80.0))
    yield _below("phase-space measure resolves the identity",
                 float(np.abs(ps - math.pi * np.eye(m_ps)).max()), 1e-3)


def _check_displacement(quick: bool):
    s, n_dim = 1.75, (150 if quick else 300)
    ps = coherent.PhaseSpaceLabel(0.5, 1.0)
    unit, d_e0, ordering_dev = coherent.displacement_check(ps, s, n_dim)
    yield _below("displacement operator is unitary", unit, 1e-10)

    want = coherent.coefficients(coherent.from_phase_space(ps, s),
                                 s, n_dim).coeffs
    yield _below("displacement of the ground state is the coherent state",
                 float(np.abs(d_e0 - want).max()), 1e-10)
    yield _below("factor orderings agree away from the truncation edge",
                 ordering_dev, 1e-8)


def _check_projection(quick: bool):
    s = 1.75
    rule = numerics.gauss_laguerre_rule(128 if quick else 200, 2.0 * s - 1.0)
    got = coherent.project_onto_basis(
        lambda y: morse_core.pseudo_wavefunction(3, s, y), s, 8, rule)
    want = np.zeros(8)
    want[3] = 1.0
    yield _below("quadrature projection inverts the basis map",
                 float(np.abs(got - want).max()), 1e-10)


_CHECK_GROUPS = (
    _check_gram,
    _check_recursion,
    _check_fd,
    _check_matrices,
    _check_spectrum,
    _check_coherent,
    _check_resolutions,
    _check_displacement,
    _check_projection,
)


def run_checks(quick: bool = False) -> list[CheckResult]:
    """Run every check group in a fixed order and collect the results."""
    results: list[CheckResult] = []
    for group in _CHECK_GROUPS:
        results.extend(group(quick))
    return results


def format_text(results: list[CheckResult]) -> str:
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        rel = ">" if r.exceeds else "<="
        lines.append(f"{status} {r.name}: residual={r.residual!r} "
                     f"(want {rel} tolerance={r.tolerance!r})")
    n_pass = sum(1 for r in results if r.passed)
    lines.append(f"{n_pass}/{len(results)} checks passed")
    return "\n".join(lines) + "\n"
