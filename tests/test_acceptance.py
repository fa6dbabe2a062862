"""End-to-end acceptance battery.

Twelve numbered criteria, one test each, with the tolerances and time
budgets they must meet. Each test prints one summary line with the measured
figure so a -v run reads as a checklist; the assertions carry the same
numbers.
"""

import math
import subprocess
import sys
import time
import warnings

import numpy as np

from morsecs.coherent import (
    coefficient_tail_bound,
    coefficients,
    displacement_matrix,
    expectation_P,
    expectation_X,
    from_phase_space,
    overlap,
    phase_space_measure_check,
    resolution_of_unity,
    to_phase_space,
    wavefunction_closed,
    wavefunction_series,
    PhaseSpaceLabel,
)
from morsecs.errors import TruncationWarning
from morsecs.morse_core import (
    LogGrid,
    apply_operator_fd,
    bound_energy,
    ground_energy,
    pseudo_wavefunction,
    pseudo_wavefunction_recursive,
)
from morsecs.numerics import digamma, gauss_laguerre_rule
from morsecs.operators import (
    commutator,
    corner_defect,
    matrix_A,
    matrix_Adag,
    matrix_H,
    matrix_element_oracle,
    spectrum,
)

S_VALUES = (0.75, 1.75, 3.6)


def report(num, text):
    print(f"[criterion {num:02d}] {text}")


def test_criterion_01_orthonormality():
    t0 = time.monotonic()
    worst = 0.0
    for s in S_VALUES:
        rule = gauss_laguerre_rule(200, 2.0 * s - 1.0)
        env = np.exp(s * np.log(rule.nodes) - 0.5 * rule.nodes)
        rows = np.vstack([pseudo_wavefunction(n, s, rule.nodes) / env
                          for n in range(31)])
        gram = (rows * rule.weights) @ rows.T
        worst = max(worst, float(np.abs(gram - np.eye(31)).max()))
    elapsed = time.monotonic() - t0
    report(1, f"gram deviation {worst:.3e} (tol 1e-10), {elapsed:.2f}s (< 5s)")
    assert worst < 1e-10
    assert elapsed < 5.0


def test_criterion_02_recursion_matches_closed_form():
    worst = 0.0
    for s in S_VALUES:
        rule = gauss_laguerre_rule(200, 2.0 * s - 1.0)
        for n in range(21):
            direct = pseudo_wavefunction(n, s, rule.nodes)
            rec = pseudo_wavefunction_recursive(n, s, rule.nodes)
            worst = max(worst, float(np.abs(direct - rec).max()))
    report(2, f"recursion deviation {worst:.3e} (tol 1e-9)")
    assert worst < 1e-9


def test_criterion_03_finite_difference_oracle():
    worst_order_gap = 0.0
    for s in S_VALUES:
        assert ground_energy(s) == s + 0.25
        errs_a, errs_h = [], []
        for n_pts in (801, 1601, 3201):
            grid = LogGrid(-4.0, 12.0, n_pts)
            phi = pseudo_wavefunction(0, s, grid.y)
            scale = float(np.abs(phi).max())
            errs_a.append(float(np.abs(
                apply_operator_fd("A", phi, grid, s)).max()) / scale)
            resid = (apply_operator_fd("H", phi, grid, s)
                     - ground_energy(s) * phi[1:-1])
            errs_h.append(float(np.abs(resid).max()) / scale)
        for errs in (errs_a, errs_h):
            for lo, hi in ((0, 1), (1, 2)):
                order = math.log2(errs[lo] / errs[hi])
                worst_order_gap = max(worst_order_gap, abs(order - 2.0))
    report(3, f"observed order within {worst_order_gap:.3f} of 2 (tol 0.2)")
    assert worst_order_gap < 0.2


def test_criterion_04_shift_identity_and_commutator():
    n = 32
    worst_comm, worst_corner = 0.0, 0.0
    for s in S_VALUES:
        a0 = matrix_A(s, 0, n)
        for k in (-3, 2):
            shifted = matrix_A(s, k, n)
            assert np.array_equal(shifted, a0 + k * np.eye(n))
        lhs = commutator(a0, matrix_Adag(s, 0, n))
        rhs = 2.0 * s * np.eye(n) - (a0 + a0.T)
        diff = np.abs(lhs - rhs)
        corner = diff[n - 1, n - 1]
        diff[n - 1, n - 1] = 0.0
        worst_comm = max(worst_comm, float(diff.max()) / (2.0 * s + n))
        worst_corner = max(worst_corner,
                           abs(corner - corner_defect(s, n)) / corner_defect(s, n))
    report(4, f"shift exact; commutator {worst_comm:.3e} (tol 1e-12 scaled), "
              f"corner defect rel {worst_corner:.3e} (tol 1e-12)")
    assert worst_comm < 1e-12
    assert worst_corner < 1e-12


def test_criterion_05_bound_spectrum():
    t0 = time.monotonic()
    s = 3.6
    values = {}
    prev = None
    plateau_at = {}
    for n in (200, 400, 800, 1600, 3200):
        vals = spectrum(s, n, 4)
        if prev is not None:
            for k in (1, 2):
                if k not in plateau_at and abs(vals[k] - prev[k]) < 1e-6:
                    plateau_at[k] = n
        values[n] = vals
        prev = vals
    elapsed = time.monotonic() - t0
    final = values[3200]
    assert abs(final[0] - 3.85) < 1e-12
    assert set(plateau_at) == {1, 2}, "levels 1-2 must plateau by order 3200"
    assert abs(final[1] - bound_energy(1, s)) < 1e-3
    assert abs(final[2] - bound_energy(2, s)) < 1e-3
    gap3 = abs(values[1600][3] - bound_energy(3, s))
    assert gap3 < 5e-2
    report(5, f"ground exact, levels 1-2 plateaued at orders "
              f"{plateau_at[1]}/{plateau_at[2]}, level 3 within {gap3:.3f} "
              f"(tol 5e-2), {elapsed:.1f}s (< 60s)")
    assert elapsed < 60.0


def test_criterion_06_matrix_element_oracle():
    s = 1.75
    exact = matrix_H(s, 8).to_dense()
    worst_ratio = 0.0
    for m in range(7):
        for n in range(7):
            val, bar = matrix_element_oracle(m, n, "H", s)
            err = abs(val - exact[m, n])
            allowed = max(bar, 1e-9)
            worst_ratio = max(worst_ratio, err / allowed)
            assert err <= allowed, (m, n, err, bar)
    report(6, f"oracle within error bars, worst err/bar {worst_ratio:.3f}")


BETA_GRID = (0.0, 0.6, -0.6, 0.6j, -0.6j, 0.3 + 0.3j, 0.3 - 0.3j,
             -0.3 + 0.44j, 0.5)


def test_criterion_07_normalization_and_overlap():
    s, n_terms = 1.75, 400
    worst_norm, worst_ovl = 0.0, 0.0
    refs = {}
    for beta in BETA_GRID:
        st = coefficients(beta, s, n_terms)
        bound = coefficient_tail_bound(beta, s, n_terms)
        gap = abs(st.norm_sq() - 1.0)
        assert gap <= bound + 5e-14, (beta, gap, bound)
        worst_norm = max(worst_norm, gap)
        refs[beta] = coefficients(beta, s, 2000).coeffs
    for b1 in BETA_GRID:
        for b2 in BETA_GRID:
            series = complex(np.add.reduce(refs[b1].conj() * refs[b2]))
            worst_ovl = max(worst_ovl, abs(series - overlap(b1, b2, s)))
    report(7, f"norm within bound (worst {worst_norm:.3e}); overlap vs "
              f"series {worst_ovl:.3e} (tol 1e-10) on {len(BETA_GRID)}^2 pairs")
    assert worst_ovl < 1e-10


def test_criterion_08_series_matches_closed_wavefunction():
    y = np.linspace(0.05, 70.0, 401)
    worst = 0.0
    for s in S_VALUES:
        for beta in (0.6, -0.6, 0.6j, 0.3 + 0.4j, 0.5):
            dev = float(np.abs(wavefunction_series(beta, s, y, 400)
                               - wavefunction_closed(beta, s, y)).max())
            worst = max(worst, dev)
    report(8, f"series vs closed {worst:.3e} (tol 1e-9, 400 terms)")
    assert worst < 1e-9


def test_criterion_09_resolutions_of_unity():
    t0 = time.monotonic()
    s = 1.75
    disk = resolution_of_unity(s, 12, n_radial=200, n_angular=64)
    disk_dev = float(np.abs(disk - math.pi * np.eye(12)).max())
    assert disk_dev < 1e-6

    # The sheared box (|x| <= 8, |q| <= 80) and its tail estimate are the
    # documented truncation policy of phase_space_measure_check.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        ps = phase_space_measure_check(s, 8, box=(8.0, 80.0))
    ps_dev = float(np.abs(ps - math.pi * np.eye(8)).max())
    assert ps_dev < 1e-3

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ps_fine = phase_space_measure_check(s, 8, box=(12.0, 400.0))
    disk8 = resolution_of_unity(s, 8, n_radial=200, n_angular=64)
    cross = float(np.abs(ps_fine - disk8).max())
    assert cross < 1e-5
    elapsed = time.monotonic() - t0
    report(9, f"disk {disk_dev:.3e} (tol 1e-6), sheared box {ps_dev:.3e} "
              f"(tol 1e-3), forms agree {cross:.3e} (tol 1e-5), "
              f"{elapsed:.1f}s (< 120s)")
    assert elapsed < 120.0


def test_criterion_10_expectation_values():
    cases = [
        (0.0 + 0.0j, 0.75), (0.0 + 0.0j, 1.75), (0.5 + 0.0j, 1.0),
        (0.5j, 1.0), (0.3 + 0.4j, 1.75), (-0.6 + 0.0j, 3.6),
    ]
    for beta, s in cases:
        x_val = expectation_X(beta, s)  # raises beyond 1e-8 drift
        p_val = expectation_P(beta, s)
        if beta == 0.0:
            assert abs(x_val - (math.log(2.0) - digamma(2.0 * s))) < 1e-12
            assert p_val == 0.0
    assert abs(expectation_P(0.5j, 1.0) - 4.0 / 3.0) < 1e-8
    report(10, f"formula vs quadrature within 1e-8 on {len(cases)} labels, "
               f"anchors reproduced")


def test_criterion_11_displacement_operator():
    s, n = 1.75, 300
    eye = np.eye(n)
    worst_unit, worst_fid_gap, worst_ord = 0.0, 0.0, 0.0
    for beta in (0.5, -0.5, 0.35j, 0.3 + 0.4j):
        ps = to_phase_space(beta, s)
        d_xp, d_px = displacement_matrix(ps, s, n)
        worst_unit = max(worst_unit, float(
            np.abs(d_xp.conj().T @ d_xp - eye).max()))
        target = coefficients(beta, s, n).coeffs
        fid = float(abs(np.vdot(target, d_xp[:, 0])))
        worst_fid_gap = max(worst_fid_gap, 1.0 - fid)
        k = n // 2
        worst_ord = max(worst_ord, float(np.abs((d_xp - d_px)[:k, :k]).max()))
    report(11, f"unitarity {worst_unit:.3e} (tol 1e-10), fidelity gap "
               f"{worst_fid_gap:.3e} (tol 1e-6), orderings {worst_ord:.3e} "
               f"(tol 1e-8)")
    assert worst_unit < 1e-10
    assert worst_fid_gap < 1e-6
    assert worst_ord < 1e-8


def test_criterion_12_cli_verify_quick():
    t0 = time.monotonic()
    first = subprocess.run(
        [sys.executable, "-m", "morsecs.cli", "verify", "--quick"],
        capture_output=True)
    elapsed = time.monotonic() - t0
    second = subprocess.run(
        [sys.executable, "-m", "morsecs.cli", "verify", "--quick"],
        capture_output=True)
    assert first.returncode == 0, first.stderr.decode()
    assert second.returncode == 0
    assert first.stdout == second.stdout
    lines = [ln for ln in first.stdout.decode().splitlines()
             if ln.startswith("PASS")]
    assert len(lines) >= 15
    report(12, f"verify --quick: {len(lines)} PASS lines, byte-identical, "
               f"{elapsed:.1f}s (< 60s)")
    assert elapsed < 60.0
