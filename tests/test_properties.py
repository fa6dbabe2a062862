"""Property tests over generated shape parameters and disk labels.

Examples are drawn deterministically (derandomized), so every run checks
the same cases.
"""

import cmath
import math
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from morsecs.coherent import (
    PhaseSpaceLabel,
    coefficient_tail_bound,
    coefficients,
    displacement_check,
    from_phase_space,
    overlap,
    to_phase_space,
)
from morsecs.errors import MarginalStateWarning, TruncationWarning
from morsecs.morse_core import bound_energy
from morsecs.operators import _band_entries, bound_spectrum, matrix_H

_SETTINGS = settings(derandomize=True, max_examples=50, deadline=None)

shape = st.floats(min_value=0.55, max_value=50.0, exclude_min=True)


@st.composite
def disk_labels(draw, r_max=0.9):
    r = draw(st.floats(min_value=0.0, max_value=r_max))
    theta = draw(st.floats(min_value=-math.pi, max_value=math.pi))
    return cmath.rect(r, theta)


@_SETTINGS
@given(s=shape, beta=disk_labels())
def test_phase_space_round_trip(s, beta):
    back = from_phase_space(to_phase_space(beta, s), s).beta
    assert abs(back - beta) < 1e-13


@_SETTINGS
@given(s=shape, b1=disk_labels(), b2=disk_labels())
def test_overlap_matches_coefficient_series(s, b1, b2):
    # Truncate where both dropped weights are below 1e-15, so the series
    # differs from the full inner product by less than about 1e-15.
    n = 64
    while max(coefficient_tail_bound(b1, s, n),
              coefficient_tail_bound(b2, s, n)) > 1e-15:
        n *= 2
    c1 = coefficients(b1, s, n).coeffs
    c2 = coefficients(b2, s, n).coeffs
    series = complex(np.add.reduce(c1.conj() * c2))
    assert abs(series - overlap(b1, b2, s)) < 1e-11


@_SETTINGS
@given(s=st.floats(min_value=0.55, max_value=200.0, exclude_min=True),
       beta=disk_labels(r_max=0.99), n=st.integers(min_value=3, max_value=150))
def test_displacement_reproduces_coefficients(s, beta, n):
    # D e0 is the state of the label up to the weight truncation drops:
    # that of the state itself and of the xp ordering's intermediate state
    # (0, p), which the momentum factor produces first.
    ps = to_phase_space(beta, s)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        unitarity, d_e0, _ = displacement_check(ps, s, n)
    fidelity = abs(np.vdot(coefficients(beta, s, n).coeffs, d_e0))
    mid = from_phase_space(PhaseSpaceLabel(0.0, ps.p_tilde), s)
    tails = (coefficient_tail_bound(beta, s, n)
             + coefficient_tail_bound(mid, s, n))
    assert unitarity <= 1e-10
    assert 1.0 - fidelity <= tails + 1e-10


deep_shape = st.floats(min_value=0.05, max_value=200.0, exclude_min=True)


@_SETTINGS
@given(s=deep_shape | st.integers(min_value=1, max_value=200).map(float))
def test_bound_spectrum_matches_formula(s):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MarginalStateWarning)
        vals = bound_spectrum(s)
    assert len(vals) == math.floor(s + 1.0)
    assert vals[0] == s + 0.25
    for k, v in enumerate(vals):
        e = bound_energy(k, s)
        assert abs(v - e) <= 1e-14 * e, k
    if s == math.floor(s):
        assert vals[-1] == (s + 0.5) ** 2


@_SETTINGS
@given(s=st.floats(min_value=0.05, max_value=200.0),
       n=st.integers(min_value=2, max_value=400))
def test_default_sigma_keeps_closed_form_bits(s, n):
    # The closed form before sigma existed: diag 2m(m + s - 1/2) + s + 1/4,
    # coupling -m sqrt((m+1)(2s+m)).
    m = np.arange(n, dtype=float)
    diag = 2.0 * m * (m + s - 0.5) + (s + 0.25)
    off = -m[:-1] * _band_entries(s, n) + 0.0
    for h in (matrix_H(s, n), matrix_H(s, n, sigma=s)):
        assert h.diag.tobytes() == diag.tobytes()
        assert h.offdiag.tobytes() == off.tobytes()
