"""Property tests over generated shape parameters and disk labels.

Examples are drawn deterministically (derandomized), so every run checks
the same cases.
"""

import cmath
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from morsecs.coherent import (
    coefficient_tail_bound,
    coefficients,
    from_phase_space,
    overlap,
    to_phase_space,
)

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
