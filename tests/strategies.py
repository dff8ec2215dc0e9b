"""Hypothesis strategies shared by the test modules."""

import math

import numpy as np
from hypothesis import strategies as st

from cnpcert.series import Rational

phases = st.floats(0.0, 2 * math.pi).map(lambda t: complex(math.cos(t), math.sin(t)))


@st.composite
def schur_symbols(draw):
    """c phi_alpha + d with |c| + |d| <= 0.98 (phi_alpha the Blaschke factor
    at alpha), or z/2 + c z^2 with c in (0, 1/4]."""
    if draw(st.booleans()):
        alpha = draw(st.floats(0.0, 0.9)) * draw(phases)
        c_mod = draw(st.floats(0.05, 0.98))
        c, d = c_mod * draw(phases), draw(st.floats(0.0, 0.98 - c_mod)) * draw(phases)
        return Rational([d - c * alpha, c - d * np.conj(alpha)], [1.0, -np.conj(alpha)])
    return Rational([0.0, 0.5, draw(st.floats(0.0, 0.25, exclude_min=True))], [1.0])
