"""Property-based tests: recursion invariants of the exact path and the
kinematics round trips, over generated inputs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kinseg.bocpd import HazardConfig, infer_posterior, informative_prior, noninformative_prior
from kinseg.kinematics import adr_embed, adr_invert, axis_angle_to_quaternion
from util_data import axis_angle_of

finite = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)
series = st.integers(0, 25).flatmap(lambda t: arrays(np.float64, (t, 3), elements=finite))
unit = st.floats(-1.0, 1.0, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(values=series, p=st.floats(1e-3, 0.5), informative=st.booleans())
def test_exact_recursion_invariants(values, p, informative):
    prior = informative_prior() if informative else noninformative_prior()
    P = infer_posterior(values, prior, HazardConfig(p))
    assert P.size == len(values) + 1
    for k in range(P.size):
        run_lengths = P.run_lengths[P.indptr[k]:P.indptr[k + 1]]
        weights = P.weights[P.indptr[k]:P.indptr[k + 1]]
        assert abs(weights.sum() - 1.0) <= 1e-12
        assert run_lengths.max() <= k
        if k:
            assert run_lengths[0] == 0
            assert weights[0] == pytest.approx(p, rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(q=arrays(np.float64, 4, elements=unit).filter(lambda q: np.linalg.norm(q) > 0.1))
def test_quaternion_axis_angle_round_trip(q):
    q = q / np.linalg.norm(q)
    axis, angle = axis_angle_of(q)
    back = axis_angle_to_quaternion(axis, angle)
    # q and -q are one rotation
    assert min(np.abs(back - q).max(), np.abs(back + q).max()) < 1e-6


@settings(max_examples=200, deadline=None)
@given(axes=arrays(np.float64, (5, 3), elements=unit).filter(
           lambda a: np.all(np.linalg.norm(a, axis=1) > 0.1)),
       angles=arrays(np.float64, 5, elements=st.floats(0.0, np.pi)))
def test_adr_embed_invert_round_trip(axes, angles):
    axes = axes / np.linalg.norm(axes, axis=1)[:, None]
    back_axes, back_angles = adr_invert(adr_embed(axes, angles))
    assert np.allclose(back_axes, axes, rtol=0.0, atol=1e-12)
    assert np.allclose(back_angles, angles, rtol=0.0, atol=1e-12)
