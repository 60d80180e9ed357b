import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scatsplit as ss
from scatsplit.errors import ConfigError


def test_rectangular_basics():
    bar = ss.make_rectangular(0.0, 1.0, 2.0)
    assert bar.a == 0.0 and bar.b == 1.0
    assert bar.x_c == 0.5
    assert tuple(bar.heights) == (2.0,)


def test_edges_are_exact():
    bar = ss.make_symmetric(-1.0, [(0.3, 1.0), (0.2, 2.0)])
    # mirror: widths (0.3, 0.2, 0.2, 0.3), total 1.0
    assert bar.edges[0] == bar.a
    assert bar.edges[-1] == bar.b
    assert bar.b == pytest.approx(0.0, abs=1e-15)
    assert len(bar.edges) == 5


def test_symmetric_height_mirror():
    bar = ss.make_symmetric(0.0, [(0.5, 1.0), (0.5, 3.0)])
    assert tuple(bar.heights) == (1.0, 3.0, 3.0, 1.0)
    assert bar.x_c == pytest.approx(1.0)


def test_negative_width_rejected():
    with pytest.raises(ConfigError):
        ss.BarrierSpec(0.0, 1.0, ((-0.5, 1.0), (1.5, 1.0)))


def test_asymmetric_heights_rejected():
    with pytest.raises(ConfigError):
        ss.BarrierSpec(0.0, 1.0, ((0.5, 1.0), (0.5, 2.0)))


def test_width_sum_mismatch_rejected():
    with pytest.raises(ConfigError):
        ss.BarrierSpec(0.0, 1.0, ((0.3, 1.0), (0.3, 1.0)))


def test_reversed_interval_rejected():
    with pytest.raises(ConfigError):
        ss.make_rectangular(1.0, 0.0, 2.0)


def test_potential_at_sampling():
    bar = ss.make_symmetric(0.0, [(0.5, 1.0), (0.5, 3.0)])
    xs = np.array([-1.0, 0.25, 0.75, 1.25, 1.75, 5.0])
    np.testing.assert_array_equal(
        ss.potential_at(bar, xs), [0.0, 1.0, 3.0, 3.0, 1.0, 0.0]
    )


def test_potential_at_edge_convention():
    # half-open segments: the right endpoint belongs to the outside
    bar = ss.make_rectangular(0.0, 1.0, 2.0)
    assert ss.potential_at(bar, np.array([0.0]))[0] == 2.0
    assert ss.potential_at(bar, np.array([1.0]))[0] == 0.0


def test_shifted_preserves_symmetry():
    bar = ss.make_symmetric(0.0, [(0.4, 1.0), (0.6, 2.5)])
    sh = ss.shifted(bar, -0.25)
    assert tuple(sh.heights) == tuple(h - 0.25 for h in bar.heights)
    assert sh.a == bar.a and sh.b == bar.b


@settings(max_examples=60, deadline=None)
@given(
    a=st.floats(-5, 2),
    half=st.lists(
        st.tuples(st.floats(0.05, 2.0), st.floats(-3.0, 8.0)),
        min_size=1, max_size=4,
    ),
)
def test_make_symmetric_always_valid(a, half):
    bar = ss.make_symmetric(a, half)
    assert bar.b > bar.a
    assert len(bar.segments) == 2 * len(half)
    # widths sum exactly to the interval length in floating point
    assert sum(w for w, _ in bar.segments) == bar.b - bar.a
    # x_c is the mirror point
    assert bar.x_c == pytest.approx((bar.a + bar.b) / 2, rel=0, abs=1e-12)
