"""Rotated extents, corridor pinning, and the stacked-chain hypotheses.

The derivative oracle is a central finite difference of the signed extent
h*cos(b) + w*sin(b), whose right branch coincides with the extent; the
two-sided difference of the extent itself is useless at the corner.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polylock.corridor import (
    ChainReport,
    CorridorScene,
    InfeasibleSceneError,
    MAX_LENGTH,
    PinningReport,
    RectChainScene,
    chain_hypotheses_hold,
    corridor_pins_horizontally,
    rotated_vertical_extent,
)

sides = st.floats(min_value=0.05, max_value=50, allow_nan=False)


def _fd_derivative_at_zero(w, h, delta=1e-5):
    signed = lambda b: h * math.cos(b) + w * math.sin(b)
    return (signed(delta) - signed(-delta)) / (2 * delta)


def _taylor(b, first, degree):
    """sum of (-1)**i * b**k / k! over k = first, first + 2, ... <= degree."""
    return sum(
        Fraction((-1) ** i) * b**k / math.factorial(k)
        for i, k in enumerate(range(first, degree + 1, 2))
    )


def _extent_upper_bound(w, h, b):
    """h*cos(b) + w*sin(b) is at most this for 0 < b < pi/2: both
    polynomials end in a positive term."""
    return h * _taylor(b, 0, 60) + w * _taylor(b, 1, 61)


def _extent_lower_bound(w, h, b):
    """...and at least this: both polynomials end in a negative term."""
    return h * _taylor(b, 0, 2) + w * _taylor(b, 1, 3)


class TestRotatedVerticalExtent:
    @given(w=sides, h=sides)
    def test_zero_rotation_returns_height_exactly(self, w, h):
        assert rotated_vertical_extent(w, h, 0.0) == h

    def test_unit_square_diagonal(self):
        assert rotated_vertical_extent(1, 1, math.pi / 4) == pytest.approx(
            math.sqrt(2), rel=1e-12
        )

    @given(w=sides, h=sides, beta=st.floats(-1.5, 1.5))
    def test_even_in_beta(self, w, h, beta):
        assert rotated_vertical_extent(w, h, beta) == rotated_vertical_extent(
            w, h, -beta
        )

    def test_exceeds_height_and_increases_up_to_the_peak(self):
        w, h = 3.0, 2.0
        top = math.atan2(w, h)
        samples = [
            rotated_vertical_extent(w, h, top * i / 1001) for i in range(1, 1001)
        ]
        assert all(value > h for value in samples)
        assert all(a < b for a, b in zip(samples, samples[1:]))

    @given(w=sides, h=sides)
    @settings(max_examples=50)
    def test_derivative_at_zero_is_the_width(self, w, h):
        assert _fd_derivative_at_zero(w, h) == pytest.approx(w, rel=1e-6)

    @pytest.mark.parametrize(
        "w, h, beta",
        [
            (0, 1, 0.1),
            (-2, 1, 0.1),
            (1, 0, 0.1),
            (1, 1, math.pi / 2),
            (1, 1, -math.pi),
            (1, 1, math.inf),
            (1, 1, math.nan),
            (1, 1, True),
            (math.nan, 1, 0.1),
        ],
    )
    def test_domain_violations(self, w, h, beta):
        with pytest.raises(ValueError):
            rotated_vertical_extent(w, h, beta)


class TestCorridorPinsHorizontally:
    def test_snug_fit_is_pinned_with_width_certificate(self):
        report = corridor_pins_horizontally(
            CorridorScene(rect_width=2, rect_height=1, corridor_gap=1)
        )
        assert report == PinningReport(pinned=True, derivative_at_zero=2.0)

    def test_loose_fit_yields_a_fitting_rotation(self):
        report = corridor_pins_horizontally(
            CorridorScene(rect_width=2, rect_height=1, corridor_gap=1.5)
        )
        assert not report.pinned
        beta = report.witness_beta
        assert 0 < beta < math.atan2(2, 1)
        extent = rotated_vertical_extent(2, 1, beta)
        assert extent <= 1.5
        assert 1.5 - extent < 1e-6

    def test_very_wide_gap_admits_the_peak_rotation(self):
        report = corridor_pins_horizontally(
            CorridorScene(rect_width=2, rect_height=1, corridor_gap=5)
        )
        assert not report.pinned
        assert report.witness_beta == math.atan2(2, 1)

    def test_lengths_beyond_the_float_range_are_refused(self):
        huge = Fraction(10) ** 400
        with pytest.raises(ValueError, match="at most 1e300"):
            rotated_vertical_extent(huge, 1, 0.1)
        with pytest.raises(ValueError, match="at most 1e300"):
            CorridorScene(rect_width=1, rect_height=1, corridor_gap=huge)
        assert rotated_vertical_extent(MAX_LENGTH, 1, 0.1) < math.inf

    def test_height_below_the_float_range_is_decided_exactly(self):
        tiny = Fraction(1, 10**400)
        loose = corridor_pins_horizontally(
            CorridorScene(rect_width=1, rect_height=tiny, corridor_gap=1)
        )
        assert not loose.pinned and loose.witness_beta > 0
        snug = corridor_pins_horizontally(
            CorridorScene(rect_width=1, rect_height=tiny, corridor_gap=tiny)
        )
        assert snug == PinningReport(pinned=True, derivative_at_zero=1.0)

    def test_width_below_the_float_range_yields_a_positive_witness(self):
        tiny = Fraction(1, 10**400)
        report = corridor_pins_horizontally(
            CorridorScene(rect_width=tiny, rect_height=1, corridor_gap=1.5)
        )
        assert not report.pinned
        assert 0 < report.witness_beta < math.pi / 2
        assert rotated_vertical_extent(tiny, 1, report.witness_beta) <= 1.5
        # all three lengths below the float range: the witness still fits
        # exactly, (cos + sin) of it stays within gap / height = 1.1
        gap = tiny * Fraction(11, 10)
        report = corridor_pins_horizontally(
            CorridorScene(rect_width=tiny, rect_height=tiny, corridor_gap=gap)
        )
        beta = report.witness_beta
        assert 0 < beta and math.cos(beta) + math.sin(beta) <= 1.1

    def test_witness_is_halved_until_it_fits_exactly(self):
        # the gap rounds to the float 1.0, where the float extent test
        # accepts angles whose true extent overshoots the gap
        gap = Fraction("1.00000000000000000001")
        scene = CorridorScene(rect_width=10**10, rect_height=1, corridor_gap=gap)
        beta = corridor_pins_horizontally(scene).witness_beta
        assert 0 < beta
        assert _extent_upper_bound(10**10, 1, Fraction(beta)) <= gap
        # the unhalved bisection result does not fit: lower bound above the gap
        old = Fraction(1.015103334149633e-26)
        assert _extent_lower_bound(10**10, 1, old) > gap
        assert _extent_lower_bound(10**10, 1, Fraction(beta) * 2) > gap

    def test_no_certified_float_witness_is_none(self):
        h = Fraction(1, 10**30)
        gap = h * Fraction("1.0000000000000000000001")
        scene = CorridorScene(rect_width=10**300, rect_height=h, corridor_gap=gap)
        assert corridor_pins_horizontally(scene) == PinningReport(pinned=False)
        # not even the smallest positive float fits
        assert _extent_lower_bound(10**300, h, Fraction(5e-324)) > gap

    @given(
        w=st.floats(1e-6, 1e6),
        h=st.floats(1e-6, 1e6),
        digits=st.integers(0, 40),
    )
    @settings(max_examples=100)
    def test_every_witness_fits_exactly(self, w, h, digits):
        gap = Fraction(h) * (1 + Fraction(1, 10**digits))
        scene = CorridorScene(rect_width=w, rect_height=h, corridor_gap=gap)
        beta = corridor_pins_horizontally(scene).witness_beta
        assert beta is not None and 0 < beta < math.pi / 2
        assert _extent_upper_bound(Fraction(w), Fraction(h), Fraction(beta)) <= gap

    def test_too_narrow_gap_is_infeasible(self):
        with pytest.raises(InfeasibleSceneError):
            corridor_pins_horizontally(
                CorridorScene(rect_width=2, rect_height=1, corridor_gap=0.9)
            )

    def test_snugness_is_decided_exactly_on_rationals(self):
        report = corridor_pins_horizontally(
            CorridorScene(
                rect_width=2,
                rect_height=Fraction(1, 3),
                corridor_gap=Fraction(1, 3),
            )
        )
        assert report.pinned

    def test_float_artifacts_are_not_rounded_into_snugness(self):
        # 0.1 + 0.2 is strictly above 0.3 in binary, so the rectangle
        # is taller than the gap and the scene is infeasible
        with pytest.raises(InfeasibleSceneError):
            corridor_pins_horizontally(
                CorridorScene(rect_width=1, rect_height=0.1 + 0.2, corridor_gap=0.3)
            )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rect_width": 0, "rect_height": 1, "corridor_gap": 1},
            {"rect_width": 1, "rect_height": -1, "corridor_gap": 1},
            {"rect_width": 1, "rect_height": 1, "corridor_gap": 0},
            {"rect_width": math.inf, "rect_height": 1, "corridor_gap": 1},
        ],
    )
    def test_scene_validation(self, kwargs):
        with pytest.raises(ValueError):
            CorridorScene(**kwargs)


class TestChainHypotheses:
    def test_two_rectangles_with_generous_overlap(self):
        scene = RectChainScene(
            rects=((5, 1), (5, 1)), overlaps=(5,), corridor_gap=2, epsilon=0.4
        )
        assert chain_hypotheses_hold(scene) == ChainReport(
            holds=True, inner_widths=(3.0,)
        )

    def test_epsilon_at_the_tenth_bound_fails(self):
        scene = RectChainScene(
            rects=((5, 1), (5, 1)), overlaps=(5,), corridor_gap=2, epsilon=0.6
        )
        report = chain_hypotheses_hold(scene)
        assert not report.holds
        assert report.inner_widths == ()
        assert report.failure.startswith("epsilon-bound")

    def test_single_snug_rectangle_reduces_to_the_corridor_case(self):
        scene = RectChainScene(
            rects=((5, 2),), overlaps=(), corridor_gap=2, epsilon=0.1
        )
        assert chain_hypotheses_hold(scene) == ChainReport(
            holds=True, inner_widths=()
        )

    def test_loose_stack_fails_snugness(self):
        scene = RectChainScene(
            rects=((5, 1), (5, 1)), overlaps=(5,), corridor_gap=3, epsilon=0.1
        )
        report = chain_hypotheses_hold(scene)
        assert not report.holds
        assert report.failure.startswith("snug-stack")

    def test_thin_overlap_leaves_no_inner_rectangle(self):
        scene = RectChainScene(
            rects=((5, 1), (5, 1)), overlaps=(2,), corridor_gap=2, epsilon=0.1
        )
        report = chain_hypotheses_hold(scene)
        assert not report.holds
        assert report.failure.startswith("inner-rectangle")

    def test_overlap_wider_than_a_neighbour_is_rejected(self):
        scene = RectChainScene(
            rects=((5, 1), (4, 1)), overlaps=(4.5,), corridor_gap=2, epsilon=0.1
        )
        report = chain_hypotheses_hold(scene)
        assert not report.holds
        assert report.failure.startswith("inner-rectangle")

    def test_snugness_sums_rationals_exactly(self):
        third = Fraction(1, 3)
        scene = RectChainScene(
            rects=((5, third), (5, third), (5, third)),
            overlaps=(5, 5),
            corridor_gap=1,
            epsilon=0.2,
        )
        report = chain_hypotheses_hold(scene)
        assert report.holds
        assert report.inner_widths == (3.0, 3.0)

    def test_hypotheses_are_checked_in_order(self):
        # both the epsilon bound and snugness fail; epsilon is reported
        scene = RectChainScene(
            rects=((5, 1), (5, 1)), overlaps=(5,), corridor_gap=9, epsilon=2
        )
        assert chain_hypotheses_hold(scene).failure.startswith("epsilon-bound")

    def test_narrowest_width_sets_the_epsilon_bound(self):
        in_bound = RectChainScene(
            rects=((5, 1), (2, 1)), overlaps=(2,), corridor_gap=2, epsilon=0.15
        )
        report = chain_hypotheses_hold(in_bound)
        assert report.holds
        over = RectChainScene(
            rects=((5, 1), (2, 1)), overlaps=(2,), corridor_gap=2, epsilon=0.25
        )
        assert chain_hypotheses_hold(over).failure.startswith("epsilon-bound")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rects": (), "overlaps": (), "corridor_gap": 1},
            {"rects": ((1, 1),), "overlaps": (1,), "corridor_gap": 1},
            {"rects": ((1, 1), (1, 1)), "overlaps": (), "corridor_gap": 2},
            {"rects": ((0, 1), (1, 1)), "overlaps": (1,), "corridor_gap": 2},
            {"rects": ((1, 1), (1, 1)), "overlaps": (-1,), "corridor_gap": 2},
            {"rects": ((1, 1),), "overlaps": (), "corridor_gap": 1, "epsilon": -1},
        ],
    )
    def test_scene_validation(self, kwargs):
        with pytest.raises(ValueError):
            RectChainScene(**kwargs)
