"""Continuous checks behind the corridor-pinning arguments.

Two facts on the real plane back up the grid results: a rectangle held
snugly between two horizontal lines cannot rotate or shift vertically
(its rotated vertical extent strictly exceeds its height), and a snug
stack of overlapping rectangles satisfies the quantitative hypotheses
that pin every level onto horizontal sliders.

Measurements use floats; decisions that classify a scene (snug or not,
feasible or not, bound met or not) compare exact rationals, so a fit
that is snug in the input data is never misread through rounding, and a
printed witness angle is certified on rationals. Floats carry only the
printed measurements and the witness search, so every length is
capped at `MAX_LENGTH`, which keeps them finite. A positive length too
small for a float is still valid: it is decided exactly, the printed
derivative measures it as 0.0, and the witness search then measures every
length of the scene in units of the largest one.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

Number = int | float | Fraction

#: Absolute interval tolerance for witness-angle bisection.
BISECTION_TOLERANCE = 1e-9

#: Taylor degree past which a witness angle whose fit is still undecided
#: counts as unproven.
_TAYLOR_DEGREE = 120

#: Denominator of the proof's epsilon bound: epsilon < width / 10.
EPSILON_DIVISOR = 10

#: Denominator of the margin construction: margins of width / 5 per side.
MARGIN_DIVISOR = 5

#: Largest accepted length (width, height, gap, overlap or epsilon), so that
#: the floats measured from it (sums included) stay finite.
MAX_LENGTH = 10**300


class InfeasibleSceneError(ValueError):
    """The rectangle is taller than the corridor and cannot fit at all."""


def _checked(name: str, value: Number, minimum_exclusive: bool = True) -> Number:
    if isinstance(value, bool) or not isinstance(value, (int, float, Fraction)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if minimum_exclusive and value <= 0:
        raise ValueError(f"{name} must be positive, got {value!r}")
    if not minimum_exclusive and value < 0:
        raise ValueError(f"{name} must be non-negative, got {value!r}")
    if value > MAX_LENGTH:
        raise ValueError(f"{name} must be at most 1e300")
    return value


@dataclass(frozen=True)
class CorridorScene:
    """One w-by-h rectangle between two horizontal lines a gap apart."""

    rect_width: Number
    rect_height: Number
    corridor_gap: Number

    def __post_init__(self):
        _checked("rect_width", self.rect_width)
        _checked("rect_height", self.rect_height)
        _checked("corridor_gap", self.corridor_gap)


@dataclass(frozen=True)
class RectChainScene:
    """A bottom-to-top stack of rectangles with known horizontal overlaps.

    `rects` lists (width, height) pairs; `overlaps` gives the horizontal
    overlap width between each consecutive pair, so it has one entry less
    than `rects`.
    """

    rects: tuple[tuple[Number, Number], ...]
    overlaps: tuple[Number, ...]
    corridor_gap: Number
    epsilon: Number = 0

    def __post_init__(self):
        object.__setattr__(
            self, "rects", tuple((w, h) for w, h in self.rects)
        )
        object.__setattr__(self, "overlaps", tuple(self.overlaps))
        if not self.rects:
            raise ValueError("chain needs at least one rectangle")
        for i, (width, height) in enumerate(self.rects):
            _checked(f"rects[{i}] width", width)
            _checked(f"rects[{i}] height", height)
        if len(self.overlaps) != len(self.rects) - 1:
            raise ValueError(
                f"expected {len(self.rects) - 1} overlaps for "
                f"{len(self.rects)} rectangles, got {len(self.overlaps)}"
            )
        for i, overlap in enumerate(self.overlaps):
            _checked(f"overlaps[{i}]", overlap)
        _checked("corridor_gap", self.corridor_gap)
        _checked("epsilon", self.epsilon, minimum_exclusive=False)


@dataclass(frozen=True)
class PinningReport:
    """Answer plus certificate for the single-rectangle corridor question.

    When pinned, `derivative_at_zero` is the right derivative of the
    rotated vertical extent at rotation 0 (equal to the width, strictly
    positive, so any rotation immediately overshoots the gap). When not
    pinned, `witness_beta` is a positive float rotation proven to still fit,
    or None when no positive float could be proven to.
    """

    pinned: bool
    derivative_at_zero: float | None = None
    witness_beta: float | None = None


@dataclass(frozen=True)
class ChainReport:
    """Outcome of the stacked-rectangles hypothesis check.

    `inner_widths` lists, per consecutive overlap, the width left for the
    inner rectangle after the one-fifth margins are carved away. On
    failure it is empty and `failure` names the first broken hypothesis.
    """

    holds: bool
    inner_widths: tuple[float, ...] = ()
    failure: str | None = None


def rotated_vertical_extent(w: Number, h: Number, beta: float) -> float:
    """Vertical extent of a w-by-h rectangle rotated by beta radians.

    Equals h*cos(beta) + w*sin(|beta|): even in beta, exactly h at beta=0,
    and strictly larger than h for 0 < |beta| < 2*atan(w/h).
    """
    _checked("w", w)
    _checked("h", h)
    if isinstance(beta, bool) or not isinstance(beta, (int, float, Fraction)):
        raise ValueError(f"beta must be a real number, got {beta!r}")
    angle = abs(float(beta))
    if not angle < math.pi / 2:
        raise ValueError(f"|beta| must be below pi/2, got {beta!r}")
    return _extent(float(w), float(h), angle)


def _extent(w: float, h: float, angle: float) -> float:
    """The extent formula alone, for measured (possibly underflowed) floats."""
    return h * math.cos(angle) + w * math.sin(angle)


def _measured(*lengths: Number) -> list[float]:
    """The lengths as floats; if one would underflow, all are first divided
    by the power of two of the largest, which leaves the extent's angles."""
    if min(map(float, lengths)) >= sys.float_info.min:
        return [float(length) for length in lengths]
    top = max(map(Fraction, lengths))
    scale = Fraction(2) ** (top.numerator.bit_length() - top.denominator.bit_length())
    return [float(Fraction(length) / scale) for length in lengths]


def corridor_pins_horizontally(scene: CorridorScene) -> PinningReport:
    """Is the rectangle unable to rotate or shift vertically in the gap?

    True exactly when the fit is snug (gap equals height, compared as
    rationals). A wider gap is answered with a witness rotation: pi/4 when
    w is negligible, else one found by bisection on the extent's rising branch.
    The witness is halved until its fit is proven on rationals; when no
    positive float passes, `witness_beta` is None.
    """
    gap = Fraction(scene.corridor_gap)
    height = Fraction(scene.rect_height)
    if gap < height:
        raise InfeasibleSceneError(
            f"corridor gap {scene.corridor_gap} is below the rectangle "
            f"height {scene.rect_height}"
        )
    if gap == height:
        return PinningReport(
            pinned=True, derivative_at_zero=float(scene.rect_width)
        )

    w, h, target = _measured(
        scene.rect_width, scene.rect_height, scene.corridor_gap
    )
    peak = math.atan2(w, h)
    if peak == 0.0:  # w is negligible: (h + w) / sqrt(2) is below the gap
        low = high = math.pi / 4
    elif _extent(w, h, peak) <= target:
        low = high = peak
    else:
        low, high = 0.0, peak
    while high - low > BISECTION_TOLERANCE:
        mid = (low + high) / 2
        if _extent(w, h, mid) <= target:
            low = mid
        else:
            high = mid
    beta = low if low > 0.0 else high
    exact = Fraction(scene.rect_width), height, gap
    while beta > 0.0 and not (
        _extent(w, h, beta) <= target and _certified(*exact, beta)
    ):
        beta /= 2
    return PinningReport(pinned=False, witness_beta=beta if beta > 0.0 else None)


def _certified(w: Fraction, h: Fraction, gap: Fraction, beta: float) -> bool:
    """Is h*cos(beta) + w*sin(beta) <= gap, proven on rationals?

    For 0 < b < pi/2 the Lagrange remainder after a Taylor term of cos or
    sin is cos(xi) * b**k / k! (0 < xi < b) with the sign of the next term,
    so a polynomial ending in a positive term is an upper bound and one
    ending in a negative term a lower bound. Terms are added until one of
    the bounds decides; past `_TAYLOR_DEGREE` the fit counts as unproven.
    """
    b = Fraction(beta)
    cos_up, sin_up, term = Fraction(1), b, b
    for degree in range(2, _TAYLOR_DEGREE, 4):
        upper = h * cos_up + w * sin_up
        if upper <= gap:
            return True
        t2 = term * b / degree
        t3 = t2 * b / (degree + 1)
        if upper - h * t2 - w * t3 > gap:
            return False
        t4 = t3 * b / (degree + 2)
        term = t4 * b / (degree + 3)
        cos_up += t4 - t2
        sin_up += term - t3
    return False


def chain_hypotheses_hold(scene: RectChainScene) -> ChainReport:
    """Do the stacked rectangles satisfy the pinning hypotheses?

    Checked in order, exactly on rationals:

    1. epsilon is below one tenth of the smallest rectangle width;
    2. every consecutive overlap admits the inner-rectangle construction:
       the overlap fits within both neighbours and leaves positive width
       after margins of one fifth of the narrower width on each side;
    3. the stack is snug: the heights sum to exactly the corridor gap.

    A single rectangle skips step 2 and reduces to the snug-fit case.
    """
    widths = [Fraction(w) for w, _ in scene.rects]
    heights = [Fraction(h) for _, h in scene.rects]
    epsilon = Fraction(scene.epsilon)

    bound = min(widths) / EPSILON_DIVISOR
    if not epsilon < bound:
        return ChainReport(
            holds=False,
            failure=(
                f"epsilon-bound: epsilon {scene.epsilon} is not below "
                f"min width / {EPSILON_DIVISOR} = {float(bound)}"
            ),
        )

    inner_widths = []
    for i, overlap in enumerate(scene.overlaps):
        trapped = min(widths[i], widths[i + 1])
        exact_overlap = Fraction(overlap)
        inner = exact_overlap - 2 * trapped / MARGIN_DIVISOR
        if exact_overlap > trapped or inner <= 0:
            return ChainReport(
                holds=False,
                failure=(
                    f"inner-rectangle: overlap {overlap} between levels "
                    f"{i} and {i + 1} leaves no inner rectangle"
                ),
            )
        inner_widths.append(float(inner))

    stacked = sum(heights)
    if stacked != Fraction(scene.corridor_gap):
        return ChainReport(
            holds=False,
            failure=(
                f"snug-stack: stacked height {float(stacked)} does not "
                f"equal the corridor gap {scene.corridor_gap}"
            ),
        )
    return ChainReport(holds=True, inner_widths=tuple(inner_widths))


__all__ = [
    "BISECTION_TOLERANCE",
    "ChainReport",
    "CorridorScene",
    "InfeasibleSceneError",
    "MAX_LENGTH",
    "PinningReport",
    "RectChainScene",
    "chain_hypotheses_hold",
    "corridor_pins_horizontally",
    "rotated_vertical_extent",
]
