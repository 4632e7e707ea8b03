"""Monotonicity, convexity, and pocket analysis."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polylock.classify import (
    EnclosedHoleError,
    Pocket,
    U_PENTOMINO,
    _fill_cells,
    classify,
    monotone_closure,
    pockets,
    u_pocket,
)
from polylock.grid import (
    Direction,
    Polyomino,
    canonical_free_form,
    enumerate_free,
    fixed_orientations,
    neighbors,
    sweep_collides,
)

from test_grid import polyominoes

U_CELLS = frozenset({(0, 0), (1, 0), (2, 0), (0, 1), (2, 1)})


def shape(*cells):
    return Polyomino(frozenset(cells))


def _monotone(s, axis):
    """Is `s` monotone in `axis`: is every row (axis 'y') or column ('x')
    one interval?"""
    report = classify(s)
    return report.x_monotone if axis == "x" else report.y_monotone


# --------------------------------------------------------------------------
# oracle: straightforward lane-gap checks written independently of classify
# --------------------------------------------------------------------------


def _oracle_rows_contiguous(cells):
    rows = {}
    for x, y in cells:
        rows.setdefault(y, set()).add(x)
    return all(xs == set(range(min(xs), max(xs) + 1)) for xs in rows.values())


def _oracle_cols_contiguous(cells):
    return _oracle_rows_contiguous({(y, x) for x, y in cells})


def _scan_fill_cells(cells, axis):
    """The reference fill: every lane scanned from its lowest to its highest
    cell, with no span test first."""
    added = set()
    lanes = {}
    for x, y in cells:
        key, val = (y, x) if axis == "y" else (x, y)
        lanes.setdefault(key, []).append(val)
    for key, vals in lanes.items():
        for v in range(min(vals) + 1, max(vals)):
            cell = (v, key) if axis == "y" else (key, v)
            if cell not in cells:
                added.add(cell)
    return added


# --------------------------------------------------------------------------
# classify
# --------------------------------------------------------------------------


def test_rectangle_is_orthogonally_convex():
    rect = shape(*[(x, y) for x in range(3) for y in range(2)])
    report = classify(rect)
    assert report.x_monotone and report.y_monotone and report.orthogonally_convex


def test_u_is_x_monotone_only():
    u = shape(*U_CELLS)
    report = classify(u)
    assert report.x_monotone
    assert not report.y_monotone
    assert not report.orthogonally_convex


def test_rotated_u_swaps_axes():
    # pocket opens +x after rotating the +y-opening U a quarter turn
    u_sideways = shape((0, 0), (1, 0), (0, 1), (0, 2), (1, 2))
    report = classify(u_sideways)
    assert report.y_monotone
    assert not report.x_monotone


def test_monomino_is_convex():
    assert classify(shape((0, 0))).orthogonally_convex


def test_bad_axis_rejected():
    with pytest.raises(ValueError):
        monotone_closure(frozenset({(0, 0)}), "z")
    with pytest.raises(ValueError):
        pockets(shape((0, 0)), "diag")


def test_all_small_shapes_are_convex():
    for n in range(1, 5):
        for s in enumerate_free(n):
            assert classify(s).orthogonally_convex


def test_single_pentomino_is_not_convex():
    nonconvex = [s for s in enumerate_free(5) if not classify(s).orthogonally_convex]
    assert len(nonconvex) == 1
    assert canonical_free_form(nonconvex[0]) == U_PENTOMINO


def test_nonconvex_hexomino_count():
    # regression fixture, cross-checked against the lane-gap oracle
    nonconvex = [s for s in enumerate_free(6) if not classify(s).orthogonally_convex]
    assert len(nonconvex) == 6
    oracle = [
        s
        for s in enumerate_free(6)
        if not (_oracle_rows_contiguous(s.cells) and _oracle_cols_contiguous(s.cells))
    ]
    assert {s.cells for s in nonconvex} == {s.cells for s in oracle}


def _assert_classify_matches_lane_oracle(s):
    report = classify(s)
    assert report.y_monotone == _oracle_rows_contiguous(s.cells)
    assert report.x_monotone == _oracle_cols_contiguous(s.cells)
    assert report.orthogonally_convex == (report.x_monotone and report.y_monotone)


@settings(max_examples=150)
@given(polyominoes())
def test_classify_agrees_with_lane_oracle(s):
    _assert_classify_matches_lane_oracle(s)


def test_classify_and_fill_agree_with_oracles_on_every_fixed_orientation():
    for n in range(1, 9):
        for free in enumerate_free(n):
            for s in fixed_orientations(free):
                _assert_classify_matches_lane_oracle(s)
                for axis in ("x", "y"):
                    assert _fill_cells(s.cells, axis) == _scan_fill_cells(s.cells, axis)


@settings(max_examples=100)
@given(polyominoes())
def test_quarter_turn_swaps_monotone_axes(s):
    rotated = Polyomino(frozenset((-y, x) for x, y in s.cells))
    assert classify(s).y_monotone == classify(rotated).x_monotone
    assert classify(s).x_monotone == classify(rotated).y_monotone


# --------------------------------------------------------------------------
# pockets
# --------------------------------------------------------------------------


def test_rectangle_has_no_pockets():
    rect = shape(*[(x, y) for x in range(4) for y in range(3)])
    assert pockets(rect, "x") == []
    assert pockets(rect, "y") == []


def test_u_pocket_cells_and_opening():
    u = shape(*U_CELLS)
    found = pockets(u, "y")
    assert len(found) == 1
    assert found[0].cells == frozenset({(1, 1)})
    assert found[0].opening is Direction.POS_Y
    assert pockets(u, "x") == []


def test_wide_pocket_spans_two_cells():
    wide_u = shape((0, 0), (1, 0), (2, 0), (3, 0), (0, 1), (3, 1))
    found = pockets(wide_u, "y")
    assert len(found) == 1
    assert found[0].cells == frozenset({(1, 1), (2, 1)})
    assert found[0].opening is Direction.POS_Y


def test_downward_pocket():
    cap = shape((0, 0), (2, 0), (0, 1), (1, 1), (2, 1))
    found = pockets(cap, "y")
    assert len(found) == 1
    assert found[0].opening is Direction.NEG_Y


def test_two_pockets_on_one_axis():
    # an H shape has one pocket above and one below the crossbar
    h = shape((0, 0), (2, 0), (0, 1), (1, 1), (2, 1), (0, 2), (2, 2))
    found = pockets(h, "y")
    assert len(found) == 2
    assert {p.opening for p in found} == {Direction.POS_Y, Direction.NEG_Y}


def test_zigzag_octomino_has_pockets_on_both_axes():
    # smallest cell count where both axes can have an open pocket at once
    zigzag = shape((0, 0), (2, 0), (0, 1), (1, 1), (2, 1), (1, 2), (0, 3), (1, 3))
    xs = pockets(zigzag, "x")
    ys = pockets(zigzag, "y")
    assert len(xs) == 1 and len(ys) == 1
    assert ys[0].cells == frozenset({(1, 0)})
    assert ys[0].opening is Direction.NEG_Y
    assert xs[0].cells == frozenset({(0, 2)})
    assert xs[0].opening is Direction.NEG_X


def test_ring_minus_corner_still_encloses_its_center():
    # seven cells are enough to trap a cell: 3x3 ring missing one corner
    spiral = shape((0, 0), (1, 0), (2, 0), (0, 1), (2, 1), (0, 2), (1, 2))
    with pytest.raises(EnclosedHoleError):
        pockets(spiral, "y")


def test_no_hexomino_has_pockets_on_both_axes():
    for s in enumerate_free(6):
        assert not (pockets(s, "x") and pockets(s, "y"))


def test_enclosed_hole_is_an_error():
    ring = shape((0, 0), (1, 0), (2, 0), (0, 1), (2, 1), (0, 2), (1, 2), (2, 2))
    with pytest.raises(EnclosedHoleError) as err:
        pockets(ring, "y")
    assert err.value.cells == frozenset({(1, 1)})


@settings(max_examples=150)
@given(polyominoes(), st.sampled_from(["x", "y"]))
def test_pockets_empty_iff_monotone(s, axis):
    try:
        found = pockets(s, axis)
    except EnclosedHoleError:
        assert not _monotone(s, axis)
        return
    assert (found == []) == _monotone(s, axis)


@settings(max_examples=150)
@given(polyominoes(), st.sampled_from(["x", "y"]))
def test_filling_pockets_restores_monotonicity(s, axis):
    try:
        found = pockets(s, axis)
    except EnclosedHoleError:
        return
    filled = set(s.cells)
    for p in found:
        assert not (p.cells & s.cells)
        filled |= p.cells
    assert frozenset(filled) == monotone_closure(s.cells, axis)
    assert _monotone(Polyomino(frozenset(filled)), axis)


def _pairwise_pockets(s, axis):
    """`pockets` as it was, deciding each open side with `sweep_collides`."""
    added = _fill_cells(s.cells, axis)
    out = []
    while added:
        seed = added.pop()
        component = {seed}
        stack = [seed]
        while stack:
            for nb in neighbors(stack.pop()):
                if nb in added:
                    added.remove(nb)
                    component.add(nb)
                    stack.append(nb)
        pos, neg = (
            (Direction.POS_Y, Direction.NEG_Y)
            if axis == "y"
            else (Direction.POS_X, Direction.NEG_X)
        )
        pos_open = not sweep_collides(component, s.cells, pos)
        neg_open = not sweep_collides(component, s.cells, neg)
        if not pos_open and not neg_open:
            raise EnclosedHoleError(frozenset(component))
        out.append(Pocket(cells=frozenset(component), opening=pos if pos_open else neg))
    out.sort(key=lambda p: min(p.cells))
    return out


def _pockets_or_hole(find, s, axis):
    try:
        return find(s, axis)
    except EnclosedHoleError as err:
        return ("hole", err.cells)


#: The shapes of the pocket tests above: each opens a pocket on some axis.
POCKET_SHAPES = {
    "u": U_CELLS,
    "wide_u": {(0, 0), (1, 0), (2, 0), (3, 0), (0, 1), (3, 1)},
    "cap": {(0, 0), (2, 0), (0, 1), (1, 1), (2, 1)},
    "h": {(0, 0), (2, 0), (0, 1), (1, 1), (2, 1), (0, 2), (2, 2)},
    "zigzag": {(0, 0), (2, 0), (0, 1), (1, 1), (2, 1), (1, 2), (0, 3), (1, 3)},
}


@pytest.mark.parametrize("name", sorted(POCKET_SHAPES))
def test_pockets_match_pairwise_sweeps_on_named_shapes(name):
    s = shape(*POCKET_SHAPES[name])
    found = [p for axis in ("x", "y") for p in pockets(s, axis)]
    assert found
    assert found == [p for axis in ("x", "y") for p in _pairwise_pockets(s, axis)]
    # every shape turned by a quarter turn and mirrored opens the other ways
    for turned in (Polyomino(frozenset((-y, x) for x, y in s.cells)),
                   Polyomino(frozenset((x, -y) for x, y in s.cells))):
        for axis in ("x", "y"):
            assert pockets(turned, axis) == _pairwise_pockets(turned, axis)


@settings(max_examples=200)
@given(polyominoes(max_cells=10), st.sampled_from(["x", "y"]))
def test_pockets_match_pairwise_sweeps(s, axis):
    assert _pockets_or_hole(pockets, s, axis) == _pockets_or_hole(
        _pairwise_pockets, s, axis
    )


# --------------------------------------------------------------------------
# u_pocket
# --------------------------------------------------------------------------


def test_rectangles_yield_no_u_hits():
    assert u_pocket(frozenset({(0, 0), (1, 0)})) is None
    assert u_pocket(frozenset({(4, 0), (4, 1), (5, 0), (5, 1)})) is None
    assert u_pocket(frozenset((x, y) for x in range(3) for y in range(2))) is None


def test_single_u_reports_world_opening():
    assert u_pocket(frozenset((x + 3, y + 7) for x, y in U_CELLS)) == (
        (4, 8),
        Direction.POS_Y,
    )


def test_four_u_rotations_report_four_openings():
    openings = set()
    cells = U_CELLS
    for _ in range(4):
        (px, py), opening = u_pocket(cells)
        mouth = (px + opening.dx, py + opening.dy)
        assert {nb for nb in neighbors((px, py)) if nb in cells} == (
            set(neighbors((px, py))) - {mouth}
        )
        openings.add(opening)
        cells = frozenset((-y, x) for x, y in cells)
    assert openings == {
        Direction.POS_X,
        Direction.NEG_X,
        Direction.POS_Y,
        Direction.NEG_Y,
    }


def test_mirrored_u_is_still_a_u():
    mirrored = frozenset((-x, y) for x, y in U_CELLS)
    assert u_pocket(mirrored) == ((-1, 1), Direction.POS_Y)


def test_other_pentominoes_are_ignored():
    for free in enumerate_free(5):
        found = u_pocket(free.cells)
        assert (found is not None) == (canonical_free_form(free) == U_PENTOMINO)


def test_u_pocket_cells_helper():
    result = u_pocket(frozenset((x + 2, y + 5) for x, y in U_CELLS))
    assert result is not None
    cell, opening = result
    assert cell == (3, 6)
    assert opening is Direction.POS_Y


def _reference_u_pocket(cells):
    """The detector the orientation table replaced: congruence, then pockets."""
    if len(cells) != 5:
        return None
    shape = Polyomino(cells)
    if canonical_free_form(shape) != U_PENTOMINO:
        return None
    for axis in ("x", "y"):
        for pocket in pockets(shape, axis):
            (cell,) = pocket.cells
            return cell, pocket.opening
    raise AssertionError("a U-pentomino always has exactly one pocket")


def test_u_pocket_matches_the_reference_on_every_small_placed_shape():
    placed = [
        frozenset((x + dx, y + dy) for x, y in oriented.cells)
        for n in range(1, 7)
        for free in enumerate_free(n)
        for oriented in fixed_orientations(free)
        for dx, dy in ((0, 0), (-3, 2), (7, -5))
    ]
    assert len(placed) == 921
    hits = []
    for cells in placed:
        found = u_pocket(cells)
        assert found == _reference_u_pocket(cells)
        if found is not None:
            hits.append(found)
    assert len(hits) == 12
    assert {opening for _, opening in hits} == set(Direction)
