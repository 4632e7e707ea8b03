"""Core grid types: canonical forms, enumeration, occupancy, sweeps.

Enumeration is checked against an independent oracle in this file: a naive
fixed-polyomino enumerator whose output is partitioned into congruence
classes with locally written transforms, never through the library's own
canonical form. The integer-key canonical form and enumerator are also
checked against the tuple-based ones they replaced, kept here as oracles.
"""

from __future__ import annotations

import importlib
import math
import pkgutil
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polylock
from polylock.grid import (
    MAX_ENUMERATION_CELLS,
    Configuration,
    Direction,
    DIRECTIONS,
    Lanes,
    OverlapError,
    Polyomino,
    canonical_free_form,
    enumerate_free,
    fixed_orientations,
    neighbors,
    occupied_cells,
    sweep_collides,
    translate_cells,
)

# --------------------------------------------------------------------------
# oracle: fixed enumeration + symmetry grouping, independent of the library
# --------------------------------------------------------------------------


def _oracle_normalize(cells):
    mx = min(x for x, _ in cells)
    my = min(y for _, y in cells)
    return frozenset((x - mx, y - my) for x, y in cells)


def _oracle_fixed_polyominoes(n):
    """Distinct-up-to-translation polyominoes of n cells, by plain growth."""
    shapes = {frozenset([(0, 0)])}
    for _ in range(n - 1):
        grown = set()
        for shape in shapes:
            for (x, y) in shape:
                for nb in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
                    if nb not in shape:
                        grown.add(_oracle_normalize(shape | {nb}))
        shapes = grown
    return shapes


def _oracle_congruence_class(cells):
    images = set()
    pts = list(cells)
    for _ in range(4):
        images.add(_oracle_normalize(pts))
        images.add(_oracle_normalize([(-x, y) for x, y in pts]))
        pts = [(-y, x) for x, y in pts]
    return frozenset(images)


def _oracle_free_count(n):
    classes = set()
    for shape in _oracle_fixed_polyominoes(n):
        classes.add(_oracle_congruence_class(shape))
    return len(classes)


# The tuple-based canonical form and enumerator that the integer keys
# replaced: every image is normalised and sorted, and the least one is the
# canonical free form.


def _tuple_symmetry_images(cells):
    images = []
    current = list(cells)
    for _ in range(4):
        for pts in (current, [(-x, y) for x, y in current]):
            mx = min(x for x, _ in pts)
            my = min(y for _, y in pts)
            images.append(tuple(sorted((x - mx, y - my) for x, y in pts)))
        current = [(-y, x) for x, y in current]
    return images


def _tuple_enumerate_free(n):
    current = {((0, 0),)}
    for _ in range(n - 1):
        grown = set()
        for rep in current:
            occupied = set(rep)
            for x, y in rep:
                for nb in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
                    if nb not in occupied:
                        grown.add(min(_tuple_symmetry_images(occupied | {nb})))
        current = grown
    return sorted(current)


# known fixed counts, to make sure the oracle itself is sane
ORACLE_FIXED_COUNTS = {1: 1, 2: 2, 3: 6, 4: 19, 5: 63, 6: 216}


def test_oracle_fixed_counts():
    for n, expected in ORACLE_FIXED_COUNTS.items():
        assert len(_oracle_fixed_polyominoes(n)) == expected


# --------------------------------------------------------------------------
# shape strategy shared by the property tests below
# --------------------------------------------------------------------------


def _random_polyomino_cells(n, rng):
    cells = {(0, 0)}
    while len(cells) < n:
        x, y = rng.choice(sorted(cells))
        nb = rng.choice([(x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)])
        cells.add(nb)
    return cells


@st.composite
def polyominoes(draw, min_cells=1, max_cells=9):
    n = draw(st.integers(min_cells, max_cells))
    seed = draw(st.integers(0, 2**32 - 1))
    return Polyomino(frozenset(_random_polyomino_cells(n, random.Random(seed))))


# --------------------------------------------------------------------------
# Polyomino validation
# --------------------------------------------------------------------------


def test_empty_polyomino_rejected():
    with pytest.raises(ValueError):
        Polyomino(frozenset())


def test_disconnected_polyomino_rejected():
    with pytest.raises(ValueError, match="edge-connected"):
        Polyomino(frozenset({(0, 0), (2, 0)}))


def test_diagonal_contact_is_not_connected():
    with pytest.raises(ValueError):
        Polyomino(frozenset({(0, 0), (1, 1)}))


def test_non_integer_cells_rejected():
    with pytest.raises(ValueError):
        Polyomino(frozenset({(0.5, 0)}))


# --------------------------------------------------------------------------
# canonical_free_form
# --------------------------------------------------------------------------


def test_canonical_free_form_identifies_rotations():
    l_tromino = Polyomino(frozenset({(0, 0), (1, 0), (1, 1)}))
    rotated = Polyomino(frozenset({(0, 0), (0, 1), (1, 1)}))
    assert canonical_free_form(l_tromino) == canonical_free_form(rotated)


def test_canonical_free_form_identifies_reflections():
    s = Polyomino(frozenset({(0, 0), (1, 0), (1, 1), (2, 1)}))
    z = Polyomino(frozenset({(0, 1), (1, 1), (1, 0), (2, 0)}))
    assert canonical_free_form(s) == canonical_free_form(z)


@given(polyominoes(), st.integers(0, 7))
def test_canonical_free_form_symmetry_invariant(shape, which):
    pts = list(shape.cells)
    for _ in range(which % 4):
        pts = [(-y, x) for x, y in pts]
    if which >= 4:
        pts = [(-x, y) for x, y in pts]
    mx = min(x for x, _ in pts)
    my = min(y for _, y in pts)
    image = Polyomino(frozenset((x - mx, y - my) for x, y in pts))
    assert canonical_free_form(image) == canonical_free_form(shape)


# --------------------------------------------------------------------------
# enumeration
# --------------------------------------------------------------------------


def test_free_counts_against_oracle():
    for n in range(1, 7):
        assert len(enumerate_free(n)) == _oracle_free_count(n)


def test_free_counts_small_sizes():
    assert [len(enumerate_free(n)) for n in range(1, 7)] == [1, 1, 2, 5, 12, 35]


def test_enumerate_free_shapes_match_oracle_classes():
    for n in (4, 5):
        oracle_classes = {
            min(tuple(sorted(img)) for img in _oracle_congruence_class(shape))
            for shape in _oracle_fixed_polyominoes(n)
        }
        ours = {tuple(sorted(shape.cells)) for shape in enumerate_free(n)}
        assert ours == oracle_classes


def test_enumerate_free_rejects_out_of_range():
    for bad in (0, -1, 11, 2.5):
        with pytest.raises(ValueError):
            enumerate_free(bad)


def test_enumerate_free_output_is_canonical():
    for shape in enumerate_free(5):
        assert canonical_free_form(shape) == shape
        assert shape.min_x == 0 and shape.min_y == 0


def test_enumerate_free_matches_the_tuple_enumerator():
    for n in range(1, 10):
        ours = [shape.sorted_cells() for shape in enumerate_free(n)]
        assert ours == _tuple_enumerate_free(n), n


def test_enumerate_free_is_ordered_by_sorted_cells():
    shapes = [shape.sorted_cells() for shape in enumerate_free(8)]
    assert shapes == sorted(shapes)


def test_free_counts_up_to_the_cap():
    assert MAX_ENUMERATION_CELLS == 10
    assert [len(enumerate_free(n)) for n in range(7, 11)] == [108, 369, 1285, 4655]


@st.composite
def placed_polyominoes(draw):
    """Walks of straight runs, up to 24 cells from a random origin, so many
    boxes are wider than the enumeration range and many cells are negative."""
    n = draw(st.integers(1, 24))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    x, y = draw(st.integers(-30, 30)), draw(st.integers(-30, 30))
    cells = {(x, y)}
    while len(cells) < n:
        dx, dy = rng.choice([(1, 0), (-1, 0), (0, 1), (0, -1)])
        for _ in range(min(rng.randint(1, 6), n - len(cells))):
            x, y = x + dx, y + dy
            cells.add((x, y))
    return Polyomino(frozenset(cells))


@settings(max_examples=300)
@given(placed_polyominoes())
def test_canonical_forms_match_the_tuple_images(shape):
    images = _tuple_symmetry_images(shape.cells)
    assert canonical_free_form(shape).sorted_cells() == min(images)
    assert [s.sorted_cells() for s in fixed_orientations(shape)] == sorted(set(images))


@pytest.mark.parametrize("length", [1, 9, 10, 11, 17])
def test_canonical_forms_of_bars_across_the_table_range(length):
    bar = Polyomino(frozenset((x, -3) for x in range(length)))
    upright = tuple((0, y) for y in range(length))
    assert canonical_free_form(bar).sorted_cells() == upright
    orientations = [s.sorted_cells() for s in fixed_orientations(bar)]
    assert orientations == sorted({upright, tuple((x, 0) for x in range(length))})


def _revalidated(shape):
    assert all(type(c) is int for cell in shape.cells for c in cell)
    assert Polyomino(frozenset(shape.cells)) == shape  # runs every check
    return shape


def test_derived_shapes_pass_the_public_checks():
    for n in range(1, 9):
        for free in enumerate_free(n):
            _revalidated(free)
            for oriented in fixed_orientations(free):
                _revalidated(oriented)
                moved = Polyomino(translate_cells(oriented.cells, -7, 4))
                _revalidated(canonical_free_form(moved))


# --------------------------------------------------------------------------
# Direction
# --------------------------------------------------------------------------


def test_direction_parse_round_trip():
    for token in ("+x", "-x", "+y", "-y"):
        assert str(Direction.parse(token)) == token


def test_direction_parse_rejects_garbage():
    with pytest.raises(ValueError):
        Direction.parse("north")


def test_direction_axes_and_signs():
    assert Direction.POS_X.axis == "x" and Direction.POS_X.sign == 1
    assert Direction.NEG_Y.axis == "y" and Direction.NEG_Y.sign == -1
    assert Direction.POS_Y.opposite is Direction.NEG_Y
    assert len(DIRECTIONS) == 4


# --------------------------------------------------------------------------
# Configuration / occupied_cells
# --------------------------------------------------------------------------


def test_occupied_cells_empty_config():
    assert occupied_cells(Configuration.from_cell_map({})) == frozenset()


def test_occupied_cells_union():
    config = Configuration.from_cell_map(
        {"a": [(0, 0), (1, 0)], "b": [(3, 0), (3, 1)]}
    )
    assert occupied_cells(config) == frozenset({(0, 0), (1, 0), (3, 0), (3, 1)})


def test_overlap_error_names_both_pieces():
    with pytest.raises(OverlapError) as err:
        Configuration.from_cell_map(
            {"left": [(0, 0), (1, 0)], "right": [(1, 0), (2, 0)]}
        )
    assert (err.value.piece_a, err.value.piece_b) == ("left", "right")
    assert err.value.cell == (1, 0)


def test_overlap_error_names_the_later_pieces_smallest_shared_cell():
    with pytest.raises(OverlapError) as err:
        Configuration.from_cell_map(
            {
                "a": [(0, -1), (1, -1)],
                "b": [(1, -1), (0, -1), (1, -1), (1, -2)],
                "c": [(5, 5)],
            }
        )
    assert str(err.value) == "pieces 'a' and 'b' overlap at cell (0, -1)"
    # with two earlier owners, the one of that smallest cell is named
    with pytest.raises(OverlapError) as err:
        Configuration.from_cell_map(
            {"a": [(1, 0)], "b": [(0, 1)], "c": [(0, 0), (1, 0), (0, 1)]}
        )
    assert (err.value.piece_a, err.value.piece_b, err.value.cell) == ("b", "c", (0, 1))


@pytest.mark.parametrize("bad", [(True, False), (0, True), (False, 0)])
def test_bool_coordinates_rejected(bad):
    with pytest.raises(ValueError, match="is not an \\(int, int\\) pair"):
        Polyomino(frozenset({bad}))
    with pytest.raises(ValueError, match="is not an \\(int, int\\) pair"):
        Configuration.from_cell_map({"a": [bad, (2, 0)]})


def test_from_cell_map_preserves_world_cells():
    config = Configuration.from_cell_map({"z": [(4, 7), (5, 7), (5, 8)]})
    assert config.cells_of("z") == frozenset({(4, 7), (5, 7), (5, 8)})


def test_configuration_index_is_invisible():
    pieces = {"a": [(0, 0), (1, 0)], "b": [(0, 1), (1, 1)]}
    config = Configuration.from_cell_map(pieces)
    twin = Configuration.from_cell_map(dict(reversed(pieces.items())))
    assert config == twin and hash(config) == hash(twin)
    assert config != Configuration.from_cell_map({"a": pieces["a"]})
    assert config != Configuration.from_cell_map({"a": pieces["a"], "c": pieces["b"]})
    assert config != Configuration.from_cell_map({**pieces, "b": [(0, 2), (1, 2)]})
    shown = "Configuration.from_cell_map({'a': [(0, 0), (1, 0)], 'b': [(0, 1), (1, 1)]})"
    assert repr(config) == shown and eval(shown) == config
    # the owner map and the lane indexes are per-instance state, yet
    # equality, hash and repr ignore them
    assert config._owners is not twin._owners
    object.__setattr__(twin, "_owners", {})
    assert config == twin and hash(config) == hash(twin)
    assert config.blockers(["a"], Direction.POS_Y) == {"b"}
    assert config.blockers(["b"], Direction.POS_X) == set()
    assert sorted(config._lanes) == ["x", "y"] and not twin._lanes
    assert config == twin and hash(config) == hash(twin) and repr(config) == shown
    assert config.piece_ids() == ("a", "b") and len(config) == 2
    assert config.cells_of("b") == frozenset({(0, 1), (1, 1)})
    assert config.cell_map() == {"a": {(0, 0), (1, 0)}, "b": {(0, 1), (1, 1)}}
    with pytest.raises(KeyError, match="no piece 'c'"):
        config.cells_of("c")


def test_owner_names_the_piece_on_a_cell():
    config = Configuration.from_cell_map(
        {"a": [(0, 0), (1, 0)], "b": [(3, 0), (3, 1)]}
    )
    assert config.owner((3, 1)) == "b"
    assert config.owner((1, 0)) == "a"
    assert config.owner((2, 0)) is None
    assert Configuration.from_cell_map({}).owner((0, 0)) is None


def _oracle_from_cell_map(cells_by_id):
    """`from_cell_map`'s rule, restated with no library check: every piece,
    in order, must be a non-empty, edge-connected set of pairs of plain ints
    (a bool is not one); then the first piece that meets an earlier one
    fails on its smallest cell that an earlier piece owns. The oracle's
    cells and owners are stored unchecked."""
    world = {}
    for piece_id, cells in cells_by_id.items():
        cells = frozenset(cells)
        if not cells:
            raise ValueError("a polyomino needs at least one cell")
        for cell in cells:
            ints = type(cell) is tuple and len(cell) == 2 and all(type(c) is int for c in cell)
            if not ints:
                raise ValueError(f"cell {cell!r} is not an (int, int) pair")
        reached, stack = set(), [min(cells)]
        while stack:
            x, y = stack.pop()
            if (x, y) in cells and (x, y) not in reached:
                reached.add((x, y))
                stack += [(x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)]
        if reached != cells:
            raise ValueError(f"cells are not edge-connected: {sorted(cells)}")
        world[piece_id] = cells
    owners = {}
    for piece_id, cells in world.items():
        shared = sorted(cells & owners.keys())
        if shared:
            raise OverlapError(owners[shared[0]], piece_id, shared[0])
        owners.update(dict.fromkeys(cells, piece_id))
    return Configuration._from_world(world, owners)


def assert_same_configuration(got, expected):
    """Equal pieces and indexes: cells in piece order, owners, box."""
    assert got == expected
    assert list(got.cell_map().items()) == list(expected.cell_map().items())
    assert occupied_cells(got) == occupied_cells(expected)
    for cell in occupied_cells(expected):
        for probe in (cell, *neighbors(cell)):
            assert got.owner(probe) == expected.owner(probe), probe
    if len(expected):
        # the box as it was computed before it read the owner index
        xs, ys = zip(*(cell for cells in expected.cell_map().values() for cell in cells))
        assert got.bounding_box() == (min(xs), min(ys), max(xs), max(ys))


_steps = st.lists(st.sampled_from(DIRECTIONS), max_size=7)


@st.composite
def _piece_cells(draw):
    """A walk (connected, may revisit a cell), loose cells (may be empty or
    disconnected), or loose cells with one cell that is no int pair."""
    kind = draw(st.sampled_from(("walk", "walk", "loose", "bad")))
    cell = st.tuples(st.integers(-2, 3), st.integers(-2, 3))
    if kind == "walk":
        x, y = draw(cell)
        cells = [(x, y)]
        for step in draw(_steps):
            x, y = x + step.dx, y + step.dy
            cells.append((x, y))
        return cells
    cells = draw(st.lists(cell, max_size=5))
    if kind == "bad":
        bad = draw(st.sampled_from(((0.5, 1), (1, 2, 3), "ab", (True, 1), (0, False))))
        cells.insert(draw(st.integers(0, len(cells))), bad)
    return cells


@settings(max_examples=400, deadline=None)
@given(st.dictionaries(st.sampled_from("abcdef"), _piece_cells(), max_size=5))
def test_from_cell_map_matches_the_old_construction(cells_by_id):
    try:
        expected = _oracle_from_cell_map(cells_by_id)
    except ValueError as err:
        with pytest.raises(ValueError) as got:
            Configuration.from_cell_map(cells_by_id)
        assert (type(got.value), str(got.value)) == (type(err), str(err))
        return
    assert_same_configuration(Configuration.from_cell_map(cells_by_id), expected)


# --------------------------------------------------------------------------
# sweep_collides
# --------------------------------------------------------------------------


def test_sweep_hits_cell_in_same_row():
    assert sweep_collides({(0, 0)}, {(5, 0)}, Direction.POS_X)


def test_sweep_misses_other_row():
    assert not sweep_collides({(0, 0)}, {(5, 1)}, Direction.POS_X)


def test_sweep_respects_finite_distance():
    assert not sweep_collides({(0, 0)}, {(5, 0)}, Direction.POS_X, distance=4)
    assert sweep_collides({(0, 0)}, {(5, 0)}, Direction.POS_X, distance=5)


def test_sweep_negative_directions():
    assert sweep_collides({(0, 0)}, {(-3, 0)}, Direction.NEG_X)
    assert sweep_collides({(0, 0)}, {(0, -3)}, Direction.NEG_Y)
    assert not sweep_collides({(0, 0)}, {(-3, 0)}, Direction.POS_X)


def test_sweep_u_pocket():
    u = {(0, 0), (1, 0), (2, 0), (0, 1), (2, 1)}
    pocket = {(1, 1)}
    assert not sweep_collides(pocket, u, Direction.POS_Y)
    assert sweep_collides(pocket, u, Direction.NEG_Y)
    assert sweep_collides(pocket, u, Direction.POS_X)
    assert sweep_collides(pocket, u, Direction.NEG_X)


def test_sweep_rejects_overlapping_inputs():
    with pytest.raises(ValueError, match="overlap"):
        sweep_collides({(0, 0)}, {(0, 0), (1, 0)}, Direction.POS_X)


def test_sweep_rejects_bad_distance():
    for bad in (0, -2, 1.5, True):
        with pytest.raises(ValueError):
            sweep_collides({(0, 0)}, {(3, 0)}, Direction.POS_X, distance=bad)


def _brute_force_sweep(mover, obstacle, direction, k):
    dx, dy = direction.dx, direction.dy
    for step in range(1, k + 1):
        shifted = {(x + dx * step, y + dy * step) for x, y in mover}
        if shifted & obstacle:
            return True
    return False


@settings(max_examples=200)
@given(
    polyominoes(max_cells=6),
    polyominoes(max_cells=6),
    st.integers(-6, 6),
    st.integers(-6, 6),
    st.sampled_from(DIRECTIONS),
    st.integers(1, 12),
)
def test_sweep_matches_step_brute_force(mover, obstacle, dx, dy, direction, k):
    mover_cells = set(mover.cells)
    obstacle_cells = {(x + dx, y + dy) for x, y in obstacle.cells}
    if mover_cells & obstacle_cells:
        return
    assert sweep_collides(mover_cells, obstacle_cells, direction, distance=k) == (
        _brute_force_sweep(mover_cells, obstacle_cells, direction, k)
    )


@settings(max_examples=100)
@given(
    polyominoes(max_cells=6),
    polyominoes(max_cells=6),
    st.integers(-6, 6),
    st.integers(-6, 6),
    st.sampled_from(DIRECTIONS),
)
def test_infinite_sweep_is_limit_of_finite(mover, obstacle, dx, dy, direction):
    mover_cells = set(mover.cells)
    obstacle_cells = {(x + dx, y + dy) for x, y in obstacle.cells}
    if mover_cells & obstacle_cells:
        return
    # beyond the obstacle extent, longer sweeps change nothing
    big = 100
    assert sweep_collides(mover_cells, obstacle_cells, direction) == sweep_collides(
        mover_cells, obstacle_cells, direction, distance=big
    )


@settings(max_examples=100)
@given(
    polyominoes(max_cells=5),
    polyominoes(max_cells=5),
    st.integers(-5, 5),
    st.integers(-5, 5),
    st.sampled_from(DIRECTIONS),
)
def test_sweep_monotone_in_obstacle(mover, obstacle, dx, dy, direction):
    mover_cells = set(mover.cells)
    obstacle_cells = {(x + dx, y + dy) for x, y in obstacle.cells}
    if mover_cells & obstacle_cells:
        return
    if sweep_collides(mover_cells, obstacle_cells, direction):
        for cell in list(obstacle_cells):
            grown = obstacle_cells | {(cell[0] + 20, cell[1] + 20)}
            grown -= mover_cells
            assert sweep_collides(mover_cells, grown, direction)


# --------------------------------------------------------------------------
# Lanes, checked against pairwise sweep_collides as the oracle
# --------------------------------------------------------------------------


def _random_packing(rng, pieces, span):
    placed = {}
    occupied = set()
    for idx in range(pieces):
        for _ in range(40):
            cells = _random_polyomino_cells(rng.randint(1, 6), rng)
            dx, dy = rng.randint(-span, span), rng.randint(-span, span)
            world = {(x + dx, y + dy) for x, y in cells}
            if not world & occupied:
                placed[f"P{idx}"] = world
                occupied |= world
                break
    return placed


def test_lanes_reject_a_bad_axis():
    with pytest.raises(ValueError):
        Lanes({"a": {(0, 0)}}, "z")


@settings(max_examples=150)
@given(st.integers(0, 2**32 - 1))
def test_lanes_blockers_match_pairwise_sweeps(seed):
    """Both indexes hold the whole packing and are never changed; as pieces
    leave, their answers cut to the pieces still on the board must equal
    the sweeps of the union against just those pieces."""
    rng = random.Random(seed)
    on_board = _random_packing(rng, rng.randint(1, 9), 5)
    lanes = {axis: Lanes(on_board, axis) for axis in ("x", "y")}
    config = Configuration.from_cell_map(on_board)
    while on_board:
        ids = sorted(on_board)
        remaining = set(ids)
        movers = [(pid,) for pid in ids] + [
            tuple(rng.sample(ids, k)) for k in (2, 3) if k <= len(ids)
        ]
        for group in movers:
            union = set().union(*(on_board[pid] for pid in group))
            for direction in DIRECTIONS:
                expected = {
                    other
                    for other in ids
                    if other not in group
                    and sweep_collides(union, on_board[other], direction)
                }
                got = lanes[direction.axis].blockers(group, direction.sign)
                assert got & remaining == expected, (group, direction)
                assert config.blockers(group, direction) & remaining == expected
        for pid in rng.sample(ids, rng.randint(1, min(3, len(ids)))):
            del on_board[pid]


def test_only_grid_binds_sweep_collides():
    """`Lanes` is the one slide kernel; `sweep_collides` is the tests' oracle."""
    names = [info.name for info in pkgutil.iter_modules(polylock.__path__)]
    assert "grid" in names and "search" in names
    for name in names:
        module = importlib.import_module(f"polylock.{name}")
        assert hasattr(module, "sweep_collides") == (name == "grid"), name
    assert "sweep_collides" not in polylock.__all__
    assert not hasattr(polylock, "sweep_collides")


def test_every_exported_name_resolves():
    """Each `__all__` lists only names its module binds, so a stale export
    of a deleted name cannot come back unnoticed."""
    names = [info.name for info in pkgutil.iter_modules(polylock.__path__)]
    modules = [polylock, *(importlib.import_module(f"polylock.{n}") for n in names)]
    exporting = [module for module in modules if hasattr(module, "__all__")]
    assert polylock in exporting and len(exporting) > len(modules) // 2
    for module in exporting:
        for name in module.__all__:
            assert hasattr(module, name), (module.__name__, name)
