"""Blocking graphs, single-direction plans, grouping, and plan simulation.

The ordering oracle enumerates every removal permutation with a brute-force
step sweep, so the planner's topological peel is checked against an
independent notion of "some order works".
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polylock import (
    DIRECTIONS,
    Configuration,
    Direction,
    InvariantViolationError,
    Move,
    NoUto,
    OversizedPieceError,
    PlanError,
    SeparationPlan,
    blocking_graph,
    group_le5,
    is_monotone,
    plan_uto,
    separate_le5,
    simulate_plan,
)
from polylock.grid import Polyomino
from polylock.separation import _find_cycle
from polylock.instances import (
    case4_group,
    clasped_c_pair,
    mutual_u_pair,
    staircase_trio,
    u_filler_example,
)

POS_X, NEG_X, POS_Y, NEG_Y = (
    Direction.POS_X,
    Direction.NEG_X,
    Direction.POS_Y,
    Direction.NEG_Y,
)


def _oracle_blocks(mover, obstacle, direction):
    """Step the mover one cell at a time until it must be past the obstacle."""
    cells = set(mover) | set(obstacle)
    xs = [x for x, _ in cells]
    ys = [y for _, y in cells]
    steps = (max(xs) - min(xs)) + (max(ys) - min(ys)) + 2
    for t in range(1, steps + 1):
        moved = {(x + t * direction.dx, y + t * direction.dy) for x, y in mover}
        if moved & set(obstacle):
            return True
    return False


def _oracle_removal_orders(config, direction):
    """All orders that remove every piece with clear single-direction slides."""
    ids = list(config.piece_ids())
    orders = []
    for perm in itertools.permutations(ids):
        board = config
        for pid in perm:
            cells = board.cells_of(pid)
            if any(
                _oracle_blocks(cells, board.cells_of(other), direction)
                for other in board.piece_ids()
                if other != pid
            ):
                break
            board = board.without([pid])
        else:
            orders.append(perm)
    return orders


def _random_polyomino_cells(n, rng):
    cells = {(0, 0)}
    while len(cells) < n:
        x, y = rng.choice(sorted(cells))
        nb = rng.choice([(x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)])
        cells.add(nb)
    return cells


def _random_config(seed, max_pieces=4, max_cells=4, span=6, shape_filter=None):
    rng = random.Random(seed)
    placements = {}
    occupied = set()
    for idx in range(rng.randint(1, max_pieces)):
        for _ in range(60):
            cells = _random_polyomino_cells(rng.randint(1, max_cells), rng)
            if shape_filter is not None and not shape_filter(
                Polyomino(frozenset(cells))
            ):
                continue
            dx, dy = rng.randint(0, span), rng.randint(0, span)
            world = {(x + dx, y + dy) for x, y in cells}
            if not world & occupied:
                placements[f"P{idx}"] = world
                occupied |= world
                break
    return Configuration.from_cell_map(placements)


def _move_order(plan):
    return tuple(next(iter(move.piece_ids)) for move in plan.moves)


# ---------------------------------------------------------------- blocking


def test_blocking_graph_disjoint_rows_has_no_edges():
    config = Configuration.from_cell_map(
        {"A": [(0, 0), (1, 0)], "B": [(0, 5), (1, 5)]}
    )
    graph = blocking_graph(config, POS_X)
    assert graph.edges == frozenset()
    assert graph.nodes == frozenset({"A", "B"})


def test_blocking_graph_strict_right_rule():
    config = Configuration.from_cell_map(
        {"D": [(0, 0), (1, 0)], "M": [(5, 0)]}
    )
    graph = blocking_graph(config, POS_X)
    assert graph.edges == frozenset({("M", "D")})
    assert graph.blockers_of("D") == frozenset({"M"})
    assert graph.blockers_of("M") == frozenset()


@given(seed=st.integers(0, 2**32 - 1), direction=st.sampled_from(DIRECTIONS))
def test_blocking_graph_matches_step_oracle(seed, direction):
    config = _random_config(seed)
    graph = blocking_graph(config, direction)
    expected = set()
    for blocked in config.piece_ids():
        for blocker in config.piece_ids():
            if blocker != blocked and _oracle_blocks(
                config.cells_of(blocked), config.cells_of(blocker), direction
            ):
                expected.add((blocker, blocked))
    assert set(graph.edges) == expected


# ---------------------------------------------------------------- plan_uto


@pytest.mark.parametrize("direction", DIRECTIONS)
def test_plan_uto_single_piece(direction):
    config = Configuration.from_cell_map({"A": [(0, 0), (0, 1), (1, 1)]})
    plan = plan_uto(config, direction)
    assert isinstance(plan, SeparationPlan)
    assert plan.moves == (Move(frozenset({"A"}), direction),)


def test_plan_uto_staircase_trio_peels_from_the_right():
    config = staircase_trio()
    plan = plan_uto(config, POS_X)
    assert isinstance(plan, SeparationPlan)
    assert _move_order(plan) == ("C", "B", "A")
    assert simulate_plan(config, plan).valid


def test_plan_uto_clasped_pair_reports_two_cycle():
    config = clasped_c_pair()
    for direction in (POS_X, NEG_X):
        result = plan_uto(config, direction)
        assert isinstance(result, NoUto)
        assert result.direction is direction
        assert set(result.cycle) == {"A", "B"}
    # the clasp only binds horizontally
    upward = plan_uto(config, POS_Y)
    assert isinstance(upward, SeparationPlan)
    assert simulate_plan(config, upward).valid


def _recursive_find_cycle(blockers, nodes):
    """The recursive depth-first search `_find_cycle` replaced, as its oracle."""
    color = {}
    path = []

    def visit(node):
        color[node] = 1
        path.append(node)
        for nxt in sorted(blockers[node] & nodes):
            if color.get(nxt) == 1:
                return tuple(path[path.index(nxt):])
            if nxt not in color:
                found = visit(nxt)
                if found is not None:
                    return found
        color[node] = 2
        path.pop()
        return None

    for node in sorted(nodes):
        if node not in color:
            found = visit(node)
            if found is not None:
                return found
    raise AssertionError("every stuck peel has a cycle to witness it")


def test_find_cycle_survives_a_long_chain_into_a_two_cycle():
    chain = [f"N{i:05d}" for i in range(5000)]
    blockers = {pid: {nxt} for pid, nxt in zip(chain, chain[1:] + ["ZA"])}
    blockers["ZA"] = {"ZB"}
    blockers["ZB"] = {"ZA"}
    assert _find_cycle(blockers, set(blockers)) == ("ZA", "ZB")


def test_find_cycle_matches_the_recursive_search():
    outcomes = set()
    for seed in range(300):
        rng = random.Random(seed)
        names = [f"P{i}" for i in range(rng.randint(1, 8))]
        blockers = {
            pid: {other for other in names if other != pid and rng.random() < 0.3}
            for pid in names
        }
        nodes = set(rng.sample(names, rng.randint(1, len(names))))
        try:
            expected = _recursive_find_cycle(blockers, nodes)
        except AssertionError:
            with pytest.raises(AssertionError):
                _find_cycle(blockers, nodes)
            outcomes.add("acyclic")
        else:
            assert _find_cycle(blockers, nodes) == expected
            outcomes.add(len(expected))
    # both branches and cycles of several lengths were exercised
    assert "acyclic" in outcomes and {2, 3} <= outcomes


@given(seed=st.integers(0, 2**32 - 1), direction=st.sampled_from(DIRECTIONS))
@settings(max_examples=60)
def test_plan_uto_agrees_with_brute_force(seed, direction):
    config = _random_config(seed)
    result = plan_uto(config, direction)
    orders = _oracle_removal_orders(config, direction)
    if isinstance(result, SeparationPlan):
        assert orders, "planner found an order the oracle says cannot exist"
        assert _move_order(result) in set(orders)
        assert all(move.direction is direction for move in result.moves)
        assert simulate_plan(config, result).valid
    else:
        assert not orders, "oracle found an order the planner missed"
        assert len(result.cycle) >= 2
        for i, pid in enumerate(result.cycle):
            blocker = result.cycle[(i + 1) % len(result.cycle)]
            assert _oracle_blocks(
                config.cells_of(pid), config.cells_of(blocker), direction
            )


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60)
def test_row_contiguous_systems_peel_horizontally(seed):
    config = _random_config(
        seed,
        max_pieces=5,
        max_cells=5,
        shape_filter=lambda shape: is_monotone(shape, "y"),
    )
    for direction in (POS_X, NEG_X):
        plan = plan_uto(config, direction)
        assert isinstance(plan, SeparationPlan)
        assert simulate_plan(config, plan).valid


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60)
def test_column_contiguous_systems_peel_vertically(seed):
    config = _random_config(
        seed,
        max_pieces=5,
        max_cells=5,
        shape_filter=lambda shape: is_monotone(shape, "x"),
    )
    for direction in (POS_Y, NEG_Y):
        plan = plan_uto(config, direction)
        assert isinstance(plan, SeparationPlan)
        assert simulate_plan(config, plan).valid


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60)
def test_fully_convex_systems_peel_in_all_four_directions(seed):
    config = _random_config(
        seed,
        max_pieces=5,
        max_cells=5,
        shape_filter=lambda shape: is_monotone(shape, "x")
        and is_monotone(shape, "y"),
    )
    for direction in DIRECTIONS:
        plan = plan_uto(config, direction)
        assert isinstance(plan, SeparationPlan)
        assert simulate_plan(config, plan).valid


# ---------------------------------------------------------------- grouping


def test_group_all_singletons_without_us():
    config = Configuration.from_cell_map(
        {
            "A": [(0, 0), (1, 0), (2, 0), (1, 1)],
            "B": [(5, 0), (5, 1)],
            "C": [(8, 8)],
        }
    )
    groups = group_le5(config)
    assert [sorted(g.member_ids) for g in groups] == [["A"], ["B"], ["C"]]
    assert all(g.internal_axis is None for g in groups)


def test_group_u_with_plus_shaped_filler():
    config = Configuration.from_cell_map(
        {
            "U": [(0, 0), (1, 0), (2, 0), (0, 1), (2, 1)],
            "P": [(1, 1), (0, 2), (1, 2), (2, 2), (1, 3)],
        }
    )
    groups = group_le5(config)
    assert len(groups) == 1
    (group,) = groups
    assert group.member_ids == frozenset({"P", "U"})
    assert group.internal_axis == "y"
    assert is_monotone(group.union_shape, "y")


def test_group_case4_bundles_three_members():
    groups = group_le5(case4_group())
    assert len(groups) == 1
    assert groups[0].member_ids == frozenset({"U1", "F", "U2"})
    assert is_monotone(groups[0].union_shape, "y")


def test_group_empty_pocket_u_stays_singleton():
    config = Configuration.from_cell_map(
        {
            "U": [(0, 0), (1, 0), (2, 0), (0, 1), (2, 1)],
            "M": [(10, 0)],
        }
    )
    groups = group_le5(config)
    assert [sorted(g.member_ids) for g in groups] == [["M"], ["U"]]


def test_group_mutual_u_pair_forms_one_group():
    groups = group_le5(mutual_u_pair())
    assert len(groups) == 1
    assert groups[0].member_ids == frozenset({"A", "B"})
    assert is_monotone(groups[0].union_shape, "y")


def test_group_sideways_u_stays_singleton():
    # pocket opens in +x, so nothing is bundled even with the pocket filled
    config = Configuration.from_cell_map(
        {
            "U": [(0, 0), (1, 0), (0, 1), (0, 2), (1, 2)],
            "M": [(1, 1)],
        }
    )
    groups = group_le5(config)
    assert [sorted(g.member_ids) for g in groups] == [["M"], ["U"]]


def test_group_rejects_oversized_piece():
    config = Configuration.from_cell_map(
        {"R": [(x, y) for x in range(3) for y in range(2)]}
    )
    with pytest.raises(OversizedPieceError) as err:
        group_le5(config)
    assert err.value.piece_id == "R"
    assert err.value.size == 6


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60)
def test_group_output_partitions_the_pieces(seed):
    config = _random_config(seed, max_pieces=6, max_cells=5, span=8)
    groups = group_le5(config)
    covered = [pid for g in groups for pid in g.member_ids]
    assert sorted(covered) == sorted(config.piece_ids())
    assert all(len(g.member_ids) <= 3 for g in groups)


# ---------------------------------------------------------------- separate


def test_separate_single_u_is_one_move():
    config = Configuration.from_cell_map(
        {"U": [(0, 0), (1, 0), (2, 0), (0, 1), (2, 1)]}
    )
    plan = separate_le5(config)
    assert len(plan.moves) == 1
    assert simulate_plan(config, plan).valid


def test_separate_u_filler_example_departs_in_layers():
    config = u_filler_example()
    plan = separate_le5(config)
    assert plan.moves == (
        Move(frozenset({"D"}), POS_X),
        Move(frozenset({"L"}), POS_Y),
        Move(frozenset({"U"}), POS_Y),
    )
    assert simulate_plan(config, plan).valid


def test_separate_mutual_u_pair_where_single_direction_fails():
    config = mutual_u_pair()
    assert isinstance(plan_uto(config, POS_X), NoUto)
    assert isinstance(plan_uto(config, NEG_X), NoUto)
    plan = separate_le5(config)
    assert simulate_plan(config, plan).valid
    assert all(move.direction.axis == "y" for move in plan.moves)


def test_separate_case4_group_exits_vertically():
    config = case4_group()
    plan = separate_le5(config)
    assert simulate_plan(config, plan).valid
    assert all(len(move.piece_ids) == 1 for move in plan.moves)
    assert all(move.direction.axis == "y" for move in plan.moves)


def test_separate_empty_config():
    config = Configuration.from_placements(())
    plan = separate_le5(config)
    assert plan.moves == ()
    assert simulate_plan(config, plan).valid


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60)
def test_separate_random_small_systems(seed):
    config = _random_config(seed, max_pieces=6, max_cells=5, span=8)
    plan = separate_le5(config)
    assert simulate_plan(config, plan).valid
    assert plan.covered_ids() == frozenset(config.piece_ids())


# ---------------------------------------------------------------- simulate


def test_simulate_empty_plan_on_empty_config():
    report = simulate_plan(Configuration.from_placements(()), SeparationPlan(()))
    assert report.valid
    assert report.leftover == frozenset()


def test_simulate_stacked_dominoes_depend_on_order():
    config = Configuration.from_cell_map(
        {"B": [(0, 0), (1, 0)], "T": [(0, 1), (1, 1)]}
    )
    good = SeparationPlan(
        (Move(frozenset({"T"}), POS_Y), Move(frozenset({"B"}), POS_Y))
    )
    assert simulate_plan(config, good).valid

    bad = SeparationPlan(
        (Move(frozenset({"B"}), POS_Y), Move(frozenset({"T"}), POS_Y))
    )
    report = simulate_plan(config, bad)
    assert not report.valid
    assert report.failure_index == 0
    assert report.collision == ("B", "T")
    assert report.leftover == frozenset({"B", "T"})


def test_simulate_rigid_pair_move():
    config = Configuration.from_cell_map(
        {
            "A": [(0, 0), (1, 0), (2, 0), (0, 1), (2, 1)],
            "B": [(1, 1), (3, 1), (1, 2), (2, 2), (3, 2)],
            "M": [(10, 1)],
        }
    )
    # the interlocked pair cannot pass the monomino while moving as one body
    towards = SeparationPlan(
        (Move(frozenset({"A", "B"}), POS_X), Move(frozenset({"M"}), POS_X))
    )
    report = simulate_plan(config, towards)
    assert not report.valid
    assert report.failure_index == 0
    assert report.collision == ("A", "M")

    away = SeparationPlan(
        (Move(frozenset({"A", "B"}), NEG_X), Move(frozenset({"M"}), NEG_X))
    )
    assert simulate_plan(config, away).valid


def test_simulate_unknown_piece_raises():
    config = Configuration.from_cell_map({"A": [(0, 0)]})
    plan = SeparationPlan((Move(frozenset({"X"}), POS_X),))
    with pytest.raises(PlanError):
        simulate_plan(config, plan)


def test_simulate_duplicate_coverage_raises():
    config = Configuration.from_cell_map({"A": [(0, 0)], "B": [(5, 5)]})
    plan = SeparationPlan(
        (Move(frozenset({"A"}), POS_X), Move(frozenset({"A", "B"}), POS_X))
    )
    with pytest.raises(PlanError):
        simulate_plan(config, plan)


def test_simulate_uncovered_piece_is_invalid():
    config = mutual_u_pair()
    plan = SeparationPlan((Move(frozenset({"A"}), NEG_Y),))
    report = simulate_plan(config, plan)
    assert not report.valid
    assert report.failure_index is None
    assert report.leftover == frozenset({"B"})


def test_move_requires_a_piece():
    with pytest.raises(ValueError):
        Move(frozenset(), POS_X)
