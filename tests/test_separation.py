"""Blocking graphs, single-direction plans, grouping, and plan simulation.

The ordering oracle enumerates every removal permutation with a brute-force
step sweep, so the planner's topological peel is checked against an
independent notion of "some order works". The pairwise implementations that
the lane index replaced (`blocking_graph`, `plan_uto`'s peel, the group peel
of `separate_le5` and `simulate_plan`, each built on `sweep_collides` and
boards rebuilt without the pieces that left) are kept below as oracles, and
the module must return exactly what they return.
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
    classify,
    group_le5,
    plan_uto,
    separate_le5,
    simulate_plan,
)
from polylock.grid import Polyomino, sweep_collides
from polylock.separation import (
    BlockingGraph,
    SimulationReport,
    _exit_preferences,
    _extreme,
    _find_cycle,
    blocking_graph,
)
from polylock.instances import (
    case4_group,
    clasped_c_pair,
    mutual_u_pair,
    staircase_trio,
    u_filler_example,
    z_chain,
)

POS_X, NEG_X, POS_Y, NEG_Y = (
    Direction.POS_X,
    Direction.NEG_X,
    Direction.POS_Y,
    Direction.NEG_Y,
)


def _without(config, piece_ids):
    gone = set(piece_ids)
    return Configuration.from_cell_map(
        {pid: cells for pid, cells in config.cell_map().items() if pid not in gone}
    )


def _covered(plan):
    return frozenset(pid for move in plan.moves for pid in move.piece_ids)


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
            board = _without(board, [pid])
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
    assert {q for q, p in graph.edges if p == "D"} == {"M"}
    assert {q for q, p in graph.edges if p == "M"} == set()


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
    # every node keeps a blocker among `nodes`, as in the pieces a stuck
    # peel leaves; blockers outside `nodes` are pieces that already left
    outcomes = set()
    for seed in range(300):
        rng = random.Random(seed)
        names = [f"P{i}" for i in range(rng.randint(2, 8))]
        blockers = {
            pid: {other for other in names if other != pid and rng.random() < 0.3}
            for pid in names
        }
        nodes = set(rng.sample(names, rng.randint(2, len(names))))
        for pid in sorted(nodes):
            if not blockers[pid] & nodes:
                blockers[pid].add(rng.choice(sorted(nodes - {pid})))
        expected = _recursive_find_cycle(blockers, nodes)
        assert _find_cycle(blockers, nodes) == expected
        outcomes.add(len(expected))
    # cycles of several lengths were exercised
    assert {2, 3} <= outcomes


def test_find_cycle_refuses_a_node_with_no_blocker_left():
    blockers = {"A": {"B"}, "B": {"C"}, "C": set()}
    with pytest.raises(AssertionError):
        _find_cycle(blockers, {"A", "B", "C"})


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
        shape_filter=lambda shape: classify(shape).y_monotone,
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
        shape_filter=lambda shape: classify(shape).x_monotone,
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
        shape_filter=lambda shape: classify(shape).orthogonally_convex,
    )
    for direction in DIRECTIONS:
        plan = plan_uto(config, direction)
        assert isinstance(plan, SeparationPlan)
        assert simulate_plan(config, plan).valid


# ---------------------------------------------------------------- grouping


def _row_contiguous_union(config, piece_ids):
    union = Polyomino(
        frozenset(cell for pid in piece_ids for cell in config.cells_of(pid))
    )
    return classify(union).y_monotone


def test_group_all_singletons_without_us():
    config = Configuration.from_cell_map(
        {
            "A": [(0, 0), (1, 0), (2, 0), (1, 1)],
            "B": [(5, 0), (5, 1)],
            "C": [(8, 8)],
        }
    )
    groups = group_le5(config)
    assert [sorted(g) for g in groups] == [["A"], ["B"], ["C"]]
    assert all(_row_contiguous_union(config, g) for g in groups)


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
    assert group == frozenset({"P", "U"})
    assert _row_contiguous_union(config, group)


def test_group_case4_bundles_three_members():
    config = case4_group()
    groups = group_le5(config)
    assert len(groups) == 1
    assert groups[0] == frozenset({"U1", "F", "U2"})
    assert _row_contiguous_union(config, groups[0])


def test_group_empty_pocket_u_stays_singleton():
    config = Configuration.from_cell_map(
        {
            "U": [(0, 0), (1, 0), (2, 0), (0, 1), (2, 1)],
            "M": [(10, 0)],
        }
    )
    groups = group_le5(config)
    assert [sorted(g) for g in groups] == [["M"], ["U"]]


def test_group_mutual_u_pair_forms_one_group():
    config = mutual_u_pair()
    groups = group_le5(config)
    assert len(groups) == 1
    assert groups[0] == frozenset({"A", "B"})
    assert _row_contiguous_union(config, groups[0])


def test_group_sideways_u_stays_singleton():
    # pocket opens in +x, so nothing is bundled even with the pocket filled
    config = Configuration.from_cell_map(
        {
            "U": [(0, 0), (1, 0), (0, 1), (0, 2), (1, 2)],
            "M": [(1, 1)],
        }
    )
    groups = group_le5(config)
    assert [sorted(g) for g in groups] == [["M"], ["U"]]


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
    covered = [pid for g in groups for pid in g]
    assert sorted(covered) == sorted(config.piece_ids())
    assert all(len(g) <= 3 for g in groups)


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
    config = Configuration.from_cell_map({})
    plan = separate_le5(config)
    assert plan.moves == ()
    assert simulate_plan(config, plan).valid


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60)
def test_separate_random_small_systems(seed):
    config = _random_config(seed, max_pieces=6, max_cells=5, span=8)
    plan = separate_le5(config)
    assert simulate_plan(config, plan).valid
    assert _covered(plan) == frozenset(config.piece_ids())


def _box_partitions(width, height, max_cells):
    """Every partition of the width x height box into edge-connected pieces
    of at most `max_cells` cells, written with no polylock code: the piece
    holding the smallest free cell is each connected set of free cells
    that contains it, grown one neighbour at a time."""

    def pieces_at(cell, free):
        found, level = set(), {frozenset([cell])}
        while level:
            found |= level
            level = {
                piece | {nb}
                for piece in level
                if len(piece) < max_cells
                for x, y in piece
                for nb in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1))
                if nb in free and nb not in piece
            }
        return found

    def extend(free):
        if not free:
            yield []
            return
        for piece in pieces_at(min(free), free):
            for rest in extend(free - piece):
                yield [piece, *rest]

    return list(extend(frozenset(itertools.product(range(width), range(height)))))


def test_separate_le5_plans_every_partition_of_the_3x3_box():
    """The paper's theorem on every board of a full 3x3 box: pieces of at
    most 5 cells never interlock, so each board gets a plan that replays."""
    boards = _box_partitions(3, 3, 5)
    assert len(boards) == 1260
    grouped = 0
    for pieces in boards:
        config = Configuration.from_cell_map({f"P{i}": c for i, c in enumerate(pieces)})
        grouped += any(len(group) > 1 for group in group_le5(config))
        assert simulate_plan(config, separate_le5(config)).valid, pieces
    # some board bundles a U with its pocket filler, so grouping is exercised
    assert grouped >= 1


# ---------------------------------------------------------------- simulate


def test_simulate_empty_plan_on_empty_config():
    report = simulate_plan(Configuration.from_cell_map({}), SeparationPlan(()))
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


# ---------------------------------------------------------------- pairwise oracles


def _pairwise_blocking_graph(config, direction):
    ids = config.piece_ids()
    cells = config.cell_map()
    edges = set()
    for blocked in ids:
        for blocker in ids:
            if blocker != blocked and sweep_collides(
                cells[blocked], cells[blocker], direction
            ):
                edges.add((blocker, blocked))
    return BlockingGraph(direction, frozenset(ids), frozenset(edges))


def _pairwise_plan_uto(config, direction):
    graph = _pairwise_blocking_graph(config, direction)
    blockers = {pid: set() for pid in graph.nodes}
    for blocker, blocked in graph.edges:
        blockers[blocked].add(blocker)
    cells = config.cell_map()
    remaining = set(graph.nodes)
    order = []
    while remaining:
        ready = [pid for pid in remaining if not (blockers[pid] & remaining)]
        if not ready:
            return NoUto(direction, _recursive_find_cycle(blockers, remaining))
        ready.sort(key=lambda pid: (-_extreme(cells[pid], direction), pid))
        order.append(ready[0])
        remaining.remove(ready[0])
    return SeparationPlan(tuple(Move(frozenset({pid}), direction) for pid in order))


def _pairwise_simulate_plan(config, plan):
    known = set(config.piece_ids())
    seen = set()
    for move in plan.moves:
        for pid in sorted(move.piece_ids):
            if pid not in known:
                raise PlanError(f"plan references unknown piece {pid!r}")
            if pid in seen:
                raise PlanError(f"piece {pid!r} is covered by two moves")
            seen.add(pid)
    board = config
    for index, move in enumerate(plan.moves):
        moving = sorted(move.piece_ids)
        union_cells = frozenset(cell for pid in moving for cell in board.cells_of(pid))
        for other in sorted(set(board.piece_ids()) - move.piece_ids):
            obstacle = board.cells_of(other)
            if sweep_collides(union_cells, obstacle, move.direction):
                witness = next(
                    pid
                    for pid in moving
                    if sweep_collides(board.cells_of(pid), obstacle, move.direction)
                )
                return SimulationReport(
                    valid=False,
                    failure_index=index,
                    collision=(witness, other),
                    leftover=frozenset(board.piece_ids()),
                )
        board = _without(board, move.piece_ids)
    leftover = frozenset(board.piece_ids())
    return SimulationReport(valid=not leftover, leftover=leftover)


def _pairwise_blocked(board, pid, direction):
    cells = board.cells_of(pid)
    return any(
        sweep_collides(cells, board.cells_of(other), direction)
        for other in board.piece_ids()
        if other != pid
    )


def _pairwise_group_exit(board, group, direction, rigid):
    if len(group) == 1:
        (pid,) = group
        if _pairwise_blocked(board, pid, direction):
            return None
        return [Move(frozenset({pid}), direction)]
    ordered, prefs = _exit_preferences(board, group)
    for perm in itertools.permutations(ordered):
        for signs in itertools.product(*(prefs[pid] for pid in perm)):
            scratch = board
            moves = []
            for pid, member_dir in zip(perm, signs):
                if _pairwise_blocked(scratch, pid, member_dir):
                    break
                moves.append(Move(frozenset({pid}), member_dir))
                scratch = _without(scratch, [pid])
            else:
                return moves
    if rigid:
        union = frozenset(cell for pid in group for cell in board.cells_of(pid))
        if not any(
            sweep_collides(union, board.cells_of(other), direction)
            for other in board.piece_ids()
            if other not in group
        ):
            return [Move(group, direction)]
    return None


def _pairwise_peel_groups(config, groups, direction, rigid):
    board = config
    pending = list(groups)
    moves = []
    while pending:
        pending.sort(
            key=lambda g: (
                -_extreme(
                    (cell for pid in g for cell in board.cells_of(pid)),
                    direction,
                ),
                min(g),
            )
        )
        for group in pending:
            exit_moves = _pairwise_group_exit(board, group, direction, rigid)
            if exit_moves is not None:
                break
        else:
            return None
        moves.extend(exit_moves)
        board = _without(board, group)
        pending.remove(group)
    return SeparationPlan(tuple(moves))


def _pairwise_separate_le5(config, passes=(False, True)):
    """The group peel in all four directions, for each rigid flag of
    `passes` in turn; None where every peel jams."""
    groups = group_le5(config)
    if not groups:
        return SeparationPlan(())
    for rigid in passes:
        for direction in DIRECTIONS:
            plan = _pairwise_peel_groups(config, groups, direction, rigid)
            if plan is not None and _pairwise_simulate_plan(config, plan).valid:
                return plan
    return None


def _grown_packing(seed, side=12, pieces=36):
    """A dense box of pieces of at most five cells, grown cell by cell.

    Unlike `_random_config`, these often put a piece in the pocket of a
    U-pentomino opening along y, so `group_le5` forms multi-piece groups.
    """
    rng = random.Random(seed)
    free = {(x, y) for x in range(side) for y in range(side)}
    cells = {}
    for start in rng.sample(sorted(free), len(free)):
        if len(cells) == pieces:
            break
        if start not in free:
            continue
        piece = {start}
        target = rng.choice([2, 3, 4, 5, 5])
        while len(piece) < target:
            fringe = sorted(
                nb
                for x, y in piece
                for nb in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1))
                if nb in free and nb not in piece
            )
            if not fringe:
                break
            piece.add(rng.choice(fringe))
        free -= piece
        cells[f"P{len(cells):02d}"] = piece
    return Configuration.from_cell_map(cells)


def _corrupted(plan, rng):
    """The plan, and copies with moves swapped, reversed, truncated or fused."""
    moves = list(plan.moves)
    variants = [moves, moves[::-1], moves[: len(moves) // 2]]
    if len(moves) >= 2:
        i, j = sorted(rng.sample(range(len(moves)), 2))
        swapped = list(moves)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        turned = list(moves)
        turned[i] = Move(moves[i].piece_ids, moves[i].direction.opposite)
        last, before = moves[-1], moves[-2]
        fused = [Move(last.piece_ids | before.piece_ids, last.direction)]
        variants += [swapped, turned, fused + moves[-3::-1]]
    return [SeparationPlan(tuple(v)) for v in variants]


def test_blocking_graph_and_plan_uto_match_pairwise_oracles():
    outcomes = set()
    for seed in range(40):
        config = _grown_packing(seed)
        for direction in DIRECTIONS:
            assert blocking_graph(config, direction) == _pairwise_blocking_graph(
                config, direction
            )
            result = plan_uto(config, direction)
            assert result == _pairwise_plan_uto(config, direction)
            outcomes.add(type(result))
    assert outcomes == {SeparationPlan, NoUto}


def test_simulate_plan_matches_pairwise_replay_on_corrupted_plans():
    outcomes = set()
    for seed in range(30):
        rng = random.Random(seed)
        config = _grown_packing(seed)
        plans = [separate_le5(config)]
        for direction in DIRECTIONS:
            result = plan_uto(config, direction)
            if isinstance(result, SeparationPlan):
                plans.append(result)
        for plan in plans:
            for variant in _corrupted(plan, rng):
                report = simulate_plan(config, variant)
                assert report == _pairwise_simulate_plan(config, variant)
                if report.valid:
                    outcomes.add("valid")
                elif report.collision is None:
                    outcomes.add("leftover")
                else:
                    outcomes.add("collision")
                    if len(variant.moves[report.failure_index].piece_ids) > 1:
                        outcomes.add("rigid collision")
    assert outcomes == {"valid", "leftover", "collision", "rigid collision"}


def test_separate_le5_matches_the_pairwise_group_peel():
    grouped = 0
    for seed in range(60):
        config = _grown_packing(seed)
        expected = _pairwise_separate_le5(config)
        assert expected is not None
        assert separate_le5(config) == expected
        grouped += any(len(g) > 1 for g in group_le5(config))
    for config in (u_filler_example(), mutual_u_pair(), case4_group()):
        assert separate_le5(config) == _pairwise_separate_le5(config)
    assert grouped


# ---------------------------------------------------------------- rigid group exit

# Two dense packings of 90 pieces of at most five cells in a 21x21 box, on
# which every member-exit peel jams: a U-pentomino opening along y holds a
# piece in its pocket, and neither can leave along y while the rest of the
# board is in place. Each token is a piece number (piece "P" + "0" + token),
# ".." is empty; the first line is the top row y = 20, columns are x = 0..20.
JAMMED_PACKINGS = {
    "a": [
        "88 88 78 .. .. 77 .. 23 16 16 16 16 16 73 73 26 .. .. .. .. 64",
        "88 88 78 .. 77 77 .. 23 01 .. 13 13 13 73 26 26 26 68 .. .. 64",
        "88 28 .. .. 15 15 41 23 01 01 13 .. 00 73 .. 45 26 68 68 68 80",
        ".. 28 .. 15 15 30 41 23 01 .. 00 00 00 73 55 45 45 45 .. 68 80",
        ".. 28 28 49 30 30 41 41 69 65 00 65 .. .. 55 55 45 50 .. .. 80",
        ".. .. .. 49 49 49 41 69 69 65 65 65 34 19 19 19 63 50 .. .. 12",
        "53 53 52 52 52 42 42 .. 69 69 .. 34 34 .. 19 63 63 50 57 12 12",
        "86 53 14 52 03 03 42 42 81 79 79 79 79 .. .. 63 71 50 57 57 57",
        "86 53 14 52 03 .. .. .. 81 81 81 79 .. .. .. 63 71 71 71 83 57",
        "86 14 14 14 .. 39 39 39 76 76 76 .. .. 58 58 51 51 .. 71 83 83",
        "27 82 82 82 .. 33 39 39 76 17 59 05 05 05 .. 51 51 51 46 46 46",
        "27 27 33 33 33 33 38 38 38 17 59 59 59 31 .. 72 72 46 46 74 ..",
        "22 27 27 36 36 10 48 38 .. 17 17 17 59 31 31 31 72 21 21 74 74",
        "22 87 87 87 36 10 48 38 .. .. 24 24 24 31 .. .. 25 25 .. 74 74",
        ".. 87 09 87 10 10 48 84 89 .. 24 62 43 43 .. 40 .. 25 32 32 32",
        "29 .. 09 56 56 56 48 84 89 08 08 62 .. 43 .. 40 .. 25 37 60 60",
        "29 .. 09 09 .. 56 70 89 89 89 08 62 62 .. 18 40 37 37 37 02 60",
        "66 .. 09 .. 35 35 70 70 70 07 07 .. .. 18 18 .. .. 47 37 02 60",
        "66 66 66 04 35 35 70 07 07 07 54 .. .. 61 18 44 44 47 47 02 60",
        ".. .. 06 04 04 20 20 67 67 54 54 .. 61 61 75 75 .. .. 47 11 ..",
        ".. 06 06 06 06 20 20 67 67 85 54 54 61 61 75 75 75 .. .. 11 11",
    ],
    "b": [
        ".. .. 19 .. .. .. 21 .. .. 29 29 .. 88 89 20 .. 53 53 53 22 ..",
        "51 .. 19 19 19 21 21 21 .. 29 29 .. 88 20 20 .. 53 53 70 22 22",
        "51 00 00 00 30 21 .. .. 52 .. .. .. .. 20 20 .. 70 70 70 22 14",
        "51 51 51 00 30 30 38 38 52 52 .. 06 06 06 31 31 31 31 70 22 14",
        "66 66 66 66 30 38 38 38 52 52 74 74 06 06 42 42 41 41 41 14 14",
        ".. .. .. 59 59 .. 85 85 85 85 85 74 74 74 42 .. 56 56 41 14 76",
        "12 12 12 59 10 .. 50 50 50 .. .. 26 58 42 42 .. 18 56 07 07 07",
        "12 12 63 63 10 .. 48 48 50 50 75 26 58 58 18 18 18 56 07 44 44",
        "63 63 63 28 10 .. 48 48 .. 77 75 77 .. 58 18 .. .. .. 07 44 44",
        "67 33 33 28 10 .. 48 62 16 77 77 77 .. 13 13 49 49 .. .. 82 82",
        "67 67 33 71 10 09 09 62 16 16 .. 54 54 54 13 05 25 81 81 81 82",
        "67 33 33 71 71 71 09 11 11 11 11 .. 54 54 84 05 25 25 25 83 83",
        "37 37 37 .. 71 87 09 17 17 08 11 78 34 .. 84 05 27 27 27 83 83",
        ".. 37 24 24 45 87 87 03 17 08 78 78 34 .. 84 57 .. 27 27 35 83",
        ".. .. .. .. 45 45 03 03 17 08 78 23 34 34 57 57 57 86 86 35 35",
        "55 55 .. .. .. .. .. 03 17 23 23 23 02 .. .. 57 04 86 64 64 64",
        ".. .. 68 .. .. .. .. .. 79 .. .. 46 02 .. .. .. 04 86 86 43 64",
        "73 .. 68 68 .. .. 15 .. 79 .. 46 46 02 .. .. .. 04 04 43 43 61",
        "73 73 68 .. 15 15 15 .. .. 01 46 32 32 .. .. 39 39 80 43 61 61",
        "73 60 .. .. 15 69 69 69 .. 01 01 32 32 47 36 36 39 72 43 72 61",
        ".. 60 .. .. .. 69 65 65 01 01 40 40 40 47 47 47 47 72 72 72 61",
    ],
}


def _packing_from_rows(rows):
    cells = {}
    for row, line in enumerate(rows):
        for x, token in enumerate(line.split()):
            if token != "..":
                cells.setdefault(f"P0{token}", []).append((x, len(rows) - 1 - row))
    return Configuration.from_cell_map(cells)


@pytest.mark.parametrize("name", sorted(JAMMED_PACKINGS))
def test_separate_le5_lets_a_jammed_group_leave_whole(name):
    config = _packing_from_rows(JAMMED_PACKINGS[name])
    assert len(config) == 90
    # every member-exit peel jams here
    assert _pairwise_separate_le5(config, passes=(False,)) is None
    plan = separate_le5(config)
    assert plan == _pairwise_separate_le5(config)
    assert simulate_plan(config, plan).valid
    assert _covered(plan) == frozenset(config.piece_ids())
    rigid = [move for move in plan.moves if len(move.piece_ids) > 1]
    assert rigid
    groups = set(group_le5(config))
    assert all(move.piece_ids in groups for move in rigid)


# ---------------------------------------------------------------- peel cost


def _count_blockers(monkeypatch):
    """Count every `Configuration.blockers` call from now on."""
    calls = []
    query = Configuration.blockers

    def counted(self, piece_ids, direction):
        calls.append(direction)
        return query(self, piece_ids, direction)

    monkeypatch.setattr(Configuration, "blockers", counted)
    return calls


def test_separate_le5_queries_each_piece_once_per_peel_and_replay(monkeypatch):
    # L-pentomino k holds monomino k in the crook of its top row, so along
    # +x each L waits for its monomino; a peel that rescans the waiting
    # pieces after each removal makes quadratically many queries here
    pairs = 1000
    cells = {}
    for k in range(pairs):
        cells[f"L{k:04d}"] = [(x, 2 * k) for x in range(4)] + [(0, 2 * k + 1)]
        cells[f"M{k:04d}"] = [(1, 2 * k + 1)]
    config = Configuration.from_cell_map(cells)
    calls = _count_blockers(monkeypatch)
    plan = separate_le5(config)
    assert _move_order(plan) == tuple(
        f"{name}{k:04d}" for k in range(pairs) for name in ("M", "L")
    )
    assert {move.direction for move in plan.moves} == {POS_X}
    assert len(calls) == 2 * len(config)


def test_plan_uto_cycle_witness_reuses_the_peel_hits(monkeypatch):
    length = 50
    cells = z_chain(length).cell_map()
    for pid, piece in clasped_c_pair().cell_map().items():
        cells["ZZ" + pid] = [(x + 2 * length + 3, y) for x, y in piece]
    config = Configuration.from_cell_map(cells)
    calls = _count_blockers(monkeypatch)
    assert plan_uto(config, POS_X) == NoUto(POS_X, ("ZZA", "ZZB"))
    assert len(calls) == len(config) == length + 2


# ---------------------------------------------------------------- one index per axis


def _every_answer(board):
    """The plan of `separate_le5`, the replays of it and of its corrupted
    copies, then `plan_uto` and `blocking_graph` in every direction, each
    asked of `board()`."""
    plan = separate_le5(board())
    answers = [plan]
    for variant in _corrupted(plan, random.Random(len(plan.moves))):
        answers.append(simulate_plan(board(), variant))
    for direction in DIRECTIONS:
        answers += [plan_uto(board(), direction), blocking_graph(board(), direction)]
    return answers


SHARED_BOARDS = {
    "u_filler": u_filler_example,
    "case4": case4_group,
    "mutual_u": mutual_u_pair,
    "grown": lambda: _grown_packing(7),
    "jammed": lambda: _packing_from_rows(JAMMED_PACKINGS["a"]),
}


@pytest.mark.parametrize("name", sorted(SHARED_BOARDS))
def test_one_configuration_answers_every_query_like_fresh_copies(name):
    """The planners and the replay share the lane indexes of one
    configuration; each query must still answer as on a copy whose indexes
    are new, and the kept indexes must not show in ==, hash or repr."""
    config = SHARED_BOARDS[name]()
    hash_before, repr_before = hash(config), repr(config)
    kept = _every_answer(lambda: config)
    fresh = _every_answer(lambda: Configuration.from_cell_map(config.cell_map()))
    assert kept == fresh
    twin = Configuration.from_cell_map(config.cell_map())
    assert config == twin and hash(config) == hash(twin) == hash_before
    assert repr(config) == repr(twin) == repr_before
