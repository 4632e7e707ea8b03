"""Escape search, key-piece reachability, and slide dependencies.

The BFS collapses translated duplicates and interchangeable congruent
pieces, so the fixtures pin down exact state counts where those quotients
matter, and every returned trace is replayed move by move as a check that
collapsed bookkeeping still names real pieces.
"""

import itertools
from collections import deque

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polylock import (
    DIRECTIONS,
    Configuration,
    Direction,
    OverlapError,
    SINGLE_PIECE,
    SUBSET_MOVE,
    SearchBudget,
    escape_search,
    key_piece_reachable,
    replay_trace,
    slide_dependency,
)
from polylock.grid import is_connected, sweep_collides, translate_cells
from polylock.instances import (
    case4_group,
    keyhole_pair,
    mutual_u_pair,
    pinwheel,
    tray_with_key,
    z_chain,
)
from polylock.packing import PackingSpec, random_packing
from polylock import search
from polylock.search import DEFAULT_SUBSET_CAP, _Engine
from polylock.separation import separate_le5, simulate_plan

POS_X, NEG_X, POS_Y, NEG_Y = (
    Direction.POS_X,
    Direction.NEG_X,
    Direction.POS_Y,
    Direction.NEG_Y,
)


def _config(**pieces):
    return Configuration.from_cell_map(pieces)


def _occupied(config):
    return set().union(*config.cell_map().values())


def _cap(mode, cap=DEFAULT_SUBSET_CAP):
    """The engine's cap in `mode`: one piece, or `cap` in subset mode."""
    return cap if mode == SUBSET_MOVE else 1


def _normalize(engine, state):
    """`state` shifted so that its smallest anchor is the start's: the full
    O(pieces) drift that `_Engine.child` reads from the moved pieces."""
    (mx, my), (x0, y0) = min(state), engine.initial_min
    return tuple((x + x0 - mx, y + y0 - my) for x, y in state)


def _named_moves(engine, state, cap):
    """`unit_moves` with each moving index tuple mapped to its piece ids."""
    return [
        (frozenset(engine.ids[i] for i in combo), direction, moved)
        for combo, direction, moved in engine.unit_moves(state, cap)
    ]


def _moves(config, cap=1):
    """The legal unit moves from a configuration, in the engine's order."""
    engine = _Engine(config, radius=0)
    moves = _named_moves(engine, engine.start, cap)
    return [(ids, direction) for ids, direction, _ in moves]


def _without(config, piece_ids):
    gone = set(piece_ids)
    return Configuration.from_cell_map(
        {pid: cells for pid, cells in config.cell_map().items() if pid not in gone}
    )


def _snug_box():
    """A domino filling the whole interior of a 4x3 ring, no slack."""
    ring = [(x, 0) for x in range(4)] + [(x, 2) for x in range(4)] + [(0, 1), (3, 1)]
    return _config(R=ring, D=[(1, 1), (2, 1)])


def _slack_box():
    """A domino in a 5x3 ring whose interior leaves one free cell."""
    ring = [(x, 0) for x in range(5)] + [(x, 2) for x in range(5)] + [(0, 1), (4, 1)]
    return _config(R=ring, D=[(1, 1), (2, 1)])


class TestSearchBudget:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"radius": -1},
            {"radius": True},
            {"radius": 2.0},
            {"max_states": 0},
            {"max_states": -5},
            {"mode": "diagonal"},
            {"max_states": 2.5},
            {"max_states": True},
            {"radius": "3"},
        ],
    )
    def test_rejects_bad_limits(self, kwargs):
        with pytest.raises(ValueError):
            SearchBudget(**kwargs)

    def test_defaults(self):
        budget = SearchBudget()
        assert budget.radius == 3
        assert budget.max_states == 1_000_000
        assert budget.mode == SINGLE_PIECE


class TestLegalMoves:
    def test_lone_piece_moves_every_direction(self):
        moves = _moves(_config(A=[(0, 0), (1, 0)]))
        assert moves == [
            (frozenset({"A"}), POS_X),
            (frozenset({"A"}), NEG_X),
            (frozenset({"A"}), POS_Y),
            (frozenset({"A"}), NEG_Y),
        ]

    def test_snug_box_has_no_moves(self):
        assert _moves(_snug_box()) == []

    def test_pinwheel_has_no_single_piece_moves(self):
        assert _moves(pinwheel()) == []

    def test_pinwheel_pairs_move_in_subset_mode(self):
        moves = _moves(pinwheel(), DEFAULT_SUBSET_CAP)
        assert (frozenset({"A", "B"}), NEG_Y) in moves
        assert all(len(ids) > 1 for ids, _ in moves)

    def test_keyhole_move_order_is_deterministic(self):
        moves = _moves(keyhole_pair())
        assert moves == [
            (frozenset({"K"}), POS_X),
            (frozenset({"R"}), NEG_X),
        ]

    def test_blocked_neighbour_frees_up_after_a_step(self):
        config = z_chain(2)
        assert (frozenset({"Z1"}), NEG_X) not in _moves(config)
        stepped = replay_trace(config, ((frozenset({"Z0"}), NEG_X),))
        assert (frozenset({"Z1"}), NEG_X) in _moves(stepped)

    @pytest.mark.parametrize(
        "kwargs",
        [{"mode": "rigid"}],
        ids=lambda kwargs: "-".join(f"{k}={v}" for k, v in kwargs.items()),
    )
    def test_rejects_bad_arguments(self, kwargs):
        # the move mode is the one move parameter a search takes
        with pytest.raises(ValueError):
            SearchBudget(**kwargs)


class TestEscapeSearch:
    def test_single_piece_escapes_immediately(self):
        verdict = escape_search(_config(A=[(0, 0), (0, 1)]), SearchBudget())
        assert verdict.outcome == "escaped"
        assert verdict.states_explored == 1
        assert verdict.piece_ids == frozenset({"A"})
        assert verdict.trace == ()

    def test_pocket_filler_leaves_through_the_opening(self):
        u = [(0, 0), (1, 0), (2, 0), (0, 1), (2, 1)]
        verdict = escape_search(_config(U=u, M=[(1, 1)]), SearchBudget())
        assert verdict.outcome == "escaped"
        assert verdict.states_explored == 1
        assert (verdict.piece_ids, verdict.direction) == (frozenset({"M"}), POS_Y)

    def test_mutual_horizontal_block_still_leaves_vertically(self):
        verdict = escape_search(mutual_u_pair(), SearchBudget())
        assert verdict.outcome == "escaped"
        assert verdict.direction in (POS_Y, NEG_Y)
        assert verdict.trace == ()

    def test_snug_box_is_locked_in_one_state(self):
        verdict = escape_search(_snug_box(), SearchBudget(radius=3))
        assert verdict.outcome == "locked-within-budget"
        assert verdict.states_explored == 1
        assert verdict.piece_ids is None and verdict.trace is None

    def test_slack_box_is_locked_in_two_states(self):
        verdict = escape_search(_slack_box(), SearchBudget(radius=3))
        assert verdict.outcome == "locked-within-budget"
        assert verdict.states_explored == 2

    def test_state_cap_reports_budget_exhausted(self):
        verdict = escape_search(_slack_box(), SearchBudget(radius=3, max_states=1))
        assert verdict.outcome == "budget-exhausted"
        assert verdict.states_explored == 1

    def test_keyhole_needs_one_setup_move(self):
        config = keyhole_pair()
        verdict = escape_search(config, SearchBudget(radius=3))
        assert verdict.outcome == "escaped"
        assert verdict.trace == ((frozenset({"K"}), POS_X),)
        assert (verdict.piece_ids, verdict.direction) == (frozenset({"K"}), NEG_Y)
        after = replay_trace(config, verdict.trace)
        others = set(after.cells_of("R"))
        assert not sweep_collides(after.cells_of("K"), others, NEG_Y)

    def test_pinwheel_is_locked_and_count_is_stable(self):
        config = pinwheel()
        first = escape_search(config, SearchBudget(radius=3))
        second = escape_search(config, SearchBudget(radius=3))
        assert first == second
        assert first.outcome == "locked-within-budget"
        assert first.states_explored == 1

    def test_pinwheel_stays_locked_at_larger_radius(self):
        verdict = escape_search(pinwheel(), SearchBudget(radius=5))
        assert verdict.outcome == "locked-within-budget"

    def test_pinwheel_pair_escapes_in_subset_mode(self):
        verdict = escape_search(
            pinwheel(), SearchBudget(radius=3, mode=SUBSET_MOVE)
        )
        assert verdict.outcome == "escaped"
        assert (verdict.piece_ids, verdict.direction) == (
            frozenset({"A", "B"}),
            NEG_Y,
        )

    def test_empty_configuration_rejected(self):
        with pytest.raises(ValueError):
            escape_search(Configuration.from_cell_map({}), SearchBudget())

    @given(dx=st.integers(-30, 30), dy=st.integers(-30, 30))
    @settings(max_examples=25, deadline=None)
    def test_verdict_ignores_where_the_board_sits(self, dx, dy):
        moved = Configuration.from_cell_map(
            {
                pid: [(x + dx, y + dy) for x, y in keyhole_pair().cells_of(pid)]
                for pid in keyhole_pair().piece_ids()
            }
        )
        verdict = escape_search(moved, SearchBudget(radius=3))
        baseline = escape_search(keyhole_pair(), SearchBudget(radius=3))
        assert verdict == baseline


class TestKeyPieceReachable:
    def test_free_key_reaches_adjacent_cell_beside_anchor(self):
        # the anchor holds the lexicographically smallest cell, so the
        # key's displacement survives drift normalization
        answer = key_piece_reachable(
            _config(K=[(0, 0)], W=[(-9, -9)]), "K", (-1, 0), SearchBudget()
        )
        assert answer.outcome == "reachable"
        assert answer.trace == ((frozenset({"K"}), NEG_X),)

    def test_zero_displacement_needs_no_moves(self):
        answer = key_piece_reachable(
            tray_with_key(), "K", (0, 0), SearchBudget()
        )
        assert answer.outcome == "reachable"
        assert answer.states_explored == 1
        assert answer.trace == ()

    def test_snug_key_cannot_move_at_all(self):
        answer = key_piece_reachable(_snug_box(), "D", (1, 0), SearchBudget())
        assert answer.outcome == "unreachable-within-budget"
        assert answer.states_explored == 1

    def test_tray_key_reaches_the_far_corner(self):
        config = tray_with_key()
        answer = key_piece_reachable(
            config, "K", (3, 3), SearchBudget(radius=2, max_states=1_000_000)
        )
        assert answer.outcome == "reachable"
        assert len(answer.trace) >= 6
        assert answer.states_explored <= 1_000_000
        final = replay_trace(config, answer.trace)
        assert final.cells_of("K") == frozenset({(4, 4)})

    def test_tray_search_respects_state_cap(self):
        answer = key_piece_reachable(
            tray_with_key(), "K", (3, 3), SearchBudget(radius=2, max_states=50)
        )
        assert answer.outcome == "budget-exhausted"
        assert answer.states_explored == 50

    def test_unknown_key_raises(self):
        with pytest.raises(KeyError):
            key_piece_reachable(_snug_box(), "Q", (1, 0), SearchBudget())

    @pytest.mark.parametrize("bad", [(1,), (1, 2, 3), (0.5, 1), (True, 0), "11"])
    def test_malformed_displacement_raises(self, bad):
        with pytest.raises(ValueError):
            key_piece_reachable(_snug_box(), "D", bad, SearchBudget())


class TestSlideDependency:
    def test_unobstructed_piece_depends_only_on_itself(self):
        config = _config(A=[(0, 0)], B=[(5, 5)])
        assert slide_dependency(config, "A", POS_X) == frozenset({"A"})

    def test_chain_pushed_into_its_neighbours(self):
        config = z_chain(4)
        assert slide_dependency(config, "Z0", POS_X) == frozenset(
            {"Z0", "Z1", "Z2", "Z3"}
        )
        assert slide_dependency(config, "Z3", NEG_X) == frozenset(
            {"Z0", "Z1", "Z2", "Z3"}
        )

    def test_chain_pushed_away_is_free(self):
        config = z_chain(4)
        assert slide_dependency(config, "Z3", POS_X) == frozenset({"Z3"})
        assert slide_dependency(config, "Z0", NEG_X) == frozenset({"Z0"})

    def test_interior_piece_collects_one_side(self):
        config = z_chain(4)
        assert slide_dependency(config, "Z2", NEG_X) == frozenset(
            {"Z0", "Z1", "Z2"}
        )

    def test_unknown_piece_raises(self):
        with pytest.raises(KeyError):
            slide_dependency(z_chain(2), "Q", POS_X)

    @pytest.mark.parametrize("seed", range(8))
    def test_dropping_outsiders_preserves_the_set(self, seed):
        spec = PackingSpec(
            width=9, height=9, max_pieces=6, max_cells=4, target_density=0.6
        )
        config = random_packing(seed, spec)
        for pid in config.piece_ids():
            for direction in (POS_X, NEG_X, POS_Y, NEG_Y):
                dependency = slide_dependency(config, pid, direction)
                assert pid in dependency
                outsiders = sorted(set(config.piece_ids()) - dependency)
                reduced = _without(config, outsiders)
                assert set(reduced.piece_ids()) == set(dependency)
                assert slide_dependency(reduced, pid, direction) == dependency


    @pytest.mark.parametrize("seed", range(8))
    def test_matches_the_quadratic_closure(self, seed):
        spec = PackingSpec(
            width=8, height=8, max_pieces=16, max_cells=5, target_density=0.9
        )
        config = random_packing(seed, spec)
        sizes = []
        for pid in config.piece_ids():
            for direction in DIRECTIONS:
                dependency = slide_dependency(config, pid, direction)
                assert dependency == _quadratic_slide_dependency(
                    config, pid, direction
                )
                sizes.append(len(dependency))
        # the packings are dense enough for long chains of pushes
        assert max(sizes) >= 4


def _quadratic_slide_dependency(config, piece, direction):
    """`slide_dependency` as it was: translate each piece, test every other."""
    cells = config.cell_map()
    dependency = {piece}
    frontier = [piece]
    while frontier:
        pid = frontier.pop()
        stepped = translate_cells(cells[pid], direction.dx, direction.dy)
        for other in sorted(set(config.piece_ids()) - dependency):
            if stepped & cells[other]:
                dependency.add(other)
                frontier.append(other)
    return frozenset(dependency)


class TestReplayTrace:
    def test_empty_trace_returns_equal_board(self):
        config = z_chain(2)
        assert replay_trace(config, ()).cell_map() == config.cell_map()

    def test_unknown_piece_in_trace_raises(self):
        with pytest.raises(KeyError):
            replay_trace(z_chain(1), ((frozenset({"Q"}), POS_X),))

    def test_colliding_move_raises(self):
        with pytest.raises(OverlapError):
            replay_trace(z_chain(2), ((frozenset({"Z1"}), NEG_X),))

    def test_rigid_pair_moves_together(self):
        config = _config(A=[(0, 0)], B=[(1, 0)])
        final = replay_trace(config, ((frozenset({"A", "B"}), POS_Y),))
        assert final.cells_of("A") == frozenset({(0, 1)})
        assert final.cells_of("B") == frozenset({(1, 1)})


#: States the plain BFS may visit before an instance is dropped as too big.
ORACLE_CAP = 2000


def _oracle_search(config, radius, mode, key=None, displacement=None):
    """Plain BFS over whole configurations: (goal reached, states) or None.

    The same drift normalisation and arena as the engine, but no piece
    identity quotient: two boards are one state only when every piece id
    has the same cells. Moves are validated by building the Configuration,
    and escapes by stepping the moving cells across the whole arena. With
    `key` the goal is the key piece shifted by `displacement`; without it,
    a proper move set (or a lone piece) sliding away. None means more than
    ORACLE_CAP states.
    """
    ids = sorted(config.piece_ids())
    min_x, min_y, max_x, max_y = config.bounding_box()
    arena = (min_x - radius, min_y - radius, max_x + radius, max_y + radius)
    reach = max(max_x - min_x, max_y - min_y) + 2 * radius + 1
    origin = min(_occupied(config))
    largest = 1 if mode == SINGLE_PIECE else min(DEFAULT_SUBSET_CAP, len(ids))
    move_sets = [
        combo
        for size in range(1, largest + 1)
        for combo in itertools.combinations(ids, size)
    ]
    if key is not None:
        dx, dy = displacement
        target = frozenset((x + dx, y + dy) for x, y in config.cells_of(key))

    def rigid(cells, combo):
        moving = set().union(*(cells[pid] for pid in combo))
        return moving if len(combo) == 1 or is_connected(moving) else None

    def goal(board):
        cells = board.cell_map()
        if key is not None:
            return cells[key] == target
        for combo in move_sets:
            moving = rigid(cells, combo)
            if moving is None or len(combo) == len(ids) > 1:
                continue
            others = set().union(*(cells[pid] for pid in ids if pid not in combo))
            for direction in DIRECTIONS:
                ddx, ddy = direction.value
                if not any(
                    (x + k * ddx, y + k * ddy) in others
                    for k in range(1, reach + 1)
                    for x, y in moving
                ):
                    return True
        return False

    seen = {frozenset(config.cell_map().items())}
    if goal(config):
        return True, 1
    frontier = deque([config])
    while frontier:
        board = frontier.popleft()
        cells = board.cell_map()
        for combo in move_sets:
            if rigid(cells, combo) is None:
                continue
            for direction in DIRECTIONS:
                ddx, ddy = direction.value
                stepped = {
                    pid: translate_cells(piece, ddx, ddy) if pid in combo else piece
                    for pid, piece in cells.items()
                }
                low_x, low_y = min(cell for piece in stepped.values() for cell in piece)
                shift = (origin[0] - low_x, origin[1] - low_y)
                try:
                    moved = Configuration.from_cell_map(
                        {pid: translate_cells(p, *shift) for pid, p in stepped.items()}
                    )
                except OverlapError:
                    continue
                if not all(
                    arena[0] <= x <= arena[2] and arena[1] <= y <= arena[3]
                    for x, y in _occupied(moved)
                ):
                    continue
                state = frozenset(moved.cell_map().items())
                if state in seen:
                    continue
                seen.add(state)
                if len(seen) > ORACLE_CAP:
                    return None
                if goal(moved):
                    return True, len(seen)
                frontier.append(moved)
    return False, len(seen)


class TestPlainBfsOracle:
    """The engine's quotients never change an answer, only the state count."""

    @pytest.mark.parametrize("mode", [SINGLE_PIECE, SUBSET_MOVE])
    @given(
        seed=st.integers(0, 10_000),
        width=st.integers(1, 4),
        height=st.integers(1, 4),
        max_cells=st.integers(1, 5),
        density=st.sampled_from([0.5, 0.75, 1.0]),
        radius=st.integers(0, 2),
        key_index=st.integers(0, 3),
        displacement=st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
    )
    @settings(max_examples=100, deadline=None)
    def test_engine_agrees_with_plain_bfs(
        self,
        mode,
        seed,
        width,
        height,
        max_cells,
        density,
        radius,
        key_index,
        displacement,
    ):
        spec = PackingSpec(
            width=width,
            height=height,
            max_pieces=4,
            max_cells=max_cells,
            target_density=density,
        )
        config = random_packing(seed, spec)
        assume(len(config) > 0)
        budget = SearchBudget(radius=radius, max_states=1_000_000, mode=mode)
        key = sorted(config.piece_ids())[key_index % len(config)]

        escape = _oracle_search(config, radius, mode)
        reach = _oracle_search(config, radius, mode, key, displacement)
        assume(escape is not None and reach is not None)

        verdict = escape_search(config, budget)
        assert (verdict.outcome == "escaped") == escape[0]
        assert verdict.outcome != "budget-exhausted"
        assert verdict.states_explored <= escape[1]

        answer = key_piece_reachable(config, key, displacement, budget)
        assert (answer.outcome == "reachable") == reach[0]
        assert answer.outcome != "budget-exhausted"
        assert answer.states_explored <= reach[1]

    @pytest.mark.parametrize("mode", [SINGLE_PIECE, SUBSET_MOVE])
    @pytest.mark.parametrize(
        "build, key",
        # the pinwheel's pairs roam too freely in subset mode for a key query
        [(keyhole_pair, "K"), (mutual_u_pair, "B"), (pinwheel, None)],
        ids=["keyhole_pair", "mutual_u_pair", "pinwheel"],
    )
    def test_engine_agrees_on_named_instances(self, build, key, mode):
        config = build()
        budget = SearchBudget(radius=2, max_states=1_000_000, mode=mode)
        escaped, states = _oracle_search(config, 2, mode)
        verdict = escape_search(config, budget)
        assert (verdict.outcome == "escaped") == escaped
        assert verdict.states_explored <= states
        if key is None:
            return
        for displacement in ((1, 0), (0, -2)):
            reached, states = _oracle_search(config, 2, mode, key, displacement)
            answer = key_piece_reachable(config, key, displacement, budget)
            assert (answer.outcome == "reachable") == reached
            assert answer.states_explored <= states


def _state_cells(engine, state):
    """Each piece's cells in the state of anchors, in piece-index order."""
    return [
        {(x + ax, y + ay) for x, y in form}
        for form, (ax, ay) in zip(engine.forms, state)
    ]


def _combination_contact_subsets(cells, cap):
    """Contact subsets as the engine built them before its bitboards.

    Every index combination of 2..cap pieces, in `itertools.combinations`
    order, kept when its pieces' contact graph connects it.
    """
    count = len(cells)
    touching = [set() for _ in range(count)]
    for a, b in itertools.combinations(range(count), 2):
        expanded = {
            (x + dx, y + dy)
            for x, y in cells[a]
            for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1))
        }
        if expanded & cells[b]:
            touching[a].add(b)
            touching[b].add(a)
    subsets = []
    for size in range(2, min(cap, count) + 1):
        for combo in itertools.combinations(range(count), size):
            chosen = set(combo)
            seen = {combo[0]}
            queue = [combo[0]]
            while queue:
                for nxt in touching[queue.pop()] & chosen - seen:
                    seen.add(nxt)
                    queue.append(nxt)
            if len(seen) == size:
                subsets.append(combo)
    return subsets


def _cell_move_sets(cells, mode, cap):
    combos = [(i,) for i in range(len(cells))]
    if mode == SUBSET_MOVE:
        combos.extend(_combination_contact_subsets(cells, cap))
    return combos


def _cell_set_unit_moves(engine, state, mode, cap):
    """`unit_moves` as it was: one cell set per piece, step tested per cell."""
    cells = _state_cells(engine, state)
    occupied = set().union(*cells)
    for combo in _cell_move_sets(cells, mode, cap):
        moving = set().union(*(cells[i] for i in combo))
        others = occupied - moving
        for direction in DIRECTIONS:
            dx, dy = direction.dx, direction.dy
            if any((x + dx, y + dy) in others for x, y in moving):
                continue
            moved = tuple(
                (x + dx, y + dy) if i in combo else (x, y)
                for i, (x, y) in enumerate(state)
            )
            yield frozenset(engine.ids[i] for i in combo), direction, moved


def _overlap(engine, state):
    """Do two pieces share a cell in the state?"""
    cells = _state_cells(engine, state)
    return sum(map(len, cells)) != len(set().union(*cells))


def _pairwise_escape_at(engine, state, mode, cap):
    """`escape_at` as it was: sweep each move set against all other cells."""
    cells = _state_cells(engine, state)
    occupied = set().union(*cells)
    for combo in _cell_move_sets(cells, mode, cap):
        if len(combo) == len(engine.ids) > 1:
            continue
        moving = set().union(*(cells[i] for i in combo))
        for direction in DIRECTIONS:
            if not sweep_collides(moving, occupied - moving, direction):
                return frozenset(engine.ids[i] for i in combo), direction
    return None


def _roomy_engine(config, steps):
    """An engine whose arena holds every state within `steps` unit moves of
    the start. A piece moves at most `steps` cells. Drift moves the board
    at most `steps` cells along x, and along y at most the board's height
    plus `steps`, since the smallest anchor may pass to any piece."""
    _, min_y, _, max_y = config.bounding_box()
    return _Engine(config, radius=max_y - min_y + 1 + 2 * steps)


def _states_near_start(engine, mode, steps, limit=25):
    """Normalised states within `steps` unit moves of the start, BFS order;
    each lies in the engine's arena."""
    seen = [engine.start]
    layer = [engine.start]
    for _ in range(steps):
        following = []
        for state in layer:
            for _, _, moved in engine.unit_moves(state, _cap(mode)):
                moved = _normalize(engine, moved)
                assert engine.in_arena(moved)
                if moved not in seen and len(seen) < limit:
                    seen.append(moved)
                    following.append(moved)
        layer = following
    return seen


#: The largest offset per axis of a drawn anchor, and so the radius of an
#: arena that holds every drawn state.
DRAWN_REACH = 4


def _drawn_state(engine, data):
    """The start anchors, each moved by a drawn offset of at most
    `DRAWN_REACH` per axis.

    Its pieces may overlap, as no BFS state's do.
    """
    reach = st.integers(-DRAWN_REACH, DRAWN_REACH)
    state = []
    for x, y in engine.start:
        dx, dy = data.draw(st.tuples(reach, reach))
        state.append((x + dx, y + dy))
    return tuple(state)


def _escape_pairs(config, mode, steps):
    engine = _roomy_engine(config, steps)
    return [
        (
            engine.escape_at(state, _cap(mode)),
            _pairwise_escape_at(engine, state, mode, DEFAULT_SUBSET_CAP),
        )
        for state in _states_near_start(engine, mode, steps)
    ]


class TestEscapeAtOracle:
    """`escape_at` reads lane extents; the pairwise sweep is the oracle."""

    @pytest.mark.parametrize("mode", [SINGLE_PIECE, SUBSET_MOVE])
    @given(
        seed=st.integers(0, 10_000),
        side=st.integers(2, 6),
        density=st.sampled_from([0.5, 0.8, 1.0]),
    )
    @settings(max_examples=40, deadline=None)
    def test_escape_at_matches_pairwise_sweeps(self, mode, seed, side, density):
        spec = PackingSpec(
            width=side, height=side, max_pieces=8, max_cells=5, target_density=density
        )
        config = random_packing(seed, spec)
        assume(len(config) > 0)
        for got, expected in _escape_pairs(config, mode, steps=2):
            assert got == expected

    @pytest.mark.parametrize("mode", [SINGLE_PIECE, SUBSET_MOVE])
    def test_escape_at_matches_on_named_instances(self, mode):
        results = []
        for build in (case4_group, keyhole_pair, mutual_u_pair, pinwheel, tray_with_key):
            config = build()
            for got, expected in _escape_pairs(config, mode, steps=3):
                assert got == expected
                results.append((got, min(config.piece_ids())))
        # the corpus has locked states, and escapes by a later move set
        assert any(got is None for got, _ in results)
        assert any(got and got[0] != {first} for got, first in results)
        if mode == SUBSET_MOVE:
            assert any(got and len(got[0]) > 1 for got, _ in results)


def _check_against_cell_sets(engine, state, mode, cap):
    """Unit moves and escapes agree with the cell-set oracles."""
    assert engine.in_arena(state)
    assert _named_moves(engine, state, _cap(mode, cap)) == list(
        _cell_set_unit_moves(engine, state, mode, cap)
    )
    assert engine.escape_at(state, _cap(mode, cap)) == _pairwise_escape_at(
        engine, state, mode, cap
    )


def _framed_tray(side, *holes):
    """A side x side block of unit tiles in a square frame, `holes` empty."""
    frame = [
        (x, y)
        for x in range(side + 2)
        for y in range(side + 2)
        if x in (0, side + 1) or y in (0, side + 1)
    ]
    interior = [(x, y) for y in range(1, side + 1) for x in range(1, side + 1)]
    tiles = {
        f"T{i:02d}": [cell]
        for i, cell in enumerate(c for c in interior if c not in holes)
    }
    return _config(F=frame, **tiles)


def _doored_tray():
    """`mutual_u_pair` between two bars in a 4x5 tray whose frame has a door.

    Each U blocks the other's every slide, and the bars pin the frame. So
    no single piece escapes: the pair leaves through the door in the right
    wall, and the frame with both bars leaves the other way.
    """
    frame = [
        (x, y)
        for x in range(6)
        for y in range(7)
        if (x in (0, 5) or y in (0, 6)) and (x, y) not in ((5, 2), (5, 3), (5, 4))
    ]
    pair = {
        pid: translate_cells(cells, 1, 2)
        for pid, cells in mutual_u_pair().cell_map().items()
    }
    bars = {"R": [(x, 1) for x in range(1, 5)], "S": [(x, 5) for x in range(1, 5)]}
    return _config(F=frame, **bars, **pair)


def _hooked_pairs_tray():
    """Two hooked pairs that leave together through a door, though no
    contact-connected set smaller than all four can leave.

    Along +x, A's rays meet only C and C's only A, though the two never
    touch, and B and D likewise: so {A, C} and {B, D} are ray closures that
    are not connected. B lies on A and C, and D on C, so the four are
    connected. The frame's door spans their rows, and the bars P1, P2
    (below) and Q1, Q2 (above) hold the frame, so every other ray closure
    has five pieces or more.
    """
    frame = [
        (x, y)
        for x in range(-4, 9)
        for y in range(-2, 9)
        if (x in (-4, 8) or y in (-2, 8)) and not (x == 8 and 0 <= y <= 6)
    ]
    hook = [(3, 2), (3, 1), (3, 0), (2, 0), (1, 0), (0, 0), (-1, 0), (-1, 1), (-1, 2)]
    return _config(
        A=[(0, 3), (1, 3), (1, 2)],
        C=[(x, 3) for x in range(3, 7)] + hook,
        B=[(x, 4) for x in range(5)],
        D=[(6, 4), (6, 5)] + [(x, 6) for x in range(-2, 7)] + [(-2, 5), (-2, 4)],
        F=frame,
        P1=[(x, -1) for x in range(-3, 2)],
        P2=[(x, -1) for x in range(2, 8)],
        Q1=[(x, 7) for x in range(-3, 2)],
        Q2=[(x, 7) for x in range(2, 8)],
    )


def _tray_corpus():
    """(tray, whether its frame is closed): framed 3x3-5x5 trays of unit
    tiles with one, two or six holes, and the doored tray."""
    closed = [
        _framed_tray(3, (3, 3)),
        _framed_tray(3, (1, 1), (3, 3)),
        # three tiles and the frame: at cap 4 every closure is the whole board
        _framed_tray(3, (2, 1), (3, 1), (1, 2), (3, 2), (1, 3), (3, 3)),
        _framed_tray(4, (4, 4)),
        _framed_tray(5, (5, 5)),
    ]
    return [(tray, True) for tray in closed] + [(_doored_tray(), False)]


def _bfs_states(engine, mode, cap, limit=None):
    """Every state the BFS reaches inside the arena, in BFS order, or the
    first `limit` of them."""
    seen = {engine.state_key(engine.start)}
    states = [engine.start]
    for state in states:
        for _, _, moved in engine.unit_moves(state, _cap(mode, cap)):
            moved = _normalize(engine, moved)
            key = engine.state_key(moved)
            full = limit is not None and len(states) >= limit
            if engine.in_arena(moved) and key not in seen and not full:
                seen.add(key)
                states.append(moved)
    return states


def _named_instances():
    """The named instances whose states leave a radius-0 arena."""
    return [case4_group(), keyhole_pair(), mutual_u_pair(), pinwheel(), z_chain(4)]


def _edge_states(engine, radius):
    """States with pieces on the arena's edges: the start shifted by the
    radius along each axis, and each piece alone moved to each edge of its
    anchor rectangle, the others left at the start. The latter may overlap."""
    start = engine.start
    states = [
        tuple((x + dx, y + dy) for x, y in start)
        for dx, dy in ((-radius, 0), (radius, 0), (0, -radius), (0, radius))
    ]
    for i, ((x, y), (x0, y0, x1, y1)) in enumerate(zip(start, engine.anchor_bounds)):
        for anchor in ((x0, y), (x1, y), (x, y0), (x, y1)):
            states.append(start[:i] + (anchor,) + start[i + 1:])
    return states


def _arena_edges(engine, state):
    """The arena edges that some piece of the state lies on."""
    edges = set()
    for (x, y), (x0, y0, x1, y1) in zip(state, engine.anchor_bounds):
        sides = {"left": x == x0, "right": x == x1, "bottom": y == y0, "top": y == y1}
        edges.update(edge for edge, on in sides.items() if on)
    return edges


class TestBitboardOracle:
    """The bitboard engine against the cell-set code it replaced.

    The engine lays out states inside its arena only, so each engine is
    built at a radius whose arena holds every state it is given. States
    with pieces on the arena's edges would show a wrong stride in the pad
    column, and a wrong offset in the bottom and top rows.
    """

    @pytest.mark.parametrize("mode", [SINGLE_PIECE, SUBSET_MOVE])
    @given(
        seed=st.integers(0, 10_000),
        side=st.integers(2, 6),
        density=st.sampled_from([0.5, 0.8, 1.0]),
        cap=st.integers(1, 4),
    )
    @settings(max_examples=40, deadline=None)
    def test_near_start_states_match(self, mode, seed, side, density, cap):
        spec = PackingSpec(
            width=side, height=side, max_pieces=8, max_cells=5, target_density=density
        )
        config = random_packing(seed, spec)
        assume(len(config) > 0)
        engine = _roomy_engine(config, steps=2)
        for state in _states_near_start(engine, mode, steps=2):
            _check_against_cell_sets(engine, state, mode, cap)

    @pytest.mark.parametrize("mode", [SINGLE_PIECE, SUBSET_MOVE])
    @given(
        seed=st.integers(0, 10_000),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_unit_moves_match_on_any_offsets(self, mode, seed, data):
        # every cap refuses overlapping pieces, which no BFS state has
        spec = PackingSpec(width=5, height=5, max_pieces=6, max_cells=4)
        config = random_packing(seed, spec)
        assume(len(config) > 0)
        engine = _Engine(config, radius=DRAWN_REACH)
        state = _drawn_state(engine, data)
        assert engine.in_arena(state)
        cap = data.draw(st.integers(1, 4))
        if _overlap(engine, state):
            with pytest.raises(ValueError, match="overlap"):
                list(engine.unit_moves(state, _cap(mode, cap)))
            return
        assert _named_moves(engine, state, _cap(mode, cap)) == list(
            _cell_set_unit_moves(engine, state, mode, cap)
        )

    @pytest.mark.parametrize("mode", [SINGLE_PIECE, SUBSET_MOVE])
    @given(
        seed=st.integers(0, 10_000),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_escape_at_matches_on_any_offsets(self, mode, seed, data):
        # every cap refuses overlapping pieces: ray closures would count a
        # piece under a moving one as a blocker
        spec = PackingSpec(width=5, height=5, max_pieces=6, max_cells=4)
        config = random_packing(seed, spec)
        assume(len(config) > 0)
        engine = _Engine(config, radius=DRAWN_REACH)
        state = _drawn_state(engine, data)
        assert engine.in_arena(state)
        cap = data.draw(st.integers(1, 4))
        if _overlap(engine, state):
            with pytest.raises(ValueError, match="overlap"):
                engine.escape_at(state, _cap(mode, cap))
            return
        assert engine.escape_at(state, _cap(mode, cap)) == _pairwise_escape_at(
            engine, state, mode, cap
        )

    def test_subset_mode_refuses_overlapping_offsets(self):
        # X moved onto B's cell in A's +x lane (never a BFS state) blocks
        # neither, but it would sit in A's ray closure and at cap 2 rule
        # out the pair's escape; the cell-set oracle lets the pair leave
        config = _config(**_doored_tray().cell_map(), X=[(4, 2)])
        engine = _Engine(config, radius=0)
        state = tuple(
            (x - 2, y + 1) if pid == "X" else (x, y)
            for pid, (x, y) in zip(engine.ids, engine.start)
        )
        assert engine.in_arena(state)
        expected = (frozenset({"A", "B"}), POS_X)
        assert _pairwise_escape_at(engine, state, SUBSET_MOVE, 2) == expected
        with pytest.raises(ValueError, match="overlap"):
            engine.escape_at(state, 2)
        with pytest.raises(ValueError, match="overlap"):
            list(engine.unit_moves(state, 2))
        # so does a cap of one, which tests each piece alone
        with pytest.raises(ValueError, match="overlap"):
            engine.escape_at(state, 1)

    @pytest.mark.parametrize("cap", [1, 2, DEFAULT_SUBSET_CAP])
    def test_tray_with_key_matches(self, cap):
        # the frame touches every tile, so the contact graph is dense
        engine = _roomy_engine(tray_with_key(), steps=2)
        states = _states_near_start(engine, SUBSET_MOVE, steps=2)
        assert len(states) > 1
        sizes = set()
        for state in states:
            _check_against_cell_sets(engine, state, SUBSET_MOVE, cap)
            cells = _state_cells(engine, state)
            sizes.update(map(len, _combination_contact_subsets(cells, cap)))
        assert sizes == set(range(2, cap + 1))

    @pytest.mark.parametrize("cap", [1, 2, 3, DEFAULT_SUBSET_CAP])
    def test_trays_match_in_every_state(self, cap):
        # subset mode's move sets are unions of one-step closures, and its
        # escapes unions of ray closures
        locked = escapes = 0
        sizes = set()
        for config, closed in _tray_corpus():
            engine = _Engine(config, radius=0)
            for state in _bfs_states(engine, SUBSET_MOVE, cap):
                _check_against_cell_sets(engine, state, SUBSET_MOVE, cap)
                escape = engine.escape_at(state, cap)
                # every ray meets a closed frame, and the frame's meet every tile
                assert not (closed and escape)
                locked += escape is None
                escapes += escape is not None and len(escape[0]) > 1
                sizes.update(
                    len(ids) for ids, _, _ in engine.unit_moves(state, cap)
                )
        assert locked > 0
        assert (escapes > 0) == (cap > 1)
        assert sizes == set(range(1, cap + 1))

    def test_escape_through_ray_closures_that_are_not_connected(self):
        config = _hooked_pairs_tray()
        cells = config.cell_map()
        occupied = _occupied(config)
        for pair in ("AC", "BD"):
            moving = set().union(*(cells[pid] for pid in pair))
            assert not is_connected(moving)
            assert not sweep_collides(moving, occupied - moving, POS_X)
        engine = _roomy_engine(config, steps=1)
        for state in _states_near_start(engine, SUBSET_MOVE, steps=1):
            for cap in range(1, 5):
                _check_against_cell_sets(engine, state, SUBSET_MOVE, cap)
        assert engine.escape_at(engine.start, 3) is None
        assert engine.escape_at(engine.start, 4) == (
            frozenset("ABCD"),
            POS_X,
        )

    @pytest.mark.parametrize("mode", [SINGLE_PIECE, SUBSET_MOVE])
    def test_pieces_on_the_arena_edges_match(self, mode):
        radius = 1
        edges = set()
        for config in _named_instances() + [_framed_tray(3, (3, 3)), _doored_tray()]:
            engine = _Engine(config, radius)
            for state in _edge_states(engine, radius):
                if _overlap(engine, state):
                    with pytest.raises(ValueError, match="overlap"):
                        list(engine.unit_moves(state, _cap(mode)))
                    continue
                _check_against_cell_sets(engine, state, mode, DEFAULT_SUBSET_CAP)
                edges.update(_arena_edges(engine, state))
        assert edges == {"left", "right", "bottom", "top"}

    @pytest.mark.parametrize("mode", [SINGLE_PIECE, SUBSET_MOVE])
    def test_search_lays_out_only_states_in_the_arena(self, mode, monkeypatch):
        laid_out = clipped = 0

        class Watched(_Engine):
            def unit_moves(self, state, cap, carried=None, made=None):
                nonlocal laid_out
                assert self.in_arena(state) and carried is not None
                laid_out += 1
                return super().unit_moves(state, cap, carried, made)

            def child(self, key, parent, combo, moved):
                nonlocal clipped
                found = super().child(key, parent, combo, moved)
                clipped += found[1] is None
                return found

        def goal(engine, state, cap):
            # lays the state out, but never stops the search
            assert engine.in_arena(state)
            engine.escape_at(state, cap)

        monkeypatch.setattr(search, "_Engine", Watched)
        boards = _named_instances() + [tray for tray, _ in _tray_corpus()]
        for config in boards:
            for radius in (0, 1):
                budget = SearchBudget(radius, max_states=500, mode=mode)
                search._explore(config, budget, goal)
        # children off the arena were made, and were never laid out
        assert laid_out > 0 and clipped > 0


def _per_piece_unit_moves(engine, state):
    """Single-piece `unit_moves` as it was before class boards: each piece's
    mask stepped along every direction against the others' bits, by
    (piece index, direction)."""
    masks = engine._layout(state)
    stride = engine.geometry[0]
    occupied = engine._occupied(masks)
    for i, moving in enumerate(masks):
        others = occupied ^ moving
        steps = (moving << 1, moving >> 1, moving << stride, moving >> stride)
        for direction, step in zip(DIRECTIONS, steps):
            if not step & others:
                yield (i,), direction, search._shifted(state, (i,), direction)


def _has_gapped_lane(shape):
    """Does some row or column of the shape have a gap, as a U's does?"""
    for axis in (0, 1):
        lanes = {}
        for cell in shape.cells:
            lanes.setdefault(cell[1 - axis], []).append(cell[axis])
        if any(max(lane) - min(lane) >= len(lane) for lane in lanes.values()):
            return True
    return False


def _crowd_moves(engine, states):
    """How many single-piece moves of the states move a piece of a class
    with two members or more, which the class boards generate."""
    return sum(
        combo[0] in engine.board_of
        for state in states
        for combo, _, _ in engine.unit_moves(state, 1)
    )


class TestClassMoves:
    """Single-piece moves from class boards against the per-piece loop,
    and the boards the BFS carries against boards rebuilt from the state.
    Subset mode carries contact relations instead (`TestSubsetRelations`)."""

    def _check_every_state(self, engine, limit=None):
        states = _bfs_states(engine, SINGLE_PIECE, 1, limit)
        for state in states:
            assert list(engine.unit_moves(state, 1)) == list(
                _per_piece_unit_moves(engine, state)
            )
        return states

    def test_trays_and_named_instances_match(self):
        crowded = 0
        boards = [tray for tray, _ in _tray_corpus()] + _named_instances()
        for config in boards:
            for key in (None, max(config.piece_ids())):
                for radius in (0, 1):
                    engine = _Engine(config, radius, key_piece=key)
                    states = self._check_every_state(engine)
                    crowded += _crowd_moves(engine, states)
        assert crowded > 0

    @given(
        seed=st.integers(0, 10_000),
        side=st.integers(3, 6),
        framed=st.booleans(),
    )
    @settings(max_examples=30, deadline=None)
    def test_gapped_forms_match(self, seed, side, framed):
        # U pentominoes in their four orientations, so congruent ones share
        # a class whose front cells include the gap, in a frame or loose
        spec = PackingSpec(width=side, height=side, max_pieces=8, max_cells=5)
        pieces = random_packing(seed, spec, shape_filter=_has_gapped_lane).cell_map()
        assume(pieces)
        if framed:
            pieces["F"] = [
                (x, y)
                for x in range(-1, side + 1)
                for y in range(-1, side + 1)
                if x in (-1, side) or y in (-1, side)
            ]
        engine = _Engine(_config(**pieces), radius=1)
        self._check_every_state(engine, limit=150)

    def test_carried_boards_match_rebuilt_boards(self, monkeypatch):
        expanded = carried = drifted = 0

        class Watched(_Engine):
            def unit_moves(self, state, cap, carried=None, made=None):
                nonlocal expanded
                assert carried == self.boards(state)
                expanded += 1
                return super().unit_moves(state, cap, carried, made)

            def carry(self, boards, parent, moved, child, combo):
                nonlocal carried, drifted
                found = super().carry(boards, parent, moved, child, combo)
                assert found == self.boards(child)
                carried += 1
                drifted += moved != child
                return found

        monkeypatch.setattr(search, "_Engine", Watched)
        trio = _config(A=[(0, 0), (1, 0)], B=[(3, 1), (3, 2)], C=[(1, 3)])
        boards = _named_instances() + [tray for tray, _ in _tray_corpus()] + [trio]
        for config in boards:
            for radius in (0, 2):
                budget = SearchBudget(radius, max_states=300)
                search._explore(config, budget, lambda engine, state, cap: None)
        assert expanded > 0 and carried > 0 and drifted > 0


def _contacts(masks, stride):
    """(touching, hits) of the pieces' masks, every pair tested once: the
    relation the search carries, rebuilt from scratch."""
    count = len(masks)
    touching = [0] * count
    hits = [[0] * count for _ in DIRECTIONS]
    for p, mask in enumerate(masks):
        steps = (mask << 1, mask >> 1, mask << stride, mask >> stride)
        for q in range(p + 1, count):
            other = masks[q]
            for k, step in enumerate(steps):
                if step & other:
                    touching[p] |= 1 << q
                    touching[q] |= 1 << p
                    hits[k][p] |= 1 << q
                    # directions pair up as k, k ^ 1
                    hits[k ^ 1][q] |= 1 << p
    return touching, hits


def _ray_hits(masks, occupied, direction, geometry):
    """Piece p -> the bit set of pieces that p's full ray fill along
    `direction` meets: every row the lazy ray closures may build."""
    hits = []
    for mask in masks:
        fill = search._ray_fill(mask, direction, geometry) & (occupied ^ mask)
        hits.append(sum(1 << q for q, other in enumerate(masks) if fill & other))
    return hits


def _plain_closures(successors, limit):
    """Each piece's closure under a relation, grown from it alone, or 0
    where it passes `limit` pieces."""
    closures = []
    for p in range(len(successors)):
        closed, todo = {p}, [p]
        while todo:
            for q in search._piece_indices(successors[todo.pop()]):
                if q not in closed:
                    closed.add(q)
                    todo.append(q)
        closures.append(sum(1 << q for q in closed) if len(closed) <= limit else 0)
    return closures


class TestSubsetRelations:
    """Subset mode's carried contact relations against relations rebuilt
    from the state, and its closures, which skip pieces that reach a
    closure already too large, against closures grown piece by piece."""

    def test_carried_relations_match_rebuilt_relations(self, monkeypatch):
        expanded = related = drifted = 0

        class Watched(_Engine):
            def rebuilt(self, state):
                return _contacts(self._layout(state), self.geometry[0])

            def unit_moves(self, state, cap, carried=None, made=None):
                nonlocal expanded
                assert carried == self.rebuilt(state)
                expanded += 1
                return super().unit_moves(state, cap, carried, made)

            def relate(self, relation, parent, moved, child, combo):
                nonlocal related, drifted
                found = super().relate(relation, parent, moved, child, combo)
                assert found == self.rebuilt(child)
                related += 1
                drifted += moved != child
                return found

        monkeypatch.setattr(search, "_Engine", Watched)
        boards = _named_instances() + [tray for tray, _ in _tray_corpus()]
        for config in boards:
            for radius in (0, 1):
                budget = SearchBudget(radius, max_states=300, mode=SUBSET_MOVE)
                search._explore(config, budget, lambda engine, state, cap: None)
        assert expanded > 0 and related > 0 and drifted > 0

    def test_start_relation_refuses_overlaps(self):
        config = _config(A=[(0, 0), (1, 0)], B=[(3, 0)])
        engine = _Engine(config, radius=2)
        with pytest.raises(ValueError, match="overlap"):
            engine.relation(((0, 0), (1, 0)))
        assert engine.relation(engine.start) == ([0, 0], [[0, 0] for _ in DIRECTIONS])

    @given(
        seed=st.integers(0, 10_000),
        side=st.integers(2, 6),
        density=st.sampled_from([0.5, 0.8, 1.0]),
        framed=st.booleans(),
        limit=st.integers(2, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_closures_match_plain_closures(self, seed, side, density, framed, limit):
        spec = PackingSpec(
            width=side, height=side, max_pieces=8, max_cells=5, target_density=density
        )
        pieces = random_packing(seed, spec).cell_map()
        assume(pieces)
        if framed:
            # a frame's closure passes every limit first, and marks every
            # piece inside it too large
            pieces["F"] = [
                (x, y)
                for x in range(-1, side + 1)
                for y in range(-1, side + 1)
                if x in (-1, side) or y in (-1, side)
            ]
        engine = _Engine(_config(**pieces), radius=1)
        masks = engine._layout(engine.start)
        occupied = engine._occupied(masks)
        _, steps = _contacts(masks, engine.geometry[0])
        for k, direction in enumerate(DIRECTIONS):
            expected = _plain_closures(steps[k], limit)
            assert search._closures(steps[k], steps[k ^ 1], len(masks), limit) == expected
            rays = _ray_hits(masks, occupied, direction, engine.geometry)
            expected = _plain_closures(rays, limit)
            got = search._ray_closures(masks, occupied, direction, engine.geometry, limit)
            assert got == expected

    def test_search_skips_the_move_back_to_the_parent(self, monkeypatch):
        # the reverse of the move that made a state is always legal, and
        # every state but the start is expanded once
        moves = children = expanded = 0

        class Watched(_Engine):
            def unit_moves(self, state, cap, carried=None, made=None):
                nonlocal moves, expanded
                moves += len(list(super().unit_moves(state, cap, carried)))
                expanded += 1
                return super().unit_moves(state, cap, carried, made)

            def child(self, key, parent, combo, moved):
                nonlocal children
                children += 1
                return super().child(key, parent, combo, moved)

        monkeypatch.setattr(search, "_Engine", Watched)
        for mode in (SINGLE_PIECE, SUBSET_MOVE):
            budget = SearchBudget(radius=0, mode=mode)
            status = search._explore(_framed_tray(4, (4, 4)), budget, lambda *_: None)[0]
            assert status == "exhausted"
        assert children == moves - (expanded - 2)

    @pytest.mark.parametrize("mode", [SINGLE_PIECE, SUBSET_MOVE])
    def test_unit_moves_drop_only_the_reverse_of_the_move_made(self, mode):
        # every BFS state of the trays, given the move that first reached it
        cap, dropped = _cap(mode), 0
        for config, _ in _tray_corpus():
            engine = _Engine(config, radius=0)
            made_by = {engine.state_key(engine.start): None}
            states = [engine.start]
            for state in states:
                made = made_by[engine.state_key(state)]
                every = [(combo, d) for combo, d, _ in engine.unit_moves(state, cap)]
                kept = [(combo, d) for combo, d, _ in engine.unit_moves(state, cap, None, made)]
                if made is not None:
                    every.remove((made[0], made[1].opposite))
                    dropped += 1
                assert kept == every
                for combo, direction, moved in engine.unit_moves(state, cap):
                    moved = _normalize(engine, moved)
                    key = engine.state_key(moved)
                    if engine.in_arena(moved) and key not in made_by:
                        made_by[key] = (combo, direction)
                        states.append(moved)
        assert dropped > 100


def _oracle_key(engine, state):
    """The state key as the sorted (shape class, anchor) pairs."""
    return tuple(sorted(zip(engine.classes, state)))


def _check_children(engine, mode, limit=300):
    """Walk the BFS on the full arena test and key, checking `child` on
    every generated child against them and the keys against the oracle."""
    start_key = engine.state_key(engine.start)
    states = {start_key: engine.start}
    oracle = {start_key: _oracle_key(engine, engine.start)}
    queue = [start_key]
    for key in queue:
        parent = states[key]
        for combo, _, moved in engine.unit_moves(parent, _cap(mode)):
            normalized = _normalize(engine, moved)
            child, child_key = engine.child(key, parent, combo, moved)
            assert child == normalized
            assert (child_key is not None) == engine.in_arena(normalized)
            if child_key is None:
                continue
            assert child_key == engine.state_key(normalized)
            expected = _oracle_key(engine, normalized)
            assert oracle.setdefault(child_key, expected) == expected
            if child_key not in states and len(states) < limit:
                states[child_key] = normalized
                queue.append(child_key)
    # equal keys have equal oracle keys, and distinct keys distinct ones
    assert len(set(oracle.values())) == len(oracle)
    return len(states)


class TestStateKey:
    """A child's key and arena test, in O(moved pieces) when it did not
    drift, against the full test and the (class, anchor) pairs."""

    @pytest.mark.parametrize("mode", [SINGLE_PIECE, SUBSET_MOVE])
    @given(
        seed=st.integers(0, 10_000),
        side=st.integers(2, 6),
        density=st.sampled_from([0.5, 0.8, 1.0]),
        radius=st.integers(0, 2),
        data=st.data(),
    )
    @settings(max_examples=30, deadline=None)
    def test_children_match_the_full_key(self, mode, seed, side, density, radius, data):
        spec = PackingSpec(
            width=side, height=side, max_pieces=8, max_cells=5, target_density=density
        )
        config = random_packing(seed, spec)
        assume(len(config) > 0)
        key = data.draw(st.sampled_from([None, *sorted(config.piece_ids())]))
        _check_children(_Engine(config, radius, key_piece=key), mode, limit=100)

    @pytest.mark.parametrize("mode", [SINGLE_PIECE, SUBSET_MOVE])
    def test_tray_children_match_the_full_key(self, mode):
        # a key tile trades places with tiles of its shape but not its class
        for config, closed in _tray_corpus():
            for key in (None, max(config.piece_ids())):
                for radius in (0, 1):
                    engine = _Engine(config, radius, key_piece=key)
                    reached = _check_children(engine, mode)
                    assert reached > 1 or not closed

    def test_child_reaches_both_arena_paths(self):
        # at radius 0 the arena is the row x = 0..2, and A holds the
        # smallest anchor
        engine = _Engine(_config(A=[(0, 0)], B=[(2, 0)]), radius=0)
        start = engine.start
        key = engine.state_key(start)
        inward = ((0, 0), (1, 0))
        inward_key = engine.state_key(inward)
        # A steps -x, so the board drifts +x and B leaves the arena
        assert engine.child(key, start, (0,), ((-1, 0), (2, 0))) == (
            ((0, 0), (3, 0)),
            None,
        )
        # B steps +x: no drift, and B leaves the arena
        assert engine.child(key, start, (1,), ((0, 0), (3, 0))) == (
            ((0, 0), (3, 0)),
            None,
        )
        # A's step +x drifts the board back, B's step -x does not drift
        assert engine.child(key, start, (0,), ((1, 0), (2, 0))) == (inward, inward_key)
        assert engine.child(key, start, (1,), inward) == (inward, inward_key)

    def test_child_drifts_when_the_smallest_anchor_moves_up(self):
        # A holds the smallest anchor and steps +y; B lies further along x,
        # so A keeps the smallest anchor and the board drifts down by one
        engine = _Engine(_config(A=[(0, 0)], B=[(1, 0)]), radius=1)
        start = engine.start
        key = engine.state_key(start)
        drifted = ((0, 0), (1, -1))
        assert engine.child(key, start, (0,), ((0, 1), (1, 0))) == (
            drifted,
            engine.state_key(drifted),
        )
        # A steps +x past B's column: B now holds the smallest anchor
        engine = _Engine(_config(A=[(0, 0)], B=[(0, 1)]), radius=1)
        start = engine.start
        key = engine.state_key(start)
        swapped = ((1, -1), (0, 0))
        assert engine.child(key, start, (0,), ((1, 0), (0, 1))) == (
            swapped,
            engine.state_key(swapped),
        )


class TestStateCounts:
    """Exact counts that pin the BFS order; they repeat on every run."""

    def test_framed_8x8_tray_is_locked_after_64_states(self):
        verdict = escape_search(_framed_tray(8, (8, 8)), SearchBudget())
        assert verdict.outcome == "locked-within-budget"
        assert verdict.states_explored == 64

    def test_subset_tray_key_search_reaches_after_226_states(self):
        config = tray_with_key()
        budget = SearchBudget(radius=2, max_states=300, mode=SUBSET_MOVE)
        answer = key_piece_reachable(config, "K", (3, 3), budget)
        assert answer.outcome == "reachable"
        assert answer.states_explored == 226
        assert replay_trace(config, answer.trace).cells_of("K") == frozenset({(4, 4)})

    def test_wide_key_search_is_unreachable_after_1260_states(self):
        # the target lies off T00's arena rectangle, so the search visits
        # every state: 36 hole cells times 35 cells for T00
        answer = key_piece_reachable(
            _framed_tray(6, (6, 6)), "T00", (-20, 0), SearchBudget(radius=3)
        )
        assert answer.outcome == "unreachable-within-budget"
        assert answer.states_explored == 1260

    def test_framed_6x6_subset_tray_is_locked_after_36_states(self):
        budget = SearchBudget(radius=2, mode=SUBSET_MOVE)
        verdict = escape_search(_framed_tray(6, (6, 6)), budget)
        assert verdict.outcome == "locked-within-budget"
        assert verdict.states_explored == 36

    def test_subset_tray_with_key_is_locked_after_16_states(self):
        budget = SearchBudget(radius=1, max_states=200, mode=SUBSET_MOVE)
        verdict = escape_search(tray_with_key(), budget)
        assert verdict.outcome == "locked-within-budget"
        assert verdict.states_explored == 16

    @pytest.mark.parametrize("mode", [SINGLE_PIECE, SUBSET_MOVE])
    def test_loose_trio_in_the_largest_arena(self, mode):
        # a 4x4 board at radius 498 spans 1000 x 1000 cells, the most
        # MAX_ARENA_CELLS allows, so every mask is laid out a half million
        # bits up and a ray fill runs a thousand cells
        config = _config(A=[(0, 0), (1, 0)], B=[(3, 1), (3, 2)], C=[(1, 3)])
        budget = SearchBudget(radius=498, max_states=200, mode=mode)
        verdict = escape_search(config, budget)
        assert verdict.outcome == "escaped"
        assert verdict.states_explored == 1
        assert (verdict.piece_ids, verdict.direction) == (frozenset("A"), POS_X)
        # A's steps down and to the left drift C up and to the right
        answer = key_piece_reachable(config, "C", (1, 1), budget)
        assert answer.outcome == "reachable"
        assert answer.states_explored == 25
        assert answer.trace == ((frozenset("A"), NEG_X), (frozenset("A"), NEG_Y))
        answer = key_piece_reachable(config, "C", (40, 0), budget)
        assert answer.outcome == "budget-exhausted"
        assert answer.states_explored == 200
        with pytest.raises(ValueError, match="exceeds the cap"):
            escape_search(config, SearchBudget(radius=499))


class TestPlannerAgreement:
    @pytest.mark.parametrize("seed", range(20))
    def test_separable_packings_never_report_locked(self, seed):
        spec = PackingSpec(
            width=8, height=8, max_pieces=4, max_cells=4, target_density=1.0
        )
        config = random_packing(seed, spec)
        if len(config) == 0:
            pytest.skip("empty packing for this seed")
        plan = separate_le5(config)
        assert simulate_plan(config, plan).valid
        verdict = escape_search(config, SearchBudget(radius=8))
        assert verdict.outcome == "escaped"
