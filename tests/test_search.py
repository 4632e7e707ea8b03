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
    legal_moves,
    replay_trace,
    slide_dependency,
)
from polylock.grid import is_connected, occupied_cells, sweep_collides, translate_cells
from polylock.instances import (
    case4_group,
    keyhole_pair,
    mutual_u_pair,
    pinwheel,
    tray_with_key,
    z_chain,
)
from polylock.packing import PackingSpec, random_packing
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
            {"subset_cap": 0},
            {"max_states": True},
            {"subset_cap": True},
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
        moves = legal_moves(_config(A=[(0, 0), (1, 0)]))
        assert moves == [
            (frozenset({"A"}), POS_X),
            (frozenset({"A"}), NEG_X),
            (frozenset({"A"}), POS_Y),
            (frozenset({"A"}), NEG_Y),
        ]

    def test_snug_box_has_no_moves(self):
        assert legal_moves(_snug_box()) == []

    def test_pinwheel_has_no_single_piece_moves(self):
        assert legal_moves(pinwheel()) == []

    def test_pinwheel_pairs_move_in_subset_mode(self):
        moves = legal_moves(pinwheel(), mode=SUBSET_MOVE)
        assert (frozenset({"A", "B"}), NEG_Y) in moves
        assert all(len(ids) > 1 for ids, _ in moves)

    def test_keyhole_move_order_is_deterministic(self):
        moves = legal_moves(keyhole_pair())
        assert moves == [
            (frozenset({"K"}), POS_X),
            (frozenset({"R"}), NEG_X),
        ]

    def test_blocked_neighbour_frees_up_after_a_step(self):
        config = z_chain(2)
        assert (frozenset({"Z1"}), NEG_X) not in legal_moves(config)
        stepped = replay_trace(config, ((frozenset({"Z0"}), NEG_X),))
        assert (frozenset({"Z1"}), NEG_X) in legal_moves(stepped)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mode": "rigid"},
            {"subset_cap": 0},
            {"subset_cap": -1},
            {"subset_cap": True},
            {"subset_cap": 2.5},
            {"subset_cap": "x"},
            {"mode": SUBSET_MOVE, "subset_cap": 0},
        ],
        ids=lambda kwargs: "-".join(f"{k}={v}" for k, v in kwargs.items()),
    )
    def test_rejects_bad_arguments(self, kwargs):
        with pytest.raises(ValueError):
            legal_moves(_config(A=[(0, 0)]), **kwargs)


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
    origin = min(occupied_cells(config))
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
                    for x, y in occupied_cells(moved)
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


def _states_near_start(engine, mode, steps, limit=25):
    """Normalised states within `steps` unit moves of the start, BFS order."""
    seen = [engine.start]
    layer = [engine.start]
    for _ in range(steps):
        following = []
        for state in layer:
            for _, _, moved in engine.unit_moves(state, mode, DEFAULT_SUBSET_CAP):
                moved = engine.normalize(moved)
                if moved not in seen and len(seen) < limit:
                    seen.append(moved)
                    following.append(moved)
        layer = following
    return seen


def _drawn_state(engine, data):
    """The start anchors, each moved by a drawn offset of at most 4 per axis.

    Its pieces may overlap, as no BFS state's do.
    """
    state = []
    for x, y in engine.start:
        dx, dy = data.draw(st.tuples(st.integers(-4, 4), st.integers(-4, 4)))
        state.append((x + dx, y + dy))
    return tuple(state)


def _escape_pairs(config, mode, steps):
    engine = _Engine(config, radius=2)
    return [
        (
            engine.escape_at(state, mode, DEFAULT_SUBSET_CAP),
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
    assert list(engine.unit_moves(state, mode, cap)) == list(
        _cell_set_unit_moves(engine, state, mode, cap)
    )
    assert engine.escape_at(state, mode, cap) == _pairwise_escape_at(
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


def _bfs_states(engine, mode, cap):
    """Every state the BFS reaches inside the arena, in BFS order."""
    seen = {engine.state_key(engine.start)}
    states = [engine.start]
    for state in states:
        for _, _, moved in engine.unit_moves(state, mode, cap):
            moved = engine.normalize(moved)
            key = engine.state_key(moved)
            if engine.in_arena(moved) and key not in seen:
                seen.add(key)
                states.append(moved)
    return states


class TestBitboardOracle:
    """The bitboard engine against the cell-set code it replaced.

    The engines are built at radius 0, so most states a step or two from
    the start lie outside the arena; the per-state layout must read them
    exactly all the same.
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
        engine = _Engine(config, radius=0)
        for state in _states_near_start(engine, mode, steps=2):
            _check_against_cell_sets(engine, state, mode, cap)

    @pytest.mark.parametrize("mode", [SINGLE_PIECE, SUBSET_MOVE])
    @given(
        seed=st.integers(0, 10_000),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_unit_moves_match_on_any_offsets(self, mode, seed, data):
        # single-piece mode reads `occupied - moving` on overlapping pieces
        # too; subset mode refuses them
        spec = PackingSpec(width=5, height=5, max_pieces=6, max_cells=4)
        config = random_packing(seed, spec)
        assume(len(config) > 0)
        engine = _Engine(config, radius=0)
        state = _drawn_state(engine, data)
        cap = data.draw(st.integers(1, 4))
        if mode == SUBSET_MOVE and _overlap(engine, state):
            with pytest.raises(ValueError, match="overlap"):
                list(engine.unit_moves(state, mode, cap))
            return
        assert list(engine.unit_moves(state, mode, cap)) == list(
            _cell_set_unit_moves(engine, state, mode, cap)
        )

    @pytest.mark.parametrize("mode", [SINGLE_PIECE, SUBSET_MOVE])
    @given(
        seed=st.integers(0, 10_000),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_escape_at_matches_on_any_offsets(self, mode, seed, data):
        # subset mode refuses overlapping pieces: its ray closures would
        # count a piece under a moving one as a blocker
        spec = PackingSpec(width=5, height=5, max_pieces=6, max_cells=4)
        config = random_packing(seed, spec)
        assume(len(config) > 0)
        engine = _Engine(config, radius=0)
        state = _drawn_state(engine, data)
        cap = data.draw(st.integers(1, 4))
        if mode == SUBSET_MOVE and _overlap(engine, state):
            with pytest.raises(ValueError, match="overlap"):
                engine.escape_at(state, mode, cap)
            return
        assert engine.escape_at(state, mode, cap) == _pairwise_escape_at(
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
        expected = (frozenset({"A", "B"}), POS_X)
        assert _pairwise_escape_at(engine, state, SUBSET_MOVE, 2) == expected
        with pytest.raises(ValueError, match="overlap"):
            engine.escape_at(state, SUBSET_MOVE, 2)
        with pytest.raises(ValueError, match="overlap"):
            list(engine.unit_moves(state, SUBSET_MOVE, 2))
        # single-piece mode still reads any state
        assert engine.escape_at(state, SINGLE_PIECE, 2) == _pairwise_escape_at(
            engine, state, SINGLE_PIECE, 2
        )

    @pytest.mark.parametrize("cap", [1, 2, DEFAULT_SUBSET_CAP])
    def test_tray_with_key_matches(self, cap):
        # the frame touches every tile, so the contact graph is dense
        engine = _Engine(tray_with_key(), radius=0)
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
                escape = engine.escape_at(state, SUBSET_MOVE, cap)
                # every ray meets a closed frame, and the frame's meet every tile
                assert not (closed and escape)
                locked += escape is None
                escapes += escape is not None and len(escape[0]) > 1
                sizes.update(
                    len(ids) for ids, _, _ in engine.unit_moves(state, SUBSET_MOVE, cap)
                )
        assert locked > 0
        assert (escapes > 0) == (cap > 1)
        assert sizes == set(range(1, cap + 1))

    def test_escape_through_ray_closures_that_are_not_connected(self):
        config = _hooked_pairs_tray()
        cells = config.cell_map()
        occupied = occupied_cells(config)
        for pair in ("AC", "BD"):
            moving = set().union(*(cells[pid] for pid in pair))
            assert not is_connected(moving)
            assert not sweep_collides(moving, occupied - moving, POS_X)
        engine = _Engine(config, radius=0)
        for state in _states_near_start(engine, SUBSET_MOVE, steps=1):
            for cap in range(1, 5):
                _check_against_cell_sets(engine, state, SUBSET_MOVE, cap)
        assert engine.escape_at(engine.start, SUBSET_MOVE, 3) is None
        assert engine.escape_at(engine.start, SUBSET_MOVE, 4) == (
            frozenset("ABCD"),
            POS_X,
        )

    @pytest.mark.parametrize("mode", [SINGLE_PIECE, SUBSET_MOVE])
    def test_named_instances_match_outside_the_arena(self, mode):
        outside = 0
        for config in (
            case4_group(), keyhole_pair(), mutual_u_pair(), pinwheel(), z_chain(4)
        ):
            engine = _Engine(config, radius=0)
            for state in _states_near_start(engine, mode, steps=3):
                outside += not engine.in_arena(state)
                _check_against_cell_sets(engine, state, mode, DEFAULT_SUBSET_CAP)
        assert outside > 0


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
