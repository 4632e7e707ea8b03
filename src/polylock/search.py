"""Brute-force configuration-space search under unit-step translations.

The motion model is deliberately narrow: one rigid set of pieces slides one
cell along an axis per move. `escaped` therefore proves the system is not
interlocked, while `locked-within-budget` only certifies that no escape
exists within the explored radius under this motion model.

A state is stored as one tuple of per-piece offsets from the input
configuration. Each piece's anchor (its lexicographically smallest cell)
and bounding box are computed once; a translation moves both by the
piece's offset and keeps the anchor smallest. States are breadth-first
explored and deduplicated up to two quotients, both read from anchors:

* global translation: every state is shifted so the lexicographically
  smallest occupied cell returns to its initial value, so the whole system
  drifting together never counts as progress. That cell is the smallest
  anchor, because the minimum of a union is the minimum of its parts;
* piece identity: pieces with identical cell shapes (same up to
  translation, and not the designated key piece) are interchangeable, so
  states that merely permute them coincide. The state key is the sorted
  (shape class, anchor) pairs: a translate of a shape is fixed by where its
  anchor lands. Traces still name concrete piece ids and replay legally.

The arena test reads the shifted bounding boxes: a piece lies inside the
arena rectangle exactly when its bounding box does. Cells are built only
to test moves and escapes: a unit move is legal when no cell it steps
into is occupied by a piece outside the moving set, and a set escapes when
`grid.Lanes`, built per state and keyed by piece index, finds no blocker
ahead of it. `slide_dependency` reads `Configuration.owner`.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterator

from .grid import DIRECTIONS, Cell, Configuration, Direction, Lanes

#: Largest rigid subset tried in subset-move mode.
DEFAULT_SUBSET_CAP = 4

SINGLE_PIECE = "single-piece"
SUBSET_MOVE = "subset-move"

TraceMove = tuple[frozenset[str], Direction]


@dataclass(frozen=True)
class SearchBudget:
    """Exploration limits: arena inflation, state cap, and move mode."""

    radius: int = 3
    max_states: int = 1_000_000
    mode: str = SINGLE_PIECE
    subset_cap: int = DEFAULT_SUBSET_CAP

    def __post_init__(self):
        if not isinstance(self.radius, int) or isinstance(self.radius, bool):
            raise ValueError("radius must be an integer")
        if self.radius < 0:
            raise ValueError("radius must be non-negative")
        if not isinstance(self.max_states, int) or self.max_states < 1:
            raise ValueError("max_states must be a positive integer")
        if self.mode not in (SINGLE_PIECE, SUBSET_MOVE):
            raise ValueError(
                f"mode must be {SINGLE_PIECE!r} or {SUBSET_MOVE!r}, got {self.mode!r}"
            )
        if not isinstance(self.subset_cap, int) or self.subset_cap < 1:
            raise ValueError("subset_cap must be a positive integer")


@dataclass(frozen=True)
class SearchVerdict:
    """Outcome of an escape search.

    outcome is one of "escaped", "locked-within-budget", "budget-exhausted".
    For escapes, `piece_ids` leave along `direction` after the unit moves in
    `trace` are applied to the initial configuration.
    """

    outcome: str
    states_explored: int
    piece_ids: frozenset[str] | None = None
    direction: Direction | None = None
    trace: tuple[TraceMove, ...] | None = None


@dataclass(frozen=True)
class KeyPieceAnswer:
    """Outcome of a key-piece displacement search.

    outcome is one of "reachable", "unreachable-within-budget",
    "budget-exhausted".
    """

    outcome: str
    states_explored: int
    trace: tuple[TraceMove, ...] | None = None


class _Engine:
    """Expands unit moves over offset vectors for one base configuration.

    A state is only the tuple of per-piece offsets, in sorted id order. The
    engine keeps each piece's base cells, its anchor (lexicographically
    smallest base cell) and its bounding box. Translating a piece moves its
    anchor and box by the same offset, so drift, arena and state key are
    read from those in O(pieces); cells are built only to test moves.
    """

    def __init__(self, config: Configuration, radius: int, key_piece: str | None = None):
        self.ids: tuple[str, ...] = tuple(sorted(config.piece_ids()))
        self.index = {pid: i for i, pid in enumerate(self.ids)}
        self.base_cells = tuple(tuple(sorted(config.cells_of(pid))) for pid in self.ids)
        self.anchors = tuple(cells[0] for cells in self.base_cells)
        # sorted cells start and end on the piece's x bounds
        self.boxes = tuple(
            (cells[0][0], min(y for _, y in cells), cells[-1][0], max(y for _, y in cells))
            for cells in self.base_cells
        )

        # congruent non-key pieces share a shape class; the key gets its own
        shapes: dict[tuple[Cell, ...], int] = {}
        self.classes = tuple(
            -1
            if pid == key_piece
            else shapes.setdefault(
                tuple((x - ax, y - ay) for x, y in cells), len(shapes)
            )
            for pid, cells, (ax, ay) in zip(self.ids, self.base_cells, self.anchors)
        )

        min_x, min_y, max_x, max_y = config.bounding_box()
        self.arena = (min_x - radius, min_y - radius, max_x + radius, max_y + radius)
        self.initial_min = min(self.anchors)

    def normalize(self, offsets: tuple[Cell, ...]) -> tuple[Cell, ...]:
        mx, my = min(
            (ax + ox, ay + oy)
            for (ax, ay), (ox, oy) in zip(self.anchors, offsets)
        )
        dx = self.initial_min[0] - mx
        dy = self.initial_min[1] - my
        if dx == 0 and dy == 0:
            return offsets
        return tuple((ox + dx, oy + dy) for ox, oy in offsets)

    def in_arena(self, offsets: tuple[Cell, ...]) -> bool:
        min_x, min_y, max_x, max_y = self.arena
        return all(
            min_x <= x0 + ox and x1 + ox <= max_x
            and min_y <= y0 + oy and y1 + oy <= max_y
            for (x0, y0, x1, y1), (ox, oy) in zip(self.boxes, offsets)
        )

    def state_key(self, offsets: tuple[Cell, ...]):
        return tuple(
            sorted(
                (shape, (ax + ox, ay + oy))
                for shape, (ax, ay), (ox, oy) in zip(
                    self.classes, self.anchors, offsets
                )
            )
        )

    def _contact_subsets(
        self, cells: list[set[Cell]], cap: int
    ) -> list[tuple[int, ...]]:
        """Index subsets of 2..cap pieces whose union touches edge-to-edge."""
        count = len(cells)
        touching: list[set[int]] = [set() for _ in range(count)]
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

    def _cells(self, offsets: tuple[Cell, ...]) -> list[set[Cell]]:
        """Each piece's cells in the state, in piece-index order."""
        return [
            {(x + ox, y + oy) for x, y in base}
            for base, (ox, oy) in zip(self.base_cells, offsets)
        ]

    def _move_sets(
        self, cells: list[set[Cell]], mode: str, cap: int
    ) -> list[tuple[int, ...]]:
        """Piece-index sets that may move: singles, then contact subsets."""
        combos: list[tuple[int, ...]] = [(i,) for i in range(len(cells))]
        if mode == SUBSET_MOVE:
            combos.extend(self._contact_subsets(cells, cap))
        return combos

    def unit_moves(
        self, offsets: tuple[Cell, ...], mode: str, cap: int
    ) -> Iterator[tuple[frozenset[str], Direction, tuple[Cell, ...]]]:
        cells = self._cells(offsets)
        occupied = set().union(*cells)
        for combo in self._move_sets(cells, mode, cap):
            moving = set().union(*(cells[i] for i in combo))
            others = occupied - moving
            for direction in DIRECTIONS:
                dx, dy = direction.dx, direction.dy
                if any((x + dx, y + dy) in others for x, y in moving):
                    continue
                moved = tuple(
                    (ox + dx, oy + dy) if i in combo else (ox, oy)
                    for i, (ox, oy) in enumerate(offsets)
                )
                yield frozenset(self.ids[i] for i in combo), direction, moved

    def escape_at(
        self, offsets: tuple[Cell, ...], mode: str, cap: int
    ) -> tuple[frozenset[str], Direction] | None:
        """First piece set whose slide to infinity clears everything else."""
        cells = self._cells(offsets)
        by_index = dict(enumerate(cells))
        lanes = {axis: Lanes(by_index, axis) for axis in ("x", "y")}
        for combo in self._move_sets(cells, mode, cap):
            if len(combo) == len(self.ids) > 1:
                continue
            for direction in DIRECTIONS:
                if not lanes[direction.axis].blockers(combo, direction.sign):
                    return frozenset(self.ids[i] for i in combo), direction
        return None


def legal_moves(
    config: Configuration,
    mode: str = SINGLE_PIECE,
    subset_cap: int = DEFAULT_SUBSET_CAP,
) -> list[tuple[frozenset[str], Direction]]:
    """All legal unit moves from a configuration, in deterministic order."""
    if mode not in (SINGLE_PIECE, SUBSET_MOVE):
        raise ValueError(f"mode must be {SINGLE_PIECE!r} or {SUBSET_MOVE!r}")
    engine = _Engine(config, radius=0)
    offsets = tuple((0, 0) for _ in engine.ids)
    return [
        (piece_ids, direction)
        for piece_ids, direction, _ in engine.unit_moves(offsets, mode, subset_cap)
    ]


def _rebuild_trace(states, state_key) -> tuple[TraceMove, ...]:
    moves = []
    while True:
        _, parent, move = states[state_key]
        if parent is None:
            break
        moves.append(move)
        state_key = parent
    return tuple(reversed(moves))


def _explore(
    config: Configuration,
    budget: SearchBudget,
    goal: Callable,
    key_piece: str | None = None,
):
    """Shared BFS core; returns (status, payload, states_explored, trace)."""
    engine = _Engine(config, budget.radius, key_piece=key_piece)
    start = tuple((0, 0) for _ in engine.ids)
    start_key = engine.state_key(start)
    states = {start_key: (start, None, None)}
    payload = goal(engine, start)
    if payload is not None:
        return "hit", payload, 1, ()

    frontier = deque([start_key])
    while frontier:
        current = frontier.popleft()
        offsets = states[current][0]
        for piece_ids, direction, moved in engine.unit_moves(
            offsets, budget.mode, budget.subset_cap
        ):
            normalized = engine.normalize(moved)
            if not engine.in_arena(normalized):
                continue
            state_key = engine.state_key(normalized)
            if state_key in states:
                continue
            if len(states) >= budget.max_states:
                return "out-of-budget", None, len(states), None
            states[state_key] = (normalized, current, (piece_ids, direction))
            payload = goal(engine, normalized)
            if payload is not None:
                return "hit", payload, len(states), _rebuild_trace(states, state_key)
            frontier.append(state_key)
    return "exhausted", None, len(states), None


def escape_search(config: Configuration, budget: SearchBudget) -> SearchVerdict:
    """Can any proper piece set leave? Breadth-first, exact, budgeted.

    Escape is checked at every reached state: a set escapes when its
    infinite sweep in some direction hits nothing else. A single-piece
    configuration escapes trivially. `locked-within-budget` means the whole
    reachable set inside the arena was exhausted with no escape.
    """
    if not config.placements:
        raise ValueError("escape search needs at least one piece")

    def goal(engine, offsets):
        return engine.escape_at(offsets, budget.mode, budget.subset_cap)

    status, payload, explored, trace = _explore(config, budget, goal)
    if status == "hit":
        piece_ids, direction = payload
        return SearchVerdict(
            outcome="escaped",
            states_explored=explored,
            piece_ids=piece_ids,
            direction=direction,
            trace=trace,
        )
    if status == "out-of-budget":
        return SearchVerdict(outcome="budget-exhausted", states_explored=explored)
    return SearchVerdict(outcome="locked-within-budget", states_explored=explored)


def key_piece_reachable(
    config: Configuration,
    key: str,
    displacement: Cell,
    budget: SearchBudget,
) -> KeyPieceAnswer:
    """Can the key piece end up displaced by exactly `displacement`?

    The displacement is read in the drift-normalized frame, which matches
    the intuitive board frame whenever anything immobile (a frame, a wall)
    anchors the system. The key piece is never identified with congruent
    pieces, so the answer is exact even when other pieces are collapsed as
    interchangeable.
    """
    config.placement(key)  # raises KeyError for unknown pieces
    if (
        not isinstance(displacement, tuple)
        or len(displacement) != 2
        or not all(isinstance(v, int) and not isinstance(v, bool) for v in displacement)
    ):
        raise ValueError(f"displacement must be an (int, int) pair, got {displacement!r}")

    def goal(engine, offsets):
        if offsets[engine.index[key]] == displacement:
            return True
        return None

    status, _, explored, trace = _explore(config, budget, goal, key_piece=key)
    if status == "hit":
        return KeyPieceAnswer(
            outcome="reachable", states_explored=explored, trace=trace
        )
    if status == "out-of-budget":
        return KeyPieceAnswer(outcome="budget-exhausted", states_explored=explored)
    return KeyPieceAnswer(outcome="unreachable-within-budget", states_explored=explored)


def slide_dependency(
    config: Configuration, piece: str, direction: Direction
) -> frozenset[str]:
    """Pieces that must move (weakly before or with) `piece` to advance it.

    The transitive closure of the one-cell-step blocker relation: starting
    from the piece, keep adding every piece whose cells intersect the unit
    step of a piece already in the set. Each stepped cell is one
    `Configuration.owner` lookup, so the closure costs O(cells).
    """
    dependency = {piece}
    frontier = [piece]
    while frontier:
        # raises KeyError for an unknown piece on the first pass
        for x, y in config.cells_of(frontier.pop()):
            other = config.owner((x + direction.dx, y + direction.dy))
            if other is not None and other not in dependency:
                dependency.add(other)
                frontier.append(other)
    return frozenset(dependency)


def replay_trace(
    config: Configuration, trace: tuple[TraceMove, ...]
) -> Configuration:
    """Apply unit moves in order, validating each; returns the final board."""
    board = config
    for piece_ids, direction in trace:
        unknown = piece_ids - set(board.piece_ids())
        if unknown:
            raise KeyError(f"trace references unknown piece {sorted(unknown)[0]!r}")
        board = Configuration.from_placements(
            p.moved(direction.dx, direction.dy) if p.piece_id in piece_ids else p
            for p in board.placements
        )
    return board


__all__ = [
    "DEFAULT_SUBSET_CAP",
    "KeyPieceAnswer",
    "SINGLE_PIECE",
    "SUBSET_MOVE",
    "SearchBudget",
    "SearchVerdict",
    "escape_search",
    "key_piece_reachable",
    "legal_moves",
    "replay_trace",
    "slide_dependency",
]
