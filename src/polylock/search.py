"""Brute-force configuration-space search under unit-step translations.

The motion model is deliberately narrow: one rigid set of pieces slides one
cell along an axis per move. `escaped` therefore proves the system is not
interlocked, while `locked-within-budget` only certifies that no escape
exists within the explored radius under this motion model.

A state is one tuple of the pieces' anchor cells. A piece's anchor is its
lexicographically smallest cell, and its cells are its form (its cells
relative to the anchor, computed once) placed at the anchor, so a
translation moves the anchor alone. States are breadth-first explored and
deduplicated up to two quotients, both read from anchors:

* global translation: every state is shifted so its smallest anchor
  returns to its value in the start state, so the whole system drifting
  together never counts as progress. That anchor is the smallest occupied
  cell, because the minimum of a union is the minimum of its parts;
* piece identity: pieces with identical cell shapes (same up to
  translation, and not the designated key piece) are interchangeable, so
  states that merely permute them coincide. The state key is the sorted
  (shape class, anchor) pairs: a translate of a shape is fixed by where its
  anchor lands. Traces still name concrete piece ids and replay legally.

The arena test reads the anchors: a piece lies inside the arena rectangle
exactly when its bounding box does, that is when its anchor lies in a
rectangle computed once per piece. Moves and escapes are tested on
Python-int bitboards, one mask per piece per state, laid out over the
union of the pieces' boxes in that state (see `_Engine`). A unit move is
legal when the moving mask's step meets no other piece's bit, and a set
escapes when a Kogge-Stone ray fill of its mask meets no other piece's
bit. Subset mode builds only the sets that can move or escape: a set can
step (or escape) along d exactly when it holds every piece its members'
steps (or ray fills) meet, so it is a union of per-piece closures, grown
over the contact graph by `_closed_sets`. The masks span the union of the
state's boxes, which the arena bounds, so the arena's area is capped at
`MAX_ARENA_CELLS`. `slide_dependency` reads `Configuration.owner`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterator

from .grid import DIRECTIONS, Cell, Configuration, Direction, translate_cells

#: Largest rigid subset tried in subset-move mode.
DEFAULT_SUBSET_CAP = 4

#: Largest arena, in cells, that a search may cover: the configuration's
#: bounding box grown by the radius on every side. Every state's bitboards
#: lie inside the arena, so their size, and the cost of each move test,
#: grows with it.
MAX_ARENA_CELLS = 1_000_000

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
        if (
            not isinstance(self.max_states, int)
            or isinstance(self.max_states, bool)
            or self.max_states < 1
        ):
            raise ValueError("max_states must be a positive integer")
        if self.mode not in (SINGLE_PIECE, SUBSET_MOVE):
            raise ValueError(
                f"mode must be {SINGLE_PIECE!r} or {SUBSET_MOVE!r}, got {self.mode!r}"
            )
        if (
            not isinstance(self.subset_cap, int)
            or isinstance(self.subset_cap, bool)
            or self.subset_cap < 1
        ):
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


def _piece_indices(bits: int, count: int) -> tuple[int, ...]:
    """The ascending piece indices of a set whose piece i is bit count - 1 - i."""
    found = []
    while bits:
        top = bits.bit_length() - 1
        found.append(count - 1 - top)
        bits ^= 1 << top
    return tuple(found)


def _shifted(
    state: tuple[Cell, ...], combo: tuple[int, ...], direction: Direction
) -> tuple[Cell, ...]:
    """The anchors after the pieces in `combo` take one step along `direction`."""
    dx, dy = direction.dx, direction.dy
    if len(combo) == 1:
        i = combo[0]
        x, y = state[i]
        return state[:i] + ((x + dx, y + dy),) + state[i + 1:]
    return tuple(
        (x + dx, y + dy) if i in combo else (x, y)
        for i, (x, y) in enumerate(state)
    )


def _slide_blocked(moving: int, others: int, direction: Direction, geometry) -> bool:
    """Does the `moving` mask, slid to infinity, meet a bit of `others`?

    A Kogge-Stone ray fill: each round ORs in the fill shifted by twice the
    last round's distance, so log2(box side) rounds cover the box. Along x
    the shifted bits are masked to the cells the fill may reach in one
    jump without crossing a pad column; along y nothing wraps. The test
    runs after every round, so a slide blocked near its start stops early.
    """
    _, x_rounds, y_shifts = geometry
    forward = direction.sign > 0
    fill = moving
    if direction.axis == "x":
        for shift, ahead, behind in x_rounds:
            fill |= (fill << shift) & ahead if forward else (fill >> shift) & behind
            if fill & others:
                return True
    else:
        for shift in y_shifts:
            fill |= fill << shift if forward else fill >> shift
            if fill & others:
                return True
    return False


def _ray_fill(moving: int, direction: Direction, geometry) -> int:
    """Every cell the `moving` mask sweeps, slid along `direction` to the box edge.

    The same Kogge-Stone rounds as `_slide_blocked`, all of them.
    """
    _, x_rounds, y_shifts = geometry
    fill = moving
    if direction.axis == "x":
        if direction.sign > 0:
            for shift, ahead, _ in x_rounds:
                fill |= (fill << shift) & ahead
        else:
            for shift, _, behind in x_rounds:
                fill |= (fill >> shift) & behind
    elif direction.sign > 0:
        for shift in y_shifts:
            fill |= fill << shift
    else:
        for shift in y_shifts:
            fill |= fill >> shift
    return fill


def _closures(successors, count: int, limit: int) -> list[int]:
    """Each piece's closure under a relation, or 0 where it passes `limit` pieces.

    Piece p is bit p here, and `successors[p]` is the bit set p relates to.
    A closure that reaches a piece whose closure is already known to be too
    large is too large as well.
    """
    closures = []
    large = 0
    for p in range(count):
        closed = new = 1 << p
        while new:
            if new & large or closed.bit_count() > limit:
                large |= 1 << p
                closed = 0
                break
            reach = 0
            while new:
                low = new & -new
                new ^= low
                reach |= successors[low.bit_length() - 1]
            new = reach & ~closed
            closed |= new
        closures.append(closed)
    return closures


def _reach(bits: int, relation) -> int:
    """The union of `relation[p]` over the pieces p (bit p) of `bits`."""
    reach = 0
    while bits:
        low = bits & -bits
        bits ^= low
        reach |= relation[low.bit_length() - 1]
    return reach


def _contacts(by_bit: list[int], stride: int) -> tuple[list[int], list[list[int]]]:
    """(touching, hits) of masks given with piece p as bit p.

    touching[p] is the bit set of pieces edge-adjacent to p, and
    hits[k][p] the pieces that p's unit step along DIRECTIONS[k] meets.
    Each piece's one-step halo is tested against every later mask.
    """
    count = len(by_bit)
    touching = [0] * count
    hits = [[0] * count for _ in DIRECTIONS]
    for p, mask in enumerate(by_bit):
        steps = (mask << 1, mask >> 1, mask << stride, mask >> stride)
        halo = steps[0] | steps[1] | steps[2] | steps[3]
        for q in range(p + 1, count):
            other = by_bit[q]
            if halo & other:
                touching[p] |= 1 << q
                touching[q] |= 1 << p
                for k, step in enumerate(steps):
                    if step & other:
                        hits[k][p] |= 1 << q
                        # directions pair up as k, k ^ 1
                        hits[k ^ 1][q] |= 1 << p
    return touching, hits


def _connected(bits: int, touching: list[int]) -> bool:
    """Does the contact graph connect the pieces of `bits`?"""
    reached = new = bits & -bits
    while new:
        new = _reach(new, touching) & bits & ~reached
        reached |= new
    return reached == bits


def _closed_sets(
    closures: list[list[int]], touching: list[int], limit: int
) -> list[tuple[int, list[Direction]]]:
    """(set bits, directions) of the unions of closures of at most `limit`
    pieces, grown one touching piece's closure at a time.

    `closures[k][p]` is piece p's closure under a relation for
    DIRECTIONS[k], or 0 where it passes the limit. A set closed under the
    relation holds each member's closure, so it is the union of them. If
    it is also contact-connected, it is reached: from any member's closure,
    a member outside the union touches it, and adding that member's closure
    stays inside the set. Unions that are not connected are kept too, as
    steps towards ones that are. The sets come by size, then by index
    tuple (piece i is bit count - 1 - i), each with its directions in
    `DIRECTIONS` order.
    """
    found: dict[int, list[Direction]] = {}
    for direction, row in zip(DIRECTIONS, closures):
        level = set(row)
        level.discard(0)
        seen = set()
        while level:
            seen |= level
            grown = set()
            for bits in level:
                near = _reach(bits, touching) & ~bits
                while near:
                    low = near & -near
                    near ^= low
                    closure = row[low.bit_length() - 1]
                    if closure:
                        union = bits | closure
                        if union.bit_count() <= limit and union not in seen:
                            grown.add(union)
            level = grown
        for bits in seen:
            found.setdefault(bits, []).append(direction)
    return sorted(found.items(), key=lambda item: (item[0].bit_count(), -item[0]))


def _ray_hits(by_bit: list[int], occupied: int, direction: Direction, geometry) -> list[int]:
    """Piece p -> the bit set of pieces (piece q is bit q) that p's ray fill
    along `direction` meets."""
    hits = []
    for mask in by_bit:
        fill = _ray_fill(mask, direction, geometry) & (occupied ^ mask)
        hit = 0
        if fill:
            for q, other in enumerate(by_bit):
                if fill & other:
                    hit |= 1 << q
        hits.append(hit)
    return hits


def _box_geometry(width: int, height: int) -> tuple:
    """(stride, x rounds, y shifts) of a width x height box's layout.

    An x round is (shift, ahead, behind), the Kogge-Stone propagators:
    ahead holds the box cells whose shift - 1 predecessors in bit order are
    box cells too, so a +x jump by `shift` that lands in it never crosses
    a pad column; behind mirrors it for -x. Rounds double the shift until
    it reaches the width, and the y shifts likewise up to the height.
    """
    stride = width + 1
    ahead = behind = ((1 << width) - 1) * (
        ((1 << stride * height) - 1) // ((1 << stride) - 1)
    )
    x_rounds = []
    shift = 1
    while shift < width:
        x_rounds.append((shift, ahead, behind))
        ahead &= ahead << shift
        behind &= behind >> shift
        shift <<= 1
    y_shifts = []
    shift = 1
    while shift < height:
        y_shifts.append(shift * stride)
        shift <<= 1
    return stride, tuple(x_rounds), tuple(y_shifts)


class _Engine:
    """Expands unit moves over anchor states for one base configuration.

    A state is only the tuple of the pieces' anchor cells, in sorted id
    order, and `start` is the input's. The engine keeps each piece's form
    (its cells relative to its anchor), the extent of its box around the
    anchor, and the rectangle its anchor may take inside the arena. So
    drift, arena and state key read the anchors alone, in O(pieces).

    Moves and escapes are tested on Python-int bitboards laid out per state
    by `_layout`. The layout is the union of the pieces' bounding boxes in
    the state, row-major, with one empty pad column after every row: cell
    (x, y) is bit (y - bottom) * stride + (x - left), and the stride is the
    box width plus the pad. A step along x is a shift by 1 and a step along
    y a shift by the stride. The pad is the one-cell margin on both x sides
    of a row, so a step off either end of a row lands in a pad column,
    never on another row's cell; a step off the bottom or the top leaves
    the box, where no piece has a bit. Because the layout follows the
    state, not the arena, states outside the arena are read exactly too.
    Each piece's mask is OR-ed once per stride from precomputed per-row bit
    strips and shifted to the piece's box corner in each state.

    * A unit move of the moving mask m is legal when the step of m meets
      no bit of occupied ^ m. Single-piece mode tests each piece so.
    * A set escapes along a direction when the ray fill of its mask across
      the box meets no other piece's bit: a cell ahead in a lane of a
      moving cell blocks the slide, and no cell lies outside the box.
      Single-piece mode tests each piece so (`_slide_blocked`).
    * Subset mode refuses overlapping masks, which the BFS never makes,
      and builds its sets with `_closed_sets`. A set of at most cap pieces
      can step along d exactly when it is connected and closed under "p's
      step along d meets q" (`_contacts`), and escapes along d exactly
      when it is connected, closed under "p's ray fill along d meets q"
      (`_ray_hits`; the fill of a union is the union of the fills) and,
      on a board of two pieces or more, not all of them: escape closures
      are capped one below the piece count. One-step closures are
      connected, so every move union is; a ray closure need not be, so
      escapes keep the connected unions only. A state where no ray closure
      is within the cap has no escape, and its contact graph is never
      built.
    * Both modes order sets by (size, index tuple), the order the BFS has
      always used, and directions as in `DIRECTIONS`, so state counts and
      traces do not depend on the enumeration.
    """

    def __init__(self, config: Configuration, radius: int, key_piece: str | None = None):
        self.ids: tuple[str, ...] = tuple(sorted(config.piece_ids()))
        self.index = {pid: i for i, pid in enumerate(self.ids)}
        cells = tuple(sorted(config.cells_of(pid)) for pid in self.ids)
        self.start = tuple(piece[0] for piece in cells)
        self.cell_count = sum(map(len, cells))
        # each piece's cells relative to its anchor: the first has x = 0,
        # none has a smaller x, and the last has the largest
        self.forms = tuple(
            tuple((x - ax, y - ay) for x, y in piece)
            for piece, (ax, ay) in zip(cells, self.start)
        )
        # the box of a piece anchored at (x, y) is x, y + low, x + right,
        # y + high
        self.lows = tuple(min(y for _, y in form) for form in self.forms)
        self.rights = tuple(form[-1][0] for form in self.forms)
        self.highs = tuple(max(y for _, y in form) for form in self.forms)

        # congruent non-key pieces share a shape class; the key gets its own
        shapes: dict[tuple[Cell, ...], int] = {}
        self.classes = tuple(
            -1 if pid == key_piece else shapes.setdefault(form, len(shapes))
            for pid, form in zip(self.ids, self.forms)
        )

        min_x, min_y, max_x, max_y = config.bounding_box()
        width = max_x - min_x + 1 + 2 * radius
        height = max_y - min_y + 1 + 2 * radius
        if width * height > MAX_ARENA_CELLS:
            raise ValueError(
                f"search arena of {width}x{height} = {width * height} cells "
                f"(bounding box plus radius {radius} on each side) exceeds "
                f"the cap of {MAX_ARENA_CELLS} cells"
            )
        x0, y0, x1, y1 = min_x - radius, min_y - radius, max_x + radius, max_y + radius
        # a piece lies in the arena exactly when its anchor lies in its rectangle
        self.anchor_bounds = tuple(
            (x0, y0 - low, x1 - right, y1 - high)
            for low, right, high in zip(self.lows, self.rights, self.highs)
        )
        self.initial_min = min(self.start)

        # each piece's cells as (row above its box corner, bit strip) pairs
        strips: list[dict[int, int]] = [{} for _ in self.ids]
        for rows, form, low in zip(strips, self.forms, self.lows):
            for x, y in form:
                rows[y - low] = rows.get(y - low, 0) | 1 << x
        self.strips = tuple(tuple(rows.items()) for rows in strips)
        self._shapes: dict[int, tuple[int, ...]] = {}
        self._geometry: dict[tuple[int, int], tuple] = {}

    def normalize(self, state: tuple[Cell, ...]) -> tuple[Cell, ...]:
        mx, my = min(state)
        dx = self.initial_min[0] - mx
        dy = self.initial_min[1] - my
        if dx == 0 and dy == 0:
            return state
        return tuple((x + dx, y + dy) for x, y in state)

    def in_arena(self, state: tuple[Cell, ...]) -> bool:
        for (x, y), (x0, y0, x1, y1) in zip(state, self.anchor_bounds):
            if not (x0 <= x <= x1 and y0 <= y <= y1):
                return False
        return True

    def state_key(self, state: tuple[Cell, ...]):
        return tuple(sorted(zip(self.classes, state)))

    def _layout(self, state: tuple[Cell, ...]) -> tuple[list[int], tuple]:
        """Each piece's mask in this state's box, and the box's geometry.

        The geometry is (stride, x rounds, y shifts) for `_slide_blocked`,
        cached per box size, and the pieces' masks at their box corners are
        cached per stride.
        """
        # the smallest anchor has the smallest x of all
        left = min(state)[0]
        ys = [y + low for (_, y), low in zip(state, self.lows)]
        bottom = min(ys)
        size = (
            max([x + right for (x, _), right in zip(state, self.rights)]) - left + 1,
            max([y + high for (_, y), high in zip(state, self.highs)]) - bottom + 1,
        )
        geometry = self._geometry.get(size)
        if geometry is None:
            geometry = self._geometry[size] = _box_geometry(*size)
        stride = geometry[0]
        shapes = self._shapes.get(stride)
        if shapes is None:
            shapes = self._shapes[stride] = tuple(
                sum(strip << row * stride for row, strip in rows)
                for rows in self.strips
            )
        masks = [
            shape << (y - bottom) * stride + x - left
            for shape, (x, _), y in zip(shapes, state, ys)
        ]
        return masks, geometry

    def _occupied(self, masks: list[int], mode: str) -> int:
        """The union of the masks. Subset mode refuses overlapping pieces:
        a piece under a member would count as a blocker of its set."""
        occupied = 0
        for mask in masks:
            occupied |= mask
        if mode == SUBSET_MOVE and occupied.bit_count() != self.cell_count:
            raise ValueError("subset-move mode needs pieces that do not overlap")
        return occupied

    def unit_moves(
        self, state: tuple[Cell, ...], mode: str, cap: int
    ) -> Iterator[tuple[frozenset[str], Direction, tuple[Cell, ...]]]:
        masks, (stride, _, _) = self._layout(state)
        occupied = self._occupied(masks, mode)
        count = len(masks)
        if mode == SUBSET_MOVE:
            limit = min(cap, count)
            touching, hits = _contacts(masks[::-1], stride)
            closures = [_closures(relation, count, limit) for relation in hits]
            for bits, directions in _closed_sets(closures, touching, limit):
                combo = _piece_indices(bits, count)
                names = frozenset(self.ids[i] for i in combo)
                for direction in directions:
                    yield names, direction, _shifted(state, combo, direction)
            return
        for i, moving in enumerate(masks):
            others = occupied ^ moving
            hits = (
                (moving << 1) & others,
                (moving >> 1) & others,
                (moving << stride) & others,
                (moving >> stride) & others,
            )
            if all(hits):
                continue
            names = frozenset((self.ids[i],))
            for direction, hit in zip(DIRECTIONS, hits):
                if not hit:
                    yield names, direction, _shifted(state, (i,), direction)

    def escape_at(
        self, state: tuple[Cell, ...], mode: str, cap: int
    ) -> tuple[frozenset[str], Direction] | None:
        """First piece set whose slide to infinity clears everything else."""
        masks, geometry = self._layout(state)
        occupied = self._occupied(masks, mode)
        if mode != SUBSET_MOVE:
            for i, moving in enumerate(masks):
                others = occupied ^ moving
                for direction in DIRECTIONS:
                    if not _slide_blocked(moving, others, direction, geometry):
                        return frozenset((self.ids[i],)), direction
            return None
        count = len(masks)
        # a proper set: the whole system drifting away is no escape, unless
        # it is one piece
        limit = min(cap, max(count - 1, 1))
        by_bit = masks[::-1]
        closures = [
            _closures(_ray_hits(by_bit, occupied, direction, geometry), count, limit)
            for direction in DIRECTIONS
        ]
        if not any(map(any, closures)):
            return None
        touching, _ = _contacts(by_bit, geometry[0])
        for bits, directions in _closed_sets(closures, touching, limit):
            if _connected(bits, touching):
                combo = _piece_indices(bits, count)
                return frozenset(self.ids[i] for i in combo), directions[0]
        return None


def legal_moves(
    config: Configuration,
    mode: str = SINGLE_PIECE,
    subset_cap: int = DEFAULT_SUBSET_CAP,
) -> list[tuple[frozenset[str], Direction]]:
    """All legal unit moves from a configuration, in deterministic order."""
    SearchBudget(radius=0, mode=mode, subset_cap=subset_cap)  # checks mode and cap
    engine = _Engine(config, radius=0)
    return [
        (piece_ids, direction)
        for piece_ids, direction, _ in engine.unit_moves(engine.start, mode, subset_cap)
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
    start = engine.start
    start_key = engine.state_key(start)
    states = {start_key: (start, None, None)}
    payload = goal(engine, start)
    if payload is not None:
        return "hit", payload, 1, ()

    frontier = deque([start_key])
    while frontier:
        current = frontier.popleft()
        for piece_ids, direction, moved in engine.unit_moves(
            states[current][0], budget.mode, budget.subset_cap
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
    if len(config) == 0:
        raise ValueError("escape search needs at least one piece")

    def goal(engine, state):
        return engine.escape_at(state, budget.mode, budget.subset_cap)

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
    anchor = min(config.cells_of(key))  # raises KeyError for unknown pieces
    if (
        not isinstance(displacement, tuple)
        or len(displacement) != 2
        or not all(isinstance(v, int) and not isinstance(v, bool) for v in displacement)
    ):
        raise ValueError(f"displacement must be an (int, int) pair, got {displacement!r}")

    target = (anchor[0] + displacement[0], anchor[1] + displacement[1])

    def goal(engine, state):
        if state[engine.index[key]] == target:
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
        board = Configuration.from_cell_map(
            {
                pid: translate_cells(cells, direction.dx, direction.dy)
                if pid in piece_ids
                else cells
                for pid, cells in board.cell_map().items()
            }
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
