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
  states that merely permute them coincide. A translate of a shape is fixed
  by where its anchor lands, so a piece's code is its class times the
  arena's area plus its anchor's row-major index in the arena, and the
  state key is the sorted codes. Keys are built only for states inside the
  arena, so equal keys are equal multisets of (class, anchor) pairs.

A piece lies inside the arena exactly when its anchor lies in a rectangle
computed once per piece. A child drifts only when a moved anchor lands
below the smallest one or a moved piece held it; one that did not drift
differs from its parent only in its moved pieces, so only they are tested
and re-keyed. Moves name pieces by index; a trace names them by id along
its own path only, and replays legally.

Moves and escapes are tested on Python-int bitboards in the arena's frame,
fixed once per search (see `_Engine`); the arena's area is capped at
`MAX_ARENA_CELLS`. A frontier state carries what its moves read: the move
that made it, whose reverse is dropped before any anchors are built, and its
shape classes' anchor bitboards in single-piece mode or its contact relation
in subset-move mode. The state table keeps each state's parent key and move
alone. The one move parameter is the cap: 1 in single-piece mode,
`DEFAULT_SUBSET_CAP` in subset-move mode.
`slide_dependency` reads `Configuration.owner`.
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
#: span the whole arena, so their size, and the cost of each move test,
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


def _piece_indices(bits: int) -> tuple[int, ...]:
    """The ascending piece indices of a set whose piece p is bit p."""
    found = []
    while bits:
        low = bits & -bits
        found.append(low.bit_length() - 1)
        bits ^= low
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


def _ray_fill(moving: int, direction: Direction, geometry, stop: int = 0) -> int:
    """Every cell the `moving` mask sweeps, slid along `direction` to the box
    edge, or the fill up to the first round that meets `stop`.

    A Kogge-Stone ray fill: each round ORs in the fill shifted by twice the
    last round's distance, so log2(box side) rounds cover the box. Along x
    the shifted bits are masked to the cells the fill may reach in one
    jump without crossing a pad column; along y nothing wraps. The test
    against `stop` runs after every round, so a slide blocked near its
    start stops early.
    """
    _, x_rounds, y_shifts = geometry
    forward = direction.sign > 0
    fill = moving
    if direction.axis == "x":
        for shift, ahead, behind in x_rounds:
            fill |= (fill << shift) & ahead if forward else (fill >> shift) & behind
            if fill & stop:
                break
    else:
        for shift in y_shifts:
            fill |= fill << shift if forward else fill >> shift
            if fill & stop:
                break
    return fill


def _closures(successors, predecessors, count: int, limit: int) -> list[int]:
    """Each piece's closure under a relation, or 0 where it passes `limit` pieces.

    Piece p is bit p here, `successors[p]` is the bit set p relates to, and
    `predecessors[p]` the set that relates to p; a row may be built when
    first read (`_Rays`). A closure holds its members' closures, so once p's
    passes the limit, p and its predecessors are marked, and a closure that
    reaches a marked piece is not built.
    """
    closures = []
    large = 0
    for p in range(count):
        closed = new = 1 << p
        while new and not new & large and closed.bit_count() <= limit:
            new = _reach(new, successors) & ~closed
            closed |= new
        if new and not large >> p & 1:
            large |= 1 << p | predecessors[p]
        closures.append(0 if new else closed)
    return closures


def _reach(bits: int, relation) -> int:
    """The union of `relation[p]` over the pieces p (bit p) of `bits`."""
    reach = 0
    while bits:
        low = bits & -bits
        bits ^= low
        reach |= relation[low.bit_length() - 1]
    return reach


def _touch(masks: list[int], stride: int, pieces, rows: list[list[int]]) -> tuple:
    """(touching, hits) from the rows [touching, *hits] of a relation that
    records no contact of `pieces`, once their halos meet every other mask:
    touching[p] is the bit set of pieces edge-adjacent to p, and hits[k][p]
    the pieces that p's unit step along DIRECTIONS[k] meets."""
    touching, *hits = rows
    for p in pieces:
        mask = masks[p]
        steps = (mask << 1, mask >> 1, mask << stride, mask >> stride)
        halo = steps[0] | steps[1] | steps[2] | steps[3]
        for q, other in enumerate(masks):
            if halo & other and q != p:
                touching[p] |= 1 << q
                touching[q] |= 1 << p
                for k, step in enumerate(steps):
                    if step & other:
                        hits[k][p] |= 1 << q
                        # directions pair up as k, k ^ 1
                        hits[k ^ 1][q] |= 1 << p
    return touching, hits


def _connected(combo: tuple[int, ...], touching: list[int]) -> bool:
    """Does the contact graph connect the pieces of `combo`?"""
    bits = sum(1 << p for p in combo)
    reached = new = 1 << combo[0]
    while new:
        new = _reach(new, touching) & bits & ~reached
        reached |= new
    return reached == bits


def _closed_sets(
    closures: list[list[int]], touching: list[int], limit: int
) -> list[tuple[tuple[int, ...], list[Direction]]]:
    """(index tuple, directions) of the unions of closures of at most
    `limit` pieces, grown one touching piece's closure at a time.

    `closures[k][p]` is piece p's closure under a relation for
    DIRECTIONS[k], or 0 where it passes the limit. A set closed under the
    relation holds each member's closure, so it is the union of them. If
    it is also contact-connected, it is reached: from any member's closure,
    a member outside the union touches it, and adding that member's closure
    stays inside the set. Unions that are not connected are kept too, as
    steps towards ones that are. The sets come by size, then by index
    tuple, each with its directions in `DIRECTIONS` order.
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
    sets = [(_piece_indices(bits), directions) for bits, directions in found.items()]
    sets.sort(key=lambda item: (len(item[0]), item[0]))
    return sets


class _Rays(dict):
    """Piece p -> the bit set of other pieces that p's ray fill along
    `direction` meets: the rows of "p's slide to infinity meets q", each
    built by one fill when it is first read."""

    def __init__(self, masks: list[int], direction: Direction, geometry):
        self.masks, self.direction, self.geometry = masks, direction, geometry

    def __missing__(self, p: int) -> int:
        mask = self.masks[p]
        hit = _ray_fill(mask, self.direction, self.geometry) ^ mask
        row = self[p] = sum(1 << q for q, other in enumerate(self.masks) if hit & other)
        return row


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

    A state is the tuple of the pieces' anchor cells in sorted id order;
    `start` is the input's. Per piece the engine keeps its form, its anchor
    rectangle in the arena, its code base (its code at anchor (x, y) is
    base + y * arena width + x), and its bitboard shape and offset.

    Bitboards are Python ints in the arena's frame, fixed once per engine:
    cell (x, y) is bit (y - y0) * stride + (x - x0) for the arena's corner
    (x0, y0), and the stride adds one empty pad column, so a step along x
    (a shift by 1) off a row's end lands in the pad, and one along y (by the
    stride) off the bottom or top leaves the arena. Piece i anchored at
    (x, y) is shapes[i] << y * stride + x + offsets[i]; outside the arena it
    would wrap or shift by a negative count, so every query takes states in
    the arena: the start and the children `child` keyed.

    A state's boards are an anchor board per shape class of two pieces or
    more, its members' anchor bits, then the occupied cells. The BFS carries
    them with each state along its frontier, not in its state table, and
    `carry` updates them per child. Piece p is bit p of every piece set, and
    sets are limited to min(`cap`, pieces), the largest rigid set to move.
    Above a limit of one the BFS carries the contact relation (`relation`)
    instead: piece sets only, which no drift changes, so `relate` re-tests
    only the moved pieces.

    * A piece steps along d when none of its front cells g (its form stepped
      along d, less the form) is occupied: one mask test for a lone piece.
      A larger class's movers are its anchor board less occupied shifted by
      -g for every g, each named by its anchor.
    * A set escapes along a direction when the ray fill of its mask across
      the arena (`_ray_fill`) meets no other piece's bit. On a board of two
      pieces or more the set may not be all of them, so escapes are limited
      to min(cap, max(pieces - 1, 1)).
    * Every query refuses overlapping masks, which the BFS never makes: a
      piece under a member would count as a blocker of its set.
    * Above a limit of one, `_closed_sets` builds the sets. A set of at
      most limit pieces can step along d exactly when it is connected and
      closed under "p's step along d meets q" (`_touch`), and escapes
      along d exactly when it is connected and closed under "p's ray fill
      along d meets q" (`_Rays`, each row built when first read and shared
      by d's forward and -d's backward rows; the fill of a union is the
      union of the fills). `_closures` grows both kinds. One-step closures
      are connected, so every move union is; a ray closure need not be, so
      escapes keep the connected unions only. A state where no ray closure
      is within the limit has no escape, and its contact graph is never
      built.
    * Sets come by (size, index tuple) and directions as in `DIRECTIONS`,
      so state counts and traces do not depend on the limit's path or on
      the classes: a limit of one yields what the closures would.
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
        lows = [min(y for _, y in form) for form in self.forms]
        rights = [form[-1][0] for form in self.forms]
        highs = [max(y for _, y in form) for form in self.forms]

        # congruent non-key pieces share a shape class; the key gets its own
        shapes: dict[tuple[Cell, ...] | None, int] = {}
        self.classes = tuple(
            shapes.setdefault(None if pid == key_piece else form, len(shapes))
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
            for low, right, high in zip(lows, rights, highs)
        )
        self.initial_min = min(self.start)
        self.arena_width = width
        self.bases = tuple(c * width * height - y0 * width - x0 for c in self.classes)

        self.geometry = _box_geometry(width, height)
        stride = self.geometry[0]
        self.shapes = tuple(
            sum(1 << (y - low) * stride + x for x, y in form)
            for form, low in zip(self.forms, lows)
        )
        self.offsets = tuple((low - y0) * stride - x0 for low in lows)

        # a class's front cells per direction, as a mask with a one-cell
        # margin for a class of one and as shifts from the anchor for a larger one
        members: dict[int, list[int]] = {}
        for i, c in enumerate(self.classes):
            members.setdefault(c, []).append(i)
        self.loners, self.fronts, crowds = [], [], []
        for m in members.values():
            form, low = set(self.forms[m[0]]), lows[m[0]]
            steps = [{(x + d.dx, y + d.dy) for x, y in form} - form for d in DIRECTIONS]
            if len(m) == 1:
                rows = [[(y - low + 1) * stride + x + 1 for x, y in s] for s in steps]
                self.loners.append((m[0], [sum(1 << b for b in r) for r in rows]))
            else:
                crowds.append(m)
                self.fronts.append([[y * stride + x for x, y in s] for s in steps])
        self.board_of = {i: b for b, m in enumerate(crowds) for i in m}
        self.corner, self.origin = (x0, y0), y0 * stride + x0

    def in_arena(self, state: tuple[Cell, ...]) -> bool:
        for (x, y), (x0, y0, x1, y1) in zip(state, self.anchor_bounds):
            if not (x0 <= x <= x1 and y0 <= y <= y1):
                return False
        return True

    def state_key(self, state: tuple[Cell, ...]) -> tuple[int, ...]:
        width = self.arena_width
        codes = [base + y * width + x for base, (x, y) in zip(self.bases, state)]
        return tuple(sorted(codes))

    def child(self, key, parent, combo, moved) -> tuple[tuple[Cell, ...], tuple | None]:
        """(normalized child, key) of the normalized state `parent`, keyed
        `key`, after the pieces of `combo` moved to `moved`; the key is None
        off the arena. The child drifts only when a moved anchor lands below
        `initial_min`, the parent's smallest, or a moved piece held it."""
        initial = low = self.initial_min
        held = False
        for i in combo:
            if moved[i] < low:
                low = moved[i]
            held = held or parent[i] == initial
        if held and low == initial:
            low = min(moved)
        if low != initial:
            dx, dy = initial[0] - low[0], initial[1] - low[1]
            normalized = tuple([(x + dx, y + dy) for x, y in moved])
            inside = self.in_arena(normalized)
            return normalized, self.state_key(normalized) if inside else None
        codes = list(key)
        width, bases, bounds = self.arena_width, self.bases, self.anchor_bounds
        for i in combo:
            x, y = moved[i]
            x0, y0, x1, y1 = bounds[i]
            if not (x0 <= x <= x1 and y0 <= y <= y1):
                return moved, None
            px, py = parent[i]
            codes[codes.index(bases[i] + py * width + px)] = bases[i] + y * width + x
        codes.sort()
        return moved, tuple(codes)

    def _layout(self, state: tuple[Cell, ...]) -> list[int]:
        """Each piece's mask in the arena's frame; `state` lies in the arena."""
        stride = self.geometry[0]
        return [
            shape << y * stride + x + offset
            for shape, offset, (x, y) in zip(self.shapes, self.offsets, state)
        ]

    def _occupied(self, masks: list[int]) -> int:
        """The union of the masks, which may not overlap."""
        occupied = 0
        for mask in masks:
            occupied |= mask
        if occupied.bit_count() != self.cell_count:
            raise ValueError("the search needs pieces that do not overlap")
        return occupied

    def boards(self, state: tuple[Cell, ...]) -> tuple[int, ...]:
        """The boards of a state in the arena, built from its masks."""
        boards = [0] * len(self.fronts) + [self._occupied(self._layout(state))]
        for i, b in self.board_of.items():
            x, y = state[i]
            boards[b] |= 1 << y * self.geometry[0] + x - self.origin
        return tuple(boards)

    def relation(self, state: tuple[Cell, ...]) -> tuple:
        """The contact relation (`_touch`) of a state in the arena."""
        masks = self._layout(state)
        self._occupied(masks)
        rows = [[0] * len(masks) for _ in range(5)]
        return _touch(masks, self.geometry[0], range(len(masks)), rows)

    def relate(self, relation, parent, moved, child, combo) -> tuple:
        """`child`'s contact relation from its parent's, as `carry` takes
        boards: only `combo`'s pieces moved, and a drift moves all alike."""
        kept = ~sum(1 << p for p in combo)
        rows = [[bits & kept for bits in row] for row in (relation[0], *relation[1])]
        for row in rows:
            for p in combo:
                row[p] = 0
        return _touch(self._layout(child), self.geometry[0], combo, rows)

    def carry(self, boards, parent, moved, child, combo) -> tuple[int, ...]:
        """`child`'s boards from `parent`'s: `combo`'s bits move to their new
        anchors, the rest shift by the drift from `moved` (exact in the arena)."""
        stride = self.geometry[0]
        (mx, my), (cx, cy) = moved[combo[0]], child[combo[0]]
        drift = (cy - my) * stride + cx - mx
        boards = list(boards)
        for state in (parent, child):
            if state is child and drift:
                boards = [b << drift if drift > 0 else b >> -drift for b in boards]
            for i in combo:
                x, y = state[i]
                boards[-1] ^= self.shapes[i] << y * stride + x + self.offsets[i]
                if i in self.board_of:
                    boards[self.board_of[i]] ^= 1 << y * stride + x - self.origin
        return tuple(boards)

    def unit_moves(
        self, state: tuple[Cell, ...], cap: int, carried: tuple | None = None, made=None
    ) -> Iterator[tuple[tuple[int, ...], Direction, tuple[Cell, ...]]]:
        """(combo, direction, moved) per legal unit move of a state in the
        arena, by (size, combo, direction). `carried` is the state's contact
        relation above a limit of one and its boards at one; it is built if
        not given. The reverse of `made`, the (combo, direction) that made
        the state, is left out."""
        limit = min(cap, len(state))
        mover, back = (made[0], made[1].opposite) if made else ((), None)
        if limit > 1:
            touching, hits = carried or self.relation(state)
            # q's step along -d meets p exactly when p's step along d meets q
            closures = [
                _closures(hits[k], hits[k ^ 1], len(state), limit) for k in range(4)
            ]
            for combo, directions in _closed_sets(closures, touching, limit):
                for direction in directions:
                    if direction is not back or combo != mover:
                        yield combo, direction, _shifted(state, combo, direction)
            return
        boards = carried or self.boards(state)
        occupied, stride = boards[-1], self.geometry[0]
        raised, offsets, found = occupied << stride + 1, self.offsets, []
        for i, fronts in self.loners:
            x, y = state[i]
            near = raised >> y * stride + x + offsets[i]
            code = i << 2
            for front in fronts:
                if not near & front:
                    found.append(code)
                code += 1
        x0, y0 = self.corner
        for board, fronts in zip(boards, self.fronts):
            for k, shifts in enumerate(fronts):
                blocked = 0
                for shift in shifts:
                    blocked |= occupied >> shift if shift > 0 else occupied << -shift
                movers = board & ~blocked
                while movers:
                    low = movers & -movers
                    movers ^= low
                    y, x = divmod(low.bit_length() - 1, stride)
                    found.append(state.index((x + x0, y + y0)) << 2 | k)
        skip = mover[0] << 2 | DIRECTIONS.index(back) if made else -1
        for code in sorted(found):
            if code == skip:
                continue
            combo, direction = (code >> 2,), DIRECTIONS[code & 3]
            yield combo, direction, _shifted(state, combo, direction)

    def escape_at(
        self, state: tuple[Cell, ...], cap: int
    ) -> tuple[frozenset[str], Direction] | None:
        """First piece set whose slide to infinity clears everything else."""
        masks = self._layout(state)
        geometry = self.geometry
        occupied = self._occupied(masks)
        count = len(masks)
        # a proper set: the whole system drifting away is no escape, unless
        # it is one piece
        limit = min(cap, max(count - 1, 1))
        if limit == 1:
            for i, moving in enumerate(masks):
                others = occupied ^ moving
                for direction in DIRECTIONS:
                    if not _ray_fill(moving, direction, geometry, others) & others:
                        return frozenset((self.ids[i],)), direction
            return None
        # q's slide along -d meets p exactly when p's slide along d meets q,
        # so each row is built once for both of its directions
        rays = [_Rays(masks, d, geometry) for d in DIRECTIONS]
        closures = [_closures(rays[k], rays[k ^ 1], count, limit) for k in range(4)]
        if not any(map(any, closures)):
            return None
        touching, _ = self.relation(state)
        for combo, directions in _closed_sets(closures, touching, limit):
            if _connected(combo, touching):
                return frozenset(self.ids[i] for i in combo), directions[0]
        return None


def _rebuild_trace(states, state_key, ids) -> tuple[TraceMove, ...]:
    moves = []
    while True:
        parent, move = states[state_key]
        if parent is None:
            break
        combo, direction = move
        moves.append((frozenset(ids[i] for i in combo), direction))
        state_key = parent
    return tuple(reversed(moves))


def _explore(
    config: Configuration,
    budget: SearchBudget,
    goal: Callable,
    key_piece: str | None = None,
):
    """Shared BFS core; returns (status, payload, states_explored, trace).

    `goal(engine, state, cap)` is tested at every reached state.
    """
    cap = 1 if budget.mode == SINGLE_PIECE else DEFAULT_SUBSET_CAP
    engine = _Engine(config, budget.radius, key_piece=key_piece)
    start = engine.start
    start_key = engine.state_key(start)
    states = {start_key: (None, None)}
    payload = goal(engine, start, cap)
    if payload is not None:
        return "hit", payload, 1, ()

    build, update = engine.boards, engine.carry
    if min(cap, len(start)) > 1:
        build, update = engine.relation, engine.relate
    frontier = deque([(start_key, start, build(start), None)])
    while frontier:
        current, parent, carried, made = frontier.popleft()
        for combo, direction, moved in engine.unit_moves(parent, cap, carried, made):
            child, state_key = engine.child(current, parent, combo, moved)
            if state_key is None or state_key in states:
                continue
            if len(states) >= budget.max_states:
                return "out-of-budget", None, len(states), None
            move = combo, direction
            states[state_key] = current, move
            payload = goal(engine, child, cap)
            if payload is not None:
                trace = _rebuild_trace(states, state_key, engine.ids)
                return "hit", payload, len(states), trace
            following = update(carried, parent, moved, child, combo)
            frontier.append((state_key, child, following, move))
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

    status, payload, explored, trace = _explore(config, budget, _Engine.escape_at)
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

    def goal(engine, state, _cap):
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
    "replay_trace",
    "slide_dependency",
]
