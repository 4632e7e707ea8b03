"""Integer-grid polyominoes, configurations of them, and axis-aligned slide tests.

Cells are (x, y) pairs with y increasing upward. A polyomino is a finite,
non-empty, 4-connected set of cells; congruence allows the four rotations
and reflection. All motion elsewhere in the package is axis-aligned
translation by whole cells, so the continuous sweep of a piece reduces to
checking the integer stations along the way.

`Polyomino(...)` checks every cell; the shapes derived from a valid one
(`canonical_free_form`, `fixed_orientations`, `enumerate_free`) are built
unchecked by `_trusted`. Symmetry images are
compared as integer keys (`_image_keys`), whose largest value is the
canonical free form, and enumeration dedups on them.

A `Configuration` is its pieces' world cells keyed by id, plus the owner
of every occupied cell; pieces are never stored as a shape and an offset.

`Lanes` is the slide kernel: it answers whom a rigid set hits when slid
to infinity. `Configuration.blockers` asks it on the whole board, and is
the one slide query of `separation`; `classify.pockets` asks it on a
shape and one fill component. (`search` tests its slides on per-state
bitboards instead.) `Configuration.owner` is the one cell -> piece
lookup. `sweep_collides` is the pairwise reference oracle the tests
check `Lanes` against; no other module calls it.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from enum import Enum
from typing import Collection, Hashable, Iterable, Iterator, Mapping

Cell = tuple[int, int]

MAX_ENUMERATION_CELLS = 10


class OverlapError(ValueError):
    """Two pieces of a configuration claim the same cell."""

    def __init__(self, piece_a: str, piece_b: str, cell: Cell):
        self.piece_a = piece_a
        self.piece_b = piece_b
        self.cell = cell
        super().__init__(
            f"pieces {piece_a!r} and {piece_b!r} overlap at cell {cell}"
        )


class Direction(Enum):
    """One of the four axis directions, written +x, -x, +y, -y."""

    POS_X = (1, 0)
    NEG_X = (-1, 0)
    POS_Y = (0, 1)
    NEG_Y = (0, -1)

    def __init__(self, dx: int, dy: int):
        # Plain attributes: the sweep kernels read these in their inner loops.
        self.dx = dx
        self.dy = dy
        self.axis = "x" if dx != 0 else "y"
        self.sign = dx + dy

    @property
    def opposite(self) -> "Direction":
        return Direction((-self.value[0], -self.value[1]))

    @classmethod
    def parse(cls, token: str) -> "Direction":
        try:
            return _DIRECTION_TOKENS[token.strip().lower()]
        except KeyError:
            raise ValueError(
                f"unknown direction {token!r}; expected one of +x, -x, +y, -y"
            ) from None

    def __str__(self) -> str:
        return ("+" if self.sign > 0 else "-") + self.axis


_DIRECTION_TOKENS = {
    "+x": Direction.POS_X,
    "-x": Direction.NEG_X,
    "+y": Direction.POS_Y,
    "-y": Direction.NEG_Y,
}

#: Canonical iteration order for the four directions.
DIRECTIONS = (Direction.POS_X, Direction.NEG_X, Direction.POS_Y, Direction.NEG_Y)


def neighbors(cell: Cell) -> Iterator[Cell]:
    x, y = cell
    yield x + 1, y
    yield x - 1, y
    yield x, y + 1
    yield x, y - 1


def is_connected(cells: Iterable[Cell]) -> bool:
    """True when the cell set is 4-connected (empty sets are not)."""
    unseen = set(cells)
    if not unseen:
        return False
    stack = [unseen.pop()]
    while stack:
        x, y = stack.pop()
        for nb in (x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1):
            if nb in unseen:
                unseen.remove(nb)
                stack.append(nb)
    return not unseen


@dataclass(frozen=True)
class Polyomino:
    """An immutable 4-connected set of grid cells."""

    cells: frozenset[Cell]

    def __post_init__(self):
        if not self.cells:
            raise ValueError("a polyomino needs at least one cell")
        for cell in self.cells:
            if (
                not isinstance(cell, tuple)
                or len(cell) != 2
                or not all(isinstance(c, int) and not isinstance(c, bool) for c in cell)
            ):
                raise ValueError(f"cell {cell!r} is not an (int, int) pair")
        if not is_connected(self.cells):
            raise ValueError(f"cells are not edge-connected: {sorted(self.cells)}")

    @classmethod
    def from_cells(cls, cells: Iterable[Cell]) -> "Polyomino":
        return cls(frozenset(cells))

    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self) -> Iterator[Cell]:
        return iter(self.cells)

    @property
    def min_x(self) -> int:
        return min(x for x, _ in self.cells)

    @property
    def min_y(self) -> int:
        return min(y for _, y in self.cells)

    @property
    def max_x(self) -> int:
        return max(x for x, _ in self.cells)

    @property
    def max_y(self) -> int:
        return max(y for _, y in self.cells)

    def sorted_cells(self) -> tuple[Cell, ...]:
        return tuple(sorted(self.cells))


def translate_cells(cells: Iterable[Cell], dx: int, dy: int) -> frozenset[Cell]:
    return frozenset((x + dx, y + dy) for x, y in cells)


def _trusted(cells: frozenset[Cell]) -> Polyomino:
    """A Polyomino from a translate or symmetry image of a valid one, unchecked."""
    shape = object.__new__(Polyomino)
    object.__setattr__(shape, "cells", cells)
    return shape


def _image_bits(x: int, y: int, w: int, h: int, s: int) -> tuple[int, ...]:
    """Where cell (x, y) of the box [0, w] x [0, h] lands in each of the 8
    symmetry images, as the bit index s*s - a*s - b of image cell (a, b)."""
    images = (x, y), (w - x, y), (x, h - y), (w - x, h - y)
    images += (y, x), (h - y, x), (y, w - x), (h - y, w - x)
    return tuple(s * s - a * s - b for a, b in images)


@functools.lru_cache(maxsize=None)
def _box_table(w: int, h: int) -> dict[Cell, tuple[int, ...]]:
    """Each cell's 8 image bits as ints, for one of the at most 100 boxes
    within the enumeration range."""
    return {
        (x, y): tuple(1 << i for i in _image_bits(x, y, w, h, MAX_ENUMERATION_CELLS))
        for x in range(w + 1)
        for y in range(h + 1)
    }


def _image_keys(cells: Collection[Cell]) -> tuple[int, list[int]]:
    """The stride s and the integer keys of a shape's 8 normalised images.

    An image's key has the bit s*s - a*s - b set for each of its cells (a, b),
    with s above every coordinate. Of two images of one shape, the one whose
    sorted cell tuple is lexicographically smaller has the larger key, so the
    largest key is the canonical free form. Boxes within the enumeration
    range share the stride `MAX_ENUMERATION_CELLS`, so the keys of all shapes
    of up to that many cells compare, and sum ints from a cached table; a
    wider box sets its bits in byte arrays, in time and space O(s*s / 8).
    """
    xs, ys = zip(*cells)
    mx, my = min(xs), min(ys)
    w, h = max(xs) - mx, max(ys) - my
    s = max(MAX_ENUMERATION_CELLS, w + 1, h + 1)
    if s == MAX_ENUMERATION_CELLS:
        table = _box_table(w, h)
        return s, list(map(sum, zip(*[table[x - mx, y - my] for x, y in cells])))
    bitmaps = [bytearray(s * s // 8 + 1) for _ in range(8)]
    for x, y in cells:
        for bitmap, i in zip(bitmaps, _image_bits(x - mx, y - my, w, h, s)):
            bitmap[i >> 3] |= 1 << (i & 7)
    return s, [int.from_bytes(bitmap, "little") for bitmap in bitmaps]


def _decode(key: int, s: int) -> frozenset[Cell]:
    """The cells of an image key with stride s."""
    bits = f"{key:b}"  # bit s*s - v, for v = a*s + b, is character v - base
    base = s * s + 1 - len(bits)
    return frozenset(divmod(base + one.start(), s) for one in re.finditer("1", bits))


def canonical_free_form(shape: Polyomino) -> Polyomino:
    """The least normalized image over the 8 symmetries (4 rotations x flip),
    as sorted cell tuples: the largest of `_image_keys`.

    Congruent shapes map to equal values, so this is the dedup key for
    counting shapes "up to rotation and reflection".
    """
    s, keys = _image_keys(shape.cells)
    return _trusted(_decode(max(keys), s))


def fixed_orientations(shape: Polyomino) -> list[Polyomino]:
    """The distinct placements of a shape under rotation and reflection.

    Between 1 and 8 normalized shapes depending on the shape's symmetry,
    ordered by sorted cell tuple.
    """
    s, keys = _image_keys(shape.cells)
    return [_trusted(_decode(key, s)) for key in sorted(set(keys), reverse=True)]


def enumerate_free(n: int) -> list[Polyomino]:
    """All free polyominoes with n cells, in canonical free form, ordered by
    sorted cell tuple (descending key order).

    Grows each (n-1)-cell representative by every neighbouring cell and dedups
    on the integer canonical key. Capped at 10 cells to keep runtime sane.
    """
    if not isinstance(n, int) or not 1 <= n <= MAX_ENUMERATION_CELLS:
        raise ValueError(
            f"cell count must be an integer in 1..{MAX_ENUMERATION_CELLS}, got {n!r}"
        )
    s = MAX_ENUMERATION_CELLS
    level = {max(_image_keys([(0, 0)])[1])}
    for _ in range(n - 1):
        grown = set()
        for key in level:
            rep = _decode(key, s)
            for nb in {nb for cell in rep for nb in neighbors(cell)} - rep:
                grown.add(max(_image_keys([*rep, nb])[1]))
        level = grown
    return [_trusted(_decode(key, s)) for key in sorted(level, reverse=True)]


def _check_disjoint(cells_by_id: Mapping[str, Iterable[Cell]]) -> dict[Cell, str]:
    """The owner of every cell of disjoint pieces.

    On an overlap the error names the later piece's smallest cell that an
    earlier piece owns, and that owner.
    """
    claimed: dict[Cell, str] = {}
    for piece_id, cells in cells_by_id.items():
        for cell in cells:
            if claimed.setdefault(cell, piece_id) != piece_id:
                shared = min(c for c in cells if claimed.get(c, piece_id) != piece_id)
                raise OverlapError(claimed[shared], piece_id, shared)
    return claimed


class Configuration:
    """Interior-disjoint polyominoes, each a set of world cells keyed by id.

    A configuration holds each piece's cells and the owner of every
    occupied cell, so `cells_of` and `owner` are dict lookups, and builds
    one `Lanes` index per axis the first time `blockers` asks along it.
    Two configurations are equal when they hold the same ids with the same
    cells; the owner map and the lane indexes take no part in equality,
    hashing or `repr`.

    Each check runs once. `from_cell_map` checks every piece (`Polyomino`)
    and the overlaps, and `formats` checks a parsed file itself, so that its
    errors carry line numbers. Both then hand the checked world cells and
    owner map to `_from_world`, which checks nothing and keeps them as they
    are.
    """

    __slots__ = ("_cells", "_owners", "_lanes")

    @classmethod
    def from_cell_map(
        cls, cells_by_id: Mapping[str, Iterable[Cell]]
    ) -> "Configuration":
        # `Polyomino` is the one check of each piece's cells
        world = {
            piece_id: Polyomino(frozenset(cells)).cells
            for piece_id, cells in cells_by_id.items()
        }
        return cls._from_world(world, _check_disjoint(world))

    @classmethod
    def _from_world(
        cls, cells_by_id: dict[str, frozenset[Cell]], owners: dict[Cell, str]
    ) -> "Configuration":
        """A configuration from checked pieces, unchecked.

        Each value of `cells_by_id` must be a valid polyomino's world cells,
        the pieces disjoint, and `owners` map each of their cells to its
        piece. Both dicts are kept, not copied.
        """
        config = object.__new__(cls)
        config._cells = cells_by_id
        config._owners = owners
        config._lanes = {}
        return config

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Configuration):
            return NotImplemented
        return self._cells == other._cells

    def __hash__(self) -> int:
        return hash(frozenset(self._cells.items()))

    def __repr__(self) -> str:
        cells = {pid: sorted(cells) for pid, cells in self._cells.items()}
        return f"Configuration.from_cell_map({cells!r})"

    def __len__(self) -> int:
        return len(self._cells)

    def piece_ids(self) -> tuple[str, ...]:
        return tuple(self._cells)

    def cells_of(self, piece_id: str) -> frozenset[Cell]:
        try:
            return self._cells[piece_id]
        except KeyError:
            raise KeyError(f"no piece {piece_id!r} in configuration") from None

    def cell_map(self) -> dict[str, frozenset[Cell]]:
        return dict(self._cells)

    def owner(self, cell: Cell) -> str | None:
        """The id of the piece occupying `cell`, or None when it is empty."""
        return self._owners.get(cell)

    def blockers(self, piece_ids: Iterable[str], direction: Direction) -> set[str]:
        """The other pieces that the rigid union of `piece_ids` hits when it
        slides to infinity in `direction`.

        Every piece of the configuration counts: a caller that takes pieces
        off the board intersects the answer with the ones still on it, which
        is exact because each piece is hit or not on its own.
        """
        lanes = self._lanes.get(direction.axis)
        if lanes is None:
            lanes = self._lanes[direction.axis] = Lanes(self._cells, direction.axis)
        return lanes.blockers(piece_ids, direction.sign)

    def bounding_box(self) -> tuple[int, int, int, int]:
        """(min_x, min_y, max_x, max_y) over all occupied cells."""
        if not self._owners:
            raise ValueError("empty configuration has no bounding box")
        xs, ys = zip(*self._owners)
        return min(xs), min(ys), max(xs), max(ys)


def occupied_cells(config: Configuration) -> frozenset[Cell]:
    """Union of all piece cells, read from the owner index."""
    return frozenset(config._owners)


def sweep_collides(
    mover: Iterable[Cell],
    obstacle: Iterable[Cell],
    direction: Direction,
    distance: float = math.inf,
) -> bool:
    """Does translating `mover` by t*direction for t in (0, distance] hit `obstacle`?

    For axis moves on unit cells the continuous sweep intersects the obstacle
    exactly when one of the integer stations 1..distance does, so the test is
    purely combinatorial. `distance` is a positive integer or math.inf.
    """
    if distance != math.inf and (
        not isinstance(distance, int) or isinstance(distance, bool) or distance < 1
    ):
        raise ValueError(f"distance must be a positive integer or math.inf, got {distance!r}")
    mover = set(mover)
    obstacle = set(obstacle)
    shared = mover & obstacle
    if shared:
        raise ValueError(f"mover and obstacle overlap at {sorted(shared)[0]}")

    # Measure progress along the move direction; group by the cross coordinate.
    if direction.axis == "x":
        along = lambda c: c[0] * direction.sign
        across = lambda c: c[1]
    else:
        along = lambda c: c[1] * direction.sign
        across = lambda c: c[0]

    lanes: dict[int, list[int]] = {}
    for cell in obstacle:
        lanes.setdefault(across(cell), []).append(along(cell))
    for cell in mover:
        lane = lanes.get(across(cell))
        if lane is None:
            continue
        u = along(cell)
        for v in lane:
            if 0 < v - u <= distance:
                return True
    return False


class Lanes:
    """Per-lane extents of disjoint pieces, for slides to infinity along one axis.

    A lane is a row when `axis` is "x" and a column when it is "y". For each
    lane the index keeps, for every piece with cells in it, the lowest and
    highest coordinate of those cells along the axis. Pieces are keyed by
    any hashable id.

    Sliding a rigid set of pieces in the + sign hits another piece Y exactly
    when some lane holds both and Y's highest cell there lies above the set's
    lowest cell there; the - sign mirrors this with Y's lowest cell below
    the set's highest. The rule is exact because the cells are disjoint: the
    set's lowest cell in that lane passes through Y's highest one, and
    conversely any hit happens in some lane shared by a moving cell and a
    cell of Y ahead of it. So one index answers both signs of its axis, and
    `blockers` equals the set of pieces for which `sweep_collides` on the
    union reports a hit; `sweep_collides` stays the reference oracle.

    An index is read-only once built. `Configuration.blockers` builds one
    per axis over the whole board and keeps it; `classify.pockets` builds
    one from a shape and one fill component to find the open side.
    """

    def __init__(self, cells_by_id: Mapping[Hashable, Iterable[Cell]], axis: str):
        if axis not in ("x", "y"):
            raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")
        # piece id -> {lane: (lowest, highest)}, and the same by lane first
        self._extents: dict[Hashable, dict[int, tuple[int, int]]] = {}
        self._lanes: dict[int, dict[Hashable, tuple[int, int]]] = {}
        for piece_id, cells in cells_by_id.items():
            extents: dict[int, tuple[int, int]] = {}
            for x, y in cells:
                lane, at = (y, x) if axis == "x" else (x, y)
                low, high = extents.get(lane, (at, at))
                extents[lane] = (min(low, at), max(high, at))
            self._extents[piece_id] = extents
            for lane, extent in extents.items():
                self._lanes.setdefault(lane, {})[piece_id] = extent

    def blockers(self, piece_ids: Iterable[Hashable], sign: int) -> set:
        """The other pieces that the rigid union of `piece_ids` hits.

        The union slides to infinity along the axis, towards increasing
        coordinates when `sign` is +1 and decreasing ones when it is -1.
        """
        movers = set(piece_ids)
        rear: dict[int, int] = {}
        for piece_id in movers:
            for lane, (low, high) in self._extents[piece_id].items():
                edge = low if sign > 0 else high
                held = rear.get(lane)
                if held is None or (edge < held if sign > 0 else edge > held):
                    rear[lane] = edge
        hit = set()
        for lane, edge in rear.items():
            for other, (low, high) in self._lanes[lane].items():
                if (high > edge if sign > 0 else low < edge) and other not in movers:
                    hit.add(other)
        return hit
