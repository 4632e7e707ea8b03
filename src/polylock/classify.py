"""Monotonicity, orthogonal convexity, and pocket analysis for polyominoes.

Conventions used throughout:

* y-monotone: every occupied row is a contiguous run of cells (any
  horizontal line meets the shape in one interval);
* x-monotone: every occupied column is contiguous;
* orthogonally convex: both at once.

A pocket is a connected region of cells that the fill rule for one axis
adds to the shape, together with the one open side it keeps toward the
outside. The U-pentomino is the only pentomino that has one. The one gap
rule, `_gapped_lanes`, reads each lane's (lowest, highest, count) span:
monotonicity asks whether any lane fails it, `_fill_cells` fills the lanes
that fail, and `pockets` asks `grid.Lanes` which side of a fill component
no shape cell blocks.

`u_pocket` is the one U detector. It looks a placed piece up in a table,
built once at import, of the U's four normalised orientations, each with
its pocket cell and opening, so it builds no shape per query.
"""

from __future__ import annotations

from dataclasses import dataclass

from .grid import Cell, Direction, Lanes, Polyomino, neighbors
from .grid import canonical_free_form, fixed_orientations


class EnclosedHoleError(ValueError):
    """A fill component has no open side, i.e. the shape encloses a hole."""

    def __init__(self, cells: frozenset[Cell]):
        self.cells = cells
        super().__init__(
            f"fill component {sorted(cells)} is enclosed on both sides; "
            "the shape has an interior hole"
        )


@dataclass(frozen=True)
class MonotoneReport:
    x_monotone: bool
    y_monotone: bool
    orthogonally_convex: bool


@dataclass(frozen=True)
class Pocket:
    """Cells added by the fill rule, plus the side left open."""

    cells: frozenset[Cell]
    opening: Direction


def classify(shape: Polyomino) -> MonotoneReport:
    x_mono = not _gapped_lanes(shape.cells, "x")
    y_mono = not _gapped_lanes(shape.cells, "y")
    return MonotoneReport(x_mono, y_mono, x_mono and y_mono)


def _gapped_lanes(cells: frozenset[Cell], axis: str) -> list[tuple[int, int, int]]:
    """(lane, lowest, highest) of each row (axis 'y') or column (axis 'x')
    whose distinct cells are not one interval: highest - lowest >= count."""
    if axis not in ("x", "y"):
        raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")
    spans: dict[int, list[int]] = {}  # lane -> [lowest, highest, count]
    for x, y in cells:
        lane, at = (y, x) if axis == "y" else (x, y)
        span = spans.get(lane)
        if span is None:
            spans[lane] = [at, at, 1]
            continue
        if at < span[0]:
            span[0] = at
        elif at > span[1]:
            span[1] = at
        span[2] += 1
    return [(lane, low, high) for lane, (low, high, n) in spans.items() if high - low >= n]


def _fill_cells(cells: frozenset[Cell], axis: str) -> set[Cell]:
    """Cells the contiguity fill adds: row gaps for axis 'y', column gaps for 'x'."""
    added: set[Cell] = set()
    for lane, low, high in _gapped_lanes(cells, axis):
        for v in range(low + 1, high):
            cell = (v, lane) if axis == "y" else (lane, v)
            if cell not in cells:
                added.add(cell)
    return added


def pockets(shape: Polyomino, axis: str) -> list[Pocket]:
    """Connected fill components for `axis`, each with its opening direction.

    Empty exactly when the shape is monotone in that axis. A component open
    on neither side means the shape encloses a hole, which is an error.
    """
    added = _fill_cells(shape.cells, axis)  # rejects a bad axis
    pos, neg = Direction.parse("+" + axis), Direction.parse("-" + axis)
    out: list[Pocket] = []
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
        # exact: fill cells are never shape cells
        lanes = Lanes({"shape": shape.cells, "pocket": component}, axis)
        pos_open = not lanes.blockers(("pocket",), 1)
        neg_open = not lanes.blockers(("pocket",), -1)
        if not pos_open and not neg_open:
            raise EnclosedHoleError(frozenset(component))
        # fill components sit between shape cells in their lane, so at most
        # one perpendicular side can be open
        assert not (pos_open and neg_open), (shape.cells, component)
        out.append(
            Pocket(cells=frozenset(component), opening=pos if pos_open else neg)
        )
    out.sort(key=lambda p: min(p.cells))
    return out


#: Canonical free form of the U-pentomino.
U_PENTOMINO = canonical_free_form(
    Polyomino(frozenset({(0, 0), (1, 0), (2, 0), (0, 1), (2, 1)}))
)


def _u_pocket_table() -> dict[frozenset[Cell], tuple[Cell, Direction]]:
    """Each normalised orientation of the U, with its pocket cell and opening."""
    table = {}
    for shape in fixed_orientations(U_PENTOMINO):
        (pocket,) = pockets(shape, "x") + pockets(shape, "y")
        (cell,) = pocket.cells
        table[shape.cells] = (cell, pocket.opening)
    return table


_U_POCKETS = _u_pocket_table()


def u_pocket(cells: frozenset[Cell]) -> tuple[Cell, Direction] | None:
    """Pocket cell and world opening of a placed U-pentomino, else None."""
    if len(cells) != 5:
        return None
    min_x = min(x for x, _ in cells)
    min_y = min(y for _, y in cells)
    found = _U_POCKETS.get(frozenset((x - min_x, y - min_y) for x, y in cells))
    if found is None:
        return None
    (x, y), opening = found
    return (x + min_x, y + min_y), opening


def monotone_closure(cells: frozenset[Cell], axis: str) -> frozenset[Cell]:
    """The shape plus its fill cells for `axis`."""
    return frozenset(cells | _fill_cells(cells, axis))


__all__ = [
    "EnclosedHoleError",
    "MonotoneReport",
    "Pocket",
    "U_PENTOMINO",
    "classify",
    "monotone_closure",
    "pockets",
    "u_pocket",
]
