"""Answer checks for the benchmark, written apart from ``polylock``.

Nothing here imports the package under test. Every check recomputes what
an answer must satisfy from the piece cells alone and raises `CheckError`
when the answer does not. Pieces are dicts of piece id -> list of (x, y)
cells; directions are the CLI tokens "+x", "-x", "+y", "-y".
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ElementTree

#: Side of one grid cell in SVG user units, part of the documented drawing.
CELL = 20

#: Free polyomino counts for n = 1..8 (OEIS A000105).
FREE_COUNTS = {1: 1, 2: 1, 3: 2, 4: 5, 5: 12, 6: 35, 7: 108, 8: 369}

STEP = {"+x": (1, 0), "-x": (-1, 0), "+y": (0, 1), "-y": (0, -1)}

_MOVE_LINE = re.compile(r"move (\d+): (\S+) ([+-][xy])$")


class CheckError(AssertionError):
    """An answer that fails an independent check."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def neighbours(cell):
    x, y = cell
    return ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1))


def contiguous(cells, axis: str) -> bool:
    """Axis "y": every row is one run of cells; axis "x": every column is."""
    lanes = {}
    for x, y in cells:
        lane, along = (y, x) if axis == "y" else (x, y)
        lanes.setdefault(lane, []).append(along)
    return all(max(v) - min(v) + 1 == len(v) for v in lanes.values())


def is_orthogonally_convex(cells) -> bool:
    return contiguous(cells, "x") and contiguous(cells, "y")


def components(cells):
    """4-connected components of a cell set, as frozensets."""
    left = set(cells)
    found = []
    while left:
        stack = [left.pop()]
        part = set(stack)
        while stack:
            for nb in neighbours(stack.pop()):
                if nb in left:
                    left.remove(nb)
                    part.add(nb)
                    stack.append(nb)
        found.append(frozenset(part))
    return found


# --- sweeps, plans, cycles and traces -------------------------------------


def lane_blocked(movers, obstacles, direction: str) -> bool:
    """Would `movers` hit `obstacles` sliding arbitrarily far in `direction`?

    Per lane (row for x moves, column for y moves) the movers are blocked
    exactly when some obstacle cell lies ahead of the rearmost mover cell.
    """
    dx, dy = STEP[direction]
    rear = {}
    for x, y in movers:
        lane, along = (y, x * dx) if dx else (x, y * dy)
        if lane not in rear or along < rear[lane]:
            rear[lane] = along
    for x, y in obstacles:
        lane, along = (y, x * dx) if dx else (x, y * dy)
        if lane in rear and along > rear[lane]:
            return True
    return False


def parse_moves(lines):
    """[(piece ids, direction)] from the CLI's numbered "move" lines."""
    moves = []
    for line in lines:
        match = _MOVE_LINE.fullmatch(line)
        require(match is not None, f"not a move line: {line!r}")
        require(int(match.group(1)) == len(moves) + 1, f"move out of order: {line!r}")
        moves.append((tuple(match.group(2).split("+")), match.group(3)))
    return moves


def check_plan(pieces, moves, direction=None) -> None:
    """Replay a separation plan: every piece leaves exactly once, unblocked."""
    moved = [pid for ids, _ in moves for pid in ids]
    require(len(moved) == len(set(moved)), "a piece leaves twice")
    require(set(moved) == set(pieces), "plan does not remove every piece")
    remaining = set(pieces)
    for number, (ids, step) in enumerate(moves, start=1):
        require(direction is None or step == direction, f"move {number} turns {step}")
        remaining.difference_update(ids)
        movers = [cell for pid in ids for cell in pieces[pid]]
        obstacles = [cell for pid in remaining for cell in pieces[pid]]
        require(
            not lane_blocked(movers, obstacles, step),
            f"move {number} ({'+'.join(ids)} {step}) is blocked",
        )


def check_cycle(pieces, direction: str, cycle) -> None:
    """Each entry must be blocked by the next one, wrapping around."""
    require(len(cycle) >= 2, "a blocking cycle needs two pieces")
    require(len(set(cycle)) == len(cycle), "cycle repeats a piece")
    require(set(cycle) <= set(pieces), "cycle names an unknown piece")
    for here, ahead in zip(cycle, cycle[1:] + cycle[:1]):
        require(
            lane_blocked(pieces[here], pieces[ahead], direction),
            f"{here} is not blocked by {ahead} in {direction}",
        )


def check_trace(pieces, key: str, moves, displacement) -> None:
    """Replay unit moves rigidly; the key must end at `displacement`.

    The displacement is read after shifting the whole board so that its
    lexicographically least cell is back where it started.
    """
    board = {pid: set(cells) for pid, cells in pieces.items()}
    start_min = min(cell for cells in board.values() for cell in cells)
    key_start = min(board[key])
    for number, (ids, step) in enumerate(moves, start=1):
        require(set(ids) <= set(board), f"move {number} names an unknown piece")
        dx, dy = STEP[step]
        stepped = {(x + dx, y + dy) for pid in ids for x, y in board[pid]}
        others = set().union(*(board[pid] for pid in board if pid not in ids))
        require(not stepped & others, f"move {number} steps onto another piece")
        for pid in ids:
            board[pid] = {(x + dx, y + dy) for x, y in board[pid]}
    end_min = min(cell for cells in board.values() for cell in cells)
    shift = (start_min[0] - end_min[0], start_min[1] - end_min[1])
    key_end = min(board[key])
    reached = (
        key_end[0] + shift[0] - key_start[0],
        key_end[1] + shift[1] - key_start[1],
    )
    require(reached == tuple(displacement), f"key ends at {reached}, not {displacement}")


def dependency_closure(pieces, piece: str, direction: str):
    """The piece plus everything its unit push transitively runs into."""
    dx, dy = STEP[direction]
    owner = {cell: pid for pid, cells in pieces.items() for cell in cells}
    closure = {piece}
    stack = [piece]
    while stack:
        for x, y in pieces[stack.pop()]:
            other = owner.get((x + dx, y + dy))
            if other is not None and other not in closure:
                closure.add(other)
                stack.append(other)
    return closure


# --- shapes: classification, pockets, enumeration -------------------------


def fill_components(cells, axis: str):
    """Gap components for one axis, each with its open sides.

    Axis "y" fills row gaps and looks for openings along +y/-y; axis "x"
    fills column gaps and looks along +x/-x. Returns [(cells, open sides)].
    """
    shape = set(cells)
    lanes = {}
    for x, y in shape:
        lane, along = (y, x) if axis == "y" else (x, y)
        lanes.setdefault(lane, []).append(along)
    gaps = set()
    for lane, values in lanes.items():
        for along in range(min(values) + 1, max(values)):
            cell = (along, lane) if axis == "y" else (lane, along)
            if cell not in shape:
                gaps.add(cell)
    sides = ("+y", "-y") if axis == "y" else ("+x", "-x")
    return [
        (part, tuple(s for s in sides if not lane_blocked(part, shape, s)))
        for part in components(gaps)
    ]


_CELL_TOKEN = re.compile(r"\((-?\d+),(-?\d+)\)")


def _cells_of(text: str):
    return frozenset((int(x), int(y)) for x, y in _CELL_TOKEN.findall(text))


def check_classify(pieces, lines) -> None:
    """Flags by the checker's contiguity test; pockets by its own fill."""
    at = 0
    for pid in sorted(pieces):
        cells = pieces[pid]
        yn = lambda flag: "yes" if flag else "no"
        x_ok, y_ok = contiguous(cells, "x"), contiguous(cells, "y")
        expected = (
            f"piece {pid}: x-monotone {yn(x_ok)}, y-monotone {yn(y_ok)}, "
            f"orthogonally-convex {yn(x_ok and y_ok)}"
        )
        require(at < len(lines) and lines[at] == expected, f"classify line for {pid}")
        at += 1
        for axis in ("x", "y"):
            found = fill_components(cells, axis)
            closed = [part for part, sides in found if not sides]
            got = []
            while at < len(lines) and lines[at].startswith(
                (f"  pocket axis={axis} ", f"  enclosed hole blocking axis {axis}:")
            ):
                got.append(lines[at])
                at += 1
            if closed:
                require(len(got) == 1, f"{pid}: one enclosed-hole line on {axis}")
                require(
                    _cells_of(got[0].split(":", 1)[1]) in closed,
                    f"{pid}: enclosed hole on {axis} is not a closed gap",
                )
                continue
            want = set()
            for part, sides in found:
                require(len(sides) == 1, f"{pid}: gap open on both sides")
                want.add((sides[0], part))
            seen = set()
            for line in got:
                match = re.fullmatch(
                    rf"  pocket axis={axis} opening=([+-][xy]) cells=(.*)", line
                )
                require(match is not None, f"{pid}: bad pocket line {line!r}")
                seen.add((match.group(1), _cells_of(match.group(2))))
            require(len(seen) == len(got) and seen == want, f"{pid}: pockets on {axis}")
    require(at == len(lines), "classify prints lines for unknown pieces")


def pocket_cell_count(pieces) -> int:
    """Shaded cells `render --annotate pockets` must draw."""
    total = 0
    for cells in pieces.values():
        for axis in ("x", "y"):
            found = fill_components(cells, axis)
            if all(sides for _, sides in found):
                total += sum(len(part) for part, _ in found)
    return total


def _normal(cells):
    mx = min(x for x, _ in cells)
    my = min(y for _, y in cells)
    return tuple(sorted((x - mx, y - my) for x, y in cells))


def free_form(cells):
    """One representative per shape up to rotation and reflection."""
    images = []
    for flip in (False, True):
        current = [(-x, y) for x, y in cells] if flip else list(cells)
        for _ in range(4):
            current = [(y, -x) for x, y in current]
            images.append(_normal(current))
    return min(images)


def free_polyominoes(n: int):
    """All free n-ominoes as free forms, grown cell by cell from fixed ones."""
    fixed = {((0, 0),)}
    for _ in range(n - 1):
        fixed = {
            _normal(shape + (nb,))
            for shape in fixed
            for cell in shape
            for nb in neighbours(cell)
            if nb not in shape
        }
    found = {free_form(shape) for shape in fixed}
    require(len(found) == FREE_COUNTS[n], f"checker counts {len(found)} {n}-ominoes")
    return found


def check_enumerate(expected, keep, lines) -> None:
    """The printed shapes are exactly the expected free forms, each kept."""
    require(lines and lines[0].isdigit(), "enumerate prints a count first")
    blocks, block = [], []
    for line in lines[1:] + [""]:
        if line:
            block.append(line)
        elif block:
            blocks.append(block)
            block = []
    require(int(lines[0]) == len(blocks), "count differs from shapes printed")
    shapes = []
    for rows in blocks:
        cells = [
            (x, len(rows) - 1 - y)
            for y, row in enumerate(rows)
            for x, char in enumerate(row)
            if char != "."
        ]
        require(keep(cells), f"printed shape fails the filter: {rows}")
        shapes.append(free_form(cells))
    require(len(set(shapes)) == len(shapes), "a shape is printed twice")
    require(set(shapes) == expected, "printed shapes differ from the checker's")


# --- SVG -------------------------------------------------------------------


def _loops(path_data: str):
    tokens = path_data.replace("M", " M ").replace("L", " L ").replace("Z", " Z ").split()
    loops, current, at = [], None, 0
    while at < len(tokens):
        token = tokens[at]
        if token in ("M", "L"):
            point = (float(tokens[at + 1]), float(tokens[at + 2]))
            if token == "M":
                current = [point]
                loops.append(current)
            else:
                current.append(point)
            at += 3
        elif token == "Z":
            at += 1
        else:
            raise CheckError(f"unexpected path token {token!r}")
    return loops


def even_odd_area(path_data: str) -> float:
    """Area the even-odd rule fills for a path of axis-parallel loops."""
    vertical = []
    for loop in _loops(path_data):
        for (x1, y1), (x2, y2) in zip(loop, loop[1:] + loop[:1]):
            require(x1 == x2 or y1 == y2, "path edge is not axis-parallel")
            if x1 == x2 and y1 != y2:
                vertical.append((x1, min(y1, y2), max(y1, y2)))
    levels = sorted({y for _, lo, hi in vertical for y in (lo, hi)})
    area = 0.0
    for low, high in zip(levels, levels[1:]):
        middle = (low + high) / 2
        xs = sorted(x for x, lo, hi in vertical if lo < middle < hi)
        area += (high - low) * sum(xs[i + 1] - xs[i] for i in range(0, len(xs) - 1, 2))
    return area


def check_svg(text: str, pieces, arrows: int, pocket_cells: int) -> None:
    """One filled path per piece with the right area, plus its annotations."""
    root = ElementTree.fromstring(text.encode("utf-8"))
    local = lambda element: element.tag.rsplit("}", 1)[-1]
    defs = {id(e) for d in root.iter() if local(d) == "defs" for e in d.iter()}
    drawn = [e for e in root.iter() if id(e) not in defs]
    paths = [e for e in drawn if local(e) == "path"]
    require(len(paths) == len(pieces), f"{len(paths)} piece paths for {len(pieces)} pieces")
    areas = sorted(even_odd_area(e.get("d")) for e in paths)
    sizes = sorted(len(cells) * CELL * CELL for cells in pieces.values())
    require(areas == sizes, "piece path areas differ from the cell counts")
    labels = sorted(e.text for e in drawn if local(e) == "text" and e.text in pieces)
    require(labels == sorted(pieces), "piece labels differ from the piece ids")
    lines = [e for e in drawn if local(e) == "line" and e.get("marker-end")]
    require(len(lines) == arrows, f"{len(lines)} arrows for {arrows} moves")
    rects = [e for e in drawn if local(e) == "rect"]
    require(len(rects) == pocket_cells, f"{len(rects)} shaded cells, not {pocket_cells}")
