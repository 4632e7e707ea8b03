"""Deterministic SVG rendering of configurations and annotations.

Output depends only on the inputs: pieces are drawn in sorted id order
with a fixed palette, there are no timestamps and no randomness, so
byte-identical inputs give byte-identical documents. Each piece becomes
one filled path whose outline (and interior holes, via the even-odd
rule) is traced along the cell boundary.
"""

from __future__ import annotations

from xml.sax.saxutils import escape

from .grid import Cell, Configuration, Direction
from .separation import SeparationPlan

CELL = 20
PAD = 10

PALETTE = (
    "#4e79a7",
    "#f28e2b",
    "#e15759",
    "#76b7b2",
    "#59a14f",
    "#edc948",
    "#b07aa1",
    "#ff9da7",
    "#9c755f",
    "#bab0ac",
    "#86bcb6",
    "#d37295",
)

_ARROW_DEFS = (
    '<defs><marker id="arrow" viewBox="0 0 10 10" refX="9" refY="5" '
    'markerWidth="6" markerHeight="6" orient="auto">'
    '<path d="M 0 0 L 10 5 L 0 10 z" fill="#111111"/></marker></defs>'
)


def _boundary_loops(cells: frozenset[Cell]) -> list[list[Cell]]:
    """Closed vertex loops around a cell set, piece kept on the left."""
    edges: dict[Cell, list[Cell]] = {}
    for x, y in cells:
        if (x, y - 1) not in cells:
            edges.setdefault((x, y), []).append((x + 1, y))
        if (x + 1, y) not in cells:
            edges.setdefault((x + 1, y), []).append((x + 1, y + 1))
        if (x, y + 1) not in cells:
            edges.setdefault((x + 1, y + 1), []).append((x, y + 1))
        if (x - 1, y) not in cells:
            edges.setdefault((x, y + 1), []).append((x, y))

    loops = []
    while edges:
        start = min(edges)
        loop = [start]
        vertex = start
        incoming = None
        while True:
            outs = edges[vertex]
            if incoming is None or len(outs) == 1:
                step = min(outs)
            else:
                # at a pinch vertex, turn as far left as possible so the
                # walk stays on one contour instead of crossing over
                px, py = incoming

                def leftness(out, px=px, py=py, vertex=vertex):
                    dx, dy = out[0] - vertex[0], out[1] - vertex[1]
                    return px * dy - py * dx

                step = max(outs, key=leftness)
            outs.remove(step)
            if not outs:
                del edges[vertex]
            incoming = (step[0] - vertex[0], step[1] - vertex[1])
            vertex = step
            if vertex == start:
                break
            loop.append(vertex)
        loops.append(loop)
    return loops


def _compress(loop: list[Cell]) -> list[Cell]:
    """Drop vertices interior to straight runs."""
    kept = []
    count = len(loop)
    for i, vertex in enumerate(loop):
        prev = loop[i - 1]
        nxt = loop[(i + 1) % count]
        first = (vertex[0] - prev[0], vertex[1] - prev[1])
        second = (nxt[0] - vertex[0], nxt[1] - vertex[1])
        if first != second:
            kept.append(vertex)
    return kept or loop[:1]


class _Canvas:
    def __init__(self, config: Configuration):
        if len(config) > 0:
            min_x, min_y, max_x, max_y = config.bounding_box()
        else:
            min_x = min_y = 0
            max_x = max_y = -1
        self.min_x = min_x
        self.max_y = max_y
        self.width = (max_x - min_x + 1) * CELL + 2 * PAD
        self.height = (max_y - min_y + 1) * CELL + 2 * PAD

    def vertex(self, v: Cell) -> tuple[int, int]:
        return (
            (v[0] - self.min_x) * CELL + PAD,
            (self.max_y + 1 - v[1]) * CELL + PAD,
        )

    def center(self, cells) -> tuple[float, float]:
        xs = [x for x, _ in cells]
        ys = [y for _, y in cells]
        cx = (sum(xs) / len(xs) + 0.5 - self.min_x) * CELL + PAD
        cy = (self.max_y + 0.5 - sum(ys) / len(ys)) * CELL + PAD
        return cx, cy


def _piece_path(canvas: _Canvas, cells: frozenset[Cell], fill: str) -> str:
    parts = []
    for loop in _boundary_loops(cells):
        points = [canvas.vertex(v) for v in _compress(loop)]
        moves = " L ".join(f"{x} {y}" for x, y in points)
        parts.append(f"M {moves} Z")
    return (
        f'<path d="{" ".join(parts)}" fill="{fill}" fill-rule="evenodd" '
        'stroke="#333333" stroke-width="1.5"/>'
    )


def render_svg(
    config: Configuration,
    plan: SeparationPlan | None = None,
    pocket_cells=None,
) -> str:
    """One labeled filled path per piece, plus optional annotations.

    `plan` draws one numbered arrow per move, anchored at the moving
    pieces and pointing along the move direction. `pocket_cells` shades
    the given cells. The document is byte-stable for identical inputs.
    """
    canvas = _Canvas(config)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{canvas.width}" '
        f'height="{canvas.height}" viewBox="0 0 {canvas.width} {canvas.height}">',
    ]
    if plan is not None and plan.moves:
        lines.append(_ARROW_DEFS)

    ids = sorted(config.piece_ids())
    for i, pid in enumerate(ids):
        cells = config.cells_of(pid)
        lines.append(_piece_path(canvas, cells, PALETTE[i % len(PALETTE)]))
    for pid in ids:
        cx, cy = canvas.center(config.cells_of(pid))
        lines.append(
            f'<text x="{cx:g}" y="{cy:g}" text-anchor="middle" '
            'dominant-baseline="central" font-family="sans-serif" '
            f'font-size="10" fill="#111111">{escape(pid)}</text>'
        )

    for cell in sorted(pocket_cells or ()):
        px, py = canvas.vertex((cell[0], cell[1] + 1))
        lines.append(
            f'<rect x="{px}" y="{py}" width="{CELL}" height="{CELL}" '
            'fill="#000000" fill-opacity="0.2" stroke="#000000" '
            'stroke-dasharray="3 2"/>'
        )

    if plan is not None:
        for order, move in enumerate(plan.moves, start=1):
            moving = [
                cell
                for pid in sorted(move.piece_ids)
                for cell in config.cells_of(pid)
            ]
            cx, cy = canvas.center(moving)
            dx = move.direction.dx * 0.9 * CELL
            dy = -move.direction.dy * 0.9 * CELL
            lines.append(
                f'<line x1="{cx:g}" y1="{cy:g}" x2="{cx + dx:g}" '
                f'y2="{cy + dy:g}" stroke="#111111" stroke-width="2" '
                'marker-end="url(#arrow)"/>'
            )
            lines.append(
                f'<text x="{cx:g}" y="{cy - 6:g}" text-anchor="middle" '
                'font-family="sans-serif" font-size="8" '
                f'fill="#111111">{order}</text>'
            )

    lines.append("</svg>")
    return "\n".join(lines) + "\n"


__all__ = ["CELL", "PAD", "PALETTE", "render_svg"]
