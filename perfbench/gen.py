"""Seeded inputs for the benchmark, grown here and not by ``polylock.packing``.

Packings are grown one piece at a time: a piece starts on a free cell and
takes random free neighbouring cells until it reaches its drawn size or
cannot grow further. Trays are a square-cornered frame around a block of
unit tiles with one hole. Everything is driven by a ``random.Random`` that
the caller seeds, so one seed always gives the same files, whatever the
program under test does.
"""

from __future__ import annotations

import random
from pathlib import Path

from check import contiguous, is_orthogonally_convex, neighbours

HEADER = "polylock-config v1"


def grow_packing(rng, width, height, sizes, max_pieces, keep=None):
    """Pieces packed into a width x height box, ids P000, P001, ...

    `sizes` is the list a piece's target size is drawn from. `keep`, when
    given, must accept every intermediate cell set of a piece; growth tries
    the other free neighbours when it refuses one.
    """
    free = {(x, y) for x in range(width) for y in range(height)}
    starts = sorted(free)
    rng.shuffle(starts)
    pieces = {}
    for start in starts:
        if len(pieces) >= max_pieces:
            break
        if start not in free:
            continue
        target = rng.choice(sizes)
        cells = {start}
        while len(cells) < target:
            fringe = sorted(
                {nb for cell in cells for nb in neighbours(cell) if nb in free} - cells
            )
            rng.shuffle(fringe)
            grown = next(
                (nb for nb in fringe if keep is None or keep(cells | {nb})), None
            )
            if grown is None:
                break
            cells.add(grown)
        free -= cells
        pieces[f"P{len(pieces):03d}"] = sorted(cells)
    return pieces


def tray(rng, width, height):
    """A framed width x height block of unit tiles with one hole.

    Returns (pieces, key start, interior cells). The frame is piece F, the
    key tile is K, the other tiles are T00, T01, ...
    """
    interior = [(x, y) for y in range(1, height + 1) for x in range(1, width + 1)]
    frame = [
        (x, y)
        for x in range(width + 2)
        for y in range(height + 2)
        if x in (0, width + 1) or y in (0, height + 1)
    ]
    hole, key = rng.sample(interior, 2)
    pieces = {"F": sorted(frame), "K": [key]}
    tiles = [cell for cell in interior if cell not in (hole, key)]
    for number, cell in enumerate(tiles):
        pieces[f"T{number:02d}"] = [cell]
    return pieces, key, interior


def write_config(path: Path, pieces, key=None) -> None:
    lines = [HEADER]
    for pid in sorted(pieces):
        cells = " ".join(f"({x},{y})" for x, y in sorted(pieces[pid]))
        lines.append(f"piece {pid}: {cells}")
    if key is not None:
        lines.append(f"key {key}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def le5_packing(rng):
    """About 90 pieces of at most five cells, densely packed.

    Rows stay contiguous, which rules out exactly the U-pentominoes that
    open along y: with a piece in such a pocket `separate_le5` can jam
    (see CHANGES.md), and a benchmark query must not fail on some seeds.
    """
    return grow_packing(
        rng, 21, 21, [2, 3, 4, 4, 5, 5, 5], 90, keep=lambda cells: contiguous(cells, "y")
    )


def convex_packing(rng):
    """About 90 orthogonally convex pieces of at most five cells."""
    return grow_packing(
        rng, 21, 21, [2, 3, 4, 4, 5, 5, 5], 90, keep=is_orthogonally_convex
    )


def survey_packing(rng):
    """Pieces of up to eight cells: hexominoes and larger dominate."""
    return grow_packing(rng, 16, 16, [4, 5, 6, 7, 8, 8, 8], 40)


def make_rng(seed: int, label: str) -> random.Random:
    """An independent stream per input family, so families do not interact."""
    return random.Random(f"{seed}:{label}")
