"""Seeded random packings of small polyominoes in a rectangular box.

The generator rejection-samples placements: pick a free cell, a random
orientation of a random free shape, and an anchor cell inside it, then keep
the placement if it fits entirely in free space. Larger shapes are tried
first so dense targets are reachable inside a small piece budget. Everything
is driven by one `random.Random(seed)`, so a (seed, spec) pair always yields
the same configuration.
"""

from __future__ import annotations

import bisect
import functools
import random
from dataclasses import dataclass
from typing import Callable

from .grid import Cell, Configuration, Polyomino, enumerate_free, fixed_orientations

ShapeFilter = Callable[[Polyomino], bool]

#: Random placements tried per shape size before the next smaller size.
PLACEMENT_ATTEMPTS = 400


@dataclass(frozen=True)
class PackingSpec:
    """Box size, piece budget, and stop condition for the generator."""

    width: int = 15
    height: int = 15
    max_pieces: int = 25
    max_cells: int = 5
    target_density: float = 0.5

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError("box dimensions must be positive")
        if self.max_pieces < 1:
            raise ValueError("piece budget must be positive")
        if not 1 <= self.max_cells <= 10:
            raise ValueError("piece size must be between 1 and 10 cells")
        if not 0.0 <= self.target_density <= 1.0:
            raise ValueError("target density must lie in [0, 1]")

    @property
    def area(self) -> int:
        return self.width * self.height


@functools.lru_cache(maxsize=16)
def _shape_pools(
    max_cells: int, shape_filter: ShapeFilter | None
) -> tuple[tuple[int, tuple[tuple[Cell, ...], ...]], ...]:
    """(size, distinct oriented variants) pairs, largest sizes first.

    Cached per (max_cells, filter), so the pools are immutable tuples.
    """
    pools = []
    for size in range(max_cells, 0, -1):
        variants = {
            oriented.sorted_cells()
            for shape in enumerate_free(size)
            for oriented in fixed_orientations(shape)
            if shape_filter is None or shape_filter(oriented)
        }
        if variants:
            pools.append((size, tuple(sorted(variants))))
    return tuple(pools)


def random_packing(
    seed: int,
    spec: PackingSpec = PackingSpec(),
    shape_filter: ShapeFilter | None = None,
) -> Configuration:
    """Pack the box until the density target or a budget is hit.

    `shape_filter` accepts or rejects each oriented variant, so a filter
    like row-contiguity holds for the placed cells, not just for some
    canonical form of the piece.
    """
    rng = random.Random(seed)
    pools = _shape_pools(spec.max_cells, shape_filter)
    free = {(x, y) for x in range(spec.width) for y in range(spec.height)}
    free_list = sorted(free)
    placements: dict[str, list[Cell]] = {}
    filled = 0

    while (
        free
        and len(placements) < spec.max_pieces
        and filled < spec.target_density * spec.area
    ):
        placed = None
        for _, variants in pools:
            for _ in range(PLACEMENT_ATTEMPTS):
                variant = variants[rng.randrange(len(variants))]
                ax, ay = variant[rng.randrange(len(variant))]
                cx, cy = free_list[rng.randrange(len(free_list))]
                world = [(x - ax + cx, y - ay + cy) for x, y in variant]
                if all(cell in free for cell in world):
                    placed = world
                    break
            if placed is not None:
                break
        if placed is None:
            break
        placements[f"P{len(placements)}"] = placed
        free.difference_update(placed)
        for cell in placed:
            del free_list[bisect.bisect_left(free_list, cell)]
        filled += len(placed)

    return Configuration.from_cell_map(placements)


__all__ = ["PackingSpec", "ShapeFilter", "random_packing"]
