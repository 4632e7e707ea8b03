"""Seeded packing generator: determinism, budgets, and filter guarantees."""

import random

import pytest

from polylock import Configuration
from polylock.classify import classify
from polylock.grid import Polyomino
from polylock.packing import (
    PLACEMENT_ATTEMPTS,
    PackingSpec,
    _shape_pools,
    random_packing,
)

DENSE = PackingSpec()


def _filled(config):
    return len(set().union(*config.cell_map().values()))


def test_same_seed_same_packing():
    assert random_packing(7, DENSE) == random_packing(7, DENSE)


def _resorting_packing(seed, spec, shape_filter=None):
    """`random_packing` as it was: the free list re-sorted after each piece."""
    rng = random.Random(seed)
    pools = _shape_pools(spec.max_cells, shape_filter)
    free = {(x, y) for x in range(spec.width) for y in range(spec.height)}
    free_list = sorted(free)
    placements = {}
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
        free_list = sorted(free)
        filled += len(placed)
    return Configuration.from_cell_map(placements)


@pytest.mark.parametrize(
    "spec, shape_filter",
    [
        (DENSE, None),
        (PackingSpec(width=9, height=7, max_pieces=40, target_density=1.0), None),
        (PackingSpec(width=12, height=12, max_cells=7, max_pieces=30), None),
        (DENSE, lambda shape: classify(shape).y_monotone),
    ],
    ids=["dense", "full", "heptominoes", "row-contiguous"],
)
def test_packing_matches_the_resorting_generator(spec, shape_filter):
    for seed in range(12):
        assert random_packing(seed, spec, shape_filter) == _resorting_packing(
            seed, spec, shape_filter
        )


def test_different_seeds_differ():
    assert random_packing(1, DENSE) != random_packing(2, DENSE)


@pytest.mark.parametrize("seed", range(10))
def test_dense_packing_meets_budget_and_density(seed):
    config = random_packing(seed, DENSE)
    assert len(config) <= DENSE.max_pieces
    assert _filled(config) / DENSE.area >= DENSE.target_density
    min_x, min_y, max_x, max_y = config.bounding_box()
    assert 0 <= min_x and max_x < DENSE.width
    assert 0 <= min_y and max_y < DENSE.height
    assert all(len(cells) <= DENSE.max_cells for cells in config.cell_map().values())


@pytest.mark.parametrize("seed", range(5))
def test_shape_filter_applies_to_placed_cells(seed):
    config = random_packing(
        seed, DENSE, shape_filter=lambda shape: classify(shape).y_monotone
    )
    for cells in config.cell_map().values():
        assert classify(Polyomino(cells)).y_monotone


def test_small_sparse_spec_places_up_to_piece_budget():
    spec = PackingSpec(
        width=8, height=8, max_pieces=4, max_cells=4, target_density=1.0
    )
    config = random_packing(3, spec)
    assert 1 <= len(config) <= 4
    assert all(len(cells) <= 4 for cells in config.cell_map().values())


def test_density_target_stops_early():
    spec = PackingSpec(target_density=0.2)
    config = random_packing(11, spec)
    filled = _filled(config)
    # stops at the first placement crossing the line, so at most one piece over
    assert spec.target_density * spec.area <= filled
    assert filled <= spec.target_density * spec.area + spec.max_cells


def test_zero_density_target_is_empty():
    config = random_packing(0, PackingSpec(target_density=0.0))
    assert config == Configuration.from_cell_map({})


def test_restrictive_filter_can_exhaust_the_pool():
    config = random_packing(
        5, PackingSpec(target_density=1.0), shape_filter=lambda shape: False
    )
    assert len(config) == 0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"width": 0},
        {"height": -3},
        {"max_pieces": 0},
        {"max_cells": 0},
        {"max_cells": 11},
        {"target_density": 1.5},
    ],
)
def test_spec_validation(kwargs):
    with pytest.raises(ValueError):
        PackingSpec(**kwargs)
