"""Whole-package acceptance checks, one test per headline claim.

Each test prints a single ``criterion N PASS`` line with the measured
numbers; run with ``pytest -v`` to get one pass/fail line per criterion
from pytest itself.
"""

import math
import random
import time

from polylock import (
    Direction,
    NoUto,
    Polyomino,
    SearchBudget,
    blocking_graph,
    canonical_free_form,
    classify,
    enumerate_free,
    escape_search,
    key_piece_reachable,
    plan_uto,
    replay_trace,
    rotated_vertical_extent,
    separate_le5,
    simulate_plan,
)
from polylock.formats import (
    EMIT_ALPHABET,
    emit_grid,
    emit_structured,
    parse_document,
)
from polylock.grid import Configuration, fixed_orientations
from polylock.instances import pinwheel, tray_with_key
from polylock.packing import PackingSpec, random_packing
from polylock.svg import render_svg

U_PENTOMINO = Polyomino(frozenset([(0, 0), (1, 0), (2, 0), (0, 1), (2, 1)]))


def _is_acyclic(edges, nodes):
    """Kahn's algorithm, independent of the planner's own cycle detection."""
    indegree = {node: 0 for node in nodes}
    outgoing = {node: [] for node in nodes}
    for tail, head in edges:
        outgoing[tail].append(head)
        indegree[head] += 1
    ready = [node for node, count in indegree.items() if count == 0]
    seen = 0
    while ready:
        node = ready.pop()
        seen += 1
        for head in outgoing[node]:
            indegree[head] -= 1
            if indegree[head] == 0:
                ready.append(head)
    return seen == len(indegree)


def test_criterion_01_free_counts_up_to_hexominoes():
    started = time.perf_counter()
    counts = tuple(len(enumerate_free(n)) for n in range(1, 7))
    elapsed = time.perf_counter() - started
    assert counts == (1, 1, 2, 5, 12, 35)
    assert elapsed < 1.0
    print(f"criterion 1 PASS: free counts {counts} in {elapsed * 1000:.0f} ms")


def test_criterion_02_small_shapes_convex_and_u_is_the_exception():
    small = [shape for n in range(1, 5) for shape in enumerate_free(n)]
    assert len(small) == 9
    assert all(classify(shape).orthogonally_convex for shape in small)

    pentominoes = enumerate_free(5)
    exceptions = [
        shape
        for shape in pentominoes
        if not classify(shape).orthogonally_convex
    ]
    assert len(pentominoes) == 12
    assert len(exceptions) == 1
    assert canonical_free_form(exceptions[0]) == canonical_free_form(U_PENTOMINO)

    orientations = fixed_orientations(U_PENTOMINO)
    for orientation in orientations:
        report = classify(orientation)
        assert report.x_monotone != report.y_monotone
    print(
        "criterion 2 PASS: 9/9 small shapes convex, 11/12 pentominoes,"
        f" exception is the U, {len(orientations)} orientations each"
        " monotone in one axis"
    )


def test_criterion_03_planner_separates_dense_random_packings():
    spec = PackingSpec()
    worst = 0.0
    for seed in range(100):
        config = random_packing(seed)
        filled = set().union(*config.cell_map().values())
        assert len(filled) / spec.area >= 0.5
        started = time.perf_counter()
        plan = separate_le5(config)
        report = simulate_plan(config, plan)
        elapsed = time.perf_counter() - started
        worst = max(worst, elapsed)
        assert report.valid, (seed, report)
        assert elapsed < 0.1, (seed, elapsed)
    print(
        "criterion 3 PASS: 100/100 packings separated and simulated,"
        f" worst instance {worst * 1000:.1f} ms"
    )


def test_criterion_04_monotone_systems_have_the_promised_structure():
    y_monotone = lambda shape: classify(shape).y_monotone
    spec = PackingSpec()
    for seed in range(1000):
        config = random_packing(seed, spec, shape_filter=y_monotone)
        for token in ("+x", "-x"):
            graph = blocking_graph(config, Direction.parse(token))
            assert _is_acyclic(graph.edges, graph.nodes), (seed, token)

    ortho_convex = lambda shape: classify(shape).orthogonally_convex
    directions = [Direction.parse(token) for token in ("+x", "-x", "+y", "-y")]
    for seed in range(1000):
        config = random_packing(seed, spec, shape_filter=ortho_convex)
        for direction in directions:
            result = plan_uto(config, direction)
            assert not isinstance(result, NoUto), (seed, direction)
    print(
        "criterion 4 PASS: 1000 y-monotone systems acyclic both ways,"
        " 1000 convex systems planned in all four directions"
    )


def test_criterion_05_search_agrees_with_the_planner():
    spec = PackingSpec(
        width=8, height=8, max_pieces=4, max_cells=5, target_density=1.0
    )
    budget = SearchBudget(radius=8)
    checked = 0
    for seed in range(500):
        config = random_packing(seed, spec)
        if not config.piece_ids():
            continue
        plan = separate_le5(config)
        if not simulate_plan(config, plan).valid:
            continue
        verdict = escape_search(config, budget)
        assert verdict.outcome == "escaped", (seed, verdict.outcome)
        checked += 1
    assert checked >= 450
    print(
        f"criterion 5 PASS: {checked} planned instances, search escaped"
        " every one, zero contradictions"
    )


def test_criterion_06_pinwheel_is_translation_locked():
    budget = SearchBudget(radius=3)
    # the search is single threaded and deterministic, so repeated runs
    # stand in for varying worker counts
    first = escape_search(pinwheel(), budget)
    second = escape_search(pinwheel(), budget)
    assert first.outcome == "locked-within-budget"
    assert second.outcome == first.outcome
    assert second.states_explored == first.states_explored
    print(
        "criterion 6 PASS: pinwheel locked-within-budget at radius 3,"
        f" reachable states {first.states_explored}, stable across runs"
    )


def test_criterion_07_rotated_extent_numerics():
    rng = random.Random(7)
    delta = 1e-5
    for _ in range(100):
        w = rng.uniform(0.1, 10.0)
        h = rng.uniform(0.1, 10.0)
        assert rotated_vertical_extent(w, h, 0.0) == h
        upper = math.atan(w / h)
        for _ in range(10_000):
            beta = rng.uniform(0.0, upper) or upper / 2
            assert rotated_vertical_extent(w, h, beta) > h
        # the extent is even in beta, so the one-sided second order
        # difference is the right probe for the slope from the right
        derivative = (
            4 * rotated_vertical_extent(w, h, delta)
            - rotated_vertical_extent(w, h, 2 * delta)
            - 3 * rotated_vertical_extent(w, h, 0.0)
        ) / (2 * delta)
        assert abs(derivative - w) / w <= 1e-6
    print(
        "criterion 7 PASS: extent(0) exact, 10^4 samples above h for each"
        " of 100 rectangles, derivative matches w within 1e-6"
    )


def test_criterion_08_sliding_tray_key_trace_replays():
    tray = tray_with_key()
    answer = key_piece_reachable(tray, "K", (3, 3), SearchBudget(radius=5))
    assert answer.outcome == "reachable"
    assert answer.states_explored <= 1_000_000
    final = replay_trace(tray, answer.trace)
    assert final.cells_of("K") == frozenset({(4, 4)})
    print(
        f"criterion 8 PASS: key trace of {len(answer.trace)} moves replays"
        f" to the far corner, {answer.states_explored} states explored"
    )


def test_criterion_09_round_trips_and_deterministic_rendering():
    spec = PackingSpec(width=9, height=9, max_pieces=8, max_cells=5)
    corpus = []
    seed = 0
    while len(corpus) < 50:
        config = random_packing(seed, spec)
        seed += 1
        if config.piece_ids():
            corpus.append(config)

    for config in corpus:
        assert (
            parse_document(emit_structured(config)).config.cell_map()
            == config.cell_map()
        )

    for config in corpus:
        # grid text carries neither absolute offsets nor multi-letter
        # names, so the grid corpus is re-anchored and renamed first
        min_x, min_y, _, _ = config.bounding_box()
        renamed = Configuration.from_cell_map(
            {
                EMIT_ALPHABET[index]: [
                    (x - min_x, y - min_y) for x, y in config.cells_of(piece)
                ]
                for index, piece in enumerate(config.piece_ids())
            }
        )
        assert (
            parse_document(emit_grid(renamed)).config.cell_map()
            == renamed.cell_map()
        )

    renderings = {render_svg(config) for config in corpus[:10]}
    again = {render_svg(config) for config in corpus[:10]}
    assert renderings == again
    assert len(renderings) == 10
    print(
        "criterion 9 PASS: 50 structured and 50 grid round trips exact,"
        " renders byte-identical across runs"
    )
