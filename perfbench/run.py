"""polylock benchmark: CLI queries in-process, answers checked apart.

    python3 perfbench/run.py --workload peel --seed 1 --seconds 30 --trace 0

One client sends one query at a time (a closed loop) to
`polylock.cli.main(argv)` with stdout captured, on files this script
generates from the seed. A run repeats whole rounds of the workload's
queries until `--seconds` have passed and at least `MIN_QUERIES` were
answered, and checks every answer with `check.py`, outside the timed
calls. The last stdout line is one JSON object: end-to-end metrics with
`--trace 0`, per-layer metrics from `spans.py` with `--trace 1`.
See README.md for the workloads and the meaning of each metric.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import check
import gen
from spans import FOLDED, SEARCHES, SPANNED, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Enough answers for ten samples beyond the 90th percentile.
MIN_QUERIES = 100

#: Rounds stop starting after this many seconds, whatever the count.
HARD_STOP = 120

#: Imports of polylock (plus one warm-up query) timed for `setup_s`.
SETUPS = 5

DIRECTIONS = ("+x", "-x", "+y", "-y")


class Query:
    """One CLI call, the exit codes it may end with, and its answer check."""

    def __init__(self, argv, codes, verify):
        self.argv = argv
        self.codes = codes
        self.verify = verify


# --- peel ------------------------------------------------------------------


def peel_round(seed, number, work):
    """5 le5 plans, 4 drawings of them, and one convex packing planned 4 ways."""
    rng = gen.make_rng(seed, f"peel:{number}")
    moves_of = {}
    plans, drawings = [], []
    svg = work / "plan.svg"
    for index in range(5):
        pieces = gen.le5_packing(rng)
        path = work / f"le5-{number}-{index}.txt"
        gen.write_config(path, pieces)

        def plan_ok(out, pieces=pieces, path=path):
            lines = out.splitlines()
            check.require(lines[-1:] == ["simulation: valid"], "plan not simulated valid")
            moves = check.parse_moves(lines[:-1])
            check.check_plan(pieces, moves)
            moves_of[path] = len(moves)

        def drawing_ok(out, pieces=pieces, path=path):
            check.require(out == "", "render prints nothing on success")
            text = svg.read_text(encoding="utf-8")
            check.check_svg(text, pieces, arrows=moves_of[path], pocket_cells=0)

        plans.append(Query(["separate", str(path)], (0,), plan_ok))
        argv = ["render", str(path), "-o", str(svg), "--annotate", "plan"]
        drawings.append(Query(argv, (0,), drawing_ok))

    pieces = gen.convex_packing(rng)
    path = work / f"convex-{number}.txt"
    gen.write_config(path, pieces)
    queries = []
    for turn in range(4):
        direction = DIRECTIONS[(number + turn) % 4]

        def uto_ok(out, direction=direction):
            lines = out.splitlines()
            check.require(lines[-1:] == ["simulation: valid"], "plan not simulated valid")
            check.check_plan(pieces, check.parse_moves(lines[:-1]), direction)

        argv = ["separate", str(path), "--mode", "uto", f"--dir={direction}"]
        queries += [plans[turn], drawings[turn], Query(argv, (0,), uto_ok)]
    return queries + [plans[4]]


# --- tray and subset -------------------------------------------------------


def tray_queries(rng, path, width, height, mode, key_in, key_off):
    """One solve, then key queries to interior cells and to cells off the tray."""
    pieces, key, interior = gen.tray(rng, width, height)
    gen.write_config(path, pieces, key="K")
    cells = len(interior)
    extra = ["--mode", "subset"] if mode == "subset" else []
    locked = ["outcome: locked-within-budget", f"states explored: {cells}"]

    def locked_ok(out):
        check.require(out.splitlines() == locked, "tray solve: not locked after n states")

    exhausted = ["outcome: unreachable-within-budget", f"states explored: {cells * (cells - 1)}"]

    def exhaust_ok(out):
        check.require(out.splitlines() == exhausted, "off-tray target: not n(n-1) states")

    queries = [Query(["solve", str(path)] + extra, (2,), locked_ok)]
    targets = rng.sample([cell for cell in interior if cell != key], key_in)
    outside = [
        (x, y)
        for x in range(-1, width + 3)
        for y in range(-1, height + 3)
        if (x, y) not in interior
    ]
    targets += rng.sample(outside, key_off)
    for target in targets:
        shift = (target[0] - key[0], target[1] - key[1])
        argv = ["key", str(path), f"--dx={shift[0]}", f"--dy={shift[1]}"] + extra
        if target in interior:

            def reach_ok(out, shift=shift):
                lines = out.splitlines()
                check.require(lines[0] == "outcome: reachable", "interior target unreachable")
                check.require(lines[1].startswith("states explored: "), "no state count")
                check.check_trace(pieces, "K", check.parse_moves(lines[2:]), shift)

            queries.append(Query(argv, (0,), reach_ok))
        else:
            queries.append(Query(argv, (2,), exhaust_ok))
    return queries


def tray_round(seed, number, work):
    """Two 4x4 trays: 6 reachable key targets, 2 solves, 2 off-tray targets."""
    rng = gen.make_rng(seed, f"tray:{number}")
    queries = []
    for index in range(2):
        path = work / f"tray-{number}-{index}.txt"
        queries += tray_queries(rng, path, 4, 4, "single", 3, 1)
    return queries


def subset_round(seed, number, work):
    """Four 3x3 trays in subset mode: 4 solves, 4 reachable, 2 off-tray.

    Every solve costs the same, and about half the reachable targets cost
    less, so the median falls inside the solves; the off-tray searches are
    the top 20%, so the 90th percentile falls inside them.
    """
    rng = gen.make_rng(seed, f"subset:{number}")
    queries = []
    for index, key_off in enumerate((1, 1, 0, 0)):
        path = work / f"subset-{number}-{index}.txt"
        queries += tray_queries(rng, path, 3, 3, "subset", 1, key_off)
    return queries


# --- survey ----------------------------------------------------------------


_FREE = {}


def _free(n):
    if n not in _FREE:
        _FREE[n] = check.free_polyominoes(n)
    return _FREE[n]


_FILTERS = {
    None: lambda cells: True,
    "ortho-convex": check.is_orthogonally_convex,
    "non-convex": lambda cells: not check.is_orthogonally_convex(cells),
}


def survey_packing_queries(rng, path, directions, work):
    """classify, render --annotate pockets, deps and uto on one new packing."""
    pieces = gen.survey_packing(rng)
    gen.write_config(path, pieces)

    def classify_ok(out):
        check.check_classify(pieces, out.splitlines())

    svg = work / "pockets.svg"
    shaded = check.pocket_cell_count(pieces)

    def drawing_ok(out):
        check.require(out == "", "render prints nothing on success")
        check.check_svg(svg.read_text(encoding="utf-8"), pieces, 0, shaded)

    piece, direction = rng.choice(sorted(pieces)), rng.choice(DIRECTIONS)
    closure = " ".join(sorted(check.dependency_closure(pieces, piece, direction)))

    def deps_ok(out):
        check.require(out.splitlines() == [closure], "deps differs from the closure")

    queries = [
        Query(["classify", str(path)], (0,), classify_ok),
        Query(["render", str(path), "-o", str(svg), "--annotate", "pockets"],
              (0,), drawing_ok),
        Query(["deps", str(path), "--piece", piece, f"--dir={direction}"], (0,), deps_ok),
    ]
    for direction in directions:

        def uto_ok(out, direction=direction):
            lines = out.splitlines()
            if lines[0].startswith("no plan"):
                prefix = f"no plan in {direction}: cycle "
                check.require(len(lines) == 1 and lines[0].startswith(prefix), "bad cycle line")
                check.check_cycle(pieces, direction, lines[0][len(prefix):].split())
            else:
                check.require(lines[-1] == "simulation: valid", "plan not simulated valid")
                check.check_plan(pieces, check.parse_moves(lines[:-1]), direction)

        argv = ["separate", str(path), "--mode", "uto", f"--dir={direction}"]
        queries.append(Query(argv, (0, 2), uto_ok))
    return queries


def survey_round(seed, number, work):
    """Three packings (classify, drawing, deps, uto x4 each) and 6 enumerations.

    Ordered by cost the kinds end at 11% (deps), 22% (classify), 33%
    (render), 78% (uto), 85% (n=7) and 100% (n=8). So the median falls a
    third of the way into the uto queries, and the 90th percentile inside
    the n=8 enumerations, never on the edge between two kinds.
    """
    rng = gen.make_rng(seed, f"survey:{number}")
    queries = []
    for index in range(3):
        path = work / f"survey-{number}-{index}.txt"
        queries += survey_packing_queries(rng, path, DIRECTIONS, work)
    names = tuple(_FILTERS)
    sevens = names[number % 3], names[(number + 1) % 3]
    # Unfiltered n=8 costs less than the filtered runs; keeping it out keeps
    # the top 15% one cluster.
    for n, chosen in ((7, sevens), (8, ("ortho-convex", "non-convex") * 2)):
        for name in chosen:
            keep = _FILTERS[name]
            expected = {shape for shape in _free(n) if keep(shape)}

            def enumerate_ok(out, expected=expected, keep=keep):
                check.check_enumerate(expected, keep, out.splitlines())

            argv = ["enumerate", "-n", str(n)] + (["--filter", name] if name else [])
            queries.append(Query(argv, (0,), enumerate_ok))
    return queries


WORKLOADS = {
    "peel": peel_round,
    "tray": tray_round,
    "subset": subset_round,
    "survey": survey_round,
}


# --- driving the CLI ---------------------------------------------------------


class Outcome:
    """Queries attempted and failed; `wrong` counts answers the checks reject."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.notes = []


def _call(cli, query):
    """Run one query; returns (seconds, exit code or None, stdout, error)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        started = time.perf_counter()
        try:
            code = cli.main(query.argv)
            error = None
        except Exception:  # a traceback is a failed query, not a benchmark crash
            code, error = None, traceback.format_exc()
        elapsed = time.perf_counter() - started
    return elapsed, code, out.getvalue(), error or err.getvalue()


def _judge(outcome, query, code, out, error):
    """Count the query; a wrong exit code, traceback or answer fails it."""
    outcome.attempted += 1
    problem = None
    if code not in query.codes:
        problem = f"exit {code}: {error.strip()[-300:]}"
    else:
        try:
            query.verify(out)
        except (check.CheckError, IndexError, ValueError, KeyError) as failure:
            problem = f"answer rejected: {failure!r}"
            outcome.wrong += 1
    if problem is not None:
        outcome.failed += 1
        outcome.notes.append(f"{' '.join(query.argv)}: {problem}")
    return problem is None


def _import_cli():
    """A fresh import of the package: drop every polylock module first."""
    for name in [n for n in sys.modules if n.split(".")[0] == "polylock"]:
        del sys.modules[name]
    return importlib.import_module("polylock.cli")


def run(workload, seed, seconds, traced, work):
    make_round = WORKLOADS[workload]
    first = make_round(seed, 0, work)
    outcome = Outcome()

    warm_up = first[0]
    setups = []
    for _ in range(SETUPS):
        started = time.perf_counter()
        cli = _import_cli()
        _, code, out, error = _call(cli, warm_up)
        setups.append(time.perf_counter() - started)
        if code not in warm_up.codes:
            raise RuntimeError(f"warm-up query failed: {error}")

    tracer = None
    if traced:
        tracer = Tracer()
        tracer.install()

    latencies = []
    started = time.perf_counter()
    number = 0
    while True:
        elapsed = time.perf_counter() - started
        if elapsed >= HARD_STOP or (elapsed >= seconds and outcome.attempted >= MIN_QUERIES):
            break
        for query in first if number == 0 else make_round(seed, number, work):
            if tracer is not None:
                tracer.query = outcome.attempted
            taken, code, out, error = _call(cli, query)
            if _judge(outcome, query, code, out, error):
                latencies.append(taken)
        number += 1
    wall = time.perf_counter() - started

    for line in outcome.notes[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    if not latencies:
        raise RuntimeError("no query was answered")
    result = {
        "correct": outcome.wrong == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
    }
    if tracer is None:
        metrics = {
            "queries_per_s": (len(latencies) / sum(latencies), "1/s"),
            "latency_p50_ms": (statistics.median(latencies) * 1000, "ms"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        if len(latencies) >= MIN_QUERIES:
            metrics["latency_p90_ms"] = (statistics.quantiles(latencies, n=10)[-1] * 1000, "ms")
    else:
        tracer.dump(work.parent / f"trace-{workload}-{seed}.json")
        metrics = layer_metrics(tracer, outcome.attempted)
        print(
            f"traced: {len(latencies) / sum(latencies):.3f} queries/s, "
            f"{len(tracer.spans)} spans, {wall:.1f} s",
            file=sys.stderr,
        )
    result["metrics"] = {
        name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
    }
    return result


def layer_metrics(tracer, queries):
    """Per-query call counts and self seconds per layer, and search rates."""
    totals = tracer.totals()
    get = lambda name: totals.get(name, [0, 0.0, 0.0, 0])
    metrics = {
        "grid.sweep_collides_calls": (get("grid.sweep_collides")[0] / queries, "count/query"),
        "classify.pockets_calls": (get("classify.pockets")[0] / queries, "count/query"),
    }
    for module, function in FOLDED + SPANNED:
        name = f"{module}.{function}"
        label = "cli.self_s" if name == "cli.main" else f"{name}_s"
        metrics[label] = (get(name)[2] / queries, "s/query")
    states = sum(get(name)[3] for name in SEARCHES)
    searching = sum(get(name)[1] for name in SEARCHES)
    metrics["search.states_explored"] = (states / queries, "count/query")
    metrics["search.states_per_s"] = (states / searching if searching else 0.0, "1/s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    source = ROOT / "src"
    if not (source / "polylock" / "__init__.py").is_file():
        print(f"error: no polylock sources under {source}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(source))

    work = HERE / "work" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
