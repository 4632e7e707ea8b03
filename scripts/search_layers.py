"""Time the search layer and the `tray` set-up split, into a BENCH file.

Appends one record {side, seed, seconds, commit, pair, result} to the JSON
list in `--out` (created if missing), the shape the `BENCH_*.json` files
share. `result["metrics"]` maps each name to {"value", "unit"}:

* `wide_key_ms`: `key_piece_reachable` of tile T00 on the framed 8x8 tray
  to (-20, 0) at radius 3, which explores all 4,032 states;
* `subset_key_ms`: `key_piece_reachable` of K on `tray_with_key()` to
  (3, 3) at radius 2 in subset-move mode, reached after 226 states: the
  path of the `subset` workload's key queries;
* `tray_<mode>_n<n>_states_per_s`: `escape_search` on the framed n x n
  tray of unit tiles, hole in the far corner, at radius 3, n = 4, 6, 8,
  in both move modes;
* `loose_trio_r<r>_s`: the loose trio A = [(0,0),(1,0)], B = [(3,1),(3,2)],
  C = [(1,3)], key C to (40, 41), single-piece, at radius 3, 6 and 10.
  Every move of it may drift the board;
* `setup_import_ms_*` and `setup_warmup_ms_*`: best and median of fresh
  imports of `polylock.cli` and of the warm-up query that
  `perfbench/run.py --workload tray --seed SEED` times with each import
  (round 0's single-piece `solve`);
* `enumerate_n<n>_cold_ms` and `enumerate_n<n>_warm_ms`, n = 8, 9, 10:
  `enumerate_free(n)` as the first call after a fresh import of
  `polylock.grid`, and the same call repeated in that import.

The millisecond cases are best of 5 in one process (the enumeration takes
a fresh import for each), the trio runs once per radius, and the set-up
split takes 15 imports. `--quick` runs the smallest search case of each,
once, with 3 imports and one enumeration import per n. `--src` selects the
polylock sources, so that two trees can be timed in alternated processes
into one file.

Run from the repository root:

    python3 scripts/search_layers.py [--out BENCH_24_search.json]
        [--side change] [--pair 0] [--seed 3] [--src src] [--quick]
"""

import argparse
import contextlib
import importlib
import io
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def framed_tray(n):
    """An n x n block of unit tiles T00.. in a square frame F, hole at (n, n)."""
    from polylock import Configuration

    frame = [
        (x, y) for x in range(n + 2) for y in range(n + 2) if x in (0, n + 1) or y in (0, n + 1)
    ]
    interior = [(x, y) for y in range(1, n + 1) for x in range(1, n + 1) if (x, y) != (n, n)]
    tiles = {f"T{i:02d}": [cell] for i, cell in enumerate(interior)}
    return Configuration.from_cell_map({"F": frame, **tiles})


def best(call, repeats):
    """(best seconds, result) of `repeats` calls."""
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        result = call()
        times.append(time.perf_counter() - started)
    return min(times), result


def search_metrics(quick):
    from polylock import Configuration, SearchBudget, escape_search, key_piece_reachable
    from polylock.instances import tray_with_key

    repeats = 1 if quick else 5
    metrics = {}
    seconds, answer = best(
        lambda: key_piece_reachable(framed_tray(8), "T00", (-20, 0), SearchBudget(radius=3)),
        repeats,
    )
    metrics["wide_key_ms"] = (seconds * 1000, "ms")
    metrics["wide_key_states"] = (answer.states_explored, "count")
    budget = SearchBudget(radius=2, max_states=300, mode="subset-move")
    seconds, answer = best(
        lambda: key_piece_reachable(tray_with_key(), "K", (3, 3), budget), repeats
    )
    metrics["subset_key_ms"] = (seconds * 1000, "ms")
    metrics["subset_key_states"] = (answer.states_explored, "count")
    for mode in ("single-piece", "subset-move"):
        for n in (4,) if quick else (4, 6, 8):
            budget = SearchBudget(radius=3, mode=mode)
            seconds, verdict = best(lambda: escape_search(framed_tray(n), budget), repeats)
            label = f"tray_{mode.split('-')[0]}_n{n}_states_per_s"
            metrics[label] = (verdict.states_explored / seconds, "1/s")
    trio = Configuration.from_cell_map(
        {"A": [(0, 0), (1, 0)], "B": [(3, 1), (3, 2)], "C": [(1, 3)]}
    )
    for radius in (3,) if quick else (3, 6, 10):
        seconds, answer = best(
            lambda: key_piece_reachable(trio, "C", (40, 41), SearchBudget(radius=radius)), 1
        )
        metrics[f"loose_trio_r{radius}_s"] = (seconds, "s")
        metrics[f"loose_trio_r{radius}_states"] = (answer.states_explored, "count")
    return metrics


def fresh_import(module):
    """`module` imported anew, with every polylock module dropped first."""
    for name in [n for n in sys.modules if n.split(".")[0] == "polylock"]:
        del sys.modules[name]
    return importlib.import_module(module)


def setup_metrics(seed, imports):
    """Fresh imports of polylock.cli, each followed by the tray warm-up query."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import run

    imported, warmed = [], []
    with tempfile.TemporaryDirectory() as work:
        warm_up = run.tray_round(seed, 0, Path(work))[0]
        for _ in range(imports):
            started = time.perf_counter()
            cli = fresh_import("polylock.cli")
            loaded = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(warm_up.argv)
            warmed.append(time.perf_counter() - loaded)
            imported.append(loaded - started)
            if code not in warm_up.codes:
                raise RuntimeError(f"warm-up query exited {code}")
    metrics = {}
    for name, samples in (("import", imported), ("warmup", warmed)):
        metrics[f"setup_{name}_ms_best"] = (min(samples) * 1000, "ms")
        metrics[f"setup_{name}_ms_median"] = (statistics.median(samples) * 1000, "ms")
    return metrics


def enumerate_metrics(imports):
    """Best cold and warm `enumerate_free(n)` over `imports` fresh imports."""
    metrics = {}
    for n in (8, 9, 10):
        cold, warm = [], []
        for _ in range(imports):
            grid = fresh_import("polylock.grid")
            started = time.perf_counter()
            grid.enumerate_free(n)
            first = time.perf_counter()
            grid.enumerate_free(n)
            warm.append(time.perf_counter() - first)
            cold.append(first - started)
        metrics[f"enumerate_n{n}_cold_ms"] = (min(cold) * 1000, "ms")
        metrics[f"enumerate_n{n}_warm_ms"] = (min(warm) * 1000, "ms")
    return metrics


def commit_of(source):
    found = subprocess.run(
        ["git", "-C", str(source), "rev-parse", "HEAD"], capture_output=True, text=True
    )
    return found.stdout.strip() if found.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_24_search.json")
    parser.add_argument("--side", default="change")
    parser.add_argument("--pair", type=int, default=0)
    parser.add_argument("--seed", type=int, default=3, help="the tray workload's seed")
    parser.add_argument("--src", default=str(ROOT / "src"))
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()

    source = Path(args.src).resolve()
    if not (source / "polylock" / "__init__.py").is_file():
        print(f"error: no polylock sources under {source}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(source))
    started = time.perf_counter()
    # the set-up split first, before the searches leave a large heap behind
    metrics = setup_metrics(args.seed, 3 if args.quick else 15)
    metrics.update(enumerate_metrics(1 if args.quick else 5))
    metrics.update(search_metrics(args.quick))
    record = {
        "side": args.side,
        "seed": args.seed,
        "seconds": round(time.perf_counter() - started, 3),
        "commit": commit_of(source),
        "pair": args.pair,
        "result": {
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
        },
    }
    out = Path(args.out)
    records = json.loads(out.read_text(encoding="utf-8")) if out.is_file() else []
    records.append(record)
    out.write_text(
        "[\n" + ",\n".join(json.dumps(r) for r in records) + "\n]\n", encoding="utf-8"
    )
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
