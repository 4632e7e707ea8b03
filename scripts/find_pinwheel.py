"""Search for four congruent hexominoes that lock in a pinwheel.

Candidate blades are every fixed orientation of every 6-cell shape at every
offset inside a square window. The other three blades are quarter-turn
images under r(x, y) = (W - 1 - y, x), which maps the window onto itself.
Candidates whose four blades overlap are rejected cheaply; survivors are
certified by the breadth-first escape search at radius 3.

Run from the repository root:

    python3 scripts/find_pinwheel.py [--radius 3] [--max-states 500000] [--all]
"""

import argparse
import sys

from polylock.grid import Configuration, enumerate_free, fixed_orientations
from polylock.search import SearchBudget, escape_search


def rotate(cells, window):
    return frozenset((window - 1 - y, x) for x, y in cells)


def candidate_blades(window):
    for shape in enumerate_free(6):
        for oriented in fixed_orientations(shape):
            width = max(x for x, _ in oriented.cells) + 1
            height = max(y for _, y in oriented.cells) + 1
            for dx in range(window - width + 1):
                for dy in range(window - height + 1):
                    yield frozenset(
                        (x + dx, y + dy) for x, y in oriented.cells
                    )


def pinwheel_from(blade, window):
    blades = [blade]
    for _ in range(3):
        blades.append(rotate(blades[-1], window))
    union = set()
    for cells in blades:
        if union & cells:
            return None
        union |= cells
    return Configuration.from_cell_map(
        {name: sorted(cells) for name, cells in zip("ABCD", blades)}
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--radius", type=int, default=3)
    parser.add_argument("--max-states", type=int, default=500_000)
    parser.add_argument(
        "--all", action="store_true", help="report every locked candidate"
    )
    args = parser.parse_args()

    budget = SearchBudget(radius=args.radius, max_states=args.max_states)
    tried = 0
    locked = 0
    for window in (6, 7, 8):
        for blade in sorted(candidate_blades(window), key=sorted):
            config = pinwheel_from(blade, window)
            if config is None:
                continue
            tried += 1
            verdict = escape_search(config, budget)
            if verdict.outcome != "locked-within-budget":
                continue
            locked += 1
            print(
                f"locked candidate in {window}x{window} window "
                f"(reachable states: {verdict.states_explored})"
            )
            for name in "ABCD":
                print(f"  {name}: {sorted(config.cells_of(name))}")
            if not args.all:
                return 0
    print(f"candidates searched: {tried}, locked found: {locked}", file=sys.stderr)
    return 0 if locked else 1


if __name__ == "__main__":
    sys.exit(main())
