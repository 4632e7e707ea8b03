"""Render the authored instances and a few random packings to SVG files.

Writes one file per drawing into the output directory (default gallery/):
the named instances, a planner run with its numbered move arrows, a pocket
overlay for the U pentomino, and seeded packings.

Run from the repository root:

    python3 scripts/render_gallery.py [--out-dir gallery] [--seeds 0 1 2]
"""

import argparse
import pathlib
import sys

from polylock import Polyomino, classify, pockets, separate_le5, simulate_plan
from polylock.instances import (
    clasped_c_pair,
    keyhole_pair,
    pinwheel,
    tray_with_key,
    u_filler_example,
    z_chain,
)
from polylock.packing import PackingSpec, random_packing
from polylock.svg import render_svg


def write(directory, name, markup):
    path = directory / f"{name}.svg"
    path.write_text(markup, encoding="utf-8")
    print(path)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", default="gallery")
    parser.add_argument("--seeds", type=int, nargs="*", default=[0, 1, 2])
    args = parser.parse_args()

    directory = pathlib.Path(args.out_dir)
    directory.mkdir(parents=True, exist_ok=True)

    plain = {
        "clasped_c_pair": clasped_c_pair(),
        "keyhole_pair": keyhole_pair(),
        "pinwheel": pinwheel(),
        "tray_with_key": tray_with_key(),
        "z_chain": z_chain(4),
    }
    for name, config in plain.items():
        write(directory, name, render_svg(config))

    example = u_filler_example()
    plan = separate_le5(example)
    if not simulate_plan(example, plan).valid:
        print("planner produced an invalid plan for the example", file=sys.stderr)
        return 1
    write(directory, "u_filler_plan", render_svg(example, plan=plan))

    u_shape = Polyomino(example.cells_of("U"))
    axis = "y" if not classify(u_shape).y_monotone else "x"
    pocket_cells = [cell for pocket in pockets(u_shape, axis) for cell in pocket.cells]
    write(
        directory,
        "u_filler_pockets",
        render_svg(example, pocket_cells=pocket_cells),
    )

    spec = PackingSpec(width=12, height=12, max_pieces=12, max_cells=5)
    for seed in args.seeds:
        config = random_packing(seed, spec)
        plan = separate_le5(config)
        write(directory, f"packing_{seed:04d}", render_svg(config, plan=plan))
    return 0


if __name__ == "__main__":
    sys.exit(main())
