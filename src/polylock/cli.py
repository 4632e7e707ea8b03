"""Command-line interface: one subcommand per analysis.

Exit codes are the machine contract: 0 for success (plan valid, escape
found, key reachable), 1 for parse or usage errors, 2 for negative
analysis results (no plan, locked within budget, key unreachable), and
3 for searches that ran out of state budget.

`main` parses with one argument parser per process, built on its first
call; `build_parser` returns a fresh one.
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction
from pathlib import Path

from .classify import EnclosedHoleError, classify, pockets
from .corridor import (
    CorridorScene,
    RectChainScene,
    chain_hypotheses_hold,
    corridor_pins_horizontally,
    rotated_vertical_extent,
)
from .formats import ParsedDocument, emit_grid, parse_document
from .grid import (
    MAX_ENUMERATION_CELLS,
    Configuration,
    Direction,
    _trusted,
    enumerate_free,
)
from .search import (
    MAX_ARENA_CELLS,
    SINGLE_PIECE,
    SUBSET_MOVE,
    SearchBudget,
    escape_search,
    key_piece_reachable,
    slide_dependency,
)
from .separation import (
    InvariantViolationError,
    NoUto,
    plan_uto,
    separate_le5,
    simulate_plan,
)
from .svg import render_svg

_DIRECTION_CHOICES = ("+x", "-x", "+y", "-y")


class _Parser(argparse.ArgumentParser):
    """Raises instead of exiting so usage errors map to exit code 1."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def _load(path: str) -> ParsedDocument:
    return parse_document(Path(path).read_text(encoding="utf-8"))


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None


def _rect(text: str) -> tuple[Fraction, Fraction]:
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(
            f"rectangle must look like WIDTHxHEIGHT, got {text!r}"
        )
    return _fraction(parts[0]), _fraction(parts[1])


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


def _piece_set(piece_ids) -> str:
    return "+".join(sorted(piece_ids))


def _cells(cells) -> str:
    return " ".join(f"({x},{y})" for x, y in sorted(cells))


def _print_moves(moves) -> None:
    for order, (piece_ids, direction) in enumerate(moves, start=1):
        print(f"move {order}: {_piece_set(piece_ids)} {direction}")


def _cmd_classify(args) -> int:
    config = _load(args.file).config
    for pid in sorted(config.piece_ids()):
        shape = _trusted(config.cells_of(pid))  # checked when the file was read
        report = classify(shape)
        print(
            f"piece {pid}: x-monotone {_yn(report.x_monotone)}, "
            f"y-monotone {_yn(report.y_monotone)}, "
            f"orthogonally-convex {_yn(report.orthogonally_convex)}"
        )
        for axis in ("x", "y"):
            try:
                found = pockets(shape, axis)
            except EnclosedHoleError as err:
                print(f"  enclosed hole blocking axis {axis}: {_cells(err.cells)}")
                continue
            for pocket in found:
                print(
                    f"  pocket axis={axis} opening={pocket.opening} "
                    f"cells={_cells(pocket.cells)}"
                )
    return 0


def _cmd_separate(args) -> int:
    config = _load(args.file).config
    if args.mode == "uto":
        if args.dir is None:
            print("error: --mode uto requires --dir", file=sys.stderr)
            return 1
        result = plan_uto(config, Direction.parse(args.dir))
        if isinstance(result, NoUto):
            print(f"no plan in {result.direction}: cycle {' '.join(result.cycle)}")
            return 2
        plan = result
    else:
        if args.dir is not None:
            print("error: --dir applies only to --mode uto", file=sys.stderr)
            return 1
        try:
            plan = separate_le5(config)
        except InvariantViolationError as err:
            print(f"no plan: {err}", file=sys.stderr)
            return 2
    _print_moves((move.piece_ids, move.direction) for move in plan.moves)
    report = simulate_plan(config, plan)
    if not report.valid:
        print("simulation: invalid")
        return 2
    print("simulation: valid")
    return 0


def _budget(args) -> SearchBudget:
    mode = SINGLE_PIECE if args.mode == "single" else SUBSET_MOVE
    return SearchBudget(radius=args.radius, max_states=args.max_states, mode=mode)


_SEARCH_EXIT = {
    "escaped": 0,
    "reachable": 0,
    "locked-within-budget": 2,
    "unreachable-within-budget": 2,
    "budget-exhausted": 3,
}


def _cmd_solve(args) -> int:
    config = _load(args.file).config
    verdict = escape_search(config, _budget(args))
    print(f"outcome: {verdict.outcome}")
    print(f"states explored: {verdict.states_explored}")
    if verdict.outcome == "escaped":
        print(f"escapes: {_piece_set(verdict.piece_ids)} {verdict.direction}")
        _print_moves(verdict.trace)
    return _SEARCH_EXIT[verdict.outcome]


def _cmd_key(args) -> int:
    document = _load(args.file)
    piece = document.key_piece if args.piece is None else args.piece
    if piece is None:
        print(
            "error: no --piece given and the file names no key piece",
            file=sys.stderr,
        )
        return 1
    answer = key_piece_reachable(
        document.config, piece, (args.dx, args.dy), _budget(args)
    )
    print(f"outcome: {answer.outcome}")
    print(f"states explored: {answer.states_explored}")
    if answer.outcome == "reachable":
        _print_moves(answer.trace)
    return _SEARCH_EXIT[answer.outcome]


def _cmd_deps(args) -> int:
    config = _load(args.file).config
    dependency = slide_dependency(config, args.piece, Direction.parse(args.dir))
    print(" ".join(sorted(dependency)))
    return 0


_FILTERS = {
    "ortho-convex": lambda report: report.orthogonally_convex,
    "x-monotone": lambda report: report.x_monotone,
    "y-monotone": lambda report: report.y_monotone,
    "non-convex": lambda report: not report.orthogonally_convex,
}


def _cmd_enumerate(args) -> int:
    shapes = enumerate_free(args.n)
    if args.filter:
        keep = _FILTERS[args.filter]
        shapes = [shape for shape in shapes if keep(classify(shape))]
    print(len(shapes))
    for shape in shapes:
        print()
        print(emit_grid(Configuration.from_cell_map({"A": shape.cells})), end="")
    return 0


def _cmd_lemma(args) -> int:
    if args.lemma == "extent":
        value = rotated_vertical_extent(args.w, args.h, args.beta)
        print(f"extent: {value}")
        return 0
    if args.lemma == "corridor":
        scene = CorridorScene(
            rect_width=args.w,
            rect_height=args.h,
            corridor_gap=args.gap,
            epsilon=args.epsilon,
        )
        report = corridor_pins_horizontally(scene)
        print(f"pinned: {_yn(report.pinned)}")
        if report.pinned:
            print(f"derivative at 0: {report.derivative_at_zero}")
        elif report.witness_beta is None:
            print("witness beta: none (no positive float angle is certified to fit)")
        else:
            print(f"witness beta: {report.witness_beta}")
        return 0
    scene = RectChainScene(
        rects=tuple(args.rect),
        overlaps=tuple(args.overlap),
        corridor_gap=args.gap,
        epsilon=args.epsilon,
    )
    report = chain_hypotheses_hold(scene)
    print(f"holds: {_yn(report.holds)}")
    if report.holds and report.inner_widths:
        print(f"inner widths: {' '.join(str(w) for w in report.inner_widths)}")
    if report.failure:
        print(f"failure: {report.failure}")
    return 0


def _cmd_render(args) -> int:
    document = _load(args.file)
    config = document.config
    plan = None
    pocket_cells = None
    if args.annotate == "plan":
        try:
            plan = separate_le5(config)
        except InvariantViolationError as err:
            print(f"no plan to draw: {err}", file=sys.stderr)
            return 2
    elif args.annotate == "pockets":
        pocket_cells = []
        for pid in sorted(config.piece_ids()):
            shape = _trusted(config.cells_of(pid))  # checked when the file was read
            for axis in ("x", "y"):
                try:
                    for pocket in pockets(shape, axis):
                        pocket_cells.extend(pocket.cells)
                except EnclosedHoleError:
                    continue
    Path(args.output).write_text(
        render_svg(config, plan=plan, pocket_cells=pocket_cells),
        encoding="utf-8",
    )
    return 0


def _add_budget_flags(parser) -> None:
    parser.add_argument(
        "--radius",
        type=int,
        default=3,
        help=(
            "arena margin around the bounding box (default %(default)s); "
            f"an arena over {MAX_ARENA_CELLS} cells is refused with exit 1"
        ),
    )
    parser.add_argument(
        "--max-states",
        type=int,
        default=1_000_000,
        help="stop with exit 3 after this many states (default %(default)s)",
    )
    parser.add_argument("--mode", choices=("single", "subset"), default="single")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="polylock", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    classify_cmd = commands.add_parser(
        "classify", help="monotonicity and pockets per piece"
    )
    classify_cmd.add_argument("file")
    classify_cmd.set_defaults(handler=_cmd_classify)

    separate_cmd = commands.add_parser(
        "separate", help="plan a disassembly and simulate it"
    )
    separate_cmd.add_argument("file")
    separate_cmd.add_argument("--mode", choices=("le5", "uto"), default="le5")
    separate_cmd.add_argument(
        "--dir",
        choices=_DIRECTION_CHOICES,
        help="single direction for uto mode; write --dir=-x for negatives",
    )
    separate_cmd.set_defaults(handler=_cmd_separate)

    solve_cmd = commands.add_parser("solve", help="search for any escape")
    solve_cmd.add_argument("file")
    _add_budget_flags(solve_cmd)
    solve_cmd.set_defaults(handler=_cmd_solve)

    key_cmd = commands.add_parser(
        "key", help="can the key piece reach a displacement"
    )
    key_cmd.add_argument("file")
    key_cmd.add_argument("--piece", help="defaults to the file's key line")
    key_cmd.add_argument("--dx", type=int, required=True)
    key_cmd.add_argument("--dy", type=int, required=True)
    _add_budget_flags(key_cmd)
    key_cmd.set_defaults(handler=_cmd_key)

    deps_cmd = commands.add_parser(
        "deps", help="transitive one-step blockers of a piece"
    )
    deps_cmd.add_argument("file")
    deps_cmd.add_argument("--piece", required=True)
    deps_cmd.add_argument("--dir", choices=_DIRECTION_CHOICES, required=True)
    deps_cmd.set_defaults(handler=_cmd_deps)

    enum_cmd = commands.add_parser(
        "enumerate", help="free shapes of a given size"
    )
    enum_cmd.add_argument(
        "-n",
        type=int,
        required=True,
        help=(
            f"cells per shape, 1..{MAX_ENUMERATION_CELLS}; "
            "a value outside that range exits 1"
        ),
    )
    enum_cmd.add_argument("--filter", choices=tuple(_FILTERS))
    enum_cmd.set_defaults(handler=_cmd_enumerate)

    lemma_cmd = commands.add_parser(
        "lemma", help="continuous corridor and chain checks"
    )
    lemmas = lemma_cmd.add_subparsers(dest="lemma", required=True)
    extent = lemmas.add_parser("extent")
    extent.add_argument("--w", type=_fraction, required=True)
    extent.add_argument("--h", type=_fraction, required=True)
    extent.add_argument("--beta", type=float, required=True)
    corridor = lemmas.add_parser("corridor")
    corridor.add_argument("--w", type=_fraction, required=True)
    corridor.add_argument("--h", type=_fraction, required=True)
    corridor.add_argument("--gap", type=_fraction, required=True)
    corridor.add_argument("--epsilon", type=_fraction, default=Fraction(0))
    chain = lemmas.add_parser("chain")
    chain.add_argument(
        "--rect",
        type=_rect,
        action="append",
        required=True,
        help="WIDTHxHEIGHT, bottom to top, repeatable",
    )
    chain.add_argument(
        "--overlap", type=_fraction, action="append", default=[]
    )
    chain.add_argument("--gap", type=_fraction, required=True)
    chain.add_argument("--epsilon", type=_fraction, default=Fraction(0))
    lemma_cmd.set_defaults(handler=_cmd_lemma)

    render_cmd = commands.add_parser("render", help="write an SVG figure")
    render_cmd.add_argument("file")
    render_cmd.add_argument("-o", "--output", required=True)
    render_cmd.add_argument("--annotate", choices=("plan", "pockets"))
    render_cmd.set_defaults(handler=_cmd_render)

    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser `main` reuses: parsing leaves no state in it."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except argparse.ArgumentError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    try:
        return args.handler(args)
    except KeyError as err:
        detail = err.args[0] if err.args else err
        print(f"error: {detail}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


__all__ = ["build_parser", "entry", "main"]
