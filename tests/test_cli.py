"""Exit codes and output of every subcommand, run in process."""

import time
import xml.dom.minidom
from fractions import Fraction

import pytest

from polylock import cli
from polylock.classify import classify
from polylock.cli import _FILTERS, build_parser, main
from polylock.grid import (
    MAX_ENUMERATION_CELLS,
    Configuration,
    Direction,
    Lanes,
    Polyomino,
    occupied_cells,
)
from polylock.search import MAX_ARENA_CELLS, replay_trace
from polylock.formats import emit_grid, emit_structured
from polylock.instances import (
    clasped_c_pair,
    keyhole_pair,
    pinwheel,
    tray_with_key,
    u_filler_example,
    z_chain,
)
from test_grid import _tuple_enumerate_free
from test_search import _doored_tray, _framed_tray


@pytest.fixture
def write(tmp_path):
    def _write(name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return _write


def test_classify_reports_monotonicity_and_pockets(write, capsys):
    path = write("u.cfg", emit_structured(u_filler_example()))
    assert main(["classify", path]) == 0
    out = capsys.readouterr().out
    assert "piece U: x-monotone yes, y-monotone no, orthogonally-convex no" in out
    assert "pocket axis=y opening=+y cells=(1,1)" in out


def test_separate_valid_plan_exits_zero(write, capsys):
    path = write("u.cfg", emit_structured(u_filler_example()))
    assert main(["separate", path]) == 0
    out = capsys.readouterr().out
    assert "move 1: D +x" in out
    assert "simulation: valid" in out


def test_separate_uto_requires_direction(write, capsys):
    path = write("u.cfg", emit_structured(u_filler_example()))
    assert main(["separate", path, "--mode", "uto"]) == 1
    assert "requires --dir" in capsys.readouterr().err


def test_separate_uto_reports_cycles(write, capsys):
    path = write("clasp.cfg", emit_structured(clasped_c_pair()))
    assert main(["separate", path, "--mode", "uto", "--dir=+x"]) == 2
    assert "cycle" in capsys.readouterr().out


def test_separate_uto_succeeds_upward(write, capsys):
    path = write("clasp.cfg", emit_structured(clasped_c_pair()))
    assert main(["separate", path, "--mode", "uto", "--dir=+y"]) == 0
    assert "simulation: valid" in capsys.readouterr().out


def test_solve_locked_pinwheel_exits_two(write, capsys):
    path = write("pinwheel.txt", emit_grid(pinwheel()))
    assert main(["solve", path]) == 2
    out = capsys.readouterr().out
    assert "outcome: locked-within-budget" in out
    assert "states explored: 1" in out


def test_solve_escape_prints_trace(write, capsys):
    path = write("keyhole.txt", emit_grid(keyhole_pair()))
    assert main(["solve", path]) == 0
    out = capsys.readouterr().out
    assert "escapes: K -y" in out
    assert "move 1: K +x" in out


@pytest.mark.parametrize(
    "build, expected",
    [
        # no single piece can leave either board, so a pair leaves, from
        # the start state: the trace has no moves
        (pinwheel, "escapes: A+B -y"),
        (_doored_tray, "escapes: A+B +x"),
    ],
    ids=["pinwheel", "doored_tray"],
)
def test_solve_prints_a_subset_escape(build, expected, write, capsys):
    path = write("board.txt", emit_grid(build()))
    assert main(["solve", path, "--mode", "subset"]) == 0
    captured = capsys.readouterr()
    assert captured.out == f"outcome: escaped\nstates explored: 1\n{expected}\n"
    assert captured.err == ""


def test_solve_budget_exhaustion_exits_three(write, capsys):
    ring = [(x, 0) for x in range(5)] + [(x, 2) for x in range(5)]
    ring += [(0, 1), (4, 1)]
    from polylock.grid import Configuration

    slack = Configuration.from_cell_map({"R": ring, "D": [(1, 1), (2, 1)]})
    path = write("slack.cfg", emit_structured(slack))
    assert main(["solve", path, "--max-states", "1"]) == 3
    assert "budget-exhausted" in capsys.readouterr().out


def test_solve_refuses_an_arena_over_the_cap(write, capsys):
    # two touching dominoes and one far away: a 100008 x 100007 arena
    path = write(
        "far.cfg",
        "polylock-config v1\n"
        "piece A: (0,0) (1,0)\n"
        "piece B: (0,1) (1,1)\n"
        "piece C: (100000,100000) (100001,100000)\n",
    )
    started = time.perf_counter()
    code = main(["solve", path, "--mode", "subset"])
    elapsed = time.perf_counter() - started
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert f"cap of {MAX_ARENA_CELLS} cells" in captured.err
    assert "Traceback" not in captured.err
    assert elapsed < 1.0


@pytest.mark.parametrize("command", ["solve", "key"])
def test_search_help_states_the_caps(command, capsys):
    with pytest.raises(SystemExit) as stop:
        main([command, "--help"])
    assert stop.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert f"an arena over {MAX_ARENA_CELLS} cells is refused with exit 1" in text
    assert "after this many states (default 1000000)" in text


def test_key_uses_the_files_key_line(write, capsys):
    path = write("tray.cfg", emit_structured(tray_with_key(), key_piece="K"))
    assert main(["key", path, "--dx", "3", "--dy", "3", "--radius", "2"]) == 0
    assert "outcome: reachable" in capsys.readouterr().out


def test_key_without_piece_or_key_line_is_usage_error(write, capsys):
    path = write("u.cfg", emit_structured(u_filler_example()))
    assert main(["key", path, "--dx", "1", "--dy", "0"]) == 1
    assert "key piece" in capsys.readouterr().err


def test_key_unknown_piece_exits_one(write, capsys):
    path = write("u.cfg", emit_structured(u_filler_example()))
    assert main(["key", path, "--piece", "Q", "--dx", "1", "--dy", "0"]) == 1
    assert "Q" in capsys.readouterr().err


@pytest.mark.parametrize("key_line", [True, False], ids=["key_line", "no_key_line"])
def test_key_with_an_empty_piece_id_exits_one(key_line, write, capsys):
    # an empty --piece names no piece; it never falls back to the key line
    key = "K" if key_line else None
    path = write("tray.cfg", emit_structured(tray_with_key(), key_piece=key))
    assert main(["key", path, "--piece=", "--dx", "1", "--dy", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: no piece '' in configuration\n"


def _keyed_tray(side):
    """`_framed_tray` of `side` with its top right corner empty and its
    bottom left tile renamed K."""
    cells = _framed_tray(side, (side, side)).cell_map()
    cells["K"] = cells.pop("T00")
    return Configuration.from_cell_map(cells)


_TRAY_4_KEY = """\
outcome: reachable
states explored: 56
move 1: T11 +y
move 2: T07 +y
move 3: T03 +y
move 4: T02 +x
move 5: T01 +x
move 6: K +x
move 7: T04 -y
move 8: T05 -x
move 9: K +y
move 10: T01 -x
move 11: T06 -y
move 12: K +x
"""

_TRAY_3_SUBSET_KEY = """\
outcome: reachable
states explored: 65
move 1: T02+T05 +y
move 2: K+T01 +x
move 3: T03 -y
move 4: T04 -x
move 5: K +y
move 6: T01 -x
move 7: T02 -y
move 8: K +x
move 9: T07 -y
move 10: T05 -x
move 11: K +y
"""


@pytest.mark.parametrize(
    "side, argv, code, expected",
    [
        (4, ["key", "--dx", "2", "--dy", "1"], 0, _TRAY_4_KEY),
        (4, ["solve"], 2, "outcome: locked-within-budget\nstates explored: 16\n"),
        (3, ["key", "--dx", "2", "--dy", "2", "--mode", "subset"], 0, _TRAY_3_SUBSET_KEY),
        (
            3,
            ["solve", "--mode", "subset"],
            2,
            "outcome: locked-within-budget\nstates explored: 9\n",
        ),
    ],
    ids=["4x4-key", "4x4-solve", "3x3-subset-key", "3x3-subset-solve"],
)
def test_tray_queries_print_the_bfs_order(side, argv, code, expected, write, capsys):
    # the state counts and move orders pin the breadth-first order
    path = write("tray.cfg", emit_structured(_keyed_tray(side), key_piece="K"))
    assert main([argv[0], path, *argv[1:]]) == code
    captured = capsys.readouterr()
    assert captured.out == expected
    assert captured.err == ""


def test_key_trace_survives_a_shift_of_every_piece(write, capsys):
    # A's first move hands the smallest cell to B, so drift normalisation
    # shifts the whole board down by one row
    config = Configuration.from_cell_map(
        {"A": [(0, 0), (1, 0)], "B": [(0, 1), (0, 2)], "C": [(1, 1)]}
    )
    first = replay_trace(config, ((frozenset("A"), Direction.POS_X),))
    assert min(occupied_cells(first)) in first.cells_of("B")
    path = write("l.cfg", emit_structured(config))
    argv = ["key", path, "--piece", "A", "--dx", "1", "--dy", "2", "--radius", "1"]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == (
        "outcome: reachable\n"
        "states explored: 47\n"
        "move 1: A +x\n"
        "move 2: B -y\n"
        "move 3: B -y\n"
        "move 4: B -y\n"
    )
    assert captured.err == ""


def test_deps_prints_the_dependency_set(write, capsys):
    path = write("chain.cfg", emit_structured(z_chain(4)))
    assert main(["deps", path, "--piece", "Z3", "--dir=-x"]) == 0
    assert capsys.readouterr().out.strip() == "Z0 Z1 Z2 Z3"


def test_enumerate_counts_and_draws(capsys):
    assert main(["enumerate", "-n", "5", "--filter", "non-convex"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "1"
    assert out.count("A") == 5


def test_enumerate_over_the_size_cap_fails(capsys):
    assert main(["enumerate", "-n", "11"]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("name", [None, *_FILTERS])
def test_enumerate_prints_what_the_tuple_enumerator_prints(name, capsys):
    shapes = [
        cells
        for cells in _tuple_enumerate_free(7)
        if name is None or _FILTERS[name](classify(Polyomino(frozenset(cells))))
    ]
    expected = f"{len(shapes)}\n" + "".join(
        "\n" + emit_grid(Configuration.from_cell_map({"A": cells}))
        for cells in shapes
    )
    argv = ["enumerate", "-n", "7"] + (["--filter", name] if name else [])
    assert main(argv) == 0
    assert capsys.readouterr().out == expected


def test_enumerate_help_states_the_cap(capsys):
    with pytest.raises(SystemExit) as stop:
        main(["enumerate", "--help"])
    assert stop.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert f"1..{MAX_ENUMERATION_CELLS}; a value outside that range exits 1" in text


def test_lemma_extent(capsys):
    assert main(["lemma", "extent", "--w", "1", "--h", "1", "--beta", "0"]) == 0
    assert "extent: 1.0" in capsys.readouterr().out


def test_lemma_corridor_pinned_and_loose(capsys):
    assert main(["lemma", "corridor", "--w", "2", "--h", "1", "--gap", "1"]) == 0
    out = capsys.readouterr().out
    assert "pinned: yes" in out
    assert "derivative at 0: 2.0" in out
    assert main(["lemma", "corridor", "--w", "2", "--h", "1", "--gap", "1.5"]) == 0
    assert "pinned: no" in capsys.readouterr().out


def test_lemma_corridor_infeasible_exits_one(capsys):
    code = main(["lemma", "corridor", "--w", "2", "--h", "1", "--gap", "0.9"])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_lemma_extent_refuses_a_length_beyond_the_float_range(capsys):
    code = main(["lemma", "extent", "--w", "1e400", "--h", "1", "--beta", "0.1"])
    captured = capsys.readouterr()
    assert code == 1
    assert "w must be at most 1e300" in captured.err
    assert "Traceback" not in captured.err


def test_lemma_corridor_refuses_a_gap_beyond_the_float_range(capsys):
    code = main(["lemma", "corridor", "--w", "1", "--h", "1", "--gap", "1e400"])
    captured = capsys.readouterr()
    assert code == 1
    assert "corridor_gap must be at most 1e300" in captured.err
    assert "Traceback" not in captured.err


def test_lemma_corridor_decides_a_height_below_the_float_range(capsys):
    # h is positive but rounds to 0.0 as a float; the decision is exact
    code = main(["lemma", "corridor", "--w", "1", "--h", "1e-400", "--gap", "1"])
    captured = capsys.readouterr()
    assert code == 0
    lines = captured.out.splitlines()
    assert lines[0] == "pinned: no"
    witness = float(lines[1].removeprefix("witness beta: "))
    assert 0 < witness <= 1.5707963267948966
    assert captured.err == ""


def test_lemma_corridor_shrinks_a_float_witness_until_it_is_certified(capsys):
    # the gap rounds to the float 1.0; the float bisection's 1.0e-26 overshoots
    argv = ["--w", "1e10", "--h", "1", "--gap", "1.00000000000000000001"]
    code = main(["lemma", "corridor", *argv])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert lines[0] == "pinned: no"
    beta = Fraction(float(lines[1].removeprefix("witness beta: ")))
    # cos b <= 1 and sin b <= b, so this bound on the extent is an upper bound
    assert 0 < beta and 1 + 10**10 * beta <= Fraction("1.00000000000000000001")


def test_lemma_corridor_says_when_no_float_witness_is_certified(capsys):
    argv = ["--w", "1e300", "--h", "1e-30", "--gap", "1.0000000000000000000001e-30"]
    code = main(["lemma", "corridor", *argv])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == (
        "pinned: no\n"
        "witness beta: none (no positive float angle is certified to fit)\n"
    )
    assert captured.err == ""


def test_lemma_chain(capsys):
    argv = [
        "lemma", "chain", "--rect", "5x1", "--rect", "5x1",
        "--overlap", "5", "--gap", "2", "--epsilon", "0.4",
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "holds: yes" in out
    assert "inner widths: 3.0" in out


def test_render_writes_deterministic_svg(write, tmp_path, capsys):
    path = write("u.cfg", emit_structured(u_filler_example()))
    out_a = tmp_path / "a.svg"
    out_b = tmp_path / "b.svg"
    assert main(["render", path, "-o", str(out_a), "--annotate", "plan"]) == 0
    assert main(["render", path, "-o", str(out_b), "--annotate", "plan"]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    document = xml.dom.minidom.parseString(out_a.read_text())
    assert document.documentElement.tagName == "svg"
    assert out_a.read_text().count("marker-end") == 3


def test_render_pocket_annotation(write, tmp_path):
    path = write("u.cfg", emit_structured(u_filler_example()))
    out = tmp_path / "pockets.svg"
    assert main(["render", path, "-o", str(out), "--annotate", "pockets"]) == 0
    assert "<rect" in out.read_text()


def test_parse_errors_exit_one_with_line_number(write, capsys):
    path = write("bad.txt", "AB\nBA\n")
    assert main(["classify", path]) == 1
    assert "line 1" in capsys.readouterr().err


def test_missing_file_exits_one(capsys):
    assert main(["classify", "/nonexistent/nowhere.cfg"]) == 1
    assert "error" in capsys.readouterr().err


def test_unknown_subcommand_exits_one(capsys):
    assert main(["bogus"]) == 1
    assert "error" in capsys.readouterr().err


def test_bad_direction_token_exits_one(write, capsys):
    path = write("chain.cfg", emit_structured(z_chain(2)))
    assert main(["deps", path, "--piece", "Z0", "--dir=+z"]) == 1
    assert "error" in capsys.readouterr().err


def test_lemma_corridor_gives_a_positive_witness_for_a_width_below_the_float_range(
    capsys,
):
    # w is positive but rounds to 0.0 as a float
    code = main(["lemma", "corridor", "--w", "1e-400", "--h", "1", "--gap", "1.5"])
    captured = capsys.readouterr()
    assert code == 0
    lines = captured.out.splitlines()
    assert lines[0] == "pinned: no"
    witness = float(lines[1].removeprefix("witness beta: "))
    assert 0 < witness < 1.5707963267948966
    assert captured.err == ""
    beta = lines[1].removeprefix("witness beta: ")
    assert main(["lemma", "extent", "--w", "1e-400", "--h", "1", "--beta", beta]) == 0
    assert float(capsys.readouterr().out.removeprefix("extent: ")) <= 1.5


# --------------------------------------------------------------------------
# one parser per process
# --------------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv, code, axes, said",
    [
        (["separate"], 0, ["x", "y"], "move 2: L +y\nmove 3: U +y\nsimulation: valid"),
        (["render", "-o", "plan.svg", "--annotate", "plan"], 0, ["x", "y"], ""),
        (["separate", "--mode", "uto", "--dir=+x"], 2, ["x"], "no plan in +x: cycle L U"),
        (["separate", "--mode", "uto", "--dir=+y"], 0, ["y"], "simulation: valid"),
    ],
    ids=["separate", "render-plan", "uto+x", "uto+y"],
)
def test_a_plan_query_builds_one_lane_index_per_axis(
    argv, code, axes, said, monkeypatch, write, tmp_path, capsys
):
    """The peel, the planner's replay and the printed plan's replay share
    the loaded configuration's indexes. In u_filler_example, L sits in U's
    pocket: the group's members exit along y while the peel runs along x,
    and along +x there is no single-direction plan to replay."""
    builds = []
    build = Lanes.__init__

    def counting_init(self, cells_by_id, axis):
        builds.append(axis)
        build(self, cells_by_id, axis)

    monkeypatch.setattr(Lanes, "__init__", counting_init)
    monkeypatch.chdir(tmp_path)
    path = write("u.cfg", emit_structured(u_filler_example()))
    assert main([argv[0], path, *argv[1:]]) == code
    assert sorted(builds) == axes
    assert said in capsys.readouterr().out


def _run(argv, capsys):
    """(exit code, stdout, stderr) of one call; `--help` exits with SystemExit."""
    try:
        code = main(argv)
    except SystemExit as stop:
        code = ("SystemExit", stop.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_main_builds_its_parser_at_most_once(monkeypatch, write, capsys):
    built = []

    def counting_build_parser():
        built.append(None)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    cli._parser.cache_clear()
    try:
        path = write("u.cfg", emit_structured(u_filler_example()))
        argvs = (["classify", path], ["enumerate", "-n", "3"], ["bogus"], ["--help"])
        for argv in argvs * 5:
            _run(argv, capsys)
        assert len(built) == 1
    finally:
        cli._parser.cache_clear()
    assert build_parser() is not build_parser()


#: A one-rectangle chain takes no --overlap; a stale overlap would fail it.
_CHAIN = ["lemma", "chain", "--rect", "5x1", "--gap", "2"]


def test_reused_parser_leaks_no_state_between_calls(write, capsys):
    path = write("u.cfg", emit_structured(u_filler_example()))
    valid = [
        ["classify", path],
        ["separate", path],
        ["key", write("tray.cfg", emit_structured(tray_with_key(), "K")), "--dx=0", "--dy=1"],
        [*_CHAIN, "--rect", "5x1", "--overlap", "5", "--epsilon", "0.4"],
        _CHAIN,
        ["enumerate", "-n", "4", "--filter", "non-convex"],
    ]
    cli._parser.cache_clear()
    first = [_run(argv, capsys) for argv in valid]
    assert [code for code, _, _ in first] == [0, 0, 0, 0, 0, 0]
    # the same argv twice gives the same answer
    assert [_run(argv, capsys) for argv in valid] == first
    # an appended --overlap never reaches the shared default list
    three = [*_CHAIN, "--rect", "5x1", "--rect", "5x1", "--overlap", "5", "--overlap", "1"]
    overlapped = _run(three, capsys)
    assert overlapped[0] == 0
    assert _run(three, capsys) == overlapped
    assert _run(_CHAIN, capsys) == first[4]
    # usage errors and --help leave the next valid call unchanged
    interruptions = (
        ["separate"],
        ["deps", path, "--piece", "U"],
        ["lemma", "chain", "--overlap", "3", "--gap", "1"],
        ["--help"],
        ["lemma", "chain", "--help"],
    )
    for bad in interruptions:
        code, _, _ = _run(bad, capsys)
        assert code in (1, ("SystemExit", 0)), bad
        assert [_run(argv, capsys) for argv in valid] == first, bad
