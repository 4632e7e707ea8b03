"""Random argv and random files through the CLI, random text through the parser.

The CLI contract is that every argv ends in an exit code of 0, 1, 2 or 3
and never in an exception; the parser's is that bad text raises only
`ParseError`. Budgets stay small (radius at most 2, at most 200 states)
so each example runs in milliseconds.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from polylock.cli import main
from polylock.formats import (
    STRUCTURED_HEADER,
    ParsedDocument,
    ParseError,
    emit_grid,
    emit_structured,
    parse_document,
)
from polylock.instances import clasped_c_pair, tray_with_key, u_filler_example

FILES = {
    "empty": b"",
    "non-utf8": b"\xff\xfeA\x00\n",
    "disconnected": b"A.A\n",
    "overlapping": f"{STRUCTURED_HEADER}\npiece A: (0,0)\npiece B: (0,0)\n".encode(),
    "hexomino": b"AAAAAA\n",
    "u-filler": emit_structured(u_filler_example()).encode(),
    "clasp": emit_grid(clasped_c_pair()).encode(),
    "tray": emit_structured(tray_with_key(), key_piece="K").encode(),
}

grid_rows = st.lists(st.text("AB.C", max_size=5), max_size=4).map(
    lambda rows: ("\n".join(rows) + "\n").encode()
)
file_bytes = st.one_of(
    st.sampled_from(sorted(FILES.values())),
    grid_rows,
    st.binary(max_size=30),
)
numbers = st.one_of(
    st.sampled_from(["1", "2", "1.5", "1/3", "0.5"]),
    st.sampled_from(["0", "-1", "1/0", "1e400", "1e-400", "nan", "x"]),
    st.integers(-3, 5).map(str),
)
pieces = st.sampled_from(["A", "B", "K", "U", "missing"])
directions = st.sampled_from(["+x", "-x", "+y", "-y", "up"]).map("--dir={}".format)
offsets = st.sampled_from(["-1", "0", "1", "2", "x"])
budget = st.tuples(
    st.just("--radius"),
    st.sampled_from(["0", "1", "2", "2", "-1"]),
    st.just("--max-states"),
    st.sampled_from(["1", "20", "200", "200", "0", "-1"]),
    st.just("--mode"),
    st.sampled_from(["single", "subset", "subset", "both"]),
).map(list)


@st.composite
def argvs(draw, path, svg):
    """One subcommand with a random mix of its flags, valid or not."""
    command = draw(
        st.sampled_from(
            ["classify", "separate", "solve", "key", "deps", "enumerate"]
            + ["lemma", "render", "bogus"]
        )
    )
    flags = []
    if command == "separate":
        flags = draw(st.sampled_from([[], ["--mode", "uto"], ["--mode", "le5"]]))
        flags += draw(st.lists(directions, max_size=1))
    elif command == "solve":
        flags = draw(budget)
    elif command == "key":
        flags = draw(budget) + ["--dx", draw(offsets), "--dy", draw(offsets)]
        if draw(st.booleans()):
            flags += ["--piece", draw(pieces)]
    elif command == "deps":
        flags = ["--piece", draw(pieces), draw(directions)]
    elif command == "enumerate":
        sizes = st.sampled_from(["-1", "0", "1", "4", "6", "11", "x"])
        return [command, "-n", draw(sizes)]
    elif command == "lemma":
        lemma = draw(st.sampled_from(["extent", "corridor", "chain"]))
        if lemma in ("extent", "corridor"):
            last = "--beta" if lemma == "extent" else "--gap"
            flags = ["--w", draw(numbers), "--h", draw(numbers), last, draw(numbers)]
        else:
            rects = draw(st.lists(st.tuples(numbers, numbers), min_size=1, max_size=3))
            flags = [f"--rect={w}x{h}" for w, h in rects]
            flags += [f"--overlap={o}" for o in draw(st.lists(numbers, max_size=2))]
            flags += ["--gap", draw(numbers)]
        return [command, lemma] + flags
    elif command == "render":
        flags = ["-o", svg] + draw(
            st.sampled_from([[], ["--annotate", "plan"], ["--annotate", "pockets"]])
        )
    # one file in four does not exist
    files = st.sampled_from([path, path, path, path + ".missing"])
    return [command, draw(files)] + flags


@given(data=st.data(), content=file_bytes)
@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_cli_exits_with_a_contract_code_on_any_argv(tmp_path, capsys, data, content):
    path = tmp_path / "input.txt"
    path.write_bytes(content)
    argv = data.draw(argvs(str(path), str(tmp_path / "out.svg")))
    assert main(argv) in {0, 1, 2, 3}, argv
    assert "Traceback" not in capsys.readouterr().err


coordinates = st.tuples(st.integers(-2, 2), st.integers(-2, 2)).map(
    "({0[0]},{0[1]})".format
)
structured_lines = st.one_of(
    st.sampled_from(
        ["piece A: (0,0) (1,0)", "piece B: (0,1)", "key A", "key Z", "# note", ""]
    ),
    st.builds(
        "piece {}: {}".format,
        st.text("AB:( ", max_size=3),
        st.lists(coordinates, max_size=3).map(" ".join),
    ),
    st.text(max_size=12),
)


@given(
    st.one_of(
        st.text(max_size=60),
        st.lists(structured_lines, max_size=6).map(
            lambda lines: "\n".join([STRUCTURED_HEADER] + lines) + "\n"
        ),
    )
)
@settings(max_examples=120, deadline=None)
def test_parser_raises_only_parse_errors(text):
    try:
        document = parse_document(text)
    except ParseError:
        return
    assert isinstance(document, ParsedDocument)
