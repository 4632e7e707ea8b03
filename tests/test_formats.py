"""Round trips and line-numbered failures for both text formats."""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polylock import formats
from polylock.formats import (
    EMIT_ALPHABET,
    ParseError,
    STRUCTURED_HEADER,
    detect_format,
    emit_grid,
    emit_structured,
    parse_document,
    parse_grid,
    parse_structured,
)
from polylock.grid import Configuration, Polyomino, is_connected
from polylock.instances import pinwheel, tray_with_key, u_filler_example
from polylock.packing import PackingSpec, random_packing
from test_grid import _oracle_from_cell_map, assert_same_configuration


def _cell_sets(config):
    return sorted(config.cell_map().values(), key=sorted)


class TestParseGrid:
    def test_single_tromino(self):
        config = parse_grid("AA\n.A\n")
        assert config.cells_of("A") == frozenset({(0, 1), (1, 1), (1, 0)})

    def test_top_text_row_is_the_highest_y(self):
        config = parse_grid("A.\n.B\n")
        assert config.cells_of("A") == frozenset({(0, 1)})
        assert config.cells_of("B") == frozenset({(1, 0)})

    def test_spaces_count_as_empty(self):
        config = parse_grid("A A\nAAA\n")
        assert len(config.cells_of("A")) == 5

    def test_corner_connected_piece_is_rejected_with_its_line(self):
        with pytest.raises(ParseError) as err:
            parse_grid("AB\nBA\n")
        assert err.value.line_number == 1
        assert "not connected" in str(err.value)

    def test_disconnected_later_piece_reports_its_first_line(self):
        with pytest.raises(ParseError) as err:
            parse_grid("AAA\n.B.\nB.B\n")
        assert err.value.line_number == 2

    def test_unprintable_character(self):
        with pytest.raises(ParseError) as err:
            parse_grid("A\x07A\n")
        assert err.value.line_number == 1

    def test_empty_text_is_an_empty_configuration(self):
        assert parse_grid("") == Configuration.from_cell_map({})


class TestEmitGrid:
    def test_single_character_ids_are_preserved(self):
        config = pinwheel()
        assert parse_grid(emit_grid(config)).cell_map() == config.cell_map()

    def test_multi_character_ids_are_renamed_onto_the_alphabet(self):
        config = tray_with_key()
        text = emit_grid(config)
        parsed = parse_grid(text)
        assert _cell_sets(parsed) == _cell_sets(config)
        assert set("".join(text.split())) <= set(EMIT_ALPHABET) | {"."}

    def test_empty_configuration_emits_empty_text(self):
        assert emit_grid(Configuration.from_cell_map({})) == ""

    def test_too_many_pieces_for_renaming(self):
        config = Configuration.from_cell_map(
            {f"P{i:02d}": [(2 * i, 0)] for i in range(63)}
        )
        with pytest.raises(ValueError):
            emit_grid(config)

    @pytest.mark.parametrize("seed", range(6))
    def test_round_trip_on_random_packings(self, seed):
        config = random_packing(seed, PackingSpec())
        assert _cell_sets(parse_grid(emit_grid(config))) == _cell_sets(config)


class TestParseStructured:
    def test_pieces_key_and_comments(self):
        text = (
            f"{STRUCTURED_HEADER}\n"
            "# two dominoes\n"
            "piece left: (0,0) (0,1)\n"
            "\n"
            "piece right: (2,0) (2,1)\n"
            "key right\n"
        )
        document = parse_structured(text)
        assert sorted(document.config.piece_ids()) == ["left", "right"]
        assert document.key_piece == "right"

    def test_negative_coordinates(self):
        text = f"{STRUCTURED_HEADER}\npiece A: (-2,-3) (-2,-2)\n"
        config = parse_structured(text).config
        assert config.cells_of("A") == frozenset({(-2, -3), (-2, -2)})

    def test_missing_header(self):
        with pytest.raises(ParseError) as err:
            parse_structured("piece A: (0,0)\n")
        assert err.value.line_number == 1

    def test_blank_lines_before_header_are_fine(self):
        text = f"\n\n{STRUCTURED_HEADER}\npiece A: (0,0)\n"
        assert parse_structured(text).config.cells_of("A")

    @pytest.mark.parametrize(
        "line, fragment",
        [
            ("piece A: (0,0) x", "malformed coordinate"),
            ("piece A: (0.5,1)", "malformed coordinate"),
            ("piece A:", "no cells"),
            ("pieces A: (0,0)", "unrecognized"),
            ("key ghost", "unknown piece"),
        ],
    )
    def test_bad_lines_carry_their_number(self, line, fragment):
        text = f"{STRUCTURED_HEADER}\npiece Z: (9,9)\n{line}\n"
        with pytest.raises(ParseError) as err:
            parse_structured(text)
        assert err.value.line_number == 3
        assert fragment in str(err.value)

    def test_duplicate_piece_id(self):
        text = f"{STRUCTURED_HEADER}\npiece A: (0,0)\npiece A: (5,5)\n"
        with pytest.raises(ParseError) as err:
            parse_structured(text)
        assert err.value.line_number == 3

    def test_duplicate_key_line(self):
        text = f"{STRUCTURED_HEADER}\npiece A: (0,0)\nkey A\nkey A\n"
        with pytest.raises(ParseError) as err:
            parse_structured(text)
        assert err.value.line_number == 4

    def test_overlapping_pieces_report_the_later_line(self):
        text = f"{STRUCTURED_HEADER}\npiece A: (0,0)\npiece B: (0,0)\n"
        with pytest.raises(ParseError) as err:
            parse_structured(text)
        assert err.value.line_number == 3
        assert "overlap" in str(err.value)

    def test_disconnected_piece_reports_its_line(self):
        text = f"{STRUCTURED_HEADER}\npiece A: (0,0) (2,0)\n"
        with pytest.raises(ParseError) as err:
            parse_structured(text)
        assert err.value.line_number == 2


class TestEmitStructured:
    def test_round_trip_preserves_ids_and_key(self):
        config = tray_with_key()
        text = emit_structured(config, key_piece="K")
        document = parse_structured(text)
        assert document.config.cell_map() == config.cell_map()
        assert document.key_piece == "K"

    def test_unknown_key_rejected(self):
        with pytest.raises(KeyError):
            emit_structured(pinwheel(), key_piece="nope")

    def test_id_with_spaces_rejected(self):
        config = Configuration.from_cell_map({"a b": [(0, 0)]})
        with pytest.raises(ValueError):
            emit_structured(config)

    @pytest.mark.parametrize("seed", range(6))
    def test_round_trip_on_random_packings(self, seed):
        config = random_packing(seed, PackingSpec())
        parsed = parse_structured(emit_structured(config)).config
        assert parsed.cell_map() == config.cell_map()


class TestAutoDetect:
    def test_header_selects_structured(self):
        assert detect_format(f"{STRUCTURED_HEADER}\npiece A: (0,0)\n") == "structured"
        assert detect_format("AA\n") == "grid"
        assert detect_format("") == "grid"

    def test_parse_document_routes_both(self):
        grid_doc = parse_document("AA\n")
        assert grid_doc.key_piece is None
        structured_doc = parse_document(
            f"{STRUCTURED_HEADER}\npiece A: (0,0) (1,0)\nkey A\n"
        )
        assert structured_doc.key_piece == "A"
        assert grid_doc.config.cell_map() == parse_grid("AA\n").cell_map()

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_both_formats_agree_on_random_packings(self, seed):
        # grid text is anchored at its own bounding box, so compare both
        # parses after shifting the structured one onto the same corner
        config = random_packing(
            seed, PackingSpec(width=7, height=7, max_pieces=6, max_cells=4)
        )
        if len(config) == 0:
            return
        via_grid = parse_document(emit_grid(config)).config
        via_structured = parse_document(emit_structured(config)).config
        min_x, min_y, _, _ = via_structured.bounding_box()
        anchored = [
            frozenset((x - min_x, y - min_y) for x, y in cells)
            for cells in _cell_sets(via_structured)
        ]
        assert _cell_sets(via_grid) == sorted(anchored, key=sorted)


class TestDisconnectedCells:
    """Every public entry refuses a disconnected piece the same way."""

    disconnected = st.sets(
        st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=2, max_size=7
    ).filter(lambda cells: not is_connected(cells))

    @given(disconnected)
    @settings(max_examples=30, deadline=None)
    def test_constructors_raise_value_error(self, cells):
        for build in (
            lambda: Polyomino(frozenset(cells)),
            lambda: Configuration.from_cell_map({"A": cells, "B": [(9, 9)]}),
        ):
            with pytest.raises(ValueError, match="cells are not edge-connected"):
                build()

    @given(disconnected, st.integers(0, 3))
    @settings(max_examples=30, deadline=None)
    def test_parsers_name_the_pieces_first_line(self, cells, lines_above):
        # `lines_above` rows of a connected column piece B sit above piece A
        top = max(y for _, y in cells)
        grid = ["B"] * lines_above + [
            "".join("A" if (x, y) in cells else "." for x in range(5))
            for y in range(top, -1, -1)
        ]
        with pytest.raises(ParseError, match="'A' is not connected") as err:
            parse_document("\n".join(grid) + "\n")
        assert err.value.line_number == lines_above + 1

        structured = [STRUCTURED_HEADER, "# filler pieces first"]
        structured += [f"piece B{i}: ({i},-9)" for i in range(lines_above)]
        structured.append("piece A: " + " ".join(f"({x},{y})" for x, y in cells))
        with pytest.raises(ParseError, match="'A' is not connected") as err:
            parse_document("\n".join(structured) + "\n")
        assert err.value.line_number == lines_above + 3


# The load path `_validated` replaced: the same line-numbered checks, then
# `Configuration.from_cell_map`, which checked every piece and the overlaps
# again (restated independently by `_oracle_from_cell_map`).


def _oracle_validated(pieces, lines):
    claimed = {}
    for pid in sorted(pieces, key=lambda p: lines[p]):
        for cell in pieces[pid]:
            if cell in claimed and claimed[cell] != pid:
                raise ParseError(
                    f"pieces {claimed[cell]!r} and {pid!r} overlap at {cell}",
                    lines[pid],
                )
            claimed[cell] = pid
    for pid in sorted(pieces, key=lambda p: lines[p]):
        if not is_connected(frozenset(pieces[pid])):
            raise ParseError(f"piece {pid!r} is not connected", lines[pid])
    return _oracle_from_cell_map(pieces)


def _parsed_both_ways(text):
    """(document or ParseError) from the parser and from the oracle path."""
    outcomes = []
    for validated in (formats._validated, _oracle_validated):
        with mock.patch.object(formats, "_validated", validated):
            try:
                outcomes.append(parse_document(text))
            except ParseError as err:
                outcomes.append(err)
    return outcomes


_cell = st.tuples(st.integers(-2, 3), st.integers(-2, 3))
_steps = st.lists(st.sampled_from(((1, 0), (-1, 0), (0, 1), (0, -1))), max_size=6)


@st.composite
def _piece_cells(draw):
    """A walk (connected, may list a cell twice) or loose cells (may be
    disconnected), in a small box so that pieces often overlap."""
    if draw(st.booleans()):
        return draw(st.lists(_cell, min_size=1, max_size=5))
    x, y = draw(_cell)
    cells = [(x, y)]
    for dx, dy in draw(_steps):
        x, y = x + dx, y + dy
        cells.append((x, y))
    return cells


@st.composite
def _structured_documents(draw):
    ids = draw(st.lists(st.sampled_from(["A", "B", "C", "dd", "e1"]), max_size=4, unique=True))
    if ids and draw(st.integers(0, 9)) == 0:
        ids.append(ids[0])
    lines = [STRUCTURED_HEADER]
    for pid in ids:
        if draw(st.booleans()):
            lines.append(draw(st.sampled_from(["", "# note", "   "])))
        cells = draw(_piece_cells())
        lines.append(f"piece {pid}: " + " ".join(f"({x},{y})" for x, y in cells))
    if ids and draw(st.booleans()):
        lines.append(f"key {draw(st.sampled_from(ids + ['Z']))}")
    return "\n".join(lines) + "\n"


@st.composite
def _grid_documents(draw):
    """Walks painted onto a small canvas (later pieces cover earlier ones),
    or rows of random symbols."""
    if draw(st.booleans()):
        alphabet = st.sampled_from("AAB.. C")
        rows = draw(st.lists(st.text(alphabet, max_size=6), min_size=1, max_size=6))
        return "\n".join(rows) + "\n"
    canvas = {}
    for symbol in draw(st.lists(st.sampled_from("ABCDx#"), max_size=5, unique=True)):
        for x, y in draw(_piece_cells()):
            canvas[x + 2, y + 2] = symbol
    rows = [
        "".join(canvas.get((x, y), ".") for x in range(8)) for y in range(7, -1, -1)
    ]
    return "\n".join(rows) + "\n"


class TestLoadPathOracle:
    """Parsing checks each cell once and matches the path it replaced: the
    same configuration and indexes, or the same error on the same line."""

    @given(st.one_of(_structured_documents(), _grid_documents()))
    @settings(max_examples=400, deadline=None)
    def test_parser_matches_the_old_load_path(self, text):
        got, expected = _parsed_both_ways(text)
        if isinstance(expected, ParseError):
            assert isinstance(got, ParseError), text
            assert (str(got), got.line_number) == (str(expected), expected.line_number)
            return
        assert got.key_piece == expected.key_piece
        assert_same_configuration(got.config, expected.config)

    def test_named_faults_match_the_old_load_path(self):
        """A cell listed twice, files with both faults (the overlap is
        reported), a disconnected grid piece and a valid grid."""
        texts = [
            f"{STRUCTURED_HEADER}\npiece A: (0,0) (0,0) (1,0)\npiece B: (1,0) (3,3)\n",
            f"{STRUCTURED_HEADER}\npiece A: (0,0) (2,0)\npiece B: (0,0)\n",
            "A.A\nBB.\n",
            "AB\nAB\n",
        ]
        outcomes = [_parsed_both_ways(text) for text in texts]
        for got, expected in outcomes:
            assert type(got) is type(expected)
        assert [str(got) for got, _ in outcomes[:3]] == [
            "line 3: pieces 'A' and 'B' overlap at (1, 0)",
            "line 3: pieces 'A' and 'B' overlap at (0, 0)",
            "line 1: piece 'A' is not connected",
        ]
        assert outcomes[3][0].config.cell_map() == {
            "A": {(0, 0), (0, 1)},
            "B": {(1, 0), (1, 1)},
        }
