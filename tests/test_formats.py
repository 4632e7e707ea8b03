"""Round trips and line-numbered failures for both text formats."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polylock.formats import (
    EMIT_ALPHABET,
    ParseError,
    STRUCTURED_HEADER,
    detect_format,
    emit_grid,
    emit_structured,
    parse_config,
    parse_document,
    parse_grid,
    parse_structured,
)
from polylock.grid import Configuration, Polyomino, is_connected
from polylock.instances import pinwheel, tray_with_key, u_filler_example
from polylock.packing import PackingSpec, random_packing


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
        assert parse_grid("").placements == ()


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
        assert emit_grid(Configuration.from_placements([])) == ""

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
        assert parse_config("AA\n").cell_map() == grid_doc.config.cell_map()

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_both_formats_agree_on_random_packings(self, seed):
        # grid text is anchored at its own bounding box, so compare both
        # parses after shifting the structured one onto the same corner
        config = random_packing(
            seed, PackingSpec(width=7, height=7, max_pieces=6, max_cells=4)
        )
        if not config.placements:
            return
        via_grid = parse_config(emit_grid(config))
        via_structured = parse_config(emit_structured(config))
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
            lambda: Polyomino.from_cells(cells),
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

