"""Text formats for piece layouts: character grids and structured records.

Grid text is for quick authoring: '.' (or a space) is empty, any other
printable character is a cell of the piece named by that character, and
the first line is the top row. Structured text starts with the header
line "polylock-config v1" and carries explicit coordinates, arbitrary
piece ids, comments, and an optional key-piece marker, so it scales past
62 pieces and survives round trips with ids intact.

Parsing checks a file once: each line's syntax as it is read, then the
pieces' overlaps and connectivity in `_validated`, which point at the
offending line. The configuration keeps the checked world cells and
their owner map as they are: nothing is checked or translated again.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass

from .grid import Cell, Configuration, is_connected

STRUCTURED_HEADER = "polylock-config v1"

#: Piece symbols assigned by emit_grid when ids are not single characters.
EMIT_ALPHABET = string.ascii_uppercase + string.ascii_lowercase + string.digits

_PIECE_LINE = re.compile(r"piece\s+([^\s:]+)\s*:\s*(.*)$")
_KEY_LINE = re.compile(r"key\s+([^\s:]+)\s*$")
_COORD_TOKEN = re.compile(r"\((-?\d+),(-?\d+)\)$")


class ParseError(ValueError):
    """A malformed document, pointing at the 1-based offending line."""

    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


@dataclass(frozen=True)
class ParsedDocument:
    """A configuration plus the optional key piece named by the file."""

    config: Configuration
    key_piece: str | None = None


def detect_format(text: str) -> str:
    """'structured' when the first non-blank line is the header, else 'grid'."""
    for line in text.splitlines():
        if line.strip():
            return "structured" if line.strip() == STRUCTURED_HEADER else "grid"
    return "grid"


def _validated(pieces: dict[str, list[Cell]], lines: dict[str, int]) -> Configuration:
    """Check a file's pieces (int pairs, in the order of their first lines):
    every overlap, then every disconnected piece, each error at the earliest
    faulty line. The checked cells and owners become the configuration's."""
    claimed: dict[Cell, str] = {}
    for pid, cells in pieces.items():
        for cell in cells:
            owner = claimed.setdefault(cell, pid)
            if owner != pid:
                raise ParseError(f"pieces {owner!r} and {pid!r} overlap at {cell}", lines[pid])
    world = {}
    for pid, cells in pieces.items():
        world[pid] = frozenset(cells)
        if not is_connected(world[pid]):
            raise ParseError(f"piece {pid!r} is not connected", lines[pid])
    return Configuration._from_world(world, claimed)


def parse_grid(text: str) -> Configuration:
    """Read a character grid; the top text row is the highest y value."""
    rows = text.splitlines()
    pieces: dict[str, list[Cell]] = {}
    first_line: dict[str, int] = {}
    for row, line in enumerate(rows):
        for col, char in enumerate(line):
            if char in (".", " "):
                continue
            if not char.isprintable() or char.isspace():
                raise ParseError(
                    f"unprintable character {char!r} in column {col + 1}",
                    row + 1,
                )
            pieces.setdefault(char, []).append((col, len(rows) - 1 - row))
            first_line.setdefault(char, row + 1)
    return _validated(pieces, first_line)


def parse_structured(text: str) -> ParsedDocument:
    """Read the structured format; requires the version header first."""
    lines = text.splitlines()
    body_start = None
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        if line.strip() != STRUCTURED_HEADER:
            raise ParseError(
                f"expected header {STRUCTURED_HEADER!r}, got {line.strip()!r}",
                number,
            )
        body_start = number
        break
    if body_start is None:
        raise ParseError(f"missing header {STRUCTURED_HEADER!r}", 1)

    pieces: dict[str, list[Cell]] = {}
    first_line: dict[str, int] = {}
    key_piece: str | None = None
    key_line = None
    for number, raw in enumerate(lines, start=1):
        if number <= body_start:
            continue
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        piece_match = _PIECE_LINE.fullmatch(line)
        if piece_match:
            pid, remainder = piece_match.groups()
            if pid in pieces:
                raise ParseError(f"duplicate piece id {pid!r}", number)
            cells = []
            for token in remainder.split():
                coord = _COORD_TOKEN.fullmatch(token)
                if not coord:
                    raise ParseError(f"malformed coordinate {token!r}", number)
                cells.append((int(coord.group(1)), int(coord.group(2))))
            if not cells:
                raise ParseError(f"piece {pid!r} has no cells", number)
            pieces[pid] = cells
            first_line[pid] = number
            continue
        key_match = _KEY_LINE.fullmatch(line)
        if key_match:
            if key_piece is not None:
                raise ParseError("duplicate key line", number)
            key_piece = key_match.group(1)
            key_line = number
            continue
        raise ParseError(f"unrecognized line {line!r}", number)

    if key_piece is not None and key_piece not in pieces:
        raise ParseError(f"key names unknown piece {key_piece!r}", key_line)
    return ParsedDocument(_validated(pieces, first_line), key_piece)


def parse_document(text: str) -> ParsedDocument:
    """Parse either format, auto-detected via the header line."""
    if detect_format(text) == "structured":
        return parse_structured(text)
    return ParsedDocument(parse_grid(text), None)


def _grid_symbols(config: Configuration) -> dict[str, str]:
    ids = sorted(config.piece_ids())
    usable = all(
        len(pid) == 1 and pid not in (".", " ") and pid.isprintable()
        for pid in ids
    )
    if usable:
        return {pid: pid for pid in ids}
    if len(ids) > len(EMIT_ALPHABET):
        raise ValueError(
            f"grid text supports at most {len(EMIT_ALPHABET)} renamed pieces, "
            f"got {len(ids)}"
        )
    return {pid: EMIT_ALPHABET[i] for i, pid in enumerate(ids)}


def emit_grid(config: Configuration) -> str:
    """Write a character grid; single-character ids are kept as symbols."""
    if len(config) == 0:
        return ""
    symbols = _grid_symbols(config)
    min_x, min_y, max_x, max_y = config.bounding_box()
    rows = [["."] * (max_x - min_x + 1) for _ in range(max_y - min_y + 1)]
    for pid, cells in config.cell_map().items():
        for x, y in cells:
            rows[max_y - y][x - min_x] = symbols[pid]
    return "".join("".join(row) + "\n" for row in rows)


def emit_structured(config: Configuration, key_piece: str | None = None) -> str:
    """Write the structured format with ids and coordinates preserved."""
    for pid in config.piece_ids():
        if not re.fullmatch(r"[^\s:]+", pid):
            raise ValueError(
                f"piece id {pid!r} cannot carry spaces or colons in this format"
            )
    if key_piece is not None:
        config.cells_of(key_piece)  # raises KeyError for unknown pieces
    lines = [STRUCTURED_HEADER]
    for pid in sorted(config.piece_ids()):
        cells = " ".join(f"({x},{y})" for x, y in sorted(config.cells_of(pid)))
        lines.append(f"piece {pid}: {cells}")
    if key_piece is not None:
        lines.append(f"key {key_piece}")
    return "\n".join(lines) + "\n"


__all__ = [
    "EMIT_ALPHABET",
    "ParseError",
    "ParsedDocument",
    "STRUCTURED_HEADER",
    "detect_format",
    "emit_grid",
    "emit_structured",
    "parse_document",
    "parse_grid",
    "parse_structured",
]
