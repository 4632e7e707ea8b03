"""The answer checks must reject corrupted answers and accept good ones.

    python3 perfbench/test_check.py        (or: python3 -m pytest perfbench)
"""

from check import (
    CheckError,
    check_classify,
    check_cycle,
    check_enumerate,
    check_plan,
    check_svg,
    check_trace,
    dependency_closure,
    free_polyominoes,
    is_orthogonally_convex,
    lane_blocked,
)

# Two C-shaped octominoes clasped so neither slides along x; B leaves up.
CLASP = {
    "A": [(0, 0), (1, 0), (2, 0), (3, 0), (0, 1), (3, 1), (0, 2), (3, 2)],
    "B": [(2, 1), (5, 1), (2, 2), (5, 2), (2, 3), (3, 3), (4, 3), (5, 3)],
}

# Three steps leaning right: C must leave +x before B, and B before A.
STAIRS = {
    "A": [(0, 0), (1, 0), (1, 1)],
    "B": [(2, 0), (2, 1), (3, 1)],
    "C": [(0, 2), (1, 2), (2, 2), (3, 2), (4, 2), (4, 1), (4, 0)],
}

# A 2x2 tray: frame F, key K at (1, 1), tiles at (2, 1) and (1, 2), hole (2, 2).
TRAY = {
    "F": [(x, y) for x in range(4) for y in range(4) if x in (0, 3) or y in (0, 3)],
    "K": [(1, 1)],
    "T0": [(2, 1)],
    "T1": [(1, 2)],
}


def rejects(call, *args):
    try:
        call(*args)
    except CheckError:
        return True
    return False


def test_lane_sweep_matches_the_clasp():
    assert lane_blocked(CLASP["A"], CLASP["B"], "+x")
    assert lane_blocked(CLASP["B"], CLASP["A"], "+x")
    assert not lane_blocked(CLASP["B"], CLASP["A"], "+y")


def test_plan_with_two_moves_swapped_is_rejected():
    good = [(("C",), "+x"), (("B",), "+x"), (("A",), "+x")]
    check_plan(STAIRS, good, "+x")
    swapped = [good[1], good[0], good[2]]
    assert rejects(check_plan, STAIRS, swapped, "+x")


def test_plan_must_remove_each_piece_once():
    assert rejects(check_plan, STAIRS, [(("C",), "+x"), (("B",), "+x")])
    twice = [(("C",), "+x"), (("B",), "+x"), (("A", "B"), "+x")]
    assert rejects(check_plan, STAIRS, twice)
    assert rejects(check_plan, STAIRS, [(("C",), "+y"), (("B",), "+x"), (("A",), "+x")], "+x")


def test_false_cycle_is_rejected():
    check_cycle(CLASP, "+x", ["A", "B"])
    assert rejects(check_cycle, CLASP, "+y", ["A", "B"])
    assert rejects(check_cycle, STAIRS, "+x", ["A", "B", "C"])
    assert rejects(check_cycle, CLASP, "+x", ["A"])


def test_trace_with_an_overlapping_step_is_rejected():
    check_trace(TRAY, "K", [(("T0",), "+y"), (("K",), "+x")], (1, 0))
    assert rejects(check_trace, TRAY, "K", [(("K",), "+x")], (1, 0))
    assert rejects(check_trace, TRAY, "K", [(("T0",), "+y"), (("T1",), "+x")], (0, 0))
    assert rejects(check_trace, TRAY, "K", [(("K", "T0"), "+y")], (0, 1))


def test_trace_must_end_at_the_requested_displacement():
    assert rejects(check_trace, TRAY, "K", [(("T0",), "+y"), (("K",), "+x")], (0, 1))


def test_dependency_closure_follows_unit_pushes():
    assert dependency_closure(STAIRS, "A", "+x") == {"A", "B", "C"}
    assert dependency_closure(STAIRS, "A", "+y") == {"A", "C"}
    assert dependency_closure(STAIRS, "B", "-x") == {"A", "B"}


def test_free_counts_and_enumerate_output():
    assert [len(free_polyominoes(n)) for n in range(1, 7)] == [1, 1, 2, 5, 12, 35]
    trominoes = free_polyominoes(3)
    good = ["2", "", "AAA", "", "AA", "A."]
    check_enumerate(trominoes, lambda cells: True, good)
    assert rejects(check_enumerate, trominoes, lambda cells: True, ["2", "", "AAA", "", "AAA"])
    assert rejects(check_enumerate, trominoes, is_orthogonally_convex, ["1", "", "AAA"])


def test_classify_lines():
    u = {"U": [(0, 0), (1, 0), (2, 0), (0, 1), (2, 1)]}
    lines = [
        "piece U: x-monotone yes, y-monotone no, orthogonally-convex no",
        "  pocket axis=y opening=+y cells=(1,1)",
    ]
    check_classify(u, lines)
    assert rejects(check_classify, u, lines[:1])
    flipped = [lines[0], "  pocket axis=y opening=-y cells=(1,1)"]
    assert rejects(check_classify, u, flipped)


def _svg(paths, extra=""):
    body = "".join(f'<path d="{d}" fill-rule="evenodd"/>' for d in paths)
    labels = "".join(f"<text>{pid}</text>" for pid in ("A", "B"))
    return (
        '<svg xmlns="http://www.w3.org/2000/svg"><defs><marker id="arrow">'
        f'<path d="M 0 0 L 10 5 L 0 10 z"/></marker></defs>{body}{labels}{extra}</svg>'
    )


def test_svg_areas_count_holes_by_even_odd():
    pieces = {"A": [(0, 0)], "B": [(x, y) for x in range(3) for y in range(3) if (x, y) != (1, 1)]}
    square = "M 0 0 L 20 0 L 20 20 L 0 20 Z"
    ring = "M 0 0 L 60 0 L 60 60 L 0 60 Z M 20 20 L 20 40 L 40 40 L 40 20 Z"
    arrow = '<line x1="0" y1="0" x2="1" y2="1" marker-end="url(#arrow)"/>'
    check_svg(_svg([square, ring], arrow), pieces, arrows=1, pocket_cells=0)
    assert rejects(check_svg, _svg([square, ring]), pieces, 1, 0)
    solid = "M 0 0 L 60 0 L 60 60 L 0 60 Z"
    assert rejects(check_svg, _svg([square, solid], arrow), pieces, 1, 0)


if __name__ == "__main__":
    tests = [(name, test) for name, test in sorted(globals().items()) if name.startswith("test_")]
    for name, test in tests:
        test()
        print(f"ok {name}")
    print(f"{len(tests)} checker tests passed")
