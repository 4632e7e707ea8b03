"""Structure and determinism of the SVG renderer."""

import xml.dom.minidom

from polylock.grid import Configuration
from polylock.instances import pinwheel, u_filler_example
from polylock.separation import separate_le5
from polylock.svg import PALETTE, render_svg


def _document(svg_text):
    return xml.dom.minidom.parseString(svg_text)


def _elements(svg_text, tag):
    return _document(svg_text).getElementsByTagName(tag)


class TestRenderSvg:
    def test_one_labeled_path_per_piece(self):
        svg_text = render_svg(pinwheel())
        assert len(_elements(svg_text, "path")) == 4
        labels = [
            node.firstChild.data for node in _elements(svg_text, "text")
        ]
        assert labels == ["A", "B", "C", "D"]

    def test_fills_follow_sorted_piece_order(self):
        svg_text = render_svg(pinwheel())
        fills = [
            node.getAttribute("fill") for node in _elements(svg_text, "path")
        ]
        assert fills == list(PALETTE[:4])

    def test_byte_identical_across_runs(self):
        first = render_svg(u_filler_example(), plan=separate_le5(u_filler_example()))
        second = render_svg(u_filler_example(), plan=separate_le5(u_filler_example()))
        assert first.encode() == second.encode()

    def test_empty_configuration_gets_minimal_canvas(self):
        svg_text = render_svg(Configuration.from_cell_map({}))
        root = _document(svg_text).documentElement
        assert root.getAttribute("viewBox") == "0 0 20 20"
        assert not _elements(svg_text, "path")

    def test_plan_draws_one_arrow_per_move_in_order(self):
        config = u_filler_example()
        plan = separate_le5(config)
        svg_text = render_svg(config, plan=plan)
        arrows = [
            node
            for node in _elements(svg_text, "line")
            if node.getAttribute("marker-end")
        ]
        assert len(arrows) == len(plan.moves) == 3
        order_labels = [
            node.firstChild.data
            for node in _elements(svg_text, "text")
            if node.firstChild.data.isdigit()
        ]
        assert order_labels == ["1", "2", "3"]

    def test_pocket_cells_are_shaded(self):
        config = u_filler_example()
        svg_text = render_svg(config, pocket_cells=[(1, 1), (2, 1)])
        assert len(_elements(svg_text, "rect")) == 2

    def test_interior_hole_keeps_two_loops_in_one_path(self):
        ring = [(x, 0) for x in range(3)] + [(x, 2) for x in range(3)]
        ring += [(0, 1), (2, 1)]
        svg_text = render_svg(Configuration.from_cell_map({"R": ring}))
        (path,) = _elements(svg_text, "path")
        assert path.getAttribute("d").count("M ") == 2
        assert path.getAttribute("fill-rule") == "evenodd"

    def test_piece_ids_are_xml_escaped(self):
        config = Configuration.from_cell_map({"a&b": [(0, 0)]})
        svg_text = render_svg(config)
        assert "a&amp;b" in svg_text
        assert _document(svg_text) is not None

    def test_pinch_vertex_outline_stays_well_formed(self):
        # two cells of the same piece touching corner to corner through
        # a third force the boundary walk through a shared vertex
        config = Configuration.from_cell_map({"P": [(0, 0), (1, 0), (1, 1)]})
        svg_text = render_svg(config)
        (path,) = _elements(svg_text, "path")
        assert path.getAttribute("d").count("M ") == 1
