import pytest

from monogenity.errors import ValidationError
from monogenity.polygon import NewtonPolygon, Side, ValuedPoint
from monogenity.render import (
    PolygonFigure,
    figure_for,
    figure_from_polygon,
    render_ascii,
    render_svg,
)
from monogenity.zpoly import PureFieldParams


def polygon_from_vertices(vertices):
    pts = [ValuedPoint(i, v) for i, v in vertices]
    return NewtonPolygon(tuple(Side(a, b) for a, b in zip(pts, pts[1:])))


def figure_1_fixture() -> PolygonFigure:
    vertices = [(0, 5), (1, 3), (5, 1), (9, 0)]
    polygon = polygon_from_vertices(vertices)
    points = tuple(ValuedPoint(i, v) for i, v in vertices)
    return figure_from_polygon("synthetic principal polygon", points, polygon)


class TestFigureConstruction:
    def test_figure_1_has_nine_index_points(self):
        fig = figure_1_fixture()
        assert len(fig.index_points) == 9

    def test_figure_for_161(self):
        fig = figure_for(PureFieldParams(3, 3, 161), 3)
        assert [tuple(v) for v in fig.polygon.vertices] == [
            (0, 4), (1, 3), (3, 2), (9, 1), (27, 0),
        ]
        assert len(fig.index_points) == 13

    def test_figure_for_q_dividing_m(self):
        fig = figure_for(PureFieldParams(2, 2, 3), 3)
        assert [tuple(v) for v in fig.polygon.vertices] == [(0, 1), (4, 0)]
        assert fig.index_points == ()

    def test_uninteresting_prime_rejected(self):
        # pure_prime_analysis's message, the one analyze and the library give
        message = r"^5 divides neither p nor m, so it cannot divide the index$"
        with pytest.raises(ValidationError, match=message):
            figure_for(PureFieldParams(2, 2, 3), 5)


class TestAsciiRender:
    def test_fixed_width(self):
        fig = figure_for(PureFieldParams(3, 3, 161), 3)
        text = render_ascii(fig)
        assert all(len(line) <= 80 for line in text.splitlines())

    def test_marks_present(self):
        text = render_ascii(figure_1_fixture())
        grid = [line for line in text.splitlines() if "|" in line]
        body = "\n".join(grid)
        assert body.count("*") == 4  # the four vertices
        assert "x" in body

    def test_index_mark_count_without_overlap(self):
        # a single tall side whose index points do not collide with
        # vertices or valued points on the grid
        fig = figure_from_polygon(
            "tall",
            (ValuedPoint(0, 6), ValuedPoint(3, 0)),
            polygon_from_vertices([(0, 6), (3, 0)]),
        )
        text = render_ascii(fig)
        assert text.count("x") == len(fig.index_points)

    def test_deterministic(self):
        fig = figure_for(PureFieldParams(2, 3, 33), 2)
        assert render_ascii(fig) == render_ascii(fig)


class TestSvgRender:
    def test_byte_identical_across_runs(self):
        fig = figure_for(PureFieldParams(3, 3, 161), 3)
        a = render_svg(fig).encode()
        b = render_svg(figure_for(PureFieldParams(3, 3, 161), 3)).encode()
        assert a == b

    def test_nine_index_marks_for_figure_1(self):
        text = render_svg(figure_1_fixture())
        assert text.count('class="index-point"') == 9

    def test_svg_header_and_version(self):
        text = render_svg(figure_1_fixture())
        assert text.startswith('<?xml version="1.0"')
        assert 'version="1.1"' in text
        assert "data-generator" in text

    def test_linear_flag_changes_high_degree_layout(self):
        # abscissas up to 32 render identically; beyond that the default
        # compresses the x axis logarithmically
        fig = figure_for(PureFieldParams(2, 2, 3), 3)
        assert render_svg(fig) == render_svg(fig, linear_x=True)
        big = figure_for(PureFieldParams(3, 4, 161), 3)  # degree 81
        assert render_svg(big) != render_svg(big, linear_x=True)

    def test_slope_labels(self):
        text = render_svg(figure_for(PureFieldParams(3, 3, 161), 3))
        assert "-1/18" in text


class TestRisingSides:
    """Sides of positive slope, which no pure-field polygon has: ASCII
    and SVG label them alike, as analyze's side payload would."""

    def rising_figure(self):
        polygon = polygon_from_vertices([(0, 0), (2, 1), (4, 3)])
        points = tuple(ValuedPoint(i, v) for i, v in [(0, 0), (2, 1), (4, 3)])
        return figure_from_polygon("rising chain", points, polygon)

    def test_slope_text(self):
        sides = polygon_from_vertices([(0, 0), (2, 1), (4, 3)]).sides
        assert [s.slope_text() for s in sides] == ["1/2", "1/1"]
        falling = polygon_from_vertices([(0, 5), (1, 3), (5, 1)]).sides
        assert [s.slope_text() for s in falling] == ["-2/1", "-1/2"]

    def test_ascii_labels(self):
        fig = self.rising_figure()
        assert fig.side_labels == (
            "S1: slope 1/2, length 2, degree 1",
            "S2: slope 1/1, length 2, degree 2",
        )
        text = render_ascii(fig)
        assert "S1: slope 1/2," in text and "slope --" not in text
        assert fig.index_points == ()  # no side of negative slope

    def test_svg_labels(self):
        text = render_svg(self.rising_figure())
        assert "S1: 1/2</text>" in text and "S2: 1/1</text>" in text
