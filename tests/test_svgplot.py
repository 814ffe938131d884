import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from helikin import svgplot

_SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e300, -1e300]


def _per_point_join(px: np.ndarray) -> str:
    """The polyline text as it was built before: one _fmt per numpy scalar."""
    return " ".join(f"{svgplot._fmt(p[0])},{svgplot._fmt(p[1])}" for p in px)


class TestPolylinePoints:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("n", [1, 2, 1001])
    def test_matches_per_point_format(self, seed, n):
        rng = np.random.default_rng(seed)
        px = rng.standard_normal((n, 2)) * 10.0 ** rng.integers(-30, 30, size=(n, 2))
        count = min(px.size, 12)
        px.flat[rng.choice(px.size, size=count, replace=False)] = rng.choice(_SPECIAL, size=count)
        assert svgplot._polyline_points(px) == _per_point_join(px)

    def test_every_special_value(self):
        px = np.array(list(zip(_SPECIAL, reversed(_SPECIAL))))
        assert svgplot._polyline_points(px) == _per_point_join(px)

    def test_non_contiguous_columns(self):
        uv = np.arange(12.0).reshape(3, 4)[:, ::2] / 7.0
        assert svgplot._polyline_points(uv) == _per_point_join(uv)



class TestPolylinesOfOneSvg:
    def test_several_curves_give_one_line_each(self):
        rng = np.random.default_rng(7)
        curves = [rng.uniform(-50.0, 1100.0, (n, 2)) for n in (1, 129, 1001)]
        curves[1][3] = [math.nan, 1e-7]
        lines = svgplot._polyline_points(*curves).split("\n")
        assert lines == [_per_point_join(c) for c in curves]

    @pytest.mark.parametrize("shapes, index", [([(0, 3)], 0), ([(4, 3), (0, 3)], 1)])
    def test_empty_curve_is_named(self, shapes, index):
        curves = [np.ones(shape) for shape in shapes]
        with pytest.raises(svgplot.ValidationError, match=f"curve {index} has no points"):
            svgplot.render_curves_svg(curves, [f"c{k}" for k in range(len(curves))])


class TestLegend:
    _SVG = "{http://www.w3.org/2000/svg}"

    @pytest.mark.parametrize("name", ["a&b<c", "x > y", "&amp;", "plain"])
    def test_names_read_back_from_well_formed_xml(self, name):
        svg = svgplot.render_curves_svg([np.eye(3), np.ones((2, 3))], [name, "tip trace"])
        legend = [e.text for e in ET.fromstring(svg).iter(f"{self._SVG}text")][-2:]
        assert legend == [name, "tip trace"]

    @pytest.mark.parametrize(
        "name, shown",
        [("c\x01d", "c\\x01d"), ("e\udcff", "e\\udcff"), ("<\n&", "<\\n&"), ("é", "é")],
        ids=["control", "surrogate", "line-break", "printable"],
    )
    def test_unprintable_characters_read_back_escaped(self, name, shown):
        svg = svgplot.render_curves_svg([np.eye(3)], [name])
        legend = [e.text for e in ET.fromstring(svg.encode()).iter(f"{self._SVG}text")][-1]
        assert legend == shown

    def test_no_curves_raise_validation_error(self):
        with pytest.raises(svgplot.ValidationError, match="need at least one curve to plot"):
            svgplot.render_curves_svg([], [])
