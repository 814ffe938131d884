import hashlib
import math
import re
import warnings
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
        assert svgplot._polyline_points(px, ()) == _per_point_join(px)

    def test_every_special_value(self):
        px = np.array(list(zip(_SPECIAL, reversed(_SPECIAL))))
        assert svgplot._polyline_points(px, ()) == _per_point_join(px)

    def test_non_contiguous_columns(self):
        uv = np.arange(12.0).reshape(3, 4)[:, ::2] / 7.0
        assert svgplot._polyline_points(uv, ()) == _per_point_join(uv)


class TestPolylinesOfOneSvg:
    def test_several_curves_give_one_line_each(self):
        rng = np.random.default_rng(7)
        curves = [rng.uniform(-50.0, 1100.0, (n, 2)) for n in (1, 129, 1001)]
        curves[1][3] = [math.nan, 1e-7]
        breaks = np.cumsum([len(c) for c in curves]) - 1
        lines = svgplot._polyline_points(np.concatenate(curves), breaks).split("\n")
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

    @pytest.mark.parametrize("names", [[], ["a"], ["a", "b", "c"]], ids=["none", "fewer", "more"])
    def test_one_name_per_curve(self, names):
        with pytest.raises(svgplot.ValidationError, match=f"got {len(names)} for 2 curves"):
            svgplot.render_curves_svg([np.eye(3), np.ones((2, 3))], names)

    def test_one_colour_per_curve(self):
        names = [f"c{k}" for k in range(7)]
        with pytest.raises(svgplot.ValidationError, match="at most 6 curves, one colour each, got 7"):
            svgplot.render_curves_svg([np.eye(3)] * 7, names)
        svg = svgplot.render_curves_svg([np.eye(3) * k for k in range(1, 7)], names[:6])
        legend = re.findall(r'<line [^>]* stroke="(#[0-9a-f]{6})" stroke-width="2"/>', svg)
        assert legend == list(svgplot._COLORS)


def _arc(n: int) -> np.ndarray:
    """n points of a rational circle arc rising in z; + - * / alone give the same bits on any platform."""
    t = np.arange(n) / max(n - 1, 1)
    d = 1.0 + t * t
    return np.column_stack([(1.0 - t * t) / d * 20.0, 2.0 * t / d * 20.0, t * 60.0])


class TestRenderBytes:
    """sha256 of whole documents for inputs the demo does not draw: 1-3 curves of 1-1001 points, negative,
    flat and far-off coordinates."""

    CASES = {
        "one-point": ([np.array([[1.5, -2.0, 0.25]])], ["p"]),
        "two-points": ([np.array([[0.0, 0.0, 0.0], [10.0, 5.0, -3.0]])], ["segment"]),
        "backbone-and-tip": ([_arc(129), _arc(1001) + [0.5, -0.25, 0.0]], ["backbone", "tip trace"]),
        "three-curves": ([_arc(2), _arc(129) * 0.5, np.array([[3.0, 4.0, 5.0]])], ["a", "b", "c"]),
        "negative": ([-_arc(129) - 100.0], ["negative"]),
        "flat-in-z": ([_arc(129) * [1.0, 1.0, 0.0] + [0.0, 0.0, 7.5]], ["flat"]),
        "far-from-origin": ([_arc(1001) / 20.0 + [1e6, -2e6, 3e5]], ["far"]),
        "vertical-line": ([_arc(1001) * [0.0, 0.0, 1.0] + [2.0, -3.0, 0.0], _arc(129)], ["line", "arc"]),
    }
    DIGESTS = {
        "one-point": "87f12c7320b9a975eed683c6b0469735431cce2ff0ac3b073c85c4b70004079f",
        "two-points": "8c9b68dbb5e48d27107c8d8ab259a778b5ab7c8f90ab1fa8a9cbaffa5bf697ec",
        "backbone-and-tip": "a2372364a1e66d366c98be589a258d2e9aaba9200a6446dafc92df2a1a08c64b",
        "three-curves": "358e9b69c5267b9679d9586061883dd7e9c93110bafba6faff47899ea893d8d1",
        "negative": "53e9406f33b54ef67d4eb92b51e9258b5c791951120944b0f3b451cfe35c5f15",
        "flat-in-z": "322d36173e7403ce9f374ba9d3b966e003adc1df85f9c32d13db5c8bfe1c1f4a",
        "far-from-origin": "08f5003cf13f15cfa33fb248f1c66d67ef251b2585fe7fd2aba8a138c56c9cb9",
        "vertical-line": "06c9e675ee565df155439acff41780fbf558a5f506f135c29374c96bb3abbcc5",
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_document_digest(self, case):
        svg = svgplot.render_curves_svg(*self.CASES[case])
        assert hashlib.sha256(svg.encode()).hexdigest() == self.DIGESTS[case]


class TestRefusal:
    def test_overflowing_projection_refuses_without_warning(self):
        curve = np.array([[1e308, -1e308, 0.0], [0.0, 0.0, 0.0]])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(svgplot.ValidationError, match="cannot draw the isometric panel"):
                svgplot.render_curves_svg([curve], ["c"])
        assert caught == []
