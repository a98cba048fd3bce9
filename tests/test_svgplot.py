import xml.etree.ElementTree as ET

import pytest

from gtebench.svgplot import Series, line_chart


def test_basic_structure():
    svg = line_chart(
        [Series("a", (0.1, 0.5, 0.9), "#d62728"), Series("b", (0.2, 0.2, 0.3), "#2ca02c")],
        title="demo", xlabel="instance", ylabel="score",
    )
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")
    assert svg.count("<polyline") == 2
    assert "demo" in svg and "instance" in svg and "score" in svg
    assert "#d62728" in svg and "#2ca02c" in svg
    # self-contained: no external references
    assert "href" not in svg and "url(" not in svg


def test_deterministic_bytes():
    args = [Series("x", (1.0, 3.0, 2.0), "black")]
    assert line_chart(args, "t", "x", "y") == line_chart(args, "t", "x", "y")


def test_constant_series_ok():
    svg = line_chart([Series("flat", (0.5, 0.5, 0.5), "red")], "t", "x", "y")
    assert "<polyline" in svg


def test_empty_rejected():
    with pytest.raises(ValueError):
        line_chart([], "t", "x", "y")


def test_markup_in_a_name_is_escaped():
    name = "R&D <1>"
    svg = line_chart([Series(name, (0.1, 0.2), "red")], "t & <u>", "x", "y")
    texts = [t.text for t in ET.fromstring(svg).iter("{http://www.w3.org/2000/svg}text")]
    assert name in texts and "t & <u>" in texts
