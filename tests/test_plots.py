import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path
from xml.sax import saxutils

import numpy as np
import pytest

from divopt import (Family, HistogramMode, Instance, Solution, histogram,
                    histogram_svg, scatter_svg)
from divopt import plots

NS = "{http://www.w3.org/2000/svg}"


def _circles_by_class(svg_text, cls):
    root = ET.fromstring(svg_text)
    return [el for el in root.iter(f"{NS}circle")
            if el.get("class") == cls]


def test_scatter_marker_counts(unit_square):
    text = scatter_svg(unit_square, [("a", Solution([0, 3])),
                                     ("b", Solution([1, 2]))])
    assert len(_circles_by_class(text, "pt")) == unit_square.n
    assert len(_circles_by_class(text, "sel")) == 4  # two subsets of two


def test_scatter_empty_solution_list_is_plain_cloud(unit_square):
    text = scatter_svg(unit_square, [])
    assert len(_circles_by_class(text, "pt")) == 4
    assert len(_circles_by_class(text, "sel")) == 0
    ET.fromstring(text)  # well-formed


def test_scatter_requires_2d_coords(t4):
    with pytest.raises(ValueError):
        scatter_svg(t4, [])  # matrix-only instance, nothing to draw


def test_scatter_labels_escaped(unit_square):
    text = scatter_svg(unit_square, [("a<b>&c", Solution([0, 1]))])
    ET.fromstring(text)
    assert "a<b>&c" not in text
    assert "a&lt;b&gt;&amp;c" in text


def test_scatter_deterministic(unit_square):
    a = scatter_svg(unit_square, [("m", Solution([0, 3]))])
    b = scatter_svg(unit_square, [("m", Solution([0, 3]))])
    assert a == b
    assert "\r" not in a


def test_histogram_svg_bars(t4):
    h = histogram([(t4, Solution([1, 2, 3]))], HistogramMode.NORMALIZED10)
    text = histogram_svg(h, title="demo")
    root = ET.fromstring(text)
    bars = [el for el in root.iter(f"{NS}rect") if el.get("class") == "bar"]
    assert len(bars) == 10
    # bar heights proportional to relative frequency
    heights = [float(b.get("height")) for b in bars]
    assert max(heights) > 0
    assert sum(1 for hgt in heights if hgt > 0) == 3
    assert "demo" in text


def test_histogram_svg_integer_mode_labels(t4):
    h = histogram([(t4, Solution([1, 2, 3]))], HistogramMode.INTEGER_BARS)
    text = histogram_svg(h)
    ET.fromstring(text)
    for label in "0123456789":
        assert f">{label}<" in text


def test_local_escape_matches_saxutils(unit_square, t4, monkeypatch):
    tricky = ["a<b>&c", "&amp;", "<&>", "x>y<z&&", "plain", ""]
    for text in tricky:
        assert plots.escape(text) == saxutils.escape(text)
    h = histogram([(t4, Solution([1, 2, 3]))], HistogramMode.NORMALIZED10)
    mine = (scatter_svg(unit_square, [(t, Solution([0, 1])) for t in tricky]),
            histogram_svg(h, title="a<b>&c"))
    monkeypatch.setattr(plots, "escape", saxutils.escape)
    ref = (scatter_svg(unit_square, [(t, Solution([0, 1])) for t in tricky]),
           histogram_svg(h, title="a<b>&c"))
    assert mine == ref


def test_import_pulls_in_no_network_stack():
    code = ("import sys, divopt; "
            "print(sorted(m for m in ('ssl', 'urllib.request', 'http.client',"
            " 'email', 'socket') if m in sys.modules))")
    src = str(Path(plots.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env).stdout
    assert out.strip() == "[]"
