"""Tests for the dependency-free SVG line plot emitter."""

import hashlib
import math

import pytest

from eulerchar.svgplot import line_plot


def _render(tmp_path, name="plot.svg", **kwargs):
    path = tmp_path / name
    defaults = dict(
        title="demo",
        xlabel="x",
        ylabel="y",
        xs=[0.0, 1.0, 2.0],
        columns=[("a", [0.0, 1.0, 4.0])],
    )
    defaults.update(kwargs)
    line_plot(path, **defaults)
    return path.read_text()


def test_output_is_deterministic(tmp_path):
    a = _render(tmp_path, "a.svg")
    b = _render(tmp_path, "b.svg")
    assert a == b


@pytest.mark.parametrize(
    "title, xs, columns, plot, digest",
    [
        # A NaN gap splits "gap" into two polylines, "dot" starts with a lone point drawn as a
        # circle, and the hline above the data widens the linear range.
        (
            "pinned linear",
            [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
            [("gap", [1.0, 2.0, math.nan, 3.0, 4.0, 5.0, 4.5]),
             ("dot", [math.nan, -1.0, math.nan, 2.0, 2.5, 3.0, 2.0])],
            dict(hlines=(7.0,)),
            "a3e6378882404403e9b5589705409a0f2617a1b660ca0f9ed7ccf653269d9873",
        ),
        # The zero and the negative y are dropped; of the hlines, 0.0 (not positive) and 1e3 (outside
        # the range) are skipped and only 1e-2 is drawn.
        (
            "pinned log",
            [0.5, 1.0, 1.5, 2.0, 2.5, 3.0],
            [("err", [1e-3, 0.0, -5.0, 1e-1, 2e-2, 5e-3]),
             ("bound", [0.5, 0.2, 0.1, 0.05, 0.01, 0.004])],
            dict(log_y=True, hlines=(0.0, 1e3, 1e-2)),
            "4f66be99de20a6af21a988bff920eab1cf1839d850e02d2d4b0f00497ed6c1f6",
        ),
    ],
    ids=["linear", "log"],
)
def test_output_bytes_are_pinned(tmp_path, title, xs, columns, plot, digest):
    path = tmp_path / "pinned.svg"
    line_plot(path, title, "x", "y", xs, columns, **plot)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_basic_structure(tmp_path):
    text = _render(tmp_path)
    assert text.startswith("<svg ")
    assert text.rstrip().endswith("</svg>")
    assert "demo" in text
    assert "polyline" in text
    assert text.count("<svg ") == 1


def test_legend_and_multiple_series(tmp_path):
    text = _render(
        tmp_path,
        xs=[0, 1],
        columns=[("first", [1, 2]), ("second", [2, 1])],
    )
    assert "first" in text
    assert "second" in text
    # Two distinct stroke colors from the palette.
    assert "#1f77b4" in text
    assert "#d62728" in text


def test_title_is_escaped(tmp_path):
    text = _render(tmp_path, title="a < b & c > d")
    assert "a &lt; b &amp; c &gt; d" in text
    assert "a < b" not in text


def test_log_scale_drops_nonpositive(tmp_path):
    text = _render(
        tmp_path,
        xs=[0, 1, 2, 3],
        columns=[("e", [1e-3, 0.0, -5.0, 1e-1])],
        log_y=True,
    )
    assert "NaN" not in text
    assert "nan" not in text
    assert "1e-" in text  # log ticks labeled as powers of ten


def test_log_scale_requires_some_positive_data(tmp_path):
    with pytest.raises(ValueError):
        _render(tmp_path, xs=[0, 1], columns=[("e", [0.0, -1.0])], log_y=True)


def test_nonfinite_points_split_polyline(tmp_path):
    text = _render(
        tmp_path,
        xs=[0, 1, 2, 3, 4],
        columns=[("gap", [1.0, 2.0, math.nan, 3.0, 4.0])],
    )
    # The gap forces two polyline segments for one series.
    assert text.count("<polyline") >= 2
    assert "NaN" not in text and "nan" not in text


def test_isolated_point_becomes_circle(tmp_path):
    text = _render(tmp_path, xs=[0, 1, 2], columns=[("dot", [math.nan, 5.0, math.nan])])
    assert "<circle" in text


def test_hlines_are_dashed(tmp_path):
    text = _render(tmp_path, hlines=(2.0,))
    assert "stroke-dasharray" in text


def test_mismatched_lengths_error(tmp_path):
    with pytest.raises(ValueError):
        _render(tmp_path, xs=[0, 1], columns=[("bad", [1.0])])


def test_empty_series_error(tmp_path):
    with pytest.raises(ValueError):
        _render(tmp_path, xs=[], columns=[("none", [])])


def test_constant_series_renders(tmp_path):
    # Degenerate ranges (single x, single y value) still produce a legal plot.
    text = _render(tmp_path, xs=[1.0, 1.0], columns=[("c", [3.0, 3.0])])
    assert "<svg " in text
