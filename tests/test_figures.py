"""Tests for the SVG figure builders."""

import re

import numpy as np

from vhlift.figures import _log_axis, curve_svg


def polyline_by_points(grid, values):
    """The pseudospectrum polyline one point at a time, kept frozen as the
    reference for curve_svg's vectorised one."""
    x0, y0, w, h = 90.0, 60.0, 620.0, 460.0
    lo, hi = _log_axis(values)

    def ypos(v):
        lv = np.log10(max(v, 1e-12)) if np.isfinite(v) else hi
        lv = min(max(lv, lo), hi)
        return y0 + h * (hi - lv) / (hi - lo)

    stride = max(1, int(np.ceil(grid.size / 2000.0)))
    return " ".join("%.2f,%.2f" % (x0 + w * grid[i], ypos(values[i]))
                    for i in range(0, grid.size, stride))


def polyline(svg):
    return re.search(r'<polyline points="([^"]*)"', svg).group(1)


def test_curve_polyline_matches_pointwise_formula():
    rng = np.random.default_rng(2)
    for size in (7, 2000, 4801):
        grid = np.arange(size) / size
        values = 10.0 ** rng.uniform(-3.0, 5.0, size)
        # inf and nan sit at the top of the axis, values below 1e-12 at
        # 1e-12, and the smallest and largest finite values at its two ends
        values[::5] = np.inf
        values[1::11] = np.nan
        values[2::13] = 1e-15
        values[3::17] = 0.0
        values[4] = 1e-12
        values[6] = 1e7
        lo, hi = _log_axis(values)
        assert (lo, hi) == (-12.0, 7.0)
        svg = curve_svg(grid, values, peaks=[0.25])
        assert polyline(svg) == polyline_by_points(grid, values)
    # an all-inf curve and a flat one, where the axis is widened to a decade
    grid = np.arange(10) / 10
    for values in (np.full(10, np.inf), np.full(10, 3.0)):
        svg = curve_svg(grid, values, peaks=[])
        assert polyline(svg) == polyline_by_points(grid, values)
