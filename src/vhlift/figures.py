"""Self-contained SVG figure builders.

Everything is emitted as a deterministic string with inline styles and a
fixed 800x600 viewport: a grayscale success-count heatmap, a log-scale
error-vs-SNR line chart, and a pseudospectrum curve with peak markers.
No external assets, fonts, or scripts.
"""

from __future__ import annotations

import numpy as np

__all__ = ["heatmap_svg", "sweep_svg", "curve_svg"]

WIDTH = 800
HEIGHT = 600
FONT = "font-family=\"sans-serif\""
PALETTE = ["#1a1a1a", "#c44e52", "#4c72b0", "#55a868", "#8172b2", "#ccb974"]


def _header(title):
    return [
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
        'viewBox="0 0 %d %d">' % (WIDTH, HEIGHT, WIDTH, HEIGHT),
        '<rect width="%d" height="%d" fill="#ffffff"/>' % (WIDTH, HEIGHT),
        '<text x="%d" y="30" text-anchor="middle" font-size="18" %s>%s</text>'
        % (WIDTH // 2, FONT, title),
    ]


def _text(x, y, s, size=13, anchor="middle", fill="#000000"):
    return ('<text x="%.2f" y="%.2f" text-anchor="%s" font-size="%d" '
            'fill="%s" %s>%s</text>' % (x, y, anchor, size, fill, FONT, s))


def heatmap_svg(axis1_name, axis1_values, axis2_name, axis2_values,
                counts, trials, title) -> str:
    """Grayscale heatmap of per-cell success counts.

    Fill uses a fixed 8-step ramp from black (no successes) to white (all
    trials succeed); each cell is annotated with its count.
    """
    counts = np.asarray(counts)
    n1, n2 = len(axis1_values), len(axis2_values)
    x0, y0, w, h = 110.0, 60.0, 620.0, 460.0
    cw, ch = w / n2, h / n1
    parts = _header(title)
    for i in range(n1):
        for j in range(n2):
            c = int(counts[i, j])
            level = min(7, int(8 * c / max(trials, 1)))
            g = round(255 * level / 7)
            cx = x0 + j * cw
            cy = y0 + i * ch
            parts.append('<rect x="%.2f" y="%.2f" width="%.2f" height="%.2f" '
                         'fill="#%02x%02x%02x" stroke="#888888" '
                         'stroke-width="1"/>' % (cx, cy, cw, ch, g, g, g))
            ink = "#000000" if level >= 4 else "#ffffff"
            parts.append(_text(cx + cw / 2, cy + ch / 2 + 5, str(c),
                               size=14, fill=ink))
    for j, v in enumerate(axis2_values):
        parts.append(_text(x0 + (j + 0.5) * cw, y0 + h + 22, str(v)))
    for i, v in enumerate(axis1_values):
        parts.append(_text(x0 - 14, y0 + (i + 0.5) * ch + 5, str(v),
                           anchor="end"))
    parts.append(_text(x0 + w / 2, y0 + h + 50, axis2_name, size=15))
    parts.append(_text(x0 - 60, y0 + h / 2, axis1_name, size=15))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _log_axis(values, floor=1e-12):
    vals = np.asarray(values, dtype=np.float64)
    vals = vals[np.isfinite(vals)]
    if vals.size == 0:
        return -12.0, 0.0
    lo = np.log10(max(vals.min(), floor))
    hi = np.log10(max(vals.max(), floor))
    if hi - lo < 1.0:
        hi = lo + 1.0
    return float(np.floor(lo)), float(np.ceil(hi))


def sweep_svg(snr_values, estimators, mean_errors, title) -> str:
    """Log-scale line chart of mean error against SNR, one line per
    estimator, SNR points evenly spaced in listed order."""
    mean_errors = np.asarray(mean_errors, dtype=np.float64)
    x0, y0, w, h = 90.0, 60.0, 620.0, 460.0
    lo, hi = _log_axis(mean_errors)

    def xpos(si):
        if len(snr_values) == 1:
            return x0 + w / 2
        return x0 + w * si / (len(snr_values) - 1)

    def ypos(v):
        lv = np.log10(max(v, 1e-12)) if np.isfinite(v) else hi
        return y0 + h * (hi - lv) / (hi - lo)

    parts = _header(title)
    parts.append('<rect x="%.2f" y="%.2f" width="%.2f" height="%.2f" '
                 'fill="none" stroke="#000000"/>' % (x0, y0, w, h))
    d = int(hi - lo)
    step = max(1, d // 8 + (1 if d % 8 else 0))
    e = int(lo)
    while e <= hi:
        y = ypos(10.0 ** e)
        parts.append('<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" '
                     'stroke="#dddddd"/>' % (x0, y, x0 + w, y))
        parts.append(_text(x0 - 8, y + 4, "1e%d" % e, anchor="end", size=12))
        e += step
    for si, snr in enumerate(snr_values):
        parts.append(_text(xpos(si), y0 + h + 20, "%g" % float(snr), size=12))
    parts.append(_text(x0 + w / 2, y0 + h + 45, "SNR (dB)", size=15))
    for ei, name in enumerate(estimators):
        color = PALETTE[ei % len(PALETTE)]
        pts = " ".join("%.2f,%.2f" % (xpos(si), ypos(mean_errors[ei, si]))
                       for si in range(len(snr_values)))
        parts.append('<polyline points="%s" fill="none" stroke="%s" '
                     'stroke-width="2"/>' % (pts, color))
        for si in range(len(snr_values)):
            parts.append('<circle cx="%.2f" cy="%.2f" r="3" fill="%s"/>'
                         % (xpos(si), ypos(mean_errors[ei, si]), color))
        ly = y0 + 18 + 18 * ei
        parts.append('<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" '
                     'stroke="%s" stroke-width="3"/>'
                     % (x0 + w - 150, ly - 4, x0 + w - 120, ly - 4, color))
        parts.append(_text(x0 + w - 112, ly, name, anchor="start", size=12))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def curve_svg(grid, values, peaks, title="pseudospectrum") -> str:
    """Log-scale pseudospectrum over [0, 1) with the peaks marked,
    downsampled to at most 2000 polyline points."""
    grid = np.asarray(grid, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    x0, y0, w, h = 90.0, 60.0, 620.0, 460.0
    lo, hi = _log_axis(values)

    def xpos(t):
        return x0 + w * t

    parts = _header(title)
    parts.append('<rect x="%.2f" y="%.2f" width="%.2f" height="%.2f" '
                 'fill="none" stroke="#000000"/>' % (x0, y0, w, h))
    stride = max(1, int(np.ceil(grid.size / 2000.0)))
    v = values[::stride]
    # log10 of max(v, 1e-12), the top of the axis for inf and nan, clipped
    # to the axis
    lv = np.full(v.shape, hi)
    finite = np.isfinite(v)
    lv[finite] = np.log10(np.maximum(v[finite], 1e-12))
    lv = np.clip(lv, lo, hi)
    ys = y0 + h * (hi - lv) / (hi - lo)
    pts = " ".join(map("%.2f,%.2f".__mod__,
                       zip(xpos(grid[::stride]).tolist(), ys.tolist())))
    parts.append('<polyline points="%s" fill="none" stroke="#4c72b0" '
                 'stroke-width="1"/>' % pts)
    for t in np.asarray(peaks, dtype=np.float64):
        parts.append('<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" '
                     'stroke="#c44e52" stroke-dasharray="4,3"/>'
                     % (xpos(t), y0, xpos(t), y0 + h))
    for t in (0.0, 0.25, 0.5, 0.75, 1.0):
        parts.append(_text(x0 + w * t, y0 + h + 20, "%.2f" % t, size=12))
    parts.append(_text(x0 + w / 2, y0 + h + 45, "frequency", size=15))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
