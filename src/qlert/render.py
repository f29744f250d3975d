"""Deterministic SVG rendering: field heatmaps, log-log curves, masks.

No plotting dependency on purpose. Every figure is built from the same
primitives (flat-shaded triangles, polylines, text) with all coordinates
written as %.6g, so a given input always produces identical bytes and
golden-file comparisons are meaningful.

Mesh-sized primitives are formatted from whole arrays: pixel coordinates
come from one numpy expression per axis (``_Frame`` keeps the operation
order, so every coordinate equals the per-point arithmetic bit for bit),
colors from one table lookup, and each SVG element from one ``%``
template applied to ``tolist()`` rows, in blocks of ``_BLOCK`` elements
so the transient Python lists stay small.

The colormap is fixed: 8 anchor colors interpolated linearly in RGB to a
256-entry table. Values are mapped affinely from [vmin, vmax] to table
indices; NaN (excluded regions) renders as neutral gray.
"""

from xml.sax.saxutils import escape

import numpy as np

# dark violet -> blue -> teal -> green -> yellow
_ANCHORS = (
    (0x44, 0x01, 0x54),
    (0x46, 0x32, 0x7E),
    (0x36, 0x5C, 0x8D),
    (0x27, 0x7F, 0x8E),
    (0x1F, 0xA1, 0x87),
    (0x4A, 0xC1, 0x6D),
    (0xA0, 0xDA, 0x39),
    (0xFD, 0xE7, 0x25),
)

_NAN_COLOR = "#b0b0b0"
_SERIES_COLORS = ("#27608d", "#c03a2b", "#1fa187", "#8e44ad")


def _build_table():
    table = []
    for k in range(256):
        t = k / 255.0 * (len(_ANCHORS) - 1)
        i = min(int(t), len(_ANCHORS) - 2)
        frac = t - i
        lo, hi = _ANCHORS[i], _ANCHORS[i + 1]
        rgb = tuple(round(a + frac * (b - a)) for a, b in zip(lo, hi))
        table.append("#%02x%02x%02x" % rgb)
    return tuple(table)


COLOR_TABLE = _build_table()
#: COLOR_TABLE plus the NaN gray, the palette that ``_color_index`` indexes.
_PALETTE = COLOR_TABLE + (_NAN_COLOR,)
#: Elements formatted per block; bounds the transient row lists.
_BLOCK = 1024
#: Figure sizes in pixels: mesh views, and line plots (width, height).
_MESH_WIDTH = 480
_PLOT_SIZE = (520, 380)


def _color_index(t):
    """Palette index per entry of t in [0, 1]: clamped, rounded half up
    and truncated; NaN maps to the gray slot past the table."""
    t = np.asarray(t, dtype=float)
    nan = np.isnan(t)
    idx = np.clip(np.where(nan, 0.0, t), 0.0, 1.0) * 255.0 + 0.5
    return np.where(nan, len(COLOR_TABLE), idx.astype(np.intp))


def color_at(t):
    """Table color for t in [0, 1]; clamps, NaN maps to gray."""
    return _PALETTE[_color_index(t).item()]


def _fmt(x):
    return "%.6g" % float(x)


def _header(width, height, comment):
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">'
    ]
    if comment:
        lines.append(f"<!-- {escape(comment)} -->")
    lines.append(
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>'
    )
    return lines


def _text(x, y, s, size=11, anchor="start", color="#202020"):
    return (
        f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-family="monospace" '
        f'font-size="{size}" text-anchor="{anchor}" fill="{color}">'
        f"{escape(s)}</text>"
    )


class _Frame:
    """Affine map from data coordinates into a pixel box, y flipped."""

    def __init__(self, xlim, ylim, box):
        self.x0, self.x1 = xlim
        self.y0, self.y1 = ylim
        self.px, self.py, self.pw, self.ph = box

    def x(self, x):
        span = self.x1 - self.x0 or 1.0
        return self.px + (x - self.x0) / span * self.pw

    def y(self, y):
        span = self.y1 - self.y0 or 1.0
        return self.py + self.ph - (y - self.y0) / span * self.ph


def _mesh_frame(mesh, width, top, margin=10.0):
    xy = mesh.nodes
    x0, y0 = xy.min(axis=0)
    x1, y1 = xy.max(axis=0)
    span_x = (x1 - x0) or 1.0
    span_y = (y1 - y0) or 1.0
    pw = width - 2 * margin
    ph = pw * span_y / span_x
    frame = _Frame((x0, x1), (y0, y1), (margin, top, pw, ph))
    return frame, top + ph + margin


def _pixel_rows(frame, x, y):
    """Rows of interleaved pixel coordinates (x0, y0, x1, y1, ...) for
    equally shaped (rows, points) arrays of data coordinates."""
    px = np.stack([frame.x(x), frame.y(y)], axis=-1)
    return px.reshape(x.shape[0], 2 * x.shape[1]).tolist()


def _triangles(frame, mesh, palette, index):
    """One flat-shaded ``<polygon>`` per element, filled with
    ``palette[index[k]]``."""
    # stroke in the fill color hides hairline antialiasing seams
    tails = ['" fill="%s" stroke="%s" stroke-width="0.4"/>' % (c, c)
             for c in palette]
    template = '<polygon points="%.6g,%.6g %.6g,%.6g %.6g,%.6g%s'
    out = []
    for start in range(0, mesh.element_count, _BLOCK):
        corners = mesh.nodes[mesh.elements[start:start + _BLOCK]]
        rows = _pixel_rows(frame, corners[..., 0], corners[..., 1])
        fills = [tails[i] for i in index[start:start + _BLOCK].tolist()]
        out.extend(template % (*row, tail) for row, tail in zip(rows, fills))
    return out


def _segments(frame, segs, color, width=1.2):
    segs = np.asarray(segs, dtype=float).reshape(-1, 4)
    template = ('<line x1="%%.6g" y1="%%.6g" x2="%%.6g" y2="%%.6g" '
                'stroke="%s" stroke-width="%s"/>' % (color, width))
    rows = _pixel_rows(frame, segs[:, 0::2], segs[:, 1::2])
    return [template % tuple(row) for row in rows]


def edge_segments(mesh, edges):
    """(x1, y1, x2, y2) rows for a (n, 2+) array of node-index edges."""
    edges = np.asarray(edges)
    a = mesh.nodes[edges[:, 0]]
    b = mesh.nodes[edges[:, 1]]
    return np.hstack([a, b])


def heatmap(mesh, element_values, title="", comment="", outlines=(),
            vmin=None, vmax=None):
    """Flat-shaded per-element field plot with a horizontal colorbar.

    ``outlines`` is a sequence of (x1, y1, x2, y2) segment arrays drawn
    on top (region interfaces, true defect boundaries)."""
    values = np.asarray(element_values, dtype=float)
    if values.shape != (mesh.element_count,):
        raise ValueError("need one value per element")
    finite_mask = np.isfinite(values)
    finite = values[finite_mask]
    if vmin is not None:
        lo = vmin
    else:
        lo = float(finite.min()) if finite.size else 0.0
    if vmax is not None:
        hi = vmax
    else:
        hi = float(finite.max()) if finite.size else 1.0
    if hi <= lo:
        hi = lo + 1.0

    width = _MESH_WIDTH
    frame, bottom = _mesh_frame(mesh, width, top=28.0)
    body = _header(width, int(bottom + 46), comment)
    if title:
        body.append(_text(width / 2.0, 18, title, size=13, anchor="middle"))
    with np.errstate(all="ignore"):
        t = np.where(finite_mask, (values - lo) / (hi - lo), np.nan)
    body.extend(_triangles(frame, mesh, _PALETTE, _color_index(t)))
    for segs in outlines:
        body.extend(_segments(frame, segs, "#202020", width=1.0))

    # colorbar strip: 64 cells sampling the table
    bar_w, bar_h, bar_x = width - 120.0, 10.0, 60.0
    for k in range(64):
        body.append(
            f'<rect x="{_fmt(bar_x + k * bar_w / 64)}" y="{_fmt(bottom + 8)}" '
            f'width="{_fmt(bar_w / 64 + 0.5)}" height="{_fmt(bar_h)}" '
            f'fill="{color_at(k / 63.0)}"/>'
        )
    body.append(_text(bar_x, bottom + 32, _fmt(lo), anchor="middle"))
    body.append(_text(bar_x + bar_w, bottom + 32, _fmt(hi), anchor="middle"))
    body.append("</svg>")
    return "\n".join(body) + "\n"


def mask_overlay(mesh, mask, true_boundary=(), outlines=(), title="",
                 comment=""):
    """Reconstruction view: flagged elements filled, the true defect
    boundary stroked, other interfaces in light gray."""
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (mesh.element_count,):
        raise ValueError("need one flag per element")
    width = _MESH_WIDTH
    frame, bottom = _mesh_frame(mesh, width, top=28.0)
    body = _header(width, int(bottom + 8), comment)
    if title:
        body.append(_text(width / 2.0, 18, title, size=13, anchor="middle"))
    body.extend(_triangles(frame, mesh, ("#eef0f2", "#e8a33d"),
                           mask.astype(np.intp)))
    for segs in outlines:
        body.extend(_segments(frame, segs, "#9aa0a6", width=0.8))
    for segs in ((true_boundary,) if len(true_boundary) else ()):
        body.extend(_segments(frame, segs, "#b02020", width=1.6))
    body.append("</svg>")
    return "\n".join(body) + "\n"


def _log_ticks(lo, hi):
    lo_d = int(np.ceil(np.log10(lo) - 1e-12))
    hi_d = int(np.floor(np.log10(hi) + 1e-12))
    return [10.0**d for d in range(lo_d, hi_d + 1)]


def _lin_ticks(lo, hi, n=5):
    return list(np.linspace(lo, hi, n))


def line_plot(series, title="", xlabel="", ylabel="", log_x=False,
              log_y=False, comment=""):
    """Polyline chart. ``series`` is a list of (label, xs, ys); NaN points
    are dropped per series. Log axes get decade gridlines."""
    width, height = _PLOT_SIZE
    box = (64.0, 30.0, width - 84.0, height - 84.0)
    cleaned = []
    for label, xs, ys in series:
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        keep = np.isfinite(xs) & np.isfinite(ys)
        if log_x:
            keep &= xs > 0
        if log_y:
            keep &= ys > 0
        if keep.any():
            cleaned.append((label, xs[keep], ys[keep]))
    if not cleaned:
        raise ValueError("no finite data to plot")

    all_x = np.concatenate([xs for _, xs, _ in cleaned])
    all_y = np.concatenate([ys for _, _, ys in cleaned])
    tx = np.log10 if log_x else (lambda v: v)
    ty = np.log10 if log_y else (lambda v: v)
    xlim = (float(tx(all_x.min())), float(tx(all_x.max())))
    ylim = (float(ty(all_y.min())), float(ty(all_y.max())))
    if xlim[0] == xlim[1]:
        xlim = (xlim[0] - 0.5, xlim[1] + 0.5)
    if ylim[0] == ylim[1]:
        ylim = (ylim[0] - 0.5, ylim[1] + 0.5)
    frame = _Frame(xlim, ylim, box)

    body = _header(width, height, comment)
    if title:
        body.append(_text(width / 2.0, 18, title, size=13, anchor="middle"))
    px, py, pw, ph = box
    body.append(
        f'<rect x="{_fmt(px)}" y="{_fmt(py)}" width="{_fmt(pw)}" '
        f'height="{_fmt(ph)}" fill="none" stroke="#404040"/>'
    )

    x_ticks = _log_ticks(all_x.min(), all_x.max()) if log_x else \
        _lin_ticks(*xlim)
    y_ticks = _log_ticks(all_y.min(), all_y.max()) if log_y else \
        _lin_ticks(*ylim)
    for v in x_ticks:
        gx = frame.x(tx(v))
        body.append(
            f'<line x1="{_fmt(gx)}" y1="{_fmt(py)}" x2="{_fmt(gx)}" '
            f'y2="{_fmt(py + ph)}" stroke="#d8d8d8" stroke-width="0.7"/>'
        )
        body.append(_text(gx, py + ph + 16, _fmt(v), size=10, anchor="middle"))
    for v in y_ticks:
        gy = frame.y(ty(v))
        body.append(
            f'<line x1="{_fmt(px)}" y1="{_fmt(gy)}" x2="{_fmt(px + pw)}" '
            f'y2="{_fmt(gy)}" stroke="#d8d8d8" stroke-width="0.7"/>'
        )
        body.append(_text(px - 6, gy + 3, _fmt(v), size=10, anchor="end"))

    for k, (label, xs, ys) in enumerate(cleaned):
        color = _SERIES_COLORS[k % len(_SERIES_COLORS)]
        (row,) = _pixel_rows(frame, tx(xs)[None, :], ty(ys)[None, :])
        pts = " ".join(["%.6g,%.6g"] * len(xs)) % tuple(row)
        body.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="1.6"/>'
        )
        ly = py + 14 + 14 * k
        body.append(
            f'<line x1="{_fmt(px + pw - 64)}" y1="{_fmt(ly - 3)}" '
            f'x2="{_fmt(px + pw - 44)}" y2="{_fmt(ly - 3)}" '
            f'stroke="{color}" stroke-width="1.6"/>'
        )
        body.append(_text(px + pw - 40, ly, label, size=10))

    if xlabel:
        body.append(_text(px + pw / 2.0, height - 10, xlabel, anchor="middle"))
    if ylabel:
        body.append(_text(14, py - 10, ylabel))
    body.append("</svg>")
    return "\n".join(body) + "\n"
