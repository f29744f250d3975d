"""Per-value artifact writers, kept as the reference for the array ones.

These are the SVG and CSV writers as they were before the writers in
``qlert.render`` and ``qlert.cli`` formatted whole arrays: every
coordinate goes through ``_Frame.x``/``.y`` and ``_fmt``, every color
through a scalar ``color_at``, every CSV value through an ``isinstance``
test. The tests require the shipped writers to produce the same bytes.
"""

import numpy as np

from qlert import mesh as qmesh
from qlert import render
from qlert.render import (COLOR_TABLE, _NAN_COLOR, _SERIES_COLORS, _figure,
                          _log_ticks, _text)


def color_at(t):
    if np.isnan(t):
        return _NAN_COLOR
    idx = int(min(max(t, 0.0), 1.0) * 255.0 + 0.5)
    return COLOR_TABLE[idx]


def _fmt(x):
    return "%.6g" % float(x)


class _Frame:
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


def _triangle(frame, coords, color):
    pts = " ".join(
        f"{_fmt(frame.x(x))},{_fmt(frame.y(y))}" for x, y in coords
    )
    return (
        f'<polygon points="{pts}" fill="{color}" stroke="{color}" '
        f'stroke-width="0.4"/>'
    )


def _segments(frame, segs, color, width):
    out = []
    for x1, y1, x2, y2 in segs:
        out.append(
            f'<line x1="{_fmt(frame.x(x1))}" y1="{_fmt(frame.y(y1))}" '
            f'x2="{_fmt(frame.x(x2))}" y2="{_fmt(frame.y(y2))}" '
            f'stroke="{color}" stroke-width="{width}"/>'
        )
    return out


def heatmap(mesh, element_values, title="", comment="", outlines=(),
            width=480):
    values = np.asarray(element_values, dtype=float)
    if values.shape != (mesh.element_count,):
        raise ValueError("need one value per element")
    finite = values[np.isfinite(values)]
    lo = float(finite.min()) if finite.size else 0.0
    hi = float(finite.max()) if finite.size else 1.0
    if hi <= lo:
        hi = lo + 1.0

    frame, bottom = _mesh_frame(mesh, width, top=28.0)
    body = _figure(width, int(bottom + 46), title, comment)
    for el, val in zip(mesh.elements, values):
        t = np.nan if not np.isfinite(val) else (val - lo) / (hi - lo)
        body.append(_triangle(frame, mesh.nodes[el], color_at(t)))
    for segs in outlines:
        body.extend(_segments(frame, segs, "#202020", width=1.0))

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
                 comment="", width=480):
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (mesh.element_count,):
        raise ValueError("need one flag per element")
    frame, bottom = _mesh_frame(mesh, width, top=28.0)
    body = _figure(width, int(bottom + 8), title, comment)
    for el, flag in zip(mesh.elements, mask):
        body.append(_triangle(frame, mesh.nodes[el],
                              "#e8a33d" if flag else "#eef0f2"))
    for segs in outlines:
        body.extend(_segments(frame, segs, "#9aa0a6", width=0.8))
    for segs in ((true_boundary,) if len(true_boundary) else ()):
        body.extend(_segments(frame, segs, "#b02020", width=1.6))
    body.append("</svg>")
    return "\n".join(body) + "\n"


def line_plot(series, title="", xlabel="", ylabel="", comment="", width=520,
              height=380):
    box = (64.0, 30.0, width - 84.0, height - 84.0)
    cleaned = []
    for label, xs, ys in series:
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        keep = np.isfinite(xs) & np.isfinite(ys)
        keep &= xs > 0
        keep &= ys > 0
        if keep.any():
            cleaned.append((label, xs[keep], ys[keep]))
    if not cleaned:
        body = _figure(width, height, title, comment)
        px, py, pw, ph = box
        body.append(
            f'<rect x="{_fmt(px)}" y="{_fmt(py)}" width="{_fmt(pw)}" '
            f'height="{_fmt(ph)}" fill="none" stroke="#404040"/>'
        )
        body.append(_text(px + pw / 2.0, py + ph / 2.0, "no positive values",
                          anchor="middle"))
        if xlabel:
            body.append(_text(px + pw / 2.0, height - 10, xlabel,
                              anchor="middle"))
        if ylabel:
            body.append(_text(14, py - 10, ylabel))
        body.append("</svg>")
        return "\n".join(body) + "\n"

    all_x = np.concatenate([xs for _, xs, _ in cleaned])
    all_y = np.concatenate([ys for _, _, ys in cleaned])
    tx = ty = np.log10
    xlim = (float(tx(all_x.min())), float(tx(all_x.max())))
    ylim = (float(ty(all_y.min())), float(ty(all_y.max())))
    if xlim[0] == xlim[1]:
        xlim = (xlim[0] - 0.5, xlim[1] + 0.5)
    if ylim[0] == ylim[1]:
        ylim = (ylim[0] - 0.5, ylim[1] + 0.5)
    frame = _Frame(xlim, ylim, box)

    body = _figure(width, height, title, comment)
    px, py, pw, ph = box
    body.append(
        f'<rect x="{_fmt(px)}" y="{_fmt(py)}" width="{_fmt(pw)}" '
        f'height="{_fmt(ph)}" fill="none" stroke="#404040"/>'
    )

    x_ticks = _log_ticks(all_x.min(), all_x.max())
    y_ticks = _log_ticks(all_y.min(), all_y.max())
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
        pts = " ".join(
            f"{_fmt(frame.x(tx(x)))},{_fmt(frame.y(ty(y)))}"
            for x, y in zip(xs, ys)
        )
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


def _fnum(x):
    x = float(x)
    return repr(x)


def write_csv_rows(path, digest, header, rows):
    """The row writer: one ``isinstance`` test and ``repr`` per value."""
    lines = [f"# config sha256:{digest}", ",".join(header)]
    for row in rows:
        lines.append(",".join(
            str(v) if isinstance(v, (int, np.integer, str)) else _fnum(v)
            for v in row
        ))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_csv(path, digest, header, columns):
    """``cli._write_csv``'s column signature over the row writer."""
    write_csv_rows(path, digest, header, zip(*columns))


def region_outlines(mesh):
    """One full edge pairing per region label."""
    segs = []
    for label in sorted(mesh.inclusion_regions()) + sorted(mesh.defect_regions()):
        edges, _, _ = qmesh.region_interface_edges(mesh, label)
        segs.append(render.edge_segments(mesh, edges))
    return segs
