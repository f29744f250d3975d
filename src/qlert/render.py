"""Deterministic SVG rendering: field heatmaps, log-log curves, masks.

No plotting dependency on purpose. Every figure is built from the same
primitives (flat-shaded triangles, polylines, text) with all coordinates
written as %.6g, so a given input always produces identical bytes and
golden-file comparisons are meaningful.

Mesh-sized primitives are formatted from whole arrays: pixel coordinates
come from one numpy expression per axis (``_Frame`` keeps the operation
order, so every coordinate equals the per-point arithmetic bit for bit)
and colors from one table lookup. A mesh view prints its coordinates
through the ``%.6g`` mode of the cell kernel (``_cells._g6_cells``),
which gives the bytes of ``"%.6g" % x`` without a Python string per
value: each node's pixel pair becomes one byte row, and each block of
``_BLOCK`` triangles is one byte matrix of the polygon head, a gather of
node rows per corner and a gather of the fill tails, stripped of its
padding once; segments are laid out the same way. Polylines and labels
apply ``%`` templates. A document is joined once, its final newline
included.

The colormap is fixed: 8 anchor colors interpolated linearly in RGB to a
256-entry table. Values are mapped affinely from the range of the finite
data to table indices; NaN (excluded regions) renders as neutral gray.
"""

import numpy as np

from . import _cells

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
#: A mask view's two fills: unflagged and flagged.
_MASK_COLORS = ("#eef0f2", "#e8a33d")
#: Elements or segments laid out per block; bounds the transient byte
#: matrices.
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


def _escape(s):
    """``&``, ``<`` and ``>`` as XML entities, like
    ``xml.sax.saxutils.escape`` but without importing ``urllib``."""
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _text(x, y, s, size=11, anchor="start"):
    return (
        f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-family="monospace" '
        f'font-size="{size}" text-anchor="{anchor}" fill="#202020">'
        f"{_escape(s)}</text>"
    )


def _figure(width, height, title, comment):
    """The head of every figure: the ``<svg>`` tag, the comment, a white
    background and the centred title."""
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">'
    ]
    if comment:
        lines.append(f"<!-- {_escape(comment)} -->")
    lines.append(
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>'
    )
    if title:
        lines.append(_text(width / 2.0, 18, title, size=13, anchor="middle"))
    return lines


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


def _mesh_frame(mesh, width, top):
    margin = 10.0
    # per column: a reduction over axis 0 of (n, 2) is many times slower
    x, y = mesh.nodes.T
    x0, x1 = x.min(), x.max()
    y0, y1 = y.min(), y.max()
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


def _node_rows(frame, xy):
    """Each node's pixel pair as ``"%.6g,%.6g "``, right-aligned in a
    byte row padded with ``_cells._PAD``.

    The pairs are formatted ``4 * _BLOCK`` nodes at a time, each chunk
    stripped of its padding once, and laid out as rows once."""
    pixels = np.empty((len(xy), 2))
    pixels[:, 0] = frame.x(xy[:, 0])
    pixels[:, 1] = frame.y(xy[:, 1])
    pixels = pixels.reshape(-1)
    chunk = 8 * _BLOCK  # coordinates
    text = []
    for start in range(0, len(pixels), chunk):
        cells = _cells._g6_cells(pixels[start:start + chunk])
        pairs = cells.reshape(-1, 2, _cells._G6_WIDTH)
        pairs[:, 0, -1] = 44  # the cells' separator bytes
        pairs[:, 1, -1] = 32
        text.append(pairs.tobytes().translate(None, _cells._PAD_BYTE))
    text = np.frombuffer(b"".join(text), np.uint8)
    length = np.diff(np.flatnonzero(text == 32), prepend=-1)
    width = length.max()
    rows = np.full((len(xy), width), _cells._PAD, np.uint8)
    rows[np.arange(width) >= width - length[:, None]] = text
    return rows


def _padded(lines):
    """Strings as rows of their UTF-8 bytes, padded in front with
    ``_cells._PAD`` to the longest."""
    lines = [s.encode() for s in lines]
    width = max(map(len, lines))
    return np.frombuffer(
        b"".join(s.rjust(width, _cells._PAD_BYTE) for s in lines),
        np.uint8).reshape(len(lines), width)


def _fill_tails(palette):
    """The end of a ``<polygon>`` line filled with each color of
    ``palette``, newline included, as ``_padded`` rows."""
    # stroke in the fill color hides hairline antialiasing seams
    return _padded([' fill="%s" stroke="%s" stroke-width="0.4"/>\n' % (c, c)
                    for c in palette])


#: The fill tails of the heatmap palette and of the mask colors.
_PALETTE_TAILS = _fill_tails(_PALETTE)
_MASK_TAILS = _fill_tails(_MASK_COLORS)


def _triangles(frame, mesh, tails, index):
    """One flat-shaded ``<polygon>`` line per element, ended by
    ``tails[index[k]]`` (see ``_fill_tails``), the lines of each block
    of ``_BLOCK`` elements joined into one string.

    Each node's pixel pair is formatted once into a byte row. A block of
    lines is one byte matrix: the head, one gather of node rows per
    corner and one gather of the fill tails, with the few pads left
    between them removed once. The transform is elementwise, so a
    node's pixel value is the same at every corner."""
    pad = _cells._PAD_BYTE
    head = b'<polygon points="'
    rows = _node_rows(frame, mesh.nodes)
    cut = [len(head), len(head) + 3 * rows.shape[1]]
    lines = np.empty((min(_BLOCK, mesh.element_count),
                      cut[1] + tails.shape[1]), np.uint8)
    lines[:, :cut[0]] = np.frombuffer(head, np.uint8)
    out = []
    for start in range(0, mesh.element_count, _BLOCK):
        elements = mesh.elements[start:start + _BLOCK]
        block = lines[:len(elements)]
        block[:, cut[0]:cut[1]] = rows.take(elements, axis=0).reshape(
            len(block), -1)
        block[:, cut[1] - 1] = 34  # '"' for the third corner's space
        block[:, cut[1]:] = tails.take(index[start:start + _BLOCK], axis=0)
        # the block's last newline is the document's separator
        text = block.reshape(-1)[:-1].tobytes()
        out.append(text.replace(pad, b"").decode())
    return out


def _segments(frame, layers):
    """The ``<line>`` elements of the segment arrays of each (arrays,
    color, stroke width) layer, in order: one string per block of
    ``_BLOCK`` segments.

    The four pixel coordinates of each segment go through one
    ``_cells._g6_cells`` call per block and are laid out, with the
    layer's tail, in one byte matrix stripped of its padding once."""
    segs = [np.asarray(s, dtype=float).reshape(-1, 4)
            for arrays, _, _ in layers for s in arrays]
    if not sum(map(len, segs)):
        return []
    tails = _padded(['" stroke="%s" stroke-width="%s"/>\n' % (color, width)
                     for arrays, color, width in layers for _ in arrays])
    tail = np.repeat(np.arange(len(segs)), [len(s) for s in segs])
    segs = np.concatenate(segs)
    pixels = np.empty_like(segs)
    pixels[:, 0::2] = frame.x(segs[:, 0::2])
    pixels[:, 1::2] = frame.y(segs[:, 1::2])
    # each coordinate's cell follows its attribute; a cell's last byte
    # is a pad
    heads = [np.frombuffer(h.encode(), np.uint8)
             for h in ('<line x1="', '" y1="', '" x2="', '" y2="')]
    cut = np.cumsum([0] + [len(h) + _cells._G6_WIDTH for h in heads])
    out = []
    for start in range(0, len(segs), _BLOCK):
        cells = _cells._g6_cells(pixels[start:start + _BLOCK].reshape(-1))
        cells = cells.reshape(-1, 4, _cells._G6_WIDTH)
        lines = np.empty((len(cells), cut[-1] + tails.shape[1]), np.uint8)
        for k, h in enumerate(heads):
            lines[:, cut[k]:cut[k] + len(h)] = h
            lines[:, cut[k] + len(h):cut[k + 1]] = cells[:, k]
        lines[:, cut[-1]:] = tails.take(tail[start:start + _BLOCK], axis=0)
        text = lines.reshape(-1)[:-1].tobytes()
        out.append(text.translate(None, _cells._PAD_BYTE).decode())
    return out


def edge_segments(mesh, edges):
    """(x1, y1, x2, y2) rows for a (n, 2+) array of node-index edges."""
    edges = np.asarray(edges)
    a = mesh.nodes[edges[:, 0]]
    b = mesh.nodes[edges[:, 1]]
    return np.hstack([a, b])


def _mesh_view(mesh, below, title, comment, tails, index, layers):
    """A figure of ``mesh`` with ``below`` pixels of room under it: element
    k ended by ``tails[index[k]]`` (see ``_fill_tails``), then the
    segment arrays of each (arrays, color, stroke width) layer of
    ``layers`` drawn on top.
    Returns the body and the pixel row of the mesh's bottom edge."""
    frame, bottom = _mesh_frame(mesh, _MESH_WIDTH, top=28.0)
    body = _figure(_MESH_WIDTH, int(bottom + below), title, comment)
    body.extend(_triangles(frame, mesh, tails, index))
    body.extend(_segments(frame, layers))
    return body, bottom


def heatmap(mesh, element_values, title="", comment="", outlines=()):
    """Flat-shaded per-element field plot with a horizontal colorbar
    spanning the finite values.

    ``outlines`` is a sequence of (x1, y1, x2, y2) segment arrays drawn
    on top (region interfaces, true defect boundaries)."""
    values = np.asarray(element_values, dtype=float)
    if values.shape != (mesh.element_count,):
        raise ValueError("need one value per element")
    finite_mask = np.isfinite(values)
    finite = values[finite_mask]
    lo = float(finite.min()) if finite.size else 0.0
    hi = float(finite.max()) if finite.size else 1.0
    if hi <= lo:
        hi = lo + 1.0

    with np.errstate(all="ignore"):
        t = np.where(finite_mask, (values - lo) / (hi - lo), np.nan)
    body, bottom = _mesh_view(mesh, 46, title, comment, _PALETTE_TAILS,
                              _color_index(t), [(outlines, "#202020", 1.0)])

    # colorbar strip: 64 cells sampling the table
    bar_w, bar_h, bar_x = _MESH_WIDTH - 120.0, 10.0, 60.0
    rect = ('<rect x="%%.6g" y="%s" width="%s" height="%s" fill="%%s"/>'
            % (_fmt(bottom + 8), _fmt(bar_w / 64 + 0.5), _fmt(bar_h)))
    for k, color in enumerate(_color_index(np.arange(64) / 63.0).tolist()):
        body.append(rect % (bar_x + k * bar_w / 64, _PALETTE[color]))
    body.append(_text(bar_x, bottom + 32, _fmt(lo), anchor="middle"))
    body.append(_text(bar_x + bar_w, bottom + 32, _fmt(hi), anchor="middle"))
    body.append("</svg>\n")
    return "\n".join(body)


def mask_overlay(mesh, mask, true_boundary=(), outlines=(), title="",
                 comment=""):
    """Reconstruction view: flagged elements filled, the true defect
    boundary stroked, other interfaces in light gray."""
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (mesh.element_count,):
        raise ValueError("need one flag per element")
    body, _ = _mesh_view(
        mesh, 8, title, comment, _MASK_TAILS, mask.astype(np.intp),
        [(outlines, "#9aa0a6", 0.8),
         ((true_boundary,) if len(true_boundary) else (), "#b02020", 1.6)])
    body.append("</svg>\n")
    return "\n".join(body)


def _log_ticks(lo, hi):
    lo_d = int(np.ceil(np.log10(lo) - 1e-12))
    hi_d = int(np.floor(np.log10(hi) + 1e-12))
    return [10.0**d for d in range(lo_d, hi_d + 1)]


def line_plot(series, title="", xlabel="", ylabel="", comment=""):
    """Log-log polyline chart with decade gridlines. ``series`` is a list
    of (label, xs, ys); points that are not finite and positive in both
    coordinates are dropped per series. With no point left in any series
    (an error curve that is exactly zero) the chart is the empty frame
    with a "no positive values" note."""
    width, height = _PLOT_SIZE
    box = (64.0, 30.0, width - 84.0, height - 84.0)
    cleaned = []
    for label, xs, ys in series:
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        keep = (0 < xs) & (xs < np.inf) & (0 < ys) & (ys < np.inf)
        if keep.any():
            cleaned.append((label, xs[keep], ys[keep]))

    body = _figure(width, height, title, comment)
    px, py, pw, ph = box
    body.append(
        f'<rect x="{_fmt(px)}" y="{_fmt(py)}" width="{_fmt(pw)}" '
        f'height="{_fmt(ph)}" fill="none" stroke="#404040"/>'
    )
    x_ticks = y_ticks = ()
    if cleaned:
        all_x = np.concatenate([xs for _, xs, _ in cleaned])
        all_y = np.concatenate([ys for _, _, ys in cleaned])
        xlim = (float(np.log10(all_x.min())), float(np.log10(all_x.max())))
        ylim = (float(np.log10(all_y.min())), float(np.log10(all_y.max())))
        if xlim[0] == xlim[1]:
            xlim = (xlim[0] - 0.5, xlim[1] + 0.5)
        if ylim[0] == ylim[1]:
            ylim = (ylim[0] - 0.5, ylim[1] + 0.5)
        frame = _Frame(xlim, ylim, box)
        x_ticks = _log_ticks(all_x.min(), all_x.max())
        y_ticks = _log_ticks(all_y.min(), all_y.max())
    else:
        body.append(_text(px + pw / 2.0, py + ph / 2.0, "no positive values",
                          anchor="middle"))

    for v in x_ticks:
        gx = frame.x(np.log10(v))
        body.append(
            f'<line x1="{_fmt(gx)}" y1="{_fmt(py)}" x2="{_fmt(gx)}" '
            f'y2="{_fmt(py + ph)}" stroke="#d8d8d8" stroke-width="0.7"/>'
        )
        body.append(_text(gx, py + ph + 16, _fmt(v), size=10, anchor="middle"))
    for v in y_ticks:
        gy = frame.y(np.log10(v))
        body.append(
            f'<line x1="{_fmt(px)}" y1="{_fmt(gy)}" x2="{_fmt(px + pw)}" '
            f'y2="{_fmt(gy)}" stroke="#d8d8d8" stroke-width="0.7"/>'
        )
        body.append(_text(px - 6, gy + 3, _fmt(v), size=10, anchor="end"))

    for k, (label, xs, ys) in enumerate(cleaned):
        color = _SERIES_COLORS[k % len(_SERIES_COLORS)]
        (row,) = _pixel_rows(frame, np.log10(xs)[None, :],
                             np.log10(ys)[None, :])
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
    body.append("</svg>\n")
    return "\n".join(body)
