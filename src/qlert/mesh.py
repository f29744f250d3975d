"""Triangular meshes for disk-shaped conductor cross sections.

Structured "spiderweb" generators for disks, annuli, and disks with
circular inclusions (cable petals), plus boundary-electrode tagging.
Meshes are immutable; all derived quantities (areas, boundary loops,
electrode node sets) are computed on demand from the arrays.

Conventions
-----------
Elements are counterclockwise node triples. Boundary edges are oriented
with the domain on the left, so the outer loop runs counterclockwise and
any hole loops run clockwise. Electrode ids count from 0; -1 marks an
untagged (insulated) stretch of boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from types import MappingProxyType

import numpy as np

__all__ = [
    "Mesh",
    "MeshError",
    "ElectrodeLayout",
    "generate_disk",
    "generate_annulus",
    "generate_petal_cable",
    "tag_electrodes",
    "element_areas",
    "element_centroids",
    "max_element_diameter",
    "boundary_loops",
    "outer_boundary_nodes",
    "electrode_nodes",
    "relabel_elements",
]


class MeshError(ValueError):
    """Invalid mesh geometry or arguments."""


def _frozen(a, dtype):
    a = np.ascontiguousarray(a, dtype=dtype)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Mesh:
    """Immutable triangular mesh.

    Parameters
    ----------
    nodes : (N, 2) float array
        Vertex coordinates.
    elements : (M, 3) int array
        Counterclockwise vertex triples.
    element_region : (M,) str array
        Region label per element. A label names its region's kind:
        ``"matrix"`` is the matrix, ``"inclusion-<k>"`` an inclusion,
        and any other label a defect.
    boundary_edges : (K, 3) int array
        Rows ``(i, j, electrode_id)``; the edge runs i -> j with the domain
        on the left. ``electrode_id`` is -1 where no electrode is attached.
    """

    nodes: np.ndarray
    elements: np.ndarray
    element_region: np.ndarray
    boundary_edges: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "nodes", _frozen(self.nodes, np.float64))
        object.__setattr__(self, "elements", _frozen(self.elements, np.int64))
        object.__setattr__(
            self, "element_region", _frozen(self.element_region, np.str_)
        )
        object.__setattr__(
            self, "boundary_edges", _frozen(self.boundary_edges, np.int64)
        )
        if self.nodes.ndim != 2 or self.nodes.shape[1] != 2:
            raise MeshError("nodes must be an (N, 2) array")
        if self.elements.ndim != 2 or self.elements.shape[1] != 3:
            raise MeshError("elements must be an (M, 3) array")
        if self.element_region.shape != (len(self.elements),):
            raise MeshError("element_region must have one label per element")
        if self.boundary_edges.ndim != 2 or self.boundary_edges.shape[1] != 3:
            raise MeshError("boundary_edges must be a (K, 3) array")

    @property
    def node_count(self):
        return len(self.nodes)

    @property
    def element_count(self):
        return len(self.elements)

    def region_mask(self, label):
        """Boolean element mask for one region label."""
        return self.element_region == label

    def region_elements(self):
        """{label: ascending element indices}, labels in sorted order.

        Computed once per mesh and kept on it, like ``fem.element_geometry``;
        the mapping is a read-only view and its arrays are read-only. A
        mesh derived from this one is a new object and computes its own."""
        index = vars(self).get("_region_elements")
        if index is None:
            labels, inverse = np.unique(self.element_region,
                                        return_inverse=True)
            order = np.argsort(inverse, kind="stable")
            bounds = np.cumsum(np.bincount(inverse, minlength=len(labels)))
            groups = np.split(order, bounds[:-1])
            for g in groups:
                g.setflags(write=False)
            index = {str(lab): g for lab, g in zip(labels, groups)}
            object.__setattr__(self, "_region_elements", index)
        return MappingProxyType(index)

    def inclusion_regions(self):
        """Inclusion labels in component order (inclusion-1, inclusion-2, ...)."""
        labs = [k for k in self.region_elements() if k.startswith("inclusion-")]
        return sorted(labs, key=lambda s: (len(s), s))

    def defect_regions(self):
        """Defect labels, sorted: all but the matrix and the inclusions."""
        return sorted(set(self.region_elements())
                      - {"matrix", *self.inclusion_regions()})


# ---------------------------------------------------------------------------
# structured point clouds
# ---------------------------------------------------------------------------


def _ring_angles(counts):
    """Ring number and angle of each point of rings of ``counts`` points,
    ring after ring, each ring equally spaced counterclockwise from
    angle 0."""
    which = np.repeat(np.arange(len(counts)), counts)
    first = np.cumsum(counts) - counts
    n = np.asarray(counts)[which]
    return which, 2.0 * np.pi * (np.arange(len(which)) - first[which]) / n


def _rings(radii, counts, start=0):
    """Concentric rings about the origin, ring k holding ``counts[k]``
    points at radius ``radii[k]``, equally spaced counterclockwise from
    angle 0. Returns (points, rings), the points ring after ring and
    rings[k] the index array of ring k, counted from ``start``."""
    which, angle = _ring_angles(counts)
    r = np.asarray(radii, dtype=float)[which]
    first = (start + np.cumsum(counts) - counts).tolist()
    return (np.column_stack([r * np.cos(angle), r * np.sin(angle)]),
            [np.arange(f, f + n) for f, n in zip(first, np.asarray(counts).tolist())])


def _spiderweb_points(radius, nrings):
    """Center point plus ``nrings`` concentric rings, ring i holding 6*i
    equally spaced points. Returns (points, rings) where rings[i] is the
    index array of ring i+1, ordered counterclockwise from angle 0."""
    i = np.arange(1, nrings + 1)
    pts, rings = _rings(radius * i / nrings, 6 * i, start=1)
    return np.concatenate([np.zeros((1, 2)), pts]), rings


def _bands(inner, inner_angles, inner_band, outer, outer_angles, outer_band,
           outer_first=True):
    """Triangulate many bands at once, each between two closed rings of
    points ordered by increasing angle from the first. Band b's inner ring
    is the run of ``inner`` whose ``inner_band`` is b, its outer ring the
    run of ``outer`` whose ``outer_band`` is b; bands are numbered
    0, 1, ... in the order of the runs. Returns the triangles, band by
    band, and the band of each.

    Each band advances whichever ring has the smaller next angle, the
    outer one on ties (the inner one with ``outer_first=False``), which
    alternates cleanly when counts match: one stable merge of the two
    rings' next-angle sequences, the ring positions at each step counted
    from the steps before it."""
    inner, outer = np.asarray(inner), np.asarray(outer)
    nbands = int(inner_band[-1]) + 1
    n_in = np.bincount(inner_band, minlength=nbands)
    n_out = np.bincount(outer_band, minlength=nbands)
    s_in = np.cumsum(n_in) - n_in
    s_out = np.cumsum(n_out) - n_out

    def next_angles(angles, start, count):
        nxt = np.roll(np.asarray(angles, dtype=float), -1)
        nxt[start + count - 1] = angles[start] + 2 * np.pi
        return nxt

    band = np.concatenate([outer_band, inner_band])
    nxt = np.concatenate([next_angles(outer_angles, s_out, n_out),
                          next_angles(inner_angles, s_in, n_in)])
    is_outer = np.arange(len(band)) < len(outer)
    order = np.lexsort((is_outer != outer_first, nxt, band))
    band, is_outer = band[order], is_outer[order]
    first = np.cumsum(n_in + n_out) - (n_in + n_out)
    j = np.cumsum(is_outer) - is_outer
    i = np.arange(len(band)) - j
    j -= j[first][band]
    i -= i[first][band]
    ni, no, si, so = n_in[band], n_out[band], s_in[band], s_out[band]
    third = np.where(is_outer, outer[so + (j + 1) % no], inner[si + (i + 1) % ni])
    return np.column_stack([inner[si + i % ni], outer[so + j % no], third]), band


def _ring_bands(rings, outer_first=True):
    """Triangulate the band between each two consecutive ``rings`` (index
    arrays, each ring equally spaced counterclockwise from angle 0), all
    in one ``_bands`` call."""
    which, angle = _ring_angles([len(r) for r in rings])
    ids = np.concatenate(rings)
    inner, outer = which < len(rings) - 1, which > 0
    tris, _ = _bands(ids[inner], angle[inner], which[inner],
                     ids[outer], angle[outer], which[outer] - 1, outer_first)
    return tris


def _spiderweb_triangles(rings, outer_first=True):
    """Fan around the center plus the bands between consecutive rings."""
    first = rings[0]
    fan = np.column_stack([np.zeros_like(first), first, np.roll(first, -1)])
    return np.concatenate([fan, _ring_bands(rings, outer_first)])


def _signed_areas(nodes, elements):
    p = nodes[elements]
    return 0.5 * (
        (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
        - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1])
    )


def _make_mesh(nodes, elements, labels):
    nodes, elements = np.asarray(nodes), np.array(elements, dtype=np.int64)
    neg = _signed_areas(nodes, elements) < 0
    elements[neg] = elements[neg][:, ::-1]  # counterclockwise
    if np.any(_signed_areas(nodes, elements) <= 0):
        raise MeshError("degenerate element produced by generator")
    return Mesh(
        nodes=nodes,
        elements=elements,
        element_region=np.asarray(labels),
        boundary_edges=_boundary_edges(elements, _neighbours(elements, len(nodes))),
    )


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def generate_disk(radius, refinement):
    """Spiderweb mesh of the disk of given radius, centered at the origin.

    ``refinement`` doubles the ring count each step: level r uses 2**r
    concentric rings, so the mesh size roughly halves per level. Every
    element carries the ``"matrix"`` label.
    """
    if radius <= 0:
        raise MeshError("radius must be positive")
    if refinement < 1:
        raise MeshError("refinement must be at least 1")
    nrings = 2**refinement
    pts, rings = _spiderweb_points(radius, nrings)
    tris = _spiderweb_triangles(rings)
    labels = np.full(len(tris), "matrix")
    return _make_mesh(pts, tris, labels)


def generate_annulus(r_inner, r_outer, refinement):
    """Structured mesh of the annulus ``r_inner < |x| < r_outer``.

    Uses 12 * 2**(refinement-1) points per ring and geometric radial
    grading so element aspect ratios stay near one across the whole
    radial extent.
    """
    if not 0 < r_inner < r_outer:
        raise MeshError("need 0 < r_inner < r_outer")
    if refinement < 1:
        raise MeshError("refinement must be at least 1")
    ntheta = 12 * 2 ** (refinement - 1)
    nr = max(1, round(ntheta * math.log(r_outer / r_inner) / (2 * np.pi)))
    pts, rings = _rings(np.geomspace(r_inner, r_outer, nr + 1),
                        np.full(nr + 1, ntheta))
    tris = _ring_bands(rings)
    labels = np.full(len(tris), "matrix")
    return _make_mesh(pts, tris, labels)


def _centered_petal_mesh(outer_radius, petal_radius, refinement):
    # Conforming two-zone layout: spiderweb core out to the petal circle,
    # then geometrically graded full rings to the outer boundary. Exact
    # interface, exact labels, no Delaunay involved.
    ncore = 2**refinement
    ntheta = 6 * ncore
    core, rings = _spiderweb_points(petal_radius, ncore)
    nshell = max(1, math.ceil(ntheta * math.log(outer_radius / petal_radius) / (2 * np.pi)))
    radii = np.geomspace(petal_radius, outer_radius, nshell + 1)[1:]
    shell, shell_rings = _rings(radii, np.full(nshell, ntheta), start=len(core))
    tris = _spiderweb_triangles(rings + shell_rings)
    # the core web's fan and bands hold 6 * ncore**2 elements
    labels = np.where(np.arange(len(tris)) < 6 * ncore**2, "inclusion-1", "matrix")
    return _make_mesh(np.concatenate([core, shell]), tris, labels)


# ---------------------------------------------------------------------------
# Delaunay stitch: element adjacency, point insertion, Lawson edge flips
# ---------------------------------------------------------------------------

# Rounding bounds of the orientation and in-circle determinants computed
# in floating point with unit roundoff u, relative to the sum of their
# terms' magnitudes: (3 + 16 u) u and (10 + 96 u) u (Shewchuk, "Adaptive
# precision floating-point arithmetic and fast robust geometric
# predicates", 1997). A determinant within its bound of zero is computed
# again exactly, in integers, so every decision of the stitch is exact; an
# exactly cocircular quadrilateral keeps the diagonal it was built with,
# which makes the mesh a function of the inputs alone.
_U = np.finfo(np.float64).eps / 2
_ORIENT_ERR = (3 + 16 * _U) * _U
_INCIRCLE_ERR = (10 + 96 * _U) * _U
_NEXT = np.array([1, 2, 0])
_PREV = np.array([2, 0, 1])


def _opposite_edges(tri, n):
    """Both nodes and the node-pair key of the edge opposite each corner,
    corners in row-major order."""
    a, b = tri[:, [1, 2, 0]].ravel(), tri[:, [2, 0, 1]].ravel()
    return a, b, np.minimum(a, b) * n + np.maximum(a, b)


def _equal_pairs(key):
    """Positions (i, j) of equal keys, ordered by key: in a stable sort each
    run of equal keys pairs first with second, third with fourth, ..."""
    order = np.argsort(key, kind="stable")
    key = key[order]
    i = np.flatnonzero(key[1:] == key[:-1])
    chained = i[1:] == i[:-1] + 1
    if chained.any():
        # a run of more than two equal keys gives a chain of consecutive
        # i: keep its first, third, ... entries
        at = np.arange(len(i))
        head = np.maximum.accumulate(np.where(np.append(True, ~chained), at, 0))
        i = i[((at - head) & 1) == 0]
    return order[i], order[i + 1]


def _neighbours(tri, n):
    """``nbr[t, k]``: the element across the edge opposite corner k of t,
    -1 on the boundary."""
    _, _, key = _opposite_edges(tri, n)
    i, j = _equal_pairs(key)
    nbr = np.full(len(key), -1, dtype=np.int64)
    nbr[i], nbr[j] = j // 3, i // 3
    return nbr.reshape(-1, 3)


def _boundary_edges(tri, nbr):
    """Edges with no element across (``nbr`` -1), oriented as in their
    element (domain on the left), sorted by (i, j) and untagged (id -1)."""
    t, k = np.nonzero(nbr < 0)
    edges = np.column_stack([tri[t, _NEXT[k]], tri[t, _PREV[k]]])
    edges = edges[np.lexsort((edges[:, 1], edges[:, 0]))]
    return np.column_stack([edges, np.full(len(edges), -1)])


def _relink(tri, nbr, rows, n):
    """Pair the edges of the rewritten ``rows`` again.

    On entry each corner of a rewritten row holds the element that was
    across that edge before the rewrite (anything, for an edge between two
    rewritten rows). Edges shared within ``rows`` pair with each other;
    each other edge keeps its element and points that element back."""
    a, b, key = _opposite_edges(tri[rows], n)
    i, j = _equal_pairs(key)
    flat = nbr[rows].ravel()
    flat[i], flat[j] = rows[j // 3], rows[i // 3]
    paired = np.zeros(len(flat), dtype=bool)
    paired[i] = paired[j] = True
    out = np.flatnonzero(~paired & (flat >= 0))
    far = tri[flat[out]]
    slot = np.argmax((far != a[out, None]) & (far != b[out, None]), axis=1)
    nbr[flat[out], slot] = rows[out // 3]
    nbr[rows] = flat.reshape(-1, 3)


def _put(arr, rows, *columns):
    """Write ``columns`` into the given rows of the (M, 3) ``arr``."""
    for k, column in enumerate(columns):
        arr[rows, k] = column


def _integers(values):
    """Exact integers proportional to the floats ``values`` (one shared
    power-of-two scale)."""
    ratios = [v.as_integer_ratio() for v in values]
    den = max(d for _, d in ratios)
    return [n * (den // d) for n, d in ratios]


def _exact_orientation(ax, ay, bx, by, cx, cy):
    ax, ay, bx, by, cx, cy = _integers((ax, ay, bx, by, cx, cy))
    v = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    return (v > 0) - (v < 0)


def _exact_incircle(ax, ay, bx, by, cx, cy, dx, dy):
    ax, ay, bx, by, cx, cy, dx, dy = _integers((ax, ay, bx, by, cx, cy, dx, dy))
    ax, ay, bx, by, cx, cy = ax - dx, ay - dy, bx - dx, by - dy, cx - dx, cy - dy
    v = ((ax * ax + ay * ay) * (bx * cy - cx * by)
         + (bx * bx + by * by) * (cx * ay - ax * cy)
         + (cx * cx + cy * cy) * (ax * by - bx * ay))
    return (v > 0) - (v < 0)


def _orientation_det(a, b, c):
    left = (b[..., 0] - a[..., 0]) * (c[..., 1] - a[..., 1])
    right = (b[..., 1] - a[..., 1]) * (c[..., 0] - a[..., 0])
    return left - right, np.abs(left) + np.abs(right)


def _incircle_det(a, b, c, d):
    ax, ay = a[..., 0] - d[..., 0], a[..., 1] - d[..., 1]
    bx, by = b[..., 0] - d[..., 0], b[..., 1] - d[..., 1]
    cx, cy = c[..., 0] - d[..., 0], c[..., 1] - d[..., 1]
    al, bl, cl = ax * ax + ay * ay, bx * bx + by * by, cx * cx + cy * cy
    det = al * (bx * cy - cx * by) + bl * (cx * ay - ax * cy) + cl * (ax * by - bx * ay)
    bound = (al * (np.abs(bx * cy) + np.abs(cx * by))
             + bl * (np.abs(cx * ay) + np.abs(ax * cy))
             + cl * (np.abs(ax * by) + np.abs(bx * ay)))
    return det, bound


def _exact_sign(det_of, err, exact, *points):
    """Sign of the determinant ``det_of`` takes of the coordinate arrays
    ``points`` (..., 2), exactly: in double precision where it clears its
    rounding bound, else in integers."""
    det, bound = det_of(*points)
    sign = np.sign(det).astype(np.int64)
    unsure = np.abs(det) <= err * bound
    if unsure.any():
        rows = np.concatenate(
            [np.broadcast_to(x, unsure.shape + (2,))[unsure] for x in points],
            axis=1)
        sign[unsure] = [exact(*row) for row in rows.tolist()]
    return sign


def _orientation(a, b, c):
    """Sign of the orientation of points c against the lines a -> b, as
    coordinate arrays (..., 2): 1 to the left, 0 on the line, -1 to the
    right, exactly."""
    return _exact_sign(_orientation_det, _ORIENT_ERR, _exact_orientation, a, b, c)


def _sides(p, corners, q):
    """Orientation sign of point q against each edge of the element with
    ``corners`` (..., 3), the edge opposite corner k in column k."""
    v = p[corners]
    return _orientation(v[..., [1, 2, 0], :], v[..., [2, 0, 1], :], p[q][..., None, :])


def _holds(p, corners, q):
    """Whether the closed element with ``corners`` holds point q."""
    return (_sides(p, corners, q) >= 0).all(-1)


def _incircle(p, a, b, c, d):
    """Sign of the in-circle test of d against counterclockwise (a, b, c):
    1 inside the circle, 0 on it, -1 outside, exactly."""
    return _exact_sign(_incircle_det, _INCIRCLE_ERR, _exact_incircle,
                       p[a], p[b], p[c], p[d])


def _circumcenters(p, tri):
    """Center of each element's circumcircle."""
    a, b, c = p[tri[:, 0]], p[tri[:, 1]], p[tri[:, 2]]
    b, c = b - a, c - a
    d = 2 * (b[:, 0] * c[:, 1] - b[:, 1] * c[:, 0])
    bb, cc = (b * b).sum(axis=1), (c * c).sum(axis=1)
    return a + np.column_stack([c[:, 1] * bb - b[:, 1] * cc,
                                b[:, 0] * cc - c[:, 0] * bb]) / d[:, None]


def _one_per_element(count, *owners):
    """Mask of the candidates that each hold every element they name in
    ``owners`` (rows of element indices, -1 for none) against all later
    candidates: no two kept candidates share an element."""
    idx = np.arange(len(owners[0]))
    first = np.full(count, len(idx))
    for e in owners:
        np.minimum.at(first, e[e >= 0], idx[e >= 0])
    keep = np.ones(len(idx), dtype=bool)
    for e in owners:
        keep &= (e < 0) | (first[e] == idx)
    return keep


def _lawson(p, tri, nbr, rows):
    """Flip interior edges (Lawson, 1977) until no far vertex lies inside
    a near element's circumcircle.

    Each round checks the edges of ``rows``, flips a set of bad edges no
    two of which share an element, and checks only the rewritten elements
    next."""
    n = len(p)
    checked = np.zeros(len(tri), dtype=bool)
    while len(rows):
        checked[rows] = True
        t = np.repeat(rows, 3)
        k = np.tile(np.arange(3), len(rows))
        u = nbr[t, k]
        # each edge once, from its lower row when both sides are checked
        e = np.flatnonzero((u >= 0) & ((u > t) | ~checked[u]))
        checked[rows] = False
        t, k, u = t[e], k[e], u[e]
        m = np.argmax(nbr[u] == t[:, None], axis=1)
        a, b, c, d = tri[t, k], tri[t, _NEXT[k]], tri[t, _PREV[k]], tri[u, m]
        bad = np.flatnonzero(_incircle(p, a, b, c, d) > 0)
        bad = bad[_one_per_element(len(tri), t[bad], u[bad])]
        if not len(bad):
            return
        t, k, u, m, a, b, c, d = (v[bad] for v in (t, k, u, m, a, b, c, d))
        # (a, b, c) and (d, c, b) become (a, b, d) and (a, d, c)
        ab, ca = nbr[t, _PREV[k]], nbr[t, _NEXT[k]]
        bd, dc = nbr[u, _NEXT[m]], nbr[u, _PREV[m]]
        _put(tri, t, a, b, d)
        _put(tri, u, a, d, c)
        _put(nbr, t, bd, u, ab)
        _put(nbr, u, dc, ca, t)
        rows = np.concatenate([t, u])
        _relink(tri, nbr, rows, n)


def _insert(p, tri, nbr, count, free, loc):
    """Insert the points ``free`` into the triangulation in the first
    ``count`` rows of the preallocated ``tri`` and ``nbr``; ``loc`` names
    an element holding each point. Returns the new row count.

    Each round inserts at most one point per element: a point inside
    splits its element in three, a point on an edge splits both elements
    of that edge in two. The points left over move to the new element
    that holds them."""
    n = len(p)
    while len(free):
        side = _sides(p, tri[loc], free)
        on = side == 0
        if np.any(on.sum(axis=1) > 1) or np.any(side < 0):
            raise MeshError("petal stitch met a duplicate or misplaced node")
        edge = np.argmax(on, axis=1)
        split = on.any(axis=1)
        across = np.where(split, nbr[loc, edge], -1)
        if np.any(split & (across < 0)):
            raise MeshError("petal stitch met a node on the outer boundary")
        take = _one_per_element(count, loc, across)
        inner = np.flatnonzero(take & ~split)
        onedge = np.flatnonzero(take & split)
        ni, ne = len(inner), len(onedge)
        # inside: (a, b, c) becomes (a, b, q), (b, c, q) and (c, a, q)
        t, q = loc[inner], free[inner]
        a, b, c = tri[t].T
        na, nb, nc = nbr[t].T
        s1 = count + np.arange(ni)
        s2 = s1 + ni
        _put(tri, t, a, b, q)
        _put(tri, s1, b, c, q)
        _put(tri, s2, c, a, q)
        _put(nbr, t, s1, s2, nc)
        _put(nbr, s1, s2, t, na)
        _put(nbr, s2, t, s1, nb)
        count += 2 * ni
        # on the edge (b, c) of (a, b, c) and (d, c, b): (a, b, q),
        # (a, q, c), (d, c, q) and (d, q, b)
        t, q, k, u = loc[onedge], free[onedge], edge[onedge], across[onedge]
        m = np.argmax(nbr[u] == t[:, None], axis=1)
        a, b, c, d = tri[t, k], tri[t, _NEXT[k]], tri[t, _PREV[k]], tri[u, m]
        ab, ca = nbr[t, _PREV[k]], nbr[t, _NEXT[k]]
        bd, dc = nbr[u, _NEXT[m]], nbr[u, _PREV[m]]
        e1 = count + np.arange(ne)
        e2 = e1 + ne
        _put(tri, t, a, b, q)
        _put(tri, e1, a, q, c)
        _put(tri, u, d, c, q)
        _put(tri, e2, d, q, b)
        _put(nbr, t, e2, e1, ab)
        _put(nbr, e1, u, ca, t)
        _put(nbr, u, e1, e2, dc)
        _put(nbr, e2, t, bd, u)
        count += 2 * ne
        _relink(tri, nbr, np.concatenate([loc[inner], s1, s2, t, e1, u, e2]), n)
        # the points left over in a split element move to one of its parts
        parts = np.concatenate([np.stack([loc[inner], s1, s2, s2], axis=1),
                                np.stack([t, e1, u, e2], axis=1)])
        split_of = np.full(count, -1)
        split_of[loc[inner]] = np.arange(ni)
        split_of[t] = split_of[u] = ni + np.arange(ne)
        free, loc = free[~take], loc[~take]
        moved = np.flatnonzero(split_of[loc] >= 0)
        cand = parts[split_of[loc[moved]]]
        inside = _holds(p, tri[cand], free[moved, None])
        loc[moved] = cand[np.arange(len(moved)), np.argmax(inside, axis=1)]
    return count


def _hub_stars(p, tri, hubs):
    """The stars of ``hubs`` (the elements around each hub node), one
    entry per element corner at a hub: each node's row in ``hubs`` (-1 for
    the other nodes), then per entry the element, the hub, the corner
    after the hub, and the angle in (-pi, pi] of the direction from the
    hub to that corner, where the element's sector starts."""
    hub_of = np.full(len(p), -1)
    hub_of[hubs] = np.arange(len(hubs))
    star, corner = np.nonzero(hub_of[tri] >= 0)
    hub, first = tri[star, corner], tri[star, _NEXT[corner]]
    angle = np.arctan2(p[first, 1] - p[hub, 1], p[first, 0] - p[hub, 0])
    return hub_of, star, hub, first, angle


def _locate(p, tri, hubs, free):
    """An element holding each point of ``free``.

    Each point is first tried in the element of its nearest hub's star
    (the elements around that node) whose angular sector holds it; the
    points found in none of those are searched for in every element."""
    hub_of, star, hub, _, angle = _hub_stars(p, tri, hubs)
    # sectors sorted by hub, then by the angle at which they start
    key = 8.0 * hub_of[hub] + angle
    order = np.argsort(key)
    key, star = key[order], star[order]
    d = p[free, None, :] - p[None, hubs, :]
    near = np.argmin((d ** 2).sum(-1), axis=1)
    dq = d[np.arange(len(free)), near]
    qkey = 8.0 * near + np.arctan2(dq[:, 1], dq[:, 0])
    lo = np.searchsorted(key, 8.0 * near - 4.0)
    hi = np.searchsorted(key, 8.0 * near + 4.0)
    pos = np.searchsorted(key, qkey, side="right") - 1
    pos = np.where(pos < lo, hi - 1, pos)  # before the first sector: the last wraps round
    loc = np.full(len(free), -1)
    loc[lo < hi] = star[pos[lo < hi]]
    found = (loc >= 0) & _holds(p, tri[loc], free)
    lost = np.flatnonzero(~found)
    if len(lost):
        inside = _holds(p, tri[None, :, :], free[lost, None])
        if not inside.any(axis=1).all():
            raise MeshError("petal stitch lost a node outside the outer boundary")
        loc[lost] = np.argmax(inside, axis=1)
    return loc


def _covers(p, tri, nbr, polygon_area, nedges):
    """Whether ``tri`` is a triangulation of the outer polygon: every
    element counterclockwise, their areas summing to the polygon's and
    only the polygon's edges on the boundary."""
    area = _signed_areas(p, tri)
    return (bool(np.all(_orientation(*p[tri.T]) > 0))
            and abs(area.sum() - polygon_area) <= 1e-9 * polygon_area
            and int((nbr < 0).sum()) == nedges)


def _fill_stars(p, tris, hubs, rim, collar):
    """Replace the star of each hub (its elements) by the hub's own rings
    where they fit: a fan to the rim, the strip from rim to collar and a
    strip from the collar to the star's outline; or, where the collar
    does not fit, the fan and a strip from the rim to the outline. A fill
    fits when all its elements are counterclockwise, which puts the ring
    inside the outline. Row k of ``rim`` and ``collar`` holds hub k's ring
    nodes from angle 0 counterclockwise."""
    hub_of, star, hub, x, angle = _hub_stars(p, tris, hubs)
    angle = np.mod(angle, 2 * np.pi)
    order = np.lexsort((angle, hub_of[hub]))
    star, x, angle, k = star[order], x[order], angle[order], hub_of[hub[order]]
    present, band = np.unique(k, return_inverse=True)
    if not len(present):
        return tris

    def rings(ring, which):
        band, angle = _ring_angles(np.full(len(which), ring.shape[1]))
        return ring[which].ravel(), angle, band

    fits = []
    for ring in (collar, rim):
        fill, of = _bands(*rings(ring, present), x, angle, band, outer_first=False)
        ok = np.ones(len(present), dtype=bool)
        ok[of[_orientation(*p[fill.T]) <= 0]] = False
        fits.append((fill, of, ok))
    (to_collar, of_c, use_collar), (to_rim, of_r, use_rim) = fits
    use_rim &= ~use_collar
    # two stars that share an element are not both filled: the first wins
    pairs = hub_of[tris[np.bincount(star, minlength=len(tris)) > 1]]
    rank = np.full(len(hubs) + 1, -1)
    rank[present] = np.arange(len(present))
    for k in range(len(present)):
        if use_collar[k] or use_rim[k]:
            rows = np.any(pairs == present[k], axis=1)
            later = rank[pairs[rows]]
            later = later[later > k]
            use_collar[later] = use_rim[later] = False
    keep = np.ones(len(tris), dtype=bool)
    keep[star[(use_collar | use_rim)[band]]] = False
    filled = present[use_collar | use_rim]
    fan = np.stack([np.repeat(hubs[filled], rim.shape[1]), rim[filled].ravel(),
                    np.roll(rim[filled], -1, axis=1).ravel()], axis=1)
    parts = [tris[keep], fan, to_collar[use_collar[of_c]], to_rim[use_rim[of_r]]]
    if use_collar.any():
        which = present[use_collar]
        parts.append(_bands(*rings(rim, which), *rings(collar, which),
                            outer_first=False)[0])
    return np.concatenate(parts)


def generate_petal_cable(outer_radius, petal_centers, petal_radius, refinement):
    """Disk of ``outer_radius`` containing disjoint circular petals.

    Petal k's elements are labeled ``"inclusion-<k+1>"``, the rest
    ``"matrix"``. Petals must lie strictly inside the disk and be pairwise
    disjoint, and so must each petal's collar ring (one ring pitch past
    its rim) stay inside the outer boundary and off every other petal.
    A single petal centered at the origin gets a fully structured
    conforming mesh. General layouts embed per-petal spiderwebs into the
    global spiderweb cloud, which keeps only its nodes away from the
    petals, and stitch them by rule, with no Qhull: the global web's
    elements with every dropped node merged into its nearest petal
    center; around each center its rim and collar rings where they fit,
    the rest of them inserted as points; Lawson edge flips to the
    Delaunay triangulation; and inside each rim the petal's own web.
    Orientation and in-circle tests are exact and an exactly cocircular
    quadrilateral keeps the diagonal it was built with, so the mesh is a
    function of the inputs alone.
    """
    if outer_radius <= 0 or petal_radius <= 0:
        raise MeshError("radii must be positive")
    if refinement < 1:
        raise MeshError("refinement must be at least 1")
    centers = np.asarray(petal_centers, dtype=float).reshape(-1, 2)
    for k, c in enumerate(centers):
        if np.hypot(*c) + petal_radius >= outer_radius:
            raise MeshError(f"petal {k + 1} touches or crosses the outer boundary")
    apart = np.hypot(*(centers[:, None] - centers[None]).transpose(2, 0, 1))
    np.fill_diagonal(apart, np.inf)
    # the first overlap in row order is the first pair (a, b) with a < b
    a, b = np.nonzero(apart <= 2 * petal_radius)
    if len(a):
        raise MeshError(f"petals {a[0] + 1} and {b[0] + 1} overlap")
    if len(centers) == 0:
        return generate_disk(outer_radius, refinement)
    if len(centers) == 1 and np.hypot(*centers[0]) == 0.0:
        return _centered_petal_mesh(outer_radius, petal_radius, refinement)

    nglobal = 2**refinement
    h = outer_radius / nglobal
    prings = max(2, round(petal_radius / h))
    ru = petal_radius / prings  # local ring pitch; one collar ring past the rim
    collar = ru * (prings + 1)
    nouter = 6 * nglobal
    # the outer boundary is the inscribed polygon: its edge normals and
    # their distance from the origin
    normal = 2 * np.pi * (np.arange(nouter) + 0.5) / nouter
    apothem = outer_radius * math.cos(np.pi / nouter)
    reach = (centers @ np.array([np.cos(normal), np.sin(normal)])).max(axis=1)
    # A petal's own web, flipped to Delaunay. No node of another petal
    # may enter the circle of a web element on the rim, so that each rim
    # stays a ring of Delaunay edges in the cable.
    local, lrings = _spiderweb_points(collar, prings + 1)
    petal = _spiderweb_triangles(lrings[:-1], outer_first=False)
    _lawson(local, petal, _neighbours(petal, len(local)), np.arange(len(petal)))
    rim = 1 + 3 * prings * (prings - 1)  # local index of the first rim node
    on_rim = petal[(petal >= rim).sum(axis=1) == 2]
    center = _circumcenters(local, on_rim)
    reach_out = np.max(np.hypot(*center.T) + np.hypot(*(local[on_rim[:, 0]] - center).T))
    near = apart <= collar + reach_out
    for k in range(len(centers)):
        if reach[k] + collar >= apothem:
            raise MeshError(f"the collar ring of petal {k + 1} reaches the "
                            f"outer boundary at refinement {refinement}")
        if np.any(near[k]):
            b = int(np.argmax(near[k]))
            raise MeshError(f"the collar ring of petal {k + 1} reaches "
                            f"petal {b + 1} at refinement {refinement}")

    gpts, grings = _spiderweb_points(outer_radius, nglobal)
    on_boundary = np.zeros(len(gpts), dtype=bool)
    on_boundary[grings[-1]] = True
    d = np.hypot(gpts[:, None, 0] - centers[:, 0], gpts[:, None, 1] - centers[:, 1])
    keep = np.all(d > petal_radius + ru + 0.6 * h, axis=1) | on_boundary
    nearest = np.argmin(d, axis=1)
    pts = np.concatenate([gpts[keep], (local + centers[:, None]).reshape(-1, 2)])
    nkeep, nlocal = int(keep.sum()), len(local)
    hubs = nkeep + nlocal * np.arange(len(centers))  # the petal centers
    kept = np.cumsum(keep) - 1

    # Start from the global web with each dropped node merged into its
    # nearest petal center. Where that folds an element over, merge every
    # inner node into the first center: a fan of the convex outer polygon.
    web = _spiderweb_triangles(grings, outer_first=False)
    polygon_area = 0.5 * nouter * outer_radius**2 * math.sin(2 * np.pi / nouter)
    for merged in (np.where(keep, kept, hubs[nearest]),
                   np.where(on_boundary, kept, hubs[0])):
        tris = merged[web]
        tris = tris[(tris[:, 0] != tris[:, 1]) & (tris[:, 1] != tris[:, 2])
                    & (tris[:, 2] != tris[:, 0])]
        nbrs = _neighbours(tris, len(pts))
        if _covers(pts, tris, nbrs, polygon_area, nouter):
            break
    else:
        raise MeshError("petal stitch could not cover the outer polygon")

    # fill the stars with the petals' rings where they fit, then insert
    # every node still left out, save the petals' inner rings
    petal_nodes = hubs[:, None] + np.append(0, np.arange(rim, nlocal))
    tris = _fill_stars(pts, tris, hubs, petal_nodes[:, 1:1 + 6 * prings],
                       petal_nodes[:, 1 + 6 * prings:])
    used = np.zeros(len(pts), dtype=bool)
    used[tris] = True
    free = np.concatenate([np.flatnonzero(~used[:nkeep]), petal_nodes.ravel()])
    free = free[~used[free]]
    count = len(tris)
    tri = np.zeros((count + 2 * len(free), 3), dtype=np.int64)
    nbr = np.full_like(tri, -1)
    tri[:count], nbr[:count] = tris, _neighbours(tris, len(pts))
    if len(free):
        count = _insert(pts, tri, nbr, count, free,
                        _locate(pts, tri[:count], hubs, free))
    tri, nbr = tri[:count], nbr[:count]
    _lawson(pts, tri, nbr, np.arange(count))

    # Each rim is a ring of Delaunay edges around its center alone: the
    # fan inside gives way to the petal's own web, flipped to Delaunay
    # against the nodes around it. A petal's elements are then those
    # with every corner in its web.
    web_nodes = hubs[:, None] + np.arange(rim + 6 * prings)
    owner = np.full(len(pts), -1)
    owner[web_nodes] = np.arange(len(centers))[:, None]

    def petal_of(elements):
        o = owner[elements]
        return np.where((o[:, 0] == o[:, 1]) & (o[:, 1] == o[:, 2]), o[:, 0], -1)

    fan = np.flatnonzero(petal_of(tri) >= 0)
    if len(fan) != 6 * prings * len(centers):
        raise MeshError("petal stitch lost a petal rim")
    # the webs take the fans' rows and new ones; across each rim edge
    # lies the element that faced the fan there
    n = len(pts)
    webs = (hubs[:, None, None] + petal).reshape(-1, 3)
    extra = len(webs) - len(fan)
    _, _, key = _opposite_edges(np.concatenate([tri[fan], webs]), n)
    i, j = _equal_pairs(key)
    on_rim = (i < 3 * len(fan)) & (j >= 3 * len(fan))
    hint = np.full(len(key), -1)
    hint[j[on_rim]] = nbr[fan].ravel()[i[on_rim]]
    hint = hint[3 * len(fan):].reshape(-1, 3)
    rows = np.append(fan, np.arange(count, count + extra))
    elements = np.concatenate([tri, webs[:extra]])
    nbr = np.concatenate([nbr, hint[:extra]])
    elements[rows], nbr[rows] = webs, hint
    _relink(elements, nbr, rows, n)
    _lawson(pts, elements, nbr, rows[(hint >= 0).any(axis=1)])
    names = ["matrix"] + [f"inclusion-{k + 1}" for k in range(len(centers))]
    return Mesh(nodes=pts, elements=elements,
                element_region=np.array(names)[petal_of(elements) + 1],
                boundary_edges=_boundary_edges(elements, nbr))


# ---------------------------------------------------------------------------
# electrodes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ElectrodeLayout:
    """``count`` equally spaced arc electrodes on the outer boundary
    circle, the first centered at angle ``rotation`` (radians). Every arc
    spans ``2*pi*coverage/count``, so ``coverage`` is the covered fraction
    of the full circle; below 1, the arcs are disjoint."""

    count: int
    coverage: float
    rotation: float = 0.0

    def __post_init__(self):
        if self.count < 2:
            raise MeshError("need at least 2 electrodes")
        if not 0 < self.coverage < 1:
            raise MeshError("coverage must lie strictly between 0 and 1")

    @property
    def arc_width(self):
        return 2 * np.pi * self.coverage / self.count

    @property
    def offsets(self):
        """Arc center angles in radians."""
        return self.rotation + 2 * np.pi * np.arange(self.count) / self.count


def tag_electrodes(mesh, layout):
    """Return a copy of ``mesh`` with outer-boundary edges assigned to
    electrodes by their midpoint angle. An edge belongs to electrode k when
    its midpoint falls inside arc k; everything else stays -1."""
    loops = boundary_loops(mesh)
    outer = [lp for lp in loops if lp["outer"]]
    if len(outer) != 1:
        raise MeshError("mesh must have exactly one outer boundary loop")
    outer_nodes = set(outer[0]["nodes"].tolist())
    edges = np.array(mesh.boundary_edges)
    edges[:, 2] = -1
    w = layout.arc_width
    centers = np.mod(layout.offsets, 2 * np.pi)
    for row in edges:
        if row[0] not in outer_nodes:
            continue
        mid = 0.5 * (mesh.nodes[row[0]] + mesh.nodes[row[1]])
        theta = math.atan2(mid[1], mid[0]) % (2 * np.pi)
        d = np.abs((theta - centers + np.pi) % (2 * np.pi) - np.pi)
        k = int(np.argmin(d))
        if d[k] <= w / 2:
            row[2] = k
    return replace(mesh, boundary_edges=edges)


def electrode_nodes(mesh):
    """Dict mapping electrode id to the sorted array of its nodes."""
    out = {}
    for i, j, eid in mesh.boundary_edges:
        if eid >= 0:
            out.setdefault(int(eid), set()).update((int(i), int(j)))
    return {k: np.array(sorted(v)) for k, v in sorted(out.items())}


# ---------------------------------------------------------------------------
# derived quantities
# ---------------------------------------------------------------------------


def element_areas(mesh):
    return _signed_areas(mesh.nodes, mesh.elements)


def element_centroids(mesh):
    return mesh.nodes[mesh.elements].mean(axis=1)


def max_element_diameter(mesh):
    p = mesh.nodes[mesh.elements]
    d = [np.hypot(*(p[:, a] - p[:, b]).T) for a, b in ((0, 1), (1, 2), (2, 0))]
    return float(np.max(d))


def boundary_loops(mesh):
    """Walk the oriented boundary edges into closed loops.

    Returns a list of dicts with keys ``nodes`` (ordered index array,
    following edge orientation), ``outer`` (bool, True for the
    counterclockwise loop enclosing the domain), and ``signed_area``.
    """
    nxt = {}
    for i, j, _ in mesh.boundary_edges:
        if int(i) in nxt:
            raise MeshError("boundary is not a disjoint union of simple loops")
        nxt[int(i)] = int(j)
    loops = []
    seen = set()
    for start in sorted(nxt):
        if start in seen:
            continue
        loop = [start]
        seen.add(start)
        cur = nxt[start]
        while cur != start:
            if cur in seen or cur not in nxt:
                raise MeshError("boundary edges do not close into loops")
            loop.append(cur)
            seen.add(cur)
            cur = nxt[cur]
        arr = np.array(loop)
        xy = mesh.nodes[arr]
        x, y = xy[:, 0], xy[:, 1]
        area = 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))
        loops.append({"nodes": arr, "signed_area": area, "outer": area > 0})
    return loops


def outer_boundary_nodes(mesh):
    for lp in boundary_loops(mesh):
        if lp["outer"]:
            return lp["nodes"]
    raise MeshError("mesh has no outer boundary loop")


def _paired_edges(mesh):
    """Element pairs across shared edges: (keys, first, second) with the
    sorted node pair of each shared edge and its two adjacent elements.

    Depends on the connectivity alone, so one pairing serves every
    region label of a mesh."""
    _, _, key = _opposite_edges(mesh.elements, mesh.node_count)
    i, j = _equal_pairs(key)
    return np.column_stack(np.divmod(key[i], mesh.node_count)), i // 3, j // 3


def region_interface_edges(mesh, label, pairs=None):
    """Edges separating ``label`` elements from the rest of the mesh.

    Returns (edges, inside, outside): node-pair rows (K, 2) plus the
    adjacent element index on the region side and on the far side. Rows
    are sorted by (edge, inside, outside). ``pairs`` is the mesh's
    ``_paired_edges``, for callers that outline several regions."""
    in_region = mesh.region_mask(label)
    if not in_region.any():
        raise MeshError(f"region '{label}' has no elements")
    keys, first_el, second_el = _paired_edges(mesh) if pairs is None else pairs
    cross = in_region[first_el] != in_region[second_el]
    keys, first_el, second_el = keys[cross], first_el[cross], second_el[cross]
    if not len(keys):
        raise MeshError(f"region '{label}' has no interface edges")
    second_in = in_region[second_el]
    arr = np.column_stack([
        keys,
        np.where(second_in, second_el, first_el),
        np.where(second_in, first_el, second_el),
    ])
    arr = arr[np.lexsort(arr.T[::-1])]
    return arr[:, :2], arr[:, 2], arr[:, 3]


def relabel_elements(mesh, mask, label):
    """New mesh with the defect label ``label`` stamped on the masked
    elements. Used to carve defects and test domains."""
    if label == "matrix" or label.startswith("inclusion-"):
        raise MeshError(f"'{label}' is not a defect label")
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (mesh.element_count,):
        raise MeshError("mask must have one entry per element")
    if not mask.any():
        raise MeshError("mask selects no elements")
    return replace(mesh,
                   element_region=np.where(mask, label, mesh.element_region))
