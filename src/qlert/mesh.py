"""Triangular meshes for disk-shaped conductor cross sections.

Structured "spiderweb" generators for disks, annuli, and disks with
circular inclusions (cable petals), plus boundary-electrode tagging and a
small text format for interchange. Meshes are immutable; all derived
quantities (areas, boundary loops, electrode node sets) are computed on
demand from the arrays.

Conventions
-----------
Elements are counterclockwise node triples. Boundary edges are oriented
with the domain on the left, so the outer loop runs counterclockwise and
any hole loops run clockwise. Electrode ids count from 0; -1 marks an
untagged (insulated) stretch of boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from types import MappingProxyType

import numpy as np

__all__ = [
    "Mesh",
    "MeshError",
    "MeshFormatError",
    "ElectrodeLayout",
    "generate_disk",
    "generate_annulus",
    "generate_petal_cable",
    "tag_electrodes",
    "read_mesh",
    "write_mesh",
    "element_areas",
    "element_centroids",
    "total_area",
    "max_element_diameter",
    "boundary_loops",
    "outer_boundary_nodes",
    "electrode_nodes",
    "relabel_elements",
]


class MeshError(ValueError):
    """Invalid mesh geometry or arguments."""


class MeshFormatError(MeshError):
    """Malformed mesh file. Carries the 1-based line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


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
        Region label per element, e.g. ``"matrix"`` or ``"inclusion-3"``.
    boundary_edges : (K, 3) int array
        Rows ``(i, j, electrode_id)``; the edge runs i -> j with the domain
        on the left. ``electrode_id`` is -1 where no electrode is attached.
    region_table : dict
        Maps each region label to a kind string: ``"matrix"``,
        ``"inclusion-<k>"``, or ``"defect"``.
    """

    nodes: np.ndarray
    elements: np.ndarray
    element_region: np.ndarray
    boundary_edges: np.ndarray
    region_table: dict = field(default_factory=dict)

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
        labels = set(np.unique(self.element_region))
        missing = labels - set(self.region_table)
        if missing:
            raise MeshError(f"region_table missing labels: {sorted(missing)}")

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
        labs = [
            k for k, v in self.region_table.items() if v.startswith("inclusion")
        ]
        return sorted(labs, key=lambda s: (len(s), s))

    def defect_regions(self):
        """Defect labels, sorted."""
        return sorted(k for k, v in self.region_table.items() if v == "defect")


# ---------------------------------------------------------------------------
# structured point clouds
# ---------------------------------------------------------------------------


def _spiderweb_points(radius, nrings, center=(0.0, 0.0)):
    """Center point plus ``nrings`` concentric rings, ring i holding 6*i
    equally spaced points. Returns (points, rings) where rings[i] is the
    index array of ring i+1, ordered counterclockwise from angle 0."""
    cx, cy = center
    pts = [np.array([[cx, cy]])]
    rings = []
    start = 1
    for i in range(1, nrings + 1):
        n = 6 * i
        ang = 2.0 * np.pi * np.arange(n) / n
        r = radius * i / nrings
        pts.append(np.column_stack([cx + r * np.cos(ang), cy + r * np.sin(ang)]))
        rings.append(np.arange(start, start + n))
        start += n
    return np.concatenate(pts), rings


def _ring_points(radius, ntheta, center=(0.0, 0.0)):
    ang = 2.0 * np.pi * np.arange(ntheta) / ntheta
    cx, cy = center
    return np.column_stack([cx + radius * np.cos(ang), cy + radius * np.sin(ang)])


def _strip(inner_ids, inner_angles, outer_ids, outer_angles):
    """Triangulate the band between two closed rings of points ordered by
    increasing angle. Advances whichever ring has the smaller next angle
    (outer wins ties), which alternates cleanly when counts match."""
    ni, no = len(inner_ids), len(outer_ids)
    tris = []
    i = j = 0
    while i < ni or j < no:
        nxt_i = inner_angles[i + 1] if i + 1 <= ni - 1 else inner_angles[0] + 2 * np.pi
        nxt_j = outer_angles[j + 1] if j + 1 <= no - 1 else outer_angles[0] + 2 * np.pi
        if i >= ni:
            nxt_i = np.inf
        if j >= no:
            nxt_j = np.inf
        if nxt_j <= nxt_i:
            tris.append((inner_ids[i % ni], outer_ids[j % no], outer_ids[(j + 1) % no]))
            j += 1
        else:
            tris.append((inner_ids[i % ni], outer_ids[j % no], inner_ids[(i + 1) % ni]))
            i += 1
    return tris


def _spiderweb_triangles(rings):
    """Fan around the center plus two-pointer strips between rings."""
    tris = []
    first = rings[0]
    for j in range(len(first)):
        tris.append((0, first[j], first[(j + 1) % len(first)]))
    for inner, outer in zip(rings[:-1], rings[1:]):
        a_in = 2.0 * np.pi * np.arange(len(inner)) / len(inner)
        a_out = 2.0 * np.pi * np.arange(len(outer)) / len(outer)
        tris.extend(_strip(inner, a_in, outer, a_out))
    return tris


def _edge_runs(elements):
    """Half-edges in one stable sort by node pair: (half, owner, start),
    each as its element orients it, that element, and the run starts of
    equal edges closed by the half-edge count. A run of one is a boundary
    edge; longer runs pair first with second, third with fourth, ..."""
    e = np.asarray(elements, dtype=np.int64)
    half = e[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
    key = np.sort(half, axis=1)
    order = np.lexsort((key[:, 1], key[:, 0]))
    key = key[order]
    new_run = np.ones(len(key), dtype=bool)
    new_run[1:] = np.any(key[1:] != key[:-1], axis=1)
    start = np.append(np.flatnonzero(new_run), len(key))
    return half[order], order // 3, start


def _boundary_edges_from_elements(elements):
    """Edges owned by exactly one triangle, oriented as in that triangle
    (domain on the left) and sorted by (i, j). Untagged: electrode id -1."""
    half, _, start = _edge_runs(elements)
    out = half[start[:-1][np.diff(start) == 1]]
    out = out[np.lexsort((out[:, 1], out[:, 0]))]
    return np.column_stack([out, np.full(len(out), -1, dtype=np.int64)])


def _signed_areas(nodes, elements):
    p = nodes[elements]
    return 0.5 * (
        (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
        - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1])
    )


def _make_mesh(nodes, elements, labels, region_table):
    nodes, elements = np.asarray(nodes), np.array(elements, dtype=np.int64)
    neg = _signed_areas(nodes, elements) < 0
    elements[neg] = elements[neg][:, ::-1]  # counterclockwise
    if np.any(_signed_areas(nodes, elements) <= 0):
        raise MeshError("degenerate element produced by generator")
    return Mesh(
        nodes=nodes,
        elements=elements,
        element_region=np.asarray(labels),
        boundary_edges=_boundary_edges_from_elements(elements),
        region_table=dict(region_table),
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
    return _make_mesh(pts, tris, labels, {"matrix": "matrix"})


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
    radii = np.geomspace(r_inner, r_outer, nr + 1)
    pts = np.concatenate([_ring_points(r, ntheta) for r in radii])
    rings = [np.arange(k * ntheta, (k + 1) * ntheta) for k in range(nr + 1)]
    ang = 2.0 * np.pi * np.arange(ntheta) / ntheta
    tris = []
    for inner, outer in zip(rings[:-1], rings[1:]):
        tris.extend(_strip(inner, ang, outer, ang))
    labels = np.full(len(tris), "matrix")
    return _make_mesh(pts, tris, labels, {"matrix": "matrix"})


def _centered_petal_mesh(outer_radius, petal_radius, refinement):
    # Conforming two-zone layout: spiderweb core out to the petal circle,
    # then geometrically graded full rings to the outer boundary. Exact
    # interface, exact labels, no Delaunay involved.
    ncore = 2**refinement
    ntheta = 6 * ncore
    pts, rings = _spiderweb_points(petal_radius, ncore)
    core_tris = _spiderweb_triangles(rings)
    nshell = max(1, math.ceil(ntheta * math.log(outer_radius / petal_radius) / (2 * np.pi)))
    radii = np.geomspace(petal_radius, outer_radius, nshell + 1)[1:]
    ang = 2.0 * np.pi * np.arange(ntheta) / ntheta
    all_pts = [pts]
    prev = rings[-1]
    shell_tris = []
    start = len(pts)
    for r in radii:
        ring = np.arange(start, start + ntheta)
        all_pts.append(_ring_points(r, ntheta))
        shell_tris.extend(_strip(prev, ang, ring, ang))
        prev = ring
        start += ntheta
    tris = core_tris + shell_tris
    labels = np.array(["inclusion-1"] * len(core_tris) + ["matrix"] * len(shell_tris))
    table = {"matrix": "matrix", "inclusion-1": "inclusion-1"}
    return _make_mesh(np.concatenate(all_pts), tris, labels, table)


def generate_petal_cable(outer_radius, petal_centers, petal_radius, refinement):
    """Disk of ``outer_radius`` containing disjoint circular petals.

    Petal k's elements are labeled ``"inclusion-<k+1>"``, the rest
    ``"matrix"``. Petals must lie strictly
    inside the disk and be pairwise disjoint. A single petal centered at
    the origin gets a fully structured conforming mesh; general layouts
    embed per-petal spiderwebs into the background cloud and stitch with
    a Delaunay pass.
    """
    if outer_radius <= 0 or petal_radius <= 0:
        raise MeshError("radii must be positive")
    if refinement < 1:
        raise MeshError("refinement must be at least 1")
    centers = np.asarray(petal_centers, dtype=float).reshape(-1, 2)
    for k, c in enumerate(centers):
        if np.hypot(*c) + petal_radius >= outer_radius:
            raise MeshError(f"petal {k + 1} touches or crosses the outer boundary")
    for a in range(len(centers)):
        for b in range(a + 1, len(centers)):
            if np.hypot(*(centers[a] - centers[b])) <= 2 * petal_radius:
                raise MeshError(f"petals {a + 1} and {b + 1} overlap")
    if len(centers) == 0:
        return generate_disk(outer_radius, refinement)
    if len(centers) == 1 and np.hypot(*centers[0]) == 0.0:
        return _centered_petal_mesh(outer_radius, petal_radius, refinement)

    from scipy.spatial import Delaunay

    nglobal = 2**refinement
    h = outer_radius / nglobal
    gpts, grings = _spiderweb_points(outer_radius, nglobal)
    on_boundary = np.zeros(len(gpts), dtype=bool)
    on_boundary[grings[-1]] = True

    clouds = []
    prings = max(2, round(petal_radius / h))
    ru = petal_radius / prings  # local ring pitch; one collar ring past the rim
    keep = np.ones(len(gpts), dtype=bool)
    for c in centers:
        local, _ = _spiderweb_points(ru * (prings + 1), prings + 1, center=c)
        clouds.append(local)
        d = np.hypot(gpts[:, 0] - c[0], gpts[:, 1] - c[1])
        keep &= (d > petal_radius + ru + 0.6 * h) | on_boundary
    pts = np.concatenate([gpts[keep]] + clouds)

    simplices = Delaunay(pts).simplices
    cent = pts[simplices].mean(axis=1)
    labels = np.full(len(simplices), "matrix", dtype=object)
    table = {"matrix": "matrix"}
    for k, c in enumerate(centers):
        inside = np.hypot(cent[:, 0] - c[0], cent[:, 1] - c[1]) < petal_radius
        labels[inside] = f"inclusion-{k + 1}"
        table[f"inclusion-{k + 1}"] = f"inclusion-{k + 1}"
    return _make_mesh(pts, simplices, np.asarray(labels, dtype=np.str_), table)


# ---------------------------------------------------------------------------
# electrodes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ElectrodeLayout:
    """Arc electrodes on the outer boundary circle.

    ``offsets`` holds the arc center angles in radians; every arc spans
    ``2*pi*coverage/count``, so ``coverage`` is the covered fraction of
    the full circle. Arcs must be pairwise disjoint.
    """

    count: int
    coverage: float
    offsets: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "offsets", _frozen(self.offsets, np.float64))
        if self.count < 2:
            raise MeshError("need at least 2 electrodes")
        if not 0 < self.coverage < 1:
            raise MeshError("coverage must lie strictly between 0 and 1")
        if self.offsets.shape != (self.count,):
            raise MeshError("offsets must hold one center angle per electrode")
        w = self.arc_width
        c = np.sort(np.mod(self.offsets, 2 * np.pi))
        gaps = np.diff(np.append(c, c[0] + 2 * np.pi))
        if np.any(gaps < w) or np.any(gaps == 0):
            raise MeshError("electrode arcs overlap")

    @property
    def arc_width(self):
        return 2 * np.pi * self.coverage / self.count

    @classmethod
    def uniform(cls, count, coverage, rotation=0.0):
        """Evenly spaced arcs, the first centered at angle ``rotation``."""
        return cls(count, coverage, rotation + 2 * np.pi * np.arange(count) / count)


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


def total_area(mesh):
    return float(element_areas(mesh).sum())


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
    half, owner, start = _edge_runs(mesh.elements)
    offset = np.arange(len(half)) - np.repeat(start[:-1], np.diff(start))
    second = np.flatnonzero(offset % 2 == 1)
    return np.sort(half[second], axis=1), owner[second - 1], owner[second]


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
    """New mesh with ``label`` stamped on the masked elements, entered in
    the region table as a defect. Used to carve defects and test
    domains."""
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (mesh.element_count,):
        raise MeshError("mask must have one entry per element")
    if not mask.any():
        raise MeshError("mask selects no elements")
    labels = mesh.element_region.astype(object)
    labels[mask] = label
    table = dict(mesh.region_table)
    table[label] = "defect"
    table = {k: v for k, v in table.items() if k in set(labels.tolist())}
    return replace(
        mesh, element_region=np.asarray(labels, dtype=np.str_), region_table=table
    )


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------

_MAGIC = "qlmesh 1"


def write_mesh(mesh, path):
    """Write the ``qlmesh 1`` text format (see ``read_mesh``)."""
    lines = [_MAGIC]
    lines.append(f"nodes {mesh.node_count}")
    for x, y in mesh.nodes:
        lines.append(f"{float(x)!r} {float(y)!r}")
    lines.append(f"elements {mesh.element_count}")
    for (i, j, k), lab in zip(mesh.elements, mesh.element_region):
        lines.append(f"{int(i)} {int(j)} {int(k)} {lab}")
    lines.append(f"boundary {len(mesh.boundary_edges)}")
    for i, j, eid in mesh.boundary_edges:
        lines.append(f"{int(i)} {int(j)} {int(eid)}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def _content_lines(path):
    with open(path, "r", encoding="ascii") as fh:
        for n, raw in enumerate(fh, start=1):
            text = raw.split("#", 1)[0].strip()
            if text:
                yield n, text


def read_mesh(path):
    """Parse the ``qlmesh 1`` text format.

    Layout: a ``qlmesh 1`` header, ``nodes N`` followed by N ``x y`` rows,
    ``elements M`` followed by M ``i j k label`` rows, ``boundary K``
    followed by K ``i j electrode_id`` rows. ``#`` starts a comment.
    Region kinds are reconstructed from label names: ``inclusion-*``
    keeps its own name as kind, ``defect*`` -> defect, else matrix."""
    it = _content_lines(path)

    def next_line(what):
        try:
            return next(it)
        except StopIteration:
            raise MeshFormatError(f"unexpected end of file, expected {what}") from None

    n, text = next_line("header")
    if text != _MAGIC:
        raise MeshFormatError(f"expected '{_MAGIC}' header, got '{text}'", n)

    def section(name):
        n, text = next_line(f"'{name} <count>'")
        parts = text.split()
        if len(parts) != 2 or parts[0] != name:
            raise MeshFormatError(f"expected '{name} <count>', got '{text}'", n)
        try:
            count = int(parts[1])
        except ValueError:
            raise MeshFormatError(f"bad {name} count '{parts[1]}'", n) from None
        if count < 0:
            raise MeshFormatError(f"negative {name} count", n)
        return count

    nn = section("nodes")
    nodes = np.empty((nn, 2))
    for r in range(nn):
        n, text = next_line("node coordinates")
        parts = text.split()
        if len(parts) != 2:
            raise MeshFormatError("node row must be 'x y'", n)
        try:
            nodes[r] = [float(parts[0]), float(parts[1])]
        except ValueError:
            raise MeshFormatError(f"bad coordinate in '{text}'", n) from None

    ne = section("elements")
    if ne == 0:
        raise MeshFormatError("mesh has no elements")
    elements = np.empty((ne, 3), dtype=np.int64)
    labels = np.empty(ne, dtype=object)
    for r in range(ne):
        n, text = next_line("element row")
        parts = text.split()
        if len(parts) != 4:
            raise MeshFormatError("element row must be 'i j k label'", n)
        try:
            elements[r] = [int(p) for p in parts[:3]]
        except ValueError:
            raise MeshFormatError(f"bad node index in '{text}'", n) from None
        if np.any(elements[r] < 0) or np.any(elements[r] >= nn):
            raise MeshFormatError(f"node index out of range in '{text}'", n)
        if len(set(elements[r].tolist())) != 3:
            raise MeshFormatError(f"repeated node in element '{text}'", n)
        labels[r] = parts[3]

    nb = section("boundary")
    edges = np.empty((nb, 3), dtype=np.int64)
    for r in range(nb):
        n, text = next_line("boundary row")
        parts = text.split()
        if len(parts) != 3:
            raise MeshFormatError("boundary row must be 'i j electrode_id'", n)
        try:
            edges[r] = [int(p) for p in parts]
        except ValueError:
            raise MeshFormatError(f"bad integer in '{text}'", n) from None
        if np.any(edges[r, :2] < 0) or np.any(edges[r, :2] >= nn):
            raise MeshFormatError(f"node index out of range in '{text}'", n)
        if edges[r, 2] < -1:
            raise MeshFormatError(f"electrode id below -1 in '{text}'", n)

    for n, _ in it:
        raise MeshFormatError("trailing content after boundary section", n)

    if np.any(_signed_areas(nodes, elements) <= 0):
        bad = int(np.argmax(_signed_areas(nodes, elements) <= 0))
        raise MeshFormatError(f"element {bad} is degenerate or clockwise")

    want = {tuple(sorted(e[:2])) for e in edges.tolist()}
    have = {
        tuple(sorted(e[:2]))
        for e in _boundary_edges_from_elements(elements).tolist()
    }
    if want != have:
        raise MeshFormatError("boundary section does not match element boundary")

    table = {}
    for lab in set(labels.tolist()):
        if lab.startswith("inclusion"):
            table[lab] = lab
        elif lab.startswith("defect"):
            table[lab] = "defect"
        else:
            table[lab] = "matrix"
    return Mesh(
        nodes=nodes,
        elements=elements,
        element_region=np.asarray(labels, dtype=np.str_),
        boundary_edges=edges,
        region_table=table,
    )
