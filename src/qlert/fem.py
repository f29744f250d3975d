"""P1 assembly, constraint handling, and linear solves.

Piecewise-linear triangles with one conductivity value per element (exact
for the fixed-point linearization, since P1 gradients are element
constants). Dirichlet values are eliminated so the free system stays
symmetric positive definite. Perfectly conducting regions are realized by
merging their node sets into one master dof per connected component,
which enforces the constant-potential constraint exactly and leaves the
net current into a floating group at zero. Perfectly insulating regions
are realized by excluding their elements, which imposes the natural
no-flux condition on the interface. Element geometry is computed once per
mesh and shared by every assembler, gradient and energy on it.

An ``Assembler`` is built once per (mesh, boundary nodes, conductor split)
and is the one place outside ``mesh`` that classifies elements by region:
its ``kept_regions`` and ``kept`` elements are those whose material a
solve evaluates, for the conductivity and for ``dirichlet_energy`` alike.
It serves any number of conductivities: it keeps a CSR plan of the free
block and of its coupling to the fixed dofs, so that assembling is one
gather and one ``np.bincount``. The plan sums every matrix entry in the
order scipy's COO -> CSR conversion does, so the matrices are the ones
that conversion gives, bit for bit (``_CsrPlan``).

The fixed-point driver solves each linearized system by deflated
Jacobi-preconditioned conjugate gradients (``solve_spd``). A kept region
that touches no Dirichlet node floats: when its conductivity dwarfs its
neighbours' (E-J petals saturated at ``sigma_cap`` next to copper), its
constant vector is a near-null mode of the scaled stiffness, and plain
Jacobi-PCG converges slowly on it and stops with an error in that mode.
``Assembler.deflation_basis`` gives one coarse vector per floating region,
and ``solve_spd`` projects them out of every step and solves for them
exactly (Vuik, Segal & Meijerink, J. Comput. Phys. 152, 1999; the DEF1
form of Tang, Nabben, Vuik & Erlangga, J. Sci. Comput. 39, 2009). The
iteration always starts from zero, so that the answer depends on the
system alone and not on where it began (see ``solver.solve_nonlinear``).
A conductivity that does not depend on the field needs no iteration:
``Assembler.factor`` factors the free block once, and any number of
boundary-value columns are solved against that one factorization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy import sparse

from .materials import energy_density

__all__ = [
    "Assembler",
    "FieldSolution",
    "SolveResult",
    "ConflictError",
    "SingularSystemError",
    "NonConvergenceError",
    "solve_spd",
    "element_geometry",
    "element_gradients",
    "dirichlet_energy",
]


class ConflictError(ValueError):
    """A merged constant-potential group touches the Dirichlet boundary."""


class SingularSystemError(ValueError):
    """Free dofs with no path to any fixed value."""


class NonConvergenceError(RuntimeError):
    """Iterative solve hit its iteration cap. Carries ``residuals``."""

    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = residuals if residuals is not None else []


FREE, FIXED, EXCLUDED = 0, -1, -2


def element_geometry(mesh):
    """Shape-function coefficients and areas: grad(lambda_a) = (b_a, c_a)/(2A).

    Computed once per mesh and kept on it; the arrays are read-only. A
    mesh derived from another (``relabel_elements``, ``tag_electrodes``)
    is a new object and computes its own."""
    geometry = vars(mesh).get("_fem_geometry")
    if geometry is None:
        geometry = _element_geometry(mesh)
        for a in geometry:
            a.setflags(write=False)
        object.__setattr__(mesh, "_fem_geometry", geometry)
    return geometry


def _element_geometry(mesh):
    p = mesh.nodes[mesh.elements]
    x, y = p[..., 0], p[..., 1]
    b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    area = 0.5 * (b[:, 0] * c[:, 1] - b[:, 1] * c[:, 0])
    # cross-check against the direct shoelace form
    area2 = 0.5 * (
        (x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0])
        - (x[:, 2] - x[:, 0]) * (y[:, 1] - y[:, 0])
    )
    assert np.allclose(area, area2)
    return b, c, area


def element_gradients(mesh, u):
    """Exact P1 gradient per element, (M, 2). NaN where u is undefined."""
    b, c, area = element_geometry(mesh)
    ue = np.asarray(u, dtype=float)[mesh.elements]
    gx = np.sum(ue * b, axis=1) / (2.0 * area)
    gy = np.sum(ue * c, axis=1) / (2.0 * area)
    return np.column_stack([gx, gy])


@dataclass(frozen=True)
class FieldSolution:
    """Converged field with its derived quantities.

    ``picard_energy`` and ``picard_change`` trace the fixed-point
    iteration when one ran. ``monitors`` records post-solve sanity checks
    (energy descent, potential bounds)."""

    nodal_potential: np.ndarray
    element_gradient: np.ndarray
    energy: float
    iterations: int
    picard_energy: np.ndarray = field(default_factory=lambda: np.empty(0))
    picard_change: np.ndarray = field(default_factory=lambda: np.empty(0))
    monitors: dict = field(default_factory=dict)


def _component_min(n, tris):
    """Smallest node index in each node's connected component, where the
    triangles (K, 3) join their corners.

    Min-label propagation with pointer jumping: every label is a node of
    the same component no larger than the node itself, each round hooks
    the root on one side of an edge to the smaller root on the other, and
    jumping then points every node straight at its root. A round that
    hooks nothing leaves one root per component, its smallest node."""
    a = np.concatenate([tris[:, 0], tris[:, 0]])
    b = np.concatenate([tris[:, 1], tris[:, 2]])
    label = np.arange(n, dtype=np.int64)
    while True:
        la, lb = label[a], label[b]
        split = la != lb
        if not split.any():
            return label
        la, lb = la[split], lb[split]
        lo = np.minimum(la, lb)
        np.minimum.at(label, la, lo)
        np.minimum.at(label, lb, lo)
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped


def _corner_pairs(tris):
    """(row, column) labels of the flattened (K, 3, 3) element matrices
    of K triangles whose corners carry the labels ``tris`` (K, 3)."""
    return np.repeat(tris, 3, axis=1).ravel(), np.tile(tris, 3).ravel()


def _stable_order(rows):
    """``np.argsort(rows, kind="stable")`` as int32, by one sort of keys
    that carry the row in their high 32 bits and the position in the low:
    they are unique, so any sort is stable, and a plain one is fast."""
    key = rows.astype(np.int64) << 32
    key |= np.arange(len(key))
    key.sort()
    key &= 0xFFFFFFFF
    return key.astype(np.int32)


class _CsrPlan:
    """Assembly of one fixed COO pattern into CSR, summing duplicates in
    the order scipy's COO -> CSR conversion does, so that ``matrix(vals)``
    equals ``coo_matrix((vals[at], (rows, cols))).tocsr()`` bit for bit.

    That conversion buckets the entries by row in their given order,
    sorts each row's column indices (``csr_matrix.sort_indices``, an
    unstable sort whose permutation depends only on the indices) and adds
    each run of equal indices from left to right. The plan replays the
    first two steps once on the entry positions, keeping for every entry
    in summation order where its value sits in ``vals`` (``gather``) and
    which stored slot it lands in (``slot``); ``np.bincount`` then adds
    the values slot by slot in that same order, from +0.0 (so a slot
    whose every entry is -0.0 gives +0.0, where scipy keeps -0.0). Every
    index array is int32, as in the matrices scipy builds, and read-only:
    each matrix shares ``indices`` and ``indptr``."""

    def __init__(self, at, rows, cols, shape):
        n_rows = shape[0]
        indptr = np.zeros(n_rows + 1, dtype=np.int32)
        np.cumsum(np.bincount(rows, minlength=n_rows), out=indptr[1:])
        # the entry positions ride along as the data, sorted with their
        # column indices: the sort's permutation depends on those alone
        order = _stable_order(rows)
        probe = sparse.csr_matrix((order, cols[order], indptr), shape=shape)
        del order  # the probe's data, freed with the probe
        probe.sort_indices()
        self.shape = shape
        self.gather = at[probe.data]  # entries in summation order
        indices = probe.indices
        del probe
        n = len(indices)
        opens = np.ones(n, dtype=bool)  # the entry starts a new slot
        opens[1:] = indices[1:] != indices[:-1]
        opens[indptr[:-1][indptr[:-1] < n]] = True  # and so does each row
        before = np.zeros(n + 1, dtype=np.int32)  # slots before entry k
        np.cumsum(opens, out=before[1:])
        self.slot = before[1:] - 1
        self.indices = indices[opens]
        self.indptr = before[indptr]
        for a in (self.gather, self.slot, self.indices, self.indptr):
            a.setflags(write=False)

    def matrix(self, vals):
        """The CSR matrix of the pattern with entry values ``vals[at]``."""
        data = np.bincount(self.slot, weights=vals[self.gather],
                           minlength=len(self.indices))
        data = data.astype(float, copy=False)  # int64 when the plan is empty
        return sparse.csr_matrix((data, self.indices, self.indptr),
                                 shape=self.shape)


class Assembler:
    """Reusable assembly structure for one (mesh, bc set, region split).

    The sparsity pattern, dof classification, and per-element stiffness
    tensors depend only on the constructor arguments; ``assemble`` then
    maps any per-element conductivity to the eliminated system, which
    makes fixed-point iterations and per-pattern electrode sweeps cheap.

    ``parent[i]`` is node i's master (itself unless merged into a
    constant-potential group); ``node_dof[i]`` classifies that master: a
    free dof number, FIXED (-1) or EXCLUDED (-2). Boundary values are
    always aligned with the sorted ``bc_nodes``.
    """

    def __init__(self, mesh, bc_nodes, pec_regions=(), excluded_regions=()):
        self.mesh = mesh
        labels = mesh.region_elements()
        for lab in (*pec_regions, *excluded_regions):
            if lab not in labels:
                raise ValueError(f"unknown region '{lab}'")
        if set(pec_regions) & set(excluded_regions):
            raise ValueError("a region cannot be both conducting and insulating")
        self.pec_regions = tuple(pec_regions)
        self.excluded_regions = tuple(excluded_regions)

        bc_nodes = np.unique(np.asarray(bc_nodes, dtype=np.int64))
        if len(bc_nodes) == 0:
            raise ValueError("boundary condition set is empty")
        self.bc_nodes = bc_nodes

        region = mesh.element_region
        drop = np.isin(region, self.pec_regions + self.excluded_regions)
        pec = np.isin(region, self.pec_regions)
        self.kept = np.flatnonzero(~drop)

        # merge constant-potential groups onto their smallest node
        parent = _component_min(mesh.node_count, mesh.elements[pec])

        group_size = np.bincount(parent, minlength=mesh.node_count)
        if np.any(group_size[parent[bc_nodes]] > 1):
            raise ConflictError(
                "constant-potential group touches the Dirichlet boundary"
            )

        kept_tris = parent[mesh.elements[self.kept]]
        active = np.zeros(mesh.node_count, dtype=bool)
        active[kept_tris.ravel()] = True

        index = np.full(mesh.node_count, EXCLUDED, dtype=np.int64)
        index[parent[bc_nodes]] = FIXED
        free_masters = np.flatnonzero(
            active & (index != FIXED) & (parent == np.arange(mesh.node_count))
        )
        index[free_masters] = np.arange(len(free_masters))
        self.n_free = len(free_masters)

        self.parent = parent
        self.node_dof = index[parent]

        # every kept component must see a fixed value
        conn = _component_min(mesh.node_count, kept_tris)
        stranded = np.setdiff1d(conn[active], conn[parent[bc_nodes]])
        if len(stranded):
            raise SingularSystemError(
                f"{len(stranded)} mesh component(s) carry no boundary value"
            )

        # entry (k, i, j) of the flattened (K, 3, 3) local matrices couples
        # corner i (row) with corner j (column) of kept element k; int32
        # index arrays, each freed after its last reader, keep the set-up
        # transient small, and it sets the peak memory of a large solve
        gi = index[kept_tris].astype(np.int32)  # (K,3) dof classes per corner
        rows, cols = _corner_pairs(gi)
        ff = np.flatnonzero((rows >= 0) & (cols >= 0)).astype(np.int32)
        self._ff_plan = _CsrPlan(ff, rows[ff], cols[ff],
                                 (self.n_free, self.n_free))
        del ff

        fixed_masters = np.flatnonzero(index == FIXED)
        fcol = np.full(mesh.node_count, -1, dtype=np.int32)
        fcol[fixed_masters] = np.arange(len(fixed_masters))
        self.n_fixed = len(fixed_masters)
        fd = np.flatnonzero((rows >= 0) & (cols == FIXED)).astype(np.int32)
        del cols
        _, fixed_cols = _corner_pairs(fcol[kept_tris])
        self._fd_plan = _CsrPlan(fd, rows[fd], fixed_cols[fd],
                                 (self.n_free, self.n_fixed))
        del rows, fixed_cols, fd

        b, c, area = element_geometry(mesh)
        bk, ck = b[self.kept], c[self.kept]
        s_local = bk[:, :, None] * bk[:, None, :]
        s_local += ck[:, :, None] * ck[:, None, :]
        s_local /= 4.0 * area[self.kept][:, None, None]
        self._s_local = s_local

    def _sigma_kept(self, per_element_sigma):
        s = np.asarray(per_element_sigma, dtype=float)
        if s.shape != (self.mesh.element_count,):
            raise ValueError("need one conductivity per element")
        sk = s[self.kept]
        if np.any(~np.isfinite(sk)) or np.any(sk <= 0):
            raise ValueError("conductivity must be positive and finite on every "
                             "element outside merged or excluded regions")
        return sk

    def _blocks(self, per_element_sigma):
        """(K_ff, K_fd) in CSR. K_fd's columns are the fixed masters in
        ascending order, which are the sorted ``bc_nodes`` themselves: a
        Dirichlet node never shares a merged group."""
        sk = self._sigma_kept(per_element_sigma)
        vals = (sk[:, None, None] * self._s_local).ravel()
        return self._ff_plan.matrix(vals), self._fd_plan.matrix(vals)

    def _aligned(self, bc_values):
        bc_values = np.asarray(bc_values, dtype=float)
        if bc_values.ndim > 2 or bc_values.shape[:1] != self.bc_nodes.shape:
            raise ValueError("bc_values must align with the assembler's bc_nodes")
        return bc_values

    def assemble(self, per_element_sigma, bc_values):
        """The eliminated system (K_ff, -K_fd @ bc_values) for the given
        conductivities and (len(bc_nodes),) or (len(bc_nodes), k)
        boundary values. K_ff's ``indices`` and ``indptr`` are read-only
        and shared by every matrix this Assembler makes."""
        k_ff, k_fd = self._blocks(per_element_sigma)
        return k_ff, -k_fd @ self._aligned(bc_values)

    def factor(self, per_element_sigma):
        """(LU factorization of K_ff, K_fd) for a conductivity that does
        not depend on the field. The factorization is a
        ``scipy.sparse.linalg.splu`` object (None when no dof is free);
        ``lu.solve(-k_fd @ bc_values)`` gives the free dofs for any set of
        boundary-value columns, and ``expand`` the nodal potentials."""
        # imported here so that the commands that never factor do not pay
        # for loading scipy.sparse.linalg
        from scipy.sparse.linalg import splu

        k_ff, k_fd = self._blocks(per_element_sigma)
        return (splu(k_ff.tocsc()) if self.n_free else None), k_fd

    def expand(self, x_free, bc_values):
        """Nodal potentials, (node_count,) or (node_count, k), from free
        dofs of shape (n_free,) or (n_free, k) and the matching boundary
        values; NaN on nodes that only excluded elements touch."""
        bc_values = self._aligned(bc_values)
        x_free = np.asarray(x_free, dtype=float)
        u = np.full((self.mesh.node_count, *x_free.shape[1:]), np.nan)
        free = self.node_dof >= 0
        u[free] = x_free[self.node_dof[free]]
        u[self.bc_nodes] = bc_values
        return u

    def element_stiffness(self, elements):
        """Unit-conductivity 3x3 stiffness of each of the given elements,
        (len(elements), 3, 3); every element must be kept (neither
        merged nor excluded)."""
        elements = np.asarray(elements, dtype=np.int64)
        pos = np.searchsorted(self.kept, elements)
        ok = pos < len(self.kept)
        ok[ok] = self.kept[pos[ok]] == elements[ok]
        if not ok.all():
            raise ValueError("elements must lie outside merged and excluded "
                             "regions")
        return self._s_local[pos]

    @property
    def kept_regions(self):
        """Labels of the regions that keep their material, neither merged
        nor excluded, in ``mesh.region_elements()`` order."""
        dropped = self.pec_regions + self.excluded_regions
        return tuple(label for label in self.mesh.region_elements()
                     if label not in dropped)

    @cached_property
    def deflation_basis(self):
        """Coarse vectors for ``solve_spd``: one array of free dofs per
        floating region, a kept region none of whose nodes is a Dirichlet
        node. Regions go in sorted label order and a dof on the interface
        of two floating regions belongs to the first; regions left with
        no dof are dropped, so the arrays are disjoint and non-empty."""
        mesh = self.mesh
        dirichlet = np.zeros(mesh.node_count, dtype=bool)
        dirichlet[self.bc_nodes] = True
        taken = np.zeros(self.n_free, dtype=bool)
        basis = []
        regions = mesh.region_elements()
        for label in self.kept_regions:
            nodes = mesh.elements[regions[label]].ravel()
            if dirichlet[nodes].any():
                continue
            dofs = np.unique(self.node_dof[nodes])
            dofs = dofs[dofs >= 0]
            dofs = dofs[~taken[dofs]]
            taken[dofs] = True
            if len(dofs):
                basis.append(dofs)
        return tuple(basis)

    def raw_matrix(self, per_element_sigma):
        """Unconstrained nodal stiffness over the kept elements; reaction
        currents are its product with the full potential vector."""
        sk = self._sigma_kept(per_element_sigma)
        vals = (sk[:, None, None] * self._s_local).ravel()
        n = self.mesh.node_count
        return sparse.coo_matrix(
            (vals, _corner_pairs(self.mesh.elements[self.kept])), shape=(n, n)
        ).tocsr()


@dataclass(frozen=True)
class SolveResult:
    """Outcome of ``solve_spd``.

    ``final_relative_residual`` is the stopping quantity: the norm of the
    recursively updated (projected) residual over ‖b‖, not ‖b - A x‖/‖b‖
    recomputed from ``x``. The two drift apart on badly scaled systems;
    see ``solve_spd`` for the measured gap."""

    x: np.ndarray
    iterations: int
    residuals: np.ndarray  # preconditioned norms, one per iteration
    final_relative_residual: float


class _Deflation:
    """DEF1 projection P = I - AZ E^-1 Z^T, with E = Z^T A Z, for a basis
    Z of disjoint 0/1 columns, each given by its dof indices. Z^T v is a
    segmented sum over the basis dofs and AZ is kept on its nonzero rows
    only. An empty basis makes P the identity and the correction zero."""

    def __init__(self, a, coarse):
        n = a.shape[0]
        cols = [np.asarray(c, dtype=np.int64) for c in coarse]
        self.k = len(cols)
        self.dofs = np.concatenate(cols) if cols else np.empty(0, np.int64)
        self.col = np.repeat(np.arange(self.k), [len(c) for c in cols])
        if len(np.unique(self.dofs)) != len(self.dofs):
            raise ValueError("coarse vectors must be disjoint")
        z = sparse.csc_matrix(
            (np.ones(len(self.dofs)), (self.dofs, self.col)), shape=(n, self.k)
        )
        az = sparse.csr_matrix(a @ z)
        e = (z.T @ az).toarray()
        # E is SPD whenever A is, and k x k with k the number of floating
        # regions: inverted once per solve
        self.e_inv = np.linalg.inv(0.5 * (e + e.T))
        self.rows = np.flatnonzero(np.diff(az.indptr))
        self.az = az[self.rows]

    def zt(self, v):
        return np.bincount(self.col, weights=v[self.dofs], minlength=self.k)

    def project(self, w):
        """w <- P w, in place."""
        w[self.rows] -= self.az @ (self.e_inv @ self.zt(w))

    def correct(self, x, b):
        """x <- x + Z E^-1 (Z^T b - (AZ)^T x), in place: the coarse part
        of the solution that the projected iteration leaves out."""
        coef = self.e_inv @ (self.zt(b) - self.az.T @ x[self.rows])
        x[self.dofs] += coef[self.col]


def solve_spd(system, tol=1e-10, max_iter=None, coarse=()):
    """Deflated Jacobi-preconditioned conjugate gradients on the
    eliminated system ``(matrix, rhs)``, for instance the pair of
    ``Assembler.assemble``.

    ``coarse`` is a sequence of disjoint dof index arrays, one coarse
    vector each (``Assembler.deflation_basis``). Every step projects
    them out of A p with P = I - AZ E^-1 Z^T, E = Z^T A Z (the DEF1 form:
    projecting only the start loses the projection at sigma_cap
    contrasts), and the answer adds back their exact share,
    x = x~ + Z E^-1 (Z^T b - (AZ)^T x~). With no coarse vector this is
    plain Jacobi-PCG.

    Stops when the norm of the projected residual drops to ``tol``
    times the right-hand side norm; raises NonConvergenceError (with the
    recorded preconditioned-norm history) when the iteration cap is hit
    first. The iteration starts from zero: where it stops inside that
    tolerance depends on the start, so a fixed start makes the result a
    function of the system alone (see ``solver.solve_nonlinear``).

    That residual is updated recursively, r <- r - alpha A p, and rounding
    makes it drift from the true b - A x when the conductivity contrast is
    extreme. On the last Kachanov system of the README cable, petals at
    sigma_cap = 1e16 beside copper, the reported residual is at most 1e-10
    while ‖b - A x‖/‖b‖ is 4.6e-8 deflated and 3.1e-7 plain at refinement
    5 (0.5 mV), and 7.6e-8 deflated and 7.2e-7 plain at refinement 6
    (1 mV); a smaller ``tol`` lowers neither. ``final_relative_residual``
    is the recursive one.

    The Kachanov steps stay on this loop rather than a sparse LU: each
    step brings a new matrix, so a factorization is never reused, and
    its fill costs memory. Even the one linear solve of a
    ``forward-r5-r6`` benchmark command, the certified small-data step
    on the README cable, is slower through ``splu``
    (``Assembler.factor``, then its ``solve``): measured at d29b3d1,
    best of 7 on one CPU, 12.9 ms against 7.0 ms here at refinement 5
    and 68.3 ms against 42.2 ms at refinement 6."""
    a, b = system
    b = np.asarray(b, dtype=float)
    n = a.shape[0]
    if n == 0:
        return SolveResult(np.empty(0), 0, np.empty(0), 0.0)
    if max_iter is None:
        max_iter = max(1000, int(30 * np.sqrt(n)))
    d = a.diagonal()
    if np.any(d <= 0):
        raise ValueError("matrix diagonal must be positive")
    inv_d = 1.0 / d

    x = np.zeros(n)
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return SolveResult(np.zeros(n), 0, np.empty(0), 0.0)

    deflation = _Deflation(a, coarse)
    r = b - a @ x
    deflation.project(r)
    z = inv_d * r
    p = z.copy()
    step = np.empty(n)
    rz = float(r @ z)
    history = [np.sqrt(rz)]
    res = float(np.linalg.norm(r))
    it = 0
    while res > tol * b_norm:
        if it >= max_iter:
            raise NonConvergenceError(
                f"conjugate gradients stalled at relative residual "
                f"{res / b_norm:.3e} after {it} iterations (tol {tol})",
                residuals=np.array(history),
            )
        ap = a @ p
        deflation.project(ap)
        alpha = rz / float(p @ ap)
        # the plain loop's x += alpha * p, r -= alpha * ap, z = inv_d * r
        # and p = z + beta * p, computed in place with the same roundings
        x += np.multiply(alpha, p, out=step)
        r -= np.multiply(alpha, ap, out=ap)
        np.multiply(inv_d, r, out=z)
        rz_new = float(r @ z)
        p *= rz_new / rz
        p += z
        rz = rz_new
        history.append(np.sqrt(max(rz, 0.0)))
        res = float(np.linalg.norm(r))
        it += 1
    deflation.correct(x, b)
    return SolveResult(x, it, np.array(history), res / b_norm)


def dirichlet_energy(mesh, material_map, e_mag, labels):
    """Total stored energy of the per-element field magnitudes ``e_mag``
    over the regions ``labels``: the sum over their elements of
    area * Q(e_mag), with each region's own material law. Only those
    regions need a material, and only their fields are read. Regions that
    share one model object take one ``energy_density`` call; the total is
    still summed region by region, in ``labels`` order."""
    _, _, area = element_geometry(mesh)
    index = mesh.region_elements()
    regions = [(label, index[label]) for label in labels]
    dens = np.empty(len(e_mag))
    for model, m in material_map._by_model(regions):
        dens[m] = energy_density(model, e_mag[m])
    total = 0.0
    for _, m in regions:
        total += float(np.sum(dens[m] * area[m]))
    return total
