"""P1 assembly, constraint handling, and linear solves.

Piecewise-linear triangles with one conductivity value per element (exact
for the fixed-point linearization, since P1 gradients are element
constants). Dirichlet values are eliminated so the free system stays
symmetric positive definite. Perfectly conducting regions are realized by
merging their node sets into one master dof per connected component,
which enforces the constant-potential constraint exactly and leaves the
net current into a floating group at zero. Perfectly insulating regions
are realized by excluding their elements, which imposes the natural
no-flux condition on the interface.

The fixed-point driver solves each linearized system by Jacobi-
preconditioned conjugate gradients (``solve_spd``), started from zero so
that the answer depends on the system alone and not on where the
iteration began (see ``solver.solve_nonlinear``). A conductivity that
does not depend on the field needs no iteration: ``Assembler.solve_direct``
factors the free block once and solves any number of boundary-value
columns against that one factorization.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .materials import energy_density

__all__ = [
    "Assembler",
    "StiffnessSystem",
    "DofMap",
    "FieldSolution",
    "SolveResult",
    "ConflictError",
    "SingularSystemError",
    "NonConvergenceError",
    "assemble",
    "solve_spd",
    "local_stiffness",
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
    """Shape-function coefficients and areas: grad(lambda_a) = (b_a, c_a)/(2A)."""
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


def local_stiffness(coords, sigma=1.0):
    """3x3 P1 stiffness of a single triangle."""
    coords = np.asarray(coords, dtype=float)
    x, y = coords[:, 0], coords[:, 1]
    b = np.array([y[1] - y[2], y[2] - y[0], y[0] - y[1]])
    c = np.array([x[2] - x[1], x[0] - x[2], x[1] - x[0]])
    area = 0.5 * (b[0] * c[1] - b[1] * c[0])
    return sigma * (np.outer(b, b) + np.outer(c, c)) / (4.0 * area)


def element_gradients(mesh, u):
    """Exact P1 gradient per element, (M, 2). NaN where u is undefined."""
    b, c, area = element_geometry(mesh)
    ue = np.asarray(u, dtype=float)[mesh.elements]
    gx = np.sum(ue * b, axis=1) / (2.0 * area)
    gy = np.sum(ue * c, axis=1) / (2.0 * area)
    return np.column_stack([gx, gy])


@dataclass(frozen=True)
class DofMap:
    """Node classification after merging, exclusion, and elimination.

    ``parent[i]`` is node i's master (itself unless merged into a
    constant-potential group). ``index[m]`` classifies master m: a free
    dof number, FIXED (-1), or EXCLUDED (-2). ``fixed_value`` holds the
    prescribed potential at fixed masters, NaN elsewhere.
    """

    parent: np.ndarray
    index: np.ndarray
    fixed_value: np.ndarray
    n_free: int

    def expand(self, x_free, fill=np.nan):
        """Free-dof vector -> full nodal vector."""
        idx = self.index[self.parent]
        out = np.full(len(self.parent), fill, dtype=float)
        free = idx >= 0
        out[free] = np.asarray(x_free)[idx[free]]
        fixed = idx == FIXED
        out[fixed] = self.fixed_value[self.parent[fixed]]
        return out

    def merged_groups(self):
        """Masters of multi-node groups -> node index arrays."""
        masters, counts = np.unique(self.parent, return_counts=True)
        out = {}
        for m in masters[counts > 1]:
            out[int(m)] = np.flatnonzero(self.parent == m)
        return out


@dataclass(frozen=True)
class StiffnessSystem:
    """Eliminated SPD system K_ff x = -K_fd u_d."""

    matrix: sparse.csr_matrix
    k_fd: sparse.csr_matrix
    dof_map: DofMap
    bc_nodes: np.ndarray
    bc_values: np.ndarray
    rhs: np.ndarray


@dataclass(frozen=True)
class FieldSolution:
    """Converged field with its derived quantities.

    ``residuals`` is the linear-solve history of the last (or only)
    system; ``picard_energy`` and ``picard_change`` trace the fixed-point
    iteration when one ran. ``monitors`` records post-solve sanity checks
    (energy descent, potential bounds)."""

    nodal_potential: np.ndarray
    element_gradient: np.ndarray
    energy: float
    iterations: int
    residuals: np.ndarray
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


class Assembler:
    """Reusable assembly structure for one (mesh, bc set, region split).

    The sparsity pattern, dof classification, and per-element stiffness
    tensors depend only on the constructor arguments; ``assemble`` then
    maps any per-element conductivity to a StiffnessSystem, which makes
    fixed-point iterations and per-pattern electrode sweeps cheap.
    """

    def __init__(self, mesh, bc_nodes, pec_regions=(), excluded_regions=()):
        self.mesh = mesh
        labels = set(mesh.region_table)
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

        fixed_value = np.full(mesh.node_count, np.nan)
        self.dof_map_template = (parent, index, fixed_value)

        # every kept component must see a fixed value
        conn = _component_min(mesh.node_count, kept_tris)
        stranded = np.setdiff1d(conn[active], conn[parent[bc_nodes]])
        if len(stranded):
            raise SingularSystemError(
                f"{len(stranded)} mesh component(s) carry no boundary value"
            )

        b, c, area = element_geometry(mesh)
        bk, ck, ak = b[self.kept], c[self.kept], area[self.kept]
        self._s_local = (
            bk[:, :, None] * bk[:, None, :] + ck[:, :, None] * ck[:, None, :]
        ) / (4.0 * ak[:, None, None])

        gi = index[kept_tris]  # (K,3) dof classes per corner
        rows = np.repeat(gi[:, :, None], 3, axis=2)
        cols = np.repeat(gi[:, None, :], 3, axis=1)
        self._ff = (rows >= 0) & (cols >= 0)
        self._fd = (rows >= 0) & (cols == FIXED)
        self._ff_rows = rows[self._ff]
        self._ff_cols = cols[self._ff]

        fixed_masters = np.flatnonzero(index == FIXED)
        fcol = np.full(mesh.node_count, -1, dtype=np.int64)
        fcol[fixed_masters] = np.arange(len(fixed_masters))
        master_cols = np.repeat(kept_tris[:, None, :], 3, axis=1)
        self._fd_rows = rows[self._fd]
        self._fd_cols = fcol[master_cols[self._fd]]
        self.n_fixed = len(fixed_masters)

        raw = mesh.elements[self.kept]
        self._raw_rows = np.repeat(raw[:, :, None], 3, axis=2).ravel()
        self._raw_cols = np.repeat(raw[:, None, :], 3, axis=1).ravel()

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
        vals = sk[:, None, None] * self._s_local
        n = self.n_free
        k_ff = sparse.coo_matrix(
            (vals[self._ff], (self._ff_rows, self._ff_cols)), shape=(n, n)
        ).tocsr()
        k_fd = sparse.coo_matrix(
            (vals[self._fd], (self._fd_rows, self._fd_cols)),
            shape=(n, self.n_fixed),
        ).tocsr()
        return k_ff, k_fd

    def assemble(self, per_element_sigma, bc_values):
        """StiffnessSystem for the given conductivities and boundary values."""
        k_ff, k_fd = self._blocks(per_element_sigma)
        dof_map = self.dof_map(bc_values)
        bc_values = np.asarray(bc_values, dtype=float)
        return StiffnessSystem(
            matrix=k_ff,
            k_fd=k_fd,
            dof_map=dof_map,
            bc_nodes=self.bc_nodes,
            bc_values=bc_values,
            rhs=-k_fd @ bc_values,
        )

    def dof_map(self, bc_values):
        """DofMap holding ``bc_values`` (aligned with the sorted
        ``bc_nodes``) at the fixed masters."""
        bc_values = np.asarray(bc_values, dtype=float)
        if bc_values.shape != self.bc_nodes.shape:
            raise ValueError("bc_values must align with the assembler's bc_nodes")
        parent, index, fixed_value = self.dof_map_template
        fv = np.array(fixed_value)
        fv[parent[self.bc_nodes]] = bc_values
        return DofMap(parent, index, fv, self.n_free)

    def solve_direct(self, per_element_sigma, bc_values):
        """Nodal potentials for k sets of boundary values at once.

        Meant for a conductivity that does not depend on the field: the
        free block is assembled and LU-factored once, and all k columns of
        ``bc_values`` (shape (len(bc_nodes), k), rows aligned with the
        sorted ``bc_nodes``) are solved against that factorization.
        Returns a (node_count, k) array, NaN on nodes that only excluded
        elements touch."""
        # imported here so that the commands that never factor do not pay
        # for loading scipy.sparse.linalg
        from scipy.sparse.linalg import splu

        bc_values = np.asarray(bc_values, dtype=float)
        if bc_values.ndim != 2 or bc_values.shape[0] != len(self.bc_nodes):
            raise ValueError("bc_values must be (len(bc_nodes), k)")
        k_ff, k_fd = self._blocks(per_element_sigma)
        rhs = -k_fd @ bc_values
        x = splu(k_ff.tocsc()).solve(rhs) if self.n_free else rhs
        parent, index, _ = self.dof_map_template
        idx = index[parent]
        free = idx >= 0
        u = np.full((self.mesh.node_count, bc_values.shape[1]), np.nan)
        u[free] = x[idx[free]]
        u[self.bc_nodes] = bc_values
        return u

    def raw_matrix(self, per_element_sigma):
        """Unconstrained nodal stiffness over the kept elements; reaction
        currents are its product with the full potential vector."""
        sk = self._sigma_kept(per_element_sigma)
        vals = (sk[:, None, None] * self._s_local).ravel()
        n = self.mesh.node_count
        return sparse.coo_matrix(
            (vals, (self._raw_rows, self._raw_cols)), shape=(n, n)
        ).tocsr()


def assemble(mesh, per_element_sigma, bc, pec_regions=(), excluded_regions=()):
    """One-shot assembly. ``bc`` maps node index -> prescribed potential."""
    if isinstance(bc, dict):
        nodes = np.array(sorted(bc), dtype=np.int64)
        values = np.array([bc[int(n)] for n in nodes], dtype=float)
    else:
        nodes, values = bc
        order = np.argsort(nodes)
        nodes, values = np.asarray(nodes)[order], np.asarray(values)[order]
    asm = Assembler(mesh, nodes, pec_regions, excluded_regions)
    return asm.assemble(per_element_sigma, values)


@dataclass(frozen=True)
class SolveResult:
    x: np.ndarray
    iterations: int
    residuals: np.ndarray  # preconditioned norms, one per iteration
    final_relative_residual: float


def solve_spd(system, tol=1e-10, max_iter=None, x0=None):
    """Jacobi-preconditioned conjugate gradients on the eliminated system.

    Stops when the plain residual norm drops to ``tol`` times the
    right-hand side norm; raises NonConvergenceError (with the recorded
    preconditioned-norm history) when the iteration cap is hit first.
    ``x0`` is the starting vector, zero by default. The result depends on
    it within that tolerance, which is why ``solver.solve_nonlinear``
    leaves it at zero."""
    if isinstance(system, StiffnessSystem):
        a, b = system.matrix, system.rhs
    else:
        a, b = system  # bare (matrix, rhs) pair
    return _pcg(a, np.asarray(b, dtype=float), tol=tol, max_iter=max_iter, x0=x0)


def _pcg(a, b, tol=1e-10, max_iter=None, x0=None):
    n = a.shape[0]
    if n == 0:
        return SolveResult(np.empty(0), 0, np.empty(0), 0.0)
    if max_iter is None:
        max_iter = max(1000, int(30 * np.sqrt(n)))
    d = a.diagonal()
    if np.any(d <= 0):
        raise ValueError("matrix diagonal must be positive")
    inv_d = 1.0 / d

    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return SolveResult(np.zeros(n), 0, np.empty(0), 0.0)

    r = b - a @ x
    z = inv_d * r
    p = z.copy()
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
        alpha = rz / float(p @ ap)
        x += alpha * p
        r -= alpha * ap
        z = inv_d * r
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
        history.append(np.sqrt(max(rz, 0.0)))
        res = float(np.linalg.norm(r))
        it += 1
    return SolveResult(x, it, np.array(history), res / b_norm)


def dirichlet_energy(mesh, material_map, solution, skip_regions=()):
    """Total stored energy: sum over elements of area * Q(|grad u|), with
    each element's own material law. Elements in ``skip_regions`` and
    elements whose potential is undefined (inside excluded regions)
    contribute nothing; skipped regions need no material."""
    u = (
        solution.nodal_potential
        if isinstance(solution, FieldSolution)
        else np.asarray(solution, dtype=float)
    )
    grads = element_gradients(mesh, u)
    e_mag = np.hypot(grads[:, 0], grads[:, 1])
    _, _, area = element_geometry(mesh)
    ok = np.isfinite(e_mag)
    if skip_regions:
        ok &= ~np.isin(mesh.element_region, tuple(skip_regions))
    total = 0.0
    for label in np.unique(mesh.element_region[ok]):
        m = mesh.region_mask(label) & ok
        dens = energy_density(material_map.for_region(label), e_mag[m])
        total += float(np.sum(dens * area[m]))
    return total
