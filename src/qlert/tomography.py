"""Electrode conductance matrices and monotonicity-based defect imaging.

The boundary data of the imaging problem is the voltage-to-current map
restricted to a finite electrode basis: column j of the conductance
matrix holds the electrode currents measured while driving electrode j
with a zero-mean voltage pattern. Conductivity drops (defects) lower
the matrix in the semidefinite order, so a test defect T contained in
the true defect V must satisfy G_T - G_V >= 0; testing that inequality
against noisy data, shifted by the noise bound, yields an upper-bound
reconstruction as the union of accepted test domains.

When no active material depends on the field (every pec-limit imaging
problem), a ``ConductanceOperator`` holds one assembly and one sparse LU
factorization, solves all patterns as right-hand-side columns for the
background matrix, and gives the matrix of the defect and of every test
domain as an exact low-rank (Woodbury) update of that factorization, so
one operator serves the background, the defect and the dictionary;
otherwise each pattern of each matrix runs the fixed-point solver.
Eigenvalues come from LAPACK (``numpy.linalg.eigvalsh``) after a
symmetry check. PSD decisions are taken on the zero-mean subspace (the
all-ones pattern is not observable with zero-mean excitations); the
undeflated spectrum is kept as a diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from . import fem
from . import mesh as qmesh
from . import solver
from .materials import sigma as material_sigma

__all__ = [
    "ConductanceMatrix",
    "ConductanceOperator",
    "TestDomain",
    "Reconstruction",
    "conductance_matrix",
    "symmetric_eigenvalues",
    "spectral_norm",
    "is_psd",
    "goe_noise",
    "disc_defect",
    "disc_test_domains",
    "mpm_reconstruct",
]


def _frozen(a, dtype=float):
    out = np.asarray(a, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class ConductanceMatrix:
    """Symmetrized electrode conductance matrix (S per unit depth).

    ``asymmetry`` is the largest reciprocity violation found before
    symmetrization, relative to the largest matrix entry."""

    matrix: np.ndarray
    amplitude: float
    electrode_ids: tuple
    mode: str
    scenario: str = ""
    asymmetry: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "matrix", _frozen(self.matrix))

    @property
    def size(self):
        return self.matrix.shape[0]


@dataclass(frozen=True)
class TestDomain:
    """A candidate defect region: an element mask plus its shape."""

    id: str
    element_mask: np.ndarray
    center: tuple
    radius: float

    def __post_init__(self):
        object.__setattr__(
            self, "element_mask", _frozen(self.element_mask, dtype=bool)
        )
        if not self.element_mask.any():
            raise ValueError(f"test domain '{self.id}' selects no elements")


@dataclass(frozen=True)
class Reconstruction:
    """Outcome of the monotonicity test over a test-domain dictionary.

    ``min_eigenvalues`` are taken on the zero-mean electrode subspace;
    ``raw_min_eigenvalues`` keep the undeflated values for diagnosis.
    ``accepted`` lists the indices k with min eigenvalue >= -tol and
    ``union_mask`` is the union of their element masks."""

    domains: tuple
    min_eigenvalues: np.ndarray
    raw_min_eigenvalues: np.ndarray
    accepted: tuple
    union_mask: np.ndarray
    delta: float
    tol: float

    def __post_init__(self):
        object.__setattr__(
            self, "min_eigenvalues", _frozen(self.min_eigenvalues)
        )
        object.__setattr__(
            self, "raw_min_eigenvalues", _frozen(self.raw_min_eigenvalues)
        )
        object.__setattr__(self, "union_mask", _frozen(self.union_mask, bool))


# ---------------------------------------------------------------------------
# conductance matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Electrodes:
    """Electrode nodes, drive patterns and conductor split of one
    conductance measurement."""

    ids: tuple
    nodes: np.ndarray     # every electrode node, grouped by electrode
    owner: np.ndarray     # electrode position of each entry of ``nodes``
    patterns: np.ndarray  # (len(nodes), m) boundary values per pattern
    pec_regions: tuple
    active: list          # regions that keep their material

    @classmethod
    def of(cls, mesh, amplitude, mode, electrodes):
        if amplitude <= 0:
            raise ValueError("amplitude must be positive")
        if mode not in ("nonlinear", "pec-limit"):
            raise ValueError("mode must be 'nonlinear' or 'pec-limit'")
        if electrodes is None:
            electrodes = qmesh.electrode_nodes(mesh)
        if not electrodes:
            raise ValueError("mesh has no tagged electrodes")
        ids = tuple(sorted(electrodes))
        groups = [np.asarray(electrodes[i], dtype=np.int64) for i in ids]
        nodes = np.concatenate(groups)
        if len(np.unique(nodes)) != len(nodes):
            raise ValueError("electrode node sets overlap")
        pec_regions = (tuple(mesh.inclusion_regions())
                       if mode == "pec-limit" else ())
        m = len(ids)
        owner = np.repeat(np.arange(m), [len(gr) for gr in groups])
        patterns = np.full((len(nodes), m), -amplitude / m)
        patterns[np.arange(len(nodes)), owner] += amplitude
        active = [lab for lab in mesh.region_elements()
                  if lab not in pec_regions]
        return cls(ids, nodes, owner, patterns, pec_regions, active)

    def incidence(self, node_count):
        """Electrode-by-node matrix: row i sums the currents of electrode i."""
        return sparse.csr_matrix(
            (np.ones(len(self.nodes)), (self.owner, self.nodes)),
            shape=(len(self.ids), node_count),
        )

    def check_patterns(self, u, where=""):
        """Maximum-principle monitor on every pattern column of ``u``."""
        solver.check_max_principle(u, self.patterns, [
            f"{where}conductance pattern {i}" for i in self.ids])


def _conductance(g, amplitude, ids, mode, scenario):
    scale = max(float(np.max(np.abs(g))), 1e-300)
    asymmetry = float(np.max(np.abs(g - g.T))) / scale
    return ConductanceMatrix(
        matrix=0.5 * (g + g.T), amplitude=float(amplitude),
        electrode_ids=ids, mode=mode, scenario=scenario, asymmetry=asymmetry,
    )


def conductance_matrix(mesh, material_map, amplitude=1e-3, mode="pec-limit",
                       electrodes=None, config=None, scenario=""):
    """Measure the electrode conductance matrix of a tagged mesh.

    Pattern j drives electrode j at ``amplitude`` redistributed to zero
    mean over the electrodes (everyone else sits at -amplitude/m); gaps
    carry the natural no-flux condition. Entry (i, j) is the total
    reaction current through electrode i. With ``mode="pec-limit"`` the
    mesh's inclusions are replaced by floating perfect conductors;
    ``mode="nonlinear"`` keeps every material.

    When every remaining material is field-independent, this is
    ``ConductanceOperator(...).background()``: one factorization solves
    all patterns at once. Otherwise each pattern runs
    ``solver.solve_nonlinear`` with ``config``. Either way every pattern
    passes the maximum-principle monitor."""
    if electrodes is None:
        electrodes = qmesh.electrode_nodes(mesh)
    el = _Electrodes.of(mesh, amplitude, mode, electrodes)
    if all(material_map.for_region(lab).field_independent for lab in el.active):
        return ConductanceOperator(
            mesh, material_map, amplitude, mode, electrodes,
        ).background(scenario)

    asm = fem.Assembler(mesh, el.nodes, pec_regions=el.pec_regions)
    incidence = el.incidence(mesh.node_count)
    m = len(el.ids)
    g = np.zeros((m, m))
    for j in range(m):
        sol = solver.solve_nonlinear(
            mesh, material_map, (el.nodes, el.patterns[:, j]), config,
            pec_regions=el.pec_regions,
            context=f"conductance pattern {el.ids[j]}", assembler=asm,
        )
        e_mag = np.hypot(sol.element_gradient[:, 0],
                         sol.element_gradient[:, 1])
        sig = material_map.sigma_elements(mesh, e_mag, el.active)
        g[:, j] = incidence @ (
            asm.raw_matrix(sig) @ np.nan_to_num(sol.nodal_potential))
    return _conductance(g, amplitude, el.ids, mode, scenario)


class _InverseColumns:
    """Columns of K^-1 from one LU factorization, solved on first use and
    kept in a least-recently-used store of at most ``MAX_BYTES``.

    Neighbouring test domains share most of their dofs, so a dictionary
    walked in order solves each column about once while memory stays
    bounded on any mesh."""

    MAX_BYTES = 64 * 2**20

    def __init__(self, lu, n):
        self._lu, self._n = lu, n
        capacity = max(1, min(n, self.MAX_BYTES // (8 * max(n, 1))))
        self._store = np.empty((capacity, n))  # row r: column owner[r]
        self._owner = np.full(capacity, -1)
        self._slot = np.full(n, -1)
        self._used = np.zeros(capacity, dtype=np.int64)
        self._clock = 0

    def _solve(self, dofs):
        rhs = np.zeros((self._n, len(dofs)))
        rhs[dofs, np.arange(len(dofs))] = 1.0
        return self._lu.solve(rhs)

    def __call__(self, dofs):
        """K^-1[:, dofs] as an (n, len(dofs)) array."""
        if len(dofs) > len(self._owner):
            return self._solve(dofs)
        self._clock += 1
        held = self._slot[dofs]
        self._used[held[held >= 0]] = self._clock
        missing = dofs[held < 0]
        if len(missing):
            # the least recently used slots; this call's own are the newest
            free = np.argsort(self._used, kind="stable")[:len(missing)]
            gone = self._owner[free]
            self._slot[gone[gone >= 0]] = -1
            self._store[free] = self._solve(missing).T
            self._owner[free] = missing
            self._slot[missing] = free
            self._used[free] = self._clock
        return self._store[self._slot[dofs]].T


class ConductanceOperator:
    """Field-independent conductance matrices of one tagged mesh and of
    its changes on a few elements, from one factorization.

    Built once per (mesh, electrodes, mode, background material map); in
    pec-limit mode the mesh's inclusions are floating perfect conductors.
    All active materials of the map must be
    field-independent: one ``fem.Assembler``, one sparse LU of the
    background free block K, the background free-dof potentials x of
    every pattern, and the background currents. ``background()`` is the
    background matrix. ``matrix(mask, model)`` puts ``model`` on the
    masked elements, which changes K only on the free dofs N of those
    elements (petal masters included), by the block S, and the
    right-hand side by db where they touch an electrode. With
    Z = K^-1[:, N] from ``lu.solve`` (columns kept in a bounded cache,
    never the whole inverse), the Woodbury identity (Hager, SIAM Review
    31, 1989) gives the exact potentials

        x_T = x + Z c,    (I + S Z_NN) c = db_N - S x_N,

    the same as x_T = y - Z (I + S Z_NN)^-1 S y_N with y = x + Z db_N.
    The currents follow from the energy form G = U^T K U / amplitude:
    the background currents plus the energy c^T Z_NN c and the masked
    elements' own stiffness change. Every pattern of every matrix passes
    the maximum-principle monitor."""

    def __init__(self, mesh, material_map, amplitude=1e-3, mode="pec-limit",
                 electrodes=None):
        el = _Electrodes.of(mesh, amplitude, mode, electrodes)
        for lab in el.active:
            if not material_map.for_region(lab).field_independent:
                raise ValueError(f"region '{lab}' has a field-dependent "
                                 "material; no single factorization applies")
        self.mesh, self.amplitude, self.mode = mesh, float(amplitude), mode
        self._el = el
        asm = self._asm = fem.Assembler(mesh, el.nodes,
                                        pec_regions=el.pec_regions)
        self._sigma = material_map.sigma_elements(
            mesh, np.zeros(mesh.element_count), el.active)
        order = np.argsort(el.nodes)  # the Assembler's sorted bc_nodes
        self._bc = el.patterns[order]
        self._lu, k_fd = asm.factor(self._sigma)
        rhs = -k_fd @ self._bc
        self._x = rhs if self._lu is None else self._lu.solve(rhs)
        self._columns = _InverseColumns(self._lu, asm.n_free)
        self._u = asm.expand(self._x, self._bc)
        el.check_patterns(self._u)
        self._g = el.incidence(mesh.node_count) @ (
            asm.raw_matrix(self._sigma) @ np.nan_to_num(self._u))

    def background(self, scenario=""):
        """The conductance matrix of the background material map."""
        return _conductance(self._g, self.amplitude, self._el.ids, self.mode,
                            scenario)

    def matrix(self, mask, model, scenario=""):
        """The conductance matrix with the field-independent ``model`` on
        the elements of ``mask`` instead of their background material.
        ``scenario`` names the domain in the result, in monitor contexts
        and in errors."""
        name = scenario or "test domain"
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self.mesh.element_count,) or not mask.any():
            raise ValueError(f"{name}: mask must select elements of the mesh")
        if not model.field_independent:
            raise ValueError(f"{name}: test material depends on the field")
        sig_t = material_sigma(model, 0.0)
        if not (np.isfinite(sig_t) and sig_t > 0):
            raise ValueError(f"{name}: test conductivity must be positive "
                             f"and finite, got {sig_t}")
        elements = np.flatnonzero(mask)
        try:
            unit = self._asm.element_stiffness(elements)
        except ValueError:
            raise ValueError(f"{name}: mask reaches into a perfectly "
                             "conducting region") from None
        tri = self.mesh.elements[elements]
        delta = (sig_t - self._sigma[elements])[:, None, None] * unit

        # N: the free dofs of the masked elements; S and db: the changes
        # of K[N, N] and of the right-hand side on N, which fixed corners
        # (electrode nodes) push through the changed coupling
        dof = self._asm.node_dof[tri]
        dofs = np.unique(dof[dof >= 0])
        k = len(dofs)
        x, energy = self._x, 0.0
        if k:
            free = dof >= 0
            pos = np.searchsorted(dofs, dof)
            pair = free[:, :, None] & free[:, None, :]
            s = np.zeros((k, k))
            np.add.at(s, (np.broadcast_to(pos[:, :, None], pair.shape)[pair],
                          np.broadcast_to(pos[:, None, :], pair.shape)[pair]),
                      delta[pair])
            fixed = (dof == fem.FIXED)[:, None, :]
            push = -(delta * fixed) @ self._u[tri]
            db = np.zeros((k, push.shape[2]))
            np.add.at(db, pos[free], push[free])
            z = self._columns(dofs)
            z_nn = z[dofs]
            # Woodbury: x_T = x + Z c with (I + S Z_NN) c = db_N - S x_N
            c = np.linalg.solve(np.eye(k) + s @ z_nn, db - s @ x[dofs])
            x = x + z @ c
            energy = c.T @ z_nn @ c  # the background energy of Z c
        u = self._asm.expand(x, self._bc)
        self._el.check_patterns(u, f"{scenario} " if scenario else "")
        # G = U^T K U / amplitude over the pattern potentials U; the change
        # is the energy of Z c plus the masked elements' own change. Being
        # stationary in c, this keeps the currents of a strong conductor
        # accurate where reading K_T u at the electrodes would multiply
        # the error of u by the contrast
        corner = u[tri]
        m = corner.shape[2]
        energy = energy + (corner.reshape(-1, m).T
                           @ (delta @ corner).reshape(-1, m))
        return _conductance(self._g + energy / self.amplitude, self.amplitude,
                            self._el.ids, self.mode, scenario)


# ---------------------------------------------------------------------------
# small symmetric eigenproblems
# ---------------------------------------------------------------------------


def symmetric_eigenvalues(matrix):
    """All eigenvalues of a symmetric matrix, ascending.

    Checks that the matrix is square and symmetric to 1e-8 relative to
    its largest entry, then hands its symmetric part to LAPACK
    (``numpy.linalg.eigvalsh``)."""
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    scale = max(float(np.max(np.abs(a))), 1e-300)
    if float(np.max(np.abs(a - a.T))) > 1e-8 * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    return np.linalg.eigvalsh(0.5 * (a + a.T))


def spectral_norm(matrix):
    """2-norm of a symmetric matrix: the largest absolute eigenvalue."""
    eigs = symmetric_eigenvalues(matrix)
    return float(np.max(np.abs(eigs)))


def is_psd(matrix, tol=0.0):
    """(flag, min eigenvalue): positive semidefinite up to -tol."""
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    low = float(symmetric_eigenvalues(matrix)[0])
    return low >= -tol, low


# ---------------------------------------------------------------------------
# noise model
# ---------------------------------------------------------------------------


def goe_noise(size, eta, dg_max, seed):
    """Symmetric Gaussian noise matrix eta * dg_max * A.

    A follows the orthogonal-ensemble convention: diagonal entries
    Normal(0, sqrt(2)), independent upper-triangle entries Normal(0, 1),
    mirrored below. For a fixed seed the draw order is fixed (diagonal
    first, then the upper triangle row by row), so results are
    reproducible."""
    if size < 1:
        raise ValueError("size must be at least 1")
    if eta < 0:
        raise ValueError("eta must be nonnegative")
    rng = np.random.default_rng(seed)
    a = np.zeros((size, size))
    a[np.diag_indices(size)] = rng.normal(0.0, np.sqrt(2.0), size)
    iu = np.triu_indices(size, k=1)
    a[iu] = rng.normal(0.0, 1.0, len(iu[0]))
    a[(iu[1], iu[0])] = a[iu]
    return eta * dg_max * a


# ---------------------------------------------------------------------------
# defect scenarios and test-domain dictionaries
# ---------------------------------------------------------------------------


def disc_defect(mesh, center, radius):
    """Carve a disc-shaped defect, region ``defect-1``, into the matrix
    region.

    Returns (new mesh, element mask). Elements belong to the defect
    when their centroid falls inside the disc and they currently lie in
    the matrix region."""
    c = qmesh.element_centroids(mesh)
    mask = np.hypot(c[:, 0] - center[0], c[:, 1] - center[1]) <= radius
    mask &= mesh.element_region == "matrix"
    new = qmesh.relabel_elements(mesh, mask, "defect-1")
    return new, mask


def disc_test_domains(mesh, radii, spacing=None):
    """Regular dictionary of disc test domains covering the matrix.

    Disc centers sit on a square grid with the given spacing (the
    smallest radius by default); ``radii`` is one radius or a sequence.
    Discs are clipped to the matrix region; empty or duplicate masks
    are dropped."""
    radii = np.atleast_1d(np.asarray(radii, dtype=float))
    if np.any(radii <= 0):
        raise ValueError("radii must be positive")
    step = float(spacing) if spacing is not None else float(radii.min())
    if step <= 0:
        raise ValueError("spacing must be positive")
    c = qmesh.element_centroids(mesh)
    in_matrix = mesh.element_region == "matrix"
    lo = mesh.nodes.min(axis=0)
    hi = mesh.nodes.max(axis=0)
    xs = np.arange(lo[0] + step / 2, hi[0], step)
    ys = np.arange(lo[1] + step / 2, hi[1], step)
    out = []
    seen = set()
    k = 0
    for r in radii:
        for y in ys:
            for x in xs:
                mask = (np.hypot(c[:, 0] - x, c[:, 1] - y) <= r) & in_matrix
                if not mask.any():
                    continue
                key = mask.tobytes()
                if key in seen:
                    continue
                seen.add(key)
                out.append(TestDomain(
                    id=f"disc-{k}", element_mask=mask,
                    center=(float(x), float(y)), radius=float(r),
                ))
                k += 1
    if not out:
        raise ValueError("no test domain overlaps the matrix region")
    return out


# ---------------------------------------------------------------------------
# the monotonicity test
# ---------------------------------------------------------------------------


def _zero_mean_basis(m):
    # Helmert columns: orthonormal basis of the zero-sum subspace
    q = np.zeros((m, m - 1))
    for k in range(1, m):
        q[:k, k - 1] = 1.0
        q[k, k - 1] = -float(k)
        q[:, k - 1] /= np.sqrt(k * (k + 1.0))
    return q


def mpm_reconstruct(measured, tests, delta, tol=0.0):
    """Upper-bound defect reconstruction by the monotonicity test.

    ``tests`` pairs each TestDomain with its conductance matrix. A test
    defect contained in the true one can only raise the conductance, so
    domain k is accepted when G_k - G_measured + delta*I stays positive
    semidefinite (min eigenvalue >= -tol) on the zero-mean electrode
    subspace; ``delta`` bounds the 2-norm of the measurement noise."""
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    tests = list(tests)
    if not tests:
        raise ValueError("need at least one test domain")
    m = measured.size
    mask_len = len(tests[0][0].element_mask)
    basis = _zero_mean_basis(m)
    min_eigs = np.empty(len(tests))
    raw_min_eigs = np.empty(len(tests))
    accepted = []
    union = np.zeros(mask_len, dtype=bool)
    for k, (domain, g_test) in enumerate(tests):
        if g_test.size != m:
            raise ValueError(
                f"test matrix {k} has {g_test.size} electrodes, expected {m}"
            )
        if len(domain.element_mask) != mask_len:
            raise ValueError(f"test domain {k} lives on a different mesh")
        shifted = g_test.matrix - measured.matrix + delta * np.eye(m)
        raw_min_eigs[k] = symmetric_eigenvalues(shifted)[0]
        deflated = basis.T @ shifted @ basis
        ok, min_eigs[k] = is_psd(deflated, tol=tol)
        if ok:
            accepted.append(k)
            union |= domain.element_mask
    return Reconstruction(
        domains=tuple(dom for dom, _ in tests),
        min_eigenvalues=min_eigs,
        raw_min_eigenvalues=raw_min_eigs,
        accepted=tuple(accepted),
        union_mask=union,
        delta=float(delta),
        tol=float(tol),
    )
