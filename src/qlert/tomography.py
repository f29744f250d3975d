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
problem), the whole matrix comes from one assembly and one sparse LU
factorization with all patterns as right-hand-side columns; otherwise
each pattern runs the fixed-point solver. Eigenvalues come from LAPACK
(``numpy.linalg.eigvalsh``) after a symmetry check. PSD decisions are
taken on the zero-mean subspace (the all-ones pattern is not observable
with zero-mean excitations); the undeflated spectrum is kept as a
diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from . import fem
from . import mesh as qmesh
from . import solver
# bench/spans.py checks and wraps this binding; nothing here calls it
from .materials import sigma as material_sigma  # noqa: F401

__all__ = [
    "ConductanceMatrix",
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


def conductance_matrix(mesh, material_map, amplitude=1e-3, mode="pec-limit",
                       electrodes=None, pec_regions=None, config=None,
                       scenario=""):
    """Measure the electrode conductance matrix of a tagged mesh.

    Pattern j drives electrode j at ``amplitude`` redistributed to zero
    mean over the electrodes (everyone else sits at -amplitude/m); gaps
    carry the natural no-flux condition. Entry (i, j) is the total
    reaction current through electrode i. With ``mode="pec-limit"`` the
    regions in ``pec_regions`` (the mesh's inclusions by default) are
    replaced by floating perfect conductors; ``mode="nonlinear"`` keeps
    every material.

    When every remaining material is field-independent, all patterns are
    solved at once by ``fem.Assembler.solve_direct``; otherwise each
    pattern runs ``solver.solve_nonlinear`` with ``config``. Either way
    every pattern passes the maximum-principle monitor."""
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
    all_nodes = np.concatenate(groups)
    if len(np.unique(all_nodes)) != len(all_nodes):
        raise ValueError("electrode node sets overlap")
    if mode == "pec-limit":
        if pec_regions is None:
            pec_regions = mesh.inclusion_regions()
        pec_regions = tuple(pec_regions)
    else:
        pec_regions = ()

    active = sorted(set(np.unique(mesh.element_region)) - set(pec_regions))
    asm = fem.Assembler(mesh, all_nodes, pec_regions=pec_regions)
    m = len(ids)
    sizes = [len(gr) for gr in groups]
    owner = np.repeat(np.arange(m), sizes)  # electrode position per node
    patterns = np.full((len(all_nodes), m), -amplitude / m)
    patterns[np.arange(len(all_nodes)), owner] += amplitude
    # electrode-by-node incidence: row i sums the currents of electrode i
    incidence = sparse.csr_matrix(
        (np.ones(len(all_nodes)), (owner, all_nodes)),
        shape=(m, mesh.node_count),
    )
    if all(material_map.for_region(lab).field_independent for lab in active):
        sig = material_map.sigma_elements(
            mesh, np.zeros(mesh.element_count), active)
        order = np.argsort(all_nodes)  # the Assembler's sorted bc_nodes
        u = asm.solve_direct(sig, patterns[order])
        for j in range(m):
            solver.check_max_principle(u[:, j], patterns[:, j],
                                       f"conductance pattern {ids[j]}")
        g = incidence @ (asm.raw_matrix(sig) @ np.nan_to_num(u))
    else:
        g = np.zeros((m, m))
        for j in range(m):
            sol = solver.solve_nonlinear(
                mesh, material_map, (all_nodes, patterns[:, j]), config,
                pec_regions=pec_regions,
                context=f"conductance pattern {ids[j]}",
            )
            e_mag = np.hypot(sol.element_gradient[:, 0],
                             sol.element_gradient[:, 1])
            sig = material_map.sigma_elements(mesh, e_mag, active)
            g[:, j] = incidence @ (
                asm.raw_matrix(sig) @ np.nan_to_num(sol.nodal_potential))

    scale = max(float(np.max(np.abs(g))), 1e-300)
    asymmetry = float(np.max(np.abs(g - g.T))) / scale
    return ConductanceMatrix(
        matrix=0.5 * (g + g.T), amplitude=float(amplitude),
        electrode_ids=ids, mode=mode, scenario=scenario, asymmetry=asymmetry,
    )


# ---------------------------------------------------------------------------
# small symmetric eigenproblems
# ---------------------------------------------------------------------------


def symmetric_eigenvalues(matrix, sym_tol=1e-8):
    """All eigenvalues of a symmetric matrix, ascending.

    Checks that the matrix is square and symmetric to ``sym_tol``
    relative to its largest entry, then hands its symmetric part to
    LAPACK (``numpy.linalg.eigvalsh``)."""
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    scale = max(float(np.max(np.abs(a))), 1e-300)
    if float(np.max(np.abs(a - a.T))) > sym_tol * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    return np.linalg.eigvalsh(0.5 * (a + a.T))


def spectral_norm(matrix, sym_tol=1e-8):
    """2-norm of a symmetric matrix: the largest absolute eigenvalue."""
    eigs = symmetric_eigenvalues(matrix, sym_tol=sym_tol)
    return float(np.max(np.abs(eigs)))


def is_psd(matrix, tol=0.0, sym_tol=1e-8):
    """(flag, min eigenvalue): positive semidefinite up to -tol."""
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    low = float(symmetric_eigenvalues(matrix, sym_tol=sym_tol)[0])
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


def disc_defect(mesh, center, radius, label="defect-1"):
    """Carve a disc-shaped defect into the matrix region.

    Returns (new mesh, element mask). Elements belong to the defect
    when their centroid falls inside the disc and they currently lie in
    the matrix region."""
    c = qmesh.element_centroids(mesh)
    mask = np.hypot(c[:, 0] - center[0], c[:, 1] - center[1]) <= radius
    mask &= mesh.element_region == "matrix"
    new = qmesh.relabel_elements(mesh, mask, label)
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
