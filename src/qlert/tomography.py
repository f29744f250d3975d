"""Electrode conductance matrices and monotonicity-based defect imaging.

The boundary data of the imaging problem is the voltage-to-current map
restricted to a finite electrode basis: column j of the conductance
matrix holds the electrode currents measured while driving electrode j
with a zero-mean voltage pattern. Conductivity drops (defects) lower
the matrix in the semidefinite order, so a test defect T contained in
the true defect V must satisfy G_T - G_V >= 0; testing that inequality
against noisy data, shifted by the noise bound, yields an upper-bound
reconstruction as the union of accepted test domains.

One ``ConductanceOperator`` serves the background, the defect and the
dictionary. When no active material depends on the field (every
pec-limit imaging problem), it holds one assembly and one sparse LU
factorization, solves all patterns as right-hand-side columns for the
background matrix, and gives the matrix of the defect and of every test
domain as an exact low-rank (Woodbury) update of that factorization,
a whole dictionary in one pass with one model check, the inverse
columns of many domains solved together and same-shaped domains updated
in stacked calls; otherwise it runs the fixed-point solver on each
pattern of each matrix. Eigenvalues come from LAPACK
(``numpy.linalg.eigvalsh``) after a per-matrix symmetry check, one
stacked call for all test matrices. PSD decisions are taken on the
zero-mean subspace (the all-ones pattern is not observable with
zero-mean excitations); the undeflated spectrum is kept as a
diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from . import fem
from . import mesh as qmesh
from . import solver
from .materials import MaterialMap
from .materials import sigma as material_sigma

__all__ = [
    "ConductanceMatrix",
    "ConductanceOperator",
    "TestDomain",
    "Reconstruction",
    "conductance_matrix",
    "symmetric_eigenvalues",
    "spectral_norm",
    "goe_noise",
    "disc_mask",
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
    electrode_ids: tuple
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


def conductance_matrix(mesh, material_map, amplitude=1e-3):
    """Measure the electrode conductance matrix of a tagged mesh, its
    inclusions replaced by floating perfect conductors.

    Pattern j drives electrode j at ``amplitude`` redistributed to zero
    mean over the electrodes (everyone else sits at -amplitude/m); gaps
    carry the natural no-flux condition. Entry (i, j) is the total
    reaction current through electrode i.

    This is ``ConductanceOperator(mesh, material_map,
    amplitude).background()``: one factorization solves all patterns at
    once when every remaining material is field-independent, and each
    pattern runs ``solver.solve_nonlinear`` otherwise. Either way every
    pattern passes the maximum-principle monitor."""
    return ConductanceOperator(mesh, material_map, amplitude).background()


class _PaddedLU:
    """An LU factorization whose ``solve`` pads the right-hand sides with
    zero columns to a multiple of ``BLOCK``. SuperLU rounds a column of a
    multi-column solve differently with the number of columns in the call
    (its BLAS kernels treat a trailing partial block of columns apart);
    padded to whole blocks, a column of K^-1 has the same bits whichever
    columns share its call, so those solved for several test domains
    together equal those solved for one domain alone."""

    BLOCK = 16

    def __init__(self, lu):
        self._lu = lu

    def solve(self, rhs):
        padded = np.zeros((rhs.shape[0], -(-rhs.shape[1] // self.BLOCK) * self.BLOCK))
        padded[:, :rhs.shape[1]] = rhs
        return self._lu.solve(padded)[:, :rhs.shape[1]]


class _InverseColumns:
    """Columns of K^-1 from one LU factorization, solved on first use and
    kept in a least-recently-used store of at most ``MAX_BYTES``.

    Neighbouring test domains share most of their dofs, so a dictionary
    walked in order solves each column about once while memory stays
    bounded on any mesh; ``prefetch`` solves the columns of several
    upcoming domains in one call and ``fetch`` reads them."""

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

    def _hold(self, dofs):
        """Store the columns of ``dofs`` (no more than the store holds),
        solving the missing ones in one call."""
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

    def prefetch(self, upcoming):
        """Store the columns of the leading dof sets of ``upcoming`` that
        fit in the store together, solving the missing ones in one call,
        and mark them used as fetching those sets one after another
        would; returns how many sets that covers (at least one, whose
        columns are not stored if it alone does not fit)."""
        wanted = np.zeros(self._n, dtype=bool)
        total = count = 0
        for dofs in upcoming:
            new = dofs[~wanted[dofs]]
            if total + len(new) > len(self._owner):
                break
            wanted[new] = True
            total += len(new)
            count += 1
        if count:
            self._hold(np.flatnonzero(wanted))
            # each column was last used by the last of the sets holding it
            sets = upcoming[:count]
            np.maximum.at(self._used, self._slot[np.concatenate(sets)],
                          np.repeat(self._clock + np.arange(1, count + 1),
                                    [len(dofs) for dofs in sets]))
            self._clock += count
        return max(count, 1)

    def fetch(self, dofs):
        """K^-1[:, dofs] for each row of the (B, k) array ``dofs``, as a
        (B, n, k) stack; the rows are sets the last ``prefetch`` covered,
        or the one set it could not store, which is solved directly."""
        if dofs.shape[1] > len(self._owner):
            return self._solve(dofs[0])[None]
        return self._store[self._slot[dofs]].swapaxes(1, 2)


class ConductanceOperator:
    """Conductance matrices of one tagged mesh and of its changes on a
    few elements.

    Built once per (mesh, mode, background material map), on the
    electrodes the mesh's tags define (``mesh.electrode_nodes``), with
    one ``fem.Assembler`` whose conductor split merges the mesh's
    inclusions in pec-limit mode and keeps every material in
    ``mode="nonlinear"``. ``background()`` is the background matrix, and
    ``matrices(masks, model, scenarios)`` one matrix per mask with
    ``model`` on the masked elements (``matrix`` is its one-mask case).
    When a kept material depends on the field, each matrix runs
    ``solver.solve_nonlinear`` with ``config`` once per pattern, the
    background's on that Assembler and a mask's on one with its split on
    the mesh with the masked elements relabelled ``test-domain``.
    Otherwise it holds the Assembler, one
    sparse LU of the background free block K, the background free-dof
    potentials x of every pattern, and the background currents. A mask
    changes K only on the free dofs N of its elements (petal masters
    included), by the block S, and the right-hand side by db where they
    touch an electrode. With Z = K^-1[:, N] from ``lu.solve`` (columns
    kept in a bounded cache and solved together for as many upcoming
    masks as it holds, never the whole inverse), the Woodbury identity
    (Hager, SIAM Review 31, 1989) gives the exact potentials

        x_T = x + Z c,    (I + S Z_NN) c = db_N - S x_N,

    the same as x_T = y - Z (I + S Z_NN)^-1 S y_N with y = x + Z db_N.
    The currents follow from the energy form G = U^T K U / amplitude:
    the background currents plus the energy c^T Z_NN c and the masked
    elements' own stiffness change. Masks of the same shape (as many
    free dofs and elements) among those whose columns are held together
    are updated in stacked calls, one per step, as many at a time as
    their Z and potential stacks fit in the cache's byte budget; the
    stacked LAPACK and BLAS calls work item by item, so each matrix is
    bit for bit what the mask alone gives. Every pattern of every matrix
    passes the maximum-principle monitor."""

    def __init__(self, mesh, material_map, amplitude=1e-3, mode="pec-limit",
                 config=None):
        if amplitude <= 0:
            raise ValueError("amplitude must be positive")
        if mode not in ("nonlinear", "pec-limit"):
            raise ValueError("mode must be 'nonlinear' or 'pec-limit'")
        electrodes = qmesh.electrode_nodes(mesh)
        if not electrodes:
            raise ValueError("mesh has no tagged electrodes")
        self.mesh, self.amplitude = mesh, float(amplitude)
        self._map, self._config = material_map, config
        # the electrode layout, nodes in ascending order (the Assembler's
        # bc_nodes); pattern j drives electrode self._ids[j]
        self._ids = ids = tuple(sorted(electrodes))
        m = len(ids)
        groups = [np.asarray(electrodes[i], dtype=np.int64) for i in ids]
        nodes = np.concatenate(groups)
        self._nodes, order = np.unique(nodes, return_index=True)
        if len(self._nodes) != len(nodes):
            raise ValueError("electrode node sets overlap")
        owner = np.repeat(np.arange(m), [len(gr) for gr in groups])[order]
        self._patterns = np.full((len(nodes), m), -amplitude / m)
        self._patterns[np.arange(len(nodes)), owner] += amplitude
        # row i sums the currents of electrode self._ids[i]
        self._incidence = sparse.csr_matrix(
            (np.ones(len(nodes)), (owner, self._nodes)),
            shape=(m, mesh.node_count))
        asm = self._asm = fem.Assembler(
            mesh, self._nodes,
            pec_regions=mesh.inclusion_regions() if mode == "pec-limit" else ())
        self._in_pec = np.isin(mesh.element_region, asm.pec_regions)

        self._factored = all(material_map.for_region(lab).field_independent
                             for lab in asm.kept_regions)
        if not self._factored:
            self._g = self._fixed_point(asm, material_map, "")
            return
        self._sigma = material_map.sigma_elements(
            mesh, np.zeros(mesh.element_count), asm.kept_regions)
        lu, k_fd = asm.factor(self._sigma)
        rhs = -k_fd @ self._patterns
        # the patterns take the one solve a direct matrix takes; only the
        # K^-1 columns, shared between test domains, go through padding
        self._x = rhs if lu is None else lu.solve(rhs)
        self._lu = None if lu is None else _PaddedLU(lu)
        self._columns = _InverseColumns(self._lu, asm.n_free)
        self._u = asm.expand(self._x, self._patterns)
        # row of each node's potential in np.concatenate([x, patterns]),
        # which holds every value of the nodal potentials
        self._row = asm.node_dof.copy()
        self._row[asm.bc_nodes] = asm.n_free + np.arange(len(asm.bc_nodes))
        solver.check_max_principle(self._u, self._patterns,
                                   self._contexts(""))
        self._g = self._currents(asm, self._sigma, self._u)

    def _contexts(self, where):
        """Monitor context of each pattern, prefixed by ``where``."""
        return [f"{where}conductance pattern {i}" for i in self._ids]

    def _currents(self, asm, sigma, u):
        """Electrode currents, (m,) or (m, k), of the nodal potentials
        ``u`` under the per-element conductivity ``sigma`` on ``asm``."""
        return self._incidence @ (asm.raw_matrix(sigma) @ np.nan_to_num(u))

    def _fixed_point(self, asm, material_map, where):
        """Currents of every pattern on ``asm``'s mesh and conductor split,
        one fixed-point solve each; ``where`` prefixes the monitor
        contexts."""
        mesh = asm.mesh
        g = np.zeros((len(self._ids), len(self._ids)))
        for j, context in enumerate(self._contexts(where)):
            sol = solver.solve_nonlinear(
                mesh, material_map, (self._nodes, self._patterns[:, j]),
                self._config, context=context, assembler=asm,
            )
            e_mag = np.hypot(*sol.element_gradient.T)
            sig = material_map.sigma_elements(mesh, e_mag, asm.kept_regions)
            g[:, j] = self._currents(asm, sig, sol.nodal_potential)
        return g

    def background(self):
        """The conductance matrix of the background material map."""
        return self._results(self._g[None])[0]

    def matrix(self, mask, model, scenario=""):
        """``matrices`` for the one mask ``mask``, named ``scenario``."""
        return self.matrices([mask], model, [scenario])[0]

    def matrices(self, masks, model, scenarios):
        """The conductance matrix of each mask of ``masks`` with the
        field-independent ``model`` on its elements instead of their
        background material; no mask may reach into a perfect conductor.
        ``scenarios`` holds one name per mask, used in its monitor
        contexts and its errors."""
        masks = [np.asarray(mask, dtype=bool) for mask in masks]
        scenarios = list(scenarios)
        if len(scenarios) != len(masks):
            raise ValueError("need one scenario per mask")
        for mask, scenario in zip(masks, scenarios):
            name = scenario or "test domain"
            if mask.shape != (self.mesh.element_count,) or not mask.any():
                raise ValueError(
                    f"{name}: mask must select elements of the mesh")
            if self._in_pec[mask].any():
                raise ValueError(f"{name}: mask reaches into a perfectly "
                                 "conducting region")
        if not masks:
            return []
        name = scenarios[0] or "test domain"
        if len(masks) > 1:
            name += f" and {len(masks) - 1} more"
        if not model.field_independent:
            raise ValueError(f"{name}: test material depends on the field")
        sig_t = material_sigma(model, 0.0)
        if not (np.isfinite(sig_t) and sig_t > 0):
            raise ValueError(f"{name}: test conductivity must be positive "
                             f"and finite, got {sig_t}")
        wheres = [f"{scenario} " if scenario else "" for scenario in scenarios]
        if not self._factored:
            test_map = MaterialMap({**self._map.models, "test-domain": model})
            return self._results(np.stack([self._fixed_point(
                fem.Assembler(
                    qmesh.relabel_elements(self.mesh, mask, "test-domain"),
                    self._nodes, pec_regions=self._asm.pec_regions),
                test_map, where)
                for mask, where in zip(masks, wheres)]))

        # each mask's elements, and N: the free dofs they touch, ascending,
        # from one np.unique over (mask, dof) keys
        element = [np.flatnonzero(mask) for mask in masks]
        width = np.array([len(each) for each in element])  # elements per mask
        element = np.concatenate(element)
        n, span = self._asm.n_free, max(self._asm.n_free, 1)
        dof = self._asm.node_dof[self.mesh.elements[element]]
        owner = np.repeat(np.arange(len(masks)) * span, width)
        keys = np.unique((owner[:, None] + dof)[dof >= 0])
        del owner, dof  # freed before the first lu.solve, a large peak
        k_all = np.bincount(keys // span, minlength=len(masks))
        e_start = np.concatenate([[0], np.cumsum(width)])
        k_start = np.concatenate([[0], np.cumsum(k_all)])
        dofs = keys % span
        dof_sets = np.split(dofs, k_start[1:-1])

        m = len(self._ids)
        rows = n + len(self._patterns)  # free dofs and electrode nodes
        shape = k_all * (width.max() + 1) + width
        g = np.empty((len(masks), m, m))
        lows, highs = np.empty((len(masks), m)), np.empty((len(masks), m))
        start = 0
        while start < len(masks):
            stop = start + self._columns.prefetch(dof_sets[start:])
            # the masks of one shape among those whose columns are held
            window = start + np.argsort(shape[start:stop], kind="stable")
            for group in np.split(window,
                                  np.flatnonzero(np.diff(shape[window])) + 1):
                k, count = k_all[group[0]], width[group[0]]
                size = max(1, self._columns.MAX_BYTES
                           // (8 * (n * k + rows * m)))
                for batch in np.split(group, range(size, len(group), size)):
                    g[batch], lows[batch], highs[batch] = self._update(
                        element[e_start[batch, None] + np.arange(count)],
                        dofs[k_start[batch, None] + np.arange(k)], sig_t)
            start = stop
        # the monitor reads only each column's finite extremes, so one
        # check over theirs covers every pattern of every mask
        bounds = np.stack([self._patterns.min(axis=0),
                           self._patterns.max(axis=0)])
        solver.check_max_principle(
            np.stack([lows.ravel(), highs.ravel()]),
            np.tile(bounds, len(masks)),
            [c for where in wheres for c in self._contexts(where)])
        return self._results(g)

    def _results(self, g):
        """The symmetrized matrix of each of the (B, m, m) currents ``g``,
        keeping its reciprocity violation as ``asymmetry``."""
        g_t = np.swapaxes(g, 1, 2)
        scale = np.maximum(np.max(np.abs(g), axis=(1, 2)), 1e-300)
        asymmetry = np.max(np.abs(g - g_t), axis=(1, 2)) / scale
        return [ConductanceMatrix(matrix, self._ids, value)
                for matrix, value in zip(0.5 * (g + g_t), asymmetry.tolist())]

    def _update(self, elements, dofs, sig_t):
        """Currents with conductivity ``sig_t`` on each row of the (B, E)
        ``elements``, whose free dofs are the row of the (B, k) ``dofs``,
        and the extremes of the finite values of every pattern's
        potentials, (B, m) each.

        Each step is one call over the stack: the stacked LAPACK and BLAS
        calls work item by item, and bincount adds each bin in the order
        np.add.at does, so each result is bit for bit the mask's alone."""
        batch, count = elements.shape
        k = dofs.shape[1]
        tri = self.mesh.elements[elements]
        delta = ((sig_t - self._sigma[elements])[..., None, None]
                 * self._asm.element_stiffness(elements.ravel()).reshape(
                     batch, count, 3, 3))
        x, n = self._x, self._asm.n_free
        m = x.shape[1]
        # the free-dof and boundary values are every value of the nodal
        # potentials, so they stand in for them in the monitor
        values = np.empty((batch, n + len(self._patterns), m))
        values[:, n:] = self._patterns
        energy = 0.0
        if k:
            # S and db: the changes of K[N, N] and of the right-hand side
            # on N, which fixed corners (electrode nodes) push through the
            # changed coupling. Offset by n per item, the rows of dofs are
            # one ascending array, and ``at`` is each free corner's row of
            # the stack, so item b's bins follow those of item b - 1
            dof = self._asm.node_dof[tri]
            free = dof >= 0
            item = np.arange(batch)[:, None, None]
            at = np.searchsorted((dofs + item[:, 0] * n).ravel(),
                                 dof + item * n)
            pos = at - item * k  # the row in its own item
            pair = free[..., :, None] & free[..., None, :]
            cell = at[..., :, None] * k + pos[..., None, :]
            s = np.bincount(cell[pair], weights=delta[pair],
                            minlength=batch * k * k).reshape(batch, k, k)
            fixed = (dof == fem.FIXED)[..., None, :]
            push = -(delta * fixed) @ self._u[tri]
            db = np.bincount(
                (at[free][:, None] * m + np.arange(m)).ravel(),
                weights=push[free].ravel(),
                minlength=batch * k * m).reshape(batch, k, m)
            z = self._columns.fetch(dofs)
            z_nn = np.take_along_axis(z, dofs[:, :, None], axis=1)
            # Woodbury: x_T = x + Z c with (I + S Z_NN) c = db_N - S x_N
            c = np.linalg.solve(np.eye(k) + s @ z_nn, db - s @ x[dofs])
            np.matmul(z, c, out=values[:, :n])
            values[:, :n] += x
            # the background energy of Z c
            energy = np.swapaxes(c, 1, 2) @ z_nn @ c
        else:
            values[:, :n] = x
        # G = U^T K U / amplitude over the pattern potentials U; the change
        # is the energy of Z c plus the masked elements' own change. Being
        # stationary in c, this keeps the currents of a strong conductor
        # accurate where reading K_T u at the electrodes would multiply
        # the error of u by the contrast
        corner = values[np.arange(batch)[:, None, None], self._row[tri]]
        energy = energy + (
            np.swapaxes(corner.reshape(batch, -1, m), 1, 2)
            @ (delta @ corner).reshape(batch, -1, m))
        finite = np.isfinite(values)
        if finite.all():
            low, high = values.min(axis=1), values.max(axis=1)
        else:
            low = np.where(finite, values, np.inf).min(axis=1)
            high = np.where(finite, values, -np.inf).max(axis=1)
        return self._g + energy / self.amplitude, low, high


# ---------------------------------------------------------------------------
# small symmetric eigenproblems
# ---------------------------------------------------------------------------


def symmetric_eigenvalues(matrix):
    """All eigenvalues of a symmetric matrix, ascending, or of each
    matrix of an (..., m, m) stack.

    Checks that every matrix is square and symmetric to 1e-8 relative to
    its own largest entry, then hands the symmetric parts to LAPACK
    (``numpy.linalg.eigvalsh``)."""
    a = np.asarray(matrix, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError("matrix must be square")
    a_t = np.swapaxes(a, -1, -2)
    scale = np.maximum(np.max(np.abs(a), axis=(-2, -1)), 1e-300)
    bad = np.max(np.abs(a - a_t), axis=(-2, -1)) > 1e-8 * scale
    if np.any(bad):
        where = (f" at stack index {np.argwhere(bad)[0].tolist()}"
                 if a.ndim > 2 else "")
        raise ValueError(f"matrix{where} is not symmetric within tolerance")
    return np.linalg.eigvalsh(0.5 * (a + a_t))


def spectral_norm(matrix):
    """2-norm of a symmetric matrix: the largest absolute eigenvalue."""
    eigs = symmetric_eigenvalues(matrix)
    return float(np.max(np.abs(eigs)))


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


def disc_mask(mesh, center, radius):
    """Element mask of a disc: the matrix elements whose centroid falls
    inside it. May select nothing."""
    c = qmesh.element_centroids(mesh)
    d = np.hypot(c[:, 0] - center[0], c[:, 1] - center[1])
    return (d <= radius) & (mesh.element_region == "matrix")


def disc_defect(mesh, center, radius):
    """Carve a disc-shaped defect, region ``defect-1``, into the matrix
    region.

    Returns (new mesh, ``disc_mask`` element mask)."""
    mask = disc_mask(mesh, center, radius)
    return qmesh.relabel_elements(mesh, mask, "defect-1"), mask


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
    # per column: a reduction over axis 0 of (n, 2) is many times slower
    px, py = mesh.nodes.T
    xs = np.arange(px.min() + step / 2, px.max(), step)
    ys = np.arange(py.min() + step / 2, py.max(), step)
    if not (len(xs) and len(ys)):
        raise ValueError(f"spacing {step:g} leaves no disc center inside "
                         "the mesh")
    # each radius's disc masks, rows y-major, from the distances of every
    # centroid to the grid points of a block of grid rows, 8 MiB at a time
    rows = max(1, 2**20 // (len(xs) * len(c)))
    within = np.empty((len(radii), len(ys), len(xs), len(c)), dtype=bool)
    for start in range(0, len(ys), rows):
        dist = np.hypot(c[:, 0] - xs[None, :, None],
                        c[:, 1] - ys[start:start + rows, None, None])
        for r, block in zip(radii.tolist(), within[:, start:start + rows]):
            np.less_equal(dist, r, out=block)
            block &= in_matrix
    centers = [(x, y) for y in ys.tolist() for x in xs.tolist()]
    out = []
    seen = set()  # each kept mask packed 8 elements to a byte
    for r, masks in zip(radii.tolist(), within.reshape(len(radii), -1, len(c))):
        packed = np.packbits(masks, axis=1)
        for i in np.flatnonzero(masks.any(axis=1)).tolist():
            key = packed[i].tobytes()
            if key in seen:
                continue
            seen.add(key)
            out.append(TestDomain(id=f"disc-{len(out)}", element_mask=masks[i],
                                  center=centers[i], radius=r))
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
    for k, (domain, g_test) in enumerate(tests):
        if g_test.size != m:
            raise ValueError(
                f"test matrix {k} has {g_test.size} electrodes, expected {m}"
            )
        if len(domain.element_mask) != mask_len:
            raise ValueError(f"test domain {k} lives on a different mesh")
    basis = _zero_mean_basis(m)
    shifted = (np.stack([g_test.matrix for _, g_test in tests])
               - measured.matrix + delta * np.eye(m))
    raw_min_eigs = symmetric_eigenvalues(shifted)[:, 0]
    min_eigs = symmetric_eigenvalues(basis.T @ shifted @ basis)[:, 0]
    accepted = np.flatnonzero(min_eigs >= -tol)
    union = np.zeros(mask_len, dtype=bool)
    for k in accepted:
        union |= tests[k][0].element_mask
    return Reconstruction(
        domains=tuple(dom for dom, _ in tests),
        min_eigenvalues=min_eigs,
        raw_min_eigenvalues=raw_min_eigs,
        accepted=tuple(int(k) for k in accepted),
        union_mask=union,
    )
