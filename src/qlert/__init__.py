"""qlert: quasilinear electrical resistance tomography toolkit.

2D finite-element forward solver for steady currents in materials whose
conductivity depends on the local field magnitude, the small-data limiting
solves that replace such materials with perfect conductors or insulators,
and a monotonicity-based imaging method for defects in conducting cross
sections. Ships a structured mesh generator, closed-form reference fields
for validation, and a configuration-driven command line frontend.

Submodules
----------
mesh
    Structured disk/annulus/cable meshes and electrodes.
materials
    Conductivity laws, energy densities, growth-assumption checks.
fem
    Piecewise-linear assembly, conjugate gradients, energy evaluation.
solver
    Fixed-point nonlinear solves, limiting solves, amplitude sweeps.
oracle
    Closed-form reference fields and the bounded-oscillation
    counterexample material.
tomography
    Electrode conductance matrices and monotonicity reconstruction.
render
    Deterministic SVG heatmaps, masks and log-log line plots.
cli
    ``qlert`` command line entry point.
_cells
    (private) Exact decimal text of numpy arrays for the CSV and SVG
    artifacts.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
