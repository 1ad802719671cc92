"""Numerical toolkit for the bosonic signature operator of lattice
Klein-Gordon fields: spectral grids, exact propagation, Green's operators,
symplectic pairings, mass families with the spacetime scalar product, the
signature operator and its massless limit, the projector state, and a
closed-form Minkowski mode engine used as an independent oracle.

Each name is imported from its own submodule (`kgsig.lattice`,
`kgsig.dynamics`, ...); importing the package itself loads none of them.
"""

__version__ = "1.0.0"
