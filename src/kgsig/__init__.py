"""Numerical toolkit for the bosonic signature operator of lattice
Klein-Gordon fields: spectral grids, exact propagation, Green's operators,
symplectic pairings, mass families with the spacetime scalar product, the
signature operator and its massless limit, the projector state, and a
closed-form Minkowski mode engine used as an independent oracle.

Submodule attributes are re-exported lazily, so that importing the package
loads no submodule, numpy included, until a name is used.
"""

from __future__ import annotations

__version__ = "1.0.0"

_EXPORTS = {
    "SpatialGrid": "lattice",
    "SpectralBasis": "lattice",
    "build_grid": "lattice",
    "laplacian": "lattice",
    "spectral_decompose": "lattice",
    "dirichlet_basis": "lattice",
    "omega": "lattice",
    "CauchyDatum": "dynamics",
    "SpacetimeField": "dynamics",
    "SpacetimeTestFunction": "dynamics",
    "propagate": "dynamics",
    "time_window": "dynamics",
    "simpson_weights": "dynamics",
    "retarded_green": "dynamics",
    "advanced_green": "dynamics",
    "causal_fundamental": "dynamics",
    "causal_field": "dynamics",
    "kg_residual": "dynamics",
    "symplectic": "symplectic",
    "gm_form": "symplectic",
    "MassInterval": "massfamily",
    "MassWeight": "massfamily",
    "MassFamily": "massfamily",
    "ConvergenceError": "massfamily",
    "interval_weight": "massfamily",
    "make_family": "massfamily",
    "apply_T": "massfamily",
    "integrate_p": "massfamily",
    "spacetime_gram": "massfamily",
    "mass_decomposition_gram": "massfamily",
    "SignatureOperator": "signature",
    "signature_analytic": "signature",
    "apply_signature": "signature",
    "scalar_product": "signature",
    "signature_spectrum": "signature",
    "complex_structure": "signature",
    "projectors": "signature",
    "massless_limit": "signature",
    "riesz_inverse": "signature",
    "riesz_consistency": "signature",
    "signature_reconstruct": "signature",
    "TwoPointEvaluator": "state",
    "build_state": "state",
    "two_point": "state",
    "two_point_matrix": "state",
    "wick_terms": "state",
    "wick_n_point": "state",
    "state_positivity_suite": "state",
    "ModeSuperposition": "minkowski",
    "mink_symplectic": "minkowski",
    "mink_scalar_product": "minkowski",
    "mink_signature_action": "minkowski",
    "mink_cauchy_transform": "minkowski",
    "mink_cauchy_inverse": "minkowski",
    "cross_check_lattice": "minkowski",
    "ExperimentConfig": "config",
    "load_config": "config",
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name: str):
    if name in _EXPORTS:
        from importlib import import_module

        module = import_module(f".{_EXPORTS[name]}", __name__)
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
