"""specres: spectral singularities and subspace decompositions for H = H0 + CWC."""

__version__ = "0.1.0"

from . import birman_schwinger, calculus, families, model, numerics, subspaces  # noqa: E402,F401
