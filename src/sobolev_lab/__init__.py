"""Numerical laboratory for the sharp Sobolev inequality.

Sharp constants and conformal optimizers on the round sphere, stability
quotients near the optimizer manifold, the bifurcation analysis on the
cylinder, and a finite-dimensional norm-duality testbed.

Importing the package loads every submodule. The API lives in the
submodules, each listed by its ``__all__``: import from
``sobolev_lab.zonal``, ``sobolev_lab.cylinder`` and so on.
"""

from . import conformal, cylinder, duality, errors, specialfn, stability, verify, zonal

__version__ = "0.1.0"
