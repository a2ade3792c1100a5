"""The kernel bindings and one end-to-end number through them.

The library calls each kernel through its module-level binding; the bench
harness wraps those bindings and times the ``*_numpy`` functions, so the two
must be the same objects.
"""

import numpy as np

from sobolev_lab import _kernels
from sobolev_lab.conformal import q_zeta
from sobolev_lab.zonal import SphereParams, sharp_constant, sobolev_quotient


def test_bindings_are_the_numpy_kernels():
    assert _kernels.gegenbauer_table is _kernels.gegenbauer_table_numpy
    assert _kernels.zeta_moment is _kernels.zeta_moment_numpy
    assert _kernels.lq_ascent is _kernels.lq_ascent_numpy


def test_numpy_backend_full_pipeline_spot_check():
    p = SphereParams(3, 1.0)
    fn = q_zeta(np.array([0.0, 0.0, 0.0, 0.6]), p)
    assert abs(sobolev_quotient(fn) / sharp_constant(p) - 1.0) < 1e-9
