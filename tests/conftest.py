"""Shared test setup.

Importing disq loads numpy with OpenBLAS on one thread, but only when numpy
is not loaded yet.  Importing it here, before pytest imports any test module,
runs every test on one OpenBLAS thread whichever modules are selected and in
whatever order; ``OPENBLAS_NUM_THREADS`` stays the way to choose another
count, as CI's reruns of ``-m blas`` do.
"""

import disq  # noqa: F401
