"""Residual-based fault detection and segmentation for condition-monitoring data."""

import os

# Each of these sizes a BLAS thread pool when numpy is first imported, which
# the modules of this package do after this line. One thread per process:
# the worker pool runs one process per CPU, and a second BLAS thread only
# contends with them. A value the user set is kept.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

__version__ = "0.1.0"
