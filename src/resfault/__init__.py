"""Residual-based fault detection and segmentation for condition-monitoring data."""

import os
import sys
from importlib.util import find_spec

# Each of these sizes a BLAS thread pool when numpy is first imported, which
# the modules of this package do after this line. One thread per process:
# the worker pool runs one process per CPU, and a second BLAS thread only
# contends with them. A value the user set is kept.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

# Without _hashlib, hashlib and hmac use CPython's built-in hashes and no
# process maps OpenSSL (3.4 MB of RSS; numpy.random imports it via secrets).
# Only where every built-in exists: else hashlib logs an error per algorithm.
_SHA2 = ("_sha2",) if sys.version_info >= (3, 12) else ("_sha256", "_sha512")
if all(map(find_spec, ("_md5", "_sha1", "_sha3", "_blake2", *_SHA2))):
    sys.modules.setdefault("_hashlib", None)

__version__ = "0.1.0"
