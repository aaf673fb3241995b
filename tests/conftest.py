"""Pins BLAS to one thread per process before numpy loads.

The per-frame BLAS calls are tiny, so a second thread costs more in
synchronisation than it saves, and pooled sweeps would oversubscribe the
cores; a value already set in the environment is kept.
"""
import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
