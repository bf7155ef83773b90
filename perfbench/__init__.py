"""End-to-end and per-layer benchmark of the contraprox solvers.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
runs one workload in one process; see ``perfbench/README.md``.
"""

# BLAS thread pools pinned to one thread before numpy is imported
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
