"""Environment pinning shared by run.py and the serve_wire server child.

Both processes call :func:`pin` before anything imports numpy, so BLAS and
OpenMP pools stay at one thread and the arithmetic backend is the default
vectorized numpy backend whatever ``REPRO_BACKEND`` / ``REPRO_U32_STORE``
say in the caller's environment.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


def die(message: str, code: int = 2) -> None:
    """Exit without printing a result line."""
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(code)


def pinned_environ() -> dict:
    """The environment a benchmark process runs under (also given to the child)."""
    env = dict(os.environ)
    for var in _THREAD_VARS:
        env[var] = "1"
    env["REPRO_BACKEND"] = "numpy"
    env.pop("REPRO_U32_STORE", None)
    env["PYTHONPATH"] = SRC
    return env


def pin() -> None:
    """Pin threads and backend selection, then make ``repro`` importable."""
    os.environ.update(pinned_environ())
    os.environ.pop("REPRO_U32_STORE", None)
    try:
        import numpy  # noqa: F401
    except ImportError:
        die("numpy is not installed; the benchmark times the numpy backend "
            "only and will not fall back to the python backend")
    if not os.path.isdir(os.path.join(SRC, "repro")):
        die(f"no repro sources under {SRC}; run from the repository root")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def numpy_backend():
    """A fresh numpy backend, made active.

    The python-fallback crossovers are zeroed, as in
    ``benchmarks/bench_hybrid_program.py``: TFHE rings (N = 256) and LWE
    vectors sit below the default crossovers, and the benchmark times the
    vectorized kernels on every path.  32-bit stores stay off.
    """
    from repro.fhe.backend import NumpyBackend, set_active_backend

    backend = NumpyBackend(min_vector_length=0, min_ntt_length=0,
                           store_uint32=False)
    set_active_backend(backend)
    return backend


def describe() -> str:
    import numpy

    return (f"nproc={len(os.sched_getaffinity(0))} "
            f"python={platform.python_version()} numpy={numpy.__version__} "
            f"backend=numpy")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pct(values, q: int) -> float:
    """The ``q``-th percentile, 1 <= q <= 99 (linear interpolation)."""
    data = sorted(values)
    if len(data) < 2:
        return data[0] if data else 0.0
    return statistics.quantiles(data, n=100, method="inclusive")[q - 1]
