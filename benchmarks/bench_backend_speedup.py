"""Benchmark: python vs numpy arithmetic backend on the FHE hot kernels.

Measures both backends on the same randomized inputs and reports the speedup
for every ported kernel:

* negacyclic convolution (the full NTT multiply: 2 forward + pointwise +
  inverse) — the headline number; at N = 2^12 the numpy backend must be
  >= 10x faster than the exact python reference (asserted with ``--check``,
  which is on by default),
* forward NTT,
* element-wise modular multiply, and the fused Rescale kernel.

The four-step NTT is not timed: every backend runs the same python reference
of it (:meth:`ArithmeticBackend.four_step_ntt`), so there is no pair to compare.

Every timed pair is also checked for bit-exact agreement, so the benchmark
doubles as a smoke-level differential test.

Run directly (the CI benchmarks job uses ``--quick``)::

    PYTHONPATH=src python benchmarks/bench_backend_speedup.py [--quick] [--no-check]
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from typing import Callable, Dict, List

import conftest

from repro.fhe import modmath
from repro.fhe.backend import NumpyBackend, PythonBackend, available_backends
from repro.fhe.ntt import NTTContext

#: The acceptance threshold for the headline kernel (N = 2^12 convolution).
REQUIRED_CONVOLUTION_SPEEDUP = 10.0
HEADLINE_DEGREE = 1 << 12


def _best_of(func: Callable[[], object], repeats: int) -> tuple:
    """(best seconds, last result) over ``repeats`` runs."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = func()
        best = min(best, time.perf_counter() - start)
    return best, result


def run_benchmarks(degrees: List[int], modulus_bits: int = 40,
                   repeats: int = 3) -> List[Dict[str, object]]:
    """Time both backends on every kernel; returns one record per (kernel, N)."""
    python_backend = PythonBackend()
    numpy_backend = NumpyBackend()
    rng = random.Random(0xBE7C)
    records: List[Dict[str, object]] = []
    for degree in degrees:
        q = modmath.find_ntt_prime(modulus_bits, degree)
        context = NTTContext(degree, q)
        a = [rng.randrange(q) for _ in range(degree)]
        b = [rng.randrange(q) for _ in range(degree)]
        scalar = rng.randrange(q)
        kernels: Dict[str, Callable] = {
            "negacyclic_convolution": lambda be: be.negacyclic_convolution(context, a, b),
            "ntt_forward": lambda be: be.ntt_forward(context, a),
            "elementwise_mul": lambda be: be.mul(a, b, q),
            "rescale_sub_scaled": lambda be: be.sub_scaled(a, b, scalar, q),
        }
        # The numpy side is fast enough that scheduler jitter dominates a
        # single run; take the best of proportionally more repeats.
        numpy_repeats = repeats * 5
        for name, kernel in kernels.items():
            kernel(numpy_backend)  # warm the table caches before timing
            py_time, py_result = _best_of(lambda: kernel(python_backend), repeats)
            np_time, np_result = _best_of(lambda: kernel(numpy_backend), numpy_repeats)
            if py_result != np_result:  # pragma: no cover - parity suite guards this
                raise AssertionError(f"backend mismatch in {name} at N={degree}")
            records.append({
                "kernel": name,
                "ring_degree": degree,
                "modulus_bits": q.bit_length(),
                "python_seconds": py_time,
                "numpy_seconds": np_time,
                "speedup": py_time / np_time if np_time > 0 else float("inf"),
            })
    return records


def print_table(records: List[Dict[str, object]]) -> None:
    header = f"{'kernel':<28} {'N':>6} {'bits':>5} {'python':>12} {'numpy':>12} {'speedup':>9}"
    print(header)
    print("-" * len(header))
    for rec in records:
        print(
            f"{rec['kernel']:<28} {rec['ring_degree']:>6} {rec['modulus_bits']:>5} "
            f"{rec['python_seconds'] * 1e3:>10.3f}ms {rec['numpy_seconds'] * 1e3:>10.3f}ms "
            f"{rec['speedup']:>8.1f}x"
        )


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small sizes and fewer repeats (CI smoke pass)")
    parser.add_argument("--no-check", dest="check", action="store_false",
                        help="skip the >=10x acceptance assertion")
    conftest.add_json_argument(parser, "backend_speedup")
    args = parser.parse_args(argv)

    if "numpy" not in available_backends():
        print("numpy is not installed; nothing to compare (python backend only).")
        return 0

    if args.quick:
        degrees, repeats = [1 << 10, HEADLINE_DEGREE], 1
    else:
        degrees, repeats = [1 << 10, 1 << 11, HEADLINE_DEGREE], 3

    records = run_benchmarks(degrees, repeats=repeats)
    print_table(records)

    if args.json:
        path = conftest.write_bench_json(
            args.json, "backend_speedup", records, extra={"quick": args.quick}
        )
        print(f"\nwrote {path}")

    headline = next(
        rec for rec in records
        if rec["kernel"] == "negacyclic_convolution" and rec["ring_degree"] == HEADLINE_DEGREE
    )
    print(
        f"\nheadline: N=2^12 negacyclic convolution speedup "
        f"{headline['speedup']:.1f}x (required >= {REQUIRED_CONVOLUTION_SPEEDUP:.0f}x)"
    )
    if args.check and headline["speedup"] < REQUIRED_CONVOLUTION_SPEEDUP:
        print("FAILED: speedup below the acceptance threshold", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
