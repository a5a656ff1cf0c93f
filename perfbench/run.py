"""End-to-end benchmark of the three user paths, with a traced per-layer run.

Workloads (``--workload``):

* ``ckks_bootstrap`` — closed loop, one caller: planned packed bootstrapping
  (``PackedBootstrap.refresh``) at N = 2^10, L = 13, 30-bit words;
* ``hybrid_query`` — closed loop, one caller: the planned SUM-WHERE
  threshold query (extract -> c2t keyswitch -> sign PBS wave -> t2c ->
  repack -> filtered sum) over 16 rows;
* ``serve_wire`` — open loop: seeded Poisson arrivals of dense-layer
  requests over loopback sockets into a ``ServingGateway`` in a child
  process, at a light and a busy fixed rate.

End-to-end metrics (``--trace 0``), the same names on every workload:
``setup_s`` (median of ``SETUPS`` set-ups: keys, planning, warm-up),
``peak_rss_mb``, ``ok_frac`` (operations served correctly / attempted),
``op_p50_ms`` (closed loops: one operation; ``serve_wire``: the light
phase), ``ops_per_s`` (correct operations per second; ``serve_wire``: the
busy phase), ``busy_p90_ms`` and ``busy_slo_frac`` (served correctly within
the workload's latency limit; closed loops: the back-to-back stream,
``serve_wire``: the busy phase).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the workload
untraced and then traced, prints the per-layer table and the Trinity model's
prediction beside the measured times, and reports the per-layer metrics.
Every operation's output is checked against an eager reference computed in
set-up.  The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Run from the repository root::

    python3 perfbench/run.py --workload hybrid_query --seed 1 --seconds 20 --trace 0

Metric names and units are read from ``BENCHMARK.json`` at the root.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import env

#: Set-ups timed per untraced run; ``setup_s`` is their median.
SETUPS = 3


def _declared_metrics(trace: bool) -> dict:
    path = os.path.join(env.ROOT, "BENCHMARK.json")
    try:
        with open(path) as handle:
            spec = json.load(handle)
    except (OSError, ValueError) as exc:
        env.die(f"cannot read {path}: {exc}")
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("ckks_bootstrap", "hybrid_query", "serve_wire"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    env.pin()
    declared = _declared_metrics(bool(args.trace))
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} {env.describe()}")

    if args.workload == "serve_wire":
        import serve_wire
        result = serve_wire.run(args.seed, args.seconds, bool(args.trace),
                                SETUPS)
    else:
        import closed_loop
        result = closed_loop.run(args.workload, args.seed, args.seconds,
                                 bool(args.trace), SETUPS)

    produced = result["metrics"]
    metrics = {}
    for name, unit in declared.items():
        if name in produced:
            value = float(produced[name])
        elif args.trace:
            value = 0.0          # a layer this workload does not touch
        else:
            env.die(f"end-to-end metric {name!r} was not measured")
        if not math.isfinite(value):
            env.die(f"metric {name!r} is not finite: {value}")
        metrics[name] = {"value": value, "unit": unit}
    if not args.trace:
        print("\nend-to-end metrics")
        for name, entry in metrics.items():
            print(f"  {name:<16} {entry['value']:>14.4f} {entry['unit']}")
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
