"""Closed-loop workloads: one caller, each operation back to back.

* ``ckks_bootstrap`` — planned ``PackedBootstrap.refresh`` of level-0
  ciphertexts at N = 2^10, L = 13, 30-bit words;
* ``hybrid_query`` — the planned SUM-WHERE threshold query of
  ``examples/hybrid_database_query.py`` over a 16-row wave at
  ``hybrid_query_parameters()``.

Each workload is a small class: ``setup`` (what ``setup_s`` times: keys,
planning, one warm-up operation), ``pool`` (seeded inputs and their eager
reference outputs — the oracle, not timed), ``run`` (one timed operation),
``output_rows`` (an output's exact coefficients), ``check`` (is one output
correct) and ``model`` (the Trinity cost model of the same op stream).
"""

from __future__ import annotations

import contextlib
import gc
import random
import time
from typing import Dict, List, Tuple

from env import numpy_backend, pct, peak_rss_mb
import tracing


def _rows(evaluator, ct) -> Tuple:
    cc = evaluator.to_coeff(ct)
    return (cc.c0.coefficient_rows(), cc.c1.coefficient_rows())


class BootstrapWorkload:
    name = "ckks_bootstrap"
    pool_size = 2
    #: busy_slo_frac counts refreshes served correctly within this limit.
    latency_limit_ms = 2500.0

    def setup(self, seed: int):
        from repro.fhe.ckks import CKKSContext, PackedBootstrap
        from repro.fhe.params import CKKSParameters

        params = CKKSParameters(
            ring_degree=1 << 10, max_level=13, dnum=4, scale_bits=30,
            modulus_bits=30, special_modulus_bits=32, security_bits=0,
            name="perfbench-bootstrap",
        )
        # A very sparse secret keeps the ModRaise overflow |I| small, as in
        # the bootstrap tests; integer_bound 3 covers hamming weight 2.
        context = CKKSContext(params, seed=seed, error_stddev=0.0,
                              secret_hamming_weight=2)
        bootstrap = PackedBootstrap(
            context.encoder, c2s_stages=2, s2c_stages=2, sine_degree=15,
            double_angle_iters=2, integer_bound=3,
        )
        bootstrap.generate_keys(context.keys)
        state = {"context": context, "bootstrap": bootstrap}
        warm = self._encrypt(state, random.Random(seed))[0]
        bootstrap.refresh(context.evaluator, warm)
        return state

    def stage_names(self, state) -> Dict[int, str]:
        return {id(planned): name
                for name, planned in state["bootstrap"].stage_programs()}

    @staticmethod
    def _encrypt(state, rng: random.Random):
        context = state["context"]
        values = [rng.uniform(-0.03, 0.03) for _ in range(context.params.slots)]
        return context.encrypt_vector(values, level=0), values

    def pool(self, state, rng: random.Random) -> List[dict]:
        context, bootstrap = state["context"], state["bootstrap"]
        items = []
        for _ in range(self.pool_size):
            ct, values = self._encrypt(state, rng)
            reference = bootstrap.refresh(context.evaluator, ct, eager=True)
            items.append({"input": ct, "values": values,
                          "reference": self.output_rows(state, reference)})
        return items

    def run(self, state, item):
        return state["bootstrap"].refresh(state["context"].evaluator,
                                          item["input"])

    def output_rows(self, state, output):
        return _rows(state["context"].evaluator, output)

    def check(self, state, item, output) -> bool:
        context = state["context"]
        if self.output_rows(state, output) != item["reference"]:
            return False
        # The relative decode gate of the bootstrap benchmark: a zeroed or
        # attenuated refresh scores a mean error near the mean signal.
        decoded = context.decrypt_vector(output)
        values = item["values"]
        error = sum(abs(g - v) for g, v in zip(decoded, values))
        signal = sum(abs(v) for v in values)
        return error <= 0.3 * signal

    def model(self, state) -> Tuple[float, List[tuple]]:
        """Whole-refresh cycles, and per stage ``(name, cycles, spans, ops)``."""
        from repro.fhe.program import trinity_cycle_estimate

        bootstrap = state["bootstrap"]
        params = state["context"].params
        total = bootstrap.trinity_cycle_estimate().latency_cycles
        lines = []
        histograms = dict(bootstrap.stage_histograms())
        for name, planned in bootstrap.stage_programs():
            cycles = trinity_cycle_estimate(planned, params=params).latency_cycles
            ops = ", ".join(f"{k}={v}" for k, v in sorted(histograms[name].items()))
            lines.append((name, cycles, [f"ckks.bootstrap.{name}"], ops))
        return total, lines


class HybridQueryWorkload:
    name = "hybrid_query"
    pool_size = 4
    latency_limit_ms = 1000.0

    #: One sign bootstrap per row: the whole wave runs as one batched PBS.
    ROWS = 16
    BOOST = 1 << 28          # clears the sign-bucket margin at these parameters
    AMPLITUDE = 1 << 16      # sign-bootstrap amplitude (mask encoding / 2)
    THRESHOLD = 8
    #: Column values keep a margin of >= 3 from the threshold on both sides,
    #: the margin the parameters guarantee a correct sign bootstrap for.
    VALUES = (1, 2, 3, 4, 5, 11, 12, 13, 14, 15)

    def setup(self, seed: int):
        from repro.fhe.ckks import CKKSContext
        from repro.fhe.conversion.bridge import SchemeBridge
        import repro.fhe.program as program_api
        from repro.fhe.tfhe import TFHEContext
        from repro.workloads.hybrid_workloads import hybrid_query_parameters

        params, tparams = hybrid_query_parameters()
        ckks = CKKSContext(params, seed=seed, error_stddev=0.0)
        tfhe = TFHEContext(tparams, seed=seed)
        bridge = SchemeBridge(params, ckks.keys.secret, tfhe, seed=seed)
        rng = random.Random(seed)
        # The public column the filtered sum adds up, one weight per row.
        weights = [rng.randint(1, 9) for _ in range(self.ROWS)]
        traced = self._program(params, tparams, ckks.encoder, weights)
        planned = program_api.plan_program(traced, optimize=True)
        aligned = program_api.plan_program(traced, optimize=False)
        executor = program_api.ProgramExecutor(ckks.evaluator, tfhe=tfhe,
                                               bridge=bridge)
        state = {"ckks": ckks, "tparams": tparams, "weights": weights,
                 "planned": planned, "aligned": aligned, "executor": executor}
        executor.run(planned, {"x": self._encrypt(state, rng)[0]})
        return state

    def stage_names(self, state) -> Dict[int, str]:
        return {}

    def _program(self, params, tparams, encoder, weights):
        from repro.fhe.program import HETrace

        q0, qt = params.moduli[0], tparams.modulus
        n = params.ring_degree
        stride = n // self.ROWS
        threshold = round(self.THRESHOLD * params.scale * self.BOOST * qt / q0)
        trace = HETrace(params, tfhe_params=tparams)
        column = trace.input("x", level=1, scale=float(params.scale))
        bits = []
        for lwe in (column * self.BOOST).extract_lwes(self.ROWS):
            # phase(T - v) >= 0  <=>  v <= T: the sign bootstrap turns it
            # into an exact {2 * AMPLITUDE, 0} mask bit.
            diff = (-lwe.keyswitch_to_tfhe()).add_encoded(threshold)
            bits.append(diff.bootstrap_sign(self.AMPLITUDE))
        mask = trace.repack([bit.keyswitch_to_ckks() for bit in bits])
        # Weight j at coefficient N-1-j*stride pairs with mask bit j at
        # j*stride, folding the filtered sum into coefficient N-1.
        reversed_weights = [0] * n
        for j, weight in enumerate(weights):
            reversed_weights[n - 1 - j * stride] = weight
        trace.output("mask", mask)
        trace.output("filtered", mask * encoder.encode_coefficients(
            reversed_weights, level=0, scale=1.0))
        return trace.program

    def _encrypt(self, state, rng: random.Random):
        ckks = state["ckks"]
        params = ckks.params
        n = params.ring_degree
        stride = n // self.ROWS
        values = [rng.choice(self.VALUES) for _ in range(self.ROWS)]
        coefficients = [0] * n
        for j, value in enumerate(values):
            coefficients[j * stride] = value * params.scale
        ct = ckks.encrypt_symmetric(ckks.encoder.encode_coefficients(
            coefficients, level=1, scale=float(params.scale)))
        return ct, values

    def pool(self, state, rng: random.Random) -> List[dict]:
        executor = state["executor"]
        items = []
        for _ in range(self.pool_size):
            ct, values = self._encrypt(state, rng)
            reference = executor.run_eager(state["aligned"], {"x": ct})
            items.append({"input": ct, "values": values,
                          "reference": self.output_rows(state, reference)})
        return items

    def run(self, state, item):
        return state["executor"].run(state["planned"], {"x": item["input"]})

    def output_rows(self, state, output):
        evaluator = state["ckks"].evaluator
        return {name: _rows(evaluator, ct) for name, ct in output.items()}

    def check(self, state, item, output) -> bool:
        ckks = state["ckks"]
        params = ckks.params
        if self.output_rows(state, output) != item["reference"]:
            return False
        n = params.ring_degree
        stride = n // self.ROWS
        encoding = 2 * self.AMPLITUDE * params.moduli[0] / state["tparams"].modulus

        def coefficients(ct):
            return ckks.decrypt(ct).poly.to_polynomial().centered_coefficients()

        mask = coefficients(output["mask"])
        bits = [round(mask[j * stride] / encoding) for j in range(self.ROWS)]
        expected_bits = [int(v <= self.THRESHOLD) for v in item["values"]]
        filtered = round(coefficients(output["filtered"])[n - 1] / encoding)
        expected_sum = sum(w for w, b in zip(state["weights"], expected_bits) if b)
        return bits == expected_bits and filtered == expected_sum

    def model(self, state) -> Tuple[float, List[tuple]]:
        from repro.fhe.program.lowering import hybrid_cycle_estimate

        report = hybrid_cycle_estimate(state["planned"])
        # The lowering prices bridge keyswitches with the TFHE workload and
        # extraction + repacking as the conversion workload.
        spans = {"tfhe": ["tfhe.pbs_wave", "conversion.c2t", "conversion.t2c"],
                 "conversion": ["conversion.extract", "conversion.repack"]}
        lines = [(name, cycles, spans.get(name.rsplit(".", 1)[-1], []), "")
                 for name, cycles in sorted(report.per_workload_cycles.items())]
        lines.append(("sequential (no co-scheduling)", report.sequential_cycles,
                      [], ""))
        return report.interleaved_cycles, lines


WORKLOADS = {w.name: w for w in (BootstrapWorkload(), HybridQueryWorkload())}


def _setup(workload, seed: int):
    """One timed set-up on a fresh backend (so backend table caches are cold)."""
    numpy_backend()
    start = time.perf_counter()
    state = workload.setup(seed)
    return state, time.perf_counter() - start


def _measure(workload, state, pool, seconds: float, tracer=None):
    """Back-to-back operations until ``seconds`` of operation time elapse.

    Returns per-operation latencies (ms), outputs (``None`` if the call
    failed) and verdicts (served and correct), plus the elapsed time.
    Outputs are checked after the timed loop.
    """
    latencies, outputs = [], []
    began = time.perf_counter()
    while time.perf_counter() - began < seconds:
        item = pool[len(latencies) % len(pool)]
        if tracer is not None:
            tracer.op = len(latencies)
        start = time.perf_counter()
        try:
            with tracer.span("op") if tracer is not None else _NO_SPAN:
                out = workload.run(state, item)
        except Exception as exc:  # a failed operation counts; the run goes on
            print(f"  operation failed: {type(exc).__name__}: {exc}")
            out = None
        latencies.append((time.perf_counter() - start) * 1e3)
        outputs.append((item, out))
    elapsed = time.perf_counter() - began
    if tracer is not None:
        tracer.op = None
    good = [out is not None and workload.check(state, item, out)
            for item, out in outputs]
    return latencies, outputs, good, elapsed


_NO_SPAN = contextlib.nullcontext()


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        setups: int) -> dict:
    workload = WORKLOADS[workload_name]
    rng = random.Random(seed * 7919 + 1)
    result = {"attempted": 0, "failed": 0, "correct": True, "metrics": {}}

    if not trace:
        setup_times = []
        for _ in range(setups):
            state = None
            gc.collect()
            state, took = _setup(workload, seed)
            setup_times.append(took)
        oracle_start = time.perf_counter()
        pool = workload.pool(state, rng)
        oracle_s = time.perf_counter() - oracle_start
        latencies, outputs, good, elapsed = _measure(
            workload, state, pool, seconds)
        ok = [lat for lat, (_, out) in zip(latencies, outputs)
              if out is not None]
        served = sum(good)
        wrong = sum(1 for (_, out), g in zip(outputs, good)
                    if out is not None and not g)
        within = sum(1 for lat, g in zip(latencies, good)
                     if g and lat <= workload.latency_limit_ms)
        print(f"{workload.name}: setups {', '.join(f'{t:.2f}' for t in setup_times)} s, "
              f"oracle {oracle_s:.2f} s, {len(latencies)} ops in {elapsed:.2f} s "
              f"(p50 {pct(ok, 50):.1f} ms, p90 {pct(ok, 90):.1f} ms), "
              f"{len(latencies) - served} failed or wrong")
        result.update(attempted=len(latencies), failed=len(latencies) - served,
                      correct=wrong == 0)
        result["metrics"] = {
            "setup_s": pct(setup_times, 50),
            "peak_rss_mb": peak_rss_mb(),
            "ok_frac": served / len(latencies),
            "op_p50_ms": pct(ok, 50),
            "ops_per_s": served / elapsed,
            "busy_p90_ms": pct(ok, 90),
            "busy_slo_frac": within / len(latencies),
        }
        return result

    # Traced run: an untraced half and a traced half on the same inputs.
    state, _ = _setup(workload, seed)
    pool = workload.pool(state, rng)
    cycles_a, _ = workload.model(state)
    base_lat, base_out, base_good, _ = _measure(
        workload, state, pool, seconds / 2)
    first_untraced = base_out[0][1]
    first_rows = (workload.output_rows(state, first_untraced)
                  if first_untraced is not None else None)
    state = None
    gc.collect()

    tracer = tracing.Tracer()
    numpy_backend()
    with tracing.install(tracer):
        tracer.enabled = True
        state = workload.setup(seed)
        tracer.enabled = False
    cycles_b, model_lines = workload.model(state)
    plan_ms = tracer.summary(ops_only=False).get("program.plan", {}).get("ms", 0.0)
    tracer.spans.clear()
    with tracing.install(tracer, workload.stage_names(state)):
        tracer.enabled = True
        lat, outputs, good, _ = _measure(
            workload, state, pool, seconds / 2, tracer)
        tracer.enabled = False
    first_traced = outputs[0][1]
    identical = first_rows is not None and first_traced is not None and \
        workload.output_rows(state, first_traced) == first_rows
    deterministic = cycles_a == cycles_b

    ops = len(lat)
    summary = tracer.summary()
    op_ms = summary["op"]["ms"] / ops
    print(f"{workload.name} (traced): untraced p50 {pct(base_lat, 50):.1f} ms "
          f"over {len(base_lat)} ops, traced p50 {pct(lat, 50):.1f} ms over {ops} ops")
    print(f"  first operation bit-identical with and without the timing "
          f"wrappers: {identical}; model cycles identical across set-ups: "
          f"{deterministic}")
    unattributed = tracing.print_layer_table(summary, ops, op_ms)
    _print_model(cycles_b, model_lines, summary, ops)

    metrics = tracing.layer_metrics(summary, ops, op_ms)
    metrics["program.plan_ms"] = plan_ms
    for name, value in tracer.counts.items():
        metrics[name] = value / ops
    metrics["model.trinity_cycles"] = cycles_b
    metrics["trace.overhead_frac"] = pct(lat, 50) / pct(base_lat, 50) - 1.0
    metrics["trace.unattributed_frac"] = unattributed
    verdicts = base_good + good
    wrong = sum(1 for (_, out), g in zip(base_out + outputs, verdicts)
                if out is not None and not g)
    result.update(attempted=len(verdicts), failed=verdicts.count(False),
                  correct=wrong == 0 and identical and deterministic)
    result["metrics"] = metrics
    return result


def _print_model(cycles: float, lines, summary, ops: int) -> None:
    """Trinity-predicted cycles beside the measured host time, per stage."""
    print(f"\npredicted (Trinity model) beside measured (host, numpy backend)")
    print(f"  {'component':<34} {'model cycles':>14} {'measured ms/op':>15}")
    for name, model_cycles, spans, detail in lines:
        measured = sum(summary.get(span, {}).get("ms", 0.0) for span in spans)
        shown = f"{measured / ops:>15.2f}" if spans else f"{'-':>15}"
        print(f"  {name:<34} {model_cycles:>14,.0f} {shown}")
        if detail:
            print(f"      ops: {detail}")
    print(f"  {'whole operation':<34} {cycles:>14,.0f} "
          f"{summary['op']['ms'] / ops:>15.2f}")
