"""The ``serve_wire`` workload: an open-loop load generator over sockets.

One process, one event loop, ``CONNECTIONS`` sessioned ``ServingClient``
connections to a ``ServingGateway`` running in a child process
(``server_child.py``).  Requests are single-ciphertext BSGS dense layers
(dim 16, N = 2^9, L = 6; ~35 ms of execution for a batch of one on a
2-vCPU x86 VM, ~30 requests/s of capacity with batching).  Arrivals are
Poisson at two fixed absolute rates, set once from that measurement and
never derived at run time:

* ``light`` (LIGHT_RPS, ~20% of capacity): mostly batches of one, so latency
  is wire plus execution;
* ``busy`` (BUSY_RPS, ~45%): queues and batches form, and execution blocking
  the server's event loop shows.

Higher rates (12 and 20 requests/s) made the light p50 and busy p90 spread
far more from run to run on that host.

Each second of a phase holds exactly ``rate`` arrivals placed uniformly at
random in it — a Poisson process conditioned on its count per second — so
run-to-run spread comes from the system, not from how many requests, or how
long a burst, a seed happened to draw.
A request is timed from when it was due, so a stalled generator or server
charges the wait to every request behind it; generator lateness is
reported beside it.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import List

import env
import tracing

TENANT = "tenant-0"
PROGRAM = "dense"
DIM = 16
MAX_BATCH = 4
BATCH_WINDOW = 0.002
CONNECTIONS = 2
LIGHT_RPS = 6.0
BUSY_RPS = 14.0
#: Share of the run spent in the light phase; the busy tail needs more samples.
LIGHT_SHARE = 0.35
#: busy_slo_frac counts busy-phase requests served correctly within this.
LATENCY_LIMIT_MS = 250.0
POOL = 4
CHILD_TIMEOUT_S = 120.0


@dataclass
class Dense:
    """The dense-layer program and the tenant's key material, from a seed."""

    context: object
    transform: object
    program: object      # the traced width-1 program
    planned: object      # ... as the server plans it

    @property
    def params(self):
        return self.context.params

    @property
    def keys(self):
        return self.context.keys

    def key_digest(self) -> str:
        """Digest of the evaluation keys the planned program uses."""
        from repro.serve import serialize_keyswitch_key

        digest = hashlib.sha256()
        for element, level in sorted(self.planned.required_galois_elements()):
            if element != 1:
                digest.update(serialize_keyswitch_key(
                    self.keys.galois_key(element, level)))
        return digest.hexdigest()


def build_dense(seed: int) -> Dense:
    """Keys, weights and the width-1 plan, identical in both processes."""
    from repro.fhe.ckks import BSGSLinearTransform, CKKSContext
    from repro.fhe.params import CKKSParameters
    from repro.fhe.program import HETrace, plan_program

    params = CKKSParameters(
        ring_degree=1 << 9, max_level=6, dnum=3, scale_bits=26,
        modulus_bits=30, special_modulus_bits=32, security_bits=0,
        name="perfbench-serving",
    )
    context = CKKSContext(params, seed=seed, error_stddev=0.0,
                          secret_hamming_weight=64)
    rng = random.Random(seed)
    weights = [[rng.randint(-6, 6) / 8.0 for _ in range(DIM)]
               for _ in range(DIM)]
    transform = BSGSLinearTransform.from_matrix(context.encoder, weights)
    transform.generate_rotation_keys(context.keys)
    # The server plans exactly this trace for a batch of one.
    trace = HETrace(params)
    handle = trace.input("x0", level=params.max_level, scale=float(params.scale))
    trace.output("y0", transform.trace(handle))
    planned = plan_program(trace.program)
    context.keys.ensure_galois_keys(planned.required_galois_elements())
    return Dense(context, transform, trace.program, planned)


def _rows(evaluator, ct):
    cc = evaluator.to_coeff(ct)
    return (cc.c0.coefficient_rows(), cc.c1.coefficient_rows())


class Child:
    """One server child process and its two JSON lines."""

    def __init__(self, seed: int, traced: bool):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(os.path.dirname(__file__),
                                          "server_child.py"),
             "--seed", str(seed), "--trace", str(int(traced))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            env=env.pinned_environ(), cwd=env.ROOT, text=True)

    async def line(self, key: str) -> dict:
        loop = asyncio.get_running_loop()
        while True:
            text = await asyncio.wait_for(
                loop.run_in_executor(None, self.proc.stdout.readline),
                CHILD_TIMEOUT_S)
            if not text:
                raise RuntimeError(f"server child exited before {key!r} "
                                   f"(code {self.proc.poll()})")
            try:
                message = json.loads(text)
            except ValueError:
                print(f"  server: {text.rstrip()}")
                continue
            if key in message:
                return message[key]

    async def stop(self) -> dict:
        self.proc.stdin.write("stop\n")
        self.proc.stdin.flush()
        final = await self.line("final")
        self.proc.stdin.close()
        self.proc.wait(timeout=CHILD_TIMEOUT_S)
        return final

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            if stream and not stream.closed:
                stream.close()


async def _start(seed: int, traced: bool, dense: Dense):
    """Start a child, wait until it serves, connect the clients."""
    from repro.serve import ServingClient

    child = Child(seed, traced)
    try:
        ready = await child.line("ready")
        if ready["key_digest"] != dense.key_digest():
            raise RuntimeError("server child built different evaluation keys")
        clients = [await ServingClient.connect(
            "127.0.0.1", ready["port"], tenant_id=TENANT,
            client_name=f"loadgen-{i}") for i in range(CONNECTIONS)]
    except BaseException:
        child.kill()
        raise
    return child, clients


@dataclass
class Sample:
    phase: str
    item: int
    due: float
    sent: float = 0.0
    done: float = 0.0
    response: object = None
    error: str = ""

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1e3


async def _phase(name: str, rate: float, seconds: float, clients, pool,
                 rng: random.Random) -> List[Sample]:
    offsets = []
    for second in range(max(1, round(seconds))):
        offsets.extend(second + rng.random() for _ in range(round(rate)))
    offsets.sort()
    start = time.perf_counter()
    samples = [Sample(name, rng.randrange(len(pool)), start + offset)
               for offset in offsets]

    async def one(index: int, sample: Sample) -> None:
        client = clients[index % len(clients)]
        sample.sent = time.perf_counter()
        try:
            future = await client.submit(PROGRAM, [pool[sample.item]["input"]])
            sample.response = await future
        except Exception as exc:  # refused or failed: counted, not fatal
            sample.error = f"{type(exc).__name__}: {exc}"
        sample.done = time.perf_counter()

    tasks = []
    for index, sample in enumerate(samples):
        delay = sample.due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.get_running_loop().create_task(one(index, sample)))
    await asyncio.gather(*tasks)
    return samples


async def _close(child: Child, clients) -> dict:
    for client in clients:
        await client.close()
    return await child.stop()


async def _session(seed: int, seconds: float, traced: bool, dense: Dense,
                   pool, setups: int):
    """Set up ``setups`` children (keeping the last), then run both phases."""
    setup_times, child, clients = [], None, []
    try:
        for _ in range(setups):
            if child is not None:
                await _close(child, clients)
                child.kill()
            start = time.perf_counter()
            child, clients = await _start(seed, traced, dense)
            setup_times.append(time.perf_counter() - start)
        rng = random.Random(seed * 104729)
        samples = await _phase("light", LIGHT_RPS, seconds * LIGHT_SHARE,
                               clients, pool, rng)
        samples += await _phase("busy", BUSY_RPS, seconds * (1 - LIGHT_SHARE),
                                clients, pool, rng)
        wire_bytes = sum(c.transport.stats()["bytes_sent"]
                         + c.transport.stats()["bytes_received"] for c in clients)
        final = await _close(child, clients)
    finally:
        if child is not None:
            child.kill()
    return setup_times, samples, final, wire_bytes


def _check(dense: Dense, pool, samples: List[Sample]) -> List[bool]:
    evaluator = dense.context.evaluator
    return [s.response is not None
            and _rows(evaluator, s.response.ciphertexts[0])
            == pool[s.item]["reference"] for s in samples]


def _pool(dense: Dense, rng: random.Random):
    from repro.fhe.program import ProgramExecutor, plan_program

    aligned = plan_program(dense.program, optimize=False)
    executor = ProgramExecutor(dense.context.evaluator)
    items = []
    for _ in range(POOL):
        values = [rng.uniform(-1.0, 1.0) for _ in range(dense.params.slots)]
        ct = dense.context.encrypt_vector(values)
        reference = executor.run_eager(aligned, {"x0": ct})["y0"]
        items.append({"input": ct,
                      "reference": _rows(dense.context.evaluator, reference)})
    return items


def _phase_stats(samples, good, phase):
    chosen = [(s, g) for s, g in zip(samples, good) if s.phase == phase]
    latencies = [s.latency_ms for s, _ in chosen if s.response is not None]
    return chosen, latencies


def run(seed: int, seconds: float, trace: bool, setups: int) -> dict:
    env.numpy_backend()
    dense = build_dense(seed)
    pool = _pool(dense, random.Random(seed * 7919 + 3))
    result = {"attempted": 0, "failed": 0, "correct": True, "metrics": {}}

    if not trace:
        setup_times, samples, final, _ = asyncio.run(
            _session(seed, seconds, False, dense, pool, setups))
        good = _check(dense, pool, samples)
        metrics = _report(samples, good, final, setup_times)
        result.update(attempted=len(samples), failed=good.count(False),
                      correct=_wrong(samples, good) == 0)
        result["metrics"] = metrics
        return result

    # Traced run: an untraced session and a traced one, half the time each.
    _, base, _, _ = asyncio.run(
        _session(seed, seconds / 2, False, dense, pool, 1))
    tracer = tracing.Tracer()
    patches = tracing.Patches()
    import repro.serve.net.client as client_module
    patches.set(client_module, "serialize_ciphertext", tracer.wrap(
        "net.client_encode", client_module.serialize_ciphertext))
    patches.set(client_module, "deserialize_ciphertext", tracer.wrap(
        "net.client_decode", client_module.deserialize_ciphertext))
    tracer.enabled = True
    tracer.op = 0
    try:
        _, samples, final, wire_bytes = asyncio.run(
            _session(seed, seconds / 2, True, dense, pool, 1))
    finally:
        tracer.enabled = False
        patches.restore()
    base_good, good = _check(dense, pool, base), _check(dense, pool, samples)
    # Both sessions draw the same schedule, so their first requests match.
    evaluator = dense.context.evaluator
    identical = (base[0].item == samples[0].item
                 and base[0].response is not None
                 and samples[0].response is not None
                 and _rows(evaluator, base[0].response.ciphertexts[0])
                 == _rows(evaluator, samples[0].response.ciphertexts[0]))
    print(f"first request bit-identical with and without the timing "
          f"wrappers: {identical}")
    metrics, deterministic = _layer_report(dense, base, samples, final, tracer,
                                           wire_bytes)
    verdicts = base_good + good
    result.update(attempted=len(verdicts), failed=verdicts.count(False),
                  correct=_wrong(base + samples, verdicts) == 0 and identical
                  and deterministic)
    result["metrics"] = metrics
    return result


def _wrong(samples, good) -> int:
    return sum(1 for s, g in zip(samples, good) if s.response is not None and not g)


def _report(samples, good, final, setup_times) -> dict:
    light, light_lat = _phase_stats(samples, good, "light")
    busy, busy_lat = _phase_stats(samples, good, "busy")
    busy_ok = [s for s, g in busy if g]
    within = sum(1 for s in busy_ok if s.latency_ms <= LATENCY_LIMIT_MS)
    span = (max(s.done for s, _ in busy) - min(s.due for s, _ in busy))
    late = [(s.sent - s.due) * 1e3 for s in samples]
    errors = sorted({s.error for s in samples if s.error})
    print(f"serve_wire: setups {', '.join(f'{t:.2f}' for t in setup_times)} s; "
          f"light {len(light)} requests at {LIGHT_RPS:g}/s: p50 "
          f"{env.pct(light_lat, 50):.1f} ms p90 {env.pct(light_lat, 90):.1f} ms; "
          f"busy {len(busy)} at {BUSY_RPS:g}/s: p50 {env.pct(busy_lat, 50):.1f} ms "
          f"p90 {env.pct(busy_lat, 90):.1f} ms; generator late p90 "
          f"{env.pct(late, 90):.2f} ms; server batches {final['batches']} "
          f"(mean width {final['batch_width_mean']:.2f}), "
          f"{good.count(False)} failed or wrong")
    for error in errors[:5]:
        print(f"  request error: {error}")
    return {
        "setup_s": env.pct(setup_times, 50),
        "peak_rss_mb": final["rss_mb"],
        "ok_frac": sum(good) / len(good),
        "op_p50_ms": env.pct(light_lat, 50),
        "ops_per_s": len(busy_ok) / span,
        "busy_p90_ms": env.pct(busy_lat, 90),
        "busy_slo_frac": within / len(busy),
    }


def _layer_report(dense, base, samples, final, tracer, wire_bytes):
    """Per-layer metrics of the traced session, and whether the model repeated."""
    from repro.fhe.program import plan_program, trinity_cycle_estimate

    served = [s for s in samples if s.response is not None]
    requests = max(len(served), 1)
    op_ms = sum(s.latency_ms for s in served) / requests
    base_light = [s.latency_ms for s in base
                  if s.phase == "light" and s.response is not None]
    light = [s.latency_ms for s in served if s.phase == "light"]
    summary = tracing.merge(tracer.summary(), final["summary"])
    late = [(s.sent - s.due) * 1e3 for s in samples]
    waits = final["queue_wait_ms"]
    submit = final["submit_ms"]

    def per_request(name):
        return summary.get(name, {}).get("ms", 0.0) / requests

    # A request's latency is its generator lateness, client codec, gateway
    # codec and its scheduler submit: the queue wait, the execution of the
    # batch it rode in, and the scheduler's own work.  What is left is
    # transport, framing and event-loop scheduling.
    submit_ms, waits_ms = sum(submit), sum(waits)
    summary["loadgen.late"] = {"calls": len(late), "ms": sum(late),
                               "self_ms": sum(late)}
    summary["scheduler.submit"] = {
        "calls": len(submit), "ms": submit_ms,
        "self_ms": submit_ms - waits_ms - final["batch_exec_ms"]}
    summary["scheduler.queue_wait"] = {"calls": len(waits), "ms": waits_ms,
                                       "self_ms": waits_ms}
    # The batch's execution is shared: program and backend rows carry each
    # request's share, and this row the wait on the batch's other members.
    summary["scheduler.batch_exec"] = {
        "calls": len(waits), "ms": final["batch_exec_ms"],
        "self_ms": final["batch_exec_ms"]
        - summary.get("program.exec", {}).get("ms", 0.0)}
    attributed = sum(summary[name]["ms"] for name in (
        "loadgen.late", "net.client_encode", "net.client_decode",
        "net.gateway_decode", "net.gateway_encode", "scheduler.submit")
        if name in summary)
    summary["op"] = {"calls": requests, "ms": op_ms * requests,
                     "self_ms": op_ms * requests - attributed}
    print(f"serve_wire (traced): untraced light p50 {env.pct(base_light, 50):.1f} ms, "
          f"traced light p50 {env.pct(light, 50):.1f} ms over {requests} requests")
    unattributed = tracing.print_layer_table(
        summary, requests, op_ms,
        title="per-request breakdown (scheduler.batch_exec: the batch a request "
              "rode in; its self time is the wait on the other members)")

    cycles = trinity_cycle_estimate(dense.planned, params=dense.params).latency_cycles
    replanned = trinity_cycle_estimate(plan_program(dense.program),
                                       params=dense.params).latency_cycles
    print(f"\nmodel cycles identical for a second plan of the same program: "
          f"{cycles == replanned}")
    single = [s for s in served if s.response.batch_size == 1]
    exec_ms = summary.get("program.exec", {"ms": 0.0, "calls": 1})
    print("\npredicted (Trinity model) beside measured (host, numpy backend)")
    print(f"  dense layer, batch of one: {cycles:,.0f} model cycles; measured "
          f"{exec_ms['ms'] / max(exec_ms['calls'], 1):.2f} ms per batch execution "
          f"(mean width {final['batch_width_mean']:.2f}), "
          f"{sum(s.latency_ms for s in single) / max(len(single), 1):.2f} ms "
          f"per unbatched request end to end")

    metrics = tracing.layer_metrics(summary, requests, op_ms)
    for name, value in final["counts"].items():
        metrics[name] = value / requests
    metrics.update({
        "program.plan_ms": final["plan_ms"],
        "net.client_encode_ms": per_request("net.client_encode"),
        "net.client_decode_ms": per_request("net.client_decode"),
        "net.gateway_decode_ms": per_request("net.gateway_decode"),
        "net.gateway_encode_ms": per_request("net.gateway_encode"),
        "net.bytes_per_request": wire_bytes / requests,
        "net.overhead_ms": sum(s.response.latency_seconds
                               - s.response.server_latency_seconds
                               for s in served) * 1e3 / requests,
        "scheduler.submit_ms_p50": env.pct(submit, 50),
        "scheduler.submit_ms_p90": env.pct(submit, 90),
        "scheduler.exec_ms": per_request("program.exec"),
        "scheduler.queue_wait_ms": sum(waits) / max(len(waits), 1),
        "scheduler.batches": final["batches"] / requests,
        "scheduler.batch_width_mean": final["batch_width_mean"],
        "scheduler.loop_lag_p99_ms": final["loop_lag_p99_ms"],
        "scheduler.rejected": final["rejected"],
        "scheduler.retries": final["retries"],
        "cache.plan_hit_rate": final["plan_hit_rate"],
        "cache.key_hit_rate": final["key_hit_rate"],
        "model.trinity_cycles": cycles,
        "trace.overhead_frac": (env.pct(light, 50) / env.pct(base_light, 50) - 1.0
                                if base_light else 0.0),
        "trace.unattributed_frac": unattributed,
        "loadgen.late_p90_ms": env.pct(late, 90),
    })
    return metrics, cycles == replanned
