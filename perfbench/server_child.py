"""The ``serve_wire`` server process: a ServingGateway over one InferenceServer.

Started by ``serve_wire.py`` with the workload seed.  It builds the tenant's
keys from the seed (the same deterministic key set the load generator
builds, provisioned here as a frozen key set), warms the plan cache for
every batch width, listens on a loopback port and prints one JSON line
``{"ready": ...}``.  It serves until a ``stop`` line arrives on standard
input, drains, and prints one JSON line ``{"final": ...}`` with its peak
memory, scheduler counters and — with ``--trace 1`` — its per-layer span
summary and the event-loop lag probe.

    python3 perfbench/server_child.py --seed 1 --trace 0
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import sys
import time

import env


def _print(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


class LagProbe:
    """Heartbeat on the event loop: how late each ``sleep(interval)`` wakes."""

    def __init__(self, interval: float = 0.005):
        self.interval = interval
        self.lags_ms = []
        self._task = None

    def start(self) -> None:
        self._task = asyncio.get_running_loop().create_task(self._beat())

    async def _beat(self) -> None:
        while True:
            due = time.perf_counter() + self.interval
            await asyncio.sleep(self.interval)
            self.lags_ms.append((time.perf_counter() - due) * 1e3)

    async def stop(self) -> None:
        self._task.cancel()
        try:
            await self._task
        except asyncio.CancelledError:
            pass


class SchedulerProbe:
    """Times ``InferenceServer.submit`` and the queue wait before each batch.

    Requests of one tenant, program, level and scale share one FIFO bucket,
    so the ``width`` oldest admitted requests are the ones a starting batch
    holds: ``on_batch_start`` pops them and records how long each waited.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self.queued = []
        self.waits_ms = []
        self.submit_ms = []
        self.widths = []

    def on_batch_start(self, _key, width: int) -> None:
        now = time.perf_counter()
        taken, self.queued = self.queued[:width], self.queued[width:]
        if self.tracer.op is not None:
            self.waits_ms.extend((now - t) * 1e3 for t in taken)
            self.widths.append(width)

    def batch_exec_ms(self) -> float:
        """Batch execution time summed over the requests that waited on it.

        Every batch calls ``on_batch_start`` and then ``ProgramExecutor.run``
        once, so the measured batches pair with the recorded widths in order.
        """
        runs = [span for span in self.tracer.spans
                if span[0] == "program.exec" and span[4] is not None]
        return sum(width * (span[2] - span[1]) * 1e3
                   for width, span in zip(self.widths, runs))

    def wrap_submit(self, submit):
        from repro.serve import RequestRejected

        async def timed_submit(server, request):
            start = time.perf_counter()
            self.queued.append(start)
            try:
                return await submit(server, request)
            except RequestRejected:
                # Refused before it reached a bucket (nothing ran in between).
                self.queued.remove(start)
                raise
            finally:
                end = time.perf_counter()
                if self.tracer.op is not None:
                    self.submit_ms.append((end - start) * 1e3)
                    self.tracer.record("scheduler.submit", start, end)

        return timed_submit


def _cache_rate(before: dict, after: dict) -> float:
    hits = after["hits"] - before["hits"]
    lookups = hits + after["misses"] - before["misses"]
    return hits / lookups if lookups else 0.0


async def _serve(server, traced: bool, tracer, probe, ready: dict) -> dict:
    from repro.serve import ServingGateway

    gateway = await ServingGateway(server).start()
    lag = LagProbe()
    if traced:
        lag.start()
    before = server.stats()
    tracer.op = 0          # spans from here on belong to the measured traffic
    _print({"ready": {**ready, "port": gateway.address[1]}})
    loop = asyncio.get_running_loop()
    while True:
        line = await loop.run_in_executor(None, sys.stdin.readline)
        if not line or line.strip() == "stop":
            break
    await gateway.close()
    if traced:
        await lag.stop()
    tracer.op = None
    after = server.stats()
    batches = after["batches"] - before["batches"]
    batched = after["batched_requests"] - before["batched_requests"]
    final = {
        "rss_mb": env.peak_rss_mb(),
        "rejected": after["rejected"] - before["rejected"],
        "retries": after["retries"] - before["retries"],
        "batches": batches,
        "batch_width_mean": batched / batches if batches else 0.0,
        "plan_hit_rate": _cache_rate(before["plan_cache"], after["plan_cache"]),
        "key_hit_rate": _cache_rate(before["key_cache"], after["key_cache"]),
    }
    if traced:
        final.update(
            summary=tracer.summary(),
            counts=dict(tracer.counts),
            plan_ms=tracer.summary(ops_only=False)
            .get("program.plan", {}).get("ms", 0.0),
            submit_ms=probe.submit_ms,
            queue_wait_ms=probe.waits_ms,
            batch_exec_ms=probe.batch_exec_ms(),
            loop_lag_p99_ms=env.pct(lag.lags_ms, 99),
        )
    return final


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    env.pin()

    import repro.serve.cache as serve_cache
    import repro.serve.net.gateway as gateway_module
    from repro.serve import (
        AdmissionController, InferenceRequest, InferenceServer,
        ResiliencePolicy, RetryPolicy,
    )

    import serve_wire
    import tracing

    traced = bool(args.trace)
    env.numpy_backend()
    tracer = tracing.Tracer()
    probe = SchedulerProbe(tracer)
    with contextlib.ExitStack() as stack:
        if traced:
            stack.enter_context(tracing.install(tracer))
            patches = tracing.Patches()
            stack.callback(patches.restore)
            patches.set(serve_cache, "plan_program",
                        tracer.wrap("program.plan", serve_cache.plan_program))
            patches.set(gateway_module, "deserialize_ciphertext",
                        tracer.wrap("net.gateway_decode",
                                    gateway_module.deserialize_ciphertext))
            patches.set(gateway_module, "serialize_ciphertext",
                        tracer.wrap("net.gateway_encode",
                                    gateway_module.serialize_ciphertext))
            patches.set(InferenceServer, "submit",
                        probe.wrap_submit(InferenceServer.submit))
            tracer.enabled = True

        dense = serve_wire.build_dense(args.seed)
        # Limits that never trigger at the benchmark's rates: the admission
        # and resilience code still runs on every request.
        server = InferenceServer(
            dense.params, max_batch_size=serve_wire.MAX_BATCH,
            batch_window=serve_wire.BATCH_WINDOW,
            admission=AdmissionController(per_tenant_rate=1e9,
                                          max_pending=1 << 16),
            resilience=ResiliencePolicy(retry=RetryPolicy(max_attempts=2)),
            on_batch_start=probe.on_batch_start if traced else None)
        server.register_tenant(serve_wire.TENANT, dense.keys.frozen())
        server.register_program(serve_wire.PROGRAM, dense.transform.trace)
        warm = dense.context.encrypt_vector([0.0] * dense.params.slots)
        for width in range(1, serve_wire.MAX_BATCH + 1):
            server.serve([InferenceRequest.single(serve_wire.TENANT,
                                                  serve_wire.PROGRAM, warm)
                          for _ in range(width)])
        probe.queued.clear()
        ready = {"key_digest": dense.key_digest()}
        final = asyncio.run(_serve(server, traced, tracer, probe, ready))
    _print({"final": final})
    return 0


if __name__ == "__main__":
    sys.exit(main())
