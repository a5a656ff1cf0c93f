"""Spans recorded from outside the library, and the per-layer numbers they give.

Nothing under ``src/`` is edited: :func:`install` swaps the public entry
points of each layer for timing wrappers (module attributes and class
methods, restored on exit) and :class:`TimingBackend` forwards every public
method of the active arithmetic backend.  Spans follow Dapper (Sigelman et
al., 2010): each has a name, start, end, parent span and an operation id;
they are kept in memory and reduced to per-layer calls / total / self time
once the run ends.  A layer's self time is its duration minus the time its
child spans cover.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

from repro.fhe.backend import ArithmeticBackend

#: The top-level backend kernels the per-layer table names one by one.
KERNELS = (
    "batched_ntt", "batched_intt", "stacked_ntt", "stacked_intt",
    "ntt_forward_batch", "ntt_inverse_batch", "limbs_eval_mac",
    "limbs_mac_eval", "bconv_matmul", "batched_sub_scaled",
    "stacked_pmult_mac", "limbs_tensor_product", "limbs_signed_permute",
    "mat_mulmod", "gadget_decompose", "pointwise_mac_many",
)
NTT_KERNELS = frozenset(k for k in KERNELS if "ntt" in k) | {
    "ntt_forward", "ntt_inverse",
}

# Span record layout: [name, start, end, parent index, op id, child time].
_NAME, _START, _END, _PARENT, _OP, _CHILD = range(6)


class Tracer:
    """In-memory span recorder for one process (a stack of sync spans)."""

    def __init__(self):
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.op: Optional[int] = None
        self.enabled = False
        self.counts: Dict[str, float] = defaultdict(float)

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op, 0.0])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        span = self.spans[index]
        span[_END] = time.perf_counter()
        self._stack.pop()
        if span[_PARENT] >= 0:
            self.spans[span[_PARENT]][_CHILD] += span[_END] - span[_START]

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def wrap(self, name: str, func: Callable) -> Callable:
        def timed(*args, **kwargs):
            if not self.enabled:
                return func(*args, **kwargs)
            index = self.begin(name)
            try:
                return func(*args, **kwargs)
            finally:
                self.end(index)

        return timed

    def count(self, name: str, value: float = 1.0) -> None:
        """Add to a per-operation counter (ignored outside an operation)."""
        if self.enabled and self.op is not None:
            self.counts[name] += value

    def record(self, name: str, start: float, end: float) -> None:
        """A finished span outside the sync stack (async waits, requests)."""
        if self.enabled:
            self.spans.append([name, start, end, -1, self.op, 0.0])

    def summary(self, ops_only: bool = True) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total ms and self ms (of spans inside ops)."""
        out: Dict[str, Dict[str, float]] = {}
        for span in self.spans:
            if ops_only and span[_OP] is None:
                continue
            entry = out.setdefault(span[_NAME],
                                   {"calls": 0, "ms": 0.0, "self_ms": 0.0})
            duration = span[_END] - span[_START]
            entry["calls"] += 1
            entry["ms"] += duration * 1e3
            entry["self_ms"] += (duration - span[_CHILD]) * 1e3
        return out


def merge(*summaries: Dict[str, Dict[str, float]]) -> Dict[str, Dict[str, float]]:
    out: Dict[str, Dict[str, float]] = {}
    for summary in summaries:
        for name, entry in summary.items():
            acc = out.setdefault(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
            for key in acc:
                acc[key] += entry[key]
    return out


class TimingBackend(ArithmeticBackend):
    """Forwards every public method of ``inner``; times top-level dispatches.

    Built the way ``repro.serve.chaos.FaultInjectingBackend`` is: bound
    methods of the inner backend are set on the instance, so kernels the
    inner backend calls on itself bypass the wrapper and only the dispatch
    the library made is timed.  The name is the inner backend's, so
    per-backend caches (encoded plaintexts, evaluation-key handles) are
    shared with unwrapped code.
    """

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        for attr in dir(type(inner)):
            if attr.startswith("_"):
                continue
            bound = getattr(inner, attr)
            if callable(bound):
                setattr(self, attr, tracer.wrap(f"backend.{attr}", bound))
        self.name = inner.name
        self.store_uint32 = getattr(inner, "store_uint32", False)


class Patches:
    """Attribute swaps that :meth:`restore` undoes in reverse order."""

    def __init__(self):
        self._saved: List[tuple] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


@contextlib.contextmanager
def install(tracer: Tracer, stage_names: "Optional[Dict[int, str]]" = None):
    """Wrap each layer's public entry points and activate a timing backend.

    ``stage_names`` maps ``id(planned program)`` to a bootstrap stage name
    so :meth:`ProgramExecutor.run` of a stage also records the
    ``ckks.bootstrap.<stage>`` span around it.
    """
    import repro.fhe.ckks.bootstrap_exec as bootstrap_exec
    import repro.fhe.conversion.ckks_to_tfhe as c2t
    import repro.fhe.conversion.tfhe_to_ckks as t2c
    import repro.fhe.program as program
    import repro.fhe.tfhe.batched as batched
    from repro.fhe.backend import active_backend, set_active_backend
    from repro.fhe.conversion.bridge import SchemeBridge
    from repro.fhe.program.executor import ProgramExecutor

    stage_names = stage_names or {}
    patches = Patches()
    previous = active_backend()
    set_active_backend(TimingBackend(previous, tracer))

    run = ProgramExecutor.run

    def timed_run(executor, planned, inputs, *args, **kwargs):
        if not tracer.enabled:
            return run(executor, planned, inputs, *args, **kwargs)
        stats = getattr(planned, "stats", None) or {}
        for key in ("hoist_groups", "dead_nodes_removed", "pbs_groups",
                    "ks_groups"):
            tracer.count(f"program.{key}", stats.get(key, 0))
        tracer.count("program.nodes", len(getattr(planned, "program", ())))
        stage = stage_names.get(id(planned))
        with contextlib.ExitStack() as spans:
            if stage:
                spans.enter_context(tracer.span(f"ckks.bootstrap.{stage}"))
            spans.enter_context(tracer.span("program.exec"))
            return run(executor, planned, inputs, *args, **kwargs)

    pbs = tracer.wrap("tfhe.pbs_wave", batched.batched_programmable_bootstrap)

    def timed_pbs(context, sources, vectors, *args, **kwargs):
        tracer.count("tfhe.pbs_count", len(sources))
        return pbs(context, sources, vectors, *args, **kwargs)

    patches.set(ProgramExecutor, "run", timed_run)
    patches.set(program, "plan_program", tracer.wrap("program.plan",
                                                     program.plan_program))
    patches.set(bootstrap_exec, "mod_raise",
                tracer.wrap("ckks.bootstrap.mod_raise", bootstrap_exec.mod_raise))
    patches.set(batched, "batched_programmable_bootstrap", timed_pbs)
    patches.set(c2t, "sample_extract_rlwe",
                tracer.wrap("conversion.extract", c2t.sample_extract_rlwe))
    patches.set(t2c, "repack_lwe_ciphertexts",
                tracer.wrap("conversion.repack", t2c.repack_lwe_ciphertexts))
    for attr, name in (("switch_many_to_tfhe", "conversion.c2t"),
                       ("switch_to_tfhe", "conversion.c2t"),
                       ("switch_many_to_ckks", "conversion.t2c"),
                       ("switch_to_ckks", "conversion.t2c")):
        patches.set(SchemeBridge, attr, tracer.wrap(name,
                                                   getattr(SchemeBridge, attr)))
    try:
        yield tracer
    finally:
        patches.restore()
        set_active_backend(previous)


def layer_metrics(summary: Dict[str, Dict[str, float]], ops: int,
                  op_ms: float) -> Dict[str, float]:
    """The fhe.* and backend per-layer metrics, per operation.

    ``op_ms`` is the mean wall time of one traced operation; shares are of
    that wall time.
    """
    ops = max(ops, 1)

    def ms(name: str) -> float:
        return summary.get(name, {}).get("ms", 0.0) / ops

    out: Dict[str, float] = {}
    backend_ms = other_ms = ntt_ms = 0.0
    for name, entry in summary.items():
        if not name.startswith("backend."):
            continue
        kernel = name[len("backend."):]
        backend_ms += entry["ms"]
        if kernel in NTT_KERNELS:
            ntt_ms += entry["ms"]
        if kernel not in KERNELS:
            other_ms += entry["ms"]
    for kernel in KERNELS:
        entry = summary.get(f"backend.{kernel}", {"calls": 0, "ms": 0.0})
        out[f"backend.{kernel}.calls"] = entry["calls"] / ops
        out[f"backend.{kernel}.ms"] = entry["ms"] / ops
    out["backend.other.ms"] = other_ms / ops
    out["backend.ms"] = backend_ms / ops
    out["backend.ntt_share"] = (ntt_ms / ops) / op_ms if op_ms else 0.0
    exec_entry = summary.get("program.exec", {"ms": 0.0, "self_ms": 0.0})
    out["program.exec_ms"] = exec_entry["ms"] / ops
    out["program.self_ms"] = exec_entry["self_ms"] / ops
    for stage in ("mod_raise", "c2s", "evalmod", "s2c"):
        out[f"ckks.bootstrap.{stage}_ms"] = sum(
            entry["ms"] for name, entry in summary.items()
            if name == f"ckks.bootstrap.{stage}"
            or name.startswith(f"ckks.bootstrap.{stage}_")) / ops
    out["tfhe.pbs_waves"] = summary.get("tfhe.pbs_wave", {}).get("calls", 0) / ops
    out["tfhe.pbs_wave_ms"] = ms("tfhe.pbs_wave")
    for kind in ("c2t", "t2c", "extract", "repack"):
        out[f"conversion.{kind}_ms"] = ms(f"conversion.{kind}")
    return out


#: Span-name prefix -> layer (module) name, outermost layer first.
LAYERS = (
    ("loadgen", "benchmark load generator"),
    ("net", "serve.net"),
    ("scheduler", "serve.scheduler"),
    ("ckks", "fhe.ckks"),
    ("program", "fhe.program"),
    ("tfhe", "fhe.tfhe"),
    ("conversion", "fhe.conversion"),
    ("backend", "fhe.backend"),
)


def print_layer_table(summary: Dict[str, Dict[str, float]], ops: int,
                      op_ms: float, root: str = "op", title: str = "") -> float:
    """Per layer and span: calls, ms/op, self ms/op and share of op wall time.

    Each layer's row sums its spans' self time, so the layer shares and the
    unattributed remainder (the root span's self time) add up to the
    operation's wall time.  Returns the unattributed share.
    """
    ops = max(ops, 1)

    def share(ms: float) -> str:
        return f"{(ms / ops) / op_ms if op_ms else 0.0:>7.1%}"

    print(f"\n{title or 'per-layer breakdown'}: {ops} traced ops, "
          f"{op_ms:.2f} ms/op wall")
    header = (f"  {'layer / span':<40} {'calls/op':>9} {'ms/op':>10} "
              f"{'self ms/op':>11} {'share':>7}")
    print(header)
    print("  " + "-" * (len(header) - 2))
    for prefix, layer in LAYERS:
        spans = sorted(((name, entry) for name, entry in summary.items()
                        if name.split(".")[0] == prefix),
                       key=lambda item: -item[1]["self_ms"])
        if not spans:
            continue
        self_ms = sum(entry["self_ms"] for _, entry in spans)
        print(f"  {layer:<40} {'':>9} {'':>10} {self_ms / ops:>11.3f} "
              f"{share(self_ms)}")
        for name, entry in spans:
            print(f"    {name:<38} {entry['calls'] / ops:>9.1f} "
                  f"{entry['ms'] / ops:>10.3f} {entry['self_ms'] / ops:>11.3f} "
                  f"{share(entry['self_ms'])}")
    root_entry = summary.get(root, {"ms": 0.0, "self_ms": 0.0})
    unattributed = (root_entry["self_ms"] / root_entry["ms"]
                    if root_entry["ms"] else 0.0)
    print(f"  {'unattributed (' + root + ' self time)':<40} {'':>9} {'':>10} "
          f"{root_entry['self_ms'] / ops:>11.3f} {unattributed:>7.1%}")
    return unattributed
