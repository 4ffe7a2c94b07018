"""Span tracer for the benchmark's traced runs (``--trace 1``).

The tracer never edits the program: it replaces functions and methods
of the ``repro`` package with wrappers, from this file, at the layer
boundaries listed below (``layers.json`` names the metrics).  Each wrapper records one span
(name, start, end, parent span, op id) into flat in-memory arrays, plus
a few exact counters measured where the work happens (distinct echo
triples, distinct parse inputs per round, shared inboxes, ...).

Spans are only turned into metrics when the run ends: a span's self
time is its duration minus the durations of its direct children, and a
layer's ``self_share`` is the sum of its spans' self times over the
traced process time (the op spans of the benchmark process plus the
busy time of every pool worker).

Pool workers: the campaign engine forks its workers from the traced
process, so they inherit the wrappers.  A fork hook empties the
child's buffers, and the wrapper around ``execute_unit`` writes the
worker's spans and counters to ``<spill_dir>/worker-<pid>.pkl`` after
every unit.  :meth:`Tracer.collect` merges those files; a pool unit
whose spill never arrived makes the worker-side layers *unmeasured*
rather than zero.
"""

from __future__ import annotations

import functools
import importlib
import os
import pickle
import pkgutil
import sys
import time
import weakref
from array import array
from collections import Counter
from pathlib import Path

#: Root span around every op of the benchmark process; not a layer.
OP_SPAN = "bench.op"

#: ``(span name, module, attribute path)`` of the plain boundaries.
#: Module-level functions are replaced wherever a ``repro`` module
#: binds them, so ``from x import f`` call sites are traced too.
BOUNDARIES = (
    ("sim.kernel.init", "repro.sim.kernel", "ExecutionKernel.__init__"),
    ("sim.kernel.init", "repro.sim.runner", "make_processes"),
    ("sim.kernel.compose_round", "repro.sim.kernel",
     "ExecutionKernel.compose_round"),
    ("sim.kernel.finish_round", "repro.sim.kernel",
     "ExecutionKernel.finish_round"),
    ("sim.kernel.run_batch", "repro.sim.kernel", "run_batch"),
    ("sim.kernel.checkpoint", "repro.sim.kernel", "ExecutionKernel.checkpoint"),
    ("sim.adversary.normalize_emissions", "repro.sim.adversary",
     "normalize_emissions"),
    ("broadcast.authenticated.note_init", "repro.broadcast.authenticated",
     "AuthenticatedBroadcast.note_init"),
    ("broadcast.authenticated.outgoing", "repro.broadcast.authenticated",
     "AuthenticatedBroadcast.outgoing"),
    ("broadcast.multiplicity.note_message", "repro.broadcast.multiplicity",
     "MultiplicityBroadcast.note_message"),
    ("broadcast.multiplicity.end_round", "repro.broadcast.multiplicity",
     "MultiplicityBroadcast.end_round"),
    ("psync.proper.note", "repro.psync.proper", "IdentifierProperTracker.note"),
    ("psync.proper.note", "repro.psync.proper", "MessageProperTracker.note"),
    ("core.problem.check_agreement_properties", "repro.core.problem",
     "check_agreement_properties"),
    ("sim.metrics.metrics_from_deliveries", "repro.sim.metrics",
     "metrics_from_deliveries"),
    ("soak.mixture.sample_instance", "repro.soak.mixture", "sample_instance"),
    ("soak.mixture.build_instance", "repro.soak.mixture", "build_instance"),
    ("experiments.campaign.cache.store", "repro.experiments.campaign",
     "CampaignCache.store"),
    ("experiments.harness.slice", "repro.experiments.harness",
     "run_solvable_slice"),
    ("experiments.harness.slice", "repro.experiments.harness",
     "run_delay_slice"),
    ("atlas.evidence.run_atlas_unit", "repro.atlas.evidence", "run_atlas_unit"),
    ("atlas.evidence.fuse_evidence", "repro.atlas.evidence", "fuse_evidence"),
)

#: Method families traced on every class of a hierarchy that defines
#: them: ``(base class module, base class, methods, span name or None)``.
#: ``None`` names the span ``<module without "repro.">.<method>``.
FAMILIES = (
    ("repro.sim.adversary", "Adversary", ("emissions",),
     "sim.adversary.emissions"),
    ("repro.sim.kernel", "TimingModel", ("removed_mask",),
     "sim.timing.removed_mask"),
    ("repro.sim.kernel", "TimingModel", ("removed_senders",),
     "sim.timing.removed_senders"),
    ("repro.classic.spec", "ClassicSpec", ("transition",), None),
    ("repro.sim.process", "Process", ("compose",), None),
)

#: Set by :meth:`Tracer.install`; the fork hook resets it in children.
_ACTIVE: "Tracer | None" = None


def _after_fork_in_child() -> None:
    if _ACTIVE is not None:
        _ACTIVE._enter_child()


os.register_at_fork(after_in_child=_after_fork_in_child)


class Tracer:
    """In-memory span recorder plus the counters the metrics need.

    Args:
        spill_dir: Directory pool workers write their spans into.
    """

    def __init__(self, spill_dir: Path) -> None:
        self.spill_dir = Path(spill_dir)
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.op = 0
        self.is_worker = False
        # Span columns; a span's index is its position in every column.
        self.s_name = array("i")
        self.s_parent = array("q")
        self.s_op = array("i")
        self.s_start = array("q")
        self.s_end = array("q")
        #: Open spans, innermost last; ``-1`` is the root sentinel.
        self.stack: list[int] = [-1]
        self.counts: Counter = Counter()
        self._echo_seen: dict = {}
        self._parse_seen: set = set()
        self._round_inboxes: list = []
        self._fabric_span = -2
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, after=None, flush_root: bool = False):
        """A span-recording wrapper around ``fn``.

        ``after(result, args, kwargs)`` runs once the span has closed;
        ``flush_root`` spills a worker's buffers when its root span
        closes.
        """
        nid = self.name_id(name)
        clock = time.perf_counter_ns
        stack, s_name, s_parent = self.stack, self.s_name, self.s_parent
        s_op, s_start, s_end = self.s_op, self.s_start, self.s_end
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(s_name)
            s_name.append(nid)
            s_parent.append(stack[-1])
            s_op.append(tracer.op)
            s_end.append(0)
            stack.append(idx)
            s_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                s_end[idx] = clock()
                stack.pop()
            if after is not None:
                after(result, args, kwargs)
            if flush_root and tracer.is_worker and len(stack) == 1:
                tracer._spill()
            return result

        functools.update_wrapper(wrapper, fn, updated=())
        return wrapper

    def span(self, name: str):
        """Context manager recording one span (the benchmark's op span)."""
        return _Span(self, self.name_id(name))

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace_everywhere(self, original, wrapper, skip=()) -> None:
        """Rebind ``original`` to ``wrapper`` in every ``repro`` module."""
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("repro") or mod_name in skip:
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def _install_function(self, name, module, path, after=None,
                          flush_root=False, skip=()) -> None:
        owner = importlib.import_module(module)
        *classes, attr = path.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        original = getattr(owner, attr)
        wrapper = self.wrap(original, name, after, flush_root)
        if classes:
            self._set(owner, attr, wrapper)
        else:
            self._replace_everywhere(original, wrapper, skip)

    def install(self) -> None:
        """Import every ``repro`` module and wrap every boundary."""
        global _ACTIVE
        import repro

        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            if not info.name.endswith("__main__"):
                importlib.import_module(info.name)
        for name, module, path in BOUNDARIES:
            self._install_function(name, module, path)
        for module, base_name, methods, span_name in FAMILIES:
            base = getattr(importlib.import_module(module), base_name)
            for cls in _subclasses(base):
                for method in methods:
                    fn = cls.__dict__.get(method)
                    if fn is None or getattr(fn, "__isabstractmethod__", False):
                        continue
                    name = span_name or _module_span(cls, method)
                    self._set(cls, method, self.wrap(fn, name))
        self._install_special()
        _ACTIVE = self

    def _install_special(self) -> None:
        """Boundaries whose wrappers also count something."""
        from repro.broadcast import authenticated
        from repro.core import messages
        from repro.sim import fabric
        from repro.sim.process import Process

        counts = self.counts
        echo_seen, parse_seen = self._echo_seen, self._parse_seen

        # Echo bookkeeping: distinct (receiver, sender id, key) triples.
        note_echo = authenticated.AuthenticatedBroadcast.note_echo

        def echo_novelty(_result, args, _kwargs):
            receiver, sender, message, superround, echoed = args[:5]
            # Per live receiver; a dead receiver's entry goes with it,
            # so explorer branches do not pin their process copies.
            rid = id(receiver)
            entry = echo_seen.get(rid)
            if entry is None:
                entry = echo_seen[rid] = (weakref.ref(
                    receiver, lambda _ref, rid=rid: echo_seen.pop(rid, None)
                ), set())
            key = (sender, message, superround, echoed)
            if key not in entry[1]:
                entry[1].add(key)
                counts["echo_novel"] += 1

        self._set(authenticated.AuthenticatedBroadcast, "note_echo",
                  self.wrap(note_echo, "broadcast.authenticated.note_echo",
                            echo_novelty))

        # Broadcast parsing: distinct item tuples per delivered round.
        def parse_distinct(_result, args, _kwargs):
            items = args[0]
            if not isinstance(items, tuple) or items not in parse_seen:
                if isinstance(items, tuple):
                    parse_seen.add(items)
                counts["parse_distinct"] += 1

        self._install_function(
            "broadcast.authenticated.parse_broadcast_items",
            "repro.broadcast.authenticated", "parse_broadcast_items",
            parse_distinct,
        )

        # The fabric round: timing activity, path, deliveries, inboxes.
        deliver_round = fabric.deliver_round
        inner = self.wrap(deliver_round, "sim.fabric.deliver_round")
        inboxes = self._round_inboxes
        tracer = self

        def traced_deliver_round(kernel, round_no, payloads, emissions):
            active = kernel.timing.active(round_no)
            counts["rounds"] += 1
            counts["active_rounds"] += active
            counts["array_rounds"] += active and fabric.array_path_enabled()
            parse_seen.clear()
            del inboxes[:]
            outer = tracer._fabric_span
            tracer._fabric_span = len(tracer.s_name)
            try:
                record = inner(kernel, round_no, payloads, emissions)
            finally:
                tracer._fabric_span = outer
            counts["inbox_deliveries"] += len(inboxes)
            counts["inbox_objects"] += len({id(x) for x in inboxes})
            del inboxes[:]
            counts["deliveries"] += (
                record.correct_deliveries + record.byzantine_deliveries
            )
            counts["byz_deliveries"] += record.byzantine_deliveries
            counts["payload_bytes"] += (
                record.correct_payload_bytes + record.byzantine_payload_bytes
            )
            return record

        functools.update_wrapper(traced_deliver_round, deliver_round)
        self._replace_everywhere(deliver_round, traced_deliver_round)

        # Process.deliver on every protocol class: the inbox each
        # receiver is handed straight from the fabric round.
        for cls in _subclasses(Process):
            fn = cls.__dict__.get("deliver")
            if fn is None or getattr(fn, "__isabstractmethod__", False):
                continue
            self._set(cls, "deliver",
                      self._deliver_wrapper(fn, _module_span(cls, "deliver")))

        # Inbox construction inside the fabric (both constructors).
        build = self.wrap(messages.Inbox, "core.messages.inbox")
        build.from_canonical = self.wrap(
            messages.Inbox.from_canonical, "core.messages.inbox"
        )
        self._set(fabric, "Inbox", build)

        # Explorer search: nodes expanded per certificate.
        def explore_nodes(certificate, _args, _kwargs):
            counts["explore_nodes"] += certificate.stats.nodes_expanded

        self._install_function("explore.search.explore",
                               "repro.explore.search", "explore", explore_nodes)
        # The recursive canonicaliser: trace outer calls only.
        self._install_function("core.canonical.canonical_state_key",
                               "repro.core.canonical", "canonical_state_key",
                               skip=("repro.core.canonical",))

        # Log appends: bytes written per op.
        from repro.atlas.stream import AtlasLog

        for method in ("append", "append_many"):
            self._set(AtlasLog, method,
                      self._append_wrapper(AtlasLog.__dict__[method]))

        # Unit execution: a pool worker's root span; spill after each.
        # The benchmark process counts the units it hands to a pool, so
        # a worker whose spill never arrived is detected.
        def unit_done(_result, _args, _kwargs):
            counts["worker_units" if self.is_worker else "inline_units"] += 1

        self._install_function("experiments.campaign.execute_unit",
                               "repro.experiments.campaign", "execute_unit",
                               unit_done, flush_root=True)

        def pooled(_result, args, kwargs):
            pending, workers = args[0], args[1]
            if workers > 1:
                counts["pooled_units"] += len(pending)

        self._install_function("experiments.campaign.execute_units",
                               "repro.experiments.campaign", "execute_units",
                               pooled)

    def _deliver_wrapper(self, fn, name):
        inner = self.wrap(fn, name)
        inboxes, stack, tracer = self._round_inboxes, self.stack, self

        def deliver(process, round_no, inbox):
            if stack[-1] == tracer._fabric_span:
                inboxes.append(inbox)
            return inner(process, round_no, inbox)

        functools.update_wrapper(deliver, fn)
        return deliver

    def _append_wrapper(self, fn):
        inner = self.wrap(fn, "atlas.stream.append")
        counts = self.counts

        def append(log, rows):
            before = log.path.stat().st_size if log.path.exists() else 0
            result = inner(log, rows)
            counts["log_bytes"] += log.path.stat().st_size - before
            return result

        functools.update_wrapper(append, fn)
        return append

    def uninstall(self) -> None:
        """Restore every replaced attribute (reverse order)."""
        global _ACTIVE
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        _ACTIVE = None

    # ------------------------------------------------------------------
    # Ops and worker spill
    # ------------------------------------------------------------------
    def begin_op(self, op: int) -> None:
        """Start op ``op``: per-op dedup sets start empty."""
        self.op = op
        self._echo_seen.clear()

    def _enter_child(self) -> None:
        self.is_worker = True
        self._clear_buffers()
        del self.stack[1:]
        self.counts.clear()
        self._echo_seen.clear()
        self._parse_seen.clear()
        del self._round_inboxes[:]

    def _clear_buffers(self) -> None:
        for column in (self.s_name, self.s_parent, self.s_op,
                       self.s_start, self.s_end):
            del column[:]

    def _chunk(self) -> dict:
        return {
            "pid": os.getpid(),
            "names": list(self.names),
            "columns": [self.s_name, self.s_parent, self.s_op,
                        self.s_start, self.s_end],
            "counts": dict(self.counts),
        }

    def _spill(self) -> None:
        self.spill_dir.mkdir(parents=True, exist_ok=True)
        with open(self.spill_dir / f"worker-{os.getpid()}.pkl", "ab") as fh:
            pickle.dump(self._chunk(), fh)
        self._clear_buffers()
        self.counts.clear()
        self._echo_seen.clear()

    def collect(self) -> list[dict]:
        """This process's chunk followed by every spilled worker chunk."""
        chunks = [self._chunk()]
        if self.spill_dir.exists():
            for path in sorted(self.spill_dir.glob("worker-*.pkl")):
                with open(path, "rb") as fh:
                    while True:
                        try:
                            chunks.append(pickle.load(fh))
                        except EOFError:
                            break
        return chunks


class _Span:
    def __init__(self, tracer: Tracer, nid: int) -> None:
        self.tracer, self.nid = tracer, nid

    def __enter__(self):
        tr = self.tracer
        self.idx = len(tr.s_name)
        tr.s_name.append(self.nid)
        tr.s_parent.append(tr.stack[-1])
        tr.s_op.append(tr.op)
        tr.s_end.append(0)
        tr.stack.append(self.idx)
        tr.s_start.append(time.perf_counter_ns())
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        tr.s_end[self.idx] = time.perf_counter_ns()
        tr.stack.pop()
        return False


def _subclasses(base) -> list:
    seen, todo = [base], [base]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in seen:
                seen.append(sub)
                todo.append(sub)
    return seen


def _module_span(cls, method: str) -> str:
    return f"{cls.__module__.removeprefix('repro.')}.{method}"


def columns(chunk: dict):
    """The span columns of a chunk as (zero-copy) numpy arrays."""
    import numpy as np

    return [np.frombuffer(col, dtype=np.int32 if col.typecode == "i"
                          else np.int64)
            for col in chunk["columns"]]


#: Metrics whose spans and counters live in the benchmark process
#: itself; every other metric may hide pool-worker work.
MAIN_PROCESS_METRICS = frozenset((
    "experiments.campaign.execute_units.wait_share",
    "experiments.campaign.cache.store.calls_per_op",
    "experiments.campaign.cache.store.self_share",
    "atlas.stream.append.self_share",
    "atlas.stream.bytes_per_op",
    "trace.overhead_ratio",
))


def derive(chunks: list[dict], ops: int, untraced_wall_s: float,
           specs: dict[str, dict]) -> tuple[dict[str, float], list[str]]:
    """Turn collected chunks into the per-layer metrics.

    Args:
        chunks: :meth:`Tracer.collect` output (benchmark process first).
        ops: Ops the traced calls performed.
        untraced_wall_s: Wall time of the same calls without tracing.
        specs: ``metric name -> {"unit", "better", ["from"]}``.

    Returns:
        ``(metrics, unmeasured)``: the values of every measured metric
        and the names of the metrics the tracer could not see.
    """
    import numpy as np

    self_ns: Counter = Counter()
    calls: Counter = Counter()
    main_self_ns: Counter = Counter()
    counts: Counter = Counter()
    main_wall_ns = 0
    process_ns = 0
    for position, chunk in enumerate(chunks):
        counts.update(chunk["counts"])
        name, parent, _op, start, end = columns(chunk)
        if not len(name):
            continue
        dur = end - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested],
                            minlength=len(dur))
        own = dur - child
        names = chunk["names"]
        per_self = np.bincount(name, weights=own, minlength=len(names))
        per_calls = np.bincount(name, minlength=len(names))
        for nid, label in enumerate(names):
            self_ns[label] += float(per_self[nid])
            calls[label] += int(per_calls[nid])
            if position == 0:
                main_self_ns[label] += float(per_self[nid])
        roots = dur[~nested]
        if position == 0:
            op_id = names.index(OP_SPAN) if OP_SPAN in names else -1
            main_wall_ns = int(dur[(~nested) & (name == op_id)].sum())
            process_ns += main_wall_ns
        else:
            process_ns += int(roots.sum())
    named_ns = sum(v for k, v in self_ns.items() if k != OP_SPAN)

    def operand(token: str) -> float:
        if token.startswith("calls:"):
            return calls[token[len("calls:"):]]
        return counts[token]

    def value(metric: str, spec: dict) -> float:
        source = spec.get("from")
        if source is None:
            prefix, _, kind = metric.rpartition(".")
            source = {"self_share": "self:", "calls_per_op": "calls:"}[kind] + prefix
        kind, _, arg = source.partition(":")
        if kind == "self":
            return self_ns[arg] / process_ns if process_ns else 0.0
        if kind == "calls":
            return calls[arg] / ops
        if kind == "count":
            return counts[arg] / ops
        if kind == "wait":
            return main_self_ns[arg] / main_wall_ns if main_wall_ns else 0.0
        if kind == "ratio":
            top, _, bottom = arg.partition("/")
            den = operand(bottom)
            return operand(top) / den if den else 0.0
        if source == "meta:overhead":
            return main_wall_ns / 1e9 / untraced_wall_s
        if source == "meta:coverage":
            return named_ns / process_ns if process_ns else 0.0
        raise ValueError(f"unknown metric source {source!r} for {metric}")

    blind = counts["pooled_units"] > counts["worker_units"]
    metrics: dict[str, float] = {}
    unmeasured: list[str] = []
    for metric, spec in specs.items():
        if blind and metric not in MAIN_PROCESS_METRICS:
            unmeasured.append(metric)
        else:
            metrics[metric] = value(metric, spec)
    return metrics, unmeasured


def save_spans(chunks: list[dict], path: Path) -> None:
    """Write every span (name, start, end, parent, op, pid) to ``path``."""
    import numpy as np

    names: list[str] = []
    rows = {key: [] for key in ("name", "parent", "op", "start", "end", "pid")}
    for chunk in chunks:
        name, parent, op, start, end = columns(chunk)
        remap = np.asarray(
            [_index(names, label) for label in chunk["names"]] or [0],
            dtype=np.int32,
        )
        rows["name"].append(remap[name] if len(name) else name)
        rows["parent"].append(parent.astype(np.int32))
        rows["op"].append(op)
        rows["start"].append(start)
        rows["end"].append(end)
        rows["pid"].append(np.full(len(name), chunk["pid"], dtype=np.int32))
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez(path, names=np.asarray(names),
             **{key: np.concatenate(parts) for key, parts in rows.items()})


def _index(names: list[str], label: str) -> int:
    if label not in names:
        names.append(label)
    return names.index(label)
