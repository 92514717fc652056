"""Span tracing for the benchmark's traced run, applied to fedvib from outside.

``traced(tracer)`` wraps public functions and methods of ``fedvib`` for the
duration of a ``with`` block.  A module-level function is replaced in every
loaded fedvib module that bound it by name, so a caller that imported it
directly (``fedvib.proto.node.train_epochs``, ``fedvib.proto.transport.
encode_frame``) calls the wrapper too.  Leaving the block restores every
original; nothing under ``src/`` changes.

Each wrapped call records a span: name, trace label, parent span, thread,
thread role (``node:<id>`` inside ``TrainingNode.run``, ``aggregator`` inside
``AggregationNode.run``), start, end and a few attributes such as the kernel
shape or the message type.  Spans stay in memory until the run ends.
"""

import functools
import importlib
import itertools
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

from metrics import median, self_time


@dataclass
class Span:
    id: int
    parent: int | None
    trace: str
    name: str
    role: str | None
    thread: int
    start: float
    end: float
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Collects spans from every thread; ``trace`` labels the current unit of
    work (``setup-<i>`` or ``sample-<i>``) and is set by the benchmark."""

    def __init__(self):
        self.spans = []
        self.trace = "setup-0"
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, target, fn, args, kwargs):
        local = self._local
        outer_role = getattr(local, "role", None)
        if target.role is not None:
            local.role = target.role(args)
        before = target.before(args) if target.before else None
        cpu0 = time.thread_time() if target.cpu else 0.0
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        result = error = None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as e:
            error = e
            raise
        finally:
            end = time.perf_counter()
            stack.pop()
            attrs = target.describe(args, result, before) if target.describe and error is None else {}
            if target.cpu:
                attrs["cpu_s"] = time.thread_time() - cpu0
            if error is not None:
                attrs["error"] = type(error).__name__
            self.spans.append(Span(span_id, parent, self.trace, target.name,
                                   getattr(local, "role", None), threading.get_ident(),
                                   start, end, attrs))
            local.role = outer_role

    def dump(self):
        return [asdict(s) for s in self.spans]


# -- what gets wrapped ----------------------------------------------------------

def _kernel_shape(args, result, before):
    x, U = args[0], args[2]
    T, B, I = x.shape
    return {"shape": f"{I}x{U.shape[1]}.b{B}"}


def _windows(args, result, before):
    return {"windows": len(args[1])}


def _message(msg):
    return {"msg": type(msg).__name__ if msg is not None else "close",
            "round": getattr(msg, "round", None)}


def _sent(args, result, before):
    return {**_message(args[1]), "bytes": result}


def _received(args, result, before):
    return {**_message(result), "bytes": args[0].bytes_received - before}


def _frame(args, result, before):
    return {"bytes": len(result)}


def _round(args, result, before):
    return {"round": args[0].round}


@dataclass(frozen=True)
class Target:
    name: str
    module: str
    attr: str                   # "function" or "Class.method"
    describe: object = None     # (args, result, before) -> attrs
    before: object = None       # args -> value handed to describe
    role: object = None         # args -> role of the calling thread inside the call
    cpu: bool = False           # record thread CPU time


TARGETS = (
    Target("data.prepare_node", "fedvib.harness.federation", "prepare_node"),
    Target("nn.kernels.lstm_forward", "fedvib.nn.kernels", "lstm_forward", _kernel_shape),
    Target("nn.kernels.lstm_backward", "fedvib.nn.kernels", "lstm_backward", _kernel_shape),
    Target("nn.optim.adam_step", "fedvib.nn.optim", "adam_step"),
    Target("nn.ops.clip_gradients", "fedvib.nn.ops", "clip_gradients"),
    Target("nn.ops.weight_delta", "fedvib.nn.ops", "weight_delta"),
    Target("nn.ops.apply_weight_delta", "fedvib.nn.ops", "apply_weight_delta"),
    Target("model.forward", "fedvib.model", "LstmAutoencoder.forward"),
    Target("model.backward", "fedvib.model", "LstmAutoencoder.backward"),
    Target("model.reconstruct", "fedvib.model", "LstmAutoencoder.reconstruct", _windows),
    Target("model.train_epochs", "fedvib.model", "train_epochs", cpu=True),
    Target("model.evaluate_loss", "fedvib.model", "evaluate_loss", _windows),
    Target("model.window_scores", "fedvib.model", "window_scores", _windows),
    Target("model.batch_anomaly_score", "fedvib.model", "batch_anomaly_score"),
    Target("proto.node.run", "fedvib.proto.node", "TrainingNode.run",
           role=lambda args: f"node:{args[0].config.client_id}"),
    Target("proto.aggregator.run", "fedvib.proto.aggregator", "AggregationNode.run",
           role=lambda args: "aggregator"),
    Target("proto.aggregator.round_state", "fedvib.proto.aggregator", "RoundState.__init__", _round),
    Target("proto.aggregator.record", "fedvib.proto.aggregator", "RoundState.record", _round),
    Target("proto.aggregator.aggregate", "fedvib.proto.aggregator", "RoundState.aggregate", _round),
    Target("proto.weights.fedavg", "fedvib.proto.weights", "fedavg"),
    Target("proto.weights.apply_delta", "fedvib.proto.weights", "apply_delta"),
    Target("proto.wire.encode", "fedvib.proto.wire", "encode_frame", _frame),
    Target("proto.wire.decode", "fedvib.proto.wire", "decode_frame"),
    Target("proto.transport.send", "fedvib.proto.transport", "QueueEndpoint.send", _sent),
    Target("proto.transport.send", "fedvib.proto.transport", "SocketEndpoint.send", _sent),
    Target("proto.transport.recv", "fedvib.proto.transport", "QueueEndpoint.recv", _received,
           before=lambda args: args[0].bytes_received),
    Target("proto.transport.recv", "fedvib.proto.transport", "SocketEndpoint.recv", _received,
           before=lambda args: args[0].bytes_received),
)


def _wrap(tracer, target, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(target, fn, args, kwargs)
    return wrapper


def _install(tracer, target, restores):
    module = importlib.import_module(target.module)
    if "." in target.attr:
        cls_name, meth = target.attr.split(".")
        cls = getattr(module, cls_name)
        own = meth in vars(cls)
        original = getattr(cls, meth)
        setattr(cls, meth, _wrap(tracer, target, original))
        restores.append((cls, meth, original if own else None))
        return
    original = getattr(module, target.attr)
    wrapper = _wrap(tracer, target, original)
    for name, mod in list(sys.modules.items()):
        if name == "fedvib" or name.startswith("fedvib."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    restores.append((mod, attr, original))


@contextmanager
def traced(tracer):
    """Wrap every target for the duration of the block, then restore them."""
    restores = []
    try:
        for target in TARGETS:
            _install(tracer, target, restores)
        yield tracer
    finally:
        for owner, attr, original in reversed(restores):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


# -- analysis -------------------------------------------------------------------

@dataclass
class NodeRound:
    trace: str
    node: str
    round: int
    wall: float
    phases: dict
    windows: int

    @property
    def coverage(self):
        return sum(self.phases.values()) / self.wall


def self_times(spans):
    """Span id -> duration minus the time covered by its child spans."""
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: self_time(s.start, s.end, children.get(s.id, ())) for s in spans}


def node_rounds(spans):
    """Split each node's thread into rounds and attribute its time to phases.

    A node's round r runs from the moment it has received global model r to
    the moment it has received model r+1.  In between it trains (the
    validation loss is evaluated inside training), calibrates its threshold,
    sends its delta and waits for the next model.
    """
    by_node = {}
    for s in spans:
        if s.role and s.role.startswith("node:"):
            by_node.setdefault((s.trace, s.role), []).append(s)
    rounds = []
    for (trace, role), node_spans in sorted(by_node.items()):
        models = sorted((s for s in node_spans if s.name == "proto.transport.recv"
                         and s.attrs.get("msg") == "GlobalModel"), key=lambda s: s.end)
        for a, b in zip(models, models[1:]):
            inside = [s for s in node_spans if s.start >= a.end and s.end <= b.end]

            def total(name):
                return sum(s.duration for s in inside if s.name == name)

            val = total("model.evaluate_loss")
            phases = {"train": total("model.train_epochs") - val, "val_loss": val,
                      "calibrate": total("model.window_scores"),
                      "send": total("proto.transport.send"),
                      "wait": total("proto.transport.recv")}
            windows = sum(s.attrs["windows"] for s in inside if s.name == "model.reconstruct")
            rounds.append(NodeRound(trace, role[len("node:"):], a.attrs["round"],
                                    b.end - a.end, phases, windows))
    return rounds


@dataclass
class AggregatorRound:
    trace: str
    round: int
    wait_deltas: float
    arrival_spread: float
    broadcast: float


def aggregator_rounds(spans):
    """Per round: time from round start to the last delta's arrival, spread of
    arrivals, and time spent sending the next global model to every client."""
    out = []
    for start in (s for s in spans if s.name == "proto.aggregator.round_state"):
        mine = [s for s in spans if s.trace == start.trace
                and not (s.role or "").startswith("node:")]
        arrivals = [s.end for s in mine if s.name == "proto.transport.recv"
                    and s.attrs.get("msg") == "DeltaSubmission"
                    and s.attrs.get("round") == start.attrs["round"]]
        if not arrivals:
            continue
        broadcast = sum(s.duration for s in mine if s.name == "proto.transport.send"
                        and s.role == "aggregator" and s.attrs.get("msg") == "GlobalModel"
                        and s.attrs.get("round") == start.attrs["round"] + 1)
        out.append(AggregatorRound(start.trace, start.attrs["round"],
                                   max(arrivals) - start.end,
                                   max(arrivals) - min(arrivals), broadcast))
    return out


def _median_or_zero(values):
    return median(values) if values else 0.0


def layer_metrics(spans):
    """Per-module metrics from one traced run.

    ``data.prepare_node_s`` comes from the ``setup-*`` traces; everything else
    from the ``sample-*`` traces.  Times are medians per call (or per node
    round, or per aggregator round); counts are totals over the traced samples
    unless the name says otherwise.
    """
    setup = [s for s in spans if s.trace.startswith("setup-")]
    spans = [s for s in spans if s.trace.startswith("sample-")]
    samples = sorted({s.trace for s in spans})
    out = {"data.prepare_node_s": _median_or_zero(
        [s.duration for s in setup if s.name == "data.prepare_node"])}

    def durations(name):
        return [s.duration for s in spans if s.name == name]

    for kind in ("forward", "backward"):
        by_shape = {}
        for s in spans:
            if s.name == f"nn.kernels.lstm_{kind}":
                by_shape.setdefault(s.attrs["shape"], []).append(s.duration)
        for shape, values in by_shape.items():
            out[f"nn.kernels.lstm_{kind}_s.{shape}"] = median(values)
            out[f"nn.kernels.lstm_{kind}_calls.{shape}"] = len(values)

    own = self_times(spans)
    for name in ("forward", "backward"):
        out[f"model.{name}_s"] = _median_or_zero(
            [own[s.id] for s in spans if s.name == f"model.{name}"])
    for metric, name in (("model.train_epochs_s", "model.train_epochs"),
                         ("model.evaluate_loss_s", "model.evaluate_loss"),
                         ("model.window_scores_s", "model.window_scores"),
                         ("nn.optim.adam_step_s", "nn.optim.adam_step"),
                         ("nn.ops.clip_gradients_s", "nn.ops.clip_gradients"),
                         ("nn.ops.weight_delta_s", "nn.ops.weight_delta"),
                         ("proto.weights.fedavg_s", "proto.weights.fedavg"),
                         ("proto.weights.apply_delta_s", "proto.weights.apply_delta"),
                         ("proto.wire.encode_s", "proto.wire.encode"),
                         ("proto.wire.decode_s", "proto.wire.decode")):
        out[metric] = _median_or_zero(durations(name))

    rounds = node_rounds(spans)
    out["model.forward_windows"] = (sum(r.windows for r in rounds) / len(rounds)) if rounds else 0
    out["proto.node.wait_global_s"] = _median_or_zero([r.phases["wait"] for r in rounds])
    train = [s for s in spans if s.name == "model.train_epochs" and s.role]
    wall = sum(s.duration for s in train)
    out["proto.node.train_cpu_share"] = (sum(s.attrs["cpu_s"] for s in train) / wall) if wall else 0.0

    agg = aggregator_rounds(spans)
    out["proto.aggregator.wait_deltas_s"] = _median_or_zero([r.wait_deltas for r in agg])
    out["proto.aggregator.arrival_spread_s"] = _median_or_zero([r.arrival_spread for r in agg])
    out["proto.aggregator.broadcast_s"] = _median_or_zero([r.broadcast for r in agg])

    def per_sample(select):
        return _median_or_zero([sum(select(s) for s in spans if s.trace == t) for t in samples])

    out["proto.wire.frames"] = per_sample(lambda s: s.name == "proto.wire.encode")
    for direction, name in (("sent", "proto.transport.send"), ("received", "proto.transport.recv")):
        out[f"proto.transport.bytes_{direction}"] = per_sample(
            lambda s, name=name: s.attrs.get("bytes", 0)
            if s.name == name and not (s.role or "").startswith("node:") else 0)
    return out


def self_time_table(spans):
    """(name, calls, total seconds, total self seconds) per span name, by self time."""
    own = self_times(spans)
    table = {}
    for s in spans:
        calls, total, self_total = table.get(s.name, (0, 0.0, 0.0))
        table[s.name] = (calls + 1, total + s.duration, self_total + own[s.id])
    return sorted(((name, *row) for name, row in table.items()), key=lambda r: -r[3])
