"""Span tracing for the benchmark's *traced* run, installed from outside.

``install()`` replaces, at run time and by plain attribute assignment, the
public entry points of every ``repro`` layer with timing wrappers.  Nothing
under ``src/`` knows about it.  Each wrapped call is a *span* (name, layer,
start, end, parent); per-name count / total / self time are aggregated
online with a span stack, where a span's self time is its duration minus
the part its child spans cover.  The first ``RAW_SPAN_LIMIT`` spans are
also kept raw and can be written out as Chrome-trace JSON.

A layer is the ``repro`` sub-package the code lives in.  Work reaches a
layer in two ways, and both are spans:

- a call into one of its public entry points (``METHODS`` / ``FUNCTIONS``);
- a callback it handed across a boundary — an event callback given to
  ``Simulator.schedule*``, a job action given to ``Processor.submit`` /
  ``add_task``, a listener given to ``Tracer.subscribe``, a receive handler
  given to ``UdpEndpoint``, a generator given to ``Simulator.spawn``.  The
  boundary wrapper tags the callback with its owner's layer, so a
  dispatched event is attributed to whoever scheduled it.

The wrappers change no argument and no return value, so the model's trace
digest must equal the untraced run's; ``run.py`` checks that it does.
End-to-end metrics are never taken from a traced run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from typing import Any, Callable, Dict, List, Tuple

RAW_SPAN_LIMIT = 100_000

#: repro sub-package -> layer name used in metric names.
LAYER_OF_PACKAGE = {
    "sim": "sim", "sched": "sched", "xkernel": "xkernel", "net": "net",
    "core": "core", "consistency": "core", "cluster": "cluster",
    "replicas": "replicas", "elastic": "elastic", "faults": "faults",
    "metrics": "metrics", "experiments": "experiments",
    "parallel": "experiments", "workload": "experiments",
}
LAYERS = sorted(set(LAYER_OF_PACKAGE.values()))

#: The benchmark's own spans (phases) and anything outside ``repro``.
BENCH_LAYER = "bench"

#: (module, class, method) entry points wrapped as plain spans.  The layer
#: is the module's package, except ``Tracer.select``: it is the collectors'
#: query primitive (objects x records scans), so its time belongs to the
#: ``metrics`` ledger row the telemetry work is judged by, not to the engine.
METHODS: List[Tuple[str, str, str]] = [
    ("repro.sim.engine", "Simulator", "reschedule_at"),
    ("repro.sim.trace", "Tracer", "record"),
    ("repro.sim.trace", "Tracer", "digest"),
    ("repro.sched.processor", "Processor", "remove_task"),
    ("repro.xkernel.message", "Message", "__init__"),
    ("repro.xkernel.message", "Header", "__init__"),
    ("repro.xkernel.message", "Header", "push_onto"),
    ("repro.xkernel.message", "Header", "pop_from"),
    ("repro.net.transport", "UdpEndpoint", "send"),
    ("repro.net.transport", "UdpEndpoint", "receive"),
    ("repro.net.udp", "UDPProtocol", "send"),
    ("repro.net.udp", "UDPProtocol", "demux"),
    ("repro.net.udp", "UDPSession", "push"),
    ("repro.net.ip", "IPProtocol", "send"),
    ("repro.net.ip", "IPProtocol", "demux"),
    ("repro.net.ip", "IPSession", "push"),
    ("repro.core.server", "ReplicaServer", "client_write"),
    ("repro.core.server", "ReplicaServer", "client_read"),
    ("repro.core.update_scheduler", "UpdateTransmitter", "send_now"),
    ("repro.core.admission", "AdmissionController", "evaluate"),
    ("repro.core.admission", "AdmissionController", "admit"),
    ("repro.cluster.placement", "PlacementEngine", "place_group"),
    ("repro.cluster.placement", "PlacementEngine", "place_replica"),
    ("repro.cluster.placement", "PlacementEngine", "try_admit"),
    ("repro.replicas.router", "ReadRouter", "route"),
    ("repro.replicas.server", "ReadReplica", "serve_read"),
    ("repro.elastic.migration", "ShardMigration", "start"),
]

#: (module, function) entry points; each is replaced in every loaded module
#: that holds a reference under the same name (``from x import f`` copies).
FUNCTIONS: List[Tuple[str, str]] = [
    ("repro.core.rtpb_protocol", "encode_message"),
    ("repro.core.rtpb_protocol", "decode_message"),
    ("repro.experiments.harness", "collect"),
    ("repro.experiments.harness", "run_scenario"),
    ("repro.experiments.figures", "figure6_response_time_with_admission"),
    ("repro.experiments.figures", "figure8_distance_vs_loss"),
    ("repro.cluster.metrics", "collect_cluster"),
    ("repro.workload.scenarios", "build_scenario"),
    ("repro.workload.cluster", "build_cluster"),
]

#: Classes whose instances are remembered so their public counters can be
#: summed after the run (the figure sweep builds its services out of reach).
TRACKED = [
    ("repro.sim.engine", "Simulator"),
    ("repro.net.link", "NetworkFabric"),
    ("repro.sched.processor", "Processor"),
]


def layer_of_module(module_name: str) -> str:
    parts = module_name.split(".")
    if parts[0] != "repro" or len(parts) < 2:
        return BENCH_LAYER
    return LAYER_OF_PACKAGE.get(parts[1], BENCH_LAYER)


class _OwnedGenerator:
    """A generator whose every resumption is a span of its owner's layer."""

    def __init__(self, generator: Any, wrap: Callable[[Callable], Callable]
                 ) -> None:
        self._send = wrap(generator.send)
        self._throw = wrap(generator.throw)
        self.close = generator.close
        self.__name__ = getattr(generator, "__name__", "process")

    def send(self, value: Any) -> Any:
        return self._send(value)

    def throw(self, exception: BaseException) -> Any:
        return self._throw(exception)


class Recorder:
    """Span aggregation state of one traced run."""

    def __init__(self) -> None:
        #: span name -> [count, total seconds, self seconds]
        self.stats: Dict[str, List[float]] = {}
        #: span name -> layer
        self.layers: Dict[str, str] = {}
        #: open spans, innermost last: [seconds covered by children, id].
        #: The sentinel at the bottom collects the root spans' durations.
        self.stack: List[List[float]] = [[0.0, -1]]
        #: (id, name, start, end, parent id) of the first RAW_SPAN_LIMIT spans
        self.raw: List[Tuple[int, str, float, float, int]] = []
        self.next_id = 0
        self.instances: Dict[str, List[Any]] = {}
        self.events_run = 0
        self.bytes_sent = 0
        self._layer_cache: Dict[str, str] = {}
        self._listeners: Dict[Tuple[int, Any], Callable] = {}

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------

    def span(self, name: str, layer: str, fn: Callable) -> Callable:
        """``fn`` wrapped so every call is one span called ``name``."""
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = [0, 0.0, 0.0]
            self.layers[name] = layer
        stack = self.stack
        raw = self.raw
        clock = time.perf_counter
        recorder = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            span_id = recorder.next_id
            recorder.next_id = span_id + 1
            parent = stack[-1]
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[0]
                parent[0] += elapsed
                if span_id < RAW_SPAN_LIMIT:
                    raw.append((span_id, name, start, end, int(parent[1])))

        return wrapper

    def owned(self, callback: Callable, kind: str) -> Callable:
        """``callback`` as a span ``<owner layer>.<kind>``."""
        layer = self.owner_layer(callback)
        return self.span(f"{layer}.{kind}", layer, callback)

    def owner_layer(self, callback: Any) -> str:
        """The layer of the code a callback runs (its defining module)."""
        target = callback
        while True:
            inner = (getattr(target, "__func__", None)
                     or getattr(target, "func", None))
            if inner is None:
                break
            target = inner
        module = getattr(target, "__module__", None) or type(target).__module__
        layer = self._layer_cache.get(module)
        if layer is None:
            layer = self._layer_cache[module] = layer_of_module(module)
        return layer

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def layer_self_seconds(self) -> Dict[str, float]:
        """Self time summed per layer (every span counted once)."""
        totals = {layer: 0.0 for layer in LAYERS + [BENCH_LAYER]}
        for name, stat in self.stats.items():
            totals[self.layers[name]] += stat[2]
        return totals

    def write_chrome_trace(self, path: str) -> None:
        """The raw spans as Chrome-trace JSON (chrome://tracing, Perfetto)."""
        if not self.raw:
            return
        origin = min(span[2] for span in self.raw)
        events = [
            {"name": name, "cat": self.layers[name], "ph": "X",
             "pid": 1, "tid": 1,
             "ts": round((start - origin) * 1e6, 3),
             "dur": round((end - start) * 1e6, 3),
             "args": {"id": span_id, "parent": parent}}
            for span_id, name, start, end, parent in self.raw]
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"},
                      handle)


# ----------------------------------------------------------------------
# Installation
# ----------------------------------------------------------------------


def install() -> Recorder:
    """Wrap every entry point; import the modules first if need be."""
    recorder = Recorder()
    for module_name, class_name, method in METHODS:
        cls = getattr(importlib.import_module(module_name), class_name)
        layer = layer_of_module(module_name)
        _replace_method(cls, method, functools.partial(
            recorder.span, f"{layer}.{class_name}.{method}", layer))
    from repro.sim.trace import Tracer

    _replace_method(Tracer, "select", functools.partial(
        recorder.span, "metrics.Tracer.select", "metrics"))
    for module_name, function in FUNCTIONS:
        _replace_function(recorder, module_name, function)
    _wrap_collectors(recorder)
    for module_name, class_name in TRACKED:
        _track_instances(recorder, module_name, class_name)
    _install_boundaries(recorder)
    return recorder


def _replace_method(cls: type, method: str,
                    wrap: Callable[[Callable], Callable]) -> None:
    original = cls.__dict__[method]
    if isinstance(original, classmethod):
        wrapper = wrap(original.__func__)
        _copy_identity(original.__func__, wrapper)
        setattr(cls, method, classmethod(wrapper))
        return
    wrapper = wrap(original)
    _copy_identity(original, wrapper)
    setattr(cls, method, wrapper)


def _copy_identity(original: Any, wrapper: Any) -> None:
    # A wrapped method handed on as a callback must still name its owner.
    wrapper.__module__ = original.__module__
    wrapper.__name__ = original.__name__
    wrapper.__qualname__ = original.__qualname__


def _replace_function(recorder: Recorder, module_name: str,
                      function: str) -> None:
    module = importlib.import_module(module_name)
    original = getattr(module, function)
    layer = layer_of_module(module_name)
    wrapper = recorder.span(f"{layer}.{function}", layer, original)
    _copy_identity(original, wrapper)
    for loaded in list(sys.modules.values()):
        if getattr(loaded, function, None) is original:
            setattr(loaded, function, wrapper)


def _wrap_collectors(recorder: Recorder) -> None:
    """Every public collector function is an entry point of ``metrics``."""
    module = importlib.import_module("repro.metrics.collectors")
    for name, value in sorted(vars(module).items()):
        if (inspect.isfunction(value) and not name.startswith("_")
                and value.__module__ == module.__name__):
            _replace_function(recorder, module.__name__, name)


def _track_instances(recorder: Recorder, module_name: str,
                     class_name: str) -> None:
    cls = getattr(importlib.import_module(module_name), class_name)
    found = recorder.instances.setdefault(class_name, [])
    original = cls.__init__

    def __init__(self: Any, *args: Any, **kwargs: Any) -> None:
        found.append(self)
        original(self, *args, **kwargs)

    cls.__init__ = __init__  # type: ignore[method-assign]


def _install_boundaries(recorder: Recorder) -> None:
    """The entry points that also carry a callback across a layer boundary."""
    from repro.net.link import NetworkFabric
    from repro.net.transport import UdpEndpoint
    from repro.sched.processor import Processor
    from repro.sim.engine import Simulator
    from repro.sim.trace import Tracer

    span = recorder.span
    owned = recorder.owned

    def schedule(original: Callable) -> Callable:
        def schedule(self: Any, when: float, callback: Callable,
                     *args: Any) -> Any:
            return original(self, when, owned(callback, "events"), *args)
        return span(f"sim.Simulator.{original.__name__}", "sim", schedule)

    _replace_method(Simulator, "schedule", schedule)
    _replace_method(Simulator, "schedule_at", schedule)

    def run(original: Callable) -> Callable:
        def run(self: Any, *args: Any, **kwargs: Any) -> int:
            executed = original(self, *args, **kwargs)
            recorder.events_run += executed
            return executed
        return span("sim.Simulator.run", "sim", run)

    _replace_method(Simulator, "run", run)

    def spawn(original: Callable) -> Callable:
        def spawn(self: Any, generator: Any, name: str = "") -> Any:
            layer = layer_of_module(
                generator.gi_frame.f_globals.get("__name__", ""))
            proxy = _OwnedGenerator(
                generator, lambda fn: span(f"{layer}.process", layer, fn))
            return original(self, proxy, name=name)
        return span("sim.Simulator.spawn", "sim", spawn)

    _replace_method(Simulator, "spawn", spawn)

    def subscribe(original: Callable) -> Callable:
        def subscribe(self: Any, listener: Callable) -> None:
            key = (id(self), listener)
            wrapped = recorder._listeners.get(key)
            if wrapped is None:
                wrapped = recorder._listeners[key] = owned(listener,
                                                           "listener")
            original(self, wrapped)
        return span("sim.Tracer.subscribe", "sim", subscribe)

    def unsubscribe(original: Callable) -> Callable:
        def unsubscribe(self: Any, listener: Callable) -> None:
            original(self, recorder._listeners.get((id(self), listener),
                                                   listener))
        return unsubscribe

    _replace_method(Tracer, "subscribe", subscribe)
    _replace_method(Tracer, "unsubscribe", unsubscribe)

    def submit(original: Callable) -> Callable:
        def submit(self: Any, *args: Any, **kwargs: Any) -> Any:
            action = kwargs.get("action")
            if action is not None:
                kwargs["action"] = owned(action, "action")
            return original(self, *args, **kwargs)
        return span("sched.Processor.submit", "sched", submit)

    def add_task(original: Callable) -> Callable:
        def add_task(self: Any, task: Any) -> None:
            if task.action is not None:
                task.action = owned(task.action, "action")
            original(self, task)
        return span("sched.Processor.add_task", "sched", add_task)

    _replace_method(Processor, "submit", submit)
    _replace_method(Processor, "add_task", add_task)

    def endpoint_init(original: Callable) -> Callable:
        def __init__(self: Any, host: Any, port: int,
                     on_receive: Any = None) -> None:
            if on_receive is not None:
                on_receive = owned(on_receive, "on_receive")
            original(self, host, port, on_receive=on_receive)
        return __init__

    _replace_method(UdpEndpoint, "__init__", endpoint_init)

    def fabric_send(original: Callable) -> Callable:
        def send(self: Any, source: int, destination: int,
                 message: Any) -> None:
            recorder.bytes_sent += len(message)
            original(self, source, destination, message)
        return span("net.NetworkFabric.send", "net", send)

    _replace_method(NetworkFabric, "send", fabric_send)
