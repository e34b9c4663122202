"""Per-layer tracing of tikm from outside the package.

``Tracer.install`` replaces the public functions of ``tikm.kondo_sim``,
``tikm.qmat``, ``tikm.measures``, ``tikm.werner`` and ``tikm.cli`` by
wrappers that record one span per call; ``uninstall`` puts the originals
back.  Module attributes are the modules' globals, so calls between the
package's own functions go through the wrappers too.  Nothing in the package
changes and nothing outside this process sees the wrappers.

Of ``tikm.qmat`` only ``hermitian_eig`` is a span: the other helpers are
small validity checks whose time belongs to the layer that calls them.

A span records its layer, thread, start, end and parent.  The parent is the
innermost open span of the same thread; a span opened on a thread with no
open span (a worker of ``sweep``'s pool) takes the innermost open span of the
thread that installed the tracer.  Self time is a span's duration minus the
part of it that its children cover, so overlapping children on two threads
are not subtracted twice.
"""

from __future__ import annotations

import functools
import inspect
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

LAYER_OF = {
    "kondo_sim.build_basis": "basis",
    "kondo_sim.build_hamiltonian": "assembly",
    "kondo_sim.ground_state": "solve",
    "kondo_sim.sector_ground_energy": "singlet",
    "kondo_sim.singlet_check": "singlet",
    "kondo_sim.impurity_rdm": "rdm",
    "qmat.hermitian_eig": "eig",
}
MODULE_LAYER = {"kondo_sim": "driver", "measures": "measures", "werner": "werner", "cli": "cli"}
LAYERS = ("basis", "assembly", "solve", "eig", "singlet", "rdm", "measures", "werner", "driver", "cli")
#: Work counts read off a function's result when its span ends.
COUNTS = {
    "kondo_sim.build_hamiltonian": lambda h: {"assembly.nnz": h.nnz},
    "kondo_sim.build_basis": lambda basis: {"basis.states": basis.dim},
    "kondo_sim.ground_state": lambda g: {"solve.iterations": g.iterations, "solve.dense_calls": int(g.method == "dense")},
    "kondo_sim.point_correlation": lambda _: {"driver.points": 1},
    "kondo_sim.sweep": lambda points: {"driver.points": len(points)},
}


@dataclass
class Span:
    layer: str
    name: str
    thread: int
    parent: "Span | None"
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._originals: list[tuple[object, str, object]] = []
        self._local = threading.local()
        self._home_stack: list[Span] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer: str, name: str, fn):
        count = COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (self._home_stack[-1] if self._home_stack else None)
            span = Span(layer, name, threading.get_ident(), parent, time.perf_counter())
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            if count is not None:
                span.counts = count(result)
            return result

        return traced

    def install(self, package) -> None:
        """Wrap the public functions of the traced modules of ``package`` (the imported ``tikm``)."""
        self._local.stack = self._home_stack
        for short in ("kondo_sim", "qmat", "measures", "werner", "cli"):
            module = getattr(package, short)
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                name = f"{short}.{attr}"
                layer = LAYER_OF.get(name, MODULE_LAYER.get(short))
                if layer is None:
                    continue
                self._originals.append((module, attr, fn))
                setattr(module, attr, self._wrap(layer, name, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._originals):
            setattr(module, attr, fn)
        self._originals.clear()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def layer_metrics(self, requests: int) -> dict[str, float]:
        """Per-request totals of each layer: entries, self time and work counts."""
        children = defaultdict(list)
        for span in self.spans:
            children[id(span.parent)].append(span)
        calls = dict.fromkeys(LAYERS, 0)
        self_s = dict.fromkeys(LAYERS, 0.0)
        singlet_total = 0.0
        counts = defaultdict(int)
        for span in self.spans:
            entered = span.parent is None or span.parent.layer != span.layer
            calls[span.layer] += entered
            self_s[span.layer] += self_time(span, children[id(span)])
            if span.layer == "singlet" and entered:
                singlet_total += span.end - span.start
            for key, value in span.counts.items():
                counts[key] += value
        out = {
            "assembly.calls": calls["assembly"],
            "assembly.nnz": counts["assembly.nnz"],
            "assembly.self_s": self_s["assembly"],
            "solve.calls": calls["solve"],
            "solve.dense_calls": counts["solve.dense_calls"],
            "solve.iterations": counts["solve.iterations"],
            "solve.self_s": self_s["solve"],
            "eig.calls": calls["eig"],
            "eig.self_s": self_s["eig"],
            "basis.calls": calls["basis"],
            "basis.states": counts["basis.states"],
            "basis.self_s": self_s["basis"],
            "singlet.calls": calls["singlet"],
            "singlet.total_s": singlet_total,
            "rdm.calls": calls["rdm"],
            "rdm.self_s": self_s["rdm"],
            "measures.calls": calls["measures"],
            "measures.self_s": self_s["measures"],
            "werner.calls": calls["werner"],
            "werner.self_s": self_s["werner"],
            "driver.points": counts["driver.points"],
            "driver.self_s": self_s["driver"],
            "cli.self_s": self_s["cli"],
        }
        return {key: value / requests for key, value in out.items()}

    def records(self) -> list[dict]:
        """The spans as plain records, in order of completion, for writing out."""
        ids = {id(span): k for k, span in enumerate(self.spans)}
        return [
            {
                "id": ids[id(span)],
                "parent": None if span.parent is None else ids[id(span.parent)],
                "name": span.name,
                "layer": span.layer,
                "thread": span.thread,
                "start": span.start,
                "end": span.end,
            }
            for span in self.spans
        ]


def self_time(span: Span, children: list[Span]) -> float:
    """Duration of ``span`` minus the union of its children's intervals inside it."""
    covered = 0.0
    reach = span.start
    for child in sorted(children, key=lambda c: c.start):
        lo, hi = max(child.start, reach), min(child.end, span.end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return (span.end - span.start) - covered
