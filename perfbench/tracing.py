"""Span tracing of quadwg from the outside.

``Tracer.install`` replaces chosen public functions and methods of the
quadwg modules with wrappers that record a span (name, start, end, parent,
plus the calling thread's CPU time) in memory, and rebinds ``quad`` inside
the modules that call it to a counting wrapper.  ``Tracer.uninstall`` puts every original back, so
untraced rounds run the unmodified program.

Kernels that run once per quadrature node (``resonance_denominator``,
``mirror_bracket``, ``Envelope.__call__``) are deliberately not wrapped:
their spans would number in the hundreds of thousands and the trace would
measure itself.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time

# (module, attribute path) of every wrapped callable: the public functions
# and methods the workloads reach.  A span is named "<module>.<attribute path>".
TRACED = (
    ("cli", "run"),
    ("spectral", "gaussian_biphoton"),
    ("spectral", "SeparableState.__post_init__"),
    ("spectral", "SeparableState.norm_squared"),
    ("spectral", "SeparableState.overlap_with_envelope"),
    ("spectral", "SeparableState.on_grid"),
    ("spectral", "GridState.on_grid"),
    ("scattering", "scatter"),
    ("scattering", "channel_probabilities"),
    ("scattering", "ScatterOutput.output_on"),
    ("scattering", "reflection_sweep"),
    ("emission", "joint_spectrum"),
    ("emission", "default_emission_grid"),
    ("emission", "EmissionSpectrum.total_probability"),
    ("emission", "EmissionSpectrum.spectrum_correlation"),
    ("entanglement", "entropy_sweeps"),
    ("entanglement", "postselect_filtered_state"),
    ("entanglement", "entanglement_entropy"),
    ("entanglement", "bell_fidelity"),
    ("gate", "infidelity_sweep"),
    ("gate", "gate_overlap"),
    ("gate", "gate_report"),
    ("gate", "worst_case_fidelity"),
    ("timedomain", "integrate"),
    ("timedomain", "oracle_channel_probabilities"),
    ("timedomain", "with_arrival_delay"),
)

QUAD_MODULES = ("spectral", "scattering", "gate")
LAYERS = ("spectral", "scattering", "emission", "entanglement", "gate",
          "timedomain", "cli")


class Span:
    """One wrapped call: wall-clock and thread CPU times at entry and exit."""

    __slots__ = ("name", "start", "end", "cpu_start", "cpu_end", "parent",
                 "thread", "result")

    def __init__(self, name, parent, thread):
        self.name = name
        self.parent = parent
        self.thread = thread
        self.result = None
        self.start = time.perf_counter()
        self.cpu_start = time.thread_time()
        self.end = self.cpu_end = None

    @property
    def busy(self) -> float:
        return self.cpu_end - self.cpu_start


class Tracer:
    """Collects spans and quadrature counts while installed."""

    def __init__(self, summaries=None):
        """``summaries`` maps a span name to a function of the wrapped call's
        result; its value is kept as the span's ``result``."""
        self.spans: list[Span] = []
        self.quad_calls = dict.fromkeys(QUAD_MODULES, 0)
        self._summaries = dict(summaries or {})
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main_thread = threading.main_thread()
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        summarize = self._summaries.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                # Worker threads of the CLI's pool belong to the span the
                # main thread has open when it hands them work.
                parent = self._main_stack[-1] if self._main_stack else None
            span = Span(name, parent, threading.get_ident())
            with self._lock:
                index = len(self.spans)
                self.spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.cpu_end = time.thread_time()
                span.end = time.perf_counter()
                stack.pop()
            if summarize is not None:
                span.result = summarize(result)
            return result

        return traced

    def _count_quad(self, module, quad):
        @functools.wraps(quad)
        def counted(*args, **kwargs):
            with self._lock:
                self.quad_calls[module] += 1
            return quad(*args, **kwargs)

        return counted

    def _replace(self, owner, attr, new):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        modules = {name: importlib.import_module(f"quadwg.{name}")
                   for name in LAYERS}
        package = [mod for key, mod in sys.modules.items()
                   if mod is not None and (key == "quadwg" or key.startswith("quadwg."))]
        for module_name, path in TRACED:
            owner = modules[module_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = self._wrap(f"{module_name}.{path}", original)
            if outer:
                self._replace(owner, attr, wrapper)
                continue
            # A module-level function is also bound by name in every module
            # that imported it; rebind each so internal calls are traced.
            for mod in package:
                if mod.__dict__.get(attr) is original:
                    self._replace(mod, attr, wrapper)
        for name in QUAD_MODULES:
            self._replace(modules[name], "quad",
                          self._count_quad(name, modules[name].quad))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def dump(self, path: str) -> None:
        """Write the spans as JSON records with times relative to the first."""
        t0 = self.spans[0].start if self.spans else 0.0
        records = [{"name": s.name, "start": s.start - t0, "end": s.end - t0,
                    "busy": s.busy, "parent": s.parent, "thread": s.thread}
                   for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": records, "quad_calls": self.quad_calls}, fh)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's busy (thread CPU) time minus that of its children run by
    the same thread.

    Busy time, not wall time: the CLI's pool threads hold spans open
    together while they take turns on the interpreter lock, so their wall
    times overlap and would count the same second twice.  A child run by a
    pool thread costs its parent no CPU, so it is not subtracted.
    """
    own = [s.busy for s in spans]
    for span in spans:
        if span.parent is not None and spans[span.parent].thread == span.thread:
            own[span.parent] -= span.busy
    return own


def busy_time(spans: list[Span], names) -> float:
    """Busy time in spans named in ``names``, not counting one nested in another."""
    names = set(names)
    total = 0.0
    for span in spans:
        if span.name not in names:
            continue
        parent = span.parent
        while parent is not None and spans[parent].name not in names:
            parent = spans[parent].parent
        if parent is None:
            total += span.busy
    return total
