"""In-process tracer for the opjensen layers.

`Tracer.install()` replaces every public function of the traced modules with
a timing wrapper, at every import site inside the package: `jensen_checks`
binds `hermitian_eig` and friends with `from .linalg_core import ...`, so
patching only the defining module would miss those calls. Spans (name,
start, end, parent, trial id) are kept in memory and written out by
`write_spans` when the run ends. Pool workers do not carry the wrappers, so
tracing is only meaningful for in-process (`jobs=1`) work.

A span's self time is its duration minus the durations of its direct
children; the tracer's own bookkeeping inside a wrapper is charged to
neither the span nor its parent.
"""

from __future__ import annotations

import inspect
import sys
import time

import numpy as np

PACKAGE = "opjensen"
LAYERS = (
    "linalg_core",
    "tensor_ops",
    "positive_maps",
    "spectral_tools",
    "convex_catalog",
    "jensen_checks",
    "reporting",
    "harness_cli",
)


def _opens_trial(name: str) -> bool:
    """Outermost calls of these open a trial scope: the span trial id, and
    the scope of hermitian_eig's repeated-input count. A check called
    directly (as ablation_search does) is a trial of its own."""
    return name in ("jensen_checks.run_trial", "jensen_checks.replay_report") or (
        name.startswith("jensen_checks.check_"))


def _keeps_report(name: str) -> bool:
    """Reports returned by an outermost call of these feed the numerics
    fingerprints; replays are left out, they re-derive reports already seen."""
    return _opens_trial(name) and name != "jensen_checks.replay_report"


class _Stat:
    __slots__ = ("calls", "self_s")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0


class Tracer:
    """Span recorder; create one, `install()`, run in-process work, `uninstall()`."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.stats: dict[str, _Stat] = {}
        self.spans: list[tuple[int, float, float, int, int]] = []
        self.scalar_evals = 0
        self.eig_work_d3 = 0
        self.eig_calls = 0
        self.eig_repeats = 0
        self.reports: list[tuple[float, float, bool]] = []
        self._stack: list[list] = []  # [span index, seconds spent in children]
        self._trial = 0
        self._in_trial = False
        self._seen_eig_inputs: set[bytes] = set()
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions of every layer at every import site in
        the package. Callers outside it must call through the package's
        modules (`opjensen.run_campaign(...)`), not through references they
        took before installation."""
        wrapped: dict[int, object] = {}
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                wrapped[id(obj)] = self._wrap(obj, f"{layer}.{attr}")
        sites = [m for n, m in sorted(sys.modules.items())
                 if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for ns in sites:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in wrapped:
                    self._patch(ns, attr, wrapped[id(obj)])
        reporting = sys.modules[f"{PACKAGE}.reporting"]
        catalog = sys.modules[f"{PACKAGE}.convex_catalog"]
        report_cls = reporting.CheckReport
        self._patch(report_cls, "to_json_line",
                    self._wrap(report_cls.to_json_line, "reporting.to_json_line"))
        self._patch(catalog.ScalarFunction, "__call__",
                    self._count_scalar(catalog.ScalarFunction.__call__))

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()

    # -- wrappers ----------------------------------------------------------

    def _count_scalar(self, fn):
        tracer = self

        def counted(*args, **kwargs):
            tracer.scalar_evals += 1
            return fn(*args, **kwargs)

        return counted

    def _wrap(self, fn, name: str):
        key = len(self.names)
        self.names.append(name)
        stat = self.stats[name] = _Stat()
        tracer = self
        opens_trial = _opens_trial(name)
        keeps_report = _keeps_report(name)
        is_eig = name == "linalg_core.hermitian_eig"
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            t_book = clock()
            stack = tracer._stack
            opened = False
            if opens_trial and not tracer._in_trial:
                tracer._trial += 1
                tracer._in_trial = opened = True
                tracer._seen_eig_inputs.clear()
            trial = tracer._trial if tracer._in_trial else 0
            if is_eig:
                tracer._note_eig_input(args[0] if args else kwargs["m"])
            parent = stack[-1] if stack else None
            frame = [len(tracer.spans), 0.0]
            tracer.spans.append(None)
            stack.append(frame)
            start = clock()
            if parent is not None:
                parent[1] += start - t_book
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stat.calls += 1
                stat.self_s += duration - frame[1]
                tracer.spans[frame[0]] = (
                    key, start, end, parent[0] if parent is not None else -1, trial,
                )
                if opened:
                    tracer._in_trial = False
                if parent is not None:
                    parent[1] += duration
            if keeps_report and opened:
                tracer.reports.append((float(result.gap), float(result.tol), bool(result.passed)))
            if parent is not None:
                parent[1] += clock() - end
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = getattr(fn, "__qualname__", fn.__name__)
        return wrapper

    def _note_eig_input(self, m) -> None:
        a = np.ascontiguousarray(m, dtype=np.complex128)
        d = int(a.shape[0]) if a.ndim == 2 else 0
        self.eig_calls += 1
        self.eig_work_d3 += d ** 3
        key = a.tobytes() + repr(a.shape).encode()
        if key in self._seen_eig_inputs:
            self.eig_repeats += 1
        else:
            self._seen_eig_inputs.add(key)

    # -- results -----------------------------------------------------------

    def self_s(self, *names: str) -> float:
        return sum(self.stats[n].self_s for n in names if n in self.stats)

    def calls(self, *names: str) -> int:
        return sum(self.stats[n].calls for n in names if n in self.stats)

    def layer_names(self, layer: str) -> list[str]:
        return [n for n in self.names if n.startswith(layer + ".")]

    def write_spans(self, path: str) -> None:
        """Write the spans as CSV: name, start, end, parent span index, and
        trial id (0 outside any trial)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start,end,parent,trial\n")
            for i, span in enumerate(self.spans):
                if span is None:  # a span still open when the run ended
                    continue
                key, start, end, parent, trial = span
                fh.write(f"{i},{self.names[key]},{start!r},{end!r},{parent},{trial}\n")
