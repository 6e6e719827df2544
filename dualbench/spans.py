"""Span tracing of the dualdecay layers, installed from outside the package.

`Tracer.install()` wraps every public function of the layer modules, plus
`BasisSet.sample_all` and `DecayMatrix.to_text`/`from_text`, and rebinds
every module-level name in the package that points at a wrapped function.
Calls between layers then nest, e.g. biorthogonality_residual ->
synthesize_dual -> sample_all. `uninstall()` puts every original back.
Spans stay in memory; the caller writes them out when its run ends.
"""

from __future__ import annotations

import builtins
import functools
import importlib
import inspect
import os
import sys
import time
from dataclasses import asdict, dataclass, field

LAYERS = ("lattice", "gramian", "duals", "constants", "pipeline", "artifacts", "cli")
METHODS = (("lattice", "BasisSet", "sample_all"),
           ("gramian", "DecayMatrix", "to_text"),
           ("gramian", "DecayMatrix", "from_text"))
READERS = ("gramian", "artifacts")   # modules whose `open` calls count bytes read
_MISSING = object()


def _window_products(args):
    window = args["window"] if args["window"] is not None else args["basis"].window
    return {"assembled_products": window.size ** 2 * args["grid"].n_points}


def _convolution_pairs(args):
    d, w, factor = args["d"], int(args["window"]), int(args["source_factor"])
    return {"pairs": (2 * w + 1) ** d * (2 * w * factor + 1) ** d}


# work counts recorded on the span of the call that does the work
COUNTS = {
    "lattice.sample_all": lambda args, result: {"sampled_entries": int(result.size)},
    "gramian.assemble": lambda args, result: _window_products(args),
    "constants.w_sum": lambda args, result: {"shells": int(result.radius)},
    "constants.verify_convolution_discrete": lambda args, result: _convolution_pairs(args),
}


@dataclass
class Span:
    id: int
    parent: int | None
    run: str
    name: str
    start: float
    end: float = float("nan")
    error: str = ""
    counts: dict = field(default_factory=dict)


class Tracer:
    """Records one span per call of a wrapped function."""

    def __init__(self):
        self.spans = []
        self.run = ""           # run id stamped on new spans
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn):
        count = COUNTS.get(name)
        signature = inspect.signature(fn) if count else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1].id if tracer._stack else None
            span = Span(len(tracer.spans), parent, tracer.run, name, time.perf_counter())
            tracer.spans.append(span)
            tracer._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if count:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counts.update(count(bound.arguments, result))
            return result

        return wrapper

    def _counting_open(self, file, mode="r", *args, **kwargs):
        if self._stack and not any(c in mode for c in "wax+"):
            counts = self._stack[-1].counts
            counts["bytes_read"] = counts.get("bytes_read", 0) + os.path.getsize(file)
        return builtins.open(file, mode, *args, **kwargs)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, value)

    def install(self):
        if self._undo:
            raise RuntimeError("tracer is already installed")
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"dualdecay.{layer}")
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ \
                        and not attr.startswith("_"):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        package = [m for n, m in sys.modules.items()
                   if n == "dualdecay" or n.startswith("dualdecay.")]
        for mod in package:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._set(mod, attr, wrappers[obj])
        for layer, cls_name, attr in METHODS:
            cls = getattr(sys.modules[f"dualdecay.{layer}"], cls_name)
            raw = cls.__dict__[attr]
            name = f"{layer}.{attr}"
            if isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(self._wrap(name, raw.__func__)))
            else:
                self._set(cls, attr, self._wrap(name, raw))
        for layer in READERS:
            self._set(sys.modules[f"dualdecay.{layer}"], "open", self._counting_open)

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def records(self) -> list:
        return [asdict(s) for s in self.spans]


def summarize(records) -> dict:
    """Per span name: calls, inclusive and self seconds, summed counts.

    Self time is a span's duration minus the time its children cover.
    Inclusive time skips spans nested inside a span of the same name, so
    recursion is not counted twice.
    """
    by_id = {r["id"]: r for r in records}
    child_time = {}
    for r in records:
        if r["parent"] is not None:
            child_time[r["parent"]] = child_time.get(r["parent"], 0.0) + r["end"] - r["start"]
    ancestors = {}
    out = {}
    for r in records:       # parents are recorded before their children
        parent = r["parent"]
        names = ancestors[parent] | {by_id[parent]["name"]} if parent is not None \
            else frozenset()
        ancestors[r["id"]] = names
        s = out.setdefault(r["name"], {"calls": 0, "incl_s": 0.0, "self_s": 0.0,
                                       "errors": {}, "counts": {}})
        duration = r["end"] - r["start"]
        s["calls"] += 1
        s["self_s"] += duration - child_time.get(r["id"], 0.0)
        if r["name"] not in names:
            s["incl_s"] += duration
        if r["error"]:
            s["errors"][r["error"]] = s["errors"].get(r["error"], 0) + 1
        for key, value in r["counts"].items():
            s["counts"][key] = s["counts"].get(key, 0) + value
    return out
