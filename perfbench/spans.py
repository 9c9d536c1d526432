"""Spans around the calls into the program's modules, recorded from the outside.

``install`` replaces every public function of the package's modules with a
wrapper, everywhere the function is bound: in its own module (so calls
inside the module are caught too), in other modules that imported it by
name (``symmetry_test.q_bound``, ``cli.run_test``, ...), in the package
namespace and in ``suites.SUITES``. A wrapper appends (name, start, end,
parent) to flat in-memory arrays while the tracer is active and costs one
flag test while it is not, so the benchmark's own checks stay untraced.

Spans are kept in memory and written out once, at the end. Self time of a
span is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import threading
import time
from array import array
from collections import Counter

import numpy as np

from refcheck import DEEP_Q

#: The package's modules, which are the layers of the benchmark.
LAYERS = ("chi_kernel", "extremal_bounds", "hotelling", "symmetry_test", "monotone_family", "oracle", "suites", "cli")



def _q_bound_tag(args, kwargs, result) -> str:
    if result.region == "CUBIC" and result.q_value < DEEP_Q:
        return "deep"
    return result.region.lower()


def _shape_tag(args, kwargs, result) -> str:
    shape = np.shape(args[0])
    return "wide" if len(shape) == 2 and shape[1] >= shape[0] else "tall"


#: Per-function tags that split one function's spans by the path it took.
TAGS = {
    "extremal_bounds.q_bound": _q_bound_tag,
    "hotelling.r_squared": _shape_tag,
}


class Tracer:
    """Flat span store. Wrapped calls must come from the thread that installed it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.counters: Counter = Counter()
        self.targets: set = set()
        self.active = False
        self._stack = [-1]
        self._thread = threading.get_ident()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str):
        tracer = self
        base = self.name_id(name)
        tag = TAGS.get(name)
        count = _COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active or threading.get_ident() != tracer._thread:
                return fn(*args, **kwargs)
            idx = len(tracer.start)
            tracer.name.append(base)
            tracer.parent.append(tracer._stack[-1])
            tracer.end.append(0)
            tracer._stack.append(idx)
            if count is not None:
                count(tracer, args, kwargs)
            tracer.start.append(time.perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.end[idx] = time.perf_counter_ns()
                tracer.name[idx] = tracer.name_id(name + ".raised")
                raise
            finally:
                tracer._stack.pop()
            tracer.end[idx] = time.perf_counter_ns()
            if tag is not None:
                tracer.name[idx] = tracer.name_id(f"{name}.{tag(args, kwargs, result)}")
            return result

        return traced

    def span(self, name: str):
        """Context manager for a benchmark-side root span (one operation)."""
        return _Span(self, self.name_id(name))

    # -- derived figures -------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {key: np.array(getattr(self, key), dtype=np.int64) for key in ("name", "parent", "start", "end")}

    def summary(self) -> dict:
        """Per name: calls, inclusive and self ns; plus child counts under named parents."""
        a = self.arrays()
        k = len(self.names)
        dur = (a["end"] - a["start"]).astype(np.float64)
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=dur.size)
        self_ns = dur - child
        calls = np.bincount(a["name"], minlength=k)
        incl = np.bincount(a["name"], weights=dur, minlength=k)
        selft = np.bincount(a["name"], weights=self_ns, minlength=k)
        # how many spans of each name sit directly under each parent name
        pn = a["name"][a["parent"][has_parent]]
        pairs = Counter(zip((self.names[i] for i in pn), (self.names[i] for i in a["name"][has_parent])))
        return {
            "by_name": {n: {"calls": int(calls[i]), "incl_ns": float(incl[i]), "self_ns": float(selft[i])} for i, n in enumerate(self.names) if calls[i]},
            "pairs": {f"{p}>{c}": int(v) for (p, c), v in pairs.items()},
            "counters": dict(self.counters),
            "distinct_targets": len(self.targets),
            "spans": int(dur.size),
        }

    def write(self, path) -> None:
        a = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), **a)


class _Span:
    def __init__(self, tracer: Tracer, name_id: int):
        self.tracer, self.name_id = tracer, name_id

    def __enter__(self):
        t = self.tracer
        if t.active:
            self.idx = len(t.start)
            t.name.append(self.name_id)
            t.parent.append(t._stack[-1])
            t.end.append(0)
            t._stack.append(self.idx)
            t.start.append(time.perf_counter_ns())
        return self

    def __exit__(self, *exc):
        t = self.tracer
        if t.active:
            t.end[self.idx] = time.perf_counter_ns()
            t._stack.pop()
        return False


# -- counters recorded at call time, computed from argument shapes --------


def _enumeration(kind: str):
    def count(tracer: Tracer, args, kwargs) -> None:
        target = np.asarray(args[0], dtype=float)
        n = target.shape[0]
        tracer.counters[f"oracle.{kind}.patterns"] += 2**n
        tracer.counters["oracle.enumerations"] += 1
        tracer.targets.add((kind, target.shape, target.tobytes()))

    return count


def _projector_bytes(tracer: Tracer, args, kwargs) -> None:
    n = np.shape(args[0])[0] if np.ndim(args[0]) > 0 else 1
    tracer.counters["hotelling.projector.bytes_computed"] += 8 * n * n


_COUNTERS = {
    "oracle.exact_linear_distribution": _enumeration("exact_linear_distribution"),
    "oracle.exact_quadratic_distribution": _enumeration("exact_quadratic_distribution"),
    "hotelling.projector": _projector_bytes,
}


def install(tracer: Tracer, package) -> None:
    """Wrap every public function and SignDistribution method of the package."""
    wrapped = {}
    modules = [getattr(package, layer) for layer in LAYERS]
    for mod in modules:
        short = mod.__name__.rsplit(".", 1)[-1]
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            wrapped[obj] = tracer.wrap(obj, f"{short}.{attr}")
    dist = package.oracle.SignDistribution
    for meth in ("mean_of", "tail_prob"):
        setattr(dist, meth, tracer.wrap(getattr(dist, meth), f"oracle.{meth}"))
    # rebind every name that points at an original: own module, importers, package namespace
    for mod in [package, *modules]:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, attr, wrapped[obj])
    suites = package.suites.SUITES
    for key, fn in list(suites.items()):
        suites[key] = wrapped.get(fn, fn)
