"""Boundary tracer: spans around calls that cross a bhdensity module boundary.

A function is wrapped only where a module other than its own binds it (an
``import`` of a sibling's function, or the package namespace the benchmark
calls through), plus the few entry points the benchmark calls by attribute.
Intra-module helpers such as ``geom.as_vec`` called from ``geom`` itself stay
unwrapped, which keeps the tracing overhead small.  Work done inside class
constructors and methods (``Plane2``, ``Bivector.__add__``) is not a boundary
and is charged to the calling module.

Spans are kept in memory and written out when the run ends.  A module's self
time is the duration of its spans minus the time covered by their direct
child spans.
"""

import functools
import importlib
import inspect
import itertools
import threading
import time

LAYERS = ("geom", "bodies", "sections", "density", "contraction", "probe", "cli", "_jsonfmt")


class Tracer:
    def __init__(self):
        self.spans = []  # (id, name, layer, start, end, parent id or -1, op id, size)
        self.op = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched = []

    def wrap(self, fn, layer, size=None):
        """Return fn recording one span per call; size(args, kwargs) sizes the work."""
        name = f"{layer}.{fn.__name__}"
        spans, ids, local, clock = self.spans, self._ids, self._local, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                n = size(args, kwargs) if size else 0
                spans.append((sid, name, layer, t0, t1, parent, self.op, n))

        return traced

    def install(self, sizes=None, entry_points=()):
        """Wrap every cross-module binding in the bhdensity package.

        ``sizes`` maps "layer.function" to a work-size callback; each entry
        point is an (owner, attribute) pair the benchmark itself calls.
        """
        sizes = sizes or {}
        pkg = importlib.import_module("bhdensity")
        namespaces = [pkg] + [importlib.import_module(f"bhdensity.{m}") for m in LAYERS]
        targets = []
        for ns in namespaces:
            for attr, obj in vars(ns).items():
                home = getattr(obj, "__module__", "") or ""
                if inspect.isfunction(obj) and home.startswith("bhdensity.") and home != ns.__name__:
                    targets.append((ns, attr, obj, home.split(".", 1)[1]))
        for owner, attr in entry_points:
            obj = vars(owner)[attr]
            targets.append((owner, attr, obj, obj.__module__.split(".", 1)[1]))
        for owner, attr, obj, layer in targets:
            wrapped = self.wrap(obj, layer, sizes.get(f"{layer}.{obj.__name__}"))
            setattr(owner, attr, wrapped)
            self._patched.append((owner, attr, obj))

    def uninstall(self):
        for owner, attr, obj in reversed(self._patched):
            setattr(owner, attr, obj)
        self._patched.clear()

    def summary(self):
        """Per-layer self time and call counts, and per-function calls, time and size."""
        child = {}
        for _, _, _, t0, t1, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] = child.get(parent, 0.0) + (t1 - t0)
        layers = {m: {"self_s": 0.0, "calls": 0} for m in LAYERS}
        funcs = {}
        for sid, name, layer, t0, t1, _, _, n in self.spans:
            entry = layers.setdefault(layer, {"self_s": 0.0, "calls": 0})
            own = (t1 - t0) - child.get(sid, 0.0)
            entry["self_s"] += own
            entry["calls"] += 1
            f = funcs.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "size": 0})
            f["calls"] += 1
            f["total_s"] += t1 - t0
            f["self_s"] += own
            f["size"] += n
        return layers, funcs

    def spans_of(self, name):
        """(duration, size) of every span of one function."""
        return [(t1 - t0, n) for _, nm, _, t0, t1, _, _, n in self.spans if nm == name]

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("id,name,start_s,end_s,parent,op,size\n")
            for sid, name, _, t0, t1, parent, op, n in self.spans:
                fh.write(f"{sid},{name},{t0:.9f},{t1:.9f},{parent},{op},{n}\n")
