"""Span tracer that wraps sgx's cross-module names from outside the package.

Each entry of WRAPS names a module attribute that one layer calls in
another: mostly the names ``sgx.search`` imports from ``spectra``,
``forbidden``, ``core``, ``families`` and ``sgio``, plus the ``search``
helpers whose cost the per-layer metrics split out.  Installing the tracer
replaces each attribute with a wrapper that records a span (name, start,
end, parent) in memory; uninstalling puts the originals back.  A name that a
later version of sgx no longer has is skipped, and every metric that needs it
is reported as absent instead of failing the run.
"""

from __future__ import annotations

import importlib
from array import array
from time import perf_counter

import numpy as np


def _sweeps(tracer, args, out):
    tracer.add("spectra.sweeps", int(out))


def _iso(tracer, args, out):
    tracer.add("core.iso_true", 1 if out else 0)


def _scan(tracer, args, out):
    lo, hi = args[0][3], args[0][4]
    stats = out[1]
    tracer.add("search.masks", hi - lo)
    for key in ("graphs_eig", "classes_enum", "survivors"):
        tracer.add("search." + key, stats[key])


_FAMILY_NAMES = ("gamma", "sigma", "u1", "q1_matrix", "q2_matrix", "g_poly", "pq1_poly", "pq2_poly")

# (module, attribute, span name, result hook)
WRAPS = (
    ("sgx.search", "_JACOBI_KERNEL", "spectra.kernel", _sweeps),
    ("sgx.spectra", "_JACOBI_KERNEL", "spectra.kernel", _sweeps),
    ("sgx.search", "index", "spectra.index", None),
    ("sgx.search", "char_poly_exact", "spectra.charpoly", None),
    ("sgx.search", "is_forbidden_free", "forbidden.check", None),
    ("sgx.forbidden", "max_matching_size", "forbidden.matching", None),
    ("sgx.search", "new_signed_graph", "core.build", None),
    ("sgx.families", "new_signed_graph", "core.build", None),
    ("sgx.search", "is_switching_isomorphic", "core.iso", _iso),
    *(("sgx.search", name, "families.build", None) for name in _FAMILY_NAMES),
    ("sgx.cli", "parse_family", "families.build", None),
    ("sgx.search", "to_sg_text", "sgio.text", None),
    ("sgx.search", "_scan_extremal_range", "search.scan", _scan),
    ("sgx.search", "_dedupe_pool", "search.dedupe", None),
    ("sgx.search", "classify", "search.classify", None),
    ("sgx.search", "_state_index", "search.state_index", None),
    ("sgx.search", "_tri_delta", "search.tri_delta", None),
    ("sgx.cli", "local_search", "search.local_search", None),
    ("sgx.cli", "_emit", "cli.emit", None),
)

OP_SPAN = "cli.op"  # one CLI op, opened by the benchmark itself


class Tracer:
    """In-memory span store; use as a context manager to install the wrappers."""

    def __init__(self, wraps=WRAPS):
        self._wraps = wraps
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: dict[str, int] = {}
        self.installed: set[str] = {OP_SPAN}
        self.broken: set[str] = set()  # span names whose result hook no longer fits
        self._saved: list[tuple[object, str, object]] = []

    def add(self, key: str, value: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        i = len(self.start)
        self.name_id.append(self._intern(name))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, hook):
        def wrapper(*args, **kwargs):
            i = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(i)
            if hook is not None and name not in self.broken:
                try:
                    hook(self, args, out)
                except (LookupError, TypeError, ValueError):
                    self.broken.add(name)
            return out

        return wrapper

    def __enter__(self):
        for modname, attr, name, hook in self._wraps:
            mod = importlib.import_module(modname)
            fn = getattr(mod, attr, None)
            if fn is None:
                continue
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, name, hook))
            self.installed.add(name)
        return self

    def __exit__(self, *exc):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()
        return False

    def save(self, path) -> None:
        """Write every span to a compressed .npz file."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


class SpanTotals:
    """Counts, inclusive and self times per span name, and counts of spans
    that sit below a given ancestor."""

    def __init__(self, tracer: Tracer):
        names = tracer.names
        nid = np.frombuffer(tracer.name_id, dtype=np.int32)
        parent = np.frombuffer(tracer.parent, dtype=np.int32)
        dur = np.frombuffer(tracer.end, dtype=np.float64) - np.frombuffer(tracer.start, dtype=np.float64)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        k = len(names)
        self._ids = {name: i for i, name in enumerate(names)}
        self._count = np.bincount(nid, minlength=k)
        self._total = np.bincount(nid, weights=dur, minlength=k)
        self._self = np.bincount(nid, weights=dur - child, minlength=k)
        self._nid, self._parent = nid, parent

    def count(self, name: str) -> int:
        i = self._ids.get(name)
        return 0 if i is None else int(self._count[i])

    def total(self, name: str) -> float:
        i = self._ids.get(name)
        return 0.0 if i is None else float(self._total[i])

    def self_time(self, name: str) -> float:
        i = self._ids.get(name)
        return 0.0 if i is None else float(self._self[i])

    def count_below(self, name: str, ancestor: str) -> int:
        """Spans called ``name`` that have a span called ``ancestor`` above them."""
        i, a = self._ids.get(name), self._ids.get(ancestor)
        if i is None or a is None:
            return 0
        nid, parent = self._nid.tolist(), self._parent.tolist()
        below = [False] * len(nid)
        for j, p in enumerate(parent):  # a parent always precedes its children
            below[j] = p >= 0 and (below[p] or nid[p] == a)
        return sum(1 for j, b in enumerate(below) if b and nid[j] == i)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, passes: int, enumerate_ops: int, restarts: int,
                  overflow_warnings: int) -> tuple[dict[str, float], list[str]]:
    """Per-pass layer metrics from a traced run of ``passes`` identical passes.

    ``enumerate_ops`` and ``restarts`` are per pass.  Returns (metrics, absent):
    a metric whose wrapped names are all gone from sgx is left out and named
    in ``absent``.
    """
    s = SpanTotals(tracer)
    c = tracer.counters
    p = float(passes)
    wall = s.total(OP_SPAN)
    solves = s.count("spectra.kernel")
    iso = s.count("core.iso")
    classes = c.get("search.classes_enum", 0)
    moves = s.count("search.tri_delta") + s.count_below("forbidden.check", "search.local_search")
    table = {
        "spectra.solves": (("spectra.kernel",), solves / p),
        "spectra.solve_s": (("spectra.kernel",), s.total("spectra.kernel") / p),
        "spectra.solve_us_mean": (("spectra.kernel",), 1e6 * _ratio(s.total("spectra.kernel"), solves)),
        "spectra.share": (("spectra.kernel",), _ratio(s.total("spectra.kernel"), wall)),
        "spectra.sweeps_mean": (("spectra.kernel",), _ratio(c.get("spectra.sweeps", 0), solves)),
        "spectra.index_calls": (("spectra.index",), s.count("spectra.index") / p),
        "spectra.index_s": (("spectra.index",), s.total("spectra.index") / p),
        "spectra.charpoly_calls": (("spectra.charpoly",), s.count("spectra.charpoly") / p),
        "spectra.charpoly_s": (("spectra.charpoly",), s.total("spectra.charpoly") / p),
        "spectra.overflow_warnings": ((), overflow_warnings / p),
        "forbidden.checks": (("forbidden.check",), s.count("forbidden.check") / p),
        "forbidden.check_s": (("forbidden.check",), s.total("forbidden.check") / p),
        "forbidden.matching_calls": (("forbidden.matching",), s.count("forbidden.matching") / p),
        "core.graphs_built": (("core.build",), s.count("core.build") / p),
        "core.build_s": (("core.build",), s.total("core.build") / p),
        "core.iso_calls": (("core.iso",), iso / p),
        "core.iso_s": (("core.iso",), s.total("core.iso") / p),
        "core.iso_true_ratio": (("core.iso",), _ratio(c.get("core.iso_true", 0), iso)),
        "search.scan_self_s": (("search.scan",), s.self_time("search.scan") / p),
        "search.graphs_diagonalised": (("search.scan",), c.get("search.graphs_eig", 0) / p),
        "search.classes_filtered": (("search.scan",), classes / p),
        "search.survivors": (("search.scan",), c.get("search.survivors", 0) / p),
        "search.survivor_ratio": (("search.scan",), _ratio(c.get("search.survivors", 0), classes)),
        "search.prune_ratio": (("search.scan",), _ratio(c.get("search.graphs_eig", 0), c.get("search.masks", 0))),
        "search.pool_rounds": (("search.scan",), _ratio(s.count("search.scan") / p, enumerate_ops)),
        "search.dedupe_s": (("search.dedupe",), s.total("search.dedupe") / p),
        "search.classify_s": (("search.classify",), s.total("search.classify") / p),
        "search.moves_considered": (("search.tri_delta",), moves / p),
        "search.moves_solved": (("search.state_index",), s.count("search.state_index") / p),
        "search.solves_per_restart": (
            ("spectra.kernel", "search.local_search"),
            _ratio(s.count_below("spectra.kernel", "search.local_search") / p, restarts),
        ),
        "families.build_s": (("families.build",), s.total("families.build") / p),
        "sgio.text_s": (("sgio.text",), s.total("sgio.text") / p),
        "cli.emit_s": (("cli.emit",), s.total("cli.emit") / p),
    }
    metrics, absent = {}, []
    for key, (needs, value) in table.items():
        if all(n in tracer.installed and n not in tracer.broken for n in needs):
            metrics[key] = value
        else:
            absent.append(key)
    return metrics, absent
