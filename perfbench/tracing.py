"""Span tracing from outside the library.

The traced run wraps the public entry points of every demcrystal module
in span recorders, patching every place that holds a reference to the
original: module attributes (including names imported with ``from ...
import``), class attributes such as ``__mul__`` and its ``__rmul__``
alias, and function default arguments such as ``ch_via_f(...,
f_impl=f_recursive)``.  The library itself is not modified.

Spans are kept in memory as parallel arrays (name id, start, end,
parent span, op id) and are written out when the run ends.  A span's
self time is its duration minus the part of it covered by its children.
"""
from __future__ import annotations

import functools
import inspect
import pickle
import time
from array import array
from collections import defaultdict

# Layer -> (module-level functions, {class: [method or (method, span name)]}).
# Tiny helpers that run once per term or per weight (pairing, reflect, step,
# h_local, iota, fundamental, ...) are left out: wrapping them would multiply
# the span count and the tracing overhead without naming a new layer boundary.
TARGETS = {
    "qlaurent": (
        ["gaussian", "qpoch", "q_multinomial", "pochhammer", "verify_gaussian_lemma"],
        {
            "BivariatePolynomial": [
                ("__mul__", "mul"),
                ("__rmul__", "mul"),
                ("__add__", "add"),
                ("__radd__", "add"),
                "q_shift",
                "z_shift",
                "exact_div",
                "to_text",
            ]
        },
    ),
    "characters": (
        [
            "f_recursive",
            "f_bosonic",
            "f_fermionic",
            "f_rank_reduction",
            "occupation_vectors",
            "resolve_mu_nu",
            "ch_path_bruteforce",
            "ch_via_f",
            "F_fermionic",
            "demazure_ch",
            "demazure_ch_bruteforce",
            "demazure_ch_oracle",
            "real_character_check",
            "principal_rhs",
            "principal_character_check",
            "sanderson_rhs",
            "sanderson_identity_check",
        ],
        {},
    ),
    "weights": (
        [
            "demazure_operator",
            "demazure_character_oracle",
            "specialize",
            "parse_weyl_word",
            "apply_word",
        ],
        {},
    ),
    "eyd": (
        ["i_signature", "reduce_signature", "f_tilde", "e_tilde", "epsilon_i", "phi_i"],
        {
            "ExtendedYoungDiagram": ["corners", "add_box", "remove_box"],
            "EYDTuple": [("__post_init__", "tuple_validate"), "weight"],
        },
    ),
    "paths": (
        ["energy", "ground_state_path", "from_letters", "pi", "highest_lift"],
        {},
    ),
    "demazure": (
        [
            "generate_crystal",
            "demazure_crystal_recursive",
            "demazure_crystal_direct",
            "extremal_vector",
            "export_graph",
            "graph_from_json",
            "subgraph",
        ],
        {},
    ),
    "cli": (
        ["main", "build_parser", "cmd_character", "cmd_crystal", "cmd_oracle", "cmd_verify"],
        {},
    ),
}

# Caches whose hit ratios are read from the original functions' cache_info().
CACHED = ("qlaurent.gaussian", "qlaurent.qpoch", "characters.f_recursive")


def term_count(poly) -> int:
    """Number of nonzero terms, read through the stable JSON serialization so
    it does not depend on the polynomial's internal representation."""
    if isinstance(poly, int):
        return 1 if poly else 0
    return len(poly.to_json_obj())


class NullTracer:
    """Stand-in for untraced runs: records nothing."""

    def begin_op(self, op_id: int) -> None:
        pass

    def end_op(self) -> None:
        pass

    def reset(self) -> None:
        pass

    def export(self):
        return None


class Tracer:
    """In-memory span store plus counters measured at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.originals: dict[str, object] = {}
        self.enabled = False
        self.op_id = -1
        self._stack: list[int] = []
        self.reset()

    def reset(self) -> None:
        """Drop recorded spans and counters; a forked child starts here so it
        does not send back what its parent had already gathered."""
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.counters: dict[str, float] = defaultdict(float)
        self.absorbed_caches: list[dict] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open_names(self) -> list[str]:
        """Names of the spans open right now, outermost first."""
        return [self.names[self.name[i]] for i in self._stack]

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self.enabled = True

    def end_op(self) -> None:
        self.enabled = False

    def wrap(self, name: str, fn, observe=None):
        nid = self.name_id(name)
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if observe is not None:
                self.enabled = False
                try:
                    observe(self, args, out)
                finally:
                    self.enabled = True
            return out

        return traced

    # -- merging spans recorded in forked children --------------------------

    def export(self) -> dict:
        """Spans, counters and cache statistics of this process."""
        return {
            "names": list(self.names),
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "op": self.op,
            "counters": dict(self.counters),
            "caches": cache_counts(self),
        }

    def absorb(self, rec: dict) -> None:
        """Append spans exported by another process with the same wrappers."""
        remap = [self.name_id(n) for n in rec["names"]]
        base = len(self.start)
        self.name.extend(array("H", (remap[n] for n in rec["name"])))
        self.start.extend(rec["start"])
        self.end.extend(rec["end"])
        self.parent.extend(array("i", (p + base if p >= 0 else -1 for p in rec["parent"])))
        self.op.extend(rec["op"])
        for key, value in rec["counters"].items():
            self.counters[key] += value
        self.absorbed_caches.append(rec["caches"])

    def dump(self, path: str) -> None:
        with open(path, "wb") as fh:
            pickle.dump(self.export(), fh, protocol=pickle.HIGHEST_PROTOCOL)


def self_times(start, end, parent) -> list[float]:
    """Per-span duration minus the union of its children's intervals.

    Spans must be listed in order of start time (children after their
    parent), which is the order the tracer records them in; children are
    clipped to their parent's interval.
    """
    n = len(start)
    covered = [0.0] * n
    reach = [float("-inf")] * n
    for i in range(n):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], start[p], reach[p])
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
        if hi > reach[p]:
            reach[p] = hi
    return [end[i] - start[i] - covered[i] for i in range(n)]


# -- observers: counts taken at the wrapped boundaries ----------------------

def _obs_mul(t, args, out):
    t.counters["qlaurent.mul.term_products"] += term_count(args[0]) * term_count(args[1])


def _obs_occupation(t, args, out):
    t.counters["characters.occupation_vectors.items"] += len(out)


def _obs_f_tilde(t, args, out):
    if out is None:
        t.counters["eyd.f_tilde.none"] += 1


def _obs_generate(t, args, out):
    c = t.counters
    c["demazure.generate_crystal.vertices"] += len(out.vertices)
    c["demazure.generate_crystal.edges"] += len(out.edges)
    callers = t.open_names()
    if callers and callers[-1] == "demazure.demazure_crystal_direct":
        c["demazure.demazure_crystal_direct.generated"] += len(out.vertices)
    if "cli.cmd_crystal" in callers:
        c["cli.cmd_crystal.generate_crystal"] += 1


def _obs_direct(t, args, out):
    t.counters["demazure.demazure_crystal_direct.kept"] += len(out)


OBSERVERS = {
    "qlaurent.mul": _obs_mul,
    "characters.occupation_vectors": _obs_occupation,
    "eyd.f_tilde": _obs_f_tilde,
    "demazure.generate_crystal": _obs_generate,
    "demazure.demazure_crystal_direct": _obs_direct,
}


def install(tracer: Tracer) -> None:
    """Wrap every target and patch every reference to it in the package."""
    import importlib

    modules = {name: importlib.import_module(f"demcrystal.{name}") for name in TARGETS}
    modules["__init__"] = importlib.import_module("demcrystal")
    swap: dict[int, object] = {}

    for mod_name, (funcs, classes) in TARGETS.items():
        mod = modules[mod_name]
        for fname in funcs:
            orig = getattr(mod, fname)
            if inspect.isgeneratorfunction(orig):
                raise TypeError(f"{mod_name}.{fname} is a generator; a span cannot time it")
            span = f"{mod_name}.{fname}"
            tracer.originals[span] = orig
            swap[id(orig)] = tracer.wrap(span, orig, OBSERVERS.get(span))
        for cname, methods in classes.items():
            cls = getattr(mod, cname)
            wrapped_by_fn: dict[int, object] = {}
            for entry in methods:
                attr, short = entry if isinstance(entry, tuple) else (entry, entry)
                orig = cls.__dict__[attr]
                span = f"{mod_name}.{short}"
                if id(orig) not in wrapped_by_fn:
                    wrapped_by_fn[id(orig)] = tracer.wrap(span, orig, OBSERVERS.get(span))
                setattr(cls, attr, wrapped_by_fn[id(orig)])

    for mod in modules.values():
        for attr, value in list(vars(mod).items()):
            if id(value) in swap:
                setattr(mod, attr, swap[id(value)])
            elif inspect.isfunction(value):
                _patch_defaults(value, swap)
    for orig in list(tracer.originals.values()):
        _patch_defaults(getattr(orig, "__wrapped__", orig), swap)


def _patch_defaults(fn, swap) -> None:
    defaults = getattr(fn, "__defaults__", None)
    if defaults and any(id(d) in swap for d in defaults):
        fn.__defaults__ = tuple(swap.get(id(d), d) for d in defaults)


def cache_counts(tracer: Tracer) -> dict:
    """hits, misses and current size of each memo cache, from the originals."""
    out = {}
    for span in CACHED:
        info = tracer.originals[span].cache_info()
        out[span] = {"hits": info.hits, "misses": info.misses, "entries": info.currsize}
    return out


# -- per-layer metrics ---------------------------------------------------------

# (metric, unit, better).  BENCHMARK.json lists the same metrics, in this order.
PER_LAYER = (
    [(f"{layer}.total_self_s", "s", "lower") for layer in TARGETS]
    + [
        ("qlaurent.mul.calls", "count", "lower"),
        ("qlaurent.mul.self_s", "s", "lower"),
        ("qlaurent.mul.term_products", "count", "lower"),
        ("qlaurent.add.calls", "count", "lower"),
        ("qlaurent.add.self_s", "s", "lower"),
        ("qlaurent.q_shift.calls", "count", "lower"),
        ("qlaurent.q_shift.self_s", "s", "lower"),
        ("qlaurent.exact_div.calls", "count", "lower"),
        ("qlaurent.exact_div.self_s", "s", "lower"),
        ("qlaurent.gaussian.self_s", "s", "lower"),
        ("qlaurent.gaussian.hit_ratio", "ratio", "higher"),
        ("qlaurent.gaussian.cache_entries", "count", "lower"),
        ("qlaurent.qpoch.hit_ratio", "ratio", "higher"),
        ("qlaurent.q_multinomial.calls", "count", "lower"),
        ("qlaurent.q_multinomial.self_s", "s", "lower"),
        ("qlaurent.to_text.self_s", "s", "lower"),
        ("characters.f_recursive.self_s", "s", "lower"),
        ("characters.f_recursive.hit_ratio", "ratio", "higher"),
        ("characters.f_recursive.cache_entries", "count", "lower"),
        ("characters.f_bosonic.calls", "count", "lower"),
        ("characters.f_bosonic.self_s", "s", "lower"),
        ("characters.f_fermionic.calls", "count", "lower"),
        ("characters.f_fermionic.self_s", "s", "lower"),
        ("characters.occupation_vectors.items", "count", "lower"),
        ("characters.ch_path_bruteforce.self_s", "s", "lower"),
        ("characters.ch_via_f.self_s", "s", "lower"),
        ("characters.demazure_ch.self_s", "s", "lower"),
        ("characters.demazure_ch_bruteforce.self_s", "s", "lower"),
        ("weights.demazure_operator.calls", "count", "lower"),
        ("weights.demazure_operator.self_s", "s", "lower"),
        ("weights.demazure_character_oracle.self_s", "s", "lower"),
        ("weights.specialize.self_s", "s", "lower"),
        ("eyd.f_tilde.calls", "count", "lower"),
        ("eyd.f_tilde.self_s", "s", "lower"),
        ("eyd.f_tilde.none_ratio", "ratio", "lower"),
        ("eyd.e_tilde.calls", "count", "lower"),
        ("eyd.e_tilde.self_s", "s", "lower"),
        ("eyd.i_signature.calls", "count", "lower"),
        ("eyd.i_signature.self_s", "s", "lower"),
        ("eyd.corners.calls", "count", "lower"),
        ("eyd.corners.self_s", "s", "lower"),
        ("eyd.tuple_validate.calls", "count", "lower"),
        ("eyd.tuple_validate.self_s", "s", "lower"),
        ("paths.energy.calls", "count", "lower"),
        ("paths.energy.self_s", "s", "lower"),
        ("paths.ground_state_path.calls_per_energy", "ratio", "lower"),
        ("paths.pi.calls", "count", "lower"),
        ("paths.pi.self_s", "s", "lower"),
        ("paths.from_letters.calls", "count", "lower"),
        ("paths.from_letters.self_s", "s", "lower"),
        ("demazure.generate_crystal.calls", "count", "lower"),
        ("demazure.generate_crystal.self_s", "s", "lower"),
        ("demazure.generate_crystal.vertices", "count", "lower"),
        ("demazure.generate_crystal.useful_ratio", "ratio", "higher"),
        ("demazure.demazure_crystal_recursive.self_s", "s", "lower"),
        ("demazure.demazure_crystal_direct.self_s", "s", "lower"),
        ("demazure.demazure_crystal_direct.kept_ratio", "ratio", "higher"),
        ("demazure.export_graph.self_s", "s", "lower"),
        ("cli.main.calls", "count", "lower"),
        ("cli.main.self_s", "s", "lower"),
        ("cli.generate_crystal_per_crystal_query", "ratio", "lower"),
        ("trace.spans", "count", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _cache_totals(tracer: Tracer) -> dict:
    """Caches summed over processes: hits and misses add, entries take the max."""
    records = tracer.absorbed_caches or [cache_counts(tracer)]
    out = {}
    for span in CACHED:
        hits = sum(r[span]["hits"] for r in records)
        misses = sum(r[span]["misses"] for r in records)
        out[span] = {
            "hit_ratio": _ratio(hits, hits + misses),
            "entries": max(r[span]["entries"] for r in records),
        }
    return out


def layer_metrics(tracer: Tracer) -> dict:
    """Every PER_LAYER metric except trace.overhead_s, which needs the twin run."""
    names = tracer.names
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    for i, t in enumerate(selfs):
        span = names[tracer.name[i]]
        calls[span] += 1
        self_s[span] += t
    gen = tracer.name_id("demazure.generate_crystal")
    ft = tracer.name_id("eyd.f_tilde")
    attempts_in_gen = sum(
        1
        for i in range(len(selfs))
        if tracer.name[i] == ft and tracer.parent[i] >= 0 and tracer.name[tracer.parent[i]] == gen
    )
    c = tracer.counters
    caches = _cache_totals(tracer)
    special = {
        "qlaurent.mul.term_products": c["qlaurent.mul.term_products"],
        "qlaurent.gaussian.hit_ratio": caches["qlaurent.gaussian"]["hit_ratio"],
        "qlaurent.gaussian.cache_entries": caches["qlaurent.gaussian"]["entries"],
        "qlaurent.qpoch.hit_ratio": caches["qlaurent.qpoch"]["hit_ratio"],
        "characters.f_recursive.hit_ratio": caches["characters.f_recursive"]["hit_ratio"],
        "characters.f_recursive.cache_entries": caches["characters.f_recursive"]["entries"],
        "characters.occupation_vectors.items": c["characters.occupation_vectors.items"],
        "eyd.f_tilde.none_ratio": _ratio(c["eyd.f_tilde.none"], calls["eyd.f_tilde"]),
        "paths.ground_state_path.calls_per_energy": _ratio(
            calls["paths.ground_state_path"], calls["paths.energy"]
        ),
        "demazure.generate_crystal.vertices": c["demazure.generate_crystal.vertices"],
        "demazure.generate_crystal.useful_ratio": _ratio(
            c["demazure.generate_crystal.edges"], attempts_in_gen
        ),
        "demazure.demazure_crystal_direct.kept_ratio": _ratio(
            c["demazure.demazure_crystal_direct.kept"],
            c["demazure.demazure_crystal_direct.generated"],
        ),
        "cli.generate_crystal_per_crystal_query": _ratio(
            c["cli.cmd_crystal.generate_crystal"], calls["cli.cmd_crystal"]
        ),
        "trace.spans": len(selfs),
    }
    out = {}
    for metric, _, _ in PER_LAYER:
        if metric in special:
            out[metric] = special[metric]
        elif metric.endswith(".total_self_s"):
            prefix = metric[: -len("total_self_s")]
            out[metric] = sum(v for k, v in self_s.items() if k.startswith(prefix))
        elif metric.endswith(".calls"):
            out[metric] = calls[metric[: -len(".calls")]]
        elif metric.endswith(".self_s"):
            out[metric] = self_s[metric[: -len(".self_s")]]
    return out
