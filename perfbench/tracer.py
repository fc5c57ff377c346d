"""Outside-in tracing of vexpf's public functions.

`Tracer.install()` replaces each traced function with a wrapper in every
place the program binds it: module namespaces that imported the name,
class attributes (operator aliases such as ``__rmul__ = __mul__``
included) and the CLI's suite table.  Each wrapped call records one span
(name, start, end, parent span) in flat in-memory arrays; `layer_metrics`
turns the spans of one pass into the per-layer metrics.  Nothing under
``src/`` is edited: the wrappers live only in the traced process.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

# (layer, metric stem, owner, attribute).  owner is a module name or
# "module:Class"; the metric stem names the `<layer>.<stem>_calls` and
# `<layer>.<stem>_s` metrics the spans feed.
TRACED = (
    ("polycore", "mul", "vexpf.polycore:Polynomial", "__mul__"),
    ("polycore", "exact_divide", "vexpf.polycore", "exact_divide"),
    ("polycore", "substitute", "vexpf.polycore:Polynomial", "substitute"),
    ("polycore", "series_inverse", "vexpf.polycore", "series_inverse"),
    ("gamma", "from_raw", "vexpf.gamma:GammaElement", "from_raw"),
    ("gamma", "q_pair", "vexpf.gamma", "q_pair"),
    ("gamma", "apply_symmetry", "vexpf.gamma", "apply_symmetry"),
    ("gamma", "mul", "vexpf.gamma:GammaElement", "__mul__"),
    ("multischur", "pf", "vexpf.multischur", "multischur_pf"),
    ("multischur", "pf_d", "vexpf.multischur", "multischur_pf_d"),
    ("multischur", "det", "vexpf.multischur", "multischur_det"),
    ("multischur", "p_family", "vexpf.multischur", "p_family"),
    ("multischur", "r_family", "vexpf.multischur", "r_family"),
    ("schubert", "schubert", "vexpf.schubert", "schubert"),
    ("schubert", "divided_difference", "vexpf.schubert", "divided_difference"),
    ("schubert", "vexillary_polynomial", "vexpf.schubert", "vexillary_polynomial"),
    ("schubert", "top_class", "vexpf.schubert", "top_class"),
    ("triples", "triple_of_w", "vexpf.triples", "triple_of_w"),
    ("triples", "enumerate_triples", "vexpf.triples", "enumerate_triples"),
    ("triples", "w_of_triple", "vexpf.triples", "w_of_triple"),
    ("weyl", "length", "vexpf.weyl", "length"),
    ("weyl", "all_elements", "vexpf.weyl", "all_elements"),
    ("gysin", "lemma_A1_check", "vexpf.gysin", "lemma_A1_check"),
    ("gysin", "f_index_identity", "vexpf.gysin", "f_index_identity"),
    ("gysin", "prop_A1_check", "vexpf.gysin", "prop_A1_check"),
    ("gysin", "prop_A2_check", "vexpf.gysin", "prop_A2_check"),
    ("gysin", "plain_pushforward_check", "vexpf.gysin", "plain_pushforward_check"),
    ("cli", "main", "vexpf.cli", "main"),
    ("cli", "suite", "vexpf.cli", "suite_*"),
    ("cli", "render", "vexpf.cli", "render"),
    ("cli", "serialize", "vexpf.cli", "serialize_element"),
)

LAYERS = ("polycore", "gamma", "multischur", "schubert", "triples", "weyl", "gysin", "cli")

# Per-layer metric names, in the order they are reported.
PER_LAYER = (
    "polycore.mul_calls", "polycore.mul_s", "polycore.exact_divide_calls",
    "polycore.exact_divide_s", "polycore.substitute_calls", "polycore.substitute_s",
    "polycore.series_inverse_s", "polycore.self_s",
    "gamma.from_raw_calls", "gamma.from_raw_s", "gamma.from_raw_terms_in",
    "gamma.from_raw_terms_out", "gamma.swell", "gamma.straighten_hits",
    "gamma.straighten_misses", "gamma.straighten_hit_frac", "gamma.q_pair_calls",
    "gamma.q_pair_s", "gamma.apply_symmetry_calls", "gamma.apply_symmetry_s",
    "gamma.mul_calls", "gamma.mul_s", "gamma.self_s",
    "multischur.pf_calls", "multischur.pf_s", "multischur.pf_d_calls",
    "multischur.pf_d_s", "multischur.det_calls", "multischur.det_s",
    "multischur.self_s",
    "schubert.schubert_calls", "schubert.divided_difference_calls",
    "schubert.divided_difference_s", "schubert.vexillary_polynomial_s",
    "schubert.top_class_s", "schubert.memo_entries", "schubert.self_s",
    "triples.triple_of_w_calls", "triples.triple_of_w_s", "triples.fallback_calls",
    "triples.direct_hit_frac", "triples.w_of_triple_calls", "triples.w_of_triple_s",
    "triples.self_s",
    "weyl.length_calls", "weyl.length_s", "weyl.all_elements_s", "weyl.self_s",
    "gysin.lemma_A1_check_s", "gysin.f_index_identity_s", "gysin.prop_A1_check_s",
    "gysin.prop_A2_check_s", "gysin.self_s",
    "cli.suite_s", "cli.render_s", "cli.serialize_s", "cli.self_s",
)

# Metrics that are exact counts: they must repeat across passes and
# interpreter hash seeds.  Everything else is a time or a ratio of counts.
COUNTS = tuple(
    name for name in PER_LAYER
    if name.endswith(("_calls", "_hits", "_misses", "_in", "_out", "_entries"))
)

OP = "bench.op"


def _resolve(owner: str):
    mod_name, _, cls_name = owner.partition(":")
    mod = sys.modules[mod_name]
    return getattr(mod, cls_name) if cls_name else mod


class Tracer:
    """Spans in flat arrays: name id, parent span id, start, end."""

    def __init__(self):
        self.names = [OP]
        self.layer_of = {0: "bench"}
        self.name_id = {OP: 0}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = []
        self.terms_in = 0
        self.terms_out = 0
        self.fallback_calls = 0
        self.fallback_tops = set()
        self._undo = []

    # -- recording -------------------------------------------------------

    def _name(self, name: str, layer: str) -> int:
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
            self.layer_of[self.name_id[name]] = layer
        return self.name_id[name]

    def _spanner(self, nid: int, fn):
        """fn wrapped so that each call records one span named nid."""
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter

        def call(*args, **kwargs):
            sid = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                starts[sid] = t0
                stack.pop()

        return call

    def op(self, fn):
        """Run one benchmark op under the root span its layer spans hang from."""
        return self._spanner(0, fn)()

    def _wrapper(self, name: str, layer: str, fn):
        nid = self._name(name, layer)
        tracer = self
        if name == "weyl.all_elements":
            # a generator every caller drains: drain it inside the span
            drain = self._spanner(nid, lambda *a, **k: list(fn(*a, **k)))

            def wrapper(*args, **kwargs):
                return iter(drain(*args, **kwargs))
            return functools.wraps(fn)(wrapper)
        call = self._spanner(nid, fn)
        if name == "gamma.from_raw":
            def wrapper(raw):
                out = call(raw)
                tracer.terms_in += len(raw)
                tracer.terms_out += len(out.combo)
                return out
        elif name == "triples.enumerate_triples":
            # a generator: its span covers creation only, and the fallback
            # search consumes it lazily under triple_of_w's span
            def wrapper(*args, **kwargs):
                top = tracer._outermost("triples.triple_of_w")
                if top is not None:
                    tracer.fallback_calls += 1
                    tracer.fallback_tops.add(top)
                return call(*args, **kwargs)
        else:
            wrapper = call
        return functools.wraps(fn)(wrapper)

    def _outermost(self, name: str):
        nid = self.name_id.get(name)
        for sid in self._stack:
            if self.span_name[sid] == nid:
                return sid
        return None

    # -- installing --------------------------------------------------------

    def install(self):
        """Wrap every traced function wherever vexpf binds it."""
        import vexpf.cli  # noqa: F401  (loads every vexpf module)

        modules = [m for n, m in sys.modules.items() if n.startswith("vexpf.") and m]
        for layer, stem, owner, attr in TRACED:
            target = _resolve(owner)
            attrs = (
                [a for a in vars(target) if a.startswith(attr[:-1])]
                if attr.endswith("*") else [attr]
            )
            for a in attrs:
                raw = vars(target)[a]
                fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                self._replace_everywhere(
                    fn, self._wrapper(f"{layer}.{stem}", layer, fn), modules
                )

    def _replace_everywhere(self, fn, wrapper, modules):
        places = {}
        for mod in modules:
            for key, val in vars(mod).items():
                if val is fn:
                    places[id(mod), key] = (mod, key, val)
                elif isinstance(val, type) and val.__module__.startswith("vexpf"):
                    for ckey, cval in vars(val).items():
                        inner = cval.__func__ if isinstance(cval, staticmethod) else cval
                        if inner is fn:
                            places[id(val), ckey] = (val, ckey, cval)
                elif isinstance(val, dict):
                    for dkey, dval in val.items():
                        if dval is fn:
                            places[id(val), dkey] = (val, dkey, dval)
        for owner, key, old in places.values():
            new = staticmethod(wrapper) if isinstance(old, staticmethod) else wrapper
            if isinstance(owner, dict):
                owner[key] = new
            else:
                setattr(owner, key, new)
            self._undo.append((owner, key, old))

    def uninstall(self):
        for owner, key, old in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = old
            else:
                setattr(owner, key, old)
        self._undo.clear()

    # -- reporting ---------------------------------------------------------

    def spans(self):
        """The recorded spans as (id, name, parent id, start, end) tuples."""
        return [
            (i, self.names[self.span_name[i]], self.span_parent[i],
             self.span_start[i], self.span_end[i])
            for i in range(len(self.span_name))
        ]

    def summary(self) -> dict:
        """Counts, outermost-span time per name and self time per layer."""
        n = len(self.span_name)
        names, parents = self.span_name, self.span_parent
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child_time = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child_time[p] += dur[i]
        calls = {}
        outer_calls = {}
        covered = {}
        self_time = {layer: 0.0 for layer in LAYERS + ("bench",)}
        # a span's name is "outermost" unless an ancestor has the same name;
        # spans are recorded in start order, so parents precede children
        same_above = [False] * n
        for i in range(n):
            p = parents[i]
            nid = names[i]
            above = False
            while p >= 0:
                if names[p] == nid:
                    above = True
                    break
                p = parents[p]
            same_above[i] = above
        for i in range(n):
            name = self.names[names[i]]
            calls[name] = calls.get(name, 0) + 1
            if not same_above[i]:
                outer_calls[name] = outer_calls.get(name, 0) + 1
                covered[name] = covered.get(name, 0.0) + dur[i]
            self_time[self.layer_of[names[i]]] += dur[i] - child_time[i]
        return {
            "calls": calls,
            "outer_calls": outer_calls,
            "covered_s": covered,
            "self_s": self_time,
            "terms_in": self.terms_in,
            "terms_out": self.terms_out,
            "fallback_calls": self.fallback_calls,
            "fallback_ops": len(self.fallback_tops),
        }


def layer_metrics(summary: dict, extra: dict) -> dict:
    """The per-layer metrics of one traced pass.

    extra holds what the spans cannot see: the straightening cache's hits
    and misses over the pass and the descent memo's size at its end.
    """
    calls, cov, self_s = summary["calls"], summary["covered_s"], summary["self_s"]

    def c(name):
        return calls.get(name, 0)

    def s(name):
        return cov.get(name, 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    hits, misses = extra["straighten_hits"], extra["straighten_misses"]
    tin, tout = summary["terms_in"], summary["terms_out"]
    top_calls = summary["outer_calls"].get("triples.triple_of_w", 0)
    out = {
        "polycore.mul_calls": c("polycore.mul"),
        "polycore.mul_s": s("polycore.mul"),
        "polycore.exact_divide_calls": c("polycore.exact_divide"),
        "polycore.exact_divide_s": s("polycore.exact_divide"),
        "polycore.substitute_calls": c("polycore.substitute"),
        "polycore.substitute_s": s("polycore.substitute"),
        "polycore.series_inverse_s": s("polycore.series_inverse"),
        "polycore.self_s": self_s["polycore"],
        "gamma.from_raw_calls": c("gamma.from_raw"),
        "gamma.from_raw_s": s("gamma.from_raw"),
        "gamma.from_raw_terms_in": tin,
        "gamma.from_raw_terms_out": tout,
        "gamma.swell": ratio(tin, tout),
        "gamma.straighten_hits": hits,
        "gamma.straighten_misses": misses,
        "gamma.straighten_hit_frac": ratio(hits, hits + misses),
        "gamma.q_pair_calls": c("gamma.q_pair"),
        "gamma.q_pair_s": s("gamma.q_pair"),
        "gamma.apply_symmetry_calls": c("gamma.apply_symmetry"),
        "gamma.apply_symmetry_s": s("gamma.apply_symmetry"),
        "gamma.mul_calls": c("gamma.mul"),
        "gamma.mul_s": s("gamma.mul"),
        "gamma.self_s": self_s["gamma"],
        "multischur.pf_calls": c("multischur.pf"),
        "multischur.pf_s": s("multischur.pf"),
        "multischur.pf_d_calls": c("multischur.pf_d"),
        "multischur.pf_d_s": s("multischur.pf_d"),
        "multischur.det_calls": c("multischur.det"),
        "multischur.det_s": s("multischur.det"),
        "multischur.self_s": self_s["multischur"],
        "schubert.schubert_calls": c("schubert.schubert"),
        "schubert.divided_difference_calls": c("schubert.divided_difference"),
        "schubert.divided_difference_s": s("schubert.divided_difference"),
        "schubert.vexillary_polynomial_s": s("schubert.vexillary_polynomial"),
        "schubert.top_class_s": s("schubert.top_class"),
        "schubert.memo_entries": extra["memo_entries"],
        "schubert.self_s": self_s["schubert"],
        "triples.triple_of_w_calls": c("triples.triple_of_w"),
        "triples.triple_of_w_s": s("triples.triple_of_w"),
        "triples.fallback_calls": summary["fallback_calls"],
        "triples.direct_hit_frac": ratio(
            top_calls - summary["fallback_ops"], top_calls
        ),
        "triples.w_of_triple_calls": c("triples.w_of_triple"),
        "triples.w_of_triple_s": s("triples.w_of_triple"),
        "triples.self_s": self_s["triples"],
        "weyl.length_calls": c("weyl.length"),
        "weyl.length_s": s("weyl.length"),
        "weyl.all_elements_s": s("weyl.all_elements"),
        "weyl.self_s": self_s["weyl"],
        "gysin.lemma_A1_check_s": s("gysin.lemma_A1_check"),
        "gysin.f_index_identity_s": s("gysin.f_index_identity"),
        "gysin.prop_A1_check_s": s("gysin.prop_A1_check"),
        "gysin.prop_A2_check_s": s("gysin.prop_A2_check"),
        "gysin.self_s": self_s["gysin"],
        "cli.suite_s": s("cli.suite"),
        "cli.render_s": s("cli.render"),
        "cli.serialize_s": s("cli.serialize"),
        "cli.self_s": self_s["cli"],
    }
    assert tuple(out) == PER_LAYER
    return out
