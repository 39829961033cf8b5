"""Span tracing of the gogroups layers, installed from outside the package.

Every function defined in a `gogroups` module is replaced by a wrapper, on
its defining module and on every `gogroups` module that bound the same
function object with `from .x import`; methods are wrapped once, on their
class.  A wrapper appends one span (name id, start, end, parent span, probe
value) to in-memory columns.  Element-level helpers that run hundreds of
thousands of times per pass would dominate the spans they sit in, so they
are not wrapped at all (UNWRAPPED), or only counted where a metric reads
the count (COUNT_ONLY).
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import pkgutil
import time
import types
from array import array

PACKAGE = "gogroups"
NAN = float("nan")

_ELEMENT_OPS = ("identity", "mul", "inv", "eq", "is_element", "serialize")

# Counted, never timed: a metric reads its count, and a span would cost more
# than the call.
COUNT_ONLY = frozenset(["words.wreduce"])

# Neither counted nor timed: calls on every inner loop that no metric reads.
# Their time stays in the calling span at no extra cost.
UNWRAPPED = frozenset(
    # element arithmetic of every backend
    [f"{cls}.{op}" for cls in ("backends.abelian.AbelianGroup",
                               "backends.finite.FiniteGroup",
                               "backends.free.FreeGroup",
                               "backends.base.SubgroupBackend")
     for op in _ELEMENT_OPS]
    + ["backends.base.power", "backends.base.evaluate_word", "backends.base.Mono.image",
       "words.wmul", "words.winv", "words.letter_key", "words.word_key",
       "intlattice.xgcd", "intlattice._row_combine",
       "backends.free._Folder.find", "backends.free._Folder.new_vertex",
       "backends.free._Folder.add_edge", "backends.free.StallingsAutomaton.step",
       "backends.free.StallingsAutomaton.trace", "gog.APath.__init__",
       # helpers called only from their own layer
       "backends.finite.FiniteSubgroup.__init__", "backends.finite.FiniteGroup.dc_set",
       "backends.finite.FiniteGroup._closure", "morphism._Builder.star",
       "gog.subgroup_index_in", "intlattice.det", "intlattice.Lattice.solve",
       "intlattice.Lattice.in_coords_of",
       # accessors
       "graphs.einv", "graphs.Graph.o", "graphs.Graph.t", "graphs.Graph.edges",
       "graphs.Graph.edge_name",
       "gog.GraphOfGroups.vgroup", "gog.GraphOfGroups.egroup",
       "gog.GraphOfGroups.alpha", "gog.GraphOfGroups.omega",
       "morphism.GoGMorphism.edge_image", "morphism.GoGMorphism.twist_alpha",
       "morphism.GoGMorphism.twist_omega", "morphism.GoGMorphism.vertex_image_handle",
       "morphism.GoGMorphism.edge_image_handle",
       "pullback.AProductFragment._sub1", "pullback.AProductFragment._sub2",
       "morphism._Builder.view", "morphism._Builder.set_view_twists"])


def _bits(result):
    basis = result[0] if isinstance(result, tuple) else result
    return max((abs(x).bit_length() for row in basis for x in row), default=0)


# Per-span probe values, computed from the arguments and the result.
PROBES = {
    "gog.reduce_apath": lambda args, result: len(args[0].edges),
    "intlattice.hnf": lambda args, result: _bits(result),
    "pullback.AProductFragment._intern": lambda args, result: int(result[1]),
    "morphism._Builder.find_fold": lambda args, result: int(result is not None),
    "morphism._Builder.saturate_edge": lambda args, result: int(bool(result)),
    "backends.rational.CosetNFA.__init__": lambda args, result: len(args[0].trans),
}


def layer_modules():
    """The package's modules, imported, as (layer name, module) pairs."""
    pkg = importlib.import_module(PACKAGE)
    out = []
    for info in pkgutil.walk_packages(pkg.__path__, PACKAGE + "."):
        mod = importlib.import_module(info.name)
        out.append((info.name[len(PACKAGE) + 1:], mod))
    return out


class Spans:
    """Span columns: name id, start, end, parent span (-1 at the top) and
    probe value (NaN when the function has no probe)."""

    def __init__(self):
        self.nid, self.parent = array("i"), array("i")
        self.start, self.end, self.probe = array("d"), array("d"), array("d")

    def __len__(self):
        return len(self.nid)

    def rows(self):
        return zip(self.nid, self.start, self.end, self.parent, self.probe)


class Tracer:
    def __init__(self):
        self.names = []
        self.layers = []
        self.ids = {}
        self.spans = Spans()
        self.counts = []
        self._stack = []
        self._undo = []

    def _nid(self, name, layer):
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
            self.counts.append(0)
        return self.ids[name]

    def _wrap(self, name, layer, fn):
        nid = self._nid(name, layer)
        if name in COUNT_ONLY:
            counts = self.counts

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[nid] += 1
                return fn(*args, **kwargs)
            return counted

        sp, stack, clock = self.spans, self._stack, time.perf_counter
        nids, parents, starts, ends, probes = sp.nid, sp.parent, sp.start, sp.end, sp.probe
        probe = PROBES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(nids)
            nids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            probes.append(NAN)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if probe is not None:
                probes[idx] = probe(args, result)
            return result
        return traced

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        mods = layer_modules()
        for layer, mod in mods:
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__:
                    name = f"{layer}.{attr}"
                    if name in UNWRAPPED:
                        continue
                    wrapper = self._wrap(name, layer, obj)
                    for _, other in mods:
                        if other.__dict__.get(attr) is obj:
                            self._set(other, attr, wrapper)
                elif isinstance(obj, type) and obj.__module__ == mod.__name__:
                    self._install_class(layer, obj)

    def _install_class(self, layer, cls):
        for attr, val in list(vars(cls).items()):
            if attr.startswith("__") and attr != "__init__":
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if name in UNWRAPPED:
                continue
            if isinstance(val, types.FunctionType):
                self._set(cls, attr, self._wrap(name, layer, val))
            elif isinstance(val, (classmethod, staticmethod)):
                self._set(cls, attr, type(val)(self._wrap(name, layer, val.__func__)))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def dump(self, path):
        """Writes the spans as gzip JSON: names, layers, count-only tallies
        and one list per span column (a probe of null means none).  At the
        default compression level, writing the 1.6 million spans of a traced
        free-cyclic run took 30 s; level 1 takes a third of that."""
        sp = self.spans
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump({"names": self.names, "layers": self.layers, "counts": self.counts,
                       "name": sp.nid.tolist(), "start": sp.start.tolist(),
                       "end": sp.end.tolist(), "parent": sp.parent.tolist(),
                       "probe": [None if p != p else p for p in sp.probe]}, fh)


# Per-layer metrics, each derived from the spans in one of these ways:
#   calls     spans of the named functions
#   self      their self time (span minus the child spans it covers)
#   layer     self time of every span of a layer
#   scoped    self time of a layer's spans inside (or equal to) spans of the
#             named functions: the layer's own work for that operation
#   top       spans of the named functions not nested in one another
#   count     calls of a count-only function
#   probe_sum / probe_max / probe_mean / probe_ratio
#             the probe values of the named function's spans (ratio: mean
#             of a 0/1 probe, i.e. useful outcomes per attempt)
_P = "pullback.AProductFragment."
_M = "morphism._Builder."
_GOGIO_PARSE = ("gogio.parse_gog", "gogio.parse_decorated", "gogio.parse_morphism",
                "gogio.parse_apath", "gogio.parse_group_spec")
METRICS = {
    "backends.base.mono_apply.calls": ("calls", "backends.base.Mono.apply"),
    "backends.base.mono_apply.self_s": ("self", "backends.base.Mono.apply"),
    "gog.reduce_apath.calls": ("calls", "gog.reduce_apath"),
    "gog.reduce_apath.self_s": ("self", "gog.reduce_apath"),
    "gog.reduce_apath.edges_in": ("probe_sum", "gog.reduce_apath"),
    "backends.abelian.dc_canon.calls": ("calls", "backends.abelian.AbelianGroup.dc_canon"),
    "backends.abelian.dc_factor.calls": ("calls", "backends.abelian.AbelianGroup.dc_factor"),
    "backends.abelian.self_s": ("layer", "backends.abelian"),
    "intlattice.hnf.calls": ("calls", "intlattice.hnf"),
    "intlattice.hnf.self_s": ("self", "intlattice.hnf"),
    "intlattice.hnf.max_bits": ("probe_max", "intlattice.hnf"),
    "intlattice.lin_solve.calls": ("calls", "intlattice.lin_solve"),
    "pullback.build.self_s": ("scoped", "pullback", _P + "build"),
    "pullback.expand.calls": ("calls", _P + "expand_vertex"),
    "pullback.intern.calls": ("calls", _P + "_intern"),
    "pullback.intern.new_ratio": ("probe_ratio", _P + "_intern"),
    "pullback.ray_certificate.self_s": ("scoped", "pullback", _P + "ray_certificate"),
    "pullback.generators.self_s": ("scoped", "pullback", _P + "intersection_generators"),
    "pullback.serialize.self_s": ("scoped", "pullback", _P + "dump", _P + "dot", _P + "to_json"),
    "pullback.vertex_group.calls": ("calls", _P + "vertex_group"),
    "morphism.realize.self_s": ("scoped", "morphism", "morphism.realize_subgroup"),
    "morphism.find_fold.calls": ("calls", _M + "find_fold"),
    "morphism.merge.calls": ("calls", _M + "merge"),
    "morphism.fold_hit_ratio": ("probe_ratio", _M + "find_fold"),
    "morphism.saturate_edge.calls": ("calls", _M + "saturate_edge"),
    "morphism.saturate_hit_ratio": ("probe_ratio", _M + "saturate_edge"),
    "backends.finite.dc_canon.calls": ("calls", "backends.finite.FiniteGroup.dc_canon"),
    "backends.finite.self_s": ("layer", "backends.finite"),
    "backends.rational.nfa_built": ("calls", "backends.rational.CosetNFA.__init__"),
    "backends.rational.nfa_states_mean": ("probe_mean", "backends.rational.CosetNFA.__init__"),
    "backends.rational.saturate.self_s": ("self", "backends.rational.CosetNFA._saturate"),
    "backends.free.subgroup.calls": ("calls", "backends.free.FreeGroup.subgroup"),
    "backends.free.dc_canon.calls": ("calls", "backends.free.FreeGroup.dc_canon"),
    "backends.free.spanning.calls": ("calls", "backends.free.StallingsAutomaton.spanning"),
    "backends.free.self_s": ("layer", "backends.free"),
    "words.wreduce.calls": ("count", "words.wreduce"),
    "cli.self_s": ("layer", "cli"),
    "gogio.parse.calls": ("top",) + _GOGIO_PARSE,
    "gogio.parse.self_s": ("scoped", "gogio", "gogio.load") + _GOGIO_PARSE,
    "graphs.core.calls": ("calls", "graphs.core"),
    "graphs.core.self_s": ("scoped", "graphs", "graphs.core"),
    "gog.reduce_gog.self_s": ("scoped", "gog", "gog.reduce_gog"),
    "fgip.reduce_decorated.self_s": ("scoped", "fgip", "fgip.reduce_decorated"),
    "fgip.w_construction.self_s": ("scoped", "fgip", "fgip.w_construction"),
    "fgip.decide.calls": ("calls", "fgip.decide_components"),
    "fcip.abelian.self_s": ("scoped", "fcip", "fcip.fcip_abelian"),
}

# Not derived from spans: set by the benchmark from its pass timings.
TRACE_METRICS = {
    "trace.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.spans_per_pass": "count",
}


def metric_unit(name):
    if name in TRACE_METRICS:
        return TRACE_METRICS[name]
    kind = METRICS[name][0]
    if kind in ("self", "layer", "scoped"):
        return "s"
    if kind == "probe_ratio":
        return "ratio"
    if kind == "probe_max":
        return "bits"
    if kind == "probe_mean":
        return "states"
    if kind == "probe_sum":
        return "edges"
    return "count"


def layer_metrics(tracer, passes):
    """Per-pass values of METRICS from the spans of `passes` traced passes."""
    names, layers, spans = tracer.names, tracer.layers, tracer.spans
    wanted = {n for spec in METRICS.values() for n in spec[1:]}
    scope_bit = {}
    for spec in METRICS.values():
        if spec[0] in ("scoped", "top"):
            for n in spec[2 if spec[0] == "scoped" else 1:]:
                scope_bit.setdefault(n, 1 << len(scope_bit))
    nid_bit = [scope_bit.get(n, 0) for n in names]

    self_t = [e - s for s, e in zip(spans.start, spans.end)]
    inside = [0] * len(spans)           # scope bits of strict ancestors
    for i, (nid, start, end, parent, _) in enumerate(spans.rows()):
        if parent >= 0:
            self_t[parent] -= end - start
            inside[i] = inside[parent] | nid_bit[spans.nid[parent]]

    calls, self_by, probes = {}, {}, {}
    layer_self, scoped, scope_spans = {}, {}, []
    for i, (nid, start, end, parent, probe) in enumerate(spans.rows()):
        name, layer, st = names[nid], layers[nid], self_t[i]
        layer_self[layer] = layer_self.get(layer, 0.0) + st
        bits = inside[i] | nid_bit[nid]
        if bits:
            key = (layer, bits)
            scoped[key] = scoped.get(key, 0.0) + st
        if name in wanted:
            calls[name] = calls.get(name, 0) + 1
            self_by[name] = self_by.get(name, 0.0) + st
            if probe == probe:
                probes.setdefault(name, []).append(probe)
        if nid_bit[nid]:
            scope_spans.append((name, inside[i]))

    def mask_of(fnames):
        mask = 0
        for n in fnames:
            mask |= scope_bit[n]
        return mask

    out = {}
    for metric, (kind, *args) in METRICS.items():
        if kind == "calls":
            v = calls.get(args[0], 0) / passes
        elif kind == "self":
            v = self_by.get(args[0], 0.0) / passes
        elif kind == "layer":
            v = layer_self.get(args[0], 0.0) / passes
        elif kind == "scoped":
            mask = mask_of(args[1:])
            v = sum(t for (lay, bits), t in scoped.items()
                    if lay == args[0] and bits & mask) / passes
        elif kind == "top":
            mask = mask_of(args)
            v = sum(1 for n, bits in scope_spans if n in args and not bits & mask) / passes
        elif kind == "count":
            v = tracer.counts[tracer.ids[args[0]]] / passes if args[0] in tracer.ids else 0
        else:
            vals = probes.get(args[0], [])
            if kind == "probe_sum":
                v = sum(vals) / passes
            elif kind == "probe_max":
                v = max(vals, default=0)
            else:
                v = sum(vals) / len(vals) if vals else 0.0
        out[metric] = v
    return out
