"""File formats: graphs of groups, immersions and decorated graphs.

Everything is JSON.  A gog file has `vertices` (name -> group spec),
`edges` (list of {name, from, to, group, alpha, omega}) and an optional
`basepoint`.  Group specs: {"free": r} | {"Z": true} |
{"abelian": {"rank": r, "torsion": [...]}} | {"finite": {"table": [[...]]}} |
{"trivial": true}.  Elements are serialized per backend: free-group words as
strings over a..z (uppercase = inverse), abelian elements as integer lists
(rank-1 groups accept bare integers), finite elements as table indices.
`alpha`/`omega` list the images of the edge group's canonical generators;
non-injective maps are rejected with a violation report.

A morphism file carries its source graph inline: vertex groups are subgroups
of the target's groups (`over` + generator list), edges reference a directed
target edge by name (`e` or `e^-1`) and carry the two twisting elements.

A decorated file ({"decorated": true, ...}) abstracts a graph of virtually Z
groups to its index data; indices are positive integers or "inf".
"""

from __future__ import annotations

import json

from .backends import AbelianGroup, FiniteGroup, FreeGroup, Mono
from .fgip import DecoratedGraph
from .gog import APath, GraphOfGroups, validate_gog
from .graphs import Graph
from .morphism import morphism_of_handles


class ParseError(ValueError):
    pass


def as_list(value, what):
    """value, checked to be a JSON list: a string where a list of elements
    belongs would otherwise be read one character per element."""
    if not isinstance(value, list):
        raise ParseError(f"{what} must be a list, got {value!r}")
    return value


def parse_group_spec(spec):
    if not isinstance(spec, dict):
        raise ParseError(f"group spec must be an object, got {spec!r}")

    def count(x):
        """A rank or torsion factor: an int (not a bool), never negative."""
        if isinstance(x, bool) or not isinstance(x, int) or x < 0:
            raise ParseError(f"malformed group spec {spec!r}: a rank or torsion "
                             f"factor must be a non-negative integer, got {x!r}")
        return x

    try:
        if spec.get("trivial"):
            return FiniteGroup.trivial()
        if spec.get("Z"):
            return AbelianGroup.Z()
        if "free" in spec:
            return FreeGroup(count(spec["free"]))
        if "abelian" in spec:
            body = spec["abelian"]
            return AbelianGroup(count(body.get("rank", 0)),
                                [count(d) for d in as_list(
                                    body.get("torsion", []),
                                    f"malformed group spec {spec!r}: 'torsion'")])
        if "finite" in spec:
            return FiniteGroup(spec["finite"]["table"])
    except (TypeError, AttributeError) as exc:
        raise ParseError(f"malformed group spec {spec!r}: {exc}")
    raise ParseError(f"unknown group spec {spec!r}")


def group_spec_of(G):
    if isinstance(G, FreeGroup):
        return {"free": G.rank}
    if isinstance(G, AbelianGroup):
        if G.rank == 1 and not G.torsion:
            return {"Z": True}
        return {"abelian": {"rank": G.rank, "torsion": list(G.torsion)}}
    if isinstance(G, FiniteGroup):
        if G.n == 1:
            return {"trivial": True}
        return {"finite": {"table": [list(r) for r in G.table]}}
    raise ParseError(f"cannot serialize group {G!r}")


def _edge_list(data):
    """data's `edges` (empty when absent), checked to be a list of objects."""
    edges = as_list(data.get("edges", []), "'edges'")
    for ed in edges:
        if not isinstance(ed, dict):
            raise ParseError(f"an edge must be an object, got {ed!r}")
    return edges


def _edge_name(ed, default):
    """An edge's `name`, `default` when absent; a name is a string."""
    name = ed.get("name", default)
    if not isinstance(name, str):
        raise ParseError(f"an edge name must be a string, got {name!r}")
    return name


def _index(x, what):
    """A decorated half's index: a positive integer, or None for "inf"."""
    if x == "inf":
        return None
    if isinstance(x, int) and not isinstance(x, bool) and x >= 1:
        return x
    raise ParseError(f"{what}: an index is a positive integer or 'inf', got {x!r}")


def _vertex_id(vid, name, what):
    """vid[name]; a ParseError naming `what` when name is no vertex name,
    e.g. a list, which is unhashable."""
    try:
        return vid[name]
    except (KeyError, TypeError):
        raise ParseError(f"{what} references unknown vertex {name!r}")


def parse_gog(data):
    """(GraphOfGroups, basepoint index or None)."""
    if isinstance(data, str):
        data = json.loads(data)
    try:
        vnames = list(data["vertices"].keys())
    except (KeyError, AttributeError, TypeError) as exc:
        raise ParseError(f"missing or malformed 'vertices': {exc}")
    if not vnames:
        raise ParseError("a graph of groups needs a vertex")
    vid = {n: i for i, n in enumerate(vnames)}
    if len(vid) != len(vnames):
        raise ParseError("duplicate vertex names")
    vgroups = [parse_group_spec(data["vertices"][n]) for n in vnames]
    org, tgt, enames, egroups, monos = [], [], [], [], []
    for ed in _edge_list(data):
        name = _edge_name(ed, f"e{len(enames)}")
        if name in enames:
            raise ParseError(f"duplicate edge name {name!r}")
        what = f"edge {name!r}"
        o, t = _vertex_id(vid, ed["from"], what), _vertex_id(vid, ed["to"], what)
        Ge = parse_group_spec(ed["group"])
        Go, Gt = vgroups[o], vgroups[t]
        try:
            alpha = Mono(Ge, Go, [Go.parse(x) for x in as_list(ed["alpha"], "'alpha'")])
            omega = Mono(Ge, Gt, [Gt.parse(x) for x in as_list(ed["omega"], "'omega'")])
        except ValueError as exc:
            raise ParseError(f"edge {name!r}: {exc}")
        org.append(o)
        tgt.append(t)
        enames.append(name)
        egroups.append(Ge)
        monos.append((alpha, omega))
    graph = Graph(len(vnames), list(zip(org, tgt)), vnames=vnames, enames=enames)
    A = GraphOfGroups(graph, vgroups, egroups, monos)
    violations = validate_gog(A)
    if violations:
        raise ParseError("invalid graph of groups: " +
                         "; ".join(str(v) for v in violations))
    base = None
    if "basepoint" in data:
        base = _vertex_id(vid, data["basepoint"], "basepoint")
    return A, base


def serialize_gog(A, basepoint=None):
    g = A.graph
    edges = []
    for p in range(g.n_pairs):
        alpha, omega = A.monos[p]
        Ge = A.egroups[p]
        edges.append({
            "name": g.enames[p],
            "from": g.vnames[g.org[p]],
            "to": g.vnames[g.tgt[p]],
            "group": group_spec_of(Ge),
            "alpha": [alpha.codomain.serialize(x) for x in alpha.images],
            "omega": [omega.codomain.serialize(x) for x in omega.images],
        })
    out = {"vertices": {g.vnames[v]: group_spec_of(A.vgroups[v])
                        for v in range(g.nv)},
           "edges": edges}
    if basepoint is not None:
        out["basepoint"] = g.vnames[basepoint]
    return out


def parse_decorated(data):
    if isinstance(data, str):
        data = json.loads(data)
    vnames = as_list(data["vertices"], "'vertices'")
    vid = {n: i for i, n in enumerate(vnames)}
    if len(vid) != len(vnames):
        raise ParseError("duplicate vertex names")
    pairs, ia, io_, enames = [], [], [], []
    for ed in _edge_list(data):
        name = _edge_name(ed, f"e{len(enames)}")
        what = f"edge {name!r}"
        pairs.append((_vertex_id(vid, ed["from"], what), _vertex_id(vid, ed["to"], what)))
        a, o = ed["indices"]
        ia.append(_index(a, what))
        io_.append(_index(o, what))
        enames.append(name)
    graph = Graph(len(vnames), pairs, vnames=vnames, enames=enames)
    return DecoratedGraph(graph, ia, io_)


def _edge_by_name(A, name):
    g = A.graph
    for p in range(g.n_pairs):
        if g.enames[p] == name:
            return 2 * p
        if g.enames[p] + "^-1" == name:
            return 2 * p + 1
    raise ParseError(f"unknown target edge {name!r}")


def parse_morphism(data, target):
    """(GoGMorphism, source basepoint index or None)."""
    if isinstance(data, str):
        data = json.loads(data)
    g = target.graph
    tvid = {n: i for i, n in enumerate(g.vnames)}
    vnames = list(data["vertices"].keys())
    if not vnames:
        raise ParseError("a morphism needs a vertex")
    vid = {n: i for i, n in enumerate(vnames)}
    vmap, vsubs = [], []
    for n in vnames:
        body = data["vertices"][n]
        if body["over"] not in tvid:
            raise ParseError(f"vertex {n!r} lies over unknown vertex")
        u = tvid[body["over"]]
        G = target.vgroups[u]
        gens = [G.parse(x) for x in as_list(body.get("subgroup", []),
                                            f"vertex {n!r}: 'subgroup'")]
        vmap.append(u)
        vsubs.append(G.subgroup(gens))
    pairs, enames, emap, esubs, twists = [], [], [], [], []
    for ed in _edge_list(data):
        name = _edge_name(ed, f"f{len(enames)}")
        if name in enames:
            raise ParseError(f"duplicate edge name {name!r}")
        e = _edge_by_name(target, ed["over"])
        what = f"edge {name!r}"
        o, t = _vertex_id(vid, ed["from"], what), _vertex_id(vid, ed["to"], what)
        if vmap[o] != g.o(e) or vmap[t] != g.t(e):
            raise ParseError(f"edge {name!r} does not respect incidence")
        Ge = target.egroup(e)
        gens = [Ge.parse(x) for x in as_list(ed.get("subgroup", []), f"{what}: 'subgroup'")]
        Gto, Gtt = target.vgroups[g.o(e)], target.vgroups[g.t(e)]
        ta = Gto.parse(ed["twists"]["alpha"]) if "twists" in ed else Gto.identity()
        tw = Gtt.parse(ed["twists"]["omega"]) if "twists" in ed else Gtt.identity()
        pairs.append((o, t))
        enames.append(name)
        emap.append(e)
        esubs.append(Ge.subgroup(gens))
        twists.append((ta, tw))
    graph = Graph(len(vnames), pairs, vnames=vnames, enames=enames)
    m = morphism_of_handles(target, graph, vmap, vsubs, emap, esubs, twists)
    base = _vertex_id(vid, data["basepoint"], "basepoint") if "basepoint" in data else None
    return m, base


def serialize_morphism(m, basepoint=None):
    S, T = m.source, m.target
    gs, gt = S.graph, T.graph
    verts = {}
    for v in range(gs.nv):
        G = T.vgroups[m.vmap[v]]
        verts[gs.vnames[v]] = {
            "over": gt.vnames[m.vmap[v]],
            "subgroup": [G.serialize(x) for x in m.vmonos[v].images],
        }
    edges = []
    for p in range(gs.n_pairs):
        e = m.emap[p]
        Ge = T.egroup(e)
        Go = T.vgroups[gt.o(e)]
        Gt = T.vgroups[gt.t(e)]
        edges.append({
            "name": gs.enames[p],
            "from": gs.vnames[gs.org[p]],
            "to": gs.vnames[gs.tgt[p]],
            "over": gt.edge_name(e),
            "subgroup": [Ge.serialize(x) for x in m.emonos[p].images],
            "twists": {"alpha": Go.serialize(m.twists[p][0]),
                       "omega": Gt.serialize(m.twists[p][1])},
        })
    out = {"vertices": verts, "edges": edges}
    if basepoint is not None:
        out["basepoint"] = gs.vnames[basepoint]
    return out


def parse_apath(data, A, base):
    """A-path from [a0, "e1", a1, ...] starting at vertex index base."""
    if not isinstance(data, list) or len(data) % 2 == 0:
        raise ParseError("an A-path is an odd-length alternating list")
    elems, edges = [], []
    v = base
    for i, item in enumerate(data):
        if i % 2 == 0:
            elems.append(A.vgroups[v].parse(item))
        else:
            e = _edge_by_name(A, item)
            if A.graph.o(e) != v:
                raise ParseError(f"edge {item!r} does not start at {A.graph.vnames[v]!r}")
            edges.append(e)
            v = A.graph.t(e)
    return APath(A, base, elems, edges)


def load(path):
    with open(path) as fh:
        return json.load(fh)
