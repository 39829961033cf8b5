"""CLI robustness: mutated input files never crash the command line.

hypothesis mutates one JSON document (a sample file, a morphism file or an
fcip request) by dropping, retyping or renaming fields, or by pointing an
edge end at an unknown vertex, and runs every subcommand that reads that
document.  The documented contract holds for every input: exit 0/1/2 for a
verdict, exit 3 with an `error:` line for an input error, and never a
traceback.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import tempfile

from hypothesis import HealthCheck, given, settings, strategies as st

from gogroups.cli import main

from test_golden import FCIP_REQUESTS, SAMPLES, _path

# gogs with the immersion files that are read against them: generator lists
# and the morphism files of tests/test_golden.py.  A mutated gog is read with
# its first two, and a mutated immersion is paired with its gog's first
IMMERSIONS = {"rose2": ["rose2_sub_H", "rose2_sub_K", "inputs/rose2_sub_H.morphism"],
              "zsquared_hnn": ["zsquared_hnn_sub_C", "zsquared_hnn_sub_B",
                               "inputs/zsquared_hnn_sub_C.morphism"],
              "inputs/modular": ["inputs/modular_sub_P", "inputs/modular_sub_P.morphism"],
              "double_f2_squares": ["inputs/double_f2_squares_sub_P",
                                    "inputs/double_f2_squares_sub_P.morphism"]}
SINGLE_FILE = [["validate"], ["reduce"], ["core"], ["core", "--at", "u"],
               ["decide-fgip"], ["w-construct"], ["export-dot"], ["fcip"]]
BUDGET = ["--budget", "6"]


def _load(name):
    with open(_path(name)) as fh:
        return json.load(fh)


DOCS = {name: _load(name) for name in
        sorted(f[:-len(".json")] for f in os.listdir(SAMPLES) if f.endswith(".json"))}
DOCS.update({f"fcip-{kind}": req for kind, req in FCIP_REQUESTS.items()})
GOG_OF = {imm: gog for gog, imms in IMMERSIONS.items() for imm in imms}
DOCS.update({imm: _load(imm) for imm in GOG_OF if imm.endswith(".morphism")})

JUNK = [None, True, 0, -1, 2, 2.5, "", "x", "u", "inf", [], [0], [1, 0], [[1, 0]],
        ["e"], {}, {"Z": True}, {"free": 2}, {"trivial": True}]
KEYS = ["name", "from", "to", "over", "group", "alpha", "omega", "indices",
        "vertices", "edges", "basepoint", "generators", "decorated", "kind", "x"]


def _nodes(doc, at=()):
    """Paths (tuples of keys and indices) to every node below the root."""
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for k, v in items:
        yield at + (k,)
        yield from _nodes(v, at + (k,))


def _edges(doc):
    edges = doc.get("edges") if isinstance(doc, dict) else None
    if not isinstance(edges, list):
        return []
    return [ed for ed in edges if isinstance(ed, dict)]


@st.composite
def mutated_documents(draw):
    name = draw(st.sampled_from(sorted(DOCS)))
    doc = copy.deepcopy(DOCS[name])
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["drop", "retype", "rename", "unknown-vertex"]))
        if kind == "unknown-vertex" and _edges(doc):
            edge = draw(st.sampled_from(_edges(doc)))
            edge[draw(st.sampled_from(["from", "to", "over"]))] = "nowhere"
            continue
        nodes = list(_nodes(doc))
        if not nodes:
            doc = draw(st.sampled_from(JUNK))
            continue
        path = draw(st.sampled_from(nodes))
        parent = doc
        for k in path[:-1]:
            parent = parent[k]
        key = path[-1]
        if kind == "drop":
            del parent[key]
        elif kind == "rename" and isinstance(parent, dict):
            parent[draw(st.sampled_from(KEYS))] = parent.pop(key)
        else:
            parent[key] = copy.deepcopy(draw(st.sampled_from(JUNK)))
    return name, doc


def _argvs(name, path):
    """Every command line that reads the document `name`, with it at path."""
    out = [cmd[:1] + [path] + cmd[1:] for cmd in SINGLE_FILE]
    if name in IMMERSIONS:
        first, second = (_path(n) for n in IMMERSIONS[name][:2])
        out.append(["immersion-check", path, first])
        for cmd in ("pullback", "intersect"):
            out.append([cmd, path, first, second] + BUDGET)
    if name in GOG_OF:
        gog = _path(GOG_OF[name])
        other = _path(IMMERSIONS[GOG_OF[name]][0])
        out.append(["immersion-check", gog, path])
        for cmd in ("pullback", "intersect"):
            out.append([cmd, gog, path, other] + BUDGET)
            out.append([cmd, gog, other, path] + BUDGET)
    return out


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, err.getvalue()


def check_contract(argv):
    rc, err = run_cli(argv)
    assert rc in (0, 1, 2, 3), (argv, rc)
    assert "Traceback" not in err, (argv, err)
    if rc == 3:
        assert err.startswith("error: "), (argv, err)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutated_documents())
def test_mutated_inputs_keep_the_exit_code_contract(case):
    name, doc = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "mutated.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        for argv in _argvs(name, path):
            check_contract(argv)
