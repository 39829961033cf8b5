"""Seeded workloads of the gogroups benchmark and their reference checks.

A workload is a fixed list of operations built from a seed during set-up.
CLI operations get JSON files written to a temporary directory and run
in-process through `gogroups.cli.main`; library operations get objects.
Each operation carries a check that compares the program's parsed output
with a reference taken from the paper's closed forms, from answers known by
construction, or from a different module than the one under test (never
from recorded output of the code under test).

Timed operations call the package through module attributes
(`morphism.realize_subgroup`, `gcli.main`), so that the span wrappers of a
traced run see them.

Ops carry a `level`: their position in the workload's doubling series
(0, 1, 2), or None when they are outside it.  The benchmark reports the top
level as `largest_s` and the ratio of the top two levels as `growth_exp`.
"""

from __future__ import annotations

import ast
import contextlib
import functools
import io
import json
import os
import random
import re
import shutil
from dataclasses import dataclass
from typing import Callable

from gogroups import cli as gcli
from gogroups import gogio, morphism, pullback
from gogroups.backends import FreeGroup
from gogroups.backends.rational import coset_nfa
from gogroups.library import free_double_gog, free_hnn_gog, rose_gog, word_apath
from gogroups.morphism import trace_apath
from gogroups.words import format_word, wreduce

SAMPLES = "samples"
ZSQ = ("zsquared_hnn.json", "zsquared_hnn_sub_C.json", "zsquared_hnn_sub_B.json")
ZSQ_BUDGETS = (64, 128, 256)
# generators traced through both immersions per run, per budget (16 in all)
ZSQ_TRACE_SAMPLE = (5, 5, 6)
ROSE_WORD_LEN = 16
ROSE_SERIES = (10, 20, 40)
# independent word sets per level: folding cost varies from set to set by
# about 13% (IQR / median), so a level measures several
ROSE_INSTANCES = 4
FREE_SHARED = (4, 8, 16)
FREE_WORD_LEN = 10
FREE_PRIVATE = 2
# generator sets per level and graph of groups.  The sets do not depend on
# the seed: at 16 shared generators the pullback of one set took from 0.14
# to 2.4 s, so seeded sets moved run_s by 44% (IQR / median) across seeds.
FREE_INSTANCES = 3
FREE_BUDGET = 256
# free-coset: shared generators per level, their length, instances per
# level, the length of g, and members (and as many non-members) per instance
COSET_SHARED = (8, 16, 32)
COSET_WORD_LEN = 24
COSET_INSTANCES = 12
COSET_G_LEN = 8
COSET_TARGETS = 1
GBS_SIZES = (25, 50, 100)
DECORATED_SIZES = (400, 800, 1600)


@dataclass
class Op:
    name: str
    level: int | None
    run: Callable[[], object]
    # check(output, full) -> list of problems; `full` adds the costly checks
    check: Callable[[object, bool], list]


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def cli(argv):
    """(exit code, stdout text) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = gcli.main([str(a) for a in argv])
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue()


def write_json(path, data):
    with open(path, "w") as fh:
        json.dump(data, fh)
    return path


def random_word(rng, length, rank=2):
    """Freely reduced word of the given length."""
    letters = [x for i in range(1, rank + 1) for x in (i, -i)]
    w = []
    while len(w) < length:
        x = rng.choice(letters)
        if not w or w[-1] != -x:
            w.append(x)
    return tuple(w)


# A-path repr items: a list element, a quoted word, an integer or an edge name
_APATH_ITEM = re.compile(r"\[[^\[\]]*\]|'[^']*'|-?\d+|[A-Za-z_][\w~]*(?:\^-1)?")


@functools.lru_cache(maxsize=None)
def _apath_item(tok):
    return tok if tok[0].isalpha() or tok[0] == "_" else ast.literal_eval(tok)


def split_apath(text):
    """Tokens of an `APath[...]` repr: parsed elements and edge names."""
    if not (text.startswith("APath[") and text.endswith("]")):
        raise ValueError(f"not an A-path: {text[:40]!r}")
    body = text[len("APath["):-1]
    items = _APATH_ITEM.findall(body)
    if ", ".join(items) != body:
        raise ValueError(f"unexpected A-path item in {text[:40]!r}")
    return [_apath_item(tok) for tok in items]


def parse_generators(text):
    """Generator A-path token lists from an `intersect` report."""
    gens = []
    for line in text.splitlines():
        m = re.fullmatch(r"generator (\d+): (APath\[.*\])", line)
        if m:
            if int(m.group(1)) != len(gens):
                raise ValueError(f"generator numbering breaks at {line[:30]!r}")
            gens.append(split_apath(m.group(2)))
    return gens


def rose_readback(tokens):
    """Free-group word spelled by an A-path over a rose (edges e0, e1, ...)."""
    word = []
    for tok in tokens[1::2]:
        letter = int(tok.split("^")[0][1:]) + 1
        word.append(-letter if tok.endswith("^-1") else letter)
    return wreduce(word)


def apath_readback(path):
    """The same for an APath object over `rose_gog`."""
    return wreduce([(e >> 1) + 1 if e & 1 == 0 else -((e >> 1) + 1) for e in path.edges])


def expect(problems, cond, msg):
    if not cond:
        problems.append(msg)


def verdict_of(text):
    lines = text.splitlines()
    return lines[-1] if lines else ""


# ---------------------------------------------------------------------------
# zsq-ray: the Z^2 HNN counterexample at growing budgets
# ---------------------------------------------------------------------------


def zsq_ray(seed, tmp, levels=(0, 1, 2)):
    files = [shutil.copy(os.path.join(SAMPLES, f), tmp) for f in ZSQ]
    rng = random.Random(f"zsq-ray:{seed}")
    samples = {}
    for lvl in range(len(ZSQ_BUDGETS)):
        n = ZSQ_BUDGETS[lvl] + 1
        samples[lvl] = sorted(rng.sample(range(n), ZSQ_TRACE_SAMPLE[lvl]))
    immersions = {}

    def immersions_for_trace():
        # the two factors, realized once, outside the timed region
        if not immersions:
            A, _ = gogio.parse_gog(gogio.load(files[0]))
            immersions["A"] = A
            for key, path in (("C", files[1]), ("B", files[2])):
                gens = [gogio.parse_apath(p, A, 0) for p in gogio.load(path)["generators"]]
                immersions[key] = morphism.realize_subgroup(A, 0, gens)
        return immersions

    ops = []
    for lvl in levels:
        b = ZSQ_BUDGETS[lvl]
        out_json = os.path.join(tmp, f"pullback{b}.json")
        out_dot = os.path.join(tmp, f"pullback{b}.dot")
        ops.append(Op(
            f"pullback@{b}", lvl,
            lambda b=b, oj=out_json, od=out_dot: cli(
                ["pullback", *files, "--budget", b, "--out", oj, "--dot", od]),
            lambda out, full, b=b, oj=out_json, od=out_dot: check_zsq_pullback(out, b, oj, od)))
        ops.append(Op(
            f"intersect@{b}", lvl,
            lambda b=b: cli(["intersect", *files, "--budget", b]),
            lambda out, full, b=b, lvl=lvl: check_zsq_intersect(
                out, b, samples[lvl] if full else (), immersions_for_trace)))
    return ops


ZSQ_GROUP = "<[1, 0]>"


def check_zsq_pullback(out, budget, out_json, out_dot):
    """Ray of budget+1 vertices: vertex i and edge i have witness
    [0, 2^i - 1]; every vertex and edge group is <[1, 0]>."""
    rc, text = out
    p = []
    expect(p, rc == 0, f"exit code {rc}")
    verts, edges = [], []
    for line in text.splitlines():
        m = re.fullmatch(r"vertex (\d+): pair=\(\w+,\w+\) witness=(\[.*?\]) "
                         r"group=(<.*>) component=(\d+)", line)
        if m:
            verts.append((int(m.group(1)), json.loads(m.group(2)), m.group(3), int(m.group(4))))
        m = re.fullmatch(r"edge (\d+): (\d+)->(\d+) pair=\(\w+,\w+\) "
                         r"witness=(\[.*?\]) group=(<.*>)", line)
        if m:
            edges.append((int(m.group(1)), int(m.group(2)), int(m.group(3)),
                          json.loads(m.group(4)), m.group(5)))
    expect(p, len(verts) == budget + 1, f"{len(verts)} vertices, expected {budget + 1}")
    expect(p, len(edges) == budget, f"{len(edges)} edges, expected {budget}")
    for i, (idx, wit, grp, comp) in enumerate(verts):
        if (idx, wit, grp, comp) != (i, [0, 2 ** i - 1], ZSQ_GROUP, 0):
            p.append(f"vertex {i}: witness {wit}, group {grp}, component {comp}")
            break
    for i, (idx, src, dst, wit, grp) in enumerate(edges):
        if (idx, src, dst, wit, grp) != (i, i, i + 1, [0, 2 ** i - 1], ZSQ_GROUP):
            p.append(f"edge {i}: {src}->{dst} witness {wit} group {grp}")
            break
    expect(p, "ray-certificate: provably infinite ascending union (period 1, ascent 2)"
           in text.splitlines(), "ray certificate missing")
    expect(p, verdict_of(text) == "VERDICT: budget-exhausted", verdict_of(text))
    try:
        with open(out_json) as fh:
            data = json.load(fh)
        with open(out_dot) as fh:
            dot = fh.read()
    except (OSError, ValueError) as exc:
        return p + [f"artifact unreadable: {exc}"]
    jv, je = data.get("vertices", {}), data.get("edges", [])
    expect(p, len(jv) == budget + 1 and len(je) == budget, "--out vertex/edge count")
    for i in range(min(len(jv), budget + 1)):
        x = jv.get(f"x{i}", {})
        if x.get("witness") != [0, 2 ** i - 1] or x.get("group") != [[1, 0]]:
            p.append(f"--out vertex x{i}: {x.get('witness')} {x.get('group')}")
            break
    for i, h in enumerate(je):
        if (h.get("from"), h.get("to"), h.get("witness"), h.get("group")) != (
                f"x{i}", f"x{i + 1}", [0, 2 ** i - 1], [[1, 0]]):
            p.append(f"--out edge h{i}")
            break
    expect(p, data.get("complete") is False, "--out complete flag")
    arcs = re.findall(r"^\s*(\d+) -> (\d+);$", dot, re.M)
    expect(p, arcs == [(str(i), str(i + 1)) for i in range(budget)], "--dot arcs")
    return p


def zsq_generator_tokens(i):
    """e^i . [1, 0] . e^-i, the paper's i-th intersection generator."""
    return [[0, 0], "e"] * i + [[1, 0]] + ["e^-1", [0, 0]] * i


def check_zsq_intersect(out, budget, trace_sample, immersions_for_trace):
    rc, text = out
    p = []
    expect(p, rc == 0, f"exit code {rc}")
    try:
        gens = parse_generators(text)
    except (ValueError, SyntaxError) as exc:
        return p + [f"unparsable generators: {exc}"]
    expect(p, len(gens) == budget + 1, f"{len(gens)} generators, expected {budget + 1}")
    for i, g in enumerate(gens):
        if g != zsq_generator_tokens(i):
            p.append(f"generator {i} is not e^{i} [1, 0] e^-{i}")
            break
    lines = text.splitlines()
    expect(p, "flag: lower-bound" in lines, "flag is not lower-bound")
    expect(p, "ray-certificate: provably infinite ascending union" in lines,
           "ray certificate missing")
    expect(p, verdict_of(text) == "VERDICT: lower-bound", verdict_of(text))
    if trace_sample and not p:
        imm = immersions_for_trace()
        A = imm["A"]
        for i in trace_sample:
            path = gogio.parse_apath(gens[i], A, 0)
            for key in ("C", "B"):
                m, base = imm[key]
                if not trace_apath(m, path, start=base):
                    p.append(f"generator {i} does not trace through immersion {key}")
    return p


# ---------------------------------------------------------------------------
# rose-fold: folding realization over a rose of trivial groups
# ---------------------------------------------------------------------------


def rose_fold(seed, tmp, levels=(0, 1, 2)):
    rng = random.Random(f"rose-fold:{seed}")
    A = rose_gog(2)
    F = FreeGroup(2)
    ops = []
    for lvl in range(len(ROSE_SERIES)):
        k = ROSE_SERIES[lvl]
        for j in range(ROSE_INSTANCES):
            words = [random_word(rng, ROSE_WORD_LEN) for _ in range(k)]
            shared = [random_word(rng, ROSE_WORD_LEN) for _ in range(k // 4)]
            H = shared + [random_word(rng, ROSE_WORD_LEN) for _ in range(k // 2 - k // 4)]
            K = shared + [random_word(rng, ROSE_WORD_LEN) for _ in range(k // 2 - k // 4)]
            if lvl not in levels:
                continue
            paths = [word_apath(A, w) for w in words]
            pH = [word_apath(A, w) for w in H]
            pK = [word_apath(A, w) for w in K]
            ops.append(Op(f"realize@k={k}#{j}", lvl,
                          lambda paths=paths: morphism.realize_subgroup(A, 0, paths),
                          lambda out, full, words=words: check_rose_realize(out, F, words)))
            ops.append(Op(f"intersect@k={k}#{j}", lvl,
                          lambda pH=pH, pK=pK: rose_intersection(A, pH, pK),
                          lambda out, full, H=H, K=K: check_rose_intersection(out, F, H, K)))
    return ops


def rose_intersection(A, pH, pK):
    mH, _ = morphism.realize_subgroup(A, 0, pH)
    mK, _ = morphism.realize_subgroup(A, 0, pK)
    # the product of two finite immersions has at most |H| |K| vertices
    frag = pullback.build_product(mH, mK, budget=mH.source.graph.nv * mK.source.graph.nv)
    gens, exact = frag.intersection_generators()
    return gens, exact


def check_rose_realize(out, F, words):
    m, base = out
    ref = F.subgroup(words).aut.n_states
    got = m.source.graph.nv
    return [] if got == ref else [f"{got} vertices, Stallings graph has {ref}"]


def check_rose_intersection(out, F, H, K):
    gens, exact = out
    p = []
    expect(p, exact is True, "intersection flag is not exact")
    got = F.subgroup([apath_readback(g) for g in gens])
    ref = F.subgroup(H).intersect(F.subgroup(K))
    expect(p, got.equals(ref), "read-back intersection differs from the Stallings intersection")
    return p


# ---------------------------------------------------------------------------
# free-cyclic: realize, pull back and intersect over free vertex groups
# ---------------------------------------------------------------------------


def random_closed_apath(rng, A, n_edges, length):
    """Closed A-path at vertex 0 with n_edges edges and `length` letters
    spread over its vertex-group elements."""
    from gogroups.gog import APath
    g = A.graph
    per = max(1, length // (n_edges + 1))
    v, elems, edges = 0, [], []
    for i in range(n_edges):
        outs = [e for e in g.edges() if g.o(e) == v]
        if i == n_edges - 1:
            outs = [e for e in outs if g.t(e) == 0] or outs
        e = rng.choice(outs)
        elems.append(random_word(rng, per))
        edges.append(e)
        v = g.t(e)
    elems.append(random_word(rng, per))
    return APath(A, 0, elems, edges)


def free_cyclic(seed, tmp, levels=(0, 1, 2)):
    rng = random.Random("free-cyclic")
    gogs = (("double-aa", free_double_gog("aa", "aa")),
            ("hnn-ab-ba", free_hnn_gog("ab", "ba")))
    ops = []
    for lvl in range(len(FREE_SHARED)):
        n = FREE_SHARED[lvl]
        for j in range(FREE_INSTANCES):
            for label, A in gogs:
                def gen():
                    return random_closed_apath(rng, A, 2, FREE_WORD_LEN)
                shared = [gen() for _ in range(n)]
                H = shared + [gen() for _ in range(FREE_PRIVATE)]
                K = shared + [gen() for _ in range(FREE_PRIVATE)]
                if lvl not in levels:
                    continue
                ops.append(Op(f"{label}@shared={n}#{j}", lvl,
                              lambda A=A, H=H, K=K: free_product_run(A, H, K),
                              lambda out, full, H=H, K=K: check_free_cyclic(out, H, K)))
    return ops


def free_product_run(A, H, K):
    mH, bH = morphism.realize_subgroup(A, 0, H)
    mK, bK = morphism.realize_subgroup(A, 0, K)
    frag = pullback.build_product(mH, mK, budget=FREE_BUDGET)
    gens, exact = frag.intersection_generators()
    return (mH, bH), (mK, bK), gens


def check_free_cyclic(out, H, K):
    (mH, bH), (mK, bK), gens = out
    p = []
    for label, (m, b), inputs in (("H", (mH, bH), H), ("K", (mK, bK), K)):
        bad = [i for i, path in enumerate(inputs) if not trace_apath(m, path, start=b)]
        expect(p, not bad, f"input generators {bad} of {label} do not trace through its immersion")
    bad = [i for i, path in enumerate(gens)
           if not (trace_apath(mH, path, start=bH) and trace_apath(mK, path, start=bK))]
    expect(p, not bad, f"intersection generators {bad} do not trace through both immersions")
    return p


# ---------------------------------------------------------------------------
# free-coset: double cosets and intersections of free subgroups
# ---------------------------------------------------------------------------
#
# The layers free-cyclic loads (backends.rational, backends.free, words)
# without FreeGroup.dc_canon: Benois coset automata decide membership of
# seeded targets in H g K and factor the members, and Stallings graphs give
# H and K and their intersection.  H and K are generated inside the kernel of
# phi: F2 -> Z/3, w -> (exponent sum of a) mod 3, so phi is phi(g) on all of
# H g K: a target h g k is a member and h g a k is not, by construction.
# The words are long enough (COSET_WORD_LEN) that H and K stay of infinite
# index: many short generators fold to the whole kernel, a 3-state graph.


def kernel_word(rng, length):
    """Seeded reduced word of the given length with a-exponent sum 0 mod 3."""
    while True:
        w = random_word(rng, length)
        if (w.count(1) - w.count(-1)) % 3 == 0:
            return w


def free_reduce(letters):
    """Free reduction, independent of gogroups.words."""
    out = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def free_invert(w):
    return tuple(-x for x in reversed(w))


def product_of(rng, gens, factors):
    """Reduced product of `factors` seeded generators or their inverses."""
    letters = []
    for _ in range(factors):
        w = rng.choice(gens)
        letters.extend(w if rng.random() < 0.5 else free_invert(w))
    return free_reduce(letters)


def free_coset(seed, tmp, levels=(0, 1, 2)):
    """An instance doubles its shared generators along the series: level i
    uses the first COSET_SHARED[i] of them, so its levels differ in size
    only, and growth_exp compares like with like."""
    rng = random.Random(f"free-coset:{seed}")
    F = FreeGroup(2)
    by_level = [[] for _ in COSET_SHARED]
    for j in range(COSET_INSTANCES):
        shared = [kernel_word(rng, COSET_WORD_LEN) for _ in range(COSET_SHARED[-1])]
        own_h = [kernel_word(rng, COSET_WORD_LEN) for _ in range(FREE_PRIVATE)]
        own_k = [kernel_word(rng, COSET_WORD_LEN) for _ in range(FREE_PRIVATE)]
        # each query (g, target) has its own g: the automaton's cost depends
        # on how far g cancels into H and K
        gs = [random_word(rng, COSET_G_LEN) for _ in range(2 * COSET_TARGETS)]
        for lvl, n in enumerate(COSET_SHARED):
            H, K = shared[:n] + own_h, shared[:n] + own_k
            queries, expected = [], []
            for q, g in enumerate(gs):
                member = q % 2 == 0
                h, k = product_of(rng, H, 3), product_of(rng, K, 3)
                queries.append((g, free_reduce(h + g + (() if member else (1,)) + k)))
                expected.append(member)
            if lvl not in levels:
                continue
            by_level[lvl].append(Op(
                f"coset@shared={n}#{j}", lvl,
                lambda H=H, K=K, queries=queries: free_coset_run(F, H, K, queries),
                lambda out, full, H=H, K=K, queries=queries, expected=expected,
                    shared=shared[:n]:
                    check_free_coset(out, full, F, H, K, queries, expected, shared)))
    return [op for ops in by_level for op in ops]


def free_coset_run(F, H, K, queries):
    SH, SK = F.subgroup(H), F.subgroup(K)
    meet = SH.intersect(SK).gens
    verdicts = [F.dc_eq(SH, g, SK, t) for g, t in queries]
    factors = [F.dc_factor(SH, g, SK, t) if v else None
               for (g, t), v in zip(queries, verdicts)]
    return meet, verdicts, factors


@functools.lru_cache(maxsize=None)
def reference_subgroup(F, words):
    """Stallings subgroup of a check, built once per generator tuple."""
    return F.subgroup(list(words))


def check_free_coset(out, full, F, H, K, queries, expected, shared):
    """Verdicts against the construction; each factor (h, k) multiplies back
    to its target and h, k lie in H, K (Stallings graphs of backends.free).
    With `full`, the intersection's basis lies in H and K and contains the
    shared generators, by double-coset membership (backends.rational)."""
    meet, verdicts, factors = out
    p = []
    expect(p, verdicts == expected, f"membership verdicts {verdicts}, expected {expected}")
    SH, SK = reference_subgroup(F, tuple(H)), reference_subgroup(F, tuple(K))
    for i, ((g, t), fac) in enumerate(zip(queries, factors)):
        if fac is None:
            continue
        h, k = fac
        if free_reduce(tuple(h) + g + tuple(k)) != t or not SH.contains(h) or not SK.contains(k):
            p.append(f"factor {i} does not multiply back to its target from H and K")
            break
    if full:
        # membership in a subgroup S is membership in the double coset S 1 1
        T = F.trivial_subgroup()
        in_h, in_k = coset_nfa(SH, (), T), coset_nfa(SK, (), T)
        outside = [i for i, b in enumerate(meet) if not (in_h.member(b) and in_k.member(b))]
        expect(p, not outside, f"intersection generators {outside} are not in both H and K")
        in_meet = coset_nfa(F.subgroup(meet), (), T)
        missing = [i for i, w in enumerate(shared) if not in_meet.member(w)]
        expect(p, not missing, f"shared generators {missing} are not in the intersection")
    return p


# ---------------------------------------------------------------------------
# cli-mix: many short CLI calls plus synthetic scaling files
# ---------------------------------------------------------------------------

# decide-fgip answers known by construction: a loop decides by whether it has
# a unit side, a single non-loop edge by being (2,2) after collapse, finite
# edge groups with free/abelian/finite vertices give yes, and Z^2 vertex
# groups have no decision route.
SAMPLE_VERDICTS = {
    "bs_1_2.json": "yes", "bs_2_3.json": "no", "decorated_two_loops.json": "no",
    "double_f2_cubes.json": "no", "double_f2_squares.json": "yes",
    "klein_amalgam.json": "yes", "rose2.json": "yes", "zsquared_hnn.json": "unknown",
}
VERDICT_EXIT = {"yes": 0, "no": 1, "unknown": 2}
IMMERSION_SAMPLES = (("rose2.json", "rose2_sub_H.json"), ("rose2.json", "rose2_sub_K.json"),
                     ("zsquared_hnn.json", "zsquared_hnn_sub_B.json"),
                     ("zsquared_hnn.json", "zsquared_hnn_sub_C.json"))


def gog_samples():
    """Sample graphs of groups: every sample with a vertex table."""
    out = []
    for name in sorted(os.listdir(SAMPLES)):
        with open(os.path.join(SAMPLES, name)) as fh:
            data = json.load(fh)
        if isinstance(data.get("vertices"), dict):
            out.append(name)
    return out


def gbs_tree(rng, n):
    """Tree of n Z vertices rooted at v0, edges parent -> child with alpha = 1
    at the parent and a seeded omega in {1, 2, 3} at the child, plus one loop
    at the root.  Returns (file data, child multipliers)."""
    verts = {f"v{i}": {"Z": True} for i in range(n)}
    edges, parent, mult = [], [None] * n, [1] * n
    for i in range(1, n):
        parent[i] = rng.randrange(i)
        mult[i] = rng.choice((1, 2, 3))
        edges.append({"name": f"t{i}", "from": f"v{parent[i]}", "to": f"v{i}",
                      "group": {"Z": True}, "alpha": [1], "omega": [mult[i]]})
    edges.append({"name": "loop", "from": "v0", "to": "v0", "group": {"Z": True},
                  "alpha": [rng.choice((1, 2, 3))], "omega": [rng.choice((2, 3))]})
    return {"vertices": verts, "edges": edges, "basepoint": "v0"}, parent, mult


def gbs_core_size(parent, mult):
    """Core of a rooted GBS tree plus a root loop, in edge pairs: the loop plus
    every edge on a root path to a vertex whose parent edge has a non-unit
    multiplier there (backtracking is allowed exactly at those vertices)."""
    keep = {0}
    for v in range(len(parent)):
        if mult[v] != 1:
            while v not in keep:
                keep.add(v)
                v = parent[v]
    return len(keep), len(keep)


DECORATED_GADGETS = (
    ("unit-loop", "yes"), ("loop-no-unit-side", "no"), ("two-unit-loops", "no"),
    ("2-2-edge", "yes"), ("edge-not-2-2", "no"),
)


def decorated_tree(rng, n):
    """Tree of n (1,1) edges plus one gadget at a seeded vertex.  The tree
    collapses to one vertex with unchanged gadget indices, so the verdict is
    the gadget's.  Returns (file data, expected verdict)."""
    verts = [f"v{i}" for i in range(n + 1)]
    edges = [{"name": f"t{i}", "from": f"v{rng.randrange(i)}", "to": f"v{i}",
              "indices": [1, 1]} for i in range(1, n + 1)]
    kind, verdict = rng.choice(DECORATED_GADGETS)
    at = f"v{rng.randrange(n + 1)}"
    if kind == "unit-loop":
        ind = [1, rng.randint(1, 5)]
        rng.shuffle(ind)
        edges.append({"name": "g", "from": at, "to": at, "indices": ind})
    elif kind == "loop-no-unit-side":
        edges.append({"name": "g", "from": at, "to": at,
                      "indices": [rng.randint(2, 5), rng.randint(2, 5)]})
    elif kind == "two-unit-loops":
        edges.append({"name": "g1", "from": at, "to": at, "indices": [1, 1]})
        edges.append({"name": "g2", "from": at, "to": at, "indices": [1, rng.randint(1, 4)]})
    else:
        verts.append("w")
        if kind == "2-2-edge":
            ind = [2, 2]
        else:
            ind = rng.choice(([2, 3], [3, 2], [3, 3], [2, 4], [4, 4]))
        edges.append({"name": "g", "from": at, "to": "w", "indices": ind})
    return {"decorated": True, "vertices": verts, "edges": edges}, verdict


def root_word(rng, length):
    """Cyclically reduced word over a, b that is not a proper power."""
    while True:
        w = random_word(rng, length)
        s = format_word(w)
        if w[0] != -w[-1] and (s + s).find(s, 1) == len(s):
            return s


def free_double_verdict(k, j):
    """FGIP of F2 *_Z F2 with z -> r^k and z -> s^j, r and s not proper
    powers: the commensurator graph is one (k, j) edge."""
    return "yes" if k == 1 or j == 1 or (k, j) == (2, 2) else "no"


def fcip_z_verdict(i, j, k):
    """Closed form of the abelian FCIP decision in G = Z for A = iZ, B = jZ,
    C = kZ: true iff kernel and image of q_{0,0} are finite, or B + A = C + A
    = Z and the kernel is trivial (gcd/lcm of 0 is the zero subgroup)."""
    from math import gcd, lcm
    g = gcd(j, k)                          # B + C
    M = gcd(lcm(i, j), lcm(i, k))          # (A cap B) + (A cap C)
    top = lcm(i, g)                        # A cap (B + C)
    ker = (M // top if top else 1) if M else (1 if top == 0 else None)
    img = (g // gcd(i, g)) if g else (1 if i == 0 else None)
    ba, ca = gcd(i, j) == 1, gcd(i, k) == 1
    if ker is None:
        return False
    if img is not None:
        return True
    return ker == 1 and ba and ca


def cli_mix(seed, tmp, levels=(0, 1, 2)):
    rng = random.Random(f"cli-mix:{seed}")
    ops = []
    for name in sorted(os.listdir(SAMPLES)):
        shutil.copy(os.path.join(SAMPLES, name), tmp)

    def sample(name):
        return os.path.join(tmp, name)

    def add(name, level, argv, check):
        ops.append(Op(name, level, lambda argv=argv: cli(argv), check))

    # every subcommand on every applicable sample
    for name in gog_samples():
        with open(sample(name)) as fh:
            data = json.load(fh)
        nv, ne = len(data["vertices"]), len(data["edges"])
        counts = [f"vertices: {nv}", f"edge-pairs: {ne}"]
        add(f"validate {name}", None, ["validate", sample(name)],
            lambda out, full, c=counts: check_lines(out, 0, c + ["VERDICT: ok"]))
        # every sample is a loop graph or one edge with proper images at both
        # ends, hence its own core and already reduced
        add(f"core {name}", None, ["core", sample(name)],
            lambda out, full, c=counts: check_lines(out, 0, c + ["VERDICT: ok"]))
        base = data.get("basepoint", next(iter(data["vertices"])))
        add(f"core --at {name}", None, ["core", sample(name), "--at", base],
            lambda out, full, c=counts: check_lines(out, 0, c + ["VERDICT: ok"]))
        add(f"reduce {name}", None, ["reduce", sample(name)],
            lambda out, full, c=counts: check_lines(out, 0, c + ["VERDICT: ok"]))
        add(f"export-dot {name}", None, ["export-dot", sample(name)],
            lambda out, full, nv=nv, ne=ne: check_dot(out, nv, ne))
    for name, verdict in SAMPLE_VERDICTS.items():
        add(f"decide-fgip {name}", None, ["decide-fgip", sample(name)],
            lambda out, full, v=verdict: check_lines(out, VERDICT_EXIT[v], [f"VERDICT: {v}"]))
    for name, k in (("double_f2_squares.json", 2), ("double_f2_cubes.json", 3)):
        add(f"w-construct {name}", None, ["w-construct", sample(name)],
            lambda out, full, k=k: check_w(out, k, k))
    for gog, imm in IMMERSION_SAMPLES:
        add(f"immersion-check {imm}", None, ["immersion-check", sample(gog), sample(imm)],
            lambda out, full, imm=sample(imm): check_immersion(out, imm))
    rose_h, rose_k = (sample(f"rose2_sub_{x}.json") for x in "HK")
    add("pullback rose2", None, ["pullback", sample("rose2.json"), rose_h, rose_k, "--budget", 500],
        lambda out, full: check_lines(out, 0, ["complete: True", "VERDICT: complete"]))
    add("intersect rose2", None, ["intersect", sample("rose2.json"), rose_h, rose_k,
                                  "--budget", 500],
        lambda out, full: check_rose_cli_intersect(out, rose_h, rose_k))
    zsq = [sample(f) for f in ZSQ]
    add("pullback zsquared@16", None, ["pullback", *zsq, "--budget", 16, "--out",
                                       os.path.join(tmp, "z.json"), "--dot",
                                       os.path.join(tmp, "z.dot")],
        lambda out, full: check_zsq_pullback(out, 16, os.path.join(tmp, "z.json"),
                                             os.path.join(tmp, "z.dot")))

    # seeded GBS loops and segments for the truth table
    for i in range(6):
        m, n = (rng.choice((1, -1)) * rng.randint(1, 4) for _ in range(2))
        loop = {"vertices": {"u": {"Z": True}}, "edges": [
            {"name": "e", "from": "u", "to": "u", "group": {"Z": True},
             "alpha": [m], "omega": [n]}]}
        v = "yes" if abs(m) == 1 or abs(n) == 1 else "no"
        path = write_json(os.path.join(tmp, f"bs{i}.json"), loop)
        add(f"decide-fgip BS({m},{n})", None, ["decide-fgip", path],
            lambda out, full, v=v: check_lines(out, VERDICT_EXIT[v], [f"VERDICT: {v}"]))
        m, n = (rng.choice((1, -1)) * rng.randint(1, 3) for _ in range(2))
        seg = {"vertices": {"u": {"Z": True}, "v": {"Z": True}}, "edges": [
            {"name": "e", "from": "u", "to": "v", "group": {"Z": True},
             "alpha": [m], "omega": [n]}]}
        v = "yes" if abs(m) == 1 or abs(n) == 1 or (abs(m), abs(n)) == (2, 2) else "no"
        path = write_json(os.path.join(tmp, f"seg{i}.json"), seg)
        add(f"decide-fgip segment({m},{n})", None, ["decide-fgip", path],
            lambda out, full, v=v: check_lines(out, VERDICT_EXIT[v], [f"VERDICT: {v}"]))

    # seeded free doubles over roots that are not proper powers
    for i in range(3):
        k, j = rng.randint(1, 3), rng.randint(1, 3)
        r, s = root_word(rng, rng.randint(3, 6)), root_word(rng, rng.randint(3, 6))
        data = {"vertices": {"u": {"free": 2}, "v": {"free": 2}}, "edges": [
            {"name": "e", "from": "u", "to": "v", "group": {"free": 1},
             "alpha": [r * k], "omega": [s * j]}], "basepoint": "u"}
        path = write_json(os.path.join(tmp, f"double{i}.json"), data)
        add(f"w-construct double({r}^{k},{s}^{j})", None, ["w-construct", path],
            lambda out, full, k=k, j=j: check_w(out, k, j))
        v = free_double_verdict(k, j)
        add(f"decide-fgip double({r}^{k},{s}^{j})", None, ["decide-fgip", path],
            lambda out, full, v=v: check_lines(out, VERDICT_EXIT[v], [f"VERDICT: {v}"]))

    # seeded abelian FCIP requests in Z
    for i in range(8):
        a, b, c = (rng.randint(0, 30) for _ in range(3))
        path = write_json(os.path.join(tmp, f"fcip{i}.json"), {
            "kind": "abelian", "group": {"Z": True}, "A": [a], "B": [b], "C": [c]})
        v = fcip_z_verdict(a, b, c)
        add(f"fcip Z({a},{b},{c})", None, ["fcip", path],
            lambda out, full, v=v: check_lines(out, 0 if v else 1, [f"VERDICT: {v}"]))

    # the doubling series: GBS trees and decorated trees
    for lvl, (n, m) in enumerate(zip(GBS_SIZES, DECORATED_SIZES)):
        tree, parent, mult = gbs_tree(rng, n)
        deco, verdict = decorated_tree(rng, m)
        if lvl not in levels:
            continue
        path = write_json(os.path.join(tmp, f"gbs{n}.json"), tree)
        counts = [f"vertices: {n}", f"edge-pairs: {n}"]
        add(f"validate gbs{n}", lvl, ["validate", path],
            lambda out, full, c=counts: check_lines(out, 0, c + ["VERDICT: ok"]))
        cv, ce = gbs_core_size(parent, mult)
        add(f"core gbs{n}", lvl, ["core", path],
            lambda out, full, cv=cv, ce=ce: check_lines(
                out, 0, [f"vertices: {cv}", f"edge-pairs: {ce}", "VERDICT: ok"]))
        red = os.path.join(tmp, f"gbs{n}.reduced.json")
        add(f"reduce gbs{n}", lvl, ["reduce", path, "--out", red],
            lambda out, full, red=red: check_gbs_reduce(out, red))
        dpath = write_json(os.path.join(tmp, f"deco{m}.json"), deco)
        add(f"decide-fgip deco{m}", lvl, ["decide-fgip", dpath],
            lambda out, full, v=verdict: check_lines(out, VERDICT_EXIT[v], [f"VERDICT: {v}"]))
    return ops


def check_lines(out, code, lines):
    """Exit code, and every expected line present (the last one last)."""
    rc, text = out
    got = text.splitlines()
    p = []
    expect(p, rc == code, f"exit code {rc}, expected {code}")
    for line in lines:
        expect(p, line in got, f"missing line {line!r}")
    expect(p, bool(got) and got[-1] == lines[-1], f"last line {verdict_of(text)!r}")
    return p


def check_dot(out, nv, ne):
    rc, text = out
    p = []
    expect(p, rc == 0, f"exit code {rc}")
    nodes = re.findall(r'^\s*\d+ \[label=".*"\];$', text, re.M)
    arcs = re.findall(r"^\s*\d+ -- \d+ \[label=", text, re.M)
    expect(p, (len(nodes), len(arcs)) == (nv, ne),
           f"{len(nodes)} nodes / {len(arcs)} edges, expected {nv} / {ne}")
    return p


def check_w(out, k, j):
    """Commensurator graph of one edge z -> r^k, z -> s^j: two Z vertices and
    one edge with indices (k, j)."""
    rc, text = out
    p = check_lines(out, 0, ["w-vertices: 2", "w-edge-pairs: 1", "VERDICT: ok"])
    edges = re.findall(r"^edge \S+: \S+ -> \S+ indices=\((\d+),(\d+)\)$", text, re.M)
    expect(p, edges == [(str(k), str(j))], f"edge indices {edges}, expected ({k},{j})")
    return p


def check_immersion(out, imm_path):
    """Folded immersions are immersions; over the rose, covering exactly when
    the Stallings graph (backends.free) is complete."""
    p = check_lines(out, 0, ["VERDICT: immersion"])
    if os.path.basename(imm_path).startswith("rose2"):
        with open(imm_path) as fh:
            words = [rose_readback(g) for g in json.load(fh)["generators"]]
        complete = FreeGroup(2).subgroup(words).aut.complete(2)
        want = f"covering: {'yes' if complete else 'no'}"
        expect(p, want in out[1].splitlines(), f"missing line {want!r}")
    return p


def check_rose_cli_intersect(out, h_path, k_path):
    rc, text = out
    p = check_lines(out, 0, ["flag: exact", "VERDICT: exact"])
    F = FreeGroup(2)
    with open(h_path) as fh:
        H = [rose_readback(g) for g in json.load(fh)["generators"]]
    with open(k_path) as fh:
        K = [rose_readback(g) for g in json.load(fh)["generators"]]
    got = F.subgroup([rose_readback(g) for g in parse_generators(text)])
    expect(p, got.equals(F.subgroup(H).intersect(F.subgroup(K))),
           "read-back intersection differs from the Stallings intersection")
    return p


def check_gbs_reduce(out, red_path):
    """Reduction keeps E - V, and leaves no non-loop edge with a unit end."""
    p = check_lines(out, 0, ["VERDICT: ok"])
    try:
        with open(red_path) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        return p + [f"--out unreadable: {exc}"]
    nv, ne = len(data["vertices"]), len(data["edges"])
    expect(p, ne - nv == 0, f"reduced graph has {ne} edges on {nv} vertices")
    expect(p, f"vertices: {nv}" in out[1].splitlines(), "stdout and --out disagree")
    for ed in data["edges"]:
        if ed["from"] != ed["to"] and 1 in (abs(ed["alpha"][0]), abs(ed["omega"][0])):
            p.append(f"edge {ed['name']} is collapsible")
            break
    return p


WORKLOADS = {
    "zsq-ray": zsq_ray,
    "rose-fold": rose_fold,
    "free-cyclic": free_cyclic,
    "free-coset": free_coset,
    "cli-mix": cli_mix,
}
