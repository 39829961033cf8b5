"""realize_subgroup's fold worklist against the sorted scan it replaced, and
its shared handles against a builder that shares nothing.

`SortedScanBuilder` is a test-local reference: its find_fold scans the star
of every live vertex in id order on every call, and each saturation sweep
runs saturate_edge in full on every live edge, trivial edge group or not,
so it checks which vertices and edges the builder marks dirty instead of
relying on them.  `UnsharedBuilder` is another: every vertex
and edge gets its own trivial subgroup, every double-coset query its own
handle, and to_morphism builds a backend and a Mono per item.  The builder
in `gogroups.morphism` must give the same immersion, and run out of budget
at the same step, as each of them on every input, reduced or not.  The
counting tests bound the worklist's work and the objects it builds on a
rose without timing it.
"""

from contextlib import contextmanager
from random import Random
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

import gogroups.gog as gog
import gogroups.morphism as morphism
from gogroups.backends import FiniteGroup, FreeGroup, Mono, SubgroupBackend
from gogroups.backends.finite import FiniteDoubleCosets
from gogroups.backends.rational import CosetNFA
from gogroups.gog import APath, GraphOfGroups
from gogroups.graphs import Graph
from gogroups.library import (bs_gog, free_double_gog, free_hnn_gog, klein_amalgam_gog,
                              rose_gog, word_apath)
from gogroups.morphism import BudgetExceeded, realize_subgroup
from gogroups.words import wreduce


class LiveEdges:
    """Stands in for `dirty_edges`: holds every live edge, whatever the
    builder marks, so the sweep saturates each of them every round."""

    def __init__(self, edges):
        self.edges = edges

    def __contains__(self, i):
        return self.edges[i]["alive"]

    def add(self, i):
        pass

    def update(self, items):
        pass

    def discard(self, i):
        pass


class SortedScanBuilder(morphism._Builder):

    def __init__(self, A, u0):
        super().__init__(A, u0)
        self.dirty_edges = LiveEdges(self.edges)

    def find_fold(self):
        for v in range(len(self.verts)):
            if not self.verts[v]["alive"]:
                continue
            seen = {}
            for view in self.star(v):
                e, _, _, ta, _ = self.view(*view)
                key = e, self.double_cosets(v, e).canon(ta)
                if key in seen:
                    return v, seen[key], view
                seen[key] = view
        return None

    def saturate_edge(self, i):
        A = self.A
        d = self.edges[i]
        self.dirty_edges.discard(i)
        changed = False
        e = d["img"]
        alpha, omega = A.alpha(e), A.omega(e)
        Ho = self.verts[d["src"]]["sub"]
        Ht = self.verts[d["dst"]]["sub"]
        req_a = Ho.conjugate(d["ta"]).intersect(alpha.image())
        req_w = Ht.conjugate(d["tw"]).intersect(omega.image())
        S_new = d["esub"].join(alpha.preimage_sub(req_a)).join(omega.preimage_sub(req_w))
        if not S_new.equals(d["esub"]):
            d["esub"] = S_new
            d["pushed"] = False
            changed = True
        if d["pushed"]:
            return changed
        push_a = A.vgroups[A.graph.o(e)].subgroup(alpha.twisted_images(d["ta"], d["esub"].gens))
        push_w = A.vgroups[A.graph.t(e)].subgroup(omega.twisted_images(d["tw"], d["esub"].gens))
        grown_o = self.verts[d["src"]]["sub"].join(push_a)
        if not grown_o.equals(self.verts[d["src"]]["sub"]):
            self.verts[d["src"]]["sub"] = grown_o
            self.touch(d["src"])
            changed = True
        grown_t = self.verts[d["dst"]]["sub"].join(push_w)
        if not grown_t.equals(self.verts[d["dst"]]["sub"]):
            self.verts[d["dst"]]["sub"] = grown_t
            self.touch(d["dst"])
            changed = True
        d["pushed"] = True
        if changed:
            self.dirty_edges.add(i)
        return changed


class FreshTrivial:
    """Indexed like `_Builder.trivial_esub`, but a new handle per lookup."""

    def __init__(self, groups):
        self.groups = groups

    def __getitem__(self, p):
        return self.groups[p].trivial_subgroup()


class UnsharedBuilder(morphism._Builder):

    def __init__(self, A, u0):
        super().__init__(A, u0)
        self.trivial_esub = FreshTrivial(A.egroups)

    def new_vertex(self, img):
        self.verts.append({"img": img,
                           "sub": self.A.vgroups[img].trivial_subgroup(),
                           "alive": True})
        self.inc.append(set())
        return len(self.verts) - 1

    def double_cosets(self, v, e):
        return self.A.vgroups[self.A.graph.o(e)].double_cosets(
            self.verts[v]["sub"], self.A.alpha(e).image())

    def to_morphism(self):
        A = self.A
        vids = [i for i, v in enumerate(self.verts) if v["alive"]]
        vmapping = {old: new for new, old in enumerate(vids)}
        eids = [i for i, d in enumerate(self.edges) if d["alive"]]
        pairs = [(vmapping[self.edges[i]["src"]], vmapping[self.edges[i]["dst"]])
                 for i in eids]
        graph = Graph(len(vids), pairs,
                      vnames=[f"b{v}" for v in vids],
                      enames=[f"f{i}" for i in eids])
        vgroups = [SubgroupBackend(A.vgroups[self.verts[v]["img"]], self.verts[v]["sub"])
                   for v in vids]
        egroups = [SubgroupBackend(A.egroup(self.edges[i]["img"]), self.edges[i]["esub"])
                   for i in eids]
        monos = []
        for new_p, i in enumerate(eids):
            d = self.edges[i]
            e, gens = d["img"], egroups[new_p].generators()
            af = Mono(egroups[new_p], vgroups[vmapping[d["src"]]],
                      A.alpha(e).twisted_images(d["ta"], gens))
            wf = Mono(egroups[new_p], vgroups[vmapping[d["dst"]]],
                      A.omega(e).twisted_images(d["tw"], gens))
            monos.append((af, wf))
        B = GraphOfGroups(graph, vgroups, egroups, monos)
        vmap = [self.verts[v]["img"] for v in vids]
        emap = [self.edges[i]["img"] for i in eids]
        vmonos = [Mono(vgroups[n], A.vgroups[vmap[n]], vgroups[n].generators())
                  for n in range(len(vids))]
        emonos = [Mono(egroups[n], A.egroup(emap[n]), egroups[n].generators())
                  for n in range(len(eids))]
        twists = [(self.edges[i]["ta"], self.edges[i]["tw"]) for i in eids]
        return morphism.GoGMorphism(B, A, vmap, emap, vmonos, emonos, twists), vmapping[self.base]


@contextmanager
def builder(cls):
    saved = morphism._Builder
    morphism._Builder = cls
    try:
        yield
    finally:
        morphism._Builder = saved


def summary(m, base):
    B, g = m.source, m.source.graph
    return (base, list(g.vnames), list(g.enames), [(g.o(2 * p), g.t(2 * p)) for p in range(g.n_pairs)],
            m.vmap, m.emap, m.twists,
            [list(G.generators()) for G in B.vgroups],
            [list(G.generators()) for G in B.egroups],
            [(B.alpha(2 * p).images, B.omega(2 * p).images) for p in range(g.n_pairs)],
            [f.images for f in m.vmonos], [f.images for f in m.emonos])


def outcome(A, gens, budget):
    try:
        return "done", summary(*realize_subgroup(A, 0, gens, budget=budget))
    except BudgetExceeded as exc:
        return "budget", summary(*exc.partial)


BUDGETS = (0, 1, 2, 3, 5, 8, 13, 2000)


def assert_same_as(reference, A, gens, budgets=BUDGETS):
    for budget in budgets:
        got = outcome(A, gens, budget)
        with builder(reference):
            want = outcome(A, gens, budget)
        assert got == want, budget
        if got[0] == "done":
            break


def z2_star_z3():
    """Z/2 * Z/3: two vertices given by their tables, one edge with a
    trivial edge group."""
    Z2, Z3, E = FiniteGroup.cyclic(2), FiniteGroup.cyclic(3), FiniteGroup.trivial()
    graph = Graph(2, [(0, 1)], vnames=["u", "v"], enames=["e"])
    return GraphOfGroups(graph, [Z2, Z3], [E], [(Mono(E, Z2, []), Mono(E, Z3, []))])


def segment_path(A, elems):
    """Closed A-path at vertex 0 of a one-edge segment: a0 e a1 E a2 e ..."""
    edges = [i % 2 for i in range(len(elems) - 1)]
    return APath(A, 0, list(elems), edges)


letters = st.sampled_from([1, -1, 2, -2])
rose_words = st.lists(st.lists(letters, max_size=10).map(wreduce), min_size=1, max_size=6)
unreduced_rose_words = st.lists(st.lists(letters, max_size=10), min_size=1, max_size=6)


def rose_gens(A, words=rose_words):
    return words.map(lambda ws: [word_apath(A, w) for w in ws])


@st.composite
def z2_star_z3_gens(draw, A):
    gens = []
    for n in draw(st.lists(st.integers(0, 3), min_size=1, max_size=4)):
        # 2n edges close the path at u; u's elements lie in Z/2, v's in Z/3
        elems = [draw(st.integers(0, 1 if i % 2 == 0 else 2)) for i in range(2 * n + 1)]
        gens.append(segment_path(A, elems))
    return gens


def klein_amalgam_gens(A):
    odd_lists = st.lists(st.integers(-3, 3), min_size=1, max_size=5).filter(lambda k: len(k) % 2)
    return st.lists(odd_lists, min_size=1, max_size=3).map(
        lambda paths: [segment_path(A, [(a,) for a in k]) for k in paths])


def bs_1_2_gens(A):
    def path(elems, edges):
        elems = (elems + [0] * len(edges))[:len(edges) + 1]
        return APath(A, 0, [(a,) for a in elems], edges)
    return st.lists(st.builds(path, st.lists(st.integers(-3, 3), min_size=1, max_size=4),
                              st.lists(st.sampled_from([0, 1]), max_size=3)),
                    min_size=1, max_size=3)


@st.composite
def free_vertex_gens(draw, A):
    """Closed A-paths at vertex 0 over free vertex groups of rank 2: up to
    four edges, each out of the vertex the path has reached (an even number
    closes the path on the double and on the loop alike), and at each
    vertex on the way a reduced word of up to three letters, often one of
    a few short words so that edges fold."""
    g = A.graph
    words = st.one_of(st.sampled_from([(), (1,), (-1,), (1, 1), (1, 2), (2, 1)]),
                      st.lists(letters, max_size=3).map(wreduce))
    gens = []
    for n in draw(st.lists(st.integers(0, 2), min_size=1, max_size=4)):
        v, edges = 0, []
        for _ in range(2 * n):
            edges.append(draw(st.sampled_from([e for e in g.edges() if g.o(e) == v])))
            v = g.t(edges[-1])
        gens.append(APath(A, 0, [draw(words) for _ in range(len(edges) + 1)], edges))
    return gens


ROSE, Z2_Z3, KLEIN, BS_1_2 = rose_gog(2), z2_star_z3(), klein_amalgam_gog(), bs_gog(1, 2)
FREE_DOUBLE, FREE_HNN = free_double_gog("aa", "aa"), free_hnn_gog("ab", "ba")
BS_BUDGETS = (0, 1, 2, 3, 5, 8, 13, 60)


@settings(max_examples=60, deadline=None)
@given(rose_gens(ROSE))
def test_rose_matches_sorted_scan(gens):
    assert_same_as(SortedScanBuilder, ROSE, gens)


@settings(max_examples=60, deadline=None)
@given(z2_star_z3_gens(Z2_Z3))
def test_finite_free_product_matches_sorted_scan(gens):
    assert_same_as(SortedScanBuilder, Z2_Z3, gens)


@settings(max_examples=40, deadline=None)
@given(klein_amalgam_gens(KLEIN))
def test_klein_amalgam_matches_sorted_scan(gens):
    assert_same_as(SortedScanBuilder, KLEIN, gens)


@settings(max_examples=40, deadline=None)
@given(bs_1_2_gens(BS_1_2))
def test_bs_1_2_matches_sorted_scan(gens):
    assert_same_as(SortedScanBuilder, BS_1_2, gens, BS_BUDGETS)


@pytest.mark.parametrize("A", [FREE_DOUBLE, FREE_HNN], ids=["double_aa", "hnn_ab_ba"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_free_vertex_groups_match_sorted_scan(A, data):
    assert_same_as(SortedScanBuilder, A, data.draw(free_vertex_gens(A)))


SHARING_FAMILIES = {
    "rose": (ROSE, rose_gens, BUDGETS),
    "z2_z3": (Z2_Z3, z2_star_z3_gens, BUDGETS),
    "klein": (KLEIN, klein_amalgam_gens, BUDGETS),
    "bs12": (BS_1_2, bs_1_2_gens, BS_BUDGETS),
    "free_double": (FREE_DOUBLE, free_vertex_gens, BUDGETS),
    "free_hnn": (FREE_HNN, free_vertex_gens, BUDGETS),
}


@pytest.mark.parametrize("family", sorted(SHARING_FAMILIES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_shared_handles_match_unshared_builder(family, data):
    A, gens, budgets = SHARING_FAMILIES[family]
    assert_same_as(UnsharedBuilder, A, data.draw(gens(A)), budgets)


def test_moved_edges_are_saturated_again():
    # after the first sweep, a merge at vertex 3 folds the vertex 2, of
    # trivial subgroup, into the base, whose subgroup <a, Bab> does not
    # grow; the saturated edge it moves now sees the base's subgroup, and
    # unless it is saturated again its edge group stays too small for
    # condition 2 (edge-group-not-exact)
    A = FREE_DOUBLE
    a, b, e, E = (1,), (2,), 0, 1

    def path(*items):
        return APath(A, 0, list(items[0::2]), list(items[1::2]))

    gens = [path(b, e, a, E, b, e, (), E, (), e, b, E, ()), path((), e, b, E, a),
            path((), e, (), E, (), e, (), E, a), path((-2, 1, 2))]
    m, _ = realize_subgroup(A, 0, gens)
    morphism.is_immersion(m)
    assert_same_as(SortedScanBuilder, A, gens)


# realize_subgroup reduces its generators, and the builder marks a vertex
# inside a petal only where the petal backtracks; these inputs reach
# add_generator as drawn, backtracks and all


UNREDUCED_FAMILIES = {
    "rose": (ROSE, lambda A: rose_gens(A, unreduced_rose_words), BUDGETS),
    "z2_z3": (Z2_Z3, z2_star_z3_gens, BUDGETS),
    "bs12": (BS_1_2, bs_1_2_gens, BS_BUDGETS),
    "free_double": (FREE_DOUBLE, free_vertex_gens, BUDGETS),
    "free_hnn": (FREE_HNN, free_vertex_gens, BUDGETS),
}


@pytest.mark.parametrize("family", sorted(UNREDUCED_FAMILIES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_unreduced_petals_match_full_scan(family, data):
    A, gens, budgets = UNREDUCED_FAMILIES[family]
    drawn = data.draw(gens(A))
    with patch.object(gog, "reduce_apath", lambda p: p):
        assert_same_as(SortedScanBuilder, A, drawn, budgets)


# --- counting: the worklist's work is linear in vertices and merges ---


class Counts:
    def __init__(self, monkeypatch):
        self.pushes = self.visits = self.stale = 0
        self.builders = []
        counts = self

        class CountingSet(set):
            def __iter__(self):
                for v in set.__iter__(self):
                    counts.visits += 1
                    yield v

        class CountingBuilder(morphism._Builder):
            def __init__(self, A, u0):
                counts.builders.append(self)
                self.merges = 0
                super().__init__(A, u0)
                self.dirty = CountingSet(self.dirty)

            def star(self, v):
                counts.visits += 1
                return super().star(v)

            def merge(self, *args):
                self.merges += 1
                return super().merge(*args)

        push, pop = morphism.heappush, morphism.heappop

        def counting_push(heap, v):
            counts.pushes += 1
            push(heap, v)

        def counting_pop(heap):
            v = pop(heap)
            if not self.builders[-1].verts[v]["alive"]:
                counts.stale += 1
            return v

        monkeypatch.setattr(morphism, "_Builder", CountingBuilder)
        monkeypatch.setattr(morphism, "heappush", counting_push)
        monkeypatch.setattr(morphism, "heappop", counting_pop)

    def work(self):
        """Vertices created plus merges, over every builder so far."""
        return sum(len(b.verts) + b.merges for b in self.builders)


def fixed_rose_words(n):
    rng = Random(1207)
    return [wreduce(rng.choice([1, -1, 2, -2]) for _ in range(16)) for _ in range(n)]


def test_worklist_work_is_linear_on_a_rose(monkeypatch):
    words = fixed_rose_words(80)
    counts = Counts(monkeypatch)
    A = rose_gog(2)
    m, base = realize_subgroup(A, 0, [word_apath(A, w) for w in words])
    assert m.source.graph.nv == FreeGroup(2).subgroup(words).aut.n_states
    b = counts.builders[0]
    assert b.merges > len(b.verts) // 2        # the words share a lot
    # one push per entry into the dirty set: a new vertex or a merge's touch
    assert counts.pushes <= counts.work()
    # each visit either finds the fold of a merge or retires a pushed vertex
    assert counts.visits <= 2 * counts.work()


def test_vertex_folded_away_while_queued(monkeypatch):
    # ab and aba: the fold of their a's at the base queues ab's middle
    # vertex; the fold there of their b's re-homes aba's last a onto the
    # base, and the fold of the base's two a's then folds the queued vertex
    # into the base, so it is popped after its death
    counts = Counts(monkeypatch)
    A = rose_gog(2)
    words = [(1, 2), (1, 2, 1)]
    m, base = realize_subgroup(A, 0, [word_apath(A, w) for w in words])
    assert m.source.graph.nv == FreeGroup(2).subgroup(words).aut.n_states
    assert counts.stale >= 1
    assert counts.pushes <= counts.work()
    assert counts.visits <= 2 * counts.work()
    assert not counts.builders[0].queue


def reduced_rose_words(rng, n, length=16):
    """n freely reduced words of the given length, as rose-fold draws them."""
    words = []
    for _ in range(n):
        w = []
        while len(w) < length:
            x = rng.choice([1, -1, 2, -2])
            if not w or w[-1] != -x:
                w.append(x)
        words.append(tuple(w))
    return words


def test_views_keyed_on_roses(monkeypatch):
    # a vertex inside a reduced petal cannot fold, so the first scan keys
    # the base only, and a merge that leaves the scanned vertex's keys alone
    # resumes its scan: 4,392 views keyed on these eight roses (a rescan of
    # the base after every merge keyed 15,512)
    keyed = []

    def counting(self, g, _canon=FiniteDoubleCosets.canon):
        keyed.append(g)
        return _canon(self, g)

    monkeypatch.setattr(FiniteDoubleCosets, "canon", counting)
    A, rng = rose_gog(2), Random(1207)
    for _ in range(8):
        realize_subgroup(A, 0, [word_apath(A, w) for w in reduced_rose_words(rng, 40)])
    assert len(keyed) <= 5000


# --- shared objects: handles and backends built once per subgroup handle ---


def test_objects_built_on_a_rose(monkeypatch):
    built = {"FiniteDoubleCosets": 0, "SubgroupBackend": 0}
    for cls in (FiniteDoubleCosets, SubgroupBackend):
        def counting(self, *args, _init=cls.__init__, _name=cls.__name__):
            built[_name] += 1
            _init(self, *args)
        monkeypatch.setattr(cls, "__init__", counting)
    builders = []

    class TouchCounting(morphism._Builder):
        def __init__(self, A, u0):
            builders.append(self)
            self.touches = 0
            super().__init__(A, u0)

        def touch(self, v):
            self.touches += 1
            super().touch(v)

    monkeypatch.setattr(morphism, "_Builder", TouchCounting)
    A = rose_gog(2)
    realize_subgroup(A, 0, [word_apath(A, w) for w in fixed_rose_words(80)])
    b = builders[0]
    # a handle is made once per subgroup handle and target edge at its
    # image, and a vertex gets a subgroup handle other than the trivial one
    # of its image only just before a touch
    assert built["FiniteDoubleCosets"] <= (A.graph.nv + b.touches) * len(A.graph.out_edges()[0])
    handles = ({id(v["sub"]) for v in b.verts if v["alive"]}
               | {id(d["esub"]) for d in b.edges if d["alive"]})
    assert built["SubgroupBackend"] <= len(handles)


def test_one_handle_per_subgroup_value_on_a_rose(monkeypatch):
    # every vertex group of a rose of trivial groups is trivial: a join of
    # equal values hands back its operand, so the one trivial handle is
    # never replaced and dcs holds one entry per directed target edge
    builders = []

    class Recording(morphism._Builder):
        def __init__(self, A, u0):
            builders.append(self)
            super().__init__(A, u0)

    monkeypatch.setattr(morphism, "_Builder", Recording)
    A = rose_gog(2)
    realize_subgroup(A, 0, [word_apath(A, w) for w in fixed_rose_words(80)])
    dcs = builders[0].dcs
    assert sorted(e for _, e in dcs) == list(A.graph.edges())      # 4 entries
    assert len({id(sub) for sub, _ in dcs}) == 1


def test_free_handle_remembers_canon(monkeypatch):
    # the fold key of a view over a free vertex group is its canon: asking
    # again, after another element evicted the handle's last automaton,
    # built that automaton a second time
    built = []

    def counting(self, *args, _init=CosetNFA.__init__):
        built.append(args)
        _init(self, *args)

    monkeypatch.setattr(CosetNFA, "__init__", counting)
    F = FreeGroup(2)
    dc = F.double_cosets(F.subgroup([(1, 1)]), F.subgroup([(1, 2)]))
    first = dc.canon((2, 1, 2))
    dc.canon((-2, 1))
    assert len(built) == 2
    assert dc.canon((2, 1, 2)) == first
    assert len(built) == 2


def test_equal_handles_share_backends_and_maps():
    # ten words fold little, so most vertices keep the subgroup they were
    # made with, and most edges theirs
    A = rose_gog(2)
    m, base = realize_subgroup(A, 0, [word_apath(A, w) for w in fixed_rose_words(10)])
    B = m.source
    assert len({id(G) for G in B.vgroups}) < B.graph.nv
    assert len({id(E) for E in B.egroups}) < B.graph.n_pairs
    for groups, incs in ((B.vgroups, m.vmonos), (B.egroups, m.emonos)):
        by_handle = {}
        for G, inc in zip(groups, incs):
            assert inc.domain is G
            assert by_handle.setdefault(id(G.handle), (G, inc)) == (G, inc)
    by_key = {}
    for p in range(B.graph.n_pairs):
        alpha, omega = B.monos[p]
        assert alpha.domain is omega.domain is B.egroups[p]
        assert alpha.codomain is B.vgroups[B.graph.org[p]]
        assert omega.codomain is B.vgroups[B.graph.tgt[p]]
        for f in (alpha, omega):
            key = (id(f.domain), id(f.codomain), tuple(f.images))
            assert by_key.setdefault(key, f) is f
