"""realize_subgroup's fold worklist against the sorted scan it replaced.

`SortedScanBuilder` is a test-local reference: its find_fold sorts the
whole dirty set on every call, and its saturate_edge runs in full on every
edge, trivial edge group or not.  The builder in `gogroups.morphism` must
give the same immersion, and run out of budget at the same step, on every
input.  The counting tests bound the worklist's work on a rose without
timing it.
"""

from contextlib import contextmanager
from random import Random

from hypothesis import given, settings, strategies as st

import gogroups.morphism as morphism
from gogroups.backends import FiniteGroup, FreeGroup, Mono
from gogroups.gog import APath, GraphOfGroups
from gogroups.graphs import Graph
from gogroups.library import bs_gog, klein_amalgam_gog, rose_gog, word_apath
from gogroups.morphism import BudgetExceeded, realize_subgroup
from gogroups.words import wreduce


class SortedScanBuilder(morphism._Builder):

    def find_fold(self):
        for v in sorted(self.dirty):
            keys = self.verts[v]["keys"]
            seen = {}
            for view in self.star(v):
                key = keys.get(view)
                if key is None:
                    e, _, _, ta, _ = self.view(*view)
                    key = keys[view] = (e, self.double_cosets(v, e).canon(ta))
                if key in seen:
                    return v, seen[key], view
                seen[key] = view
            self.dirty.discard(v)
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
            [list(G.generators()) for G in B.egroups])


def outcome(A, gens, budget):
    try:
        return "done", summary(*realize_subgroup(A, 0, gens, budget=budget))
    except BudgetExceeded as exc:
        return "budget", summary(*exc.partial)


def assert_same_as_sorted_scan(A, gens, budgets=(0, 1, 2, 3, 5, 8, 13, 2000)):
    for budget in budgets:
        got = outcome(A, gens, budget)
        with builder(SortedScanBuilder):
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


@settings(max_examples=60, deadline=None)
@given(rose_words)
def test_rose_matches_sorted_scan(words):
    A = rose_gog(2)
    assert_same_as_sorted_scan(A, [word_apath(A, w) for w in words])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=4), st.data())
def test_finite_free_product_matches_sorted_scan(crossings, data):
    A = z2_star_z3()
    gens = []
    for n in crossings:
        # 2n edges close the path at u; u's elements lie in Z/2, v's in Z/3
        elems = [data.draw(st.integers(0, 1 if i % 2 == 0 else 2)) for i in range(2 * n + 1)]
        gens.append(segment_path(A, elems))
    assert_same_as_sorted_scan(A, gens)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.integers(-3, 3), min_size=1, max_size=5).filter(lambda k: len(k) % 2),
                min_size=1, max_size=3))
def test_klein_amalgam_matches_sorted_scan(paths):
    A = klein_amalgam_gog()
    assert_same_as_sorted_scan(A, [segment_path(A, [(a,) for a in k]) for k in paths])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.lists(st.integers(-3, 3), min_size=1, max_size=4),
                          st.lists(st.sampled_from([0, 1]), max_size=3)),
                min_size=1, max_size=3))
def test_bs_1_2_matches_sorted_scan(paths):
    A = bs_gog(1, 2)
    gens = []
    for elems, edges in paths:
        elems = (elems + [0] * len(edges))[:len(edges) + 1]
        gens.append(APath(A, 0, [(a,) for a in elems], edges))
    assert_same_as_sorted_scan(A, gens, budgets=(0, 1, 2, 3, 5, 8, 13, 60))


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


def test_worklist_work_is_linear_on_a_rose(monkeypatch):
    rng = Random(1207)
    words = [wreduce(rng.choice([1, -1, 2, -2]) for _ in range(16)) for _ in range(80)]
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
    # ab and aB: both middle vertices are queued when the fold at the base
    # makes them one, so the one folded away is popped after its death
    counts = Counts(monkeypatch)
    A = rose_gog(2)
    words = [(1, 2), (1, -2)]
    m, base = realize_subgroup(A, 0, [word_apath(A, w) for w in words])
    assert m.source.graph.nv == FreeGroup(2).subgroup(words).aut.n_states
    assert counts.stale >= 1
    assert counts.pushes <= counts.work()
    assert counts.visits <= 2 * counts.work()
    assert not counts.builders[0].queue
