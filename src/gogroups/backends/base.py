"""Shared backend plumbing: the group-backend contract, generic monomorphisms
and the wrapper that presents a subgroup handle as a group backend.

A group backend is duck-typed.  Required surface (G a backend, x, y elements,
H, K subgroup handles):

  G.kind                       "finite" | "abelian" | "free"
  G.identity(); G.mul(x, y); G.inv(x); G.eq(x, y)   (elements are hashable,
                               kept in canonical form so == is equality)
  G.pow(x, n)                  x^n for any integer n (x^-1 repeated when n < 0)
  G.order()                    int or None (infinite)
  G.generators()               canonical generating list (file formats and
                               monomorphism image lists follow this order)
  G.decompose(x)               word [(gen_index, exponent), ...] over generators()
  G.subgroup(gens) / G.trivial_subgroup() / G.full_subgroup()
  G.express(target, gens)      constructive membership: word over `gens`
                               (list of signed 1-based indices) or None
  G.double_cosets(H, K[, S])   handle on H\\G/K (keeping .H and .K), kept by its
                               caller (no backend keeps one): canon(g), a
                               witness of H g K (not canonical over free
                               groups); eq(g, g2); factor(w, target) -> (h, k)
                               with target == h * w * k; meet(g), the
                               subgroup H^g meet K, i.e.
                               H.conjugate(g).intersect(K); reps(), the canon()
                               of every double coset inside S (all of G by
                               default; ValueError when infinitely many, None
                               when unknown); edge_fan(alpha, edge_dc, f_a,
                               g_a), the fan of a pullback vertex along one
                               edge: alpha maps an edge group A_e into G and
                               edge_dc is its handle E1\\A_e/E2; fan.solve(w)
                               lists, in a fixed order, one pair (a, t) per
                               double coset E1 a E2 with t = f_a alpha(a)
                               g_a^-1 in H w K, t None when the fan has not
                               computed it (only FiniteEdgeFan lists it);
                               edge_fan or solve raises UnsupportedExpansion
                               when the fan cannot be listed, saying why;
                               every backend lists the fan of a finite edge
                               group with FiniteEdgeFan
  G.serialize(x) / G.parse(obj)

Subgroup handles expose: .group, .gens, contains, is_trivial, order, index
([G:H], None when infinite), index_in(sup), intersect, join, conjugate,
equals, decompose (word over .gens).

Handles are immutable, and join/intersect/conjugate may return an operand
when the value is unchanged, so a caller may test `is` for "no change":
join returns the operand equal to the result whenever there is one, on
every backend; conjugate returns self when H^g = H on the finite backend
and always on the abelian one.  intersect always returns a new handle whose
.gens are its backend's list for the value (finite: the sorted elements;
abelian: the HNF rows), since pullback vertex groups are meets and their
reports print those lists.
"""

from __future__ import annotations


class UnsupportedExpansion(Exception):
    """An edge fan that cannot be listed; the message says why."""


class FiniteEdgeFan:
    """The fan of a finite edge group, over any vertex backend: f_a alpha(b a
    c) g_a^-1 lies in H (f_a alpha(a) g_a^-1) K for b in E1 and c in E2, so
    one dc.eq test per edge double coset, at its least canon() value,
    decides it; those values and their transports are listed once, and
    solve hands back the transports of the values it picks.  The
    finite backend's own fan, and the free and abelian ones' whenever the
    edge group is finite and their own fan cannot list it."""

    def __init__(self, dc, alpha, edge_dc, f_a, g_a):
        mul, g_inv = dc.group.mul, dc.group.inv(g_a)
        self.eq = dc.eq
        self.raws = [(a, mul(mul(f_a, alpha.apply(a)), g_inv)) for a in sorted(edge_dc.reps())]

    def solve(self, witness):
        return [(a, raw) for a, raw in self.raws if self.eq(witness, raw)]


def evaluate_word(backend, items, word):
    """Multiply out a word of (index, exponent) pairs over items."""
    acc = backend.identity()
    for i, e in word:
        acc = backend.mul(acc, backend.pow(items[i], e))
    return acc


class Mono:
    """A homomorphism given by images of the domain's generators().

    Injectivity is a property checked on demand; the class itself does not
    promise it (validators do).
    """

    def __init__(self, domain, codomain, images):
        images = [codomain.parse(x) if not codomain.is_element(x) else x for x in images]
        if len(images) != len(domain.generators()):
            raise ValueError(
                f"expected {len(domain.generators())} generator images, got {len(images)}"
            )
        self.domain = domain
        self.codomain = codomain
        self.images = list(images)
        self._image_handle = None

    def apply(self, x):
        return evaluate_word(self.codomain, self.images, self.domain.decompose(x))

    def twisted_images(self, t, gens):
        """t . self(s) . t^-1 for each s in gens."""
        G = self.codomain
        t_inv = G.inv(t)
        return [G.mul(G.mul(t, self.apply(s)), t_inv) for s in gens]

    def image(self):
        if self._image_handle is None:
            self._image_handle = self.codomain.subgroup(self.images)
        return self._image_handle

    def is_injective(self):
        return self.domain.mono_injective(self.images, self.codomain)

    def index_of_image(self):
        """Index of the image in the codomain group."""
        if isinstance(self.codomain, SubgroupBackend):
            return self.image().index_in(self.codomain.handle)
        return self.image().index()

    def is_iso(self):
        return self.is_injective() and self.index_of_image() == 1

    def preimage_elt(self, y):
        word = self.codomain.express(y, self.images)
        if word is None:
            raise ValueError("element not in the image")
        return evaluate_word(self.domain, self.domain.generators(), word)

    def preimage_sub(self, handle):
        """Preimage of a codomain subgroup, as a domain subgroup handle."""
        restricted = handle.intersect(self.image())
        gens = []
        for g in restricted.gens:
            gens.append(self.preimage_elt(g))
        return self.domain.subgroup(gens)

    def inverse(self):
        if not self.is_iso():
            raise ValueError("not an isomorphism")
        return Mono(self.codomain, self.domain,
                    [self.preimage_elt(g) for g in self.codomain.generators()])

    def compose(self, inner):
        """self o inner."""
        return Mono(inner.domain, self.codomain, [self.apply(x) for x in inner.images])

    def apply_subgroup(self, handle):
        return self.codomain.subgroup([self.apply(g) for g in handle.gens])


class SubgroupBackend:
    """Presents a subgroup handle as a group backend of its own.

    Elements stay in ambient form; generators() is the handle's generator
    list.  Used for the vertex/edge groups of constructed graphs of groups.
    """

    def __init__(self, ambient, handle):
        self.ambient = ambient
        self.handle = handle
        self.kind = ambient.kind

    def __repr__(self):
        return f"SubgroupBackend({self.ambient!r}, gens={list(self.handle.gens)})"

    def identity(self):
        return self.ambient.identity()

    def mul(self, x, y):
        return self.ambient.mul(x, y)

    def inv(self, x):
        return self.ambient.inv(x)

    def pow(self, x, n):
        return self.ambient.pow(x, n)

    def eq(self, x, y):
        return self.ambient.eq(x, y)

    def is_element(self, x):
        return self.ambient.is_element(x)

    def order(self):
        return self.handle.order()

    def generators(self):
        return list(self.handle.gens)

    def decompose(self, x):
        return self.handle.decompose(x)

    def subgroup(self, gens):
        return self.ambient.subgroup(gens)

    def trivial_subgroup(self):
        return self.ambient.trivial_subgroup()

    def full_subgroup(self):
        return self.handle

    def express(self, target, gens):
        return self.ambient.express(target, gens)

    def double_cosets(self, H, K, S=None):
        return self.ambient.double_cosets(H, K, self.handle if S is None else S)

    def serialize(self, x):
        return self.ambient.serialize(x)

    def parse(self, obj):
        x = self.ambient.parse(obj)
        return x

    def mono_injective(self, images, codomain):
        return self.ambient.sub_mono_injective(self.handle, images, codomain)

    def describe(self):
        return f"subgroup of {self.ambient.describe()} on {len(self.handle.gens)} generators"
