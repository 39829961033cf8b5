"""Coset interaction diagnostics.

The q-map of subgroups A, B, C <= G and offsets f, g sends the double coset
(A cap B^f) a (A cap C^g) to B (f a g^-1) C.  Finiteness of collisions among
q-images controls local finiteness of products of immersions, and for
finitely generated abelian groups it is decidable exactly: the verdict is
true iff the image and kernel of q_{0,0} are both finite, or B+A = C+A = G
and the kernel is trivial.  For free groups only sampled evidence is
reported, never a verdict.
"""

from __future__ import annotations

from .backends import AbelianGroup


class QMapAbelian:
    """q_{f,g}: A/((A cap B) + (A cap C)) -> G/(B + C), x -> x + (f - g).

    All data is presented through invariant factors; evaluation works on
    canonical coset representatives.
    """

    def __init__(self, G, A, B, C, f=None, g=None):
        self.G = G
        self.A, self.B, self.C = A, B, C
        self.f = G.identity() if f is None else f
        self.g = G.identity() if g is None else g
        self.dom_sub = A.intersect(B).join(A.intersect(C))   # (A cap B)+(A cap C)
        self.cod_sub = B.join(C)                             # B + C
        self.shift = G.mul(self.f, G.inv(self.g))

    def evaluate(self, a):
        """Canonical codomain representative of q(a) for a in A."""
        if not self.A.contains(a):
            raise ValueError("argument outside the domain subgroup")
        return self.cod_sub.lat.coset_canon(self.G.mul(a, self.shift))

    def domain_classes(self):
        """Coset representatives of the domain (requires finiteness)."""
        return [self.G.canon(r) for r in self.dom_sub.lat.transversal(self.A.lat)]

    def domain_order(self):
        return self.dom_sub.lat.index_in(self.A.lat)

    def codomain_order(self):
        return self.cod_sub.index()

    def kernel_order(self):
        """Order of the kernel of q_{0,0} (None = infinite)."""
        ker_top = self.A.intersect(self.cod_sub)
        return self.dom_sub.lat.index_in(ker_top.lat)

    def image_order(self):
        """Order of the image of q_{0,0} = (A + B + C)/(B + C)."""
        return self.cod_sub.lat.index_in(self.A.join(self.cod_sub).lat)


def q_map_z(i, j, k, m, n):
    """The G = Z specialization: domain iZ/gcd(lcm(i,j), lcm(i,k))Z maps to
    Z/gcd(j,k)Z by it -> it + (m - n)."""
    Z = AbelianGroup.Z()
    return QMapAbelian(Z, Z.subgroup([(i,)]), Z.subgroup([(j,)]),
                       Z.subgroup([(k,)]), (m,), (n,))


class FcipReport:
    def __init__(self, verdict, clause=None, details=None):
        self.verdict = verdict            # True | False | "sampled-evidence"
        self.clause = clause              # which characterization clause fired
        self.details = details or {}

    def __repr__(self):
        return f"FcipReport(verdict={self.verdict!r}, clause={self.clause!r})"

    def lines(self):
        out = [f"verdict: {self.verdict}"]
        if self.clause:
            out.append(f"clause: {self.clause}")
        for k in sorted(self.details):
            out.append(f"{k}: {self.details[k]}")
        return out


def fcip_abelian(G, B, C, A):
    """Exact decision for finitely generated abelian groups.

    True iff (image and kernel of q_{0,0} both finite) or
    (B+A = C+A = G and the kernel of q_{0,0} is trivial)."""
    q = QMapAbelian(G, A, B, C)
    ker = q.kernel_order()
    img = q.image_order()
    BA_full = B.join(A).equals(G.full_subgroup())
    CA_full = C.join(A).equals(G.full_subgroup())
    details = {"kernel_order": ker, "image_order": img,
               "B+A=G": BA_full, "C+A=G": CA_full}
    if ker is None:
        return FcipReport(False, clause="infinite-kernel", details=details)
    if img is not None:
        return FcipReport(True, details=details)
    # image infinite from here on
    if ker > 1:
        return FcipReport(False, clause="infinite-image-nontrivial-kernel",
                          details=details)
    if not BA_full and not CA_full:
        return FcipReport(False, clause="neither-sum-full", details=details)
    if BA_full != CA_full:
        return FcipReport(False, clause="one-sum-full", details=details)
    return FcipReport(True, details=details)


def fcip_zero_check(subgroups):
    """0-FCIP relative to a collection holds iff every member is finite."""
    return all(h.order() is not None for h in subgroups)


def fcip_bruteforce_sample(G, A, B, C, offsets, length_bound, max_family=8):
    """Free-group sampler: collision evidence for the q-maps, never a verdict.

    offsets: iterable of candidate words for both f and g families; members
    falling into already-seen (B, A)- / (C, A)-double cosets are dropped so
    the families hit pairwise distinct cosets, as the definition requires."""
    BA, CA, BC = G.double_cosets(B, A), G.double_cosets(C, A), G.double_cosets(B, C)
    fam_f = []
    for w in offsets:
        if all(not BA.eq(f0, w) for f0 in fam_f):
            fam_f.append(w)
        if len(fam_f) >= max_family:
            break
    fam_g = []
    for w in offsets:
        if all(not CA.eq(g0, w) for g0 in fam_g):
            fam_g.append(w)
        if len(fam_g) >= max_family:
            break
    counts = {}
    domain_sizes = {}
    for f in fam_f:
        Bf = B.conjugate(f)
        ABf = A.intersect(Bf)
        for g in fam_g:
            Cg = C.conjugate(g)
            domain = G.double_cosets(ABf, A.intersect(Cg))
            reps = []
            for a in A.elements_up_to(length_bound):
                if all(not domain.eq(r, a) for r in reps):
                    reps.append(a)
            domain_sizes[(f, g)] = len(reps)
            for a in reps:
                img = BC.canon(G.mul(G.mul(f, a), G.inv(g)))
                counts[img] = counts.get(img, 0) + 1
    collisions = sum(max(0, c - 1) for c in counts.values())
    multiset = sorted((c for c in counts.values() if c > 1), reverse=True)
    return FcipReport("sampled-evidence", details={
        "family_sizes": (len(fam_f), len(fam_g)),
        "domain_sizes": domain_sizes,
        "collision_count": collisions,
        "collision_multiset": multiset,
    })


def k_fcip_index_harness(G, A, A_prime, B, C, samples):
    """Check that the double-coset map of a finite-index restriction is at
    most k-to-one (k the index), over the given coset samples.

    samples: elements of A_prime.  Returns a report with the worst observed
    multiplicity and any violations."""
    k = A_prime.index_in(A)
    if k is None:
        raise ValueError("A' must have finite index in A")
    fine = G.double_cosets(B.intersect(A_prime), C.intersect(A_prime))
    coarse = G.double_cosets(B, C)
    fine_classes = {}
    for a in samples:
        if not A_prime.contains(a):
            continue
        key = fine.canon(a)
        if key in fine_classes:
            continue
        fine_classes[key] = a
    mult = {}
    for key, a in fine_classes.items():
        mult.setdefault(coarse.canon(a), []).append(key)
    worst = max((len(v) for v in mult.values()), default=0)
    violations = {c: v for c, v in mult.items() if len(v) > k}
    return {"k": k, "worst_multiplicity": worst,
            "violations": violations,
            "classes_checked": len(fine_classes)}
