"""Free group words.

A word is a tuple of nonzero ints: i > 0 is the i-th generator, -i its
inverse.  Serialization uses lowercase letters for generators and the
matching uppercase letter for the inverse (a <-> a^-1 = A).  The letter
order used for lexicographic comparisons is a < A < b < B < ...
"""

from __future__ import annotations


def wreduce(seq):
    out = []
    for x in seq:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def wmul(*words):
    out = []
    for w in words:
        for x in w:
            if out and out[-1] == -x:
                out.pop()
            else:
                out.append(x)
    return tuple(out)


def winv(w):
    return tuple(-x for x in reversed(w))


def wpow(w, n):
    """w^n for any integer n.  With w = u c u^-1 and c cyclically reduced,
    u c^n u^-1 is already reduced."""
    if n == 0:
        return ()
    u, c = cyc_reduce(w)
    if n < 0:
        c, n = winv(c), -n
    return u + c * n + winv(u)


def wconj(w, x):
    """w^x = x^-1 w x."""
    return wmul(winv(x), w, x)


def letter_key(x):
    # a < A < b < B < ...
    return (abs(x), 0 if x > 0 else 1)


def word_key(w):
    return (len(w), tuple(letter_key(x) for x in w))


def parse_word(s, rank=None):
    out = []
    for ch in s:
        if ch in " \t":
            continue
        if "a" <= ch <= "z":
            x = ord(ch) - ord("a") + 1
        elif "A" <= ch <= "Z":
            x = -(ord(ch) - ord("A") + 1)
        else:
            raise ValueError(f"bad letter {ch!r} in word {s!r}")
        if rank is not None and abs(x) > rank:
            raise ValueError(f"letter {ch!r} out of rank {rank} in {s!r}")
        out.append(x)
    return wreduce(out)


def format_word(w):
    return "".join(chr(ord("a") + x - 1) if x > 0 else chr(ord("A") - x - 1) for x in w)


def cyc_reduce(w):
    """Return (u, c) with w == u c u^-1 (as reduced words), c cyclically reduced."""
    w = wreduce(w)
    i, j = 0, len(w)
    while j - i >= 2 and w[i] == -w[j - 1]:
        i += 1
        j -= 1
    return w[:i], w[i:j]


def primitive_root(w):
    """Return (root, k) with w == root^k, root not a proper power, k maximal.

    Raises ValueError on the empty word.
    """
    w = wreduce(w)
    if not w:
        raise ValueError("empty word has no primitive root")
    u, c = cyc_reduce(w)
    n = len(c)
    for d in range(1, n + 1):
        if n % d:
            continue
        if c == c[:d] * (n // d):
            root = wmul(u, c[:d], winv(u))
            return root, n // d
    raise AssertionError("unreachable")


def cyclic_conjugate(r, rp):
    """Find x with r^x == rp or r^x == rp^-1; None if no such x exists.

    Works for arbitrary nonempty words (cyclic reduction applied internally).
    Among all rotation witnesses the shortest, then lexicographically least,
    is returned (deterministic).
    """
    r, rp = wreduce(r), wreduce(rp)
    if not r or not rp:
        return () if r == rp else None
    u, c = cyc_reduce(r)
    candidates = []
    for target in (rp, winv(rp)):
        up, cp = cyc_reduce(target)
        if len(c) != len(cp):
            continue
        for i in range(len(c)):
            if c[i:] + c[:i] == cp:
                # (st)^s = ts with s = c[:i]
                candidates.append(wmul(u, c[:i], winv(up)))
    if not candidates:
        return None
    return min(candidates, key=word_key)
