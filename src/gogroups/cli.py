"""Command line front end.

Line-oriented reports ending in a VERDICT line; exit codes: 0 success or
positive verdict, 1 negative verdict, 2 unknown, 3 input error.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import gogio
from .backends import FreeGroup
from .fcip import fcip_abelian, fcip_bruteforce_sample, fcip_zero_check
from .fgip import decide_components, fgip_certify, w_construction
from .gog import gog_core, gog_core_at, reduce_gog
from .morphism import (BudgetExceeded, ImmersionFailure, is_covering, is_immersion,
                       realize_subgroup, validate_morphism)
from .pullback import build_product


class CliError(Exception):
    pass


def _read(path, what, parse):
    """parse(data) for the JSON document at path; every fault of the input
    (unreadable file, bad JSON, missing or wrong-typed field, rejected value)
    is a CliError.  parse only reads the document, so a TypeError,
    AttributeError or IndexError it raises comes from a field of the wrong
    JSON type (a number where an object or list belongs, a short list)."""
    try:
        return parse(gogio.load(path))
    except KeyError as exc:
        raise CliError(f"cannot read {what} from {path}: missing field {exc}")
    except (TypeError, AttributeError, IndexError) as exc:
        raise CliError(f"cannot read {what} from {path}: malformed field ({exc})")
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot read {what} from {path}: {exc}")


def _load_gog(path):
    return _read(path, "graph of groups", gogio.parse_gog)


def _parse_decorated_or_gog(data):
    if isinstance(data, dict) and data.get("decorated"):
        return "decorated", gogio.parse_decorated(data), None
    A, base = gogio.parse_gog(data)
    return "gog", A, base


def _load_decorated_or_gog(path):
    return _read(path, "graph of groups", _parse_decorated_or_gog)


def _parse_immersion(data, A, base):
    """A list of generator paths, closed at base, or (immersion, source
    basepoint) for a morphism file."""
    if isinstance(data, dict) and "generators" in data:
        if "basepoint" in data:
            raise gogio.ParseError("a generator list takes no 'basepoint': its generators "
                                   "are closed at the graph of groups' basepoint")
        paths = [gogio.parse_apath(p, A, base)
                 for p in gogio.as_list(data["generators"], "'generators'")]
        for p in paths:
            if not p.is_closed():
                raise gogio.ParseError(f"generator {p!r} is not a closed path")
        return paths
    m, b = gogio.parse_morphism(data, A)
    return m, (b or 0)


def _load_immersion(path, A, base, check=False):
    """(immersion, source basepoint); base is the gog's basepoint, vertex 0
    when its file names none.  Generators are realized by folding.  With
    check, a morphism file that fails validate_morphism is an input error
    naming its first violation (folded generators always give a morphism)."""
    base = base or 0
    parsed = _read(path, "immersion", lambda data: _parse_immersion(data, A, base))
    if isinstance(parsed, tuple):
        violations = validate_morphism(parsed[0]) if check else []
        if violations:
            raise CliError(f"{path} is not a morphism: {' '.join(map(str, violations[0]))}")
        return parsed
    try:
        return realize_subgroup(A, base, parsed)
    except BudgetExceeded:
        raise CliError(f"folding the generators of {path} exceeds the step budget")


def _load_product(args):
    """The product of the two immersions, expanded from their basepoints."""
    A, base = _load_gog(args.gog)
    m1, b1 = _load_immersion(args.first, A, base, check=True)
    m2, b2 = _load_immersion(args.second, A, base, check=True)
    u1, u2 = m1.vmap[b1], m2.vmap[b2]
    if u1 != u2:
        raise CliError(f"the basepoints of {args.first} and {args.second} lie over "
                       f"different vertices ({A.graph.vnames[u1]!r}, {A.graph.vnames[u2]!r})")
    return build_product(m1, m2, args.budget, b1, b2)


def _emit(lines, out=None):
    for line in lines:
        print(line, file=out if out is not None else sys.stdout)


def _write_optional(path, payload):
    """Write payload (text, or JSON data to indent) to path in one write
    when a path is given; a path that cannot be written is an input error.
    Every caller writes before it prints."""
    if not path:
        return
    if not isinstance(payload, str):
        payload = gogio.dumps(payload) + "\n"
    try:
        with open(path, "w") as fh:
            fh.write(payload)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc.strerror or exc}")


def cmd_validate(args):
    """parse_gog already rejects a graph of groups with violations (exit 3,
    naming them), so a file that loads is valid."""
    A, _ = _load_gog(args.input)
    _emit([f"vertices: {A.graph.nv}", f"edge-pairs: {A.graph.n_pairs}", "VERDICT: ok"])
    return 0


def cmd_reduce(args):
    A, base = _load_gog(args.input)
    R, b2 = reduce_gog(A, base or 0)
    lines = [f"vertices: {R.graph.nv}", f"edge-pairs: {R.graph.n_pairs}",
             f"basepoint: {R.graph.vnames[b2]}"]
    _write_optional(args.out, gogio.serialize_gog(R, basepoint=b2))
    lines.append("VERDICT: ok")
    _emit(lines)
    return 0


def cmd_core(args):
    A, base = _load_gog(args.input)
    if args.at is not None:
        names = {n: i for i, n in enumerate(A.graph.vnames)}
        if args.at not in names:
            raise CliError(f"unknown vertex {args.at!r}")
        C, b = gog_core_at(A, names[args.at])
    else:
        C = gog_core(A)
    lines = [f"vertices: {C.graph.nv}", f"edge-pairs: {C.graph.n_pairs}"]
    _write_optional(args.out, gogio.serialize_gog(C))
    lines.append("VERDICT: ok")
    _emit(lines)
    return 0


def cmd_immersion_check(args):
    A, base = _load_gog(args.gog)
    m, _ = _load_immersion(args.morphism, A, base)
    violations = validate_morphism(m)
    lines = []
    for v in violations:
        lines.append("violation: " + " ".join(str(x) for x in v))
    if violations:
        lines.append("VERDICT: invalid-morphism")
        _emit(lines)
        return 1
    try:
        cert = is_immersion(m)
    except ImmersionFailure as exc:
        lines.append(f"failure: {exc.kind} {exc.witness}")
        lines.append("VERDICT: not-immersion")
        _emit(lines)
        return 1
    lines.extend(cert.report(m).splitlines())
    cov = is_covering(m, cert)
    lines.append(f"covering: {'yes' if cov is True else 'no' if cov is False else 'not-decidable'}")
    lines.append("VERDICT: immersion")
    _emit(lines)
    return 0


def cmd_pullback(args):
    if args.out and args.dot and os.path.realpath(args.out) == os.path.realpath(args.dot):
        raise CliError(f"--out and --dot name the same file {args.out}")
    frag = _load_product(args)
    report = frag.to_json()
    lines = frag.dump(report).splitlines()
    ray = frag.ray_certificate()
    if ray:
        lines.append(f"ray-certificate: {ray['verdict']} "
                     f"(period {ray['period']}, ascent {ray['ascent']})")
    _write_optional(args.dot, frag.dot(report))
    _write_optional(args.out, report)
    lines.append(f"VERDICT: {'complete' if frag.complete else 'budget-exhausted'}")
    _emit(lines)
    return 0


def cmd_intersect(args):
    frag = _load_product(args)
    _emit(f"generator {i}: {text}"
          for i, text in enumerate(frag.intersection_generator_texts()))
    exact = frag.complete
    lines = [f"flag: {'exact' if exact else 'lower-bound'}"]
    ray = frag.ray_certificate()
    if ray:
        lines.append(f"ray-certificate: {ray['verdict']}")
        lines.append("intersection: provably not finitely generated")
    lines.append(f"VERDICT: {'exact' if exact else 'lower-bound'}")
    _emit(lines)
    return 0


def _parse_fcip(data):
    """(kind, group, subgroups, offsets, length bound) of an fcip request.
    The subgroups are A, B, C, or the zero-check list; offsets is None when
    a sample request draws them from --seed."""
    kind = data.get("kind")
    if kind not in ("abelian", "zero-check", "sample"):
        raise gogio.ParseError(f"unknown fcip request kind {kind!r}")
    G = gogio.parse_group_spec(data["group"])
    if kind == "zero-check":
        subs = [G.subgroup([G.parse(x) for x in gogio.as_list(gens, "a 'subgroups' entry")])
                for gens in gogio.as_list(data["subgroups"], "'subgroups'")]
        return kind, G, subs, None, None
    subs = [G.subgroup([G.parse(x) for x in gogio.as_list(data[k], f"'{k}'")]) for k in "ABC"]
    if kind == "abelian":
        return kind, G, subs, None, None
    if not isinstance(G, FreeGroup):
        raise gogio.ParseError("a sample request needs a free group")
    offsets = ([G.parse(x) for x in gogio.as_list(data["offsets"], "'offsets'")]
               if "offsets" in data else None)
    bound = data.get("length_bound", 4)
    if isinstance(bound, bool) or not isinstance(bound, int) or bound < 0:
        raise gogio.ParseError(f"length_bound must be a non-negative integer, got {bound!r}")
    return kind, G, subs, offsets, bound


def cmd_fcip(args):
    kind, G, subs, offsets, length_bound = _read(args.input, "fcip request", _parse_fcip)
    if kind == "abelian":
        A, B, C = subs
        rep = fcip_abelian(G, B, C, A)
        lines = rep.lines()
        lines.append(f"VERDICT: {rep.verdict}")
        _emit(lines)
        return 0 if rep.verdict is True else 1
    if kind == "zero-check":
        ok = fcip_zero_check(subs)
        _emit([f"VERDICT: {ok}"])
        return 0 if ok else 1
    A, B, C = subs
    if offsets is None:
        from random import Random
        from .words import wreduce
        rng = Random(args.seed)
        letters = [i for i in range(1, G.rank + 1)] + [-i for i in range(1, G.rank + 1)]
        # with no letters the only offset is the empty word
        offsets = [()] + [wreduce(tuple(rng.choice(letters) for _ in range(rng.randint(1, 4))))
                          for _ in range(24 if letters else 0)]
    rep = fcip_bruteforce_sample(G, A, B, C, offsets, length_bound)
    lines = rep.lines()
    lines.append("VERDICT: sampled-evidence")
    _emit(lines)
    return 0


def cmd_decide_fgip(args):
    what, obj, base = _load_decorated_or_gog(args.input)
    if what == "decorated":
        verdict = decide_components(obj)
    else:
        verdict = fgip_certify(obj)
    _emit(verdict.lines())
    return {"yes": 0, "no": 1, "unknown": 2}[verdict.answer]


def cmd_w_construct(args):
    A, _ = _load_gog(args.input)
    try:
        W, d, book = w_construction(A)
    except ValueError as exc:   # not a graph of free groups with Z edge groups
        raise CliError(f"cannot build the commensurator graph of {args.input}: {exc}")
    lines = [f"w-vertices: {W.graph.nv}", f"w-edge-pairs: {W.graph.n_pairs}"]
    for p in range(W.graph.n_pairs):
        lines.append(f"edge {W.graph.enames[p]}: "
                     f"{W.graph.vnames[W.graph.org[p]]} -> "
                     f"{W.graph.vnames[W.graph.tgt[p]]} "
                     f"indices=({d.idx_alpha[p]},{d.idx_omega[p]})")
    _write_optional(args.out, gogio.serialize_gog(W))
    lines.append("VERDICT: ok")
    _emit(lines)
    return 0


def cmd_export_dot(args):
    A, _ = _load_gog(args.input)
    dot = A.graph.dot()
    _write_optional(args.out, dot + "\n")
    if not args.out:
        _emit(dot.splitlines())
        return 0
    _emit(["VERDICT: ok"])
    return 0


def _budget(text):
    """A non-negative integer budget; anything else is a usage error."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {value}")
    return value


class _Parser(argparse.ArgumentParser):
    """A usage error is an input error: usage, an `error:` line on stderr and
    exit 3, since argparse's own exit 2 is the code of an unknown verdict.
    add_subparsers makes the subcommand parsers of the same class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"error: {message}\n")


@functools.cache
def make_parser():
    """The argument parser, built once per process: parse_args leaves it
    unchanged and returns a fresh namespace on every call."""
    ap = _Parser(prog="gogroups", description="graphs of groups toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a graph-of-groups file")
    p.add_argument("input")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("reduce", help="collapse non-reduced edges")
    p.add_argument("input")
    p.add_argument("--out")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("core", help="core of a graph of groups")
    p.add_argument("input")
    p.add_argument("--at", help="vertex name for the pointed core")
    p.add_argument("--out")
    p.set_defaults(func=cmd_core)

    p = sub.add_parser("immersion-check",
                       help="validate a morphism and its immersion certificate")
    p.add_argument("gog")
    p.add_argument("morphism")
    p.set_defaults(func=cmd_immersion_check)

    p = sub.add_parser("pullback", help="expand the product of two immersions")
    p.add_argument("gog")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--budget", type=_budget, default=64)
    p.add_argument("--dot")
    p.add_argument("--out")
    p.set_defaults(func=cmd_pullback)

    p = sub.add_parser("intersect", help="intersection generators from the pullback")
    p.add_argument("gog")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--budget", type=_budget, default=64)
    p.set_defaults(func=cmd_intersect)

    p = sub.add_parser("fcip", help="coset interaction reports")
    p.add_argument("input")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_fcip)

    p = sub.add_parser("decide-fgip",
                       help="decide the finitely generated intersection property")
    p.add_argument("input")
    p.set_defaults(func=cmd_decide_fgip)

    p = sub.add_parser("w-construct", help="graph of commensurators")
    p.add_argument("input")
    p.add_argument("--out")
    p.set_defaults(func=cmd_w_construct)

    p = sub.add_parser("export-dot", help="DOT export of the underlying graph")
    p.add_argument("input")
    p.add_argument("--out")
    p.set_defaults(func=cmd_export_dot)
    return ap


def main(argv=None):
    ap = make_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
