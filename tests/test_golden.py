"""Byte-level guard on CLI output.

Every subcommand runs on every sample it applies to, plus a few extra
inputs under tests/golden/inputs/: immersions whose folding takes many
merges, and a graph of groups that reduce collapses.
Stdout, the exit code and the `pullback --out/--dot` artifacts are compared
byte for byte with the files stored under tests/golden/.  The immersions
given as generator lists are read once more from morphism files, against
the same stored files.

Regenerate the stored files, only when an output change is intended, with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

import pytest

from gogroups.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden")
SAMPLES = os.path.join(os.path.dirname(HERE), "samples")
INPUTS = os.path.join(GOLDEN, "inputs")

# inputs/gbs_collapse is a graph of groups that reduce changes: a unit chain
# from the root u, leaves with non-unit multipliers and a loop.
# inputs/gbs_pendant has pendant edges and a pendant chain, onto at their
# far ends, that core and core --at u prune around two circuits at u
GOGS = ["bs_1_2", "bs_2_3", "double_f2_cubes", "double_f2_squares",
        "klein_amalgam", "rose2", "zsquared_hnn", "inputs/gbs_collapse",
        "inputs/gbs_pendant"]
# decide-fgip on decorated graphs; inputs/decorated_components reduces to
# five components, interleaved in vertex order, with five different verdicts
DECORATED = ["decorated_two_loops", "inputs/decorated_components"]
FREE_GOGS = ["double_f2_cubes", "double_f2_squares"]   # w-construct's domain

# (gog, first immersion, second immersion, budget); paths relative to the
# samples directory, or "inputs/..." for the extra golden inputs.
# inputs/zsquared_skew is the Z^2 HNN with omega = [[2, 1], [0, 2]]; one
# abelian fan of its pair lists four representatives.  inputs/rose2_sub_W
# holds 40 freely reduced words of length 16 over a = e0, b = e1, drawn
# with random.Random(24) letter by letter (rose-fold's top level): its
# folded immersion names its vertices b{v} in fold order, at a size where
# many petals share prefixes
PAIRS = [
    ("rose2", "rose2_sub_H", "rose2_sub_K", 500),
    ("zsquared_hnn", "zsquared_hnn_sub_C", "zsquared_hnn_sub_B", 16),
    ("rose2", "inputs/rose2_sub_R", "rose2_sub_H", 500),
    ("rose2", "inputs/rose2_sub_W", "rose2_sub_H", 500),
    ("inputs/modular", "inputs/modular_sub_P", "inputs/modular_sub_Q", 64),
    ("bs_1_2", "inputs/bs_1_2_sub_P", "inputs/bs_1_2_sub_Q", 16),
    ("double_f2_squares", "inputs/double_f2_squares_sub_P",
     "inputs/double_f2_squares_sub_P", 20),
    ("inputs/zsquared_skew", "inputs/zsquared_skew_sub_H", "inputs/zsquared_skew_sub_K", 12),
]

FCIP_REQUESTS = {
    "abelian": {"kind": "abelian", "group": {"abelian": {"rank": 2, "torsion": []}},
                "A": [[2, 0], [0, 1]], "B": [[1, 0]], "C": [[1, 1]]},
    "zero-check": {"kind": "zero-check", "group": {"Z": True},
                   "subgroups": [[2], [3], [5]]},
    "sample": {"kind": "sample", "group": {"free": 2},
               "A": ["a"], "B": ["b"], "C": ["ab"], "length_bound": 3},
}


def _path(name):
    if name.startswith("inputs/"):
        return os.path.join(INPUTS, name[len("inputs/"):] + ".json")
    return os.path.join(SAMPLES, name + ".json")


def _label(name):
    return name.replace("inputs/", "")


def cases():
    """(case name, argv, artifact suffixes); artifact arguments are '{out}'
    and '{dot}' placeholders."""
    out = []
    for g in GOGS:
        for cmd in ("validate", "reduce", "core", "decide-fgip", "export-dot"):
            out.append((f"{cmd}.{_label(g)}", [cmd, _path(g)], ()))
        out.append((f"core-at-u.{_label(g)}", ["core", _path(g), "--at", "u"], ()))
    out.append(("reduce-out.gbs_collapse",
                ["reduce", _path("inputs/gbs_collapse"), "--out", "{out}"], ("out.json",)))
    for g in FREE_GOGS:
        out.append((f"w-construct.{g}", ["w-construct", _path(g)], ()))
    for d in DECORATED:
        out.append((f"decide-fgip.{_label(d)}", ["decide-fgip", _path(d)], ()))
    immersions = []
    for g, first, second, budget in PAIRS:
        for imm in (first, second):
            if (g, imm) not in immersions:
                immersions.append((g, imm))
        tag = f"{_label(first)}.{_label(second)}"
        out.append((f"pullback.{tag}",
                    ["pullback", _path(g), _path(first), _path(second),
                     "--budget", str(budget), "--out", "{out}", "--dot", "{dot}"],
                    ("out.json", "dot")))
        out.append((f"intersect.{tag}",
                    ["intersect", _path(g), _path(first), _path(second),
                     "--budget", str(budget)], ()))
    for g, imm in immersions:
        out.append((f"immersion-check.{_label(imm)}",
                    ["immersion-check", _path(g), _path(imm)], ()))
    for kind in FCIP_REQUESTS:
        out.append((f"fcip.{kind}", ["fcip", "{fcip:" + kind + "}"], ()))
    return out


def run_case(argv, suffixes, workdir):
    """(exit code, stdout, {suffix: artifact text})."""
    paths = {s: os.path.join(workdir, "artifact." + s) for s in suffixes}
    real = []
    for a in argv:
        if a == "{out}":
            a = paths["out.json"]
        elif a == "{dot}":
            a = paths["dot"]
        elif a.startswith("{fcip:"):
            kind = a[len("{fcip:"):-1]
            a = os.path.join(workdir, "request.json")
            with open(a, "w") as fh:
                json.dump(FCIP_REQUESTS[kind], fh)
        real.append(a)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = main(real)
    artifacts = {}
    for s, p in paths.items():
        with open(p) as fh:
            artifacts[s] = fh.read()
    return code, buf.getvalue(), artifacts


def _read(path):
    with open(path) as fh:
        return fh.read()


CASES = cases()


@pytest.mark.parametrize("name,argv,suffixes", CASES, ids=[c[0] for c in CASES])
def test_golden(name, argv, suffixes, tmp_path):
    code, stdout, artifacts = run_case(argv, suffixes, str(tmp_path))
    codes = json.loads(_read(os.path.join(GOLDEN, "exit_codes.json")))
    assert code == codes[name]
    assert stdout == _read(os.path.join(GOLDEN, name + ".txt"))
    for s, text in artifacts.items():
        assert text == _read(os.path.join(GOLDEN, f"{name}.{s}"))


# inputs/<name>.morphism.json is the serialize_morphism output of the
# immersion that folding realizes from the generator list <name>, with its
# basepoint.  Read as a morphism file in place of the generator list, it
# gives the generator list's golden reports: immersion-check, and pullback
# and intersect on every pair that reads the generator list.
MORPHISM_FILES = ["rose2_sub_H", "zsquared_hnn_sub_C", "inputs/modular_sub_P",
                  "inputs/double_f2_squares_sub_P"]


def _as_morphism(arg):
    """arg, or the morphism file of the generator list at path arg."""
    for name in MORPHISM_FILES:
        if arg == _path(name):
            return os.path.join(INPUTS, os.path.basename(name) + ".morphism.json")
    return arg


MORPHISM_CASES = [(name, morphism_argv, suffixes) for name, argv, suffixes in CASES
                  for morphism_argv in [[_as_morphism(a) for a in argv]]
                  if morphism_argv != argv]


@pytest.mark.parametrize("name,argv,suffixes", MORPHISM_CASES,
                         ids=[c[0] for c in MORPHISM_CASES])
def test_morphism_file_reads_like_its_generators(name, argv, suffixes, tmp_path):
    test_golden(name, argv, suffixes, tmp_path)


# Long-path pins: at budget 128 the anchors of the zsquared pair are long
# enough for Britton reduction at the seams to cascade.  sha256 of stdout and
# of each artifact, generated by the code before anchors were reduced from
# the seam on; regenerate() leaves them alone.
LONG_PAIR = ("zsquared_hnn", "zsquared_hnn_sub_C", "zsquared_hnn_sub_B", 128)
LONG_PINS = {
    "pullback": {
        "stdout": "7c727ee5911e48224afd8164b1d0e4b0a94d6f6d692284e67a2ba84a607c028d",
        "out.json": "d3ed5a34891315570e9fe38caeb7545136df5aa28c1f411ff66740d375d68f88",
        "dot": "779bbd9e60db5431ab63acf451ef00e70c6335bc8fd5e9c532a0344db7543a71",
    },
    "intersect": {
        "stdout": "df904b2244866668d56c183376e039769f3f9f4b9ba35e0dbd2d30f6fe09dbc6",
    },
}


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("cmd", sorted(LONG_PINS))
def test_long_path_pins(cmd, tmp_path):
    g, first, second, budget = LONG_PAIR
    suffixes = tuple(s for s in LONG_PINS[cmd] if s != "stdout")
    argv = [cmd, _path(g), _path(first), _path(second), "--budget", str(budget)]
    if suffixes:
        argv += ["--out", "{out}", "--dot", "{dot}"]
    code, stdout, artifacts = run_case(argv, suffixes, str(tmp_path))
    assert code == 0
    got = {"stdout": _sha256(stdout), **{s: _sha256(t) for s, t in artifacts.items()}}
    assert got == LONG_PINS[cmd]


# At budget 512 the zsquared pair's generators run 512 edges deep.  sha256 of
# intersect's stdout, generated by the code that rendered every generator
# path token by token; regenerate() leaves it alone.
DEEP_INTERSECT_PIN = (512, "751cc9a1a33842a215cf7bb739c6feff3f85a9261f89a9999d4a6cf3e3857655")


def test_deep_intersect_pin(tmp_path):
    g, first, second, _ = LONG_PAIR
    budget, pin = DEEP_INTERSECT_PIN
    code, stdout, _ = run_case(["intersect", _path(g), _path(first), _path(second),
                                "--budget", str(budget)], (), str(tmp_path))
    assert code == 0
    assert _sha256(stdout) == pin


def regenerate():
    codes = {}
    for name, argv, suffixes in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            code, stdout, artifacts = run_case(argv, suffixes, tmp)
        codes[name] = code
        with open(os.path.join(GOLDEN, name + ".txt"), "w") as fh:
            fh.write(stdout)
        for s, text in artifacts.items():
            with open(os.path.join(GOLDEN, f"{name}.{s}"), "w") as fh:
                fh.write(text)
    with open(os.path.join(GOLDEN, "exit_codes.json"), "w") as fh:
        json.dump(codes, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(codes)} golden cases to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
