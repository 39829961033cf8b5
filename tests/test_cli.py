import argparse
import json
import os

import pytest

from gogroups import cli, gogio
from gogroups.cli import main
from gogroups.gog import APath
from gogroups.library import bs_gog, free_double_gog, nofgip_gog
from gogroups.morphism import realize_subgroup

SAMPLES = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "samples")


BS_1_2 = {
    "vertices": {"u": {"Z": True}},
    "edges": [{"name": "e", "from": "u", "to": "u",
               "group": {"Z": True}, "alpha": [1], "omega": [2]}],
    "basepoint": "u",
}

BS_2_3 = {
    "vertices": {"u": {"Z": True}},
    "edges": [{"name": "e", "from": "u", "to": "u",
               "group": {"Z": True}, "alpha": [2], "omega": [3]}],
    "basepoint": "u",
}

NOFGIP = {
    "vertices": {"u": {"abelian": {"rank": 2, "torsion": []}}},
    "edges": [{"name": "e", "from": "u", "to": "u",
               "group": {"abelian": {"rank": 2, "torsion": []}},
               "alpha": [[1, 0], [0, 1]], "omega": [[2, 0], [0, 2]]}],
    "basepoint": "u",
}

C_IMM = {"generators": [[[1, 0]], [[0, 0], "e", [0, 0]]]}
B_IMM = {"generators": [[[1, 0]], [[0, 0], "e", [0, 1]]]}


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_validate_ok(tmp_path, capsys):
    path = write(tmp_path, "bs.json", BS_1_2)
    assert main(["validate", path]) == 0
    out = capsys.readouterr().out
    assert "VERDICT: ok" in out


def test_validate_rejects_bad_map(tmp_path, capsys):
    bad = json.loads(json.dumps(BS_1_2))
    bad["edges"][0]["omega"] = [0]
    path = write(tmp_path, "bad.json", bad)
    assert main(["validate", path]) == 3
    err = capsys.readouterr().err
    assert "not-injective" in err


@pytest.mark.parametrize("cmd", ["validate", "core", "reduce", "decide-fgip",
                                 "w-construct", "export-dot"])
def test_edge_without_target_is_an_input_error(tmp_path, capsys, cmd):
    bad = json.loads(json.dumps(BS_1_2))
    del bad["edges"][0]["to"]
    path = write(tmp_path, "noto.json", bad)
    assert main([cmd, path]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'to'" in err


@pytest.mark.parametrize("cmd", ["validate", "core", "reduce", "decide-fgip",
                                 "w-construct", "export-dot"])
@pytest.mark.parametrize("edges", [5, ["e"]], ids=["edges-not-a-list", "edge-a-string"])
def test_wrong_typed_edges_are_an_input_error(tmp_path, capsys, cmd, edges):
    bad = json.loads(json.dumps(BS_1_2))
    bad["edges"] = edges
    path = write(tmp_path, "bad.json", bad)
    assert main([cmd, path]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "edge" in err


def test_wrong_typed_free_rank_is_an_input_error(tmp_path, capsys):
    bad = json.loads(json.dumps(BS_1_2))
    bad["vertices"]["u"] = {"free": [1]}
    assert main(["validate", write(tmp_path, "bad.json", bad)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "group spec" in err


@pytest.mark.parametrize("spec", [
    {"free": 2.7}, {"free": "2"}, {"free": True}, {"free": -1},
    {"abelian": {"rank": 1.5}}, {"abelian": {"rank": -1}}, {"abelian": {"rank": True}},
    {"abelian": {"rank": 1, "torsion": "24"}}, {"abelian": {"rank": 1, "torsion": [2.0]}},
    {"abelian": {"rank": 1.5, "torsion": "24"}},
])
def test_group_spec_numbers_are_integers(tmp_path, capsys, spec):
    # int() took 2.7 and "2" as 2, true as 1, and the string "24" as [2, 4]
    assert main(["validate", write(tmp_path, "bad.json", {"vertices": {"u": spec}})]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "group spec" in err


DOUBLE_F2 = {
    "vertices": {"u": {"free": 2}, "v": {"free": 2}},
    "edges": [{"name": "e", "from": "u", "to": "v", "group": {"free": 1},
               "alpha": ["aa"], "omega": ["aa"]}],
    "basepoint": "u",
}
F2_MORPHISM = {"vertices": {"x": {"over": "u", "subgroup": ["aa"]},
                            "y": {"over": "v", "subgroup": ["aa"]}},
               "edges": [{"name": "f", "from": "x", "to": "y", "over": "e",
                          "subgroup": ["a"]}]}


@pytest.mark.parametrize("where", ["vertex", "edge"])
def test_string_as_morphism_subgroup_is_an_input_error(tmp_path, capsys, where):
    # "ab" was read as ["a", "b"]
    bad = json.loads(json.dumps(F2_MORPHISM))
    if where == "vertex":
        bad["vertices"]["x"]["subgroup"] = "ab"
    else:
        bad["edges"][0]["subgroup"] = "aa"
    gog = write(tmp_path, "gog.json", DOUBLE_F2)
    assert main(["immersion-check", gog, write(tmp_path, "ok.json", F2_MORPHISM)]) == 0
    capsys.readouterr()
    assert main(["immersion-check", gog, write(tmp_path, "bad.json", bad)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'subgroup' must be a list" in err


@pytest.mark.parametrize("field", ["alpha", "omega"])
def test_string_as_edge_map_is_an_input_error(tmp_path, capsys, field):
    bad = json.loads(json.dumps(DOUBLE_F2))
    bad["edges"][0][field] = "a"
    assert main(["validate", write(tmp_path, "bad.json", bad)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"'{field}' must be a list" in err


FCIP_SAMPLE = {"kind": "sample", "group": {"free": 2}, "A": ["a"], "B": ["b"],
               "C": ["ab"], "offsets": ["", "a"], "length_bound": 2}


@pytest.mark.parametrize("request_", [
    dict(FCIP_SAMPLE, A="a"), dict(FCIP_SAMPLE, B="b"), dict(FCIP_SAMPLE, C="ab"),
    dict(FCIP_SAMPLE, offsets="ab"),
    {"kind": "zero-check", "group": {"free": 2}, "subgroups": ["ab", ["b"]]},
    {"kind": "zero-check", "group": {"free": 2}, "subgroups": "ab"},
], ids=["A", "B", "C", "offsets", "subgroups-entry", "subgroups"])
def test_string_as_fcip_list_is_an_input_error(tmp_path, capsys, request_):
    assert main(["fcip", write(tmp_path, "req.json", request_)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "must be a list" in err


DECORATED = {"decorated": True, "vertices": ["u"],
             "edges": [{"name": "e", "from": "u", "to": "u", "indices": [1, 2]}]}
MORPHISM = {"vertices": {"x": {"over": "u", "subgroup": [1]}},
            "edges": [{"name": "f", "from": "x", "to": "x", "over": "e"}]}


@pytest.mark.parametrize("end", ["from", "to"])
@pytest.mark.parametrize("kind", ["gog", "decorated", "morphism"])
def test_list_as_edge_end_is_an_input_error(tmp_path, capsys, kind, end):
    bad = json.loads(json.dumps({"gog": BS_1_2, "decorated": DECORATED,
                                 "morphism": MORPHISM}[kind]))
    bad["edges"][0][end] = ["u"]
    path = write(tmp_path, "bad.json", bad)
    gog = write(tmp_path, "bs.json", BS_1_2)
    argv = {"gog": ["validate", path], "decorated": ["decide-fgip", path],
            "morphism": ["intersect", gog, path, path]}[kind]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "unknown vertex" in err


def test_non_list_generators_are_an_input_error(tmp_path, capsys):
    gog = write(tmp_path, "nofgip.json", NOFGIP)
    bad = write(tmp_path, "bad.json", {"generators": 5})
    ok = write(tmp_path, "c.json", C_IMM)
    assert main(["intersect", gog, bad, ok]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'generators' must be a list" in err


FCIP_ABELIAN = {"kind": "abelian", "group": {"Z": True}, "A": [2], "B": [3], "C": [6]}


@pytest.mark.parametrize("request_", [
    None,                                                   # not an object
    {k: v for k, v in FCIP_ABELIAN.items() if k != "group"},
    {k: v for k, v in FCIP_ABELIAN.items() if k != "B"},
    dict(FCIP_ABELIAN, group={"vertices": {}}),             # unknown group spec
    dict(FCIP_ABELIAN, B=[2.5]),                            # not an element of Z
    {"kind": "zero-check", "group": {"Z": True}, "subgroups": [[2.5], [3]]},
    {"kind": "sample", "group": {"free": 2}, "A": ["a"], "B": "inf", "C": ["ab"]},
    {"kind": "sample", "group": {"Z": True}, "A": [1], "B": [2], "C": [3]},
], ids=["null", "no-group", "no-B", "bad-group", "bad-element", "bad-zero-check",
        "bad-word", "sample-not-free"])
def test_malformed_fcip_request_is_an_input_error(tmp_path, capsys, request_):
    assert main(["fcip", write(tmp_path, "req.json", request_)]) == 3
    assert capsys.readouterr().err.startswith("error: ")


FCIP_SAMPLE = {"kind": "sample", "group": {"free": 2}, "offsets": ["", "b"],
               "A": ["a"], "B": ["b"], "C": ["ab"]}


@pytest.mark.parametrize("bound", [2.9, 2.0, True, -1, "2", None],
                         ids=["float", "integral-float", "bool", "negative", "string", "null"])
def test_fcip_length_bound_must_be_a_non_negative_integer(tmp_path, capsys, bound):
    req = write(tmp_path, "req.json", dict(FCIP_SAMPLE, length_bound=bound))
    assert main(["fcip", req]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "length_bound" in err


def test_fcip_length_bound_is_honoured(tmp_path, capsys):
    outs = []
    for bound in (0, 2, 4):
        req = write(tmp_path, f"req{bound}.json", dict(FCIP_SAMPLE, length_bound=bound))
        assert main(["fcip", req]) == 0
        outs.append(capsys.readouterr().out)
    assert len(set(outs)) == 3
    # an absent bound is 4
    assert main(["fcip", write(tmp_path, "req.json", FCIP_SAMPLE)]) == 0
    assert capsys.readouterr().out == outs[2]


def test_fcip_sample_over_the_free_group_of_rank_zero(tmp_path, capsys):
    # no letters to draw offsets from: the only offset is the empty word
    req = {"kind": "sample", "group": {"free": 0}, "A": [], "B": [], "C": []}
    assert main(["fcip", write(tmp_path, "req.json", req)]) == 0
    drawn = capsys.readouterr()
    assert drawn.err == ""
    assert main(["fcip", write(tmp_path, "given.json", dict(req, offsets=[""]))]) == 0
    assert drawn.out == capsys.readouterr().out


@pytest.mark.parametrize("cmd", ["immersion-check", "intersect"])
def test_null_immersion_file_is_an_input_error(tmp_path, capsys, cmd):
    gog = write(tmp_path, "nofgip.json", NOFGIP)
    bad = write(tmp_path, "bad.json", None)
    argv = [cmd, gog, bad] + ([bad] if cmd == "intersect" else [])
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith("error: ")


def test_open_generator_path_is_an_input_error(tmp_path, capsys):
    gog = write(tmp_path, "seg.json", {
        "vertices": {"u": {"Z": True}, "v": {"Z": True}},
        "edges": [{"name": "e", "from": "u", "to": "v", "group": {"Z": True},
                   "alpha": [1], "omega": [2]}]})
    bad = write(tmp_path, "open.json", {"generators": [[0, "e", 0]]})
    assert main(["immersion-check", gog, bad]) == 3
    assert "is not a closed path" in capsys.readouterr().err


@pytest.mark.parametrize("vertices", [0, None], ids=["number", "null"])
def test_wrong_typed_decorated_vertices_are_an_input_error(tmp_path, capsys, vertices):
    bad = dict(DECORATED, vertices=vertices)
    assert main(["decide-fgip", write(tmp_path, "bad.json", bad)]) == 3
    assert capsys.readouterr().err.startswith("error: ")


def test_string_as_decorated_vertices_is_an_input_error(tmp_path, capsys):
    # "uv" was read one character per vertex, and the (2,2) edge from u to v
    # was decided "yes"
    bad = {"decorated": True, "vertices": "uv",
           "edges": [{"name": "e", "from": "u", "to": "v", "indices": [2, 2]}]}
    assert main(["decide-fgip", write(tmp_path, "bad.json", bad)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'vertices' must be a list" in err


def test_repeated_decorated_vertex_is_an_input_error(tmp_path, capsys):
    # two vertices named u were decided "single-vertex; single-vertex"
    bad = dict(DECORATED, vertices=["u", "u"])
    assert main(["decide-fgip", write(tmp_path, "bad.json", bad)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "duplicate vertex names" in err


@pytest.mark.parametrize("index", [0, -1, 2.5, "2", True, None])
def test_decorated_index_must_be_positive_or_inf(tmp_path, capsys, index):
    bad = json.loads(json.dumps(DECORATED))
    bad["edges"][0]["indices"] = [2, index]
    assert main(["decide-fgip", write(tmp_path, "bad.json", bad)]) == 3
    assert "positive integer or 'inf'" in capsys.readouterr().err


@pytest.mark.parametrize("cmd", ["decide-fgip", "w-construct"])
def test_non_string_edge_name_is_an_input_error(tmp_path, capsys, cmd):
    with open(os.path.join(SAMPLES, "double_f2_cubes.json")) as fh:
        bad = json.load(fh)
    bad["edges"][0]["name"] = 2.5
    assert main([cmd, write(tmp_path, "bad.json", bad)]) == 3
    assert "an edge name must be a string" in capsys.readouterr().err


@pytest.mark.parametrize("cmd", ["validate", "reduce", "core", "decide-fgip"])
def test_gog_without_vertices_is_an_input_error(tmp_path, capsys, cmd):
    path = write(tmp_path, "empty.json", {"vertices": {}, "edges": []})
    assert main([cmd, path]) == 3
    assert "needs a vertex" in capsys.readouterr().err


@pytest.mark.parametrize("cmd", ["immersion-check", "pullback", "intersect"])
def test_morphism_without_vertices_is_an_input_error(tmp_path, capsys, cmd):
    rose2 = os.path.join(SAMPLES, "rose2.json")
    path = write(tmp_path, "empty.json", {"vertices": {}, "edges": []})
    argv = [cmd, rose2, path] + ([os.path.join(SAMPLES, "rose2_sub_H.json")]
                                 if cmd != "immersion-check" else [])
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "a morphism needs a vertex" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("cmd", ["immersion-check", "pullback", "intersect"])
def test_repeated_morphism_edge_name_is_an_input_error(tmp_path, capsys, cmd):
    # a report names source edges, so two edges named f0 could not be told apart
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden", "inputs", "rose2_sub_H.morphism.json")) as fh:
        bad = json.load(fh)
    bad["edges"][1]["name"] = "f0"
    argv = [cmd, os.path.join(SAMPLES, "rose2.json"), write(tmp_path, "bad.json", bad)]
    if cmd != "immersion-check":
        argv.append(os.path.join(SAMPLES, "rose2_sub_K.json"))
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == "error: cannot read immersion from " \
        f"{argv[2]}: duplicate edge name 'f0'\n"


def test_generators_over_the_folding_budget_are_an_input_error(tmp_path, capsys):
    # a loop beside a 2002-edge cycle folds the cycle one merge at a time,
    # past realize_subgroup's budget of 2000 steps
    cycle = [0] + ["e0", 0] * 2002
    gens = write(tmp_path, "long.json", {"generators": [cycle, [0, "e0", 0]]})
    assert main(["immersion-check", os.path.join(SAMPLES, "rose2.json"), gens]) == 3
    assert "exceeds the step budget" in capsys.readouterr().err


def test_w_construct_needs_free_vertex_groups(capsys):
    assert main(["w-construct", os.path.join(SAMPLES, "rose2.json")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "vertex groups must be free" in err


def klein_at_v(tmp_path):
    with open(os.path.join(SAMPLES, "klein_amalgam.json")) as fh:
        data = json.load(fh)
    data["basepoint"] = "v"
    return write(tmp_path, "klein_v.json", data)


def test_generators_are_read_at_the_gog_basepoint(tmp_path, capsys):
    # Z_u *_Z Z_v with u^2 = v^2: the loop is u^3 at v, and <u^3> meets
    # <v^3> in <v^6>, all at the basepoint v
    gog = klein_at_v(tmp_path)
    loop = write(tmp_path, "loop.json", {"generators": [[2, "e^-1", 1, "e", 0]]})
    three = write(tmp_path, "three.json", {"generators": [[3]]})
    out = str(tmp_path / "out.json")
    assert main(["pullback", gog, loop, three, "--out", out]) == 0
    assert "vertex 0: pair=(b0,b0) witness=0 group=<6>" in capsys.readouterr().out
    with open(out) as fh:
        assert json.load(fh)["vertices"]["x0"]["over"] == "v"
    assert main(["intersect", gog, loop, three]) == 0
    assert "VERDICT: exact" in capsys.readouterr().out
    assert main(["immersion-check", gog, loop]) == 0


def test_basepoint_of_a_generator_list_is_an_input_error(tmp_path, capsys):
    # the field used to be dropped: exit 0, as if it were not there
    gog = os.path.join(SAMPLES, "double_f2_squares.json")
    gens = write(tmp_path, "gens.json", {"generators": [["ab"]], "basepoint": "v"})
    for argv in (["intersect", gog, gens, gens], ["immersion-check", gog, gens]):
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "closed at the graph of groups' basepoint" in err


def test_basepoints_over_different_vertices_are_an_input_error(tmp_path, capsys):
    gog = klein_at_v(tmp_path)
    A, _ = gogio.parse_gog(gogio.load(gog))
    m, b = realize_subgroup(A, 0, [APath(A, 0, [1], [])])
    at_u = write(tmp_path, "at_u.json", gogio.serialize_morphism(m, basepoint=b))
    at_v = write(tmp_path, "at_v.json", {"generators": [[3]]})
    for cmd in ("pullback", "intersect"):
        assert main([cmd, gog, at_v, at_u]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "different vertices ('v', 'u')" in err


def test_decide_fgip_invalid_gog_is_an_input_error(tmp_path, capsys):
    bad = json.loads(json.dumps(BS_1_2))
    bad["edges"][0]["omega"] = [0]
    path = write(tmp_path, "bad.json", bad)
    assert main(["decide-fgip", path]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "not-injective" in err


def test_decide_fgip_bs12(tmp_path, capsys):
    path = write(tmp_path, "bs12.json", BS_1_2)
    assert main(["decide-fgip", path]) == 0
    out = capsys.readouterr().out
    assert "VERDICT: yes" in out
    assert "unit-side-loop" in out


def test_decide_fgip_bs23(tmp_path, capsys):
    path = write(tmp_path, "bs23.json", BS_2_3)
    assert main(["decide-fgip", path]) == 1
    out = capsys.readouterr().out
    assert "VERDICT: no" in out
    assert "loop-no-unit-side" in out


def test_decide_fgip_decorated(tmp_path, capsys):
    payload = {"decorated": True, "vertices": ["u", "v"],
               "edges": [{"name": "e", "from": "u", "to": "v",
                          "indices": [2, 2]}]}
    path = write(tmp_path, "deco.json", payload)
    assert main(["decide-fgip", path]) == 0
    assert "single-2-2-edge" in capsys.readouterr().out


def test_decide_fgip_unknown(tmp_path, capsys):
    path = write(tmp_path, "nofgip.json", NOFGIP)
    assert main(["decide-fgip", path]) == 2
    assert "VERDICT: unknown" in capsys.readouterr().out


def test_pullback_ray(tmp_path, capsys):
    gog = write(tmp_path, "nofgip.json", NOFGIP)
    c_imm = write(tmp_path, "C.json", C_IMM)
    b_imm = write(tmp_path, "B.json", B_IMM)
    assert main(["pullback", gog, c_imm, b_imm, "--budget", "16"]) == 0
    out = capsys.readouterr().out
    assert "VERDICT: budget-exhausted" in out
    assert "provably infinite ascending union" in out
    assert "witness=[0, 1]" in out
    assert "witness=[0, 3]" in out


def test_intersect_reports_lower_bound(tmp_path, capsys):
    gog = write(tmp_path, "nofgip.json", NOFGIP)
    c_imm = write(tmp_path, "C.json", C_IMM)
    b_imm = write(tmp_path, "B.json", B_IMM)
    assert main(["intersect", gog, c_imm, b_imm, "--budget", "6"]) == 0
    out = capsys.readouterr().out
    assert "flag: lower-bound" in out
    assert "provably not finitely generated" in out


def test_reduce_roundtrip(tmp_path, capsys):
    seg = {
        "vertices": {"u": {"Z": True}, "v": {"Z": True}},
        "edges": [{"name": "e", "from": "u", "to": "v",
                   "group": {"Z": True}, "alpha": [1], "omega": [2]}],
        "basepoint": "u",
    }
    path = write(tmp_path, "seg.json", seg)
    outp = str(tmp_path / "reduced.json")
    assert main(["reduce", path, "--out", outp]) == 0
    out = capsys.readouterr().out
    assert "vertices: 1" in out and "edge-pairs: 0" in out
    reparsed, base = gogio.parse_gog(json.load(open(outp)))
    assert reparsed.graph.nv == 1


def test_immersion_check(tmp_path, capsys):
    gog = write(tmp_path, "nofgip.json", NOFGIP)
    c_imm = write(tmp_path, "C.json", C_IMM)
    assert main(["immersion-check", gog, c_imm]) == 0
    out = capsys.readouterr().out
    assert "VERDICT: immersion" in out


def test_edge_image_outside_vertex_subgroup_is_an_invalid_morphism(tmp_path, capsys):
    # the edge image aa of f does not lie in x's subgroup <ab>
    imm = {"vertices": {"x": {"over": "u", "subgroup": ["ab"]},
                        "y": {"over": "v", "subgroup": ["a"]}},
           "edges": [{"name": "f", "from": "x", "to": "y", "over": "e", "subgroup": ["a"]}],
           "basepoint": "x"}
    path = write(tmp_path, "imm.json", imm)
    assert main(["immersion-check", os.path.join(SAMPLES, "double_f2_squares.json"), path]) == 1
    out = capsys.readouterr().out
    assert "violation: edge-image-outside-vertex-group f alpha 0" in out
    assert out.endswith("VERDICT: invalid-morphism\n")


def test_pullback_and_intersect_reject_a_file_that_is_not_a_morphism(tmp_path, capsys):
    imm = {"vertices": {"x": {"over": "u", "subgroup": ["ab"]},
                        "y": {"over": "v", "subgroup": ["a"]}},
           "edges": [{"name": "f", "from": "x", "to": "y", "over": "e", "subgroup": ["a"]}],
           "basepoint": "x"}
    path = write(tmp_path, "imm.json", imm)
    gog = os.path.join(SAMPLES, "double_f2_squares.json")
    for cmd in ("pullback", "intersect"):
        assert main([cmd, gog, path, path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {path} is not a morphism: "
                                "edge-image-outside-vertex-group f alpha 0\n")


# Z as an edge group between free vertex groups, once abelian and once free
Z_INTO_F2 = {"vertices": {"u": {"free": 2}},
             "edges": [{"name": "e", "from": "u", "to": "u", "group": {"Z": True},
                        "alpha": ["aa"], "omega": ["aaa"]}]}
F1_INTO_F2 = {**Z_INTO_F2, "edges": [{**Z_INTO_F2["edges"][0], "group": {"free": 1}}]}


def test_abelian_edge_group_into_free_vertex_group_validates(tmp_path, capsys):
    assert main(["validate", write(tmp_path, "z.json", Z_INTO_F2)]) == 0
    assert "VERDICT: ok" in capsys.readouterr().out


def test_abelian_edge_group_pullback_matches_free_encoding(tmp_path, capsys):
    P = write(tmp_path, "P.json", {"generators": [["a"], ["", "e", "b", "e^-1", ""]]})
    Q = write(tmp_path, "Q.json", {"generators": [["aa"], ["", "e", "b", "e^-1", ""]]})
    reports = []
    for name, gog in (("z", Z_INTO_F2), ("f1", F1_INTO_F2)):
        out = str(tmp_path / f"{name}.out.json")
        assert main(["pullback", write(tmp_path, f"{name}.json", gog), P, Q,
                     "--budget", "12", "--out", out]) == 0
        reports.append(json.load(open(out)))
    z, f1 = reports
    # the edge groups' elements n of Z are the words a^n of F1
    for h in z["edges"]:
        h["group"] = [("a" if n > 0 else "A") * abs(n) for n in h["group"]]
        h["witness"] = ("a" if h["witness"] > 0 else "A") * abs(h["witness"])
    assert z == f1
    assert any(h["group"] for h in f1["edges"])


def test_w_construct(tmp_path, capsys):
    A = free_double_gog("aa", "aa")
    payload = gogio.serialize_gog(A, basepoint=0)
    path = write(tmp_path, "double.json", payload)
    outp = str(tmp_path / "w.json")
    assert main(["w-construct", path, "--out", outp]) == 0
    out = capsys.readouterr().out
    assert "indices=(2,2)" in out
    W, _ = gogio.parse_gog(json.load(open(outp)))
    assert W.graph.nv == 2


def test_fcip_cli(tmp_path, capsys):
    req = {"kind": "abelian", "group": {"Z": True},
           "A": [2], "B": [3], "C": [6]}
    path = write(tmp_path, "fcip.json", req)
    assert main(["fcip", path]) == 0
    out = capsys.readouterr().out
    assert "VERDICT: True" in out


def test_export_dot(tmp_path, capsys):
    path = write(tmp_path, "bs.json", BS_1_2)
    assert main(["export-dot", path]) == 0
    out = capsys.readouterr().out
    assert "--" in out


def test_core_cli(tmp_path, capsys):
    path = write(tmp_path, "bs.json", BS_1_2)
    assert main(["core", path]) == 0
    out = capsys.readouterr().out
    assert "edge-pairs: 1" in out


def test_determinism(tmp_path, capsys):
    gog = write(tmp_path, "nofgip.json", NOFGIP)
    c_imm = write(tmp_path, "C.json", C_IMM)
    b_imm = write(tmp_path, "B.json", B_IMM)
    main(["pullback", gog, c_imm, b_imm, "--budget", "8"])
    first = capsys.readouterr().out
    main(["pullback", gog, c_imm, b_imm, "--budget", "8"])
    second = capsys.readouterr().out
    assert first == second


# One parser per process: main() reuses the parser of its first call, so
# nothing of one call may reach the next.

GBS_COLLAPSE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "golden", "inputs", "gbs_collapse.json")


def test_cached_parser_restores_the_default_budget(tmp_path, capsys, monkeypatch):
    gog = write(tmp_path, "nofgip.json", NOFGIP)
    c_imm = write(tmp_path, "C.json", C_IMM)
    b_imm = write(tmp_path, "B.json", B_IMM)
    budgets = []
    build = cli.build_product
    monkeypatch.setattr(cli, "build_product",
                        lambda m1, m2, budget, *rest: budgets.append(budget) or
                        build(m1, m2, budget, *rest))
    assert main(["pullback", gog, c_imm, b_imm, "--budget", "5"]) == 0
    assert main(["pullback", gog, c_imm, b_imm]) == 0
    assert budgets == [5, 64]


def test_cached_parser_restores_the_default_vertex(capsys, monkeypatch):
    calls = []
    core, core_at = cli.gog_core, cli.gog_core_at
    monkeypatch.setattr(cli, "gog_core", lambda A: calls.append(None) or core(A))
    monkeypatch.setattr(cli, "gog_core_at", lambda A, u: calls.append(u) or core_at(A, u))
    assert main(["core", GBS_COLLAPSE, "--at", "u"]) == 0
    assert main(["core", GBS_COLLAPSE]) == 0
    assert calls == [0, None]


@pytest.mark.parametrize("bad", [["pullback"], ["validate", GBS_COLLAPSE, "--budget", "3"],
                                 ["no-such-command"]])
def test_usage_error_leaves_the_cached_parser_working(bad, capsys):
    with pytest.raises(SystemExit) as exc:
        main(bad)
    assert exc.value.code == 3
    assert capsys.readouterr().err.splitlines()[-1].startswith("error: ")
    assert main(["validate", GBS_COLLAPSE]) == 0
    assert capsys.readouterr().out == "vertices: 8\nedge-pairs: 8\nVERDICT: ok\n"


@pytest.mark.parametrize("argv", [["--help"], ["pullback", "--help"]])
def test_help_still_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: gogroups")


@pytest.mark.parametrize("argv", [["validate", GBS_COLLAPSE], ["reduce", GBS_COLLAPSE],
                                  ["decide-fgip", GBS_COLLAPSE], ["export-dot", GBS_COLLAPSE]])
def test_repeated_call_prints_the_same_bytes(argv, capsys):
    outputs = []
    for _ in range(3):
        code = main(argv)
        outputs.append((code, capsys.readouterr().out))
    assert outputs[0] == outputs[1] == outputs[2]


@pytest.fixture
def fresh_parser():
    cli.make_parser.cache_clear()
    yield
    cli.make_parser.cache_clear()


def test_main_builds_the_parser_once(fresh_parser, capsys, monkeypatch):
    built = []   # make_parser adds the subcommands to each parser it builds
    add_subparsers = argparse.ArgumentParser.add_subparsers
    monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers",
                        lambda self, **kw: built.append(self) or add_subparsers(self, **kw))
    for argv in (["validate", GBS_COLLAPSE], ["reduce", GBS_COLLAPSE], ["core", GBS_COLLAPSE],
                 ["validate", GBS_COLLAPSE], ["export-dot", GBS_COLLAPSE]):
        assert main(argv) == 0
    assert len(built) == 1


def test_gog_roundtrip_through_files():
    for A in (bs_gog(2, 3), nofgip_gog(), free_double_gog("ab", "ab")):
        payload = gogio.serialize_gog(A, basepoint=0)
        B, base = gogio.parse_gog(json.loads(json.dumps(payload)))
        assert B.graph.nv == A.graph.nv
        assert B.graph.n_pairs == A.graph.n_pairs
        assert gogio.serialize_gog(B, basepoint=base) == payload


# Z as an edge group of Z, once abelian and once free of rank 1
Z_INTO_Z = {"vertices": {"u": {"Z": True}},
            "edges": [{"name": "e", "from": "u", "to": "u", "group": {"Z": True},
                       "alpha": [1], "omega": [2]}]}
F1_INTO_Z = {**Z_INTO_Z, "edges": [{**Z_INTO_Z["edges"][0], "group": {"free": 1}}]}


def test_free_edge_group_into_abelian_vertex_group_validates(tmp_path, capsys):
    assert main(["validate", write(tmp_path, "f1.json", F1_INTO_Z)]) == 0
    assert "VERDICT: ok" in capsys.readouterr().out


def test_free_edge_group_pullback_matches_abelian_encoding(tmp_path, capsys):
    P = write(tmp_path, "P.json", {"generators": [[3], [1, "e", 0]]})
    Q = write(tmp_path, "Q.json", {"generators": [[6], [1, "e", 1]]})
    reports = []
    for name, gog in (("z", Z_INTO_Z), ("f1", F1_INTO_Z)):
        out = str(tmp_path / f"{name}.out.json")
        assert main(["pullback", write(tmp_path, f"{name}.json", gog), P, Q,
                     "--budget", "12", "--out", out]) == 0
        reports.append(json.load(open(out)))
    z, f1 = reports
    # the edge groups' elements n of Z are the words a^n of F1
    for h in z["edges"]:
        h["group"] = [("a" if n > 0 else "A") * abs(n) for n in h["group"]]
        h["witness"] = ("a" if h["witness"] > 0 else "A") * abs(h["witness"])
    assert z == f1
    assert len(f1["edges"]) == 2 and all(h["group"] for h in f1["edges"])


ZSQ = [os.path.join(SAMPLES, f"{name}.json")
       for name in ("zsquared_hnn", "zsquared_hnn_sub_C", "zsquared_hnn_sub_B")]


@pytest.mark.parametrize("argv", [
    ["pullback", *ZSQ, "--out"],
    ["pullback", *ZSQ, "--dot"],
    ["export-dot", os.path.join(SAMPLES, "bs_1_2.json"), "--out"],
    ["reduce", GBS_COLLAPSE, "--out"],
    ["core", GBS_COLLAPSE, "--out"],
    ["w-construct", os.path.join(SAMPLES, "double_f2_squares.json"), "--out"],
], ids=["pullback-out", "pullback-dot", "export-dot", "reduce", "core", "w-construct"])
@pytest.mark.parametrize("target", ["missing-directory", "directory"])
def test_unwritable_output_path_is_an_input_error(argv, target, tmp_path, capsys):
    # FileNotFoundError or IsADirectoryError escaped: a traceback and exit 1
    path = str(tmp_path / "missing" / "x.json") if target == "missing-directory" else str(tmp_path)
    assert main(argv + [path]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: cannot write {path}: ")


@pytest.mark.parametrize("cmd", ["pullback", "intersect"])
def test_negative_budget_is_a_usage_error(cmd, capsys):
    # a negative budget ran as budget 0
    with pytest.raises(SystemExit) as exc:
        main([cmd, *ZSQ, "--budget", "-1"])
    assert exc.value.code == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1] == "error: argument --budget: must not be negative: -1"
    assert main([cmd, *ZSQ, "--budget", "0"]) == 0
    assert capsys.readouterr().out.endswith("VERDICT: " + (
        "budget-exhausted\n" if cmd == "pullback" else "lower-bound\n"))
