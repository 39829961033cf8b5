import json

import pytest

from gogroups import gogio
from gogroups.cli import main
from gogroups.library import bs_gog, free_double_gog, nofgip_gog


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


def test_gog_roundtrip_through_files():
    for A in (bs_gog(2, 3), nofgip_gog(), free_double_gog("ab", "ab")):
        payload = gogio.serialize_gog(A, basepoint=0)
        B, base = gogio.parse_gog(json.loads(json.dumps(payload)))
        assert B.graph.nv == A.graph.nv
        assert B.graph.n_pairs == A.graph.n_pairs
        assert gogio.serialize_gog(B, basepoint=base) == payload
