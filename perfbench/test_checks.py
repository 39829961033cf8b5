"""Tests of the benchmark's own checks, generators and tracing.

    python3 -m pytest -q perfbench

Every reference check passes on the program at the smallest sizes for two
seeds, and rejects a deliberately corrupted output of each workload.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import tracing  # noqa: E402
import workloads as W  # noqa: E402
from gogroups.backends import FreeGroup  # noqa: E402


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def smallest(workload, seed, tmp_path):
    ops = W.WORKLOADS[workload](seed, str(tmp_path), levels=(0,))
    return {op.name: (op, op.run()) for op in ops}


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", sorted(W.WORKLOADS))
def test_checks_pass_at_smallest_size(workload, seed, tmp_path):
    for name, (op, out) in smallest(workload, seed, tmp_path).items():
        assert op.check(out, True) == [], name


def test_zsq_ray_rejects_corrupted_outputs(tmp_path):
    ran = smallest("zsq-ray", 1, tmp_path)
    op, (rc, text) = ran["pullback@64"]
    assert op.check((rc, text.replace("witness=[0, 7] group", "witness=[0, 8] group", 1)), False)
    assert op.check((rc, text.replace("VERDICT: budget-exhausted", "VERDICT: complete")), False)
    assert op.check((1, text), False)
    op, (rc, text) = ran["intersect@64"]
    assert op.check((rc, text.replace("flag: lower-bound", "flag: exact")), False)
    assert op.check((rc, text.replace("e, [1, 0], e^-1", "e, [2, 0], e^-1", 1)), False)
    dropped = "\n".join(l for l in text.splitlines() if not l.startswith("generator 64:"))
    assert op.check((rc, dropped), False)


def test_rose_fold_rejects_corrupted_outputs(tmp_path):
    ran = smallest("rose-fold", 1, tmp_path)
    op, (m, base) = ran["realize@k=10#0"]
    off_by_one = SimpleNamespace(source=SimpleNamespace(
        graph=SimpleNamespace(nv=m.source.graph.nv + 1)))
    assert op.check((off_by_one, base), False)
    op, (gens, exact) = ran["intersect@k=10#0"]
    assert gens
    assert op.check((gens[1:], exact), False)
    assert op.check((gens, False), False)


def test_free_cyclic_rejects_corrupted_outputs(tmp_path):
    ran = smallest("free-cyclic", 1, tmp_path)
    op, (imm_h, imm_k, gens) = ran["double-aa@shared=4#0"]
    foreign = W.random_closed_apath(W.random.Random(99), imm_h[0].target, 2, 10)
    assert op.check((imm_h, imm_k, gens + [foreign]), False)


# FreeGroup.dc_canon is not canonical when a double coset has several
# shortest words, so realize_subgroup can return a non-immersion over free
# vertex groups and membership tracing fails: free-cyclic fails one check at
# 16 shared generators.  The program is at fault, so this is expected to fail
# until it is fixed (strict: a fix makes it pass and the mark must go).
@pytest.mark.xfail(strict=True,
                   reason="FreeGroup.dc_canon is not canonical (a^3 vs a^-3 modulo <a^2>)")
def test_free_dc_canon_is_canonical():
    F = FreeGroup(1)
    T, H = F.trivial_subgroup(), F.subgroup([(1, 1)])
    # a^3 and a^-3 lie in the same coset of <a^2>
    assert F.dc_eq(T, (1, 1, 1), H, (-1, -1, -1))
    assert F.dc_canon(T, (1, 1, 1), H) == F.dc_canon(T, (-1, -1, -1), H)


def test_cli_mix_rejects_corrupted_outputs(tmp_path):
    ran = smallest("cli-mix", 1, tmp_path)
    op, (rc, text) = ran["decide-fgip bs_1_2.json"]
    assert op.check((1, text.replace("VERDICT: yes", "VERDICT: no")), False)
    op, (rc, text) = ran["core gbs25"]
    n = int(text.splitlines()[0].split(": ")[1])
    assert op.check((rc, text.replace(f"vertices: {n}", f"vertices: {n + 1}")), False)
    fcip = next(name for name in ran if name.startswith("fcip"))
    op, (rc, text) = ran[fcip]
    flipped = text.replace("VERDICT: True", "VERDICT: X").replace("VERDICT: False", "VERDICT: True")
    assert op.check((rc, flipped.replace("VERDICT: X", "VERDICT: False")), False)
    op, (rc, text) = ran["intersect rose2"]
    dropped = "\n".join(l for l in text.splitlines() if not l.startswith("generator 0:"))
    assert op.check((rc, dropped), False)


def test_free_coset_rejects_corrupted_outputs(tmp_path):
    ran = smallest("free-coset", 1, tmp_path)
    op, (meet, verdicts, factors) = ran["coset@shared=8#0"]
    assert op.check((meet, [not verdicts[0]] + verdicts[1:], factors), False)
    h, k = factors[0]
    assert op.check((meet, verdicts, [(h, k + (1,))] + factors[1:]), False)
    # a lies outside H and K, whose generators have a-exponent 0 mod 3
    assert op.check((meet + ((1,),), verdicts, factors), True)
    assert op.check((meet[1:], verdicts, factors), True)


def test_fcip_closed_form_matches_the_decider():
    from gogroups.backends import AbelianGroup
    from gogroups.fcip import fcip_abelian
    Z = AbelianGroup.Z()
    for i in range(13):
        for j in range(13):
            for k in range(13):
                rep = fcip_abelian(Z, Z.subgroup([(j,)]), Z.subgroup([(k,)]), Z.subgroup([(i,)]))
                assert rep.verdict == W.fcip_z_verdict(i, j, k), (i, j, k)


def test_gbs_core_size_by_hand():
    # root 0 with children 1 (unit) and 2 (x2); 3 under 1 with x3
    parent, mult = [None, 0, 0, 1], [1, 1, 2, 3]
    assert W.gbs_core_size(parent, mult) == (4, 4)
    assert W.gbs_core_size([None, 0, 0, 1], [1, 1, 1, 1]) == (1, 1)


def test_tracer_wraps_rebinds_and_restores():
    import gogroups.cli as gcli
    import gogroups.pullback as gpull
    original = gpull.build_product
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert gpull.build_product is not original
        assert gcli.build_product is gpull.build_product
        rc, _ = W.cli(["decide-fgip", "samples/bs_1_2.json"])
    finally:
        tracer.uninstall()
    assert gpull.build_product is original and gcli.build_product is original
    assert rc == 0
    assert tracer.names[tracer.spans.nid[0]] == "cli.main"
    assert all(parent < i for i, parent in enumerate(tracer.spans.parent))
    assert all(s <= e for s, e in zip(tracer.spans.start, tracer.spans.end))
    values = tracing.layer_metrics(tracer, 1)
    assert values["fgip.decide.calls"] == 1
    assert values["gogio.parse.calls"] == 1
    assert values["cli.self_s"] > 0
    assert set(values) == set(tracing.METRICS)


def test_ticker_samples_inside_long_work():
    import run
    with run.Ticker(0.01) as ticker:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.2:
            pass
        during, spent = ticker.take()
    assert len(during) >= 5
    assert 0 < spent == sum(during) < 0.2


def run_bench(cwd, *extra):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *extra],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_benchmark_prints_one_json_result():
    proc = run_bench(ROOT, "--workload", "cli-mix", "--seed", "3", "--seconds", "0.1",
                     "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert set(result["metrics"]) == {m["name"] for m in bench["end_to_end"]}
    assert {m["name"] for m in bench["per_layer"]} == set(tracing.METRICS) | set(
        tracing.TRACE_METRICS)


def test_benchmark_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = run_bench(str(tmp_path), "--workload", "zsq-ray", "--seed", "1", "--seconds", "1",
                     "--trace", "0")
    assert proc.returncode != 0
    assert "{" not in proc.stdout
