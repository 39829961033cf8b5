"""The gogroups benchmark: one workload at one seed, timed and checked.

    python3 perfbench/run.py --workload zsq-ray --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout (it imports `src/gogroups` and reads
`samples/`).  Load is a closed loop in one process and one thread: passes
over the workload's fixed operation list repeat until --seconds of operation
time is spent, each operation starting when the previous one returns.
Reference checks run after each pass, outside the timed region; an
operation fails when it raises or fails its check.

--trace 0 prints the end-to-end metrics of BENCHMARK.json; --trace 1 spends
half the time untraced and half (at most MAX_TRACED_PASSES passes) with span
wrappers installed (perfbench/tracing.py), and prints the per-layer metrics
plus the tracing overhead.  The last stdout line is the JSON result; the
lines before it are a readable summary.  The exit code is 1 when an
operation failed.  A result file with a machine descriptor and the spread
between passes, and the spans of a traced run, go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench_out"
SETUP_REPEATS = 15

# The speed of a shared host drifts: a fixed pure-Python loop took from 0.03
# to 0.05 s per call within four minutes on a 2-vCPU VM, and 30-second
# medians of a pass moved by 45%.  Every timing is therefore also reported
# at a fixed reference speed: t_ref = t_wall * KERNEL_REF_S / k, where k is
# the median of the speed_kernel() times sampled just before, during (every
# CALIBRATE_EVERY_S, see Ticker) and just after the timed work.  Sampled only
# around each operation, this cut the spread of 30-second medians on that VM
# from 45% to under 5%; sampled inside long operations as well, the spread
# of zsq-ray's 20-second medians fell from 0.12-0.19 to 0.03-0.06.
# KERNEL_REF_S is about the kernel's median there (Intel Xeon, CPython
# 3.11.7), so reference seconds read close to wall seconds on that machine.
KERNEL_REF_S = 0.0005
CALIBRATE_EVERY_S = 0.05
# set-up takes about 0.1 s, so it is sampled more often
SETUP_TICK_S = 0.01
# spans take about 40 bytes each and a traced pass records up to ~10^6
MAX_TRACED_PASSES = 3


def fail_usage(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def load_program():
    """Puts the checkout's src/ on the path; exits non-zero without it."""
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "gogroups", "__init__.py")):
        fail_usage("no src/gogroups here; run from the root of a gogroups checkout")
    if not os.path.isdir(os.path.join(root, "samples")):
        fail_usage("no samples/ here; run from the root of a gogroups checkout")
    sys.path.insert(0, os.path.join(root, "src"))
    sys.path.insert(0, HERE)


def set_up(workload, seed, tmp):
    """Import the package and build the workload's inputs: the span that
    setup_s measures in a fresh process."""
    import workloads
    return workloads.WORKLOADS[workload](seed, tmp)


def speed_kernel():
    """Fixed interpreter work: dict, list, tuple, str and int operations.
    The collector is off while it runs: inside an operation, a collection
    would scan the operation's objects and tie the kernel's time to them."""
    enabled = gc.isenabled()
    gc.disable()
    table, items, acc = {}, [], 0
    for i in range(600):
        key = i & 31
        table[key] = table.get(key, 0) + i
        items.append((key, i * 7 % 13))
        acc += len(str(i)) + max(items[-1])
    if enabled:
        gc.enable()
    return acc


def speed_sample():
    """Median duration of three kernel runs: the machine's current speed."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        speed_kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Ticker:
    """Samples the speed every `every` seconds of wall time, also in the
    middle of a long operation: an interval timer runs speed_kernel() from a
    SIGALRM handler.  take() returns the kernel times since the last take()
    and their sum, which the timed work's wall time excludes."""

    def __init__(self, every=CALIBRATE_EVERY_S):
        self.every = every
        self.k, self.spent = [], 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        speed_kernel()
        d = time.perf_counter() - t0
        self.k.append(d)
        self.spent += d

    def __enter__(self):
        self.previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.every, self.every)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)

    def take(self):
        k, spent = self.k, self.spent
        self.k, self.spent = [], 0.0
        return k, spent


def setup_only(workload, seed):
    """In a fresh process: print the wall and reference seconds of importing
    gogroups plus building the inputs.  The speed is sampled before, during
    and after; the kernel runs a few times first, because its first runs
    in a new process read slow."""
    for _ in range(5):
        speed_kernel()
    before = speed_sample()
    with Ticker(SETUP_TICK_S) as ticker:
        t0 = time.perf_counter()
        tmp = tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR)
        try:
            set_up(workload, seed, tmp)
            wall = time.perf_counter() - t0
            during, spent = ticker.take()
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    wall -= spent
    k = statistics.median([before, *during, speed_sample()])
    print(wall, wall * KERNEL_REF_S / k)


class SetupTimes:
    """Set-up timed in SETUP_REPEATS fresh processes, spread evenly over the
    run: after each pass, as many as the share of --seconds spent asks for.
    A slow spell of a shared host then weighs on a few of them, not on all."""

    def __init__(self, workload, seed, seconds):
        self.argv = [sys.executable, os.path.join(HERE, "run.py"), "--setup-only",
                     "--workload", workload, "--seed", str(seed)]
        self.seconds = seconds
        self.wall, self.ref = [], []

    def catch_up(self, spent):
        want = min(SETUP_REPEATS, math.ceil(SETUP_REPEATS * spent / self.seconds))
        while len(self.wall) < want:
            proc = subprocess.run(self.argv, check=True, capture_output=True, text=True)
            wall, ref = map(float, proc.stdout.split())
            self.wall.append(wall)
            self.ref.append(ref)


class Timing:
    """One operation's wall seconds and the kernel time k around and
    during it."""
    __slots__ = ("wall", "k")

    def __init__(self, wall):
        self.wall, self.k = wall, None

    @property
    def ref(self):
        return self.wall * KERNEL_REF_S / self.k


def run_pass(ops, record):
    """One closed-loop pass; returns per-op (Timing, output or exception).
    Each operation's k is the median of the speed samples taken during it and
    just before and after it; short operations are grouped until
    CALIBRATE_EVERY_S of them have run."""
    gc.collect()
    results, pending, since = [], [], 0.0
    ks = [speed_sample()]
    with Ticker() as ticker:
        for i, op in enumerate(ops):
            ticker.take()
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception:  # an operation that raises is a failed operation
                out = RuntimeError(traceback.format_exc(limit=3))
            wall = time.perf_counter() - t0
            during, spent = ticker.take()
            timing = Timing(wall - spent)
            results.append((timing, out))
            pending.append(timing)
            ks.extend(during)
            since += timing.wall
            if since >= CALIBRATE_EVERY_S or i == len(ops) - 1:
                after = speed_sample()
                ks.append(after)
                k = statistics.median(ks)
                for t in pending:
                    t.k = k
                ks, pending, since = [after], [], 0.0
    record.append(results)
    return results


def check_pass(ops, results, full, failures, pass_no):
    failed = 0
    for op, (_, out) in zip(ops, results):
        if isinstance(out, RuntimeError):
            problems = ["raised: " + str(out).strip().splitlines()[-1]]
        else:
            try:
                problems = op.check(out, full)
            except Exception:  # a check that cannot parse the output fails it
                problems = ["check raised: " + traceback.format_exc(limit=2).strip()
                            .splitlines()[-1]]
        if problems:
            failed += 1
            failures.append({"pass": pass_no, "op": op.name, "problems": problems[:5]})
    return failed


def timed_passes(ops, seconds, failures, tracer=None, first_pass_no=0, max_passes=None,
                 setup=None):
    """Passes until `seconds` of operation time are spent (at least one).
    Returns the records, the failed count and the peak RSS in MB after the
    first pass, before any check has run.  `setup` (SetupTimes) catches up
    after each pass."""
    record, spent, failed, rss_mb = [], 0.0, 0, None
    while not record or (spent < seconds and len(record) != max_passes):
        if tracer is not None:
            tracer.install()
        try:
            results = run_pass(ops, record)
        finally:
            if tracer is not None:
                tracer.uninstall()
        if rss_mb is None:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        spent += sum(t.wall for t, _ in results)
        pass_no = first_pass_no + len(record) - 1
        failed += check_pass(ops, results, pass_no == 0, failures, pass_no)
        if setup is not None:
            setup.catch_up(spent)
    if setup is not None:
        setup.catch_up(seconds)
    return record, failed, rss_mb


def quantiles(values):
    """Median, quartiles, and the highest percentile with at least ten
    samples beyond it (None when there are fewer than eleven samples)."""
    vals = sorted(values)
    n = len(vals)
    med = statistics.median(vals)
    q1, _, q3 = statistics.quantiles(vals, n=4) if n > 1 else (med, med, med)
    hi = None
    for pct in (99.9, 99, 95, 90, 75, 50):
        if n * (1 - pct / 100) >= 10:
            hi = (pct, vals[min(n - 1, math.ceil(n * pct / 100) - 1)])
            break
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "p_hi": hi, "n": n}


def pass_totals(record, clock, keep=lambda i: True):
    return [sum(getattr(t, clock) for i, (t, _) in enumerate(res) if keep(i)) for res in record]


def end_to_end(ops, record, setup, rss_mb):
    """Metrics in reference seconds, plus quartiles of both clocks."""
    levels = sorted({op.level for op in ops if op.level is not None})
    top, half = levels[-1], levels[-2]
    stats = {}
    for clock in ("ref", "wall"):
        stats[f"run_s.{clock}"] = quantiles(pass_totals(record, clock))
        for name, lvl in (("largest_s", top), ("half_s", half)):
            stats[f"{name}.{clock}"] = quantiles(
                pass_totals(record, clock, lambda i, lvl=lvl: ops[i].level == lvl))
    stats["setup_s.ref"], stats["setup_s.wall"] = quantiles(setup.ref), quantiles(setup.wall)
    metrics = {
        "setup_s": (stats["setup_s.ref"]["median"], "s"),
        "run_s": (stats["run_s.ref"]["median"], "s"),
        "largest_s": (stats["largest_s.ref"]["median"], "s"),
        "growth_exp": (math.log2(stats["largest_s.ref"]["median"]
                                 / stats["half_s.ref"]["median"]), "log2"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    return metrics, stats


def machine():
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"python": platform.python_version(), "implementation": platform.python_implementation(),
            "nproc": nproc, "cpu_model": cpu, "platform": platform.platform()}


def per_op(ops, record):
    """Median wall and reference seconds of each operation."""
    return {op.name: {clock: quantiles([getattr(res[i][0], clock) for res in record])["median"]
                      for clock in ("wall", "ref")}
            for i, op in enumerate(ops)}


def fmt_stat(name, st, unit):
    hi = (f"p{st['p_hi'][0]:g} {st['p_hi'][1]:.4f} {unit}" if st["p_hi"]
          else "no percentile with 10 samples beyond it")
    return (f"{name}: median {st['median']:.4f} {unit}, IQR/median {st['spread']:.3f}, "
            f"{hi} (n={st['n']})")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="build the inputs in this process and exit (timed by the parent)")
    args = ap.parse_args(argv)
    load_program()
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.setup_only:
        setup_only(args.workload, args.seed)
        return 0
    import workloads
    if args.workload not in workloads.WORKLOADS:
        fail_usage(f"unknown workload {args.workload!r}; "
                   f"choose from {', '.join(workloads.WORKLOADS)}")
    tmp = tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR)
    try:
        return bench(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def bench(args, tmp):
    ops = set_up(args.workload, args.seed, tmp)
    failures = []
    if args.trace:
        import tracing
        plain, failed, _ = timed_passes(ops, args.seconds / 2, failures)
        tracer = tracing.Tracer()
        traced, failed_t, _ = timed_passes(ops, args.seconds / 2, failures, tracer,
                                           first_pass_no=len(plain),
                                           max_passes=MAX_TRACED_PASSES)
        failed += failed_t
        record = plain + traced
        base = statistics.median(pass_totals(plain, "ref"))
        with_spans = statistics.median(pass_totals(traced, "ref"))
        values = tracing.layer_metrics(tracer, len(traced))
        values["trace.overhead_s"] = with_spans - base
        values["trace.overhead_ratio"] = with_spans / base
        values["trace.spans_per_pass"] = len(tracer.spans) / len(traced)
        metrics = {k: (v, tracing.metric_unit(k)) for k, v in values.items()}
        stats = {"untraced_run_s.ref": quantiles(pass_totals(plain, "ref")),
                 "traced_run_s.ref": quantiles(pass_totals(traced, "ref"))}
        spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json.gz")
        tracer.dump(spans_path)
    else:
        setup = SetupTimes(args.workload, args.seed, args.seconds)
        record, failed, rss_mb = timed_passes(ops, args.seconds, failures, setup=setup)
        metrics, stats = end_to_end(ops, record, setup, rss_mb)
    attempted = len(ops) * len(record)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(record)} passes of {len(ops)} operations, closed loop, 1 thread")
    print(f"fail_ratio: {failed / attempted:.4f} ({failed} failed / {attempted} attempted)")
    for name, st in stats.items():
        print(fmt_stat(name, st, "s"))
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    for f in failures[:10]:
        print(f"FAILED pass {f['pass']} {f['op']}: {'; '.join(f['problems'])}")

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    detail = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, passes=len(record), machine=machine(),
                  spread_between_passes=stats, failures=failures,
                  op_median_s=per_op(ops, record))
    path = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(detail, fh, indent=1)
    print(json.dumps(result))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
