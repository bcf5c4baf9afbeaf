"""Benchmark for splitbench: one workload per process, one operation at a time.

    python3 perfbench/run.py --workload dual-regularity --seed 1 \\
        --seconds 20 --trace 0

Run from the root of a checkout.  The run compiles the sources' bytecode,
times the import of splitbench in five fresh interpreters, imports it,
sets the workload up three times, computes the checks' expectations
apart from the program, and then runs whole passes over the workload's
operations in a closed loop: about ``--seconds`` of work on the
reference machine, and never fewer than 40 operations.  After every pass
it sets the workload up once more; ``setup_s`` is the median import time
plus the median of all set-ups.  Every output is checked.
The last line of standard output is one JSON object; with ``--trace 1``
it holds the per-layer metrics of a traced run, and the spans go to
``perfbench/out/``.
"""

import time

START = time.perf_counter()

import argparse        # noqa: E402
import gc              # noqa: E402
import importlib       # noqa: E402
import json            # noqa: E402
import math            # noqa: E402
import os              # noqa: E402
import random          # noqa: E402
import resource        # noqa: E402
import shutil          # noqa: E402
import statistics      # noqa: E402
import subprocess     # noqa: E402
import sys             # noqa: E402
import types           # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

sys.path.insert(0, HERE)

import spans               # noqa: E402
import workloads           # noqa: E402

MODULES = ["errors", "poset", "lattice", "duality", "residuated",
           "expansion", "diagram", "hplus_witness", "filtration", "cli"]
SETUP_BEFORE = 3
IMPORT_RUNS = 5
PERCENTILES = [99.99, 99.9, 99.5, 99, 95, 90, 80, 75, 50]


def tail_percentile(samples):
    """Highest listed percentile with at least ten samples above its rank."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in PERCENTILES:
        rank = max(1, math.ceil(p * n / 100 - 1e-9))   # nearest rank
        if n - rank >= 10:
            return p, ordered[rank - 1], n - rank
    return 50, ordered[(n - 1) // 2], n - (n + 1) // 2


def time_import():
    """Median seconds to import splitbench, each time in a fresh process."""
    code = ("import importlib, sys, time\n"
            f"sys.path.insert(0, {SRC!r})\n"
            "t = time.perf_counter()\n"
            f"for m in {MODULES!r}:\n"
            "    importlib.import_module('splitbench.' + m)\n"
            "print(time.perf_counter() - t)\n")
    return statistics.median(
        float(subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True).stdout)
        for _ in range(IMPORT_RUNS))


def import_program():
    sys.path.insert(0, SRC)
    return types.SimpleNamespace(**{
        m: importlib.import_module(f"splitbench.{m}") for m in MODULES})


def run_pass(units, rng, tracer, latencies, failures):
    """Run one shuffled pass; return the seconds spent in checks."""
    order = list(units)
    rng.shuffle(order)
    check_s = 0.0
    for unit in order:
        for op in unit:
            op_id = len(latencies)
            if tracer is not None:
                root = tracer.open_root(1, op_id)
            t0 = time.perf_counter()
            exc = None
            try:
                out = op.fn()
            except Exception as err:       # counted, and the run goes on
                exc = err
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.close_root(root)
            latencies.append(t1 - t0)
            try:
                ok = exc is None and bool(op.check(out))
            except Exception as err:
                ok, exc = False, err
            if not ok:
                failures.append((op.label, op.known_fault, repr(exc)))
            check_s += time.perf_counter() - t1
    return check_s


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    wl = workloads.WORKLOADS[args.workload]

    if not os.path.isdir(os.path.join(SRC, "splitbench")):
        print("perfbench: no src/splitbench here; run from the root of a "
              "splitbench checkout", file=sys.stderr)
        return 2
    # compile first, in a child process, so that a cold checkout's
    # bytecode lands neither in setup_s nor in this process's peak RSS
    subprocess.run([sys.executable, "-m", "compileall", "-q", SRC, HERE],
                   check=True, stdout=subprocess.DEVNULL)

    # one import is a single sample of a few tens of milliseconds, so
    # setup_s takes the median of several, each in a fresh interpreter
    import_s = time_import()
    sb = import_program()

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    setup_times = []

    def set_up():
        t0 = time.perf_counter()
        rng = random.Random(args.seed)
        root = tracer.open_root(0, -1) if tracer is not None else None
        state = wl.setup(sb, rng, workdir)
        if root is not None:
            tracer.close_root(root)
        setup_times.append(time.perf_counter() - t0)
        return state

    try:
        for _ in range(SETUP_BEFORE):
            state = set_up()
        if tracer is not None:
            tracer.active = False
        expect = wl.prepare(sb, state)
        units = wl.units(sb, state, expect)
        if tracer is not None:
            tracer.active = True
        per_pass = sum(len(u) for u in units)
        passes = workloads.passes_for(wl, args.seconds, per_pass)

        latencies, failures = [], []
        order_rng = random.Random(args.seed * 7919 + 1)
        # later collections then skip everything built before the loop
        gc.collect()
        gc.freeze()
        t_phase = time.perf_counter()
        aside_s = 0.0
        for _ in range(passes):
            aside_s += run_pass(units, order_rng, tracer, latencies,
                                failures)
            # one more set-up after each pass samples the machine's speed
            # across the run; its inputs are discarded
            t0 = time.perf_counter()
            set_up()
            aside_s += time.perf_counter() - t0
        phase_s = time.perf_counter() - t_phase - aside_s
        setup_s = import_s + statistics.median(setup_times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(latencies)
    unexpected = [f for f in failures if not f[1]]
    for label, known, err in failures:
        if not known:
            print(f"FAILED {label}: {err}", file=sys.stderr)
    tail_p, tail_v, beyond = tail_percentile(latencies)
    summary = {
        "workload": args.workload, "seed": args.seed, "passes": passes,
        "ops_per_pass": per_pass, "samples": attempted,
        "tail_percentile": tail_p, "samples_beyond_tail": beyond,
        "import_s": import_s, "setup_runs_s": setup_times,
        "phase_s": phase_s, "aside_s": aside_s,
        "ops_per_s": attempted / phase_s,
        "wall_s": time.perf_counter() - START,
    }
    print(f"{args.workload}: {attempted} operations in {passes} passes, "
          f"{len(failures)} failed; tail is p{tail_p} with {beyond} "
          f"samples beyond it", file=sys.stderr)

    if tracer is not None:
        os.makedirs(OUT, exist_ok=True)
        summary["op_shares"] = tracer.op_shares()
        tracer.write(os.path.join(
            OUT, f"trace-{args.workload}-{args.seed}.json"), summary)
        metrics = tracer.metrics()
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ops_per_s": {"value": attempted / phase_s, "unit": "ops/s"},
            "op_p50_ms": {"value": statistics.median(latencies) * 1e3,
                          "unit": "ms"},
            "op_tail_ms": {"value": tail_v * 1e3, "unit": "ms"},
            "peak_rss_mib": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                / 1024, "unit": "MiB"},
        }
        print(json.dumps({"summary": summary}), file=sys.stderr)
    print(json.dumps({"correct": not unexpected, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
