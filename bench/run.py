"""Run one sqstanley benchmark workload in a single process.

    python3 bench/run.py --workload survey-duality-n4 --seed 1 --seconds 45 --trace 0

Run from anywhere; sqstanley is imported from the src/ directory beside
bench/.  The workload's inputs are built from --seed, then whole rounds
of its operations run back to back for about --seconds: the first
round's wall time fixes how many rounds (the nearest whole number, at
least one).  Every round's outputs are checked against the oracles in
oracles.py.

With --trace 0 the last line of standard output is a JSON object with
the end-to-end metrics:

    wall_s       median wall time of one round
    cpu_s        median process CPU time of one round
    setup_s      median over fresh interpreters of the time from spawn
                 to inputs ready (importing sqstanley included); the
                 interpreters are started before and between the rounds
    peak_rss_mb  peak resident memory of this process

With --trace 1 the program's layer entry points are wrapped (see
tracing.py): one untraced round runs first, then traced rounds for
about --seconds; the JSON carries the per-layer metrics of the
traced rounds and the spans go to bench/out/.
"""

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# Set-up is timed in this many fresh interpreters: the first few before
# the first round, the rest spread over the gaps after the rounds, so
# that setup_s samples the machine over the whole run, as wall_s does.
SETUP_PROBES = 9
SETUP_PROBES_FIRST = 3


def load_program():
    """Put src/ first on the import path, or stop if the sources are missing."""
    if not (SRC / "sqstanley" / "__init__.py").is_file():
        raise SystemExit(f"bench: no sqstanley sources under {SRC}")
    sys.path.insert(0, str(SRC))


def run_round(plan, tracer=None):
    """Run every operation once, then check the outputs and drop them,
    so that memory does not grow with the number of rounds.  Returns
    the number of operations, failures, wall and CPU seconds, and whether
    the outputs passed the oracles."""
    results, failed = [], 0
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for k, op in enumerate(plan.ops):
        if tracer is not None:
            tracer.op_id = k
            span = tracer.begin("op")
        try:
            results.append(op())
        except Exception as exc:  # a failed operation is counted, not fatal
            print(f"bench: operation {k} failed: {exc!r}", file=sys.stderr)
            results.append(None)
            failed += 1
        if tracer is not None:
            tracer.finish(span)
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    return {"ops": len(plan.ops), "failed": failed, "wall": wall, "cpu": cpu,
            "correct": checked(plan, results)}


def checked(plan, results):
    try:
        plan.check(results)
    except oracles.OracleError as exc:
        print(f"bench: oracle check failed: {exc}", file=sys.stderr)
        return False
    return True


def run_rounds(plan, seconds, tracer=None, between=None):
    """Whole rounds for about the given seconds.  The first round's wall
    time fixes the count: the nearest whole number of rounds that fills
    the seconds, at least one.  So a run measures close to its seconds
    whatever the length of a round, and never adds a whole round because
    the clock had not quite run out.  between(i, count) is called after
    round i of count."""
    rounds, count = [], 1
    while len(rounds) < count:
        gc.collect()
        rounds.append(run_round(plan, tracer))
        if len(rounds) == 1:
            count = max(1, math.floor(seconds / rounds[0]["wall"] + 0.5))
        if between is not None:
            between(len(rounds), count)
    return rounds


def setup_seconds(workload, seed, probes):
    """Times from spawning a fresh interpreter to its inputs being ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(probes):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter() - t0
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise SystemExit(f"bench: set-up probe failed with code {proc.returncode}")
        times.append(ready)
    return times


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args, plan):
    setup = setup_seconds(args.workload, args.seed, SETUP_PROBES_FIRST)
    later = SETUP_PROBES - SETUP_PROBES_FIRST

    def between(i, count):
        probes = later * i // count - later * (i - 1) // count
        setup.extend(setup_seconds(args.workload, args.seed, probes))

    rounds = run_rounds(plan, args.seconds, between=between)
    metrics = {
        "wall_s": metric(statistics.median(r["wall"] for r in rounds), "s"),
        "cpu_s": metric(statistics.median(r["cpu"] for r in rounds), "s"),
        "setup_s": metric(statistics.median(setup), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return rounds, metrics


def per_layer(args, build):
    import tracing
    tracer = tracing.Tracer()
    tracer.install()
    start = tracer.mark()
    plan = build(args.seed)
    setup = tracer.totals(start, tracer.mark())
    tracer.uninstall()
    untraced = run_rounds(plan, 0)[0]
    tracer.install()
    marks = [tracer.mark()]
    rounds = run_rounds(plan, args.seconds, tracer, lambda i, count: marks.append(tracer.mark()))
    tracer.uninstall()
    per_round = [tracer.totals(a, b) for a, b in zip(marks, marks[1:])]
    metrics = {}
    for name in tracing.metric_names():
        unit = tracing.unit_of(name)
        if name == "trace.overhead_s":
            value = statistics.median(r["wall"] for r in rounds) - untraced["wall"]
        elif name in tracing.SETUP_METRICS:
            value = setup[name]
        elif unit == "s":
            value = statistics.median(t[name] for t in per_round)
        else:
            value = per_round[0][name]
        metrics[name] = metric(value, unit)
    path = OUT / f"trace-{args.workload}-seed{args.seed}.tsv.gz"
    tracer.write(path)
    print(f"bench: {len(tracer.start)} spans written to {path}", file=sys.stderr)
    return [untraced] + rounds, metrics


def main(argv=None):
    load_program()
    import workloads
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=45)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="build the inputs, print 'ready' and exit (times set-up)")
    args = ap.parse_args(argv)
    build = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        build(args.seed)
        print("ready", flush=True)
        return 0
    if args.trace:
        rounds, metrics = per_layer(args, build)
    else:
        rounds, metrics = end_to_end(args, build(args.seed))
    print(json.dumps({"correct": all(r["correct"] for r in rounds),
                      "attempted": sum(r["ops"] for r in rounds),
                      "failed": sum(r["failed"] for r in rounds),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
