"""Benchmark of the unilim library and CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see perfbench/README.md) from the checkout's ``src/``,
with one closed-loop client in this process: a fixed number of ops, about S
seconds of op time.  Times are in reference seconds (see refspeed.py).
With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
runs the same ops untraced and then traced, and reports the per-layer
metrics and the tracing overhead.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import hashlib
import importlib
import itertools
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
from collections import namedtuple

import refspeed
from spans import Tracer, metric_specs
from workloads import WORKLOADS, CheckFailed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

SETUP_REPEATS = 5
# the traced replay gets a longer deadline
TRACE_DEADLINE_FACTOR = 2
TAIL_BEYOND = 10

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("pass_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


class Deadline(Exception):
    """Raised by SIGALRM when an op passes its deadline.  ``cli.main``
    catches only UnilimError, OSError, ValueError, KeyError and IndexError,
    so this reaches the benchmark."""


def _on_alarm(signum, frame):
    raise Deadline()


# one op of a phase; wall_s and ref_s are its op window in wall seconds and
# in reference seconds (see refspeed.py)
Record = namedtuple("Record", "number op start wall_s ref_s status detail")


def run_one(wl, op, deadline_wall, tracer):
    """One op inside its deadline window, then its output check.
    Returns (start, wall latency in s, status, detail); status is ok,
    deadline, raised or wrong."""
    if tracer:
        tracer.open(f"op.{wl.name}")
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, deadline_wall)
        try:
            result = wl.call(op)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except Deadline:
        status, detail = "deadline", f"no result within {deadline_wall:.3f} s"
    except Exception as e:  # a failed op is counted and reported, not fatal
        status, detail = "raised", f"{type(e).__name__}: {e}"
    else:
        status, detail = "ok", None
    latency = time.perf_counter() - start
    if tracer:
        tracer.end_op()
    if status == "ok":
        try:
            detail = wl.check(op, result)
        except CheckFailed as e:
            status, detail = "wrong", str(e)
        except (ValueError, KeyError, IndexError, TypeError) as e:  # unparsable output
            status, detail = "wrong", f"{type(e).__name__}: {e}"
    return start, latency, status, detail


def planned_ops(wl, seconds):
    """The op count of a run: ``seconds`` of ops at the workload's nominal
    op cost, in whole passes of ``pass_ops``.  The count depends on nothing
    else, so equal seeds and seconds run exactly the same ops."""
    passes = max(1, round(seconds / (wl.op_s * wl.pass_ops)))
    return passes * wl.pass_ops


def timed_phase(wl, n_ops, deadline, tracer=None):
    """The first ``n_ops`` ops in pass order.  The reference is sampled
    between ops; each op's wall time is rescaled by the samples around it.
    An op that passes its deadline counts as exactly ``deadline`` reference
    seconds, the wall deadline being ``deadline`` scaled by the host's
    current slowness.  Only op windows count as busy time; output checks
    and the set-up of later passes run outside them."""
    clock = refspeed.Clock()
    raw = []
    ops = ((number, op) for number, pass_ops in wl.passes() for op in pass_ops)
    for number, op in itertools.islice(ops, n_ops):
        clock.sample_if_stale()
        start, wall, status, detail = run_one(wl, op, deadline * clock.current(), tracer)
        raw.append((number, op, start, wall, status, detail))
    clock.sample()
    records = [
        Record(number, op, start, wall,
               deadline if status == "deadline" else wall / clock.factor(start, start + wall),
               status, detail)
        for number, op, start, wall, status, detail in raw
    ]
    return records, sum(r.ref_s for r in records)


def tail(latencies):
    """Latency at the highest percentile with at least TAIL_BEYOND completed
    ops beyond it, that percentile, and the op count."""
    lat = sorted(latencies)
    n = len(lat)
    if n <= TAIL_BEYOND:
        return lat[-1], 100.0, n
    return lat[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def report_failures(wl, seed, records, phase):
    for r in records:
        if r.status != "ok":
            print(
                f"REPRO phase={phase} workload={wl.name} seed={seed} pass={r.number} "
                f"op={r.op!r} status={r.status} args: {wl.repro(r.op)}  # {r.detail}"
            )


def check_digest(wl, records):
    """sha256 of the verify-all report lines in verify_suite order, compared
    with the digest earlier runs in this checkout recorded."""
    first = [r for r in records if r.number == 0]
    if any(r.status != "ok" for r in first):
        return None, False, "not every first-pass op passed"
    text = "".join(line + "\n" for line in wl.digest_lines({r.op: r.detail for r in first}))
    digest = hashlib.sha256(text.encode()).hexdigest()
    path = os.path.join(OUT, f"verify-all-seeds-0..{wl.INSTANCES}.sha256")
    if os.path.exists(path):
        with open(path) as fh:
            recorded = fh.read().strip()
        return digest, digest == recorded, f"recorded earlier: {recorded}"
    tmp = f"{path}.{os.getpid()}"
    with open(tmp, "w") as fh:
        fh.write(digest + "\n")
    os.replace(tmp, path)
    return digest, True, "first run in this checkout, recorded"


def import_unilim():
    """Import the unilim package and its CLI afresh."""
    for name in [n for n in sys.modules if n == "unilim" or n.startswith("unilim.")]:
        del sys.modules[name]
    importlib.import_module("unilim.cli")


def timed_setup(wl):
    """The median of SETUP_REPEATS set-ups, each importing unilim afresh and
    making the workload's inputs, in reference seconds and in wall seconds."""
    clock = refspeed.Clock()
    clock.sample()
    walls, refs = [], []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        import_unilim()
        wl.setup()
        walls.append(time.perf_counter() - t)
        clock.sample()
        refs.append(walls[-1] / clock.factor(t, t + walls[-1]))
    return statistics.median(refs), statistics.median(walls)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "unilim", "__init__.py")):
        print(f"error: no unilim package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import unilim

    if os.path.dirname(os.path.abspath(unilim.__file__)) != os.path.join(SRC, "unilim"):
        print(f"error: imported unilim from {unilim.__file__}, not {SRC}", file=sys.stderr)
        return 2

    signal.signal(signal.SIGALRM, _on_alarm)
    workdir = os.path.join(OUT, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        setup = timed_setup(wl)
        records, busy = timed_phase(wl, planned_ops(wl, args.seconds), wl.deadline_s)
        report_failures(wl, args.seed, records, "untraced")
        if args.trace:
            traced, metrics = trace_run(wl, records)
            report_failures(wl, args.seed, traced, "traced")
            phase_records = records + traced
        else:
            metrics = end_to_end(wl, records, busy, setup)
            phase_records = records
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(phase_records)
    failed = sum(r.status != "ok" for r in phase_records)
    correct = attempted > failed and not any(r.status == "wrong" for r in phase_records)
    digest = None
    if wl.name == "verify-all":
        digest, same, note = check_digest(wl, records)
        correct = correct and same
        print(f"verify-all report digest sha256:{digest} ({note})")

    units = dict(metric_specs() if args.trace else END_TO_END)
    for name, value in metrics.items():
        print(f"{name:48s} {value} {units[name]}")
    env = {"nproc": os.cpu_count(), "python": platform.python_version(),
           "implementation": platform.python_implementation()}
    print(f"# workload={wl.name} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"nproc={env['nproc']} python={env['python']}")
    record_result(args, env, attempted, failed, correct, metrics, digest)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def end_to_end(wl, records, busy, setup):
    """The end-to-end metrics, in reference seconds; the same figures in
    wall seconds are printed above the result line."""
    passed = [r for r in records if r.status == "ok"]
    ref = [r.ref_s for r in passed] or [0.0]
    wall = [r.wall_s for r in passed] or [0.0]
    tail_ref, tail_pct, tail_n = tail(ref)
    print(f"op_tail_ms is p{tail_pct:.2f} of {tail_n} completed ops "
          f"({min(TAIL_BEYOND, tail_n - 1)} slower ops beyond it); slowest "
          f"{max(ref) * 1000:.1f} ms against a {wl.deadline_s * 1000:.0f} ms deadline")
    print(f"fail_ratio {1 - len(passed) / len(records):.6f}: "
          f"{len(records) - len(passed)} of {len(records)} attempted ops failed; "
          f"{busy:.3f} s of op time")
    print(f"wall clock: ops_per_s {len(passed) / sum(r.wall_s for r in records):.4f} "
          f"op_p50_ms {statistics.median(wall) * 1000:.3f} "
          f"op_tail_ms {tail(wall)[0] * 1000:.3f} setup_s {setup[1]:.4f}")
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "ops_per_s": len(passed) / busy,
        "op_p50_ms": statistics.median(ref) * 1000,
        "op_tail_ms": tail_ref * 1000,
        "pass_ratio": len(passed) / len(records),
        "peak_rss_mb": rss_kib / 1024,
        "setup_s": setup[0],
    }


def trace_run(wl, records):
    """Replay the untraced ops with every wrapped function traced, on inputs
    set up again under tracing; overhead compares the op windows, in
    reference seconds, of the ops that completed in both runs."""
    tracer = Tracer()
    tracer.install()
    try:
        tracer.open(f"setup.{wl.name}")
        wl.setup()
        tracer.end_op()
        traced, _busy = timed_phase(wl, len(records), wl.deadline_s * TRACE_DEADLINE_FACTOR, tracer)
    finally:
        tracer.uninstall()
    both = [
        (before.ref_s, after.ref_s)
        for before, after in zip(records, traced)
        if before.status == "ok" and after.status == "ok"
    ]
    untraced_s = sum(b for b, _ in both)
    overhead = 100 * (sum(a for _, a in both) - untraced_s) / untraced_s if untraced_s else 0.0
    tracer.write_spans(os.path.join(OUT, f"spans-{wl.name}.tsv.gz"))
    return traced, tracer.metrics(len(traced), overhead)


def record_result(args, env, attempted, failed, correct, metrics, digest):
    """Append the result, with nproc and the Python version, to
    .perfbench/results.jsonl in the checkout."""
    entry = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, **env, "correct": correct, "attempted": attempted,
        "failed": failed, "verify_digest": digest, "metrics": metrics,
    }
    with open(os.path.join(OUT, "results.jsonl"), "a") as fh:
        fh.write(json.dumps(entry) + "\n")


if __name__ == "__main__":
    sys.exit(main())
