"""riskmix benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload curves-warm|risk-warm|cli-warm \
        --seed N --seconds S --trace 0|1

Every measurement runs in a fresh worker process (bench/worker.py), so
nothing carries over from an earlier run.  The last line of standard output
is one JSON object with `correct`, `attempted`, `failed` and `metrics`; the
lines before it print the same metrics by name, with units, plus
`fail_ratio` and the failures by class.

--trace 0 reports the end-to-end metrics.  After an untimed warm-up, the
operation list runs a fixed number of passes, each in a fresh seeded order
(workloads.passes: --seconds over the workload's nominal pass time, so the
run measures about --seconds at baseline speed).  Each operation's latency
is its fastest repeat, which a shared host's slow phases do not reach:
  wall_s       time to finish the operation list once, on a quiet host: the
               sum of the operations' fastest repeats
  op_p50_ms    median latency of one operation
  op_p90_ms    nearest-rank 90th percentile of the latencies
  setup_s      fastest of five processes from process start to inputs ready
               (riskmix imported, operations generated, models built)
  peak_rss_mb  peak resident memory of the measuring process, before the checks
--trace 1 times the same passes untraced, then one pass with spans around
every layer (bench/tracer.py), and reports the per-layer metrics of that pass.

The first pass's outputs are checked after timing against oracles that share
no code with riskmix (bench/oracles.py).  `failed` counts every operation
that raised, returned a non-finite value, emitted a RuntimeWarning, missed
the tolerance or returned a number where an error is right.  `correct` is
false when a failure is not one of the defects known when the benchmark was
defined (measure.KNOWN).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("curves-warm", "risk-warm", "cli-warm")
SETUP_SAMPLES = 5
RUN_LIMIT_S = 175.0

sys.path.insert(0, str(BENCH))

from measure import KNOWN, best_per_op, count_failures, percentile  # noqa: E402


class WorkerError(RuntimeError):
    pass


def spawn(workload, seed, mode, seconds=0.0, deadline=None, spans=None, cpu=None):
    """Run one worker, on one CPU if `cpu` is given; returns (setup seconds,
    report or None for a probe)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--seconds", repr(seconds)]
    if spans:
        cmd += ["--spans", str(spans)]
    t0 = perf_counter()
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, preexec_fn=pin)
    try:
        first = proc.stdout.readline()
        setup = perf_counter() - t0
        timeout = None if deadline is None else max(1.0, deadline - perf_counter())
        rest, _ = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if first.strip() != "ready" or proc.returncode != 0:
        raise WorkerError(f"worker {mode} exited with {proc.returncode}")
    if mode == "probe":
        return setup, None
    return setup, json.loads(rest.strip().splitlines()[-1])


def measure(workload, seed, seconds, trace):
    """Run the processes of one run; returns (setup samples, timing report).

    Probes only set up and exit, so that setup_s is the fastest of
    SETUP_SAMPLES processes.  Half of them run before the measuring process
    and half after, each on the next CPU, so that the samples do not all
    fall in one slow phase of the host or of one core.
    """
    deadline = perf_counter() + RUN_LIMIT_S
    probes = 0 if trace else SETUP_SAMPLES - 1
    cpus = sorted(os.sched_getaffinity(0))
    setups = [spawn(workload, seed, "probe", deadline=deadline, cpu=cpus[i % len(cpus)])[0]
              for i in range(probes // 2)]
    spans = None
    if trace:
        spans = ROOT / ".bench_out" / f"spans-{workload}-{seed}.npz"
        spans.parent.mkdir(exist_ok=True)
    setup, report = spawn(workload, seed, "time+trace" if trace else "time", seconds,
                          deadline, spans)
    setups += [setup] + [spawn(workload, seed, "probe", deadline=deadline,
                               cpu=cpus[i % len(cpus)])[0]
                         for i in range(probes // 2, probes)]
    return setups, report


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "riskmix" / "__init__.py").is_file():
        print(f"error: no riskmix sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        setups, report = measure(args.workload, args.seed, args.seconds, args.trace)
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    walls = report["walls"]
    best = best_per_op(report["latencies"])
    attempted, failed, unexpected = count_failures(report["checks"], KNOWN)
    classes = Counter(cls for _, cls in report["checks"] if cls is not None)

    if args.trace:
        metrics = dict(report["trace"])
        metrics["trace.overhead_s"] = report["traced_wall"] - sum(best)
    else:
        metrics = {
            "wall_s": sum(best),
            "op_p50_ms": 1e3 * percentile(best, 50),
            "op_p90_ms": 1e3 * percentile(best, 90),
            "setup_s": min(setups),
            "peak_rss_mb": report["rss_mb"],
        }
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    print(f"workload {args.workload}  seed {args.seed}  operations {len(best)}  "
          f"timed passes {len(walls)} (median {statistics.median(walls):.3f} s)  "
          f"warm-up {report['warmup_s']:.1f} s  checks {report['check_s']:.1f} s (untimed)")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:.6g} {units[name]}")
    print(f"  {'fail_ratio':40s} {failed / attempted:.6g} 1  ({failed} of {attempted})")
    for cls, count in sorted(classes.items()):
        tag = "known defect" if cls in KNOWN else "UNEXPECTED"
        print(f"    {cls}: {count} ({tag})")
    for op, cls in unexpected:
        print(f"    unexpected failure: operation {op} ({cls})")
    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
