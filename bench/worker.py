"""One benchmark process: set up, warm up, time passes, trace, check.

Started by run.py, one process per run.  Prints `ready` once riskmix is
imported, the operation list generated and the models built, then one JSON
line with the measurements.

    python3 bench/worker.py --workload W --seed N --mode probe|time|time+trace
        [--seconds S] [--spans PATH]
"""

import argparse
import contextlib
import io
import json
import math
import os
import random
import resource
import sys
import warnings
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def import_riskmix():
    """riskmix from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import riskmix

    if Path(riskmix.__file__).resolve().parent != src / "riskmix":
        raise ImportError(f"riskmix imported from {riskmix.__file__}, not {src}")
    return riskmix


def prepare(rm, ops):
    """One zero-argument call per operation.  Functions are looked up at call
    time, so that a traced pass goes through the wrappers."""
    import numpy as np

    from workloads import GRID

    grid = np.logspace(math.log10(GRID[0]), math.log10(GRID[1]), GRID[2])
    builders = {"pareto": rm.pareto_model, "gamma": rm.gamma_claims_model,
                "weibull-half": rm.weibull_half_model, "weibull": rm.weibull_model,
                "invgauss": rm.inverse_gaussian_model, "lindley": rm.lindley_model}
    models = {}

    def model(op):
        key = (op["law"], tuple(op["params"].items()), op["n"])
        if key not in models:
            models[key] = builders[op["law"]](**op["params"], n=op["n"])
        return models[key]

    calls = []
    for op in ops:
        if op["fn"] == "cli":
            calls.append(lambda argv=op["argv"]: run_cli(rm, argv))
            if "law" in op:
                model(op)       # warmed up like the library workloads' models
        elif op["fn"] == "risk_report":
            calls.append(lambda m=model(op), lv=op["level"]: rm.risk_report(m, lv))
        else:
            calls.append(lambda m=model(op), fn=op["fn"]: getattr(rm, fn)(m, grid))
    return grid, calls, list(models.values())


def run_cli(rm, argv):
    """(exit code, standard output) of one command.  The output stays in
    memory: written to the shared host's disk, its timing followed the disk's
    contention rather than the program."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = rm.cli.main(argv)
    return code, out.getvalue()


def warm_up(rm, models):
    """Untimed: fill the Bell caches up to each model's order."""
    for m in models:
        rm.survival(m, [0.5, 1.0, 2.0])
        rm.pdf(m, [0.5, 1.0, 2.0])


def run_pass(calls, order, tracer=None):
    """Time every call once, in the given order; returns (wall, latencies,
    results), the last two indexed by operation."""
    latencies, results = [0.0] * len(calls), [None] * len(calls)
    quiet = io.StringIO()
    t_pass = perf_counter()
    for i in order:
        if tracer is not None:
            tracer.op_id = i
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(quiet):
            warnings.simplefilter("always")
            t0 = perf_counter()
            try:
                value, error = calls[i](), None
            except (Exception, SystemExit) as exc:     # recorded as a failed operation
                value, error = None, type(exc).__name__
            latencies[i] = perf_counter() - t0
        results[i] = {"value": value, "error": error,
                      "warnings": sum(issubclass(w.category, RuntimeWarning) for w in caught)}
    return perf_counter() - t_pass, latencies, results


def _same(a, b):
    import numpy as np

    if isinstance(a, np.ndarray):
        return np.array_equal(a, b, equal_nan=True)
    return repr(a) == repr(b)


def bell_cache_totals(rm):
    """(hits, misses) summed over the lru caches of riskmix.mixing."""
    infos = [obj.cache_info() for obj in vars(rm.mixing).values() if hasattr(obj, "cache_info")]
    return sum(i.hits for i in infos), sum(i.misses for i in infos)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("probe", "time", "time+trace"))
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args(argv)

    rm = import_riskmix()
    import riskmix.cli  # noqa: F401  (cli is not imported by the package)

    from workloads import operations, passes

    ops = operations(args.workload, args.seed)
    grid, calls, models = prepare(rm, ops)
    print("ready", flush=True)
    if args.mode == "probe":
        return 0

    t0 = perf_counter()
    warm_up(rm, models)
    report = {"walls": [], "latencies": [], "rss_mb": None, "trace": None,
              "warmup_s": perf_counter() - t0}
    first, unstable = None, set()
    natural = list(range(len(calls)))
    cpus = sorted(os.sched_getaffinity(0))
    for k in range(passes(args.workload, args.seconds)):
        # each pass runs in a fresh seeded order, so that the repeats of
        # one operation fall at unrelated moments of the run, and on the
        # next CPU: on a shared host one core can stay slowed for minutes
        # while the other is not, and the scheduler leaves a busy process
        # where it is
        os.sched_setaffinity(0, {cpus[k % len(cpus)]})
        order = random.Random(f"{args.seed}/{k}").sample(natural, len(natural))
        wall, lat, results = run_pass(calls, order)
        report["walls"].append(wall)
        report["latencies"].append(lat)
        if first is None:
            first = results
        else:
            unstable |= {i for i, (a, b) in enumerate(zip(first, results))
                         if not _same(a["value"], b["value"])}
    os.sched_setaffinity(0, cpus)
    report["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.mode == "time+trace":
        from tracer import Tracer

        tracer = Tracer().install()
        before = bell_cache_totals(rm)
        wall, _, results = run_pass(calls, natural, tracer)
        after = bell_cache_totals(rm)
        tracer.uninstall()
        cli_bytes = sum(len(res["value"][1].encode()) for op, res in zip(ops, results)
                        if op["fn"] == "cli" and res["value"] is not None)
        report["trace"] = tracer.summary(wall, (after[0] - before[0], after[1] - before[1]),
                                         cli_bytes)
        report["traced_wall"] = wall
        if args.spans:
            tracer.save(args.spans)

    t0 = perf_counter()
    report["checks"] = check_all(ops, first, grid, unstable)
    report["check_s"] = perf_counter() - t0
    print(json.dumps(report), flush=True)
    return 0


def check_all(ops, results, grid, unstable):
    """[(op index, failure class or None)] against the oracles."""
    import oracles

    verdicts = []
    for i, (op, res) in enumerate(zip(ops, results)):
        if op["fn"] == "cli":
            code, text = res["value"] or (None, "")
            res = {**res, "exit": code, "text": text}
        try:
            verdict = oracles.check(op, res, grid)
        except Exception as exc:                          # noqa: BLE001
            print(f"oracle failed on op {i}: {exc!r}", file=sys.stderr)
            verdict = "oracle-error"
        if verdict is None and i in unstable:
            verdict = "unstable"
        verdicts.append((i, verdict))
    return verdicts


if __name__ == "__main__":
    sys.exit(main())
