"""Operation lists of the three workloads, generated from the workload seed.

Generation is pure Python on `random.Random(seed)`, so the same seed gives
the same list on any machine.  An operation is a plain dict; the worker
turns it into a call into riskmix.

* curves-warm: pdf / survival / cdf of every CLI law at n = 2, 10, 32 on a
  1000-point log grid from 1e-2 to 1e3; three parameter sets per law, one
  stable index per run so that one power-sequence Bell table serves it.
* risk-warm: risk_report of every law at n = 2 and 10, plus more reports
  of the four lighter laws at n = 2, 5, 10 and 32; each report draws its
  parameters from the seed.
* cli-warm: about a hundred riskmix.cli.main(argv) commands modelled on the
  README at n = 2, 5, 10, 32, writing to standard output.

A run repeats its workload's operation list `passes(workload, seconds)`
times.  The count depends only on the arguments, never on how fast the code
or the host runs, so that every commit gets the same number of samples.
"""

import random

WORKLOADS = ("curves-warm", "risk-warm", "cli-warm")
LAWS = ("pareto", "gamma", "weibull-half", "weibull", "invgauss", "lindley")
CURVE_FNS = ("pdf", "survival", "cdf")
CURVE_NS = (2, 10, 32)
GRID = (1e-2, 1e3, 1000)          # log grid of curves-warm: min, max, points
LEVELS = (0.9, 0.95, 0.99, 0.995, 0.999)
STABLE_ALPHAS = (0.45, 0.55)      # one is drawn per run
CHECK_POINTS = 3                  # seeded interior grid points checked per curve op
CLI_GRID = "0.01:1000:200:log"
SIM_SAMPLES = 20000               # rows of each cli-warm simulate command

# Time of one pass at this benchmark's baseline on a quiet 2-vCPU host.  A
# run of --seconds S makes S / PASS_S passes; each operation's latency is
# its fastest repeat, so it needs about ten repeats spread over the run.
PASS_S = {"curves-warm": 0.4, "risk-warm": 1.6, "cli-warm": 2.0}
MIN_PASSES = 3


def passes(workload, seconds):
    """Number of timed passes of a run."""
    return max(MIN_PASSES, round(seconds / PASS_S[workload]))


_FLAGS = {"alpha": "--alpha", "beta": "--beta", "lam": "--lambda", "mu": "--mu"}


def _u(rng, lo, hi):
    return round(rng.uniform(lo, hi), 4)


def draw_params(rng, law, stable_alpha):
    """One parameter set.  Ranges are narrow, about 10% around a centre, so
    that seeds change the inputs but not the amount of work; they keep every
    tail moment of order <= 2 finite except the Lindley ones, which diverge
    for every parameter."""
    if law == "pareto":
        return {"alpha": _u(rng, 3.0, 3.5), "beta": _u(rng, 0.9, 1.1)}
    if law == "gamma":
        return {"alpha": _u(rng, 0.5, 0.6), "lam": _u(rng, 0.9, 1.1)}
    if law == "weibull":
        return {"alpha": stable_alpha}
    if law == "invgauss":
        return {"lam": _u(rng, 0.9, 1.1), "mu": _u(rng, 0.9, 1.1)}
    if law in ("weibull-half", "lindley"):
        return {"lam": _u(rng, 0.9, 1.1)}
    raise ValueError(f"unknown law {law}")


def model_flags(law, params, n):
    flags = ["--model", law]
    for key, value in params.items():
        flags += [_FLAGS[key], repr(value)]
    return flags + ["--n", str(n)]


def curves_warm(seed):
    rng = random.Random(seed)
    stable_alpha = rng.choice(STABLE_ALPHAS)
    sets = {law: [draw_params(rng, law, stable_alpha)
                  for _ in range(1 if law == "weibull" else 3)] for law in LAWS}
    ops = []
    for n in CURVE_NS:
        for law in LAWS:
            for params in sets[law]:
                for fn in CURVE_FNS:
                    interior = sorted(rng.sample(range(1, GRID[2] - 1), CHECK_POINTS))
                    ops.append({"fn": fn, "law": law, "params": params, "n": n,
                                "check": [0] + interior + [GRID[2] - 1]})
    return ops


# (n, laws, reports per law).  A report costs 0.1-0.4 s for the inverse
# Gaussian and Lindley laws and for gamma, Weibull-1/2 and Weibull claims at
# n = 32, 20-40 ms for those three at n = 10 and a few ms below that.  The
# cheap rows bring the list to 106 operations; p90 falls inside the nine
# n = 10 reports of those three laws, below the seven costliest.
RISK_MIX = ((2, LAWS, 1), (10, LAWS, 1), (32, LAWS[:4], 1), (10, LAWS[1:4], 2),
            (5, LAWS[:4], 10), (2, LAWS[:4], 11))


def risk_warm(seed):
    rng = random.Random(seed)
    stable_alpha = rng.choice(STABLE_ALPHAS)
    ops = []
    for n, laws, reports in RISK_MIX:
        for law in laws:
            for _ in range(reports):
                # levels cycle in list order, the same for every seed: the
                # cost of a report depends on its level
                ops.append({"fn": "risk_report", "law": law, "n": n,
                            "params": draw_params(rng, law, stable_alpha),
                            "level": LEVELS[len(ops) % len(LEVELS)]})
    return ops


def _cli(command, argv, **spec):
    return {"fn": "cli", "command": command, "argv": [command] + argv, **spec}


def cli_warm(seed):
    """Each command writes its table to standard output.  `expect` is the
    exit code a correct program gives."""
    rng = random.Random(seed)
    stable_alpha = rng.choice(STABLE_ALPHAS)
    ops = []

    def model(law, n):
        params = draw_params(rng, law, stable_alpha)
        return {"law": law, "params": params, "n": n}, model_flags(law, params, n)

    for n in CURVE_NS:
        for law in LAWS:
            spec, flags = model(law, n)
            for command in CURVE_FNS:
                ops.append(_cli(command, flags + ["--grid", CLI_GRID], grid=CLI_GRID,
                                expect=0, **spec))
    # the Lindley and inverse Gaussian var commands cost 0.1-0.5 s each
    for n, laws in ((2, LAWS), (5, LAWS[:4])):
        for law in laws:
            spec, flags = model(law, n)
            levels = "0.9,0.99"
            ops.append(_cli("var", flags + ["--levels", levels], levels=levels,
                            expect=3 if law == "lindley" else 0, **spec))
    for n in (2, 5):
        for law in LAWS:
            spec, flags = model(law, n)
            ops.append(_cli("tau", flags, expect=0, **spec))
    for law in ("pareto", "gamma", "invgauss"):
        spec, flags = model(law, 2)
        ops.append(_cli("rho", flags, expect=0, **spec))
    for law in ("pareto", "gamma", "invgauss", "lindley"):
        spec, flags = model(law, 5)
        ops.append(_cli("moments", flags + ["--orders", "1,2"],
                        expect=3 if law == "lindley" else 0, **spec))
    for _ in range(6):
        lam, phi = _u(rng, 0.5, 2.0), _u(rng, 0.5, 2.0)
        c = round(phi * _u(rng, 1.2, 2.0), 4)
        ops.append(_cli("ruin", ["--lambda", repr(lam), "--phi", repr(phi), "--c", repr(c),
                                 "--grid", "0:50:100"],
                        lam=lam, phi=phi, c=c, expect=0))
    for primary, key, lo, hi in (("poisson", "phi", 0.5, 3.0), ("poisson", "phi", 0.5, 3.0),
                                 ("negbinomial", "p", 0.3, 0.8), ("negbinomial", "p", 0.3, 0.8),
                                 ("logarithmic", "phi", 0.2, 0.8), ("logarithmic", "phi", 0.2, 0.8)):
        lam, par = _u(rng, 0.5, 2.0), _u(rng, lo, hi)
        argv = ["--primary", primary, "--lambda", repr(lam), f"--{key}", repr(par),
                "--grid", "0:5:50"]
        counting = {key: par}
        if primary == "negbinomial":
            r = _u(rng, 1.0, 3.0)
            argv += ["--r", repr(r)]
            counting["r"] = r
        ops.append(_cli("compound", argv, primary=primary, lam=lam, counting=counting,
                        expect=0))
    for mixing in ("gamma", "invgauss") * 3:
        lam, beta = _u(rng, 0.5, 2.0), _u(rng, 1.0, 1.5)
        argv = ["--mixing", mixing, "--lambda", repr(lam), "--beta", repr(beta), "--m", "1",
                "--grid", "100:100000:50:log"]
        params = {"lam": lam, "beta": beta}
        if mixing == "gamma":
            params["alpha"] = _u(rng, 1.0, 3.0)
            argv += ["--alpha", repr(params["alpha"])]
        else:
            params["mu"] = _u(rng, 0.5, 2.0)
            argv += ["--mu", repr(params["mu"])]
        ops.append(_cli("asymptotic", argv, mixing=mixing, params=params, expect=0))
    for law in ("pareto", "invgauss"):
        spec, flags = model(law, 2)
        ops.append(_cli("verify", flags + ["--threads", "2"], expect=0, **spec))
    sim_spec, sim_flags = model("weibull-half", 5)
    for fmt in ("csv", "json"):
        argv = sim_flags + ["--samples", str(SIM_SAMPLES), "--streams", "4", "--threads", "2",
                            "--format", fmt]
        ops.append(_cli("simulate", argv, format=fmt, samples=SIM_SAMPLES, expect=0,
                        **sim_spec))
    for op in ops:
        op["argv"] += ["--seed", str(seed), "--output", "-"]
    return ops


def operations(workload, seed):
    """The fixed operation list of one workload for one seed."""
    if workload == "curves-warm":
        return curves_warm(seed)
    if workload == "risk-warm":
        return risk_warm(seed)
    if workload == "cli-warm":
        return cli_warm(seed)
    raise ValueError(f"unknown workload {workload}")
