"""What `import riskmix` executes.

scipy.stats is never imported, and scipy.integrate and scipy.optimize are
bound but run only when an oracle or a cold path first uses them: `verify`
on every CLI law runs neither, and scipy.integrate serves only
dependence.kendall_tau_numeric.  The
check runs in a fresh interpreter: this suite's warning filter names
scipy.integrate.IntegrationWarning, so pytest has imported scipy.integrate
before any test starts.
"""

import ast
import dataclasses
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import riskmix
from riskmix import aggregate, mixing
from riskmix.mixing import (
    Beta2Row,
    GammaMixing,
    KernelRow,
    LindleyMixing,
    MixingDistribution,
    MixtureRow,
)

SCRIPT = textwrap.dedent("""
    import os
    import sys

    import riskmix
    import riskmix.cli

    def executed(name):
        return type(sys.modules[name]).__name__ != "_LazyModule" or any(
            m.startswith(name + ".") for m in sys.modules)

    assert not [m for m in sys.modules if m.split(".")[:2] == ["scipy", "stats"]]
    assert not executed("scipy.integrate") and not executed("scipy.optimize")
    assert riskmix.dependence.integrate is sys.modules["scipy.integrate"]
    assert riskmix.mixing.optimize is sys.modules["scipy.optimize"]

    # verify's oracles (the mixture quadrature, the normalisation and mean) are
    # specfun's double-exponential rule, which needs no scipy.integrate
    for law in (["pareto", "--alpha", "3.2", "--beta", "1"], ["gamma", "--alpha", "0.55",
                "--lambda", "1"], ["weibull-half", "--lambda", "1"], ["weibull", "--alpha", "0.55"],
                ["invgauss", "--lambda", "1", "--mu", "1"], ["lindley", "--lambda", "1"]):
        code = riskmix.cli.main(["verify", "--model", *law, "--n", "2", "--samples", "2000",
                                 "--output", os.devnull])
        assert code == 0, law
    model = riskmix.pareto_model(3.0, 1.0, n=2)
    got = riskmix.quadrature_mixture_pdf(model.mixing, 2, 1.0)
    want = riskmix.pdf(model, 1.0)
    assert abs(got - want) < 1e-13 * want, (got, want)
    assert not executed("scipy.integrate")

    from riskmix.dependence import kendall_tau_numeric
    from riskmix.mixing import BetaSecondKindMixing

    tau = kendall_tau_numeric(riskmix.weibull_model(0.5, 2))
    assert abs(tau - 0.5) < 1e-9, tau
    assert executed("scipy.integrate")

    m = BetaSecondKindMixing(3.0, 1.0)
    assert abs(m.laplace(m.generator(0.25)) - 0.25) < 1e-14
    assert executed("scipy.optimize")
    assert not [m for m in sys.modules if m.split(".")[:2] == ["scipy", "stats"]]
    print("ok")
""")


def test_import_executes_no_stats_and_defers_quadrature():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", SCRIPT],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def _riskmix_imports(path):
    """The riskmix modules that a source file imports, by their names in the package."""
    names = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            # a relative import is within riskmix
            module = ".".join((["riskmix"] if node.level else []) + [node.module or ""]).strip(".")
            names += ([f"{module}.{a.name}" for a in node.names] if module == "riskmix"
                      else [module])
    return {name.split(".")[1] for name in names if name.startswith("riskmix.")}


def test_mixing_imports_only_the_kernel_layer():
    # the frailty catalog sits under every other layer: it must not import
    # ruin (collective risk), aggregate or anything else built on it
    path = Path(__file__).resolve().parents[1] / "src" / "riskmix" / "mixing.py"
    assert _riskmix_imports(path) <= {"specfun", "errors", "_lazy"}


ROW_CLASSES = {"_Row", "MixtureRow", "Beta2Row", "KernelRow"}


def _row_test(tree):
    """A predicate: whether a node is a sum_row(...) call or a name bound to one."""
    def is_row_call(node):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "sum_row")

    rows = {t.id for node in ast.walk(tree) if isinstance(node, ast.Assign)
            and is_row_call(node.value) for t in node.targets if isinstance(t, ast.Name)}
    return lambda node: is_row_call(node) or (isinstance(node, ast.Name) and node.id in rows)


def _row_is_tested_for_none(tree):
    """Whether a comparison with None takes a sum_row(...) call, or a name bound
    to one, as an operand."""
    is_row = _row_test(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(isinstance(o, ast.Constant) and o.value is None for o in operands) and any(
                    is_row(o) for o in operands):
                return True
    return False


def _type_tests_of_rows(tree):
    """The isinstance and issubclass calls that take a row (a sum_row(...) call or a name
    bound to one) or name a row class."""
    is_row = _row_test(tree)
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name) and node.func.id in ("isinstance", "issubclass")
            and any(is_row(a) or ROW_CLASSES & {n.id for n in ast.walk(a)
                                                 if isinstance(n, ast.Name)}
                    for a in node.args)]


def test_sums_of_claims_go_through_the_row():
    # every law answers S_n through its row (mixing.MixtureRow, Beta2Row or KernelRow), so the
    # aggregate and risk-measure layers call no kernel, never ask whether a law has
    # a row, never reduce its terms, and need no special functions
    root = Path(__file__).resolve().parents[1] / "src" / "riskmix"
    for name in ("aggregate.py", "riskmeasures.py"):
        tree = ast.parse((root / name).read_text())
        names = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        names |= {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        names |= {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
                  for a in n.names}
        assert "log_abs_laplace_derivative" not in names, name
        assert not _row_is_tested_for_none(tree), name
        modules = {n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)}
        assert not {"scipy.special"} & modules and "special" not in names, name
        # the row owns the blocking and the check of a fractional total shape, so
        # neither layer tests the shape's type or sums the survival terms itself
        assert not {"_integral_shape", "_KERNEL_CELLS", "_log_sum_exp", "isinstance"} & names, name
        # the row reduces its own survival terms (its log_survival_sum)
        assert "logaddexp" not in names, name
        if name == "riskmeasures.py":
            # VaR's bracket reads the row's log-survival, not exp then log of survival
            assert "survival" not in names
    # the row names its route, so no module past mixing tests a row's type, and the CLI
    # names no row class at all
    for path in root.glob("*.py"):
        if path.name != "mixing.py":
            assert not _type_tests_of_rows(ast.parse(path.read_text())), path.name
    cli_tree = ast.parse((root / "cli.py").read_text())
    cli_names = {n.id for n in ast.walk(cli_tree) if isinstance(n, ast.Name)}
    cli_names |= {n.attr for n in ast.walk(cli_tree) if isinstance(n, ast.Attribute)}
    cli_names |= {a.name for n in ast.walk(cli_tree) if isinstance(n, ast.ImportFrom)
                  for a in n.names}
    assert not ROW_CLASSES & cli_names
    # the row is the only way into S: the law keeps no forwarders to it
    for attr in ("sum_pdf", "sum_pdf_at_zero", "sum_mixture", "sum_pdf_derivative"):
        assert not hasattr(MixingDistribution, attr), attr


def _self_reads(node, names):
    """The nodes self.<name> under node, for the names given."""
    return [n for n in ast.walk(node) if isinstance(n, ast.Attribute) and n.attr in names
            and isinstance(n.value, ast.Name) and n.value.id == "self"]


def test_kernels_run_on_the_unit_law():
    # every law with a scale is c times its unit law, and the base class applies c once
    # (MixingDistribution.log_abs_laplace_derivative, _unit, the rows): the gamma, Gleser
    # and Levy kernels read no scale parameter, and the inverse Gaussian one reads lam
    # and mu only in their ratio lam/mu and its log
    path = Path(__file__).resolve().parents[1] / "src" / "riskmix" / "mixing.py"
    classes = {node.name: node for node in ast.parse(path.read_text()).body
               if isinstance(node, ast.ClassDef)}

    def kernel(name):
        return next(f for f in classes[name].body
                    if isinstance(f, ast.FunctionDef) and f.name == "_log_kernel")

    for name in ("GammaMixing", "GleserGammaMixing", "LevyMixing"):
        assert not _self_reads(kernel(name), {"beta", "lam", "mu"}), name
    ig = kernel("InverseGaussianMixing")
    ratios = [n for n in ast.walk(ig) if isinstance(n, ast.BinOp)
              and isinstance(n.op, (ast.Div, ast.Sub)) and len(_self_reads(n, {"lam"})) == 1
              and len(_self_reads(n, {"mu"})) == 1]
    in_ratios = {id(n) for r in ratios for n in _self_reads(r, {"lam", "mu"})}
    reads = _self_reads(ig, {"lam", "mu"})
    assert reads and {id(n) for n in reads} == in_ratios
    # the scale lives on the law, not on the MixtureRow, whose sums every scale shares
    assert "rate" not in {f.name for f in dataclasses.fields(MixtureRow)}


def test_the_row_is_the_mixture():
    # one route per law: the linear-space component classes, the rows' mixture(), the
    # laws' _sum_mixture hooks and the gamma and Lindley density limits at 0 are gone,
    # and so are the aggregate functions that read them
    for name in ("GammaPowerComponent", "Beta2Component", "MixtureRepresentation",
                 "mixture_representation", "moment_from_mixture"):
        for module in (riskmix, aggregate, mixing):
            assert not hasattr(module, name), (module.__name__, name)
            assert name not in getattr(module, "__all__", ()), (module.__name__, name)
    for row in (MixtureRow, Beta2Row, KernelRow):
        assert not hasattr(row, "mixture"), row
    assert not hasattr(MixingDistribution, "_sum_mixture")
    for law in (GammaMixing, LindleyMixing):
        assert "_sum_pdf_at_zero" not in vars(law) and "_sum_mixture" not in vars(law)
        assert law._row_class is Beta2Row
