"""The grid paths of pdf, survival and cdf: where every x is positive and finite the
row's values are the output, with no mask around them; one block of points is the
row's own result; wide partial sums add their rows one at a time; a row's incomplete
beta sum forms its step ratios once.  Each path is compared bit for bit with the path
it bypasses, in one process, so that no platform pin is needed; and the edge inputs
(nan, empty, 0-d, 2-D, zeros only, subnormal and huge points, read-only arrays) keep
their results."""

import numpy as np
import pytest

from riskmix import mixing, specfun
from riskmix.aggregate import (
    cdf,
    gamma_claims_model,
    inverse_gaussian_model,
    lindley_model,
    pareto_model,
    pdf,
    pdf_generic,
    survival,
    weibull_half_model,
    weibull_model,
)

from reference_formulas import log_betainc_sum_per_step

# the six laws of the command line, at parameters inside the benchmark's ranges
CLI_LAWS = {
    "pareto": lambda n: pareto_model(3.2, 1.0, n),
    "gamma": lambda n: gamma_claims_model(0.55, 1.05, n),
    "weibull-half": lambda n: weibull_half_model(1.02, n),
    "weibull": lambda n: weibull_model(0.55, n),
    "invgauss": lambda n: inverse_gaussian_model(1.0, 0.95, n),
    "lindley": lambda n: lindley_model(1.03, n),
}
CURVES = np.geomspace(1e-2, 1e3, 1000)  # the grid of a curve
FUNCTIONS = {"pdf": pdf, "survival": survival, "cdf": cdf}


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestFastPathsEqualTheirBypass:
    @pytest.mark.parametrize("law", CLI_LAWS)
    @pytest.mark.parametrize("n", [2, 32])
    @pytest.mark.parametrize("fn", FUNCTIONS)
    def test_mask_free_grid_is_the_masked_one(self, law, n, fn):
        # the curve's grid takes no mask; with a 0 and an inf appended every point goes
        # through the masks, the gather and the scatter
        m, f = CLI_LAWS[law](n), FUNCTIONS[fn]
        fast = f(m, CURVES)
        masked = f(m, np.concatenate((CURVES, [0.0, np.inf])))
        assert same_bits(fast, masked[:-2])
        # and a 2-D grid holds the same values
        assert same_bits(f(m, CURVES.reshape(25, 40)), fast.reshape(25, 40))

    @pytest.mark.parametrize("law", CLI_LAWS)
    @pytest.mark.parametrize("fn", FUNCTIONS)
    def test_one_block_is_several(self, law, fn, monkeypatch):
        # at n = 10 the 1000 points run in blocks of 40, or of 500 on a second-kind beta
        # row, whose incomplete beta takes its route by the values of a call
        # (specfun._sum_pays): 500 points keep the route of 1000
        m, f = CLI_LAWS[law](10), FUNCTIONS[fn]
        one = f(m, CURVES)
        row = m.mixing.sum_row(10)
        block = 500 if row.route == "beta2" else 40
        monkeypatch.setattr(mixing, "_KERNEL_CELLS", block * row._width)
        assert same_bits(f(m, CURVES), one)

    @pytest.mark.parametrize("orders", [2, 9, 33])
    @pytest.mark.parametrize("points", [1, mixing._ROW_ADDS - 1, mixing._ROW_ADDS, 1000])
    def test_row_adds_are_the_cumsum(self, orders, points):
        rng = np.random.default_rng(orders * points)
        terms = rng.standard_normal((orders, points)) * 10.0 ** rng.integers(-3, 4, points)
        want = np.zeros((orders + 1, points))
        np.cumsum(terms, axis=0, out=want[1:])
        assert same_bits(mixing._partial_sums(terms, np.arange(orders + 1)), want)
        pick = np.array([0, orders // 2, orders])
        assert same_bits(mixing._partial_sums(terms, pick), want[pick])
        # points of two axes (the Gleser climb's blocks are flat; a grid need not be)
        if points % 2 == 0:
            wide = terms.reshape(orders, 2, points // 2)
            assert same_bits(mixing._partial_sums(wide, np.arange(orders + 1)),
                             want.reshape(orders + 1, 2, points // 2))

    @pytest.mark.parametrize("b", [2, 3, 12, 32, 200])
    @pytest.mark.parametrize("extended", [False, True])
    def test_ratio_table_is_the_per_step_form(self, b, extended):
        log_t = -np.log1p(np.geomspace(1e-3, 1e4, 300))
        # a row's shape column (one or two components) and a b per component
        for a, bb in ((np.array([[3.25]]), np.asarray(float(b))),
                      (np.array([[1.0], [2.0]]), np.asarray(float(b))),
                      (np.array([[0.7], [5.5]]), np.array([[float(b)], [b + 1.0]]))):
            got = specfun._log_betainc_sum(a, bb, log_t, extended)
            assert same_bits(got, log_betainc_sum_per_step(a, bb, log_t, extended))
        # a per-point a (the long-double route's) keeps its per-step form
        a = np.linspace(0.5, 40.0, log_t.size)
        got = specfun._log_betainc_sum(a, np.asarray(float(b)), log_t, extended)
        assert same_bits(got, log_betainc_sum_per_step(a, np.asarray(float(b)), log_t,
                                                       extended))

    @pytest.mark.parametrize("c", [1.0, 0.37, 1e300, 1e-300])
    def test_from_unit_range_test_is_the_masks(self, c):
        # normal values take one min/max scan; one subnormal or infinite value sends the
        # whole array through the masks, whose values agree where no value is off
        law = mixing.GammaMixing(3.0, 1.0 / c)
        v = np.geomspace(1e-200, 1e200, 500)
        for r in (-1, 1, 2):
            fast = law.from_unit(v, np.log(v), r)
            for off in (5e-324, np.inf):
                w = np.append(v, off)
                assert same_bits(law.from_unit(w, np.log(w), r)[:-1], fast)


class TestNan:
    @pytest.mark.parametrize("fn", [pdf, survival, cdf, pdf_generic])
    def test_nan_is_refused(self, fn):
        # (it gave S = 1, F = 0 and f = 0, and pdf_generic a silent nan)
        m = pareto_model(3.2, 1.0, 2)
        with pytest.raises(ValueError):
            fn(m, np.nan)
        with pytest.raises(ValueError):
            fn(m, np.array([1.0, np.nan, 2.0]))


class TestEdgeInputs:
    @pytest.mark.parametrize("law", CLI_LAWS)
    @pytest.mark.parametrize("fn", FUNCTIONS)
    def test_shapes_dtypes_and_fresh_results(self, law, fn):
        m, f = CLI_LAWS[law](2), FUNCTIONS[fn]
        grid = CURVES[::50].copy()
        grid.flags.writeable = False  # a read-only grid is read, never written
        for x, shape in ((np.array([]), (0,)), (np.zeros((2, 0)), (2, 0)),
                         (np.array(3.0), ()), (grid, (20,)),
                         (grid.reshape(4, 5), (4, 5)), (np.zeros(4), (4,)),
                         (np.array([5e-324, 1e-300, 1e300, 1.7e308]), (4,))):
            out = f(m, x)
            assert out.shape == shape and out.dtype == np.float64
            assert out.flags.writeable and not np.shares_memory(out, x)
            if out.size:
                again = f(m, x)
                out[...] = -7.0  # a fresh array: writing it moves no later result
                assert same_bits(f(m, x), again)
        assert isinstance(f(m, 0.0), float) and isinstance(f(m, 2.0), float)

    def test_zeros_only_call_no_row(self):
        # a grid of zeros leaves no point for the row: no block runs
        m = pareto_model(3.2, 1.0, 1)
        assert pdf(m, 0.0) == m.mixing.from_unit(*m.mixing.sum_row(1).pdf_at_zero(), -1)
        assert same_bits(survival(m, np.zeros(3)), np.ones(3))
        assert same_bits(pdf(m, np.zeros((2, 2))), np.full((2, 2), pdf(m, 0.0)))

    def test_no_point_calls_no_fn(self):
        def fn(*arrays):
            raise AssertionError("called on no point")

        for rows in ((), (2,)):
            out = mixing._by_blocks(3, fn, np.zeros((0, 4)), np.zeros((0, 4)), rows=rows)
            assert out.shape == rows + (0, 4) and out.flags.writeable

    def test_one_block_is_cast_and_stacked(self):
        # fn's long-double result is cast to the stated dtype, a pair of rows stacked
        u = np.linspace(1.0, 2.0, 6).reshape(2, 3)
        out = mixing._by_blocks(2, lambda v: v.astype(np.longdouble) * 2, u)
        assert out.dtype == np.float64 and same_bits(out, u * 2)
        pair = mixing._by_blocks(2, lambda v: (v, -v), u, rows=(2,))
        assert pair.shape == (2, 2, 3) and same_bits(pair[1], -u) and pair.flags.writeable
