import math
import tracemalloc

import numpy as np
import pytest

import mp_reference
from riskmix.aggregate import (
    cdf,
    gamma_claims_model,
    inverse_gaussian_model,
    lindley_model,
    pareto_model,
    sibuya_model,
    weibull_model,
)
from riskmix.errors import UnsupportedModelError
from riskmix.mixing import (
    BetaSecondKindMixing,
    GammaMixing,
    GleserGammaMixing,
    InverseGaussianMixing,
    LevyMixing,
    LindleyMixing,
    PositiveStableMixing,
)
from riskmix.simulate import (
    SimulationPlan,
    empirical_ks,
    load_samples,
    quadrature_mixture_pdf,
    sample_sums,
    sample_vector,
    save_samples,
)


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        plan = SimulationPlan(pareto_model(3.0, 1.0, 2), 5000, seed=12, streams=3)
        assert np.array_equal(sample_vector(plan), sample_vector(plan))

    def test_thread_count_invariance(self):
        plan = SimulationPlan(weibull_model(0.5, 3), 20000, seed=7, streams=8)
        serial = sample_vector(plan, threads=1)
        for threads in (2, 4, 8):
            assert np.array_equal(serial, sample_vector(plan, threads=threads))

    def test_different_seeds_differ(self):
        m = pareto_model(3.0, 1.0, 2)
        a = sample_vector(SimulationPlan(m, 100, seed=1))
        b = sample_vector(SimulationPlan(m, 100, seed=2))
        assert not np.array_equal(a, b)

    def test_uneven_stream_partition_covers_all_rows(self):
        plan = SimulationPlan(pareto_model(3.0, 1.0, 2), 101, seed=5, streams=7)
        x = sample_vector(plan)
        assert x.shape == (101, 2)
        assert np.all(x > 0)


class TestStatisticalProperties:
    def test_pareto_column_means(self):
        plan = SimulationPlan(pareto_model(3.0, 1.0, 2), 1_000_000, seed=42)
        x = sample_vector(plan)
        for col in range(2):
            se = x[:, col].std(ddof=1) / math.sqrt(x.shape[0])
            assert abs(x[:, col].mean() - 0.5) < 3 * se

    def test_pareto_pairwise_correlation(self):
        plan = SimulationPlan(pareto_model(3.0, 1.0, 2), 1_000_000, seed=42)
        x = sample_vector(plan)
        corr = np.corrcoef(x[:, 0], x[:, 1])[0, 1]
        assert corr == pytest.approx(1.0 / 3.0, abs=0.01)

    def test_shared_frailty_within_row(self):
        # conditional on the row's theta, the coordinates stay positively
        # associated; a quick sanity check that rows share one frailty draw
        plan = SimulationPlan(gamma_claims_model(0.5, 1.0, 2), 200_000, seed=3)
        x = sample_vector(plan)
        assert np.corrcoef(x[:, 0], x[:, 1])[0, 1] > 0.05

    def test_exponential_claims_keep_their_stream(self):
        # the shape-1 gamma draw of X = G / Theta is numpy's exponential draw,
        # so exponential-claims samples are those of Y / Theta, Y ~ Exp(1)
        plan = SimulationPlan(pareto_model(3.0, 1.0, 4), 700, seed=9)
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(9).spawn(1)[0]))
        theta = GammaMixing(3.0, 1.0).sample(700, rng)
        want = rng.exponential(1.0, size=(700, 4)) / theta[:, None]
        assert np.array_equal(sample_vector(plan), want)

    @pytest.mark.parametrize("shapes", [(0.5, 0.5, 0.5), (2.7, 2.7), (1.5, 0.7)],
                             ids=["equal-half", "equal-2.7", "unequal"])
    def test_gamma_claims_draw_as_numpy_array_shapes_do(self, shapes):
        # one shared shape takes numpy's scalar-shape gamma path, whose draws
        # are those of the array-shape path bit for bit
        model = sibuya_model(shapes, 2.0, 4.0)
        plan = SimulationPlan(model, 900, seed=21)
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(21).spawn(1)[0]))
        theta = model.mixing.sample(900, rng)
        want = rng.gamma(np.asarray(shapes), 1.0, size=(900, len(shapes))) / theta[:, None]
        assert np.array_equal(sample_vector(plan), want)

    @pytest.mark.parametrize("shapes", [(1.0,) * 3, (0.5, 0.5), (0.5, 1.0, 2.5)],
                             ids=["exponential", "equal-half", "mixed"])
    def test_draws_into_the_block_are_those_of_a_draws_array(self, shapes):
        # the claims are drawn into the output block and divided there by theta: the
        # values of drawing them into an array of their own and dividing that into the
        # block, stream by stream
        model = sibuya_model(shapes, 2.0, 4.0)
        plan = SimulationPlan(model, 1001, seed=23, streams=3)
        want = []
        for seq, rows in zip(np.random.SeedSequence(23).spawn(3), (334, 334, 333)):
            rng = np.random.Generator(np.random.Philox(seq))
            theta = model.mixing.sample(rows, rng)
            if len(set(shapes)) == 1:
                draws = rng.standard_gamma(shapes[0], size=(rows, len(shapes)))
            else:
                draws = rng.gamma(np.asarray(shapes), 1.0, size=(rows, len(shapes)))
            want.append(draws / theta[:, None])
        assert np.array_equal(sample_vector(plan), np.concatenate(want))

    def test_no_second_block_is_held(self):
        # beyond the (samples x n) output, sample_vector holds a stream's frailty draws
        # and what its sampler needs: under 16 bytes a row for gamma frailty at n = 5,
        # where a second array of the claims held 40 bytes a row more
        plan = SimulationPlan(pareto_model(3.0, 1.0, 5), 100_000, seed=5, streams=2)
        sample_vector(plan)
        tracemalloc.start()
        try:
            x = sample_vector(plan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - x.nbytes <= 16 * plan.samples

    def test_sibuya_product_representation(self):
        beta, gam = 2.0, 4.0
        m = sibuya_model((1.5, 0.7), beta, gam)
        x = sample_vector(SimulationPlan(m, 500_000, seed=17))
        for i in (0, 1):
            want = m.shapes[i] * beta / (gam - 1.0)
            se = x[:, i].std(ddof=1) / math.sqrt(x.shape[0])
            assert abs(x[:, i].mean() - want) < 4 * se


class TestSampleSums:
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("n", [1, 2, 5, 7, 8, 13])
    def test_row_sums_of_the_claim_matrix(self, n, threads):
        # summed block by block as drawn, column by column: numpy's sum(axis=1) bit for
        # bit below 8 columns, where its pairwise sum is sequential; within n 2^-52 of
        # it from 8 on, both sums of positive claims
        for model in (pareto_model(3.2, 1.0, n), gamma_claims_model(0.7, 1.3, n)):
            plan = SimulationPlan(model, 5001, seed=19, streams=3)
            got = sample_sums(plan, threads=threads)
            want = sample_vector(plan, threads=threads).sum(axis=1)
            if n < 8:
                assert np.array_equal(got, want)
            else:
                assert np.all(np.abs(got - want) <= n * 2.0 ** -52 * want)


class TestEmpiricalKS:
    def test_self_cdf_is_within_one_over_n(self):
        sums = sample_sums(SimulationPlan(pareto_model(3.0, 1.0, 2), 1000, seed=8))
        sorted_sums = np.sort(sums)

        def ecdf(t):
            return np.searchsorted(sorted_sums, t, side="right") / sorted_sums.size

        assert empirical_ks(sums, ecdf) <= 1.0 / sums.size + 1e-12

    def test_pareto_analytic_cdf(self):
        m = pareto_model(3.0, 1.0, 2)
        sums = sample_sums(SimulationPlan(m, 1_000_000, seed=9))
        assert empirical_ks(sums, lambda t: cdf(m, t)) < 0.005

    @pytest.mark.parametrize("model", [pareto_model(3.2, 1.0, 2), inverse_gaussian_model(1.0, 1.0, 2),
                                       weibull_model(0.55, 3), lindley_model(1.0, 3)],
                             ids=lambda m: m.mixing.kind)
    def test_blocks_give_the_one_call_statistic(self, model):
        # the cdf is called on blocks of the sorted sums (the last one partial): the
        # statistic is the one-call formula's bit for bit, and the cdf's temporaries
        # are those of a block (about 9 MB at once for the 200000 sums)
        sums = sample_sums(SimulationPlan(model, 200_000, seed=3))
        s = np.sort(sums)
        f = cdf(model, s)
        i = np.arange(s.size)
        want = float(max(np.max(f - i / s.size), np.max((i + 1) / s.size - f)))
        tracemalloc.start()
        try:
            got = empirical_ks(sums, lambda t: cdf(model, t))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak - sums.nbytes <= 3_000_000

    def test_nan_from_the_cdf_gives_nan(self):
        sums = np.linspace(0.1, 5.0, 40_000)
        assert math.isnan(empirical_ks(sums, lambda t: np.where(t > 4.0, np.nan, 0.5)))

    def test_detects_wrong_cdf(self):
        m = pareto_model(3.0, 1.0, 2)
        sums = sample_sums(SimulationPlan(m, 200_000, seed=10))
        shifted = lambda t: cdf(m, np.maximum(t - 0.1, 0.0))
        assert empirical_ks(sums, shifted) > 0.02


class TestQuadratureMixturePdf:
    def test_pinned_values(self):
        assert quadrature_mixture_pdf(GammaMixing(3.0, 1.0), 2, 1.0) == \
            pytest.approx(0.375, rel=1e-10)
        assert quadrature_mixture_pdf(GleserGammaMixing(0.5, 1.0), 2, 1.0) == \
            pytest.approx(math.exp(-1.0) * 1.5 / math.sqrt(math.pi), rel=1e-9)
        assert quadrature_mixture_pdf(lindley_model(1.0, 2).mixing, 2, 1.0) == \
            pytest.approx(0.3125, rel=1e-10)

    def test_stable_kind_unsupported(self):
        with pytest.raises(UnsupportedModelError):
            quadrature_mixture_pdf(PositiveStableMixing(0.5), 2, 1.0)
        with pytest.raises(UnsupportedModelError):
            GleserGammaMixing(1.0, 2.0).quadrature_transform(2, 1.0)

    @pytest.mark.parametrize("law, k, s", [
        *[(law, k, s) for law in (GammaMixing(2.5, 1.3), GammaMixing(0.6, 2.0), LevyMixing(1.7),
                                  InverseGaussianMixing(2.0, 0.7), LindleyMixing(1.3),
                                  GleserGammaMixing(0.4, 1.5), BetaSecondKindMixing(2.0, 3.5))
          for k, s in ((0, 0.5), (2, 1.0), (3.2, 4.0), (5, 0.1))],
        # the Gleser density's d^-alpha end, where QUADPACK was 0.78 and 1e-7 off
        *[(law, k, 20.0) for law in (GleserGammaMixing(0.95, 2.0), GleserGammaMixing(0.55, 1.3))
          for k in (0, 2)],
    ], ids=repr)
    def test_transform_matches_mpmath_at_the_peak(self, law, k, s):
        # the double-exponential rule against a 30-digit mpmath quadrature whose
        # breakpoints sit at the integrand's peak
        want = mp_reference.peak_transform(law, k, s, dps=30)
        assert law.quadrature_transform(k, s) == pytest.approx(want, rel=1e-13)


class TestSampleFiles:
    def test_binary_round_trip(self, tmp_path):
        plan = SimulationPlan(pareto_model(3.0, 1.0, 3), 500, seed=77)
        x = sample_vector(plan)
        path = tmp_path / "samples.bin"
        save_samples(path, x, plan.seed)
        back, seed = load_samples(path)
        assert seed == 77
        assert np.array_equal(back, x)

    def test_magic_check(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 40)
        with pytest.raises(ValueError):
            load_samples(path)


class TestPlanValidation:
    def test_bad_plans(self):
        m = pareto_model(3.0, 1.0, 2)
        with pytest.raises(ValueError):
            SimulationPlan(m, 0, seed=1)
        with pytest.raises(ValueError):
            SimulationPlan(m, 10, seed=1, streams=0)
        with pytest.raises(TypeError):
            SimulationPlan("not a model", 10, seed=1)
