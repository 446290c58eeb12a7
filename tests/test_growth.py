"""Growth-model prediction, fitting and ranking."""

import math

import numpy as np
import pytest

from larvaekit import growth
from larvaekit.chart import growth_chart_svg
from larvaekit.errors import (
    EmptyDataset,
    InsufficientData,
    MalformedLine,
    MissingColumn,
    NonFiniteResult,
    OutOfRange,
    ZeroVariance,
)
from larvaekit.growth import (
    PARAM_NAMES,
    GrowthModelKind,
    GrowthObservation,
    _damped_least_squares,
    bundled_stage_means,
    fit,
    load_observations_csv,
    parse_model_kind,
    predict,
    rank_models,
)

from oracles import jacobian, r_squared

K = GrowthModelKind

# Parameters of the curves quoted in our rearing write-up.
VBGM_CURVE = (27.217, 0.0156, -3.229)
GOMPERTZ_CURVE = (9.238, 1.933, 0.122, -0.00004)
LINEAR_CURVE = (0.352, 1.478)
POWER_CURVE = (1.191, 0.638)
EXP_CURVE = (1.528, 0.095)


@pytest.fixture(scope="session")
def means():
    return bundled_stage_means()


def obs(ages, lengths):
    return [GrowthObservation(float(t), float(v)) for t, v in zip(ages, lengths)]


class TestGrowthObservation:
    def test_negative_age(self):
        with pytest.raises(OutOfRange):
            GrowthObservation(-1.0, 2.0)

    def test_length_bounds(self):
        with pytest.raises(OutOfRange):
            GrowthObservation(1.0, 0.0)
        with pytest.raises(OutOfRange):
            GrowthObservation(1.0, 50.0)


class TestParseModelKind:
    def test_case_insensitive(self):
        assert parse_model_kind("Gompertz") is K.GOMPERTZ
        assert parse_model_kind(" vbgm ") is K.VBGM

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="exponential"):
            parse_model_kind("logistic")


class TestPredict:
    def test_gompertz_hatch_length(self):
        assert predict(K.GOMPERTZ, GOMPERTZ_CURVE, 0.0) == pytest.approx(1.337, abs=5e-4)

    def test_vbgm_at_day_18(self):
        assert predict(K.VBGM, VBGM_CURVE, 18.0) == pytest.approx(7.67, abs=0.01)

    def test_power_is_zero_at_hatch(self):
        for params in ((1.2, 0.5), (0.3, 2.0), (5.0, 0.01)):
            assert predict(K.POWER, params, 0.0) == 0.0

    def test_array_input(self):
        values = predict(K.LINEAR, (0.5, 1.0), np.array([0.0, 2.0, 4.0]))
        assert np.allclose(values, [1.0, 2.0, 3.0])

    def test_scalar_returns_float(self):
        out = predict(K.EXPONENTIAL, (1.5, 0.1), 3)
        assert isinstance(out, float)
        assert out == pytest.approx(1.5 * math.exp(0.3))

    def test_wrong_parameter_count(self):
        with pytest.raises(ValueError):
            predict(K.VBGM, (1.0, 2.0), 1.0)

    def test_negative_age_rejected(self):
        with pytest.raises(OutOfRange):
            predict(K.LINEAR, (1.0, 0.5), -1.0)

    def test_overflow_reported(self):
        with pytest.raises(NonFiniteResult):
            predict(K.EXPONENTIAL, (1.5, 500.0), 10.0)


class TestFitOnStageMeans:
    def test_linear_closed_form(self, means):
        result = fit(K.LINEAR, means)
        slope, intercept = result.params
        assert slope == pytest.approx(0.352, abs=1e-3)
        assert intercept == pytest.approx(1.478, abs=0.01)
        assert result.r_squared == pytest.approx(0.969, abs=3e-3)
        # frozen to the digits this solver actually produces
        assert slope == pytest.approx(0.352002, abs=5e-6)
        assert intercept == pytest.approx(1.479074, abs=5e-6)
        assert result.r_squared == pytest.approx(0.969188, abs=5e-6)
        assert result.converged and result.iterations == 0

    def test_gompertz(self, means):
        result = fit(K.GOMPERTZ, means)
        assert result.r_squared == pytest.approx(0.983, abs=0.01)
        assert result.r_squared == pytest.approx(0.982622, abs=5e-5)
        assert result.converged

    def test_vbgm(self, means):
        result = fit(K.VBGM, means)
        assert result.r_squared == pytest.approx(0.973, abs=0.01)
        assert result.r_squared == pytest.approx(0.973824, abs=5e-5)
        assert result.converged

    def test_power_and_exponential(self, means):
        assert fit(K.POWER, means).r_squared == pytest.approx(0.905068, abs=5e-5)
        assert fit(K.EXPONENTIAL, means).r_squared == pytest.approx(0.899833, abs=5e-5)

    @pytest.mark.parametrize("kind", [K.VBGM, K.GOMPERTZ, K.POWER, K.EXPONENTIAL])
    def test_multi_start_iterations_count_every_start(self, means, kind):
        # The first start is the single-start fit; each jittered restart
        # takes at least one step.
        single = fit(kind, means).iterations
        assert fit(kind, means, multi_start=True).iterations >= single + growth.MULTI_STARTS

    def test_r_squared_field_consistent_with_sse(self, means):
        lengths = np.array([o.length_mm for o in means])
        sst = float(((lengths - lengths.mean()) ** 2).sum())
        for kind in K:
            result = fit(kind, means)
            assert result.r_squared == pytest.approx(1 - result.sse / sst, abs=1e-12)


class TestFitSynthetic:
    CASES = [
        (K.VBGM, (10.0, 0.09, -1.2), np.arange(0, 19, 2.0)),
        (K.GOMPERTZ, (9.0, 1.8, 0.15, 0.5), np.arange(0, 19, 2.0)),
        (K.LINEAR, (0.35, 1.5), np.arange(0, 19, 2.0)),
        (K.POWER, (1.2, 0.64), np.arange(1, 19, 2.0)),
        (K.EXPONENTIAL, (1.5, 0.09), np.arange(0, 19, 2.0)),
    ]

    @pytest.mark.parametrize("kind,true_params,ages", CASES, ids=[c[0].value for c in CASES])
    def test_zero_noise_recovery(self, kind, true_params, ages):
        lengths = predict(kind, true_params, ages)
        data = obs(ages, lengths)
        result = fit(kind, data)
        recovered = predict(kind, result.params, ages)
        assert np.max(np.abs(recovered - lengths)) < 1e-6
        assert result.r_squared == pytest.approx(1.0, abs=1e-9)

    def test_insufficient_points(self):
        data = obs([0, 1], [1.5, 1.8])
        with pytest.raises(InsufficientData):
            fit(K.LINEAR, data)

    def test_gompertz_needs_five_points(self):
        data = obs([0, 1, 2, 3], [1.5, 1.8, 2.0, 2.4])
        with pytest.raises(InsufficientData):
            fit(K.GOMPERTZ, data)

    def test_needs_two_distinct_ages(self):
        data = obs([3, 3, 3], [1.5, 1.8, 2.0])
        with pytest.raises(InsufficientData):
            fit(K.LINEAR, data)

    def test_power_needs_two_distinct_positive_ages(self):
        data = obs([0, 0, 5], [1.5, 1.8, 2.0])
        with pytest.raises(InsufficientData, match="two distinct positive ages"):
            fit(K.POWER, data)

    def test_chart_needs_observations(self):
        with pytest.raises(EmptyDataset, match="^nothing to plot$"):
            growth_chart_svg([], [])

    def test_constant_lengths(self):
        data = obs([0, 1, 2, 3], [2.0, 2.0, 2.0, 2.0])
        with pytest.raises(ZeroVariance):
            fit(K.LINEAR, data)

    def test_linear_slope_ignores_an_age_offset(self):
        # uncentered sums cancel to "all ages identical" for ages this far from 0
        ages = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        lengths = [1.0, 1.3, 1.5, 1.8, 2.05]
        far = fit(K.LINEAR, obs(ages + 1e8, lengths))
        near = fit(K.LINEAR, obs(ages, lengths))
        assert far.params[0] == pytest.approx(near.params[0], rel=1e-9)

    def test_multi_start_deterministic_and_no_worse(self, means):
        base = fit(K.GOMPERTZ, means)
        once = fit(K.GOMPERTZ, means, multi_start=True, seed=3)
        again = fit(K.GOMPERTZ, means, multi_start=True, seed=3)
        assert once.params == again.params
        assert once.sse <= base.sse + 1e-12

    def test_gompertz_is_identifiable(self, means):
        # k2 and tr enter only as k2*exp(a*tr); with tr held at 0 the best
        # curve has one set of parameters, whichever start reaches it
        single = fit(K.GOMPERTZ, means)
        multi = fit(K.GOMPERTZ, means, multi_start=True)
        assert single.params[3] == multi.params[3] == 0.0
        np.testing.assert_allclose(single.params, multi.params, rtol=1e-6, atol=0.0)


class TestRSquared:
    def test_perfect_predictions(self, means):
        assert r_squared(means, [o.length_mm for o in means]) == 1.0

    def test_mean_predictor_scores_zero(self, means):
        mean_len = sum(o.length_mm for o in means) / len(means)
        assert r_squared(means, [mean_len] * len(means)) == pytest.approx(0.0, abs=1e-12)

    def test_can_be_negative(self, means):
        assert r_squared(means, [20.0] * len(means)) < 0

    def test_recorded_curves(self, means):
        ages = np.array([o.age_days for o in means])

        def score(kind, params):
            return r_squared(means, predict(kind, params, ages))

        assert score(K.VBGM, VBGM_CURVE) == pytest.approx(0.973, abs=0.015)
        assert score(K.GOMPERTZ, GOMPERTZ_CURVE) == pytest.approx(0.983, abs=0.015)
        assert score(K.LINEAR, LINEAR_CURVE) == pytest.approx(0.969, abs=0.015)
        # Earlier write-ups quoted R² 0.936 (power) and 0.867 (exponential),
        # but neither number is reproducible from the quoted curves or from
        # a fresh least-squares fit; these pin what the math actually gives.
        # The ranking is unaffected: both families trail the other three.
        assert score(K.POWER, POWER_CURVE) == pytest.approx(0.905068, abs=5e-5)
        assert score(K.EXPONENTIAL, EXP_CURVE) == pytest.approx(0.774950, abs=5e-5)

    def test_zero_variance(self):
        data = obs([0, 1, 2], [2.0, 2.0, 2.0])
        with pytest.raises(ZeroVariance):
            r_squared(data, [2.0, 2.0, 2.0])

    def test_length_mismatch(self, means):
        with pytest.raises(ValueError):
            r_squared(means, [1.0])

    def test_too_few_observations(self):
        with pytest.raises(InsufficientData):
            r_squared(obs([1], [2.0]), [2.0])


class TestRankModels:
    def test_stage_means_order(self, means):
        ranked = rank_models(means)
        assert [rm.kind for rm in ranked] == [
            K.GOMPERTZ,
            K.VBGM,
            K.LINEAR,
            K.POWER,
            K.EXPONENTIAL,
        ]
        assert all(rm.error is None and rm.result is not None for rm in ranked)
        scores = [rm.result.r_squared for rm in ranked]
        assert scores == sorted(scores, reverse=True)

    def test_exact_linear_data_ranks_linear_first(self):
        ages = np.arange(0, 9, 1.0)
        data = obs(ages, 0.35 * ages + 1.5)
        ranked = rank_models(data)
        assert ranked[0].kind is K.LINEAR
        assert ranked[0].result.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_tie_breaks_by_family_order(self):
        # lengths proportional to age fit both the linear (b=0) and the
        # power (b=1) family exactly; the tie resolves by declaration order
        ages = np.arange(1, 9, 1.0)
        data = obs(ages, 0.4 * ages)
        ranked = rank_models(data)
        assert ranked[0].kind is K.LINEAR
        assert ranked[1].kind is K.POWER
        assert ranked[0].result.r_squared == pytest.approx(1.0, abs=1e-12)
        assert ranked[1].result.r_squared == pytest.approx(1.0, abs=1e-9)

    def test_failed_family_ranked_last_with_error(self):
        ages = np.array([1.0, 2.0, 3.0, 4.0])
        data = obs(ages, 0.35 * ages + 1.5)
        ranked = rank_models(data)
        assert ranked[-1].kind is K.GOMPERTZ
        assert ranked[-1].result is None
        assert isinstance(ranked[-1].error, InsufficientData)
        assert all(rm.result is not None for rm in ranked[:-1])

    def test_overflowing_start_is_a_failed_family(self):
        # log-space regressions at ages near 1e6 put exp() of the intercept
        # far beyond float range for power and exponential
        data = obs([1e6, 1e6 + 0.25, 1e6 + 0.5, 1e6 + 1], [20, 10, 5, 1])
        ranked = rank_models(data)
        assert [rm.kind for rm in ranked] == [
            K.LINEAR, K.VBGM, K.GOMPERTZ, K.POWER, K.EXPONENTIAL
        ]
        assert all(rm.result is not None for rm in ranked[:2])
        assert isinstance(ranked[2].error, InsufficientData)
        for rm in ranked[3:]:
            assert rm.result is None
            assert isinstance(rm.error, NonFiniteResult)
            assert "overflows" in str(rm.error)

    def test_non_domain_error_propagates(self, means, monkeypatch):
        def broken_fit(*args, **kwargs):
            raise TypeError("a programming bug")

        monkeypatch.setattr(growth, "fit", broken_fit)
        with pytest.raises(TypeError, match="a programming bug"):
            rank_models(means, kinds=(K.LINEAR,))

    def test_constant_lengths_raise(self):
        data = obs([0, 1, 2, 3, 4, 5], [2.0] * 6)
        with pytest.raises(ZeroVariance):
            rank_models(data)

    def test_subset_of_families(self, means):
        ranked = rank_models(means, kinds=(K.LINEAR, K.POWER))
        assert [rm.kind for rm in ranked] == [K.LINEAR, K.POWER]

    def test_order_invariant_under_length_rescale(self, means):
        base = [rm.kind for rm in rank_models(means)]
        for c in (0.5, 2.0, 3.0):
            scaled = [
                GrowthObservation(o.age_days, o.length_mm * c) for o in means
            ]
            assert [rm.kind for rm in rank_models(scaled)] == base

    def test_r_squared_invariant_under_time_shift(self, means):
        for kind in (K.VBGM, K.GOMPERTZ, K.LINEAR):
            base = fit(kind, means).r_squared
            shifted = [
                GrowthObservation(o.age_days + 2.5, o.length_mm) for o in means
            ]
            assert fit(kind, shifted).r_squared == pytest.approx(base, abs=1e-6)


class TestSolverProperties:
    def test_jacobian_matches_central_differences(self):
        rng = np.random.default_rng(61)
        ages = np.linspace(0.0, 18.0, 12)
        ranges = {
            K.VBGM: [(5, 30), (0.01, 0.5), (-5, 5)],
            K.GOMPERTZ: [(5, 30), (0.5, 3), (0.05, 0.5), (-3, 3)],
            K.LINEAR: [(-1, 1), (0, 5)],
            K.POWER: [(0.5, 3), (0.2, 1.5)],
            K.EXPONENTIAL: [(0.5, 3), (0.01, 0.2)],
        }
        for kind, bounds in ranges.items():
            for _ in range(25):
                params = np.array([rng.uniform(lo, hi) for lo, hi in bounds])
                J = jacobian(kind, params, ages)
                for j in range(params.size):
                    h = 1e-6 * max(1.0, abs(params[j]))
                    hi_p, lo_p = params.copy(), params.copy()
                    hi_p[j] += h
                    lo_p[j] -= h
                    central = (
                        np.asarray(predict(kind, hi_p, ages))
                        - np.asarray(predict(kind, lo_p, ages))
                    ) / (2 * h)
                    denom = np.maximum(1.0, np.abs(central))
                    assert np.max(np.abs(J[:, j] - central) / denom) < 1e-4

    def test_accepted_steps_never_increase_sse(self, means):
        rng = np.random.default_rng(62)
        t = np.array([o.age_days for o in means])
        lengths = np.array([o.length_mm for o in means])
        for kind, p0 in [
            (K.VBGM, [8.0, 0.1, 0.0]),
            (K.GOMPERTZ, [8.0, 1.6, 0.1, 0.0]),
            (K.EXPONENTIAL, [2.0, 0.08]),
        ]:
            for _ in range(10):
                start = np.asarray(p0) * rng.uniform(0.7, 1.4, size=len(p0))
                *_, history = _damped_least_squares(kind, start, t, lengths)
                assert all(b <= a for a, b in zip(history, history[1:]))

    def test_sigmoid_fits_grow_monotonically(self, means):
        grid = np.linspace(0.0, 40.0, 201)
        for kind in (K.VBGM, K.GOMPERTZ):
            result = fit(kind, means)
            values = predict(kind, result.params, grid)
            assert np.all(np.diff(values) >= -1e-9)


class TestObservationCsv:
    def test_happy_path(self):
        text = "age_days,length_mm,stage\n0,1.65,1\n1,1.81,2\n"
        data = load_observations_csv(text)
        assert [(o.age_days, o.length_mm) for o in data] == [(0.0, 1.65), (1.0, 1.81)]

    def test_stage_column_optional(self):
        assert len(load_observations_csv("age_days,length_mm\n3,1.93\n")) == 1

    def test_stage_column_is_ignored(self):
        with_stage = load_observations_csv("age_days,length_mm,stage\n0,1.65,x\n1,1.81,\n")
        without = load_observations_csv("age_days,length_mm\n0,1.65\n1,1.81\n")
        assert with_stage == without

    def test_missing_column(self):
        with pytest.raises(MissingColumn):
            load_observations_csv("age,length\n0,1.65\n")

    def test_non_numeric_row(self):
        with pytest.raises(MalformedLine) as err:
            load_observations_csv("age_days,length_mm\n0,1.65\nx,2\n")
        assert err.value.line_no == 3

    def test_oversized_field_is_a_malformed_line(self):
        with pytest.raises(MalformedLine) as err:
            load_observations_csv("age_days,length_mm\n0,1.65\n1," + "9" * 131073 + "\n")
        assert str(err.value) == "line 3: field larger than field limit (131072)"

    def test_bundled_means(self, means):
        assert len(means) == 11
        assert [o.age_days for o in means] == [0, 1, 3, 4, 5, 6, 8, 9, 12, 14, 18]
        assert means[0].length_mm == 1.65
        assert means[-1].length_mm == 7.23
