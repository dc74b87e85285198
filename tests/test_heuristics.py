"""Tests for the input and output heuristics (Section 4.2)."""

import random

import pytest

from repro.core.heuristics import (
    INPUT_HEURISTICS,
    OUTPUT_HEURISTICS,
    HeuristicContext,
    Side,
    make_input_heuristic,
    make_output_heuristic,
)


def ctx(**overrides):
    defaults = dict(rng=random.Random(0))
    defaults.update(overrides)
    return HeuristicContext(**defaults)


class TestSide:
    def test_other(self):
        assert Side.TOP.other is Side.BOTTOM
        assert Side.BOTTOM.other is Side.TOP


class TestRegistry:
    def test_input_heuristics_registered(self):
        # The paper's six plus the Section 7.1 adaptive extension.
        assert set(INPUT_HEURISTICS) == {
            "random",
            "alternate",
            "mean",
            "median",
            "useful",
            "balancing",
            "adaptive",
        }

    def test_five_output_heuristics(self):
        assert set(OUTPUT_HEURISTICS) == {
            "random",
            "alternate",
            "useful",
            "balancing",
            "min_distance",
        }

    def test_unknown_names(self):
        with pytest.raises(ValueError, match="unknown input"):
            make_input_heuristic("zipf")
        with pytest.raises(ValueError, match="unknown output"):
            make_output_heuristic("zipf")

    def test_fresh_instances(self):
        assert make_input_heuristic("alternate") is not make_input_heuristic(
            "alternate"
        )


class TestInputHeuristics:
    def test_alternate_flip_flops(self):
        h = make_input_heuristic("alternate")
        sides = [h.choose(0, ctx()) for _ in range(4)]
        assert sides == [Side.BOTTOM, Side.TOP, Side.BOTTOM, Side.TOP]

    def test_mean_routes_by_buffer_mean(self):
        h = make_input_heuristic("mean")
        # Paper example: 40 vs mean 45 -> BottomHeap; 50 vs 44.5 -> Top.
        assert h.choose(40, ctx(input_mean=45.0)) is Side.BOTTOM
        assert h.choose(50, ctx(input_mean=44.5)) is Side.TOP

    def test_mean_equal_goes_bottom(self):
        # "not greater than the mean ... pushed into the BottomHeap".
        h = make_input_heuristic("mean")
        assert h.choose(45, ctx(input_mean=45.0)) is Side.BOTTOM

    def test_median_routes_by_buffer_median(self):
        h = make_input_heuristic("median")
        assert h.choose(10, ctx(input_median=20)) is Side.BOTTOM
        assert h.choose(30, ctx(input_median=20)) is Side.TOP

    def test_useful_prefers_productive_heap(self):
        h = make_input_heuristic("useful")
        productive_top = ctx(
            top_size=10, bottom_size=10, top_outputs=50, bottom_outputs=5
        )
        assert h.choose(0, productive_top) is Side.TOP

    def test_balancing_prefers_smaller_heap(self):
        h = make_input_heuristic("balancing")
        assert h.choose(0, ctx(top_size=2, bottom_size=9)) is Side.TOP
        assert h.choose(0, ctx(top_size=9, bottom_size=2)) is Side.BOTTOM

    def test_balancing_wants_rebalance(self):
        assert make_input_heuristic("balancing").wants_rebalance
        assert not make_input_heuristic("mean").wants_rebalance

    def test_random_uses_rng(self):
        h = make_input_heuristic("random")
        rng = random.Random(1)
        sides = {h.choose(0, ctx(rng=rng)) for _ in range(50)}
        assert sides == {Side.TOP, Side.BOTTOM}


class TestOutputHeuristics:
    def test_alternate_starts_with_bottom(self):
        h = make_output_heuristic("alternate")
        assert h.choose(ctx()) is Side.BOTTOM
        assert h.choose(ctx()) is Side.TOP

    def test_alternate_resets_each_run(self):
        h = make_output_heuristic("alternate")
        h.choose(ctx())
        h.on_run_start()
        assert h.choose(ctx()) is Side.BOTTOM

    def test_balancing_pops_larger_heap(self):
        h = make_output_heuristic("balancing")
        assert h.choose(ctx(top_size=9, bottom_size=2)) is Side.TOP
        assert h.choose(ctx(top_size=2, bottom_size=9)) is Side.BOTTOM

    def test_useful_pops_productive_heap(self):
        h = make_output_heuristic("useful")
        productive_bottom = ctx(
            top_size=10, bottom_size=10, top_outputs=5, bottom_outputs=50
        )
        assert h.choose(productive_bottom) is Side.BOTTOM

    def test_min_distance_pops_closer_head(self):
        h = make_output_heuristic("min_distance")
        closer_top = ctx(first_output=100, top_head=110, bottom_head=50)
        assert h.choose(closer_top) is Side.TOP
        closer_bottom = ctx(first_output=100, top_head=200, bottom_head=95)
        assert h.choose(closer_bottom) is Side.BOTTOM

    def test_min_distance_without_first_output_is_random(self):
        h = make_output_heuristic("min_distance")
        rng = random.Random(3)
        sides = {h.choose(ctx(rng=rng)) for _ in range(50)}
        assert sides == {Side.TOP, Side.BOTTOM}

    @pytest.mark.parametrize(
        "first,top,bottom",
        [(("a", 1), ("b", 2), ("a", 0)), (b"m", b"z", b"a"), ("m", "z", "a")],
        ids=["csv-tuple", "key-bytes", "str"],
    )
    def test_min_distance_without_subtraction_flips_the_coin(
        self, first, top, bottom
    ):
        # Keys without ``-`` draw exactly one coin flip per decision, the
        # same draw as the no-first-output case.
        h = make_output_heuristic("min_distance")
        rng, twin = random.Random(8), random.Random(8)
        got = [
            h.choose(ctx(rng=rng, first_output=first, top_head=top,
                         bottom_head=bottom))
            for _ in range(40)
        ]
        want = [h.choose(ctx(rng=twin)) for _ in range(40)]
        assert got == want
        assert rng.getstate() == twin.getstate()


class CountingStats:
    """Fake statistics provider recording how often it is consulted."""

    def __init__(self, mean=42.0, median=40, sample=(39, 40, 45)):
        self.calls = {"mean": 0, "median": 0, "sample": 0}
        self._mean = mean
        self._median = median
        self._sample = list(sample)

    def mean(self):
        self.calls["mean"] += 1
        return self._mean

    def median(self):
        self.calls["median"] += 1
        return self._median

    def sample(self):
        self.calls["sample"] += 1
        return self._sample


class TestLazyContext:
    def test_construction_computes_nothing(self):
        stats = CountingStats()
        ctx(stats=stats)
        assert stats.calls == {"mean": 0, "median": 0, "sample": 0}

    def test_statistics_fetched_on_first_access_only(self):
        stats = CountingStats()
        c = ctx(stats=stats)
        assert c.input_mean == pytest.approx(42.0)
        assert c.input_mean == pytest.approx(42.0)
        assert stats.calls["mean"] == 1
        assert stats.calls["median"] == 0
        assert c.input_median == 40
        assert stats.calls["median"] == 1

    def test_explicit_values_bypass_provider(self):
        stats = CountingStats()
        c = ctx(input_mean=7.0, stats=stats)
        assert c.input_mean == pytest.approx(7.0)
        assert stats.calls["mean"] == 0

    def test_without_provider_statistics_are_none(self):
        c = ctx()
        assert c.input_mean is None
        assert c.input_median is None
        assert c.input_sample is None

    def test_non_stats_heuristics_never_touch_provider(self):
        stats = CountingStats()
        for name in ("random", "alternate", "useful", "balancing"):
            h = make_input_heuristic(name)
            h.choose(0, ctx(stats=stats))
        for name in ("random", "alternate", "useful", "balancing",
                     "min_distance"):
            h = make_output_heuristic(name)
            h.choose(ctx(stats=stats))
        assert stats.calls == {"mean": 0, "median": 0, "sample": 0}

    def test_mean_heuristic_reads_only_the_mean(self):
        stats = CountingStats()
        make_input_heuristic("mean").choose(50, ctx(stats=stats))
        assert stats.calls == {"mean": 1, "median": 0, "sample": 0}


class TestUsefulness:
    def test_usefulness_definition(self):
        c = ctx(top_size=4, bottom_size=2, top_outputs=8, bottom_outputs=8)
        assert c.usefulness(Side.TOP) == pytest.approx(2.0)
        assert c.usefulness(Side.BOTTOM) == pytest.approx(4.0)

    def test_usefulness_empty_heap(self):
        c = ctx(top_size=0, top_outputs=3)
        assert c.usefulness(Side.TOP) == pytest.approx(3.0)
