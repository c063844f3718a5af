"""Smoke-profile runs of every figure, asserting the paper's shapes."""

import pytest

from repro.experiments import REGISTRY, get_experiment, list_experiments
from repro.experiments.__main__ import main
from repro.experiments.base import FigureResult, Profile
from repro.experiments import (
    figure09,
    figure10,
    figure11,
    figure12,
    figure13,
    figure14,
    figure15,
)


class TestRegistry:
    def test_all_evaluation_figures_registered(self):
        expected = ["figure01"] + [f"figure{n:02d}" for n in range(9, 16)]
        assert list_experiments() == expected

    def test_get_experiment_unknown_raises(self):
        with pytest.raises(KeyError):
            get_experiment("figure99")

    def test_get_experiment_returns_runner(self):
        assert get_experiment("figure09") is REGISTRY["figure09"][0]


@pytest.fixture(scope="module")
def fig09():
    return figure09.run(profile=Profile.SMOKE, seed=0)


@pytest.fixture(scope="module")
def fig15():
    return figure15.run(profile=Profile.SMOKE, seed=0)


class TestFigure09:
    def test_result_structure(self, fig09):
        assert isinstance(fig09, FigureResult)
        assert fig09.x_name == "r"
        assert "no filter" in fig09.series

    def test_rtp_cost_decreases_with_r(self, fig09):
        for name, curve in fig09.series.items():
            if name.startswith("k="):
                assert curve[-1] < curve[0], name

    def test_r0_is_worse_than_no_filter(self, fig09):
        """Zero slack forces constant R recomputation (Fig. 9's k=30)."""
        baseline = fig09.series["no filter"][0]
        worst_k = max(
            curve[0]
            for name, curve in fig09.series.items()
            if name.startswith("k=")
        )
        assert worst_k > baseline

    def test_format_renders(self, fig09):
        text = fig09.format()
        assert "figure09" in text
        assert "no filter" in text


class TestFigure10:
    def test_corner_matches_zero_tolerance(self):
        result = figure10.run(profile=Profile.SMOKE, seed=0)
        # Highest-tolerance corner at most the zero-tolerance corner plus
        # small Fix_Error noise.
        zero = result.series["eps-=0.0"][0]
        best = result.series[f"eps-={result.x_values[-1]}"][-1]
        assert best <= zero * 1.1


class TestFigure11:
    def test_cost_grows_with_streams(self):
        result = figure11.run(profile=Profile.SMOKE, seed=0)
        for curve in result.series.values():
            assert curve[-1] > curve[0]


class TestFigure12:
    def test_tolerance_reduces_cost(self):
        result = figure12.run(profile=Profile.SMOKE, seed=0)
        first = result.series["eps-=0.0"][0]
        last = result.series[f"eps-={result.x_values[-1]}"][-1]
        assert last < first


class TestFigure13:
    def test_curves_ordered_by_sigma(self):
        result = figure13.run(profile=Profile.SMOKE, seed=0)
        low = result.series["sigma=20"]
        high = result.series["sigma=80"]
        assert sum(high) > sum(low)


class TestFigure14:
    def test_boundary_nearest_at_most_random_overall(self):
        result = figure14.run(profile=Profile.SMOKE, seed=0)
        assert sum(result.series["boundary-nearest"]) <= sum(
            result.series["random"]
        )


class TestFigure15:
    def test_steep_drop_from_zero_tolerance(self, fig15):
        for name, curve in fig15.series.items():
            assert curve[1] < curve[0] / 2, name

    def test_eps0_uses_zt_rp(self, fig15):
        # eps=0 cost must dwarf everything else (log-scale plot).
        for curve in fig15.series.values():
            assert curve[0] == max(curve)


class TestProfiles:
    def test_profile_coercion(self):
        assert Profile.coerce("smoke") is Profile.SMOKE
        assert Profile.coerce(Profile.FULL) is Profile.FULL
        with pytest.raises(ValueError):
            Profile.coerce("huge")

    def test_curve_accessor(self, fig09):
        assert fig09.curve("no filter") == fig09.series["no filter"]
        with pytest.raises(KeyError):
            fig09.curve("nonexistent")


class TestCommandLine:
    @pytest.mark.parametrize("shards", ["0", "-3"])
    def test_a_shard_count_below_one_is_a_usage_error(self, shards, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["figure01", "--profile", "smoke", "--shards", shards])
        assert exit_info.value.code == 2
        assert "--shards must be >= 1" in capsys.readouterr().err

    def test_parallel_without_all_is_a_usage_error(self, capsys):
        """One figure has nothing to run concurrently: ``--parallel``
        must not be silently ignored."""
        with pytest.raises(SystemExit) as exit_info:
            main(["figure09", "--profile", "smoke", "--parallel"])
        assert exit_info.value.code == 2
        assert "--parallel" in capsys.readouterr().err
