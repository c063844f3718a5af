"""The figure table, the profiles and the command line."""

from unittest import mock

import pytest

from repro.experiments import FIGURES, evaluate
from repro.experiments.__main__ import main
from repro.experiments.base import Profile


class TestTable:
    def test_all_evaluation_figures_listed_in_paper_order(self):
        expected = ["figure01"] + [f"figure{n:02d}" for n in range(9, 16)]
        assert list(FIGURES) == expected

    def test_an_unknown_figure_raises_key_error(self):
        with pytest.raises(KeyError):
            evaluate("figure99", profile="smoke")

    @pytest.mark.parametrize("name", list(FIGURES))
    def test_each_trace_is_generated_once(self, name):
        """Cells that describe one workload share its trace: a figure
        generates it once, figure13 once per sigma — never per cell."""
        from repro.streams.synthetic import generate_synthetic_trace
        from repro.streams.tcp import generate_tcp_trace

        with mock.patch(
            "repro.streams.synthetic.generate_synthetic_trace",
            wraps=generate_synthetic_trace,
        ) as synthetic, mock.patch(
            "repro.streams.tcp.generate_tcp_trace", wraps=generate_tcp_trace
        ) as tcp:
            evaluate(name, profile="smoke")
        params = FIGURES[name].profiles[Profile.SMOKE]
        expected = len(params.get("sigma_values", [None]))
        assert synthetic.call_count + tcp.call_count == expected

    def test_every_figure_defines_every_profile(self):
        for name, figure in FIGURES.items():
            assert set(figure.profiles) == set(Profile), name


class TestProfiles:
    def test_profile_coercion(self):
        assert Profile.coerce("smoke") is Profile.SMOKE
        assert Profile.coerce(Profile.FULL) is Profile.FULL
        with pytest.raises(ValueError):
            Profile.coerce("huge")


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
