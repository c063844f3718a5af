"""Profile.SCALE: every figure defines a larger-n sweep variant.

The ROADMAP's "larger-n sweeps" item: figure variants at n in {10k,
100k} reachable through the figure table (``evaluate(name, "scale")``) and
the CLI (``--profile scale``).  These runs are too big for CI, so the
tests verify the wiring and the parameter floors, not the runs.
"""

import functools

from repro.experiments import FIGURES, evaluate
from repro.experiments.base import Profile


def _scale_population(params: dict) -> int:
    for key in ("n_streams", "n_subnets", "n_objects"):
        if key in params:
            return params[key]
    return max(params["stream_counts"])


def test_scale_profile_exists_and_coerces():
    assert Profile.coerce("scale") is Profile.SCALE
    assert Profile.SCALE.value == "scale"


def test_every_figure_defines_a_scale_profile_at_10k_or_more():
    for name in FIGURES:
        profiles = FIGURES[name].profiles
        assert Profile.SCALE in profiles, f"{name} lacks a SCALE profile"
        assert _scale_population(profiles[Profile.SCALE]) >= 10_000, name


def test_figure11_scale_sweeps_10k_and_100k():
    counts = FIGURES["figure11"].profiles[Profile.SCALE]["stream_counts"]
    assert 10_000 in counts and 100_000 in counts


def test_registry_threads_scale_profile_to_runners():
    # The runners accept the profile; verify via signature binding
    # rather than running (SCALE workloads are benchmark-sized).
    import inspect

    for name in FIGURES:
        runner = functools.partial(evaluate, name)
        signature = inspect.signature(runner)
        bound = signature.bind(profile=Profile.SCALE)
        assert bound.arguments["profile"] is Profile.SCALE
        assert "deployment" in signature.parameters, name
