"""RunConfig validation: bad knobs fail construction, not mid-replay."""

import pytest

from repro.harness.config import RunConfig
from repro.runtime.replay import REPLAY_MODES


def test_defaults_are_valid_and_frozen():
    config = RunConfig()
    assert config.replay_mode == "auto"
    assert config.check_every == 0
    with pytest.raises(AttributeError):
        config.check_every = 3


@pytest.mark.parametrize("mode", REPLAY_MODES)
def test_every_documented_replay_mode_is_accepted(mode):
    assert RunConfig(replay_mode=mode).replay_mode == mode


@pytest.mark.parametrize("mode", ["fast", "", "AUTO", "batched"])
def test_unknown_replay_modes_are_rejected_with_the_choices(mode):
    with pytest.raises(ValueError, match=r"auto.*event.*batch"):
        RunConfig(replay_mode=mode)


def test_non_string_replay_mode_is_a_type_error():
    with pytest.raises(TypeError, match="replay_mode must be a str"):
        RunConfig(replay_mode=3)


def test_negative_check_every_is_rejected():
    with pytest.raises(ValueError, match="check_every must be >= 0"):
        RunConfig(check_every=-1)


@pytest.mark.parametrize("check_every", [1.5, "2", True])
def test_non_int_check_every_is_a_type_error(check_every):
    with pytest.raises(TypeError, match="check_every must be an int"):
        RunConfig(check_every=check_every)


def test_deployment_inherits_the_validation():
    """Deployment reuses RunConfig's checks for the shared knobs."""
    from repro.api import Deployment

    with pytest.raises(TypeError, match="check_every"):
        Deployment.single(check_every="often")
    with pytest.raises(ValueError, match="replay_mode"):
        Deployment.sharded(2, replay_mode="warp")
