"""Run configuration."""

from __future__ import annotations

from dataclasses import dataclass

from repro.runtime.replay import REPLAY_MODES


@dataclass(frozen=True)
class RunConfig:
    """Knobs of a single simulation run.

    Attributes
    ----------
    check_every:
        Validate tolerance every N-th applied record; ``0`` disables
        checking entirely (benchmark mode — checking a rank query costs
        O(n) per check).  ``1`` checks after every record (test mode).
    strict:
        Raise on the first tolerance violation instead of recording it.
    label:
        Free-form tag copied into the result, e.g. the sweep coordinates.
    replay_mode:
        ``"auto"`` uses the vectorized batched fast path whenever no
        correctness checking is active and falls back to faithful
        per-event replay otherwise; ``"event"`` forces the per-event
        path.  ``"batch"`` requests the fast path unconditionally but
        still downgrades (silently) to per-event replay where batching
        is unsound — checking callbacks active or non-scalar payloads —
        so forcing it can never change results, only speed.  Both paths
        produce identical message ledgers: batching only skips records
        that provably cannot flip any filter.
    """

    check_every: int = 0
    strict: bool = False
    label: str = ""
    replay_mode: str = "auto"

    def __post_init__(self) -> None:
        # Reject wrong shapes eagerly and loudly: a malformed knob that
        # slips through here surfaces far downstream as a silently wrong
        # replay path or an opaque numpy error mid-replay.
        if isinstance(self.check_every, bool) or not isinstance(
            self.check_every, int
        ):
            raise TypeError(
                f"check_every must be an int, got "
                f"{type(self.check_every).__name__}"
            )
        if self.check_every < 0:
            raise ValueError(
                f"check_every must be >= 0 (0 disables checking), "
                f"got {self.check_every}"
            )
        if not isinstance(self.replay_mode, str):
            raise TypeError(
                f"replay_mode must be a str, got "
                f"{type(self.replay_mode).__name__}"
            )
        if self.replay_mode not in REPLAY_MODES:
            raise ValueError(
                f"replay_mode must be one of {REPLAY_MODES}, "
                f"got {self.replay_mode!r}"
            )
