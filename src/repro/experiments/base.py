"""Shared experiment scaffolding: profiles and figure results."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Sequence

from repro.harness.reporting import format_series


class Profile(str, enum.Enum):
    """Workload scale of an experiment run.

    ``SCALE`` is the ROADMAP's larger-n sweep tier: every figure defines
    a variant with n >= 10,000 streams (figure 11 sweeps n in {10k,
    100k}), sized for benchmarking the sharded deployment rather than
    for CI.
    """

    SMOKE = "smoke"
    DEFAULT = "default"
    FULL = "full"
    SCALE = "scale"

    @classmethod
    def coerce(cls, value: "Profile | str") -> "Profile":
        if isinstance(value, Profile):
            return value
        return cls(value.lower())


@dataclass
class FigureResult:
    """The reproduced data behind one paper figure.

    Attributes
    ----------
    figure:
        Identifier, e.g. ``"figure09"``.
    title:
        The paper's caption, e.g. ``"RTP: Effect of r"``.
    x_name, x_values:
        The shared x-axis of all curves.
    series:
        Curve name -> y values (message counts), aligned with x_values.
    profile:
        The workload scale that produced the data.
    """

    figure: str
    title: str
    x_name: str
    x_values: Sequence[Any]
    series: dict[str, list[Any]]
    profile: Profile

    def format(self) -> str:
        """Render the figure as an aligned text table."""
        header = f"{self.figure} — {self.title} (profile={self.profile.value})"
        return format_series(
            self.x_name, self.x_values, self.series, title=header
        )
