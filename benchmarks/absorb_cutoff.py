"""Where FT-NRP's absorb should stop walking: the scalar walk against the
running sum, by span length.

``absorb_reports`` walks a span's reports as Python scalars
(``absorb_walked``) up to ``ABSORB_WALK_MAX`` reports and takes the
running sum (``absorb_summed``) past it (DESIGN.md §9).  The walk costs
a constant per report, the running sum a dozen numpy calls whatever the
length; this times both on the walk's worst case — a span no report
stops, so every report is walked — and prints where they cross.  A span
that stops early costs the walk less, so the cutoff is conservative.

Run from the repository root::

    python -m benchmarks.absorb_cutoff [--repeat 7]
"""

from __future__ import annotations

import argparse
import sys
import timeit
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.protocols.ft_nrp import (  # noqa: E402
    ABSORB_WALK_MAX,
    absorb_summed,
    absorb_walked,
)

LENGTHS = (8, 16, 32, 48, 64, 96, 128, 256, 1024, 4096)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=7)
    args = parser.parse_args(argv)
    rng = np.random.default_rng(0)
    print(f"ABSORB_WALK_MAX = {ABSORB_WALK_MAX}; best of {args.repeat}, us per call")
    print("| reports | walk | running sum |")
    print("|---|---|---|")
    for n in LENGTHS:
        entering = rng.random(n) < 0.5
        state = (entering, 10**6, 10**6, 0, True)  # nothing stops the span
        assert absorb_walked(*state) == absorb_summed(*state)
        cells = []
        for form in (absorb_walked, absorb_summed):
            runs = timeit.repeat(lambda: form(*state), number=200, repeat=args.repeat)
            best = min(runs)
            cells.append(f"{best / 200 * 1e6:.1f}")
        print(f"| {n} | {cells[0]} | {cells[1]} |")


if __name__ == "__main__":
    main()
