"""Reproductions of the paper's evaluation figures (Section 6).

:data:`~repro.experiments.figures.FIGURES` holds one row per figure
(01, 09–15): its per-profile parameters, its series and x axes, and the
cell function that turns a coordinate into one ``Engine.run``.
:func:`~repro.experiments.figures.evaluate` runs any row and returns a
:class:`~repro.experiments.base.FigureResult` whose series are the
curves the paper plots.  ``profile`` selects workload scale:

* ``"smoke"`` — about a second for all eight; used by the tests;
* ``"default"`` — seconds; the goldens and the benchmark harness;
* ``"full"`` — approximates the paper's scale (5000 synthetic streams,
  ~600k TCP connections); minutes in pure Python;
* ``"scale"`` — n >= 10 000 streams, for the sharded deployment.

Run any figure from the command line::

    python -m repro.experiments figure09
    python -m repro.experiments all --profile smoke
"""

from repro.experiments.base import FigureResult, Profile
from repro.experiments.figures import FIGURES, evaluate

__all__ = ["FIGURES", "FigureResult", "Profile", "evaluate"]
