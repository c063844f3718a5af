"""FT-NRP: fraction-based tolerance for range queries (Section 5.1.1, Fig. 7).

Initialization probes every stream, then hands out silencing filters:

* of the ``|A(t0)|`` streams inside the query's bound (``[l, u]``, or
  the query box), ``n+ = Emax+`` get the false-positive filter
  (``[-inf, +inf]`` / all of space) and go silent;
* of the streams outside, ``n- = Emax-`` get the false-negative filter
  (``[+inf, +inf]`` / the empty region) and likewise go silent;
* everyone else gets the bound itself (ZT-NRP behaviour).

Maintenance tracks the slack variable ``count`` — the surplus of
entering-range reports over leaving-range reports since the last deficit.
While ``count > 0`` the answer only ever got *better* than at the last
critical instant, so nothing need be done; when a leave-report hits
``count == 0``, ``Fix_Error`` spends silenced streams to restore the
budgets (Section 5.1.1's case analysis).

One bookkeeping deviation from Figure 7, equivalent in messages and
strictly no weaker in correctness: when ``Fix_Error`` probes a
false-positive-filtered stream and finds it *outside* the range, the paper
removes it from ``A`` and leaves it silenced in limbo (it keeps its
``[-inf, +inf]`` filter but is no longer counted anywhere).  Such a stream
is at that point *exactly* a false-negative-filtered stream — silenced and
believed outside — so we move it to the false-negative pool.  The silenced
population is identical to the paper's at every instant; the stream merely
remains reachable by later ``Fix_Error`` invocations instead of being
stranded.

A second deviation closes a soundness gap (found by the continuous
checker; documented in DESIGN.md): the paper sizes ``n-`` against
``|A(t0)|`` once, but ``F-``'s denominator is the *current* true-set
size, which shrinks as in-range streams legitimately leave.  At small
populations / high tolerance an outstanding FN silencer then pushes
``F-`` past ``eps-`` (e.g. ``E- = 1`` of ``|T| = 2`` with
``eps- = 0.45``).  After every maintenance step we therefore enforce the
worst-case budgets against the current answer:

    ``|fp_pool| <= eps+ * |A|``                                  (F+ safe)
    ``|fn_pool| * (1 - eps-) <= eps- * (|A| - |fp_pool|)``        (F- safe)

reclaiming (probing and unsilencing) silencers while either fails.  Both
inequalities hold with equality at the paper's initialization sizing, so
behaviour only diverges exactly where the paper's arithmetic breaks.

Server-side state — answer mask and deployed filters, a silenced row's
being its silencer — lives in the shared
:class:`~repro.state.table.StreamStateTable`; the FIFO pool order is a
:class:`~repro.state.pools.SilencerPools`.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from repro.protocols.base import SilencingProtocol
from repro.protocols.selection import BoundaryNearestSelection, SelectionHeuristic
from repro.state.pools import SilencerPools
from repro.tolerance.fraction_tolerance import FractionTolerance

if TYPE_CHECKING:
    from repro.server.server import Server
    from repro.state.table import StreamStateTable


#: The longest span :meth:`~FractionToleranceRangeProtocol.absorb_reports`
#: walks as Python scalars; a longer one takes the running sum, whose
#: dozen numpy calls cost what walking about 64 reports does
#: (``python -m benchmarks.absorb_cutoff``, DESIGN.md §9).
ABSORB_WALK_MAX = 64


def absorb_walked(entering, size, count, fitting, spend) -> tuple[int, int]:
    """``(absorbed, count after)`` of time-ordered reports (*entering*:
    ``True`` entered the bound) from an answer of *size* and slack
    *count*, walked one report at a time: the first leave-report that
    leaves the answer below *fitting*, or finds ``count == 0`` while
    there is something to *spend*, stops the walk unabsorbed; else
    ``count`` steps with the report, clamped at zero."""
    for i, enters in enumerate(entering.tolist()):
        if enters:
            size += 1
            count += 1
        elif size - 1 < fitting or (spend and not count):
            return i, count
        else:
            size -= 1
            count = max(count - 1, 0)
    return len(entering), count


def absorb_summed(entering, size, count, fitting, spend) -> tuple[int, int]:
    """:func:`absorb_walked` as one running sum over the reports: the
    first stop is an ``argmax``, and the clamped slack is the raw sum
    lifted by its lowest dip below zero."""
    steps = np.cumsum(np.where(entering, 1, -1))
    stop = ~entering & (size + steps < fitting)
    if spend:
        stop |= count + steps < 0
    absorbed = int(stop.argmax()) if stop.any() else len(entering)
    if absorbed:
        slack = count + steps[:absorbed]
        count = int(slack[-1]) - min(0, int(slack.min()))
    return absorbed, count


class FractionToleranceRangeProtocol(SilencingProtocol):
    """The FT-NRP algorithm of Figure 7.

    Parameters
    ----------
    query:
        The standing range query (scalar or spatial).
    tolerance:
        Maximum false-positive / false-negative fractions (< 0.5 each).
    selection:
        Placement heuristic for the silencing filters (Fig. 14 compares
        random vs boundary-nearest; the latter is the default).
    reinitialize_when_exhausted:
        When both silencer pools are spent the protocol degenerates to
        ZT-NRP; the paper notes initialization "may be run again" to
        re-exploit the tolerance.  Off by default (matches the figures);
        the ablation bench turns it on.
    """

    name = "FT-NRP"
    # Most reports only edit the answer: :meth:`absorb_reports` says
    # where the first one that does more sits.
    columnar_maintenance = True

    def __init__(
        self,
        query,
        tolerance: FractionTolerance,
        selection: SelectionHeuristic | None = None,
        reinitialize_when_exhausted: bool = False,
    ) -> None:
        self.query = query
        self._bound = query.bound
        self.tolerance = tolerance
        self.selection = selection or BoundaryNearestSelection()
        self.reinitialize_when_exhausted = reinitialize_when_exhausted
        self._state: "StreamStateTable | None" = None
        self._pools = SilencerPools()
        self._count = 0
        #: ``((len(fp), len(fn)), smallest fitting answer size)``.
        self._fitting: tuple = (None, 0)
        self.reinitializations = 0

    # ------------------------------------------------------------------
    # Initialization phase (Figure 7, top)
    # ------------------------------------------------------------------
    def initialize(self, server: "Server") -> None:
        self._state = server.state
        self._install(server, server.probe_all())

    def _install(self, server: "Server", payloads: np.ndarray) -> None:
        """Compute A from every stream's fresh payload (a column over the
        ids), choose silencers, and deploy all filters."""
        assert self._state is not None
        ids = np.arange(len(payloads))
        inside = self.query.matches_array(payloads)
        self._state.answer_set_mask(inside)
        self._count = 0

        size = self._state.answer_size
        n_plus = min(self.tolerance.emax_plus(size), size)
        n_minus = min(self.tolerance.emax_minus(size), len(ids) - size)
        fp_ids = self.selection.select(
            ids[inside], payloads[inside], n_plus, self._bound
        )
        fn_ids = self.selection.select(
            ids[~inside], payloads[~inside], n_minus, self._bound
        )
        self._pools.reset(fp_ids, fn_ids)

        server.deploy_many(ids, self._bound, silenced=self._pools)
        self._enforce_budgets(server)

    # ------------------------------------------------------------------
    # Maintenance phase (Figure 7, middle)
    # ------------------------------------------------------------------
    def on_update(
        self, server: "Server", stream_id: int, value, time: float
    ) -> None:
        assert self._state is not None, "initialize() must run first"
        if self.query.matches(value):
            # Case 1: a stream entered the range — the answer improves.
            self._state.answer_add(stream_id)
            self._count += 1
        else:
            # Case 2: a stream left the range.
            self._state.answer_discard(stream_id)
            if self._count > 0:
                self._count -= 1
            else:
                self._fix_error(server, self._bound)
                if (
                    self.reinitialize_when_exhausted
                    and not self._pools.fp
                    and not self._pools.fn
                ):
                    self.reinitializations += 1
                    self._install(server, server.probe_all())
                    return
            # The answer shrank: the silencer budgets may no longer fit.
            self._enforce_budgets(server)

    def absorb_reports(self, entering: np.ndarray) -> int:
        """The reports before the first that pops a silencer.

        :meth:`on_update` reacts to a leave-report only: one that finds
        ``count == 0`` with something to spend (a pool, or a
        reinitialization), or one that leaves the answer smaller than the
        smallest size at which both budgets fit
        (:meth:`_smallest_fitting_size`, once per pair of pool sizes).
        An unsilenced stream's answer membership equals its believed
        side, so each report moves ``answer_size`` by exactly one in the
        direction of *entering*: sizes and slack are one running sum,
        and neither falls below its value with every leave first.  When
        that floor fits and keeps the slack non-negative, nothing can
        stop: every report is absorbed and ``count`` moves by the net
        steps, O(1).  Else the reports are walked in order — Figure 7's
        ``count`` slack, clamped at zero where ``Fix_Error`` has nothing
        left to spend — as Python scalars (:func:`absorb_walked`) up to
        :data:`ABSORB_WALK_MAX` reports, where numpy's call overhead
        outweighs a short span, and as one running sum past it
        (:func:`absorb_summed`, DESIGN.md §9).
        """
        assert self._state is not None, "initialize() must run first"
        pools, size, n = self._pools, self._state.answer_size, len(entering)
        sizes = (len(pools.fp), len(pools.fn))
        if self._fitting[0] != sizes:
            self._fitting = sizes, self._smallest_fitting_size()
        leaves = n - int(np.count_nonzero(entering))
        if size - leaves >= self._fitting[1] and self._count >= leaves:
            self._count += n - 2 * leaves
            return n
        spend = bool(pools.fp or pools.fn or self.reinitialize_when_exhausted)
        absorb = absorb_walked if n <= ABSORB_WALK_MAX else absorb_summed
        absorbed, self._count = absorb(
            entering, size, self._count, self._fitting[1], spend
        )
        return absorbed

    # ------------------------------------------------------------------
    # Budget enforcement (see module docstring, second deviation)
    # ------------------------------------------------------------------
    def _fp_budget_ok(self, answer_size: int) -> bool:
        return self._pools.n_plus <= (
            self.tolerance.eps_plus * answer_size + 1e-9
        )

    def _fn_budget_ok(self, answer_size: int) -> bool:
        in_range_floor = answer_size - self._pools.n_plus
        return self._pools.n_minus * (1.0 - self.tolerance.eps_minus) <= (
            self.tolerance.eps_minus * in_range_floor + 1e-9
        )

    def _budgets_fit(self, answer_size: int) -> bool:
        """Both budget tests, each vacuous while its pool is empty."""
        pools = self._pools
        return (not pools.fp or self._fp_budget_ok(answer_size)) and (
            not pools.fn or self._fn_budget_ok(answer_size)
        )

    def _smallest_fitting_size(self) -> int:
        """The smallest answer size at which :meth:`_budgets_fit`, or
        ``n_streams + 1`` when none does (an answer is no larger).

        Each inequality solved for the size gives a lower bound in
        closed form; the scalar tests then settle the ``ceil`` at the
        boundary, since their ``+ 1e-9`` and int-then-float order are
        part of the ledger (DESIGN.md §9).  Both tests are monotone in
        the size, so the settling steps are few.  A zero tolerance with
        a pool to spend never fits.
        """
        pools, tolerance = self._pools, self.tolerance
        top = self._state.n_streams + 1
        bound = 0.0
        if pools.fp:
            eps = tolerance.eps_plus
            bound = (pools.n_plus - 1e-9) / eps if eps else math.inf
        if pools.fn:
            eps = tolerance.eps_minus
            need = pools.n_minus * (1.0 - eps) - 1e-9
            bound = max(bound, pools.n_plus + need / eps if eps else math.inf)
        size = math.ceil(min(max(bound, 0.0), top))
        while size > 0 and self._budgets_fit(size - 1):
            size -= 1
        while size < top and not self._budgets_fit(size):
            size += 1
        return size

    def _enforce_budgets(self, server: "Server") -> None:
        """Reclaim silencers while a worst-case fraction bound would fail."""
        state = self._state
        assert state is not None
        while self._pools.fp and not self._fp_budget_ok(state.answer_size):
            candidate = self._pools.pop_fp()
            if not self.query.matches(server.probe(candidate)):
                state.answer_discard(candidate)
            server.deploy_many([candidate], self._bound)
        while self._pools.fn and not self._fn_budget_ok(state.answer_size):
            candidate = self._pools.pop_fn()
            if self.query.matches(server.probe(candidate)):
                state.answer_add(candidate)
            server.deploy_many([candidate], self._bound)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        """The maintenance slack variable (Figure 7)."""
        return self._count
