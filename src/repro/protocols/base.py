"""The protocol interface.

A protocol owns the server-side state of one standing query: the answer
set ``A(t)``, whatever bookkeeping its tolerance exploitation requires,
and the filter constraints installed at the sources.  The server calls
:meth:`FilterProtocol.initialize` once and then
:meth:`FilterProtocol.on_update` for every update message (including
self-correction reports triggered by stale-belief deployments — the
server serializes those, so handlers are never re-entered).

Protocols are written against a *bound value*, not an interval (DESIGN.md
§15): a constraint is whatever the query hands out — a
:class:`~repro.streams.filters.FilterConstraint` on the scalar stack, a
:class:`~repro.spatial.geometry.Region` on the spatial one — of which a
protocol uses only ``contains`` and ``boundary_distance``; the query
supplies ``matches`` and its own ``bound``, or ``distance``,
``region(threshold)`` and ``rank_keys``; the last-known payload of a
stream is ``state.value_of(i)``; and ``server.deploy_many(ids, bound,
belief, silenced)`` turns "this bound everywhere, silencers for the pool
members" into the hosting stack's messages.  So one class serves every
dimension: ``rtp`` and ``rtp-2d`` are the same algorithm on a different
host.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING

import numpy as np

from repro.state.table import membership_mask

if TYPE_CHECKING:  # avoid a circular import; Server imports this module
    from repro.server.server import Server
    from repro.state.table import StreamStateTable


class FilterProtocol(ABC):
    """Base class of all filter-bound assignment protocols."""

    #: Short name used in results tables (e.g. "RTP", "FT-NRP").
    name: str = "abstract"

    #: True when the maintenance phase needs no server-to-source feedback
    #: and no cross-stream state (no probes, deployments, rank lookups,
    #: or shared pools): each stream's message sequence then depends only
    #: on its own records.  A sharded deployment can replay such a
    #: protocol's shards on independent workers and merge the ledgers —
    #: counts are additive and per-stream decisions identical, so the
    #: merged ledger equals the single-server one.  Exact range answering
    #: qualifies (ZT-NRP, the no-filter baseline over a range query);
    #: anything that probes, silences, or ranks does not.
    decomposable_maintenance: bool = False

    #: True when the protocol can say how far a batch of membership
    #: reports runs before it reacts (:meth:`absorb_reports`) and, until
    #: then, an update does nothing but "answer membership := the
    #: reported side".  The replay kernel then applies whole chunks,
    #: reports included, as column operations (DESIGN.md §9).
    columnar_maintenance: bool = False

    #: The sources the protocol runs on, as ``(initial payloads,
    #: channels, id ranges) -> population``; ``None``: the host
    #: vocabulary's own.  Only the in-process hosts build another.
    population = None

    #: The in-process host serving the protocol, as ``(channels, id
    #: ranges) -> host``; ``None``: the vocabulary's ``Server`` /
    #: ``ShardedServer``.
    host = None

    #: The checker kind a checked run of the protocol drives
    #: (:mod:`repro.correctness.checker`); ``None``: the tolerance checker.
    checker_kind: type | None = None

    #: The serving host's state table, bound by :meth:`initialize`.
    _state: "StreamStateTable | None" = None

    @abstractmethod
    def initialize(self, server: "Server") -> None:
        """Initialization phase: collect values, deploy constraints."""

    @abstractmethod
    def on_update(
        self, server: "Server", stream_id: int, value, time: float
    ) -> None:
        """Maintenance phase: react to one update message carrying the
        stream's payload *value* (a float, or a point)."""

    def absorb_reports(self, entering: np.ndarray) -> int:
        """Consume the quiet prefix of a batch of membership reports.

        *entering* holds the reports of unsilenced streams in time order
        (``True``: the stream entered the bound).  Returns the length of
        the longest prefix whose :meth:`on_update` calls would send no
        message and touch no constraint, after folding those reports
        into the protocol's own bookkeeping — the caller writes the
        answer plane.  It **mutates**: call it once per committed prefix.
        Here: every report is quiet and there is nothing to fold.
        """
        return len(entering)

    @property
    def answer(self) -> frozenset[int]:
        """The answer set ``A(t)`` currently reported to the user.

        Here: the state table's answer column, where every filtering
        protocol keeps ``A(t)`` (empty until :meth:`initialize` binds
        the table).  A protocol that derives its answer from something
        else overrides this, and :attr:`answer_mask` follows.
        """
        if self._state is None:
            return frozenset()
        return self._state.answer_snapshot()

    @property
    def answer_mask(self) -> np.ndarray:
        """:attr:`answer` as a read-only boolean column over stream ids.

        What the tolerance checker compares against the oracle's truth
        column (DESIGN.md §14): the table's answer column itself while
        :attr:`answer` is the table's — a subclass that overrides
        :attr:`answer` gets its override, scattered into a column.
        Defined only once :meth:`initialize` has bound the table.
        """
        assert self._state is not None, "initialize() must run first"
        if type(self).answer is not FilterProtocol.answer:
            return membership_mask(self.answer, self._state.n_streams)
        column = self._state.answer_mask.view()
        column.flags.writeable = False
        return column

    def describe(self) -> str:
        """One-line human-readable description for results tables."""
        return self.name


class SilencingProtocol(FilterProtocol):
    """A protocol that hands out silencing filters (FT-NRP, FT-RP): its
    FIFO ``_pools`` (:class:`~repro.state.pools.SilencerPools`) and
    Figure 7's ``Fix_Error``, which spends them."""

    def _fix_error(self, server: "Server", bound) -> None:
        """Spend silenced streams to restore the F+/F- budgets of *bound*
        (the query range, or FT-RP's ``R``)."""
        assert self._state is not None
        if self._pools.fp:
            candidate = self._pools.pop_fp()
            if bound.contains(server.probe(candidate)):
                # True positive after all: pin it with the real filter;
                # budgets strictly improve (Section 5.1.1 case 1).
                server.deploy_many([candidate], bound)
                return
            # True negative: drop it from the answer.  It is now silenced
            # and believed outside — i.e. a false-negative filter — so it
            # joins that pool (see ft_nrp.py's module docstring).
            self._state.answer_discard(candidate)
            self._pools.push_fn(candidate)
        if self._pools.fn:
            candidate = self._pools.pop_fn()
            if bound.contains(server.probe(candidate)):
                self._state.answer_add(candidate)
            server.deploy_many([candidate], bound)

    @property
    def n_plus(self) -> int:
        """Remaining false-positive filters (paper's ``n+``)."""
        return self._pools.n_plus

    @property
    def n_minus(self) -> int:
        """Remaining false-negative filters (paper's ``n-``)."""
        return self._pools.n_minus
