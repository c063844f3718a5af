"""RTP: the rank-based tolerance protocol (Section 4, Figure 5).

The server maintains a closed region ``R`` around the query point — an
interval on the line, a ball in d dimensions: whatever the query's
``region(threshold)`` builds — positioned halfway between the
``(k+r)``-th and ``(k+r+1)``-st closest objects.  Every stream's filter *is* ``R``, so the
server learns exactly when an object enters or leaves ``R``.  Server-side
state:

* ``X(t)`` — the objects currently inside ``R`` (at most ``eps = k + r``);
* ``A(t) ⊆ X(t)`` — the ``k`` objects reported to the user.

Because every member of ``A`` is inside ``R`` and at most ``eps`` objects
are inside ``R``, every member's true rank is at most ``eps`` — exactly
Definition 1.

Maintenance handles the three cases of Figure 5 and charges messages as:
one update per violation, two messages per probe, one per constraint
deployed (a broadcast of a new ``R`` costs ``n``).  This is why ``r = 0``
can be *worse* than no filtering (Figure 9): every boundary crossing then
forces a recompute-and-broadcast.

Staleness: the expanding search of Case 2 (Step 4) deploys a new ``R``
without probing every stream, so the server attaches its believed
membership to each deployment; a source whose actual membership differs
self-corrects with one update, which the server handles through the
normal Case 1-3 routing.  See ``repro.streams.source``.

Server-side state lives in the shared :class:`~repro.state.table.
StreamStateTable` — ``A(t)`` and ``X(t)`` are its membership masks, and
the "old ranking scores kept by the server" are its payload column, kept
in rank order by an incremental :class:`~repro.state.rank.RankView`
(dirty-region repair) instead of a full ``sorted()`` per resolution.
The view is keyed by the query's ``rank_keys`` — per row bitwise the
``distance`` the case analysis compares, so the (distance, id) order is
one order everywhere.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.protocols.base import FilterProtocol
from repro.runtime.membership import BELIEF_NONE
from repro.state.rank import RankView
from repro.tolerance.rank_tolerance import RankTolerance

if TYPE_CHECKING:
    from repro.server.server import Server
    from repro.state.table import StreamStateTable


class RankToleranceProtocol(FilterProtocol):
    """The RTP algorithm of Figure 5.

    Parameters
    ----------
    query:
        A rank-based query (k-NN, top-k, k-min, or spatial k-NN).
    tolerance:
        The rank slack ``r``; ``tolerance.k`` must equal ``query.k``.
    expand_search:
        Whether Case 2 uses the Figure-5 Step-4 expanding search before
        falling back to full re-initialization.  Disabling it (ablation)
        makes every replacement-exhausted departure cost a full
        probe-all + broadcast.
    """

    name = "RTP"

    def __init__(
        self,
        query,
        tolerance: RankTolerance,
        expand_search: bool = True,
    ) -> None:
        if tolerance.k != query.k:
            raise ValueError(
                f"tolerance k={tolerance.k} does not match query k={query.k}"
            )
        self.query = query
        self.tolerance = tolerance
        self.expand_search = expand_search
        self._state: "StreamStateTable | None" = None
        self._rank: RankView | None = None
        self._region = None
        self.reinitializations = 0
        self.expansions = 0

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    @property
    def eps(self) -> int:
        """``eps_k^r = k + r``, the worst admissible rank."""
        return self.tolerance.eps

    def _known_distance(self, stream_id: int) -> float:
        """Distance of the stream's last-known payload."""
        assert self._state is not None
        return self.query.distance(self._state.value_of(stream_id))

    # ------------------------------------------------------------------
    # Initialization (Figure 5, top)
    # ------------------------------------------------------------------
    def initialize(self, server: "Server") -> None:
        if server.n_streams <= self.eps:
            raise ValueError(
                f"RTP needs more than eps = {self.eps} streams "
                f"(got {server.n_streams}): the bound R must separate the "
                f"(k+r)-th and (k+r+1)-st ranked objects"
            )
        if self._state is not server.state:
            self._state = server.state
            self._rank = server.rank_view(self.query.rank_keys)
        server.probe_all()
        order = self._rank.order_ids()
        self._state.answer_replace(order[: self.query.k])
        self._state.tracked_replace(order[: self.eps])
        self._deploy_bound(server, fresh_ids=None)

    def _split(self) -> tuple[np.ndarray, float, float]:
        """``X``'s known payloads, the largest known distance in ``X``
        and the smallest outside it: O(|X|) reads of the tracked set
        and of the rank order's first ``|X| + 1`` rows, which must hold
        an untracked one."""
        assert self._state is not None and self._rank is not None
        inside = self._state.tracked_ids()
        head = self._rank.order_ids()[: inside.size + 1]
        outside = head[~self._state.tracked_mask[head]]
        if not (inside.size and outside.size):  # pragma: no cover - init guard
            raise RuntimeError("R must separate a non-empty in/out split")
        members = self._state.payload_array()[inside]
        # X's last row in (distance, id) order: the largest id among the
        # farthest, its key bit for bit (a signed zero included).
        keys = self.query.rank_keys(members)
        d_inside = float(keys[keys.size - 1 - np.argmax(keys[::-1])])
        return members, d_inside, self._known_distance(outside[0])

    def _deploy_bound(
        self, server: "Server", fresh_ids: Iterable[int] | None
    ) -> None:
        """Deploy_bound(t): position R halfway past the eps-th object.

        The halfway point is computed over the server's *known* values —
        exact for streams in ``fresh_ids`` (probed this resolution;
        ``None``: all of them), the last report otherwise.  Deployments
        to non-fresh streams carry the believed membership so stale
        sources self-correct.
        """
        assert self._state is not None
        members, d_inside, d_outside = self._split()
        # A stale outside value can appear closer than a fresh X member;
        # R must nevertheless enclose all of X.  Clamping degenerates the
        # halfway gap to zero in that rare case, and the stale stream
        # self-corrects via its believed-membership flag if it truly sits
        # inside the deployed bound.
        threshold = (d_inside + max(d_outside, d_inside)) / 2.0
        # R must contain every tracked member's known payload *exactly*:
        # a member the source knows outside a region the server believes
        # it inside never flips membership again, so no report would ever
        # correct the divergence.  Constructing R so is the query's job
        # (an interval must widen past its own rounding, a ball need
        # not); it is checked here, once, for every stack.
        self._region = self.query.region(threshold, members)
        assert all(map(self._region.contains, members))
        belief = None
        if fresh_ids is not None:
            belief = self._state.tracked_mask.astype(np.int8)
            belief[list(fresh_ids)] = BELIEF_NONE
        server.deploy_many(None, self._region, belief)

    # ------------------------------------------------------------------
    # Maintenance (Figure 5, middle)
    # ------------------------------------------------------------------
    def on_update(
        self, server: "Server", stream_id: int, value, time: float
    ) -> None:
        # The server already refreshed the payload column (and dirtied
        # the rank view) before invoking this handler.
        if self._region is None:  # pragma: no cover - defensive
            raise RuntimeError("initialize() must run before updates")
        assert self._state is not None
        if not self._region.contains(value):
            if self._state.answer_contains(stream_id):
                self._case_leaves_answer(server, stream_id)
            else:
                # Case 1 — or a consistent self-correction from a stream
                # that was never tracked; discarding is a no-op then.
                self._state.tracked_discard(stream_id)
        else:
            if not self._state.tracked_contains(stream_id):
                self._case_enters(server, stream_id)
            # else: already tracked inside R; nothing to maintain.

    def _case_leaves_answer(self, server: "Server", stream_id: int) -> None:
        """Case 2: an answer member left R."""
        assert self._state is not None
        self._state.answer_discard(stream_id)
        self._state.tracked_discard(stream_id)
        replacements = self._state.tracked_not_in_answer()
        if replacements.size:
            # Step 3: promote the highest-ranked tracked non-answer object.
            best = min(
                (int(i) for i in replacements),
                key=lambda i: (self._known_distance(i), i),
            )
            self._state.answer_add(best)
            return
        # Step 4: X = A with only k-1 members left; expand the search
        # region over the stale ranking until two candidates surface.
        if self.expand_search and self._expand_search(server):
            return
        # Step 5: nothing found anywhere — start over.
        self.reinitializations += 1
        self.initialize(server)

    def _expand_search(self, server: "Server") -> bool:
        """Case 2 Step 4: probe outward by stale rank; True on success."""
        assert self._state is not None
        self.expansions += 1
        order = self._rank.order_ids()
        candidates = order[~self._state.answer_mask[order]].tolist()
        distance = self.query.distance
        probed: dict = {}
        for candidate in candidates:
            probed[candidate] = server.probe(candidate)
            # R' is bounded by the candidate's (now fresh) distance; U is
            # every probed stream currently within R'.
            radius = distance(probed[candidate])
            u_set = {i for i, v in probed.items() if distance(v) <= radius}
            if len(u_set) >= 2:
                ranked_u = sorted(
                    u_set, key=lambda i: (distance(probed[i]), i)
                )
                self._state.answer_add(ranked_u[0])
                keep = ranked_u[: self.tolerance.r + 1]
                self._state.tracked_replace(
                    set(self._state.answer_snapshot()) | set(keep)
                )
                self._deploy_bound(server, fresh_ids=probed)
                return True
        return False

    def _case_enters(self, server: "Server", stream_id: int) -> None:
        """Case 3: an untracked object entered R."""
        assert self._state is not None
        if self._state.tracked_size < self.eps:
            # Step 6: room to spare — track it; R still holds <= eps.
            self._state.tracked_add(stream_id)
            return
        # Step 7: R now holds eps + 1 objects — re-evaluate it from fresh
        # values of the tracked set (everyone else is provably farther).
        members = [int(i) for i in self._state.tracked_ids()]
        fresh_ids = {stream_id}
        for member in members:
            server.probe(member)
            fresh_ids.add(member)
        pool = members + [stream_id]
        ranked = sorted(pool, key=lambda i: (self._known_distance(i), i))
        self._state.answer_replace(ranked[: self.query.k])
        self._state.tracked_replace(ranked[: self.eps])
        self._deploy_bound(server, fresh_ids=fresh_ids)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def tracked(self) -> frozenset[int]:
        """The server's ``X(t)`` — objects believed inside ``R``."""
        if self._state is None:
            return frozenset()
        return self._state.tracked_snapshot()

    @property
    def region(self):
        """The currently deployed bound ``R`` (a bound value)."""
        return self._region
