"""The payload vocabulary: what a stream value *is*, as data.

The paper's system model (Figure 3) has one server role — take a report
when a source's filter membership flips, probe, redeploy constraints —
and nothing in it depends on whether a stream value is a scalar or a
point.  Everything that *does* depend on it is named by one frozen
:class:`Vocabulary` value, and the hosts (``Server``, ``ShardedServer``,
``TransportShardedServer`` + ``ShardWorker``), the session assembler and
the engine's hosted executor are written once against it (DESIGN.md
§13).

There are exactly two instances, each defined beside the stack it
describes — ``repro.streams.vocabulary.SCALAR`` and
``repro.spatial.vocabulary.SPATIAL`` — and registered here under their
``QuerySpec.stack`` name, so the shared code resolves a vocabulary by
name and never imports a payload package.  A vocabulary is never chosen
by a user: it follows from the protocol a spec names.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

_BY_STACK: dict[str, "Vocabulary"] = {}


@dataclass(frozen=True)
class Vocabulary:
    """Everything the scalar and spatial stacks differ in.

    The four message classes take ``(stream_id, time, *payload)``
    positionally; a constraint's payload is what ``deploy`` received —
    ``lower, upper`` or ``region``, then the optional belief — so every
    host's ``deploy`` builds the message first and works from it, and
    ``deploy_many`` is ``deploy`` over the rows :attr:`constraint_columns`
    lowers a bound value to.
    """

    #: Registry key; equals ``QuerySpec.stack`` of the protocols served.
    stack: str
    # -- messages ------------------------------------------------------
    probe_request: type
    probe_reply: type
    update: type
    constraint: type
    #: Reads the payload off an update / probe-reply message.
    payload_of: Callable
    # -- population and trace ------------------------------------------
    #: ``(initial payloads, channels, id ranges) -> population``: the
    #: sources of ids ``ranges[0][0] .. ranges[-1][1]``, each range
    #: bound to its channel, as one population of planes (DESIGN.md
    #: §18, §20).
    population: Callable
    #: Trace attributes holding the initial payloads and the record
    #: payload column (``(n,)`` / ``(m,)`` scalars or ``(n, d)`` /
    #: ``(m, d)`` points).
    initial_column: str
    record_column: str
    # -- state table ---------------------------------------------------
    #: ``(table, row, constraint message)``: record a deployed
    #: constraint's payload in the table.
    record_deploy: Callable
    # -- bound lowering ------------------------------------------------
    #: ``deploy_many``'s lowering of a bound value to message payload
    #: columns: ``(stream_ids, bound, assumed_inside, silenced) -> (ids,
    #: constraint columns, belief codes)``, one constraint column per
    #: positional payload field of :attr:`constraint` (DESIGN.md §15).
    constraint_columns: Callable
    # -- checking ------------------------------------------------------
    oracle: type
    violation_error: type
    #: Which tick of each ``check_every`` window fires, modulo the
    #: window: ``0`` checks ticks 1, 1+every, ...; ``-1`` checks ticks
    #: every, 2*every, ... (recorded results pin both phases).
    check_offset: int
    # -- transport wire codec (DESIGN.md §10) --------------------------
    #: A probe batch's payload array as per-stream result values (unread
    #: since ``probe_all`` returns the array itself).
    payload_items: Callable
    #: Coordinator half of a deploy flush: frame the buffered deploys,
    #: mirror them into the table, ship them (``(coordinator) -> None``).
    flush_deploys: Callable
    #: Worker half: install one shipped batch, return its
    #: self-corrections (``(worker, local_ids, *wire, assumed, times)``).
    install_batch: Callable

    def __post_init__(self) -> None:
        if self.stack in _BY_STACK:
            raise ValueError(
                f"a vocabulary for stack {self.stack!r} is already defined"
            )
        _BY_STACK[self.stack] = self


def vocabulary_of(stack: str) -> Vocabulary:
    """The vocabulary registered for *stack* (a ``QuerySpec.stack``)."""
    try:
        return _BY_STACK[stack]
    except KeyError:
        raise LookupError(
            f"no payload vocabulary is registered for stack {stack!r}; "
            f"import the package that defines it (repro.{stack}) first"
        ) from None


class VocabularyBound:
    """A host class bound to one vocabulary by its ``stack`` name.

    The topology class itself declares the scalar binding (``stack =
    SCALAR.stack``); another stack's binding is a subclass whose body is
    one ``stack = ...`` assignment, which is what lets ``repro.server``
    name the spatial coordinators without importing ``repro.spatial``.
    """

    stack: str

    @classmethod
    def speaking(cls, stack: str) -> type:
        """This topology's class bound to *stack*."""
        for klass in (cls, *cls.__subclasses__()):
            if klass.stack == stack:
                return klass
        raise LookupError(f"{cls.__name__} has no binding for stack {stack!r}")
