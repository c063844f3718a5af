"""Durability tier: journal, disk-backed planes, crash recovery.

Three cooperating parts (DESIGN.md §11):

* :mod:`repro.durability.journal` — an append-only, CRC-framed binary
  log of trace events and protocol messages, charged at exactly the
  points the :class:`~repro.network.accounting.MessageLedger` is.
* ``StreamStateTable(storage="mmap")`` — dense planes as ``np.memmap``
  files under a run directory (:mod:`repro.state.table`), so n=1M+
  populations fit without RAM-resident planes.
* :mod:`repro.durability.recovery` — periodic plane snapshots plus
  journal replay through the existing batched-replay machinery
  reconstruct a crashed run with a byte-identical message ledger.

The api layer compiles ``Deployment(durable=DurabilityPolicy(...))``
down to :func:`execute_durable_streams`; it and :func:`resume_run`
return the same :class:`~repro.api.report.RunReport` every other run
does.
"""

from repro.durability.journal import (
    Journal,
    JournaledLedger,
    JournalScan,
    load_journal,
    scan_journal,
)
from repro.durability.policy import DurabilityPolicy
from repro.durability.recovery import RecoveredRun, recover_run, resume_run
from repro.durability.runner import execute_durable_streams

__all__ = [
    "DurabilityPolicy",
    "Journal",
    "JournaledLedger",
    "JournalScan",
    "RecoveredRun",
    "execute_durable_streams",
    "load_journal",
    "recover_run",
    "resume_run",
    "scan_journal",
]
