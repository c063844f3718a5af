"""The one place this benchmark writes: ``.bench_e2e_tmp/`` in the checkout.

Durable run directories and the report mode's per-child detail files
live here; the directory is gitignored and removed when its last user
exits.
"""

from __future__ import annotations

import shutil
import tempfile
from contextlib import contextmanager
from pathlib import Path

from benchmarks.e2e import REPO_ROOT

SCRATCH_ROOT = REPO_ROOT / ".bench_e2e_tmp"


@contextmanager
def scratch_dir(prefix: str):
    """A fresh directory under the scratch root, removed on exit."""
    SCRATCH_ROOT.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=prefix, dir=SCRATCH_ROOT))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            SCRATCH_ROOT.rmdir()
        except OSError:
            pass  # another invocation's directory is still there
