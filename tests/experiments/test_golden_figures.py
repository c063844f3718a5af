"""The paper's figures at ``--profile default``, pinned byte for byte.

``golden_default.txt`` is ``python -m repro.experiments all --profile
default`` without its wall-clock line.  Every table is a function of the
seed only, so a trace generator, replay path or protocol change that
moves one message count shows here as a diff of that figure's table.
"""

from __future__ import annotations

from pathlib import Path

from repro.experiments.__main__ import main

GOLDEN = Path(__file__).with_name("golden_default.txt")


def test_default_profile_reproduces_the_golden_tables(capsys):
    assert main(["all", "--profile", "default"]) == 0
    out = capsys.readouterr().out.splitlines(keepends=True)
    tables = "".join(line for line in out if not line.startswith("(total "))
    assert tables == GOLDEN.read_text()
