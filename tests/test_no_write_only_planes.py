"""Every plane the state table allocates has a reader in ``src/``.

A *plane* is a column :class:`~repro.state.table.StreamStateTable`
allocates, eagerly in ``__init__`` or lazily in an ``_ensure_*``
method.  A plane that ``src/`` only ever writes costs its bytes per row
in every table and every snapshot, and a scatter per write, for a fact
nothing reads (DESIGN.md §21).  So each plane must be *loaded* somewhere
under ``src/`` — as an attribute read, by name — and these do not count:

* the target of a subscript store (``table.plane[rows] = ...``): a write;
* anything in :class:`~repro.state.sharding.StateShardView`, whose only
  use of a plane is to alias the parent's;
* ``__getstate__``, which copies every plane alike.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
TABLE = SRC / "repro" / "state" / "table.py"


def _planes() -> set[str]:
    """The attributes ``StreamStateTable`` assigns an allocation to:
    ``self.<plane> = self._alloc(...)`` or ``= np.<allocator>(...)``."""
    tree = ast.parse(TABLE.read_text())
    table = next(
        node
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "StreamStateTable"
    )
    planes = set()
    for node in ast.walk(table):
        if not (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)):
            continue
        func = node.value.func
        allocates = isinstance(func, ast.Attribute) and (
            func.attr == "_alloc"
            or (isinstance(func.value, ast.Name) and func.value.id == "np")
        )
        for target in node.targets:
            if (
                allocates
                and isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                planes.add(target.attr)
    return planes


def _loaded_names(root: Path = SRC) -> set[str]:
    """Attribute names read anywhere under *root*, but for the
    exclusions the module docstring lists."""
    loaded = set()
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text())
        skipped = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
                skipped.add(id(node.value))
            elif (
                isinstance(node, ast.ClassDef) and node.name == "StateShardView"
            ) or (
                isinstance(node, ast.FunctionDef) and node.name == "__getstate__"
            ):
                skipped.update(id(inner) for inner in ast.walk(node))
        loaded.update(
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and id(node) not in skipped
        )
    return loaded


def test_the_plane_list_is_found():
    """The scan finds eager, lazy and non-``_alloc`` planes alike, so an
    empty list cannot pass the guard below vacuously."""
    assert {"values", "answer_mask", "points", "geo_lower", "containers"} <= _planes()


def test_the_exclusions_are_the_only_ones(tmp_path):
    """A store, the shard view's alias and ``__getstate__`` do not read
    a plane; any other load does, so the guard below can fail."""
    (tmp_path / "writes.py").write_text(
        "def record(table, rows, x):\n"
        "    table.ghost[rows] = x\n"
        "class StateShardView:\n"
        "    def __init__(self, parent):\n"
        "        self.ghost = parent.ghost\n"
        "class Table:\n"
        "    def __getstate__(self):\n"
        "        return {'ghost': self.ghost}\n"
    )
    assert "ghost" not in _loaded_names(tmp_path)
    (tmp_path / "reads.py").write_text(
        "def peek(table, rows):\n"
        "    return table.ghost[rows]\n"
    )
    assert "ghost" in _loaded_names(tmp_path)


def test_every_plane_has_a_reader():
    unread = sorted(_planes() - _loaded_names())
    assert unread == [], (
        f"state-table planes that src/ only writes: {unread}; read them "
        "where they are needed, or stop allocating them"
    )
