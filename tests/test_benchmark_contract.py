"""The benchmark in perfbench/ traces the package by rebinding named entry
points; every one of them must still exist under the name it uses."""

import importlib
from pathlib import Path

from degenheat import cli, criteria, dynamics, lab, semigroup

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_entry_points_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    points = spans.entry_points(cli, lab, dynamics, semigroup, criteria)
    assert points
    for owner, attr, name, _ in points:
        assert callable(getattr(owner, attr, None)), \
            f"span {name}: {owner.__name__}.{attr} is not callable"
