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


def test_sweep_configs_parse(monkeypatch):
    # the benchmark writes its sweeps as CLI configs; a schema change must keep them valid
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    for alpha, p_values, rungs in workloads.SWEEPS:
        config = workloads._sweep_config(alpha, p_values, workloads.AMPLITUDES, rungs)
        spec = cli.parse_sweep_spec(config)
        assert [name for name, _ in spec.axes] == ["p", "amplitude"]
        assert [lv.horizon for lv in spec.escalation] == [h for h, _, _ in rungs]
