"""The benchmark harness's contract with the package: perfbench/ looks up
package functions by name and calls them with its own arguments, so a
renamed or removed function, or a changed call signature, breaks the
benchmark.  These tests run the lookups and one tiny traced oracle_suite
operation."""

import importlib
import math
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return (importlib.import_module("spans"),
            importlib.import_module("workloads"))


def test_every_traced_name_resolves(perfbench):
    spans, _ = perfbench
    for home, attr, name, _ in spans._TRACED:
        assert callable(getattr(home, attr, None)), (attr, name)


def test_traced_oracle_suite_parts_run_at_a_tiny_size(perfbench, tmp_path):
    spans, workloads = perfbench
    suite = workloads.OracleSuite(tmp_path, 1)
    suite.setup()
    suite.load()
    tracer = spans.Tracer()
    with tracer.operation(0):
        parts = suite._parts(64, 16, 32)
    assert len(parts) == 7
    assert all(math.isfinite(p.estimate) and p.stderr > 0 for p in parts)
    names = {span[2] for span in tracer.spans}
    assert "pathlab.change_of_measure" in names
    assert tracer.layer_metrics()
