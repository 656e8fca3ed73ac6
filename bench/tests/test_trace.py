"""Span arithmetic and wrapper installation of ``bench/trace.py``."""

import json
import sys
import types
from pathlib import Path

import pytest

from bench.trace import Tracer, layer_metrics, self_times, unattributed

SPEC = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def span(name, start, end, parent):
    return [name, start, end, parent, None]


# bench.work [0, 10]
#   symex.finalize [1, 7]
#     smt.canonical [2, 6]
#       smt.solve [3, 6]
#         smt.add [3, 4]        load_cnf
#         smt.sat [4, 5.5]      search
#   bench.program [7, 9]        transparent
#     symex.step [7, 8]
SPANS = [
    span("bench.work", 0.0, 10.0, -1),
    span("symex.finalize", 1.0, 7.0, 0),
    span("smt.canonical", 2.0, 6.0, 1),
    span("smt.solve", 3.0, 6.0, 2),
    span("smt.add", 3.0, 4.0, 3),
    span("smt.sat", 4.0, 5.5, 3),
    span("bench.program", 7.0, 9.0, 0),
    span("symex.step", 7.0, 8.0, 6),
]


def test_self_time_subtracts_direct_children_only():
    assert self_times(SPANS) == pytest.approx(
        [10 - 6 - 2, 6 - 4, 4 - 3, 3 - 1 - 1.5, 1, 1.5, 2 - 1, 1])


def test_unattributed_counts_outermost_layer_spans_once():
    # Covered: finalize (6) + step (1, through the transparent span).
    assert unattributed(SPANS, 0) == pytest.approx(3.0)
    # Rooted lower down, the root's own layer span covers nothing.
    assert unattributed(SPANS, 1) == pytest.approx(6.0 - 4.0)


def test_layer_metrics_split_by_parent():
    m = layer_metrics(SPANS, 0)
    # BENCHMARK.json lists the metrics in report order; run.py adds
    # trace.overhead_frac from the untraced rounds.
    assert list(m) + ["trace.overhead_frac"] == [
        metric["name"] for metric in SPEC["per_layer"]]
    assert m["symex.finalize_s"] == pytest.approx(6.0)
    assert m["symex.finalize_pin_s"] == pytest.approx(4.0)
    assert m["symex.finalize_other_s"] == pytest.approx(2.0)
    assert m["smt.load_cnf_s"] == pytest.approx(1.0)
    assert m["smt.sat_search_s"] == pytest.approx(1.5)
    assert m["smt.canonical_misses"] == 1
    assert m["smt.load_cnf_ms_per_miss"] == pytest.approx(1000.0)
    assert m["symex.steps"] == 1
    assert m["trace.unattributed_frac"] == pytest.approx(0.3)


@pytest.fixture
def toy_module(monkeypatch):
    mod = types.ModuleType("toy_layer")
    exec(
        "class Solver:\n"
        "    def check(self, x):\n"
        "        return helper(x) + 1\n"
        "\n"
        "def helper(x):\n"
        "    if x < 0:\n"
        "        raise ValueError(x)\n"
        "    return x * 2\n",
        mod.__dict__)
    monkeypatch.setitem(sys.modules, "toy_layer", mod)
    return mod


def test_install_records_nesting_and_uninstall_restores(toy_module):
    check, helper = toy_module.Solver.__dict__["check"], toy_module.helper
    tracer = Tracer()
    tracer.install([
        ("toy_layer", "Solver.check", "smt.check", None, None),
        # Looked up as a module global by Solver.check.
        ("toy_layer", "helper", "smt.helper", None, lambda r: r > 2),
    ])
    with tracer.span("bench.work"):
        assert toy_module.Solver().check(3) == 7
        with pytest.raises(ValueError):
            toy_module.helper(-1)
    tracer.uninstall()
    assert toy_module.Solver.__dict__["check"] is check
    assert toy_module.helper is helper
    names = [(s[0], s[3], s[4]) for s in tracer.spans]
    assert names == [("bench.work", -1, None), ("smt.check", 0, None),
                     ("smt.helper", 1, True), ("smt.helper", 0, None)]
    assert all(s[1] <= s[2] for s in tracer.spans)


def test_when_predicate_skips_spans(toy_module):
    tracer = Tracer()
    tracer.install([("toy_layer", "helper", "smt.helper",
                     lambda x: x > 10, None)])
    try:
        toy_module.helper(1)
        toy_module.helper(11)
    finally:
        tracer.uninstall()
    assert [s[0] for s in tracer.spans] == ["smt.helper"]
