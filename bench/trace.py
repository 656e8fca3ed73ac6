"""Out-of-program layer tracing for the benchmark.

The benchmark measures its end-to-end metrics untraced.  A traced
round installs the wrappers in :data:`WRAPS` around the public entry
points of each ``repro`` layer, records one span per wrapped call, and
derives the per-layer metrics from the spans when the round ends.
Nothing under ``src/`` changes: every name is patched where its caller
looks it up (``repro.symex.explorer.step``, not
``repro.symex.stepper.step``), and :meth:`Tracer.uninstall` restores
every original.

A span is ``[name, start, end, parent, tag]``: ``parent`` is the index
of the enclosing span (``-1`` for none) and ``tag`` is the wrapper's
verdict on the call's result (hit or miss) where the table asks for
one.  Spans nest strictly because the program is single-threaded, so a
span's *self time* is its duration minus its direct children's
durations, and a root's *unattributed* residual is its duration minus
the outermost layer spans inside it.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager
from pathlib import Path

__all__ = ["WRAPS", "LAYERS", "Tracer", "self_times", "unattributed",
           "layer_metrics"]

#: Span-name prefixes that belong to a program layer.  Spans the
#: benchmark opens itself are named ``bench.*`` and are transparent
#: to the layer arithmetic.
LAYERS = ("frontend", "ir", "symex", "smt", "testback", "interp", "fuzz")


def _canonical(solver, *args, **kwargs):
    return solver.cache is not None


def _sat_level(solver, *args, **kwargs):
    return solver.cache is None


def _found(result):
    return result is not None


#: (module, attribute path, span name, when, tag).  ``when(*args)``
#: decides whether a call gets a span at all; ``tag(result)`` is stored
#: on the span.  ``SatSolver.add_clause`` is deliberately absent: it
#: runs about a million times per fuzz round, and its cost shows as the
#: self time of ``Solver.add``.
WRAPS = (
    ("repro.ir.lower", "parse_program", "frontend.parse", None, None),
    ("repro.ir", "lower_source", "ir.lower", None, None),
    ("repro.ir", "run_midend", "ir.midend", None, None),
    ("repro.symex.explorer", "step", "symex.step", None, None),
    ("repro.symex.explorer", "Explorer._pick", "symex.pick", None, None),
    ("repro.symex.explorer", "Explorer._feasible", "symex.feasibility",
     None, None),
    ("repro.symex.explorer", "Explorer._finalize", "symex.finalize",
     None, None),
    ("repro.symex.explorer", "resolve_concolics", "symex.concolic",
     None, None),
    ("repro.symex.explorer", "Explorer._choose_pkt_len", "symex.pkt_len",
     None, None),
    # Canonical checks only: the throwaway sub-solver inside
    # SolveCache.solve also calls Solver.check, and a span there would
    # hide SatSolver.solve from its SolveCache.solve parent.
    ("repro.smt.solver", "Solver.check", "smt.canonical", _canonical, None),
    ("repro.smt.solver", "Solver.try_elide_path", "smt.elide", None, _found),
    ("repro.smt.solver", "Solver.check_path", "smt.incremental", None, None),
    ("repro.smt.solver", "Solver.add", "smt.add", None, None),
    ("repro.smt.solver", "Solver.model", "smt.model", _sat_level, None),
    ("repro.smt.cache", "SolveCache.key_for", "smt.key", None, None),
    ("repro.smt.cache", "SolveCache.peek", "smt.peek", None, _found),
    ("repro.smt.cache", "SolveCache.lookup", "smt.lookup", None, _found),
    ("repro.smt.cache", "SolveCache.solve", "smt.solve", None, None),
    ("repro.smt.sat", "SatSolver.solve", "smt.sat", None, None),
    ("repro.testback.stf", "StfBackend.render_suite", "testback.emit",
     None, None),
    ("repro.testback.runner", "run_suite", "testback.replay", None, None),
    ("repro.testback.runner", "evaluate_test", "testback.judge", None, None),
    ("repro.interp.compile", "compile_cached", "interp.compile", None, None),
    ("repro.interp.batch", "BatchSimulator.run_cases", "interp.lanes",
     None, None),
    ("repro.testback.runner", "make_simulator", "interp.scalar_setup",
     None, None),
    ("repro.interp.bmv2", "Bmv2Simulator.process", "interp.scalar",
     None, None),
    ("repro.interp.tofino_model", "TofinoSimulator.process",
     "interp.scalar", None, None),
    ("repro.interp.ebpf_vm", "EbpfSimulator.process", "interp.scalar",
     None, None),
    ("repro.fuzz.campaign", "generate_spec", "fuzz.generate", None, None),
    ("repro.fuzz.generator", "ProgramSpec.render", "fuzz.generate",
     None, None),
)


class Tracer:
    """Span recorder plus the installed wrappers.

    Spans stay in memory until :meth:`dump`; :meth:`span` opens the
    benchmark's own (``bench.*``) spans around its phases.
    """

    def __init__(self):
        self.spans: list = []
        self._stack = [-1]
        self._installed: list = []

    # -- recording -----------------------------------------------------

    def _wrap(self, fn, name, when, tag):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if when is not None and not when(*args, **kwargs):
                return fn(*args, **kwargs)
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1], None]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if tag is not None:
                span[4] = tag(result)
            return result

        return functools.update_wrapper(traced, fn)

    @contextmanager
    def span(self, name: str):
        """A ``bench.*`` span around the enclosed block."""
        spans, stack = self.spans, self._stack
        span = [name, 0.0, 0.0, stack[-1], None]
        stack.append(len(spans))
        spans.append(span)
        span[1] = time.perf_counter()
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            stack.pop()

    # -- installation --------------------------------------------------

    def install(self, wraps=WRAPS) -> None:
        for module_name, path, name, when, tag in wraps:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, when, tag))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------

    def dump(self, path) -> None:
        """Write the spans as ``{"names": [...], "spans": [[name index,
        start, end, parent, tag], ...]}`` with times in seconds from
        the first span's start."""
        names: dict[str, int] = {}
        base = self.spans[0][1] if self.spans else 0.0
        rows = [[names.setdefault(n, len(names)), round(s - base, 7),
                 round(e - base, 7), p, t]
                for n, s, e, p, t in self.spans]
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"names": list(names), "spans": rows},
                                   separators=(",", ":")))


# -- arithmetic --------------------------------------------------------

def _is_layer(name: str) -> bool:
    return name.split(".", 1)[0] in LAYERS


def self_times(spans) -> list[float]:
    """Per-span self time: duration minus direct children's durations."""
    out = [end - start for _n, start, end, _p, _t in spans]
    for _n, start, end, parent, _t in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def unattributed(spans, root: int) -> float:
    """Seconds of span ``root`` that no layer span covers.

    The covered part is the sum of the *outermost* layer spans below
    ``root``: layer spans whose chain of ancestors up to ``root``
    holds no other layer span.  ``bench.*`` spans in between are
    transparent.
    """
    # Spans are appended in start order, so a parent's index is always
    # smaller than its children's; one forward pass settles "is inside
    # root" and "has a layer ancestor below root" for every span.
    n = len(spans)
    inside = [False] * n
    shadowed = [False] * n
    inside[root] = True
    covered = 0.0
    for i in range(root + 1, n):
        name, start, end, parent, _t = spans[i]
        if parent < 0 or not inside[parent]:
            continue
        inside[i] = True
        shadowed[i] = shadowed[parent] or (parent != root
                                           and _is_layer(spans[parent][0]))
        if _is_layer(name) and not shadowed[i]:
            covered += end - start
    _n, start, end, _p, _t = spans[root]
    return (end - start) - covered


def layer_metrics(spans, root: int) -> dict[str, float]:
    """The ``per_layer`` metrics of ``BENCHMARK.json``, in its order,
    from one traced round's spans: all but ``trace.overhead_frac``,
    which needs an untraced round.

    Layer times cover every span in the trace; ``root`` is the span
    whose unattributed share is reported.
    """
    total: dict[str, float] = {}
    own: dict[str, float] = {}       # self time
    calls: dict[str, int] = {}
    tagged: dict[str, int] = {}
    under: dict[tuple[str, str], float] = {}
    under_calls: dict[tuple[str, str], int] = {}
    for (name, start, end, parent, tag), self_s in zip(spans,
                                                       self_times(spans)):
        pair = (name, spans[parent][0] if parent >= 0 else "")
        total[name] = total.get(name, 0.0) + end - start
        own[name] = own.get(name, 0.0) + self_s
        calls[name] = calls.get(name, 0) + 1
        tagged[name] = tagged.get(name, 0) + bool(tag)
        under[pair] = under.get(pair, 0.0) + end - start
        under_calls[pair] = under_calls.get(pair, 0) + 1

    def t(name):
        return total.get(name, 0.0)

    def u(name, parent):
        return under.get((name, parent), 0.0)

    def frac(num, den):
        return num / den if den else 0.0

    misses = calls.get("smt.solve", 0)
    load_cnf = u("smt.add", "smt.solve")
    root_dur = spans[root][2] - spans[root][1]
    return {
        "frontend.parse_s": t("frontend.parse"),
        "frontend.parse_calls": calls.get("frontend.parse", 0),
        "ir.lower_s": own.get("ir.lower", 0.0),
        "ir.midend_s": t("ir.midend"),
        "symex.step_s": t("symex.step"),
        "symex.steps": calls.get("symex.step", 0),
        "symex.pick_s": t("symex.pick"),
        "symex.feasibility_s": t("symex.feasibility"),
        "symex.feasibility_calls": calls.get("symex.feasibility", 0),
        "symex.finalize_s": t("symex.finalize"),
        "symex.concolic_s": t("symex.concolic"),
        "symex.pkt_len_s": t("symex.pkt_len"),
        "symex.finalize_pin_s": u("smt.canonical", "symex.finalize"),
        "symex.finalize_other_s": own.get("symex.finalize", 0.0),
        "smt.elide_s": t("smt.elide"),
        "smt.elide_answer_frac": frac(tagged.get("smt.elide", 0),
                                      calls.get("smt.elide", 0)),
        "smt.peek_s": (u("smt.key", "symex.feasibility")
                       + u("smt.peek", "symex.feasibility")),
        "smt.peek_answer_frac": frac(
            tagged.get("smt.peek", 0),
            under_calls.get(("smt.peek", "symex.feasibility"), 0)),
        "smt.incremental_s": t("smt.incremental"),
        "smt.incremental_calls": calls.get("smt.incremental", 0),
        "smt.canonical_checks": calls.get("smt.lookup", 0),
        "smt.canonical_hit_frac": frac(tagged.get("smt.lookup", 0),
                                       calls.get("smt.lookup", 0)),
        "smt.canonical_key_s": u("smt.key", "smt.canonical"),
        "smt.canonical_misses": misses,
        "smt.load_cnf_s": load_cnf,
        "smt.load_cnf_ms_per_miss": frac(load_cnf * 1000.0, misses),
        "smt.sat_search_s": u("smt.sat", "smt.solve"),
        "smt.model_s": u("smt.model", "smt.solve"),
        "testback.replay_s": t("testback.replay"),
        "testback.judge_s": t("testback.judge"),
        "interp.replay_s": sum(d for (n, p), d in under.items()
                               if n.startswith("interp.")
                               and not p.startswith("interp.")),
        "interp.compile_s": t("interp.compile"),
        "interp.lanes_s": own.get("interp.lanes", 0.0),
        "interp.scalar_fallback_packets": under_calls.get(
            ("interp.scalar", "interp.lanes"), 0),
        "trace.unattributed_frac": frac(unattributed(spans, root), root_dur),
    }
