"""The benchmark's four workloads, driven through the public ``repro`` API.

Each workload has three phases, run once per round in a fresh process
(see ``round.py``):

- ``setup(seed, rnd, quick)`` builds round ``rnd``'s inputs from the
  run's seed and returns a state dict; the time from process start to
  its return is ``setup_s``;
- ``work(state)`` is the timed region; it returns a :class:`Work`;
- ``check(state, work)`` runs the correctness gate outside the timed
  region and returns a :class:`Check`.

Workloads whose results depend on the seed draw fresh inputs in every
round, so one run averages over many inputs.  Every round reports a
digest per unit of output (a suite, a fuzz case); a unit that appears
in two rounds must have the same digest in both.  Rounds of the
seed-dependent workloads re-run one unit of the previous round in
their check so that this comparison crosses processes.

``repro`` is imported inside the phases, never at module level.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

__all__ = ["WORKLOADS", "Work", "Check"]

HERE = Path(__file__).resolve().parent

#: The paper's Tbl 4a programs.  switch_lite runs uncapped.
TBL4A = (("middleblock", "v1model"), ("up4", "v1model"),
         ("switch_lite", "tna"))
#: Programs with 128-bit fields or meters: the lane engine refuses them
#: and replay falls back to the scalar simulators.
SCALAR_FAMILIES = (("middleblock", "v1model"), ("up4", "v1model"))
#: One program per lane-compiled family.
LANE_FAMILIES = (("fig1a", "v1model"), ("match_kinds", "v1model"),
                 ("tna_forward", "tna"), ("ebpf_filter", "ebpf_model"))
FUZZ_TARGETS = ("v1model", "ebpf_model", "tna", "t2na")


@dataclass
class Work:
    """What the timed region produced."""

    wall_s: float
    latencies_ms: list            # one per item (test, suite, case, pass)
    coverage_pct: float
    digests: dict                 # unit name -> digest of its output
    rate_items: int               # numerator of the printed rate
    rate_unit: str


@dataclass
class Check:
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)  # units re-run here

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _draw(kind: str, seed: int, rnd: int, n: int) -> list[int]:
    """``n`` input seeds for round ``rnd`` of a run with ``seed``."""
    rng = random.Random(f"{kind}|{seed}|{rnd}")
    return [rng.randrange(1, 2**31) for _ in range(n)]


def _replay_gate(check, program, tests, seed):
    """Every test passes on its stock simulator, and the lane engine
    classifies every test as the scalar simulator does."""
    from repro.testback.runner import run_suite

    _, scalar = run_suite(tests, program, seed=seed, batch=False)
    _, batch = run_suite(tests, program, seed=seed, batch=True)
    name = program.source_name
    for test, ref, got in zip(tests, scalar, batch):
        check.expect(ref.passed,
                     f"{name} test {test.test_id}: {ref.kind} {ref.detail}")
        check.expect(got.kind == ref.kind,
                     f"{name} test {test.test_id}: batch {got.kind} "
                     f"!= scalar {ref.kind}")


# -- oracle workloads ----------------------------------------------------

class _Oracle:
    """Test generation over a list of (program, target, config) units,
    each streamed with ``iter_tests`` and rendered to STF."""

    #: Latency item: "test" (gap between streamed tests) or "suite"
    #: (one unit's generation, start to rendered STF).
    item = "test"

    def units(self, seed, rnd, quick):
        raise NotImplementedError

    def setup(self, seed, rnd, quick):
        from repro import load_program
        from repro.targets import get_target

        programs = {}
        units = []
        for name, target, config in self.units(seed, rnd, quick):
            if name not in programs:
                programs[name] = load_program(name)
            units.append((programs[name], get_target(target), config))
        return {"units": units, "seed": seed, "rnd": rnd, "quick": quick}

    @staticmethod
    def _generate(program, target, config, gaps=None):
        """One unit: stream the suite and render it to STF.  Returns
        ``(gen, tests, stf_text)``; ``gaps`` collects the ms before each
        streamed test."""
        from repro import TestGen
        from repro.testback import get_backend

        gen = TestGen(program, target=target, config=config)
        tests = []
        clock = time.perf_counter
        last = clock()
        for test in gen.iter_tests():
            if gaps is not None:
                now = clock()
                gaps.append((now - last) * 1000.0)
                last = now
            tests.append(test)
        return gen, tests, get_backend("stf").render_suite(tests)

    @staticmethod
    def _unit_name(program, config):
        return f"{program.source_name}@{config.seed}"

    def work(self, state):
        clock = time.perf_counter
        wall = 0.0
        latencies: list = []
        coverages, digests, suites = [], {}, []
        gaps = latencies if self.item == "test" else None
        for program, target, config in state["units"]:
            t0 = clock()
            gen, tests, text = self._generate(program, target, config, gaps)
            dt = clock() - t0
            wall += dt
            if self.item == "suite":
                latencies.append(dt * 1000.0)
            coverages.append(gen.last_run.coverage.statement_percent)
            digests[self._unit_name(program, config)] = _digest(text)
            suites.append((program, tests))
        state["suites"] = suites
        tests = sum(len(t) for _p, t in suites)
        return Work(wall_s=wall, latencies_ms=latencies,
                    coverage_pct=sum(coverages) / len(coverages),
                    digests=digests, rate_items=tests, rate_unit="tests/s")

    def check(self, state, work):
        check = Check()
        for program, tests in state["suites"]:
            check.expect(bool(tests), f"{program.source_name}: empty suite")
            _replay_gate(check, program, tests, state["seed"])
        return check


class Tbl4aExhaustive(_Oracle):
    """Inputs do not depend on the seed: DFS suites are seed-free, so
    every round repeats the same three units."""

    name = "tbl4a-exhaustive"
    tail = 90

    def units(self, seed, rnd, quick):
        from repro import TestGenConfig

        config = TestGenConfig(seed=seed, max_tests=16 if quick else None)
        return [(name, target, config) for name, target in TBL4A]


class CoverageGreedy(_Oracle):
    name = "coverage-greedy"
    item = "suite"
    tail = 85
    seeds_per_round = 6

    def units(self, seed, rnd, quick):
        from repro import TestGenConfig

        n = 1 if quick else self.seeds_per_round
        return [(name, target,
                 TestGenConfig(seed=s, strategy="greedy", coverage_goal=90))
                for s in _draw(self.name, seed, rnd, n)
                for name, target in SCALAR_FAMILIES]

    def check(self, state, work):
        check = super().check(state, work)
        if state["rnd"] > 0:
            # Regenerate the previous round's first unit in this process.
            prev = self.setup(state["seed"], state["rnd"] - 1,
                              state["quick"])["units"][0]
            _gen, _tests, text = self._generate(*prev)
            check.digests[self._unit_name(prev[0], prev[2])] = _digest(text)
        return check


# -- fuzz ----------------------------------------------------------------

class FuzzSteered:
    name = "fuzz-steered"
    tail = 85

    def setup(self, seed, rnd, quick):
        from repro.fuzz import FuzzCampaignConfig

        config = FuzzCampaignConfig(
            seed=_draw(self.name, seed, rnd, 1)[0],
            count=8 if quick else 160, targets=FUZZ_TARGETS,
            corpus_dir=str(HERE / "out" / "fuzz-corpus"), jobs=1,
            max_tests=8, steer=True, steer_batch=1, shrink=False)
        return {"config": config, "seed": seed, "rnd": rnd, "quick": quick}

    @staticmethod
    def _case_digest(case):
        return _digest(f"{case.classification}|{case.num_tests}|"
                       f"{case.coverage:.6f}")

    def work(self, state):
        from repro.fuzz import run_fuzz_campaign

        clock = time.perf_counter
        gaps: list = []

        def on_case(_case):
            nonlocal last
            now = clock()
            gaps.append((now - last) * 1000.0)
            last = now

        t0 = last = clock()
        summary = run_fuzz_campaign(state["config"], on_case=on_case)
        wall = clock() - t0
        state["summary"] = summary
        exercised = [c.coverage for c in summary.cases if c.num_tests > 0]
        return Work(wall_s=wall, latencies_ms=gaps,
                    coverage_pct=sum(exercised) / max(1, len(exercised)),
                    digests={c.name: self._case_digest(c)
                             for c in summary.cases},
                    rate_items=len(summary.cases), rate_unit="cases/s")

    def check(self, state, work):
        from repro.fuzz.harness import run_case

        check = Check()
        summary = state["summary"]
        config = state["config"]
        check.expect(len(summary.cases) == config.count,
                     f"{len(summary.cases)} of {config.count} cases ran")
        for case in summary.cases:
            check.expect(case.passed,
                         f"{case.name}: {case.classification} {case.detail}")
        if state["rnd"] > 0:
            # The previous round's first case, generated before any
            # steering, replayed here on the stock scalar simulator.
            prev = self.setup(state["seed"], state["rnd"] - 1,
                              state["quick"])["config"]
            case = run_case(prev.seed, prev.targets[0],
                            max_tests=prev.max_tests, batch_replay=False)
            check.digests[case.name] = self._case_digest(case)
        return check


# -- replay --------------------------------------------------------------

class ReplayValidate:
    name = "replay-validate"
    tail = 80

    def setup(self, seed, rnd, quick):
        from repro import TestGen, TestGenConfig, load_program
        from repro.targets import get_target
        from repro.testback import get_backend
        from repro.testback.runner import run_suite

        rng = random.Random(f"{self.name}|{seed}|{rnd}")
        tile = 64 if quick else 512
        suites, digests, coverages = [], {}, []
        for name, target in LANE_FAMILIES + SCALAR_FAMILIES:
            program = load_program(name)
            result = TestGen(program, target=get_target(target),
                             config=TestGenConfig(seed=seed)).run()
            tests = list(result.tests)
            digests[name] = _digest(get_backend("stf").render_suite(tests))
            coverages.append(result.statement_coverage)
            if (name, target) in LANE_FAMILIES:
                # Small programs have a handful of paths; a seeded draw
                # tiles each suite to a campaign-sized packet batch.
                tests = [rng.choice(tests) for _ in range(tile)]
            suites.append((program, tests))
        # One untimed pass compiles the lane programs: a validation run
        # pays that once per program, not once per pass.
        for program, tests in suites:
            run_suite(tests, program, seed=seed, batch=True)
        return {"suites": suites, "seed": seed, "passes": 5 if quick else 100,
                "coverage": sum(coverages) / len(coverages),
                "digests": digests}

    def work(self, state):
        from repro.testback.runner import run_suite

        clock = time.perf_counter
        seed = state["seed"]
        suites = state["suites"]
        gaps: list = []
        passed = []
        t0 = clock()
        for _ in range(state["passes"]):
            start = clock()
            ok = 0
            for program, tests in suites:
                ok += run_suite(tests, program, seed=seed, batch=True)[0]
            passed.append(ok)
            gaps.append((clock() - start) * 1000.0)
        wall = clock() - t0
        state["passed"] = passed
        packets = sum(len(tests) for _p, tests in suites)
        state["packets"] = packets
        return Work(wall_s=wall, latencies_ms=gaps,
                    coverage_pct=state["coverage"], digests=state["digests"],
                    rate_items=packets * len(gaps), rate_unit="packets/s")

    def check(self, state, work):
        check = Check()
        for i, ok in enumerate(state["passed"]):
            check.expect(ok == state["packets"],
                         f"pass {i}: {ok}/{state['packets']} packets passed")
        for program, tests in state["suites"]:
            _replay_gate(check, program, tests, state["seed"])
        return check


WORKLOADS = {w.name: w for w in (Tbl4aExhaustive(), CoverageGreedy(),
                                 FuzzSteered(), ReplayValidate())}
