"""End-to-end smoke run of ``bench/run.py --quick`` (about a minute)."""

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
ORACLE_WORKLOADS = ("tbl4a-exhaustive", "coverage-greedy", "fuzz-steered")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def run_quick(out, trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--quick", "--seed", "3",
         "--trace", str(trace), "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines(), json.loads(proc.stdout.splitlines()[-1])


def test_spec_names_are_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)


def test_run_length_belongs_to_the_benchmark():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--quick", "--seconds",
         str(SPEC["run_seconds"] + 1)],
        cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "--seconds must be" in proc.stderr


def test_quick_run_emits_every_metric_and_checks_outputs(tmp_path):
    lines, result = run_quick(tmp_path, trace=0)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    for w in SPEC["workloads"]:
        for m in SPEC["end_to_end"]:
            got = result["metrics"][f"{w['name']}/{m['name']}"]
            assert got["unit"] == m["unit"]
            assert got["value"] > 0
            assert any(line.split()[:2] == [w["name"], m["name"]]
                       and line.split()[-1] == m["unit"] for line in lines)
    saved = json.loads(next(tmp_path.glob("run-*.json")).read_text())
    prov = saved["provenance"]
    assert {"commit", "dirty", "python", "platform", "nproc",
            "seed"} <= set(prov)
    assert saved["workloads"]["fuzz-steered"]["rounds"]


def test_quick_trace_attributes_the_oracle_workloads(tmp_path):
    _lines, result = run_quick(tmp_path, trace=1)
    assert result["correct"]
    for w in SPEC["workloads"]:
        for m in SPEC["per_layer"]:
            assert result["metrics"][f"{w['name']}/{m['name']}"]["unit"] \
                == m["unit"]
        assert (tmp_path / f"trace-{w['name']}.json").is_file()
    for name in ORACLE_WORKLOADS:
        metrics = result["metrics"]
        assert metrics[f"{name}/trace.unattributed_frac"]["value"] < 0.10
        assert metrics[f"{name}/smt.load_cnf_s"]["value"] > 0
        assert metrics[f"{name}/smt.sat_search_s"]["value"] > 0


def test_without_the_program_the_run_fails_without_a_result(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for path in (ROOT / "bench").glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "coverage-greedy",
         "--quick"], cwd=tmp_path, capture_output=True, text=True,
        timeout=120)
    assert proc.returncode not in (0, None)
    assert '"correct"' not in proc.stdout

