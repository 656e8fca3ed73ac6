"""The comparison rule of ``bench/compare.py`` on synthetic samples."""

import json

import pytest

from bench.compare import main, verdict

BASE = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.02]


def test_improved_needs_pairs_wins_and_a_gap_beyond_the_spread():
    faster = [x * 0.8 for x in BASE]
    assert verdict(BASE, faster, better="lower", bound=0.05)["status"] \
        == "improved"
    # Same gain, but too few pairs or pairs not run alternately.
    assert verdict(BASE[:9], faster[:9], better="lower",
                   bound=0.05)["status"] == "unchanged"
    assert verdict(BASE, faster, better="lower", bound=0.05,
                   alternating=False)["status"] == "unchanged"


def test_two_losses_in_ten_pairs_is_no_gain():
    mostly = [x * 0.9 for x in BASE]
    mostly[0], mostly[1] = 1.5, 1.5
    assert verdict(BASE, mostly, better="lower", bound=0.2)["wins"] == 8
    assert verdict(BASE, mostly, better="lower", bound=0.2)["status"] \
        == "unchanged"


def test_worse_beyond_the_bound_in_either_direction():
    assert verdict(BASE, [x * 1.2 for x in BASE], better="lower",
                   bound=0.1)["status"] == "worse"
    assert verdict(BASE, [x * 0.8 for x in BASE], better="higher",
                   bound=0.1)["status"] == "worse"
    assert verdict(BASE, [x * 1.05 for x in BASE], better="lower",
                   bound=0.1)["status"] == "unchanged"


def test_spread_wider_than_the_bound_is_unresolved():
    noisy = [1.0, 1.3, 0.8, 1.2, 0.9, 1.25, 0.85, 1.1, 0.95, 1.0]
    out = verdict(noisy, noisy[::-1], better="lower", bound=0.1)
    assert out["spread"] > 0.1
    assert out["status"] == "unresolved"
    # Unless every run of the change reads better than every parent run.
    assert verdict(noisy, [0.5, 0.7, 0.6], better="lower",
                   bound=0.1)["status"] == "unchanged"


def test_more_failed_checks_is_worse_whatever_the_timing():
    faster = [x * 0.8 for x in BASE]
    assert verdict(BASE, faster, better="lower", bound=0.05,
                   failed_b=1)["status"] == "worse"
    assert verdict(BASE, faster, better="lower", bound=0.05,
                   failed_a=1, failed_b=1)["status"] == "improved"


def _result(path, started, wall, *, failed=0, quick=False, seconds=25):
    metrics = {"setup_s": 0.1, "wall_s": wall, "latency_p50_ms": 1.0,
               "latency_tail_ms": 9.0, "coverage_pct": 90.0,
               "peak_rss_mb": 50.0}
    path.write_text(json.dumps({
        "provenance": {"started_unix_s": started, "trace": False,
                       "quick": quick, "seconds": seconds},
        "workloads": {"coverage-greedy": {"metrics": metrics,
                                          "failed": failed}}}))


def _sides(tmp_path, scale, **b_kwargs):
    """Ten alternating pairs: A at ``BASE``, B at ``BASE * scale``."""
    for side in "ab":
        (tmp_path / side).mkdir()
    for i, x in enumerate(BASE):
        ta, tb = (2 * i, 2 * i + 1) if i % 2 == 0 else (2 * i + 1, 2 * i)
        _result(tmp_path / "a" / f"run-{i:02}.json", ta, x)
        _result(tmp_path / "b" / f"run-{i:02}.json", tb, x * scale,
                **b_kwargs)
    return str(tmp_path / "a"), str(tmp_path / "b")


def _wall_verdict(capsys):
    lines = capsys.readouterr().out.splitlines()
    wall = next(line for line in lines if " wall_s " in line)
    assert "coverage-greedy" in wall
    return wall.split()[-1]


def test_cli_pairs_runs_in_start_order(tmp_path, capsys):
    a, b = _sides(tmp_path, 1.3)
    assert main([a, b]) == 1
    assert _wall_verdict(capsys) == "worse"
    assert main([b, a]) == 0
    assert _wall_verdict(capsys) == "improved"


def test_cli_a_faster_change_that_fails_checks_is_worse(tmp_path, capsys):
    # B wins every pair, but a run of B failed a correctness check.
    a, b = _sides(tmp_path, 0.7, failed=1)
    assert main([a, b]) == 1
    assert _wall_verdict(capsys) == "worse"


@pytest.mark.parametrize("b_kwargs", [{"quick": True}, {"seconds": 10}])
def test_cli_refuses_runs_that_cannot_be_paired(tmp_path, b_kwargs):
    a, b = _sides(tmp_path, 1.0, **b_kwargs)
    with pytest.raises(SystemExit) as exc:
        main([a, b])
    assert exc.value.code == 2
