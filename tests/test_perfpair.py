"""The paired benchmark comparator (``tools/perfpair.py``).

Synthetic result lines stand in for ``perfbench/run.py`` runs, so these
tests run no benchmark.  The change side's copy of the working tree is
checked on a small throwaway git checkout.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import perfpair  # noqa: E402

SPEC = {"end_to_end": [
    {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "serve_rps", "unit": "1/s", "better": "higher", "bound": 0.25},
]}


def line(correct=True, **values):
    return json.dumps({"correct": correct, "attempted": 10, "failed": 0,
                       "metrics": {name: {"value": value, "unit": "x"}
                                   for name, value in values.items()}})


def info(*setup_runs_s):
    return json.dumps({"info": {"workload": "paper_flow",
                                "setup_runs_s": list(setup_runs_s)}})


def traced(**counts):
    values = {name: 1.0 for name in perfpair.TRACED_COUNTS}
    values.update(counts)
    return json.dumps({"correct": True, "metrics": {
        name: {"value": value, "unit": "count"}
        for name, value in values.items()}})


def by_name(summary):
    return {metric.name: metric for metric in summary.metrics}


def test_quartiles_median_and_resolution():
    parent = [line(latency_p50_ms=v, serve_rps=25.0)
              for v in (50.0, 51.0, 52.0, 53.0, 54.0)]
    change = [line(latency_p50_ms=v, serve_rps=25.0)
              for v in (0.1, 0.2, 0.3, 0.4, 0.5)]
    summary = perfpair.summarize(SPEC, parent, change)
    p50 = by_name(summary)["latency_p50_ms"]
    assert p50.parent == (51.0, 52.0, 53.0)
    assert p50.change == pytest.approx((0.2, 0.3, 0.4))
    assert (p50.wins, p50.losses, p50.pairs) == (5, 0, 5)
    assert p50.resolved and not p50.beyond_bound
    assert p50.change_pct == pytest.approx(100.0 * (0.3 - 52.0) / 52.0)
    assert p50.bound_share == pytest.approx((0.3 - 52.0) / 52.0 / 0.25)
    assert perfpair.quartiles([4.0]) == (4.0, 4.0, 4.0)
    assert summary.status == 0


def test_ties_count_for_neither_side_and_direction_follows_better():
    parent = [line(latency_p50_ms=v, serve_rps=r)
              for v, r in ((10.0, 20.0), (10.0, 20.0), (10.0, 20.0))]
    change = [line(latency_p50_ms=v, serve_rps=r)
              for v, r in ((9.0, 21.0), (10.0, 20.0), (11.0, 19.0))]
    metrics = by_name(perfpair.summarize(SPEC, parent, change))
    # Lower is better for latency, higher for throughput; the middle pair
    # ties on both.
    assert (metrics["latency_p50_ms"].wins,
            metrics["latency_p50_ms"].losses) == (1, 1)
    assert (metrics["serve_rps"].wins, metrics["serve_rps"].losses) == (1, 1)
    assert not metrics["latency_p50_ms"].resolved


def test_median_beyond_its_bound_fails():
    parent = [line(latency_p50_ms=10.0, serve_rps=100.0)] * 3
    within = [line(latency_p50_ms=12.4, serve_rps=76.0)] * 3
    beyond = [line(latency_p50_ms=10.0, serve_rps=74.0)] * 3
    assert perfpair.summarize(SPEC, parent, within).status == 0
    summary = perfpair.summarize(SPEC, parent, beyond)
    assert by_name(summary)["serve_rps"].beyond_bound
    assert not by_name(summary)["latency_p50_ms"].beyond_bound
    assert summary.status == 1
    assert "BEYOND BOUND" in summary.format()


def test_incorrect_or_missing_run_fails():
    parent = [line(latency_p50_ms=10.0, serve_rps=1.0)] * 2
    assert perfpair.summarize(
        SPEC, parent, [parent[0], line(False, latency_p50_ms=10.0,
                                       serve_rps=1.0)]).status == 1
    summary = perfpair.summarize(SPEC, parent, [parent[0], None])
    assert summary.status == 1
    assert summary.problems == ("change run 1 gave no result",)
    assert by_name(summary)["latency_p50_ms"].pairs == 1


def test_traced_counts_judged_only_where_the_parent_repeats():
    parent = change = [line(latency_p50_ms=1.0, serve_rps=1.0)]
    same = perfpair.summarize(SPEC, parent, change, [traced()] * 2,
                              [traced()])
    assert same.status == 0
    differs = perfpair.summarize(SPEC, parent, change, [traced()] * 2,
                                 [traced(**{"plan.rows_total": 2.0})])
    assert differs.status == 1
    assert [count.name for count in differs.counts if count.differs] == [
        "plan.rows_total"]
    # A count the parent itself does not repeat is reported, not judged.
    noisy = perfpair.summarize(
        SPEC, parent, change,
        [traced(**{"spice.integrate_calls": 0.101}),
         traced(**{"spice.integrate_calls": 0.107})],
        [traced(**{"spice.integrate_calls": 0.104})])
    assert noisy.status == 0
    assert "not judged" in noisy.format()


def test_setup_split_is_reported_from_info_lines():
    parent = [line(setup_s=s, latency_p50_ms=1.0) for s in (2.0, 2.2, 2.4)]
    change = [line(setup_s=s, latency_p50_ms=1.0) for s in (1.0, 1.1, 1.2)]
    spec = {"end_to_end": [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "latency_p50_ms", "unit": "ms", "better": "lower",
         "bound": 0.25}]}
    # Each run's set-up passes are the median of its setup_runs_s.
    parent_info = [info(0.5, 0.3, 0.4), info(0.4, 0.4, 0.6),
                   info(0.5, 0.5, 0.5)]
    # The second change run printed no info line.
    change_info = [info(0.2, 0.2, 0.2), None, info(0.3, 0.1, 0.4)]
    summary = perfpair.summarize(spec, parent, change,
                                 parent_info=parent_info,
                                 change_info=change_info)
    split = {part.name: part for part in summary.splits}
    assert split["import part"].parent == pytest.approx((1.7, 1.8, 1.85))
    assert split["set-up passes"].parent == pytest.approx((0.4, 0.4, 0.45))
    assert split["import part"].change == pytest.approx((0.825, 0.85, 0.875))
    assert split["set-up passes"].change == pytest.approx((0.225, 0.25, 0.275))
    text = summary.format()
    assert "setup_s split (reported, not judged):" in text
    assert "import part" in text and "set-up passes" in text
    # Reported only: the exit status is the one without info lines.
    assert summary.status == perfpair.summarize(spec, parent, change).status
    assert perfpair.summarize(spec, parent, change).splits == ()


def test_setup_split_needs_both_lines():
    result = line(setup_s=1.0)
    assert perfpair.setup_split(info(0.25, 0.75), result) == (0.5, 0.5)
    assert perfpair.setup_split(None, result) is None
    assert perfpair.setup_split(info(), result) is None
    assert perfpair.setup_split(info(0.25), None) is None
    assert perfpair.setup_split(info(0.25), line(latency_p50_ms=1.0)) is None
    assert perfpair.setup_split("not json", result) is None
    # A side whose runs all lack an info line reads n/a.
    summary = perfpair.summarize(
        {"end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower",
                         "bound": 0.25}]},
        [result], [result], parent_info=[info(0.25)], change_info=[None])
    assert summary.splits[0].change is None
    assert "n/a" in summary.format()


def test_change_side_is_a_copy_of_the_working_tree(tmp_path):
    source = tmp_path / "checkout"
    (source / "pkg").mkdir(parents=True)
    for name, text in ((".gitignore", "out/\n"), ("pkg/kept.py", "old\n"),
                       ("pkg/edited.py", "committed\n"),
                       ("pkg/deleted.py", "gone\n")):
        (source / name).write_text(text)

    def git(*args):
        subprocess.run(["git", "-C", str(source), "-c", "user.name=t",
                        "-c", "user.email=t@t", *args], check=True,
                       capture_output=True)

    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "base")
    (source / "pkg" / "edited.py").write_text("working tree\n")
    (source / "pkg" / "deleted.py").unlink()
    (source / "pkg" / "new.py").write_text("untracked\n")
    (source / "out").mkdir()
    (source / "out" / "result.json").write_text("{}\n")

    copy = perfpair.prepare_change(source, tmp_path / "change")
    files = sorted(path.relative_to(copy).as_posix()
                   for path in copy.rglob("*") if path.is_file())
    assert files == [".gitignore", "pkg/edited.py", "pkg/kept.py",
                     "pkg/new.py"]
    assert (copy / "pkg" / "edited.py").read_text() == "working tree\n"
    assert (copy / "pkg" / "new.py").read_text() == "untracked\n"
    assert not (copy / ".git").exists()
