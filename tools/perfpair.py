#!/usr/bin/env python3
"""Paired parent/change comparison on the end-to-end benchmark.

Usage, from the root of a checkout::

    python3 tools/perfpair.py --parent REV --workload serve_closed --seed 1 --pairs 10

The change is this working tree.  Both sides run from fresh directories
under one temporary root.  The script clones the repository there, checks
out REV and copies this tree's ``perfbench/`` and ``BENCHMARK.json`` over
the clone's, so both sides run identical benchmark code.  Beside it, it
copies this working tree as it is: its tracked files, with their
uncommitted edits, and its untracked files that git does not ignore, but
no ignored output (``perfbench/out/``, caches), no file deleted in the
tree and no ``.git``.  It then runs ``perfbench/run.py`` on the two trees
alternately, the parent first on even pairs, with the same ``--seconds``
(default: ``run_seconds`` of ``BENCHMARK.json``).

For every end-to-end metric of ``BENCHMARK.json`` it prints each side's
median and quartiles; the change's wins out of the pairs, where ties count
for neither side and ``better`` gives the direction; and the change of the
median, in percent and as a share of the metric's bound (positive =
worse).  A metric is marked ``resolved`` when the change wins at least nine
tenths of the pairs and the medians differ by more than the distance
between the parent's quartiles.

Each run's ``info`` line is kept with its result.  Per side, the script
also reports the two parts of ``setup_s``: the import part (``setup_s``
minus the median of ``info.setup_runs_s``) and the set-up passes (that
median).  They are reported only and judge nothing.

Traced runs then diff the counts a refactor must keep: integration calls,
lane RHS evaluations, plan rows in total and simulated, and MAP solve
calls.  The parent's traced run is made twice, and only a count that
repeats exactly between those two is judged; on a workload whose counts
are averages over a timed window (``serve_closed``) a count can move
without any change to the code, and is reported, not judged.

The exit status is 1 when a run is not ``"correct": true`` (or gives no
result), an end-to-end median is worse than the parent's by more than its
bound, or a judged traced count differs; otherwise it is 0.  Progress goes
to standard error.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent

#: Traced per-layer counts a change that claims to remove waiting, not
#: work, must leave as they are.
TRACED_COUNTS = ("spice.integrate_calls", "spice.lane_rhs_evals",
                 "plan.rows_total", "plan.rows_simulated",
                 "batch_map.solve_calls")

#: Share of the pairs the change must win for a resolved difference.
WIN_SHARE = 0.9


@dataclass(frozen=True)
class MetricSummary:
    """One end-to-end metric over all pairs."""

    name: str
    unit: str
    bound: float
    parent: Tuple[float, float, float]      # (q1, median, q3)
    change: Tuple[float, float, float]
    wins: int                               # pairs the change won
    losses: int                             # pairs the parent won
    pairs: int
    worsening: float                        # relative to the parent median

    @property
    def change_pct(self) -> float:
        """The change of the median, percent of the parent's median."""
        parent = self.parent[1]
        if parent == 0.0:
            return 0.0 if self.change[1] == 0.0 else math.copysign(
                math.inf, self.change[1])
        return 100.0 * (self.change[1] - parent) / abs(parent)

    @property
    def bound_share(self) -> float:
        """The worsening as a share of the bound (negative = better)."""
        return self.worsening / self.bound

    @property
    def beyond_bound(self) -> bool:
        return self.worsening > self.bound

    @property
    def resolved(self) -> bool:
        """Won (or lost) on nine tenths of the pairs, beyond the parent's
        interquartile range."""
        lopsided = max(self.wins, self.losses) >= WIN_SHARE * self.pairs
        spread = self.parent[2] - self.parent[0]
        return lopsided and abs(self.change[1] - self.parent[1]) > spread


@dataclass(frozen=True)
class CountSummary:
    """One traced count: every parent value and every change value."""

    name: str
    parent: Tuple[float, ...]
    change: Tuple[float, ...]

    @property
    def judged(self) -> bool:
        """Whether the parent's own runs agree exactly."""
        return len(set(self.parent)) == 1

    @property
    def differs(self) -> bool:
        return self.judged and set(self.change) != set(self.parent)


@dataclass(frozen=True)
class SplitSummary:
    """One part of ``setup_s`` per side, over the runs that report it."""

    name: str
    parent: Optional[Tuple[float, float, float]]    # (q1, median, q3)
    change: Optional[Tuple[float, float, float]]


@dataclass(frozen=True)
class Summary:
    metrics: Tuple[MetricSummary, ...]
    counts: Tuple[CountSummary, ...]
    problems: Tuple[str, ...]
    splits: Tuple[SplitSummary, ...] = ()

    @property
    def status(self) -> int:
        """Process exit status: 1 on any problem, bound crossing or judged
        count difference."""
        failed = (self.problems
                  or any(metric.beyond_bound for metric in self.metrics)
                  or any(count.differs for count in self.counts))
        return 1 if failed else 0

    def format(self) -> str:
        lines = [f"{'metric':<22}{'unit':<6}{'parent median [q1, q3]':<34}"
                 f"{'change median [q1, q3]':<34}{'wins':>7}{'change':>10}"
                 f"{'of bound':>10}"]
        for m in self.metrics:
            flags = [flag for flag, on in (("resolved", m.resolved),
                                           ("BEYOND BOUND", m.beyond_bound))
                     if on]
            lines.append(
                f"{m.name:<22}{m.unit:<6}{_quartile_text(m.parent):<34}"
                f"{_quartile_text(m.change):<34}"
                f"{f'{m.wins}/{m.pairs}':>7}{m.change_pct:>+9.1f}%"
                f"{m.bound_share:>+10.2f}  {' '.join(flags)}".rstrip())
        if self.splits:
            lines.append("setup_s split (reported, not judged):")
            for split in self.splits:
                parent, change = ("n/a" if side is None
                                  else _quartile_text(side)
                                  for side in (split.parent, split.change))
                lines.append(f"  {split.name:<20}parent {parent:<28}"
                             f"change {change}")
        if self.counts:
            lines.append("traced counts (per operation):")
            for count in self.counts:
                parent = "/".join(f"{value:.6g}" for value in count.parent)
                change = "/".join(f"{value:.6g}" for value in count.change)
                verdict = ("DIFFERS" if count.differs else "same"
                           if count.judged else
                           "not judged: the parent's runs disagree")
                lines.append(f"  {count.name:<26}parent {parent:<24}"
                             f"change {change:<14}{verdict}")
        lines.extend(f"problem: {problem}" for problem in self.problems)
        lines.append("FAIL" if self.status else "OK")
        return "\n".join(lines)


def _quartile_text(quartiles: Tuple[float, float, float]) -> str:
    q1, median, q3 = quartiles
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3), interpolated inclusively between the samples."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def worsening(parent: float, change: float, better: str) -> float:
    """How much worse ``change`` is than ``parent``, relative to it
    (negative when better)."""
    delta = change - parent if better == "lower" else parent - change
    if parent == 0.0:
        return 0.0 if delta == 0.0 else math.copysign(math.inf, delta)
    return delta / abs(parent)


def parse_result(line: Optional[str]) -> Optional[dict]:
    """The result object of one run's last output line (``None`` when the
    run gave none)."""
    if not line:
        return None
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) and "metrics" in result else None


def setup_split(info_line: Optional[str], result_line: Optional[str]
                ) -> Optional[Tuple[float, float]]:
    """``(import part, set-up passes)`` of one run: ``setup_s`` minus the
    median of ``info.setup_runs_s``, and that median (``None`` when the run
    lacks either line)."""
    result = parse_result(result_line)
    try:
        info = json.loads(info_line)["info"] if info_line else None
    except (json.JSONDecodeError, KeyError, TypeError):
        info = None
    if (result is None or not isinstance(info, dict)
            or not info.get("setup_runs_s")
            or "setup_s" not in result["metrics"]):
        return None
    passes = statistics.median(info["setup_runs_s"])
    return result["metrics"]["setup_s"]["value"] - passes, passes


def _values(results: Sequence[Optional[dict]], name: str) -> List[float]:
    return [result["metrics"][name]["value"] for result in results
            if result is not None and name in result["metrics"]]


def summarize(spec: dict, parent_lines: Sequence[Optional[str]],
              change_lines: Sequence[Optional[str]],
              parent_traced: Sequence[Optional[str]] = (),
              change_traced: Sequence[Optional[str]] = (),
              parent_info: Sequence[Optional[str]] = (),
              change_info: Sequence[Optional[str]] = ()) -> Summary:
    """Judge paired result lines (pair ``i`` is ``parent_lines[i]`` with
    ``change_lines[i]``) against the end-to-end metrics of ``spec``.

    ``parent_info`` / ``change_info`` are the runs' ``info`` lines in the
    same order (``None`` for a run without one); they feed the reported
    ``setup_s`` split only."""
    problems = []
    runs = {"parent": [parse_result(line) for line in parent_lines],
            "change": [parse_result(line) for line in change_lines],
            "parent traced": [parse_result(line) for line in parent_traced],
            "change traced": [parse_result(line) for line in change_traced]}
    for side, results in runs.items():
        for index, result in enumerate(results):
            if result is None:
                problems.append(f"{side} run {index} gave no result")
            elif result.get("correct") is not True:
                problems.append(f"{side} run {index} is not correct")
    pairs = [(parent, change)
             for parent, change in zip(runs["parent"], runs["change"])
             if parent is not None and change is not None]
    metrics = []
    for entry in spec["end_to_end"]:
        name, better = entry["name"], entry["better"]
        paired = [(parent["metrics"][name]["value"],
                   change["metrics"][name]["value"])
                  for parent, change in pairs
                  if name in parent["metrics"] and name in change["metrics"]]
        if not paired:
            continue
        parent_values = [parent for parent, _ in paired]
        change_values = [change for _, change in paired]
        parent_q, change_q = quartiles(parent_values), quartiles(change_values)
        metrics.append(MetricSummary(
            name=name, unit=entry["unit"], bound=float(entry["bound"]),
            parent=parent_q, change=change_q,
            wins=sum(worsening(p, c, better) < 0.0 for p, c in paired),
            losses=sum(worsening(p, c, better) > 0.0 for p, c in paired),
            pairs=len(paired),
            worsening=worsening(parent_q[1], change_q[1], better)))
    counts = []
    if runs["parent traced"] or runs["change traced"]:
        for name in TRACED_COUNTS:
            counts.append(CountSummary(
                name=name,
                parent=tuple(_values(runs["parent traced"], name)),
                change=tuple(_values(runs["change traced"], name))))
    splits = {side: [split for split in map(setup_split, infos, results)
                     if split is not None]
              for side, infos, results in (
                  ("parent", parent_info, parent_lines),
                  ("change", change_info, change_lines))}
    split_summaries = []
    if splits["parent"] or splits["change"]:
        for part, name in enumerate(("import part", "set-up passes")):
            parent, change = (
                quartiles([split[part] for split in splits[side]])
                if splits[side] else None for side in ("parent", "change"))
            split_summaries.append(SplitSummary(name, parent, change))
    return Summary(tuple(metrics), tuple(counts), tuple(problems),
                   tuple(split_summaries))


# ----------------------------------------------------------------------
# Driving the two trees
# ----------------------------------------------------------------------
def prepare_parent(rev: str, destination: Path) -> Path:
    """Clone this repository at ``rev`` with this tree's benchmark files."""
    commit = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--verify", f"{rev}^{{commit}}"],
        check=True, capture_output=True, text=True).stdout.strip()
    subprocess.run(["git", "clone", "--quiet", "--no-checkout", str(ROOT),
                    str(destination)], check=True)
    subprocess.run(["git", "-C", str(destination), "checkout", "--quiet",
                    commit], check=True)
    shutil.rmtree(destination / "perfbench", ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", destination / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy2(ROOT / "BENCHMARK.json", destination / "BENCHMARK.json")
    return destination


def prepare_change(source: Path, destination: Path) -> Path:
    """Copy the working tree of the checkout at ``source`` to ``destination``.

    The copy holds what ``git ls-files --cached --others
    --exclude-standard`` lists: tracked files as they are on disk and
    untracked files that are not ignored.  A tracked file deleted in the
    tree is skipped, and ``.git`` is never listed.
    """
    listed = subprocess.run(
        ["git", "-C", str(source), "ls-files", "-z", "--cached", "--others",
         "--exclude-standard"], check=True, capture_output=True).stdout
    for relative in map(os.fsdecode, filter(None, listed.split(b"\0"))):
        if not os.path.lexists(source / relative):
            continue        # tracked, but deleted in the tree
        target = destination / relative
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy2(source / relative, target, follow_symlinks=False)
    return destination


def run_once(tree: Path, args: argparse.Namespace, trace: int
             ) -> Tuple[Optional[str], Optional[str]]:
    """One ``perfbench/run.py`` run in ``tree``: its ``info`` line and its
    last output line (either ``None`` when the run gave none)."""
    completed = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "run.py"),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(trace)],
        cwd=str(tree), capture_output=True, text=True)
    lines = [line for line in completed.stdout.splitlines() if line.strip()]
    if completed.returncode != 0 or not lines:
        sys.stderr.write(completed.stderr[-2000:])
        return None, None
    info = next((line for line in reversed(lines[:-1])
                 if line.startswith('{"info"')), None)
    return info, lines[-1]


def _progress(label: str, line: Optional[str], names: Sequence[str]) -> None:
    result = parse_result(line)
    if result is None:
        print(f"{label}: no result", file=sys.stderr, flush=True)
        return
    shown = ", ".join(f"{name} {result['metrics'][name]['value']:.4g}"
                      for name in names if name in result["metrics"])
    print(f"{label}: correct {result.get('correct')}, {shown}",
          file=sys.stderr, flush=True)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True,
                        help="the parent revision (any git commit-ish)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measurement window per run "
                             "(default: run_seconds of BENCHMARK.json)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    names = [entry["name"] for entry in spec["end_to_end"]]
    lines: Dict[str, List[Optional[str]]] = {"parent": [], "change": []}
    infos: Dict[str, List[Optional[str]]] = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="perfpair-") as workdir:
        trees = {"parent": prepare_parent(args.parent,
                                          Path(workdir) / "parent"),
                 "change": prepare_change(ROOT, Path(workdir) / "change")}
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change",
                                                               "parent")
            for side in order:
                info, line = run_once(trees[side], args, trace=0)
                _progress(f"pair {pair + 1}/{args.pairs} {side}", line, names)
                lines[side].append(line)
                infos[side].append(info)
        traced = {side: [run_once(trees[side], args, trace=1)[1]
                         for _ in range(2 if side == "parent" else 1)]
                  for side in ("parent", "change")}
        for side, side_lines in traced.items():
            for line in side_lines:
                _progress(f"traced {side}", line, TRACED_COUNTS)
    summary = summarize(spec, lines["parent"], lines["change"],
                        traced["parent"], traced["change"],
                        infos["parent"], infos["change"])
    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs of "
          f"{args.seconds:g} s runs; parent {args.parent} against the "
          f"working tree")
    print(summary.format())
    return summary.status


if __name__ == "__main__":
    sys.exit(main())
