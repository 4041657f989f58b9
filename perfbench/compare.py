"""Compare two sets of benchmark records, one row per (end-to-end metric, workload).

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the JSON lines that run.py appends to --record; untraced
runs are compared. Each row gives both sides' median and quartiles, how many
pairs the change won (ties count for neither; runs pair up by seed when both
sides share seeds, else in file order) and a verdict:

  improved    the change won at least 9/10 of at least ten pairs, and the
              medians differ in its favour by more than the parent's
              interquartile range;
  worse       the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json;
  unresolved  neither, and the parent's own spread (IQR over median) is
              wider than the bound, unless every run of the change reads
              better than every run of the parent;
  unchanged   otherwise.

It then says, per workload and seed present on both sides, whether the output
digests agree byte for byte. The pair rule assumes the two sides ran
alternately; when one side's runs all came before the other's, a drift of the
machine between the two stretches reads as a change, and a note says so.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import measure

ROOT = Path(__file__).resolve().parent.parent


def load(path: Path) -> dict:
    """{workload: [record, ...]} of the untraced runs in a JSON-lines file."""
    runs: dict[str, list] = {}
    for line in path.read_text().splitlines():
        if line.strip():
            rec = json.loads(line)
            if not rec["trace"]:
                runs.setdefault(rec["workload"], []).append(rec)
    return runs


def pairs(old: list, new: list) -> list[tuple[dict, dict]]:
    by_seed = {r["seed"]: r for r in old}
    shared = [r for r in new if r["seed"] in by_seed]
    if shared:
        return [(by_seed[r["seed"]], r) for r in shared]
    return list(zip(old, new))


def verdict(metric: dict, old: list[float], new: list[float], won: int, n_pairs: int) -> str:
    sign = 1.0 if metric["better"] == "lower" else -1.0
    q1, med_old, q3 = measure.quartiles(old)
    med_new = measure.quartiles(new)[1]
    gain = sign * (med_old - med_new)  # positive when the change is better
    if n_pairs >= 10 and won >= 0.9 * n_pairs and gain > q3 - q1:
        return "improved"
    if -gain > metric["bound"] * abs(med_old):
        return "worse"
    all_better = min(sign * o for o in old) > max(sign * n for n in new)
    if (q3 - q1) > metric["bound"] * abs(med_old) and not all_better:
        return "unresolved"
    return "unchanged"


def compare(old_runs: dict, new_runs: dict, metrics: list[dict]) -> list[str]:
    lines = []
    for workload in sorted(set(old_runs) & set(new_runs)):
        matched = pairs(old_runs[workload], new_runs[workload])
        old_t = [r["time"] for r in old_runs[workload]]
        new_t = [r["time"] for r in new_runs[workload]]
        if max(old_t) < min(new_t) or max(new_t) < min(old_t):
            lines.append(f"{workload:<9} note: the sides did not run alternately, so machine "
                         "drift between them can read as improved or worse")
        for metric in metrics:
            name = metric["name"]
            old = [r["figures"][name] for r in old_runs[workload]]
            new = [r["figures"][name] for r in new_runs[workload]]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            won = sum(sign * (b["figures"][name] - a["figures"][name]) < 0 for a, b in matched)
            o1, om, o3 = measure.quartiles(old)
            n1, nm, n3 = measure.quartiles(new)
            lines.append(
                f"{workload:<9} {name:<19} {metric['unit']:<6} "
                f"parent {om:.6g} [{o1:.6g}, {o3:.6g}] n={len(old)}  "
                f"change {nm:.6g} [{n1:.6g}, {n3:.6g}] n={len(new)}  "
                f"won {won}/{len(matched)}  {verdict(metric, old, new, won, len(matched))}")
        same_seed = [(a, b) for a, b in matched if a["seed"] == b["seed"]]
        differ = {a["seed"]: sorted(k for k in set(a["digests"]) | set(b["digests"])
                                    if a["digests"].get(k) != b["digests"].get(k))
                  for a, b in same_seed}
        for seed, keys in differ.items():
            if keys:
                lines.append(f"{workload:<9} seed {seed} output digests differ: {', '.join(keys)}")
        if same_seed and not any(differ.values()):
            lines.append(f"{workload:<9} output digests identical for all {len(same_seed)} shared seeds")
    return lines


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    for line in compare(load(Path(argv[0])), load(Path(argv[1])), metrics):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
