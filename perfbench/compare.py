#!/usr/bin/env python3
"""Compare two result sets of the repository benchmark: parent and change.

Usage:
    python3 perfbench/compare.py PARENT CHANGE [--claim WORKLOAD:METRIC ...]

PARENT and CHANGE are files (or directories of `*.jsonl` files) holding
the standard output of `perfbench` runs; every line carrying a
`perfbench_record` is read, traced runs are ignored. Runs pair up by
(workload, seed), the pairing the A/B recipe (`perfbench/ab.sh`) makes.

Rules (choosing-metrics section 8):

* A claimed (workload, metric) needs at least 10 pairs, the change must
  win at least 9 in 10 of them (ties count for neither), and the medians
  must differ by more than the parent's interquartile range. The claim
  must also hold on the held-out seeds named in `perfbench/seeds.json`.
* Every other (workload, metric) is checked against its bound from
  `BENCHMARK.json`: `ok` when the change's median is no worse than the
  parent's by more than the bound, `regressed` when it is. When the
  parent's own spread is wider than the bound the row is `unresolved`,
  unless every change run beats every parent run.
* Pairs whose output digests differ are reported: the two commits did
  not compute the same results.

Exit status: 0 when no metric regressed and every claim held, 1
otherwise, 2 on bad input.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path):
    files = []
    if os.path.isdir(path):
        files = sorted(
            os.path.join(path, f) for f in os.listdir(path) if f.endswith(".jsonl")
        )
    else:
        files = [path]
    runs = {}
    for f in files:
        with open(f, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line.startswith("{") or "perfbench_record" not in line:
                    continue
                rec = json.loads(line)["perfbench_record"]
                meta = rec["meta"]
                if meta.get("trace"):
                    continue
                key = (meta["workload"], meta["seed"])
                runs.setdefault(key, []).append(rec)
    return runs


def digest(rec):
    for detail in rec.get("details", {}).values():
        if isinstance(detail, dict) and "digest" in detail:
            return detail["digest"]
    return None


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else float("nan")
        return v, v, v
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def main(argv):
    ap = argparse.ArgumentParser(description="Compare parent and change result sets.")
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--claim", action="append", default=[], metavar="WORKLOAD:METRIC")
    args = ap.parse_args(argv)
    claims = {tuple(c.split(":", 1)) for c in args.claim}
    root = os.path.dirname(HERE)
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    with open(os.path.join(HERE, "seeds.json"), encoding="utf-8") as fh:
        held_out = set(json.load(fh)["held_out"])
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    parent, change = load(args.parent), load(args.change)
    pairs = sorted(set(parent) & set(change))
    if not pairs:
        print("no (workload, seed) pairs in common", file=sys.stderr)
        return 2

    failed = False
    declared = [w["name"] for w in bench["workloads"]]
    workloads = declared + sorted({w for w, _ in pairs} - set(declared))
    for workload in workloads:
        wpairs = [p for p in pairs if p[0] == workload]
        if not wpairs:
            continue
        print(f"\n## {workload}: {len(wpairs)} pairs, seeds {[p[1] for p in wpairs]}")
        bad_digests = [
            p[1] for p in wpairs if digest(parent[p][0]) != digest(change[p][0])
        ]
        if bad_digests:
            print(f"   outputs differ between commits at seeds {bad_digests}")
        wrong = [p[1] for p in wpairs if not change[p][0]["correct"]]
        if wrong:
            failed = True
            print(f"   change failed its output checks at seeds {wrong}")
        for name, m in metrics.items():
            lower = m["better"] == "lower"
            P = [parent[p][0]["end_to_end"][name]["value"] for p in wpairs]
            C = [change[p][0]["end_to_end"][name]["value"] for p in wpairs]
            p_lo, p_med, p_hi = quartiles(P)
            c_lo, c_med, c_hi = quartiles(C)
            spread = (p_hi - p_lo) / p_med if p_med else float("inf")
            better = lambda c, p: c < p if lower else c > p  # noqa: E731
            wins = sum(better(c, p) for c, p in zip(C, P))
            losses = sum(better(p, c) for c, p in zip(C, P))
            worse_by = ((c_med - p_med) if lower else (p_med - c_med)) / p_med if p_med else 0.0
            if (workload, name) in claims:
                held = [
                    better(change[p][0]["end_to_end"][name]["value"],
                           parent[p][0]["end_to_end"][name]["value"])
                    for p in wpairs if p[1] in held_out
                ]
                ok = (
                    len(wpairs) >= 10
                    and wins >= 0.9 * len(wpairs)
                    and abs(c_med - p_med) > (p_hi - p_lo)
                    and held and all(held)
                )
                status = "claim met" if ok else "claim NOT met"
                failed |= not ok
            elif spread > m["bound"]:
                all_better = all(better(c, p) for c in C for p in P)
                status = "better (every run)" if all_better else "unresolved"
            elif worse_by > m["bound"]:
                status = "REGRESSED"
                failed = True
            else:
                status = "ok"
            print(
                f"   {name:22s} parent {p_med:12.5g} [{p_lo:.5g}, {p_hi:.5g}]"
                f"  change {c_med:12.5g} [{c_lo:.5g}, {c_hi:.5g}]"
                f"  {'worse' if worse_by > 0 else 'better'} {abs(worse_by):6.1%}"
                f" (bound {m['bound']:.0%}, parent spread {spread:.1%})"
                f"  wins {wins}/{len(wpairs)} losses {losses}  -> {status}"
            )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
