#!/usr/bin/env python3
"""Compare two sets of benchmark results recorded by perfbench/run.py.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl [--allow-cross-host]

Each file holds the records run.py appends to .bench_build/results.jsonl.
For every (workload, metric) present in both, prints each side's median,
quartiles and run count, and the ratio NEW/BASE of the medians. Records made
on different host classes (CPU model x usable cores) are not comparable:
the script refuses them with exit code 3 unless --allow-cross-host is given,
and then marks every row as cross-host.
"""

import argparse
import json
import statistics
import sys


def load(path):
    groups, hosts = {}, set()
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            rec = json.loads(line)
            hosts.add(rec["host"]["host_class"])
            for name, m in rec["result"]["metrics"].items():
                key = (rec["workload"], rec["trace"], name, m["unit"])
                groups.setdefault(key, []).append(m["value"])
    return groups, hosts


def summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[1], q[0], q[2]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("base")
    ap.add_argument("new")
    ap.add_argument("--allow-cross-host", action="store_true")
    args = ap.parse_args()
    base, base_hosts = load(args.base)
    new, new_hosts = load(args.new)
    cross = base_hosts != new_hosts or len(base_hosts) != 1
    if cross:
        print(f"host classes differ: base {sorted(base_hosts)} vs new {sorted(new_hosts)}",
              file=sys.stderr)
        if not args.allow_cross_host:
            sys.exit(3)
    print(f"{'workload':12} {'trace':5} {'metric':28} {'unit':8} {'base median [q1,q3] n':36} "
          f"{'new median [q1,q3] n':36} new/base")
    for key in sorted(set(base) & set(new)):
        workload, trace, name, unit = key
        cols = []
        for values in (base[key], new[key]):
            med, q1, q3 = summary(values)
            cols.append(f"{med:.6g} [{q1:.6g},{q3:.6g}] {len(values)}")
        b = summary(base[key])[0]
        ratio = summary(new[key])[0] / b if b else float("nan")
        mark = " cross-host" if cross else ""
        print(f"{workload:12} {trace:<5} {name:28} {unit:8} {cols[0]:36} {cols[1]:36} "
              f"{ratio:.4f}{mark}")


if __name__ == "__main__":
    main()
