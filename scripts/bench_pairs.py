#!/usr/bin/env python3
"""Run alternating pairs of two bench_suite binaries and compare them.

Usage (from the repository root):

    python3 scripts/bench_pairs.py PARENT CHANGE --workload ycsb_a_protocol \\
        --seeds 901-910 --out pairs.jsonl -- --seconds 15 --trace 0

PARENT and CHANGE are two bench_suite binaries, each built from its own
checkout. For every seed, the two run one after the other with
`--workload W --seed S` plus the flags after `--`; the side that runs
first alternates from pair to pair. --seeds takes ranges and lists
("901-903,921-925").

For each end-to-end metric in BENCHMARK.json and each workload in the
results, the script prints each side's median and quartiles, the change
in the median in percent, and how many pairs the change won, lost and
tied, judged by the metric's `better`. Result lines may key a metric as
`metric` (one workload) or `workload.metric` (several). --out keeps every
run's result line, one JSON object per line.

The exit code is 1 when any run exits non-zero, prints no result line, is
not `correct`, has `failed` > 0 or reports none of the end-to-end metrics
(a `--trace 1` run without `--smoke` reports only per-layer ones); 2 on a
usage error; else 0.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text):
    """'901-903,921' -> [901, 902, 903, 921]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        first = int(lo)
        last = int(hi) if hi else first
        if last < first:
            raise ValueError("empty seed range: %s" % part)
        seeds.extend(range(first, last + 1))
    return seeds


def quantile(values, q):
    """Linear interpolation between closest ranks, as bench_suite does."""
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (pos - lo) * (v[hi] - v[lo])


def run(binary, workload, seed, extra):
    """Runs one bench_suite; returns (exit code, result object or None)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed)] + extra
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def values_by_workload(result, workload, metric):
    """{workload: value} for one end-to-end metric of a result line."""
    out = {}
    for key, entry in result.get("metrics", {}).items():
        if key == metric:
            out[workload] = entry["value"]
        elif key.endswith("." + metric):
            out[key[: -len(metric) - 1]] = entry["value"]
    return out


def fmt(x):
    return "%.6g" % x


def main():
    ap = argparse.ArgumentParser(
        description="Alternating parent/change pairs of bench_suite runs.")
    ap.add_argument("parent", help="bench_suite binary of the parent")
    ap.add_argument("change", help="bench_suite binary of the change")
    ap.add_argument("--workload", required=True,
                    help="workload name, or all")
    ap.add_argument("--seeds", required=True,
                    help="seeds, as ranges and lists: 901-905,911")
    ap.add_argument("--out", help="append every result line here (JSONL)")
    argv = sys.argv[1:]
    extra = []
    if "--" in argv:
        cut = argv.index("--")
        argv, extra = argv[:cut], argv[cut + 1:]
    args = ap.parse_args(argv)
    try:
        seeds = parse_seeds(args.seeds)
    except ValueError as e:
        ap.error("--seeds: %s" % e)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]

    sides = {"parent": args.parent, "change": args.change}
    results = []  # per pair: {side: result}
    bad = []
    out = open(args.out, "a") if args.out else None
    for i, seed in enumerate(seeds):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        pair = {}
        for side in order:
            code, result = run(sides[side], args.workload, seed, extra)
            if out:
                out.write(json.dumps({"side": side, "seed": seed,
                                      "first": side == order[0],
                                      "exit": code, "result": result}) + "\n")
                out.flush()
            ok = (code == 0 and result is not None and
                  result.get("correct") is True and
                  result.get("failed", 0) == 0)
            if not ok:
                bad.append("%s seed %d: exit %d, %s" % (
                    side, seed, code,
                    "no result line" if result is None else
                    "correct %s, failed %s" % (result.get("correct"),
                                               result.get("failed"))))
            elif not any(values_by_workload(result, args.workload, m["name"])
                         for m in metrics):
                bad.append("%s seed %d: no end-to-end metric; --trace 1 "
                           "reports per-layer metrics only" % (side, seed))
            pair[side] = result or {}
        print("pair %d/%d seed %d done, %s first" % (
            i + 1, len(seeds), seed, order[0]), file=sys.stderr)
        results.append(pair)
    if out:
        out.close()

    print("%-18s %-18s %-8s %-38s %-38s %8s  %s" % (
        "workload", "metric", "unit", "parent median [q1, q3]",
        "change median [q1, q3]", "delta", "won/lost/tied"))
    for m in metrics:
        name, better = m["name"], m["better"]
        series = {}  # workload -> list of (parent, change)
        for pair in results:
            p = values_by_workload(pair.get("parent", {}), args.workload, name)
            c = values_by_workload(pair.get("change", {}), args.workload, name)
            for w in sorted(set(p) & set(c)):
                series.setdefault(w, []).append((p[w], c[w]))
        for w, pairs in sorted(series.items()):
            pv = [p for p, _ in pairs]
            cv = [c for _, c in pairs]
            won = sum(1 for p, c in pairs
                      if (c > p if better == "higher" else c < p))
            tied = sum(1 for p, c in pairs if c == p)
            pm, cm = quantile(pv, 0.5), quantile(cv, 0.5)
            delta = ("%+.2f%%" % (100.0 * (cm - pm) / pm)) if pm else "n/a"
            print("%-18s %-18s %-8s %-38s %-38s %8s  %d/%d/%d" % (
                w, name, m["unit"],
                "%s [%s, %s]" % (fmt(pm), fmt(quantile(pv, 0.25)),
                                 fmt(quantile(pv, 0.75))),
                "%s [%s, %s]" % (fmt(cm), fmt(quantile(cv, 0.25)),
                                 fmt(quantile(cv, 0.75))),
                delta, won, len(pairs) - won - tied, tied))
    for line in bad:
        print("failed run: " + line)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
