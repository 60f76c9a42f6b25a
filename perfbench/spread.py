#!/usr/bin/env python3
"""Check the benchmark's run-to-run spread and its second-seed agreement.

    python3 perfbench/spread.py spread --workloads anon-fault --seeds 1-10
    python3 perfbench/spread.py seeds --workloads all --seeds 1,7 --repeats 5

`spread` runs each workload once per seed and prints, for every
end-to-end metric of BENCHMARK.json, the median and the interquartile
range as a share of the median (statistics.quantiles(values, n=4)),
against the metric's bound; a spread above a third of the bound is
flagged. The spread of the values before the host-speed correction is
printed beside it. `seeds` runs each workload `--repeats` times on each of two
seeds, alternating them, and prints how far the second seed's median
lies from the first's, against the bound. Every run goes through run.py,
so it builds first.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds):
    out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                         cwd=ROOT, capture_output=True, text=True, timeout=1000)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stdout}{out.stderr}")
    res = json.loads(lines[-1])
    if not res["correct"] or res["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect or failed ops: {lines[-1]}")
    meta = json.loads(lines[-2])["meta"]
    return {k: v["value"] for k, v in res["metrics"].items()}, meta.get("uncorrected", {})


def iqr_share(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("spread", "seeds"))
    ap.add_argument("--workloads", default="all")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--seconds", type=float)
    args = ap.parse_args()

    bench = load_bench()
    seconds = args.seconds or bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]] if args.workloads == "all" else args.workloads.split(",")
    e2e = bench["end_to_end"]
    seeds = parse_seeds(args.seeds)
    worst = 0.0
    for wl in names:
        if args.mode == "spread":
            pairs = [run_once(wl, s, seconds) for s in seeds]
            runs = [p[0] for p in pairs]
            print(f"== {wl}: {len(runs)} runs, seeds {args.seeds}, {seconds} s")
            with open(os.path.join(ROOT, ".bench_build", f"spread-{wl}.json"), "w") as f:
                json.dump([{"metrics": m, "uncorrected": u} for m, u in pairs], f)
            for m in e2e:
                vals = [r[m["name"]] for r in runs]
                sp = iqr_share(vals)
                flag = "" if sp <= m["bound"] / 3 else ("  > bound/3" if sp <= m["bound"] else "  > BOUND")
                if m["name"] != "setup_s":
                    worst = max(worst, sp / m["bound"])
                unc = [p[1].get(m["name"]) for p in pairs]
                unc = f"  uncorrected {iqr_share(unc):7.2%}" if None not in unc else ""
                print(f"  {m['name']:14s} median {statistics.median(vals):14.6g} {m['unit']:4s} "
                      f"spread {sp:7.2%}  bound {m['bound']:.0%}{unc}{flag}")
        else:
            # Alternate the seeds, so a drift in the host's speed lands
            # on both sides alike.
            a, b = seeds[:2]
            ra, rb = [], []
            for _ in range(args.repeats):
                ra.append(run_once(wl, a, seconds)[0])
                rb.append(run_once(wl, b, seconds)[0])
            print(f"== {wl}: seed {b} against seed {a}, {args.repeats} runs each, {seconds} s")
            for m in e2e:
                ma = statistics.median(r[m["name"]] for r in ra)
                mb = statistics.median(r[m["name"]] for r in rb)
                d = (mb - ma) / ma
                worst = max(worst, abs(d) / m["bound"])
                flag = "" if abs(d) <= m["bound"] else "  > BOUND"
                print(f"  {m['name']:14s} seed {a} {ma:14.6g}  seed {b} {mb:14.6g}  "
                      f"diff {d:+7.2%}  bound {m['bound']:.0%}{flag}")
    print(f"worst share of bound: {worst:.2f}")


if __name__ == "__main__":
    main()
