"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/repeat.py --workload queries --seeds 1..10
    python3 perfbench/repeat.py --workload all --seeds 1..10 --traced \\
        --out perfbench/BENCH_baseline.json

For every end-to-end metric it prints the median, the first and third
quartile (`statistics.quantiles(values, n=4)`) and the spread
(q3 - q1) / median, next to the metric's bound in BENCHMARK.json; a spread
above a third of its bound is flagged.  With --traced it also makes one
traced run per workload, on the first seed, and prints each module's share
of self time.  Runs are made one after another from the current directory,
which must be the root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import common
import spans

RUN = os.path.join(common.HERE, "run.py")


def parse_seeds(text):
    lo, hi = text.split("..", 1)
    return list(range(int(lo), int(hi) + 1))


def load_spec():
    with open(os.path.join(os.path.dirname(common.HERE), "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run([sys.executable, RUN, "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    env = json.loads(next(line[4:] for line in lines if line.startswith("env ")))
    return {"seed": seed, "env": env, **json.loads(lines[-1])}


def summarize(runs) -> dict:
    out = {}
    for name, m in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, _q2, q3 = statistics.quantiles(values, n=4)
        center = statistics.median(values)
        out[name] = {"unit": m["unit"], "median": center, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / center, "values": values}
    return out


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*common.WORKLOADS, "all"))
    p.add_argument("--seeds", default="1..10", help="a range lo..hi")
    p.add_argument("--traced", action="store_true",
                   help="add one traced run per workload, on the first seed")
    p.add_argument("--out", help="write summaries and every run's result as JSON")
    args = p.parse_args()
    spec = load_spec()
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = common.WORKLOADS if args.workload == "all" else [args.workload]
    seeds = parse_seeds(args.seeds)
    report = {"seconds": seconds, "seeds": seeds, "workloads": {}}
    for workload in workloads:
        runs = []
        for seed in seeds:
            r = run_once(workload, seed, seconds, 0)
            runs.append(r)
            print(f"{workload} seed {seed}: correct={r['correct']} "
                  f"failed={r['failed']}/{r['attempted']} " + " ".join(
                      f"{k}={v['value']:.4g}" for k, v in r["metrics"].items()), flush=True)
        summary = summarize(runs)
        for name, s in summary.items():
            flag = "  <-- above a third of its bound" if s["spread"] > bounds[name] / 3 else ""
            print(f"  {name:<12} median {s['median']:<10.5g} q1 {s['q1']:<10.5g} "
                  f"q3 {s['q3']:<10.5g} spread {s['spread']:.4f} bound {bounds[name]}{flag}")
        entry = {"summary": summary, "runs": runs}
        if args.traced:
            t = run_once(workload, seeds[0], seconds, 1)
            entry["traced"] = t
            shares = {m: t["metrics"][f"{m}.self.share"]["value"] for m in spans.MODULES}
            print("  self-time shares: " + ", ".join(
                f"{m} {v:.3f}" for m, v in sorted(shares.items(), key=lambda kv: -kv[1])))
        report["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
