"""The qkron benchmark: one command, three workloads, end-to-end metrics with
tracing off and per-layer metrics from a separate traced run.

    python3 perfbench/run.py --workload queries --seed 1 --seconds 18 --trace 0

Run it from the root of a checkout; it imports qkron from ./src and reads
and writes only inside the checkout (scratch files go to ./.perfbench).
Every repetition runs in a fresh interpreter, one at a time.  The last line
of stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Exit code 0 means the run completed; any other code means it could not run
and no result was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import common
import spans

CHILD = os.path.join(common.HERE, "child.py")
# a whole run, every interpreter it starts included, ends within this
DEADLINE_S = 170

# import-only interpreters spawned besides the repetitions, for setup_s
SETUP_SPAWNS = 5
# cache fills per `layers-cached` run, for setup_s
FILLS = 2
# untraced and traced repetitions, alternating, in a traced run
TRACE_PAIRS = 2

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("req_p50_ms", "ms"),
              ("req_p99_ms", "ms"), ("peak_rss_mb", "MB"))


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def spawn(cfg, env, deadline):
    """Run child.py with cfg, killing it at the perf_counter time `deadline`;
    returns (its JSON result, seconds from spawn to the end of set-up, the
    same normalized to the reference host speed or None without the probe,
    the process's whole wall time)."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, CHILD, json.dumps(cfg)], env=env,
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{cfg['workload']} did not finish within {DEADLINE_S} s") from exc
    total_s = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"{cfg['workload']} repetition exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    ready_s = res["t_ready"] - t0
    ready_norm_s = None
    if "ready_slowdown" in res:
        ready_norm_s = (ready_s - res["ready_busy_s"]) / res["ready_slowdown"]
    return res, ready_s, ready_norm_s, total_s


def snapshot(cache_dir):
    """Modification time and size of each file in the layer cache."""
    out = {}
    for name in os.listdir(cache_dir):
        st = os.stat(os.path.join(cache_dir, name))
        out[name] = (st.st_mtime_ns, st.st_size)
    return out


def git_commit():
    if not os.path.isdir(".git"):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def best_op_s(reps):
    """Each op's fastest time over the repetitions.  Every repetition runs
    the same ops in the same order in a fresh process, so an op's times
    differ only by what else the host was doing meanwhile."""
    return [min(times) for times in zip(*(r["op_s"] for r in reps))]


def median_op_s(reps, key):
    """Each op's median time over the repetitions, from the times at `key`."""
    return [statistics.median(times) for times in zip(*(r[key] for r in reps))]


def run(workload, seed, seconds, trace):
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("QCA_CACHE_DIR", None)
    base = {"workload": workload, "seed": seed, "k_top": common.K_TOP}
    scratch = os.path.abspath(".perfbench")
    reps = max(3, round(seconds / common.REP_S[workload]))
    # set-up and cache-fill times, normalized to the reference host speed and raw
    setup_s, raw_setup_s, fill_s, raw_fill_s = [], [], [], []
    plain, traced = [], []
    cache_ok = True
    deadline = time.perf_counter() + DEADLINE_S
    cache_dir = os.path.join(scratch, f"cache-{os.getpid()}")

    def rep(cfg):
        res, ready_s, ready_norm_s, _total_s = spawn(cfg, env, deadline)
        if ready_norm_s is not None:
            setup_s.append(ready_norm_s)
            raw_setup_s.append(ready_s)
        return res

    try:
        # the first interpreter writes bytecode caches; it is not timed
        spawn(dict(base, workload="import"), env, deadline)
        if workload == "layers-cached":
            env["QCA_CACHE_DIR"] = cache_dir
            for _ in range(FILLS):
                shutil.rmtree(cache_dir, ignore_errors=True)
                res, _ready_s, _ready_norm_s, total_s = spawn(
                    dict(base, workload="fill", probe=True), env, deadline)
                fill_s.append((total_s - res["busy_s"]) / res["slowdown"])
                raw_fill_s.append(total_s)
            before = snapshot(cache_dir)
        if trace:
            for i in range(TRACE_PAIRS):
                plain.append(rep(base))
                out = os.path.join(scratch, "traces", f"{workload}-seed{seed}-rep{i}.json")
                traced.append(rep(dict(base, trace_out=out)))
        else:
            for _ in range(SETUP_SPAWNS):
                rep(dict(base, workload="import", probe=True))
            for _ in range(reps):
                plain.append(rep(dict(base, probe=True)))
        if workload == "layers-cached":
            # reading must not have recomputed and rewritten any layer
            cache_ok = snapshot(cache_dir) == before
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    everything = plain + traced
    attempted = sum(r["attempted"] for r in everything)
    failed = sum(r["failed"] for r in everything)
    errors = [e for r in everything for e in r["errors"]][:10]
    if not cache_ok:
        errors.append("layer cache files were rewritten while reading them")
    env_record = {
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "commit": git_commit(), "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "repetitions": len(plain), "traced_repetitions": len(traced),
        "k_top": common.K_TOP,
        "n_queries": common.N_QUERIES if workload == "queries" else None,
        "setup_samples": len(setup_s), "cache_fills": len(fill_s),
        "fail_ratio": failed / attempted,
    }
    if trace:
        layer = {name: statistics.median(r["layer_metrics"][name] for r in traced)
                 for name in traced[0]["layer_metrics"]}
        layer["trace.overhead_ratio"] = sum(best_op_s(traced)) / sum(best_op_s(plain))
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit in spans.metric_names()}
    else:
        op_ms = [1000 * t for t in median_op_s(plain, "op_norm_s")]
        p, tail_ms = common.tail_percentile(op_ms)
        values = {
            "setup_s": statistics.median(setup_s) + (statistics.median(fill_s) if fill_s else 0),
            "wall_s": sum(op_ms) / 1000,
            "req_p50_ms": statistics.median(op_ms),
            "req_p99_ms": tail_ms,
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in plain),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        env_record.update(
            latency_samples=len(op_ms), p99_is_percentile=p,
            raw_wall_s=sum(median_op_s(plain, "op_s")),
            raw_setup_s=statistics.median(raw_setup_s)
            + (statistics.median(raw_fill_s) if raw_fill_s else 0),
            slowdown=statistics.median(r["slowdown"] for r in plain),
            probes=sum(r["probes"] for r in plain))
    return {"correct": failed == 0 and cache_ok and not errors, "attempted": attempted,
            "failed": failed, "metrics": metrics}, env_record, errors


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=common.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "qkron", "__init__.py")):
        print("error: run from the root of a qkron checkout (no src/qkron here)",
              file=sys.stderr)
        return 2
    try:
        result, env_record, errors = run(args.workload, args.seed, args.seconds,
                                         bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for e in errors:
        print(f"failure: {e}")
    for name, m in result["metrics"].items():
        print(f"{name:<36} {m['value']:>14.6g} {m['unit']}")
    print(f"{'fail_ratio':<36} {env_record['fail_ratio']:>14.6g} failed/attempted")
    print("env " + json.dumps(env_record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
