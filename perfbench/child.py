"""One repetition of a benchmark workload, in a fresh interpreter.

Run by `run.py` from the root of a checkout as

    python3 perfbench/child.py '<json config>'

Unless the repetition is traced, the host-speed probe (`probe.py`) runs
from before qkron is imported to the end.  Set-up ends when `qkron` and its
command-line module are imported; the moment is reported on the
system-wide monotonic clock, so the parent can subtract the time it
spawned this process.  The last line of stdout is one JSON object with the
wall time of each op, the same normalized to the reference host speed, op
counts and failures.
"""

import json
import os
import sys
import time

import probe

CFG = json.loads(sys.argv[1])
PROBE = probe.Probe() if CFG.get("probe") else None
if PROBE is not None:
    PROBE.start()
T_START = time.perf_counter()

SRC = os.path.join(os.getcwd(), "src")
sys.path.insert(0, SRC)
import qkron.cli  # noqa: E402  (set-up ends here)

T_READY = time.perf_counter()
READY_BUSY_S = PROBE.busy_s if PROBE is not None else 0.0

import contextlib  # noqa: E402
import io  # noqa: E402
import resource  # noqa: E402

import common  # noqa: E402


class Ops:
    """The wall time of each op of one repetition, less the time the probe
    took inside it.  An op is one public call; its time is recorded whether
    it returns or raises."""

    def __init__(self):
        self.spans = []  # (t0, t1, probe time inside)

    @contextlib.contextmanager
    def timed(self):
        busy0 = PROBE.busy_s if PROBE is not None else 0.0
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            busy1 = PROBE.busy_s if PROBE is not None else 0.0
            self.spans.append((t0, t1, busy1 - busy0))

    def wall_s(self):
        return [t1 - t0 - busy for t0, t1, busy in self.spans]

    def norm_s(self):
        """Each op's time divided by the host's slowdown around it."""
        return [(t1 - t0 - busy) / PROBE.slowdown(t0, t1) for t0, t1, busy in self.spans]


# Each runner times its ops into `ops` and checks their outputs into `record`.


def _run_layers_cached(cfg, record, ops, tracer=None):
    """dcb.layer_table(k) for k = 0..k_top, read back from the QCA_CACHE_DIR
    the fill process wrote; the op is one call."""
    from qkron import dcb

    golden = common.load_golden("layers")
    tables = {}
    for k in range(cfg["k_top"] + 1):
        with ops.timed():
            try:
                tables[k] = dcb.layer_table(k)
            except Exception as exc:  # a raising op is a failed op, not a crash
                record.error(f"layer {k}: {exc!r}")
    # the canonical text of every element, checked outside the timed calls
    if tracer is not None:
        tracer.uninstall()
    for k in range(cfg["k_top"] + 1):
        entries = tables[k].entries if k in tables else {}
        for a in common.layer_exponents(k):
            elem = entries.get(a)
            record.op(common.exp_key(a), None if elem is None else str(elem), golden)


def cli_request(argv):
    """cli.main(argv) with its output captured; (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = qkron.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def _run_queries(cfg, record, ops, tracer=None):
    golden = dict(enumerate(common.load_golden("queries")))
    for i, (idx, argv) in enumerate(common.generate_queries(cfg["seed"])):
        if tracer is not None:
            tracer.req = i
        text = None
        try:
            with ops.timed():
                code, stdout = cli_request(argv)
            text = common.request_output(code, stdout)
        except Exception as exc:
            record.error(f"{' '.join(argv)}: {exc!r}")
        record.op(idx, text, golden)
    if tracer is not None:
        tracer.uninstall()


def _run_verify(cfg, record, ops, tracer=None):
    """One `verify` call per suite; the op is one call."""
    golden = common.load_golden("verify")
    for name in common.SUITES:
        text = None
        try:
            with ops.timed():
                code, stdout = cli_request(["verify", name])
            if json.loads(stdout).get("ok") is True:
                text = common.request_output(code, stdout)
            else:
                record.error(f"verify {name}: report is not ok")
        except Exception as exc:
            record.error(f"verify {name}: {exc!r}")
        record.op(name, text, golden)
    if tracer is not None:
        tracer.uninstall()


RUNNERS = {"layers-cached": _run_layers_cached, "queries": _run_queries,
           "verify": _run_verify}


def main(cfg):
    if not os.path.realpath(qkron.cli.__file__).startswith(os.path.realpath(SRC) + os.sep):
        print(f"qkron imported from {qkron.cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    out = {"t_ready": T_READY}
    workload = cfg["workload"]
    ops = tracer = None
    if workload == "fill":
        from qkron import dcb

        for k in range(cfg["k_top"] + 1):
            dcb.layer_table(k)
    elif workload == "import":
        if PROBE is not None:
            # probe on for a while after set-up, for a steadier slowdown
            time.sleep(probe.SETUP_TAIL_S)
    else:
        if cfg.get("trace_out"):
            import spans

            tracer = spans.Tracer()
            spans.install(tracer)
        record, ops = common.Record(), Ops()
        RUNNERS[workload](cfg, record, ops, tracer)
        out.update(op_s=ops.wall_s(), attempted=record.attempted, failed=record.failed,
                   errors=record.errors)
        if tracer is not None:
            out["layer_metrics"] = spans.finish(tracer, cfg, sum(out["op_s"]))
    if PROBE is not None:
        PROBE.stop()
        out.update(busy_s=PROBE.busy_s, probes=len(PROBE.durations),
                   slowdown=PROBE.slowdown(T_START, time.perf_counter()),
                   # the probe time before set-up ended, and the slowdown over
                   # set-up and the SETUP_TAIL_S after it
                   ready_busy_s=READY_BUSY_S,
                   ready_slowdown=PROBE.slowdown(T_START, T_READY + probe.SETUP_TAIL_S))
        if ops is not None:
            out["op_norm_s"] = ops.norm_s()
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(CFG))
