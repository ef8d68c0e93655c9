"""Tracing for the benchmark's traced run, installed from outside qkron.

`install` rebinds module attributes and class methods of qkron in the
current process.  Calls at layer boundaries (a layer computed, a suite
run, a CLI request) become spans: name, start, end, parent span and the
request id.  The hot arithmetic leaves (LaurentQ and PbwElement operations)
would make hundreds of thousands of spans, so each is aggregated instead,
as a call count plus busy and self time under its enclosing span.  Spans
stay in memory; `finish` derives the per-layer metrics and writes the spans
out when the repetition ends.
"""

from __future__ import annotations

import itertools
import json
import os
import time

import common

MODULES = ("qarith", "pbw", "dcb", "free_serre", "qseed", "classical", "cli")
QSEED_CHECKS = ("verify_quasi_commutation", "verify_quantum_exchange",
                "verify_bz_exchange", "verify_algebra_matches_l")

# span record fields
ID, PARENT, NAME, T0, T1, REQ, LEAF_S, OUTER, INFO = range(9)


class Tracer:
    def __init__(self):
        self.spans = []       # [id, parent, name, t0, t1, req, leaf_s, outer, info]
        self.frames = []      # open calls: [is_span, time in traced children]
        self.open_spans = [0]  # ids of open spans; 0 is the root
        self.active = {}      # name -> how many calls of it are open
        self.leaf_agg = {}    # (enclosing span id, op) -> [calls, busy_s, self_s]
        self.req = None
        self.ids = itertools.count(1)
        self.t_start = time.perf_counter()

    def span(self, name, fn, before=None, after=None):
        """Wrap fn so that each call records a span; `before(args)` and
        `after(info, result)` fill the span's info dict outside its timing."""
        spans, frames, open_spans, active = self.spans, self.frames, self.open_spans, self.active
        ids, clock = self.ids, time.perf_counter

        def wrapper(*args, **kwargs):
            info = before(args) if before is not None else None
            sid = next(ids)
            parent = open_spans[-1]
            depth = active.get(name, 0)
            active[name] = depth + 1
            frame = [True, 0.0]
            frames.append(frame)
            open_spans.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                frames.pop()
                open_spans.pop()
                active[name] = depth
                if frames and not frames[-1][0]:
                    frames[-1][1] += t1 - t0
                spans.append([sid, parent, name, t0, t1, self.req, frame[1], depth == 0, info])
            if after is not None:
                spans[-1][INFO] = after(info, result)
            return result

        return wrapper

    def leaf(self, op, fn):
        """Wrap fn so that calls are aggregated under the enclosing span."""
        frames, open_spans, active, agg = self.frames, self.open_spans, self.active, self.leaf_agg
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            depth = active.get(op, 0)
            active[op] = depth + 1
            frame = [False, 0.0]
            frames.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                frames.pop()
                active[op] = depth
                if frames:
                    frames[-1][1] += dt
                key = (open_spans[-1], op)
                rec = agg.get(key)
                if rec is None:
                    rec = agg[key] = [0, 0.0, 0.0]
                rec[0] += 1
                if depth == 0:  # busy time counts the outermost call only
                    rec[1] += dt
                rec[2] += dt - frame[1]

        return wrapper


def self_times(spans) -> dict:
    """Span id -> self time: its duration minus the durations of its direct
    child spans and the time of aggregated leaf calls directly inside it."""
    child = {}
    for s in spans:
        child[s[PARENT]] = child.get(s[PARENT], 0.0) + (s[T1] - s[T0])
    return {s[ID]: s[T1] - s[T0] - child.get(s[ID], 0.0) - s[LEAF_S] for s in spans}


def install(tracer):
    """Wrap qkron's public entry points and arithmetic leaves; afterwards
    `tracer.uninstall()` restores the originals."""
    import qkron
    from qkron import classical, cli, dcb, free_serre, pbw, qarith, qseed

    modules = (qkron, qarith, pbw, dcb, free_serre, qseed, classical, cli)
    undo = []

    def set_attr(owner, attr, value):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap_function(module, attr, wrapped_of):
        # rebind every module that imported the function by name
        orig = getattr(module, attr)
        new = wrapped_of(orig)
        for m in modules:
            if m.__dict__.get(attr) is orig:
                set_attr(m, attr, new)

    def wrap_method(cls, attr, op):
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            set_attr(cls, attr, classmethod(tracer.leaf(op, raw.__func__)))
        else:
            set_attr(cls, attr, tracer.leaf(op, raw))

    L, P = qarith.LaurentQ, pbw.PbwElement
    for attr in ("__mul__", "__rmul__"):
        wrap_method(L, attr, "qarith.mul")
    for attr in ("__add__", "__radd__", "__sub__", "__rsub__"):
        wrap_method(L, attr, "qarith.add")
    wrap_method(L, "parse", "qarith.parse")
    wrap_method(L, "__str__", "qarith.str")
    wrap_function(qarith, "split_antisymmetric",
                  lambda f: tracer.leaf("qarith.split_antisymmetric", f))
    wrap_method(P, "__mul__", "pbw.mul")
    wrap_method(P, "sigma", "pbw.sigma")
    for attr in ("__str__", "to_json_dict", "to_latex"):
        wrap_method(P, attr, "pbw.render")
    wrap_method(P, "from_json_dict", "pbw.from_json")

    def layer_before(args):
        return {"k": args[0], "cached": args[0] in dcb._LAYER_TABLES}

    def layer_after(info, tab):
        # a call refused by the layer cap raises and never gets here
        info["miss"] = not info["cached"]
        if info["miss"]:
            coefs = [c for e in tab.entries.values() for c in e.terms.values()]
            info["terms"] = sum(len(e.terms) for e in tab.entries.values())
            info["max_coef_terms"] = max((len(c.terms) for c in coefs), default=0)
        return info

    def span(module, attr, name, **hooks):
        wrap_function(module, attr, lambda f: tracer.span(name, f, **hooks))

    span(dcb, "layer_table", "dcb.layer_table", before=layer_before, after=layer_after)
    span(dcb, "compute_layer", "dcb.compute_layer")
    span(dcb, "check_basis_conditions", "dcb.check")
    span(dcb, "b_element", "dcb.b_element")
    span(dcb, "expand_in_b_basis", "dcb.expand_in_b_basis")
    span(free_serre, "ideal_membership", "free_serre.ideal_membership",
         after=lambda info, res: {"mode": res.mode})
    span(free_serre, "spanning_set", "free_serre.spanning_set",
         after=lambda info, res: {"rows": len(res)})
    span(free_serre, "expand_certificate", "free_serre.expand_certificate")
    for check in QSEED_CHECKS:
        span(qseed, check, f"qseed.{check}")
    span(classical, "verify_classical", "classical.verify_classical")
    span(cli, "main", "cli.main")
    span(cli, "build_parser", "cli.build_parser")
    span(cli, "run_suite", "cli.suite", before=lambda args: {"suite": args[0]})

    tracer.b_cache_start = len(dcb._B_CACHE)

    def uninstall():
        tracer.gen_cache_entries = len(pbw._GEN_CACHE)
        tracer.b_cache_growth = len(dcb._B_CACHE) - tracer.b_cache_start
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    tracer.uninstall = uninstall


def metric_names() -> list:
    """Every per-layer metric, as (name, unit), in report order."""
    names = [("qarith.mul.calls", "count"), ("qarith.mul.s", "s"),
             ("qarith.add.calls", "count"), ("qarith.add.s", "s"),
             ("qarith.split_antisymmetric.s", "s"), ("qarith.parse.s", "s"),
             ("qarith.str.s", "s"),
             ("pbw.sigma.calls", "count"), ("pbw.sigma.s", "s"),
             ("pbw.mul.calls", "count"), ("pbw.mul.s", "s"),
             ("pbw.render.s", "s"), ("pbw.from_json.s", "s"),
             ("pbw.gen_cache.entries", "count")]
    for k in common.TRACED_LAYERS:
        names += [(f"dcb.layer.k{k}.s", "s"), (f"dcb.layer.k{k}.terms", "count"),
                  (f"dcb.layer.k{k}.max_coef_terms", "count")]
    names += [("dcb.check.calls", "count"), ("dcb.check.s", "s"),
              ("dcb.compute_layer.self_s", "s"),
              ("dcb.b_element.calls", "count"), ("dcb.b_element.s", "s"),
              ("dcb.b_cache.hit_ratio", "ratio"),
              ("dcb.layer_table.calls", "count"), ("dcb.layer_table.misses", "count"),
              ("dcb.expand_in_b_basis.calls", "count"), ("dcb.expand_in_b_basis.s", "s"),
              ("free_serre.exact.s", "s"), ("free_serre.probabilistic.s", "s"),
              ("free_serre.spanning_set.s", "s"), ("free_serre.span_rows", "count"),
              ("free_serre.expand_certificate.s", "s"),
              *[(f"qseed.{check}.s", "s") for check in QSEED_CHECKS],
              ("classical.verify_classical.s", "s"),
              ("cli.main.calls", "count"), ("cli.build_parser.s", "s"), ("cli.self_s", "s")]
    names += [(f"cli.suite.{s}.s", "s") for s in common.SUITES]
    names += [(f"{m}.self.share", "ratio") for m in MODULES]
    names.append(("trace.overhead_ratio", "ratio"))
    return names


def layer_metrics(tracer, wall_s) -> dict:
    """Per-layer metric values (without trace.overhead_ratio) from a
    finished traced repetition whose timed work took wall_s."""
    recs = tracer.spans
    selfs = self_times(recs)
    leaf = {}  # op -> [calls, busy_s, self_s] over all enclosing spans
    for (_sid, op), rec in tracer.leaf_agg.items():
        tot = leaf.setdefault(op, [0, 0.0, 0.0])
        for i in range(3):
            tot[i] += rec[i]
    calls, busy, own = {}, {}, {}
    for s in recs:
        name = s[NAME]
        calls[name] = calls.get(name, 0) + 1
        if s[OUTER]:
            busy[name] = busy.get(name, 0.0) + s[T1] - s[T0]
        own[name] = own.get(name, 0.0) + selfs[s[ID]]

    def leaf_calls(op):
        return leaf.get(op, [0])[0]

    def leaf_busy(op):
        return leaf.get(op, [0, 0.0])[1]

    def with_info(name, key, value):
        return [s for s in recs if s[NAME] == name and (s[INFO] or {}).get(key) == value]

    def duration(selected):
        return sum(s[T1] - s[T0] for s in selected)

    m = {}
    for op in ("qarith.mul", "qarith.add"):
        m[f"{op}.calls"] = leaf_calls(op)
        m[f"{op}.s"] = leaf_busy(op)
    for op in ("qarith.split_antisymmetric", "qarith.parse", "qarith.str"):
        m[f"{op}.s"] = leaf_busy(op)
    for op in ("pbw.sigma", "pbw.mul"):
        m[f"{op}.calls"] = leaf_calls(op)
        m[f"{op}.s"] = leaf_busy(op)
    for op in ("pbw.render", "pbw.from_json"):
        m[f"{op}.s"] = leaf_busy(op)
    m["pbw.gen_cache.entries"] = tracer.gen_cache_entries
    for k in common.TRACED_LAYERS:
        layer = with_info("dcb.layer_table", "k", k)
        m[f"dcb.layer.k{k}.s"] = duration(layer)
        for field in ("terms", "max_coef_terms"):
            m[f"dcb.layer.k{k}.{field}"] = max((s[INFO].get(field, 0) for s in layer), default=0)
    b_calls = calls.get("dcb.b_element", 0)
    m.update({
        "dcb.check.calls": calls.get("dcb.check", 0),
        "dcb.check.s": busy.get("dcb.check", 0.0),
        "dcb.compute_layer.self_s": own.get("dcb.compute_layer", 0.0),
        "dcb.b_element.calls": b_calls,
        "dcb.b_element.s": busy.get("dcb.b_element", 0.0),
        "dcb.b_cache.hit_ratio": 1 - tracer.b_cache_growth / b_calls if b_calls else 0.0,
        "dcb.layer_table.calls": calls.get("dcb.layer_table", 0),
        "dcb.layer_table.misses": len(with_info("dcb.layer_table", "miss", True)),
        "dcb.expand_in_b_basis.calls": calls.get("dcb.expand_in_b_basis", 0),
        "dcb.expand_in_b_basis.s": busy.get("dcb.expand_in_b_basis", 0.0),
    })
    for mode in ("exact", "probabilistic"):
        m[f"free_serre.{mode}.s"] = duration(
            with_info("free_serre.ideal_membership", "mode", mode))
    m["free_serre.spanning_set.s"] = busy.get("free_serre.spanning_set", 0.0)
    m["free_serre.span_rows"] = sum((s[INFO] or {}).get("rows", 0) for s in recs
                                    if s[NAME] == "free_serre.spanning_set")
    m["free_serre.expand_certificate.s"] = busy.get("free_serre.expand_certificate", 0.0)
    for check in QSEED_CHECKS:
        m[f"qseed.{check}.s"] = busy.get(f"qseed.{check}", 0.0)
    m["classical.verify_classical.s"] = busy.get("classical.verify_classical", 0.0)
    m["cli.main.calls"] = calls.get("cli.main", 0)
    m["cli.build_parser.s"] = busy.get("cli.build_parser", 0.0)
    m["cli.self_s"] = own.get("cli.main", 0.0)
    for suite in common.SUITES:
        m[f"cli.suite.{suite}.s"] = duration(with_info("cli.suite", "suite", suite))
    module_self = dict.fromkeys(MODULES, 0.0)
    for name, t in own.items():
        module_self[name.split(".")[0]] += t
    for op, (_calls, _busy, t) in leaf.items():
        module_self[op.split(".")[0]] += t
    for mod in MODULES:
        m[f"{mod}.self.share"] = module_self[mod] / wall_s if wall_s else 0.0
    return m


def finish(tracer, cfg, wall_s) -> dict:
    """Per-layer metrics of the traced repetition; writes its spans and leaf
    aggregates to cfg["trace_out"]."""
    metrics = layer_metrics(tracer, wall_s)
    os.makedirs(os.path.dirname(cfg["trace_out"]), exist_ok=True)
    t_start = tracer.t_start
    with open(cfg["trace_out"], "w") as fh:
        json.dump({
            "workload": cfg["workload"], "seed": cfg["seed"], "wall_s": wall_s,
            "fields": ["id", "parent", "name", "t0", "t1", "req", "leaf_s", "outer", "info"],
            "spans": [[s[ID], s[PARENT], s[NAME], s[T0] - t_start, s[T1] - t_start,
                       s[REQ], s[LEAF_S], s[OUTER], s[INFO]] for s in tracer.spans],
            "leaf": [[sid, op, *rec] for (sid, op), rec in tracer.leaf_agg.items()],
            "metrics": metrics,
        }, fh)
    return metrics
