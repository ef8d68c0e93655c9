"""Command-line front end: compute basis elements, expand products, run the
verification suites, and print cluster/layer tables.

Exit codes are the machine contract: 0 success, 1 a verified identity
failed, 2 usage error, 3 a resource cap was hit.

`main` may be called many times in one process, as the benchmark and the
tests do.  Between calls it keeps only per-process memos that no request
changes: the argument parser (built by `build_parser` on the first call, not
at import), the basis elements and layer tables of `dcb` (`_B_CACHE`,
`_LAYER_TABLES`), and the cluster-table rows that `classical.cluster_variable`
and `classical.polynomial_form` memoize.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from concurrent.futures import ProcessPoolExecutor

from . import classical, dcb, free_serre, pbw, qseed

EXIT_OK = 0
EXIT_IDENTITY = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

# each verify suite: its default bounds (--n-max / --k-max override where
# meaningful) and its runner, run(n_max, k_max, seed, mode) -> entries.  A
# runner looks its checks up as module attributes when it runs, so a check
# rebound on its module after import is the one called.
_SUITE_TABLE = {
    "straightening": ({}, lambda n, k, seed, mode: pbw.verify_normal_form(seed=seed)),
    "serre": ({}, lambda n, k, seed, mode:
              free_serre.verify_straightening_mod_serre(mode=mode, seed=seed)),
    "layers": ({"k_max": 6},
               lambda n, k, seed, mode: dcb.verify_layers(k, seeds=(seed + 1, seed + 2))),
    "recursions": ({"n_max": 6}, lambda n, k, seed, mode: dcb.verify_recursions(n)),
    "products": ({"n_max": 5}, lambda n, k, seed, mode: dcb.verify_products(n)),
    "closed-formulas": ({"n_max": 4, "k_max": 6}, lambda n, k, seed, mode:
                        dcb.verify_closed_formulas(n) + dcb.verify_power_formulas(k)),
    "pbw-expansion": ({"n_max": 3}, lambda n, k, seed, mode: dcb.verify_pbw_expansion(n)),
    "classical": ({"n_max": 10}, lambda n, k, seed, mode:
                  classical.verify_classical(n) + _classical_cross_checks()),
    "qseed": ({"n_max": 5}, lambda n, k, seed, mode:
              qseed.verify_quasi_commutation(n) + qseed.verify_quantum_exchange(n)
              + qseed.verify_bz_exchange(n) + qseed.verify_algebra_matches_l(min(n, 6))),
}
SUITES = tuple(_SUITE_TABLE)


def run_suite(name: str, params: dict) -> dict:
    """Run one named suite and wrap its entries with an aggregate flag."""
    defaults, run = _SUITE_TABLE[name]
    n_max = params.get("n_max")
    k_max = params.get("k_max")
    if n_max is None:
        n_max = defaults.get("n_max")
    if k_max is None:
        k_max = defaults.get("k_max", n_max)
    if n_max is None:
        n_max = k_max
    entries = run(n_max, k_max, params.get("seed", 0), params.get("mode"))
    ok = all(e.get("ok", e.get("member", False)) for e in entries)
    return {"suite": name, "ok": ok, "entries": entries}


def _classical_cross_checks() -> list:
    """Quantum-to-classical bridge: q = 1 images of basis elements against
    the commutative formulas."""
    entries = []
    for m in range(0, 4):
        ok = dcb.b_element((m + 1, 0, 0, m)).specialize_q1() == classical.polynomial_form(m + 3)
        entries.append({"suite": "classical", "n": m,
                        "identity": "q=1 image of B[m+1,0,0,m] equals U_{m+3}", "ok": ok})
    for n in range(2, 5):
        ok = dcb.b_element((n, 0, 0, n)).specialize_q1() == classical.chebyshev_basis_element(n, "S")
        entries.append({"suite": "classical", "n": n,
                        "identity": "q=1 image of B[n,0,0,n] equals s_n", "ok": ok})
    return entries


def _run_suite_star(args):
    return run_suite(*args)


def cmd_compute(args, parser) -> int:
    a = tuple(args.a)
    if any(x < 0 for x in a):
        parser.error("exponents must be non-negative")
    try:
        elem = dcb.b_element(a, max_layer=args.max_layer)
    except (dcb.LayerCapExceeded, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    out = {}
    if args.dual_pbw:
        coeffs = dcb.expand_in_dual_pbw(elem)
        if args.format == "json":
            out["dual_pbw"] = [{"exp": list(e), "coef": str(c)}
                               for e, c in sorted(coeffs.items(), reverse=True)]
        else:
            for e, c in sorted(coeffs.items(), reverse=True):
                print(f"E[{','.join(map(str, e))}]: {c}")
    if args.q1:
        q1 = elem.specialize_q1()
        if args.format == "json":
            out["q1"] = str(q1)
        elif args.format == "latex":
            print(q1.to_latex())
        else:
            print(q1)
    if args.format == "json":
        out["a"] = list(a)
        out["element"] = elem.to_json_dict()
        print(json.dumps(out))
    elif not args.dual_pbw and not args.q1:
        print(elem.to_latex() if args.format == "latex" else elem)
    return EXIT_OK


def cmd_product(args, parser) -> int:
    a, b = tuple(args.a), tuple(args.b)
    if any(x < 0 for x in a + b):
        parser.error("exponents must be non-negative")
    k = sum(a) + sum(b)
    if k > args.max_layer:
        print(f"error: product lives on layer {k} > --max-layer {args.max_layer}",
              file=sys.stderr)
        return EXIT_RESOURCE
    try:
        coeffs = dcb.expand_in_b_basis(dcb.b_element(a) * dcb.b_element(b))
    except RecursionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    items = sorted(coeffs.items(), reverse=True)
    if args.format == "json":
        print(json.dumps({"a": list(a), "b": list(b),
                          "terms": [{"c": list(e), "coef": str(v)} for e, v in items]}))
    else:
        def bname(e):
            return f"B[{','.join(map(str, e))}]"
        lhs = f"B[{','.join(map(str, a))}]*B[{','.join(map(str, b))}]"
        parts = [f"({v})*{bname(e)}" if v != 1 else bname(e) for e, v in items]
        print(f"{lhs} = " + (" + ".join(parts) if parts else "0"))
    return EXIT_OK


def cmd_verify(args, parser) -> int:
    if args.jobs < 1:
        parser.error("--jobs must be at least 1")
    # open --out before any suite runs, so that a path that cannot be
    # written fails at once; the report is written when every suite is done
    try:
        out = open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout)
    except OSError as exc:
        print(f"error: cannot write --out: {exc}", file=sys.stderr)
        return EXIT_USAGE
    with out as fh:
        names = list(SUITES) if args.suite == "all" else [args.suite]
        params = {"n_max": args.n_max, "k_max": args.k_max, "seed": args.seed,
                  "mode": args.mode}
        if args.jobs > 1 and len(names) > 1:
            # under fork every worker starts at once: no more than there are suites
            with ProcessPoolExecutor(max_workers=min(args.jobs, len(names))) as pool:
                results = list(pool.map(_run_suite_star, [(n, params) for n in names]))
        else:
            results = [run_suite(n, params) for n in names]
        results.sort(key=lambda r: names.index(r["suite"]))
        empty = [r["suite"] for r in results if not r["entries"]]
        if empty:
            print(f"error: no entries in suite {', '.join(empty)}; check --n-max/--k-max",
                  file=sys.stderr)
            return EXIT_USAGE
        report = {"ok": all(r["ok"] for r in results), "suites": results}
        print(json.dumps(report, indent=2), file=fh)
    return EXIT_OK if report["ok"] else EXIT_IDENTITY


def _parse_range(text: str, parser):
    try:
        lo, hi = text.split("..", 1) if ".." in text else (text, text)
        lo, hi = int(lo), int(hi)
    except ValueError:
        parser.error(f"bad range {text!r}; expected N or N..M")
    if lo > hi:
        parser.error(f"empty range {text!r}; expected N..M with N <= M")
    return lo, hi


def cmd_table(args, parser) -> int:
    lo, hi = _parse_range(args.range, parser)
    rows = []
    if args.kind == "cluster":
        for n in range(lo, hi + 1):
            rows.append({"n": n,
                         "laurent": classical.cluster_variable(n),
                         "polynomial": classical.polynomial_form(n)})
        if args.format == "json":
            print(json.dumps([{"n": r["n"], "laurent": str(r["laurent"]),
                               "polynomial": str(r["polynomial"])} for r in rows]))
        else:
            for r in rows:
                if args.format == "latex":
                    print(f"U_{{{r['n']}}} &= {r['laurent'].to_latex()} "
                          f"= {r['polynomial'].to_latex()} \\\\")
                else:
                    print(f"U_{r['n']} (laurent)    = {r['laurent']}")
                    print(f"U_{r['n']} (polynomial) = {r['polynomial']}")
    else:
        if lo < 0:
            parser.error("layer index must be non-negative")
        if hi > args.max_layer:
            print(f"error: layer {max(lo, args.max_layer + 1)} > --max-layer {args.max_layer}",
                  file=sys.stderr)
            return EXIT_RESOURCE
        for k in range(lo, hi + 1):
            tab = dcb.layer_table(k)
            for a in sorted(tab.entries, reverse=True):
                rows.append({"a": a, "element": tab.entries[a]})
        if args.format == "json":
            print(json.dumps([{"a": list(r["a"]), "element": r["element"].to_json_dict()}
                              for r in rows]))
        else:
            for r in rows:
                name = f"B[{','.join(map(str, r['a']))}]"
                body = r["element"].to_latex() if args.format == "latex" else str(r["element"])
                print(f"{name} = {body}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qkron",
        description="Exact computation in the quantum Kronecker cluster algebra: "
                    "dual canonical basis elements, product expansions, identity "
                    "verification suites, and cluster tables.")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compute", help="print the basis element B[a3,a2,a1,a0]")
    c.add_argument("a", nargs=4, type=int, metavar="A")
    c.add_argument("--format", choices=("text", "json", "latex"), default="text")
    c.add_argument("--dual-pbw", action="store_true",
                   help="print the dual PBW coefficient table instead")
    c.add_argument("--q1", action="store_true", help="print the q = 1 specialization")
    c.add_argument("--max-layer", type=int, default=8)

    pr = sub.add_parser("product", help="expand B[a] * B[b] in the basis")
    pr.add_argument("a", nargs=4, type=int, metavar="A")
    pr.add_argument("b", nargs=4, type=int, metavar="B")
    pr.add_argument("--format", choices=("text", "json"), default="text")
    pr.add_argument("--max-layer", type=int, default=8)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("suite", choices=SUITES + ("all",))
    v.add_argument("--n-max", type=int, default=None)
    v.add_argument("--k-max", type=int, default=None)
    v.add_argument("--mode", choices=("exact", "probabilistic"), default=None)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--jobs", type=int, default=1)
    v.add_argument("--out", default=None, help="write the JSON report to a file")

    t = sub.add_parser("table", help="print cluster variables or a basis layer")
    t.add_argument("kind", choices=("cluster", "layer"))
    # optional here, so that `main` can take a range such as -20..20, which
    # argparse reads as an unknown option, or one after other options
    t.add_argument("range", nargs="?", help="N or N..M")
    t.add_argument("--format", choices=("text", "json", "latex"), default="text")
    t.add_argument("--max-layer", type=int, default=8)
    return p


_PARSER = None


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        # looked up by name at the call, so a wrapped `build_parser` is the one run
        _PARSER = build_parser()
    parser = _PARSER
    args, extra = parser.parse_known_args(argv)
    if args.command == "table" and args.range is None:
        extra = [x for x in extra if x != "--"]
        if len(extra) != 1:
            parser.error("table: expected one range, N or N..M")
        args.range = extra.pop()
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    if args.command == "compute":
        return cmd_compute(args, parser)
    if args.command == "product":
        return cmd_product(args, parser)
    if args.command == "verify":
        return cmd_verify(args, parser)
    if args.command == "table":
        return cmd_table(args, parser)
    parser.error("no command")
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
