"""Command-line front end: compute basis elements, expand products, run the
verification suites, and print cluster/layer tables.

Exit codes are the machine contract: 0 success, 1 an identity `verify`
checks failed (nothing else), 2 usage error, 3 a resource cap was hit or
memory ran out, 141 (128 + SIGPIPE, as `cat` gives) the reader closed
stdout.  A request whose first argument names a command goes first to
that command's plain reader (`_plain_reader`; `build_parser` keeps the
readers in the map `readers` on the parser it returns, beside the map
`commands` of the command parsers).  The reader is built from the actions
that the command's `add_argument` calls return, so nothing is declared
twice, and reads only a plain request: the positionals, then options, each
written exactly as declared, with its value, if it takes one, as the next
token, not starting with '-'.  It returns the namespace the command's
parser would, or None, and then that parser reads the request with the
namespace the top-level parser would pass it.  So argparse still writes
all help and every usage error, and reads every other syntax: `-h`, an
abbreviated option, ``--opt=value``, ``--``, a negative number, a
positional after an option.
The top-level parser reads every request that names no command: no
argument, `-h`, an unknown command or `--`.  `main` calls the handler each
subcommand names, with that subcommand's parser, and flushes stdout; a
usage error that `main` or a handler finds is that parser's error, so it prints
``usage: qkron <command> ...`` and ``qkron <command>: error: ...`` as
argparse's own errors for the command do.  A `RecursionError`,
`MemoryError` or `OverflowError` (an index too large for the interpreter)
from any handler is exit 3, and a `BrokenPipeError` is exit 141 with
nothing on stderr.  Exit 3 too, before any work, is a `compute` or
`product` whose answer may hold a number longer than the interpreter
writes as text (`sys.get_int_max_str_digits`; the bound is 4 total^2 for
an answer on layer total), and a `verify` whose layers report would name
such a seed.  Every `--format json` answer is written by format strings
around `pbw.json_terms`, the JSON writer of terms the layer cache shares,
with no tree of dicts; the `json` module writes only the `verify` report.
The layer cache (`QCA_CACHE_DIR`) is write-only and never changes an exit
code: a damaged file is rewritten silently, and a path that cannot be
used is one warning.
`verify` runs its suites one after another in this process, in `SUITES`
order.  Each bound a suite reads has a limit, listed in `_SUITE_TABLE`: the
largest value that, with the suite's other bound at its default, answered
within a minute in 2 GB.  A bound past the limit of a suite it goes to (for
`verify all`, of any suite that reads it) is exit 3 with one line on stderr,
before any suite runs; so is a `table cluster` range past `_CLUSTER_LIMIT`,
before any row is built.  Each limit was measured alone, so a request with
both of a suite's bounds at their limits, or `verify all` at the limits,
may take minutes or run out of memory (exit 3): it runs every suite and
bound it names in turn.
This module imports at start every module that a command other than
`verify` can reach: `qarith`, `pbw`, `dcb` and `classical`.  `free_serre`
and `qseed` are imported by the suite runner that calls them, so a
`compute`, `product` or `table` process never loads them.

`main` may be called many times in one process, as the benchmark and the
tests do.  Between calls it keeps only per-process memos that no request
changes: the argument parser (built by `build_parser` on the first call, not
at import), the basis elements and layer tables of `dcb` (`_B_CACHE`,
`_LAYER_TABLES`), and the cluster-table rows that `classical.cluster_variable`
and `classical.polynomial_form` memoize.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import classical, dcb, pbw
from .qarith import compare

EXIT_OK = 0
EXIT_IDENTITY = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_PIPE = 141  # 128 + SIGPIPE


# only `verify` runs free_serre and qseed, so their suites' runners import them
def _serre(n, k, seed, mode):
    from . import free_serre

    return free_serre.verify_straightening_mod_serre(mode=mode, seed=seed)


def _qseed(n, k, seed, mode):
    from . import qseed

    return qseed.verify_qseed(n)


# each verify suite: the bounds it reads, each (default, limit) (--n-max /
# --k-max override the default, up to the limit; a bound the suite does not
# read stays None, and naming it for that suite alone is a usage error) and
# its runner, run(n_max, k_max, seed, mode) -> entries.  A limit is the
# largest value that answered within 60 s under a 2 GB address-space limit,
# each measured alone in a fresh interpreter with the suite's other bound at
# its default (2 cores, Python 3.11.7); one more ran past 60 s or out of memory.
# A runner looks its checks up as module attributes when it runs, so a
# check rebound on its module after import is the one called.
_SUITE_TABLE = {
    "straightening": ({}, lambda n, k, seed, mode: pbw.verify_normal_form(seed=seed)),
    "serre": ({}, _serre),
    "layers": ({"k_max": (6, 17)},
               lambda n, k, seed, mode: dcb.verify_layers(k, seeds=(seed + 1, seed + 2))),
    "recursions": ({"n_max": (6, 42)}, lambda n, k, seed, mode: dcb.verify_recursions(n)),
    "products": ({"n_max": (5, 42)}, lambda n, k, seed, mode: dcb.verify_products(n)),
    "closed-formulas": ({"n_max": (4, 16), "k_max": (6, 120)}, lambda n, k, seed, mode:
                        dcb.verify_closed_formulas(n) + dcb.verify_power_formulas(k)),
    "pbw-expansion": ({"n_max": (3, 17)}, lambda n, k, seed, mode: dcb.verify_pbw_expansion(n)),
    "classical": ({"n_max": (10, 55)}, lambda n, k, seed, mode:
                  classical.verify_classical(n) + _classical_cross_checks()),
    "qseed": ({"n_max": (5, 19)}, _qseed),
}
# `table cluster`: row n costs about m^3 with m = max(n, 3 - n) (U_n and
# U_{3-n} are mirror images), so a range's work is the sum of m^3 over its
# rows.  The limit is the largest single row that answered within 60 s under
# a 2 GB address-space limit, measured as above (row 350: 46-53 s, 80 MB
# peak RSS; row 360: 57 s); a range whose work exceeds that row's is exit 3
# before any row is built.
_CLUSTER_LIMIT = 350
_BOUND_FLAGS = (("--n-max", "n_max"), ("--k-max", "k_max"))
SUITES = tuple(_SUITE_TABLE)


def run_suite(name: str, params: dict) -> dict:
    """Run one named suite and wrap its entries with an aggregate flag."""
    bounds, run = _SUITE_TABLE[name]
    n_max, k_max = (bounds[key][0] if params.get(key) is None and key in bounds
                    else params.get(key) for key in ("n_max", "k_max"))
    entries = run(n_max, k_max, params.get("seed", 0), params.get("mode"))
    ok = all(e.get("ok", e.get("member", False)) for e in entries)
    return {"suite": name, "ok": ok, "entries": entries}


def _classical_cross_checks() -> list:
    """Quantum-to-classical bridge: q = 1 images of basis elements against
    the commutative formulas."""
    entries = []
    for m in range(0, 4):
        q1 = dcb.b_element((m + 1, 0, 0, m)).specialize_q1()
        entries.append(classical.table_entry(m, "q=1 image of B[m+1,0,0,m] equals U_{m+3}",
                                             lambda: (q1, classical.polynomial_form(m + 3))))
    for n in range(2, 5):
        entries.append(compare("classical", n, "q=1 image of B[n,0,0,n] equals s_n",
                               dcb.b_element((n, 0, 0, n)).specialize_q1(),
                               classical.chebyshev_basis_element(n, "S")))
    return entries


def _bname(a) -> str:
    """The name ``B[a3,a2,a1,a0]`` of a basis element."""
    return f"B[{','.join(map(str, a))}]"


# the interpreter's limit on the digits of an int written as text, 0 for none
# (an interpreter without the limit has no getter); the limit stays, since it
# keeps the reading of argv linear
_digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)


def _past_digit_limit(n: int, what: str) -> bool:
    """Whether n, a bound on the numbers `what` may hold, is past the
    interpreter's limit on the digits of an int written as text, read when
    called; if so, say so in one line on stderr."""
    limit = _digit_limit()
    # below 8^limit, n is below 10^limit: most requests build no power of ten
    if limit and n.bit_length() > 3 * limit and abs(n) >= 10 ** limit:
        print(f"error: {what} may hold numbers of more than {limit} digits, the "
              "interpreter's limit for integer text", file=sys.stderr)
        return True
    return False


def cmd_compute(args, parser) -> int:
    a = tuple(args.a)
    if any(x < 0 for x in a):
        parser.error("exponents must be non-negative")
    # every q-exponent measured in an answer is at most total^2 in size (b(a) is
    # at most total(a)^2 / 2, and B[0,0,0,n] B[n,0,0,0] carries q^(-total^2)); a
    # half-exponent, written for an odd one, is twice that, and 4 total^2 keeps
    # a factor 2 to spare
    if _past_digit_limit(4 * sum(a) ** 2, "the answer"):
        return EXIT_RESOURCE
    # the cap is on the core (x, 0, 0, w) that b_element's p0/p1 stripping
    # leaves, checked before any build so that it never depends on earlier
    # requests; b_element recurses once per step, so a stripping as deep as
    # the recursion limit is refused here too
    core, depth = dcb._core(a), sys.getrecursionlimit()
    if (sum(a) - sum(core)) // 2 >= depth:
        print(f"error: p0/p1 stripping deeper than {depth} steps", file=sys.stderr)
        return EXIT_RESOURCE
    x, w = core[0], core[3]
    if x >= 1 and w >= 1 and abs(x - w) >= 2 and x + w > args.max_layer:
        print(f"error: layer {x + w} exceeds cap {args.max_layer}", file=sys.stderr)
        return EXIT_RESOURCE
    elem = dcb.b_element(a)
    json_form = args.format == "json"
    parts = []  # the JSON answer's members, each written as text
    if args.dual_pbw:
        d = dcb.expand_in_dual_pbw(elem)
        if json_form:
            parts.append('"dual_pbw": ' + pbw.json_terms(d, "exp"))
        else:
            latex = args.format == "latex"
            print("\n".join([f"E[{','.join(map(str, e))}]: {d[e].to_latex() if latex else d[e]}"
                             for e in sorted(d, reverse=True)]))
    if args.q1:
        q1 = elem.specialize_q1()
        if json_form:
            parts.append('"q1": "%s"' % q1)  # U/P names and the coefficient grammar: no escape
        elif args.format == "latex":
            print(q1.to_latex())
        else:
            print(q1)
    if json_form:
        parts.append('"a": [%d, %d, %d, %d], "element": {"terms": %s}'
                     % (*a, pbw.json_terms(elem.terms, "exp")))
        print("{%s}" % ", ".join(parts))
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
    # the bound of compute, on layer k
    if _past_digit_limit(4 * k ** 2, "the product"):
        return EXIT_RESOURCE
    d = dcb.b_product(a, b)
    if args.format == "json":
        print('{"a": [%d, %d, %d, %d], "b": [%d, %d, %d, %d], "terms": %s}'
              % (*a, *b, pbw.json_terms(d, "c")))
    else:
        parts = [f"({d[e]})*{_bname(e)}" if d[e] != 1 else _bname(e)
                 for e in sorted(d, reverse=True)]
        print(f"{_bname(a)}*{_bname(b)} = " + (" + ".join(parts) if parts else "0"))
    return EXIT_OK


def cmd_verify(args, parser) -> int:
    negative = [flag for flag, key in _BOUND_FLAGS
                if getattr(args, key) is not None and getattr(args, key) < 0]
    if negative:
        # refused before any suite runs; some suites would index a table they never built
        print(f"error: {' and '.join(negative)} must be at least 0", file=sys.stderr)
        return EXIT_USAGE
    if args.mode is not None and args.suite not in ("serre", "all"):
        print(f"error: --mode applies to the serre suite, not {args.suite}", file=sys.stderr)
        return EXIT_USAGE
    if args.suite != "all":
        bounds = _SUITE_TABLE[args.suite][0]
        unread = [flag for flag, key in _BOUND_FLAGS
                  if getattr(args, key) is not None and key not in bounds]
        if unread:
            print(f"error: the {args.suite} suite reads no {' or '.join(unread)}",
                  file=sys.stderr)
            return EXIT_USAGE
    names = list(SUITES) if args.suite == "all" else [args.suite]
    # refused before any suite runs: past its limit a suite answers in minutes or hours
    for name in names:
        bounds = _SUITE_TABLE[name][0]
        for flag, key in _BOUND_FLAGS:
            value = getattr(args, key)
            if key in bounds and value is not None and value > bounds[key][1]:
                print(f"error: {flag} {value} exceeds the {name} suite's limit {bounds[key][1]}",
                      file=sys.stderr)
                return EXIT_RESOURCE
    # the layers suite names seed + 1 and seed + 2 in its report
    if "layers" in names and _past_digit_limit(abs(args.seed) + 2, "the layers report"):
        return EXIT_RESOURCE
    params = {"n_max": args.n_max, "k_max": args.k_max, "seed": args.seed,
              "mode": args.mode}
    results = [run_suite(n, params) for n in names]
    empty = [r["suite"] for r in results if not r["entries"]]
    if empty:
        print(f"error: no entries in suite {', '.join(empty)}; check --n-max/--k-max",
              file=sys.stderr)
        return EXIT_USAGE
    report = {"ok": all(r["ok"] for r in results), "suites": results}
    print(json.dumps(report, indent=2))
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


def _cluster_work(lo: int, hi: int) -> int:
    """The sum of max(n, 3 - n)^3 over lo <= n <= hi, in closed form: m = n
    for n >= 2 and m = 3 - n for n <= 1, each a run of consecutive cubes."""
    def cubes(a, b):  # a^3 + ... + b^3 for 1 <= a
        return (b * (b + 1) // 2) ** 2 - (a * (a - 1) // 2) ** 2 if a <= b else 0

    return cubes(max(lo, 2), hi) + cubes(3 - min(hi, 1), 3 - lo)


def cmd_table(args, parser) -> int:
    lo, hi = _parse_range(args.range, parser)
    rows = []
    if args.kind == "cluster":
        if _cluster_work(lo, hi) > _CLUSTER_LIMIT ** 3:
            print(f"error: table cluster {lo}..{hi} exceeds the limit: the sum of "
                  f"max(n, 3-n)^3 over its rows is past {_CLUSTER_LIMIT}^3", file=sys.stderr)
            return EXIT_RESOURCE
        for n in range(lo, hi + 1):
            rows.append({"n": n,
                         "laurent": classical.cluster_variable(n),
                         "polynomial": classical.polynomial_form(n)})
        if args.format == "json":
            # U/P names and the coefficient grammar need no JSON escape
            print("[%s]" % ", ".join(['{"n": %d, "laurent": "%s", "polynomial": "%s"}'
                                      % (r["n"], r["laurent"], r["polynomial"]) for r in rows]))
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
            print("[%s]" % ", ".join(['{"a": [%d, %d, %d, %d], "element": {"terms": %s}}'
                                      % (*r["a"], pbw.json_terms(r["element"].terms, "exp"))
                                      for r in rows]))
        else:
            for r in rows:
                body = r["element"].to_latex() if args.format == "latex" else str(r["element"])
                print(f"{_bname(r['a'])} = {body}")
    return EXIT_OK


def _plain_reader(command: str, parser: argparse.ArgumentParser, actions: list):
    """The strict reader of `command`'s plain requests, built from the
    `actions` that `parser.add_argument` returned, read only through their
    documented attributes, and from ``parser.get_default("handler")``:
    read(tokens) returns the namespace that
    ``parser.parse_known_args(tokens, Namespace(command=command))`` returns,
    with no extras, or None, and then argparse reads the request.

    A plain request is the positionals (each as many tokens as its `nargs`
    says, a trailing ``nargs="?"`` one token or none), each converted by its
    `type` and within its `choices`, then options, each written exactly as
    declared: a flag (``nargs=0``, storing its `const`) alone, any other
    option followed by one value, checked the same way, that does not start
    with '-'.  Any other request is None: a token that starts with '-' and
    is not an option (`-h`, an abbreviation, ``--opt=value``, ``--``, a
    negative number), a missing option value, a positional after an option,
    a wrong positional count, a failed conversion or choice."""
    positionals = [action for action in actions if not action.option_strings]
    options = {flag: action for action in actions for flag in action.option_strings}
    defaults = {action.dest: action.default for action in actions}
    defaults["handler"] = parser.get_default("handler")
    optional = bool(positionals) and positionals[-1].nargs == "?"
    # the positional token count, less the trailing optional one; a token
    # past the positionals that is not an option is declined where it is met
    fixed = sum(a.nargs if isinstance(a.nargs, int) else 1 for a in positionals) - optional

    def value(action, token):
        if token[:1] == "-":  # an option, or a value only argparse reads
            raise ValueError(token)
        converted = token if action.type is None else action.type(token)
        if action.choices is not None and converted not in action.choices:
            raise ValueError(token)
        return converted

    def read(tokens):
        if len(tokens) < fixed:
            return None
        # the trailing optional positional takes a token that does not start with '-'
        skip = optional and (len(tokens) == fixed or tokens[fixed][:1] == "-")
        args = argparse.Namespace(command=command, **defaults)
        try:
            at = 0
            for action in positionals[:len(positionals) - skip]:
                many = isinstance(action.nargs, int)
                values = [value(action, t) for t in tokens[at:at + (action.nargs if many else 1)]]
                setattr(args, action.dest, values if many else values[0])
                at += len(values)
            while at < len(tokens):
                # an undeclared token is a KeyError, a missing option value an IndexError
                action = options[tokens[at]]
                if action.nargs == 0:
                    setattr(args, action.dest, action.const)
                    at += 1
                else:
                    setattr(args, action.dest, value(action, tokens[at + 1]))
                    at += 2
        except (LookupError, TypeError, ValueError, argparse.ArgumentTypeError):
            return None
        return args

    return read


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qkron",
        description="Exact computation in the quantum Kronecker cluster algebra: "
                    "dual canonical basis elements, product expansions, identity "
                    "verification suites, and cluster tables.")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compute", help="print the basis element B[a3,a2,a1,a0]")
    compute = [c.add_argument("a", nargs=4, type=int, metavar="A"),
               c.add_argument("--format", choices=("text", "json", "latex"), default="text"),
               c.add_argument("--dual-pbw", action="store_true",
                              help="print the dual PBW coefficient table instead"),
               c.add_argument("--q1", action="store_true", help="print the q = 1 specialization"),
               c.add_argument("--max-layer", type=int, default=8)]
    c.set_defaults(handler=cmd_compute)

    pr = sub.add_parser("product", help="expand B[a] * B[b] in the basis")
    product = [pr.add_argument("a", nargs=4, type=int, metavar="A"),
               pr.add_argument("b", nargs=4, type=int, metavar="B"),
               pr.add_argument("--format", choices=("text", "json"), default="text"),
               pr.add_argument("--max-layer", type=int, default=8)]
    pr.set_defaults(handler=cmd_product)

    v = sub.add_parser("verify", help="run a verification suite")
    verify = [v.add_argument("suite", choices=SUITES + ("all",)),
              v.add_argument("--n-max", type=int, default=None),
              v.add_argument("--k-max", type=int, default=None),
              v.add_argument("--mode", choices=("exact", "probabilistic"), default=None,
                             help="serre only: exact (the kernel of the quantum shuffle map) or "
                                  "probabilistic (the shuffle map at one seeded point modulo a "
                                  "prime); default exact up to total weight 8"),
              v.add_argument("--seed", type=int, default=0)]
    v.set_defaults(handler=cmd_verify)

    t = sub.add_parser("table", help="print cluster variables or a basis layer")
    # the range is optional here, so that `main` can take one such as -20..20,
    # which argparse reads as an unknown option, or one after other options
    table = [t.add_argument("kind", choices=("cluster", "layer")),
             t.add_argument("range", nargs="?", help="N or N..M"),
             t.add_argument("--format", choices=("text", "json", "latex"), default="text"),
             t.add_argument("--max-layer", type=int, default=8)]
    t.set_defaults(handler=cmd_table)
    p.commands = {"compute": c, "product": pr, "verify": v, "table": t}
    declared = {c: compute, pr: product, v: verify, t: table}  # what add_argument returned
    p.readers = {name: _plain_reader(name, cmd, declared[cmd]) for name, cmd in p.commands.items()}
    return p


_PARSER = None


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        # looked up by name at the call, so a wrapped `build_parser` is the one run
        _PARSER = build_parser()
    parser = _PARSER
    argv = sys.argv[1:] if argv is None else argv
    read = parser.readers.get(argv[0]) if argv else None
    args, extra = (read(argv[1:]) if read else None), []
    if args is None:
        sub = parser.commands.get(argv[0]) if argv else None
        args, extra = (parser.parse_known_args(argv) if sub is None
                       else sub.parse_known_args(argv[1:], argparse.Namespace(command=argv[0])))
    # the usage errors found past argparse name the command, as argparse's own do
    parser = parser.commands[args.command]
    if args.command == "table" and args.range is None:
        extra = [x for x in extra if x != "--"]
        if len(extra) != 1:
            parser.error("expected one range, N or N..M")
        args.range = extra.pop()
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    if getattr(args, "max_layer", 0) < 0:
        parser.error("--max-layer must be at least 0")
    try:
        code = args.handler(args, parser)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout: exit as `cat` does on SIGPIPE, and point the
        # descriptor at the null device so that the flush at exit stays silent
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE
    except (MemoryError, OverflowError, RecursionError) as exc:
        print(f"error: {'out of memory' if isinstance(exc, MemoryError) else exc}",
              file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
