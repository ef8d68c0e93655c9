"""Shared definitions of the qkron benchmark: workload sizes, the seeded
`queries` generator, golden digests, op accounting and the percentile rule.

Nothing here imports qkron, so the parent process and the tests stay
independent of the code under measurement.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_DIR = os.path.join(HERE, "golden")

WORKLOADS = ("layers-cached", "queries", "verify")

# layers 0..K_TOP: 3.2 s cold, 2.3 s read back from the cache, on a quiet
# 2-vCPU x86 VM with Python 3.11
K_TOP = 11
# per-layer trace metrics are reported for these layers
TRACED_LAYERS = tuple(range(4, K_TOP + 1))
# requests per `queries` repetition
N_QUERIES = 3000
# wall seconds of one repetition, fresh interpreter included, at the commit
# that added the benchmark on a quiet 2-vCPU x86 VM with Python 3.11.  A run
# of --seconds s makes round(seconds / REP_S) repetitions (at least three),
# so its work is fixed for a given --seconds however busy the host is.
REP_S = {"layers-cached": 2.8, "queries": 7.0, "verify": 3.4}
# pinned by name: a suite added later does not change the workload
SUITES = ("straightening", "serre", "layers", "recursions", "products",
          "closed-formulas", "pbw-expansion", "classical", "qseed")

# the `queries` mix, as exact counts per N_QUERIES requests
QUERY_MIX = (("compute", 0.45), ("diagonal", 0.15), ("product", 0.27),
             ("table", 0.10), ("over-cap", 0.03))


def layer_exponents(k: int) -> list:
    """All a = (a3, a2, a1, a0) in N^4 with total k, in a fixed order."""
    return [(a3, a2, a1, k - a3 - a2 - a1)
            for a3 in range(k + 1)
            for a2 in range(k - a3 + 1)
            for a1 in range(k - a3 - a2 + 1)]


def exp_key(a) -> str:
    return ",".join(map(str, a))


def digest(text: str) -> str:
    """Short content digest of one op's output (64 bits of SHA-256)."""
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def request_output(code: int, stdout: str) -> str:
    """What a CLI request's golden digest covers: exit code and stdout."""
    return f"{code}\n{stdout}"


# -- the queries workload --------------------------------------------------------


def _compute_variants(a) -> list:
    base = ["compute", *map(str, a)]
    return [base, base + ["--format", "json"], base + ["--format", "latex"],
            base + ["--dual-pbw"], base + ["--dual-pbw", "--format", "json"],
            base + ["--q1"]]


def query_pool() -> dict:
    """Every distinct request the `queries` workload can send, by category.

    The pool is a fixed enumeration; golden digests are stored in this
    order, so changing it means regenerating them at an unchanged program.
    """
    small = [a for k in range(9) for a in layer_exponents(k)]
    compute = [v for a in small for v in _compute_variants(a)]
    diag_cores = ([(n, 0, 0, n) for n in range(1, 15)]
                  + [(n, 0, 0, n - 1) for n in range(1, 15)]
                  + [(n - 1, 0, 0, n) for n in range(1, 15)])
    diagonal = [v for a in diag_cores for v in _compute_variants(a)]
    factors = [a for k in range(5) for a in layer_exponents(k)]
    product = [["product", *map(str, a), *map(str, b)] + fmt
               for a in factors for b in factors
               for fmt in ([], ["--format", "json"])]
    table = [["table", "layer", str(k)] + fmt
             for k in range(7) for fmt in ([], ["--format", "json"], ["--format", "latex"])]
    table += [["table", "cluster", f"{lo}..{lo + w}"] + fmt
              for lo in range(1, 9) for w in range(4)
              for fmt in ([], ["--format", "json"], ["--format", "latex"])]
    # exit code 3: a core off the diagonal needs a layer above the cap of 8,
    # and a product on layer 9 is refused before any work
    over = [["compute", str(x), "0", "0", str(t - x)]
            for t in range(9, 13) for x in range(1, t) if abs(2 * x - t) >= 2]
    over += [["product", *map(str, a), *map(str, b)]
             for a in layer_exponents(5) for b in ((4, 0, 0, 0), (0, 0, 0, 4))]
    return {"compute": compute, "diagonal": diagonal, "product": product,
            "table": table, "over-cap": over}


def flat_pool() -> list:
    """(category, argv) for every pool entry, in golden order."""
    pool = query_pool()
    return [(cat, argv) for cat, _share in QUERY_MIX for argv in pool[cat]]


def generate_queries(seed: int) -> list:
    """The seeded request list: exact category counts from QUERY_MIX, each
    category drawn without replacement (cycling through a permutation of
    it when the count exceeds its size), then shuffled with the seed.

    The draw is the same for every seed, so every seed sends the same
    multiset of requests and the seed sets their order, which decides
    which request pays each memo miss.  A seeded draw would change how many
    of the few expensive requests (layer-table misses, wide `table cluster`
    ranges) a list holds, and with them the tail latency, from seed to
    seed.  Returns (pool_index, argv) pairs."""
    pool = query_pool()
    draw = random.Random(0)
    counts = [round(share * N_QUERIES) for _cat, share in QUERY_MIX]
    counts[0] += N_QUERIES - sum(counts)
    out, offset = [], 0
    for (cat, _share), count in zip(QUERY_MIX, counts):
        size = len(pool[cat])
        picks = []
        while len(picks) < count:
            picks += draw.sample(range(size), size)
        out += [(offset + i, pool[cat][i]) for i in picks[:count]]
        offset += size
    random.Random(seed).shuffle(out)
    return out


# -- golden digests -----------------------------------------------------------------


def golden_path(name: str) -> str:
    return os.path.join(GOLDEN_DIR, f"{name}.json")


def load_golden(name: str):
    with open(golden_path(name)) as fh:
        return json.load(fh)


def matches(golden, key, text) -> bool:
    """Whether one op's output equals its golden digest; `text` is None for
    an op that raised, which never matches."""
    return text is not None and golden.get(key) == digest(text)


class Record:
    """Op outcomes of one repetition, checked against golden digests."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def op(self, key, text, golden):
        self.attempted += 1
        if not matches(golden, key, text):
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{key}: output differs from its golden digest")

    def error(self, message):
        if len(self.errors) < 5:
            self.errors.append(message)


# -- statistics ------------------------------------------------------------------------


def tail_percentile(samples):
    """The highest whole percentile p <= 99 (nearest-rank) that still has at
    least ten samples above its rank, as (p, value).  When even the median
    has fewer (under 21 samples), the tail is the slowest sample, as
    (100, value)."""
    s = sorted(samples)
    n = len(s)
    for p in range(99, 49, -1):
        rank = math.ceil(p * n / 100)
        if rank >= 1 and n - rank >= 10:
            return p, s[rank - 1]
    return 100, s[-1]
