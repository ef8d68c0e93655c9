"""Dual canonical basis machinery.

The basis elements B[a], a in N^4, are pinned down by two conditions:
triangularity B[a] - E[a] in the span of qZ[q] E[b] over b strictly above
a in the order defined by the cone N(-1,2,-1,0) + N(0,-1,2,-1), and the
eigenvector property sigma(B[a]) = q^(-N(a)) B[a].  `b_element` is the one
route to B[a]; `layer_table` and `expand_in_b_basis` are built on it.
`compute_layer`, the triangular algorithm on a whole total-degree layer, is
kept only as the oracle that `verify layers` and the tests check it
against; the two share one back-substitution, `_peel`.

`b_element` writes B[a] as q^e p1^s B[core] p0^r.  `layer_table` checks
triangularity on every element it builds, but the sigma condition only
once per core and once for the p0/p1 facts; each element's eigenvalue is
then derived from the p0/p1 steps (`_sigma_exponent`).  The cache read,
`verify layers` and `check_basis_conditions` check every element in full.

Exponent tuples are (a3, a2, a1, a0) throughout.
"""

from __future__ import annotations

import json
import os
import random
import sys
import threading
from functools import lru_cache
from pathlib import Path

from . import pbw
from .qarith import (LaurentQ, add_into, cluster_terms, half_pow, lq_one, lq_zero, qpow,
                     quantum_binom, split_antisymmetric)

Exp = tuple

_U = [pbw.generator(i) for i in range(4)]


def stat_n(a: Exp) -> int:
    """N(a) = total(a)^2 - 7 a3 - 5 a2 - 3 a1 - a0; constant along the order."""
    s = a[0] + a[1] + a[2] + a[3]
    return s * s - 7 * a[0] - 5 * a[1] - 3 * a[2] - a[3]


def stat_b(a: Exp) -> int:
    """b(a) = sum of binomial(a_i, 2); the dual PBW rescaling exponent."""
    return sum(x * (x - 1) // 2 for x in a)


def order_leq(a: Exp, b: Exp) -> bool:
    """a is below-or-equal b: b - a = s*(-1,2,-1,0) + r*(0,-1,2,-1), s,r >= 0."""
    s = a[0] - b[0]
    r = a[3] - b[3]
    return (s >= 0 and r >= 0
            and b[1] - a[1] == 2 * s - r
            and b[2] - a[2] == 2 * r - s)


def dual_pbw(a: Exp) -> pbw.PbwElement:
    """E[a] = q^(b(a)) u3^a3 u2^a2 u1^a1 u0^a0."""
    return pbw.monomial(a, qpow(stat_b(a)))


def expand_in_dual_pbw(x: pbw.PbwElement) -> dict:
    """Coefficients c_a with x = sum c_a E[a]."""
    return {a: qpow(-stat_b(a)) * c for a, c in x.terms.items()}


def _from_dual_pbw(coeffs: dict) -> pbw.PbwElement:
    return pbw.PbwElement({a: qpow(stat_b(a)) * c for a, c in coeffs.items() if c})


class LayerCapExceeded(Exception):
    """A computation would need a layer above the configured cap."""


class LayerTable:
    """All B[a] with total(a) = k."""

    def __init__(self, k: int, entries: dict):
        self.k = k
        self.entries = entries          # a -> PbwElement

    def __iter__(self):
        return iter(self.entries.items())


def layer_exponents(k: int):
    """All a in N^4 with total(a) = k."""
    out = []
    for a3 in range(k + 1):
        for a2 in range(k - a3 + 1):
            for a1 in range(k - a3 - a2 + 1):
                out.append((a3, a2, a1, k - a3 - a2 - a1))
    return out


def _linear_extension(block, seed=None):
    """Order a root-weight block so every element comes after everything
    above it: ascending in a3 + a0, which strictly drops going up the
    order.  Ties are incomparable; a seed shuffles them."""
    rng = random.Random(seed) if seed is not None else None
    groups = {}
    for a in block:
        groups.setdefault(a[0] + a[3], []).append(a)
    order = []
    for phi in sorted(groups):
        tie = sorted(groups[phi])
        if rng is not None:
            rng.shuffle(tie)
        order.extend(tie)
    return order


def _peel(work: dict, expansion_of) -> dict:
    """Back-substitution against known B-expansions: consume the dual-PBW
    combination `work`, always taking its order-lowest key b (largest
    a3 + a0, which nothing else in `work` can reach), and return the
    coefficients d_b with work = sum d_b B[b], in peel order, where
    `expansion_of(b)` is B[b] over the E basis, or None if unknown; an
    expansion whose E[b] coefficient is not 1 raises."""
    out = {}
    while work:
        b = max(work, key=lambda e: (e[0] + e[3], e))
        exp_b = expansion_of(b)
        if exp_b is None:
            raise AssertionError(f"back-substitution hit unknown B[{b}]")
        lead = exp_b.get(b)
        if lead != lq_one():
            raise AssertionError(f"back-substitution: B[{b}] has E[{b}] coefficient {lead}, not 1")
        d = out[b] = work.pop(b)
        add_into(work, {e: v for e, v in exp_b.items() if e != b}, -d)
    return out


def check_basis_conditions(a: Exp, elem: pbw.PbwElement):
    """Assert both defining conditions on a candidate B[a]."""
    _check_triangular(a, elem)
    if elem.sigma() != elem.scale(qpow(-stat_n(a))):
        raise AssertionError(f"B[{a}] is not a sigma eigenvector with eigenvalue q^{-stat_n(a)}")


def _check_triangular(a: Exp, elem: pbw.PbwElement):
    """Assert the triangularity condition: E[a] coefficient 1, the rest
    supported strictly above a with coefficients in qZ[q]."""
    coeffs = expand_in_dual_pbw(elem)
    lead = coeffs.get(a)
    if lead != lq_one():
        raise AssertionError(f"B[{a}]: leading dual-PBW coefficient is {lead}, not 1")
    for b, c in coeffs.items():
        if b == a:
            continue
        if not order_leq(a, b):
            raise AssertionError(f"B[{a}]: support contains {b} outside S({a})")
        if not (isinstance(c, LaurentQ) and c.in_q_zq()):
            raise AssertionError(f"B[{a}]: coefficient {c} at {b} is not in qZ[q]")


def compute_layer(k: int, seed=None, check: bool = True) -> LayerTable:
    """Compute every B[a] on the layer total(a) = k by backward induction.

    Expands sigma(E[a]) in the dual PBW basis, re-expresses the tail in the
    already-computed B[b] by back-substitution, asserts the leading
    coefficient q^(-N(a)), and splits each residual via the antisymmetric
    decomposition.  Any assertion failure here is a finding, not something
    to patch over.
    """
    entries = {}
    expansions = {}
    blocks = {}
    for a in layer_exponents(k):
        blocks.setdefault(pbw.exp_root_weight(a), []).append(a)
    for w in sorted(blocks):
        for a in _linear_extension(blocks[w], seed=seed):
            t = expand_in_dual_pbw(dual_pbw(a).sigma())
            lead = t.pop(a, None)
            if lead != qpow(-stat_n(a)):
                raise AssertionError(
                    f"sigma(E[{a}]): leading coefficient {lead} != q^{-stat_n(a)}")
            phi_coeffs = {}
            for b, d in _peel(t, expansions.get).items():
                if not order_leq(a, b):
                    raise AssertionError(f"sigma(E[{a}]) reached {b} outside S({a})")
                phi = split_antisymmetric(qpow(stat_n(a)) * d)
                if phi:
                    phi_coeffs[b] = phi
            # assemble B[a] = E[a] + sum phi_b B[b] in the E basis
            e_exp = {a: lq_one()}
            for b, phi in phi_coeffs.items():
                add_into(e_exp, expansions[b], phi)
            elem = _from_dual_pbw(e_exp)
            if check:
                check_basis_conditions(a, elem)
            entries[a] = elem
            expansions[a] = e_exp
    return LayerTable(k, entries)

# memo tables; idempotent writes keep concurrent use deterministic
_LAYER_TABLES: dict = {}
_B_CACHE: dict = {}
_CHECKED_CORES: dict = {}       # core -> the b_element object that passed the full check


def layer_table(k: int) -> LayerTable:
    """Memoized `b_element`s of one layer.

    With QCA_CACHE_DIR set, a cached layer is read back and every element
    gets the full `check_basis_conditions`; a miss is built and written.
    A built layer checks triangularity on every element, and the sigma
    condition by `_sigma_exponent`: one full check per core, then integer
    arithmetic along the p0/p1 steps, which must give -N(a)."""
    tab = _LAYER_TABLES.get(k)
    if tab is None:
        cache_dir = os.environ.get("QCA_CACHE_DIR")
        if cache_dir:
            tab = _load_layer(k, cache_dir)
        if tab is None:
            tab = LayerTable(k, {a: b_element(a) for a in layer_exponents(k)})
            for a, elem in tab:
                _check_triangular(a, elem)
                e = _sigma_exponent(a)
                if e != -stat_n(a):
                    raise AssertionError(f"B[{a}]: derived sigma exponent {e} != -N(a) = {-stat_n(a)}")
            if cache_dir:
                _save_layer(tab, cache_dir)
        _LAYER_TABLES[k] = tab
    return tab


def _p_step(a: Exp):
    """One p0/p1 stripping step of `b_element`: (0, c, t) when
    B[a] = q^t B[c] p0, (1, c, t) when B[a] = q^t p1 B[c], None on a core."""
    a3, a2, a1, a0 = a
    if a2 >= 1 and a0 >= 1:
        c = (a3, a2 - 1, a1, a0 - 1)
        return 0, c, c[1] + 2 * c[2] + 3 * c[3]
    if a3 >= 1 and a1 >= 1:
        c = (a3 - 1, a2, a1 - 1, a0)
        return 1, c, 3 * c[0] + 2 * c[1] + c[2]
    return None


@lru_cache(maxsize=None)
def _p_facts():
    """((eps0, chi0), (eps1, chi1)), checked once per process: sigma(p) =
    q^eps p, p u_i = q^e_i u_i p, and e_i = chi . (root weight of u_i) for
    a linear form chi, so p x = q^(chi . w) x p for any x of root weight w."""
    out = []
    for p, eps, exps in ((pbw.p0(), pbw.P0_SIGMA, pbw.P0_COMMUTE),
                         (pbw.p1(), pbw.P1_SIGMA, pbw.P1_COMMUTE)):
        chi = (exps[0], exps[1] - 2 * exps[0])  # solved on u0, u1: weights (1, 0), (2, 1)
        if (p.sigma() != p.scale_qpow(eps) or not pbw.q_commutes(p, exps)
                or any(chi[0] * w1 + chi[1] * w2 != e for (w1, w2), e in zip(pbw.ROOT_WEIGHT, exps))):
            raise AssertionError(f"the p0/p1 fact table does not hold for {p}")
        out.append((eps, chi))
    return tuple(out)


def _sigma_exponent(a: Exp) -> int:
    """The e with sigma(B[a]) = q^e B[a], for B[a] as `b_element` builds it.

    sigma is an anti-automorphism that bars coefficients, and p0, p1 are
    sigma eigenvectors whose q-commutation with a homogeneous x is linear in
    its root weight (`_p_facts`).  So B[a] = q^t B[c] p0 gives
    e(a) = -2t + eps0 + e(c) + chi0(wt c), and B[a] = q^t p1 B[c] gives
    e(a) = -2t + eps1 + e(c) - chi1(wt c).  The core's B gets the full check
    once per process (again only if `b_element` hands back another object)
    and contributes -N(core)."""
    facts = _p_facts()
    e = 0
    while (step := _p_step(a)) is not None:
        which, a, t = step
        eps, (x, y) = facts[which]
        w1, w2 = pbw.exp_root_weight(a)
        chi = x * w1 + y * w2
        e += -2 * t + eps + (chi if which == 0 else -chi)
    core = b_element(a)
    if _CHECKED_CORES.get(a) is not core:
        check_basis_conditions(a, core)
        _CHECKED_CORES[a] = core
    return e - stat_n(a)


def _layer_path(k: int, cache_dir) -> Path:
    return Path(cache_dir) / f"layer_{k}.json"


def _save_layer(tab: LayerTable, cache_dir):
    """Write the layer to its cache file atomically: the text goes to a
    temporary file in the same directory, named for this process and
    thread, and `os.replace` moves it into place, so concurrent writers
    never leave a half-written file behind."""
    path = _layer_path(tab.k, cache_dir)
    path.parent.mkdir(parents=True, exist_ok=True)
    data = [{"a": list(a), "element": e.to_json_dict()} for a, e in sorted(tab.entries.items())]
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(tmp, "x") as f:
            f.write(json.dumps(data))
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)  # a no-op once the move succeeded


def _load_layer(k: int, cache_dir):
    """The cached layer k; None, a miss, if the file is absent, incomplete
    or unreadable.  An element failing its check raises."""
    path = _layer_path(k, cache_dir)
    if not path.exists():
        return None
    try:
        entries = {tuple(item["a"]): pbw.PbwElement.from_json_dict(item["element"])
                   for item in json.loads(path.read_text())}
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        print(f"warning: ignoring unreadable layer cache {path}: {exc}", file=sys.stderr)
        return None
    for a, elem in entries.items():
        check_basis_conditions(a, elem)  # the cache is advisory: verify on load
    if set(entries) != set(layer_exponents(k)):
        return None
    return LayerTable(k, entries)


def b_element(a, max_layer=None) -> pbw.PbwElement:
    """B[a]: strip p0/p1 factors, then either a frozen dual-PBW core, the
    one-step recursions on near-diagonal cores, or, on any other core
    (x, 0, 0, w), a quantum cluster monomial, refused if x + w > max_layer.
    Convention: any negative coordinate gives 0.

    Every p0/p1 step and every near-diagonal step multiplies by a factor
    that q-commutes with each letter it passes (x p0, p1 x, x u0, x u1,
    u2 x, u3 x), so it is a `pbw.q_product` with the step's q^t folded in
    and straightens nothing; only the cluster-monomial cores multiply with
    `PbwElement.__mul__`.
    """
    a = tuple(int(x) for x in a)
    if any(x < 0 for x in a):
        return pbw.zero()
    if max_layer is not None:
        # the core left by p0/p1 stripping, worked out before the memo so
        # that the cap never depends on earlier calls
        x, w = a[0] - min(a[0], a[2]), a[3] - min(a[1], a[3])
        if x >= 1 and w >= 1 and abs(x - w) >= 2 and x + w > max_layer:
            raise LayerCapExceeded(f"layer {x + w} exceeds cap {max_layer}")
    hit = _B_CACHE.get(a)
    if hit is not None:
        return hit
    a3, a2, a1, a0 = a
    step = _p_step(a)
    if a == (0, 0, 0, 0):
        res = pbw.one()
    elif step is not None:
        which, c, t = step
        res = pbw.q_product(b_element(c), pbw.X_P0 if which == 0 else pbw.P1_X, t)
    elif (a1 == 0 and a0 == 0) or (a3 == 0 and a0 == 0) or (a3 == 0 and a2 == 0):
        res = dual_pbw(a)  # order-maximal shapes: B = E
    else:
        # core shape (x, 0, 0, w) with x, w >= 1
        x, w = a3, a0
        qp = pbw.q_product
        if x == w:
            n = x
            res = qp(b_element((n, 0, 0, n - 1)), pbw.X_U0, n - 1) \
                - qp(b_element((n - 1, 1, 0, n - 1)), pbw.X_U1, 2 * n)
        elif x == w + 1:
            n = x
            res = qp(b_element((n - 1, 0, 0, n - 1)), pbw.U3_X, n - 1) \
                - qp(b_element((n - 1, 0, 1, n - 2)), pbw.U2_X, 2 * n - 1)
        elif w == x + 1:
            n = w
            res = qp(b_element((n - 1, 0, 0, n - 1)), pbw.X_U0, n - 1) \
                - qp(b_element((n - 2, 1, 0, n - 1)), pbw.X_U1, 2 * n - 1)
        else:
            # the quantum cluster monomial in two adjacent cluster variables
            # c and c + (1, 0, 0, 1), divided by its E[a] coefficient q^(h/2)
            d = abs(x - w)
            m, j = divmod(min(x, w), d)
            c = (m + 1, 0, 0, m) if x > w else (m, 0, 0, m + 1)
            res = b_element(c) ** (d - j) * b_element((c[0] + 1, 0, 0, c[3] + 1)) ** j
            lead = res.terms.get(a, lq_zero()) * qpow(-stat_b(a))
            h = min(lead.terms, default=0)
            if lead != half_pow(h):
                raise AssertionError(f"B[{a}]: cluster monomial has leading coefficient {lead}")
            res = res.scale(half_pow(-h))
    _B_CACHE[a] = res
    return res


def expand_in_b_basis(x: pbw.PbwElement) -> dict:
    """Coefficients d_a with x = sum d_a B[a]."""
    return _peel(expand_in_dual_pbw(x), lambda b: expand_in_dual_pbw(b_element(b)))


# -- verification suites -------------------------------------------------------


def _entry(suite, n, identity, ok, detail=None):
    e = {"suite": suite, "n": n, "identity": identity, "ok": bool(ok)}
    if detail:
        e["detail"] = detail
    return e


def _diff_detail(lhs, rhs):
    d = lhs - rhs
    if not d:
        return None
    a = max(d.terms)
    return f"first differing monomial {a}: {d.terms[a]}"


def _compare(suite, n, identity, lhs, rhs):
    """The entry for lhs == rhs; a failing one carries `_diff_detail`."""
    ok = lhs == rhs
    return _entry(suite, n, identity, ok, None if ok else _diff_detail(lhs, rhs))


def verify_recursions(n_max: int) -> list:
    """The eight printed one-step recursion identities, for 1 <= n <= n_max."""
    B = b_element
    u0, u1, u2, u3 = _U
    report = []
    for n in range(1, n_max + 1):
        checks = [
            ("B[n,0,0,n-1] = q^(n-1) u3 B[n-1,0,0,n-1] - q^(2n-1) u2 B[n-1,0,1,n-2]",
             B((n, 0, 0, n - 1)),
             (u3 * B((n - 1, 0, 0, n - 1))).scale_qpow(n - 1)
             - (u2 * B((n - 1, 0, 1, n - 2))).scale_qpow(2 * n - 1)),
            ("B[n,0,0,n-1] = q^(3n-3) B[n-1,0,0,n-1] u3 - q^(2n-3) B[n-1,0,1,n-2] u2",
             B((n, 0, 0, n - 1)),
             (B((n - 1, 0, 0, n - 1)) * u3).scale_qpow(3 * n - 3)
             - (B((n - 1, 0, 1, n - 2)) * u2).scale_qpow(2 * n - 3)),
            ("B[n-1,0,0,n] = q^(n-1) B[n-1,0,0,n-1] u0 - q^(2n-1) B[n-2,1,0,n-1] u1",
             B((n - 1, 0, 0, n)),
             (B((n - 1, 0, 0, n - 1)) * u0).scale_qpow(n - 1)
             - (B((n - 2, 1, 0, n - 1)) * u1).scale_qpow(2 * n - 1)),
            ("B[n-1,0,0,n] = q^(3n-3) u0 B[n-1,0,0,n-1] - q^(2n-3) u1 B[n-2,1,0,n-1]",
             B((n - 1, 0, 0, n)),
             (u0 * B((n - 1, 0, 0, n - 1))).scale_qpow(3 * n - 3)
             - (u1 * B((n - 2, 1, 0, n - 1))).scale_qpow(2 * n - 3)),
            ("B[n,0,0,n] = q^(n-1) B[n,0,0,n-1] u0 - q^(2n) B[n-1,1,0,n-1] u1",
             B((n, 0, 0, n)),
             (B((n, 0, 0, n - 1)) * u0).scale_qpow(n - 1)
             - (B((n - 1, 1, 0, n - 1)) * u1).scale_qpow(2 * n)),
            ("B[n,0,0,n] = q^(3n-1) u0 B[n,0,0,n-1] - q^(2n-2) u1 B[n-1,1,0,n-1]",
             B((n, 0, 0, n)),
             (u0 * B((n, 0, 0, n - 1))).scale_qpow(3 * n - 1)
             - (u1 * B((n - 1, 1, 0, n - 1))).scale_qpow(2 * n - 2)),
            ("B[n,0,0,n] = q^(n-1) u3 B[n-1,0,0,n] - q^(2n) u2 B[n-1,0,1,n-1]",
             B((n, 0, 0, n)),
             (u3 * B((n - 1, 0, 0, n))).scale_qpow(n - 1)
             - (u2 * B((n - 1, 0, 1, n - 1))).scale_qpow(2 * n)),
            # right-multiplied dual of the preceding form; the middle index
            # is forced to n-1 by degree (its printed companion drops a -1)
            ("B[n,0,0,n] = q^(3n-1) B[n-1,0,0,n] u3 - q^(2n-2) B[n-1,0,1,n-1] u2",
             B((n, 0, 0, n)),
             (B((n - 1, 0, 0, n)) * u3).scale_qpow(3 * n - 1)
             - (B((n - 1, 0, 1, n - 1)) * u2).scale_qpow(2 * n - 2)),
        ]
        for name, lhs, rhs in checks:
            report.append(_compare("recursions", n, name, lhs, rhs))
    return report


def verify_products(n_max: int) -> list:
    """The four product expansions, their n = 0 tail cases, and the
    commutativity of B[1,0,0,1] with the diagonal family."""
    B = b_element
    report = []
    b11 = B((1, 0, 0, 1))
    for n in range(1, n_max + 1):
        cases = [
            ("B[n,0,0,n-1] B[1,0,0,1] = q^(3-4n) B[n+1,0,0,n] + q^(4-4n) B[n,1,1,n-1]",
             B((n, 0, 0, n - 1)) * b11,
             B((n + 1, 0, 0, n)).scale_qpow(3 - 4 * n) + B((n, 1, 1, n - 1)).scale_qpow(4 - 4 * n)),
            ("B[1,0,0,1] B[n,0,0,n-1] = q^(1-4n) B[n+1,0,0,n] + q^(-4n) B[n,1,1,n-1]",
             b11 * B((n, 0, 0, n - 1)),
             B((n + 1, 0, 0, n)).scale_qpow(1 - 4 * n) + B((n, 1, 1, n - 1)).scale_qpow(-4 * n)),
            ("B[n,0,0,n] B[1,0,0,1] = q^(-4n) (B[n+1,0,0,n+1] + B[n,1,1,n])",
             B((n, 0, 0, n)) * b11,
             (B((n + 1, 0, 0, n + 1)) + B((n, 1, 1, n))).scale_qpow(-4 * n)),
            ("B[1,0,0,1] B[n,0,0,n] = q^(-4n) (B[n+1,0,0,n+1] + B[n,1,1,n])",
             b11 * B((n, 0, 0, n)),
             (B((n + 1, 0, 0, n + 1)) + B((n, 1, 1, n))).scale_qpow(-4 * n)),
        ]
        for name, lhs, rhs in cases:
            report.append(_compare("products", n, name, lhs, rhs))
    # the diagonal equations also make sense and hold for n = 0: the
    # correction term is q^(6n-4) p1 B[n-1,0,0,n-1] p0, whose core index
    # goes negative and kills it
    lhs = B((0, 0, 0, 0)) * b11
    rhs = B((1, 0, 0, 1))
    report.append(_compare("products", 0,
                           "B[0,0,0,0] B[1,0,0,1] = B[1,0,0,1] + (vanishing core)", lhs, rhs))
    report.append(_compare("products", 0,
                           "B[1,0,0,1] B[0,0,0,0] = B[1,0,0,1] + (vanishing core)",
                           b11 * B((0, 0, 0, 0)), rhs))
    for n in range(0, n_max + 1):
        lhs = b11 * B((n, 0, 0, n))
        rhs = B((n, 0, 0, n)) * b11
        report.append(_compare("products", n, "B[1,0,0,1] commutes with B[n,0,0,n]", lhs, rhs))
    return report


def f_exponent(n: int, k: int, l: int) -> int:
    return n * (n - 2) + k * (n + 2) + l * (n + 1) - 2 * k * l


def g_exponent(n: int, k: int, l: int) -> int:
    return n * (n - 3) + k * (n + 1) + l * (n + 1) - 2 * k * l


_P_POWERS = ({}, {})


def p_power(which: int, k: int) -> pbw.PbwElement:
    """Memoized p0^k (which = 0) or p1^k (which = 1)."""
    cache = _P_POWERS[which]
    hit = cache.get(k)
    if hit is None:
        if k == 0:
            hit = pbw.one()
        else:
            hit = p_power(which, k - 1) * (pbw.p0() if which == 0 else pbw.p1())
        cache[k] = hit
    return hit


def _u_pow(i: int, k: int) -> pbw.PbwElement:
    return pbw.monomial(tuple(k if s == i else 0 for s in (3, 2, 1, 0)))


def verify_closed_formulas(n_max: int) -> list:
    """Both closed product formulas, for 0 <= n <= n_max."""
    report = []
    for n in range(0, n_max + 1):
        lhs = _u_pow(2, n) * b_element((n + 1, 0, 0, n)) * _u_pow(1, n + 1)
        acc = {}
        for k, l, coef in cluster_terms(n, quantum_binom):
            term = p_power(1, n + 1 - k) * _u_pow(2, 2 * k) * _u_pow(1, 2 * l) * p_power(0, n - l)
            add_into(acc, term.terms, coef * qpow(f_exponent(n, k, l)))
        rhs = pbw.PbwElement._raw(acc)
        report.append(_compare("closed-formulas", n,
                               "u2^n B[n+1,0,0,n] u1^(n+1) = quantum cluster sum", lhs, rhs))
        lhs = _u_pow(2, n) * b_element((n, 0, 0, n)) * _u_pow(1, n)
        acc = {}
        for k in range(0, n + 1):
            for l in range(0, n - k + 1):
                coef = quantum_binom(n - k, l) * quantum_binom(n - l, k)
                if not coef:
                    continue
                term = p_power(1, n - k) * _u_pow(2, 2 * k) * _u_pow(1, 2 * l) * p_power(0, n - l)
                add_into(acc, term.terms, coef * qpow(g_exponent(n, k, l)))
        rhs = pbw.PbwElement._raw(acc)
        report.append(_compare("closed-formulas", n,
                               "u2^n B[n,0,0,n] u1^n = quantum Chebyshev sum", lhs, rhs))
    return report


def power_formulas(k: int):
    """Closed expansions of p1^k and p0^k in the ordered monomial basis."""
    if k < 0:
        raise ValueError("needs k >= 0")
    e1 = {}
    e0 = {}
    for i in range(0, k + 1):
        c = quantum_binom(k, i) * qpow(2 * i * i - i * k - k * k + i + k)
        if i % 2:
            c = -c
        e1[(k - i, 2 * i, k - i, 0)] = c
        e0[(0, k - i, 2 * i, k - i)] = c
    return pbw.PbwElement(e1), pbw.PbwElement(e0)


def verify_power_formulas(k_max: int) -> list:
    report = []
    for k in range(0, k_max + 1):
        f1, f0 = power_formulas(k)
        report.append(_compare("closed-formulas", k, "p1^k closed expansion", f1, p_power(1, k)))
        report.append(_compare("closed-formulas", k, "p0^k closed expansion", f0, p_power(0, k)))
    return report


def pbw_expansion_formula(n: int) -> dict:
    """The quadruple-sum dual-PBW coefficient table of B[n+1,0,0,n].

    Summands with a negative coordinate must cancel; this is asserted
    rather than assumed.
    """
    acc = {}
    for k, l, c_kl in cluster_terms(n, quantum_binom):
        for s in range(0, n + 2 - k):
            cs = quantum_binom(n + 1 - k, s)
            if not cs:
                continue
            for r in range(0, n + 1 - l):
                cr = quantum_binom(n - l, r)
                if not cr:
                    continue
                e = (-l - 2 * k * l + 2 * n + k * n + l * n - 3 * r - l * r - r * r
                     + s - k * s + 2 * r * s - s * s)
                coef = c_kl * cs * cr * qpow(e)
                if (k + l + s + r + 1) % 2:
                    coef = -coef
                exp = (s, n + 2 - 2 * s + r, n - 1 - 2 * r + s, r)
                add_into(acc, {exp: coef})
    out = {}
    for exp, c in acc.items():
        if min(exp) < 0:
            raise AssertionError(f"non-cancelling invalid exponent {exp}: {c}")
        out[exp] = c
    return out


def verify_pbw_expansion(n_max: int) -> list:
    report = []
    for n in range(0, n_max + 1):
        got = pbw_expansion_formula(n)
        want = expand_in_dual_pbw(b_element((n + 1, 0, 0, n)))
        report.append(_entry("pbw-expansion", n,
                             "quadruple sum matches expand_in_dual_pbw(B[n+1,0,0,n])",
                             got == want))
    return report


def verify_layers(k_max: int, seeds=(1, 2)) -> list:
    """Layer-by-layer checks: both basis conditions on every element of
    `layer_table`, its agreement with the oracle `compute_layer`, and the
    oracle's independence from the chosen linear extension."""
    report = []
    for k in range(0, k_max + 1):
        tab = layer_table(k)
        for a, elem in tab:
            check_basis_conditions(a, elem)
        oracle = compute_layer(k, check=False)
        report.append(_layer_entry(k, "defining conditions + fast-path agreement", tab, oracle))
        for s in seeds:
            alt = compute_layer(k, seed=s, check=False)
            report.append(_layer_entry(k, f"basis independent of total order (seed {s})", alt, oracle))
    return report


def _layer_entry(k, identity, tab, ref):
    """The entry for two equal layer tables; a failing one names the first
    a where they differ, with `_diff_detail`."""
    ok = tab.entries == ref.entries
    detail = None
    if not ok:
        a = next(a for a in sorted(set(tab.entries) | set(ref.entries))
                 if tab.entries.get(a) != ref.entries.get(a))
        lhs, rhs = tab.entries.get(a, pbw.zero()), ref.entries.get(a, pbw.zero())
        detail = f"first differing B[{a}]: {_diff_detail(lhs, rhs)}"
    return _entry("layers", k, identity, ok, detail)
