"""Dual canonical basis machinery.

The basis elements B[a], a in N^4, are pinned down by two conditions:
triangularity B[a] - E[a] in the span of qZ[q] E[b] over b strictly above
a in the order defined by the cone N(-1,2,-1,0) + N(0,-1,2,-1), and the
eigenvector property sigma(B[a]) = q^(-N(a)) B[a].  `b_element` is the one
route to B[a]; `layer_table` and `expand_in_b_basis` are built on it.
`compute_layer`, the triangular algorithm on a whole total-degree layer, is
kept only as the oracle that `verify layers` and the tests check it
against; the two share one back-substitution, `_peel`, in the monomial
basis B[a] is stored in.  It runs on the int kernel of `pbw`, one dict
half-exponent -> int per monomial, merged by `qarith.add_shifted`:
`compute_layer` takes sigma(E[a]) from the kernel, peels it and adds each
phi_b B[b] there, and `expand_in_b_basis` peels a copy of x's coefficient
dicts; LaurentQ coefficients are built only for what they return.  The
dual PBW basis is only an output view.

The reversal tau (`pbw.PbwElement.tau`), the Q(q)-linear anti-automorphism
with tau(u_i) = u_(3-i), maps B[a] to B[rev a], rev(a3,a2,a1,a0) =
(a0,a1,a2,a3), since tau(B[a]) satisfies both defining conditions of
B[rev a]:
1. tau(u^a) = u^(rev a) and b(rev a) = b(a), so tau(E[a]) = E[rev a];
2. tau swaps the two generators (-1,2,-1,0) and (0,-1,2,-1) of the order
   cone, so it maps the span of qZ[q] E[b] over b above a onto the same over
   b above rev a (it leaves coefficients alone, so qZ[q] stays qZ[q]);
3. sigma tau and tau sigma are both Q-linear automorphisms that invert q,
   and they agree on u_i up to q^(6-4i), so on anything of total t and
   second root-weight coordinate alpha2 = 3a3 + 2a2 + a1 up to
   q^(6t - 4 alpha2) (`_tau_facts` checks both facts on the generators);
   sigma(B[a]) = q^(-N(a)) B[a] then gives sigma(tau B[a]) =
   q^(6t - 4 alpha2 - N(a)) tau B[a], and 6t - 4 alpha2 = N(a) - N(rev a).
`b_element` therefore builds B[a] only when the core `_core(a)` = (x,.,.,w)
has x >= w, and returns tau(B[rev a]) otherwise: `_core(rev a)` is
rev `_core(a)`.

`b_element` writes B[a] as q^e p1^s B[core] p0^r, core = `_core(a)`, and
checks each p0/p1 step's sigma exponent where it builds it.  `layer_table`
checks triangularity on every element's stored terms, and certifies the
sigma eigenvalue of each distinct core from the structure that built it,
factor cores first, straightening no sigma (`_certify_core`):
- an order-maximal core must be the single term E[c], and its closed-form
  exponent -2b(c) + 2(3c3 + 2c2 + c1) - 2(c3c2 + c2c1 + c1c0) must be -N(c);
- any other core (x,0,0,w) with x < w is tau(B[rev c]), so certifying
  rev c certifies it;
- a near-diagonal core, built by row 1 or 5 of `RECURSIONS`, must satisfy
  the mirrored row 2 or 6, onto which sigma maps the first;
- a cluster monomial q^(-h/2) B[c]^(d-j) B[c']^j is checked in `b_element`:
  h - (d-j)N(c) - jN(c') - lam j(d-j) must be -N(a), with
  B[c] B[c'] = q^lam B[c'] B[c] checked once per pair (`_quasi_commutation`).
The on-disk layer cache is write-only: every layer is built and checked,
and its file is only made to hold that build's bytes, never read back into
an element.  `verify layers` and `check_basis_conditions`, which the tests
and CI run, check both conditions on every element in full, sigma included.
The frozen powers come from the basis too: `p_power` is B[0,k,0,k] or
B[k,0,k,0] up to a power of q, and nothing here straightens p0^k or p1^k.
The recursion and product suites check the strings they print: each of
`RECURSIONS` and `PRODUCTS` is read by `qarith.identities`.

`_row_sum(r, n, y_of)`, the one reader of the rows of `RECURSIONS`, adds
up row r at n on the int kernel, y_of(g) standing for B[g]: a generator
that q-commutes with each letter it passes (x u0, x u1, u2 x, u3 x) by
`pbw._q_into`, u2 or u3 on the right by straightening one letter, and u0
or u1 on the left (only in row 6) by the general product.  `b_element`
builds by it, `_certify_core` checks by it and `times_b` walks by it.

`times_b(x, f, table)` is x B[f] by walking the construction of B[f] with
every factor on the right, so that it is a chain of right products by one
generator, p0 or p1 on x B[g] for smaller g, never a product by all of B[f]:
- a p0 step B[a] = q^t B[c] p0 is x B[c] times `X_P0`, by `pbw._q_into`;
- a p1 step B[a] = q^t p1 B[c] first moves p1 past x,
  x p1 = q^(-chi1(wt x)) p1 x (`_p_facts`), so it needs a homogeneous x,
  then is `P1_X`;
- B[n,0,0,n] is walked by row 5 of `RECURSIONS`, its construction, whose
  u0 and u1 stand on the right;
- B[n,0,0,n-1] is built by row 1, whose u3 and u2 stand on the left, so it
  is walked by its mirror, row 2, whose u3 and u2 stand on the right.  The
  built element satisfies row 2 only as far as `_certify_core` has checked
  it, so the walk certifies the core first, and a refused certificate
  propagates;
- the base case is x * b_element(g): on a tau core, a cluster-monomial core
  and an order-maximal core, and on all of B[f] when x has fewer than
  _WALK_TERMS terms or is inhomogeneous.
The table maps each near-diagonal core g that the walk reaches to x B[g],
so each is built once however many rows reach it.  The caller owns it and
passes it again only with the same x: `b_product`, `_quasi_commutation`
and the cluster monomials of `b_element` pass a new one per product, and
the `verify qseed` suite one per left factor for its run; no table
outlives its caller.  The cutoff was measured on single products with a
fresh table (2 cores, Python 3.11): a left factor of 6 terms lost
1.6-2.1x to x * b_element(f) on every core up to n = 11, one of 9 terms
lost up to 1.35x below n = 9 and won above, and from 13 terms the walk won
from n = 5, 1.6-2.3x at n = 7..11 and 8x on B[12,0,0,12] B[13,0,0,12].

Exponent tuples are (a3, a2, a1, a0) throughout.
"""

from __future__ import annotations

import operator
import os
import random
import sys
import threading
from functools import lru_cache
from pathlib import Path

from . import pbw
from .qarith import (LaurentQ, add_into, add_shifted, cluster_terms, compare, diff_detail, entry,
                     half_pow, identities, lq_zero, parse_identity, qpow, quantum_binom,
                     quantum_binom_row, split_antisymmetric)

Exp = tuple


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
    """Coefficients c_a with x = sum c_a E[a]: x's coefficient at u^a with
    its half-exponents shifted by -2b(a), since E[a] = q^(b(a)) u^a, with
    no Laurent product."""
    return {a: LaurentQ._raw({h - s: m for h, m in c.terms.items()})
            for a, c in x.terms.items() for s in (2 * stat_b(a),)}


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


def _peel(work: dict, element_of) -> dict:
    """Back-substitution on the int kernel: consume the kernel sum `work`,
    u^b -> {half-exponent h: m}, always taking its order-lowest key b
    (largest a3 + a0, which nothing else in `work` can reach), and return
    the d_b, each a dict h -> m, with work = sum d_b B[b], in peel order.
    `element_of(b)` is B[b], or None if unknown; its u^b coefficient must be
    q^(b(b)), so d_b = work[b] q^(-b(b)) and subtracting d_b B[b] by
    `add_shifted` cancels b.  Every dict of `work` is an accumulation
    target, so none may be the coefficient dict of an element."""
    out = {}
    while work:
        b = max(work, key=lambda e: (e[0] + e[3], e))
        elem = element_of(b)
        if elem is None:
            raise AssertionError(f"back-substitution hit unknown B[{b}]")
        s = stat_b(b)
        lead = elem.terms.get(b)
        if lead is None or lead.terms != {2 * s: 1}:
            raise AssertionError(f"back-substitution: B[{b}] has u^{b} coefficient {lead}, not q^{s}")
        d = out[b] = {h - 2 * s: m for h, m in work[b].items()}
        for h, m in d.items():
            for g, c in elem.terms.items():
                add_shifted(work, g, c.terms, h, -m)
        if b in work:
            raise AssertionError(f"back-substitution: u^{b} did not cancel")
    return out


def check_basis_conditions(a: Exp, elem: pbw.PbwElement):
    """Assert both defining conditions on a candidate B[a]."""
    _check_triangular(a, elem)
    if elem.sigma() != elem.scale(qpow(-stat_n(a))):
        raise AssertionError(f"B[{a}] is not a sigma eigenvector with eigenvalue q^{-stat_n(a)}")


def _check_triangular(a: Exp, elem: pbw.PbwElement):
    """Assert the triangularity condition (E[a] coefficient 1, the rest
    strictly above a in qZ[q]) on the stored terms, as E[b] = q^(b(b)) u^b:
    u^a carries q^(b(a)), any other u^b only even half-exponents of at least
    2 b(b) + 2 = sum x(x - 1) + 2 over b's coordinates.  The order and that
    bound are `order_leq` and `stat_b` written out in integer arithmetic.
    Messages give coefficients in the E scale."""
    lead = elem.terms.get(a)
    if lead != qpow(stat_b(a)):
        shown = None if lead is None else lead * qpow(-stat_b(a))
        raise AssertionError(f"B[{a}]: leading dual-PBW coefficient is {shown}, not 1")
    a3, a2, a1, a0 = a
    for b, c in elem.terms.items():
        if b == a:
            continue
        b3, b2, b1, b0 = b
        s, r = a3 - b3, a0 - b0
        if s < 0 or r < 0 or b2 - a2 != 2 * s - r or b1 - a1 != 2 * r - s:
            raise AssertionError(f"B[{a}]: support contains {b} outside S({a})")
        low = b3 * (b3 - 1) + b2 * (b2 - 1) + b1 * (b1 - 1) + b0 * (b0 - 1) + 2
        for h in c.terms:
            if h < low or h & 1:
                raise AssertionError(f"B[{a}]: coefficient {c * qpow(-stat_b(b))} at {b} is not in qZ[q]")


def compute_layer(k: int, seed=None, check: bool = True) -> LayerTable:
    """Compute every B[a] on the layer total(a) = k by backward induction,
    on the int kernel: B[a] = E[a] + sum phi_b B[b].

    Asserts the E[a] coefficient q^(-N(a)) of sigma(E[a]), writes the rest
    in the already-computed B[b] by `_peel`, splits each q^N(a) d_b via the
    antisymmetric decomposition and adds phi_b B[b] by `add_shifted`; each
    B[a] is wrapped once, by `pbw._element`.  Any assertion failure here is
    a finding, not something to patch over.
    """
    entries = {}
    blocks = {}
    for a in layer_exponents(k):
        blocks.setdefault(pbw.exp_root_weight(a), []).append(a)
    for w in sorted(blocks):
        for a in _linear_extension(blocks[w], seed=seed):
            s, n = stat_b(a), stat_n(a)
            t = pbw._sigma_kernel([(a, {2 * s: 1})])
            lead = t.pop(a, {})
            if lead != {2 * (s - n): 1}:
                shown = LaurentQ._raw({h - 2 * s: m for h, m in lead.items()})
                raise AssertionError(f"sigma(E[{a}]): leading coefficient {shown} != q^{-n}")
            terms = {a: {2 * s: 1}}
            for b, d in _peel(t, entries.get).items():
                if not order_leq(a, b):
                    raise AssertionError(f"sigma(E[{a}]) reached {b} outside S({a})")
                phi = split_antisymmetric(LaurentQ._raw({h + 2 * n: m for h, m in d.items()}))
                for h, m in phi.terms.items():
                    for g, c in entries[b].terms.items():
                        add_shifted(terms, g, c.terms, h, m)
            elem = pbw._element(terms)
            if check:
                check_basis_conditions(a, elem)
            entries[a] = elem
    return LayerTable(k, entries)

# memo tables; idempotent writes keep concurrent use deterministic
_LAYER_TABLES: dict = {}
_B_CACHE: dict = {}
_CHECKED_CORES: dict = {}       # core -> the b_element object `_certify_core` certified


def layer_table(k: int) -> LayerTable:
    """Memoized `b_element`s of one layer.

    Every layer is built and checked without straightening sigma.  The
    sigma eigenvalue of each distinct core (`_core`) is certified once per
    process from the structure that built it, its factor cores first
    (`_certify_core`): an order-maximal core is the single term E[c] with a
    closed-form exponent, a core (x, 0, 0, w) with x < w is tau of the
    certified B[rev c], a near-diagonal core satisfies the mirrored row
    of `RECURSIONS`, and a cluster monomial had its exponent derived by
    `b_element`.  `b_element` has checked that each p0/p1 step takes the
    exponent from -N(core) to -N(a), and triangularity is checked on every
    element's stored terms (no dual-PBW copy).  `verify layers`, the tests
    and CI check both conditions on every element in full.  With
    QCA_CACHE_DIR set, `_save_layer` then makes the layer's cache file hold
    the build's bytes, rewriting any other file silently; the file is never
    read back.  A path that cannot be read or written (an `OSError`) is one
    warning and a miss."""
    tab = _LAYER_TABLES.get(k)
    if tab is None:
        exps = layer_exponents(k)
        for c in sorted({_core(a) for a in exps}):
            _certify_core(c)
        tab = LayerTable(k, {a: b_element(a) for a in exps})
        for a, elem in tab:
            _check_triangular(a, elem)
        cache_dir = os.environ.get("QCA_CACHE_DIR")
        if cache_dir:
            try:
                _save_layer(tab, cache_dir)
            except OSError as exc:
                print(f"warning: ignoring layer cache {_layer_path(k, cache_dir)}: {exc}",
                      file=sys.stderr)
        _LAYER_TABLES[k] = tab
    return tab


def _certify_core(c: Exp):
    """Certify sigma(B[c]) = q^(-N(c)) B[c] for the core c from the
    structure `b_element` builds it by, straightening no sigma.  Each
    certificate takes its factors to be eigenvectors, so the cores of
    c's factors are certified first; the certified object is kept in
    `_CHECKED_CORES`.

    - Order-maximal: B[c] must be the single term q^(b(c)) u^c, whose
      reversed word takes c3 c2 + c2 c1 + c1 c0 swaps at distance one, so
      its exponent -2b(c) + 2(3c3 + 2c2 + c1) - 2(c3c2 + c2c1 + c1c0) must
      be -N(c).
    - Any other core (x, 0, 0, w) with x < w: `b_element` built it as
      tau(B[rev c]) and derived its exponent through `_tau_facts`, so rev c
      is certified instead, with no product of its own.
    - Near-diagonal, built by row 1 or 5 of `RECURSIONS`: sigma sends
      sign q^t B[f] u_i to sign q^(-t + 2i - N(f)) u_i B[f] (and a left
      factor to the right), so the mirrored row 2 or 6 must carry these
      terms times q^N(c), and B[c] must equal its `_row_sum`: two
      single-generator products.
    - Cluster monomial: `b_element` derived its exponent as it built it.
    """
    done = _CHECKED_CORES.get(c)
    if done is not None and done is b_element(c):
        return
    if _order_maximal(c):
        c3, c2, c1, c0 = c
        x = b_element(c)
        e = -2 * stat_b(c) + 2 * (3 * c3 + 2 * c2 + c1) - 2 * (c3 * c2 + c2 * c1 + c1 * c0)
        if x.terms != {c: qpow(stat_b(c))} or e != -stat_n(c):
            raise _uncertified(c, f"it is not the single term E[{c}] with sigma exponent {-stat_n(c)}")
    elif c[0] < c[3]:
        _certify_core(c[::-1])
        x = b_element(c)
    elif c[0] - c[3] <= 1:
        n, r = _near_diagonal_row(c)
        (_, _, built), (text, _, mirror) = _ROWS[r], _ROWS[r + 1]
        for (sign, t, i, left, f), (sign2, t2, i2, left2, f2) in zip(built, mirror):
            f = _at(f, n)
            _certify_core(_core(f))
            if ((sign2, i2, left2, _at(f2, n)) != (sign, i, not left, f)
                    or t2(n) != stat_n(c) - t(n) + 2 * i - stat_n(f)):
                raise _uncertified(c, f"sigma does not map its recursion onto {text!r} at n = {n}")
        x, want = b_element(c), pbw._element(_row_sum(r + 1, n, _b_kernel))
        if x != want:
            raise _uncertified(c, f"{text!r} fails at n = {n}: {diff_detail(x, want)}")
    else:
        for f in _cluster_factors(c)[:2]:
            _certify_core(f)
        x = b_element(c)
    _CHECKED_CORES[c] = x


def _uncertified(c: Exp, why: str) -> AssertionError:
    return AssertionError(f"B[{c}] is not certified a sigma eigenvector with eigenvalue "
                          f"q^{-stat_n(c)}: {why}")


def _order_maximal(a: Exp) -> bool:
    """a is maximal in the order, and B[a] = E[a]: a1 = a0 = 0, a3 = a0 = 0
    or a3 = a2 = 0."""
    a3, a2, a1, a0 = a
    return (a1 == 0 and a0 == 0) or (a3 == 0 and a0 == 0) or (a3 == 0 and a2 == 0)


def _core(a: Exp) -> Exp:
    """The core `b_element` strips a to: a minus r = min(a2, a0) steps p0
    and s = min(a3, a1) steps p1."""
    r, s = min(a[1], a[3]), min(a[0], a[2])
    return (a[0] - s, a[1] - r, a[2] - s, a[3] - r)


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


def _p_exponent(a: Exp) -> int:
    """The e with B[a] = q^e p1^s B[_core(a)] p0^r, the sum of the q^t of
    `_p_step`'s walk: the j-th of the r steps p0 has t = a2 + 2a1 + 3a0 - 4j,
    the j-th of the s steps p1 then t = 3a3 + 2(a2 - r) + a1 - 4j."""
    a3, a2, a1, a0 = a
    r, s = min(a2, a0), min(a3, a1)
    return (r * (a2 + 2 * a1 + 3 * a0) - 2 * r * (r + 1)
            + s * (3 * a3 + 2 * (a2 - r) + a1) - 2 * s * (s + 1))


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


@lru_cache(maxsize=None)
def _tau_facts():
    """chi, checked once per process: tau(u_i u_j) = u_(3-j) u_(3-i) on all
    16 generator pairs, and sigma(tau(u_i)) = q^(6-4i) tau(sigma(u_i)) with
    6 - 4i = chi . (root weight of u_i), so sigma tau x = q^(chi . w) tau sigma x
    for any x of root weight w."""
    u = [pbw.generator(i) for i in range(4)]
    chi = (6, -10)  # solved on u0, u1: weights (1, 0), (2, 1)
    for i, (w1, w2) in enumerate(pbw.ROOT_WEIGHT):
        e = 6 - 4 * i
        if (any((u[i] * u[j]).tau() != u[3 - j] * u[3 - i] for j in range(4))
                or u[i].tau().sigma() != u[i].sigma().tau().scale_qpow(e)
                or chi[0] * w1 + chi[1] * w2 != e):
            raise AssertionError("the tau fact table does not hold")
    return chi


def _layer_path(k: int, cache_dir) -> Path:
    return Path(cache_dir) / f"layer_{k}.json"


def _layer_bytes(tab: LayerTable):
    """The layer's cache file in pieces of one entry each: the bytes of
    `json.dumps` of [{"a": list(a), "element": B[a].to_json_dict()}, ...] in
    key order, each entry one format around the listing of its terms by
    `pbw.json_terms`, the JSON writer the CLI shares (whose docstring says
    why no JSON escape is needed); the tests and CI check these bytes
    against `json.dumps`."""
    yield b"["
    sep = ""
    entries = tab.entries
    for a in sorted(entries):
        terms = pbw.json_terms(entries[a].terms, "exp")
        yield ('%s{"a": [%d, %d, %d, %d], "element": {"terms": %s}}' % (sep, *a, terms)).encode()
        sep = ", "
    yield b"]"


def _save_layer(tab: LayerTable, cache_dir):
    """Make the layer's cache file hold `_layer_bytes(tab)`, the bytes
    `json.dumps` would write, compared piece by piece, so the whole file is
    never held in memory, and never parsed: a file that already holds them
    is left alone, and any other is replaced by a temporary file in the same
    directory, named for this process and thread, that `os.replace` moves
    into place, so concurrent writers never leave a half-written file
    behind."""
    path = _layer_path(tab.k, cache_dir)
    try:
        with open(path, "rb") as f:
            if all(f.read(len(piece)) == piece for piece in _layer_bytes(tab)) and not f.read(1):
                return
    except FileNotFoundError:
        pass
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(tmp, "xb") as f:
            f.writelines(_layer_bytes(tab))
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)  # a no-op once the move succeeded


# the eighth recursion, the right-multiplied dual of the seventh, has its
# middle index forced to n-1 by degree (its printed companion drops a -1)
RECURSIONS = ((1, None, (
    "B[n,0,0,n-1] = q^(n-1) u3 B[n-1,0,0,n-1] - q^(2n-1) u2 B[n-1,0,1,n-2]",
    "B[n,0,0,n-1] = q^(3n-3) B[n-1,0,0,n-1] u3 - q^(2n-3) B[n-1,0,1,n-2] u2",
    "B[n-1,0,0,n] = q^(n-1) B[n-1,0,0,n-1] u0 - q^(2n-1) B[n-2,1,0,n-1] u1",
    "B[n-1,0,0,n] = q^(3n-3) u0 B[n-1,0,0,n-1] - q^(2n-3) u1 B[n-2,1,0,n-1]",
    "B[n,0,0,n] = q^(n-1) B[n,0,0,n-1] u0 - q^(2n) B[n-1,1,0,n-1] u1",
    "B[n,0,0,n] = q^(3n-1) u0 B[n,0,0,n-1] - q^(2n-2) u1 B[n-1,1,0,n-1]",
    "B[n,0,0,n] = q^(n-1) u3 B[n-1,0,0,n] - q^(2n) u2 B[n-1,0,1,n-1]",
    "B[n,0,0,n] = q^(3n-1) B[n-1,0,0,n] u3 - q^(2n-2) B[n-1,0,1,n-1] u2")),)


def _recursion_row(text: str):
    """A row of `RECURSIONS` as `b_element` and `_certify_core` read it:
    (text, lhs, terms), lhs the left side's index and each term
    (sign, t, i, left, f) the term sign q^t u_i B[f] (left) or
    sign q^t B[f] u_i, with t and the coordinates of lhs and f functions
    of n (every row's q-power names n, so it reads as q^e, not as a
    constant)."""
    ((_, ((_, lhs, _),)),), rhs = parse_identity(text)
    terms = []
    for sign, ((_, t, _), x, y) in rhs:
        left = x[0] == "name"
        (_, u, _), (_, f, _) = (x, y) if left else (y, x)
        terms.append((sign, t, int(u[1]), left, f))
    return text, lhs, tuple(terms)


# rows 1..6, read once at import and only by `_row_sum`: b_element builds a
# near-diagonal core by row 1 or 5, and `_certify_core` checks it against the
# next row, its mirror; rows 3 and 4, tau of rows 1 and 2, build nothing
_ROWS = tuple(_recursion_row(text) for text in RECURSIONS[0][2][:6])
# the q_product rules of the factors that q-commute on their side
_GEN_RULES = {(0, False): pbw.X_U0, (1, False): pbw.X_U1, (2, True): pbw.U2_X, (3, True): pbw.U3_X}


def _at(index, n: int) -> Exp:
    return tuple(p(n) for p in index)


def _near_diagonal_row(a: Exp):
    """n and the index r of the row of `_ROWS` that builds the core
    a = (x, 0, 0, w), x - w = 1 or 0: B[n,0,0,n-1] or B[n,0,0,n], n = x.
    Row 3, which builds B[n-1,0,0,n], is tau of row 1 and builds nothing."""
    n = a[0]
    return n, next(r for r in (0, 4) if _at(_ROWS[r][1], n) == a)


def _row_sum(r: int, n: int, y_of) -> dict:
    """The kernel sum of row r of `_ROWS` at n, y_of(g) the kernel sum
    standing for B[g], by the three rules of the module docstring."""
    out = {}
    for sign, t, i, left, g in _ROWS[r][2]:
        y, e = y_of(_at(g, n)), t(n)
        rule = _GEN_RULES.get((i, left))
        if rule is not None:
            pbw._q_into(out, y, rule, e, sign)
        elif not left:
            pbw._terms_times_gen(y, i, out, 2 * e, sign)
        else:
            for b, c in (pbw.generator(i) * pbw._element(y)).terms.items():
                add_shifted(out, b, c.terms, 2 * e, sign)
    return out


def _b_kernel(g: Exp) -> dict:
    """B[g] as a kernel sum, sharing its coefficient dicts: read it only."""
    return {b: c.terms for b, c in b_element(g).terms.items()}


def _cluster_factors(a: Exp):
    """(c, c', d, j) for a cluster-monomial core a = (x, 0, 0, w),
    x - w = d >= 2: B[a] is B[c]^(d-j) B[c']^j up to a power of q, with
    c = (m + 1, 0, 0, m), c' = c + (1, 0, 0, 1) adjacent cluster variables."""
    d = a[0] - a[3]
    m, j = divmod(a[3], d)
    return (m + 1, 0, 0, m), (m + 2, 0, 0, m + 1), d, j


@lru_cache(maxsize=None)
def _quasi_commutation(c: Exp) -> int:
    """The lam with B[c] B[c'] = q^lam B[c'] B[c], c' = c + (1, 0, 0, 1),
    checked once per adjacent pair of cluster variables and process; both
    products are `times_b`, each with a new table."""
    c2 = (c[0] + 1, 0, 0, c[3] + 1)
    x, y = b_element(c), b_element(c2)
    xy, yx = times_b(x, c2, {}), times_b(y, c, {})
    # the power of q read off one monomial, then checked on all; an odd h
    # (1 when xy lacks the monomial) refuses the pair
    k = max(yx.terms)
    h = min(xy.terms[k].terms) - min(yx.terms[k].terms) if k in xy.terms else 1
    if h % 2 or xy != yx.scale(half_pow(h)):
        raise AssertionError(f"B[{c}] and B[{c2}] do not quasi-commute")
    return h // 2


def b_element(a) -> pbw.PbwElement:
    """B[a]: tau(B[rev a]) when a's core (x, ., ., w) has x < w; otherwise
    strip p0/p1 factors, then either a frozen dual-PBW core, the one-step
    recursions on near-diagonal cores, or, on any other core (x, 0, 0, w),
    a quantum cluster monomial.
    Convention: any negative coordinate gives 0.

    Each p0/p1 step checks its sigma exponent where it is built: sigma bars
    coefficients and reverses products, so by `_p_facts` and
    sigma(B[c]) = q^(-N(c)) B[c], the exponent of q^t B[c] p0 is
    -2t + eps0 + chi0(wt c) - N(c), and of q^t p1 B[c] is
    -2t + eps1 - chi1(wt c) - N(c); each must be -N(a).  A mirrored element
    is checked the same way: by `_tau_facts`, the exponent of tau(B[rev a])
    is chi(wt rev a) - N(rev a), which must be -N(a).  So is a cluster
    monomial q^(-h/2) B[c]^(d-j) B[c']^j: with
    B[c] B[c'] = q^lam B[c'] B[c] (`_quasi_commutation`), its exponent
    h - (d-j) N(c) - j N(c') - lam j (d-j) must be -N(a).  The near-diagonal
    cores, built by rows 1 and 5 of `RECURSIONS`, and the order-maximal
    ones are certified by `_certify_core`, which `layer_table` runs.

    A p0/p1 step (x p0, p1 x) is a `pbw.q_product` with its q^t folded in,
    and a near-diagonal core the `_row_sum` of row 1 or 5, whose generators
    q-commute too: neither straightens anything.  A cluster monomial is
    built one right factor at a time by `times_b`.
    """
    # a memo hit on a tuple of ints skips the normalization: only normalized
    # tuples of nonnegative ints are stored, and an equal tuple of ints is
    # its key; a float equals and hashes like an int, but must not index
    hit = _B_CACHE.get(a) if type(a) is tuple else None
    if hit is None or not (type(a[0]) is type(a[1]) is type(a[2]) is type(a[3]) is int):
        a = tuple(map(operator.index, a))
        if len(a) != 4:
            raise ValueError(f"B[a] needs 4 coordinates, not {len(a)}: {a}")
        if any(x < 0 for x in a):
            return pbw.zero()
        hit = _B_CACHE.get(a)
    if hit is not None:
        return hit
    core = _core(a)
    step = _p_step(a)
    if core[0] < core[3]:
        b = a[::-1]
        x, y = _tau_facts()
        w1, w2 = pbw.exp_root_weight(b)
        e = x * w1 + y * w2 - stat_n(b)
        if e != -stat_n(a):
            raise AssertionError(f"B[{a}]: derived sigma exponent {e} != -N(a) = {-stat_n(a)}")
        res = b_element(b).tau()
    elif step is not None:
        which, c, t = step
        eps, (x, y) = _p_facts()[which]
        w1, w2 = pbw.exp_root_weight(c)
        e = -2 * t + eps + (1 if which == 0 else -1) * (x * w1 + y * w2) - stat_n(c)
        if e != -stat_n(a):
            raise AssertionError(f"B[{a}]: derived sigma exponent {e} != -N(a) = {-stat_n(a)}")
        res = pbw.q_product(b_element(c), pbw.X_P0 if which == 0 else pbw.P1_X, t)
    elif _order_maximal(a):
        res = dual_pbw(a)  # B = E
    elif a[0] - a[3] <= 1:
        # core shape (x, 0, 0, w) with w >= 1 and x - w = 0 or 1
        n, r = _near_diagonal_row(a)
        res = pbw._element(_row_sum(r, n, _b_kernel))
    else:
        # the quantum cluster monomial in two adjacent cluster variables
        # c and c', divided by its E[a] coefficient q^(h/2); B[c]^(d-j)
        # B[c']^j is built one right factor at a time, each a `times_b`
        c, c2, d, j = _cluster_factors(a)
        res = b_element(c)
        for f in (c,) * (d - j - 1) + (c2,) * j:
            res = times_b(res, f, {})
        lead = res.terms.get(a, lq_zero()) * qpow(-stat_b(a))
        h = min(lead.terms, default=0)
        if lead != half_pow(h):
            raise AssertionError(f"B[{a}]: cluster monomial has leading coefficient {lead}")
        e = h - (d - j) * stat_n(c) - j * stat_n(c2) - (_quasi_commutation(c) * j * (d - j) if j else 0)
        if e != -stat_n(a):
            raise AssertionError(f"B[{a}]: derived sigma exponent {e} != -N(a) = {-stat_n(a)}")
        res = res.scale(half_pow(-h))
    _B_CACHE[a] = res
    return res


# the cutoff of `times_b`: it walks only for an x of at least _WALK_TERMS terms
_WALK_TERMS = 9


def times_b(x: pbw.PbwElement, f: Exp, table: dict) -> pbw.PbwElement:
    """x B[f], by walking the construction of B[f] (module docstring).

    table maps each near-diagonal core g the walk reaches to x B[g], as a
    kernel sum; it belongs to the caller, who passes it again only with
    the same x.  A small or inhomogeneous x, or an f with a negative
    coordinate, is the base case x * b_element(f)."""
    w = x.root_weight()
    if w is None or len(x.terms) < _WALK_TERMS or min(f) < 0:
        return x * b_element(f)
    return pbw._element(_walk(x, w, f, table))


def _walk(x: pbw.PbwElement, w, f: Exp, table: dict) -> dict:
    """The kernel sum of x B[f], x of root weight w: one p0/p1 step of f put
    on x B[c] by `pbw._q_into`, after moving p1 past x (x p1 =
    q^(-chi1(w)) p1 x, `_p_facts`), or a near-diagonal core from table or
    its `_row_sum`, or the base case."""
    step = _p_step(f)
    if step is not None:
        which, c, t = step
        if which == 1:
            _, (_, (x1, y1)) = _p_facts()
            t -= x1 * w[0] + y1 * w[1]
        return pbw._q_into({}, _walk(x, w, c, table), pbw.X_P0 if which == 0 else pbw.P1_X, t)
    out = table.get(f)
    if out is None:
        if f[0] - f[3] not in (0, 1) or _order_maximal(f):
            return {a: c.terms for a, c in (x * b_element(f)).terms.items()}
        # row 5 builds B[n,0,0,n]; B[n,0,0,n-1], built by row 1, is walked
        # by its mirror, row 2, which it satisfies once certified
        n, r = _near_diagonal_row(f)
        if r == 0:
            _certify_core(f)
        out = table[f] = _row_sum(r or 1, n, lambda g: _walk(x, w, g, table))
    return out


def expand_in_b_basis(x: pbw.PbwElement) -> dict:
    """Coefficients d_a with x = sum d_a B[a], by `_peel` on a copy of x's
    coefficient dicts (the peel subtracts into them in place)."""
    out = _peel({a: dict(c.terms) for a, c in x.terms.items()}, b_element)
    return {b: LaurentQ._raw(d) for b, d in out.items()}


def b_product(a: Exp, b: Exp) -> dict:
    """Coefficients d_g with B[a] B[b] = sum d_g B[g], a and b in N^4,
    through the p0/p1-stripped cores.

    B[a] = q^E(a) p1^S B[c] p0^R with c = `_core(a)`, E = `_p_exponent`, and
    B[b] = q^E(b) p1^S' B[c'] p0^R' likewise.  Moving p0^R past p1^S'
    (p0 p1 = q^-4 p1 p0, `pbw.P0_P1_COMMUTE`), B[c] past p1^S' and p0^R
    past B[c'] (`_p_facts`) gives B[a] B[b] = q^X p1^(S+S') B[c] B[c'] p0^(R+R'), with
    X = E(a) + E(b) - 4RS' + R chi0(wt c') - S' chi1(wt c).  Each term B[f]
    of the core product then goes to p1^(S+S') B[f] p0^(R+R') =
    q^(E(f) - E(g)) B[g], g = f + (S+S')(1,0,1,0) + (R+R')(0,1,0,1), since g
    strips to f's core.  The core product is `times_b(B[c], c', {})`;
    `expand_in_b_basis(b_element(a) * b_element(b))` is the oracle the
    tests and CI check this against."""
    (_, (x0, y0)), (_, (x1, y1)) = _p_facts()
    c, d = _core(a), _core(b)
    (w1, w2), (v1, v2) = pbw.exp_root_weight(c), pbw.exp_root_weight(d)
    (s, r), (s2, r2) = (a[0] - c[0], a[1] - c[1]), (b[0] - d[0], b[1] - d[1])
    x = (_p_exponent(a) + _p_exponent(b) + pbw.P0_P1_COMMUTE * r * s2
         + r * (x0 * v1 + y0 * v2) - s2 * (x1 * w1 + y1 * w2))
    m, n = s + s2, r + r2
    out = {}
    for f, v in expand_in_b_basis(times_b(b_element(c), d, {})).items():
        g = (f[0] + m, f[1] + n, f[2] + m, f[3] + n)
        out[g] = v * qpow(x + _p_exponent(f) - _p_exponent(g))
    return out


# -- verification suites -------------------------------------------------------


PRODUCTS = ((1, None, (
    "B[n,0,0,n-1] B[1,0,0,1] = q^(3-4n) B[n+1,0,0,n] + q^(4-4n) B[n,1,1,n-1]",
    "B[1,0,0,1] B[n,0,0,n-1] = q^(1-4n) B[n+1,0,0,n] + q^(-4n) B[n,1,1,n-1]",
    "B[n,0,0,n] B[1,0,0,1] = q^(-4n) (B[n+1,0,0,n+1] + B[n,1,1,n])",
    "B[1,0,0,1] B[n,0,0,n] = q^(-4n) (B[n+1,0,0,n+1] + B[n,1,1,n])")),)


def _names() -> dict:
    """What the printed identities' symbols stand for, read when a suite runs."""
    return {"B": b_element, **pbw.U_POWERS}


def verify_recursions(n_max: int) -> list:
    """The eight printed one-step recursions, `RECURSIONS`, for 1 <= n <= n_max."""
    return identities("recursions", RECURSIONS, n_max, _names())


def verify_products(n_max: int) -> list:
    """The four product expansions with B[1,0,0,1], `PRODUCTS`, for
    1 <= n <= n_max, their n = 0 tail cases, and the commutativity of
    B[1,0,0,1] with the diagonal family."""
    report = identities("products", PRODUCTS, n_max, _names())
    b00, b11 = b_element((0, 0, 0, 0)), b_element((1, 0, 0, 1))
    # the diagonal equations also make sense and hold for n = 0: the
    # correction term is q^(6n-4) p1 B[n-1,0,0,n-1] p0, whose core index
    # goes negative and kills it
    report.append(compare("products", 0,
                          "B[0,0,0,0] B[1,0,0,1] = B[1,0,0,1] + (vanishing core)", b00 * b11, b11))
    report.append(compare("products", 0,
                          "B[1,0,0,1] B[0,0,0,0] = B[1,0,0,1] + (vanishing core)", b11 * b00, b11))
    for n in range(0, n_max + 1):
        bn = b_element((n, 0, 0, n))
        report.append(compare("products", n, "B[1,0,0,1] commutes with B[n,0,0,n]", b11 * bn, bn * b11))
    return report


def f_exponent(n: int, k: int, l: int) -> int:
    return n * (n - 2) + k * (n + 2) + l * (n + 1) - 2 * k * l


def g_exponent(n: int, k: int, l: int) -> int:
    return n * (n - 3) + k * (n + 1) + l * (n + 1) - 2 * k * l


def p_power(which: int, k: int) -> pbw.PbwElement:
    """p0^k (which = 0) or p1^k (which = 1), read off the basis: `b_element`
    strips k factors p0 from B[0,k,0,k] (p1 from B[k,0,k,0]), the j-th with
    q^(4(j-1)), so p^k = q^(-2k(k-1)) B."""
    return b_element((0, k, 0, k) if which == 0 else (k, 0, k, 0)).scale_qpow(-2 * k * (k - 1))


def _u_pow(i: int, k: int) -> pbw.PbwElement:
    return pbw.monomial(tuple(k if s == i else 0 for s in (3, 2, 1, 0)))


def verify_closed_formulas(n_max: int) -> list:
    """Both closed product formulas, for 0 <= n <= n_max."""
    report = []
    for n in range(0, n_max + 1):
        chebyshev = [(k, l, quantum_binom(n - k, l) * quantum_binom(n - l, k))
                     for k in range(n + 1) for l in range(n - k + 1)]
        for m, terms, exponent, identity in (
                (n + 1, cluster_terms(n, quantum_binom), f_exponent,
                 "u2^n B[n+1,0,0,n] u1^(n+1) = quantum cluster sum"),
                (n, chebyshev, g_exponent, "u2^n B[n,0,0,n] u1^n = quantum Chebyshev sum")):
            lhs = _u_pow(2, n) * b_element((m, 0, 0, n)) * _u_pow(1, m)
            acc = {}
            for k, l, coef in terms:
                if coef:
                    term = p_power(1, m - k) * _u_pow(2, 2 * k) * _u_pow(1, 2 * l) * p_power(0, n - l)
                    add_into(acc, term.terms, coef * qpow(exponent(n, k, l)))
            report.append(compare("closed-formulas", n, identity, lhs, pbw.PbwElement._raw(acc)))
    return report


def power_formulas(k: int):
    """Closed expansions of p1^k and p0^k in the ordered monomial basis, from the row [k i]."""
    if k < 0:
        raise ValueError("needs k >= 0")
    e1 = {}
    e0 = {}
    for i, c in enumerate(quantum_binom_row(k)):
        c = c * qpow(2 * i * i - i * k - k * k + i + k)
        if i % 2:
            c = -c
        e1[(k - i, 2 * i, k - i, 0)] = c
        e0[(0, k - i, 2 * i, k - i)] = c
    return pbw.PbwElement(e1), pbw.PbwElement(e0)


def verify_power_formulas(k_max: int) -> list:
    report = []
    for k in range(0, k_max + 1):
        f1, f0 = power_formulas(k)
        report.append(compare("closed-formulas", k, "p1^k closed expansion", f1, p_power(1, k)))
        report.append(compare("closed-formulas", k, "p0^k closed expansion", f0, p_power(0, k)))
    return report


def pbw_expansion_formula(n: int) -> dict:
    """The quadruple-sum dual-PBW coefficient table of B[n+1,0,0,n].

    Summands with a negative coordinate must cancel; this is asserted
    rather than assumed.
    """
    rows = [list(quantum_binom_row(m)) for m in range(n + 2)]
    acc = {}
    # cluster_terms also asks for [-1 0], at (k, l) = (n + 1, 0), which is outside the rows
    for k, l, c_kl in cluster_terms(n, lambda m, j: rows[m][j] if 0 <= j <= m else quantum_binom(m, j)):
        for s, cs in enumerate(rows[n + 1 - k]):
            for r, cr in enumerate(rows[n - l]):
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
        got = pbw.PbwElement(pbw_expansion_formula(n))
        want = pbw.PbwElement(expand_in_dual_pbw(b_element((n + 1, 0, 0, n))))
        report.append(compare("pbw-expansion", n,
                              "quadruple sum matches expand_in_dual_pbw(B[n+1,0,0,n])", got, want))
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
    a where they differ, with `diff_detail`."""
    ok = tab.entries == ref.entries
    detail = None
    if not ok:
        a = next(a for a in sorted(set(tab.entries) | set(ref.entries))
                 if tab.entries.get(a) != ref.entries.get(a))
        lhs, rhs = tab.entries.get(a, pbw.zero()), ref.entries.get(a, pbw.zero())
        detail = f"first differing B[{a}]: {diff_detail(lhs, rhs)}"
    return entry("layers", k, identity, ok, detail)
