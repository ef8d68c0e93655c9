"""Free algebra on E1, E2 and membership testing in the quantum Serre ideal.

This module certifies the straightening relations independently of the
rewrite rules the normal-form calculus adopts: each relation, written in
the free algebra through the commutator construction of the generators,
must lie in the two-sided ideal generated by the two degree-four Serre
relators.

Both modes decide membership by the quantum shuffle map Phi
(`shuffle_image`), an algebra map into the quantum shuffle algebra whose
kernel is exactly the Serre ideal (Rosso 1998; Leclerc 2004): x is a member
iff Phi(x) = 0.  Exact mode computes Phi(x) on the int kernel, word ->
{half-exponent: int}, each inserted word merged by one `qarith.add_shifted`
(`_shuffle`), and asks whether the result is empty.  Probabilistic mode
evaluates Phi(x) at one seeded point q = t, drawn from [2, p - 1], modulo the
prime p = 2^264 - 275 (`PRIME`), and reports membership iff every word's
value is 0 there (`_shuffle_at`).  It walks the same recursion on int
values, each word one int: the letters x_0 ... x_(n-1) as the bits
sum (x_k - 1) 2^k under a leading 1 at bit n, so that inserting a letter at
position k is two masks and a shift.

A member always passes.  A non-member x passes with probability at most
D / (p - 2), where D <= e + 132 and e, the span of x, is its largest minus
its smallest q-exponent: below 2^-250 when e <= 2^13 and ||x||_1, the sum of
the absolute values of x's integer coefficients, is below 2^235.  The six
straightening relations have e <= 12 and ||x||_1 <= 2048.  An element outside
these hypotheses is decided exactly by default, and refused with ValueError
when probabilistic mode is asked for (`ideal_membership`).

Proof.  Inserting the letter u_r of a word u = u_1 ... u_n past a letter
u_s (s > r) of the image of its suffix contributes the factor
q^-(alpha_(u_r), alpha_(u_s)): q^-2 for equal letters, q^2 for different
ones.  So each term of Phi(u) is q^E v with coefficient 1, where E sums
these factors' exponents over the pairs r < s the shuffle put out of
order.  At weight (a, b), E lies in [-2 (C(a,2) + C(b,2)), 2 a b], an
interval of length 2 C(n, 2) = n (n - 1).  Each coefficient of Phi(x) is
therefore q^m P(q), for one m and a polynomial P over Z of degree at most
D = e + n (n - 1), and n <= 12 under the weight cap.  Phi(u)_v counts the
shuffles that carry u to v, at most a! b! <= 12! < 2^29 of them, so P's
coefficients are below ||x||_1 2^29 < p in absolute value.  If
Phi(x) != 0, some P is nonzero, hence nonzero modulo p, and a uniform t in
[2, p - 1] is one of its at most D roots with probability at most
D / (p - 2) (Schwartz 1980; Zippel 1979).

Words are tuples over the alphabet {1, 2} (the letters E1, E2); the weight
of a word is (#E1, #E2), additive under concatenation.
"""

from __future__ import annotations

import random
from collections import namedtuple
from itertools import combinations

from .qarith import LaurentQ, Terms, add_into, add_shifted, lq_one, qpow, quantum_int

E1, E2 = 1, 2


def weight(word) -> tuple:
    return word.count(E1), word.count(E2)


class FreeElement(Terms):
    """A linear combination of words in E1, E2 with LaurentQ coefficients;
    a word is a tuple of letters 1 and 2."""

    __slots__ = ()

    @classmethod
    def word(cls, letters, coef=None):
        return cls({tuple(letters): coef if coef is not None else lq_one()})

    def __mul__(self, other):
        if isinstance(other, (int, LaurentQ)):
            return self.scale(other)
        if not isinstance(other, FreeElement):
            return NotImplemented
        out = {}
        for w1, c1 in self.terms.items():
            add_into(out, {w1 + w2: c2 for w2, c2 in other.terms.items()}, c1)
        return FreeElement._raw(out)

    def weight(self):
        """The common weight of all words, or None if inhomogeneous."""
        w = None
        for word in self.terms:
            ww = weight(word)
            if w is None:
                w = ww
            elif w != ww:
                return None
        return w

    def _mono(self, word, latex):
        if latex:
            return "".join(f"E_{x}" for x in word)
        return "*".join(f"E{x}" for x in word)


def serre_relators():
    """The two quantum Serre relators, exactly as printed:
    S1 = E1^3 E2 - [3] E1^2 E2 E1 + [3] E1 E2 E1^2 - E2 E1^3 (weight (3,1)),
    S2 the same with the letters interchanged (weight (1,3))."""
    three = quantum_int(3)
    s1 = FreeElement({
        (1, 1, 1, 2): lq_one(),
        (1, 1, 2, 1): -three,
        (1, 2, 1, 1): three,
        (2, 1, 1, 1): -lq_one(),
    })
    s2 = FreeElement._raw({tuple(3 - x for x in w): c for w, c in s1.terms.items()})
    return s1, s2


def _serre_row(left, s, right) -> FreeElement:
    """left * s * right for words left, right: each word of s with the two
    joined on."""
    return FreeElement._raw({left + w + right: c for w, c in s.terms.items()})


def scaled_generators():
    """The four root vectors in the free algebra with the [2]-power
    denominators of the printed formulas cleared: W_i = [2]^i v_i, where
    v0 = E1, v1 is the printed divided-power formula and v_{i+1} = A v_i - v_i A
    with A = (1/[2]) (E2 E1 - q^-2 E1 E2).  Hence W0 = E1 and
    W_{i+1} = A2 W_i - W_i A2 with A2 = E2 E1 - q^-2 E1 E2.  Every relation
    among the v_i is equivalent to the same relation among the W_i."""
    one = lq_one()
    w0 = FreeElement.word((1,))
    w1 = FreeElement({
        (2, 1, 1): one,
        (1, 1, 2): qpow(-2),
        (1, 2, 1): -(qpow(-2) + 1),
    })
    a2 = FreeElement({(2, 1): one, (1, 2): -qpow(-2)})
    w2 = a2 * w1 - w1 * a2
    w3 = a2 * w2 - w2 * a2
    return w0, w1, w2, w3


def words_of_weight(n1: int, n2: int):
    """All words with n1 letters E1 and n2 letters E2."""
    n = n1 + n2
    out = []
    for pos in combinations(range(n), n2):
        w = [1] * n
        for p in pos:
            w[p] = 2
        out.append(tuple(w))
    return out


def spanning_set(w: tuple):
    """The spanning elements u * S * u' of the ideal's weight component w.

    Returns a list of (label, element) where the label is
    (relator index, left word, right word)."""
    out = []
    for ridx, s in enumerate(serre_relators()):
        r1, r2 = (x - y for x, y in zip(w, s.weight()))
        if r1 < 0 or r2 < 0:
            continue
        for a in range(r1 + 1):
            for b in range(r2 + 1):
                for left in words_of_weight(a, b):
                    for right in words_of_weight(r1 - a, r2 - b):
                        out.append(((ridx, left, right), _serre_row(left, s, right)))
    return out


MembershipResult = namedtuple("MembershipResult", "member mode weight")


DEFAULT_WEIGHT_CAP = 12
# The default split between the modes is part of the report: `verify serre`
# and acceptance criterion 6 name each relation's mode, exact through (5,3)
# and probabilistic at (6,4) and (7,5).
EXACT_DEFAULT_MAX_TOTAL = 8
PRIME = 2 ** 264 - 275  # the field of the probabilistic evaluation
# the hypotheses of the one-point bound: span e <= MAX_SPAN, ||x||_1 < MAX_NORM
MAX_SPAN = 2 ** 13
MAX_NORM = 2 ** 235


def ideal_membership(x: FreeElement, mode: str | None = None, seed: int = 0) -> MembershipResult:
    """Decide membership of a weight-homogeneous element in the two-sided
    quantum Serre ideal, up to total weight `DEFAULT_WEIGHT_CAP`.

    mode "exact" asks whether the shuffle map sends x to zero; otherwise
    whether it does at the one value of q the seed draws
    (`_probabilistic_point`), modulo `PRIME`.  The default picks exact for
    total weight <= `EXACT_DEFAULT_MAX_TOTAL`, and for any x outside the
    hypotheses of the one-point bound (span e <= `MAX_SPAN`,
    ||x||_1 < `MAX_NORM`); mode "probabilistic" raises ValueError on such an x.
    """
    if not x:
        return MembershipResult(True, _mode((0, 0), mode), (0, 0))
    w = x.weight()
    if w is None:
        raise ValueError("ideal membership needs a weight-homogeneous element")
    if _mode(w, mode) == "probabilistic":
        broken = _outside_bound(x)
        if broken is None:
            image = _image_at(x, _probabilistic_point(seed))
            return MembershipResult(not any(v % PRIME for v in image.values()),
                                    "probabilistic", w)
        if mode == "probabilistic":
            raise ValueError(f"the one-point bound does not hold: {broken}")
    return MembershipResult(not _shuffle(x.terms.items(), 0), "exact", w)


def _outside_bound(x: FreeElement):
    """The hypothesis of the one-point bound that x breaks, or None."""
    hs = [h for c in x.terms.values() for h in c.terms]
    if max(hs) - min(hs) > 2 * MAX_SPAN:  # half-exponents: e is half their span
        return "the span e exceeds 2^13"
    if sum(abs(v) for c in x.terms.values() for v in c.terms.values()) >= MAX_NORM:
        return "||x||_1 is not below 2^235"
    return None


def _mode(w, mode) -> str:
    """The mode that decides an element of weight w (`ideal_membership`)."""
    if mode not in (None, "exact", "probabilistic"):
        raise ValueError(f"unknown mode {mode!r}")
    if w[0] + w[1] > DEFAULT_WEIGHT_CAP:
        raise ValueError(f"weight {w} exceeds the cap {DEFAULT_WEIGHT_CAP}")
    return mode or ("exact" if w[0] + w[1] <= EXACT_DEFAULT_MAX_TOTAL else "probabilistic")


def shuffle_image(x: FreeElement) -> FreeElement:
    """The image of x under the quantum shuffle map Phi.

    Phi(E_i w) = i |> Phi(w) and Phi(1) = 1, where i |> v inserts the
    letter i at each position k of the word v with the factor
    q^-(alpha_i, wt(v_1 ... v_k)); (alpha_1, alpha_1) = (alpha_2, alpha_2) = 2
    and (alpha_1, alpha_2) = -2.  Its kernel is exactly the Serre ideal.
    Terms are grouped by their first letter, as `pbw._horner` groups by
    the last one, so words that share a prefix share its insertions."""
    return FreeElement._raw({v: LaurentQ._raw(c) for v, c in _shuffle(x.terms.items(), 0).items()})


def _shuffle(terms, pos) -> dict:
    """Phi of the sum of c * word[pos:] over the pairs (word, c) in terms,
    as an int kernel sum word -> {half-exponent: int}."""
    out, groups = {}, {}
    for word, c in terms:
        if len(word) == pos:
            add_shifted(out, (), c.terms, 0)
        else:
            groups.setdefault(word[pos], []).append((word, c))
    for i, part in groups.items():
        for v, c in _shuffle(part, pos + 1).items():
            h = 0  # q^(h/2) = q^-(alpha_i, wt(v_1 ... v_k))
            for k in range(len(v) + 1):
                add_shifted(out, v[:k] + (i,) + v[k:], c, h)
                if k < len(v):
                    h += -4 if v[k] == i else 4
    return out


def _shuffle_at(terms, pos, down, up) -> dict:
    """`_shuffle` at q = t modulo `PRIME`, for down = t^-2 and up = t^2:
    Phi of the sum of c * word[pos:] over the pairs (word, c) in terms, c
    an int, as bit-keyed word -> int, the values left unreduced."""
    out, groups = {}, {}
    for word, c in terms:
        if len(word) == pos:
            out[1] = out.get(1, 0) + c
        else:
            groups.setdefault(word[pos], []).append((word, c))
    for i, part in groups.items():
        bit = i - 1
        # the factor for passing a letter: down if it equals i, else up
        step = (up, down) if bit else (down, up)
        for v, c in _shuffle_at(part, pos + 1, down, up).items():
            low, high, k = 0, v, 0  # v = low + high 2^k: k letters passed
            while True:
                key = low | (((high << 1) | bit) << k)
                out[key] = out.get(key, 0) + c
                if high == 1:  # only the leading 1 is left
                    break
                b = high & 1
                c = c * step[b] % PRIME
                low |= b << k
                high >>= 1
                k += 1
    return out


def _probabilistic_point(seed) -> int:
    """The integer t in [2, PRIME - 1] that the seed draws."""
    return random.Random(seed).randint(2, PRIME - 1)


def _image_at(x: FreeElement, t) -> dict:
    """Phi(x) at q = t modulo `PRIME`, bit-keyed word -> unreduced int.
    Raises ValueError on an odd half-exponent."""
    hs = {h for c in x.terms.values() for h in c.terms}
    if any(h % 2 for h in hs):
        raise ValueError("cannot evaluate odd half-powers of q at an integer point")
    pw = {h: pow(t, h // 2, PRIME) for h in hs}
    terms = [(word, sum(a * pw[h] for h, a in c.terms.items())) for word, c in x.terms.items()]
    return _shuffle_at(terms, 0, pow(t, -2, PRIME), t * t % PRIME)


def expand_certificate(certificate) -> FreeElement:
    """sum coeff * (left * S * right) over the pairs
    ((relator index, left, right), coeff) of a certificate."""
    relators = serre_relators()
    total = {}
    for (ridx, left, right), coef in certificate:
        add_into(total, _serre_row(left, relators[ridx], right).terms, coef)
    return FreeElement._raw(total)


# -- the six straightening relations -------------------------------------------


def straightening_differences():
    """LHS - RHS of the six straightening relations among the scaled
    generators (clearing the [2]-power denominators leaves membership
    unchanged): distance one, two and three."""
    w = scaled_generators()
    qm2 = qpow(-2)
    diffs = []
    for i in range(3):
        diffs.append((f"v{i}*v{i + 1} - q^-2*v{i + 1}*v{i}",
                      w[i] * w[i + 1] - (w[i + 1] * w[i]).scale(qm2)))
    corr2 = qpow(-2) - 1
    for i in range(2):
        diffs.append((f"v{i}*v{i + 2} - q^-2*v{i + 2}*v{i} - (q^-2-1)*v{i + 1}^2",
                      w[i] * w[i + 2] - (w[i + 2] * w[i]).scale(qm2)
                      - (w[i + 1] * w[i + 1]).scale(corr2)))
    corr3 = qpow(-4) - 1
    diffs.append(("v0*v3 - q^-2*v3*v0 - (q^-4-1)*v2*v1",
                  w[0] * w[3] - (w[3] * w[0]).scale(qm2) - (w[2] * w[1]).scale(corr3)))
    return diffs


def verify_straightening_mod_serre(mode: str | None = None, seed: int = 0) -> list:
    """Decide all six straightening relations as members of the quantum
    Serre ideal; returns one report entry per relation."""
    report = []
    for name, d in straightening_differences():
        res = ideal_membership(d, mode, seed)
        report.append({"relation": name, "weight": list(res.weight),
                       "mode": res.mode, "member": res.member})
    return report

