"""Free algebra on E1, E2 and membership testing in the quantum Serre ideal.

This module certifies the straightening relations independently of the
rewrite rules the normal-form calculus adopts: each relation, written in
the free algebra through the commutator construction of the generators,
must lie in the two-sided ideal generated by the two degree-four Serre
relators.  Membership in a fixed weight component is a finite linear
algebra problem over the spanning set {w * S * w' : S in {S1, S2}}.

Exact mode runs fraction-free elimination over the integer Laurent
polynomials and returns a certificate: integer Laurent numerators c_j over
one Laurent denominator d with sum c_j * (u_j S_j u'_j) = d * x.
Probabilistic mode solves over Q at several seeded integer values of q,
reporting membership iff every evaluation succeeds.

Words are tuples over the alphabet {1, 2} (the letters E1, E2); the weight
of a word is (#E1, #E2), additive under concatenation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from math import gcd

from .qarith import LaurentQ, Terms, add_into, laurent_term, lq_one, qpow, quantum_int

E1, E2 = 1, 2


def weight(word) -> tuple:
    return (sum(1 for c in word if c == E1), sum(1 for c in word if c == E2))


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

    def is_homogeneous(self) -> bool:
        return not self.terms or self.weight() is not None

    def _term(self, word, c, latex):
        if latex:
            name = "".join(f"E_{x}" for x in word)
        else:
            name = "*".join(f"E{x}" for x in word)
        return laurent_term(c, name or "1", latex)


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
    s2 = FreeElement({
        (2, 2, 2, 1): lq_one(),
        (2, 2, 1, 2): -three,
        (2, 1, 2, 2): three,
        (1, 2, 2, 2): -lq_one(),
    })
    return s1, s2


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
    relators = serre_relators()
    rel_weights = ((3, 1), (1, 3))
    out = []
    for ridx, (s, ws) in enumerate(zip(relators, rel_weights)):
        r1, r2 = w[0] - ws[0], w[1] - ws[1]
        if r1 < 0 or r2 < 0:
            continue
        for a in range(r1 + 1):
            for b in range(r2 + 1):
                for left in words_of_weight(a, b):
                    lf = FreeElement.word(left)
                    for right in words_of_weight(r1 - a, r2 - b):
                        elem = lf * s * FreeElement.word(right)
                        out.append(((ridx, left, right), elem))
    return out


@dataclass
class MembershipResult:
    member: bool
    mode: str
    weight: tuple
    # exact mode: [(label, LaurentQ numerator)] with
    # expand_certificate(certificate) == x.scale(denominator)
    certificate: list | None = None
    denominator: LaurentQ = lq_one()


DEFAULT_WEIGHT_CAP = 12
EXACT_DEFAULT_MAX_TOTAL = 8


def ideal_membership(x: FreeElement, mode: str | None = None, cap: int = DEFAULT_WEIGHT_CAP,
                     seed: int = 0, points: int = 5) -> MembershipResult:
    """Decide membership of a weight-homogeneous element in the two-sided
    quantum Serre ideal, within its weight component.

    mode "exact" eliminates fraction-free and produces a certificate over
    one denominator; "probabilistic" solves over Q at `points` seeded integer
    values of q and reports membership iff all evaluations succeed.  The
    default picks exact for total weight <= 8.
    """
    if mode not in (None, "exact", "probabilistic"):
        raise ValueError(f"unknown mode {mode!r}")
    if not x:
        return MembershipResult(True, mode or "exact", (0, 0), certificate=[])
    w = x.weight()
    if w is None:
        raise ValueError("ideal membership needs a weight-homogeneous element")
    if w[0] + w[1] > cap:
        raise ValueError(f"weight {w} exceeds the configured cap {cap}")
    if mode is None:
        mode = "exact" if w[0] + w[1] <= EXACT_DEFAULT_MAX_TOTAL else "probabilistic"
    span = spanning_set(w)
    if not span:
        return MembershipResult(False, mode, w)
    if mode == "exact":
        return _membership_exact(x, span, w)
    return _membership_probabilistic(x, span, w, seed, points)


def _strip_content(dicts, shift=None):
    """Divide every LaurentQ entry of every dict by their common integer
    content and by q^(shift/2), in place; shift defaults to the lowest
    half-exponent present (keeps fraction-free rows small)."""
    g = 0
    low = None
    for d in dicts:
        for c in d.values():
            for h, v in c.terms.items():
                if low is None or h < low:
                    low = h
                g = gcd(g, v)
    if low is None:
        return
    if shift is None:
        shift = low
    if g == 1 and shift == 0:
        return
    for d in dicts:
        for k in list(d):
            d[k] = LaurentQ._raw({h - shift: v // g for h, v in d[k].terms.items()})


def _membership_exact(x, span, w) -> MembershipResult:
    # fraction-free elimination: rows keep LaurentQ entries throughout and
    # every pivot row remembers its expression over the spanning set
    basis = {}  # lead word -> (row dict word->LaurentQ, combo dict idx->LaurentQ)
    one = lq_one()
    for idx, (_label, elem) in enumerate(span):
        row, combo, _scale = _laurent_reduce(dict(elem.terms), {idx: one}, None, basis)
        if row:
            _strip_content((row, combo))
            basis[max(row)] = (row, combo)
    row, combo, scale = _laurent_reduce(dict(x.terms), {}, one, basis)
    if row:
        return MembershipResult(False, "exact", w)
    # scale * x = -sum combo[j] * span_j; present it over a denominator
    # with constant term nonzero, positive lead and no common content
    sign = -1 if scale.terms[max(scale.terms)] < 0 else 1
    nums = {i: c * -sign for i, c in combo.items()}
    den = {0: scale * sign}
    _strip_content((nums, den), shift=min(scale.terms))
    cert = [(span[i][0], c) for i, c in nums.items()]
    return MembershipResult(True, "exact", w, certificate=cert, denominator=den[0])


def _laurent_reduce(row, combo, scale, basis):
    """Cross-multiplied reduction against the echelon basis.  Maintains the
    invariant row = scale * x + sum combo[j] * span_j (scale is None for
    rows that started life inside the span)."""
    while row:
        lw = max(row)
        piv = basis.get(lw)
        if piv is None:
            return row, combo, scale
        prow, pcombo = piv
        a, b = row[lw], prow[lw]
        row = add_into({word: b * c for word, c in row.items()}, prow, -a)
        combo = add_into({i: b * c for i, c in combo.items()}, pcombo, -a)
        if scale is not None:
            scale = b * scale
            if row:
                dicts = (row, combo, {0: scale})
                _strip_content(dicts)
                scale = dicts[2][0]
        elif row:
            _strip_content((row, combo))
    return row, combo, scale


def expand_certificate(certificate) -> FreeElement:
    """Rebuild sum coeff * (left * S * right) from a certificate."""
    s1, s2 = serre_relators()
    total = {}
    for (ridx, left, right), coef in certificate:
        s = s1 if ridx == 0 else s2
        add_into(total, (FreeElement.word(left) * s * FreeElement.word(right)).terms, coef)
    return FreeElement._raw(total)


def _eval_row_to_int(terms, t) -> dict:
    """Evaluate LaurentQ coefficients at q = t and clear the denominators of
    the negative powers of t (scaling a row never changes the span)."""
    vals = {}
    denom_lcm = 1
    for k, c in terms.items():
        v = c.eval_q(t)
        if v:
            vals[k] = v
            denom_lcm = denom_lcm * v.denominator // gcd(denom_lcm, v.denominator)
    out = {}
    for k, v in vals.items():
        out[k] = int(v * denom_lcm)
    g = 0
    for v in out.values():
        g = gcd(g, v)
        if g == 1:
            break
    if g > 1:
        out = {k: v // g for k, v in out.items()}
    return out


def _int_reduce(row, basis):
    """Fraction-free reduction of an integer row against an integer echelon
    basis, with content stripping to keep entries small."""
    while row:
        lw = max(row)
        piv = basis.get(lw)
        if piv is None:
            return row
        a, b = row[lw], piv[lw]
        g = gcd(a, b)
        ca, cb = b // g, a // g
        row = add_into({w: ca * v for w, v in row.items()}, piv, -cb)
        if row:
            g = 0
            for v in row.values():
                g = gcd(g, v)
                if g == 1:
                    break
            if g > 1:
                row = {w: v // g for w, v in row.items()}
    return row


def _membership_probabilistic(x, span, w, seed, points) -> MembershipResult:
    rng = random.Random(seed)
    used = set()
    tested = 0
    while tested < points:
        t = rng.randint(2, 97)
        if t in used:
            continue
        used.add(t)
        xrow = _eval_row_to_int(x.terms, t)
        basis = {}
        rows = []
        for _label, elem in span:
            rows.append(_eval_row_to_int(elem.terms, t))
        rows.sort(key=lambda r: max(r) if r else (), reverse=True)
        for row in rows:
            row = _int_reduce(row, basis)
            if row:
                lw = max(row)
                if row[lw] < 0:
                    row = {k: -v for k, v in row.items()}
                basis[lw] = row
        if _int_reduce(xrow, basis):
            return MembershipResult(False, "probabilistic", w)
        tested += 1
    return MembershipResult(True, "probabilistic", w)


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


def verify_straightening_mod_serre(mode: str | None = None, seed: int = 0,
                                   cap: int = DEFAULT_WEIGHT_CAP) -> list:
    """Certify all six straightening relations as members of the quantum
    Serre ideal; returns one report entry per relation."""
    report = []
    for name, diff in straightening_differences():
        res = ideal_membership(diff, mode=mode, seed=seed, cap=cap)
        if res.member and res.certificate and diff:
            if expand_certificate(res.certificate) != diff.scale(res.denominator):
                raise AssertionError(f"certificate for {name} does not expand back")
        report.append({"relation": name, "weight": list(res.weight),
                       "mode": res.mode, "member": res.member})
    return report


def u_word_free_difference(letters) -> FreeElement:
    """Cross-oracle against the normal-form calculus: for a word in the
    u-generators, the free-algebra product of the scaled root vectors minus
    the free-algebra image of its computed normal form.  The identity holds
    in the quotient, so the difference must lie in the Serre ideal.

    The rescaling u_i = v_i / (1 - q^-2)^(2i) contributes the same global
    factor to both sides because the E2-count is constant across the normal
    form, so it cancels and the W_i can be used throughout.
    """
    from . import pbw

    ws = scaled_generators()
    lhs = FreeElement({(): lq_one()})
    for i in letters:
        lhs = lhs * ws[i]
    nf = pbw.word_product(letters)
    rhs = {}
    for a, c in nf.terms.items():
        piece = FreeElement({(): lq_one()})
        for gen_idx, e in zip((3, 2, 1, 0), a):
            for _ in range(e):
                piece = piece * ws[gen_idx]
        add_into(rhs, piece.terms, c)
    return lhs - FreeElement._raw(rhs)
