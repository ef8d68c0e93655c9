"""Free algebra on E1, E2 and membership testing in the quantum Serre ideal.

This module certifies the straightening relations independently of the
rewrite rules the normal-form calculus adopts: each relation, written in
the free algebra through the commutator construction of the generators,
must lie in the two-sided ideal generated by the two degree-four Serre
relators.

Exact mode maps an element by the quantum shuffle map (`shuffle_image`),
an algebra map into the quantum shuffle algebra whose kernel is exactly the
Serre ideal (Rosso 1998; Leclerc 2004): x is a member iff its image is 0.
The map runs on the int kernel, word -> {half-exponent: int}, each
inserted word merged by one `qarith.add_shifted`; exact membership only
asks whether the result is empty.
Probabilistic mode, kept as an independent oracle, is finite linear
algebra over the weight component I_w of the ideal, spanned by
{u * S * u' : S in {S1, S2}} (`spanning_set`; S2 is S1 with the letters
swapped, and a row joins the words onto S, `_serre_row`).  It works at
several seeded points q = t modulo the prime p = 2^61 - 1 (`PRIME`), with
t drawn from [2, p - 1], over the field GF(p) with monic pivots, and
reports membership iff every evaluation succeeds.

At each point the echelon basis of I_w is built up the weight grid
(a, b) <= w (`_grid_echelon`).  A spanning row u * S * u' with u' = u'' c
nonempty is (u * S * u'') c, so

    I_(a,b) = I_(a-1,b) E1 + I_(a,b-1) E2 + span{u * S : S at the right end}.

A word x_0 ... x_(n-1) is keyed by sum x_i 2^i (`_word_key`), from its
last letter: keys order the words of one length as their reversals do,
appending a letter c is the shift key(u c) = key(u) + c 2^(len u), and
key(u S) = key(u) + key(S) 2^(len u).  The pivots of the two neighbouring
cells, shifted by E1 and E2, are already an echelon basis, because the
two blocks end in different letters and so have disjoint keys; only the
rows u * S are reduced against them.  S1 and S2 are evaluated once per
point, each row from a table of the powers of t it uses.  One grid per
point, up to the componentwise-largest weight, serves every element decided
together, each reduced against its own cell (`_members_probabilistic`): the
suite's probabilistic relations share their five grids.

A cell skips the row u * S when u is the lead word of a pivot g of the
cell wt(u) = (a, b) - wt(S), which is already built.  Every word of S ends
in a letter and a spanning row times a word is a spanning row, so g * S
lies in the shifted part; and u * S = g * S - sum c_u' u' * S with every
key(u') < key(u), so induction on the key puts each skipped row in the
span of the shifted part and the kept rows, at every t and in any row
order (the normal-word rule of noncommutative Groebner bases; Bergman
1978).  The kept rows that still reduce to zero come from the degree-3
syzygies of U_q^+ of affine sl2, which start at weights (6,3) and (3,6)
(Garland-Lepowsky 1976): 9 of the 223 rows (7,5)'s grid reduces.

The grid spans, at q = t, exactly the space the evaluated spanning rows
span, so the bound below is the one for eliminating those rows.  Over
Q(q), x is a member iff its row leaves the rank r of the span unchanged.
A wrong answer at one point needs a nonzero r x r minor of the span, or
(r + 1) x (r + 1) minor with x, to vanish at q = t modulo p: t is a root
mod p of that minor times a power of q, a polynomial over Z of degree at
most 4 r + e (a span row's exponents lie in [-2, 2], e is the exponent
span of x; 2784 at (7,5)), or p divides all of its coefficients.  A
uniform t hits such a root with probability at most (4 r + e) / (p - 2)
< 2^-49 (Schwartz 1980; Zippel 1979).

Words are tuples over the alphabet {1, 2} (the letters E1, E2); the weight
of a word is (#E1, #E2), additive under concatenation.
"""

from __future__ import annotations

import random
from collections import namedtuple
from heapq import heapify, heappop, heappush
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
# The default split between the modes stays where the elimination put it:
# the `verify serre` report and acceptance criterion 6 name each relation's
# mode, exact through (5,3) and probabilistic at (6,4) and (7,5).
EXACT_DEFAULT_MAX_TOTAL = 8
PROBABILISTIC_POINTS = 5
PRIME = 2 ** 61 - 1  # the field of the probabilistic elimination


def ideal_membership(x: FreeElement, mode: str | None = None, seed: int = 0) -> MembershipResult:
    """Decide membership of a weight-homogeneous element in the two-sided
    quantum Serre ideal, up to total weight `DEFAULT_WEIGHT_CAP`.

    mode "exact" asks whether the shuffle map sends x to zero; otherwise
    `_members_probabilistic` reduces x against the ideal's weight component
    modulo `PRIME` at `PROBABILISTIC_POINTS` seeded values of q, membership
    iff all evaluations succeed.  The default picks exact for total weight
    <= `EXACT_DEFAULT_MAX_TOTAL`.
    """
    if not x:
        return MembershipResult(True, _mode((0, 0), mode), (0, 0))
    w = x.weight()
    if w is None:
        raise ValueError("ideal membership needs a weight-homogeneous element")
    if _mode(w, mode) == "exact":
        return MembershipResult(not _shuffle(x.terms.items(), 0), "exact", w)
    return _members_probabilistic([(x, w)], seed)[0]


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


def expand_certificate(certificate) -> FreeElement:
    """sum coeff * (left * S * right) over the pairs
    ((relator index, left, right), coeff) of a certificate."""
    relators = serre_relators()
    total = {}
    for (ridx, left, right), coef in certificate:
        add_into(total, _serre_row(left, relators[ridx], right).terms, coef)
    return FreeElement._raw(total)


def _eval_row(terms, t) -> dict:
    """The row of LaurentQ coefficients at q = t modulo `PRIME`, zeros
    dropped.  Raises ValueError on an odd half-exponent.  Each t^k is read
    from a table over the exponents the row uses, with t^-1 computed once."""
    hs = {h for c in terms.values() for h in c.terms}
    if any(h % 2 for h in hs):
        raise ValueError("cannot evaluate odd half-powers of q at an integer point")
    inv = pow(t, -1, PRIME)
    pw = {h: pow(t if h > 0 else inv, abs(h) // 2, PRIME) for h in hs}
    out = {}
    for k, c in terms.items():
        v = 0
        for h, a in c.terms.items():
            v += a * pw[h]
        v %= PRIME
        if v:
            out[k] = v
    return out


def _reduce(row, basis):
    """Reduce a row modulo `PRIME` against an echelon basis of monic pivots
    and return what is left, values in [1, PRIME - 1].  Leads come off a
    heap of the row's keys in descending order, since a pivot adds only
    keys below its lead; a value is taken modulo the prime only when it
    leads, and a lead that is 0 there is dropped."""
    keys = [-k for k in row]
    heapify(keys)
    while keys:
        lead = -heappop(keys)
        c = row[lead] % PRIME
        if c:
            piv = basis.get(lead)
            if piv is None:
                return {k: v % PRIME for k, v in row.items() if v % PRIME}
            for k, v in piv.items():
                if k in row:
                    row[k] -= c * v
                else:
                    row[k] = -c * v
                    heappush(keys, -k)
        del row[lead]
    return row


def _word_key(word) -> int:
    """sum x_i 2^i over the letters x_i of a word: an int that orders the
    words of one length as their reversals do, with
    key(u c) = key(u) + c 2^(len u)."""
    k = 0
    for c in reversed(word):
        k = 2 * k + c
    return k


def _probabilistic_points(seed) -> list:
    """The `PROBABILISTIC_POINTS` distinct integers t in [2, PRIME - 1] that
    the seed draws, in the order drawn."""
    rng = random.Random(seed)
    points = []
    while len(points) < PROBABILISTIC_POINTS:
        t = rng.randint(2, PRIME - 1)
        if t not in points:
            points.append(t)
    return points


def _grid_echelon(w, t) -> dict:
    """The echelon bases over GF(PRIME) of the ideal's weight components
    (a, b) <= w at q = t: (a, b) -> {lead key: monic pivot row}.  Built
    cell by cell: the pivots of (a-1, b) and (a, b-1) shifted by the
    appended E1 and E2, then the rows u * S whose u is no pivot lead of the
    cell (a, b) - wt S, in ascending order of their largest key, each
    reduced against them and, if anything is left, scaled to lead 1 and
    stored."""
    relators = [(s.weight(), _eval_row({_word_key(k): c for k, c in s.terms.items()}, t))
                for s in serre_relators()]
    grid = {}
    for a in range(w[0] + 1):
        for b in range(w[1] + 1):
            basis = {}
            for c, prev in ((E1, grid.get((a - 1, b))), (E2, grid.get((a, b - 1)))):
                if prev:
                    shift = c << (a + b - 1)
                    for lead, row in prev.items():
                        basis[lead + shift] = {k + shift: v for k, v in row.items()}
            rows = [{(k << (a + b - r1 - r2)) + ku: v for k, v in s.items()}
                    for (r1, r2), s in relators if a >= r1 and b >= r2
                    for ku in map(_word_key, words_of_weight(a - r1, b - r2))
                    if ku not in grid[a - r1, b - r2]]
            rows.sort(key=max)
            for row in rows:
                row = _reduce(row, basis)
                if row:
                    lead = max(row)
                    inv = pow(row[lead], -1, PRIME)
                    basis[lead] = {k: v * inv % PRIME for k, v in row.items()}
            grid[a, b] = basis
    return grid


def _members_probabilistic(xw, seed) -> list:
    """The probabilistic MembershipResult of each pair (x, weight of x) in
    xw, from one grid per point; an x that fails is not reduced again."""
    rows = [({_word_key(k): c for k, c in x.terms.items()}, w) for x, w in xw]
    top = tuple(map(max, zip(*(w for _, w in rows))))
    live = set(range(len(rows)))
    for t in _probabilistic_points(seed):
        if not live:
            break
        grid = _grid_echelon(top, t)
        live = {i for i in live if not _reduce(_eval_row(rows[i][0], t), grid[rows[i][1]])}
        del grid  # the next point's grid is built with this one freed
    return [MembershipResult(i in live, "probabilistic", w) for i, (_, w) in enumerate(rows)]


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
    Serre ideal; returns one report entry per relation.  The relations
    decided probabilistically are decided together, one grid per point."""
    diffs = [(name, d, d.weight()) for name, d in straightening_differences()]
    prob = iter(_members_probabilistic([(d, w) for _, d, w in diffs
                                        if _mode(w, mode) == "probabilistic"], seed))
    report = []
    for name, d, w in diffs:
        res = next(prob) if _mode(w, mode) == "probabilistic" else ideal_membership(d, "exact")
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
