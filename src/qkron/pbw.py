"""The quantum algebra on the ordered generators u0, u1, u2, u3.

Elements are finite combinations of normal-ordered monomials
u3^a3 * u2^a2 * u1^a1 * u0^a0 with LaurentQ coefficients.  Multiplication
straightens arbitrary products with the defining relations

    u_i u_{i+1} = q^-2 u_{i+1} u_i                      (i = 0, 1, 2)
    u_i u_{i+2} = q^-2 u_{i+2} u_i + (q^-2 - 1) u_{i+1}^2   (i = 0, 1)
    u_0 u_3     = q^-2 u_3 u_0 + (q^-4 - 1) u_2 u_1

Their closed forms move u_j past a normal monomial u^a in at most four
terms; with g(n) = q^(-2(n-1)) (q^(-2n) - 1), and no term of negative
exponent,

    u^a u0 = u^(a+(0,0,0,1))     u^a u1 = q^(-2a0) u^(a+(0,0,1,0))
    u^a u2 = q^(-2a0-2a1) u^(a+(0,1,0,0)) + g(a0) u^(a+(0,0,2,-1))
    u^a u3 = q^(-2a0-2a1-2a2) u^(a+(1,0,0,0)) + q^(-2a0) g(a1) u^(a+(0,2,-1,0))
             + q^(-2a1) (1 + q^-2) g(a0) u^(a+(0,1,1,-1))
             + g(a0-1) (q^(-2a0) - 1) u^(a+(0,0,3,-2))

The straightening kernel computes with ints only.  A kernel sum holds
one dict per normal monomial, u^b -> {half-exponent h: m}, the terms
m q^(h/2) u^b; the one accumulate, `qarith.add_shifted`, adds a whole
coefficient dict, shifted by a q-power and scaled by an int, into the entry
of one u^b, and drops an entry that cancels to nothing.  Its memo
`_GEN_CACHE` maps each pair (a, j) asked for, and no other, to the rules
(b, h, m) of u^a u_j; each rule is applied once per monomial of a sum.
`PbwElement.__mul__` reads the left factor's coefficient dicts as they
are, and `_element` wraps each dict of the result as a LaurentQ.  x * y
straightens once per u3^b3 u2^b2 prefix of y's terms and applies each tail
u1^b1 u0^b0 as a shift, since it swaps letters at distance one only.  When
y is one term u^b and every u^a of x ends at or before the first letter of
u^b, each word is already in normal order, u^a u^b = u^(a+b), and nothing
is straightened: that is how `PbwElement.parse` reads a normal-ordered
word, one power of a letter at a time.

Exponent vectors are tuples (a3, a2, a1, a0).  The root weight of slot i
is (i+1, i) in the (alpha1, alpha2) coordinates, and products add root
weights, which multiplication preserves.

A product by a factor that q-commutes with every letter it passes needs
no straightening: `q_product` applies it as a table of monomial rules,
on the int kernel: each rule adds its shifted copy of x through
`add_shifted` (`_q_into`, which a caller that keeps kernel sums, such as
`dcb.times_b`, calls itself), and the result's LaurentQ coefficients are
built once.
With b = (b3, b2, b1, b0) and u^b the normal monomial,

    u^b p0 = q^(-2b0-2b1) u^(b+(0,1,0,1)) - q^(2-2b0) u^(b+(0,0,2,0))
    p1 u^b = q^(-2b3-2b2) u^(b+(1,0,1,0)) - q^(2-2b3) u^(b+(0,2,0,0))
    u^b u0 = u^(b+(0,0,0,1))            u^b u1 = q^(-2b0) u^(b+(0,0,1,0))
    u2 u^b = q^(-2b3) u^(b+(0,1,0,0))   u3 u^b = u^(b+(1,0,0,0))

`P0_COMMUTE`, `P1_COMMUTE` and the distance-one relation move the factor
to the middle of the word, between u2 and u1; each of its terms then only
swaps letters at distance one, which gives no correction term.  The rule
tables are derived from those constants (`_q_rules`).

The anti-automorphism sigma reverses every word.  It straightens the
reversed words of all terms together by Horner's rule on their last
letter, so one pass over the trie of the words replaces a pass over each
word, with no memo table beyond the straightening memo.  The
anti-automorphism tau, tau(u_i) = u_(3-i) and tau(q) = q, keeps the three
relations and sends each normal monomial to a normal monomial, so it is a
relabelling of keys.
"""

from __future__ import annotations

from .qarith import LaurentQ, Terms, add_shifted, entry, lq_one, name_tables, power_product, qpow, read

Exp = tuple  # (a3, a2, a1, a0)

# root weight of generator i in (alpha1, alpha2) coordinates
ROOT_WEIGHT = ((1, 0), (2, 1), (3, 2), (4, 3))

_ONE = lq_one()
_ADJ = -2                   # u_i u_{i+1} = q^_ADJ u_{i+1} u_i

_ZERO_EXP = (0, 0, 0, 0)
_U_NAMES = ("u3", "u2", "u1", "u0")      # a monomial's factors, in normal order
_U_LATEX = ("u_3", "u_2", "u_1", "u_0")


def _slot(i: int) -> int:
    return 3 - i


def _inc(a: Exp, i: int) -> Exp:
    s = _slot(i)
    return a[:s] + (a[s] + 1,) + a[s + 1:]


# straightening memo: (a, j) -> the rules (b, h, m) of the normal form of
# u^a u_j, one per term m q^(h/2) u^b, for the pairs asked for only; writes
# are idempotent, so concurrent use stays deterministic under the GIL
_GEN_CACHE: dict = {}


def _element(terms: dict) -> "PbwElement":
    """The PbwElement of a kernel sum: its LaurentQ coefficients are built
    here, at the kernel's boundary."""
    return PbwElement._raw({b: LaurentQ._raw(c) for b, c in terms.items()})


def _terms_times_gen(terms: dict, j: int, out=None, s: int = 0, k: int = 1) -> dict:
    """Add k q^(s/2) (the kernel sum terms) * u_j into out (a new dict if
    None)."""
    if out is None:
        out = {}
    for a, c in terms.items():
        for b, h, m in _mono_times_gen(a, j):
            add_shifted(out, b, c, h + s, k * m)
    return out


def _add_g(out: dict, b: Exp, n: int, h: int = 0, m: int = 1) -> None:
    """Add m q^(h/2) g(n) u^b into out, g(n) = q^(-2(n-1)) (q^(-2n) - 1)."""
    add_shifted(out, b, {4 - 8 * n: 1, 4 - 4 * n: -1}, h, m)


def _mono_times_gen(a: Exp, j: int) -> tuple:
    """Normal form of (normal monomial a) * u_j as a tuple of rules (b, h, m),
    by the closed forms in the module docstring."""
    key = (a, j)
    hit = _GEN_CACHE.get(key)
    if hit is not None:
        return hit
    a3, a2, a1, a0 = a
    # u_j passes the letters u_{j-1} .. u_0 of a at q^_ADJ each
    out = {_inc(a, j): {2 * _ADJ * sum(a[_slot(j) + 1:]): 1}}
    if j == 2 and a0:
        _add_g(out, (a3, a2, a1 + 2, a0 - 1), a0)
    elif j == 3:
        if a1:
            _add_g(out, (a3, a2 + 2, a1 - 1, a0), a1, -4 * a0)
        if a0:  # (1 + q^-2) g(a0); at a0 = 1 two q-powers cancel in out
            for h in (-4 * a1, -4 * a1 - 4):
                _add_g(out, (a3, a2 + 1, a1 + 1, a0 - 1), a0, h)
        if a0 > 1:
            for h, m in ((-4 * a0, 1), (0, -1)):
                _add_g(out, (a3, a2, a1 + 3, a0 - 2), a0 - 1, h, m)
    res = tuple((b, h, m) for b, c in out.items() for h, m in c.items())
    _GEN_CACHE[key] = res
    return res


def _horner(terms: list, i: int, out: dict) -> dict:
    """Add into the kernel sum out the normal form of the sum of
    c u0^a0 u1^a1 ... u_i^ai over the pairs (a, c) in terms, c a dict
    half-exponent -> int, reading only the exponents of the letters
    u0..u_i; return out.

    Grouping by the exponent e of the last letter u_i gives sum_e H_e u_i^e,
    each H_e the same kind of sum over u0..u_{i-1}; it is evaluated as
    (...(H_m u_i + H_{m-1}) u_i + ...) u_i + H_0.  That is one straightening
    pass per edge of the trie of the words, not one per letter of every
    word, and only the dicts on the current path stay alive.  The words
    u0^a0 u1^a1 left at i == 1 swap letters at distance one only:
    u0^a0 u1^a1 = q^(_ADJ a0 a1) u1^a1 u0^a0."""
    if not terms:
        return out
    if i == 1:
        for (_, _, a1, a0), c in terms:
            add_shifted(out, (0, 0, a1, a0), c, 2 * _ADJ * a0 * a1)
        return out
    s = _slot(i)
    groups = {}
    for t in terms:
        groups.setdefault(t[0][s], []).append(t)
    acc = {}
    for e in range(max(groups), -1, -1):
        nxt = out if e == 0 else {}  # the last step adds into out itself
        if acc:
            _terms_times_gen(acc, i, nxt)
        part = groups.get(e)
        if part:
            _horner(part, i - 1, nxt)
        acc = nxt
    return out


def _sigma_kernel(terms: list) -> dict:
    """sigma of the sum of c u^a over the pairs (a, c) in terms, c a dict
    half-exponent -> int, as a new kernel sum: m q^(h/2) u^a goes to
    m q^(h'/2) times the reversed word, h' = 4(3a3 + 2a2 + a1) - h, and the
    reversed words are straightened together by `_horner`."""
    return _horner([(a, {4 * (3 * a[0] + 2 * a[1] + a[2]) - h: m for h, m in c.items()})
                    for a, c in terms], 3, {})


class PbwElement(Terms):
    """A linear combination of normal-ordered monomials in u0..u3.

    Coefficients are LaurentQ values, integer Laurent polynomials in
    q^(1/2); an int operand stands for that multiple of 1.
    """

    __slots__ = ()

    @classmethod
    def _scalar(cls, c: int):
        return scalar(c)

    def __mul__(self, other):
        """x * y straightens x u3^e once for each e up to the largest b3 of
        y, and extends each by u2 once per b2 within that b3's terms.  The
        tail u1^b1 u0^b0 of u^b only swaps letters at distance one, so it is
        a shift: u^a u1^b1 u0^b0 = q^(_ADJ a0 b1) u^(a + (0, 0, b1, b0)).
        A one-term y whose words with x are all in normal order is a
        relabelling of x's keys, sharing its coefficients when y's is 1."""
        if isinstance(other, (int, LaurentQ)):
            return self.scale(other)
        if not isinstance(other, PbwElement):
            return NotImplemented
        if len(other.terms) == 1:
            # a word already in normal order, each u^a ending at or before
            # the first letter of u^b, is u^(a+b) with coefficient 1
            (b, c), = other.terms.items()
            f = next((s for s in range(4) if b[s]), 3)
            if not any(any(a[f + 1:]) for a in self.terms):
                b3, b2, b1, b0 = b
                one = c.terms == _ONE.terms
                return PbwElement._raw({(a3 + b3, a2 + b2, a1 + b1, a0 + b0): ca if one else ca * c
                                        for (a3, a2, a1, a0), ca in self.terms.items()})
        # t3 is x u3^e3 and t is x u3^e3 u2^e2, walked in (b3, b2) order
        t3 = {a: c.terms for a, c in self.terms.items()}
        t, e3, e2 = t3, 0, 0
        out = {}
        for (b3, b2, b1, b0), c in sorted(other.terms.items(), key=lambda bc: bc[0][:2]):
            if b3 > e3:
                for _ in range(b3 - e3):
                    t3 = _terms_times_gen(t3, 3)
                t, e3, e2 = t3, b3, 0
            for _ in range(b2 - e2):
                t = _terms_times_gen(t, 2)
            e2 = b2
            s = 2 * _ADJ * b1
            for (a3, a2, a1, a0), ct in t.items():
                b = (a3, a2, a1 + b1, a0 + b0)
                for h, m in c.terms.items():
                    add_shifted(out, b, ct, h + s * a0, m)
        return _element(out)

    # -- structure ----------------------------------------------------------

    def root_weight(self):
        """Common root weight of all monomials, or None if inhomogeneous."""
        w = None
        for a in self.terms:
            wa = exp_root_weight(a)
            if w is None:
                w = wa
            elif w != wa:
                return None
        return w

    def is_homogeneous(self) -> bool:
        return not self.terms or self.root_weight() is not None

    def is_integral(self) -> bool:
        return all(c.is_integral() for c in self.terms.values())

    def sigma(self) -> "PbwElement":
        """The ring anti-automorphism with sigma(q) = q^-1 and
        sigma(u_i) = q^(2i) u_i: bar the coefficients, reverse each word and
        re-straighten.

        A term c u3^a3 u2^a2 u1^a1 u0^a0 maps to
        c' u0^a0 u1^a1 u2^a2 u3^a3 with c' = bar(c) q^(2(3a3 + 2a2 + a1)).
        The reversed words are straightened together by Horner's rule on
        their last letter (see `_horner`), so words that share a prefix
        share its straightening."""
        return _element(_sigma_kernel([(a, c.terms) for a, c in self.terms.items()]))

    def tau(self) -> "PbwElement":
        """The Q(q)-linear anti-automorphism with tau(u_i) = u_(3-i): it
        reverses each word and renames each letter u_i to u_(3-i), so it
        sends the normal monomial u^a to the normal monomial u^(rev a),
        rev(a3, a2, a1, a0) = (a0, a1, a2, a3), and straightens nothing.
        The result shares this element's coefficients."""
        return PbwElement._raw({a[::-1]: c for a, c in self.terms.items()})

    def specialize_q1(self):
        """Image in the commutative polynomial ring Z[U0..U3] at q = 1: the
        term c u^a goes to c(1) U^a, the key a + (0, 0) in `classical.VARS`
        order, and a term with c(1) = 0 to nothing."""
        from . import classical

        if not self.is_integral():
            raise ValueError("element has odd half-powers of q; no q = 1 image")
        at1 = ((a + (0, 0), c.at_q1()) for a, c in self.terms.items())
        return classical.CPoly._raw({e: v for e, v in at1 if v})

    # -- text and JSON forms --------------------------------------------------

    @staticmethod
    def _mono(a, latex):
        return power_product(_U_LATEX if latex else _U_NAMES, a, latex)

    _name_tables = name_tables(_mono)

    # kept in this class, where the benchmark tracer wraps them
    def __str__(self):
        return self._render()

    def to_latex(self) -> str:
        return self._render(latex=True)

    def to_json_dict(self) -> dict:
        t = self.terms
        return {"terms": [{"exp": list(a), "coef": str(t[a])} for a in sorted(t, reverse=True)]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "PbwElement":
        return cls({tuple(t["exp"]): LaurentQ.parse(t["coef"]) for t in data["terms"]})

    @classmethod
    def parse(cls, s: str) -> "PbwElement":
        """Parse the canonical text form produced by ``str`` (`qarith.read`);
        a word is multiplied out, so it need not be in normal order."""
        return read(s, U_POWERS, one())


def json_terms(terms: dict, key: str) -> str:
    """The JSON list of a term dict, exponent 4-tuple -> LaurentQ: the text
    `json.dumps` writes for [{key: list(e), "coef": str(terms[e])}, ...] in
    decreasing key order, as `to_json_dict` lists an element's terms (both
    sort the keys, not the (key, coefficient) pairs), each entry one format
    around its coefficient's text.  That text needs no JSON escape, since
    the coefficient grammar writes only ASCII digits, spaces and
    ``q^()/*+-``, and neither does `key`, a name of ASCII letters.  It is
    the one JSON writer of terms: the layer cache (`dcb._layer_bytes`) and
    every `--format json` answer of the CLI go through it, and the tests
    and CI check its bytes against `json.dumps`."""
    return "[" + ", ".join([f'{{"{key}": [{e[0]}, {e[1]}, {e[2]}, {e[3]}], "coef": "{terms[e]}"}}'
                            for e in sorted(terms, reverse=True)]) + "]"


# -- constructors -------------------------------------------------------------


def zero() -> PbwElement:
    return PbwElement._raw({})


def one() -> PbwElement:
    return PbwElement._raw({_ZERO_EXP: _ONE})


def scalar(c) -> PbwElement:
    if isinstance(c, int):
        c = LaurentQ.from_int(c)
    return PbwElement({_ZERO_EXP: c})


def generator(i: int) -> PbwElement:
    """The generator u_i (0 <= i <= 3)."""
    if not 0 <= i <= 3:
        raise ValueError("generator index must be 0..3")
    return PbwElement._raw({_inc(_ZERO_EXP, i): _ONE})


def monomial(a: Exp, coef=None) -> PbwElement:
    if any(e < 0 for e in a):
        raise ValueError("negative exponent")
    return PbwElement({tuple(a): coef if coef is not None else _ONE})


# the generators' names for `qarith.read`: u_i^k, called with its exponent k
U_POWERS = {f"u{i}": lambda k, s=_slot(i): monomial(_ZERO_EXP[:s] + (k,) + _ZERO_EXP[s + 1:])
            for i in range(4)}


def p0() -> PbwElement:
    """The quantized frozen variable p0 = u2 u0 - q^2 u1^2."""
    return PbwElement._raw({(0, 1, 0, 1): _ONE, (0, 0, 2, 0): -qpow(2)})


def p1() -> PbwElement:
    """The quantized frozen variable p1 = u3 u1 - q^2 u2^2."""
    return PbwElement._raw({(1, 0, 1, 0): _ONE, (0, 2, 0, 0): -qpow(2)})


# The p0/p1 fact table: p u_i = q^e_i u_i p with (e_0, .., e_3) = P*_COMMUTE,
# p0 p1 = q^P0_P1_COMMUTE p1 p0, and sigma(p) = q^P*_SIGMA p.  The
# straightening suite and the sigma derivation in `dcb` both read these.
P0_COMMUTE = (2, 0, -2, -4)
P1_COMMUTE = (4, 2, 0, -2)
P0_P1_COMMUTE = -4
P0_SIGMA = 2
P1_SIGMA = 6


def q_commutes(p: PbwElement, exps) -> bool:
    """p u_i = q^exps[i] u_i p for i = 0..3."""
    return all(p * g == (g * p).scale_qpow(e)
               for g, e in zip((generator(i) for i in range(4)), exps))


def _gen_commute(j: int):
    """The e_i with u_j u_i = q^e_i u_i u_j, for |i - j| <= 1 (None beyond,
    where a correction term appears)."""
    return tuple(0 if i == j else _ADJ if i == j + 1 else -_ADJ if i == j - 1 else None
                 for i in range(4))


def _q_rules(f: PbwElement, exps, right: bool) -> tuple:
    """The `q_product` rules of x f (right) or f x, for a factor f with
    f u_i = q^exps[i] u_i f on the letters it passes.

    f goes to the middle of the word u3^b3 u2^b2 | u1^b1 u0^b0: on the right
    it passes u1^b1 u0^b0 (a shift of -(e1 b1 + e0 b0)), on the left
    u3^b3 u2^b2 (+(e3 b3 + e2 b2)).  A term m q^(h/2) u^d of f then stands
    between the halves, and the normal order of
    u3^b3 u2^b2 u3^d3 u2^d2 u1^d1 u0^d0 u1^b1 u0^b0 takes b2 d3 swaps u2 u3 and
    d0 b1 swaps u0 u1, all at distance one: q^(_ADJ (b2 d3 + b1 d0)) and no
    correction term.  One rule (d, h, m, w) per term, w the exponent of q
    per unit of b."""
    w = [0, 0, 0, 0]
    for i in ((1, 0) if right else (3, 2)):
        w[_slot(i)] = -exps[i] if right else exps[i]
    rules = []
    for d, c in f.terms.items():
        (h, m), = c.terms.items()
        wd = list(w)
        wd[_slot(2)] += _ADJ * d[_slot(3)]
        wd[_slot(1)] += _ADJ * d[_slot(0)]
        rules.append((d, h, m, tuple(wd)))
    return tuple(rules)


def q_product(x: PbwElement, rules, t: int = 0) -> PbwElement:
    """q^t times x times a factor that q-commutes with every letter it
    passes, without straightening: x p0 (`X_P0`), p1 x (`P1_X`), x u0
    (`X_U0`), x u1 (`X_U1`), u2 x (`U2_X`) or u3 x (`U3_X`), by `_q_into`
    on x's coefficient dicts; `_element` wraps the result once."""
    return _element(_q_into({}, {b: c.terms for b, c in x.terms.items()}, rules, t))


def _q_into(out: dict, terms: dict, rules, t: int = 0, k: int = 1) -> dict:
    """Add k q^t times (the kernel sum terms) times the factor of `rules`
    into out, and return out.  A rule (d, h, m, w) sends the coefficient c
    of u^b to c k m q^(h/2 + t + w.b) at u^(b + d); each rule's copy is
    added by `add_shifted`, where two rules meet on a monomial."""
    for (d3, d2, d1, d0), h, m, (w3, w2, w1, w0) in rules:
        h += 2 * t
        m *= k
        for (b3, b2, b1, b0), c in terms.items():
            add_shifted(out, (b3 + d3, b2 + d2, b1 + d1, b0 + d0), c,
                        h + 2 * (w3 * b3 + w2 * b2 + w1 * b1 + w0 * b0), m)
    return out


X_P0 = _q_rules(p0(), P0_COMMUTE, right=True)
P1_X = _q_rules(p1(), P1_COMMUTE, right=False)
X_U0, X_U1 = (_q_rules(generator(j), _gen_commute(j), right=True) for j in (0, 1))
U2_X, U3_X = (_q_rules(generator(j), _gen_commute(j), right=False) for j in (2, 3))


def exp_root_weight(a: Exp):
    a3, a2, a1, a0 = a
    return (4 * a3 + 3 * a2 + 2 * a1 + a0, 3 * a3 + 2 * a2 + a1)


def verify_normal_form(seed: int = 0) -> list:
    """Internal consistency of the normal-form calculus: the relation table,
    associativity over all generator triples and seeded random elements
    (an empirical confluence certificate), the p0/p1 commutation table, the
    u1 u3^l identity, and the anti-automorphism laws for sigma."""
    import random

    rng = random.Random(seed)
    report = []
    u = [generator(i) for i in range(4)]
    ok = (u[0] * u[1] == (u[1] * u[0]).scale_qpow(-2)
          and u[1] * u[2] == (u[2] * u[1]).scale_qpow(-2)
          and u[2] * u[3] == (u[3] * u[2]).scale_qpow(-2)
          and u[0] * u[2] == (u[2] * u[0]).scale_qpow(-2) + (u[1] * u[1]).scale(qpow(-2) - 1)
          and u[1] * u[3] == (u[3] * u[1]).scale_qpow(-2) + (u[2] * u[2]).scale(qpow(-2) - 1)
          and u[0] * u[3] == (u[3] * u[0]).scale_qpow(-2) + (u[2] * u[1]).scale(qpow(-4) - 1))
    report.append(entry("straightening", 0, "defining straightening relations", ok))
    ok = all((x * y) * z == x * (y * z) for x in u for y in u for z in u)
    report.append(entry("straightening", 0, "associativity on all 64 generator triples", ok))

    def rand_elem():
        t = {}
        for _ in range(rng.randint(1, 3)):
            a = tuple(rng.randint(0, 2) for _ in range(4))
            t[a] = qpow(rng.randint(-3, 3)) * rng.randint(-4, 4) + qpow(rng.randint(-2, 2))
        return PbwElement(t)

    ok = True
    for _ in range(8):
        x, y, z = rand_elem(), rand_elem(), rand_elem()
        xy = x * y
        if xy * z != x * (y * z):
            ok = False
        if xy.sigma() != y.sigma() * x.sigma() or x.sigma().sigma() != x:
            ok = False
        xw = xy.root_weight()
        if x.is_homogeneous() and y.is_homogeneous() and x and y and xw is None:
            ok = False
    report.append(entry("straightening", 0,
                        "randomized associativity, sigma anti-homomorphism, homogeneity", ok))

    q0, q1 = p0(), p1()
    ok = (q0 * q1 == (q1 * q0).scale_qpow(P0_P1_COMMUTE)
          and q_commutes(q0, P0_COMMUTE) and q_commutes(q1, P1_COMMUTE))
    report.append(entry("straightening", 0, "p0/p1 q-commutation table", ok))

    ok = True
    for l in range(1, 11):
        u3l = monomial((l, 0, 0, 0))
        lhs = u[1] * u3l
        rhs = (u3l * u[1]).scale_qpow(-2 * l) + \
            (monomial((l - 1, 0, 0, 0)) * u[2] * u[2]).scale(qpow(-4 * l + 2) - qpow(-2 * l + 2))
        ok = ok and lhs == rhs
    report.append(entry("straightening", 0,
                        "u1 u3^l = q^(-2l) u3^l u1 + (q^(-4l+2)-q^(-2l+2)) u3^(l-1) u2^2, l <= 10", ok))
    return report
