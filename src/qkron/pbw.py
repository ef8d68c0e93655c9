"""The quantum algebra on the ordered generators u0, u1, u2, u3.

Elements are finite combinations of normal-ordered monomials
u3^a3 * u2^a2 * u1^a1 * u0^a0 with LaurentQ coefficients.  Multiplication
straightens arbitrary products with the defining relations

    u_i u_{i+1} = q^-2 u_{i+1} u_i                      (i = 0, 1, 2)
    u_i u_{i+2} = q^-2 u_{i+2} u_i + (q^-2 - 1) u_{i+1}^2   (i = 0, 1)
    u_0 u_3     = q^-2 u_3 u_0 + (q^-4 - 1) u_2 u_1

applied left-to-right wherever a lower-index generator stands immediately
left of a higher-index one.  Each rewrite strictly decreases the weighted
inversion count sum(j - i) over inverted pairs, so reduction terminates;
confluence is exercised by the associativity tests.

Exponent vectors are tuples (a3, a2, a1, a0).  The root weight of slot i
is (i+1, i) in the (alpha1, alpha2) coordinates, and products add root
weights, which multiplication preserves.

A product by a factor that q-commutes with every letter it passes needs
no straightening: `q_product` applies it as a table of monomial rules.
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
word, with no memo table beyond the straightening memo.
"""

from __future__ import annotations

from .qarith import LaurentQ, Terms, add_into, lq_one, qpow, split_signed

Exp = tuple  # (a3, a2, a1, a0)

# root weight of generator i in (alpha1, alpha2) coordinates
ROOT_WEIGHT = ((1, 0), (2, 1), (3, 2), (4, 3))

_ONE = lq_one()
_ADJ = -2                   # u_i u_{i+1} = q^_ADJ u_{i+1} u_i
_QM2 = qpow(_ADJ)
_CORR2 = qpow(-2) - 1       # coefficient of u_{i+1}^2 in the distance-2 rule
_CORR3 = qpow(-4) - 1       # coefficient of u_2 u_1 in the distance-3 rule

_ZERO_EXP = (0, 0, 0, 0)


def _slot(i: int) -> int:
    return 3 - i


def _last_letter(a: Exp):
    """Rightmost generator index of the normal word for a, or None."""
    if a[3]:
        return 0
    if a[2]:
        return 1
    if a[1]:
        return 2
    if a[0]:
        return 3
    return None


def _inc(a: Exp, i: int) -> Exp:
    s = _slot(i)
    return a[:s] + (a[s] + 1,) + a[s + 1:]


def _dec(a: Exp, i: int) -> Exp:
    s = _slot(i)
    return a[:s] + (a[s] - 1,) + a[s + 1:]


# straightening memo; writes are idempotent (a key always maps to the same
# value), so concurrent use stays deterministic under the GIL
_GEN_CACHE: dict = {}


def _terms_times_gen(terms: dict, j: int) -> dict:
    out = {}
    for a, c in terms.items():
        add_into(out, _mono_times_gen(a, j), c)
    return out


def _mono_times_gen(a: Exp, j: int) -> dict:
    """Normal form of (normal monomial a) * u_j as an exp -> coeff dict."""
    key = (a, j)
    hit = _GEN_CACHE.get(key)
    if hit is not None:
        return hit
    i = _last_letter(a)
    if i is None or i >= j:
        res = {_inc(a, j): _ONE}
    else:
        head = _dec(a, i)
        res = {b: _QM2 * c for b, c in _terms_times_gen(_mono_times_gen(head, j), i).items()}
        if j - i == 2:
            add_into(res, _terms_times_gen(_terms_times_gen({head: _ONE}, i + 1), i + 1), _CORR2)
        elif j - i == 3:
            add_into(res, _terms_times_gen(_terms_times_gen({head: _ONE}, 2), 1), _CORR3)
    _GEN_CACHE[key] = res
    return res


def _horner(terms: list, i: int) -> dict:
    """Normal form of the sum of c * u0^a0 u1^a1 ... u_i^ai over the pairs
    (a, c) in terms, reading only the exponents of the letters u0..u_i.

    Grouping by the exponent e of the last letter u_i gives sum_e H_e u_i^e,
    each H_e the same kind of sum over u0..u_{i-1}; it is evaluated as
    (...(H_m u_i + H_{m-1}) u_i + ...) u_i + H_0.  That is one straightening
    pass per edge of the trie of the words, not one per letter of every
    word, and only the dicts on the current path stay alive."""
    if not terms:
        return {}
    if i < 0:
        total = sum(c for _, c in terms)
        return {_ZERO_EXP: total} if total else {}
    s = _slot(i)
    groups = {}
    for t in terms:
        groups.setdefault(t[0][s], []).append(t)
    acc = {}
    for e in range(max(groups), -1, -1):
        if acc:
            acc = _terms_times_gen(acc, i)
        part = groups.get(e)
        if part:
            add_into(acc, _horner(part, i - 1))
    return acc


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
        if isinstance(other, (int, LaurentQ)):
            return self.scale(other)
        if not isinstance(other, PbwElement):
            return NotImplemented
        out = {}
        for b, c in other.terms.items():
            t = self.terms
            for i, e in zip((3, 2, 1, 0), b):
                for _ in range(e):
                    t = _terms_times_gen(t, i)
            add_into(out, t, c)
        return PbwElement._raw(out)

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
        terms = [(a, c.bar() * qpow(2 * (3 * a[0] + 2 * a[1] + a[2])))
                 for a, c in self.terms.items()]
        return PbwElement._raw(_horner(terms, 3))

    def specialize_q1(self):
        """Image in the commutative polynomial ring Z[U0..U3] at q = 1."""
        from . import classical

        out = {}
        for a, c in self.terms.items():
            if not c.is_integral():
                raise ValueError("element has odd half-powers of q; no q = 1 image")
            add_into(out, classical.u_monomial(a).terms, c.at_q1())
        return classical.CPoly._raw(out)

    # -- text and JSON forms --------------------------------------------------

    def _term(self, a, c, latex):
        neg = all(v < 0 for v in c.terms.values())
        if neg:
            c = -c
        mono = _mono_str(a, latex)
        if c.terms == _ONE.terms:
            return neg, mono
        return neg, f"({c.to_latex()}){mono}" if latex else f"({c})*{mono}"

    # kept in this class, where the benchmark tracer wraps them
    def __str__(self):
        return self._render()

    def to_latex(self) -> str:
        return self._render(latex=True)

    def to_json_dict(self) -> dict:
        return {
            "terms": [
                {"exp": list(a), "coef": str(self.terms[a])}
                for a in sorted(self.terms, reverse=True)
            ]
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "PbwElement":
        return cls({tuple(t["exp"]): LaurentQ.parse(t["coef"]) for t in data["terms"]})

    @classmethod
    def parse(cls, s: str) -> "PbwElement":
        """Parse the canonical text form produced by ``str``."""
        s = s.strip()
        if s == "0":
            return cls()
        out = {}
        for neg, tok in split_signed(s):
            coef, mono = _parse_term(tok)
            c = -coef if neg else coef
            prev = out.get(mono)
            out[mono] = c if prev is None else prev + c
        return cls(out)


def _mono_str(a: Exp, latex: bool) -> str:
    if latex:
        return "".join(f"u_{i}" + (f"^{{{e}}}" if e > 1 else "")
                       for i, e in zip((3, 2, 1, 0), a) if e) or "1"
    parts = []
    for i, e in zip((3, 2, 1, 0), a):
        if e == 1:
            parts.append(f"u{i}")
        elif e > 1:
            parts.append(f"u{i}^{e}")
    return "*".join(parts) if parts else "1"


def _parse_term(tok: str):
    coef = _ONE
    rest = tok
    if tok.startswith("("):
        depth = 0
        for i, ch in enumerate(tok):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0:
                    coef = LaurentQ.parse(tok[1:i])
                    rest = tok[i + 1:].lstrip("*")
                    break
    a = [0, 0, 0, 0]
    rest = rest.strip()
    if rest and rest != "1":
        for factor in rest.split("*"):
            factor = factor.strip()
            if "^" in factor:
                name, e = factor.split("^")
                e = int(e)
            else:
                name, e = factor, 1
            if not name.startswith("u") or name[1:] not in "0123":
                raise ValueError(f"bad generator {factor!r}")
            a[_slot(int(name[1:]))] += e
    return coef, tuple(a)


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
    (`X_U0`), x u1 (`X_U1`), u2 x (`U2_X`) or u3 x (`U3_X`).  A rule
    (d, h, m, w) sends the coefficient c of u^b to c m q^(h/2 + t + w.b) at
    u^(b + d)."""
    out = {}
    for (d3, d2, d1, d0), h, m, (w3, w2, w1, w0) in rules:
        h += 2 * t
        part = {}
        for (b3, b2, b1, b0), c in x.terms.items():
            s = h + 2 * (w3 * b3 + w2 * b2 + w1 * b1 + w0 * b0)
            part[(b3 + d3, b2 + d2, b1 + d1, b0 + d0)] = \
                LaurentQ._raw({k + s: m * v for k, v in c.terms.items()})
        add_into(out, part)
    return PbwElement._raw(out)


X_P0 = _q_rules(p0(), P0_COMMUTE, right=True)
P1_X = _q_rules(p1(), P1_COMMUTE, right=False)
X_U0, X_U1 = (_q_rules(generator(j), _gen_commute(j), right=True) for j in (0, 1))
U2_X, U3_X = (_q_rules(generator(j), _gen_commute(j), right=False) for j in (2, 3))


def exp_root_weight(a: Exp):
    a3, a2, a1, a0 = a
    return (4 * a3 + 3 * a2 + 2 * a1 + a0, 3 * a3 + 2 * a2 + a1)


def word_product(letters) -> PbwElement:
    """Straightened product u_{i_1} u_{i_2} ... for a letter sequence."""
    t = {_ZERO_EXP: _ONE}
    for i in letters:
        t = _terms_times_gen(t, i)
    return PbwElement._raw(dict(t))


def verify_normal_form(seed: int = 0) -> list:
    """Internal consistency of the normal-form calculus: the relation table,
    associativity over all generator triples and seeded random elements
    (an empirical confluence certificate), the p0/p1 commutation table, the
    u1 u3^l identity, and the anti-automorphism laws for sigma."""
    import random

    rng = random.Random(seed)
    report = []

    def entry(identity, ok, n=0):
        report.append({"suite": "straightening", "n": n, "identity": identity, "ok": bool(ok)})

    u = [generator(i) for i in range(4)]
    ok = (u[0] * u[1] == (u[1] * u[0]).scale_qpow(-2)
          and u[1] * u[2] == (u[2] * u[1]).scale_qpow(-2)
          and u[2] * u[3] == (u[3] * u[2]).scale_qpow(-2)
          and u[0] * u[2] == (u[2] * u[0]).scale_qpow(-2) + (u[1] * u[1]).scale(qpow(-2) - 1)
          and u[1] * u[3] == (u[3] * u[1]).scale_qpow(-2) + (u[2] * u[2]).scale(qpow(-2) - 1)
          and u[0] * u[3] == (u[3] * u[0]).scale_qpow(-2) + (u[2] * u[1]).scale(qpow(-4) - 1))
    entry("defining straightening relations", ok)
    ok = all((x * y) * z == x * (y * z) for x in u for y in u for z in u)
    entry("associativity on all 64 generator triples", ok)

    def rand_elem():
        t = {}
        for _ in range(rng.randint(1, 3)):
            a = tuple(rng.randint(0, 2) for _ in range(4))
            t[a] = qpow(rng.randint(-3, 3)) * rng.randint(-4, 4) + qpow(rng.randint(-2, 2))
        return PbwElement(t)

    ok = True
    for _ in range(8):
        x, y, z = rand_elem(), rand_elem(), rand_elem()
        if (x * y) * z != x * (y * z):
            ok = False
        if (x * y).sigma() != y.sigma() * x.sigma() or x.sigma().sigma() != x:
            ok = False
        xw = (x * y).root_weight()
        if x.is_homogeneous() and y.is_homogeneous() and x and y and xw is None:
            ok = False
    entry("randomized associativity, sigma anti-homomorphism, homogeneity", ok)

    q0, q1 = p0(), p1()
    ok = (q0 * q1 == (q1 * q0).scale_qpow(P0_P1_COMMUTE)
          and q_commutes(q0, P0_COMMUTE) and q_commutes(q1, P1_COMMUTE))
    entry("p0/p1 q-commutation table", ok)

    ok = True
    for l in range(1, 11):
        u3l = monomial((l, 0, 0, 0))
        lhs = u[1] * u3l
        rhs = (u3l * u[1]).scale_qpow(-2 * l) + \
            (monomial((l - 1, 0, 0, 0)) * u[2] * u[2]).scale(qpow(-4 * l + 2) - qpow(-2 * l + 2))
        ok = ok and lhs == rhs
    entry("u1 u3^l = q^(-2l) u3^l u1 + (q^(-4l+2)-q^(-2l+2)) u3^(l-1) u2^2, l <= 10", ok)
    return report
