"""Exact coefficient arithmetic for the quantum Kronecker algebra.

Everything here is exact: Laurent polynomials in q^(1/2) with
arbitrary-precision integer coefficients, quantum integers, binomials and
factorials, and the bar involution q -> q^(-1).  There is no floating point
anywhere, and the only rationals are the values of :meth:`LaurentQ.eval_q`.

:class:`Terms` is the one sparse-sum format: a dict from monomial keys to
nonzero coefficients, with the module operations that never look inside a
key: sums, scaling (also by q^k), powers, hashing, repr and the text forms.
:class:`LaurentQ` and the algebra element types (``pbw.PbwElement``,
``classical.CPoly``, ``free_serre.FreeElement`` and ``qseed.TorusElement``)
subclass it.  :func:`add_into` is the one sparse accumulate: every merge of
c * (a coefficient dict) into another goes through it, so that no zero
coefficient is ever stored; only ``LaurentQ.__add__`` keeps its own.

The canonical text form of a sum is one decision, made here: terms in
decreasing key order, written ``a - b + c`` (``a-b+c`` in LaTeX).
``Terms._render`` writes it from the (negative, body) pair that a
subclass's ``_term`` gives for each term, and :func:`split_signed` is its
inverse, which ``LaurentQ.parse`` and ``PbwElement.parse`` share.

:func:`cluster_terms` is the one index set of the paper's explicit formula
for the quantized cluster variables, a double sum over k + l <= n or
(k, l) = (n + 1, 0); the generic-q sums and the q = 1 sums read it with
their own binomial.

A Laurent polynomial is stored sparsely as a dict mapping a *half-exponent*
h (a plain int) to a nonzero int coefficient; the key h stands for
q^(h/2).  Elements of Z[q, q^(-1)] are exactly those whose keys are all
even, which :meth:`LaurentQ.is_integral` tests.  Values are immutable after
construction and safe to share between threads.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache


def add_into(out: dict, terms: dict, c=None) -> dict:
    """Add c * terms (terms itself if c is None) into the coefficient dict
    out in place, storing no zero coefficient, and return out."""
    for k, v in terms.items():
        if c is not None:
            v = c * v
        w = out.get(k)
        if w is not None:
            v = w + v
        if v:
            out[k] = v
        elif w is not None:
            del out[k]
    return out


class Terms:
    """A finite sum of monomials: ``terms`` maps each monomial key to its
    nonzero coefficient; its sum merges through `add_into`.  A subclass
    adds the product of keys and ``_term(key, coef, latex)``: the
    (negative, body) pair of one term, from which ``str`` and ``to_latex``
    render; ``_scalar(c)`` is its element c * 1 if it takes int operands
    (and has powers), and ``_like`` builds a result of the same kind."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {k: c for k, c in terms.items() if c} if terms else {}

    @classmethod
    def _raw(cls, terms):
        # internal: terms already trimmed to nonzero coefficients, never aliased
        self = object.__new__(cls)
        self.terms = terms
        return self

    def _like(self, terms):
        return self._raw(terms)

    @classmethod
    def _scalar(cls, c: int):
        return None

    def _operand(self, other):
        """other as an element of self's ring, or None if it is not one."""
        if isinstance(other, int):
            return self._scalar(other)
        return other if isinstance(other, type(self)) else None

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        t = self.terms
        if len(t) <= 1:
            one = self._scalar(1)
            if one is not None and t.keys() <= one.terms.keys():
                # self is c * 1, which equals c when c is an int: hash as c
                return hash(next(iter(t.values()), 0))
        return hash(frozenset(t.items()))

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def __add__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return self._like(add_into(dict(self.terms), other.terms))

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c):
        """Multiply every coefficient by c (a coefficient or an int)."""
        if not c:
            return self._like({})
        return self._like({k: c * v for k, v in self.terms.items()})

    def scale_qpow(self, k: int):
        """Multiply by q^k."""
        return self.scale(qpow(k))

    def __rmul__(self, c):
        return self.scale(c) if isinstance(c, (int, LaurentQ)) else NotImplemented

    def __pow__(self, k: int):
        """self^k by repeated right multiplication, starting from 1: each
        step's right factor is self, which keeps a straightening product
        small.  NotImplemented for a type with no unit."""
        out = self._scalar(1)
        if out is None:
            return NotImplemented
        if k < 0:
            raise ValueError(f"negative power of a {type(self).__name__}")
        for _ in range(k):
            out = out * self
        return out

    def __str__(self):
        return self._render()

    def __repr__(self):
        return f"{type(self).__name__}({self})"

    def to_latex(self) -> str:
        return self._render(latex=True)

    def _render(self, latex=False):
        """The canonical text form (LaTeX if latex): the terms in decreasing
        key order, each a (negative, body) pair from ``_term``, written
        ``a - b + c`` (``a-b+c``); the empty sum is ``0``."""
        if not self.terms:
            return "0"
        term = self._term
        parts = []
        for k, c in sorted(self.terms.items(), reverse=True):
            neg, body = term(k, c, latex)
            if latex:
                parts.append(("-" if neg else "+" if parts else "") + body)
            elif parts:
                parts.append(("- " if neg else "+ ") + body)
            else:
                parts.append("-" + body if neg else body)
        return ("" if latex else " ").join(parts)


class LaurentQ(Terms):
    """A sparse Laurent polynomial in q^(1/2) over the integers.

    The canonical text form lists terms in decreasing exponent order, with
    exponents printed as ``q^k`` (``q^-k`` for negatives) and ``q^(k/2)``
    for odd half-steps, e.g. ``q^2 + 1 + q^-2``.  Its ring operators
    live in this class, where the benchmark tracer wraps them, and its sum
    merges inline rather than through `add_into`: it is the hottest call.
    """

    __slots__ = ()

    def __init__(self, terms=None):
        t = {}
        if terms:
            for h, c in terms.items():
                if not isinstance(c, int):
                    raise TypeError(f"LaurentQ coefficients are ints, got {c!r}")
                if c:
                    t[h] = c
        self.terms = t

    @classmethod
    def from_int(cls, c: int) -> "LaurentQ":
        return cls._raw({0: c} if c else {})

    _scalar = from_int

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if type(other) is not LaurentQ:
            if not isinstance(other, int):
                return NotImplemented
            other = LaurentQ.from_int(other)
        out = dict(self.terms)
        for h, c in other.terms.items():
            v = out.get(h)
            if v is None:
                out[h] = c
            else:
                v += c
                if v:
                    out[h] = v
                else:
                    del out[h]
        return LaurentQ._raw(out)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            other = LaurentQ.from_int(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if not other:
                return _ZERO
            return LaurentQ._raw({h: c * other for h, c in self.terms.items()})
        if not isinstance(other, LaurentQ):
            return NotImplemented
        a, b = self.terms, other.terms
        if not a or not b:
            return _ZERO
        if len(a) > len(b):
            a, b = b, a
        if len(a) == 1:
            # a monomial c1 q^(h1/2): shift and scale, no collisions possible
            (h1, c1), = a.items()
            return LaurentQ._raw({h1 + h2: c1 * c2 for h2, c2 in b.items()})
        out = {}
        for h1, c1 in a.items():
            for h2, c2 in b.items():
                h = h1 + h2
                v = out.get(h)
                if v is None:
                    out[h] = c1 * c2
                else:
                    out[h] = v + c1 * c2
        return LaurentQ._raw({h: c for h, c in out.items() if c})

    __rmul__ = __mul__

    # -- structure ----------------------------------------------------------

    def bar(self) -> "LaurentQ":
        """The involution q -> q^(-1): negate every half-exponent."""
        return LaurentQ._raw({-h: c for h, c in self.terms.items()})

    def is_integral(self) -> bool:
        """True iff the element lies in Z[q, q^(-1)] (all keys even)."""
        return all(h % 2 == 0 for h in self.terms)

    def in_q_zq(self) -> bool:
        """True iff the element lies in qZ[q]: only strictly positive
        integral powers of q."""
        return all(h >= 2 and h % 2 == 0 for h in self.terms)

    def constant_term(self):
        return self.terms.get(0, 0)

    def at_q1(self):
        """Evaluate at q = 1 (the sum of all coefficients)."""
        return sum(self.terms.values())

    def eval_q(self, t):
        """Evaluate at q = t for a nonzero rational t; requires integrality."""
        t = Fraction(t)
        if not t:
            raise ZeroDivisionError("evaluation point q = 0")
        total = Fraction(0)
        for h, c in self.terms.items():
            if h % 2:
                raise ValueError("cannot evaluate odd half-powers of q at a rational point")
            total += c * t ** (h // 2)
        return total

    def exact_div(self, other: "LaurentQ") -> "LaurentQ":
        """Exact division in the Laurent ring over Z; raises ValueError
        ("not divisible") unless the quotient exists there."""
        if not other:
            raise ZeroDivisionError("division by the zero Laurent polynomial")
        if not self:
            return _ZERO
        shift_a = min(self.terms)
        shift_b = min(other.terms)
        da = max(self.terms) - shift_a
        db = max(other.terms) - shift_b
        if da < db:
            raise ValueError("not divisible")
        a = [0] * (da + 1)
        for h, c in self.terms.items():
            a[h - shift_a] = c
        b = [0] * (db + 1)
        for h, c in other.terms.items():
            b[h - shift_b] = c
        lead = b[db]
        quot = {}
        for i in range(da - db, -1, -1):
            c = a[i + db]
            if c:
                f, r = divmod(c, lead)
                if r:
                    raise ValueError("not divisible")
                quot[i] = f
                for j, bc in enumerate(b):
                    if bc:
                        a[i + j] -= f * bc
        if any(a):
            raise ValueError("not divisible")
        shift = shift_a - shift_b
        return LaurentQ._raw({h + shift: c for h, c in quot.items()})

    def positive_part(self) -> "LaurentQ":
        """Truncation to strictly positive exponents of q^(1/2)."""
        return LaurentQ._raw({h: c for h, c in self.terms.items() if h > 0})

    # -- text form ----------------------------------------------------------

    def _term(self, h, c, latex):
        neg = c < 0
        mag = -c if neg else c
        if h == 0:
            return neg, str(mag)
        if latex:
            qp = f"q^{{{h // 2}}}" if h % 2 == 0 else f"q^{{{h}/2}}"
        elif h % 2:
            qp = f"q^({h}/2)"
        else:
            qp = "q" if h == 2 else f"q^{h // 2}"
        if mag == 1:
            return neg, qp
        return neg, f"{mag}{qp}" if latex else f"{mag}*{qp}"

    # kept in this class, where the benchmark tracer wraps it
    def __str__(self):
        return self._render()

    @classmethod
    def parse(cls, s: str) -> "LaurentQ":
        """Parse the canonical text form produced by ``str``."""
        s = s.strip()
        if s == "0":
            return _ZERO
        out = {}
        for neg, tok in split_signed(s):
            m = _TERM_RE.fullmatch(tok)
            if not m:
                raise ValueError(f"cannot parse Laurent term {tok!r}")
            coef = m.group("coef")
            c = int(coef) if coef else 1
            if m.group("q") is None:
                h = 0
            elif m.group("half") is not None:
                h = int(m.group("half"))
            elif m.group("int") is not None:
                h = 2 * int(m.group("int"))
            else:
                h = 2
            out[h] = out.get(h, 0) + (-c if neg else c)
        return cls(out)


_TERM_RE = re.compile(
    r"(?:(?P<coef>\d+)(?:\s*\*\s*)?)?"
    r"(?P<q>q(?:\^(?:\((?P<half>-?\d+)/2\)|(?P<int>-?\d+)))?)?"
)


_SIGN_RE = re.compile(r" ([+-]) ")


def split_signed(s: str) -> list:
    """The inverse of ``Terms._render``'s text join: split s on each
    top-level `` + `` or `` - `` (outside parentheses) into
    (negative, term) pairs, a leading ``-`` being the first term's sign.
    Raises ValueError on an empty term."""
    pieces = _SIGN_RE.split(s)
    tok, neg = pieces[0], pieces[0].startswith("-")
    if neg:
        tok = tok[1:]
    out = []
    for i in range(1, len(pieces), 2):
        if tok.count("(") != tok.count(")"):
            # the sign is inside parentheses, within this term
            tok = f"{tok} {pieces[i]} {pieces[i + 1]}"
            continue
        out.append((neg, tok.strip()))
        tok, neg = pieces[i + 1], pieces[i] == "-"
    out.append((neg, tok.strip()))
    if not all(t for _, t in out):
        raise ValueError(f"empty term in signed sum {s!r}")
    return out


_ZERO = LaurentQ._raw({})
_ONE = LaurentQ._raw({0: 1})


def laurent_term(c: LaurentQ, mono: str, latex: bool):
    """The (negative, body) pair of the term c * mono for a Laurent
    coefficient c: its sign comes out when every coefficient of c is
    negative, and c is written in parentheses unless it is 1."""
    neg = all(v < 0 for v in c.terms.values())
    if neg:
        c = -c
    if c.terms == _ONE.terms:
        return neg, mono
    return neg, f"({c.to_latex()}){mono}" if latex else f"({c})*{mono}"


def lq_zero() -> LaurentQ:
    return _ZERO


def lq_one() -> LaurentQ:
    return _ONE


def qpow(k: int) -> LaurentQ:
    """The monomial q^k."""
    return LaurentQ._raw({2 * k: 1})


def half_pow(h: int) -> LaurentQ:
    """The monomial q^(h/2)."""
    return LaurentQ._raw({h: 1})


def bar(x: LaurentQ) -> LaurentQ:
    """The coefficient involution q -> q^(-1)."""
    return x.bar()


@lru_cache(maxsize=None)
def quantum_int(k: int) -> LaurentQ:
    """The quantum integer [k] = (q^k - q^(-k)) / (q - q^(-1)).

    [0] = 0, [1] = 1, [2] = q + q^(-1), and [-k] = -[k].
    """
    if k < 0:
        return -quantum_int(-k)
    # [k] = q^(k-1) + q^(k-3) + ... + q^(1-k)
    return LaurentQ._raw({2 * e: 1 for e in range(k - 1, -k, -2)})


@lru_cache(maxsize=None)
def quantum_factorial(k: int) -> LaurentQ:
    """[k]! = [k][k-1]...[1], with [0]! = 1."""
    if k < 0:
        raise ValueError("factorial needs k >= 0")
    if k == 0:
        return _ONE
    return quantum_factorial(k - 1) * quantum_int(k)


_BINOM_CACHE: dict = {}


def quantum_binom(n: int, k: int) -> LaurentQ:
    """The quantum binomial coefficient [n k], defined for all integers.

    For n >= 0 this runs the q-Pascal recurrence
    [n k] = q^k [n-1 k] + q^(k-n) [n-1 k-1]; for n < 0 it expands the
    defining product [n][n-1]...[n-k+1] / [k]! by exact division.
    Conventions: [n k] = 0 for k < 0, and [n 0] = 1.
    """
    if k < 0:
        return _ZERO
    if k == 0:
        return _ONE
    if n >= 0:
        if k > n:
            return _ZERO
        key = (n, k)
        hit = _BINOM_CACHE.get(key)
        if hit is None:
            hit = qpow(k) * quantum_binom(n - 1, k) + qpow(k - n) * quantum_binom(n - 1, k - 1)
            _BINOM_CACHE[key] = hit
        return hit
    num = _ONE
    for j in range(k):
        num = num * quantum_int(n - j)
    return num.exact_div(quantum_factorial(k))


def cluster_terms(m: int, binom):
    """The nonzero terms (k, l, c) of the double sum in the explicit formula
    for the quantized cluster variables: k + l <= m or (k, l) = (m + 1, 0),
    with c = binom(m - k, l) * binom(m + 1 - l, k).  binom is
    `quantum_binom`, or an integer binomial for the q = 1 sums."""
    for k in range(m + 2):
        for l in range(m + 1):
            if k + l <= m or (k, l) == (m + 1, 0):
                c = binom(m - k, l) * binom(m + 1 - l, k)
                if c:
                    yield k, l, c


def split_antisymmetric(x: LaurentQ) -> LaurentQ:
    """Solve x = phi(q) - phi(q^(-1)) for phi in qZ[q].

    Requires x integral in q, with zero constant term and bar(x) = -x;
    the solution is the positive-exponent truncation.  A violation signals
    a bug in the dual-canonical computation, so it is raised rather than
    repaired.
    """
    if not x.is_integral():
        raise ValueError("antisymmetric split: element has odd half-exponents")
    if x.constant_term():
        raise ValueError("antisymmetric split: nonzero constant term")
    if x.bar() != -x:
        raise ValueError("antisymmetric split: element is not bar-antisymmetric")
    return x.positive_part()
