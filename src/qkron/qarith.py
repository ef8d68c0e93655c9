"""Exact coefficient arithmetic for the quantum Kronecker algebra.

Everything here is exact: Laurent polynomials in q^(1/2) with
arbitrary-precision integer coefficients, quantum integers, factorials and
binomials, and the bar involution q -> q^(-1).  A row of quantum binomials
comes from the Gaussian product formula (`quantum_binom_row`), and no memo
of quantum numbers is kept.  There is no floating point
and no rational anywhere in the package: the Serre check evaluates at an
integer point, 2^B over the integers or a drawn point modulo a prime
(``free_serre``).

:class:`Terms` is the one sparse-sum format: a dict from monomial keys to
nonzero coefficients, with the module operations that never look inside a
key: sums, scaling (also by q^k), powers, hashing, repr and the text forms.
:class:`LaurentQ` and the algebra element types (``pbw.PbwElement``,
``classical.CPoly``, ``free_serre.FreeElement`` and ``qseed.TorusElement``)
subclass it.  :func:`add_into` is the one sparse accumulate: every merge of
c * (a coefficient dict) into another goes through it, so that no zero
coefficient is ever stored.  Only ``LaurentQ.__add__`` keeps its own, and
so do the two int kernels, the straightening in ``pbw`` and the
back-substitution in ``dcb``: :func:`add_shifted` merges a key's int
coefficient dict, half-exponent -> int, shifted by a power of q and scaled
by an int, with no LaurentQ in between.  It adds into the target's dicts in place, so a dict that a
LaurentQ wraps is never a target, only a source.

The canonical text form of a sum is one grammar, written only by
``Terms._render``: terms in decreasing key order, written ``a - b + c``
(``a-b+c`` in LaTeX), each a signed coefficient times a monomial.  A
subclass only names its monomials: ``_names`` gives a key's monomial name,
``""`` for the unit, made by ``_mono(key, latex)`` (most of them through
:func:`power_product`).  ``LaurentQ``, ``PbwElement`` and ``CPoly``, whose
names depend on the key alone, look them up in their own pair of
:func:`name_tables`; ``FreeElement`` and ``TorusElement`` call ``_mono``
for each key.  The sign, the coefficient and the unit are ``_render``'s,
over a sum's keys, sorted once.  An int-coefficient sum (``LaurentQ``,
``CPoly``) is joined by C-level maps over the keys, each term its signed
coefficient's piece (``+ 3*``, ``- ``) from the table ``_SIGNED`` followed
by its name, with no format per term; the unit's term is then written
again and the first ``+`` dropped.  A sum of one int-coefficient term (most
often a power of q) is written directly, and so is a Laurent coefficient
of one term; a longer Laurent coefficient is written by ``_render`` on it,
whose private ``negate`` writes an all-negative one with its sign outside
the parentheses without building its negation.  Every table stops storing
at a fixed cap, and holds pieces only, keyed by an int or an exponent
tuple: no text of a coefficient or an element is kept.  Every listing of
terms outside ``_render`` sorts the keys the same way, never the pairs:
``PbwElement.to_json_dict``, the dict form, and ``pbw.json_terms``, the
one JSON writer of terms, which writes the layer cache and every JSON
answer of the CLI, with each coefficient's text from ``_render``; the
CLI's text dual-PBW and product tables do too.  The one reader of that
form is the identity reader below, through :func:`read`.

:func:`cluster_terms` is the one index set of the paper's explicit formula
for the quantized cluster variables, a double sum over k + l <= n or
(k, l) = (n + 1, 0); the generic-q sums and the q = 1 sums read it with
their own binomial.

:func:`entry` is the one builder of a verify report entry
``{suite, n, identity, ok[, detail]}``, and :func:`compare` the entry for
an identity between two elements, whose failure carries the
:func:`diff_detail` witness.  :func:`identity` is the entry for a printed
identity ``lhs = rhs``, checked as it is printed: :func:`parse_identity`
reads the text and both sides are evaluated by ``_value`` with the symbols
the suite names, and with the suite's product for the factors of a term
(``*`` unless the suite passes one).  :func:`identities` runs a table of
them, parsing each text once.  ``_value`` merges the terms of a sum into
one coefficient dict, so reading a sum of m terms takes time linear in m.

One grammar serves the printed identities and the canonical text form.  A
sum is terms joined by ``+`` and ``-``; a term is a product of factors,
juxtaposed or joined by ``*``: ``B[i,i,i,i]``, ``X_n``, ``X_{i}``, the
names ``u0..u3``, ``p0``, ``p1``, ``Y0``/``Y_0`` and ``Y1``/``Y_1``, each
with a power ``^e`` or not; the scalars ``q``, ``q^e``, ``q^(h/2)`` (h an
int) and an int; and a sum in parentheses.  Indices and exponents e are
integer polynomials in n: ``n``, an int, or any other in parentheses, such
as ``(2n^2-6n+8)``, read by one regex.  An identity is two sums joined by
``=``, and each of its terms needs an algebra factor.  :func:`read` is one
sum with no n, evaluated with a ring's names and unit:
``LaurentQ.parse`` has no names, ``PbwElement.parse`` the powers of
u0..u3, so a word is multiplied out in the algebra.

A Laurent polynomial is stored sparsely as a dict mapping a *half-exponent*
h (a plain int) to a nonzero int coefficient; the key h stands for
q^(h/2).  Elements of Z[q, q^(-1)] are exactly those whose keys are all
even, which :meth:`LaurentQ.is_integral` tests.  Values are immutable after
construction and safe to share between threads.
"""

from __future__ import annotations

import re
from functools import lru_cache, reduce
from itertools import islice
from operator import add, mul


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


def add_shifted(out: dict, key, c: dict, s: int, m: int = 1) -> None:
    """Add m q^(s/2) c at key into out, key -> {half-exponent: int}, in
    place, for c a dict half-exponent -> int; store no zero and no emptied
    key."""
    o = out.get(key)
    if o is None:
        out[key] = {h + s: m * v for h, v in c.items()}
        return
    for h, v in c.items():
        h += s
        v = o.get(h, 0) + m * v
        if v:
            o[h] = v
        else:
            del o[h]
    if not o:
        del out[key]


class Terms:
    """A finite sum of monomials: ``terms`` maps each monomial key to its
    nonzero coefficient; its sum merges through `add_into`.  A subclass
    adds the product of keys and ``_mono(key, latex)``: the name of one
    monomial, ``""`` for the unit, which ``_names`` hands to ``str`` and
    ``to_latex`` (from ``_name_tables`` where the subclass sets them; a
    subclass with int coefficients sets ``_unit_key``); ``_scalar(c)`` is
    its element c * 1 if it takes int operands (and has powers), and
    ``_like`` builds a result of the same kind."""

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

    # (text, LaTeX) `name_tables` of a type whose names depend on the key alone
    _name_tables = None
    # the unit's key, in a type whose coefficients are ints
    _unit_key = None

    def _names(self, latex):
        """The name hook: a function from a key to its monomial name, ``""``
        for the unit, as ``_mono(key, latex)`` makes it: a lookup in the
        type's `_name_tables` where it has them, else a call of ``_mono``
        each time (``FreeElement``, whose names are words, and
        ``TorusElement``, whose names depend on its n)."""
        tables = self._name_tables
        if tables is not None:
            return tables[latex].__getitem__
        mono = self._mono
        return lambda k: mono(k, latex)

    def _render(self, latex=False, negate=False):
        """The canonical text form (LaTeX if latex): the terms in decreasing
        key order, written ``a - b + c`` (``a-b+c``); the empty sum is ``0``.
        A term is its coefficient times the monomial ``_names`` gives for its
        key: an int goes in front (``3*m``, ``3m``) and stands alone on the
        unit, a Laurent polynomial in parentheses (``(c)*m``, ``(c)m``, with
        ``1`` for the unit); a coefficient 1 is dropped, and the sign comes
        out when every coefficient is negative.  A sum's coefficients are
        all ints or all Laurent polynomials.  The keys are sorted once.  An
        int-coefficient term is its signed coefficient's piece from
        `_SIGNED` (``+ ``, ``- 3*``) joined to its name, both looked up and
        joined by C-level maps over the keys; the unit's term, which these
        pieces would write ``+ 3*``, is then written again, and the first
        term's ``+`` is dropped.  A single term with an int coefficient,
        such as a power of q, is written directly: ``m``, ``-m`` or ``3*m``,
        and so is a Laurent coefficient of one term.

        negate (private, for int coefficients) writes -self by swapping the
        signs as they are written: a Laurent coefficient whose sign comes
        out is written by its own ``_render`` with negate, and no negated
        copy is built."""
        t = self.terms
        if not t:
            return "0"
        name = self._names(latex)
        if len(t) == 1:
            (k, c), = t.items()
            if type(c) is int:
                return _int_term(-c if negate else c, name(k), latex)
        keys = sorted(t, reverse=True)
        plus, minus = ("+", "-") if latex else ("+ ", "- ")
        if type(t[keys[0]]) is int:
            parts = list(map(add, map(_SIGNED[latex][negate].__getitem__, map(t.__getitem__, keys)),
                             map(name, keys)))
            unit = self._unit_key
            c = t.get(unit)
            if c is not None:
                if negate:
                    c = -c
                parts[keys.index(unit)] = f"{plus}{c}" if c > 0 else f"{minus}{-c}"
        else:
            qname = LaurentQ._name_tables[latex].__getitem__
            star = "" if latex else "*"
            parts = []
            for k in keys:
                c = t[k]
                if len(c.terms) == 1:
                    # one term v q^(h/2), as most coefficients of small elements are,
                    # written here with no nested _render call
                    (h, v), = c.terms.items()
                    flip = v < 0
                    body = _int_term(-v if flip else v, qname(h), latex)
                else:
                    flip = max(c.terms.values()) < 0
                    body = c._render(latex, flip)
                sign = minus if flip else plus
                m = name(k) or "1"
                parts.append(sign + m if body == "1" else f"{sign}({body}){star}{m}")
        first = parts[0]
        parts[0] = first[len(plus):] if first[0] == "+" else "-" + first[len(minus):]
        return ("" if latex else " ").join(parts)


def _int_term(c, m, latex):
    """The term c m, for an int c != 0 and a monomial named m (``""`` for
    the unit): ``m``, ``-m``, ``3*m`` (``3m``), or c alone on the unit."""
    return (str(c) if not m else m if c == 1 else "-" + m if c == -1
            else f"{c}{m}" if latex else f"{c}*{m}")


class _Pieces(dict):
    """The one capped table of the writer: key -> a piece of text, made by
    make(key) on first use and stored only while the table holds fewer
    than cap pieces; past that, a new key's piece is made each time and not
    stored, so the table never holds more than cap.  The names tables
    (`name_tables`) and the signed-coefficient tables (`_SIGNED`) are its
    instances.  It holds pieces only, a monomial's name or a signed int
    coefficient, never the text of a coefficient or an element."""

    __slots__ = ("make", "cap")

    def __init__(self, make, cap):
        super().__init__()
        self.make = make
        self.cap = cap

    def __missing__(self, k):
        piece = self.make(k)
        if len(self) < self.cap:
            self[k] = piece
        return piece


# names per table: the fullest table holds 2,201 names after the seed-1 list
# of perfbench's `queries` workload, which writes layers 0..8, the diagonal
# cores n <= 14 and the cluster rows it asks for
_NAMES_CAP = 4096


def name_tables(mono):
    """The (text, LaTeX) names tables of a type whose name of a monomial,
    mono(key, latex), depends on the key alone (see `Terms._names`)."""
    return tuple(_Pieces(lambda k, latex=latex: mono(k, latex), _NAMES_CAP) for latex in (False, True))


def _signed_piece(latex, negate):
    """The maker of a signed int coefficient's piece, the text written before
    a term's name: ``+ `` and ``- `` for 1 and -1, ``+ 3*`` or ``-3`` (LaTeX)
    for any other; negate swaps the signs."""
    plus, minus = ("+", "-") if latex else ("+ ", "- ")
    if negate:
        plus, minus = minus, plus
    star = "" if latex else "*"

    def make(c):
        sign, c = (plus, c) if c > 0 else (minus, -c)
        return sign if c == 1 else f"{sign}{c}{star}"
    return make


# signed coefficients per table: the fullest holds 2,308 after the same list
_SIGNED_CAP = 4096
_SIGNED = tuple(tuple(_Pieces(_signed_piece(latex, negate), _SIGNED_CAP) for negate in (False, True))
                for latex in (False, True))


def power_product(names, exps, latex: bool) -> str:
    """The monomial names[0]^exps[0] names[1]^exps[1] ..., written
    ``a^2*b`` (``a^{2}b`` in LaTeX); a zero exponent drops its factor, and
    the unit is ``""``."""
    if latex:
        return "".join([n if x == 1 else f"{n}^{{{x}}}" for n, x in zip(names, exps) if x])
    return "*".join([n if x == 1 else f"{n}^{x}" for n, x in zip(names, exps) if x])


class LaurentQ(Terms):
    """A sparse Laurent polynomial in q^(1/2) over the integers.

    The canonical text form lists terms in decreasing exponent order, with
    exponents printed as ``q^k`` (``q^-k`` for negatives) and ``q^(k/2)``
    for odd half-steps, e.g. ``q^2 + 1 + q^-2``.  Its ring operators
    live in this class, where the benchmark tracer wraps them, and its sum
    merges inline rather than through `add_into`.
    """

    __slots__ = ()

    def __init__(self, terms=None):
        t = {}
        if terms:
            for h, c in terms.items():
                if not isinstance(c, int):
                    raise TypeError(f"LaurentQ coefficients are ints, got {c!r}")
                if c:
                    t[h] = int(c)  # an exact int, as the writer expects, not a bool or an IntEnum
        self.terms = t

    @classmethod
    def from_int(cls, c: int) -> "LaurentQ":
        return cls._raw({0: c if type(c) is int else int(c)} if c else {})

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

    __sub__ = Terms.__sub__
    __rsub__ = Terms.__rsub__

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

    def at_q1(self):
        """Evaluate at q = 1 (the sum of all coefficients)."""
        return sum(self.terms.values())

    # -- text form ----------------------------------------------------------

    @staticmethod
    def _mono(h, latex):
        """The name of q^(h/2): ``q``, ``q^k``, ``q^(h/2)`` (``q^{k}``,
        ``q^{h/2}``), ``""`` for h = 0."""
        if not h:
            return ""
        if latex:
            return f"q^{{{h // 2}}}" if h % 2 == 0 else f"q^{{{h}/2}}"
        return f"q^({h}/2)" if h % 2 else "q" if h == 2 else f"q^{h // 2}"

    _name_tables = name_tables(_mono)
    _unit_key = 0

    # kept in this class, where the benchmark tracer wraps it
    def __str__(self):
        return self._render()

    @classmethod
    def parse(cls, s: str) -> "LaurentQ":
        """Parse the canonical text form produced by ``str`` (see `read`)."""
        return read(s, {}, _ONE)


_ZERO = LaurentQ._raw({})
_ONE = LaurentQ._raw({0: 1})


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


def quantum_int(k: int) -> LaurentQ:
    """The quantum integer [k] = (q^k - q^(-k)) / (q - q^(-1)).

    [0] = 0, [1] = 1, [2] = q + q^(-1), and [-k] = -[k].
    """
    if k < 0:
        return -quantum_int(-k)
    # [k] = q^(k-1) + q^(k-3) + ... + q^(1-k)
    return LaurentQ._raw({2 * e: 1 for e in range(k - 1, -k, -2)})


def quantum_factorial(k: int) -> LaurentQ:
    """[k]! = [k][k-1]...[1], with [0]! = 1."""
    if k < 0:
        raise ValueError("factorial needs k >= 0")
    return reduce(mul, map(quantum_int, range(2, k + 1)), _ONE)


def quantum_binom_row(n: int):
    """Yield [n 0], [n 1], ..., [n n] for n >= 0: [n j] = q^(-j(n-j)) G(n, j)(q^2),
    where the Gaussian binomial G(n, j) in x, a list of j(n-j) + 1 positive ints,
    is G(n, j-1) times 1 - x^(n-j+1), divided exactly by 1 - x^j (a prefix sum
    with stride j).  Nothing is kept between calls."""
    g = [1]
    yield _ONE
    for j in range(1, n + 1):
        d = n + 1 - j
        g = [a - b for a, b in zip(g + [0] * d, [0] * d + g)]
        for i in range(j, len(g)):
            g[i] += g[i - j]
        del g[-j:]
        s = 2 * j * (n - j)
        yield LaurentQ._raw(dict(zip(range(-s, s + 1, 4), g)))


def quantum_binom(n: int, k: int) -> LaurentQ:
    """The quantum binomial coefficient [n k], defined for all integers: for
    n >= 0 entry min(k, n - k) of `quantum_binom_row`, and for n < 0 the
    reflection [n k] = (-1)^k [k-n-1 k], as [-m] = -[m] in the defining
    product.  Conventions: [n k] = 0 for k < 0 and for 0 <= n < k, and
    [n 0] = 1."""
    if k < 0:
        return _ZERO
    if n < 0:
        hit = quantum_binom(k - n - 1, k)
        return -hit if k % 2 else hit
    if k > n:
        return _ZERO
    return next(islice(quantum_binom_row(n), min(k, n - k), None))


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


def entry(suite, n, identity, ok, detail=None) -> dict:
    """One verify report entry; `detail`, a witness, only when given."""
    e = {"suite": suite, "n": n, "identity": identity, "ok": bool(ok)}
    if detail:
        e["detail"] = detail
    return e


def diff_detail(lhs, rhs):
    """The witness for lhs != rhs: the largest monomial key of lhs - rhs
    and its coefficient there; None if they are equal."""
    d = lhs - rhs
    if not d:
        return None
    a = max(d.terms)
    return f"first differing monomial {a}: {d.terms[a]}"


def compare(suite, n, identity, lhs, rhs) -> dict:
    """The entry for lhs == rhs; a failing one carries `diff_detail`."""
    ok = lhs == rhs
    return entry(suite, n, identity, ok, None if ok else diff_detail(lhs, rhs))


_POLY_TERM = re.compile(r"([+-]?)(\d*)(n?)(?:\^(\d+))?")
_EXP = r"-?\d+|n|\([^()]*\)"
_IDX = r"[^],(){}]*"
_ID_TOKEN = re.compile(rf"(?:B\[(?P<B>{_IDX}(?:,{_IDX}){{3}})\]|X_(?P<X>n|\d+|\{{[^{{}}]*\}})"
                       rf"|(?P<name>u[0-3]|p[01]|Y_?[01]))(?:\^(?P<pow>{_EXP}))?|(?P<op>[-+=()*])"
                       rf"|(?P<c>\d+|q\^\(-?\d+/2\)|q\^-?\d+|q(?!\^))|(?P<q>q\^(?:{_EXP}))")
# the text of each token of a string, or of a character that starts none
_SPLIT = re.compile(r"\s*(" + re.sub(r"\(\?P<\w+>", "(?:", _ID_TOKEN.pattern) + r"|\S)")
_ENDS = ("+", "-", "=", ")", None)  # the tokens that end a term


def _poly(s: str):
    """The integer polynomial in n written s, such as ``2n^2-6n+8``, or
    ``(s)`` or ``{s}``, as a function of n."""
    s, out, pos = s[1:-1] if s[:1] in ("(", "{") else s, {}, 0
    while pos < len(s) or not out:
        m = _POLY_TERM.match(s, pos)
        sign, c, var, k = m.groups()
        if not (c or var) or (pos and not sign) or (k and not var):
            raise ValueError(f"cannot read index {s!r}")
        k = int(k or 1) if var else 0
        out[k] = out.get(k, 0) + int(sign + (c or "1"))
        pos = m.end()
    return lambda n, t=tuple(out.items()): sum(c * n ** k if k else c for k, c in t)


# kind -> a token's value: a constant c (int, q, q^k, q^(h/2)) is itself, q^e the exponent e
_TOKEN_VALUE = {"B": lambda v: tuple(map(_poly, v.split(","))), "X": _poly,
                "c": lambda v: int(v) if v[0] != "q" else half_pow(int(v[3:-3])) if v[-1] == ")"
                else qpow(int(v[2:] or 1)),
                "q": lambda v: _poly(v[2:]), "name": lambda v: v.replace("_", "")}


@lru_cache(maxsize=4096)
def _token(t: str):
    """The token t as (kind, value, power), an operator's kind being itself."""
    m = _ID_TOKEN.fullmatch(t)
    if m is None:
        raise ValueError(f"cannot read token {t!r}")
    kind, v = next((g, v) for g, v in m.groupdict().items() if v is not None)
    return (t, t, None) if kind == "op" else (kind, _TOKEN_VALUE[kind](v), m["pow"] and _poly(m["pow"]))


def _sides(text: str) -> list:
    """The sums that text writes in the grammar of the module docstring,
    split at each ``=``, each a list of (sign, factors) terms; ValueError
    on any other text."""
    toks, pos = [_token(t) for t in _SPLIT.findall(text)] + [(None, None, None)], 0

    def factor():
        nonlocal pos
        kind, v, k = toks[pos]
        pos += 1
        if kind == "(":
            v = sum_()
            if toks[pos][0] != ")":
                raise ValueError(f"unclosed parenthesis in {text!r}")
            pos += 1
        elif kind in _ENDS or kind == "*":
            raise ValueError(f"cannot read {text!r} at its token {pos - 1}")
        return kind, v, k

    def sum_():
        nonlocal pos
        terms = []
        while True:
            sign = -1 if toks[pos][0] == "-" else 1
            pos += toks[pos][0] in ("+", "-")
            factors = [factor()]
            while toks[pos][0] not in _ENDS:
                pos += toks[pos][0] == "*"
                factors.append(factor())
            terms.append((sign, factors))
            if toks[pos][0] not in ("+", "-"):
                return terms

    sides = [sum_()]
    while toks[pos][0] == "=":
        pos += 1
        sides.append(sum_())
    if toks[pos][0] is not None:
        raise ValueError(f"cannot read {text!r} at its token {pos}")
    return sides


def parse_identity(text: str):
    """The two sides of the printed identity ``lhs = rhs`` (see `_sides`);
    ValueError on any other text, and on a term with no algebra factor."""
    def scalar(terms):  # whether a term, at any depth, has scalar factors only
        return any(all(k in ("c", "q") for k, _, _ in f) or any(k == "(" and scalar(v) for k, v, _ in f)
                   for _, f in terms)
    sides = _sides(text)
    if len(sides) != 2 or any(map(scalar, sides)):
        raise ValueError(f"{text!r} is not one identity lhs = rhs, each term with an algebra factor")
    return tuple(sides)


def read(text: str, names, one):
    """The element that text, one sum of `_sides` with no n, writes in the
    ring whose unit is one, by `_value` with names; ValueError otherwise."""
    sides = _sides(text)
    if len(sides) != 1:
        raise ValueError(f"{text!r} is an identity, not an element")
    try:
        return _value(sides[0], None, names, one)
    except TypeError as e:  # n, which has no value here, or a sum across rings
        raise ValueError(f"cannot read {text!r} as one element: {e}") from e


def _value(terms, n, names, one=None, product=mul):
    """A parsed sum at n: ``B`` and ``X`` call names["B"] and names["X"] with
    their index, a name bound to a function (a power of p0, p1 or u_i) is
    called with its exponent, q^e is `qpow` (e) and a constant itself; a term
    that comes out a scalar, such as ``(q)*1``, is taken times one, if given.
    The factors of a term, and a power of one factor, are multiplied by
    product, left to right.  The terms are summed by `_sum`."""
    xs = []
    for sign, factors in terms:
        x = None
        for kind, v, k in factors:
            k = k(n) if k else 1
            if kind == "(":
                v = _value(v, n, names, product=product)
            elif kind == "q":
                v = qpow(v(n))
            elif kind != "c":
                f = names.get(v if kind == "name" else kind)
                if f is None:
                    raise ValueError(f"no {v if kind == 'name' else kind} in this ring")
                v = f if kind == "name" else f(tuple(p(n) for p in v) if kind == "B" else v(n))
            if callable(v):
                v = v(k)
            elif k != 1:
                v = v ** k if k < 2 else reduce(product, (v,) * k)
            x = v if x is None else product(x, v)
        x = x if sign > 0 else -x
        if one is not None and type(x) is not type(one):
            x = one.scale(x)
        xs.append(x)
    return _sum(xs)


def _sum(xs):
    """The sum of the terms xs: a single term itself.  When they are all of
    one `Terms` type with a unit, or ints, their coefficients merge into one
    dict by `add_into`, and the sum is wrapped once; any other mix is summed
    by ``+``, which raises TypeError for a sum across rings."""
    if len(xs) == 1:
        return xs[0]
    kind = next((type(x) for x in xs if not isinstance(x, int)), None)
    if (kind is None or not issubclass(kind, Terms) or kind._scalar(1) is None
            or not all(type(x) is kind or isinstance(x, int) for x in xs)):
        return reduce(add, xs)
    acc = {}
    for x in xs:
        add_into(acc, (kind._scalar(x) if isinstance(x, int) else x).terms)
    return kind._raw(acc)


def identity(suite, n, text, names, sides=None, product=mul) -> dict:
    """The `compare` entry for the printed identity text at n, its symbols
    read in names and its factors multiplied by product; sides is its
    `parse_identity`, if the caller has it."""
    lhs, rhs = sides or parse_identity(text)
    return compare(suite, n, text, _value(lhs, n, names, product=product),
                   _value(rhs, n, names, product=product))


def identities(suite, table, n_max, names, product=mul) -> list:
    """The entries of a table of (first n, last n or None for n_max, texts)
    rows: row by row, n ascending, then text by text; each text is parsed
    once, and every factor product and power is taken by product."""
    out = []
    for lo, hi, texts in table:
        parsed = [(text, parse_identity(text)) for text in texts]
        for n in range(lo, (n_max if hi is None else hi) + 1):
            out += [identity(suite, n, text, names, sides, product) for text, sides in parsed]
    return out


def split_antisymmetric(x: LaurentQ) -> LaurentQ:
    """Solve x = phi(q) - phi(q^(-1)) for phi in qZ[q].

    Requires x integral in q, with zero constant term and bar(x) = -x;
    the solution is the positive-exponent truncation.  The last two
    conditions and the truncation are read off x's half-exponent dict.  A
    violation signals a bug in the dual-canonical computation, so it is
    raised rather than repaired.
    """
    t = x.terms
    if not x.is_integral():
        raise ValueError("antisymmetric split: element has odd half-exponents")
    if 0 in t:
        raise ValueError("antisymmetric split: nonzero constant term")
    if any(t.get(-h) != -m for h, m in t.items()):
        raise ValueError("antisymmetric split: element is not bar-antisymmetric")
    return LaurentQ._raw({h: m for h, m in t.items() if h > 0})
