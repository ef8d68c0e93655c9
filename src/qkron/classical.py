"""The q = 1 side: the commutative cluster algebra of rank two.

CPoly is a sparse Laurent polynomial in the six symbols
U3, U2, U1, U0, P0, P1 with integer coefficients; exponents may be
negative in the U slots (cluster variables are Laurent in the initial
cluster) while P0 and P1 only ever appear with nonnegative exponents.
The polynomial ring Z[U0..U3] sits inside as the elements with
nonnegative exponents and no P symbols; `subs_p` eliminates the P symbols
via P0 = U2 U0 - U1^2 and P1 = U3 U1 - U2^2.

Cluster variables are indexed by their subscript: `cluster_variable(4)`
is U_4.  The closed Laurent formula over the seed (U1, U2, P0, P1) covers
subscripts >= 3; subscripts <= 0 use the symmetry swap U_i <-> U_{3-i},
P0 <-> P1 that reverses the exchange sequence.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial

from .qarith import Terms, add_into, cluster_terms

VARS = ("U3", "U2", "U1", "U0", "P0", "P1")
_LATEX_VARS = ("U_3", "U_2", "U_1", "U_0", "P_0", "P_1")
_NVARS = 6
_ZERO_EXP = (0,) * _NVARS


def _check_int(c):
    if not isinstance(c, int):
        raise TypeError(f"CPoly coefficients are ints, got {c!r}")


def binomial(n: int, k: int) -> int:
    """Binomial coefficient for arbitrary integer n; zero for k < 0."""
    if k < 0:
        return 0
    num = 1
    for j in range(k):
        num *= n - j
    return num // factorial(k)


class CPoly(Terms):
    """Sparse commutative Laurent polynomial over U3, U2, U1, U0, P0, P1,
    with int coefficients; an int operand stands for that constant."""

    __slots__ = ()

    def __init__(self, terms=None):
        if terms:
            for c in terms.values():
                _check_int(c)
        super().__init__(terms)

    @classmethod
    def _scalar(cls, c: int):
        return const(c)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        a, b = self.terms, other.terms
        if not a or not b:
            return CPoly._raw({})
        if len(a) > len(b):
            a, b = b, a
        out = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                v = out.get(e)
                out[e] = c1 * c2 if v is None else v + c1 * c2
        return CPoly._raw({e: c for e, c in out.items() if c})

    __rmul__ = __mul__

    def scale(self, c: int) -> "CPoly":
        _check_int(c)
        return super().scale(c)

    def is_polynomial(self) -> bool:
        """No negative exponents anywhere."""
        return all(min(e) >= 0 for e in self.terms)

    def uses_p_symbols(self) -> bool:
        return any(e[4] or e[5] for e in self.terms)

    def subs_p(self) -> "CPoly":
        """Eliminate P0, P1 via the determinantal identities
        P0 = U2 U0 - U1^2 and P1 = U3 U1 - U2^2."""
        out = {}
        for e, c in self.terms.items():
            e0, e4, e5 = e[:4] + (0, 0), e[4], e[5]
            if e4 < 0 or e5 < 0:
                raise ValueError("negative power of a frozen variable")
            add_into(out, (CPoly._raw({e0: c}) * _p0_pow(e4) * _p1_pow(e5)).terms)
        return CPoly._raw(out)

    def swap(self) -> "CPoly":
        """The symmetry U_i <-> U_{3-i}, P0 <-> P1 (reverses the exchange
        sequence, U_n -> U_{3-n})."""
        return CPoly._raw({
            (e[3], e[2], e[1], e[0], e[5], e[4]): c for e, c in self.terms.items()
        })

    def specialize_coefficients(self) -> "CPoly":
        """Set P0 = P1 = 1 (drop the P exponents)."""
        out = {}
        for e, c in self.terms.items():
            add_into(out, {e[:4] + (0, 0): c})
        return CPoly._raw(out)

    def shift_seed_down(self) -> "CPoly":
        """Rename U2 -> U1 and U1 -> U0 (the seed switch remark); the
        element must not involve U3, U0 or the P symbols."""
        out = {}
        for e, c in self.terms.items():
            if e[0] or e[3] or e[4] or e[5]:
                raise ValueError("element not supported on U1, U2 only")
            out[(0, 0, e[1], e[2], 0, 0)] = c
        return CPoly._raw(out)

    def exact_div(self, other: "CPoly") -> "CPoly":
        """Exact division in the Laurent ring over Z; raises ValueError
        ("not divisible") unless the quotient exists there.

        Reduction by the lex-leading term of the divisor; termination is
        guarded by a step bound since lex on Laurent exponents is not a
        well-order.
        """
        if not other:
            raise ZeroDivisionError("division by zero polynomial")
        if not self:
            return CPoly._raw({})
        lead = max(other.terms)
        lead_c = other.terms[lead]
        rem = dict(self.terms)
        quot = {}
        limit = 16 * (len(self.terms) + 4) * (len(other.terms) + 4)
        steps = 0
        while rem:
            steps += 1
            if steps > limit:
                raise ValueError("not divisible (reduction did not terminate)")
            e = max(rem)
            c = rem[e]
            qe = tuple(x - y for x, y in zip(e, lead))
            qc, r = divmod(c, lead_c)
            if r:
                raise ValueError("not divisible")
            quot[qe] = qc
            add_into(rem, {tuple(x + y for x, y in zip(qe, e2)): c2
                           for e2, c2 in other.terms.items()}, -qc)
        return CPoly._raw(quot)

    def _term(self, e, c, latex):
        if latex:
            mono = "".join([n if x == 1 else f"{n}^{{{x}}}" for n, x in zip(_LATEX_VARS, e) if x])
        else:
            mono = "*".join([n if x == 1 else f"{n}^{x}" for n, x in zip(VARS, e) if x])
        neg = c < 0
        mag = -c if neg else c
        if not mono:
            return neg, str(mag)
        if mag == 1:
            return neg, mono
        return neg, f"{mag}{mono}" if latex else f"{mag}*{mono}"


def const(c) -> CPoly:
    return CPoly({_ZERO_EXP: c})


def var(name: str, e: int = 1) -> CPoly:
    i = VARS.index(name)
    exp = [0] * _NVARS
    exp[i] = e
    return CPoly({tuple(exp): 1})


def u_monomial(a) -> CPoly:
    """The commutative monomial U3^a3 U2^a2 U1^a1 U0^a0 for (a3,a2,a1,a0)."""
    return CPoly({(a[0], a[1], a[2], a[3], 0, 0): 1})


U3, U2, U1, U0 = (var("U3"), var("U2"), var("U1"), var("U0"))
P0_SYM, P1_SYM = var("P0"), var("P1")


def z_poly() -> CPoly:
    """z = U3 U0 - U2 U1 in the polynomial ring."""
    return U3 * U0 - U2 * U1


def p0_poly() -> CPoly:
    return U2 * U0 - U1 * U1


def p1_poly() -> CPoly:
    return U3 * U1 - U2 * U2


@lru_cache(maxsize=None)
def _p0_pow(k: int) -> CPoly:
    return p0_poly() ** k


@lru_cache(maxsize=None)
def _p1_pow(k: int) -> CPoly:
    return p1_poly() ** k


def z_laurent() -> CPoly:
    """z over the seed (U1, U2, P0, P1):
    (P1 P0 + P1 U1^2 + P0 U2^2) / (U1 U2), written as a Laurent polynomial."""
    inv = CPoly({(0, -1, -1, 0, 0, 0): 1})
    return (P1_SYM * P0_SYM + P1_SYM * U1 * U1 + P0_SYM * U2 * U2) * inv


@lru_cache(maxsize=None)
def cluster_variable(n: int) -> CPoly:
    """The cluster variable U_n as a Laurent polynomial in U1, U2 with
    coefficients polynomial in P0, P1.

    For n >= 3 this is the closed sum over {k + l <= n - 3 or
    (k, l) = (n - 2, 0)} divided by the monomial U1^(n-2) U2^(n-3);
    U1 and U2 are returned as themselves, and n <= 0 uses the swap
    symmetry U_n = swap(U_{3-n}).  Memoized: a CPoly is never changed in
    place."""
    if n == 1:
        return U1
    if n == 2:
        return U2
    if n <= 0:
        return cluster_variable(3 - n).swap()
    m = n - 3
    inv = CPoly({(0, -m, -(m + 1), 0, 0, 0): 1})
    total = {(0, 2 * k, 2 * l, 0, m - l, m + 1 - k): c for k, l, c in cluster_terms(m, binomial)}
    return CPoly._raw(total) * inv


@lru_cache(maxsize=None)
def polynomial_form(n: int) -> CPoly:
    """U_n as a polynomial in U3, U2, U1, U0; memoized like
    `cluster_variable`.  U_4 is `cluster_variable(4).subs_p()`, and n >= 5
    takes one step of U_n = z U_{n-1} - P1 P0 U_{n-2} from the memoized rows
    below.  The classical suite checks both facts against `subs_p`."""
    if 0 <= n <= 3:
        return (U0, U1, U2, U3)[n]
    if n < 0:
        return polynomial_form(3 - n).swap()
    if n == 4:
        out = cluster_variable(4).subs_p()
        if not out.is_polynomial():
            raise AssertionError("U_4 did not clear its denominator")
        return out
    return z_poly() * polynomial_form(n - 1) - p1_poly() * p0_poly() * polynomial_form(n - 2)


def cluster_coefficient(n: int, a: int, b: int) -> int:
    """The coefficient c_{n,a,b} of U3^a U2^(n+2-2a+b) U1^(n-1-2b+a) U0^b
    in U_{n+3}, as the alternating quadruple-binomial sum."""
    return sum((-1) ** (k + l + a + b + 1) * c * binomial(n + 1 - k, a) * binomial(n - l, b)
               for k, l, c in cluster_terms(n, binomial))


def coefficient_polynomial(n: int) -> CPoly:
    """U_{n+3} assembled directly from the c_{n,a,b} coefficients.

    Raises if a coefficient with an out-of-range monomial (negative
    exponent) is nonzero; their vanishing is exactly the combinatorial
    identity the formula asserts."""
    out = {}
    for a in range(0, n + 2):
        for b in range(0, n + 1):
            c = cluster_coefficient(n, a, b)
            e2 = n + 2 - 2 * a + b
            e1 = n - 1 - 2 * b + a
            if e2 < 0 or e1 < 0:
                if c:
                    raise AssertionError(f"c_{{{n},{a},{b}}} = {c} on an invalid monomial")
                continue
            if c:
                add_into(out, {(a, e2, e1, b, 0, 0): c})
    return CPoly._raw(out)


def coefficient_free_cluster(n: int) -> CPoly:
    """Coefficient-free cluster variable over the seed (U0, U1):
    U_{n+2} = sum binom(n-k, l) binom(n+1-l, k) U1^(2k) U0^(2l) / (U1^n U0^(n+1)),
    with U_0, U_1 the seed itself and negative n via the Laurent swap."""
    if n == 0:
        return U0
    if n == 1:
        return U1
    if n < 0:
        # coefficient-free sequence is symmetric under U0 <-> U1, n -> 1-n
        return CPoly._raw({
            (0, 0, e[3], e[2], 0, 0): c
            for e, c in coefficient_free_cluster(1 - n).terms.items()
        })
    m = n - 2
    inv = CPoly({(0, 0, -m, -(m + 1), 0, 0): 1})
    total = {(0, 0, 2 * k, 2 * l, 0, 0): c for k, l, c in cluster_terms(m, binomial)}
    return CPoly._raw(total) * inv


def cluster_monomial(n: int, exponents) -> CPoly:
    """The cluster monomial U_{n+1}^a1 U_n^a2 P1^a3 P0^a4 of the cluster
    containing U_n and U_{n+1}."""
    a1, a2, a3, a4 = exponents
    return (cluster_variable(n + 1) ** a1 * cluster_variable(n) ** a2
            * P1_SYM ** a3 * P0_SYM ** a4)


def chebyshev_basis_element(k: int, kind: str = "S") -> CPoly:
    """The Chebyshev-basis element s_k (kind "S") or t_k (kind "T") in
    Z[U0..U3], computed through the three-term recursion
    f_{k+1} = z f_k - P1 P0 f_{k-1} so no square roots appear."""
    if k < 0:
        raise ValueError("needs k >= 0")
    if kind not in ("S", "T"):
        raise ValueError("kind must be 'S' or 'T'")
    z = z_poly()
    prev = const(1) if kind == "S" else const(2)
    if k == 0:
        return prev
    cur = z
    pp = p1_poly() * p0_poly()
    for _ in range(k - 1):
        prev, cur = cur, z * cur - pp * prev
    return cur


class ExchangeMatrix:
    """An integer exchange matrix: one row per variable (mutable rows
    first), one column per mutable variable."""

    __slots__ = ("rows", "n_mutable")

    def __init__(self, rows):
        self.rows = tuple(tuple(int(x) for x in r) for r in rows)
        self.n_mutable = len(self.rows[0])
        if any(len(r) != self.n_mutable for r in self.rows):
            raise ValueError("ragged exchange matrix")

    def __eq__(self, other):
        return isinstance(other, ExchangeMatrix) and self.rows == other.rows

    def __repr__(self):
        return f"ExchangeMatrix({list(map(list, self.rows))})"

    def principal_part(self):
        return [list(r) for r in self.rows[: self.n_mutable]]

    def is_skew_principal(self) -> bool:
        p = self.principal_part()
        n = self.n_mutable
        return all(p[i][j] == -p[j][i] for i in range(n) for j in range(n))


def mutate(b: ExchangeMatrix, k: int) -> ExchangeMatrix:
    """Matrix mutation at the mutable index k (Fomin-Zelevinsky rule)."""
    if not 0 <= k < b.n_mutable:
        raise IndexError(f"mutation index {k} out of range")
    old = b.rows
    new = []
    for i, row in enumerate(old):
        new_row = []
        for j in range(b.n_mutable):
            if i == k or j == k:
                new_row.append(-row[j])
            else:
                bik = row[k]
                bkj = old[k][j]
                sign = 1 if bik > 0 else -1 if bik < 0 else 0
                new_row.append(row[j] + sign * max(0, bik * bkj))
        new.append(new_row)
    return ExchangeMatrix(new)


def initial_exchange_matrix() -> ExchangeMatrix:
    """The initial 4x2 exchange matrix for the seed (U1, U2, P0, P1)."""
    return ExchangeMatrix([[0, 2], [-2, 0], [0, -1], [1, 0]])


def quiver_figure_matrices():
    """The drawn quivers of the (U0, U1) cluster and its two consecutive
    mutations, as exchange matrices.  Rows are (slot0, slot1, P0, P1) with
    slot0 = U0 -> U2 and slot1 = U1 -> U3 along the mutations; entries
    count arrows from the column variable into the row variable minus the
    reverse arrows."""
    initial = ExchangeMatrix([[0, 2], [-2, 0], [1, -2], [0, 1]])
    after_u0 = ExchangeMatrix([[0, -2], [2, 0], [-1, 0], [0, 1]])
    after_u0_u1 = ExchangeMatrix([[0, 2], [-2, 0], [-1, 0], [2, -1]])
    return initial, after_u0, after_u0_u1


def linear_recursion_check(n_max: int) -> list:
    """Verify the three-term recursions: the coefficient-free
    U_{n+1} = T U_n - U_{n-1} with T = U3 U0 - U2 U1 over the (U0, U1)
    seed, the coefficient version U_{k+1} = z U_k - P1 P0 U_{k-1} for
    k >= 4, and the identity defining z."""
    report = []

    def entry(identity, ok, n=0):
        report.append({"suite": "classical", "n": n, "identity": identity, "ok": bool(ok)})

    cfr = {n: coefficient_free_cluster(n) for n in range(0, n_max + 2)}
    t = (1 + cfr[0] ** 2 + cfr[1] ** 2).exact_div(cfr[0] * cfr[1])
    for n in range(1, n_max + 1):
        entry("U_{n+1} = T U_n - U_{n-1} (coefficient-free)",
              cfr[n + 1] == t * cfr[n] - cfr[n - 1], n)
    z = z_poly()
    pp = p1_poly() * p0_poly()
    # the closed formula with P eliminated, not `polynomial_form`, which
    # is built by this recursion
    us = {k: cluster_variable(k).subs_p() for k in range(3, n_max + 2)}
    for k in range(4, n_max + 1):
        entry("U_{k+1} = z U_k - P1 P0 U_{k-1}", us[k + 1] == z * us[k] - pp * us[k - 1], k)
    entry("z = U3 U0 - U2 U1", z_laurent().subs_p() == z)
    return report


def verify_classical(n_max: int = 10) -> list:
    """The classical identity suite: exchange and linear recursions, the
    closed coefficient formulas, polynomiality, the basis elements, and the
    quiver mutations."""
    report = []

    def entry(identity, ok, n=0):
        report.append({"suite": "classical", "n": n, "identity": identity, "ok": bool(ok)})

    us = {n: cluster_variable(n) for n in range(1, n_max + 2)}
    for n in range(4, n_max + 1):
        ok = us[n + 1] * us[n - 1] == us[n] ** 2 + P1_SYM ** (n - 1) * P0_SYM ** (n - 4)
        entry("U_{n+1} U_{n-1} = U_n^2 + P1^(n-1) P0^(n-4)", ok, n)
    cf = {n: us[n].specialize_coefficients() for n in us}
    ok = all(cf[n + 1] * cf[n - 1] == cf[n] ** 2 + 1 for n in range(2, n_max))
    entry("coefficient-free exchange U_{n+1} U_{n-1} = U_n^2 + 1", ok)

    entry("U_4 = U3^2 U0 - 2 U3 U2 U1 + U2^3",
          polynomial_form(4) == U3 ** 2 * U0 - 2 * U3 * U2 * U1 + U2 ** 3)

    for n in range(0, min(n_max - 2, 8) + 1):
        try:
            ok = coefficient_polynomial(n) == polynomial_form(n + 3)
        except AssertionError:
            ok = False
        entry("c_{n,a,b} table matches U_{n+3}, out-of-range coefficients vanish", ok, n)

    ok = True
    for n in range(4, n_max + 1):
        u = cluster_variable(n).subs_p()
        ok = ok and u.is_polynomial() and not u.uses_p_symbols() and u == polynomial_form(n)
    entry("polynomiality of U_n in U3,U2,U1,U0", ok)

    ok = True
    for n in range(2, min(n_max, 9)):
        shifted = cluster_variable(n + 1).specialize_coefficients().shift_seed_down()
        ok = ok and coefficient_free_cluster(n) == shifted
    entry("coefficient-free closed formula agrees with the P = 1 specialization", ok)

    report.extend(linear_recursion_check(min(n_max, 9)))
    z = z_poly()
    pp = p1_poly() * p0_poly()

    ok = (chebyshev_basis_element(0, "S") == const(1)
          and chebyshev_basis_element(1, "S") == z
          and chebyshev_basis_element(2, "S") == z ** 2 - pp)
    for k in range(2, 5):
        for kind in ("S", "T"):
            ok = ok and chebyshev_basis_element(k + 1, kind) == \
                z * chebyshev_basis_element(k, kind) - pp * chebyshev_basis_element(k - 1, kind)
    entry("Chebyshev basis elements satisfy s_{k+1} = z s_k - P1 P0 s_{k-1}", ok)

    fig0, fig1, fig2 = quiver_figure_matrices()
    ok = mutate(fig0, 0) == fig1 and mutate(fig1, 1) == fig2
    entry("mutations reproduce the three drawn quivers", ok)
    b = initial_exchange_matrix()
    ok = all(mutate(mutate(b, k), k) == b and mutate(b, k).is_skew_principal() for k in (0, 1))
    entry("matrix mutation is involutive and preserves skew-symmetry", ok)

    seq, mats = seed_mutation_sequence(min(n_max, 9))
    ok = all(seq[n - 1] == us[n] for n in range(1, min(n_max, 9) + 1))
    entry("genuine seed mutation reproduces the closed formula", ok)
    return report


def seed_mutation_sequence(count: int):
    """Run genuine seed mutation from (U1, U2, P0, P1), alternating the two
    mutable slots, and return [U_1, U_2, ..., U_{count}] plus the list of
    exchange matrices seen along the way (one per seed, variables in slot
    order).

    Each exchange uses the mutated matrix column including the frozen rows,
    and divides exactly in the Laurent ring; this is the independent oracle
    for the closed formula."""
    b = initial_exchange_matrix()
    slots = [U1, U2]
    frozen = [P0_SYM, P1_SYM]
    out = [U1, U2]
    matrices = [b]
    k = 0
    while len(out) < count:
        plus = const(1)
        minus = const(1)
        for i, x in enumerate(slots + frozen):
            e = b.rows[i][k]
            if e > 0:
                plus = plus * x ** e
            elif e < 0:
                minus = minus * x ** (-e)
        new_var = (plus + minus).exact_div(slots[k])
        slots[k] = new_var
        out.append(new_var)
        b = mutate(b, k)
        matrices.append(b)
        k = 1 - k
    return out, matrices
