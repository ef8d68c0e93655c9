"""The quantum-seed layer: rescaled cluster variables in q^(1/2), the
quasi-commutation matrix L, quantum-torus monomials, and the quantum
exchange relation.

The rescaled variables are

    X_i = q^(-1/2) u_i                       (0 <= i <= 3)
    X_n = q^(-(2n-5)^2 / 2) B[n-2,0,0,n-3]   (n >= 3)
    Y_0 = q^-2 p0,  Y_1 = q^-2 p1

and the exchange relation is certified in two steps: the cleared identity
X_{n+2} X_n = q^-2 X_{n+1}^2 + q^(-2n^2+6n-3) Y_1^n Y_0^(n-3) holds in the
algebra (which has no inverses), and the torus identity with X_n^(-1)
holds among abstract torus monomials over L(n).
"""

from __future__ import annotations

from . import dcb, pbw
from .dcb import _compare, _diff_detail, _entry
from .qarith import LaurentQ, Terms, add_into, half_pow, laurent_term, lq_one


def x_var(n: int) -> pbw.PbwElement:
    """The rescaled quantized cluster variable X_n (n >= 0)."""
    if n < 0:
        raise ValueError("negative cluster index not materialized in the algebra")
    if n < 3:
        return pbw.generator(n).scale(half_pow(-1))
    return dcb.b_element((n - 2, 0, 0, n - 3)).scale(half_pow(-((2 * n - 5) ** 2)))


def y0_var() -> pbw.PbwElement:
    return pbw.p0().scale_qpow(-2)


def y1_var() -> pbw.PbwElement:
    return pbw.p1().scale_qpow(-2)


def l_matrix(n: int):
    """The 4x4 skew quasi-commutation matrix of (X_n, X_{n+1}, Y_0, Y_1)."""
    if n < 3:
        raise ValueError("the quantum seed starts at n = 3")
    return (
        (0, 2, 2 * n - 2, -2 * n + 8),
        (-2, 0, 2 * n, -2 * n + 6),
        (-2 * n + 2, -2 * n, 0, -4),
        (2 * n - 8, 2 * n - 6, 4, 0),
    )


def seed_exchange_matrix(n: int):
    """The 4x2 exchange matrix of the quantum seed (X_n, X_{n+1}, Y_0, Y_1)."""
    from .classical import ExchangeMatrix

    return ExchangeMatrix([[0, 2], [-2, 0], [n - 3, -n + 4], [n, -n + 1]])


def verify_quasi_commutation(n_max: int) -> list:
    """All six pairwise commutations of the seed variables for 3 <= n <= n_max,
    plus the unrescaled q-commutation of adjacent quantized cluster variables
    for 1 <= n <= n_max."""
    report = []
    y0, y1 = y0_var(), y1_var()
    report.append(_compare("qseed", 0, "Y0 Y1 = q^-4 Y1 Y0", y0 * y1, (y1 * y0).scale_qpow(-4)))
    for n in range(3, n_max + 1):
        xn, xn1 = x_var(n), x_var(n + 1)
        checks = [
            ("X_n X_{n+1} = q^2 X_{n+1} X_n", xn * xn1, (xn1 * xn).scale_qpow(2)),
            ("X_n Y_0 = q^(2n-2) Y_0 X_n", xn * y0, (y0 * xn).scale_qpow(2 * n - 2)),
            ("X_n Y_1 = q^(-2n+8) Y_1 X_n", xn * y1, (y1 * xn).scale_qpow(-2 * n + 8)),
            ("X_{n+1} Y_0 = q^(2n) Y_0 X_{n+1}", xn1 * y0, (y0 * xn1).scale_qpow(2 * n)),
            ("X_{n+1} Y_1 = q^(-2n+6) Y_1 X_{n+1}", xn1 * y1, (y1 * xn1).scale_qpow(-2 * n + 6)),
        ]
        for name, lhs, rhs in checks:
            report.append(_compare("qseed", n, name, lhs, rhs))
    for n in range(1, n_max + 1):
        lhs = dcb.b_element((n, 0, 0, n - 1)) * dcb.b_element((n + 1, 0, 0, n))
        rhs = (dcb.b_element((n + 1, 0, 0, n)) * dcb.b_element((n, 0, 0, n - 1))).scale_qpow(2)
        report.append(_compare("qseed", n,
                               "B[n,0,0,n-1] B[n+1,0,0,n] = q^2 B[n+1,0,0,n] B[n,0,0,n-1]",
                               lhs, rhs))
    return report


def verify_quantum_exchange(n_max: int) -> list:
    """The quantum exchange relation, unrescaled (n >= 2) and in the
    multiplied-through rescaled form (n >= 3)."""
    report = []
    for n in range(2, n_max + 1):
        lhs = dcb.b_element((n + 1, 0, 0, n)) * dcb.b_element((n - 1, 0, 0, n - 2))
        sq = dcb.b_element((n, 0, 0, n - 1))
        rhs = (sq * sq).scale_qpow(2) \
            + (dcb.p_power(1, n + 1) * dcb.p_power(0, n - 2)).scale_qpow(2 * n * n - 6 * n + 8)
        report.append(_compare("qseed", n,
                               "B[n+1,0,0,n] B[n-1,0,0,n-2] = q^2 B[n,0,0,n-1]^2 "
                               "+ q^(2n^2-6n+8) p1^(n+1) p0^(n-2)",
                               lhs, rhs))
    for n in range(3, n_max + 1):
        lhs = x_var(n + 2) * x_var(n)
        x1 = x_var(n + 1)
        rhs = (x1 * x1).scale_qpow(-2) \
            + (y1_var() ** n * y0_var() ** (n - 3)).scale_qpow(-2 * n * n + 6 * n - 3)
        report.append(_compare("qseed", n,
                               "X_{n+2} X_n = q^-2 X_{n+1}^2 + q^(-2n^2+6n-3) Y_1^n Y_0^(n-3)",
                               lhs, rhs))
    return report


class TorusElement(Terms):
    """An element of the quantum torus on (X_n, X_{n+1}, Y_0, Y_1) with
    skew matrix L(n).

    Monomial keys are Z^4 exponent tuples; the stored monomial x^a is the
    normalized M(a), so multiplication follows
    x^a x^b = q^((1/2) sum_{i>j} (a_i b_j - a_j b_i) L_ij) x^(a+b).
    Elements over different n do not mix: sums and products raise
    ValueError, and they compare unequal.
    """

    __slots__ = ("n",)

    def __init__(self, n: int, terms=None):
        self.n = n
        super().__init__(terms)

    def _like(self, terms):
        out = self._raw(terms)
        out.n = self.n
        return out

    def _operand(self, other):
        if isinstance(other, TorusElement) and self.n != other.n:
            raise ValueError("torus elements over different L matrices")
        return super()._operand(other)

    def __eq__(self, other):
        return isinstance(other, TorusElement) and self.n == other.n and self.terms == other.terms

    def __mul__(self, other):
        if self._operand(other) is None:
            return NotImplemented
        L = l_matrix(self.n)
        out = {}
        for a, ca in self.terms.items():
            row = {}
            for b, cb in other.terms.items():
                h = 0
                for i in range(4):
                    for j in range(i):
                        h += (a[i] * b[j] - a[j] * b[i]) * L[i][j]
                row[tuple(x + y for x, y in zip(a, b))] = cb * half_pow(h)
            add_into(out, row, ca)
        return self._like(out)

    def inverse(self) -> "TorusElement":
        """Inverse of a single monomial: M(e)^-1 = M(-e), and a coefficient
        +-q^(h/2) inverts to +-q^(-h/2)."""
        if len(self.terms) != 1:
            raise ValueError("only torus monomials invert")
        (e, c), = self.terms.items()
        if len(c.terms) != 1:
            raise ValueError("coefficient is not a monomial q-power")
        (h, v), = c.terms.items()
        if v not in (1, -1):
            raise ValueError("coefficient is not +-q^(h/2); its inverse is not integral")
        return TorusElement(self.n, {tuple(-x for x in e): LaurentQ({-h: v})})

    def __pow__(self, k: int):
        """self^k; a negative k inverts the monomial first."""
        if k < 0:
            return self.inverse() ** -k
        out = self._like({(0, 0, 0, 0): lq_one()})
        for _ in range(k):
            out = out * self
        return out

    def _term(self, e, c, latex):
        if latex:
            names = (f"X_{{{self.n}}}", f"X_{{{self.n + 1}}}", "Y_0", "Y_1")
            mono = "".join(nm if x == 1 else f"{nm}^{{{x}}}" for nm, x in zip(names, e) if x)
        else:
            names = (f"X{self.n}", f"X{self.n + 1}", "Y0", "Y1")
            mono = "*".join(nm if x == 1 else f"{nm}^{x}" for nm, x in zip(names, e) if x)
        return laurent_term(c, mono or "1", latex)

    def __repr__(self):
        return f"TorusElement(n={self.n}, {self})"


def torus_gen(n: int, i: int) -> TorusElement:
    e = [0, 0, 0, 0]
    e[i] = 1
    return TorusElement(n, {tuple(e): lq_one()})


def torus_m(a, n: int) -> TorusElement:
    """The normalized torus monomial M(a1, a2, a3, a4) over L(n).

    Builds the element both ways the scalar prefactor is written --
    q^(+S/2) X^a1 X^a2 Y^a3 Y^a4 and q^(-S/2) in the reversed order -- and
    checks they agree before returning.
    """
    a = tuple(int(x) for x in a)
    L = l_matrix(n)
    s = 0
    for i in range(4):
        for j in range(i):
            s += a[i] * a[j] * L[i][j]
    gens = [torus_gen(n, i) for i in range(4)]
    fwd = TorusElement(n, {(0, 0, 0, 0): half_pow(s)})
    for i in range(4):
        fwd = fwd * gens[i] ** a[i]
    rev = TorusElement(n, {(0, 0, 0, 0): half_pow(-s)})
    for i in range(3, -1, -1):
        rev = rev * gens[i] ** a[i]
    if fwd != rev:
        raise AssertionError(f"M({a}) prefactor mismatch between the two printed forms")
    expected = TorusElement(n, {a: lq_one()})
    if fwd != expected:
        raise AssertionError(f"M({a}) does not normalize to the bare monomial")
    return expected


def verify_bz_exchange(n_max: int) -> list:
    """The torus form of the exchange relation,
    X_{n+2} = M(-1,2,0,0) + M(-1,0,n-3,n), certified in the multiplied-through
    form against q^-2 X_{n+1}^2 + q^(-2n^2+6n-3) Y_1^n Y_0^(n-3)."""
    report = []
    for n in range(3, n_max + 1):
        xn = torus_gen(n, 0)
        xn1 = torus_gen(n, 1)
        y0 = torus_gen(n, 2)
        y1 = torus_gen(n, 3)
        lhs = (torus_m((-1, 2, 0, 0), n) + torus_m((-1, 0, n - 3, n), n)) * xn
        rhs = (xn1 * xn1).scale_qpow(-2) \
            + (y1 ** n * y0 ** (n - 3)).scale_qpow(-2 * n * n + 6 * n - 3)
        report.append(_compare("qseed", n,
                               "(M(-1,2,0,0) + M(-1,0,n-3,n)) X_n = q^-2 X_{n+1}^2 "
                               "+ q^(-2n^2+6n-3) Y_1^n Y_0^(n-3)",
                               lhs, rhs))
        # the expanded scalar display of (1/2) sum a_i a_j L_ij
        a = (-1, 0, n - 3, n)
        s_direct = (-a[0] * a[1] - (n - 1) * a[0] * a[2] + (n - 4) * a[0] * a[3]
                    - n * a[1] * a[2] + (n - 3) * a[1] * a[3] + 2 * a[2] * a[3])
        L = l_matrix(n)
        s_sum = sum(a[i] * a[j] * L[i][j] for i in range(4) for j in range(i))
        report.append(_entry("qseed", n,
                             "expanded prefactor matches (1/2) sum a_i a_j L_ij",
                             2 * s_direct == s_sum))
    return report


def verify_algebra_matches_l(n_max: int) -> list:
    """The algebra is a faithful witness of the torus relations: every
    pairwise commutation of (X_n, X_{n+1}, Y_0, Y_1) carries exactly the
    exponent L(n)_ij."""
    report = []
    names = ("X_n", "X_{n+1}", "Y_0", "Y_1")
    for n in range(3, n_max + 1):
        gens = [x_var(n), x_var(n + 1), y0_var(), y1_var()]
        L = l_matrix(n)
        detail = None
        for i in range(4):
            for j in range(4):
                if i == j:
                    continue
                lhs, rhs = gens[i] * gens[j], (gens[j] * gens[i]).scale_qpow(L[i][j])
                if detail is None and lhs != rhs:
                    detail = f"{names[i]} {names[j]}: {_diff_detail(lhs, rhs)}"
        report.append(_entry("qseed", n, "pairwise commutations match L(n)", detail is None, detail))
    return report
