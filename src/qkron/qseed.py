"""The quantum-seed layer: rescaled cluster variables in q^(1/2), the
quasi-commutation matrix L, quantum-torus monomials, and the quantum
exchange relation.

The rescaled variables are

    X_i = q^(-1/2) u_i                       (0 <= i <= 3)
    X_n = q^(-(2n-5)^2 / 2) B[n-2,0,0,n-3]   (n >= 3)
    Y_0 = q^-2 p0,  Y_1 = q^-2 p1

and the exchange relation is certified in two steps: the cleared identity
(the last of `EXCHANGE`) holds in the algebra, which has no inverses, and
the torus identity with X_n^(-1) holds among abstract torus monomials over
L(n).  `QUASI_COMMUTATION` and `EXCHANGE` are checked as they are printed,
by `qarith.identities`, with the product of one suite run (`_run`): a
product of two basis elements, each up to a power of q, walks the right
factor's construction (`dcb.times_b`), with one table per left factor that
lives as long as the run, so a product met again, or one that an earlier
walk passed through, is looked up.  `verify_qseed` runs the whole suite,
and `verify_algebra_matches_l` as well, on one run.
"""

from __future__ import annotations

from . import dcb, pbw
from .qarith import (LaurentQ, Terms, add_into, compare, diff_detail, entry, half_pow, identities,
                     lq_one, power_product)


def x_var(n: int) -> pbw.PbwElement:
    """The rescaled quantized cluster variable X_n (n >= 0)."""
    if n < 0:
        raise ValueError("negative cluster index not materialized in the algebra")
    if n < 3:
        return _shifted(pbw.generator(n), -1)
    f, h = _x_index(n)
    return _shifted(dcb.b_element(f), h)


def _x_index(n: int):
    """(f, h) with X_n = q^(h/2) B[f], for n >= 3."""
    return (n - 2, 0, 0, n - 3), -((2 * n - 5) ** 2)


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


QUASI_COMMUTATION = (
    (0, 0, ("Y0 Y1 = q^-4 Y1 Y0",)),
    (3, None, ("X_n X_{n+1} = q^2 X_{n+1} X_n",
               "X_n Y_0 = q^(2n-2) Y_0 X_n",
               "X_n Y_1 = q^(-2n+8) Y_1 X_n",
               "X_{n+1} Y_0 = q^(2n) Y_0 X_{n+1}",
               "X_{n+1} Y_1 = q^(-2n+6) Y_1 X_{n+1}")),
    (1, None, ("B[n,0,0,n-1] B[n+1,0,0,n] = q^2 B[n+1,0,0,n] B[n,0,0,n-1]",)),
)

EXCHANGE = (
    (2, None, ("B[n+1,0,0,n] B[n-1,0,0,n-2] = q^2 B[n,0,0,n-1]^2 + q^(2n^2-6n+8) p1^(n+1) p0^(n-2)",)),
    (3, None, ("X_{n+2} X_n = q^-2 X_{n+1}^2 + q^(-2n^2+6n-3) Y_1^n Y_0^(n-3)",)),
)


def _run() -> tuple:
    """The names and the product of one suite run.  The names say what the
    printed identities' symbols stand for; p0^k and p1^k come from
    `dcb.p_power`.  B[f] and X_n = q^(h/2) B[f] (n >= 3) are the run's
    atoms, and so is q^(j/2) times an atom.  The product of two atoms
    q^(h/2) B[a] and q^(k/2) B[f] is `dcb.times_b(B[a], f, tables[a])`
    scaled by q^((h+k)/2), with one table per left atom a, kept for the
    run; any other product is ``*``.  A power of q scales an atom or a
    product by `_shifted`, with no Laurent product."""
    atoms, tables = {}, {}

    def atom(f, h=0):
        x = dcb.b_element(f)
        if h:
            x = _shifted(x, h)
        atoms[id(x)] = (x, f, h)  # the entry keeps x, and with it its id
        return x

    def product(x, y):
        ax, ay = atoms.get(id(x)), atoms.get(id(y))
        if ay is not None and isinstance(x, LaurentQ) and len(x.terms) == 1:
            (h, c), = x.terms.items()
            if c == 1:  # q^(h/2) times an atom is an atom
                return atom(ay[1], ay[2] + h)
        if ax is None or ay is None:
            return x * y
        (_, a, h), (_, f, k) = ax, ay
        xy = dcb.times_b(dcb.b_element(a), f, tables.setdefault(a, {}))
        return _shifted(xy, h + k) if h + k else xy

    names = {"B": atom, "X": lambda n: atom(*_x_index(n)) if n >= 3 else x_var(n),
             "Y0": y0_var(), "Y1": y1_var(),
             "p0": lambda k: dcb.p_power(0, k), "p1": lambda k: dcb.p_power(1, k)}
    return names, product


def _shifted(x: pbw.PbwElement, h: int) -> pbw.PbwElement:
    """q^(h/2) x: the half-exponents of each coefficient shifted by h, into
    fresh dicts."""
    return pbw._element({b: {e + h: v for e, v in c.terms.items()} for b, c in x.terms.items()})


def verify_qseed(n_max: int) -> list:
    """The `verify qseed` suite: the four checks below, up to n_max (the
    algebra's witness of L up to 6), sharing one `_run`."""
    run = _run()
    return (verify_quasi_commutation(n_max, run) + verify_quantum_exchange(n_max, run)
            + verify_bz_exchange(n_max) + verify_algebra_matches_l(min(n_max, 6), run))


def verify_quasi_commutation(n_max: int, run=None) -> list:
    """`QUASI_COMMUTATION`: the six pairwise commutations of the seed
    variables for 3 <= n <= n_max (Y0 Y1 once), and the unrescaled
    q-commutation of adjacent quantized cluster variables for 1 <= n <= n_max;
    run is a `_run` (a new one if None)."""
    return identities("qseed", QUASI_COMMUTATION, n_max, *(run or _run()))


def verify_quantum_exchange(n_max: int, run=None) -> list:
    """`EXCHANGE`: the quantum exchange relation, unrescaled (n >= 2) and in
    the multiplied-through rescaled form (n >= 3); run is a `_run` (a new
    one if None)."""
    return identities("qseed", EXCHANGE, n_max, *(run or _run()))


class TorusElement(Terms):
    """An element of the quantum torus on (X_n, X_{n+1}, Y_0, Y_1) with
    skew matrix L(n).

    Monomial keys are Z^4 exponent tuples; the stored monomial x^a is the
    normalized M(a), so multiplication follows
    x^a x^b = q^((1/2) sum_{i>j} (a_i b_j - a_j b_i) L_ij) x^(a+b).
    Elements over different n do not mix: sums and products raise
    ValueError, and they compare unequal.  There is no L(n) for n < 3, so
    construction raises there.
    """

    __slots__ = ("n",)

    def __init__(self, n: int, terms=None):
        l_matrix(n)  # raises ValueError for n < 3
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
        # L is skew, so sum_{i>j} (a_i b_j - a_j b_i) L_ij = a^T L b: the
        # row a^T L once per left monomial, one dot product per right one,
        # on the four slots unpacked once per left monomial; each term
        # m q^(g/2) of ca shifts cb's half-exponents by it and g and scales
        # them by m, with no Laurent product
        L = l_matrix(self.n)
        out = {}
        for (a0, a1, a2, a3), ca in self.terms.items():
            r0, r1, r2, r3 = (a0 * L[0][j] + a1 * L[1][j] + a2 * L[2][j] + a3 * L[3][j]
                              for j in range(4))
            for g, m in ca.terms.items():
                row = {}
                for (b0, b1, b2, b3), cb in other.terms.items():
                    s = r0 * b0 + r1 * b1 + r2 * b2 + r3 * b3 + g
                    row[a0 + b0, a1 + b1, a2 + b2, a3 + b3] = LaurentQ._raw(
                        {h + s: m * v for h, v in cb.terms.items()})
                add_into(out, row)
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

    def _mono(self, e, latex):
        n = self.n
        if latex:
            return power_product((f"X_{{{n}}}", f"X_{{{n + 1}}}", "Y_0", "Y_1"), e, latex)
        return power_product((f"X{n}", f"X{n + 1}", "Y0", "Y1"), e, latex)

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
        report.append(compare("qseed", n,
                              "(M(-1,2,0,0) + M(-1,0,n-3,n)) X_n = q^-2 X_{n+1}^2 "
                              "+ q^(-2n^2+6n-3) Y_1^n Y_0^(n-3)",
                              lhs, rhs))
        # the expanded scalar display of (1/2) sum a_i a_j L_ij
        a = (-1, 0, n - 3, n)
        s_direct = (-a[0] * a[1] - (n - 1) * a[0] * a[2] + (n - 4) * a[0] * a[3]
                    - n * a[1] * a[2] + (n - 3) * a[1] * a[3] + 2 * a[2] * a[3])
        L = l_matrix(n)
        s_sum = sum(a[i] * a[j] * L[i][j] for i in range(4) for j in range(i))
        report.append(entry("qseed", n,
                            "expanded prefactor matches (1/2) sum a_i a_j L_ij",
                            2 * s_direct == s_sum))
    return report


def verify_algebra_matches_l(n_max: int, run=None) -> list:
    """The algebra is a faithful witness of the torus relations: every
    pairwise commutation of (X_n, X_{n+1}, Y_0, Y_1) carries exactly the
    exponent L(n)_ij; the products are run's (a new `_run` if None)."""
    report = []
    names = ("X_n", "X_{n+1}", "Y_0", "Y_1")
    symbols, product = run or _run()
    for n in range(3, n_max + 1):
        gens = [symbols["X"](n), symbols["X"](n + 1), y0_var(), y1_var()]
        L = l_matrix(n)
        detail = None
        for i in range(4):
            for j in range(4):
                if i == j:
                    continue
                lhs, rhs = product(gens[i], gens[j]), product(gens[j], gens[i]).scale_qpow(L[i][j])
                if detail is None and lhs != rhs:
                    detail = f"{names[i]} {names[j]}: {diff_detail(lhs, rhs)}"
        report.append(entry("qseed", n, "pairwise commutations match L(n)", detail is None, detail))
    return report
