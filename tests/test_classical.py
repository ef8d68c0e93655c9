import random
from fractions import Fraction
from math import comb, factorial

import pytest

from qkron import classical as cl
from qkron import dcb, free_serre, pbw, qarith, qseed


def test_binomial():
    assert cl.binomial(-1, 0) == 1
    assert cl.binomial(-2, 1) == -2
    assert cl.binomial(5, 2) == 10
    assert cl.binomial(3, -1) == 0
    assert cl.binomial(-3, 3) == -10



def test_binomial_matches_the_falling_factorial():
    # n >= 0 goes through math.comb; every n is checked against the loop
    for n in range(-8, 15):
        for k in range(-2, 17):
            num = 1
            for j in range(k):
                num *= n - j
            assert cl.binomial(n, k) == (num // factorial(k) if k >= 0 else 0), (n, k)

def test_determinantal_identities():
    assert cl.p0_poly() == cl.U2 * cl.U0 - cl.U1 ** 2
    assert cl.p1_poly() == cl.U3 * cl.U1 - cl.U2 ** 2
    assert cl.z_poly() == cl.U3 * cl.U0 - cl.U2 * cl.U1


def test_cluster_variable_small():
    assert cl.cluster_variable(1) == cl.U1
    assert cl.cluster_variable(2) == cl.U2
    u3 = cl.cluster_variable(3)
    assert u3 * cl.U1 == cl.U2 ** 2 + cl.P1_SYM
    u4 = cl.cluster_variable(4)
    assert u4 * cl.U2 == u3 ** 2 * cl.P0_SYM + cl.P1_SYM ** 2


def test_exchange_recursion_with_coefficients():
    us = {n: cl.cluster_variable(n) for n in range(3, 12)}
    for n in range(4, 11):
        lhs = us[n + 1] * us[n - 1]
        rhs = us[n] ** 2 + cl.P1_SYM ** (n - 1) * cl.P0_SYM ** (n - 4)
        assert lhs == rhs


def test_coefficient_free_recursion():
    us = {n: cl.cluster_variable(n).specialize_coefficients() for n in range(1, 11)}
    for n in range(2, 10):
        assert us[n + 1] * us[n - 1] == us[n] ** 2 + 1


def test_seed_mutation_oracle():
    # genuine exchange iteration divides exactly in the Laurent ring
    # (Laurent phenomenon at desk scale) and reproduces the closed formula
    seq, mats = cl.seed_mutation_sequence(11)
    for n in range(1, 12):
        assert seq[n - 1] == cl.cluster_variable(n)
    assert mats[0] == cl.initial_exchange_matrix()


def test_polynomiality():
    for n in range(4, 11):
        p = cl.polynomial_form(n)
        assert p.is_polynomial()
        assert not p.uses_p_symbols()


def test_u4_golden():
    u4 = cl.polynomial_form(4)
    want = cl.U3 ** 2 * cl.U0 - 2 * cl.U3 * cl.U2 * cl.U1 + cl.U2 ** 3
    assert u4 == want
    assert str(u4) == "U3^2*U0 - 2*U3*U2*U1 + U2^3"


def test_coefficient_table_matches_the_closed_formula_with_p_eliminated():
    # the table against the other route to U_{n+3}, not against
    # polynomial_form, which reads the table
    for n in range(0, 6):
        assert cl.coefficient_polynomial(n) == cl.cluster_variable(n + 3).subs_p()


def test_coefficient_vanishing():
    # coefficient_polynomial raises if any out-of-range c_{n,a,b} is nonzero
    for n in range(0, 9):
        cl.coefficient_polynomial(n)


def test_coefficient_free_formula_agrees_with_specialization():
    # (U0, U1)-seed closed formula == P = 1 specialization of the
    # (U1, U2)-seed formula with the seed shift
    for n in range(2, 9):
        shifted = cl.cluster_variable(n + 1).specialize_coefficients().shift_seed_down()
        assert cl.coefficient_free_cluster(n) == shifted


def test_three_term_coefficient_free():
    us = {n: cl.coefficient_free_cluster(n) for n in range(0, 10)}
    t = (1 + us[0] ** 2 + us[1] ** 2).exact_div(us[0] * us[1])
    for n in range(1, 9):
        assert us[n + 1] == t * us[n] - us[n - 1]


def test_three_term_with_coefficients():
    z = cl.z_poly()
    pp = cl.p1_poly() * cl.p0_poly()
    us = {n: cl.polynomial_form(n) for n in range(3, 10)}
    for k in range(4, 9):
        assert us[k + 1] == z * us[k] - pp * us[k - 1]


def test_z_identity():
    assert cl.z_laurent().subs_p() == cl.z_poly()


def test_chebyshev_basis():
    z = cl.z_poly()
    assert cl.chebyshev_basis_element(0, "S") == cl.const(1)
    assert cl.chebyshev_basis_element(1, "S") == z
    assert cl.chebyshev_basis_element(2, "S") == z ** 2 - cl.p1_poly() * cl.p0_poly()
    assert cl.chebyshev_basis_element(0, "T") == cl.const(2)
    assert cl.chebyshev_basis_element(1, "T") == z
    # t_k and s_k satisfy the same recursion with different seeds
    pp = cl.p1_poly() * cl.p0_poly()
    for k in range(2, 5):
        for kind in ("S", "T"):
            assert cl.chebyshev_basis_element(k + 1, kind) == \
                z * cl.chebyshev_basis_element(k, kind) - pp * cl.chebyshev_basis_element(k - 1, kind)
    with pytest.raises(ValueError):
        cl.chebyshev_basis_element(2, "X")


def test_chebyshev_basis_matches_the_dickson_sums():
    # s_k = sum_j (-1)^j C(k-j, j) z^(k-2j) (P1 P0)^j, and t_k the same with
    # the factor k/(k-j): closed sums, not the recursion that builds them
    z = cl.z_poly()
    pp = cl.p1_poly() * cl.p0_poly()
    for k in range(9):
        s_k, t_k = cl.const(0), cl.const(2 if k == 0 else 0)
        for j in range(k // 2 + 1):
            c = (-1) ** j * cl.binomial(k - j, j)
            term = z ** (k - 2 * j) * pp ** j
            s_k += c * term
            if k:
                assert c * k % (k - j) == 0
                t_k += c * k // (k - j) * term
        assert cl.chebyshev_basis_element(k, "S") == s_k
        assert cl.chebyshev_basis_element(k, "T") == t_k


def test_swap_symmetry():
    assert cl.cluster_variable(0) == cl.cluster_variable(3).swap()
    u0 = cl.cluster_variable(0)
    assert u0 * cl.U2 == cl.U1 ** 2 + cl.P0_SYM
    # the reversed sequence satisfies the swapped exchange relation
    for m in (-1, -2):
        lhs = cl.cluster_variable(m - 1) * cl.cluster_variable(m + 1)
        rhs = cl.cluster_variable(m) ** 2 + cl.P0_SYM ** (2 - m) * cl.P1_SYM ** (-1 - m)
        assert lhs == rhs


def test_mutation_involutive_and_skew():
    b = cl.initial_exchange_matrix()
    assert b.is_skew_principal()
    for k in (0, 1):
        assert cl.mutate(cl.mutate(b, k), k) == b
        assert cl.mutate(b, k).is_skew_principal()
    with pytest.raises(IndexError):
        cl.mutate(b, 2)


def test_mutation_reproduces_quiver_figures():
    fig0, fig1, fig2 = cl.quiver_figure_matrices()
    m1 = cl.mutate(fig0, 0)
    assert m1 == fig1
    m2 = cl.mutate(m1, 1)
    assert m2 == fig2


def test_verify_classical_suite():
    assert all(e["ok"] for e in cl.verify_classical(8))


def test_failing_identities_carry_a_witness(monkeypatch):
    # z over the seed plus U0: the z entry fails and names the first
    # differing monomial; passing entries carry no detail
    z_laurent = cl.z_laurent
    monkeypatch.setattr(cl, "z_laurent", lambda: z_laurent() + cl.U0)
    rep = cl.verify_classical(6)
    bad = [e for e in rep if not e["ok"]]
    assert [e["identity"] for e in bad] == ["z = U3 U0 - U2 U1"]
    assert bad[0]["detail"] == qarith.diff_detail(cl.z_poly() + cl.U0, cl.z_poly())
    assert bad[0]["detail"] == "first differing monomial (0, 0, 0, 1, 0, 0): 1"
    assert all("detail" not in e for e in rep if e["ok"])


@pytest.mark.parametrize("seed_t, step", [(lambda pp: cl.const(2) + pp, lambda pp: 0),
                                          (lambda pp: cl.const(2), lambda pp: pp)],
                         ids=["t0-plus-pp", "step-plus-pp"])
def test_chebyshev_entry_checks_the_rows_against_the_closed_sums(monkeypatch, seed_t, step):
    # rows built by the recursion from a wrong t_0 still satisfy it; the
    # closed Dickson sums catch them, and rows built by a wrong recursion
    z, pp = cl.z_poly(), cl.p1_poly() * cl.p0_poly()

    def rows(k_max, kind):
        f = [cl.const(1) if kind == "S" else seed_t(pp), z]
        while len(f) <= k_max:
            f.append(z * f[-1] - pp * f[-2] + step(pp))
        return f[:k_max + 1]

    monkeypatch.setattr(cl, "_chebyshev_rows", rows)
    bad = [e["identity"] for e in cl.verify_classical(5) if not e["ok"]]
    assert bad == ["Chebyshev basis elements satisfy s_{k+1} = z s_k - P1 P0 s_{k-1}"]


def test_specialize_q1_cross_checks():
    for m in range(0, 4):
        b = dcb.b_element((m + 1, 0, 0, m))
        assert b.specialize_q1() == cl.polynomial_form(m + 3)
    for n in range(2, 5):
        b = dcb.b_element((n, 0, 0, n))
        assert b.specialize_q1() == cl.chebyshev_basis_element(n, "S")


def cluster_monomial(n, exponents):
    """The cluster monomial U_{n+1}^a1 U_n^a2 P1^a3 P0^a4 of the cluster
    containing U_n and U_{n+1}."""
    a1, a2, a3, a4 = exponents
    return (cl.cluster_variable(n + 1) ** a1 * cl.cluster_variable(n) ** a2
            * cl.P1_SYM ** a3 * cl.P0_SYM ** a4)


def test_cluster_monomial():
    m = cluster_monomial(4, (1, 2, 1, 0))
    assert m == cl.cluster_variable(5) * cl.cluster_variable(4) ** 2 * cl.P1_SYM


def test_exact_div_guard():
    with pytest.raises(ValueError):
        (cl.U1 + 1).exact_div(cl.U2 + 1)


def test_exact_div_needs_an_integral_quotient():
    with pytest.raises(ValueError, match="not divisible"):
        cl.U1.exact_div(cl.U1.scale(2))


def test_exact_div_takes_a_long_quotient():
    # 600 quotient terms from two-term operands; the twin of LaurentQ's
    # (q^600 - 1)/(q - 1)
    q = (cl.U1 ** 600 - 1).exact_div(cl.U1 - 1)
    assert q == sum((cl.U1 ** i for i in range(600)), cl.const(0))
    # the same length with a remainder: the last step leaves the box
    with pytest.raises(ValueError, match="not divisible"):
        (cl.U1 ** 600 + 1).exact_div(cl.U1 - 1)


def test_exact_div_refuses_at_once(monkeypatch):
    # a first step outside the quotient's exponent box (empty in U2 here),
    # or a lead coefficient that does not divide, raises before any step
    # reduces the remainder
    cases = [(cl.U1 + 1, cl.U2 + 1), (cl.U1, cl.U1.scale(2)), (cl.U1 ** 600 - 1, cl.U1 + cl.U2)]

    def no_step(*args):
        raise AssertionError("a reduction step ran")

    monkeypatch.setattr(cl, "add_into", no_step)
    for num, den in cases:
        with pytest.raises(ValueError, match="not divisible"):
            num.exact_div(den)


def test_coefficients_are_ints():
    with pytest.raises(TypeError):
        cl.CPoly({(0,) * 6: Fraction(1, 2)})
    with pytest.raises(TypeError):
        cl.U1.scale(Fraction(1, 2))


def test_cluster_memo_matches_uncached_calls():
    for n in range(-10, 15):
        assert cl.cluster_variable(n) == cl.cluster_variable.__wrapped__(n)
        assert cl.polynomial_form(n) == cl.polynomial_form.__wrapped__(n)


def test_polynomial_form_matches_the_closed_formula_with_p_eliminated():
    # n >= 3 is the c_{n,a,b} table and n < 0 its swap; subs_p of the
    # closed Laurent formula is the oracle
    for n in range(-10, 25):
        assert cl.polynomial_form(n) == cl.cluster_variable(n).subs_p(), n


def test_cold_polynomial_form_needs_no_deep_recursion():
    # a row is summed from the c_{n,a,b} table, not from the rows below
    # it, so a cold call stays a few frames deep
    import sys

    expected = cl.polynomial_form(50)
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    cl.polynomial_form.cache_clear()
    sys.setrecursionlimit(depth + 25)
    try:
        got = cl.polynomial_form(50)
    finally:
        sys.setrecursionlimit(limit)
        cl.polynomial_form.cache_clear()
    assert got == expected


def test_cluster_memo_is_not_changed_by_arithmetic():
    cached = cl.polynomial_form(5)
    before = dict(cached.terms)
    assert cached + cl.U0 != cached
    assert cached * cl.U0 != cached
    assert cl.polynomial_form(5) is cached
    assert cached.terms == before == cl.polynomial_form.__wrapped__(5).terms


def test_cluster_table_repeats_from_the_memo(capsys):
    from qkron import cli

    cl.cluster_variable.cache_clear()
    cl.polynomial_form.cache_clear()
    outs = []
    for _ in range(2):
        assert cli.main(["table", "cluster", "8..11"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert "U_11 (polynomial) = " in outs[0]


def _reference_product(x, y):
    """x * y by the plain double loop over both term lists."""
    out = {}
    for e1, c1 in x.terms.items():
        for e2, c2 in y.terms.items():
            e = tuple(u + v for u, v in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _random_cpoly(rng, n_terms):
    """n_terms terms (fewer if keys repeat): U exponents in -3..3, P
    exponents in 0..2, nonzero coefficients in -3..3."""
    terms = {}
    for _ in range(n_terms):
        e = tuple(rng.randint(-3, 3) for _ in range(4)) + (rng.randint(0, 2), rng.randint(0, 2))
        terms[e] = rng.choice((-3, -2, -1, 1, 2, 3))
    return cl.CPoly(terms)


def test_products_match_the_double_loop():
    # term counts 0..6 put the one-term factor on either side and the empty
    # CPoly among the operands
    rng = random.Random(5)
    seen_one_term = [False, False]
    for _ in range(400):
        x, y = _random_cpoly(rng, rng.randint(0, 6)), _random_cpoly(rng, rng.randint(0, 6))
        want = _reference_product(x, y)
        got = x * y
        assert got.terms == want, (x, y)
        assert 0 not in got.terms.values()
        seen_one_term[0] |= len(x.terms) == 1 < len(y.terms)
        seen_one_term[1] |= len(y.terms) == 1 < len(x.terms)
    assert all(seen_one_term)
    x = _random_cpoly(rng, 5)
    assert (x * cl.CPoly()).terms == (cl.CPoly() * x).terms == {}
    assert x * 3 == 3 * x == cl.CPoly(_reference_product(x, cl.const(3)))
    assert (x * 0).terms == (0 * x).terms == {}


def test_products_that_cancel_store_no_zero_coefficient():
    # the cross terms cancel: (U1 + U2 P0)(U1 - U2 P0) = U1^2 - U2^2 P0^2
    s, d = cl.U1 + cl.U2 * cl.P0_SYM, cl.U1 - cl.U2 * cl.P0_SYM
    assert (s * d).terms == {(0, 0, 2, 0, 0, 0): 1, (0, 2, 0, 0, 2, 0): -1}
    u, v = cl.cluster_variable(6), cl.cluster_variable(5)
    assert (u * v).terms == _reference_product(u, v)


def test_one_term_factor_is_a_shift_into_a_fresh_dict():
    # a monomial factor on either side writes a new dict, so the memoized
    # cluster variable is never aliased or changed
    u = cl.cluster_variable(7)
    before = dict(u.terms)
    for mono in (cl.CPoly({(0, -1, 2, 0, 1, 0): -2}), cl.const(1)):
        for got in (mono * u, u * mono):
            assert got.terms is not u.terms
            assert got.terms == _reference_product(mono, u)
            got.terms.clear()
    assert cl.cluster_variable(7) is u
    assert u.terms == before


def test_exact_div_undoes_a_product():
    rng = random.Random(11)
    for _ in range(150):
        x, y = _random_cpoly(rng, rng.randint(1, 5)), _random_cpoly(rng, rng.randint(1, 4))
        assert (x * y).exact_div(y) == x, (x, y)
    for n in range(3, 9):
        u, v = cl.cluster_variable(n), cl.cluster_variable(n + 1)
        assert (u * v).exact_div(v) == u


def test_subs_p_matches_the_term_by_term_substitution():
    # subs_p shifts p0^k per term and multiplies each P1 power once
    rng = random.Random(17)
    p0, p1 = cl.p0_poly(), cl.p1_poly()
    for _ in range(150):
        x = _random_cpoly(rng, rng.randint(0, 7))
        want = cl.CPoly()
        for e, c in x.terms.items():
            want += cl.CPoly({e[:4] + (0, 0): c}) * p0 ** e[4] * p1 ** e[5]
        assert x.subs_p() == want, x
    with pytest.raises(ValueError, match="negative power"):
        cl.CPoly({(0, 0, 0, 0, 1, -1): 1}).subs_p()


def test_coefficient_polynomial_matches_the_quadruple_sum():
    # c_{n,a,b} = sum over k + l <= n or (k, l) = (n + 1, 0) of
    # (-1)^(k+l+a+b+1) C(n-k, l) C(n+1-l, k) C(n+1-k, a) C(n-l, b), one
    # coefficient at a time; every one off the monomial range vanishes
    for n in range(15):
        want = {}
        for a in range(n + 2):
            for b in range(n + 1):
                c = 0
                for k in range(n + 2):
                    for l in range(n + 1):
                        if k + l <= n or (k, l) == (n + 1, 0):
                            c += ((-1) ** (k + l + a + b + 1) * cl.binomial(n - k, l)
                                  * comb(n + 1 - l, k) * comb(n + 1 - k, a) * comb(n - l, b))
                e2, e1 = n + 2 - 2 * a + b, n - 1 - 2 * b + a
                if e2 < 0 or e1 < 0:
                    assert c == 0, (n, a, b)
                elif c:
                    want[(a, e2, e1, b, 0, 0)] = c
        assert cl.coefficient_polynomial(n).terms == want, n


@pytest.fixture
def cold_cluster_memos():
    """Empty row memos on entry and on exit, so that no row built under a
    test's patch is read by a later test."""
    memos = (cl.cluster_variable, cl.polynomial_form)
    for f in memos:
        f.cache_clear()
    yield
    for f in memos:
        f.cache_clear()


def test_coefficient_polynomial_raises_on_an_out_of_range_coefficient(monkeypatch,
                                                                      cold_cluster_memos):
    # a single term (k, l, c) = (0, 0, 1) gives c_{n,0,n} = +-1 on U1^(-n-1);
    # the suite reports each entry that reads the table, with the message
    from qkron import cli

    monkeypatch.setattr(cl, "cluster_terms", lambda m, binom: iter([(0, 0, 1)]))
    with pytest.raises(AssertionError, match="invalid monomial"):
        cl.coefficient_polynomial(3)
    rep = cl.verify_classical(5) + cli._classical_cross_checks()
    bad = {e["identity"]: e.get("detail", "") for e in rep if not e["ok"]}
    for identity in ("U_4 = U3^2 U0 - 2 U3 U2 U1 + U2^3",
                     "c_{n,a,b} table matches U_{n+3}, out-of-range coefficients vanish",
                     "q=1 image of B[m+1,0,0,m] equals U_{m+3}"):
        assert bad[identity].endswith("on an invalid monomial"), identity
    # the closed formula, patched too, fails polynomiality before the table is read
    assert "polynomiality of U_n in U3,U2,U1,U0" in bad


_MIXED_OPERANDS = [
    pytest.param(lambda: cl.U1, lambda: pbw.generator(0), id="CPoly-PbwElement"),
    pytest.param(lambda: cl.U1, lambda: free_serre.FreeElement.word((1, 2)), id="CPoly-FreeElement"),
    pytest.param(lambda: cl.U1, lambda: qseed.torus_gen(3, 0), id="CPoly-TorusElement"),
    pytest.param(lambda: cl.U1, lambda: qarith.qpow(1), id="CPoly-LaurentQ"),
    pytest.param(lambda: free_serre.FreeElement.word((1, 2)), lambda: pbw.generator(0),
                 id="FreeElement-PbwElement"),
    pytest.param(lambda: free_serre.FreeElement.word((1, 2)), lambda: qseed.torus_gen(3, 0),
                 id="FreeElement-TorusElement"),
]


@pytest.mark.parametrize("swap", [False, True], ids=["ab", "ba"])
@pytest.mark.parametrize("left, right", _MIXED_OPERANDS)
def test_products_of_different_algebras_raise(left, right, swap):
    x, y = (right(), left()) if swap else (left(), right())
    with pytest.raises(TypeError):
        x * y
