from fractions import Fraction

import pytest

from qkron import classical as cl
from qkron import dcb


def test_binomial():
    assert cl.binomial(-1, 0) == 1
    assert cl.binomial(-2, 1) == -2
    assert cl.binomial(5, 2) == 10
    assert cl.binomial(3, -1) == 0
    assert cl.binomial(-3, 3) == -10


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


def test_coefficient_table_matches_polynomial_form():
    for n in range(0, 6):
        assert cl.coefficient_polynomial(n) == cl.polynomial_form(n + 3)


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


def test_specialize_q1_cross_checks():
    for m in range(0, 4):
        b = dcb.b_element((m + 1, 0, 0, m))
        assert b.specialize_q1() == cl.polynomial_form(m + 3)
    for n in range(2, 5):
        b = dcb.b_element((n, 0, 0, n))
        assert b.specialize_q1() == cl.chebyshev_basis_element(n, "S")


def test_cluster_monomial():
    m = cl.cluster_monomial(4, (1, 2, 1, 0))
    assert m == cl.cluster_variable(5) * cl.cluster_variable(4) ** 2 * cl.P1_SYM


def test_exact_div_guard():
    with pytest.raises(ValueError):
        (cl.U1 + 1).exact_div(cl.U2 + 1)


def test_exact_div_needs_an_integral_quotient():
    with pytest.raises(ValueError, match="not divisible"):
        cl.U1.exact_div(cl.U1.scale(2))


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
    # n >= 5 is built by the three-term recursion; subs_p is the oracle
    for n in range(-10, 25):
        assert cl.polynomial_form(n) == cl.cluster_variable(n).subs_p(), n


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
