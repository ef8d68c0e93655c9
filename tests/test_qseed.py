import random

import pytest

from qkron import classical, dcb, pbw, qarith, qseed
from qkron.qarith import half_pow, lq_one, qpow


def test_rescaled_variables():
    for i in range(3):
        assert qseed.x_var(i) == pbw.generator(i).scale(half_pow(-1))
    # both definitions of X_3 agree
    assert qseed.x_var(3) == pbw.generator(3).scale(half_pow(-1))
    assert qseed.x_var(5) == dcb.b_element((3, 0, 0, 2)).scale(half_pow(-25))
    assert qseed.y0_var() == pbw.p0().scale_qpow(-2)
    assert qseed.y1_var() == pbw.p1().scale_qpow(-2)


def test_rescaled_parity():
    for n in range(3, 7):
        x = qseed.x_var(n)
        assert all(h % 2 == 1 for c in x.terms.values() for h in c.terms)
        sq = x * x
        assert sq.is_integral()


def test_l_matrix():
    L = qseed.l_matrix(3)
    assert L[0] == (0, 2, 4, 2)
    for n in range(3, 8):
        L = qseed.l_matrix(n)
        assert all(L[i][j] == -L[j][i] for i in range(4) for j in range(4))
        assert L[2][3] == -4 and L[3][2] == 4


def test_quasi_commutation():
    assert all(e["ok"] for e in qseed.verify_quasi_commutation(4))


def test_failing_entries_carry_a_witness(monkeypatch):
    # Y1 replaced by u2: its commutations fail, and each failure names the
    # first differing monomial; passing entries carry no detail
    u2 = pbw.generator(2)
    monkeypatch.setattr(qseed, "y1_var", lambda: u2)
    for rep in (qseed.verify_quasi_commutation(3), qseed.verify_algebra_matches_l(3)):
        assert not all(e["ok"] for e in rep)
        assert all(("detail" in e) != e["ok"] for e in rep)
    e = qseed.verify_quasi_commutation(3)[0]
    y0 = qseed.y0_var()
    assert e["identity"] == "Y0 Y1 = q^-4 Y1 Y0"
    assert e["detail"] == qarith.diff_detail(y0 * u2, (u2 * y0).scale_qpow(-4))
    assert e["detail"].startswith("first differing monomial ")
    assert qseed.verify_algebra_matches_l(3)[0]["detail"].startswith("X_{n+1} Y_1: first differing monomial ")


def test_a_wrong_cluster_variable_fails_quasi_commutation(monkeypatch):
    # a wrong B[5,0,0,4] that its core certificate passes (the cores the
    # products walk are certified before it is patched in): the products
    # walk the construction of their right factor, so the wrong element
    # comes in as a left factor, and each failing entry names a witness
    dcb._certify_core((6, 0, 0, 5))
    wrong = dcb.b_element((5, 0, 0, 4)).scale_qpow(1)
    monkeypatch.setitem(dcb._B_CACHE, (5, 0, 0, 4), wrong)
    monkeypatch.setitem(dcb._CHECKED_CORES, (5, 0, 0, 4), wrong)
    rep = qseed.verify_quasi_commutation(5)
    bad = [e for e in rep if not e["ok"]]
    assert bad and all(("detail" in e) != e["ok"] for e in rep)
    assert {(e["identity"], e["n"]) for e in bad} == {
        ("B[n,0,0,n-1] B[n+1,0,0,n] = q^2 B[n+1,0,0,n] B[n,0,0,n-1]", n) for n in (4, 5)}
    assert all(e["detail"].startswith("first differing monomial ") for e in bad)


def test_quantum_exchange():
    assert all(e["ok"] for e in qseed.verify_quantum_exchange(4))


def test_algebra_matches_l():
    assert all(e["ok"] for e in qseed.verify_algebra_matches_l(6))


def test_torus_monomials():
    n = 3
    assert qseed.torus_m((0, 0, 0, 0), n) == qseed.TorusElement(n, {(0, 0, 0, 0): lq_one()})
    assert qseed.torus_m((1, 0, 0, 0), n) == qseed.torus_gen(n, 0)
    # prefactor consistency through multiplication
    m1 = qseed.torus_m((-1, 2, 0, 0), n)
    m2 = qseed.torus_m((1, 0, 0, 0), n)
    prod = m1 * m2
    assert set(prod.terms) == {(0, 2, 0, 0)}
    assert prod.terms[(0, 2, 0, 0)] == qpow(-2)


def test_torus_associativity_and_inverses():
    rng = random.Random(31)
    n = 4
    for _ in range(15):
        a, b, c = (tuple(rng.randint(-2, 2) for _ in range(4)) for _ in range(3))
        x = qseed.torus_m(a, n)
        y = qseed.torus_m(b, n)
        z = qseed.torus_m(c, n)
        assert (x * y) * z == x * (y * z)
        assert x * qseed.torus_m(tuple(-v for v in a), n) == qseed.torus_m((0, 0, 0, 0), n)


def test_mixed_l_rejected():
    with pytest.raises(ValueError):
        qseed.torus_gen(3, 0) * qseed.torus_gen(4, 0)


def test_bz_exchange():
    assert all(e["ok"] for e in qseed.verify_bz_exchange(4))


def seed_exchange_matrix(n):
    """The 4x2 exchange matrix of the quantum seed (X_n, X_{n+1}, Y_0, Y_1)."""
    return classical.ExchangeMatrix([[0, 2], [-2, 0], [n - 3, -n + 4], [n, -n + 1]])


def test_seed_exchange_matrix_from_mutation():
    # iterating genuine seed mutation from the initial classical seed
    # reproduces the n-indexed quantum exchange matrices
    _, mats = classical.seed_mutation_sequence(8)
    # mats[i] is the matrix of the seed after i mutations, variables in slot
    # order; realign slots so the lower subscript comes first
    for n in range(3, 7):
        m = mats[n - 1]
        rows = [list(r) for r in m.rows]
        if (n - 1) % 2 == 1:
            rows = [[r[1], r[0]] for r in (rows[1], rows[0], rows[2], rows[3])]
        assert rows == [list(r) for r in seed_exchange_matrix(n).rows]


def test_l_and_b_compatible():
    # B(n)^T L(n) = -2 (Id | 0): the seed pair is compatible
    for n in range(3, 7):
        B = seed_exchange_matrix(n).rows
        L = qseed.l_matrix(n)
        prod = [[sum(B[k][i] * L[k][j] for k in range(4)) for j in range(4)] for i in range(2)]
        assert prod == [[-2, 0, 0, 0], [0, -2, 0, 0]]


def _reference_torus_product(x, y):
    """x * y by the docstring's double sum: q^((1/2) sum_{i>j} (a_i b_j -
    a_j b_i) L_ij) x^(a+b) for every pair of terms."""
    L = qseed.l_matrix(x.n)
    out = qseed.TorusElement(x.n)
    for a, ca in x.terms.items():
        for b, cb in y.terms.items():
            h = sum((a[i] * b[j] - a[j] * b[i]) * L[i][j] for i in range(4) for j in range(i))
            out += qseed.TorusElement(x.n, {tuple(u + v for u, v in zip(a, b)): ca * cb * half_pow(h)})
    return out


def test_torus_product_matches_the_double_sum():
    # the product reads a^T L b; pin it against the skew double sum, with
    # one-term coefficients, and then with coefficients of up to three
    # terms, each term m q^(h/2) of a left coefficient applied as a shift
    # and a scale
    rng = random.Random(23)

    def element(n, size=1):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            a = tuple(rng.randint(-3, 3) for _ in range(4))
            terms[a] = qarith.LaurentQ({rng.randint(-5, 5): rng.choice((-2, -1, 1, 3))
                                        for _ in range(size)})
        return qseed.TorusElement(n, terms)

    for n in range(3, 8):
        for _ in range(40):
            x, y = element(n), element(n)
            assert x * y == _reference_torus_product(x, y), (n, x, y)
    for n in range(3, 6):
        for _ in range(40):
            x, y = element(n, rng.randint(1, 3)), element(n, rng.randint(1, 3))
            assert x * y == _reference_torus_product(x, y), (n, x, y)


def test_bz_exchange_makes_six_laurent_products(monkeypatch):
    # every torus coefficient here is +-q^(h/2), folded into the shift; the
    # six products left are scale_qpow's, two per n
    calls = []
    mul = qarith.LaurentQ.__mul__

    def counted(a, b):
        calls.append(1)
        return mul(a, b)

    monkeypatch.setattr(qarith.LaurentQ, "__mul__", counted)
    assert all(e["ok"] for e in qseed.verify_bz_exchange(5))
    assert len(calls) == 6
