import random
from fractions import Fraction
from pathlib import Path

import pytest

from qkron import classical, free_serre, pbw, qseed
from qkron.qarith import (
    LaurentQ,
    Terms,
    bar,
    half_pow,
    lq_one,
    lq_zero,
    qpow,
    quantum_binom,
    quantum_factorial,
    quantum_int,
    split_antisymmetric,
)


def rand_laurent(rng, span=6, size=5):
    return LaurentQ({2 * rng.randint(-span, span): rng.randint(-9, 9) for _ in range(size)})


def test_quantum_int_examples():
    assert quantum_int(3) == qpow(2) + 1 + qpow(-2)
    assert quantum_int(0) == lq_zero()
    assert quantum_int(1) == lq_one()
    assert quantum_int(2) == qpow(1) + qpow(-1)
    assert quantum_int(-4) == -quantum_int(4)


def test_quantum_binom_examples():
    assert quantum_binom(-2, 1) == -qpow(1) - qpow(-1)
    for n in range(-5, 6):
        assert quantum_binom(n, 0) == lq_one()
        assert quantum_binom(n, -3) == lq_zero()
    # independent oracle: expand the defining product and divide exactly
    num = quantum_int(5) * quantum_int(4)
    den = quantum_int(2) * quantum_int(1)
    assert quantum_binom(5, 2) == num.exact_div(den)


def test_quantum_binom_negative_n_oracle():
    for n in range(-6, 0):
        for k in range(0, 5):
            num = lq_one()
            for j in range(k):
                num = num * quantum_int(n - j)
            assert quantum_binom(n, k) == num.exact_div(quantum_factorial(k))


def test_quantum_factorial():
    assert quantum_factorial(0) == lq_one()
    assert quantum_factorial(2) == quantum_int(2) * quantum_int(1)
    assert quantum_factorial(3) == quantum_int(2) * quantum_int(3)


def test_pascal_identities():
    rng = random.Random(1)
    for _ in range(40):
        n = rng.randint(-10, 10)
        k = rng.randint(0, 10)
        b = quantum_binom(n, k)
        assert b == qpow(k) * quantum_binom(n - 1, k) + qpow(k - n) * quantum_binom(n - 1, k - 1)
        assert b == qpow(-k) * quantum_binom(n - 1, k) + qpow(n - k) * quantum_binom(n - 1, k - 1)


def test_specialization_at_q1():
    from math import comb

    for n in range(0, 13):
        for k in range(0, n + 1):
            assert quantum_binom(n, k).at_q1() == comb(n, k)


def test_bar_involution_and_hom():
    rng = random.Random(2)
    assert bar(qpow(2) + half_pow(-2)) == qpow(-2) + half_pow(2)
    assert bar(half_pow(1)) == half_pow(-1)
    for k in range(0, 12):
        assert bar(quantum_int(k)) == quantum_int(k)
    for _ in range(25):
        x, y = rand_laurent(rng), rand_laurent(rng)
        assert bar(bar(x)) == x
        assert bar(x * y) == bar(x) * bar(y)
        assert bar(x + y) == bar(x) + bar(y)


def test_ring_axioms_randomized():
    rng = random.Random(3)
    for _ in range(25):
        x, y, z = rand_laurent(rng), rand_laurent(rng), rand_laurent(rng)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + y == y + x
        assert x * y == y * x


def test_quantum_int_via_chebyshev():
    # [k] = S_{k-1}([2]) for the Chebyshev recurrence S_{k+1} = X S_k - S_{k-1}
    two = quantum_int(2)
    for k in range(1, 21):
        assert quantum_int(k + 1) == two * quantum_int(k) - quantum_int(k - 1)


def test_split_antisymmetric():
    assert split_antisymmetric(qpow(3) - qpow(-3)) == qpow(3)
    assert split_antisymmetric(lq_zero()) == lq_zero()
    x = 2 * qpow(1) - 2 * qpow(-1) + qpow(4) - qpow(-4)
    assert split_antisymmetric(x) == 2 * qpow(1) + qpow(4)
    with pytest.raises(ValueError):
        split_antisymmetric(qpow(1) + qpow(-1))
    with pytest.raises(ValueError):
        split_antisymmetric(half_pow(1) - half_pow(-1))
    with pytest.raises(TypeError):
        LaurentQ({2: Fraction(1, 2), -2: Fraction(-1, 2)})


def test_exact_div():
    x = quantum_int(6) * quantum_int(5) * qpow(-3)
    assert x.exact_div(quantum_int(5)) == quantum_int(6) * qpow(-3)
    with pytest.raises(ValueError):
        (qpow(1) + 1).exact_div(qpow(1) - 1)
    # divisible over Q but not over Z
    with pytest.raises(ValueError, match="not divisible"):
        (qpow(1) + 1).exact_div(2 * qpow(1) + 2)


def test_render_and_parse_roundtrip():
    assert str(quantum_int(3)) == "q^2 + 1 + q^-2"
    assert str(quantum_binom(-2, 1)) == "-q - q^-1"
    assert str(half_pow(1)) == "q^(1/2)"
    assert str(half_pow(-3)) == "q^(-3/2)"
    assert str(lq_zero()) == "0"
    assert str(2 * qpow(3) + qpow(4)) == "q^4 + 2*q^3"
    with pytest.raises(TypeError):
        LaurentQ({0: Fraction(3, 2)})
    with pytest.raises(ValueError):
        LaurentQ.parse("3/2")
    rng = random.Random(4)
    for _ in range(30):
        x = LaurentQ({rng.randint(-9, 9): rng.randint(-40, 40) for _ in range(5)})
        assert LaurentQ.parse(str(x)) == x


# the canonical text and LaTeX forms, pinned: (element, text, LaTeX)
_U = pbw.generator
TEXT_FORMS = {
    "laurent-zero": (lambda: lq_zero(), "0", "0"),
    "laurent-mixed": (lambda: LaurentQ({4: -1, 3: 1, 0: 3, -1: -2, -4: 5}),
                      "-q^2 + q^(3/2) + 3 - 2*q^(-1/2) + 5*q^-2",
                      "-q^{2}+q^{3/2}+3-2q^{-1/2}+5q^{-2}"),
    "laurent-units": (lambda: LaurentQ({2: 1, 0: -1, -3: -1}),
                      "q - 1 - q^(-3/2)", "q^{1}-1-q^{-3/2}"),
    "laurent-constant": (lambda: LaurentQ.from_int(-7), "-7", "-7"),
    "laurent-half": (lambda: 2 * half_pow(1), "2*q^(1/2)", "2q^{1/2}"),
    "pbw-zero": (lambda: pbw.zero(), "0", "0"),
    "pbw-mixed": (lambda: -_U(3) * _U(1) + (_U(2) * _U(2)).scale(qpow(2) - qpow(-1))
                  - _U(1).scale(half_pow(3) + 1) + pbw.scalar(-1),
                  "-u3*u1 + (q^2 - q^-1)*u2^2 - (q^(3/2) + 1)*u1 - 1",
                  "-u_3u_1+(q^{2}-q^{-1})u_2^{2}-(q^{3/2}+1)u_1-1"),
    "pbw-half": (lambda: _U(0).scale(2 * half_pow(-1)) + pbw.one(),
                 "(2*q^(-1/2))*u0 + 1", "(2q^{-1/2})u_0+1"),
    "pbw-constant": (lambda: pbw.scalar(-2 * qpow(1)), "-(2*q)*1", "-(2q^{1})1"),
    "cpoly-zero": (lambda: classical.CPoly(), "0", "0"),
    "cpoly-mixed": (lambda: classical.CPoly({(1, 0, 0, 1, 0, 0): -1, (0, 1, 1, 0, 0, 0): 1,
                                             (0, -1, 2, 0, 1, 0): -3, (0,) * 6: 1}),
                    "-U3*U0 + U2*U1 + 1 - 3*U2^-1*U1^2*P0",
                    "-U_3U_0+U_2U_1+1-3U_2^{-1}U_1^{2}P_0"),
    "cpoly-constant": (lambda: 4 * classical.var("P1", 2) - 2, "4*P1^2 - 2", "4P_1^{2}-2"),
    "free-zero": (lambda: free_serre.FreeElement(), "0", "0"),
    "free-mixed": (lambda: free_serre.FreeElement({(2, 1): -qpow(1), (1, 1, 2): lq_one(),
                                                   (1,): qpow(2) - 1, (): -half_pow(1) - 1}),
                   "-(q)*E2*E1 + E1*E1*E2 + (q^2 - 1)*E1 - (q^(1/2) + 1)*1",
                   "-(q^{1})E_2E_1+E_1E_1E_2+(q^{2}-1)E_1-(q^{1/2}+1)1"),
    "torus-zero": (lambda: qseed.TorusElement(3), "0", "0"),
    "torus-mixed": (lambda: qseed.TorusElement(3, {(1, 0, 0, -1): lq_one(), (0, 2, 1, 0): -qpow(-1),
                                                   (0, 0, 0, 0): 2 * half_pow(1)}),
                    "X3*Y1^-1 - (q^-1)*X4^2*Y0 + (2*q^(1/2))*1",
                    "X_{3}Y_1^{-1}-(q^{-1})X_{4}^{2}Y_0+(2q^{1/2})1"),
}


@pytest.mark.parametrize("name", list(TEXT_FORMS))
def test_text_and_latex_forms(name):
    make, text, latex = TEXT_FORMS[name]
    x = make()
    assert str(x) == text and x.to_latex() == latex
    if isinstance(x, (LaurentQ, pbw.PbwElement)):
        assert type(x).parse(text) == x


@pytest.mark.parametrize("cls, s", [(pbw.PbwElement, ""), (LaurentQ, ""), (LaurentQ, "1 +"),
                                    (LaurentQ, "1 + + q"), (LaurentQ, "-"),
                                    (pbw.PbwElement, "u0 - ")],
                         ids=lambda v: v.__name__ if isinstance(v, type) else repr(v))
def test_parse_rejects_empty_terms(cls, s):
    with pytest.raises(ValueError):
        cls.parse(s)


def test_eval_q():
    assert quantum_int(3).eval_q(2) == Fraction(4) + 1 + Fraction(1, 4)
    with pytest.raises(ValueError):
        half_pow(1).eval_q(2)


# one element of each sparse-sum type, built from two summands x and y,
# and whether an int operand stands for that multiple of 1
TERMS_CASES = {
    "LaurentQ": (lambda: (qpow(1) + 2, half_pow(3) * 5), True),
    "PbwElement": (lambda: (pbw.p0() + 2, pbw.generator(3).scale_qpow(1)), True),
    "CPoly": (lambda: (classical.z_poly() - 3, classical.U2 * 5), True),
    "FreeElement": (lambda: (free_serre.serre_relators()[0],
                             free_serre.FreeElement({(2, 1): -qpow(1)})), False),
    # n = 3, where the quantum seed and so the torus product start
    "TorusElement": (lambda: (qseed.torus_gen(3, 0) + qseed.torus_gen(3, 3).scale(half_pow(3)),
                              qseed.torus_gen(3, 1)), False),
}


@pytest.mark.parametrize("name", list(TERMS_CASES))
def test_terms_module_operations(name):
    make, takes_ints = TERMS_CASES[name]
    x, y = make()
    assert isinstance(x, Terms) and type(x).__name__ == name
    for zero in (x - x, x + (-x), x.scale(0), -x + x):
        assert zero.terms == {} and not zero
    total = (x + y) - y
    assert total == x and 0 not in total.terms.values()
    assert -(-x) == x
    assert x + y == y + x and x.scale(-1) == -x
    if takes_ints:
        assert 1 + x - x == 1 and x - x == 0 and x + 0 == x
        assert (3 - x) + x == 3 and x != 1
        assert hash(total) == hash(x) and hash(y + x) == hash(x + y)
        for c in (0, 1, -3):
            # an element equal to an int hashes as that int
            assert hash(x - x + c) == hash(c) and len({x - x + c, c}) == 1
        assert x ** 0 == 1 and x ** 3 == x * x * x
        with pytest.raises(ValueError):
            x ** -1
    else:
        with pytest.raises(TypeError):
            x + 1
    if name == "TorusElement":
        # y is a monomial, which inverts
        assert y ** -1 * y == qseed.torus_m((0, 0, 0, 0), y.n)
        assert repr(x) == f"TorusElement(n={x.n}, {x})"
    else:
        assert repr(x) == f"{name}({x})"
    if name == "FreeElement":
        with pytest.raises(TypeError):
            x ** 2


def test_laurent_and_pbw_do_not_mix():
    for op in (lambda: pbw.one() - qpow(1), lambda: qpow(1) + pbw.one(),
               lambda: qpow(1) - pbw.one()):
        with pytest.raises(TypeError):
            op()


def test_torus_elements_over_different_matrices_do_not_mix():
    x, y = qseed.torus_gen(2, 0), qseed.torus_gen(3, 0)
    assert x.terms == y.terms and x != y
    for op in (lambda: x + y, lambda: x - y, lambda: x * y):
        with pytest.raises(ValueError, match="different L matrices"):
            op()
    assert (x + x).n == 2 and (-x).n == 2 and x.scale(2).n == 2


def test_tracer_wraps_and_restores_methods(monkeypatch):
    # the benchmark's tracer wraps LaurentQ and PbwElement methods read from
    # each class's own __dict__; install raises KeyError if one moved to a base
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import spans

    add = LaurentQ.__dict__.get("__add__")
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        assert LaurentQ.__dict__["__add__"] is not add
    finally:
        tracer.uninstall()
    assert LaurentQ.__dict__["__add__"] is add
