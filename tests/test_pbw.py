import random
from itertools import product

import pytest

from qkron import classical, dcb, pbw, qseed
from qkron.qarith import LaurentQ, half_pow, lq_one, qpow

u0, u1, u2, u3 = (pbw.generator(i) for i in range(4))


def rand_element(rng, max_terms=3, max_exp=2):
    t = {}
    for _ in range(rng.randint(1, max_terms)):
        a = tuple(rng.randint(0, max_exp) for _ in range(4))
        t[a] = qpow(rng.randint(-3, 3)) * rng.randint(-4, 4) + qpow(rng.randint(-2, 2))
    return pbw.PbwElement(t)


def test_generators():
    assert pbw.generator(3).terms == {(1, 0, 0, 0): lq_one()}
    assert pbw.generator(0).terms == {(0, 0, 0, 1): lq_one()}
    assert pbw.exp_root_weight((0, 1, 0, 0)) == (3, 2)
    assert u2.root_weight() == (3, 2)


def test_straightening_rules():
    assert u0 * u1 == (u1 * u0).scale_qpow(-2)
    assert u1 * u2 == (u2 * u1).scale_qpow(-2)
    assert u2 * u3 == (u3 * u2).scale_qpow(-2)
    assert u0 * u2 == (u2 * u0).scale_qpow(-2) + (u1 * u1).scale(qpow(-2) - 1)
    assert u1 * u3 == (u3 * u1).scale_qpow(-2) + (u2 * u2).scale(qpow(-2) - 1)
    assert u0 * u3 == (u3 * u0).scale_qpow(-2) + (u2 * u1).scale(qpow(-4) - 1)


def test_associativity_all_generator_triples():
    gens = [u0, u1, u2, u3]
    for x, y, z in product(gens, repeat=3):
        assert (x * y) * z == x * (y * z)


def test_associativity_randomized():
    rng = random.Random(11)
    for _ in range(12):
        x, y, z = (rand_element(rng) for _ in range(3))
        assert (x * y) * z == x * (y * z)


def test_homogeneity_preserved():
    rng = random.Random(12)
    for _ in range(20):
        a = tuple(rng.randint(0, 2) for _ in range(4))
        b = tuple(rng.randint(0, 2) for _ in range(4))
        x = pbw.monomial(a) * pbw.monomial(b)
        assert x.is_homogeneous()
        wa, wb = pbw.exp_root_weight(a), pbw.exp_root_weight(b)
        assert x.root_weight() == (wa[0] + wb[0], wa[1] + wb[1])


def test_sigma_on_generators():
    for i in range(4):
        g = pbw.generator(i)
        assert g.sigma() == g.scale_qpow(2 * i)


def test_sigma_involution_and_antihom():
    rng = random.Random(13)
    for _ in range(10):
        x = rand_element(rng)
        y = rand_element(rng)
        assert x.sigma().sigma() == x
        assert (x * y).sigma() == y.sigma() * x.sigma()


def test_sigma_u3_u0_example():
    lhs = (u3 * u0).sigma()
    rhs = ((u3 * u0).scale_qpow(-2) + (u2 * u1).scale(qpow(-4) - 1)).scale_qpow(6)
    assert lhs == rhs


def word(a):
    """The letters of the normal monomial u3^a3 u2^a2 u1^a1 u0^a0."""
    return [i for i, e in zip((3, 2, 1, 0), a) for _ in range(e)]


_REF_RULES = {}
# (h, m) pairs, m q^(h/2), of q^-2 - 1 and q^-4 - 1: the corrections at distance 2 and 3
_REF_CORR = {2: ((-4, 1), (0, -1)), 3: ((-8, 1), (0, -1))}


def bump(a, i, d):
    """a with the exponent of u_i moved by d."""
    s = 3 - i
    return a[:s] + (a[s] + d,) + a[s + 1:]


def ref_add(out, rules, h, m):
    for (b, h2), m2 in rules.items():
        out[(b, h + h2)] = out.get((b, h + h2), 0) + m * m2


def ref_mono_times_gen(a, j):
    """Reference straightening of u^a u_j, derived one letter at a time, as a
    dict (b, h) -> m of the terms m q^(h/2) u^b.  With u_i the last letter of
    u^a = u^head u_i and i < j, u_i u_j = q^-2 u_j u_i + c u_l1 u_l2, where the
    correction c u_l1 u_l2 is (q^-2 - 1) u_{i+1}^2 at j - i = 2 and
    (q^-4 - 1) u2 u1 at j - i = 3; then u^head is moved past each letter."""
    key = (a, j)
    if key not in _REF_RULES:
        i = next((3 - s for s in (3, 2, 1, 0) if a[s]), None)
        if i is None or i >= j:
            out = {(bump(a, j, 1), 0): 1}
        else:
            head, out = bump(a, i, -1), {}
            for (b, h), m in ref_mono_times_gen(head, j).items():
                ref_add(out, ref_mono_times_gen(b, i), h - 4, m)
            if j - i > 1:
                l1, l2 = (i + 1, i + 1) if j - i == 2 else (2, 1)
                for (b, h), m in ref_mono_times_gen(head, l1).items():
                    for hc, mc in _REF_CORR[j - i]:
                        ref_add(out, ref_mono_times_gen(b, l2), h + hc, m * mc)
        _REF_RULES[key] = {k: m for k, m in out.items() if m}
    return _REF_RULES[key]


def ref_word_times(t, letters):
    """The flat dict t, (b, h) -> m, times the word of letters, straightened
    one letter at a time by `ref_mono_times_gen`."""
    for j in letters:
        nxt = {}
        for (b, h), m in t.items():
            ref_add(nxt, ref_mono_times_gen(b, j), h, m)
        t = nxt
    return t


def ref_element(t):
    """The terms of the flat dict t, (b, h) -> m, as an element would hold
    them: a LaurentQ per monomial that has a nonzero entry."""
    grouped = {}
    for (b, h), m in t.items():
        if m:
            grouped.setdefault(b, {})[h] = m
    return {b: LaurentQ(c) for b, c in grouped.items()}


def sigma_by_words(x):
    """Reference sigma, sharing no code with the kernel: straighten each
    term's reversed word on its own, one letter at a time."""
    out = {}
    for a, c in x.terms.items():
        a3, a2, a1, a0 = a
        k = 4 * (3 * a3 + 2 * a2 + a1)
        start = {((0, 0, 0, 0), k - h): m for h, m in c.terms.items()}
        ref_add(out, ref_word_times(start, word(a)[::-1]), 0, 1)
    return ref_element(out)


def product_by_words(x, y):
    """Reference product, sharing no code with the kernel: straighten the
    concatenated word of each pair of terms on its own, one letter at a time."""
    out = {}
    for a, c in x.terms.items():
        for b, d in y.terms.items():
            t = ref_word_times({(a, h): m for h, m in c.terms.items()}, word(b))
            for h, m in d.terms.items():
                ref_add(out, t, h, m)
    return ref_element(out)


def rand_coef(rng):
    return half_pow(rng.randint(-6, 6)) * rng.randint(-3, 3) + half_pow(rng.randint(-4, 4))


def test_product_matches_word_by_word_reference():
    rng = random.Random(18)
    # the products of u1^2 and q^-4 u2 u0 by p0 meet at u2 u1^2 u0 and cancel
    cancel = u1 * u1 + (u2 * u0).scale_qpow(-4)
    assert (0, 1, 2, 1) not in (cancel * pbw.p0()).terms
    cases = [(pbw.zero(), u3), (u3, pbw.zero()), (pbw.one(), u0 * u3), (u0 * u3, pbw.one()),
             (cancel, pbw.p0()), (cancel, u3 * u0), (u1 * u3, cancel)]
    for _ in range(30):
        x, y = (pbw.PbwElement({tuple(rng.randint(0, 3) for _ in range(4)): rand_coef(rng)
                                for _ in range(rng.randint(1, 5))}) for _ in range(2))
        cases.append((x, y))
    for n in range(1, 5):
        x, y = dcb.b_element((n, 0, 0, n - 1)), dcb.b_element((n + 1, 0, 0, n))
        cases += [(x, y), (y, x)]
    for n in range(7):
        xn = qseed.x_var(n)
        for p in (pbw.p0(), pbw.p1()):
            cases += [(xn, p), (p, xn)]
    for x, y in cases:
        assert (x * y).terms == product_by_words(x, y)


def test_product_straightens_once_per_u3_u2_prefix(monkeypatch):
    calls = []
    step = pbw._terms_times_gen

    def counted(terms, j, out=None):
        calls.append(j)
        return step(terms, j, out)

    x, y = dcb.b_element((5, 0, 0, 4)), dcb.b_element((6, 0, 0, 5))
    want = product_by_words(x, y)
    monkeypatch.setattr(pbw, "_terms_times_gen", counted)
    assert (x * y).terms == want
    assert set(calls) <= {2, 3}
    max_b2 = {}
    for b3, b2, _, _ in y.terms:
        max_b2[b3] = max(b2, max_b2.get(b3, 0))
    assert len(calls) == max(max_b2) + sum(max_b2.values())


def test_sigma_zero():
    assert pbw.zero().sigma() == pbw.zero()
    assert pbw.zero().sigma().terms == {}


def test_sigma_matches_word_by_word_reference():
    rng = random.Random(16)
    blocks = {}
    for k in (3, 4, 5):
        for a in dcb.layer_exponents(k):
            blocks.setdefault(pbw.exp_root_weight(a), []).append(a)
    wide = [b for b in blocks.values() if len(b) > 2]
    # sigma(u3 u0) = q^4 u3 u0 + (q^2 - q^6) u2 u1; the u2 u1 term cancels
    cancel = u3 * u0 + (u2 * u1).scale(qpow(-2) - qpow(2))
    cases = [pbw.zero(), pbw.one(), cancel]
    for _ in range(40):
        # mixed root weights
        cases.append(pbw.PbwElement({
            tuple(rng.randint(0, 3) for _ in range(4)): rand_coef(rng)
            for _ in range(rng.randint(1, 6))}))
        # one root weight, where the reversed words overlap most
        block = rng.choice(wide)
        cases.append(pbw.PbwElement({a: rand_coef(rng) for a in rng.sample(block, rng.randint(2, len(block)))}))
    assert cancel.sigma().terms == {(1, 0, 0, 1): qpow(4)}
    for x in cases:
        assert x.sigma().terms == sigma_by_words(x)


def test_sigma_matches_reference_on_layers():
    for k in range(7):
        for a, elem in dcb.layer_table(k):
            assert elem.sigma().terms == sigma_by_words(elem)


def test_closed_form_rules_match_the_recursive_reference():
    for a in product(range(11), repeat=4):
        if sum(a) <= 10:
            for j in range(4):
                rules = pbw._mono_times_gen(a, j)
                got = {(b, h): m for b, h, m in rules}
                assert len(got) == len(rules) and all(got.values())
                assert got == ref_mono_times_gen(a, j), (a, j)


def test_u0_power_times_u3_is_three_terms():
    # u0^n u3 = q^-2n u3 u0^n + (1 + q^-2) g(n) u2 u1 u0^(n-1) + g(n-1) (q^-2n - 1) u1^3 u0^(n-2)
    # with g(n) = q^(-2(n-1)) (q^-2n - 1)
    assert (pbw.monomial((0, 0, 0, 1200)) * u3).terms == {
        (1, 0, 0, 1200): qpow(-2400),
        (0, 1, 1, 1199): qpow(-4798) + qpow(-4800) - qpow(-2398) - qpow(-2400),
        (0, 0, 3, 1198): qpow(-7194) - qpow(-4796) - qpow(-4794) + qpow(-2396),
    }


def test_straightening_memo_holds_int_rules_and_keeps_half_powers(monkeypatch):
    for k in range(9):
        dcb.layer_table(k)
    dcb.b_element((2, 1, 0, 3)) * dcb.b_element((1, 2, 1, 0))
    assert pbw._GEN_CACHE
    for rules in pbw._GEN_CACHE.values():
        assert isinstance(rules, tuple) and rules
        for b, h, m in rules:
            assert isinstance(b, tuple) and len(b) == 4 and all(type(e) is int for e in b)
            assert type(h) is int and type(m) is int and m
        assert len({b for b, _, _ in rules}) <= 4

    # the memo keeps the pair asked for, and no intermediate one
    monkeypatch.setattr(pbw, "_GEN_CACHE", {})
    pbw.monomial((0, 0, 0, 1200)) * u3
    assert list(pbw._GEN_CACHE) == [((0, 0, 0, 1200), 3)]

    rng = random.Random(18)

    def rand_odd():
        # every coefficient has an odd half-exponent
        return pbw.PbwElement({
            tuple(rng.randint(0, 3) for _ in range(4)):
                half_pow(2 * rng.randint(-3, 3) + 1) * rng.randint(1, 3) + rand_coef(rng)
            for _ in range(rng.randint(1, 4))})

    root_q = half_pow(1)
    for _ in range(20):
        x, y = rand_odd(), rand_odd()
        assert (x.scale(root_q) * y).terms == (x * y).scale(root_q).terms
        assert x.scale(root_q).sigma().terms == x.sigma().scale(half_pow(-1)).terms


def test_p_elements():
    assert pbw.p1().terms == {(1, 0, 1, 0): lq_one(), (0, 2, 0, 0): -qpow(2)}
    assert pbw.p0().terms == {(0, 1, 0, 1): lq_one(), (0, 0, 2, 0): -qpow(2)}
    assert pbw.p0() * pbw.p1() == (pbw.p1() * pbw.p0()).scale_qpow(-4)


def test_p_commutation_table():
    p0, p1 = pbw.p0(), pbw.p1()
    gens = [u0, u1, u2, u3]
    for p, exps in ((p0, (2, 0, -2, -4)), (p1, (4, 2, 0, -2))):
        for g, e in zip(gens, exps):
            assert p * g == (g * p).scale_qpow(e)


def test_p_fact_table():
    # the named constants the straightening suite and the sigma derivation read
    assert pbw.P0_COMMUTE == (2, 0, -2, -4) and pbw.P1_COMMUTE == (4, 2, 0, -2)
    assert pbw.q_commutes(pbw.p0(), pbw.P0_COMMUTE) and pbw.q_commutes(pbw.p1(), pbw.P1_COMMUTE)
    assert not pbw.q_commutes(pbw.p0(), pbw.P1_COMMUTE)
    assert pbw.p0() * pbw.p1() == (pbw.p1() * pbw.p0()).scale_qpow(pbw.P0_P1_COMMUTE)
    assert pbw.p0().sigma() == pbw.p0().scale_qpow(2) and pbw.P0_SIGMA == 2
    assert pbw.p1().sigma() == pbw.p1().scale_qpow(6) and pbw.P1_SIGMA == 6


def test_u1_u3_power_identity():
    for l in range(1, 11):
        u3l = pbw.monomial((l, 0, 0, 0))
        lhs = u1 * u3l
        rhs = (u3l * u1).scale_qpow(-2 * l) + \
            (pbw.monomial((l - 1, 0, 0, 0)) * u2 * u2).scale(qpow(-4 * l + 2) - qpow(-2 * l + 2))
        assert lhs == rhs


def test_specialize_q1():
    assert pbw.p1().specialize_q1() == classical.p1_poly()
    assert pbw.p0().specialize_q1() == classical.p0_poly()
    assert (u0 * u1 - (u1 * u0).scale_qpow(-2)).specialize_q1() == classical.CPoly()
    b1001 = u3 * u0 - (u2 * u1).scale_qpow(2)
    assert b1001.specialize_q1() == classical.z_poly()


def test_render_parse_json():
    b = u3 * u1 - (u2 * u2).scale_qpow(2)
    assert str(b) == "u3*u1 - (q^2)*u2^2"
    assert str(pbw.one()) == "1"
    assert str(pbw.zero()) == "0"
    rng = random.Random(14)
    basis = [e for k in range(9) for e in dcb.layer_table(k).entries.values()]
    assert len(basis) == 495
    # B[12,0,0,30] is 105 kB of text
    basis += [dcb.b_element((12, 0, 0, 30)), dcb.b_element((3, 2, 1, 4))]
    for x in [rand_element(rng) for _ in range(15)] + basis:
        assert pbw.PbwElement.parse(str(x)) == x
        assert pbw.PbwElement.from_json_dict(x.to_json_dict()) == x


def test_parse_roundtrip_odd_half_steps():
    from qkron.qarith import half_pow

    x = (u3 * u3 * u0).scale(half_pow(-7)) + u2.scale(half_pow(3) + half_pow(-1))
    assert pbw.PbwElement.parse(str(x)) == x


@pytest.mark.parametrize("text, word, t", [("u0*u3", (0, 3), 0), ("(q)*u0*u0*u1", (0, 0, 1), 1)])
def test_parse_multiplies_a_word_out_of_normal_order(text, word, t):
    # u0*u3 = (q^-2)*u3*u0 + (-1 + q^-4)*u2*u1, not u3*u0
    assert pbw.PbwElement.parse(text) == word_product(word).scale_qpow(t)


def test_parse_reads_a_normal_ordered_word_without_straightening(monkeypatch):
    # each word of the canonical form is in normal order, so reading it
    # straightens nothing; a product by one term whose words are not in
    # normal order still does
    xs = [dcb.b_element((3, 2, 1, 4)), dcb.b_element((12, 0, 0, 30)), (u3 * u0).scale_qpow(3)]
    texts = [str(x) for x in xs]
    want = u0 * u3

    def refuse(*args):
        raise AssertionError("straightened")

    monkeypatch.setattr(pbw, "_terms_times_gen", refuse)
    assert [pbw.PbwElement.parse(t) for t in texts] == xs
    assert (u3 * u3) * u2 == pbw.monomial((2, 1, 0, 0))
    assert (u2 * u0) * pbw.one() == pbw.monomial((0, 1, 0, 1))
    monkeypatch.undo()
    assert pbw.PbwElement.parse("u0*u3") == want != pbw.monomial((1, 0, 0, 1))


def test_parse_refuses_a_negative_power():
    with pytest.raises(ValueError):
        pbw.PbwElement.parse("u3^-1")


def test_parse_takes_the_coefficient_up_to_the_last_parenthesis():
    assert pbw.PbwElement.parse("(q^(3/2) + 1)*u2") == u2.scale(half_pow(3) + 1)
    for bad in ("(q*u3", "(q^(3/2) + 1*u2"):
        with pytest.raises(ValueError):
            pbw.PbwElement.parse(bad)


def word_product(letters) -> pbw.PbwElement:
    """Straightened product u_{i_1} u_{i_2} ... for a letter sequence, one
    generator at a time on the int kernel."""
    t = {pbw._ZERO_EXP: {0: 1}}
    for i in letters:
        t = pbw._terms_times_gen(t, i)
    return pbw._element(t)


def test_word_product_equals_multiply():
    rng = random.Random(15)
    for _ in range(10):
        word = [rng.randint(0, 3) for _ in range(rng.randint(1, 6))]
        direct = word_product(word)
        step = pbw.one()
        for i in word:
            step = step * pbw.generator(i)
        assert direct == step


@pytest.mark.parametrize("b", [(0, 0, 2, 0), (1, 2, 3, 1)])
def test_q_product_drops_a_monomial_where_two_rules_cancel(b):
    # under x -> x p0, c u^b goes to c q^(-2b0-2b1) u^(b+(0,1,0,1)) by the
    # first rule, and c' u^b', b' = b + (0,1,-2,1), to -c' q^(-2b0) at the
    # same monomial by the second; c' = c q^(-2b1) cancels it
    b3, b2, b1, b0 = b
    c = qpow(1) * 3 + half_pow(-1)
    x = pbw.PbwElement({b: c, (b3, b2 + 1, b1 - 2, b0 + 1): c * qpow(-2 * b1)})
    meet = (b3, b2 + 1, b1, b0 + 1)
    for t in (-2, 0, 5):
        got = pbw.q_product(x, pbw.X_P0, t)
        assert got and meet not in got.terms
        assert all(all(c.terms.values()) for c in got.terms.values())
        assert got == (x * pbw.p0()).scale_qpow(t)


def test_q_product_rules_match_straightening():
    rng = random.Random(17)
    # under x -> x p0 the images of u1^2 and q^-4 u2 u0 meet at u2 u1^2 u0
    # and cancel; so do those of u2^2 and q^-4 u3 u1 under x -> p1 x
    cancel_p0 = u1 * u1 + (u2 * u0).scale_qpow(-4)
    cancel_p1 = u2 * u2 + (u3 * u1).scale_qpow(-4)
    assert (0, 1, 2, 1) not in (cancel_p0 * pbw.p0()).terms
    assert (1, 2, 1, 0) not in (pbw.p1() * cancel_p1).terms
    cases = [pbw.zero(), pbw.one(), cancel_p0, cancel_p1]
    for _ in range(30):
        cases.append(pbw.PbwElement({tuple(rng.randint(0, 4) for _ in range(4)): rand_coef(rng)
                                     for _ in range(rng.randint(1, 5))}))
    factors = [(pbw.X_P0, pbw.p0(), True), (pbw.P1_X, pbw.p1(), False),
               (pbw.X_U0, u0, True), (pbw.X_U1, u1, True),
               (pbw.U2_X, u2, False), (pbw.U3_X, u3, False)]
    for rules, f, right in factors:
        for x in cases:
            want = x * f if right else f * x
            for t in range(-3, 4):
                assert pbw.q_product(x, rules, t).terms == want.scale_qpow(t).terms
