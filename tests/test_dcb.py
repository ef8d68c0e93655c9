import functools
import json
import random
import re
import sys

import pytest

from qkron import dcb, pbw, qarith
from qkron.qarith import lq_one, qpow

u0, u1, u2, u3 = (pbw.generator(i) for i in range(4))


def B(*a):
    return dcb.b_element(a)


def test_b_element_memo_hit_and_normalization():
    x = B(1, 0, 0, 1)
    assert B(1, 0, 0, 1) is x                      # a hit is the memo's own object
    assert dcb.b_element([1, 0, 0, 1]) is x        # any other sequence is normalized first
    assert dcb.b_element(iter((1, 0, 0, 1))) is x
    for a in ((1, 0, -1, 1), [0, -2, 0, 0]):
        assert dcb.b_element(a) == pbw.zero()
    assert (1, 0, -1, 1) not in dcb._B_CACHE


@pytest.mark.parametrize("a, exc", [((1.5, 0, 0, 0), TypeError), (("1", 0, 0, 0), TypeError),
                                    ((1, 0, 0), ValueError), ((1, 0, 0, 0, 2), ValueError),
                                    ([1, 0, 0, -1, 0], ValueError)])
def test_b_element_refuses_a_non_integer_or_wrong_length_index(a, exc):
    # a coordinate is an integer by `operator.index`, not truncated by int(),
    # and an index has four of them
    with pytest.raises(exc):
        dcb.b_element(a)


def test_b_element_refuses_a_float_index_whatever_the_memo_holds():
    # (1.0, 0, 0, 0) equals (1, 0, 0, 0) and hashes like it, so a memo hit
    # must not answer for it: before and after the int index is memoized,
    # the float is refused
    with pytest.raises(TypeError):
        dcb.b_element((1.0, 0, 0, 0))
    assert dcb.b_element((1, 0, 0, 0)) == u3
    assert (1, 0, 0, 0) in dcb._B_CACHE
    for a in ((1.0, 0, 0, 0), (1, 0, 0, 0.0)):
        with pytest.raises(TypeError):
            dcb.b_element(a)
    assert dcb.b_element((True, 0, 0, 0)) is dcb.b_element((1, 0, 0, 0))


def test_stats():
    assert dcb.stat_n((1, 0, 0, 0)) == -6
    assert dcb.stat_n((0, 0, 0, 1)) == 0
    assert dcb.stat_n((1, 0, 0, 1)) == -4
    assert dcb.stat_b((2, 0, 0, 1)) == 1
    assert dcb.stat_b((1, 1, 1, 1)) == 0
    assert dcb.stat_b((0, 3, 0, 0)) == 3


def test_order():
    assert dcb.order_leq((1, 0, 1, 0), (1, 0, 1, 0))
    assert dcb.order_leq((1, 0, 1, 0), (0, 2, 0, 0))
    assert dcb.order_leq((1, 0, 0, 1), (0, 1, 1, 0))
    assert not dcb.order_leq((0, 2, 0, 0), (1, 0, 1, 0))
    assert not dcb.order_leq((1, 0, 0, 1), (1, 0, 1, 0))


def test_n_invariance_along_order():
    for k in range(0, 9):
        exps = dcb.layer_exponents(k)
        for a in exps:
            for b in exps:
                if dcb.order_leq(a, b):
                    assert dcb.stat_n(a) == dcb.stat_n(b)


def test_dual_pbw():
    assert dcb.dual_pbw((0, 0, 0, 0)) == pbw.one()
    assert dcb.dual_pbw((2, 0, 0, 1)) == pbw.monomial((2, 0, 0, 1), qpow(1))
    assert dcb.dual_pbw((1, 1, 1, 1)) == pbw.monomial((1, 1, 1, 1))


def test_expand_in_dual_pbw():
    a = (2, 0, 0, 1)
    assert dcb.expand_in_dual_pbw(dcb.dual_pbw(a)) == {a: lq_one()}
    assert dcb.expand_in_dual_pbw(u3 * u1) == {(1, 0, 1, 0): lq_one()}
    assert dcb.expand_in_dual_pbw(pbw.p1()) == {(1, 0, 1, 0): lq_one(), (0, 2, 0, 0): -qpow(1)}


def test_layer_one_and_two_golden():
    t1 = dcb.compute_layer(1)
    assert t1.entries[(1, 0, 0, 0)] == u3
    assert t1.entries[(0, 1, 0, 0)] == u2
    assert t1.entries[(0, 0, 1, 0)] == u1
    assert t1.entries[(0, 0, 0, 1)] == u0
    t2 = dcb.compute_layer(2)
    assert t2.entries[(1, 0, 1, 0)] == pbw.p1()
    assert t2.entries[(0, 1, 0, 1)] == pbw.p0()
    assert t2.entries[(1, 0, 0, 1)] == u3 * u0 - (u2 * u1).scale_qpow(2)


def test_layer_three_four_golden():
    t3 = dcb.compute_layer(3)
    want = (u3 * u3 * u0).scale_qpow(1) \
        - (u3 * u2 * u1).scale(qpow(1) + qpow(3)) \
        + (u2 * u2 * u2).scale_qpow(5)
    assert t3.entries[(2, 0, 0, 1)] == want
    want = (u3 * u0 * u0).scale_qpow(1) \
        - (u2 * u1 * u0).scale(qpow(1) + qpow(3)) \
        + (u1 * u1 * u1).scale_qpow(5)
    assert t3.entries[(1, 0, 0, 2)] == want
    # B[2,0,0,2], cross-checked through five independent routes: the layer
    # algorithm, q^4 B[1,0,0,1]^2 - q^2 p1 p0, two one-step recursions, and
    # the q=1 image z^2 - P1 P0
    t4 = dcb.compute_layer(4)
    want = (u3 * u3 * u0 * u0).scale_qpow(2) \
        - (u3 * u2 * u1 * u0).scale(qpow(4) + 2 * qpow(2)) \
        + (u3 * u1 ** 3).scale_qpow(6) \
        + (u2 ** 3 * u0).scale_qpow(6)
    assert t4.entries[(2, 0, 0, 2)] == want
    b11 = u3 * u0 - (u2 * u1).scale_qpow(2)
    assert t4.entries[(2, 0, 0, 2)] == (b11 * b11).scale_qpow(4) - (pbw.p1() * pbw.p0()).scale_qpow(2)


def test_b_element_simple():
    assert B(1, 1, 0, 0) == dcb.dual_pbw((1, 1, 0, 0)) == u3 * u2
    assert B(1, 0, 0, 1) == u3 * u0 - (u2 * u1).scale_qpow(2)
    assert B(0, 0, 0, 0) == pbw.one()
    assert B(-1, 0, 0, 0) == pbw.zero()
    assert B(1, 0, 1, 0) == pbw.p1()
    assert B(0, 1, 0, 1) == pbw.p0()


def test_b_element_against_layers():
    for k in range(0, 8):
        tab = dcb.compute_layer(k)
        for a, elem in tab:
            assert dcb.b_element(a) == elem


def _off_diagonal_cores(lo, hi):
    return [(x, 0, 0, t - x) for t in range(lo, hi + 1) for x in range(1, t)
            if abs(2 * x - t) >= 2]


def test_b_element_cluster_monomial_cores_match_compute_layer():
    cores = _off_diagonal_cores(4, 10)
    assert len(cores) == 32
    for t in range(4, 11):
        tab = dcb.compute_layer(t, check=False)
        for a in cores:
            if sum(a) == t:
                assert B(*a) == tab.entries[a], a


def test_b_element_cluster_monomial_cores_satisfy_conditions():
    for a in _off_diagonal_cores(11, 16):
        dcb.check_basis_conditions(a, B(*a))


@pytest.mark.parametrize("a", [(5, 0, 0, 2), (2, 0, 0, 7), (7, 0, 0, 3), (3, 0, 0, 8), (8, 0, 0, 5)])
def test_cluster_monomial_core_is_the_product_of_two_powers(a):
    # b_element builds B[c]^(d-j) and then multiplies by B[c'] j times on the
    # right; here the two powers are built first, then normalized by the
    # E[a] coefficient q^(h/2) as b_element normalizes
    x, w = a[0], a[3]
    d = abs(x - w)
    m, j = divmod(min(x, w), d)
    assert j > 0
    c = (m + 1, 0, 0, m) if x > w else (m, 0, 0, m + 1)
    res = B(*c) ** (d - j) * B(c[0] + 1, 0, 0, c[3] + 1) ** j
    (h, lead), = (res.terms[a] * qpow(-dcb.stat_b(a))).terms.items()
    assert lead == 1
    assert B(*a).terms == res.scale(qarith.half_pow(-h)).terms


def test_p_shift_identities():
    rng = random.Random(21)
    p0, p1 = pbw.p0(), pbw.p1()
    seen = set()
    while len(seen) < 12:
        a = tuple(rng.randint(0, 2) for _ in range(4))
        if sum(a) > 6 or a in seen:
            continue
        seen.add(a)
        a3, a2, a1, a0 = a
        lhs = B(a3, a2 + 1, a1, a0 + 1)
        assert lhs == (B(*a) * p0).scale_qpow(a2 + 2 * a1 + 3 * a0)
        assert lhs == (p0 * B(*a)).scale_qpow(4 * a3 + 3 * a2 + 2 * a1 + a0)
        lhs = B(a3 + 1, a2, a1 + 1, a0)
        assert lhs == (p1 * B(*a)).scale_qpow(3 * a3 + 2 * a2 + a1)
        assert lhs == (B(*a) * p1).scale_qpow(a3 + 2 * a2 + 3 * a1 + 4 * a0)


_STRAIGHTENED = {}


def straightened_b(a):
    """B[a] by `b_element`'s recursion with every product straightened by
    `PbwElement.__mul__`.  A cluster-monomial core is taken from
    `b_element`, which builds it from near-diagonal cores that this
    reference covers."""
    hit = _STRAIGHTENED.get(a)
    if hit is not None:
        return hit
    a3, a2, a1, a0 = a
    step = dcb._p_step(a)
    R = straightened_b
    if a == (0, 0, 0, 0):
        res = pbw.one()
    elif step is not None:
        which, c, t = step
        res = (R(c) * pbw.p0() if which == 0 else pbw.p1() * R(c)).scale_qpow(t)
    elif (a1 == 0 and a0 == 0) or (a3 == 0 and a0 == 0) or (a3 == 0 and a2 == 0):
        res = dcb.dual_pbw(a)
    elif a3 == a0:
        n = a3
        res = (R((n, 0, 0, n - 1)) * u0).scale_qpow(n - 1) \
            - (R((n - 1, 1, 0, n - 1)) * u1).scale_qpow(2 * n)
    elif a3 == a0 + 1:
        n = a3
        res = (u3 * R((n - 1, 0, 0, n - 1))).scale_qpow(n - 1) \
            - (u2 * R((n - 1, 0, 1, n - 2))).scale_qpow(2 * n - 1)
    elif a0 == a3 + 1:
        n = a0
        res = (R((n - 1, 0, 0, n - 1)) * u0).scale_qpow(n - 1) \
            - (R((n - 2, 1, 0, n - 1)) * u1).scale_qpow(2 * n - 1)
    else:
        res = dcb.b_element(a)
    _STRAIGHTENED[a] = res
    return res


def test_b_element_equals_the_straightened_build():
    cores = [c for n in range(1, 15) for c in ((n, 0, 0, n), (n, 0, 0, n - 1), (n - 1, 0, 0, n))]
    for a in [a for k in range(12) for a in dcb.layer_exponents(k)] + cores:
        assert dcb.b_element(a).terms == straightened_b(a).terms, a


@pytest.mark.parametrize("a", [(14, 0, 0, 14), (15, 2, 1, 16)])
def test_near_diagonal_cores_and_p_steps_need_no_straightening(monkeypatch, a):
    # (15,2,1,16) strips two p0's and one p1 down to the core (14,0,0,14);
    # the one-time check of the p0/p1 facts that a first p-step runs
    # straightens, so it is run before the straightening memo is swapped
    dcb._p_facts()
    monkeypatch.setattr(dcb, "_B_CACHE", {})
    monkeypatch.setattr(pbw, "_GEN_CACHE", {})
    dcb.b_element(a)
    assert pbw._GEN_CACHE == {}


def test_recursions_base():
    rep = dcb.verify_recursions(2)
    assert all(e["ok"] for e in rep)
    # n = 1 base case: both straightened forms of B[1,0,0,1]
    b = B(1, 0, 0, 1)
    assert b == u3 * u0 - (u2 * u1).scale_qpow(2)
    assert b == (u0 * u3).scale_qpow(2) - u1 * u2


def test_recursions_deeper():
    assert all(e["ok"] for e in dcb.verify_recursions(5))


def test_products():
    assert all(e["ok"] for e in dcb.verify_products(4))


def test_closed_formulas_small():
    assert all(e["ok"] for e in dcb.verify_closed_formulas(3))


def test_power_formulas():
    assert all(e["ok"] for e in dcb.verify_power_formulas(5))
    one1, one0 = dcb.power_formulas(0)
    assert one1 == pbw.one() and one0 == pbw.one()
    f1, f0 = dcb.power_formulas(1)
    assert f1 == pbw.p1() and f0 == pbw.p0()


def test_p_powers_from_the_basis_equal_the_straightened_powers():
    # the straightened p^k is the oracle for the basis read-off
    for k in range(7):
        assert dcb.p_power(0, k) == pbw.p0() ** k, k
        assert dcb.p_power(1, k) == pbw.p1() ** k, k


def test_pbw_expansion_formula():
    assert all(e["ok"] for e in dcb.verify_pbw_expansion(2))
    got = dcb.pbw_expansion_formula(1)
    assert got == dcb.expand_in_dual_pbw(B(2, 0, 0, 1))


def test_uniqueness_under_reordering():
    base = dcb.compute_layer(4)
    for seed in (1, 2, 3):
        alt = dcb.compute_layer(4, seed=seed)
        assert alt.entries == base.entries


def test_expand_in_b_basis():
    x = u3 * u0
    coeffs = dcb.expand_in_b_basis(x)
    assert coeffs == {(1, 0, 0, 1): lq_one(), (0, 1, 1, 0): qpow(2)}


def test_expand_in_b_basis_reassembles_products():
    small = [a for k in range(3) for a in dcb.layer_exponents(k)]
    # one product on layer 9, above the CLI's default cap
    pairs = [(a, b) for a in small for b in small] + [((5, 0, 0, 0), (0, 0, 0, 4))]
    for a, b in pairs:
        x = B(*a) * B(*b)
        coeffs = dcb.expand_in_b_basis(x)
        back = pbw.zero()
        for c, d in coeffs.items():
            back = back + B(*c).scale(d)
        assert back == x, (a, b)


@pytest.mark.parametrize("lead", [2, None])
def test_peel_rejects_an_expansion_whose_lead_is_not_one(lead):
    # back-substitution on the int kernel against a tampered B[1,0,1,0]: its
    # u^b coefficient q^(b(b)) doubled, or dropped, must raise rather than loop
    a = (1, 0, 1, 0)
    good = B(*a)

    def work():  # a kernel sum of its own, since the peel subtracts into it
        return {b: dict(c.terms) for b, c in good.terms.items()}

    assert dcb._peel(work(), {a: good}.get) == {a: {0: 1}}
    terms = dict(good.terms)
    if lead is None:
        del terms[a]
    else:
        terms[a] = qpow(dcb.stat_b(a)) * lead
    bad = pbw.PbwElement(terms)
    with pytest.raises(AssertionError, match="back-substitution"):
        dcb._peel(work(), {a: bad}.get)


def test_back_substitution_changes_no_element_it_reads(monkeypatch):
    # `_peel` subtracts into the dicts of its work in place: the expanded
    # element and every B[b] the peel reads, memoized or built by
    # compute_layer, must come out with the text they went in with
    layers = [a for k in range(5) for a in dcb.layer_exponents(k)]
    for a in layers:
        B(*a)
    memo = {id(e): str(e) for e in dcb._B_CACHE.values()}
    peel, read = dcb._peel, {}

    def recording(work, element_of):
        def of(b):
            e = element_of(b)
            if e is not None:
                read.setdefault(id(e), (e, str(e)))
            return e
        return peel(work, of)

    monkeypatch.setattr(dcb, "_peel", recording)
    # B[a] itself, B[a] times 1 (which shares B[a]'s coefficients), its
    # mirror (tau shares them too), and straightened products
    xs = [B(1, 0, 0, 1), B(2, 0, 1, 0) * B(0, 0, 0, 0), B(1, 0, 1, 0).tau(),
          B(1, 0, 0, 1) * B(0, 1, 1, 0), u3 * u0]
    texts = [str(x) for x in xs]
    for x in xs:
        dcb.expand_in_b_basis(x)
    for a, b in [((1, 0, 0, 1), (1, 0, 0, 1)), ((2, 0, 0, 1), (0, 1, 1, 0)),
                 ((1, 1, 0, 1), (0, 0, 0, 0)), ((0, 1, 0, 1), (1, 0, 1, 0))]:
        dcb.b_product(a, b)
    for k in range(5):
        dcb.compute_layer(k)
    assert all(e["ok"] for e in dcb.verify_layers(4))
    assert [str(x) for x in xs] == texts
    assert len(read) > len(layers)
    assert [a for a in layers if str(B(*a)) != memo[id(B(*a))]] == []
    assert [e for e, text in read.values() if str(e) != memo.get(id(e), text)] == []


def test_back_substitution_never_expands_in_the_dual_pbw_basis(monkeypatch):
    # the dual PBW basis is an output and check view: neither the product
    # expansion nor the layer oracle goes through it
    tables = [dcb.compute_layer(k) for k in range(5)]
    products = [(B(1, 0, 0, 1), B(1, 0, 0, 1)), (B(2, 0, 0, 1), B(0, 1, 1, 0)),
                (B(0, 0, 1, 0), B(1, 0, 0, 0))]
    expected = [dcb.expand_in_b_basis(x * y) for x, y in products]

    def refuse(x):
        raise AssertionError("expand_in_dual_pbw called")

    monkeypatch.setattr(dcb, "expand_in_dual_pbw", refuse)
    assert [dcb.expand_in_b_basis(x * y) for x, y in products] == expected
    for k in range(5):
        assert dcb.compute_layer(k, check=False).entries == tables[k].entries


def test_layer_table_checks_its_entries(monkeypatch):
    # E[a] is not B[a] off the order-maximal shapes: the check must refuse it
    monkeypatch.setattr(dcb, "b_element", dcb.dual_pbw)
    monkeypatch.delenv("QCA_CACHE_DIR", raising=False)
    monkeypatch.setattr(dcb, "_LAYER_TABLES", {})
    with pytest.raises(AssertionError):
        dcb.layer_table(2)


def test_verify_layers_compares_with_the_oracle(monkeypatch):
    compute_layer = dcb.compute_layer

    def tampered(k, seed=None, check=True):
        tab = compute_layer(k, seed=seed, check=check)
        if k == 2:
            tab.entries[(1, 0, 0, 1)] = pbw.zero()
        return tab

    monkeypatch.setattr(dcb, "compute_layer", tampered)
    rep = dcb.verify_layers(2)
    assert [e["ok"] for e in rep if e["n"] == 2][0] is False
    assert all(e["ok"] for e in rep if e["n"] < 2)
    # the failing entry names the first differing element and monomial;
    # passing entries carry no detail
    want = qarith.diff_detail(B(1, 0, 0, 1), pbw.zero())
    assert [e.get("detail") for e in rep if e["n"] == 2][0] == f"first differing B[(1, 0, 0, 1)]: {want}"
    assert want.startswith("first differing monomial (1, 0, 0, 1)")
    assert all("detail" not in e for e in rep if e["ok"])


def test_failing_pbw_expansion_carries_a_witness(monkeypatch):
    assert all(e["ok"] and "detail" not in e for e in dcb.verify_pbw_expansion(2))
    formula = dcb.pbw_expansion_formula

    def dropped(n):
        table = formula(n)
        del table[max(table)]
        return table

    monkeypatch.setattr(dcb, "pbw_expansion_formula", dropped)
    rep = dcb.verify_pbw_expansion(2)
    assert not any(e["ok"] for e in rep)
    # the dropped term is the first differing monomial, with the opposite sign
    for e in rep:
        want = dcb.expand_in_dual_pbw(B(e["n"] + 1, 0, 0, e["n"]))
        a = max(want)
        assert e["detail"] == f"first differing monomial {a}: {-want[a]}"


def _cold_layers(monkeypatch):
    """Fresh memos for a cold `layer_table`, restored after the test."""
    monkeypatch.delenv("QCA_CACHE_DIR", raising=False)
    monkeypatch.setattr(dcb, "_LAYER_TABLES", {})
    monkeypatch.setattr(dcb, "_B_CACHE", {})
    monkeypatch.setattr(dcb, "_CHECKED_CORES", {})
    dcb._p_facts.cache_clear()
    dcb._tau_facts.cache_clear()
    # a fresh quasi-commutation memo, so that no test sees another's pairs
    monkeypatch.setattr(dcb, "_quasi_commutation",
                        functools.lru_cache(maxsize=None)(dcb._quasi_commutation.__wrapped__))


@pytest.mark.parametrize("k", [2, 4])
def test_layer_table_refuses_a_core_with_the_wrong_eigenvalue(monkeypatch, k):
    # E[1,0,0,1] passes the triangular check but is no sigma eigenvector;
    # layer 4 only reaches it as the core of B[1,1,0,2] = q^t B[1,0,0,1] p0
    real = dcb.b_element
    _cold_layers(monkeypatch)
    monkeypatch.setattr(dcb, "b_element",
                        lambda a: dcb.dual_pbw(a) if a == (1, 0, 0, 1) else real(a))
    with pytest.raises(AssertionError, match="sigma eigenvector"):
        dcb.layer_table(k)


def _patched(monkeypatch, a, elem):
    """A cold process whose b_element gives elem at a."""
    real = dcb.b_element
    _cold_layers(monkeypatch)
    monkeypatch.setattr(dcb, "b_element", lambda x: elem if x == a else real(x))


def test_layer_table_refuses_a_deeper_near_diagonal_core(monkeypatch):
    # E[3,0,0,2] is not B[3,0,0,2]: it fails the mirrored row 2 at n = 3
    _patched(monkeypatch, (3, 0, 0, 2), dcb.dual_pbw((3, 0, 0, 2)))
    with pytest.raises(AssertionError, match=re.escape(
            "B[(3, 0, 0, 2)] is not certified a sigma eigenvector with eigenvalue q^-2: "
            "'B[n,0,0,n-1] = q^(3n-3) B[n-1,0,0,n-1] u3 - q^(2n-3) B[n-1,0,1,n-2] u2' "
            "fails at n = 3: first differing monomial")):
        dcb.layer_table(5)


def test_layer_table_refuses_a_deeper_imaginary_core(monkeypatch):
    # E[3,0,0,3] is not B[3,0,0,3]: it fails the mirrored row 6 at n = 3,
    # whose u0 and u1 stand on the left
    _patched(monkeypatch, (3, 0, 0, 3), dcb.dual_pbw((3, 0, 0, 3)))
    with pytest.raises(AssertionError, match=re.escape(
            "B[(3, 0, 0, 3)] is not certified a sigma eigenvector with eigenvalue q^-12: "
            "'B[n,0,0,n] = q^(3n-1) u0 B[n,0,0,n-1] - q^(2n-2) u1 B[n-1,1,0,n-1]' "
            "fails at n = 3: first differing monomial")):
        dcb.layer_table(6)


def test_layer_table_refuses_an_order_maximal_core_with_an_extra_term(monkeypatch):
    # u^(0,1,0,2) has the weight of u^(0,0,2,1); the certificate runs before
    # the triangular check would see it outside S(a)
    a = (0, 0, 2, 1)
    _patched(monkeypatch, a, dcb.dual_pbw(a) + dcb.dual_pbw((0, 1, 0, 2)).scale_qpow(2))
    with pytest.raises(AssertionError, match=re.escape(
            f"B[{a}] is not certified a sigma eigenvector with eigenvalue q^{-dcb.stat_n(a)}: "
            f"it is not the single term E[{a}]")):
        dcb.layer_table(3)


@pytest.mark.parametrize("k, f", [(3, (1, 0, 0, 1)), (4, (2, 0, 0, 1))], ids=["near-diagonal", "cluster"])
def test_layer_table_certifies_the_factor_cores_first(monkeypatch, k, f):
    # layer 3 has no core (1,0,0,1), but its core (2,0,0,1) is built from
    # B[1,0,0,1], and its core (1,0,0,2) is tau of B[2,0,0,1]; layer 4 has
    # no core (2,0,0,1), but its cluster monomial B[3,0,0,1] is built from
    # it: the factor's certificate is the one that fails
    _patched(monkeypatch, f, dcb.dual_pbw(f))
    assert f not in {dcb._core(a) for a in dcb.layer_exponents(k)}
    with pytest.raises(AssertionError, match=re.escape(f"B[{f}] is not certified")):
        dcb.layer_table(k)


def test_layer_table_refuses_a_mirrored_row_sigma_does_not_give(monkeypatch):
    # row 6 with q^(3n-3) for q^(3n-1) is not sigma of row 5 times q^N
    _cold_layers(monkeypatch)
    text = dcb.RECURSIONS[0][2][5].replace("q^(3n-1)", "q^(3n-3)")
    monkeypatch.setattr(dcb, "_ROWS", dcb._ROWS[:5] + (dcb._recursion_row(text),))
    with pytest.raises(AssertionError, match=re.escape(
            f"B[(1, 0, 0, 1)] is not certified a sigma eigenvector with eigenvalue q^4: "
            f"sigma does not map its recursion onto {text!r} at n = 1")):
        dcb.layer_table(2)


@pytest.mark.parametrize("damage", ["lam", "h"])
def test_b_element_derives_each_cluster_monomial_exponent(monkeypatch, damage):
    # B[5,0,0,3] = q^(-h/2) B[2,0,0,1] B[3,0,0,2]: a lam of the wrong sign, or
    # an E[a] coefficient read one power of q off, misses -N(a)
    _cold_layers(monkeypatch)
    if damage == "lam":
        lam = dcb._quasi_commutation
        monkeypatch.setattr(dcb, "_quasi_commutation", lambda c: -lam(c))
    else:
        stat_b = dcb.stat_b
        monkeypatch.setattr(dcb, "stat_b", lambda a: stat_b(a) + (a == (5, 0, 0, 3)))
    with pytest.raises(AssertionError, match=re.escape("B[(5, 0, 0, 3)]: derived sigma exponent")):
        dcb.b_element((5, 0, 0, 3))


def test_adjacent_cluster_variables_quasi_commute():
    # B[c] B[c'] = q^lam B[c'] B[c], c' = c + (1,0,0,1): lam = 2 on the
    # (m+1,0,0,m) family and -2 on (m,0,0,m+1), whose pair tau maps onto
    # the lam = 2 pair reversed
    for m in range(3):
        for c, lam in (((m + 1, 0, 0, m), 2), ((m, 0, 0, m + 1), -2)):
            c2 = (c[0] + 1, 0, 0, c[3] + 1)
            assert dcb._quasi_commutation(c) == lam
            assert B(*c) * B(*c2) == (B(*c2) * B(*c)).scale_qpow(lam)
        c, c2 = (m, 0, 0, m + 1), (m + 1, 0, 0, m + 2)
        assert (B(*c) * B(*c2)).tau() == B(m + 2, 0, 0, m + 1) * B(m + 1, 0, 0, m)


def test_quasi_commutation_refuses_a_pair_that_does_not_quasi_commute(monkeypatch):
    _patched(monkeypatch, (2, 0, 0, 1), dcb.dual_pbw((2, 0, 0, 1)))
    with pytest.raises(AssertionError, match=re.escape(
            "B[(1, 0, 0, 0)] and B[(2, 0, 0, 1)] do not quasi-commute")):
        dcb._quasi_commutation((1, 0, 0, 0))


def test_core_certificates_agree_with_the_full_check(monkeypatch):
    # every core of layers 0..12 is certified, and passes both conditions in full
    _cold_layers(monkeypatch)
    for k in range(13):
        dcb.layer_table(k)
    cores = {dcb._core(a) for k in range(13) for a in dcb.layer_exponents(k)}
    assert len(cores) > 250
    assert cores <= set(dcb._CHECKED_CORES)
    for c, x in dcb._CHECKED_CORES.items():
        assert x is B(*c)
        dcb.check_basis_conditions(c, x)


def test_layer_table_refuses_a_p_multiple_whose_lead_is_not_one(monkeypatch):
    real = dcb.b_element
    _cold_layers(monkeypatch)
    monkeypatch.setattr(dcb, "b_element",
                        lambda a: real(a).scale_qpow(1) if a == (1, 1, 1, 1) else real(a))
    with pytest.raises(AssertionError, match=r"B\[\(1, 1, 1, 1\)\]: leading dual-PBW coefficient"):
        dcb.layer_table(4)


def _in_q_zq(c):
    """c lies in qZ[q]: only strictly positive integral powers of q."""
    return all(h >= 2 and h % 2 == 0 for h in c.terms)


def _triangular_in_e(a, elem):
    """The triangularity check in the dual PBW basis, as it read before it
    moved to the stored terms; the reference for `dcb._check_triangular`."""
    coeffs = dcb.expand_in_dual_pbw(elem)
    lead = coeffs.get(a)
    if lead != lq_one():
        raise AssertionError(f"B[{a}]: leading dual-PBW coefficient is {lead}, not 1")
    for b, c in coeffs.items():
        if b == a:
            continue
        if not dcb.order_leq(a, b):
            raise AssertionError(f"B[{a}]: support contains {b} outside S({a})")
        if not (isinstance(c, qarith.LaurentQ) and _in_q_zq(c)):
            raise AssertionError(f"B[{a}]: coefficient {c} at {b} is not in qZ[q]")


def _verdict(check, a, elem):
    """None if `check` passes, else its message."""
    try:
        check(a, elem)
    except AssertionError as exc:
        return str(exc)
    return None


# B[2,0,0,1] = q u3^2 u0 - (q^3 + q) u3 u2 u1 + q^5 u2^3, damaged one way each;
# b(0,3,0,0) = 3, so q^5 is q^2 in the E scale
_TRI = (2, 0, 0, 1)
_DAMAGES = {
    "outside-S": ({(3, 0, 0, 0): qpow(4)}, r"support contains \(3, 0, 0, 0\) outside S"),
    "constant": ({(0, 3, 0, 0): qpow(3)}, r"coefficient 1 at \(0, 3, 0, 0\) is not in qZ\[q\]"),
    "inverse-q": ({(0, 3, 0, 0): qpow(2)}, r"coefficient q\^-1 at \(0, 3, 0, 0\) is not in qZ\[q\]"),
    "odd-half-power": ({(0, 3, 0, 0): qarith.half_pow(9)},
                       r"coefficient q\^\(3/2\) at \(0, 3, 0, 0\) is not in qZ\[q\]"),
    "wrong-lead": ({_TRI: qpow(2)}, r"leading dual-PBW coefficient is q, not 1"),
    "missing-lead": ({_TRI: None}, r"leading dual-PBW coefficient is None, not 1"),
}


def _damaged(changes):
    terms = dict(B(*_TRI).terms)
    for b, c in changes.items():
        if c is None:
            del terms[b]
        else:
            terms[b] = c
    return pbw.PbwElement(terms)


@pytest.mark.parametrize("name", list(_DAMAGES))
def test_triangular_check_refuses_each_damage(name):
    changes, message = _DAMAGES[name]
    bad = _damaged(changes)
    with pytest.raises(AssertionError, match=re.escape(f"B[{_TRI}]: ") + message) as exc:
        dcb._check_triangular(_TRI, bad)
    assert str(exc.value) == _verdict(_triangular_in_e, _TRI, bad)


def test_triangular_check_agrees_with_the_e_view_on_each_added_term():
    # q E[b] added to B[a], for each b of a's layer and the two next to it:
    # the coefficient is in qZ[q], so only the order can refuse it
    for k in range(5):
        for a in dcb.layer_exponents(k):
            elem = B(*a)
            for b in (b for j in (k - 1, k, k + 1) for b in dcb.layer_exponents(j)):
                if b not in elem.terms:
                    bad = elem + pbw.monomial(b, qpow(dcb.stat_b(b) + 1))
                    assert _verdict(dcb._check_triangular, a, bad) == _verdict(_triangular_in_e, a, bad)


def test_triangular_check_agrees_with_the_e_view_on_layers():
    for k in range(12):
        for a in dcb.layer_exponents(k):
            elem = B(*a)
            assert _verdict(dcb._check_triangular, a, elem) is None, a
            assert _verdict(_triangular_in_e, a, elem) is None, a


def test_basis_checks_never_expand_in_the_dual_pbw_basis(monkeypatch):
    # E is an output view: neither a cold layer_table nor the full check uses it
    def refuse(x):
        raise AssertionError("expand_in_dual_pbw called")

    _cold_layers(monkeypatch)
    monkeypatch.setattr(dcb, "expand_in_dual_pbw", refuse)
    for k in range(9):
        for a, elem in dcb.layer_table(k):
            dcb.check_basis_conditions(a, elem)


def test_layer_table_refuses_a_wrong_derived_exponent(monkeypatch):
    # a p0 eigenvalue off by one makes every p0-multiple's exponent miss -N(a)
    _cold_layers(monkeypatch)
    (eps0, chi0), p1_facts = dcb._p_facts()
    monkeypatch.setattr(dcb, "_p_facts", lambda: ((eps0 + 1, chi0), p1_facts))
    with pytest.raises(AssertionError, match="derived sigma exponent"):
        dcb.layer_table(2)


def test_mirrored_elements_match_the_oracle(monkeypatch):
    # b_element returns tau(B[rev a]) when a's core (x,.,.,w) has x < w;
    # compute_layer never mirrors, so it checks that half on its own
    _cold_layers(monkeypatch)
    mirrored = 0
    for k in range(9):
        tab = dcb.compute_layer(k, check=False)
        for a, elem in tab:
            c = dcb._core(a)
            if c[0] < c[3]:
                mirrored += 1
                assert dcb.b_element(a) == elem, a
                assert elem.tau() == B(*a[::-1]), a
    assert mirrored == 150  # of the 495 elements of layers 0..8


def test_tau_is_an_anti_automorphism_that_relabels_keys():
    x = B(2, 0, 0, 1)
    assert x.tau().tau() == x
    assert all(x.tau().terms[a[::-1]] is c for a, c in x.terms.items())  # coefficients shared
    rng = random.Random(5)
    exps = [a for k in range(5) for a in dcb.layer_exponents(k)]
    for _ in range(40):
        x, y = B(*rng.choice(exps)), B(*rng.choice(exps))
        assert (x * y).tau() == y.tau() * x.tau()


@pytest.mark.parametrize("damage", ["tau-keeps-a", "sigma-of-u0"])
def test_tau_facts_refuse_a_damaged_fact(monkeypatch, damage):
    _cold_layers(monkeypatch)
    if damage == "tau-keeps-a":
        monkeypatch.setattr(pbw.PbwElement, "tau", lambda self: pbw.PbwElement._raw(dict(self.terms)))
    else:
        sigma = pbw.PbwElement.sigma
        monkeypatch.setattr(pbw.PbwElement, "sigma",
                            lambda self: sigma(self).scale_qpow(1 if self == u0 else 0))
    with pytest.raises(AssertionError, match="the tau fact table does not hold"):
        dcb._tau_facts()


def test_p_facts_refuse_a_wrong_table(monkeypatch):
    _cold_layers(monkeypatch)
    monkeypatch.setattr(pbw, "P1_SIGMA", 4)
    with pytest.raises(AssertionError, match="p0/p1 fact table"):
        dcb._p_facts()


def test_core_is_where_the_p_step_walk_ends():
    # and the closed-form q-power of the stripping is the sum of its steps' t
    exps = [a for k in range(15) for a in dcb.layer_exponents(k)]
    for a in exps + [(0, 1200, 0, 1200), (5, 900, 3, 901), (507, 0, 500, 2)]:
        c, e = a, 0
        while (step := dcb._p_step(c)) is not None:
            _, c, t = step
            e += t
        assert dcb._core(a) == c, a
        assert dcb._p_exponent(a) == e, a


def _random_exp(rng, total):
    """A uniform a in N^4 with total(a) = total."""
    cuts = sorted(rng.randint(0, total) for _ in range(3))
    return (cuts[0], cuts[1] - cuts[0], cuts[2] - cuts[1], total - cuts[2])


@pytest.mark.parametrize("seed, n, top, single", [(0, 300, 4, True), (1, 30, 18, False)],
                         ids=["total-4-each", "total-18"])
def test_b_product_matches_the_straightened_expansion(seed, n, top, single):
    # the core route against the oracle expand_in_b_basis(B[a] B[b]): pairs
    # with total <= 4 each, then pairs whose product lies on a layer <= 18
    rng = random.Random(seed)
    for _ in range(n):
        if single:
            ka, kb = rng.randint(0, top), rng.randint(0, top)
        else:
            ka = rng.randint(0, top)
            kb = rng.randint(0, top - ka)
        a, b = _random_exp(rng, ka), _random_exp(rng, kb)
        assert dcb.b_product(a, b) == dcb.expand_in_b_basis(B(*a) * B(*b)), (a, b)


# times_b's left factors: layers 0..3 and the cluster variables B[n,0,0,n-1],
# n <= 5; its right factors: the near-diagonal cores (n,0,0,n) and
# (n,0,0,n-1), n <= 6, and each one's p0 and p1 multiple
_TIMES_B_X = [a for k in range(4) for a in dcb.layer_exponents(k)] + [(n, 0, 0, n - 1) for n in range(1, 6)]
_TIMES_B_F = [(c[0] + s, c[1] + r, c[2] + s, c[3] + r)
              for n in range(1, 7) for c in ((n, 0, 0, n), (n, 0, 0, n - 1))
              for s, r in ((0, 0), (1, 0), (0, 1))]


@functools.lru_cache(maxsize=None)
def _times_b_oracle(a, f):
    return B(*a) * B(*f)


@pytest.mark.parametrize("walk_all", [False, True], ids=["cutoff", "walk-all"])
def test_times_b_matches_the_product(monkeypatch, walk_all):
    # x B[f] by the walk against the oracle x * b_element(f), with a fresh
    # table per product, then with one table per x reused over every f;
    # walk-all lowers the cutoff so that every x walks
    if walk_all:
        monkeypatch.setattr(dcb, "_WALK_TERMS", 1)
    for a in _TIMES_B_X:
        x, table = B(*a), {}
        want = {f: _times_b_oracle(a, f) for f in _TIMES_B_F}
        for f in _TIMES_B_F:
            assert dcb.times_b(x, f, {}) == want[f], (a, f)
        for f in reversed(_TIMES_B_F):
            assert dcb.times_b(x, f, table) == want[f], (a, f)
        assert set(table) <= {c for n in range(1, 7) for c in ((n, 0, 0, n), (n, 0, 0, n - 1))}


def test_times_b_walks_a_large_product():
    # x B[f] straightens no product past the order-maximal cores the walk
    # ends on (the cores' certificates, which multiply by one generator, are
    # run first)
    x, f = B(5, 0, 0, 4), (8, 0, 1, 7)  # f = (1,0,1,0) + (7,0,0,7)
    for n in range(2, 8):
        dcb._certify_core((n, 0, 0, n - 1))
    calls = []
    mul = pbw.PbwElement.__mul__

    def counted(self, other):
        calls.append(max(other.terms))
        return mul(self, other)

    want = x * B(*f)
    table = {}
    with pytest.MonkeyPatch.context() as m:
        m.setattr(pbw.PbwElement, "__mul__", counted)
        assert dcb.times_b(x, f, table) == want
    assert len(x.terms) >= dcb._WALK_TERMS and calls
    assert all(sum(b) <= 2 for b in calls), calls
    assert (7, 0, 0, 7) in table and (7, 0, 0, 6) in table


def test_times_b_propagates_a_failed_certificate(monkeypatch):
    # B[n,0,0,n-1] is walked by row 2 only once `_certify_core` accepts it
    def refuse(c):
        raise AssertionError(f"B[{c}] refused")

    monkeypatch.setattr(dcb, "_certify_core", refuse)
    x = B(5, 0, 0, 4)
    for f in ((4, 0, 0, 3), (4, 0, 0, 4), (3, 1, 0, 4)):
        with pytest.raises(AssertionError, match=r"B\[\(\d, 0, 0, \d\)\] refused"):
            dcb.times_b(x, f, {})


@pytest.mark.parametrize("which, a", [(0, (0, 1, 0, 1)), (1, (1, 0, 1, 0))], ids=["p0", "p1"])
def test_b_element_checks_each_p_step(monkeypatch, which, a):
    # a p0 (p1) eigenvalue off by one: the first p-step b_element builds
    # misses -N(a), with no layer_table involved
    _cold_layers(monkeypatch)
    facts = list(dcb._p_facts())
    eps, chi = facts[which]
    facts[which] = (eps + 1, chi)
    monkeypatch.setattr(dcb, "_p_facts", lambda: tuple(facts))
    with pytest.raises(AssertionError, match=re.escape(f"B[{a}]: derived sigma exponent")):
        dcb.b_element(a)
    assert dcb._B_CACHE == {}


def _sigma_callers(monkeypatch):
    """The name of the function behind each later call of PbwElement.sigma."""
    sigma = pbw.PbwElement.sigma
    callers = []

    def counting(self):
        callers.append(sys._getframe(1).f_code.co_name)
        return sigma(self)

    monkeypatch.setattr(pbw.PbwElement, "sigma", counting)
    return callers


def _fact_table_sigmas_only(callers):
    """Every sigma was one of the one-time fact checks: sigma(p0) and
    sigma(p1) in _p_facts, and the eight of the generators in _tau_facts."""
    return (set(callers) <= {"_p_facts", "_tau_facts"}
            and callers.count("_p_facts") <= 2 and callers.count("_tau_facts") <= 8)


def test_cold_layer_table_runs_sigma_only_on_p0_and_p1(monkeypatch):
    # every core's eigenvalue is certified without sigma: the only sigma left
    # is the one-time check of sigma(p0) and sigma(p1) in _p_facts, and of
    # sigma on the four generators in _tau_facts
    callers = _sigma_callers(monkeypatch)
    for k in range(12):
        _cold_layers(monkeypatch)
        callers.clear()
        tab = dcb.layer_table(k)
        assert _fact_table_sigmas_only(callers), (k, callers)
        callers.clear()
        dcb._LAYER_TABLES.clear()
        assert dcb.layer_table(k).entries == tab.entries
        assert callers == []  # a rebuild in the same process reuses every check


def test_layer_disk_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("QCA_CACHE_DIR", str(tmp_path))
    dcb._LAYER_TABLES.pop(3, None)
    t1 = dcb.layer_table(3)
    assert (tmp_path / "layer_3.json").exists()
    dcb._LAYER_TABLES.pop(3, None)
    t2 = dcb.layer_table(3)
    assert t1.entries == t2.entries
    dcb._LAYER_TABLES.pop(3, None)


def test_layer_cache_write_is_atomic(tmp_path, monkeypatch):
    import sys
    import threading

    tab = dcb.layer_table(3)
    want = json.dumps(_layer_items(3))
    dcb._save_layer(tab, tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["layer_3.json"]
    assert (tmp_path / "layer_3.json").read_text() == want
    # a second save over a file that already holds the layer writes nothing
    state = _file_state(tmp_path)
    dcb._save_layer(tab, tmp_path)
    assert _file_state(tmp_path) == state

    # concurrent writers of two different layer 3 files, so that every save
    # rewrites: each moves a complete file into place
    other = dcb.LayerTable(3, {a: e.scale_qpow(1) for a, e in tab})
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=lambda t=t: [dcb._save_layer(t, tmp_path) for _ in range(5)])
                   for t in (tab, other, tab, other)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
            assert not w.is_alive()
    finally:
        sys.setswitchinterval(old_interval)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["layer_3.json"]
    assert (tmp_path / "layer_3.json").read_bytes() in (b"".join(dcb._layer_bytes(t)) for t in (tab, other))

    # a failed move leaves neither a temporary file nor a changed layer file
    (tmp_path / "layer_3.json").write_text(want[:-1])
    state = _file_state(tmp_path)

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(dcb.os, "replace", fail)
    with pytest.raises(OSError):
        dcb._save_layer(tab, tmp_path)
    assert _file_state(tmp_path) == state


def test_layer_cache_rejects_corrupt_entries(tmp_path, monkeypatch, capsys):
    # a coefficient edited in place is rewritten silently, never checked or raised
    monkeypatch.setenv("QCA_CACHE_DIR", str(tmp_path))
    dcb._LAYER_TABLES.pop(2, None)
    want = dcb.layer_table(2)
    path = tmp_path / "layer_2.json"
    text = path.read_text()
    path.write_text(text.replace("q^2", "q^3", 1))  # break one coefficient
    capsys.readouterr()
    dcb._LAYER_TABLES.pop(2, None)
    assert dcb.layer_table(2).entries == want.entries
    assert capsys.readouterr().err == ""
    assert path.read_text() == text
    dcb._LAYER_TABLES.pop(2, None)


def test_truncated_layer_cache_is_recomputed(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("QCA_CACHE_DIR", str(tmp_path))
    dcb._LAYER_TABLES.pop(2, None)
    want = dcb.layer_table(2)
    path = tmp_path / "layer_2.json"
    text = path.read_text()
    # a truncated file, and a coefficient that ends in a dangling sign, are
    # rewritten silently: the file is compared, not parsed
    for damaged in (text[: len(text) // 2],
                    re.sub(r'("coef": "[^"]*)"', r'\1 +"', text, count=1)):
        path.write_text(damaged)
        capsys.readouterr()
        dcb._LAYER_TABLES.pop(2, None)
        assert dcb.layer_table(2).entries == want.entries
        assert capsys.readouterr().err == ""
        assert path.read_text() == text
        assert sorted(p.name for p in tmp_path.iterdir()) == ["layer_2.json"]
    dcb._LAYER_TABLES.pop(2, None)


def _file_state(directory):
    """Each file's inode, modification time and bytes: a rewrite changes them."""
    return {p.name: (p.stat().st_ino, p.stat().st_mtime_ns, p.read_bytes())
            for p in sorted(directory.iterdir())}


def test_cached_layer_table_runs_sigma_only_on_p0_and_p1(tmp_path, monkeypatch):
    # a read from a filled cache builds and checks the layer as a cold one
    # does, then compares the file with it: no sigma but the fact tables'
    _cold_layers(monkeypatch)
    monkeypatch.setenv("QCA_CACHE_DIR", str(tmp_path))
    want = {k: dcb.layer_table(k).entries for k in range(12)}
    filled = _file_state(tmp_path)
    assert sorted(filled) == sorted(f"layer_{k}.json" for k in range(12))
    callers = _sigma_callers(monkeypatch)
    for k in range(12):
        _cold_layers(monkeypatch)
        monkeypatch.setenv("QCA_CACHE_DIR", str(tmp_path))
        callers.clear()
        assert dcb.layer_table(k).entries == want[k]
        assert _fact_table_sigmas_only(callers), (k, callers)
    assert _file_state(tmp_path) == filled  # a hit writes nothing


def test_layer_cache_is_never_parsed(tmp_path, monkeypatch):
    _cold_layers(monkeypatch)
    monkeypatch.setenv("QCA_CACHE_DIR", str(tmp_path))
    want = {k: dcb.layer_table(k).entries for k in range(9)}
    filled = _file_state(tmp_path)

    def refuse(*args, **kwargs):
        raise AssertionError("the layer cache was parsed")

    monkeypatch.setattr(pbw.PbwElement, "from_json_dict", refuse)
    monkeypatch.setattr(qarith.LaurentQ, "parse", refuse)
    monkeypatch.setattr(json, "loads", refuse)
    for k in range(9):
        _cold_layers(monkeypatch)
        monkeypatch.setenv("QCA_CACHE_DIR", str(tmp_path))
        assert dcb.layer_table(k).entries == want[k]
    assert _file_state(tmp_path) == filled


def _layer_items(k):
    return _json_items(dcb.layer_table(k))


def _json_items(tab):
    """The entries the cache file of tab holds, as `json.dumps` takes them."""
    return [{"a": list(a), "element": e.to_json_dict()} for a, e in sorted(tab.entries.items())]


# coefficients and keys the layers 0..9 may not show: a half power, an
# all-negative sum, the unit, multi-digit ints and exponents, and no entry
_HAND_MADE = {
    "hand-made": dcb.LayerTable(22, {
        (12, 0, 0, 10): pbw.PbwElement({(12, 0, 0, 10): lq_one(),
                                        (11, 2, 0, 9): qarith.half_pow(-3) * 1234,
                                        (10, 4, 0, 8): qpow(2) * -12 - qpow(-1) - qarith.half_pow(7)}),
        (0, 0, 0, 22): pbw.PbwElement({(0, 0, 0, 22): qarith.LaurentQ({0: 10, 5: -40, -11: 7})}),
        (0, 0, 1, 21): pbw.PbwElement({(0, 0, 1, 21): lq_one() * -1, (0, 1, 0, 21): lq_one()}),
    }),
    "empty": dcb.LayerTable(3, {}),
}


@pytest.mark.parametrize("tab", [*range(10), *_HAND_MADE])
def test_layer_bytes_are_json_dumps(tab):
    # the cache writer formats each entry itself; json.dumps is its oracle
    tab = dcb.layer_table(tab) if isinstance(tab, int) else _HAND_MADE[tab]
    assert b"".join(dcb._layer_bytes(tab)) == json.dumps(_json_items(tab)).encode()


def _extra_key(items):
    return items + [{"a": [1, 0, 0, 1], "element": B(1, 0, 0, 1).to_json_dict()}]


def _dropped_entry(items):
    return items[:-1]


def _changed_coefficient(items):
    return [dict(items[0], element=(B(*items[0]["a"]) * qpow(1)).to_json_dict())] + items[1:]


def _corrupt_then_correct(items):
    # a wrong entry followed by the right one under the same key
    return _changed_coefficient(items)[:1] + items


def _extra_field(items):
    return [dict(items[0], note="stale")] + items[1:]


def _truncated(items):
    return json.dumps(items).encode()[:-2]


def _appended_byte(items):
    return json.dumps(items).encode() + b"\n"


def _non_utf8(items):
    return b"\xff\xfe" + json.dumps(items).encode()[2:]


def _empty(items):
    return b""


@pytest.mark.parametrize("damage, hit", [
    (_extra_key, False), (_dropped_entry, False), (_corrupt_then_correct, False),
    (lambda items: items, True), (_changed_coefficient, False), (_extra_field, False),
    (_truncated, False), (_appended_byte, False), (_non_utf8, False), (_empty, False)])
def test_layer_cache_outcome_by_file(tmp_path, monkeypatch, capsys, damage, hit):
    # a file that is not the build's bytes is rewritten silently; the build's
    # own bytes are left as they are, inode and modification time included
    # (a damage returns the items to write as JSON, or the file's bytes)
    items = _layer_items(3)
    want = json.dumps(items)
    data = damage(items)
    path = tmp_path / "layer_3.json"
    path.write_bytes(data if isinstance(data, bytes) else json.dumps(data).encode())
    before = _file_state(tmp_path)
    _cold_layers(monkeypatch)
    monkeypatch.setenv("QCA_CACHE_DIR", str(tmp_path))
    tab = dcb.layer_table(3)
    assert tab.entries == {tuple(i["a"]): B(*i["a"]) for i in items}
    assert capsys.readouterr().err == ""
    if hit:
        assert _file_state(tmp_path) == before
    else:
        assert path.read_text() == want
    assert sorted(p.name for p in tmp_path.iterdir()) == ["layer_3.json"]
