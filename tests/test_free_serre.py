import random
import re
import time
from fractions import Fraction
from itertools import product

import pytest

from qkron import free_serre as fs
from qkron import pbw
from qkron.qarith import LaurentQ, add_into, half_pow, lq_one, qpow, quantum_int


def test_relators():
    s1, s2 = fs.serre_relators()
    assert s1.weight() == (3, 1)
    assert s2.weight() == (1, 3)
    assert len(s1.terms) == 4 and len(s2.terms) == 4
    three = quantum_int(3)
    assert sorted(map(str, s1.terms.values())) == sorted(map(str, [lq_one(), -three, three, -lq_one()]))


def test_s2_is_as_printed():
    three = quantum_int(3)
    s2 = fs.FreeElement({
        (2, 2, 2, 1): lq_one(),
        (2, 2, 1, 2): -three,
        (2, 1, 2, 2): three,
        (1, 2, 2, 2): -lq_one(),
    })
    assert fs.serre_relators()[1] == s2


@pytest.mark.parametrize("w", [(5, 3), (6, 4)])
def test_spanning_rows_are_free_products(w):
    relators = fs.serre_relators()
    for (ridx, left, right), row in fs.spanning_set(w):
        want = fs.FreeElement.word(left) * relators[ridx] * fs.FreeElement.word(right)
        assert row == want, (ridx, left, right)


def test_generator_weights():
    w0, w1, w2, w3 = fs.scaled_generators()
    assert w0.weight() == (1, 0)
    assert w1.weight() == (2, 1)
    assert w2.weight() == (3, 2)
    assert w3.weight() == (4, 3)


def test_v1_is_commutator():
    w0, w1, _, _ = fs.scaled_generators()
    a2 = fs.FreeElement({(2, 1): lq_one(), (1, 2): -qpow(-2)})
    assert w1 == a2 * w0 - w0 * a2


def _word_mul(x, y):
    out = {}
    for w1, c1 in x.items():
        for w2, c2 in y.items():
            out[w1 + w2] = out.get(w1 + w2, 0) + c1 * c2
    return out


def _commutator(a, v):
    out = _word_mul(a, v)
    for w, c in _word_mul(v, a).items():
        out[w] = out.get(w, 0) - c
    return {w: c for w, c in out.items() if c}


def printed_generators(t):
    """v0..v3 exactly as printed, with their 1/[2] coefficients, at q = t."""
    inv2 = 1 / (t + 1 / t)
    v0 = {(1,): Fraction(1)}
    v1 = {(2, 1, 1): inv2, (1, 2, 1): -inv2 * (t ** -2 + 1), (1, 1, 2): inv2 * t ** -2}
    a = {(2, 1): inv2, (1, 2): -inv2 * t ** -2}
    v2 = _commutator(a, v1)
    v3 = _commutator(a, v2)
    return v0, v1, v2, v3


def _eval_q(c, t):
    """c at q = t for a nonzero rational t, as a Fraction; c must lie in
    Z[q, q^(-1)]."""
    t = Fraction(t)
    if not t:
        raise ZeroDivisionError("evaluation point q = 0")
    total = Fraction(0)
    for h, v in c.terms.items():
        if h % 2:
            raise ValueError("cannot evaluate odd half-powers of q at a rational point")
        total += v * t ** (h // 2)
    return total


def test_scaled_generators_match():
    # [2]^i v_i is a Laurent polynomial in q with exponents in [-2i, 0] (each
    # of its i factors [2]A and [2]v1 has exponents in [-2, 0]); so agreeing
    # with W_i at more points than the joint exponent span proves equality
    ws = fs.scaled_generators()
    lo, hi = -2 * 3, 0
    for w in ws:
        for c in w.terms.values():
            assert c.is_integral() and all(isinstance(v, int) for v in c.terms.values())
            lo, hi = min(lo, min(c.terms) // 2), max(hi, max(c.terms) // 2)
    points = [Fraction(k, 3) for k in range(1, hi - lo + 3)]
    assert len(points) > hi - lo
    for t in points:
        two = t + 1 / t
        for i, (v, w) in enumerate(zip(printed_generators(t), ws)):
            lhs = {word: c * two ** i for word, c in v.items()}
            rhs = {word: _eval_q(c, t) for word, c in w.terms.items()}
            assert all(lhs.get(word, 0) == rhs.get(word, 0) for word in lhs.keys() | rhs.keys())


def test_concatenation_weight_additive():
    rng = random.Random(41)
    for _ in range(20):
        w1 = tuple(rng.choice((1, 2)) for _ in range(rng.randint(1, 4)))
        w2 = tuple(rng.choice((1, 2)) for _ in range(rng.randint(1, 4)))
        x = fs.FreeElement.word(w1) * fs.FreeElement.word(w2)
        a1, b1 = fs.weight(w1)
        a2, b2 = fs.weight(w2)
        assert x.weight() == (a1 + a2, b1 + b2)


def test_free_product_associative():
    rng = random.Random(42)
    for _ in range(10):
        elems = []
        for _ in range(3):
            t = {tuple(rng.choice((1, 2)) for _ in range(rng.randint(0, 3))): qpow(rng.randint(-2, 2))
                 for _ in range(2)}
            elems.append(fs.FreeElement(t))
        x, y, z = elems
        assert (x * y) * z == x * (y * z)


def _bits(word) -> int:
    """The bit key of a word, as `fs._shuffle_at` keys the words it
    builds: sum (x_k - 1) 2^k over its letters x_k, plus 2^len."""
    return sum((x - 1) << k for k, x in enumerate(word)) + (1 << len(word))


def _rational_image_mod_p(image, t) -> dict:
    """An exact image (`shuffle_image`), each coefficient evaluated by
    `_eval_q` at q = t and reduced modulo the prime, bit-keyed, zeros
    dropped."""
    p = fs.PRIME
    vals = {_bits(k): _eval_q(c, t) for k, c in image.terms.items()}
    row = {k: v.numerator * pow(v.denominator, -1, p) % p for k, v in vals.items()}
    return {k: v for k, v in row.items() if v}


def _image_mod_p(x, t) -> dict:
    """`fs._image_at(x, t)` reduced modulo the prime, zeros dropped."""
    return {k: v % fs.PRIME for k, v in fs._image_at(x, t).items() if v % fs.PRIME}


def test_integer_rows_match_the_rational_evaluation():
    # the point walk against the exact image evaluated by _eval_q: slices of
    # the (5, 3) and (6, 4) spans (images 0), the six straightening
    # differences, whose coefficients reach negative powers ((7, 5)'s
    # half-exponents run from -24 to 0), and those up to total 8 also times
    # 6 q^-3 and changed on their lead word (images not 0); random rows with
    # positive and negative exponents, contiguous and with gaps; at small
    # points and at a drawn one
    rows = [e for _, e in fs.spanning_set((5, 3))[::3]]
    rows += [e for _, e in fs.spanning_set((6, 4))[::20]]
    for _, d in fs.straightening_differences():
        rows.append(d)
        if sum(d.weight()) <= 8:
            rows += [d.scale(6 * qpow(-3)), d + fs.FreeElement.word(max(d.terms))]
    d75 = next(d for _, d in fs.straightening_differences() if d.weight() == (7, 5))
    hs = {h for c in d75.terms.values() for h in c.terms}
    assert (min(hs), max(hs)) == (-24, 0)
    rng = random.Random(5)
    for spread in (3, 40):
        rows.append(fs.FreeElement({
            fs.words_of_weight(3, 2)[i]: LaurentQ({2 * rng.randint(-spread, spread): rng.randint(-9, 9)
                                                   for _ in range(4)})
            for i in range(10)}))
    rows.append(fs.FreeElement({(1,): qpow(3) - 2 + qpow(-5), (2,): qpow(7) * 4}))
    rows.append(fs.FreeElement({(): qpow(-2) * 5}))
    assert any(h > 0 for e in rows[-4:] for c in e.terms.values() for h in c.terms)
    images = [fs.shuffle_image(elem) for elem in rows]
    for t in (2, 3, 97, fs._probabilistic_point(0)):
        nonzero = 0
        for elem, image in zip(rows, images):
            want = _rational_image_mod_p(image, t)
            assert _image_mod_p(elem, t) == want
            nonzero += bool(want)
        assert nonzero == 8, t
    with pytest.raises(ValueError):
        fs._image_at(fs.FreeElement({(1,): half_pow(1)}), 2)
    with pytest.raises(ValueError):
        fs._image_at(fs.FreeElement({(1,): qpow(-2), (2,): qpow(4) + half_pow(-3)}), 2)


def test_membership_trivial_cases():
    s1, _ = fs.serre_relators()
    res = fs.ideal_membership(fs.FreeElement())
    assert res.member and not fs.shuffle_image(fs.FreeElement())
    x = fs.FreeElement.word((1,)) * s1
    # x is literally the spanning row E1 * S1, and its image is zero
    assert x == fs.expand_certificate([((0, (1,), ()), lq_one())])
    assert not fs.shuffle_image(x)
    assert fs.ideal_membership(x, mode="exact").member
    assert fs.ideal_membership(x, mode="probabilistic").member
    # weight (1,1): the ideal component is zero
    y = fs.FreeElement({(1, 2): lq_one(), (2, 1): -lq_one()})
    assert not fs.ideal_membership(y).member
    # a bare word of relator weight is not in the ideal
    z = fs.FreeElement.word((1, 1, 1, 2))
    assert not fs.ideal_membership(z, mode="exact").member
    assert not fs.ideal_membership(z, mode="probabilistic").member


def test_membership_errors():
    with pytest.raises(ValueError):
        fs.ideal_membership(fs.FreeElement({(1,): lq_one(), (2,): lq_one()}))
    with pytest.raises(ValueError):
        big = fs.FreeElement.word(tuple([1] * 10 + [2] * 6))
        fs.ideal_membership(big)


def test_membership_outside_the_one_point_bound_is_decided_exactly():
    # the (6, 4) relation takes the one-point route by default only under the
    # bound's hypotheses (span e <= 2^13, ||x||_1 < 2^235); outside them it
    # is decided exactly, and probabilistic mode refuses it, naming the
    # hypothesis it breaks
    d, = (d for _, d in fs.straightening_differences() if d.weight() == (6, 4))
    assert fs.ideal_membership(d) == (True, "probabilistic", (6, 4))
    assert fs.ideal_membership(d.scale(2 ** 200)) == (True, "probabilistic", (6, 4))
    changed = d + fs.FreeElement.word(max(d.terms))
    cases = ((d.scale(2 ** 240), True, "||x||_1 is not below 2^235"),
             (d + d.scale_qpow(2 ** 14), True, "exceeds 2^13"),
             (changed.scale(2 ** 240), False, "||x||_1 is not below 2^235"))
    for x, member, broken in cases:
        assert fs.ideal_membership(x) == (member, "exact", (6, 4))
        with pytest.raises(ValueError, match=re.escape(broken)):
            fs.ideal_membership(x, mode="probabilistic")


def test_straightening_small_weights_exact():
    # each difference maps to zero, and with its lead word's coefficient
    # changed it maps to a nonzero element
    diffs = dict(fs.straightening_differences())
    for name in ("v0*v1 - q^-2*v1*v0",
                 "v0*v2 - q^-2*v2*v0 - (q^-2-1)*v1^2",
                 "v0*v3 - q^-2*v3*v0 - (q^-4-1)*v2*v1",
                 "v1*v2 - q^-2*v2*v1"):
        d = diffs[name]
        assert not fs.shuffle_image(d), name
        assert fs.ideal_membership(d, mode="exact").member, name
        changed = d + fs.FreeElement.word(max(d.terms))
        assert fs.shuffle_image(changed), name
        assert not fs.ideal_membership(changed, mode="exact").member, name


def test_modes_agree_up_to_weight_5_3():
    diffs = dict(fs.straightening_differences())
    for name, d in diffs.items():
        w = d.weight()
        if w is None or w[0] + w[1] > 8:
            continue
        exact = fs.ideal_membership(d, mode="exact").member
        prob = fs.ideal_membership(d, mode="probabilistic", seed=7).member
        assert exact == prob == True  # noqa: E712
    # a non-member agrees too
    z = fs.FreeElement.word((1, 1, 1, 2))
    assert fs.ideal_membership(z, mode="exact").member == \
        fs.ideal_membership(z, mode="probabilistic").member == False  # noqa: E712


def test_full_straightening_report():
    t0 = time.time()
    report = fs.verify_straightening_mod_serre(seed=3)
    assert len(report) == 6
    for entry in report:
        assert entry["member"], entry["relation"]
        assert set(entry) == {"relation", "weight", "mode", "member"}
    assert {tuple(e["weight"]) for e in report} == \
        {(3, 1), (5, 3), (7, 5), (4, 2), (6, 4)}
    assert time.time() - t0 < 300


@pytest.mark.parametrize("mode", [None, "probabilistic"])
def test_a_non_member_fails_alone_and_is_not_reduced_again(monkeypatch, mode):
    # the (6, 4) difference, changed on its lead word, is reported a
    # non-member; the other five entries are as before
    before = fs.verify_straightening_mod_serre(mode=mode)
    diffs = fs.straightening_differences()
    changed = [(name, d + fs.FreeElement.word(max(d.terms)) if d.weight() == (6, 4) else d)
               for name, d in diffs]
    monkeypatch.setattr(fs, "straightening_differences", lambda: changed)
    after = fs.verify_straightening_mod_serre(mode=mode)
    for b, a in zip(before, after):
        if tuple(b["weight"]) == (6, 4):
            assert (b["member"], a["member"]) == (True, False)
            assert {**a, "member": True} == b
        else:
            assert a == b


P61 = 2 ** 61 - 1  # the field of the tests' own elimination


def _row_at(terms, t) -> dict:
    """A row of LaurentQ coefficients, word -> coefficient, at q = t modulo
    P61: bit-keyed (`_bits`), zeros dropped."""
    out = {}
    for word, c in terms.items():
        assert all(h % 2 == 0 for h in c.terms)
        v = sum(a * pow(t, h // 2, P61) for h, a in c.terms.items()) % P61
        if v:
            out[_bits(word)] = v
    return out


def _flat_echelon(rows, p=P61) -> dict:
    """The reference elimination: the echelon basis over GF(p) of the rows
    (int key -> value mod p), each reduced in order against the pivots by
    its largest key and, if anything is left, stored scaled to lead 1.
    The rows are consumed."""
    basis = {}
    for row in rows:
        while row:
            lead = max(row)
            piv = basis.get(lead)
            if piv is None:
                inv = pow(row[lead], -1, p)
                basis[lead] = {k: v * inv % p for k, v in row.items()}
                break
            c = row[lead]
            for k, v in piv.items():
                v = (row.get(k, 0) - c * v) % p
                if v:
                    row[k] = v
                else:
                    row.pop(k, None)
    return basis


def _kostant_table(w) -> list:
    """K[a][b] for (a, b) <= w: the partitions of a a1 + b a2 into the
    positive roots of A1^(1), a1 + n d, a2 + n d (n >= 0) and n d (n >= 1)
    with d = a1 + a2, counted by one pass per root."""
    n1, n2 = w
    roots = [(n + 1, n) for n in range(n1)] + [(n, n + 1) for n in range(n2)]
    roots += [(n, n) for n in range(1, min(n1, n2) + 1)]
    ways = [[0] * (n2 + 1) for _ in range(n1 + 1)]
    ways[0][0] = 1
    for r1, r2 in roots:
        for i in range(r1, n1 + 1):
            for j in range(r2, n2 + 1):
                ways[i][j] += ways[i - r1][j - r2]
    return ways


@pytest.mark.parametrize("w, rank", [((5, 3), 35), ((6, 4), 162), ((7, 5), 693)])
def test_integer_echelon_rank_is_words_less_kostant_count(w, rank):
    # the quotient by the Serre ideal is U^+ of affine sl2, whose weight
    # component has the Kostant partition count as its dimension; the ideal
    # component, the rank of the span, is what is left of the words.  The
    # rank at one point bounds the rank over Q(q) from below
    assert rank == len(fs.words_of_weight(*w)) - _kostant_table(w)[w[0]][w[1]]
    basis = _flat_echelon([_row_at(e.terms, 3) for _, e in fs.spanning_set(w)])
    assert len(basis) == rank
    for lead, row in basis.items():
        assert lead == max(row) and row[lead] == 1
        assert all(0 < v < P61 for v in row.values())


def test_probabilistic_points_are_distinct_field_elements_fixed_by_the_seed():
    points = [fs._probabilistic_point(seed) for seed in range(20)]
    assert len(set(points)) == len(points)
    assert all(2 <= t <= fs.PRIME - 1 for t in points)
    # drawn from the whole field, not from small integers
    assert min(points) > 2 ** 200
    assert points == [fs._probabilistic_point(seed) for seed in range(20)]


def _strong_probable_prime(n, a) -> bool:
    """Whether n passes the Miller-Rabin test to the base a."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def test_prime_is_a_strong_probable_prime_to_the_first_16_prime_bases():
    bases = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53]
    assert fs.PRIME == 2 ** 264 - 275
    assert all(_strong_probable_prime(fs.PRIME, a) for a in bases)
    # the test tells a composite apart: 2^264 - 273, a multiple of 17
    assert (fs.PRIME + 2) % 17 == 0
    assert not all(_strong_probable_prime(fs.PRIME + 2, a) for a in bases)
    # one point fails with probability at most D / (p - 2) < 2^-250 for
    # D <= 2^13 + 132
    assert (2 ** 13 + 132) * 2 ** 250 < fs.PRIME - 2


@pytest.mark.parametrize("seed", range(20))
def test_probabilistic_rejects_a_changed_coefficient(seed):
    for _, d in fs.straightening_differences():
        if d.weight() not in ((6, 4), (7, 5)):
            continue
        assert fs.ideal_membership(d, mode="probabilistic", seed=seed).member
        lead = max(d.terms)
        changed = d + fs.FreeElement.word(lead)
        assert not fs.ideal_membership(changed, mode="probabilistic", seed=seed).member


def u_word_free_difference(letters) -> fs.FreeElement:
    """Cross-oracle against the normal-form calculus: for a word in the
    u-generators, the free-algebra product of the scaled root vectors minus
    the free-algebra image of its computed normal form.  The identity holds
    in the quotient, so the difference must lie in the Serre ideal.

    The rescaling u_i = v_i / (1 - q^-2)^(2i) contributes the same global
    factor to both sides because the E2-count is constant across the normal
    form, so it cancels and the W_i can be used throughout.
    """
    ws = fs.scaled_generators()
    lhs = fs.FreeElement({(): lq_one()})
    for i in letters:
        lhs = lhs * ws[i]
    nf = pbw.word_product(letters)
    rhs = {}
    for a, c in nf.terms.items():
        piece = fs.FreeElement({(): lq_one()})
        for gen_idx, e in zip((3, 2, 1, 0), a):
            for _ in range(e):
                piece = piece * ws[gen_idx]
        add_into(rhs, piece.terms, c)
    return lhs - fs.FreeElement._raw(rhs)


def test_cross_oracle_with_normal_form():
    # every word in the u-generators of length <= 3 and total weight <= 12
    # (u_i has weight (i + 1, i)); those above total weight 8 take the
    # probabilistic route by default; both modes decide every one
    nonzero = probabilistic = 0
    for n in range(4):
        for letters in product(range(4), repeat=n):
            if sum(2 * i + 1 for i in letters) > 12:
                continue
            diff = u_word_free_difference(letters)
            if not diff:
                continue
            nonzero += 1
            probabilistic += sum(diff.weight()) > fs.EXACT_DEFAULT_MAX_TOTAL
            assert fs.ideal_membership(diff, mode="exact").member, letters
            assert fs.ideal_membership(diff, mode="probabilistic").member, letters
    assert (nonzero, probabilistic) == (28, 18)


def _laurent_shuffle(terms, pos) -> dict:
    """The reference shuffle map on LaurentQ coefficients: Phi of the sum of
    c * word[pos:] over the pairs (word, c), each inserted word built as a
    one-term sum times its q-power."""
    out, groups = {}, {}
    for word, c in terms:
        if len(word) == pos:
            add_into(out, {(): c})
        else:
            groups.setdefault(word[pos], []).append((word, c))
    for i, part in groups.items():
        for v, c in _laurent_shuffle(part, pos + 1).items():
            inserted = {}
            h = 0  # q^(h/2) = q^-(alpha_i, wt(v_1 ... v_k))
            for k in range(len(v) + 1):
                add_into(inserted, {v[:k] + (i,) + v[k:]: half_pow(h)})
                if k < len(v):
                    h += -4 if v[k] == i else 4
            add_into(out, inserted, c)
    return out


def test_int_shuffle_matches_the_laurent_reference():
    # the six differences, each also changed on its lead word (a
    # non-member), both relators, and seeded random elements of words up
    # to total 8
    elems = list(fs.serre_relators())
    for _, d in fs.straightening_differences():
        elems += [d, d + fs.FreeElement.word(max(d.terms))]
    rng = random.Random(8)
    for _ in range(40):
        elems.append(fs.FreeElement({
            tuple(rng.choice((1, 2)) for _ in range(rng.randint(0, 8))):
                qpow(rng.randint(-4, 4)) * rng.choice((-3, -1, 1, 2)) + rng.randint(-1, 1)
            for _ in range(rng.randint(1, 6))}))
    for x in elems:
        assert fs.shuffle_image(x) == fs.FreeElement._raw(_laurent_shuffle(list(x.terms.items()), 0))


def test_shuffle_image_of_relators_and_a_commutator():
    s1, s2 = fs.serre_relators()
    assert not fs.shuffle_image(s1) and not fs.shuffle_image(s2)
    c = fs.FreeElement({(1, 2): lq_one(), (2, 1): -lq_one()})
    # E1 |> E2 = E1 E2 + q^2 E2 E1, so the commutator goes to (1 - q^2) c
    assert fs.shuffle_image(c) == c.scale(1 - qpow(2))
    assert len(fs.shuffle_image(c).terms) == 2


def test_shuffle_kernel_is_the_ideal_at_5_3():
    # the ideal lies in the kernel: every spanning row maps to zero; the
    # images of the words span a space of the Kostant partition count at
    # q = 2, so the kernel is no larger than the ideal's 35 dimensions
    w = (5, 3)
    assert all(not fs.shuffle_image(row) for _, row in fs.spanning_set(w))
    images = [_row_at(fs.shuffle_image(fs.FreeElement.word(u)).terms, 2)
              for u in fs.words_of_weight(*w)]
    assert len(_flat_echelon(images)) == _kostant_table(w)[5][3] == 21


def test_shuffle_kernel_is_the_ideal_at_6_4():
    # as at (5, 3), with the images from the point walk at seed 0's point:
    # rank 48 at one point bounds the rank over Q(q) from below, so the
    # kernel has at most 210 - 48 = 162 dimensions, the span's rank
    # (`test_integer_echelon_rank_is_words_less_kostant_count`); the kernel
    # contains the ideal, so the two are equal, with no probability
    w = (6, 4)
    assert all(not fs.shuffle_image(row) for _, row in fs.spanning_set(w))
    t = fs._probabilistic_point(0)
    images = [_image_mod_p(fs.FreeElement.word(u), t) for u in fs.words_of_weight(*w)]
    assert len(images) == 210
    assert len(_flat_echelon(images, fs.PRIME)) == _kostant_table(w)[6][4] == 48


def test_exact_decides_the_large_differences():
    # the weights the default leaves to the probabilistic mode
    for _, d in fs.straightening_differences():
        if d.weight() not in ((6, 4), (7, 5)):
            continue
        assert fs.ideal_membership(d, mode="exact").member
        changed = d + fs.FreeElement.word(max(d.terms))
        assert not fs.ideal_membership(changed, mode="exact").member


@pytest.mark.parametrize("w", [(4, 2), (5, 3)])
def test_modes_agree_on_random_ideal_elements(w):
    # random combinations of spanning rows are members; adding one word,
    # whose image has only positive coefficients, makes a non-member
    rng = random.Random(sum(w))
    labels = [label for label, _ in fs.spanning_set(w)]
    words = fs.words_of_weight(*w)
    for _ in range(4):
        combo = [(label, qpow(rng.randint(-3, 3)) * rng.choice((-2, -1, 1, 3)))
                 for label in rng.sample(labels, 3)]
        x = fs.expand_certificate(combo)
        for y, member in ((x, True), (x + fs.FreeElement.word(rng.choice(words)), False)):
            assert fs.ideal_membership(y, mode="exact").member is member
            assert fs.ideal_membership(y, mode="probabilistic", seed=1).member is member
