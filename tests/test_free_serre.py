import random
import time
from fractions import Fraction
from itertools import product

import pytest

from qkron import free_serre as fs
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
            rhs = {word: c.eval_q(t) for word, c in w.terms.items()}
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


def _rational_row_mod_p(terms, t):
    """The values of `eval_q` at q = t reduced modulo the prime, zeros
    dropped."""
    p = fs.PRIME
    vals = {k: c.eval_q(t) for k, c in terms.items()}
    row = {k: v.numerator * pow(v.denominator, -1, p) % p for k, v in vals.items()}
    return {k: v for k, v in row.items() if v}


def test_integer_rows_match_the_rational_evaluation():
    # the whole (5, 3) span, a slice of the (6, 4) span, and the six
    # straightening differences, whose coefficients reach negative powers
    # ((7, 5)'s half-exponents run from -24 to 0), also times 6 q^-3; rows
    # with positive and negative exponents, contiguous and with gaps; at
    # small points and at a drawn one
    rows = [e for _, e in fs.spanning_set((5, 3))]
    rows += [e for _, e in fs.spanning_set((6, 4))[::4]]
    rows += [d.scale(c) for _, d in fs.straightening_differences() for c in (1, 6 * qpow(-3))]
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
    assert any(h > 0 for e in rows[-3:] for c in e.terms.values() for h in c.terms)
    for t in (2, 3, 97, fs._probabilistic_points(0)[0]):
        for elem in rows:
            assert fs._eval_row(elem.terms, t) == _rational_row_mod_p(elem.terms, t)
    with pytest.raises(ValueError):
        fs._eval_row({(1,): half_pow(1)}, 2)
    with pytest.raises(ValueError):
        fs._eval_row({(1,): qpow(-2), (2,): qpow(4) + half_pow(-3)}, 2)


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


def _count_grids(monkeypatch) -> list:
    """Patch `_grid_echelon` to record the weight and point of each build."""
    grid_echelon, builds = fs._grid_echelon, []

    def spy(w, t):
        builds.append((w, t))
        return grid_echelon(w, t)

    monkeypatch.setattr(fs, "_grid_echelon", spy)
    return builds


@pytest.mark.parametrize("mode", [None, "exact", "probabilistic"])
def test_one_grid_per_point_serves_every_probabilistic_relation(monkeypatch, mode):
    # one grid per point, up to (7, 5), whether two relations (by default)
    # or all six (probabilistic mode) take that route; none in exact mode
    builds = _count_grids(monkeypatch)
    report = fs.verify_straightening_mod_serre(mode=mode)
    assert all(e["member"] for e in report)
    expected = [] if mode == "exact" else [((7, 5), t) for t in fs._probabilistic_points(0)]
    assert builds == expected


@pytest.mark.parametrize("mode", [None, "probabilistic"])
def test_a_non_member_fails_alone_and_is_not_reduced_again(monkeypatch, mode):
    # the (6, 4) difference, changed on its lead word, is reported a
    # non-member; the other five entries are as before, and after its first
    # point it is not evaluated again: each point evaluates S1, S2 and the
    # relations still live
    before = fs.verify_straightening_mod_serre(mode=mode)
    diffs = fs.straightening_differences()
    changed = [(name, d + fs.FreeElement.word(max(d.terms)) if d.weight() == (6, 4) else d)
               for name, d in diffs]
    monkeypatch.setattr(fs, "straightening_differences", lambda: changed)
    builds = _count_grids(monkeypatch)
    eval_row, evals = fs._eval_row, []
    monkeypatch.setattr(fs, "_eval_row", lambda terms, t: evals.append(t) or eval_row(terms, t))
    after = fs.verify_straightening_mod_serre(mode=mode)
    assert len(builds) == fs.PROBABILISTIC_POINTS
    live = sum(e["mode"] == "probabilistic" for e in before)
    assert len(evals) == fs.PROBABILISTIC_POINTS * (2 + live) - (fs.PROBABILISTIC_POINTS - 1)
    for b, a in zip(before, after):
        if tuple(b["weight"]) == (6, 4):
            assert (b["member"], a["member"]) == (True, False)
            assert {**a, "member": True} == b
        else:
            assert a == b


def test_single_membership_builds_its_own_weight_until_it_fails(monkeypatch):
    builds = _count_grids(monkeypatch)
    d = next(d for _, d in fs.straightening_differences() if d.weight() == (6, 4))
    assert fs.ideal_membership(d, mode="probabilistic", seed=1).member
    assert builds == [((6, 4), t) for t in fs._probabilistic_points(1)]
    builds.clear()
    assert not fs.ideal_membership(d + fs.FreeElement.word(max(d.terms)), mode="probabilistic").member
    assert builds == [((6, 4), fs._probabilistic_points(0)[0])]


def _keyed(terms) -> dict:
    """A coefficient dict with each word replaced by its `_word_key`."""
    return {fs._word_key(k): c for k, c in terms.items()}


def _flat_echelon(rows, t) -> dict:
    """The reference elimination: the echelon basis over GF(PRIME) of keyed
    rows at q = t, each row reduced in order and, if anything is left,
    stored scaled to lead 1."""
    basis = {}
    for terms in rows:
        row = fs._reduce(fs._eval_row(terms, t), basis)
        if row:
            lead = max(row)
            inv = pow(row[lead], -1, fs.PRIME)
            basis[lead] = {k: v * inv % fs.PRIME for k, v in row.items()}
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


def _assert_monic_echelon(basis):
    for lead, row in basis.items():
        assert lead == max(row) and row[lead] == 1
        assert all(0 < v < fs.PRIME for v in row.values())


@pytest.mark.parametrize("w, rank", [((5, 3), 35), ((6, 4), 162), ((7, 5), 693)])
def test_integer_echelon_rank_is_words_less_kostant_count(w, rank):
    # the quotient by the Serre ideal is U^+ of affine sl2, whose weight
    # component has the Kostant partition count as its dimension; the ideal
    # component, the rank of the span, is what is left of the words
    assert rank == len(fs.words_of_weight(*w)) - _kostant_table(w)[w[0]][w[1]]
    span_terms = [_keyed(e.terms) for _, e in fs.spanning_set(w)]
    for t in fs._probabilistic_points(0):
        basis = _flat_echelon(span_terms, t)
        assert len(basis) == rank, t
        _assert_monic_echelon(basis)


def test_grid_echelon_rank_in_every_cell_up_to_7_5():
    kostant = _kostant_table((7, 5))
    for t in fs._probabilistic_points(0):
        grid = fs._grid_echelon((7, 5), t)
        for a in range(8):
            for b in range(6):
                basis = grid[a, b]
                assert len(basis) == len(fs.words_of_weight(a, b)) - kostant[a][b], (a, b)
                _assert_monic_echelon(basis)


@pytest.mark.parametrize("w", [(5, 3), (6, 4), (7, 5), (5, 5), (8, 4)])
def test_grid_echelon_spans_the_spanning_rows(w):
    # the grid and the reference elimination over the spanning rows give
    # the same space at each point: equal rank, and each basis reduces the
    # other's rows to zero
    span_terms = [_keyed(e.terms) for _, e in fs.spanning_set(w)]
    for t in fs._probabilistic_points(0):
        grid, flat = fs._grid_echelon(w, t)[w], _flat_echelon(span_terms, t)
        assert len(grid) == len(flat) == len(fs.words_of_weight(*w)) - _kostant_table(w)[w[0]][w[1]]
        assert not any(fs._reduce(dict(row), flat) for row in grid.values())
        assert not any(fs._reduce(fs._eval_row(terms, t), grid) for terms in span_terms)


def _key_weight(k):
    """The weight of the word whose `_word_key` is k: a word of length n has
    a key in [2^n - 1, 2^(n+1) - 2], and its E2s are the bits of
    k - (2^n - 1)."""
    n = (k + 1).bit_length() - 1
    b = bin(k + 1 - (1 << n)).count("1")
    return n - b, b


def test_grid_echelon_reduces_only_rows_whose_left_word_is_no_lead(monkeypatch):
    # a cell skips the row u * S when u is a pivot lead of the cell wt(u):
    # every skipped row reduces to zero against its cell's final basis, and
    # (7, 5)'s grid reduces the other 223 of its 370 rows, 9 of them to zero
    # (the syzygies from (6, 3) on)
    w = (7, 5)
    relators = fs.serre_relators()
    reduce, seen = fs._reduce, []

    def spy(row, basis):
        left = reduce(row, basis)
        seen.append(bool(left))
        return left

    monkeypatch.setattr(fs, "_reduce", spy)
    for t in fs._probabilistic_points(0):
        seen.clear()
        grid = fs._grid_echelon(w, t)
        skipped = 0
        for (a, b), basis in grid.items():
            for s in relators:
                r1, r2 = s.weight()
                if a < r1 or b < r2:
                    continue
                for u in fs.words_of_weight(a - r1, b - r2):
                    if fs._word_key(u) in grid[a - r1, b - r2]:
                        skipped += 1
                        row = fs._eval_row(_keyed(fs._serre_row(u, s, ()).terms), t)
                        assert not reduce(row, basis), (t, (a, b), u)
        assert len(grid[w]) == 693
        assert (len(seen), seen.count(False), skipped) == (223, 9, 147), t


def test_word_keys_order_words_of_one_length():
    # keys order the words of one length as their reversals do; appending a
    # letter c to u adds c 2^len(u), and joining v onto u adds key(v) 2^len(u)
    words = fs.words_of_weight(5, 4)
    assert sorted(words, key=fs._word_key) == sorted(words, key=lambda u: u[::-1])
    assert len({fs._word_key(u) for u in words}) == len(words)
    assert all(_key_weight(fs._word_key(u)) == (5, 4) for u in words)
    rng = random.Random(43)
    for _ in range(50):
        u = tuple(rng.choice((1, 2)) for _ in range(rng.randint(0, 8)))
        v = tuple(rng.choice((1, 2)) for _ in range(rng.randint(0, 8)))
        for c in (1, 2):
            assert fs._word_key(u + (c,)) == fs._word_key(u) + c * 2 ** len(u)
        assert fs._word_key(u + v) == fs._word_key(u) + fs._word_key(v) * 2 ** len(u)


def test_probabilistic_points_are_distinct_field_elements_fixed_by_the_seed():
    for seed in range(20):
        points = fs._probabilistic_points(seed)
        assert len(set(points)) == len(points) == fs.PROBABILISTIC_POINTS
        assert all(2 <= t <= fs.PRIME - 1 for t in points)
        # drawn from the whole field, not from small integers
        assert max(points) > 2 ** 32
        assert points == fs._probabilistic_points(seed)
    assert fs._probabilistic_points(0) != fs._probabilistic_points(1)


@pytest.mark.parametrize("seed", range(20))
def test_probabilistic_rejects_a_changed_coefficient(seed):
    for _, d in fs.straightening_differences():
        if d.weight() not in ((6, 4), (7, 5)):
            continue
        assert fs.ideal_membership(d, mode="probabilistic", seed=seed).member
        lead = max(d.terms)
        changed = d + fs.FreeElement.word(lead)
        assert not fs.ideal_membership(changed, mode="probabilistic", seed=seed).member


def test_cross_oracle_with_normal_form():
    # every word in the u-generators of length <= 3 and total weight <= 12
    # (u_i has weight (i + 1, i)); those above total weight 8 take the
    # probabilistic route by default; both modes decide every one
    nonzero = probabilistic = 0
    for n in range(4):
        for letters in product(range(4), repeat=n):
            if sum(2 * i + 1 for i in letters) > 12:
                continue
            diff = fs.u_word_free_difference(letters)
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
    images = [_keyed(fs.shuffle_image(fs.FreeElement.word(u)).terms)
              for u in fs.words_of_weight(*w)]
    assert len(_flat_echelon(images, 2)) == _kostant_table(w)[5][3] == 21


def test_exact_decides_the_large_differences():
    # the weights the elimination could not finish in exact mode
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
