"""Canonical words, chain arithmetic, basis enumeration, serialization."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from schouten import words
from schouten.chains import (
    BasisIndex,
    Chain,
    _class_multisets,
    alphabet,
    basis_dim,
    block_dims,
    canonicalize_word,
    chain_to_text,
    chain_to_vector,
    codes_to_text,
    dim_generators,
    encode_chain,
    enumerate_basis,
    factor_key,
    generators_of_bidegree,
    max_arity,
    max_arity_bound,
    parse_chain,
    parse_codes,
    place_factor,
    wedge_chain,
    weight_signature,
)
from schouten.multivector import g_degree


def random_gen(rng, n, max_beta=3):
    alpha = tuple(sorted(rng.sample(range(1, n + 1), rng.randint(1, n))))
    beta = [0] * n
    for _ in range(rng.randint(0, max_beta)):
        beta[rng.randrange(n)] += 1
    return alpha, tuple(beta)


# --- canonical words ---------------------------------------------------------


def test_even_degree_repeat_kills_word():
    g = ((1,), (1, 0))  # g-degree 0
    sign, word = canonicalize_word([g, g])
    assert sign == 0 and word is None


def test_odd_degree_repeat_survives():
    g = ((1, 2), (1, 1))  # bivector, g-degree 1
    sign, word = canonicalize_word([g, g])
    assert sign == 1 and word == (g, g)


def test_swap_sign_even_even():
    g1 = ((1,), (0, 0))
    g2 = ((2,), (0, 0))
    s_fwd, w_fwd = canonicalize_word([g1, g2])
    s_rev, w_rev = canonicalize_word([g2, g1])
    assert w_fwd == w_rev
    assert s_fwd == -s_rev  # -(-1)^{0*0} = -1 per swap


def test_swap_sign_odd_odd():
    g1 = ((1, 2), (0, 0, 0))
    g2 = ((1, 3), (1, 0, 0))
    s_fwd, w_fwd = canonicalize_word([g1, g2])
    s_rev, w_rev = canonicalize_word([g2, g1])
    assert w_fwd == w_rev
    assert s_fwd == s_rev  # -(-1)^{1*1} = +1 per swap


def test_canonical_sign_matches_transposition_count():
    """Oracle: resolve an arbitrary permutation into adjacent swaps by brute
    force and accumulate -(-1)^{xy} per swap independently."""
    rng = random.Random(17)
    for _ in range(80):
        n = rng.randint(2, 3)
        m = rng.randint(2, 4)
        gens = []
        while len(gens) < m:
            g = random_gen(rng, n)
            if g not in gens:
                gens.append(g)
        perm = list(gens)
        rng.shuffle(perm)
        # bubble sort oracle
        sign = 1
        arr = list(perm)
        for i in range(len(arr)):
            for j in range(len(arr) - 1):
                if factor_key(arr[j]) > factor_key(arr[j + 1]):
                    x, y = g_degree(arr[j]), g_degree(arr[j + 1])
                    if (x * y) % 2 == 0:
                        sign = -sign
                    arr[j], arr[j + 1] = arr[j + 1], arr[j]
        got_sign, got_word = canonicalize_word(perm)
        assert got_word == tuple(arr)
        assert got_sign == sign


def reference_canonicalize(factors):
    """The seed's canonicalize_word, kept as the oracle: an insertion sort
    with its own swap sign, then a scan for an adjacent even repeat."""
    fs = list(factors)
    if not fs:
        raise ValueError("empty factor list")
    sign = 1
    for i in range(1, len(fs)):
        j = i
        while j > 0 and factor_key(fs[j - 1]) > factor_key(fs[j]):
            x = g_degree(fs[j - 1])
            y = g_degree(fs[j])
            if (x * y) % 2 == 0:
                sign = -sign
            fs[j - 1], fs[j] = fs[j], fs[j - 1]
            j -= 1
    for f1, f2 in zip(fs, fs[1:]):
        if f1 == f2 and g_degree(f1) % 2 == 0:
            return 0, None
    return sign, tuple(fs)


def random_factor_list(rng, n, m):
    """m generators drawn from a small pool, so even and odd g-degree
    repeats both occur often."""
    pool = [random_gen(rng, n, max_beta=1) for _ in range(rng.randint(1, 2 * m))]
    return [rng.choice(pool) for _ in range(m)]


def test_canonicalize_matches_reference():
    rng = random.Random(41)
    killed = odd_repeats = 0
    for _ in range(3000):
        n = rng.randint(1, 3)
        raw = random_factor_list(rng, n, rng.randint(1, 6))
        expect = reference_canonicalize(raw)
        assert canonicalize_word(raw) == expect
        assert canonicalize_word(iter(raw)) == expect
        if expect[0] == 0:
            killed += 1
        elif len(set(raw)) < len(raw):
            odd_repeats += 1  # a surviving repeat has odd g-degree
    assert killed > 500 and odd_repeats > 200
    with pytest.raises(ValueError):
        canonicalize_word([])


def test_place_factor_matches_full_canonicalization():
    rng = random.Random(29)
    checked = 0
    for _ in range(400):
        n = rng.randint(2, 3)
        m = rng.randint(1, 4)
        raw = [random_gen(rng, n) for _ in range(m + 1)]
        base_s, base = reference_canonicalize(raw[:-1])
        if base_s == 0:
            continue
        gen = raw[-1]
        # place_factor works on int words: rank the factors in factor order
        order = sorted(set(base) | {gen}, key=factor_key)
        rank = {g: r for r, g in enumerate(order)}
        parity = [g_degree(g) % 2 for g in order]
        code = tuple(rank[g] for g in base)
        for i in range(len(base) + 1):
            expect = reference_canonicalize(base[:i] + (gen,) + base[i:])
            s, placed = place_factor(code, i, rank[gen], parity)
            assert (s, placed and tuple(order[r] for r in placed)) == expect
            checked += 1
    assert checked > 500


# --- chain arithmetic --------------------------------------------------------


def test_chain_linear_structure():
    g1 = (((1,), (1, 0)),)
    g2 = (((2,), (0, 1)),)
    a = Chain(2, {g1: Fraction(1, 2)})
    b = Chain(2, {g1: Fraction(1, 2), g2: Fraction(-1)})
    assert (a + b).terms == {g1: Fraction(1), g2: Fraction(-1)}
    assert (a - a).is_zero()
    assert (2 * b).terms[g2] == Fraction(-2)


def test_chain_keeps_integral_coefficients_as_ints():
    g1 = (((1,), (1, 0)),)
    g2 = (((2,), (0, 1)),)
    c = Chain(2, {g1: Fraction(4, 2), g2: Fraction(1, 3)})
    assert type(c.terms[g1]) is int and c.terms[g1] == 2
    assert type(c.terms[g2]) is Fraction
    assert type((c * Fraction(3)).terms[g2]) is int
    assert type((c + c).terms[g1]) is int
    assert type(Chain(2, {g1: True}).terms[g1]) is int
    assert Chain(2, {g1: 0.5}).terms[g1] == Fraction(1, 2)
    assert type(Chain(2, {g1: 0.5}).terms[g1]) is Fraction


def test_alphabet_bidegree_matches_generators():
    A = alphabet(3, 1, 2)
    assert len(A.bidegree) == len(A.gens)
    for r, (alpha, beta) in enumerate(A.gens):
        assert A.bidegree[r] == (len(alpha) - 1, sum(beta) - 1)
    assert [A.gens[r] for r in A.classes[(0, -1)]] == [((l,), (0, 0, 0)) for l in (1, 2, 3)]


def _digits(x, base, n):
    """The n base-`base` digits of x, most significant first."""
    out = []
    for _ in range(n):
        x, d = divmod(x, base)
        out.append(d)
    return tuple(reversed(out))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_alphabet_keys_rank_every_generator(n):
    """On every alphabet with w, h <= 2, rank_of(gens[r]) == r, the key map
    is injective, and each key is id(alpha) * B^n plus the exponents as
    base-B digits, B = 2(h + n + w + 1) + 1."""
    for w in range(3):
        for h in range(3):
            A = words.Alphabet(n, w, h)
            assert A.base == 2 * (h + n + w + 1) + 1
            assert [A.rank_of(gen) for gen in A.gens] == list(range(len(A.gens)))
            assert len(set(A.keys)) == len(A.ranks) == len(A.gens)
            for (alpha, beta), key in zip(A.gens, A.keys):
                direction, code = divmod(key, A.base ** n)
                assert direction == sum(2 ** (l - 1) for l in alpha)
                assert _digits(code, A.base, n) == beta


@pytest.mark.parametrize("block", [(1, 0, 0), (2, 1, 1), (3, 0, 2), (4, 1, 0)])
def test_rank_of_rejects_exponents_outside_the_digits(block):
    """An exponent of h + n + w + 2, one more than any generator of the
    alphabet has, and an exponent of B, which would carry into the next
    digit of the key and alias a generator of the alphabet, both have no
    rank."""
    n, w, h = block
    A = words.Alphabet(*block)
    top = h + n + w + 1
    for l in range(n):
        for e in (top + 1, A.base):
            beta = tuple(e if k == l else 0 for k in range(n))
            assert A.rank_of(((1,), beta)) is None
        # the key of the exponent B is the key of a generator of A: d_2
        # for l = 0, x_l d_1 otherwise
        key = A.span + A.base * A.places[l]
        assert A.ranks.get(key) is not None or n == 1
    assert A.rank_of(((1,), (0,) * (n + 1))) is None
    assert A.rank_of(((n + 1,), (0,) * n)) is None


@pytest.mark.parametrize("block", [(2, 1, 1), (3, 1, 2), (2, 0, -3), (1, 2, 0)])
def test_shifts_are_the_ranks_of_x_l_times_a_generator(block):
    """certificate._shifts, read off the keys, gives the rank of x_l g for
    every generator g of the alphabet and l = 1..n, and None where x_l g
    lies outside it."""
    from schouten.certificate import _shifts

    A = words.Alphabet(*block)
    outside = 0
    for r, (alpha, beta) in enumerate(A.gens):
        expect = tuple(A.rank_of((alpha, beta[:l] + (beta[l] + 1,) + beta[l + 1:]))
                       for l in range(A.n))
        assert _shifts(A, r) == expect
        outside += expect.count(None)
    assert outside


def test_wedge_chain_square_of_even_factor_is_zero():
    c = Chain.from_word(2, [((1,), (1, 0))])
    assert wedge_chain(c, c).is_zero()


def test_wedge_chain_square_of_bivector_survives():
    c = Chain.from_word(2, [((1, 2), (1, 1))])
    sq = wedge_chain(c, c)
    assert len(sq.terms) == 1 and list(sq.terms.values()) == [Fraction(1)]


def test_arity_mixed_raises():
    g1 = (((1,), (1, 0)),)
    g2 = (((1,), (1, 0)), ((2,), (0, 1)))
    with pytest.raises(ValueError):
        Chain(2, {g1: Fraction(1), g2: Fraction(1)}).arity()


def test_weight_signature():
    word = (((1,), (0, 0)), ((1, 2), (2, 1)))
    assert weight_signature(word) == (2, 1, 1)


# --- generator spaces --------------------------------------------------------


def test_generator_dimension_closed_form():
    for n in (1, 2, 3):
        for i in range(-1, n + 1):
            for j in range(-1, 4):
                assert len(generators_of_bidegree(n, i, j)) == dim_generators(n, i, j)


def test_generators_out_of_range_empty():
    assert generators_of_bidegree(2, 2, 0) == ()
    assert generators_of_bidegree(2, 0, -2) == ()


def reference_compositions(total, parts):
    """The recursive composition generator, kept as the oracle."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in reference_compositions(total - first, parts - 1):
            yield (first,) + rest


def reference_generators(n, i, j):
    """generators_of_bidegree as it was: the recursive compositions for
    each alpha, the list then sorted by factor_key."""
    if not (0 <= i <= n - 1) or j < -1:
        return ()
    gens = [(alpha, beta) for alpha in itertools.combinations(range(1, n + 1), i + 1)
            for beta in reference_compositions(j + 1, n)]
    gens.sort(key=factor_key)
    return tuple(gens)


def test_generators_match_the_recursive_sorted_reference():
    """Every class (i, j) of the alphabets (n, w, h), n <= 4 and w, h <= 3,
    lists the generators and the compositions of the reference, in its
    order, with no sort."""
    classes = set()
    for n in range(1, 5):
        for w in range(4):
            for h in range(-1, 4):
                classes.update((n,) + ij for ij in words.Alphabet(n, w, h).classes)
    for n, i, j in sorted(classes):
        assert list(words._compositions(j + 1, n)) == list(reference_compositions(j + 1, n))
        assert generators_of_bidegree(n, i, j) == reference_generators(n, i, j)
    assert (4, 3, 10) in classes


# --- basis enumeration -------------------------------------------------------


def brute_force_basis(n, m, w, h):
    """Independent enumeration: all multisets of m generators drawn from the
    full generator pool, filtered by weight and the even-repeat rule."""
    pool = []
    for i in range(0, n):
        for j in range(-1, h + m + 1):
            pool.extend(generators_of_bidegree(n, i, j))
    words = set()
    for combo in itertools.combinations_with_replacement(sorted(pool, key=factor_key), m):
        ws = weight_signature(combo)
        if ws != (m, w, h):
            continue
        ok = True
        for g1, g2 in zip(combo, combo[1:]):
            if g1 == g2 and g_degree(g1) % 2 == 0:
                ok = False
                break
        if ok:
            words.add(combo)
    return words


@pytest.mark.parametrize("n,m,w,h", [
    (2, 1, 0, 0), (2, 2, 0, 0), (2, 2, 1, 1), (2, 3, 0, 0),
    (2, 2, 2, 2), (3, 2, 0, 0), (2, 2, 0, 1), (2, 2, 1, 0),
    (1, 2, 0, 1), (2, 3, 1, -1),
])
def test_enumeration_against_brute_force(n, m, w, h):
    basis = enumerate_basis(n, m, w, h)
    expect = brute_force_basis(n, m, w, h)
    assert set(basis.words) == expect
    assert len(basis) == len(expect)


def reference_enumerate(n, m, w, h):
    """The seed's enumerate_basis, kept as the oracle: generator pools per
    class multiset, the words sorted by factor_key."""
    words = []
    for classes in _class_multisets(n, m, w, h, (0, -1)):
        pools = []
        for (i, j), count in classes:
            gens = generators_of_bidegree(n, i, j)
            if i % 2 == 0:
                pools.append(list(itertools.combinations(gens, count)))
            else:
                pools.append(list(itertools.combinations_with_replacement(gens, count)))
        for pick in itertools.product(*pools):
            words.append(tuple(g for group in pick for g in group))
    words.sort(key=lambda word: tuple(factor_key(f) for f in word))
    return words


@pytest.mark.parametrize("n,m,w,h", [
    (2, 4, 1, 1), (2, 5, 1, 1), (2, 4, 2, 2), (2, 3, 1, 2), (3, 2, 1, 2),
    (3, 3, 0, 0), (3, 2, 2, 2), (2, 8, 0, 0), (1, 3, 0, 1), (4, 2, 1, 1),
    (2, 3, 1, -1), (2, 2, 0, -3), (3, 1, 2, 2),
])
def test_enumeration_order_matches_reference(n, m, w, h):
    basis = enumerate_basis(n, m, w, h)
    expect = reference_enumerate(n, m, w, h)
    assert list(basis.words) == expect
    assert list(basis.codes) == sorted(basis.codes)
    assert [basis.position(word) for word in expect] == list(range(len(expect)))


def test_alphabet_cache_is_bounded_and_ranks_are_stable():
    first = alphabet(2, 1, 1)
    for block in [(1, 0, 0), (2, 0, 0), (2, 0, 1), (3, 0, 0), (3, 1, 1), (2, 2, 2)]:
        alphabet(*block)
    assert len(words._ALPHABETS) <= words._ALPHABET_SLOTS
    again = alphabet(2, 1, 1)
    assert again is not first
    assert again.gens == first.gens
    assert again.keys == first.keys
    assert [again.rank_of(gen) for gen in first.gens] == list(range(len(first.gens)))


def test_known_small_dimensions():
    assert len(enumerate_basis(2, 1, 0, 0)) == 4
    assert len(enumerate_basis(2, 2, 0, 0)) == 18


def test_basis_sorted_and_indexed():
    basis = enumerate_basis(2, 2, 1, 1)
    keys = [tuple(factor_key(f) for f in word) for word in basis.words]
    assert keys == sorted(keys)
    for i, word in enumerate(basis.words):
        assert basis.position(word) == i
    with pytest.raises(KeyError):
        basis.position((((1,), (0, 0)),))


def test_max_arity_consistent_with_bound():
    for (n, w, h) in [(2, 0, 0), (2, 1, 1), (3, 0, 0), (1, 0, 0)]:
        mm = max_arity(n, w, h)
        assert mm <= max_arity_bound(n, w, h)
        if mm:
            assert len(enumerate_basis(n, mm, w, h)) > 0
        assert len(enumerate_basis(n, mm + 1, w, h)) == 0


def test_basis_dim_matches_enumeration():
    # the class-multiset product formula against the words themselves, on
    # every arity up to the bound, empty blocks included
    grid = [(n, w, h) for n in (1, 2) for w in range(3) for h in range(-3, 3)]
    grid += [(3, 0, h) for h in range(-3, 1)]
    for (n, w, h) in grid:
        for m in range(1, max_arity_bound(n, w, h) + 1):
            assert basis_dim(n, m, w, h) == len(enumerate_basis(n, m, w, h)), (n, m, w, h)


def reference_basis_dim(n, m, w, h):
    """The seed's basis_dim, kept as the oracle: over the class multisets,
    the product of comb(d, k) (k distinct even factors) and
    comb(d + k - 1, k) (k odd factors with repeats)."""
    total = 0
    for classes in _class_multisets(n, m, w, h, (0, -1)):
        term = 1
        for (i, j), k in classes:
            d = dim_generators(n, i, j)
            term *= math.comb(d, k) if i % 2 == 0 else math.comb(d + k - 1, k)
        total += term
    return total


@pytest.mark.parametrize("nwh", [(n, w, h) for n in (1, 2) for w in range(-1, 4)
                                 for h in range(-3, 4)]
                         + [(3, 0, 0), (3, 1, 1), (3, 2, 2), (3, 1, 2), (3, 0, -2),
                            (4, 1, 1)],
                         ids="n{0[0]}-w{0[1]}-h{0[2]}".format)
def test_block_dims_match_class_multiset_count(nwh):
    n, w, h = nwh
    bound = max_arity_bound(n, w, h)
    dims = block_dims(n, w, h)
    assert len(dims) <= bound + 1 and (len(dims) == 1 or dims[-1])
    assert dims[0] == (1 if (w, h) == (0, 0) else 0)
    expect = [reference_basis_dim(n, m, w, h) for m in range(1, bound + 2)]
    assert [basis_dim(n, m, w, h) for m in range(1, bound + 2)] == expect
    assert max_arity(n, w, h) == max((m for m, d in enumerate(expect, start=1) if d),
                                     default=0)


def test_block_dims_cache_is_bounded():
    for w in range(40):
        block_dims(1, w, 0)
    assert block_dims.cache_info().currsize <= block_dims.cache_info().maxsize


def test_max_arity_known_value():
    # n=2, weight (0,0): top word is d1 ^ d2 ^ (the 4 linear fields) ^ 2 quadratics
    assert max_arity(2, 0, 0) == 8


# --- coordinates and serialization ------------------------------------------


def test_vector_round_trip():
    rng = random.Random(53)
    basis = enumerate_basis(2, 2, 1, 1)
    terms = {w: Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for w in
             rng.sample(basis.words, 7)}
    c = Chain(2, terms)
    v = chain_to_vector(c, basis)
    assert len(v) == len(basis)
    assert Chain(2, {basis.words[i]: x for i, x in enumerate(v) if x}) == c


def test_text_round_trip_and_reordering():
    c = Chain.from_word(2, [((2,), (0, 1)), ((1,), (1, 0))], Fraction(-3, 2))
    text = chain_to_text(c)
    assert parse_chain(2, text) == c
    # factor order in the input must not matter beyond the sign
    swapped = "3/2 | x[0,1] d[2] ; x[1,0] d[1]"
    straight = "3/2 | x[1,0] d[1] ; x[0,1] d[2]"
    assert parse_chain(2, swapped) == -parse_chain(2, straight)


def reference_chain_to_text(c):
    """chain_to_text as it was first written: the words sorted by their
    tuples of factor keys, every factor of every word formatted, every
    coefficient taken through Fraction."""
    def coeff(x):
        x = Fraction(x)
        return str(x.numerator) if x.denominator == 1 else "%d/%d" % (x.numerator, x.denominator)

    lines = []
    for word, x in sorted(c.terms.items(), key=lambda kv: tuple(factor_key(f) for f in kv[0])):
        lines.append("%s | %s" % (coeff(x), " ; ".join(words.format_factor(f) for f in word)))
    return "\n".join(lines)


def test_chain_to_text_matches_reference():
    """Seeded chains of arity 2, of arity 3 and of both, over two weight
    blocks, with negative int and Fraction coefficients."""
    rng = random.Random(61)
    for n in (2, 3):
        by_arity = {m: [word for w, h in [(0, 0), (1, 1)]
                        for word in rng.sample(enumerate_basis(n, m, w, h).words, 6)]
                    for m in (2, 3)}
        for picks in [by_arity[2], by_arity[3], by_arity[2] + by_arity[3]]:
            terms = {word: rng.choice([rng.randint(-9, 9),
                                       Fraction(rng.randint(-9, 9), rng.randint(2, 5))])
                     for word in picks}
            c = Chain(n, terms)
            assert any(type(x) is int and x < 0 for x in c.terms.values())
            assert any(type(x) is Fraction for x in c.terms.values())
            text = chain_to_text(c)
            assert text == reference_chain_to_text(c)
            assert parse_chain(n, text) == c


def test_parse_codes_is_the_encoding_of_the_parsed_chain():
    """parse_codes gives the int-word form that encode_chain gives for
    parse_chain's Chain: the least common denominator, the blocks in the
    order of their first lines, no zero term and no empty block, on
    seeded chains of two blocks and two arities whose lines come shuffled,
    with a zero line, a line repeated and a block that cancels away."""
    rng = random.Random(67)
    for n in (2, 3):
        words_ = [word for w, h in [(0, 0), (1, 1)] for m in (2, 3)
                  for word in rng.sample(enumerate_basis(n, m, w, h).words, 4)]
        c = Chain(n, {word: Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 4))
                      for word in words_})
        lines = chain_to_text(c).splitlines()
        gone = chain_to_text(Chain(n, {enumerate_basis(n, 2, 2, 2).words[0]: 1}))
        repeated = lines[1]
        lines += ["0 | " + lines[0].partition(" | ")[2], repeated, gone, "-" + gone]
        rng.shuffle(lines)
        text = "\n".join(lines)
        den, blocks = parse_codes(n, text)
        U = parse_chain(n, text)
        assert U == c + parse_chain(n, repeated)
        scale, encoded = encode_chain(U)
        assert den == scale
        first_lines = [weight_signature(next(iter(parse_chain(n, "1 | " + line.partition(
            " | ")[2]).terms)))[1:] for line in lines]
        assert list(blocks) == list(encoded) == [key for key in dict.fromkeys(first_lines)
                                                 if key != (2, 2)]
        for key, (A, codes) in blocks.items():
            assert A.gens == encoded[key][0].gens
            assert codes == encoded[key][1]
            assert list(codes) == list(encoded[key][1])
            assert codes_to_text(A.gens, den, codes) == chain_to_text(
                Chain(n, {w: x for w, x in U.terms.items() if weight_signature(w)[1:] == key}))


def test_parse_chain_sums_repeated_and_cancelling_lines():
    a = "x[1,0] d[1] ; x[0,1] d[2]"
    b = "x[0,0] d[1,2] ; x[1,0] d[2]"
    text = "\n".join(["2 | " + a, "-2 | " + a, "1/3 | " + b, "1 | " + a,
                      "-1/3 | " + b, "1/2 | " + b, "0 | " + a])
    expect = parse_chain(2, "1 | " + a) + parse_chain(2, "1/2 | " + b)
    assert parse_chain(2, text) == expect
    assert parse_chain(2, "1 | %s\n-1 | %s" % (a, a)).is_zero()


def test_parse_chain_rejects_bad_generator():
    with pytest.raises(ValueError):
        parse_chain(2, "1 | x[0,0] d[1]\n1 | x[0,0] d[3]")


def test_parse_chain_skips_blank_and_comment_lines():
    text = "\n# note\n1 | x[0,0] d[1]\n\n"
    c = parse_chain(2, text)
    assert len(c.terms) == 1
