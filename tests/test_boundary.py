"""The boundary operator and its per-block matrices."""

import random
from fractions import Fraction

import pytest

from schouten import cli
from schouten.boundary import (
    WeightEscapeError,
    _bracket,
    _word_boundary,
    boundary,
    boundary_matrix,
    boundary_squared_failures,
    decode_chain,
    encode_chain,
)
from schouten.chains import (
    Chain,
    alphabet,
    canonicalize_word,
    chain_to_vector,
    enumerate_basis,
    wedge_chain,
    weight_signature,
)
from schouten.homology import betti
from schouten.torus import enumerate_weight_zero
from schouten.multivector import (
    MultiVector,
    _bracket_mono,
    bidegree,
    g_degree,
    schouten_bracket,
)


def random_gen(rng, n, max_beta=3):
    alpha = tuple(sorted(rng.sample(range(1, n + 1), rng.randint(1, n))))
    beta = [0] * n
    for _ in range(rng.randint(0, max_beta)):
        beta[rng.randrange(n)] += 1
    return alpha, tuple(beta)


def random_word(rng, n, m, max_beta=3):
    while True:
        sign, word = canonicalize_word([random_gen(rng, n, max_beta) for _ in range(m)])
        if sign:
            return word


# --- base cases --------------------------------------------------------------


def test_boundary_of_generator_is_zero():
    c = Chain.from_word(2, [((1,), (1, 0))])
    assert boundary(c).is_zero()


def test_boundary_of_pair_is_bracket():
    """d(A ^^ B) = [A, B], against the multivector bracket directly."""
    rng = random.Random(61)
    for _ in range(120):
        n = rng.randint(2, 3)
        ga, gb = random_gen(rng, n), random_gen(rng, n)
        sign, word = canonicalize_word([ga, gb])
        if sign == 0:
            continue
        A = MultiVector(n, {ga: Fraction(1)})
        B = MultiVector(n, {gb: Fraction(1)})
        # the canonical word is sign * (ga ^^ gb), so d(word) = sign * [A, B]
        expect = sign * Chain.from_multivector(schouten_bracket(A, B))
        assert boundary(Chain(n, {word: Fraction(1)})) == expect


def test_boundary_squares_to_zero_random_words():
    rng = random.Random(67)
    for _ in range(80):
        n = rng.randint(2, 3)
        m = rng.randint(2, 5)
        word = random_word(rng, n, m)
        c = Chain(n, {word: Fraction(1)})
        assert boundary(boundary(c)).is_zero()


def test_boundary_preserves_double_weight():
    rng = random.Random(71)
    for _ in range(60):
        n = rng.randint(2, 3)
        m = rng.randint(2, 4)
        word = random_word(rng, n, m)
        sig = weight_signature(word)
        d = boundary(Chain(n, {word: Fraction(1)}))
        for out in d.terms:
            assert weight_signature(out) == (sig[0] - 1, sig[1], sig[2])


def test_boundary_linear():
    rng = random.Random(73)
    n = 2
    w1 = random_word(rng, n, 3)
    w2 = random_word(rng, n, 3)
    a = Chain(n, {w1: Fraction(2, 3)})
    b = Chain(n, {w2: Fraction(-1, 5)})
    assert boundary(a + b) == boundary(a) + boundary(b)
    assert boundary(7 * a) == 7 * boundary(a)


# --- left action -------------------------------------------------------------


def test_left_action_matches_recursion():
    """d(A0 ^^ rest) = -A0 ^^ d(rest) + A0 . rest, with the seed's left
    action as the oracle."""
    rng = random.Random(79)
    for _ in range(60):
        n = rng.randint(2, 3)
        m = rng.randint(2, 4)
        word = random_word(rng, n, m)
        head, tail = word[0], word[1:]
        A0 = MultiVector(n, {head: Fraction(1)})
        lhs = boundary(Chain(n, {word: Fraction(1)}))
        minus = wedge_chain(Chain.from_multivector(A0),
                            boundary(Chain(n, {tail: Fraction(1)})))
        rhs = -1 * minus + reference_left_action(A0, tail)
        assert lhs == rhs


def reference_left_action(A0, word):
    """The seed's left_action, kept as the oracle: positions outer,
    monomials of A0 inner."""
    a0 = bidegree(A0)[0]
    n = A0.n
    terms = {}
    gdegs = [g_degree(f) for f in word]
    for i in range(len(word)):
        sign = -1 if (a0 * sum(gdegs[:i])) % 2 else 1
        rest = word[:i] + word[i + 1:]
        for (alpha0, beta0), c0 in A0.terms.items():
            for key, c in _bracket_mono(n, alpha0, beta0, word[i][0], word[i][1]):
                s2, nw = canonicalize_word(rest[:i] + (key,) + rest[i:])
                if s2 == 0:
                    continue
                terms[nw] = terms.get(nw, 0) + sign * s2 * c * c0
    return Chain(n, terms)


def reference_boundary_word(n, word):
    """The seed's recursive _boundary_word without its cache, kept as the
    oracle: d(head ^^ tail) = -head ^^ d(tail) + head . tail."""
    if len(word) <= 1:
        return ()
    head, tail = word[0], word[1:]
    terms = {}
    for w, c in reference_boundary_word(n, tail):
        sign, nw = canonicalize_word((head,) + w)
        if sign:
            terms[nw] = terms.get(nw, 0) - sign * c
    a0 = len(head[0]) - 1
    pref = 0
    for i, f in enumerate(tail):
        sign = -1 if (a0 * pref) % 2 else 1
        rest = tail[:i] + tail[i + 1:]
        for key, c in _bracket_mono(n, head[0], head[1], f[0], f[1]):
            s2, nw = canonicalize_word(rest[:i] + (key,) + rest[i:])
            if s2:
                terms[nw] = terms.get(nw, 0) + sign * s2 * c
        pref += len(f[0]) - 1
    return tuple((w, c) for w, c in terms.items() if c)


def word_boundary(n, word):
    """The pairwise int-word kernel on a generator word, decoded, as a dict
    without the cancelled terms."""
    _, w, h = weight_signature(word)
    A = alphabet(n, w, h)
    out = _word_boundary(A, tuple(A.rank_of(g) for g in word))
    return {tuple(A.gens[r] for r in code): c for code, c in out.items() if c}


def test_boundary_word_matches_reference_term_for_term():
    rng = random.Random(89)
    for _ in range(400):
        n = rng.randint(2, 3)
        word = random_word(rng, n, rng.randint(1, 5), max_beta=2)
        assert word_boundary(n, word) == dict(reference_boundary_word(n, word))


# the 13 benchmark blocks and six more, up to arity 7 and n = 4
ORACLE_BLOCKS = [
    (2, 4, 1, 1), (2, 5, 1, 1), (2, 4, 2, 2), (2, 3, 1, 2),
    (3, 2, 0, 0), (3, 2, 1, 1), (3, 2, 2, 2), (3, 2, 1, 2),
    (3, 1, 0, 0), (3, 1, 1, 1), (3, 1, 2, 2), (3, 1, 1, 2), (3, 3, 0, 0),
    (2, 6, 1, 1), (2, 7, 1, 1), (3, 3, 1, 1), (3, 3, 2, 2), (4, 2, 1, 1),
    (1, 3, 0, 1),
]


def test_word_boundary_matches_reference_on_blocks():
    """The pairwise kernel equals the recursion on every word of each
    block, and boundary_matrix holds the same coefficients."""
    for (n, m, w, h) in ORACLE_BLOCKS:
        bm = boundary_matrix(n, m, w, h)
        columns = {}
        for (r, c), v in bm.matrix.entries.items():
            columns.setdefault(c, {})[bm.codomain.words[r]] = v
        for col, word in enumerate(bm.domain.words):
            expect = dict(reference_boundary_word(n, word))
            assert word_boundary(n, word) == expect, (n, m, w, h, word)
            assert columns.get(col, {}) == expect, (n, m, w, h, word)


# --- explicit low-arity formula ----------------------------------------------


def test_boundary_of_triple_against_pairwise_formula():
    """Unrolled recursion: d(A^^B^^C) = -A^^[B,C] + [A,B]^^C + (-1)^{ab} B^^[A,C]."""
    rng = random.Random(83)
    for _ in range(60):
        n = rng.randint(2, 3)
        word = random_word(rng, n, 3)
        ga, gb, gc = word
        A = MultiVector(n, {ga: Fraction(1)})
        B = MultiVector(n, {gb: Fraction(1)})
        C = MultiVector(n, {gc: Fraction(1)})
        a, b = g_degree(ga), g_degree(gb)

        def pair(M, sgn, left=None, right=None):
            # wedge each monomial of M with the fixed factor, order kept
            out = Chain(n, {})
            for key, coeff in M.terms.items():
                raw = [left, key] if left is not None else [key, right]
                s, nw = canonicalize_word(raw)
                if s:
                    out = out + Chain(n, {nw: s * coeff * sgn})
            return out

        expect = (pair(schouten_bracket(B, C), -1, left=ga)
                  + pair(schouten_bracket(A, B), 1, right=gc)
                  + pair(schouten_bracket(A, C), (-1) ** (a * b), left=gb))
        assert boundary(Chain(n, {word: Fraction(1)})) == expect


# --- matrices ----------------------------------------------------------------


def test_boundary_matrix_columns_match_operator():
    n, m, w, h = 2, 3, 1, 1
    bm = boundary_matrix(n, m, w, h)
    for col, word in enumerate(bm.domain.words):
        img = boundary(Chain(n, {word: Fraction(1)}))
        vec = chain_to_vector(img, bm.codomain)
        for r, v in enumerate(vec):
            assert bm.matrix.entries.get((r, col), Fraction(0)) == v


def test_boundary_matrix_arity_one_is_zero_map():
    bm = boundary_matrix(2, 1, 0, 0)
    assert bm.matrix.rows == 0
    assert bm.matrix.cols == 4
    assert bm.codomain is None


def test_composite_matrix_is_zero():
    # d(C_2 -> C_1) . d(C_3 -> C_2) = 0, word by word
    got = [(basis.m, len(basis), bad) for basis, bad in boundary_squared_failures(2, 1, 1, 3)]
    assert got == [(2, 40, []), (3, 238, [])]


def _reached_bracket(domain):
    """A pair (a, b) of factors of one of the words of the basis `domain`
    with a nonzero bracket."""
    A = domain.alphabet
    for word in domain.codes:
        for k in range(len(word)):
            for i in range(k + 1, len(word)):
                if _bracket(A, word[k], word[i]):
                    return word[k], word[i]
    raise AssertionError("no nonzero bracket in the block")


@pytest.mark.parametrize("leave, via", [
    pytest.param(leave, via, id=leave if via == "boundary_matrix" else leave + "-betti")
    for via in ("boundary_matrix", "betti") for leave in ("block", "alphabet")])
def test_corrupt_bracket_entry_raises_weight_escape(monkeypatch, capsys, leave, via):
    n, m, w, h = 2, 3, 1, 1
    # betti assembles only the words of torus weight 0, so its variant
    # corrupts a bracket of one of them
    enumerate_words = enumerate_basis if via == "boundary_matrix" else enumerate_weight_zero
    domain = enumerate_words(n, m, w, h)
    a, b = _reached_bracket(domain)
    A = domain.alphabet
    (r, c), *rest = _bracket(A, a, b)
    if leave == "block":
        # an odd generator (never killed by a repeat) of another bidegree:
        # the word leaves the (w, h) block
        r = next(x for x in range(len(A.gens)) if A.parity[x]
                 and weight_signature((A.gens[x],)) != weight_signature((A.gens[r],)))
    else:
        r = len(A.gens)
    monkeypatch.setitem(A.brackets, a * len(A.gens) + b, tuple([(r, c)] + rest))
    if via == "boundary_matrix":
        with pytest.raises(WeightEscapeError):
            boundary_matrix(n, m, w, h, domain)
        return
    # betti of arity m - 1 streams the columns of d: C_m -> C_{m-1} (d_in)
    with pytest.raises(WeightEscapeError, match="m=%d," % m):
        betti(n, m - 1, w, h)
    rc = cli.main(["betti", "--n", str(n), "--m", str(m - 1), "--w", str(w), "--h", str(h)])
    err = capsys.readouterr().err
    assert rc == 1 and "left block (m=%d," % m in err
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_boundary_matrix_rejects_bases_of_another_block():
    domain = enumerate_basis(2, 3, 1, 1)
    with pytest.raises(ValueError):
        boundary_matrix(2, 3, 1, 2, domain)
    with pytest.raises(ValueError):
        boundary_matrix(2, 3, 1, 1, domain, enumerate_basis(2, 2, 1, 2))


def test_encode_decode_round_trip():
    """A chain spread over three weight blocks, with fractional
    coefficients, goes to integer int-word dicts per block and back."""
    rng = random.Random(59)
    words = [word for m, w, h in [(1, 0, 1), (2, 1, 1), (2, 0, 0)]
             for word in rng.sample(enumerate_basis(2, m, w, h).words, 4)]
    c = Chain(2, {word: Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for word in words})
    scale, blocks = encode_chain(c)
    assert set(blocks) == {(w, h) for _, w, h in map(weight_signature, c.terms)}
    assert all(type(v) is int for _, codes in blocks.values() for v in codes.values())
    assert decode_chain(2, blocks.values(), Fraction(1, scale)) == c
    # two weight blocks whose words share generators: each generator's
    # weights are computed once, and each word still lands in its own block
    ones = rng.sample(enumerate_basis(2, 1, 0, 0).words, 3)
    shared = [word for word in enumerate_basis(2, 2, 1, 1).words
              if any(one[0] in word for one in ones)]
    two = ones + rng.sample(shared, 4)
    c = Chain(2, {word: rng.choice([-2, 3, Fraction(-1, 2)]) for word in two})
    scale, blocks = encode_chain(c)
    assert set(blocks) == {(0, 0), (1, 1)} and scale == 2
    assert sum(map(len, (codes for _, codes in blocks.values()))) == len(c.terms)
    assert decode_chain(2, blocks.values(), Fraction(1, scale)) == c
