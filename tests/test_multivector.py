"""Multivector fields: wedge, bracket, bidegrees, serialization."""

import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

import pytest

from schouten.chains import Chain, alphabet
from schouten.multivector import (
    DimensionMismatchError,
    MixedDegreeError,
    MultiVector,
    _bracket_mono,
    _merge_directions,
    bidegree,
    format_monomial,
    parse_factor,
    parse_monomial,
    schouten_bracket,
)
from schouten import words
from schouten.words import WeightEscapeError, _bracket, _direction_terms, format_factor


def mono(n, coeff, beta, alpha):
    return MultiVector.monomial(n, coeff, beta, alpha)


def _wedge_mono(gen1, gen2):
    """Wedge of unit monomials; returns (sign, (alpha, beta)) or None."""
    res = _merge_directions(gen1[0], gen2[0])
    if res is None:
        return None
    sign, alpha = res
    beta = tuple(b1 + b2 for b1, b2 in zip(gen1[1], gen2[1]))
    return sign, (alpha, beta)


@lru_cache(maxsize=None)
def reference_bracket_mono(n, alpha_a, beta_a, alpha_b, beta_b):
    """The Schouten bracket of two unit monomials by its characterization:
    the Lie bracket on vector-field pairs, graded Leibniz in the second
    slot and graded antisymmetry, recursively.  An oracle for the closed
    form of _bracket_mono; same return type."""
    p, q = len(alpha_a), len(alpha_b)
    if p == 1 and q == 1:
        i, j = alpha_a[0], alpha_b[0]
        out = {}
        # x^ba d_i(x^bb) d_j  -  x^bb d_j(x^ba) d_i
        if beta_b[i - 1] > 0:
            beta = list(beta_b)
            beta[i - 1] -= 1
            key = ((j,), tuple(x + y for x, y in zip(beta_a, beta)))
            out[key] = out.get(key, 0) + beta_b[i - 1]
        if beta_a[j - 1] > 0:
            beta = list(beta_a)
            beta[j - 1] -= 1
            key = ((i,), tuple(x + y for x, y in zip(beta, beta_b)))
            out[key] = out.get(key, 0) - beta_a[j - 1]
        return tuple((k, c) for k, c in out.items() if c)
    if q > 1:
        # B = B1 ^ B2 with B1 = x^bb d_{first}, B2 of unit coefficient:
        # [A, B1^B2] = [A,B1]^B2 + (-1)^{(p-1)|B1|} B1^[A,B2]
        zero = (0,) * n
        b1 = (alpha_b[:1], beta_b)
        b2_alpha = alpha_b[1:]
        out = {}
        for key, c in reference_bracket_mono(n, alpha_a, beta_a, b1[0], b1[1]):
            res = _wedge_mono(key, (b2_alpha, zero))
            if res is not None:
                sign, k = res
                out[k] = out.get(k, 0) + sign * c
        s = -1 if (p - 1) % 2 else 1
        for key, c in reference_bracket_mono(n, alpha_a, beta_a, b2_alpha, zero):
            res = _wedge_mono(b1, key)
            if res is not None:
                sign, k = res
                out[k] = out.get(k, 0) + s * sign * c
        return tuple((k, c) for k, c in out.items() if c)
    # q == 1 < p: graded antisymmetry [A,B] = (-1)^{1+(p-1)(q-1)} [B,A];
    # here q-1 = 0 so the sign is -1.
    return tuple((k, -c) for k, c in reference_bracket_mono(n, alpha_b, beta_b, alpha_a, beta_a))


def wedge(A, B):
    """The wedge of multivector fields: _wedge_mono extended bilinearly."""
    terms = {}
    for gA, cA in A.terms.items():
        for gB, cB in B.terms.items():
            res = _wedge_mono(gA, gB)
            if res is not None:
                sign, key = res
                terms[key] = terms.get(key, 0) + sign * cA * cB
    return MultiVector(A.n, terms)


def random_mono(rng, n, max_beta=4, coeff=True):
    alpha = tuple(sorted(rng.sample(range(1, n + 1), rng.randint(1, n))))
    beta = [0] * n
    for _ in range(rng.randint(0, max_beta)):
        beta[rng.randrange(n)] += 1
    c = rng.choice([-3, -2, -1, 1, 2, 3]) if coeff else 1
    return mono(n, c, tuple(beta), alpha)


# --- construction and bookkeeping -------------------------------------------


def test_zero_terms_dropped():
    A = MultiVector(2, {((1,), (0, 0)): Fraction(0)})
    assert A.is_zero()


def test_generator_validation():
    with pytest.raises(DimensionMismatchError):
        MultiVector(2, {((1,), (0, 0, 0)): Fraction(1)})
    with pytest.raises(ValueError):
        MultiVector(2, {((2, 1), (0, 0)): Fraction(1)})  # not increasing
    with pytest.raises(ValueError):
        MultiVector(2, {((1, 1), (0, 0)): Fraction(1)})  # repeated direction
    with pytest.raises(ValueError):
        MultiVector(2, {((3,), (0, 0)): Fraction(1)})    # out of range


def test_arithmetic_results_are_not_checked_again(monkeypatch):
    """+, -, * and schouten_bracket build their results from checked terms,
    so no generator is checked again; each result equals what the checking
    constructor makes of its terms, with every coefficient a nonzero
    Fraction, a float scalar's products included.  The constructor still
    checks."""
    from schouten import multivector

    A = mono(2, 3, (1, 0), (1, 2)) - mono(2, 1, (0, 2), (1,))
    B = mono(2, Fraction(1, 2), (2, 1), (2,)) + mono(2, 1, (0, 2), (1,))
    calls = []
    monkeypatch.setattr(multivector, "check_generator", lambda *args: calls.append(args))
    results = [A + B, A - B, -A, A * 3, 2 * A, A * Fraction(1, 3), A * 0.5, A * 0,
               schouten_bracket(A, B), schouten_bracket(A, A)]
    assert calls == []
    for result in results:
        assert type(result) is MultiVector
        assert all(type(c) is Fraction and c for c in result.terms.values())
        assert result == MultiVector(2, result.terms)
    assert (A + B).terms == {((1, 2), (1, 0)): 3, ((2,), (2, 1)): Fraction(1, 2)}
    assert (A * 0.5).terms[((1, 2), (1, 0))] == Fraction(3, 2)
    assert calls
    monkeypatch.undo()
    with pytest.raises(ValueError):
        MultiVector(2, {((3,), (0, 0)): Fraction(1)})


def test_mixing_dimensions_rejected():
    with pytest.raises(DimensionMismatchError):
        mono(2, 1, (0, 0), (1,)) + mono(3, 1, (0, 0, 0), (1,))


def test_bidegree_and_mixed_error():
    assert bidegree(mono(2, 1, (1, 1), (1, 2))) == (1, 1)
    mixed = mono(2, 1, (0, 0), (1,)) + mono(2, 1, (0, 0), (1, 2))
    with pytest.raises(MixedDegreeError):
        bidegree(mixed)
    with pytest.raises(ValueError):
        bidegree(MultiVector.zero(2))


# --- text form ---------------------------------------------------------------


def test_monomial_text_round_trip():
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randint(1, 3)
        A = random_mono(rng, n)
        ((alpha, beta),) = A.terms
        c = A.terms[(alpha, beta)]
        text = format_monomial(c, beta, alpha)
        assert parse_monomial(text) == (c, beta, alpha)


def test_parse_rejects_garbage():
    for bad in ("", "x[1] d[1]", "1 * x[1,0] d[]", "1 * d[1] x[1,0]", "1/0 * x[0,0] d[1]"):
        with pytest.raises(ValueError):
            parse_monomial(bad)


def test_multivector_repr_pinned():
    """The repr writes the terms in canonical order through the monomial
    text form; pinned byte for byte."""
    A = MultiVector(2, {((1, 2), (1, 0)): Fraction(-3, 2), ((1,), (0, 0)): 2,
                        ((2,), (0, 3)): Fraction(4, 2)})
    assert repr(A) == ("MultiVector(2, 2 * x[0,0] d[1] + -3/2 * x[1,0] d[1,2] "
                       "+ 2 * x[0,3] d[2])")
    assert repr(MultiVector.zero(3)) == "MultiVector(3, 0)"
    B = schouten_bracket(mono(2, Fraction(1, 3), (2, 1), (1,)), mono(2, -5, (1, 1), (1, 2)))
    assert repr(B) == "MultiVector(2, 5/3 * x[2,2] d[1,2])"


def test_chain_and_multivector_share_arithmetic_not_equality():
    """Chain and MultiVector share one arithmetic, but a Chain never equals
    a MultiVector, even one with the very same terms, and has no hash."""
    A = mono(2, 3, (1, 0), (1, 2)) - mono(2, 1, (0, 0), (1,))
    C = Chain(2, A.terms)
    assert C.terms == A.terms
    assert C != A and A != C
    assert 2 * A - A == A and 2 * C - C == C
    assert type(-C) is Chain and type(A * 2) is MultiVector
    assert hash(A) == hash(mono(2, 3, (1, 0), (1, 2)) + mono(2, -1, (0, 0), (1,)))
    with pytest.raises(TypeError):
        hash(C)


def test_parse_factor_reads_the_monomial_form_without_coefficient():
    rng = random.Random(13)
    for _ in range(50):
        n = rng.randint(1, 3)
        ((alpha, beta),) = random_mono(rng, n).terms
        assert parse_factor(format_factor((alpha, beta))) == (beta, alpha)
        assert parse_factor(" x[%s]  d[%s] " % (",".join(map(str, beta)),
                                                ",".join(map(str, alpha)))) == (beta, alpha)
    for bad in ("", "1 * x[1] d[1]", "x[1,0] d[]", "d[1] x[1,0]", "x[1] d[1] ; x[0] d[1]"):
        with pytest.raises(ValueError):
            parse_factor(bad)


# --- wedge product of unit monomials ----------------------------------------


def _permutation_sign(seq):
    """The sign of the permutation that sorts the distinct items of seq,
    by its cycle decomposition: (-1) to the sum of (length - 1)."""
    target = {x: i for i, x in enumerate(sorted(seq))}
    perm = [target[x] for x in seq]
    seen = [False] * len(perm)
    sign = 1
    for start in range(len(perm)):
        length, i = 0, start
        while not seen[i]:
            seen[i] = True
            i = perm[i]
            length += 1
        if length and length % 2 == 0:
            sign = -sign
    return sign


def test_merge_directions_against_permutation_sign():
    """Every pair of direction sets for n <= 4: None when they meet,
    else the sorted union signed by the permutation that sorts a1 + a2."""
    for n in range(1, 5):
        sets = [c for k in range(n + 1) for c in combinations(range(1, n + 1), k)]
        for a1 in sets:
            for a2 in sets:
                if set(a1) & set(a2):
                    assert _merge_directions(a1, a2) is None
                else:
                    assert _merge_directions(a1, a2) == (_permutation_sign(a1 + a2),
                                                         tuple(sorted(a1 + a2)))


def test_wedge_repeated_direction_vanishes():
    d1 = MultiVector.coordinate_field(2, 1)
    assert wedge(d1, d1).is_zero()


def test_wedge_anticommutes_on_vector_fields():
    d1 = MultiVector.coordinate_field(2, 1)
    d2 = MultiVector.coordinate_field(2, 2)
    assert wedge(d1, d2) == -wedge(d2, d1)


def test_wedge_sign_is_shuffle_parity():
    # d2 ^ (d1 ^ d3): moving d2 past d1 gives one transposition
    d13 = mono(3, 1, (0, 0, 0), (1, 3))
    d2 = MultiVector.coordinate_field(3, 2)
    assert wedge(d2, d13) == mono(3, -1, (0, 0, 0), (1, 2, 3))


def test_wedge_associative():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(2, 3)
        A, B, C = (random_mono(rng, n, 2) for _ in range(3))
        assert wedge(wedge(A, B), C) == wedge(A, wedge(B, C))


def test_wedge_multiplies_polynomial_parts():
    A = mono(2, 2, (1, 0), (1,))
    B = mono(2, 3, (0, 2), (2,))
    assert wedge(A, B) == mono(2, 6, (1, 2), (1, 2))


# --- Schouten bracket --------------------------------------------------------


def lie_bracket_oracle(A, B):
    """Independent Lie bracket of two monomial vector fields via explicit
    polynomial differentiation, no shared code with the implementation."""
    n = A.n

    def diff(beta, i):
        # d/dx_i of x^beta: (coefficient, new exponent) or None
        if beta[i - 1] == 0:
            return None
        nb = list(beta)
        nb[i - 1] -= 1
        return beta[i - 1], tuple(nb)

    out = MultiVector.zero(n)
    for (ai, ba), ca in A.terms.items():
        for (aj, bb), cb in B.terms.items():
            i, j = ai[0], aj[0]
            d = diff(bb, i)
            if d is not None:
                c, nb = d
                prod = tuple(x + y for x, y in zip(ba, nb))
                out = out + MultiVector.monomial(n, ca * cb * c, prod, (j,))
            d = diff(ba, j)
            if d is not None:
                c, nb = d
                prod = tuple(x + y for x, y in zip(nb, bb))
                out = out - MultiVector.monomial(n, ca * cb * c, prod, (i,))
    return out


def test_bracket_matches_lie_derivative_oracle():
    rng = random.Random(23)
    for _ in range(120):
        n = rng.randint(1, 3)
        A = random_mono(rng, n)
        B = random_mono(rng, n)
        A = MultiVector(n, {(alpha[:1], beta): c for (alpha, beta), c in A.terms.items()})
        B = MultiVector(n, {(alpha[:1], beta): c for (alpha, beta), c in B.terms.items()})
        assert schouten_bracket(A, B) == lie_bracket_oracle(A, B)


@pytest.mark.parametrize("block, stride", [((1, 2, 2), None), ((2, 2, 2), None),
                                           ((3, 0, 0), None), ((3, 2, 2), 200),
                                           ((4, 1, 1), 200)])
def test_bracket_closed_form_matches_recursion(block, stride):
    """_bracket_mono equals the recursive characterization, as term dicts,
    on every ordered pair of generators of the alphabet, or of a fixed
    stride sample of `stride` of them."""
    n = block[0]
    gens = alphabet(*block).gens
    if stride is not None:
        gens = gens[::len(gens) // stride][:stride]
    bad = [(a, b) for a in gens for b in gens
           if dict(_bracket_mono(n, *a, *b)) != dict(reference_bracket_mono(n, *a, *b))]
    assert not bad, bad[:5]


SHARED_CASES = ("disjoint", "one shared", "two or more shared")


def test_direction_terms_cases():
    """Disjoint directions keep one term per direction, each read off one
    side's exponent; one shared direction leaves one fused term that reads
    both; two or more shared leave none."""
    for n in range(1, 5):
        sets = [alpha for k in range(1, n + 1) for alpha in combinations(range(1, n + 1), k)]
        for alpha_a in sets:
            for alpha_b in sets:
                terms = _direction_terms(alpha_a, alpha_b)
                shared = set(alpha_a) & set(alpha_b)
                if not shared:
                    assert sorted(i + 1 for i, _, _, _ in terms) == sorted(alpha_a + alpha_b)
                    assert all((s_a == 0) != (s_b == 0) for _, s_a, s_b, _ in terms)
                elif len(shared) == 1:
                    (i, s_a, s_b, alpha), = terms
                    assert {i + 1} == shared and s_a and s_b
                    assert alpha == tuple(sorted(set(alpha_a + alpha_b)))
                else:
                    assert terms == ()


@pytest.mark.parametrize("block, stride", [((1, 2, 2), None), ((2, 2, 2), None),
                                           ((3, 0, 0), None), ((4, 1, 1), 200)])
def test_bracket_templates_match_recursion(block, stride):
    """_bracket(A, a, b), the template of the two direction sets kept on the
    alphabet and evaluated on the exponents, equals the recursive
    characterization mapped to ranks, on every ordered pair of generators
    of the alphabet (or of a fixed stride sample) whose bracket lies in it.
    Every case of shared directions that the alphabet holds is reached:
    disjoint ones need n >= 2, and two shared ones also need w >= 1, as
    the alphabet's generators have at most w + 1 directions.  The alphabet
    keeps at most 4^n templates."""
    n, w, _ = block
    A = alphabet(*block)
    ranks = range(len(A.gens))
    if stride is not None:
        ranks = ranks[::len(ranks) // stride][:stride]
    checked = dict.fromkeys(SHARED_CASES, 0)
    bad = []
    for a in ranks:
        for b in ranks:
            (alpha_a, beta_a), (alpha_b, beta_b) = A.gens[a], A.gens[b]
            ref = reference_bracket_mono(n, alpha_a, beta_a, alpha_b, beta_b)
            if any(A.rank_of(key) is None for key, _ in ref):
                continue
            checked[SHARED_CASES[min(len(set(alpha_a) & set(alpha_b)), 2)]] += 1
            if dict(_bracket(A, a, b)) != {A.rank_of(key): c for key, c in ref}:
                bad.append((a, b))
    assert not bad, bad[:5]
    reachable = [n >= 2, True, n >= 2 and w >= 1]
    assert [bool(checked[case]) for case in SHARED_CASES] == reachable
    assert len(A.templates) <= 4 ** n


@pytest.mark.parametrize("block, sample", [((2, 1, 1), None), ((3, 1, 1), None),
                                           ((3, 2, 2), 4000)])
def test_bracket_of_ranks_equals_bracket_mono(block, sample):
    """_bracket, which finds each term's rank by int arithmetic on the keys,
    equals _bracket_mono mapped through rank_of, term for term and in
    order, on every ordered pair of generators of a fresh alphabet (or a
    seeded sample of pairs); where a term of _bracket_mono lies outside
    the alphabet, _bracket raises WeightEscapeError."""
    n = block[0]
    A = words.Alphabet(*block)
    size = len(A.gens)
    pairs = product(range(size), repeat=2)
    if sample is not None:
        rng = random.Random("bracket:%d:%d:%d" % block)
        pairs = [(rng.randrange(size), rng.randrange(size)) for _ in range(sample)]
    gens = A.gens
    ranks = {}  # generator -> A.rank_of(generator), each looked up once
    for gen in gens:
        ranks[gen] = A.rank_of(gen)
    inside = escaped = 0
    for a, b in pairs:
        expect = []
        for key, c in _bracket_mono(n, *gens[a], *gens[b]):
            r = ranks.get(key, -1)
            if r == -1:
                r = ranks[key] = A.rank_of(key)
            expect.append((r, c))
        expect = tuple(expect)
        try:
            got = _bracket(A, a, b)
        except WeightEscapeError:
            got = None
        if got is None:
            assert any(r is None for r, _ in expect), (a, b)
            escaped += 1
        else:
            assert got == expect, (a, b)
            inside += 1
    assert inside and escaped


def test_bracket_hand_examples():
    # [d1, x1 d1] = d1
    d1 = MultiVector.coordinate_field(2, 1)
    x1d1 = mono(2, 1, (1, 0), (1,))
    assert schouten_bracket(d1, x1d1) == d1
    # [x1 d1, x1 d2] = x1 d2
    x1d2 = mono(2, 1, (1, 0), (2,))
    assert schouten_bracket(x1d1, x1d2) == x1d2
    # [d1, x1 d1^d2] = d1^d2
    x1d12 = mono(2, 1, (1, 0), (1, 2))
    assert schouten_bracket(d1, x1d12) == mono(2, 1, (0, 0), (1, 2))


def test_bracket_vector_field_acts_as_lie_derivative_on_wedges():
    # [V, A ^ B] = [V, A] ^ B + A ^ [V, B] for a vector field V
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randint(2, 3)
        V = random_mono(rng, n)
        V = MultiVector(n, {(alpha[:1], beta): c for (alpha, beta), c in V.terms.items()})
        A = random_mono(rng, n, 2)
        B = random_mono(rng, n, 2)
        lhs = schouten_bracket(V, wedge(A, B))
        rhs = wedge(schouten_bracket(V, A), B) + wedge(A, schouten_bracket(V, B))
        assert lhs == rhs


def test_bracket_graded_antisymmetry():
    rng = random.Random(41)
    for _ in range(100):
        n = rng.randint(1, 3)
        A = random_mono(rng, n)
        B = random_mono(rng, n)
        x = bidegree(A)[0]
        y = bidegree(B)[0]
        assert schouten_bracket(A, B) == (-1) ** (1 + x * y) * schouten_bracket(B, A)


def test_bracket_super_jacobi():
    rng = random.Random(43)
    for _ in range(100):
        n = rng.randint(1, 3)
        A, B, C = (random_mono(rng, n, 3) for _ in range(3))
        x, y, z = (bidegree(M)[0] for M in (A, B, C))
        total = ((-1) ** (x * z) * schouten_bracket(schouten_bracket(A, B), C)
                 + (-1) ** (y * x) * schouten_bracket(schouten_bracket(B, C), A)
                 + (-1) ** (z * y) * schouten_bracket(schouten_bracket(C, A), B))
        assert total.is_zero()


def test_bracket_bidegree_additive():
    rng = random.Random(47)
    for _ in range(60):
        n = rng.randint(2, 3)
        A = random_mono(rng, n)
        B = random_mono(rng, n)
        out = schouten_bracket(A, B)
        if out.is_zero():
            continue
        (i1, j1), (i2, j2) = bidegree(A), bidegree(B)
        assert bidegree(out) == (i1 + i2, j1 + j2)
