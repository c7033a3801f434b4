"""Strata, homotopy operators, descent, certificates."""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from schouten.boundary import boundary, boundary_matrix
from schouten.chains import Chain, enumerate_basis, parse_chain, wedge_chain, weight_signature
from schouten.contraction import (
    TL,
    TR,
    CertificateError,
    PairStratum,
    Stratification,
    _word_stratum,
    annihilating_polynomial,
    capital_phi,
    certificate_from_dict,
    certificate_to_dict,
    certify_exact,
    check_certificate,
    classify_type,
    leading_scalar,
    phi_op,
    project_stratum,
    psi,
    stratum_of,
    structured_descent,
    verify_psi_structure,
)
from schouten.linalg import kernel_basis
from schouten.multivector import check_generator


def random_cycle(rng, n, w, max_terms=4):
    """A random rational 2-cycle in the (w, w) block, possibly zero."""
    bm = boundary_matrix(n, 2, w, w)
    ker = kernel_basis(bm.matrix)
    if not ker:
        return Chain.zero(n)
    v = [Fraction(0)] * bm.matrix.cols
    for vec in rng.sample(ker, min(len(ker), max_terms)):
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        v = [a + c * b for a, b in zip(v, vec)]
    return Chain(n, {bm.domain.words[i]: x for i, x in enumerate(v) if x})


# --- strata ------------------------------------------------------------------


def test_pair_stratum_validation():
    PairStratum(1, 0, 0)
    with pytest.raises(ValueError):
        PairStratum(0, 0, 0)       # a1 too small
    with pytest.raises(ValueError):
        PairStratum(2, 0, 0)       # a1 above 1 + w/2
    with pytest.raises(ValueError):
        PairStratum(1, 3, 0)       # b1 above 2 + w
    with pytest.raises(ValueError):
        PairStratum(1, 2, 0)       # mirrored duplicate on the diagonal


def test_stratification_partitions():
    for w in range(0, 4):
        strat = Stratification(w)
        alls = strat.all_strata()
        assert len(strat.tl_strata()) + len(strat.tr_strata()) == len(alls)
        assert len({(s.a1, s.b1) for s in alls}) == len(alls)
        # every basis word of the block maps to exactly one stratum
        labels = {(s.a1, s.b1) for s in alls}
        for word in enumerate_basis(2, 2, w, w).words:
            assert stratum_of(word) in labels


def test_tl_iff_sum_exceeds_weight():
    for w in range(0, 4):
        for s in Stratification(w).all_strata():
            assert s.is_tl == (s.a1 + s.b1 > 2 + w)


def test_no_tl_strata_at_even_small_weights():
    # at w = 0 the lattice is all TR; the TL clause of the lemma is vacuous
    assert Stratification(0).tl_strata() == []
    assert len(Stratification(1).tl_strata()) == 1


def test_classify_type_matches_stratum():
    for w in (0, 1, 2):
        for word in enumerate_basis(2, 2, w, w).words:
            a1, b1 = stratum_of(word)
            expect = TL if a1 + b1 > 2 + w else TR
            assert classify_type(word) == expect


def test_decompose_and_project_are_consistent():
    """Each projection of a cycle onto a stratum lies in that stratum, and
    the projections sum to the cycle."""
    rng = random.Random(101)
    U = random_cycle(rng, 2, 1)
    assert len({stratum_of(word) for word in U.terms}) > 1
    total = Chain.zero(2)
    for s in Stratification(1).all_strata():
        p = project_stratum(U, s)
        assert all(stratum_of(word) == (s.a1, s.b1) for word in p.terms)
        total = total + p
    assert total == U


def test_word_stratum_is_stratum_of_on_int_words():
    """The stratum read off an int word's first factor, as the descent and
    verify psi read it, is stratum_of of the decoded word."""
    for n in (2, 3):
        for w in (0, 1, 2):
            basis = enumerate_basis(n, 2, w, w)
            assert len(basis) > 0
            for word, code in zip(basis.words, basis.codes):
                assert _word_stratum(basis.alphabet, code) == stratum_of(word)


# --- operators ---------------------------------------------------------------


def test_phi_op_raises_on_wrong_arity():
    word = (((1,), (0, 0)), ((1, 2), (1, 1)))
    with pytest.raises(ValueError):
        phi_op(Chain(2, {word: Fraction(1)}))
    with pytest.raises(ValueError):
        capital_phi(Chain(2, {(((1,), (0, 0)),): Fraction(1)}))


def coordinate_gen(n, l):
    """d_l as a generator."""
    return ((l,), (0,) * n)


def scale_gen(gen, l):
    """x_l times the generator gen."""
    alpha, beta = gen
    return (alpha, beta[:l - 1] + (beta[l - 1] + 1,) + beta[l:])


def reference_phi_op(U):
    """The parent's phi_op, kept as the oracle: one Chain.from_word, which
    validates every factor, per word and l."""
    n = U.n
    terms = {}
    for word, c in U.terms.items():
        gen = word[0]
        for l in range(1, n + 1):
            ch = Chain.from_word(n, [coordinate_gen(n, l), scale_gen(gen, l)], c)
            for wrd, cc in ch.terms.items():
                terms[wrd] = terms.get(wrd, 0) + cc
    return Chain(n, terms)


def reference_capital_phi(U):
    """The parent's capital_phi, kept as the oracle."""
    n = U.n
    terms = {}
    for word, c in U.terms.items():
        f1, f2 = word
        tr = classify_type(word) == TR
        for l in range(1, n + 1):
            if tr:
                raw = [coordinate_gen(n, l), f1, scale_gen(f2, l)]
            else:
                raw = [coordinate_gen(n, l), scale_gen(f1, l), f2]
            ch = Chain.from_word(n, raw, c)
            for wrd, cc in ch.terms.items():
                terms[wrd] = terms.get(wrd, 0) + cc
    return Chain(n, terms)


def test_phi_operators_match_reference():
    rng = random.Random(109)
    for n in (1, 2, 3):
        for w in (0, 1, 2):
            ones = enumerate_basis(n, 1, w, rng.randint(-1, 2)).words
            twos = enumerate_basis(n, 2, w, w).words
            for _ in range(5):
                U1 = Chain(n, {word: Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                               for word in rng.sample(ones, min(len(ones), 6))})
                U2 = Chain(n, {word: Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                               for word in rng.sample(twos, min(len(twos), 12))})
                assert phi_op(U1) == reference_phi_op(U1)
                assert capital_phi(U2) == reference_capital_phi(U2)


BAD_FACTORS = pytest.mark.parametrize(
    "bad", [((1,), (0, 0, 0)), ((3,), (0, 0)), ((2, 1), (0, 0)), ((1,), (-1, 0))],
    ids=["beta-length", "direction-range", "direction-order", "negative-exponent"])


@BAD_FACTORS
def test_phi_operators_reject_invalid_generator(bad):
    good = ((1,), (1, 0))
    for op, ref, word in [(phi_op, reference_phi_op, (bad,)),
                          (capital_phi, reference_capital_phi, (good, bad))]:
        U = Chain(2, {word: Fraction(1)})
        with pytest.raises(ValueError) as expect:
            ref(U)
        with pytest.raises(type(expect.value)):
            op(U)


@BAD_FACTORS
@pytest.mark.parametrize("op", [boundary, phi_op, capital_phi, psi, structured_descent,
                                annihilating_polynomial, certify_exact],
                         ids=lambda op: op.__name__)
def test_chain_operators_raise_the_check_generator_error(op, bad):
    """Every public Chain operator reaches int words through encode_chain,
    which reports a factor that is no generator by check_generator's
    ValueError, whatever the block the bad factor puts its word in."""
    with pytest.raises(ValueError) as expect:
        check_generator(2, *bad)
    word = (bad,) if op is phi_op else (((1,), (1, 0)), bad)
    with pytest.raises(ValueError) as got:
        op(Chain(2, {word: Fraction(1, 2)}))
    assert type(got.value) is type(expect.value)
    assert str(got.value) == str(expect.value)


def _two_block_chain():
    """The first basis words of (2, 0, 0) and (2, 1, 1) over R^2."""
    return Chain(2, {enumerate_basis(2, 2, 0, 0).words[0]: 1,
                     enumerate_basis(2, 2, 1, 1).words[0]: 1})


def _w_ne_h_chain():
    """The first basis word of (2, 1, 2) over R^2."""
    return Chain(2, {enumerate_basis(2, 2, 1, 2).words[0]: 1})


@pytest.mark.parametrize("chain, stray", [
    (_two_block_chain, r"term signature \(2, 1, 1\) outside the \(2, 0, 0\) block"),
    (_w_ne_h_chain, r"term signature \(2, 1, 2\) outside the \(2, 1, 1\) block")],
    ids=["two-blocks", "w-ne-h"])
@pytest.mark.parametrize("op", [psi, structured_descent, annihilating_polynomial, certify_exact],
                         ids=lambda op: op.__name__)
def test_block_operators_name_the_stray_signature(op, chain, stray):
    """psi and the descent, the annihilator and the certificate enter one
    (2, w, w) block the same way: a chain outside it is the caller's
    error, a ValueError naming the first stray term signature."""
    with pytest.raises(ValueError, match=stray):
        op(chain())


def test_operators_preserve_block():
    from schouten.chains import weight_signature
    rng = random.Random(103)
    for w in (0, 1, 2):
        U = random_cycle(rng, 2, w)
        for word in capital_phi(U).terms:
            assert weight_signature(word) == (3, w, w)
        for word in psi(U).terms:
            assert weight_signature(word) == (2, w, w)


def test_psi_equals_boundary_phi_on_cycles():
    rng = random.Random(107)
    for w in (0, 1, 2):
        for _ in range(3):
            U = random_cycle(rng, 2, w)
            assert psi(U) == boundary(capital_phi(U))


def test_eigen_stratum_small():
    # psi = (n + w + 1) on the (1, 0) stratum; the full sweep runs in the
    # acceptance suite
    n, w = 2, 1
    for word in enumerate_basis(n, 2, w, w).words:
        if stratum_of(word) != (1, 0):
            continue
        c = Chain(n, {word: Fraction(1)})
        assert psi(c) == (n + w + 1) * c


def test_leading_scalar_values():
    n, w = 2, 1
    for word in enumerate_basis(n, 2, w, w).words:
        (a1, b1), (a2, b2) = word
        expect = n + sum(b2) if classify_type(word) == TR else n + sum(b1)
        assert leading_scalar(n, w, word) == expect


# --- descent and annihilators ------------------------------------------------


def poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def poly_divmod(num, den):
    """Polynomial division over Q, coefficients ascending."""
    num = list(num)
    q = [Fraction(0)] * max(1, len(num) - len(den) + 1)
    for i in reversed(range(len(num) - len(den) + 1)):
        c = num[i + len(den) - 1] / den[-1]
        q[i] = c
        for j, d in enumerate(den):
            num[i + j] -= c * d
    while num and num[-1] == 0:
        num.pop()
    return q, num


def apply_poly(p, U):
    acc = Chain.zero(U.n)
    power = U
    for k, c in enumerate(p):
        if k > 0:
            power = psi(power)
        if c:
            acc = acc + c * power
    return acc


def test_descent_product_annihilates():
    rng = random.Random(109)
    for w in (0, 1, 2):
        for _ in range(3):
            U = random_cycle(rng, 2, w)
            cs = structured_descent(U)
            cur = U
            for c in cs:
                cur = psi(cur) + c * cur
            assert cur.is_zero()
            assert all(c != 0 for c in cs)


def test_minimal_polynomial_annihilates_and_divides_descent():
    rng = random.Random(113)
    for w in (0, 1, 2):
        for _ in range(3):
            U = random_cycle(rng, 2, w)
            p = annihilating_polynomial(U)
            assert p[-1] == 1
            assert apply_poly(p, U).is_zero()
            if not U:
                continue
            assert p[0] != 0
            prod = [Fraction(1)]
            for c in structured_descent(U):
                prod = poly_mul(prod, [Fraction(c), Fraction(1)])
            _, rem = poly_divmod(prod, p)
            assert rem == []


def test_minimal_polynomial_is_minimal():
    """No proper truncation annihilates: the Krylov vectors below the
    degree are linearly independent."""
    rng = random.Random(127)
    from schouten.chains import chain_to_vector
    from schouten.linalg import SparseMatrixQ, rank_exact
    for w in (0, 1):
        U = random_cycle(rng, 2, w)
        if not U:
            continue
        p = annihilating_polynomial(U)
        deg = len(p) - 1
        basis = enumerate_basis(2, 2, w, w)
        vecs = []
        cur = U
        for _ in range(deg):
            vecs.append(chain_to_vector(cur, basis))
            cur = psi(cur)
        M = SparseMatrixQ(deg, len(basis),
                          {(i, j): v for i, row in enumerate(vecs)
                           for j, v in enumerate(row) if v})
        assert rank_exact(M) == deg


def test_descent_of_zero_is_empty():
    assert structured_descent(Chain.zero(2)) == []
    assert annihilating_polynomial(Chain.zero(2)) == [Fraction(1)]


# --- certificates ------------------------------------------------------------


def test_certify_rejects_non_cycle():
    word = (((1,), (0, 0)), ((1, 2), (1, 2)))
    U = Chain(2, {word: Fraction(1)})
    assert boundary(U)
    with pytest.raises(CertificateError):
        certify_exact(U)


def test_certify_random_cycles():
    rng = random.Random(131)
    for w in (0, 1, 2):
        for _ in range(4):
            U = random_cycle(rng, 2, w)
            cert = certify_exact(U)
            assert boundary(cert.primitive) == U
            assert check_certificate(cert)


DATA = Path(__file__).parent / "data"


def seeded_cycles():
    """Nonzero seeded cycles: random (w, w) cycles for n = 2, the pinned
    n = 2 and n = 3 cycles of tests/data."""
    rng = random.Random(131)
    out = [random_cycle(rng, 2, w) for w in (0, 1, 2) for _ in range(4)]
    out += [parse_chain(n, (DATA / name).read_text())
            for n, name in [(2, "pipi_n2.txt"), (2, "cycle_2_1.txt"), (3, "cycle_3_2.txt")]]
    return [U for U in out if U]


def test_certificate_annihilator_is_the_psi_minimal_polynomial():
    """certify_exact runs its Krylov pass under boundary . capital_phi,
    which equals psi on cycles: the annihilator is the same."""
    for U in seeded_cycles():
        assert certify_exact(U).annihilator == tuple(annihilating_polynomial(U))


def test_certify_runs_the_krylov_sequence_once(monkeypatch):
    """For annihilator degree d: d applications of T = boundary .
    capital_phi on int words, each block-checked; T's column reaches
    capital_phi once for each word of the Krylov support U, T U, ...,
    T^{d-1} U, then one more capital_phi builds V.  boundary_codes runs on
    U (the cycle check), once in each column of T, and once after the
    pass: a fresh boundary over exactly the int words of V, with one
    _word_boundary per word of V.  The pass runs in the certificate
    module, so its names are patched there."""
    import schouten.certificate as certificate
    from schouten.boundary import encode_chain
    calls = dict.fromkeys(("_capital_phi_codes", "_check_psi_image"), 0)
    phi_words = []
    boundaries = []  # (the words, the _word_boundary calls) of each boundary_codes
    word_boundaries = []

    def counting(name, real):
        def wrapper(*args):
            calls[name] += 1
            if name == "_capital_phi_codes":
                phi_words.append(list(args[1]))
            return real(*args)
        return wrapper

    def word_boundary(A, word):
        word_boundaries.append(word)
        return real_word_boundary(A, word)

    def boundary_codes(A, codes):
        before = len(word_boundaries)
        out = real_boundary_codes(A, codes)
        boundaries.append((set(codes), len(word_boundaries) - before))
        return out

    real_word_boundary = certificate._word_boundary
    real_boundary_codes = certificate.boundary_codes
    degrees = set()
    for U in seeded_cycles():
        d = len(annihilating_polynomial(U)) - 1
        # psi equals T on cycles, so these are the supports of the powers
        support = set()
        power = U
        for _ in range(d):
            support.update(power.terms)
            power = psi(power)
        with monkeypatch.context() as m:
            for name in calls:
                m.setattr(certificate, name, counting(name, getattr(certificate, name)))
            m.setattr(certificate, "_word_boundary", word_boundary)
            m.setattr(certificate, "boundary_codes", boundary_codes)
            calls.update(dict.fromkeys(calls, 0))
            phi_words.clear()
            boundaries.clear()
            cert = certify_exact(U)
        (_, u), = encode_chain(U)[1].values()
        (_, v), = encode_chain(cert.primitive)[1].values()
        assert boundaries[0] == (set(u), len(u))
        assert boundaries[-1] == (set(v), len(v))
        assert len(boundaries) == len(support) + 2
        if d < 2:
            continue
        degrees.add(d)
        columns = phi_words[:-1]
        assert all(len(words) == 1 for words in columns)
        assert len({words[0] for words in columns}) == len(columns) == len(support)
        assert calls["_capital_phi_codes"] == len(support) + 1
        assert calls["_check_psi_image"] == d
    assert max(degrees) >= 4


def test_certify_powers_match_a_fresh_operator(monkeypatch):
    """Each power the pass stores, times its scale, is T of the power
    before it (the first is den * U), with T = boundary . capital_phi
    recomputed on the whole vector, no column kept.  The pass runs in the
    certificate module, so its Krylov step is recorded there."""
    import schouten.certificate as certificate
    from schouten.boundary import boundary_codes, encode_chain
    real = certificate._krylov_minimal_polynomial
    passes = []

    def recording(u, operator):
        out = real(u, operator)
        passes.append((u, out[1], out[2]))
        return out

    monkeypatch.setattr(certificate, "_krylov_minimal_polynomial", recording)
    degrees = set()
    for U in seeded_cycles():
        passes.clear()
        certify_exact(U)
        (u, powers, scales), = passes
        _, w, h = weight_signature(next(iter(U.terms)))
        A, encoded = encode_chain(U)[1][(w, h)]
        assert u == encoded
        assert {word: v * scales[0] for word, v in powers[0].items()} == u
        for k in range(1, len(powers)):
            fresh = boundary_codes(A, certificate._capital_phi_codes(A, powers[k - 1]))
            assert {word: v * scales[k] for word, v in powers[k].items()} == \
                {word: v * scales[k - 1] for word, v in fresh.items()}
        degrees.add(len(powers))
    assert max(degrees) >= 4


def test_coefficients_stay_exact():
    """Integral coefficients are ints, on which `/` gives a float: every
    coefficient out of chain arithmetic, the operators, the descent, the
    annihilator and the certificate is an int or a Fraction."""
    def exact(values):
        return all(type(c) in (int, Fraction) for c in values)

    for U in seeded_cycles():
        ones = Chain(U.n, {word[:1]: c for word, c in U.terms.items()})
        single = Chain(U.n, dict([next(iter(U.terms.items()))]))
        for chain in [U, U + U, U - Fraction(1, 3) * U + U, 2 * U, -U, boundary(single),
                      capital_phi(U), psi(U), phi_op(ones)]:
            assert exact(chain.terms.values())
        assert exact(structured_descent(U))
        assert exact(annihilating_polynomial(U))
        cert = certify_exact(U)
        for values in [cert.cycle.terms.values(), cert.primitive.terms.values(),
                       cert.annihilator, cert.quotient]:
            assert exact(values)


def test_krylov_rejects_zero_constant_term():
    """A nilpotent operator has annihilator t^k, which gives no primitive."""
    from schouten.boundary import encode_chain
    from schouten.contraction import _krylov_minimal_polynomial
    U = parse_chain(2, (DATA / "pipi_n2.txt").read_text())
    (_, u), = encode_chain(U)[1].values()
    with pytest.raises(CertificateError):
        _krylov_minimal_polynomial(u, lambda X: {})


def test_certify_squared_bivector():
    pi = Chain.from_word(2, [((1, 2), (1, 1))])
    U = wedge_chain(pi, pi)
    assert boundary(U).is_zero()
    cert = certify_exact(U)
    assert check_certificate(cert)
    assert cert.annihilator[0] != 0


def test_certificate_serialization_round_trip():
    rng = random.Random(137)
    U = random_cycle(rng, 2, 1)
    cert = certify_exact(U)
    data = json.loads(json.dumps(certificate_to_dict(cert)))
    back = certificate_from_dict(data)
    assert back.cycle == cert.cycle
    assert back.primitive == cert.primitive
    assert back.annihilator == cert.annihilator
    assert check_certificate(back)


def test_tampered_certificate_detected():
    rng = random.Random(139)
    U = random_cycle(rng, 2, 1)
    while not U:
        U = random_cycle(rng, 2, 1)
    cert = certify_exact(U)
    data = certificate_to_dict(cert)
    word = next(iter(cert.primitive.terms))
    tampered = certificate_from_dict(data)
    broken = Chain(2, dict(tampered.primitive.terms))
    broken.terms[word] = broken.terms[word] + 1
    from schouten.contraction import ExactnessCertificate
    bad = ExactnessCertificate(cert.n, cert.w, cert.cycle, broken,
                               cert.annihilator, cert.quotient)
    assert not check_certificate(bad)


def test_check_certificate_refuses_chains_outside_the_alphabet():
    """A primitive with a factor that is no generator over R^n, or chains
    over different n, make no certificate: check_certificate says False."""
    from schouten.contraction import ExactnessCertificate
    cert = certify_exact(parse_chain(2, (DATA / "pipi_n2.txt").read_text()))
    assert check_certificate(cert)
    word = next(iter(cert.primitive.terms))
    bad = word[:-1] + (((1, 3), word[-1][1]),)  # direction 3 over R^2
    short = word[:-1] + ((word[-1][0], word[-1][1][:1]),)  # beta of length 1
    cycle = next(iter(cert.cycle.terms))
    for U, V in [(cert.cycle, Chain(2, {**cert.primitive.terms, bad: 1})),
                 (cert.cycle, Chain(2, {**cert.primitive.terms, short: 1})),
                 (Chain(2, {**cert.cycle.terms, cycle[:1] + (((3,), (0, 0)),): 1}),
                  cert.primitive),
                 (cert.cycle, Chain(3, cert.primitive.terms))]:
        forged = ExactnessCertificate(cert.n, cert.w, U, V, cert.annihilator, cert.quotient)
        assert not check_certificate(forged)


# --- lemma structure sweep ---------------------------------------------------


def test_psi_structure_weight_zero():
    rep = verify_psi_structure(2, 0)
    assert rep["violations"] == []
    assert rep["tl_vacuous"]
    assert rep["checked"] == rep["dim"] == 18
