"""Acceptance suite: the headline vanishing results and the structural
properties behind them, one criterion per test, one pass/fail line each
under pytest -v."""

import random
from fractions import Fraction

from schouten.boundary import boundary, boundary_matrix, boundary_squared_failures
from schouten.chains import Chain, enumerate_basis, wedge_chain
from schouten.contraction import (
    annihilating_polynomial,
    certify_exact,
    check_certificate,
    psi,
    structured_descent,
    stratum_of,
    verify_psi_structure,
)
from schouten.homology import betti, euler_characteristic
from schouten.linalg import kernel_basis
from schouten.multivector import MultiVector, bidegree, schouten_bracket


def _report(num, desc, ok):
    print("criterion %2d (%s): %s" % (num, desc, "PASS" if ok else "FAIL"))
    assert ok, "criterion %d failed: %s" % (num, desc)


def test_criterion_01_second_betti_vanishes_on_diagonal_blocks():
    ok = True
    for n in (2, 3):
        for w in (0, 1, 2):
            ok = ok and betti(n, 2, w, w).betti == 0
    _report(1, "second Betti number of every (w, w) block is zero", ok)


def test_criterion_02_off_diagonal_blocks_vanish():
    ok = True
    for m in (1, 2, 3):
        for (w, h) in [(0, 1), (1, 0), (1, 2), (0, 2)]:
            ok = ok and betti(2, m, w, h).betti == 0
    _report(2, "homology vanishes whenever the two weights differ", ok)


def test_criterion_03_first_betti_vanishes():
    ok = True
    for n in (2, 3):
        for w in (0, 1, 2):
            for h in (-1, 0, 1, 2):
                ok = ok and betti(n, 1, w, h).betti == 0
    _report(3, "first Betti number is zero across the weight grid", ok)


def test_criterion_04_euler_characteristic_vanishes():
    # dims_table (inside euler_characteristic) asserts that every chain
    # space beyond the last nonempty arity is empty
    ok = True
    for (w, h) in [(0, 0), (1, 1), (2, 2), (0, 1)]:
        ok = ok and euler_characteristic(2, w, h) == 0
    _report(4, "Euler characteristic of every weight block is zero", ok)


def test_criterion_05_boundary_squares_to_zero_full_grid():
    ok = True
    checked = 0
    for n in (1, 2, 3):
        for w in (0, 1, 2):
            for h in range(-3, 4):
                for basis, bad in boundary_squared_failures(n, w, h, 4):
                    checked += len(basis)
                    ok = ok and not bad
    _report(5, "boundary squared is zero on all %d grid words" % checked, ok)


def _random_mono(rng, n):
    alpha = tuple(sorted(rng.sample(range(1, n + 1), rng.randint(1, n))))
    beta = [0] * n
    for _ in range(rng.randint(0, 4)):
        beta[rng.randrange(n)] += 1
    return MultiVector(n, {(alpha, tuple(beta)): Fraction(rng.choice([-2, -1, 1, 2]))})


def test_criterion_06_bracket_identities_randomized():
    rng = random.Random(2024)
    ok = True
    for _ in range(200):
        n = rng.randint(1, 3)
        A, B, C = (_random_mono(rng, n) for _ in range(3))
        x, y, z = (bidegree(M)[0] for M in (A, B, C))
        anti = schouten_bracket(A, B) - (-1) ** (1 + x * y) * schouten_bracket(B, A)
        jac = ((-1) ** (x * z) * schouten_bracket(schouten_bracket(A, B), C)
               + (-1) ** (y * x) * schouten_bracket(schouten_bracket(B, C), A)
               + (-1) ** (z * y) * schouten_bracket(schouten_bracket(C, A), B))
        ok = ok and anti.is_zero() and jac.is_zero()
    _report(6, "graded antisymmetry and super Jacobi on 200 seeded triples", ok)


def test_criterion_07_eigen_stratum_scalar_identity():
    ok = True
    checked = 0
    for n in (2, 3):
        for w in (0, 1, 2):
            for word in enumerate_basis(n, 2, w, w).words:
                if stratum_of(word) != (1, 0):
                    continue
                c = Chain(n, {word: Fraction(1)})
                ok = ok and psi(c) == (n + w + 1) * c
                checked += 1
    assert checked > 0
    _report(7, "psi is multiplication by n+w+1 on the full (1,0) stratum "
               "(%d words)" % checked, ok)


def test_criterion_08_psi_leading_scalar_and_residual_strata():
    ok = True
    for w in (0, 1, 2):
        rep = verify_psi_structure(2, w)
        ok = ok and rep["violations"] == []
    _report(8, "psi residuals stay in the predicted strata on all n=2 blocks", ok)


def _seeded_cycles(rng, n, w, count):
    bm = boundary_matrix(n, 2, w, w)
    ker = kernel_basis(bm.matrix)
    out = []
    for _ in range(count):
        v = [Fraction(0)] * bm.matrix.cols
        for vec in rng.sample(ker, min(len(ker), 4)):
            c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            v = [a + c * b for a, b in zip(v, vec)]
        out.append(Chain(n, {bm.domain.words[i]: x for i, x in enumerate(v) if x}))
    return out


def test_criterion_09_exactness_certificates():
    rng = random.Random(4096)
    ok = True
    for w in (0, 1, 2):
        for U in _seeded_cycles(rng, 2, w, 25):
            cert = certify_exact(U)
            ok = ok and boundary(cert.primitive) == U and check_certificate(cert)
    pi = Chain.from_word(2, [((1, 2), (1, 1))])
    U = wedge_chain(pi, pi)
    cert = certify_exact(U)
    ok = ok and check_certificate(cert)
    _report(9, "75 seeded cycles plus the squared bivector certify exact", ok)


def _poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _poly_mod(num, den):
    num = list(num)
    for i in reversed(range(len(num) - len(den) + 1)):
        c = num[i + len(den) - 1] / den[-1]
        for j, d in enumerate(den):
            num[i + j] -= c * d
    while num and num[-1] == 0:
        num.pop()
    return num


def _apply_poly(p, U):
    acc = Chain.zero(U.n)
    power = U
    for k, c in enumerate(p):
        if k > 0:
            power = psi(power)
        if c:
            acc = acc + c * power
    return acc


def test_criterion_10_annihilator_divides_descent_product():
    rng = random.Random(4096)
    ok = True
    for w in (0, 1, 2):
        for U in _seeded_cycles(rng, 2, w, 25):
            p = annihilating_polynomial(U)
            cs = structured_descent(U)
            ok = ok and _apply_poly(p, U).is_zero()
            cur = U
            for c in cs:
                cur = psi(cur) + c * cur
            ok = ok and cur.is_zero()
            ok = ok and all(c != 0 for c in cs)
            if U:
                ok = ok and p[0] != 0
                prod = [Fraction(1)]
                for c in cs:
                    prod = _poly_mul(prod, [Fraction(c), Fraction(1)])
                ok = ok and _poly_mod(prod, p) == []
    _report(10, "minimal annihilator divides the descent product, "
                "constants all nonzero", ok)
