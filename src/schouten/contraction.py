"""Quasi-contraction machinery for 2-chains of double weight (w, w).

An arity-2 word pairs factors of bidegree classes X^{a1}_{b1} and
X^{a2}_{b2} with a1+a2 = b1+b2 = 2+w; the canonical factor order makes
(a1, b1) with a1 <= a2 (and b1 <= b2 on the diagonal a1 = a2) a well-defined
stratum label.  A word is type TR when |A1|+|B1| < |A2|+|B2|, or the sums tie
and |A1| <= |A2|; type TL otherwise -- equivalently TL iff a1+b1 > 2+w.

Operators (all block-preserving on (2, w, w)):

    phi_op(U)      = sum_l  d_l ^^ (x_l U)                  on 1-chains
    capital_phi(U) = sum_l  d_l ^^ F1 ^^ (x_l F2)   (TR)
                     sum_l  d_l ^^ (x_l F1) ^^ F2   (TL)    per canonical word
    psi(U)         = boundary(capital_phi(U)) + phi_op(boundary(U))

psi acts on each stratum by a known leading scalar (n+|B2| for TR, n+|B1|
for TL) plus a residual one stratum down (TR) or up (TL) plus a piece in the
(1, 0) stratum, where psi is exactly multiplication by n+w+1.  Chasing the
strata yields nonzero constants c_i with (psi+c_1)...(psi+c_m) U = 0; for a
cycle U this turns into an explicit primitive V with boundary(V) = U.

The operators run on the int words of the block's Alphabet (see chains)
with int coefficients.  psi, phi_op and capital_phi are Chain adapters
for callers outside the package: phi_op and capital_phi are chains._on_codes
over their kernels, and psi, structured_descent and annihilating_polynomial
enter their (2, w, w) block through _block_codes.  encode_chain validates
the factors of every adapter's input, so a factor that is no generator
raises check_generator's ValueError and a term outside the block a
ValueError naming its signature.  Inside the package psi is
applied one way, by _column_operator: each 2-word's column is computed
on first use and kept, and every image is block-checked.  The Krylov
passes of certify_exact and annihilating_polynomial, structured_descent
and the basis columns of verify_psi_structure and psi-matrix
(_psi_columns) run on it, fraction-free; only p and the primitive's
coefficients become Fractions.

Certificates stay in the int-word form of chains (see encode_chain) from
input text to output text.  certify_exact and check_certificate are Chain
adapters over the cores _certify_codes and _check_codes, which the
`certify` and `check-certificate` commands call on the int words that
parse_codes reads and codes_to_text writes, so V is never decoded into
Fractions and re-encoded.  Those cores, the operators they run on
(_capital_phi_codes, _t_codes, _column_operator with its block check) and
the Krylov pass are defined in the leaf module certificate, so the two
commands load neither this module nor chains, multivector, boundary or
record; they are imported back here, where the Chain adapters, psi, the
descent and the stratification run on them.
"""

from fractions import Fraction

# the int-word certificate path, and the operators and the Krylov pass it
# runs on, live in the leaf module certificate; imported back here
from .certificate import (CertificateError, _bounds, _capital_phi_codes, _certificate_dict,
                          _certify_codes, _certify_form, _check_codes, _check_psi_image,
                          _column_operator, _combine, _content, _krylov_minimal_polynomial,
                          _one_block, _read_certificate, _shifts, _t_codes, boundary_codes)
from .chains import (Chain, _on_codes, chain_to_text, decode_chain, encode_chain,
                     enumerate_basis, place_factor)
from .record import Record


class DescentError(RuntimeError):
    """Stratum descent failed to terminate within its theoretical bound."""


TR = "TR"
TL = "TL"


def classify_type(word):
    """TR/TL type of a canonical arity-2 word."""
    if len(word) != 2:
        raise ValueError("type is defined for arity-2 words, got arity %d" % len(word))
    (a1, b1), (a2, b2) = word
    s1 = len(a1) + sum(b1)
    s2 = len(a2) + sum(b2)
    if s1 < s2 or (s1 == s2 and len(a1) <= len(a2)):
        return TR
    return TL


def stratum_of(word):
    """(a1, b1) of the canonical representative of an arity-2 word."""
    if len(word) != 2:
        raise ValueError("strata are defined for arity-2 words")
    alpha1, beta1 = word[0]
    return (len(alpha1), sum(beta1))


class PairStratum(Record):
    """One lattice point (a1, b1) of the pair decomposition at weight w,
    labelling X^{a1}_{b1} ^^ X^{2+w-a1}_{2+w-b1}."""

    __slots__ = ("a1", "b1", "w")

    def __init__(self, a1, b1, w):
        if not 1 <= 2 * a1 <= 2 + w:
            raise ValueError("representative needs 1 <= a1 <= 1 + w/2, got a1=%d, w=%d"
                             % (a1, w))
        if not 0 <= b1 <= 2 + w:
            raise ValueError("b1=%d outside 0..%d" % (b1, 2 + w))
        if 2 * a1 == 2 + w and 2 * b1 > 2 + w:
            raise ValueError("mirrored duplicate (a1=%d, b1=%d) is not a representative"
                             % (a1, b1))
        super().__init__(a1, b1, w)

    @property
    def is_tl(self):
        return self.a1 + self.b1 > 2 + self.w


class Stratification:
    """Bookkeeping of the stratum lattice at weight w: its TL and TR strata
    and the height 1 + omega_e of the rectangle below the TR roof."""

    def __init__(self, w):
        self.w = w
        self.omega = w // 2
        self.omega_e = self.omega + 1 if w % 2 else self.omega

    def all_strata(self):
        out = []
        for a1 in range(1, (2 + self.w) // 2 + 1):
            bmax = 2 + self.w
            if 2 * a1 == 2 + self.w:
                bmax = (2 + self.w) // 2
            for b1 in range(0, bmax + 1):
                out.append(PairStratum(a1, b1, self.w))
        return out

    def tl_strata(self):
        return [s for s in self.all_strata() if s.is_tl]

    def tr_strata(self):
        return [s for s in self.all_strata() if not s.is_tl]


def _word_stratum(A, word):
    """stratum_of for an int word (r1, r2) of the alphabet A."""
    i1, j1 = A.bidegree[word[0]]
    return i1 + 1, j1 + 1


def project_stratum(U, stratum):
    """The sub-chain of words whose representative lies in the stratum."""
    key = (stratum.a1, stratum.b1)
    return Chain(U.n, {word: c for word, c in U.terms.items() if stratum_of(word) == key})


def _phi_op_codes(A, codes):
    """phi_op on {int word: int} of arity 1 in the alphabet A: each word
    d_l ^^ (x_l gen) is built by one place_factor insertion."""
    parity = A.parity
    d = A.classes[(0, -1)]
    out = {}
    for (r,), c in codes.items():
        # x_l gen, of bidegree (w, h + 1), always lies in the alphabet
        for dl, xr in zip(d, _shifts(A, r)):
            sign, word = place_factor((xr,), 0, dl, parity)
            if sign:
                out[word] = out.get(word, 0) + sign * c
    return {word: v for word, v in out.items() if v}


def phi_op(U):
    """sum_l d_l ^^ (x_l U) for a 1-chain U."""
    if U.arity() not in (None, 1):
        raise ValueError("phi_op expects a 1-chain")
    return _on_codes(U, _phi_op_codes)


def capital_phi(U):
    """The 3-chain operator, applied per canonical word by TR/TL type."""
    if U.arity() not in (None, 2):
        raise ValueError("capital_phi expects a 2-chain")
    return _on_codes(U, _capital_phi_codes)


def _psi_codes(A, codes):
    """psi = boundary . capital_phi + phi_op . boundary on {int word: int}
    of arity 2 in the alphabet A; its callers block-check the image."""
    return _combine([(1, _t_codes(A, codes)),
                     (1, _phi_op_codes(A, boundary_codes(A, codes)))])


def psi(U):
    """boundary(capital_phi(U)) + phi_op(boundary(U)) on a 2-chain U of one
    (2, w, w) block; block-preserving."""
    if U.arity() not in (None, 2):
        raise ValueError("psi expects a 2-chain")
    if not U:
        return Chain.zero(U.n)
    w, A, u, den = _block_codes(U)
    return decode_chain(U.n, [(A, _check_psi_image(A, _psi_codes(A, u), w))], Fraction(1, den))


def leading_scalar(n, w, word):
    """The scalar multiple of the word itself inside psi(word):
    n + |B2| for TR, n + |B1| for TL."""
    (_, b1), (_, b2) = word
    return n + sum(b2 if classify_type(word) == TR else b1)


def structured_descent(U):
    """Nonzero constants c_1..c_m with (psi+c_1)...(psi+c_m) U = 0.

    Follows the stratum flow: ascend the TL diagonals, clear the TR roof
    diagonal by diagonal, walk the rectangle layers down, then remember the
    (1, 0) contribution and kill it with its eigenvalue n+w+1.  The walk
    runs on U's int words under psi's column operator; exceeding the
    theoretical step bound aborts.
    """
    if not U:
        return []
    n = U.n
    w, A, cur, _ = _block_codes(U)
    apply_psi = _column_operator(A, _psi_codes, w)
    strat = Stratification(w)
    bound = 2 * len(strat.all_strata()) + 4
    cs = []
    while cur:
        if len(cs) >= bound:
            raise DescentError("descent exceeded %d steps; stratum flow is broken" % bound)
        parts = {_word_stratum(A, word) for word in cur}
        tl = [key for key in parts if key[0] + key[1] > 2 + w]
        if tl:
            # lowest occupied TL diagonal, then its lowest a1
            diag = min(a1 + b1 - 2 - w for a1, b1 in tl)
            s = min(a1 for a1, b1 in tl if a1 + b1 - 2 - w == diag)
            c = -(n + w + 2 + diag - s)
        else:
            roof = [key for key in parts if key[1] > 1 + strat.omega_e]
            if roof:
                # highest occupied TR diagonal, then its highest a1
                p = max(a1 + b1 for a1, b1 in parts)
                s = max(a1 for a1, b1 in parts if a1 + b1 == p)
                c = -(n + 2 + w - p + s)
            else:
                bmax = max(b1 for a1, b1 in parts)
                if bmax >= 1:
                    c = -(n + w + 2 - bmax)
                elif any(key != (1, 0) for key in parts):
                    c = -(n + w + 2)
                else:
                    c = -(n + w + 1)
        cs.append(c)
        cur = _combine([(1, apply_psi(cur)), (c, cur)])
    return cs


def annihilating_polynomial(U):
    """Minimal monic p with p(psi) U = 0 and p(0) != 0, ascending coeffs.

    The nonzero constant term is guaranteed because p divides the structured
    descent product, whose roots are all nonzero; a zero constant term aborts.
    """
    if not U:
        return [Fraction(1)]
    w, A, u, _ = _block_codes(U)
    return _krylov_minimal_polynomial(u, _column_operator(A, _psi_codes, w))[0]


def _block_codes(U):
    """(w, A, u, den) for a nonzero chain U of one (2, w, w) block: U's
    factors checked by encode_chain and its block by _one_block (ValueError
    either way), u = den * U as {int word: int} in the block's alphabet A,
    den the lcm of U's denominators.  The one entry of the Chain adapters
    psi, structured_descent and annihilating_polynomial into their block."""
    den, blocks = encode_chain(U)
    return _one_block(blocks, 2) + (den,)


class ExactnessCertificate(Record):
    """A cycle U, a primitive V with boundary(V) = U, and the annihilating
    polynomial data p(t) = p(0) + t*g(t) behind the construction: the
    Chains cycle and primitive, and the tuples annihilator (p) and quotient
    (g) of Fraction coefficients, constant first.  Chains are mutable, so a
    certificate has no hash."""

    __slots__ = ("n", "w", "cycle", "primitive", "annihilator", "quotient")


def certify_exact(U):
    """Constructive exactness of a 2-cycle in a (w, w) block.

    On cycles psi coincides with T = boundary . capital_phi, and every
    T^k U is a cycle, so one Krylov pass under T finds p(t) = p0 + t g(t)
    annihilating U and the powers that build V = -(1/p0) capital_phi(g(T) U).
    A Chain adapter over _certify_codes, which runs on the int-word form of
    U (its factors checked by encode_chain) and whose V is decoded once here.
    """
    n = U.n
    if not U:
        return ExactnessCertificate(n, 0, U, Chain.zero(n), (Fraction(1),), ())
    w, p, A, _, (vden, v) = _certify_codes(*encode_chain(U))
    V = decode_chain(n, [(A, v)], Fraction(1, vden))
    return ExactnessCertificate(n, w, U, V, tuple(p), tuple(p[1:]))


def certificate_to_dict(cert):
    """JSON-ready certificate: block, both chains, p coefficients
    (constant first)."""
    return _certificate_dict(cert.n, cert.w, chain_to_text(cert.cycle),
                             chain_to_text(cert.primitive), cert.annihilator)


def certificate_from_dict(data):
    """Inverse of certificate_to_dict; ValueError on a value that is not
    a JSON object, a missing field or a malformed one."""
    n, w, U, V, p = _read_certificate(data)
    U, V = [decode_chain(n, blocks.values(), Fraction(1, den)) for den, blocks in (U, V)]
    return ExactnessCertificate(n, w, U, V, p, p[1:])


def check_certificate(cert):
    """Independent re-verification: p is monic with p(0) != 0, every word
    of the cycle lies in the declared (2, w, w) block, every word of the
    primitive in (3, w, w), and boundary(primitive) == cycle, exactly.

    Trusts nothing from the producer beyond the chains and the block.  Of
    p it checks the form only, not that p(psi) annihilates the cycle.  A
    Chain adapter over _check_codes; a chain with a factor that is no
    generator of its block's alphabet is no certificate.
    """
    U, V = cert.cycle, cert.primitive
    if U.n != V.n:
        return False
    try:
        U, V = encode_chain(U), encode_chain(V)
    except ValueError:
        return False
    return _check_codes(cert.w, cert.annihilator, U, V)


def _psi_columns(n, w):
    """The basis of the (2, w, w) block and psi's column of each of its
    int words, {int word: int} in the basis's alphabet, block-checked."""
    basis = enumerate_basis(n, 2, w, w)
    apply_psi = _column_operator(basis.alphabet, _psi_codes, w)
    return basis, [apply_psi({code: 1}) for code in basis.codes]


def verify_psi_structure(n, w):
    """Check psi's per-word leading scalar and residual strata on the full
    basis of the (2, w, w) block.

    For every canonical basis word: psi(word) - scalar*word must live in the
    predicted strata -- (a1, b1-1) for TR, (a1, b1+1) for TL, plus (1, 0).
    The type, stratum and scalar are read off the decoded word, the
    residual off psi's int-word column.  Returns a report dict; violations
    land in report['violations'].
    """
    basis, columns = _psi_columns(n, w)
    violations = []
    for word, code, column in zip(basis.words, basis.codes, columns):
        a1, b1 = stratum_of(word)
        typ = classify_type(word)
        scalar = leading_scalar(n, w, word)
        resid = _combine([(1, column), (-scalar, {code: 1})])
        allowed = {(a1, b1 - 1) if typ == TR else (a1, b1 + 1), (1, 0)}
        bad = {_word_stratum(basis.alphabet, image) for image in resid} - allowed
        if bad:
            violations.append({"word": word, "type": typ, "scalar": scalar,
                               "stray_strata": sorted(bad)})
    return {"n": n, "w": w, "dim": len(basis), "checked": len(basis),
            "tl_vacuous": not Stratification(w).tl_strata(), "violations": violations}
