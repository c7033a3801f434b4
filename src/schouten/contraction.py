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
Fractions and re-encoded.  The block and arity checks read the block keys
and the word lengths.  The final check of a certificate, boundary(V) == U,
is a fresh boundary_codes over V's int words, compared with U as exact
integers; it shares no column with the pass.
"""

from fractions import Fraction
from math import gcd, lcm

from .chains import (Chain, _on_codes, chain_to_text, codes_to_text, decode_chain,
                     encode_chain, enumerate_basis, format_coeff, parse_codes, parse_coeff,
                     place_factor)
from .boundary import WeightEscapeError, boundary_codes
from .record import Record


class DescentError(RuntimeError):
    """Stratum descent failed to terminate within its theoretical bound."""


class CertificateError(RuntimeError):
    pass


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


def _one_block(blocks, m):
    """(w, A, codes) of the one (m, w, w) block of the int-word form
    `blocks` (see encode_chain), w read off its first block; ValueError
    naming the first term, block by block, outside it.  Reads the block
    keys and the word lengths only."""
    w = next(iter(blocks))[0]
    for key, (_, codes) in blocks.items():
        other = key != (w, w)
        for word in codes:
            if other or len(word) != m:
                raise ValueError("term signature %r outside the (%d, %d, %d) block"
                                 % ((len(word),) + key, m, w, w))
    return (w,) + blocks[(w, w)]


def _word_stratum(A, word):
    """stratum_of for an int word (r1, r2) of the alphabet A."""
    i1, j1 = A.bidegree[word[0]]
    return i1 + 1, j1 + 1


def project_stratum(U, stratum):
    """The sub-chain of words whose representative lies in the stratum."""
    key = (stratum.a1, stratum.b1)
    return Chain(U.n, {word: c for word, c in U.terms.items() if stratum_of(word) == key})


def _shifts(A, r):
    """Ranks of x_1 gens[r], ..., x_n gens[r] in the alphabet A, entered
    in its shift table; None for one outside the alphabet, which no
    nonzero word of A's block can hold."""
    out = A.shifts.get(r)
    if out is None:
        alpha, beta = A.gens[r]
        out = A.shifts[r] = tuple(A.rank.get((alpha, beta[:l] + (beta[l] + 1,) + beta[l + 1:]))
                                  for l in range(A.n))
    return out


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


def _capital_phi_codes(A, codes):
    """capital_phi on {int word: int} of arity 2 in the alphabet A.

    The TR word f1 ^^ f2 goes to d_l ^^ f1 ^^ (x_l f2) and the TL word to
    d_l ^^ (x_l f1) ^^ f2: x_l times a factor is placed next to the other
    factor, then d_l in front, by two place_factor insertions.
    """
    parity = A.parity
    bideg = A.bidegree
    d = A.classes[(0, -1)]
    out = {}
    for (r1, r2), c in codes.items():
        (i1, j1), (i2, j2) = bideg[r1], bideg[r2]
        # classify_type: |A| + |B| = i + j + 2 per factor
        if i1 + j1 < i2 + j2 or (i1 + j1 == i2 + j2 and i1 <= i2):
            kept, slot, moved = r1, 1, r2
        else:
            kept, slot, moved = r2, 0, r1
        for dl, xr in zip(d, _shifts(A, moved)):
            if xr is None:
                continue
            s, pair = place_factor((kept,), slot, xr, parity)
            if s:
                t, word = place_factor(pair, 0, dl, parity)
                if t:
                    out[word] = out.get(word, 0) + s * t * c
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


def _check_psi_image(A, codes, w):
    """The (2, w, w) block check on an image of psi, {int word: int} in
    the alphabet A; _column_operator runs it on every image it makes."""
    bideg = A.bidegree
    for word in codes:
        ij = [bideg[r] for r in word]
        if len(ij) != 2 or ij[0][0] + ij[1][0] != w or ij[0][1] + ij[1][1] != w:
            raise WeightEscapeError("psi left the (2, %d, %d) block" % (w, w))
    return codes


def _t_codes(A, codes):
    """T = boundary . capital_phi on {int word: int} of arity 2 in the
    alphabet A; T equals psi on cycles."""
    return boundary_codes(A, _capital_phi_codes(A, codes))


def _psi_codes(A, codes):
    """psi = boundary . capital_phi + phi_op . boundary on {int word: int}
    of arity 2 in the alphabet A; its callers block-check the image."""
    return _combine([(1, _t_codes(A, codes)),
                     (1, _phi_op_codes(A, boundary_codes(A, codes)))])


def _column_operator(A, linear, w):
    """The operator X -> linear(A, X) of a Krylov pass or a stratum walk,
    each image block-checked, linear's column of a word made on first use.

    linear is a map on {int word: int} dicts that is linear over the
    integers, so linear(A, X) is the sum of X[word] * linear(A, {word: 1}).
    The columns are kept for the life of the operator: the words of
    successive powers recur, and each is then applied once.
    """
    columns = {}

    def apply(X):
        out = {}
        for word, c in X.items():
            column = columns.get(word)
            if column is None:
                column = columns[word] = linear(A, {word: 1})
            for image, k in column.items():
                out[image] = out.get(image, 0) + c * k
        return _check_psi_image(A, {image: v for image, v in out.items() if v}, w)

    return apply


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


def _krylov_minimal_polynomial(u, operator):
    """Minimal monic annihilator p of u under the operator, fraction-free.

    u is a nonzero {int word: int} dict and the operator maps such dicts
    to such dicts.  Each Krylov vector is stored as an integer power P_k
    with its content divided out, so T^k u = scales[k] * P_k; each is
    reduced against the earlier ones by integer row operations, its
    combination of the powers carried along.  Returns p (Fractions,
    constant first), the powers P_0, ..., P_{d-1} and their scales,
    d = deg p.  A zero constant term aborts.
    """
    pivots = []  # (pivot word, reduced vector, its combination of the powers)
    powers = []
    scales = []
    vec = u
    scale = 1
    while True:
        content = _content(vec.values())
        if content != 1:
            vec = {word: v // content for word, v in vec.items()}
        scale *= content
        red = vec
        # vec = P_k with k = len(powers); earlier combinations are shorter
        rep = [0] * len(powers) + [1]
        for pword, pvec, pcombo in pivots:
            x = red.get(pword)
            if x:
                a = pvec[pword]
                g = gcd(a, x)
                a //= g
                x //= g
                red = _combine([(a, red), (-x, pvec)])  # clears pword
                rep = [a * r for r in rep]
                for i, y in enumerate(pcombo):
                    rep[i] -= x * y
        if not red:
            # sum_k rep[k] P_k = 0, and rep[-1] != 0 since a != 0 at every step
            p = [Fraction(r * scale, rep[-1] * s) for r, s in zip(rep, scales + [scale])]
            if p[0] == 0:
                raise CertificateError("annihilator has zero constant term")
            return p, powers, scales
        g = _content(rep + list(red.values()))
        if g != 1:
            red = {word: v // g for word, v in red.items()}
            rep = [r // g for r in rep]
        pivots.append((next(iter(red)), red, rep))
        powers.append(vec)
        scales.append(scale)
        vec = operator(vec)


def _content(values):
    """gcd of the ints, positive; 1 for none."""
    return gcd(*values) or 1


def _combine(pairs):
    """sum of k * vec over the (int k, {int word: int} vec) pairs, without
    zero coefficients."""
    out = {}
    for k, vec in pairs:
        for word, v in vec.items():
            out[word] = out.get(word, 0) + k * v
    return {word: v for word, v in out.items() if v}


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


def _certify_codes(den, blocks):
    """certify_exact on the int-word form (den, blocks) of a nonzero U.

    U must be one (2, w, w) block (ValueError otherwise) and a cycle
    (CertificateError, with the text of its boundary, otherwise).  The
    pass runs on the int words of the block's alphabet A with U scaled to
    integers by den; T's column of each word is computed when the word
    first appears in a power and kept for the pass, and every power is
    block-checked.  V is built from the integer powers the pass stores, as
    int words over one denominator, and boundary V = U is then verified
    exactly by _bounds, a fresh boundary that shares no column with the
    pass, before the certificate is emitted.  Returns (w, p, A, u, (vden,
    v)): p the annihilator (Fractions, constant first), u = den * U and
    v = vden * V as {int word: int} in A.
    """
    w, A, u = _one_block(blocks, 2)
    du = boundary_codes(A, u)
    if du:
        raise CertificateError("input is not a cycle; its boundary is:\n%s"
                               % codes_to_text(A.gens, den, du))
    p, powers, scales = _krylov_minimal_polynomial(u, _column_operator(A, _t_codes, w))
    g = p[1:]
    # g(T) U = (1/den) sum_k g[k] scales[k] P_k; its denominators cleared by m
    weights = [c * s for c, s in zip(g, scales)]
    m = lcm(*[c.denominator for c in weights])
    acc = _combine((c.numerator * (m // c.denominator), power)
                   for c, power in zip(weights, powers))
    # V = -(1/(p0 den m)) capital_phi(acc)
    f = Fraction(-1) / (p[0] * den * m)
    v = {word: x * f.numerator for word, x in _capital_phi_codes(A, acc).items()}
    if not _bounds(A, f.denominator, v, den, u):
        raise CertificateError("primitive verification failed")
    return w, p, A, u, (f.denominator, v)


def _bounds(A, vden, v, uden, u):
    """Whether boundary(v / vden) == u / uden exactly, for {int word: int}
    dicts in the alphabet A: a fresh boundary_codes over v, compared with
    u as integers."""
    return ({word: x * uden for word, x in boundary_codes(A, v).items()}
            == {word: x * vden for word, x in u.items()})


def _certify_form(n, form):
    """certificate_to_dict(certify_exact(U)) for the U of the int-word form
    (den, blocks) of parse_codes, with no Chain built: both chains are
    written from their int words."""
    den, blocks = form
    if not blocks:
        return _certificate_dict(n, 0, "", "", (Fraction(1),))
    w, p, A, u, (vden, v) = _certify_codes(den, blocks)
    return _certificate_dict(n, w, codes_to_text(A.gens, den, u),
                             codes_to_text(A.gens, vden, v), p)


def _certificate_dict(n, w, cycle, primitive, p):
    return {
        "block": [n, w],
        "U": cycle.splitlines(),
        "V": primitive.splitlines(),
        "p": [format_coeff(c) for c in p],
    }


def certificate_to_dict(cert):
    """JSON-ready certificate: block, both chains, p coefficients
    (constant first)."""
    return _certificate_dict(cert.n, cert.w, chain_to_text(cert.cycle),
                             chain_to_text(cert.primitive), cert.annihilator)


def _read_certificate(data):
    """(n, w, U, V, p) of a certificate dict, U and V in the int-word form
    of parse_codes; ValueError on a value that is not a JSON object, a
    missing field or a malformed one."""
    if not isinstance(data, dict):
        raise ValueError("the certificate must be a JSON object")
    for field in ("block", "U", "V", "p"):
        if field not in data:
            raise ValueError("missing field %r" % field)
    block = data["block"]
    if (not isinstance(block, list) or len(block) != 2
            or any(type(x) is not int for x in block)
            or block[0] < 1 or block[1] < 0):
        raise ValueError("block must be [n, w] with integers n >= 1, w >= 0; got %r"
                         % (block,))
    for field in ("U", "V", "p"):
        if not isinstance(data[field], list) or any(type(x) is not str for x in data[field]):
            raise ValueError("%s must be a list of strings" % field)
    n, w = block
    U = parse_codes(n, "\n".join(data["U"]))
    V = parse_codes(n, "\n".join(data["V"]))
    p = tuple(parse_coeff(c) for c in data["p"])
    return n, w, U, V, p


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


def _check_codes(w, p, U, V):
    """check_certificate on the int-word forms (den, blocks) of the cycle
    U and the primitive V: the block and arity checks read the block keys
    and the word lengths, and boundary V = U is checked by _bounds."""
    if not p or p[0] == 0 or p[-1] != 1:
        return False
    (uden, ublocks), (vden, vblocks) = U, V
    for blocks, m in ((ublocks, 2), (vblocks, 3)):
        if any(key != (w, w) or any(len(word) != m for word in codes)
               for key, (_, codes) in blocks.items()):
            return False
    u = ublocks.get((w, w), (None, {}))[1]
    if not vblocks:
        return not u
    A, v = vblocks[(w, w)]
    return _bounds(A, vden, v, uden, u)


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
