"""The exactness certificate on int words, from chain text to chain text.

A certificate of a 2-cycle U in a (2, w, w) block is a primitive V with
boundary(V) = U and the monic annihilator p(t) = p(0) + t g(t) behind it,
p(0) != 0.  On cycles psi coincides with T = boundary . capital_phi, so one
Krylov pass under T finds p and the powers that build V = -(1/p(0))
capital_phi(g(T) U); see the contraction module for the operators.

Everything here runs on the int-word form of chains (see chains): per
weight block (w, h), the block's Alphabet and an {int word: int} dict,
over one common denominator.  parse_codes reads chain text into it,
codes_to_text writes it back, boundary_codes is the boundary on it, and
_certify_codes and _check_codes are the cores of certifying and of
re-checking a certificate.  The final check of a certificate,
boundary(V) == U, is a fresh boundary_codes over V's int words, compared
with U as exact integers; it shares no column with the pass.

The generator check (check_generator) and the text of coefficients and
factors live here too, so the `certify` and `check-certificate` commands
run on this module and words alone.  It imports only the standard library
and words; multivector, chains, boundary and contraction import these
names back, and their Chain adapters run on the same cores.
"""

from fractions import Fraction
from math import gcd, lcm
import re

from .words import WeightEscapeError, _word_boundary, alphabet, format_factor, place_factor


class DimensionMismatchError(ValueError):
    pass


class CertificateError(RuntimeError):
    pass


def check_generator(n, alpha, beta):
    if len(beta) != n:
        raise DimensionMismatchError("beta has length %d, ambient dimension is %d" % (len(beta), n))
    if any(b < 0 for b in beta):
        raise ValueError("negative exponent in %r" % (beta,))
    if not alpha:
        raise ValueError("empty direction set")
    if any(not 1 <= a <= n for a in alpha):
        raise ValueError("direction out of range 1..%d in %r" % (n, alpha))
    if any(alpha[i] >= alpha[i + 1] for i in range(len(alpha) - 1)):
        raise ValueError("directions not strictly increasing: %r" % (alpha,))


# --- text of coefficients, factors and chains --------------------------------


def format_coeff(c):
    """The text p or p/q of a rational coefficient."""
    if type(c) is int:
        return str(c)
    c = Fraction(c)
    return str(c.numerator) if c.denominator == 1 else "%d/%d" % (c.numerator, c.denominator)


def parse_coeff(text):
    """Fraction(text), with a zero denominator reported as ValueError."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % (text,)) from None


_FACTOR = r"x\[([0-9,]*)\]\s*d\[([0-9,]+)\]\s*$"
_FACTOR_RE = re.compile(r"^\s*" + _FACTOR)


def parse_factor(text):
    """Parse the text x[beta] d[alpha] of a generator, the monomial form
    without its coefficient; returns (beta, alpha)."""
    m = _FACTOR_RE.match(text)
    if m is None:
        raise ValueError("malformed factor: %r" % text)
    return _exponents(m.group(1), m.group(2))


def _exponents(beta, alpha):
    return (tuple(map(int, beta.split(","))) if beta else (), tuple(map(int, alpha.split(","))))


def codes_to_text(gens, den, codes):
    """The text of (1/den) * codes, one term per line: codes is an
    {int word: int} dict over the ranks into gens, which follow factor
    order, so the words are sorted as int tuples.  Each rank in use is
    formatted once, and each coefficient is reduced by one gcd.  The one
    formatter of chain text: chain_to_text and the certify command write
    through it."""
    names = {r: format_factor(gens[r]) for r in {r for word in codes for r in word}}
    lines = []
    for word, v in sorted(codes.items()):
        g = gcd(v, den)
        coeff = str(v // g) if g == den else "%d/%d" % (v // g, den // g)
        lines.append("%s | %s" % (coeff, " ; ".join([names[r] for r in word])))
    return "\n".join(lines)


def parse_codes(n, text):
    """The int-word form (den, blocks) of a chain in text form, as
    encode_chain returns it for the chain: den is the least common
    denominator and blocks maps each (w, h) to its Alphabet and the
    {int word: int} dict of den times its terms, with no zero coefficient
    and no empty block.  Accepts any factor order, blank lines and `#`
    comments; repeated words add up.

    Each distinct coefficient text and each distinct factor text is parsed
    (and the factor validated) once per call.  A line's factors give its
    block, and its word is canonicalized by place_factor on the ranks of
    that block's alphabet, each factor text ranked once per block.
    """
    coeffs = {}
    factors = {}  # factor text -> (generator, i, j)
    blocks = {}  # (w, h) -> (alphabet, {int word: coefficient}, {factor text: rank})
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        head, _, tail = line.partition("|")
        head = head.strip()
        coeff = coeffs.get(head)
        if coeff is None:
            coeff = parse_coeff(head)
            coeff = coeffs[head] = coeff.numerator if coeff.denominator == 1 else coeff
        parts = [part.strip() for part in tail.split(";")]
        w = h = 0
        for part in parts:
            f = factors.get(part)
            if f is None:
                beta, alpha = parse_factor(part)
                check_generator(n, alpha, beta)
                f = factors[part] = ((alpha, beta), len(alpha) - 1, sum(beta) - 1)
            w += f[1]
            h += f[2]
        block = blocks.get((w, h))
        if block is None:
            block = blocks[(w, h)] = (alphabet(n, w, h), {}, {})
        A, codes, ranks = block
        try:
            rs = tuple([ranks[part] for part in parts])
        except KeyError:
            for part in parts:
                if part not in ranks:
                    ranks[part] = A.rank.get(factors[part][0])
            rs = tuple([ranks[part] for part in parts])
        if None in rs:
            # every factor of a nonzero word lies in its block's alphabet
            # (see Alphabet), so this word repeats an even factor and is 0
            even = [factors[part][0] for part in parts if not factors[part][1] & 1]
            if len(set(even)) == len(even):
                raise ValueError("a factor of %r lies outside its block" % line)
            continue
        sign, word = 1, rs[:1]
        for r in rs[1:]:
            s, word = place_factor(word, len(word), r, A.parity)
            if not s:
                break
            sign *= s
        else:
            c = coeff if sign > 0 else -coeff
            prev = codes.get(word)
            codes[word] = c if prev is None else prev + c
    den = lcm(*[c.denominator for _, codes, _ in blocks.values() for c in codes.values()])
    form = {}
    for key, (A, codes, _) in blocks.items():
        ints = {word: c.numerator * (den // c.denominator) for word, c in codes.items() if c}
        if ints:
            form[key] = (A, ints)
    return den, form


# --- the operators of the certificate on int words ----------------------------


def boundary_codes(A, codes):
    """d of {int word: int} in the alphabet A, as {int word: int} without
    zero coefficients."""
    acc = {}
    for word, k in codes.items():
        for out, c in _word_boundary(A, word).items():
            if c:
                acc[out] = acc.get(out, 0) + c * k
    return {out: v for out, v in acc.items() if v}


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


# --- certify and check --------------------------------------------------------


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
