"""Canonical super-wedge words, chain spaces and their text form.

A wedge word is a tuple of unit-coefficient generators (alpha, beta) in the
canonical factor order: primary key |alpha| ascending, secondary |beta|
ascending, tertiary lexicographic (alpha, beta).  Swapping adjacent factors
of g-degrees x, y multiplies the sign by -(-1)^{xy}, so factors of even
g-degree behave antisymmetrically (no repeats) while factors of odd g-degree
commute (repeats allowed).

Inside the kernels a word is an int word: the tuple of the ranks of its
factors in an Alphabet, where ranks follow the factor order, so words
compare and hash as plain int tuples.  The alphabets, the factor order
(place_factor) and basis enumeration live in the leaf module words and are
re-exported here.  Chains and BasisIndex.words keep generator tuples.

A chain is a rational combination of canonical words; Chain shares its
arithmetic with MultiVector.  Serialized form, one term per line:
``coeff | x[..] d[..] ; x[..] d[..] ; ...``

Its int-word form holds, per weight block (w, h), the block's Alphabet and
an {int word: int} dict, over one common denominator: (den, {(w, h): (A,
codes)}).  encode_chain and decode_chain carry a Chain to it and back;
encode_chain validates, so a factor that is no generator raises
check_generator's ValueError.  _on_codes (encode, apply a kernel,
decode) is the adapter of the Chain operators boundary, phi_op and
capital_phi.
The text form is read and written only through this form: parse_codes is
the one parser (parse_chain decodes what it reads) and codes_to_text the
one formatter (chain_to_text writes through it).  Both are defined in the
leaf module certificate and re-exported here, so the certify and
check-certificate commands go from text to int words and back to text
without loading this module or building a Chain.
"""

from fractions import Fraction
from math import lcm

# the block counts live in the leaf module counting, and the int-word
# kernel in the leaf module words; re-exported here
from .counting import basis_dim, block_dims, dim_generators, max_arity, max_arity_bound
# the parser and the formatter of the int-word form live in the leaf module
# certificate, the generator check and the coefficient text in the leaf
# module monomial; re-exported here
from .certificate import codes_to_text, parse_codes
from .monomial import check_generator, format_coeff
from .multivector import _Combination
from .words import (Alphabet, BasisIndex, _class_multisets, _compositions, alphabet,
                    enumerate_basis, factor_key, format_factor, generators_of_bidegree,
                    place_factor)


def canonicalize_word(factors):
    """Sort raw unit-coefficient factors into the canonical order.

    The distinct factors are ranked locally in factor order, and each one is
    inserted into the sorted prefix of the int word by place_factor.
    Returns (sign, word); sign is 0 and word is None when a factor of even
    g-degree repeats.
    """
    factors = list(factors)
    if not factors:
        raise ValueError("empty factor list")
    order = sorted(set(factors), key=factor_key)
    rank = {gen: r for r, gen in enumerate(order)}
    parity = [(len(gen[0]) - 1) & 1 for gen in order]
    sign, word = 1, ()
    for gen in factors:
        s, word = place_factor(word, len(word), rank[gen], parity)
        if s == 0:
            return 0, None
        sign *= s
    return sign, tuple(order[r] for r in word)


def weight_signature(word):
    """(m, w, h) = (arity, sum(|alpha|-1), sum(|beta|-1)) of a word."""
    m = len(word)
    w = sum(len(alpha) - 1 for alpha, _ in word)
    h = sum(sum(beta) - 1 for _, beta in word)
    return m, w, h


class Chain(_Combination):
    """Rational combination of canonical wedge words over a fixed n.

    An integral coefficient is stored as an int and any other as a
    Fraction, as in SparseMatrixQ, so integral chains carry no Fraction
    arithmetic; dividing two coefficients needs Fraction, since `/` on
    ints gives a float.  A Chain has no hash.
    """

    __slots__ = ()

    def __init__(self, n, terms=None):
        self.n = n
        clean = {}
        if terms:
            for word, c in terms.items():
                if type(c) is not int:
                    if type(c) is not Fraction:
                        c = Fraction(c)
                    if c.denominator == 1:
                        c = c.numerator
                if c:
                    clean[word] = c
        self.terms = clean

    @classmethod
    def from_word(cls, n, raw_factors, coeff=1):
        """Build c * (f1 ^^ f2 ^^ ...) from raw factors, each validated,
        canonicalizing."""
        for alpha, beta in raw_factors:
            check_generator(n, alpha, beta)
        sign, word = canonicalize_word(raw_factors)
        if sign == 0:
            return cls.zero(n)
        return cls(n, {word: sign * Fraction(coeff)})

    @classmethod
    def from_multivector(cls, A):
        """A 1-chain: each monomial of A becomes a single-factor word."""
        return cls(A.n, {((alpha, beta),): c for (alpha, beta), c in A.terms.items()})

    def arity(self):
        """Common arity of all words; None for the zero chain."""
        ms = {len(w) for w in self.terms}
        if not ms:
            return None
        if len(ms) > 1:
            raise ValueError("mixed arities %s" % sorted(ms))
        return ms.pop()

    def __repr__(self):
        if not self.terms:
            return "Chain(%d, 0)" % self.n
        return "Chain(%d, <%d terms>)" % (self.n, len(self.terms))


def wedge_chain(c1, c2):
    """Bilinear ^^ product: concatenate factor lists and canonicalize."""
    c1._check(c2)
    terms = {}
    for w1, a in c1.terms.items():
        for w2, b in c2.terms.items():
            sign, word = canonicalize_word(w1 + w2)
            if sign == 0:
                continue
            terms[word] = terms.get(word, 0) + sign * a * b
    return Chain(c1.n, terms)


# --- coordinates and serialization ------------------------------------------


def chain_to_vector(c, basis):
    """Coordinates of a chain in a basis; raises on out-of-block words."""
    v = [Fraction(0)] * len(basis)
    for word, coeff in c.terms.items():
        v[basis.position(word)] = coeff
    return v


def encode_chain(chain):
    """The chain as int words, weight block by weight block.

    Returns (scale, blocks): scale is the lcm of the coefficient
    denominators, and blocks maps each (w, h) of the chain to its Alphabet
    and the {int word: int} dict of its words, each coefficient multiplied
    by scale: the int-word form, which parse_codes returns for chain text.
    The weights (|alpha| - 1, |beta| - 1) of each distinct generator are
    computed once per call, and its rank (Alphabet.rank_of) once per block,
    after check_generator.  A factor outside its block's alphabet raises
    ValueError: check_generator's for one that is no generator over R^n,
    else one naming the word, which then repeats an even factor.
    """
    n = chain.n
    scale = lcm(*[c.denominator for c in chain.terms.values()])
    weights = {}
    ranked = {}  # (w, h) -> (alphabet, {int word: int}, {generator: rank or None})
    for word, c in chain.terms.items():
        w = h = 0
        for gen in word:
            wh = weights.get(gen)
            if wh is None:
                alpha, beta = gen
                wh = weights[gen] = (len(alpha) - 1, sum(beta) - 1)
            w += wh[0]
            h += wh[1]
        block = ranked.get((w, h))
        if block is None:
            block = ranked[(w, h)] = (alphabet(n, w, h), {}, {})
        A, codes, ranks = block
        try:
            code = tuple([ranks[gen] for gen in word])
        except KeyError:
            for gen in word:
                if gen not in ranks:
                    check_generator(n, *gen)
                    ranks[gen] = A.rank_of(gen)
            code = tuple([ranks[gen] for gen in word])
        if None in code:
            raise ValueError("a factor of %r lies outside its block" % (word,))
        codes[code] = c.numerator * (scale // c.denominator)
    return scale, {key: (A, codes) for key, (A, codes, _) in ranked.items()}


def decode_chain(n, blocks, factor=1):
    """The Chain of the (alphabet, {int word: int}) pairs `blocks`, each
    coefficient multiplied by the rational `factor`; int words in distinct
    blocks never coincide, since they differ in weight."""
    num, den = factor.numerator, factor.denominator
    terms = {}
    for A, codes in blocks:
        gens = A.gens
        for code, v in codes.items():
            v *= num
            q, r = divmod(v, den)
            terms[tuple(gens[x] for x in code)] = Fraction(v, den) if r else q
    return Chain(n, terms)


def _on_codes(chain, kernel):
    """kernel(A, codes) on each weight block of the chain's int-word form,
    decoded back into one Chain."""
    scale, blocks = encode_chain(chain)
    return decode_chain(chain.n, [(A, kernel(A, codes)) for A, codes in blocks.values()],
                        Fraction(1, scale))


def chain_to_text(c):
    """Canonical text serialization, one term per line, the words in
    factor order.

    The distinct generators of the chain, of all its blocks, are ranked
    together in factor order, and its words written through codes_to_text
    as int words over their common denominator.
    """
    order = sorted({gen for word in c.terms for gen in word}, key=factor_key)
    rank = {gen: r for r, gen in enumerate(order)}
    den = lcm(*[x.denominator for x in c.terms.values()])
    return codes_to_text(order, den, {tuple([rank[gen] for gen in word]):
                                      x.numerator * (den // x.denominator)
                                      for word, x in c.terms.items()})


def parse_chain(n, text):
    """Inverse of chain_to_text: the Chain that parse_codes reads, decoded
    block by block, so its terms come in the order of their blocks' first
    lines."""
    den, blocks = parse_codes(n, text)
    return decode_chain(n, blocks.values(), Fraction(1, den))
