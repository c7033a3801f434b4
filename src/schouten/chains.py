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

A chain is a rational combination of canonical words.  Serialized form, one
term per line:  ``coeff | x[..] d[..] ; x[..] d[..] ; ...``
"""

from fractions import Fraction

# the block counts live in the leaf module counting, and the int-word
# kernel in the leaf module words; re-exported here
from .counting import basis_dim, block_dims, dim_generators, max_arity, max_arity_bound
from .multivector import DimensionMismatchError, check_generator, parse_monomial
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
    return next(_canonical_words([factors]))


def _canonical_words(factor_lists):
    """canonicalize_word of each nonempty list of raw factors in turn; the
    distinct factors of all the lists are ranked once."""
    order = sorted({gen for factors in factor_lists for gen in factors}, key=factor_key)
    rank = {gen: r for r, gen in enumerate(order)}
    parity = [(len(gen[0]) - 1) & 1 for gen in order]
    for factors in factor_lists:
        sign, word = 1, ()
        for gen in factors:
            s, word = place_factor(word, len(word), rank[gen], parity)
            if s == 0:
                yield 0, None
                break
            sign *= s
        else:
            yield sign, tuple(order[r] for r in word)


def weight_signature(word):
    """(m, w, h) = (arity, sum(|alpha|-1), sum(|beta|-1)) of a word."""
    m = len(word)
    w = sum(len(alpha) - 1 for alpha, _ in word)
    h = sum(sum(beta) - 1 for _, beta in word)
    return m, w, h


class Chain:
    """Rational combination of canonical wedge words over a fixed n.

    An integral coefficient is stored as an int and any other as a
    Fraction, as in SparseMatrixQ, so integral chains carry no Fraction
    arithmetic; dividing two coefficients needs Fraction, since `/` on
    ints gives a float.
    """

    __slots__ = ("n", "terms")

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
    def zero(cls, n):
        return cls(n)

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

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, Chain) and self.n == other.n and self.terms == other.terms

    def _check(self, other):
        if self.n != other.n:
            raise DimensionMismatchError("mixing n=%d with n=%d" % (self.n, other.n))

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for w, c in other.terms.items():
            terms[w] = terms.get(w, 0) + c
        return Chain(self.n, terms)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Chain(self.n, {w: -c for w, c in self.terms.items()})

    def __mul__(self, scalar):
        return Chain(self.n, {w: c * scalar for w, c in self.terms.items()})

    __rmul__ = __mul__

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


def format_coeff(c):
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


def chain_to_text(c):
    """Canonical text serialization, one term per line, the words in
    factor order.

    The distinct generators are ranked in factor order and formatted once
    per call, and the words sorted as the int tuples of their ranks, which
    compare as the words do.
    """
    order = sorted({gen for word in c.terms for gen in word}, key=factor_key)
    rank = {gen: r for r, gen in enumerate(order)}
    text = [format_factor(gen) for gen in order]
    terms = sorted((tuple(rank[gen] for gen in word), coeff) for word, coeff in c.terms.items())
    return "\n".join("%s | %s" % (format_coeff(coeff), " ; ".join(text[r] for r in code))
                     for code, coeff in terms)


def parse_chain(n, text):
    """Inverse of chain_to_text; accepts any factor order and blank lines.

    Terms accumulate in one dict, so parsing is linear in the line count.
    Each distinct coefficient text and each distinct factor text is parsed
    (and the factor validated) once per call, and the distinct generators
    of the whole text are ranked in factor order once.
    """
    coeffs = {}
    gens = {}
    lines = []
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
        factors = []
        for part in tail.split(";"):
            part = part.strip()
            gen = gens.get(part)
            if gen is None:
                _, beta, alpha = parse_monomial("1 * " + part)
                check_generator(n, alpha, beta)
                gen = gens[part] = (alpha, beta)
            factors.append(gen)
        lines.append((coeff, factors))
    terms = {}
    words = _canonical_words([factors for _, factors in lines])
    for (coeff, _), (sign, word) in zip(lines, words):
        if sign:
            c = coeff if sign > 0 else -coeff
            prev = terms.get(word)
            terms[word] = c if prev is None else prev + c
    return Chain(n, terms)

