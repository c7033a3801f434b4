"""Canonical super-wedge words, chain spaces and ordered basis enumeration.

A wedge word is a tuple of unit-coefficient generators (alpha, beta) in the
canonical factor order: primary key |alpha| ascending, secondary |beta|
ascending, tertiary lexicographic (alpha, beta).  Swapping adjacent factors
of g-degrees x, y multiplies the sign by -(-1)^{xy}, so factors of even
g-degree behave antisymmetrically (no repeats) while factors of odd g-degree
commute (repeats allowed).

Inside the kernels a word is an int word: the tuple of the ranks of its
factors in an Alphabet, where ranks follow the factor order, so words
compare and hash as plain int tuples.  Chains and BasisIndex.words keep
generator tuples.

A chain is a rational combination of canonical words.  Serialized form, one
term per line:  ``coeff | x[..] d[..] ; x[..] d[..] ; ...``
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, product

# the block counts live in the leaf module counting; re-exported here
from .counting import basis_dim, block_dims, dim_generators, max_arity, max_arity_bound
from .multivector import DimensionMismatchError, check_generator, parse_monomial


def factor_key(gen):
    alpha, beta = gen
    return (len(alpha), sum(beta), alpha, beta)


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


def place_factor(rest, i, r, parity):
    """Insert the factor r at slot i of the canonical int word `rest`,
    re-canonicalizing; parity[r] is the g-degree of r mod 2.

    The one place that knows the factor order (ints ranked in factor
    order compare as their generators do), the swap sign and the
    even-repeat rule: the factor bubbles left or right to its sorted
    position, accumulating -(-1)^{xy} per adjacent swap (x, y the
    g-degrees), in O(m).  Returns (sign, word); sign 0 when a factor of
    even g-degree repeats.
    """
    x = parity[r]
    sign = 1
    j = i
    while j > 0 and rest[j - 1] > r:
        if not (x and parity[rest[j - 1]]):
            sign = -sign
        j -= 1
    if j == i:
        while j < len(rest) and rest[j] < r:
            if not (x and parity[rest[j]]):
                sign = -sign
            j += 1
    if not x and ((j > 0 and rest[j - 1] == r) or (j < len(rest) and rest[j] == r)):
        return 0, None
    return sign, rest[:j] + (r,) + rest[j:]


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

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: tuple(factor_key(f) for f in kv[0]))

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


# --- basis enumeration ------------------------------------------------------


@lru_cache(maxsize=None)
def generators_of_bidegree(n, i, j):
    """All generators of g-bidegree (i, j), sorted canonically.

    |alpha| = i+1 directions out of n, |beta| = j+1.
    """
    if not (0 <= i <= n - 1) or j < -1:
        return ()
    gens = []
    for alpha in combinations(range(1, n + 1), i + 1):
        for beta in _compositions(j + 1, n):
            gens.append((alpha, beta))
    gens.sort(key=factor_key)
    return tuple(gens)


def _compositions(total, parts):
    """All tuples of `parts` non-negative integers summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _class_multisets(n, m, w, h, min_class):
    """Multisets of m bidegree classes (i, j) with sum i = w, sum j = h.

    Classes are produced in ascending (i, j) order starting at min_class;
    even-i classes are capped at their generator-space dimension.  Yields
    lists of ((i, j), count).
    """
    if m == 0:
        if w == 0 and h == 0:
            yield []
        return
    min_i, min_j = min_class
    for i in range(min_i, n):
        if i > w:
            break
        j_lo = min_j if i == min_i else -1
        # each remaining factor contributes at least -1 to h
        for j in range(j_lo, h + m):
            cap = m
            if i % 2 == 0:
                cap = min(cap, dim_generators(n, i, j))
            for count in range(1, cap + 1):
                if count * i > w:
                    break
                if h - count * j < -(m - count):
                    break
                # later classes all have (i', j') > (i, j), so i' >= i
                if w - count * i < (m - count) * i:
                    continue
                for rest in _class_multisets(n, m - count, w - count * i,
                                             h - count * j, (i, j + 1)):
                    yield [((i, j), count)] + rest


class Alphabet:
    """The generators of the weight block (n, w, h) as small integers.

    A word of the block holds generators of bidegree (i, j) with
    i <= min(n - 1, w) and j <= h + n + w: at most n + w of its other
    factors can have j = -1 (the n constant fields d_l, which are even and
    so distinct, and factors with i >= 1, each of which takes 1 of w), and
    every other factor takes at least 0 of h.  So one alphabet serves every
    arity of the block, and every bracket of two factors of one word lies in
    it.  The generators are ranked in factor order: gens[r] is the generator
    of rank r, rank its inverse, parity[r] its g-degree mod 2, classes[(i, j)]
    the range of ranks of bidegree (i, j) and bidegree[r] the (i, j) of
    rank r (built on first use).  An int word is the tuple of the ranks of its factors; int
    words sort as their generator words do.  The ranks of class (0, -1)
    are those of d_1, ..., d_n, in this order.

    brackets is the bracket table, filled lazily by the boundary module:
    brackets[a * len(gens) + b] is [gens[a], gens[b]] as (rank, int) pairs.
    shifts is the table of x_l times a generator, filled lazily by the
    contraction module: shifts[r][l - 1] is the rank of x_l gens[r], or
    None when that generator lies outside the alphabet.
    """

    __slots__ = ("n", "gens", "rank", "parity", "classes", "brackets", "shifts",
                 "_bidegree")

    def __init__(self, n, w, h):
        self.n = n
        gens = []
        self.classes = {}
        for i in range(min(n - 1, w) + 1):
            for j in range(-1, h + n + w + 1):
                lo = len(gens)
                gens.extend(generators_of_bidegree(n, i, j))
                self.classes[(i, j)] = range(lo, len(gens))
        self.gens = tuple(gens)
        self.rank = {gen: r for r, gen in enumerate(gens)}
        self.parity = [(len(alpha) - 1) & 1 for alpha, _ in gens]
        self.brackets = {}
        self.shifts = {}
        self._bidegree = None

    @property
    def bidegree(self):
        """bidegree[r] is the (i, j) of rank r; built on first use."""
        if self._bidegree is None:
            self._bidegree = [(len(alpha) - 1, sum(beta) - 1) for alpha, beta in self.gens]
        return self._bidegree


_ALPHABETS = {}  # (n, w, h) -> Alphabet, oldest first
_ALPHABET_SLOTS = 4


def alphabet(n, w, h):
    """The Alphabet of the weight block (n, w, h), from a small cache that
    drops its oldest entry when full.  The ranks depend on (n, w, h) alone,
    so int words of a dropped and rebuilt alphabet still agree."""
    key = (n, w, h)
    A = _ALPHABETS.get(key)
    if A is None:
        if len(_ALPHABETS) >= _ALPHABET_SLOTS:
            del _ALPHABETS[next(iter(_ALPHABETS))]
        A = _ALPHABETS[key] = Alphabet(n, w, h)
    return A


class BasisIndex:
    """Ordered basis of the chain space block (n; m, w, h).

    The basis is held as sorted int words of the block's alphabet
    (`codes`); `words` decodes them to generator tuples and `position`
    takes a generator tuple, both on first use.
    """

    __slots__ = ("n", "m", "w", "h", "alphabet", "codes", "_index", "_words")

    def __init__(self, n, m, w, h, alphabet, codes):
        self.n = n
        self.m = m
        self.w = w
        self.h = h
        self.alphabet = alphabet
        self.codes = codes
        self._index = None
        self._words = None

    def __len__(self):
        return len(self.codes)

    def __iter__(self):
        return iter(self.words)

    @property
    def words(self):
        if self._words is None:
            gens = self.alphabet.gens
            self._words = tuple(tuple(gens[r] for r in code) for code in self.codes)
        return self._words

    @property
    def index(self):
        """int word -> position."""
        if self._index is None:
            self._index = {code: i for i, code in enumerate(self.codes)}
        return self._index

    def position(self, word):
        rank = self.alphabet.rank
        try:
            return self.index[tuple(rank[gen] for gen in word)]
        except KeyError:
            raise KeyError("word %r lies outside the (m=%d, w=%d, h=%d) block"
                           % (word, self.m, self.w, self.h))


def enumerate_basis(n, m, w, h):
    """All canonical words of arity m and double weight (w, h) over R^n.

    A word is a multiset of generators with even-g-degree generators distinct
    and odd-g-degree generators free to repeat.  The words are built as int
    words of the block's alphabet and sorted as plain int tuples, which is
    the canonical order.  The result may be empty.
    """
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    A = alphabet(n, w, h)
    codes = []
    for classes in _class_multisets(n, m, w, h, (0, -1)):
        pools = []
        for (i, j), count in classes:
            ranks = A.classes[(i, j)]
            if i % 2 == 0:
                pools.append(list(combinations(ranks, count)))
            else:
                pools.append(list(combinations_with_replacement(ranks, count)))
        for pick in product(*pools):
            codes.append(sum(pick, ()))
    codes.sort()
    return BasisIndex(n, m, w, h, A, codes)


# --- coordinates and serialization ------------------------------------------


def chain_to_vector(c, basis):
    """Coordinates of a chain in a basis; raises on out-of-block words."""
    v = [Fraction(0)] * len(basis)
    for word, coeff in c.terms.items():
        v[basis.position(word)] = coeff
    return v


def format_coeff(c):
    c = Fraction(c)
    return str(c.numerator) if c.denominator == 1 else "%d/%d" % (c.numerator, c.denominator)


def parse_coeff(text):
    """Fraction(text), with a zero denominator reported as ValueError."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % (text,)) from None


def format_factor(gen):
    alpha, beta = gen
    return "x[%s] d[%s]" % (",".join(map(str, beta)), ",".join(map(str, alpha)))


def chain_to_text(c):
    """Canonical text serialization, one term per line."""
    lines = []
    for word, coeff in c.sorted_terms():
        lines.append("%s | %s" % (format_coeff(coeff),
                                  " ; ".join(format_factor(f) for f in word)))
    return "\n".join(lines)


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

