"""The int-word kernel: alphabets, basis enumeration, the bracket of two
generators and the columns of the boundary on int words.

A generator (alpha, beta) is the unit monomial x^beta d_alpha; alpha is a
strictly increasing tuple of directions in 1..n and beta a tuple of n
exponents.  Its g-bidegree is (|alpha|-1, |beta|-1).  A word is a tuple of
generators in the canonical factor order: primary key |alpha| ascending,
secondary |beta| ascending, tertiary lexicographic (alpha, beta).  Swapping
adjacent factors of g-degrees x, y multiplies the sign by -(-1)^{xy}, so
factors of even g-degree behave antisymmetrically (no repeats) while
factors of odd g-degree commute (repeats allowed).

Inside the kernels a word is an int word: the tuple of the ranks of its
factors in an Alphabet, where ranks follow the factor order, so words
compare and hash as plain int tuples.

The bracket of two monomials has a closed form in odd variables (the
Schouten-Nijenhuis bracket as in Kontsevich, Deformation quantization of
Poisson manifolds, 2003): with xi_l = d_l odd, x^beta d_alpha is the
polynomial x^beta xi_alpha and

    [P, Q] = sum_l (P d/dxi_l)(dQ/dx_l) - (dP/dx_l)(d/dxi_l Q),

where the xi-derivative of P acts from the right and that of Q from the
left.  Its terms and their signs depend only on the two direction sets,
and _direction_terms is the one code that knows them.  _bracket_mono
evaluates them on the exponents of two monomials.  _bracket evaluates them
for two ranks of an Alphabet through a template kept on the alphabet
(_key_terms), which also holds each term's offset of int keys, so that a
term's rank is found by one int addition and one lookup (see Alphabet).
The boundary of a word is the pairwise Chevalley-Eilenberg sum that the
boundary module describes; _word_boundary evaluates it on int words,
filling the alphabet's bracket table through _bracket, and the torus
module checks the templates that _bracket evaluates (torus.template_failure).

This module imports only the standard library and counting, so `basis`
and `betti` run on it without loading the chain, multivector and boundary
modules (or fractions).  Those modules import these names back.
"""

from functools import lru_cache
from itertools import combinations, combinations_with_replacement, product
from operator import mul, sub

from .counting import HomologyInvariantError, basis_dim, dim_generators


def factor_key(gen):
    alpha, beta = gen
    return (len(alpha), sum(beta), alpha, beta)


def format_factor(gen):
    alpha, beta = gen
    return "x[%s] d[%s]" % (",".join(map(str, beta)), ",".join(map(str, alpha)))


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


# --- basis enumeration ------------------------------------------------------


@lru_cache(maxsize=None)
def generators_of_bidegree(n, i, j):
    """All generators of g-bidegree (i, j), sorted canonically.

    |alpha| = i+1 directions out of n, |beta| = j+1.  Inside one bidegree
    the factor order is lexicographic on (alpha, beta), the order in which
    combinations lists alpha and _compositions lists beta, so nothing is
    sorted.
    """
    if not (0 <= i <= n - 1) or j < -1:
        return ()
    return tuple(product(combinations(range(1, n + 1), i + 1), _compositions(j + 1, n)))


def _compositions(total, parts):
    """All tuples of `parts` non-negative integers summing to `total`, in
    lexicographic order: stars and bars, the parts - 1 cut points chosen
    as a non-decreasing tuple in 0..total, whose lexicographic order is
    that of the partial sums."""
    for cuts in combinations_with_replacement(range(total + 1), parts - 1):
        yield tuple(map(sub, cuts + (total,), (0,) + cuts))


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
    of rank r, parity[r] its g-degree mod 2, classes[(i, j)] the range of
    ranks of bidegree (i, j) and bidegree[r] the (i, j) of rank r (built on
    first use).  An int word is the tuple of the ranks of its factors; int
    words sort as their generator words do.  The ranks of class (0, -1) are
    those of d_1, ..., d_n, in this order.

    Each generator x^beta d_alpha also has one int key, keys[r], and ranks
    maps each key back to its rank.  With E = h + n + w + 1, the largest
    |beta| and so the largest exponent, and base B = 2E + 1, the key is

        id(alpha) * span + sum_l beta_l * places[l - 1],

    where id(alpha) = sum_{l in alpha} 2^(l - 1), places[l - 1] = B^(n - l)
    and span = B^n: beta's exponents are the base-B digits of the exponent
    code, below the direction set's id.  The code of each exponent vector
    is computed once per alphabet.  Adding the keys of two generators adds
    their exponents digit by digit with no carry, as each digit of the sum
    is at most 2E < B, so a bracket term, whose exponents are that sum less
    1 in one digit l, has the key k_a + k_b + offset for an offset that
    depends only on the two direction sets and l; and subtracting the 1
    borrows nothing, since the term's coefficient is 0 unless digit l of
    the sum is at least 1.  Every digit of such an int lies in 0..B - 1,
    so it is a key of the alphabet exactly when the term's generator is one
    of the alphabet's.  rank_of serves the lookups by generator.

    brackets is the bracket table, filled lazily by _word_boundary below:
    brackets[a * len(gens) + b] is [gens[a], gens[b]] as (rank, int) pairs,
    as _bracket computes it.  templates holds what _bracket evaluates:
    templates[(id_a << n) | id_b] is _key_terms of the direction sets with
    ids id_a and id_b, so it has at most one entry per pair of direction
    sets (4^n).  shifts is the table of x_l times a generator, filled lazily
    by the certificate module: shifts[r][l - 1] is the rank of x_l gens[r],
    or None when that generator lies outside the alphabet.
    """

    __slots__ = ("n", "gens", "keys", "ranks", "parity", "classes", "base", "places", "span",
                 "brackets", "templates", "shifts", "_bidegree", "_block")

    def __init__(self, n, w, h):
        self.n = n
        self._block = (n, w, h)
        base = self.base = 2 * (h + n + w + 1) + 1
        places = self.places = tuple(base ** (n - l) for l in range(1, n + 1))
        span = self.span = base ** n
        gens = []
        keys = []
        parity = []
        self.classes = {}
        codes = _codes(places, h + n + w + 1)
        for i in range(min(n - 1, w) + 1):
            ids = [_direction_id(alpha) * span for alpha in combinations(range(1, n + 1), i + 1)]
            for j in range(-1, h + n + w + 1):
                lo = len(gens)
                gens.extend(generators_of_bidegree(n, i, j))
                parity.extend([i & 1] * (len(gens) - lo))
                self.classes[(i, j)] = range(lo, len(gens))
                # generators_of_bidegree lists alpha by alpha, each with every beta
                keys += [d + c for d in ids for c in codes[j + 1]]
        self.gens = tuple(gens)
        self.keys = keys
        self.ranks = dict(zip(keys, range(len(keys))))
        self.parity = parity
        self.brackets = {}
        self.templates = {}
        self.shifts = {}
        self._bidegree = None

    def rank_of(self, gen):
        """The rank of the generator gen = (alpha, beta), or None when it is
        none of this alphabet's.  The rank found under gen's key is read back
        through gens, so an exponent outside 0..E, whose digit would alias
        another key, finds none."""
        alpha, beta = gen
        r = self.ranks.get(_direction_id(alpha) * self.span + sum(map(mul, beta, self.places)))
        return r if r is not None and self.gens[r] == gen else None

    @property
    def bidegree(self):
        """bidegree[r] is the (i, j) of rank r; built on first use."""
        if self._bidegree is None:
            self._bidegree = [(len(alpha) - 1, sum(beta) - 1) for alpha, beta in self.gens]
        return self._bidegree


def _codes(places, top):
    """codes[t] lists sum_l beta_l * places[l - 1] over the tuples beta of
    len(places) non-negative ints summing to t, for t = 0..top, in the
    lexicographic order of _compositions: the first part ascending, then
    the rest in that order."""
    codes = [[t * places[-1]] for t in range(top + 1)]  # one part: beta = (t,)
    for place in reversed(places[:-1]):
        codes = [[f * place + c for f in range(t + 1) for c in codes[t - f]]
                 for t in range(top + 1)]
    return codes


def _direction_id(alpha):
    """sum_{l in alpha} 2^(l - 1), the id of a direction set in keys."""
    return sum([2 ** (l - 1) for l in alpha])


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
        rank_of = self.alphabet.rank_of
        i = self.index.get(tuple([rank_of(gen) for gen in word]))
        if i is None:
            raise KeyError("word %r lies outside the (m=%d, w=%d, h=%d) block"
                           % (word, self.m, self.w, self.h))
        return i


def enumerate_basis(n, m, w, h):
    """All canonical words of arity m and double weight (w, h) over R^n.

    A word is a multiset of generators with even-g-degree generators distinct
    and odd-g-degree generators free to repeat.  The words are built as int
    words of the block's alphabet and sorted as plain int tuples, which is
    the canonical order.  The result may be empty; an arity without words
    (counting.basis_dim) is returned without a search for them.
    """
    if not basis_dim(n, m, w, h):  # raises ValueError unless n, m >= 1
        return BasisIndex(n, m, w, h, alphabet(n, w, h), [])
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


# --- the bracket of two generators ------------------------------------------


def _merge_directions(a1, a2):
    """Merge two strictly increasing direction tuples.

    Returns (sign, merged) with sign the parity of the permutation that
    sorts a1 + a2, (-1) to the number of pairs x in a1, y in a2 with
    x > y, or None when the tuples intersect.
    """
    if set(a1) & set(a2):
        return None
    inversions = sum(x > y for x in a1 for y in a2)
    return -1 if inversions & 1 else 1, tuple(sorted(a1 + a2))


def _direction_terms(alpha_a, alpha_b):
    """The part of the bracket [x^beta_a d_alpha_a, x^beta_b d_alpha_b]
    that depends only on the directions, as a tuple of (l - 1, s_a, s_b,
    alpha): the term of direction l is

        (s_a beta_a[l] + s_b beta_b[l]) x^(beta_a + beta_b - e_l) d_alpha,

    in the order _bracket_mono lists them.  In odd variables xi_l = d_l the
    monomial x^beta d_alpha is x^beta xi_alpha, and [P, Q] = sum_l
    (P d/dxi_l)(dQ/dx_l) - (dP/dx_l)(d/dxi_l Q), the first xi-derivative
    acting from the right, the second from the left.  So, with p =
    |alpha_a| and the merged directions signed by _merge_directions,
      l = alpha_a[t]: s_b = (-1)^(p-1-t), directions alpha_a - l, alpha_b;
      l = alpha_b[t]: s_a = -(-1)^t, directions alpha_a, alpha_b - l.
    A repeated direction kills a term.  Disjoint directions keep every
    term, each with one of s_a, s_b zero.  When exactly one direction l is
    shared, only its two removals survive, and both leave the union of
    alpha_a and alpha_b, so they are fused into one term.  When two or more
    are shared, no term survives.
    """
    last = len(alpha_a) - 1
    terms = {}  # l -> [s_a, s_b, alpha]
    for t, l in enumerate(alpha_a):
        merged = _merge_directions(alpha_a[:t] + alpha_a[t + 1:], alpha_b)
        if merged is not None:
            sign, alpha = merged
            terms[l] = [0, -sign if (last - t) & 1 else sign, alpha]
    for t, l in enumerate(alpha_b):
        merged = _merge_directions(alpha_a, alpha_b[:t] + alpha_b[t + 1:])
        if merged is not None:
            sign, alpha = merged
            terms.setdefault(l, [0, 0, alpha])[0] = sign if t & 1 else -sign
    return tuple((l - 1, s_a, s_b, alpha) for l, (s_a, s_b, alpha) in terms.items())


def _bracket_mono(n, alpha_a, beta_a, alpha_b, beta_b):
    """Schouten bracket of two unit monomials, as ((alpha, beta), int) pairs
    with nonzero ints: the closed form of _direction_terms evaluated on the
    exponents.  All structure constants are integers; n is unused."""
    beta = [x + y for x, y in zip(beta_a, beta_b)]
    out = []
    for i, s_a, s_b, alpha in _direction_terms(alpha_a, alpha_b):
        c = s_a * beta_a[i] + s_b * beta_b[i]
        if c:
            beta[i] -= 1
            out.append(((alpha, tuple(beta)), c))
            beta[i] += 1
    return tuple(out)


# --- the boundary on int words ----------------------------------------------


class WeightEscapeError(HomologyInvariantError):
    """A boundary term left its (w, h) block; signals a sign/bracket bug."""
    pass


def _key_terms(A, alpha_a, alpha_b):
    """The template of _bracket for the direction sets alpha_a, alpha_b of
    the alphabet A: the terms of _direction_terms as (l - 1, s_a, s_b,
    offset), where the term of direction l of the bracket of generators with
    keys k_a and k_b has the key k_a + k_b + offset (see Alphabet)."""
    ids = _direction_id(alpha_a) + _direction_id(alpha_b)
    return tuple((i, s_a, s_b, (_direction_id(alpha) - ids) * A.span - A.places[i])
                 for i, s_a, s_b, alpha in _direction_terms(alpha_a, alpha_b))


def _template(A, pair, alpha_a, alpha_b):
    """A.templates[pair], pair = (id(alpha_a) << n) | id(alpha_b), built by
    _key_terms on first use: the one fill of what _bracket evaluates and
    torus checks."""
    terms = A.templates.get(pair)
    if terms is None:
        terms = A.templates[pair] = _key_terms(A, alpha_a, alpha_b)
    return terms


def _bracket(A, a, b):
    """[gens[a], gens[b]] of the alphabet A as (rank, int) pairs with nonzero
    ints: the template of their direction sets, kept in A.templates, gives
    each term's coefficient from the exponents and its rank from the keys
    by int arithmetic.  Stores no bracket; _word_boundary enters the result
    in the bracket table.  A term outside the alphabet raises
    WeightEscapeError."""
    keys = A.keys
    k_a, k_b = keys[a], keys[b]
    span = A.span
    pair = (k_a // span) << A.n | k_b // span
    terms = A.templates.get(pair)
    if terms is None:
        terms = _template(A, pair, A.gens[a][0], A.gens[b][0])
    beta_a, beta_b = A.gens[a][1], A.gens[b][1]
    k = k_a + k_b
    ranks = A.ranks
    out = []
    try:
        for i, s_a, s_b, offset in terms:
            c = s_a * beta_a[i] + s_b * beta_b[i]
            if c:
                out.append((ranks[k + offset], c))
    except KeyError:  # a bracket term outside the alphabet
        raise WeightEscapeError("bracket [%s, %s] left the alphabet of block (n=%d, w=%d, h=%d)"
                                % ((format_factor(A.gens[a]), format_factor(A.gens[b]))
                                   + A._block)) from None
    return tuple(out)


def _word_boundary(A, word):
    """d(word) for an int word of the alphabet A, by the pairwise formula,
    as {int word: int}; coefficients that cancel stay as 0.  Each bracket
    is read from the alphabet's bracket table (filled on first use) and
    put in place by place_factor; nothing is memoized per word."""
    parity = A.parity
    table = A.brackets
    size = len(A.gens)
    terms = {}
    m = len(word)
    for k in range(m - 1):
        a = word[k]
        odd_a = parity[a]
        row = a * size
        sign_k = -1 if k & 1 else 1
        between = 0  # sum of the g-degrees strictly between k and i, mod 2
        for i in range(k + 1, m):
            b = word[i]
            br = table.get(row + b)
            if br is None:
                br = table[row + b] = _bracket(A, a, b)
            if br:
                s = -sign_k if odd_a and between else sign_k
                rest = word[:k] + word[k + 1:i] + word[i + 1:]
                for r, c in br:
                    t, out = place_factor(rest, i - 1, r, parity)
                    if t:
                        terms[out] = terms.get(out, 0) + s * t * c
            between ^= parity[b]
    return terms


def boundary_columns(A, codes, fold, m, w, h):
    """The columns of d on the int words `codes` of the (m, w, h) block:
    one {row: nonzero int} per word, in order.  fold maps each word of the
    codomain to its row r, to ~r when it enters row r with sign -1, or to
    None when it enters no row; a BasisIndex.index is such a map, and so is
    torus.Orbits.fold, whose rows are orbit sums.  The entries that d(word)
    gives the words of one row are summed, each times its sign, and zeros
    are dropped.  A term that is no key of fold, or whose bracket is ranked
    beyond the alphabet A, raises WeightEscapeError."""
    for word in codes:
        column = {}
        try:
            for out, c in _word_boundary(A, word).items():
                if c:
                    r = fold[out]
                    if r is not None:
                        if r < 0:
                            r, c = ~r, -c
                        column[r] = column.get(r, 0) + c
        except (IndexError, KeyError):  # ranked beyond the alphabet, or no word of fold
            raise WeightEscapeError("boundary of %r left block (m=%d, w=%d, h=%d)"
                                    % (tuple(A.gens[f] for f in word), m, w, h)) from None
        yield {r: c for r, c in column.items() if c} if 0 in column.values() else column
