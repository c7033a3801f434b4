"""Torus weights and coordinate permutations: the weight-0 words of a
block, the Euler-field brackets that make every other weight acyclic, and
the S_n orbits of the weight-0 words, on whose sums homology.betti works.

The generator x^beta d_alpha has torus weight v = beta - 1_alpha in Z^n.
The bracket adds weights, so the boundary keeps the weight of a word (the
sum over its factors), and on a word of the (w, h) block the entries of v
sum to h - w.  The Euler field E_l = x_l d_l, of class (0, 0) and so in
every block's alphabet, scales each generator by its weight: [E_l, g] =
v_l(g) g.  homology.betti eliminates only on weight 0, arity by
arity from C_1 to C_{m+1}, and takes the ranks of the other weights from
counts, which rest on that identity.  enumerate_weight_zero builds those
words with each weight held as one int (see there), so that summing
weights and testing a sum for 0 are int operations.

The coordinate permutations sigma in S_n act on every block and keep
weight 0.  Relabeling is their table on the ranks of an alphabet, built
lazily; weight_zero_orbits classifies the weight-0 words of one arity into
orbits, dropping those whose sum is 0; orbit_columns yields the columns of
d on the orbit sums, one word boundary per orbit; equivariance_failure
checks the bracket templates on which d's commuting with S_n rests.

unrank_words builds the words of a block at given positions without
building the block, for `verify homotopy`, which checks Cartan's formula
for the Euler fields on a seeded sample of words.

Only betti and verify homotopy load this module, so `dims` and `euler` do
not compile it.
"""

from itertools import combinations, combinations_with_replacement, permutations
import math
from operator import mul

from .counting import HomologyInvariantError
from .words import (BasisIndex, WeightEscapeError, _bracket, _class_multisets, _direction_id,
                    _key_terms, _word_boundary, alphabet, place_factor)


def torus_weight(gen):
    """The torus weight beta - 1_alpha in Z^n of the generator x^beta
    d_alpha."""
    alpha, beta = gen
    return tuple(b - (l in alpha) for l, b in enumerate(beta, start=1))


def enumerate_weight_zero(n, m, w, h):
    """The words of torus weight 0 of the block (n; m, w, h), in the
    canonical order: those of words.enumerate_basis(n, m, w, h), without
    building any other.

    A w != h block has none.  Otherwise each class multiset of the block
    is expanded class by class: the picks of a class are grouped by summed
    weight, the sums that the classes after it reach are collected first,
    and a group is taken only when those can bring the running sum back to
    0, so every partial word that is built ends in a weight-0 word.  The
    picks of one class and count are grouped once per call and shared by
    every class multiset that holds them.

    A weight v is held as one int, sum_l v_l K^(l-1) with K = 2m(h + n +
    w + 2) + 1, in balanced base K.  An entry beta_l - [l in alpha] of the
    weight of a generator lies in -1..h + n + w + 1, since the alphabet's
    generators have |beta| <= h + n + w + 1, so every sum of at most m
    weights, the only sums the expansion forms, has entries of absolute
    value at most m(h + n + w + 1) < K/2.  Such an int has the entries as
    its digits: adding the ints adds the weights exactly, and a sum is 0
    exactly when its int is 0.
    """
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    A = alphabet(n, w, h)
    codes = []
    if w == h:
        places = [(2 * m * (h + n + w + 2) + 1) ** l for l in range(n)]
        # groups[((i, j), count)]: the picks of `count` generators of class
        # (i, j), distinct for even i, as {summed weight: [int tuple]}
        groups = {}
        weight = {}  # rank -> the weight of its generator, as an int
        for classes in _class_multisets(n, m, w, h, (0, -1)):
            expansion = []
            for (i, j), count in classes:
                g = groups.get(((i, j), count))
                if g is None:
                    ranks = A.classes[(i, j)]
                    for r in ranks:
                        if r not in weight:
                            weight[r] = sum(map(int.__mul__, torus_weight(A.gens[r]), places))
                    g = groups[((i, j), count)] = {}
                    picks = (combinations(ranks, count) if i % 2 == 0
                             else combinations_with_replacement(ranks, count))
                    for pick in picks:
                        g.setdefault(sum(map(weight.__getitem__, pick)), []).append(pick)
                expansion.append(g)
            # reach[k]: the sums of the picks of classes k, k + 1, ...
            reach = [{0}]
            for g in reversed(expansion):
                reach.append({u + v for u in g for v in reach[-1]})
            reach.reverse()
            if 0 not in reach[0]:
                continue
            last = len(expansion) - 1

            def expand(k, prefix, need):
                # need: the sum that the picks of classes k, k + 1, ... must make
                if k == last:
                    for pick in expansion[k].get(need, ()):
                        codes.append(prefix + pick)
                    return
                ahead = reach[k + 1]
                for v, picks in expansion[k].items():
                    rest = need - v
                    if rest in ahead:
                        for pick in picks:
                            expand(k + 1, prefix + pick, rest)

            expand(0, (), 0)
    codes.sort()
    return BasisIndex(n, m, w, h, A, codes)


def euler_bracket_failure(n, m, w, h):
    """The first (l, g, v_l(g)) for which [E_l, g] = v_l(g) g or [g, E_l] =
    -v_l(g) g fails, or None when both hold for l = 1..n and every
    generator g that a word of C_1..C_{m+1} of the block (n; m, w, h) can
    hold: those of class (i, j) with j <= h + m, as each of the other
    factors of such a word has j >= -1.

    Both brackets come from words._bracket, the code that fills the
    alphabet's bracket table, and are not stored.  An alphabet without the
    Euler fields (h + n + w < 0) belongs to a block with no word at all,
    which needs no check.
    """
    A = alphabet(n, w, h)
    if (0, 0) not in A.classes:
        return None
    ranks = [r for (_, j), rs in A.classes.items() if j <= h + m for r in rs]
    weights = [torus_weight(A.gens[r]) for r in ranks]
    for l in range(1, n + 1):
        e = A.rank_of(((l,), tuple(int(k == l) for k in range(1, n + 1))))
        for r, weight in zip(ranks, weights):
            v = weight[l - 1]
            scaled, negated = (((r, v),), ((r, -v),)) if v else ((), ())
            if _bracket(A, e, r) != scaled or _bracket(A, r, e) != negated:
                return l, A.gens[r], v
    return None


class Relabeling:
    """The coordinate permutations of S_n on the ranks of the alphabet of
    the block (n, w, h).

    A permutation sigma renames x_l to x_sigma(l) and d_l to d_sigma(l), so
    it takes the generator x^beta d_alpha to sign * x^beta' d_alpha', with
    alpha' the sorted image of alpha, sign the parity of that sort (the d_l
    anticommute) and beta'_sigma(l) = beta_l.  It keeps |alpha| and |beta|,
    so the image is a generator of the same class, and it permutes the
    entries of the torus weight, so it keeps weight 0.  The key of the
    image (see words.Alphabet) is id(alpha') * span plus beta's exponents
    at the places of their images.  perms holds, for each permutation but
    the identity, the image of every direction id as (id(alpha') * span,
    sign) and the place of each exponent of beta.  of(r) is the image of
    gens[r] under each permutation, as (rank, sign) pairs in the order of
    perms, kept in images once built.  Both are built on first use, so
    only ranks that occur in a classified word are ever relabeled, and a
    block without weight-0 words builds nothing.
    """

    __slots__ = ("alphabet", "perms", "images")

    def __init__(self, n, w, h):
        self.alphabet = alphabet(n, w, h)
        self.perms = None
        self.images = {}

    def of(self, r):
        out = self.images.get(r)
        if out is None:
            A = self.alphabet
            if self.perms is None:
                self.perms = _permutation_tables(A)
            d = A.keys[r] // A.span
            beta = A.gens[r][1]
            ranks = A.ranks
            out = []
            for directions, places in self.perms:
                head, sign = directions[d]
                out.append((ranks[head + sum(map(mul, beta, places))], sign))
            out = self.images[r] = tuple(out)
        return out


def _permutation_tables(A):
    """Relabeling.perms for the alphabet A: per permutation p of S_n but
    the identity, p[l - 1] = sigma(l) - 1, the image of each direction id
    as (id(alpha') * span, sign) and the place of each exponent."""
    n = A.n
    tables = []
    for p in list(permutations(range(n)))[1:]:
        directions = []
        for d in range(1 << n):
            image = [p[l] for l in range(n) if d >> l & 1]
            inversions = sum(x > y for x, y in combinations(image, 2))
            directions.append((sum(1 << l for l in image) * A.span, -1 if inversions & 1 else 1))
        tables.append((directions, [A.places[p[l]] for l in range(n)]))
    return tables


class Orbits:
    """The S_n orbits of the weight-0 words of one arity: size is the
    number of weight-0 words, reps the representatives of the orbits that
    are kept, one per row, and fold maps each weight-0 word u to row i when
    u has coefficient 1 in the orbit sum of reps[i], to ~i when it has -1,
    and to None when its orbit is dropped."""

    __slots__ = ("size", "reps", "fold")

    def __init__(self, size, reps, fold):
        self.size = size
        self.reps = reps
        self.fold = fold


def weight_zero_orbits(n, m, w, h, relabeling):
    """The S_n orbits of the weight-0 words of the block (n; m, w, h),
    with relabeling the Relabeling of its alphabet, as Orbits.

    The words are taken in their canonical order, and each that no orbit
    holds yet starts one, so each representative is the least int word of
    its orbit.  Its image under each permutation relabels every factor
    (Relabeling.of) and sorts them through words.place_factor, which signs
    the sort.  The orbit sum is sum_sigma sigma(rep), up to a factor: each
    word of the orbit enters it once, with the sign of its image, unless
    two permutations reach one word with opposite signs.  Then the
    stabilizer of the representative acts by -1 on it, the orbit sum is 0,
    and the orbit is dropped.  Every image must be a weight-0 word of the
    block; HomologyInvariantError otherwise.
    """
    basis = enumerate_weight_zero(n, m, w, h)
    parity = basis.alphabet.parity
    images = relabeling.images
    reps = []
    fold = {}
    for word in basis.codes:
        if word in fold:
            continue
        try:
            factors = [images[r] for r in word]
        except KeyError:
            factors = [relabeling.of(r) for r in word]
        orbit = {word: 1}
        kept = True
        for relabeled in zip(*factors):
            r, sign = relabeled[0]
            image = (r,)
            for i in range(1, len(word)):
                r, s = relabeled[i]
                t, image = place_factor(image, i, r, parity)
                sign *= s * t
            if orbit.setdefault(image, sign) != sign:
                kept = False
        if kept:
            row = len(reps)
            reps.append(word)
            for u, s in orbit.items():
                fold[u] = row if s > 0 else ~row
        else:
            fold.update(dict.fromkeys(orbit))
    if len(fold) != len(basis.codes):
        raise HomologyInvariantError(
            "coordinate permutations take weight-0 words of block (n=%d, m=%d, w=%d, h=%d) "
            "outside its weight-0 words" % (n, m, w, h))
    return Orbits(len(basis.codes), reps, fold)


def orbit_columns(A, reps, fold, m, w, h):
    """The columns of d on the orbit representatives `reps` of C_m of the
    (m, w, h) block, folded into the orbit coordinates `fold` of C_{m-1}
    (see Orbits): one {row: nonzero int} per representative, in order.
    Entry i sums the coefficients that d(rep) gives the words of orbit i,
    each times its sign in the orbit sum; terms on dropped orbits are
    skipped.  This is the matrix of d in the basis of averages R(rep) =
    (1/n!) sum_sigma sigma(rep): d commutes with R, so d R(rep) =
    R(d(rep)), and R(u) is R(reps[i]) times the sign of u in the sum of
    orbit i, or 0 on a dropped orbit.  A term that is no weight-0 word, or
    whose bracket is ranked beyond the alphabet A, raises
    WeightEscapeError."""
    for word in reps:
        column = {}
        try:
            for out, c in _word_boundary(A, word).items():
                if c:
                    r = fold[out]
                    if r is not None:
                        if r < 0:
                            r, c = ~r, -c
                        column[r] = column.get(r, 0) + c
        except (IndexError, KeyError):  # ranked beyond the alphabet, or no weight-0 word
            raise WeightEscapeError("boundary of %r left block (m=%d, w=%d, h=%d)"
                                    % (tuple(A.gens[f] for f in word), m, w, h)) from None
        yield {r: c for r, c in column.items() if c}


def equivariance_failure(n, w, h):
    """The first (t, alpha_a, alpha_b) for which the bracket template of
    the direction sets alpha_a and alpha_b does not go over into that of
    their images under the swap tau of x_t and x_{t+1}, or None when every
    template of the block (n; w, h) that a weight-0 word can use does, for
    t = 1..n-1.  A w != h block has no weight-0 word and needs no check.

    The templates are words._key_terms, kept in the alphabet's templates,
    which _bracket evaluates.  A term (i, s_a, s_b, offset) of the pair
    (a, b) of direction ids has the coefficient s_a beta_a[i] + s_b
    beta_b[i] and the key k_a + k_b + offset, offset = (id(alpha) - a - b)
    * span - places[i]: exponent i lowered, directions alpha.  Each term is
    read back as (s_a, s_b, id(alpha), r), with r the remainder of offset +
    places[i] modulo span, 0 for a term of that form.  tau takes x^beta
    d_alpha to eps(alpha) x^(tau beta) d_(tau alpha), with eps(alpha) = -1
    exactly when alpha holds t and t + 1, so [tau g_a, tau g_b] = tau [g_a,
    g_b] for all exponents exactly when the terms of (tau a, tau b) are
    those of (a, b) with i and the directions moved by tau and both signs
    times eps(alpha_a) eps(alpha_b) eps(alpha).  The adjacent swaps
    generate S_n, and d is the sum of brackets of factors put in place by
    words.place_factor, so then d commutes with every coordinate
    permutation.
    """
    A = alphabet(n, w, h)
    if w != h or (0, 0) not in A.classes:
        return None
    sets = {_direction_id(alpha): alpha
            for k in range(1, min(n, w + 1) + 1) for alpha in combinations(range(1, n + 1), k)}
    terms = {}  # (a, b) -> {i: (s_a, s_b, id(alpha), r)}
    for a in sets:
        for b in sets:
            template = A.templates.get(a << n | b)
            if template is None:
                template = A.templates[a << n | b] = _key_terms(A, sets[a], sets[b])
            terms[(a, b)] = out = {}
            for i, s_a, s_b, offset in template:
                q, r = divmod(offset + A.places[i], A.span)
                out[i] = (s_a, s_b, a + b + q, r)
    for t in range(1, n):
        both = 3 << (t - 1)  # the bits of t and t + 1 in a direction id
        for (a, b), out in terms.items():
            eps = -1 if (a & both == both) != (b & both == both) else 1
            image = {}
            for i, (s_a, s_b, c, r) in out.items():
                e = -eps if c & both == both else eps
                image[{t - 1: t, t: t - 1}.get(i, i)] = (e * s_a, e * s_b, _swapped(c, both), r)
            if image != terms[(_swapped(a, both), _swapped(b, both))]:
                return t, sets[a], sets[b]
    return None


def _swapped(x, both):
    """The direction id x with its two bits in `both` exchanged."""
    return x ^ both if x & both and x & both != both else x


def unrank_words(n, m, w, h, positions):
    """The words of C_m^{(w,h)} over R^n at the increasing `positions`, as
    generator tuples, without building the block.

    Positions count the words in the order enumerate_basis builds them
    before its sort: class multiset by class multiset, and inside one the
    picks of each class in lexicographic order, the last class fastest.  A
    class of d generators taken k times holds comb(d, k) picks for even i
    and comb(d + k - 1, k) for odd i, so a position is split over the
    classes in mixed radix and each pick is unranked on its own.
    """
    A = alphabet(n, w, h)
    positions = iter(positions)
    pos = next(positions, None)
    start = 0
    for multiset in _class_multisets(n, m, w, h, (0, -1)):
        if pos is None:
            return
        # (ranks, 1 if odd, d, k, comb(d, k)): the k-multisets of an odd
        # class are its k-subsets of d = len(ranks) + k - 1, each slot t
        # less t
        parts = []
        for (i, j), k in multiset:
            ranks = A.classes[(i, j)]
            odd = i % 2
            d = len(ranks) + odd * (k - 1)
            parts.append((ranks, odd, d, k, math.comb(d, k)))
        end = start + math.prod(part[4] for part in parts)
        while pos is not None and pos < end:
            q = pos - start
            picks = []
            for ranks, odd, d, k, size in reversed(parts):
                q, r = divmod(q, size)
                picks.append([ranks[x - odd * t]
                              for t, x in enumerate(_unrank_combination(d, k, r))])
            yield tuple(A.gens[x] for pick in reversed(picks) for x in pick)
            pos = next(positions, None)
        start = end


def _unrank_combination(d, k, q):
    """The q-th k-subset of range(d) in lexicographic order, ascending.
    The subsets whose least element is x number comb(d - x - 1, k - 1)."""
    out = []
    x = 0
    for left in range(k, 0, -1):
        while q >= math.comb(d - x - 1, left - 1):
            q -= math.comb(d - x - 1, left - 1)
            x += 1
        out.append(x)
        x += 1
    return out
