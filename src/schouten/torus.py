"""Torus weights: the weight-0 words of a block, and the Euler-field
brackets that make every other weight acyclic.

The generator x^beta d_alpha has torus weight v = beta - 1_alpha in Z^n.
The bracket adds weights, so the boundary keeps the weight of a word (the
sum over its factors), and on a word of the (w, h) block the entries of v
sum to h - w.  The Euler field E_l = x_l d_l, of class (0, 0) and so in
every block's alphabet, scales each generator by its weight: [E_l, g] =
v_l(g) g.  homology.betti eliminates only the weight-0 words, arity by
arity from C_1 to C_{m+1}, and takes the ranks of the other weights from
counts, which rest on that identity.  enumerate_weight_zero builds those
words with each weight held as one int (see there), so that summing
weights and testing a sum for 0 are int operations.

unrank_words builds the words of a block at given positions without
building the block, for `verify homotopy`, which checks Cartan's formula
for the Euler fields on a seeded sample of words.

Only betti and verify homotopy load this module, so `dims` and `euler` do
not compile it.
"""

from itertools import combinations, combinations_with_replacement
import math

from .words import BasisIndex, _bracket, _class_multisets, alphabet


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
