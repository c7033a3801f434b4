"""Torus weights and coordinate permutations: the weight-0 words of a
block, the S_n orbits of those words, on whose sums homology.betti works,
and the check of the bracket templates that both reductions rest on.

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
orbits, dropping those whose sum is 0, and its fold map is what
words.boundary_columns folds the columns of d on the orbit sums through,
one word boundary per orbit.  template_failure proves, on the bracket
templates, the Euler identity and that d commutes with those tables.

Only betti loads this module, so `dims`, `euler` and `verify` do not
compile it.
"""

from itertools import combinations, combinations_with_replacement, permutations
from operator import mul

from .counting import HomologyInvariantError, basis_dim
from .words import (BasisIndex, _class_multisets, _direction_id, _template, alphabet,
                    place_factor)


def enumerate_weight_zero(n, m, w, h):
    """The words of torus weight 0 of the block (n; m, w, h), in the
    canonical order: those of words.enumerate_basis(n, m, w, h), without
    building any other.

    A w != h block has none, nor has an arity without words
    (counting.basis_dim).  Otherwise each class multiset of the block is
    expanded class by class: the picks of a class are grouped by summed
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
    if not basis_dim(n, m, w, h) or w != h:  # basis_dim raises ValueError unless n, m >= 1
        return BasisIndex(n, m, w, h, alphabet(n, w, h), [])
    A = alphabet(n, w, h)
    codes = []
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
                    if r not in weight:  # the torus weight beta - 1_alpha
                        alpha, beta = A.gens[r]
                        weight[r] = sum([(b - (l in alpha)) * places[l - 1]
                                         for l, b in enumerate(beta, start=1)])
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
    the identity, the permutation, the image of every direction id as
    (id(alpha') * span, sign) and the place of each exponent of beta;
    template_failure checks d against these same tables.  of(r) is
    the image of gens[r] under each permutation, as (rank, sign) pairs in
    the order of perms, kept in images once built.  Both are built on
    first use, so only ranks that occur in a classified word are ever
    relabeled, and a block without weight-0 words builds nothing.
    """

    __slots__ = ("alphabet", "perms", "images")

    def __init__(self, n, w, h):
        self.alphabet = alphabet(n, w, h)
        self.perms = None
        self.images = {}

    def tables(self):
        """perms, built on first use."""
        if self.perms is None:
            self.perms = _permutation_tables(self.alphabet)
        return self.perms

    def of(self, r):
        out = self.images.get(r)
        if out is None:
            A = self.alphabet
            d = A.keys[r] // A.span
            beta = A.gens[r][1]
            ranks = A.ranks
            out = []
            for _, directions, places in self.tables():
                head, sign = directions[d]
                out.append((ranks[head + sum(map(mul, beta, places))], sign))
            out = self.images[r] = tuple(out)
        return out


def _permutation_tables(A):
    """Relabeling.perms for the alphabet A: per permutation p of S_n but
    the identity, p[l - 1] = sigma(l) - 1, as (p, the image of each
    direction id as (id(alpha') * span, sign), the place of each
    exponent)."""
    n = A.n
    tables = []
    for p in list(permutations(range(n)))[1:]:
        directions = []
        for d in range(1 << n):
            image = [p[l] for l in range(n) if d >> l & 1]
            inversions = sum(x > y for x, y in combinations(image, 2))
            directions.append((sum(1 << l for l in image) * A.span, -1 if inversions & 1 else 1))
        tables.append((p, directions, [A.places[p[l]] for l in range(n)]))
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


def template_failure(relabeling, w, h):
    """The first fault, as text, of the bracket templates of the block (n,
    w, h), or None when betti may rest on them.  The templates are those
    of words._template, which _bracket evaluates; the one of each pair of
    the alphabet's direction sets is read once, and two identities are
    proven on what is read: the Euler-field identity on every block, and,
    on a w = h block, whose weight-0 words are folded into orbits, that d
    commutes with every table of relabeling.

    A term (i, s_a, s_b, offset) of the pair (a, b) of direction ids has
    the coefficient s_a beta_a[i] + s_b beta_b[i] and the key k_a + k_b +
    offset, offset = (id(alpha) - a - b) * span - places[i]: exponent i
    lowered, directions alpha.  Each term is read back as (s_a, s_b,
    id(alpha), r), with r the remainder of offset + places[i] modulo span,
    0 for a term of that form; an id outside 0..2^n - 1 names no direction
    set, and such a term is refused as leaving the alphabet.  The terms of
    one exponent are kept together, so a template with two terms of one
    exponent is read whole.

    The Euler field E_l = x_l d_l has directions {l} and exponents e_l.
    For g = x^beta d_alpha, [E_l, g] comes from the template ({l}, alpha):
    a term of exponent i has the coefficient s_a [i = l - 1] + s_b
    beta[i].  Let its exponent l - 1 hold the one term (-[l in alpha], 1,
    id(alpha), 0) and every other term have s_b = 0.  Then the first has
    the coefficient beta_l - [l in alpha] = v_l(g) and the key offset
    -key(E_l), so it is v_l(g) g, and every other term is 0: [E_l, g] =
    v_l(g) g for every exponent vector beta.  Likewise [g, E_l] = -v_l(g) g
    when the template (alpha, {l}) holds (-1, [l in alpha], id(alpha), 0)
    at exponent l - 1 and s_a = 0 on every other term.  Both shapes are
    checked for each l and each direction set of the alphabet, so the
    identity holds for every generator; an alphabet without the Euler
    fields (h + n + w < 0) belongs to a block with no word at all, which
    needs no check.

    A table takes x^beta d_alpha to eps(alpha) x^beta' d_alpha', eps(alpha)
    and the id of alpha' read from its direction entry and exponent i put
    at the place of its places entry, so [T g_a, T g_b] = T [g_a, g_b] for
    all exponents exactly when the terms of (T a, T b) are those of (a, b)
    with i and the directions moved by T and both signs times eps(alpha_a)
    eps(alpha_b) eps(alpha); d, the sum of brackets of factors put in place
    by words.place_factor, then commutes with T.  A table T_p that is the
    product T_q T_s of the checked tables of q = p s and of the swap s of t
    and t + 1, t the first descent of p, commutes with d as they do; every
    other table, the n - 1 swaps among them, has its templates checked.  q
    and s precede p in the lexicographic order of the tables, so correct
    tables cost one template check per swap.
    """
    A = relabeling.alphabet
    n = A.n
    if (0, 0) not in A.classes:
        return None
    sets = {_direction_id(alpha): alpha
            for k in range(1, min(n, w + 1) + 1) for alpha in combinations(range(1, n + 1), k)}
    terms = {}  # (a, b) -> {i: [(s_a, s_b, id(alpha), r), ...]}
    for a in sets:
        for b in sets:
            terms[(a, b)] = out = {}
            for i, s_a, s_b, offset in _template(A, a << n | b, sets[a], sets[b]):
                q, r = divmod(offset + A.places[i], A.span)
                if not 0 <= a + b + q < 1 << n:  # no direction set has that id
                    return ("a term of the bracket template of directions %r and %r left "
                            "the alphabet of block" % (sets[a], sets[b]))
                out.setdefault(i, []).append((s_a, s_b, a + b + q, r))
    for l in range(1, n + 1):
        e = 1 << l - 1
        for b in sets:
            inside = b >> l - 1 & 1
            # (side, template, signs of its term of exponent l - 1, sign 0 elsewhere)
            for side, out, signs, zero in (("[x_%d d_%d, g]", terms[(e, b)], (-inside, 1), 1),
                                           ("[g, x_%d d_%d]", terms[(b, e)], (-1, inside), 0)):
                if out.get(l - 1) != [signs + (b, 0)] or any(
                        t[zero] for i, ts in out.items() if i != l - 1 for t in ts):
                    return ("the Euler field x_%d d_%d does not scale the generators g of "
                            "directions %r by their weight in " + side) % (l, l, sets[b], l, l)
    if w != h:
        return None
    index = {place: i for i, place in enumerate(A.places)}
    checked = {}  # p -> (directions, the index of each exponent's place), once d commutes
    for p, directions, places in relabeling.tables():
        at = [index.get(place) for place in places]
        t = next(t for t in range(n - 1) if p[t] > p[t + 1])
        q = p[:t] + (p[t + 1], p[t]) + p[t + 2:]
        s = tuple(range(t)) + (t + 1, t) + tuple(range(t + 2, n))
        if q in checked and s in checked:
            (q_dirs, q_at), (s_dirs, s_at) = checked[q], checked[s]
            product = {}  # T_q T_s on the block's direction sets, which T_s keeps
            for d in sets:
                head, sign = s_dirs[d]
                head, eps = q_dirs[head // A.span]
                product[d] = (head, sign * eps)
            if all(directions[d] == product[d] for d in sets) and [q_at[k] for k in s_at] == at:
                checked[p] = (directions, at)
                continue
        moved = [(head // A.span, sign) for head, sign in directions]
        for (a, b), out in terms.items():
            (a2, eps_a), (b2, eps_b) = moved[a], moved[b]
            image = {}
            for i, ts in out.items():
                for s_a, s_b, c, r in ts:
                    c2, eps = moved[c]
                    e = eps_a * eps_b * eps
                    image.setdefault(at[i], []).append((e * s_a, e * s_b, c2, r))
            if image != terms.get((a2, b2)):
                return ("the bracket template of directions %r and %r does not commute with "
                        "the coordinate permutation %r" % (sets[a], sets[b],
                                                           tuple(x + 1 for x in p)))
        # exponent i moves in the template of ({i + 1}, {i + 1}), so `at`
        # holds no None now
        checked[p] = (directions, at)
    return None
