"""Block dimensions counted without building a word.

dim C_m of every weight block comes from the block's Hilbert series
(block_dims), so `dims` and `euler` need no word, no matrix and no rational
arithmetic: this module imports only math and functools, and is all of the
package that those two commands load besides the command line itself.  The
names here are re-exported by chains (the counts) and by homology (the
tables, the Euler characteristic and HomologyInvariantError).
"""

from functools import lru_cache
import math


class HomologyInvariantError(RuntimeError):
    """A count or identity that theory pins down came out otherwise (a
    negative Betti number, a nonempty block beyond max_arity, d_{k-1} . d_k
    != 0); signals a rank, counting or boundary bug."""
    pass


def dim_generators(n, i, j):
    if not (0 <= i <= n - 1) or j < -1:
        return 0
    return math.comb(n, i + 1) * math.comb(j + 1 + n - 1, n - 1)


@lru_cache(maxsize=16)
def block_dims(n, w, h):
    """(dim C_0, dim C_1, ..., dim C_top) of the weight block (n, w, h),
    counted without building a word; top is the last nonzero term, or 0.

    The chain space is the free super-commutative algebra on the generators
    x^beta d_alpha, so its weight-graded Hilbert series is the product over
    bidegree classes (i, j) of (1 + t u^i v^j)^d for even i and
    (1 - t u^i v^j)^{-d} for odd i, with d = dim_generators(n, i, j) (Fuks,
    Cohomology of Infinite-Dimensional Lie Algebras, 1986); this returns the
    t-coefficients of its u^w v^h term.  C_0 is the scalars: 1 in the (0, 0)
    block, 0 elsewhere.

    The product runs over the classes of the block's Alphabet, j = -1 first,
    as a table (u, v) -> coefficients in t.  After the j = -1 classes every
    factor raises v, and every factor with i >= 1 raises u, so terms with
    u > w, or with v > h once j >= 0, are cut, and each odd-i series is cut
    at finitely many terms.
    """
    series = {(0, 0): [1]}
    for j in range(-1, h + n + w + 1):
        for i in range(min(n - 1, w) + 1):
            d = dim_generators(n, i, j)
            odd = i % 2
            out = {}
            for (u, v), poly in series.items():
                k = 0
                while u + k * i <= w and (j < 0 or v + k * j <= h) and (odd or k <= d):
                    c = math.comb(d + k - 1, k) if odd else math.comb(d, k)
                    key = (u + k * i, v + k * j)
                    acc = out.get(key)
                    if acc is None:
                        acc = out[key] = []
                    if len(acc) < len(poly) + k:
                        acc.extend([0] * (len(poly) + k - len(acc)))
                    for m, x in enumerate(poly, start=k):
                        acc[m] += c * x
                    k += 1
            series = out
    dims = series.get((w, h), [0])
    while len(dims) > 1 and not dims[-1]:
        dims.pop()
    return tuple(dims)


def basis_dim(n, m, w, h):
    """dim C_m^{(w,h)} over R^n, read from block_dims; equals
    len(enumerate_basis(n, m, w, h))."""
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    dims = block_dims(n, w, h)
    return dims[m] if m < len(dims) else 0


def max_arity_bound(n, w, h):
    """Hard upper bound on the arity of a nonzero (w, h) word.

    Factors split by bidegree class: (0,-1) constant fields (<= n distinct),
    (0,0) linear fields (<= n^2 distinct), i >= 1 (each eats >= 1 of w),
    (0, j>=1) (each eats >= 1 of the h-budget h + #(j=-1 factors)).
    """
    return n + n * n + w + max(0, h + n + w)


def max_arity(n, w, h):
    """Largest m <= max_arity_bound with a nonempty basis (0 if the whole
    block is trivial)."""
    dims = block_dims(n, w, h)[1:max_arity_bound(n, w, h) + 1]
    return max((m for m, d in enumerate(dims, start=1) if d), default=0)


def dims_table(n, w, h):
    """dim C_m^{(w,h)} for m = 1..max_arity, read from the block's Hilbert
    series (block_dims) without enumerating a word; checks that the series
    has no nonzero term beyond max_arity, which stops at max_arity_bound."""
    if n < 1:
        raise ValueError("need n >= 1")
    dims = list(block_dims(n, w, h)[1:])
    mm = max_arity(n, w, h)
    for m, d in enumerate(dims[mm:], start=mm + 1):
        if d:
            raise HomologyInvariantError(
                "nonempty basis at m=%d beyond max arity %d (n=%d, w=%d, h=%d)"
                % (m, mm, n, w, h))
    return dims[:mm]


def euler_characteristic(n, w, h):
    """sum_m (-1)^m dim C_m^{(w,h)} over the complete finite m-range.

    The m = 0 term is the scalars, the constant term of the Hilbert series:
    a 1-dimensional space living in the (0, 0) block and absent from every
    other block.  Without it the alternating sum of the (0, 0) block would
    come out -1 instead of 0.
    """
    dims = dims_table(n, w, h)
    dim0 = block_dims(n, w, h)[0]
    return dim0 + sum((-1) ** m * d for m, d in enumerate(dims, start=1))
