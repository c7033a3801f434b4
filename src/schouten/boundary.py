"""The homology boundary operator on chains and its per-block matrices.

On words the operator is defined recursively through the left action,

    d(A0 ^^ A1 ^^ ... ^^ Am) = -A0 ^^ d(A1 ^^ ... ^^ Am) + A0 . (A1 ^^ ... ^^ Am)
    A0 . (A1 ^^ ... ^^ Am)   = sum_i (-1)^{a0 * sum_{s<i} a_s}
                               A1 ^^ ... ^^ [A0, Ai] ^^ ... ^^ Am

with a_s the g-degrees, d(single generator) = 0, hence d(A ^^ B) = [A, B].
The double weight (m, w, h) -> (m-1, w, h) is preserved; a violation aborts
matrix assembly because it can only come from a sign or bracket bug.
"""

from functools import lru_cache

from .multivector import _bracket_mono, bidegree
from .chains import Chain, enumerate_basis, place_factor, weight_signature
from .linalg import SparseMatrixQ


class WeightEscapeError(RuntimeError):
    """A boundary term left its (w, h) block; signals a sign/bracket bug."""
    pass


def _act(n, gen, word):
    """Unsummed (word, integer coefficient) terms of the unit generator
    `gen` acting on a word: the i-th factor is replaced by each bracket term
    [gen, word[i]], signed (-1)^{g * sum_{s<i} a_s}, and placed back."""
    g = len(gen[0]) - 1
    pref = 0
    for i, f in enumerate(word):
        sign = -1 if (g * pref) % 2 else 1
        rest = word[:i] + word[i + 1:]
        for key, c in _bracket_mono(n, gen[0], gen[1], f[0], f[1]):
            s, nw = place_factor(rest, i, key)
            if s:
                yield nw, sign * s * c
        pref += len(f[0]) - 1


def left_action(A0, word):
    """The left action of a g-homogeneous multivector A0 on a word."""
    if A0.is_zero():
        return Chain.zero(A0.n)
    bidegree(A0)  # raises MixedDegreeError when inhomogeneous
    terms = {}
    for gen, c0 in A0.terms.items():
        for nw, c in _act(A0.n, gen, word):
            terms[nw] = terms.get(nw, 0) + c0 * c
    return Chain(A0.n, terms)


@lru_cache(maxsize=None)
def _boundary_word(n, word):
    """d(word) as a tuple of (word, integer coefficient) pairs."""
    if len(word) <= 1:
        return ()
    head, tail = word[0], word[1:]
    terms = {}
    # -A0 ^^ d(tail)
    for w, c in _boundary_word(n, tail):
        sign, nw = place_factor(w, 0, head)
        if sign:
            terms[nw] = terms.get(nw, 0) - sign * c
    # + A0 . tail
    for nw, c in _act(n, head, tail):
        terms[nw] = terms.get(nw, 0) + c
    return tuple((w, c) for w, c in terms.items() if c)


def boundary(chain):
    """The boundary operator, extended linearly over words."""
    terms = {}
    for word, coeff in chain.terms.items():
        for w, c in _boundary_word(chain.n, word):
            terms[w] = terms.get(w, 0) + c * coeff
    return Chain(chain.n, terms)


class BoundaryMatrix:
    """Matrix of d : C_m^{(w,h)} -> C_{m-1}^{(w,h)} in the canonical bases."""

    __slots__ = ("matrix", "domain", "codomain")

    def __init__(self, matrix, domain, codomain):
        self.matrix = matrix
        self.domain = domain
        self.codomain = codomain


def boundary_matrix(n, m, w, h, domain=None, codomain=None):
    """Assemble the boundary matrix of the (n; m, w, h) block.

    Degenerate blocks yield explicit 0-by-k or k-by-0 matrices.  Pre-built
    bases may be passed in to share enumeration work between blocks.
    """
    if domain is None:
        domain = enumerate_basis(n, m, w, h)
    if m < 2:
        # d kills 1-chains; represent it as the 0-by-k matrix
        return BoundaryMatrix(SparseMatrixQ(0, len(domain), {}), domain, None)
    if codomain is None:
        codomain = enumerate_basis(n, m - 1, w, h)
    entries = {}
    row_of = {}  # output word -> codomain row, once its weight is checked
    for col, word in enumerate(domain.words):
        for out_word, c in _boundary_word(n, word):
            r = row_of.get(out_word)
            if r is None:
                if weight_signature(out_word) != (m - 1, w, h):
                    raise WeightEscapeError(
                        "boundary of %r left block (m=%d, w=%d, h=%d)" % (word, m, w, h))
                r = row_of[out_word] = codomain.position(out_word)
            entries[(r, col)] = c
    return BoundaryMatrix(SparseMatrixQ(len(codomain), len(domain), entries),
                          domain, codomain)


def matrix_to_text(M):
    """Coordinate-list export: header `rows cols nnz`, lines `row col p/q`,
    sorted by (col, row)."""
    lines = ["%d %d %d" % (M.rows, M.cols, len(M.entries))]
    for (r, c) in sorted(M.entries, key=lambda rc: (rc[1], rc[0])):
        v = M.entries[(r, c)]
        vs = str(v.numerator) if v.denominator == 1 else "%d/%d" % (v.numerator, v.denominator)
        lines.append("%d %d %s" % (r, c, vs))
    return "\n".join(lines)
