"""The homology boundary operator on chains and its per-block maps.

The paper defines the operator on words recursively through the left action,

    d(A0 ^^ A1 ^^ ... ^^ Am) = -A0 ^^ d(A1 ^^ ... ^^ Am) + A0 . (A1 ^^ ... ^^ Am)
    A0 . (A1 ^^ ... ^^ Am)   = sum_i (-1)^{a0 * sum_{s<i} a_s}
                               A1 ^^ ... ^^ [A0, Ai] ^^ ... ^^ Am

with a_s the g-degrees and d(single generator) = 0.  Unrolled, this is the
closed Chevalley-Eilenberg form (Chevalley & Eilenberg 1948), a sum over the
pairs k < i of the factors of A0 ^^ ... ^^ Am:

    d(A0 ^^ ... ^^ Am) = sum_{k<i} (-1)^k (-1)^{a_k * sum_{k<s<i} a_s}
                         (the word without A_k and A_i, with [A_k, A_i]
                          placed at slot i - 1)

so d(A ^^ B) = [A, B].  It is computed on int words of the block's
Alphabet by words._word_boundary, which reads each bracket [A_k, A_i] from
the alphabet's bracket table and puts it in place by place_factor.  The
int-word kernel (_word_boundary, boundary_columns, WeightEscapeError) lives
in the leaf module words, which `betti` runs on without loading this
module, and is re-exported here.  encode_chain and decode_chain, which
carry a Chain to the int-word form (int words with int coefficients over
one denominator) and back, live in chains and are re-exported here.
boundary_codes, d on that form, is defined in the leaf module certificate
beside the parser and the formatter of the form, so the certificate
commands take boundaries without loading this module; it is re-exported
here, and the contraction operators run on it too.  boundary, d on a
Chain, is chains._on_codes over boundary_codes, the adapter that phi_op
and capital_phi use, so a factor that is no generator raises the
ValueError of check_generator here as there.

A block map d: C_m -> C_{m-1} is what boundary_columns yields, one
{row: int} column per word of C_m.  betti ranks it, and
boundary_squared_failures, the one d . d check behind `verify dsq` and
the tests, multiplies it by the columns of the arity below;
boundary_matrix packs it into a SparseMatrixQ for reference ranks; no
formatter of matrices lives here.  Only these two import linalg, when
they run, so taking the boundary of a chain never loads linalg.  The
double weight (m, w, h) -> (m-1, w, h) is preserved; a term outside the
block raises WeightEscapeError, because it can only come from a sign or
bracket bug.
"""

# boundary_codes, d on the int-word form, lives in the leaf module
# certificate; re-exported here
from .certificate import boundary_codes
from .chains import _on_codes, decode_chain, encode_chain
from .words import (WeightEscapeError, _bracket, _word_boundary, alphabet, boundary_columns,
                    enumerate_basis)


def boundary(chain):
    """The boundary operator, extended linearly over words: boundary_codes
    on the int words of each block, through chains._on_codes, so a factor
    that is no generator raises check_generator's ValueError."""
    return _on_codes(chain, boundary_codes)


class BoundaryMatrix:
    """Matrix of d : C_m^{(w,h)} -> C_{m-1}^{(w,h)} in the canonical bases."""

    __slots__ = ("matrix", "domain", "codomain")

    def __init__(self, matrix, domain, codomain):
        self.matrix = matrix
        self.domain = domain
        self.codomain = codomain


def boundary_squared_failures(n, w, h, top):
    """For m = 2..top, the basis of C_m^{(w,h)} over R^n and the positions
    of its words at which d . d is not 0.

    The arities are walked upward and each basis is enumerated once.  The
    columns of d on C_{m-1} are held, and those of d on C_m stream against
    them through column_nonzero; below top they are then held in turn.  A
    boundary term outside its block raises WeightEscapeError.
    """
    from .linalg import column_nonzero
    lower = enumerate_basis(n, 1, w, h)
    held = [{}] * len(lower)  # d kills 1-chains
    for m in range(2, top + 1):
        basis = enumerate_basis(n, m, w, h)
        columns = [] if m < top else None
        failures = []
        for i, column in enumerate(boundary_columns(basis.alphabet, basis.codes, lower.index,
                                                    m, w, h)):
            if column_nonzero(held, column) is not None:
                failures.append(i)
            if columns is not None:
                columns.append(column)
        yield basis, failures
        lower, held = basis, columns


def boundary_matrix(n, m, w, h, domain=None, codomain=None):
    """Assemble the boundary matrix of the (n; m, w, h) block.

    Degenerate blocks yield explicit 0-by-k or k-by-0 matrices.  Pre-built
    bases may be passed in to share enumeration work between blocks.  A
    boundary term that is no word of the codomain raises WeightEscapeError.
    """
    from .linalg import SparseMatrixQ
    if domain is None:
        domain = enumerate_basis(n, m, w, h)
    if m < 2:
        # d kills 1-chains; represent it as the 0-by-k matrix
        return BoundaryMatrix(SparseMatrixQ(0, len(domain), {}), domain, None)
    if codomain is None:
        codomain = enumerate_basis(n, m - 1, w, h)
    if any((B.n, B.w, B.h) != (n, w, h) for B in (domain, codomain)):
        raise ValueError("a basis outside the weight block (n=%d, w=%d, h=%d)" % (n, w, h))
    entries = {}
    columns = boundary_columns(domain.alphabet, domain.codes, codomain.index, m, w, h)
    for col, column in enumerate(columns):
        for r, c in column.items():
            entries[(r, col)] = c
    return BoundaryMatrix(SparseMatrixQ(len(codomain), len(domain), entries),
                          domain, codomain)
