"""Betti numbers and the Poisson predicate.

Homology of the double-weighted chain complex is computed blockwise: for a
block (n; m, w, h), betti = dim C_m - rank(d: C_m -> C_{m-1})
- rank(d: C_{m+1} -> C_m).  Coefficients are rationals, so ranks are exact
and the reported Betti numbers are dimensions over Q.

Each block splits further by torus weight.  The generator x^beta d_alpha
has weight v = beta - 1_alpha in Z^n, the bracket adds weights, so d keeps
the weight of a word (see the torus module).  The Euler fields E_l = x_l d_l
lie in every block's alphabet and satisfy [E_l, g] = v_l(g) g, so by
Cartan's formula E_l ^^ . is a homotopy with d(E_l ^^ c) + E_l ^^ d(c) =
v_l(c) c: every sub-block of weight v != 0 is acyclic (Chevalley &
Eilenberg 1948; Fuks, Cohomology of Infinite-Dimensional Lie Algebras,
1986, ch. 1).  Its ranks follow from counts: with dim_{!=0}(k) = dim C_k
less the weight-0 words of C_k, the rank of d: C_k -> C_{k-1} on v != 0 is
0 at k = 1 and dim_{!=0}(k - 1) less the rank one arity down above it.  A
w != h block has no weight-0 word, since the entries of v sum to h - w, so
it needs no matrix at all.  betti checks the Euler-field brackets it relies
on at run time, through words._bracket, the code that fills the bracket
table its matrices are assembled from, and eliminates only the weight-0
words.

On weight 0 the two ranks share work through d^2 = 0 ("clearing", Chen &
Kerber, Persistent Homology Computation with a Twist, 2011): d_out is
eliminated once, d_out . d_in = 0 is proven on the rows of d_out that
became its echelon pivots (they span its row space), and the rows of d_in
at d_out's pivot columns, which those relations make dependent on the
other rows, are dropped before d_in is eliminated.  Both maps come column
by column from words.boundary_columns: d_out is held as that list of
columns, and d_in is streamed through the check and the clearing into the
integer rows that the echelon takes, so it is held once.  d^2 = 0 is thus
proven on every weight-0 column; on v != 0 it rests on the tests and on
`verify dsq`.

betti runs on int words alone: this module takes the kernel from the leaf
module words, not from chains or boundary, and is_poisson imports the
multivector module when it runs, so `betti` loads no Fraction arithmetic.
"""

# dims_table, euler_characteristic and HomologyInvariantError are defined in
# the leaf module counting, which `dims` and `euler` load alone; re-exported
from .counting import HomologyInvariantError, block_dims, dims_table, euler_characteristic
from .linalg import column_nonzero, echelon, pivot_columns
from .record import Record
from .torus import enumerate_weight_zero, euler_bracket_failure
from .words import boundary_columns


class HomologyReport(Record):
    """The block (n; m, w, h) with dim C_m, dim C_{m-1} (dim_lower), dim
    C_{m+1} (dim_upper), rank_out = rank of d: C_m -> C_{m-1}, rank_in =
    rank of d: C_{m+1} -> C_m, and the Betti number."""

    __slots__ = ("n", "m", "w", "h", "dim", "dim_lower", "dim_upper",
                 "rank_out", "rank_in", "betti")

    def csv_row(self):
        return "%d,%d,%d,%d,%d,%d,%d,%d" % (
            self.n, self.m, self.w, self.h, self.dim, self.rank_out, self.rank_in, self.betti)

    CSV_HEADER = "n,m,w,h,dim,rank_out,rank_in,betti"


def betti(n, m, w, h):
    """Full homology report of the block (n; m, w, h).

    dim, dim_lower and dim_upper come from block_dims.  The ranks are split
    by torus weight (see the module docstring).  On v != 0 they follow from
    the counts dim C_k less the weight-0 words of C_k, k = 1..m+1; each
    rank is checked to lie between 0 and the dimensions it maps between,
    after torus.euler_bracket_failure has checked the identity they rest on.

    On weight 0 (none unless w = h), both block maps come as columns from
    boundary_columns, with the weight-0 words as rows, so a term of any
    other weight raises WeightEscapeError.  d_out: C_m -> C_{m-1} is held as
    that list and eliminated once, by pivot_columns, which also names the
    rows of d_out that became the echelon pivots.  d_in: C_{m+1} -> C_m is
    never held: its columns come one at a time, and each is
    1. checked: d_out . column = 0 exactly on those rows of d_out
       (HomologyInvariantError otherwise).  That is a proof for all of
       d_out: the pivot rows span its row space, so every other row is a
       combination of them and annihilates the column too;
    2. cleared: its entries at d_out's pivot columns are dropped.  That
       leaves rank_in unchanged: the echelon rows of d_out, restricted to
       the pivot columns, form a triangular matrix with a nonzero diagonal,
       and each of them annihilates d_in, so the rows of d_in at the pivot
       columns lie in the span of its other rows;
    3. appended to the integer rows of d_in, which echelon then ranks.
    """
    bad = euler_bracket_failure(n, m, w, h)
    if bad is not None:
        raise HomologyInvariantError(
            "the Euler field x_%d d_%d does not scale %r by its weight %d (n=%d, w=%d, h=%d)"
            % (bad[0], bad[0], bad[1], bad[2], n, w, h))
    dims = block_dims(n, w, h)
    dim = [dims[k] if k < len(dims) else 0 for k in range(m + 2)]
    bases = {k: enumerate_weight_zero(n, k, w, h) for k in range(max(m - 1, 1), m + 2)}
    basis_lo, basis_m, basis_hi = bases.get(m - 1), bases[m], bases[m + 1]
    # zero[k]: the number of weight-0 words of C_k
    zero = [0] + [len(bases[k]) if k in bases else len(enumerate_weight_zero(n, k, w, h))
                  for k in range(1, m + 2)]
    # nonzero[k]: rank of d: C_k -> C_{k-1} on the weights v != 0
    nonzero = [0, 0]
    for k in range(2, m + 2):
        r = dim[k - 1] - zero[k - 1] - nonzero[k - 1]
        if not 0 <= r <= dim[k] - zero[k]:
            raise HomologyInvariantError(
                "the weight v != 0 part of d: C_%d -> C_%d would have rank %d, not within "
                "0..%d, on block (n=%d, m=%d, w=%d, h=%d)"
                % (k, k - 1, r, dim[k] - zero[k], n, m, w, h))
        nonzero.append(r)
    rank_out, rank_in = nonzero[m], nonzero[m + 1]
    a_cols = None
    pivot_cols = ()
    if m >= 2 and len(basis_m) and len(basis_lo):
        d_out = list(boundary_columns(basis_m.alphabet, basis_m.codes, basis_lo.index, m, w, h))
        pivot_cols, pivot_rows = pivot_columns(d_out, len(basis_lo))
        keep = set(pivot_rows)
        # only the pivot rows of d_out are read from here
        a_cols = [{r: v for r, v in column.items() if r in keep} for column in d_out]
        del d_out
    rank_out += len(pivot_cols)
    if len(basis_hi) and len(basis_m):
        cleared = set(pivot_cols)
        rows = [{} for _ in range(len(basis_m))]
        columns = boundary_columns(basis_hi.alphabet, basis_hi.codes, basis_m.index,
                                   m + 1, w, h)
        for col, column in enumerate(columns):
            if a_cols is not None:
                bad = column_nonzero(a_cols, column)
                if bad is not None:
                    raise HomologyInvariantError(
                        "boundary squared is nonzero on block (n=%d, m=%d, w=%d, h=%d): "
                        "entry (%d, %d) of d_out . d_in is %s"
                        % (n, m, w, h, bad[0], col, bad[1]))
            for r, v in column.items():
                if r not in cleared:
                    rows[r][col] = v
        rank_in += len(echelon(rows)[0])
    b = dim[m] - rank_out - rank_in
    if b < 0:
        raise HomologyInvariantError(
            "negative Betti number %d for block (n=%d, m=%d, w=%d, h=%d): "
            "dim %d, rank_out %d, rank_in %d"
            % (b, n, m, w, h, dim[m], rank_out, rank_in))
    return HomologyReport(n, m, w, h, dim[m], dim[m - 1] if m >= 2 else 0, dim[m + 1],
                          rank_out, rank_in, b)


def is_poisson(pi):
    """True iff the bivector pi satisfies [pi, pi] = 0.

    The polynomial coefficients may be inhomogeneous; only the multivector
    degree must be 2 throughout.
    """
    from .multivector import schouten_bracket
    if pi.is_zero():
        return True
    if any(len(alpha) != 2 for alpha, _ in pi.terms):
        raise ValueError("is_poisson expects a bivector (multivector degree 2)")
    return schouten_bracket(pi, pi).is_zero()
