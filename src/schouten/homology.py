"""Betti numbers, Euler characteristics and the Poisson predicate.

Homology of the double-weighted chain complex is computed blockwise: for a
block (n; m, w, h), betti = dim C_m - rank(d: C_m -> C_{m-1})
- rank(d: C_{m+1} -> C_m).  Coefficients are rationals, so ranks are exact
and the reported Betti numbers are dimensions over Q.

The two ranks share work through d^2 = 0 ("clearing", Chen & Kerber,
Persistent Homology Computation with a Twist, 2011): d_out is eliminated
once, d_out . d_in = 0 is proven on the rows of d_out that became its
echelon pivots (they span its row space), and the rows of d_in at
d_out's pivot columns, which those relations make dependent on the other
rows, are dropped before d_in is eliminated.  Both maps come column by
column from boundary.boundary_columns: d_out is held as that list of
columns, and d_in is streamed through the check and the clearing into the
integer rows that the echelon takes, so it is held once.
"""

from .chains import block_dims, enumerate_basis, max_arity
from .boundary import boundary_columns
from .linalg import column_nonzero, echelon, pivot_columns
from .multivector import schouten_bracket
from .record import Record


class HomologyInvariantError(RuntimeError):
    """A count or identity that theory pins down came out otherwise (a
    negative Betti number, a nonempty block beyond max_arity, d_out . d_in
    != 0); signals a rank, counting or boundary bug."""
    pass


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

    Both block maps come as columns from boundary_columns.  d_out: C_m ->
    C_{m-1} is held as that list and eliminated once, by pivot_columns,
    which also names the rows of d_out that became the echelon pivots.
    d_in: C_{m+1} -> C_m is never held: its columns come one at a time,
    and each is
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
    basis_m = enumerate_basis(n, m, w, h)
    basis_lo = enumerate_basis(n, m - 1, w, h) if m >= 2 else None
    basis_hi = enumerate_basis(n, m + 1, w, h)
    a_cols = None
    pivot_cols = ()
    if m >= 2 and len(basis_m) and len(basis_lo):
        d_out = list(boundary_columns(basis_m.alphabet, basis_m.codes, basis_lo.index, m, w, h))
        pivot_cols, pivot_rows = pivot_columns(d_out, len(basis_lo))
        keep = set(pivot_rows)
        # only the pivot rows of d_out are read from here
        a_cols = [{r: v for r, v in column.items() if r in keep} for column in d_out]
        del d_out
    rank_out = len(pivot_cols)
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
        rank_in = len(echelon(rows)[0])
    else:
        rank_in = 0
    b = len(basis_m) - rank_out - rank_in
    if b < 0:
        raise HomologyInvariantError(
            "negative Betti number %d for block (n=%d, m=%d, w=%d, h=%d): "
            "dim %d, rank_out %d, rank_in %d"
            % (b, n, m, w, h, len(basis_m), rank_out, rank_in))
    return HomologyReport(n, m, w, h, len(basis_m),
                          len(basis_lo) if basis_lo is not None else 0,
                          len(basis_hi), rank_out, rank_in, b)


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


def is_poisson(pi):
    """True iff the bivector pi satisfies [pi, pi] = 0.

    The polynomial coefficients may be inhomogeneous; only the multivector
    degree must be 2 throughout.
    """
    if pi.is_zero():
        return True
    if any(len(alpha) != 2 for alpha, _ in pi.terms):
        raise ValueError("is_poisson expects a bivector (multivector degree 2)")
    return schouten_bracket(pi, pi).is_zero()
