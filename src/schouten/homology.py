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
it needs no matrix at all.  betti proves the Euler-field identity it
relies on for every generator of the block, from the bracket templates
that words._bracket evaluates (torus.template_failure).

Weight 0 is reduced further, to one coordinate per S_n orbit of weight-0
words (torus.weight_zero_orbits), on which the invariant complex has the
Betti numbers of the block (Hochschild & Serre, Cohomology of group
extensions, 1953), and the weight-0 ranks follow from those.  The same
call checks that d commutes with the permutations the orbits are folded
by.  On the orbit sums the maps d_k, k = 2..m+1, are taken in order, each
cleared by the one below it through d^2 = 0 ("clearing", Chen & Kerber,
Persistent Homology Computation with a Twist, 2011) and each column
checked against it, so d^2 = 0 is proven on every invariant weight-0
column of C_2..C_{m+1};
elsewhere it rests on the tests and on `verify dsq`.  Every map comes
column by column from words.boundary_columns, folded through the orbit
coordinates.  The proofs of both reductions and of the clearing are
spelled out at betti.

betti runs on int words alone: this module takes the kernel from the leaf
module words and torus, not from chains or boundary, and is_poisson
imports the multivector module when it runs, so `betti` loads no Fraction
arithmetic.
"""

# dims_table, euler_characteristic and HomologyInvariantError are defined in
# the leaf module counting, which `dims` and `euler` load alone; re-exported
from .counting import HomologyInvariantError, block_dims, dims_table, euler_characteristic
from .linalg import column_nonzero, pivot_columns
from .record import Record
from .torus import Orbits, Relabeling, enumerate_weight_zero, template_failure, weight_zero_orbits
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
    after torus.template_failure has proven the identity they rest on.

    On weight 0 (none unless w = h), betti computes the Betti numbers
    b_1..b_m of the S_n-invariant subcomplex, after the same call has
    checked that d commutes with every coordinate permutation of the
    Relabeling tables that the orbits are folded by.  Why they are those
    of the block: GL_n(C) is connected and acts on the block by chain
    maps, and its Lie algebra, the linear fields x_i d_j, acts by
    [x_i d_j, .] = d(x_i d_j ^^ .) + x_i d_j ^^ d(.)
    (Cartan's formula), null-homotopically; so every element of GL_n(C),
    and every coordinate permutation, acts as the identity on homology.
    Over Q the average R = (1/n!) sum_sigma sigma is a chain map and a
    projection onto the invariants, so H(C_0^{S_n}) = H(C_0)^{S_n} = H(C_0)
    (Hochschild & Serre 1953).  The averages R(r) of the orbit
    representatives r of torus.weight_zero_orbits are a basis of
    C_0^{S_n}, and R(u) = +-R(r) for u in the orbit of r, or 0 when the
    orbit is dropped; as dR = Rd, the column of R(r) is d(r) folded by that
    rule, which words.boundary_columns yields with the orbits' fold map.
    From the b_k and d_1 = 0 the weight-0 ranks follow: rank_0(d_k) =
    dim_0 C_{k-1} - rank_0(d_{k-1}) - b_{k-1}, checked to be at least the
    rank of d_k on the invariants and at most dim_0 C_k.

    On the invariants the maps d_k are taken in order, k = 2..m+1, each
    cleared by the one before it.  Their columns come one at a time from
    boundary_columns, with the kept orbits of weight-0 words as rows, so a
    term of any other weight raises WeightEscapeError.  Each column of d_k
    is
    1. checked: d_{k-1} . column = 0 on the pivot rows of the cleared
       d_{k-1} (HomologyInvariantError otherwise, naming k);
    2. cleared: its rows at the pivot columns of d_{k-1} are dropped;
    and pivot_columns then ranks the cleared d_k and names its pivot
    columns and pivot rows.  For k <= m the cleared columns are held as a
    list, to be restricted to those pivot rows for the next check; d_{m+1}
    is streamed into pivot_columns and never held.

    Why the tower is a proof, by induction on k.  Let S_k be the pivot
    columns of the cleared d_k and E_k its echelon rows.  E_k restricted to
    S_k is triangular with a nonzero diagonal, and E_k . d_{k+1} = 0, so
    the rows of d_{k+1} at S_k are combinations of its other rows: dropping
    them keeps both the rank of d_{k+1} and its row space.  So the pivot
    rows of the cleared d_{k-1} span the row space of d_{k-1}, the check on
    them proves d_{k-1} . d_k = 0 in full, which is what E_{k-1} . d_k = 0
    needs, and the rank of each cleared d_k is the rank of d_k.  d_2 needs
    no clearing and no check, since d_1 = 0.  A map whose domain or
    codomain has no kept orbit is 0, and the map after it is neither
    checked nor cleared.
    """
    relabeling = Relabeling(n, w, h)
    bad = template_failure(relabeling, w, h)
    if bad is not None:
        raise HomologyInvariantError("%s (n=%d, w=%d, h=%d)" % (bad, n, w, h))
    dims = block_dims(n, w, h)
    dim = [dims[k] if k < len(dims) else 0 for k in range(m + 2)]
    # rank[k]: the rank of d_k: C_k -> C_{k-1}; d_1 = 0
    rank = [0, 0]
    nonzero = 0  # the rank of d_{k-1} on the weights v != 0
    zero = 0  # the rank of d_{k-1} on weight 0
    invariant = 0  # the rank of d_{k-1} on the orbit sums of weight 0
    lower = weight_zero_orbits(n, 1, w, h, relabeling)
    a_cols = None  # the columns of the cleared d_{k-1}, on its pivot rows only
    cleared = ()  # the pivot columns of the cleared d_{k-1}
    for k in range(2, m + 2):
        if k <= m or lower.reps:
            upper = weight_zero_orbits(n, k, w, h, relabeling)
        else:  # d_{m+1} is 0 on the orbit sums, and no map follows it
            upper = Orbits(len(enumerate_weight_zero(n, k, w, h)), [], {})
        nonzero = dim[k - 1] - lower.size - nonzero
        if not 0 <= nonzero <= dim[k] - upper.size:
            raise HomologyInvariantError(
                "the weight v != 0 part of d: C_%d -> C_%d would have rank %d, not within "
                "0..%d, on block (n=%d, m=%d, w=%d, h=%d)"
                % (k, k - 1, nonzero, dim[k] - upper.size, n, m, w, h))
        ranked = 0
        if not (upper.reps and lower.reps):
            a_cols, cleared = None, ()
        else:
            columns = _cleared(boundary_columns(relabeling.alphabet, upper.reps, lower.fold,
                                                k, w, h),
                               a_cols, cleared, k, (n, m, w, h))
            if k <= m:
                columns = list(columns)
            pivot_cols, pivot_rows = pivot_columns(columns, len(lower.reps))
            ranked = len(pivot_cols)
            if k <= m:
                keep = set(pivot_rows)
                a_cols = [{r: v for r, v in column.items() if r in keep} for column in columns]
                cleared = set(pivot_cols)
            del columns
        # the Betti number of C_{k-1}, which the orbit sums and the weight-0
        # words share
        b = len(lower.reps) - invariant - ranked
        if b < 0:
            raise HomologyInvariantError(
                "negative Betti number %d at arity %d of block (n=%d, m=%d, w=%d, h=%d): "
                "%d orbit sums of weight 0, ranks %d and %d"
                % (b, k - 1, n, m, w, h, len(lower.reps), invariant, ranked))
        zero = lower.size - zero - b
        if not ranked <= zero <= upper.size:
            raise HomologyInvariantError(
                "the weight-0 part of d: C_%d -> C_%d would have rank %d, not within "
                "%d..%d, on block (n=%d, m=%d, w=%d, h=%d)"
                % (k, k - 1, zero, ranked, upper.size, n, m, w, h))
        rank.append(nonzero + zero)
        invariant = ranked
        lower = upper
    rank_out, rank_in = rank[m], rank[m + 1]
    return HomologyReport(n, m, w, h, dim[m], dim[m - 1] if m >= 2 else 0, dim[m + 1],
                          rank_out, rank_in, dim[m] - rank_out - rank_in)


def _cleared(columns, a_cols, cleared, k, block):
    """The columns of d_k, each checked against the cleared d_{k-1}, given
    as a_cols (None when there is none to check against), and then with
    its rows in `cleared` dropped."""
    for col, column in enumerate(columns):
        if a_cols is not None:
            bad = column_nonzero(a_cols, column)
            if bad is not None:
                raise HomologyInvariantError(
                    "boundary squared is nonzero on block (n=%d, m=%d, w=%d, h=%d): "
                    "entry (%d, %d) of d_%d . d_%d is %s"
                    % (block + (bad[0], col, k - 1, k, bad[1])))
        if cleared:
            column = {r: v for r, v in column.items() if r not in cleared}
        yield column


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
