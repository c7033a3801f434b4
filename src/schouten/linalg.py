"""Exact sparse linear algebra over the rationals.

A block map of the boundary is what words.boundary_columns yields: its
columns, each {row: nonzero int}, one at a time.  pivot_columns ranks such
columns, from a list or straight from the stream, in a static order of
ascending nonzero count, and names the pivot rows that span the row
space; column_nonzero multiplies a list of them by a column, and that is
the one d^2 product of the package.  homology.betti runs both on every
weight-0 map of its tower.  SparseMatrixQ is the general matrix,
{(row, col): value} with ints where the value is integral and Fractions
otherwise, which rank_exact and kernel_basis take.  Every rank runs
through the fraction-free integer echelon below: a row holding fractions
is scaled to integers first, which changes neither the rank nor the null
space.  Everything is deterministic.  fractions is imported only where a
Fraction is built (SparseMatrixQ and kernel_basis), so `betti`, which
ranks int columns, does not load it.
"""

from heapq import heapify, heappop, heappush
from math import gcd, lcm


class SparseMatrixQ:
    """rows x cols rational matrix; entries maps (row, col) -> int or Fraction.

    Integral values are stored as ints, so an all-integer matrix reaches the
    echelon kernel without any Fraction arithmetic.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries=None):
        from fractions import Fraction
        self.rows = rows
        self.cols = cols
        clean = {}
        if entries:
            for (r, c), v in entries.items():
                if type(v) is not int:
                    v = Fraction(v)
                    if v.denominator == 1:
                        v = v.numerator
                if v:
                    if not (0 <= r < rows and 0 <= c < cols):
                        raise IndexError("entry (%d, %d) outside %dx%d" % (r, c, rows, cols))
                    clean[(r, c)] = v
        self.entries = clean

    def row_dicts(self):
        """Rows as integer dicts {col: int}; a row holding fractions is scaled
        by the lcm of its denominators (preserves rank and null space)."""
        rows = [{} for _ in range(self.rows)]
        for (r, c), v in self.entries.items():
            rows[r][c] = v
        for i, row in enumerate(rows):
            scale = lcm(*[v.denominator for v in row.values()])
            if scale > 1:
                rows[i] = {c: int(v * scale) for c, v in row.items()}
        return rows

    def is_zero(self):
        return not self.entries


# --- fraction-free integer echelon ------------------------------------------


def _primitive(row):
    """A nonzero integer row divided by its content (gcd of its entries)."""
    g = gcd(*row.values())
    if g > 1:
        row = {c: v // g for c, v in row.items()}
    return row


def echelon(rows):
    """Row echelon form of integer rows {col: nonzero int}.

    Returns (pivot_cols, ech_rows, pivot_rows): ech_rows[i] starts at
    column pivot_cols[i], pivot columns strictly increasing; rank =
    len(pivot_cols).  pivot_rows[i] is the index in `rows` of the row that
    became ech_rows[i].  ech_rows[i] is a nonzero multiple of that row plus
    a combination of ech_rows[:i], so the pivot rows span the same space as
    the echelon rows: the row space of `rows`.

    Pivoting is deterministic: the pivot column is the smallest column that
    still leads a row; among the rows it leads, the one with fewest nonzeros
    wins, ties broken by original row order.  Every row is divided by its
    content, so entries stay small, and each pivot row has a positive
    leading entry.

    Live rows sit in buckets keyed by leading column.  A pivot on column c
    can only touch rows that lead at c (every other live row leads further
    right), so each step works on one bucket and moves its updated rows into
    the buckets of their new leading columns, all right of c.  A live row is
    kept up to sign: the sign is fixed only when the row becomes a pivot,
    since the update of a row is linear in it and the sign of the result is
    fixed in turn.

    The input rows are never changed, and never copied: a row that needs
    no scaling or update is held as it is, so an ech_rows[i] may be the
    very dict of an input row.  Every update and every sign flip builds a
    new dict.
    """
    buckets = {}  # leading column -> [(original row index, row)]
    for i, r in enumerate(rows):
        if r:
            buckets.setdefault(min(r), []).append((i, _primitive(r)))
    open_cols = list(buckets)
    heapify(open_cols)
    pivots = []
    ech = []
    pivot_rows = []
    while open_cols:
        col = heappop(open_cols)
        bucket = buckets.pop(col)
        best = min(bucket, key=lambda entry: (len(entry[1]), entry[0]))
        piv = best[1]
        if piv[col] < 0:
            piv = {c: -v for c, v in piv.items()}
        pivots.append(col)
        ech.append(piv)
        pivot_rows.append(best[0])
        if len(bucket) == 1:
            continue
        pv = piv[col]
        tail = [(c, v) for c, v in piv.items() if c != col]
        for entry in bucket:
            if entry is best:
                continue
            i, r = entry
            rv = r[col]
            # r * pv - piv * rv clears col; dividing both multipliers by
            # their gcd only removes a factor that _primitive divides out
            g = gcd(pv, rv)
            a, b = pv // g, rv // g
            if a == 1:
                out = dict(r)
            else:
                out = {c: v * a for c, v in r.items()}
            del out[col]
            for c, v in tail:
                nv = out.get(c, 0) - v * b
                if nv:
                    out[c] = nv
                else:
                    out.pop(c, None)
            if out:
                out = _primitive(out)
                lead = min(out)
                dest = buckets.get(lead)
                if dest is None:
                    buckets[lead] = [(i, out)]
                    heappush(open_cols, lead)
                else:
                    dest.append((i, out))
    return pivots, ech, pivot_rows


def rank_exact(M):
    """Rank over Q via fraction-free elimination; deterministic."""
    return len(echelon(M.row_dicts())[0])


def pivot_columns(columns, rows):
    """(pivot_cols, pivot_rows) of the matrix with `rows` rows whose
    columns, each {row: int}, `columns` yields in order: the pivot columns
    of an echelon form, in its own column indices, and the rows that
    became the pivot rows.  Both number its rank, and the pivot rows span
    its row space.

    The columns are read once, each entered in the integer rows of the
    matrix as it comes and its nonzeros counted, so a generator of columns
    is never held as a list.  The echelon then runs with the columns taken
    in ascending order of nonzero count, ties by index: a static
    Markowitz-style order, in which sparse columns are pivoted first and
    the eliminations fill in less.  Each row is relabeled to that order in
    turn, so the matrix is held once more by one row at most.
    """
    row_dicts = [{} for _ in range(rows)]
    counts = []
    for c, column in enumerate(columns):
        counts.append(len(column))
        for r, v in column.items():
            row_dicts[r][c] = v
    order = sorted(range(len(counts)), key=counts.__getitem__)
    position = [0] * len(order)
    for p, c in enumerate(order):
        position[c] = p
    for i, row in enumerate(row_dicts):
        row_dicts[i] = {position[c]: v for c, v in row.items()}
    pivots, _, pivot_rows = echelon(row_dicts)
    return [order[p] for p in pivots], pivot_rows


def column_nonzero(a_cols, column):
    """A nonzero entry (row, value) of A @ column, or None when it is 0;
    A is given by its columns, a_cols[k] = {row: value}, and the column
    as {row of column: value}.  Every entry of the product column is
    summed in full before any is read."""
    acc = {}
    for k, b in column.items():
        for r, a in a_cols[k].items():
            acc[r] = acc.get(r, 0) + a * b
    for r, v in acc.items():
        if v:
            return r, v
    return None


def kernel_basis(M):
    """A basis of the null space of M, one Fraction vector per free column."""
    from fractions import Fraction
    pivots, rows, _ = echelon(M.row_dicts())
    pivot_set = set(pivots)
    basis = []
    for free in range(M.cols):
        if free in pivot_set:
            continue
        x = {free: Fraction(1)}
        for i in reversed(range(len(rows))):
            pc = pivots[i]
            s = Fraction(0)
            for c, v in rows[i].items():
                if c != pc and c in x:
                    s += Fraction(v) * x[c]
            if s:
                x[pc] = -s / rows[i][pc]
        v = [Fraction(0)] * M.cols
        for c, val in x.items():
            v[c] = val
        basis.append(v)
    return basis
