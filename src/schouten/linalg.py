"""Exact sparse linear algebra over the rationals.

Matrices store only nonzero exact entries: Python ints where the value is
integral (boundary matrices are integral throughout) and Fractions
otherwise.  Rank and kernel run through the fraction-free integer echelon
below: a row holding fractions is scaled to integers first, which changes
neither the rank nor the null space.  Everything is deterministic.
"""

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm


class SparseMatrixQ:
    """rows x cols rational matrix; entries maps (row, col) -> int or Fraction.

    Integral values are stored as ints, so an all-integer matrix reaches the
    echelon kernel without any Fraction arithmetic.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries=None):
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

    def row_dicts(self, col_map=None):
        """Rows as integer dicts {col: int}; a row holding fractions is scaled
        by the lcm of its denominators (preserves rank and null space).
        With col_map, column c is stored under col_map[c] instead."""
        rows = [{} for _ in range(self.rows)]
        if col_map is None:
            for (r, c), v in self.entries.items():
                rows[r][c] = v
        else:
            for (r, c), v in self.entries.items():
                rows[r][col_map[c]] = v
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


def pivot_columns(M):
    """(cols, rows): the pivot columns of an echelon form of M, in M's own
    column indices, and the rows of M that became the pivot rows.  Both
    number the rank of M, and the rows span M's row space.

    The echelon runs with the columns taken in ascending order of nonzero
    count, ties by index: a static Markowitz-style order, in which sparse
    columns are pivoted first and the eliminations fill in less.
    """
    counts = [0] * M.cols
    for _, c in M.entries:
        counts[c] += 1
    order = sorted(range(M.cols), key=counts.__getitem__)
    position = [0] * M.cols
    for p, c in enumerate(order):
        position[c] = p
    pivots, _, rows = echelon(M.row_dicts(position))
    return [order[p] for p in pivots], rows


def column_groups(A, rows=None):
    """A's entries grouped by column, {col: [(row, value)]}; with `rows`,
    only the entries in those rows of A."""
    keep = None if rows is None else set(rows)
    a_cols = {}
    for (r, k), a in A.entries.items():
        if keep is None or r in keep:
            a_cols.setdefault(k, []).append((r, a))
    return a_cols


def column_nonzero(a_cols, column):
    """A nonzero entry (row, value) of A @ column, or None when it is 0;
    A is given by column_groups and the column as {row of column: value}.
    Every entry of the product column is summed in full before any is
    read."""
    acc = {}
    for k, b in column.items():
        for r, a in a_cols.get(k, ()):
            acc[r] = acc.get(r, 0) + a * b
    for r, v in acc.items():
        if v:
            return r, v
    return None


def product_nonzero(A, columns, rows=None):
    """A nonzero entry (row, col, value) of A @ B, or None when A @ B = 0.
    B is given as an iterable of its columns, each {row: value}, in column
    order.  With `rows`, only those rows of A are multiplied: A[rows] @ B.

    Neither the product nor B is held: A is grouped by column once, and
    each column of B is multiplied by column_nonzero and checked whole as
    it arrives, so columns may come from a generator.
    """
    a_cols = column_groups(A, rows)
    for c, column in enumerate(columns):
        if column and max(column) >= A.cols:
            raise ValueError("column %d of B has row %d, but A has %d columns"
                             % (c, max(column), A.cols))
        bad = column_nonzero(a_cols, column)
        if bad is not None:
            return bad[0], c, bad[1]
    return None


def kernel_basis(M):
    """A basis of the null space of M, one Fraction vector per free column."""
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
