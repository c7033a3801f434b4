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

    def zero_rows(self, rows):
        """Set the given rows to zero in place; the shape is kept."""
        drop = set(rows)
        entries = self.entries
        for key in [key for key in entries if key[0] in drop]:
            del entries[key]


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
    """
    buckets = {}  # leading column -> [(original row index, row)]
    for i, r in enumerate(rows):
        if r:
            buckets.setdefault(min(r), []).append((i, _primitive(dict(r))))
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


def product_nonzero(A, B, rows=None):
    """A nonzero entry (row, col, value) of A @ B, or None when A @ B = 0.
    With `rows`, only those rows of A are multiplied: A[rows] @ B.

    Neither the product nor a copy of B is built.  A is grouped by column,
    and B's entries are streamed once: B[k, c] adds B[k, c] * A[:, k] to
    the accumulator of column c, and a column is checked and dropped as soon
    as its last entry has been added.  So at most one accumulator per open
    column is held: one, when B's entries come column by column, as
    boundary_matrix assembles them.  Every column of the product is checked
    whole, whatever the order of B's entries.
    """
    if A.cols != B.rows:
        raise ValueError("shape mismatch %dx%d @ %dx%d"
                         % (A.rows, A.cols, B.rows, B.cols))
    keep = None if rows is None else set(rows)
    a_cols = {}
    for (r, k), a in A.entries.items():
        if keep is None or r in keep:
            a_cols.setdefault(k, []).append((r, a))
    left = [0] * B.cols  # entries of each column of B not yet streamed
    for _, c in B.entries:
        left[c] += 1
    open_cols = {}
    for (k, c), b in B.entries.items():
        acc = open_cols.get(c)
        if acc is None:
            acc = open_cols[c] = {}
        for r, a in a_cols.get(k, ()):
            acc[r] = acc.get(r, 0) + a * b
        left[c] -= 1
        if not left[c]:
            del open_cols[c]
            for r, v in acc.items():
                if v:
                    return r, c, v
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
