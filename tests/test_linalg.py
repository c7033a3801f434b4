"""Exact sparse linear algebra: rank, kernel, echelon against a reference."""

import random
from fractions import Fraction
from math import gcd

import pytest

from schouten.boundary import boundary_matrix
from schouten.linalg import (
    SparseMatrixQ,
    column_nonzero,
    echelon,
    kernel_basis,
    pivot_columns,
    rank_exact,
)


# --- matrix oracles: plain products and transposes, used only here ---------


def identity(k):
    return SparseMatrixQ(k, k, {(i, i): 1 for i in range(k)})


def transpose(M):
    return SparseMatrixQ(M.cols, M.rows, {(c, r): v for (r, c), v in M.entries.items()})


def mul_vector(M, v):
    out = [Fraction(0)] * M.rows
    for (r, c), a in M.entries.items():
        if v[c]:
            out[r] += a * v[c]
    return out


def columns_of(M):
    """M's columns as {row: value} dicts, in column order; each column
    keeps its rows in the order of M.entries."""
    columns = [{} for _ in range(M.cols)]
    for (r, c), v in M.entries.items():
        columns[c][r] = v
    return columns


def matmul(A, B):
    if A.cols != B.rows:
        raise ValueError("shape mismatch %dx%d @ %dx%d" % (A.rows, A.cols, B.rows, B.cols))
    by_row = {}
    for (r, c), v in B.entries.items():
        by_row.setdefault(r, []).append((c, v))
    entries = {}
    for (r, k), a in A.entries.items():
        for c, b in by_row.get(k, ()):
            entries[(r, c)] = entries.get((r, c), 0) + a * b
    return SparseMatrixQ(A.rows, B.cols, entries)


def dense_rank_oracle(M):
    """Plain Gaussian elimination over Fraction on a dense copy."""
    a = [[Fraction(0)] * M.cols for _ in range(M.rows)]
    for (r, c), v in M.entries.items():
        a[r][c] = v
    rank = 0
    col = 0
    while rank < M.rows and col < M.cols:
        piv = None
        for r in range(rank, M.rows):
            if a[r][col]:
                piv = r
                break
        if piv is None:
            col += 1
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = 1 / a[rank][col]
        a[rank] = [x * inv for x in a[rank]]
        for r in range(M.rows):
            if r != rank and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[rank])]
        rank += 1
        col += 1
    return rank


def _reference_normalize(row):
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            break
    lead = row[min(row)]
    if g > 1:
        row = {c: v // g for c, v in row.items()}
        lead //= g
    if lead < 0:
        row = {c: -v for c, v in row.items()}
    return row


def reference_echelon(rows):
    """The straightforward O(rows^2) form of the echelon pivot rule: rescan
    every live row for the smallest leading column, take the first row with
    fewest nonzeros there, eliminate it from all rows, normalize each.
    Also returns the input index of each pivot row."""
    work = [(i, _reference_normalize(dict(r))) for i, r in enumerate(rows) if r]
    pivots = []
    ech = []
    pivot_rows = []
    while work:
        col = min(min(r) for _, r in work)
        best = -1
        best_nnz = -1
        for idx, (_, r) in enumerate(work):
            if min(r) == col:
                nnz = len(r)
                if best < 0 or nnz < best_nnz:
                    best, best_nnz = idx, nnz
        row_index, piv = work.pop(best)
        pv = piv[col]
        nxt = []
        for i, r in work:
            rv = r.get(col)
            if rv is None:
                nxt.append((i, r))
                continue
            out = {}
            for c, v in r.items():
                if c != col:
                    out[c] = v * pv
            for c, v in piv.items():
                if c == col:
                    continue
                nv = out.get(c, 0) - v * rv
                if nv:
                    out[c] = nv
                elif c in out:
                    del out[c]
            if out:
                nxt.append((i, _reference_normalize(out)))
        work = nxt
        pivots.append(col)
        ech.append(piv)
        pivot_rows.append(row_index)
    return pivots, ech, pivot_rows


def random_integer_rows(rng, rows, cols, density):
    """Integer rows with small, often repeated entries and many equal row
    lengths, so that pivot ties on nonzero count are common."""
    values = (-4, -2, -1, -1, 1, 1, 1, 2, 3, 6)
    return [{c: rng.choice(values) for c in range(cols) if rng.random() < density}
            for _ in range(rows)]


def random_matrix(rng, rows, cols, density=0.3):
    entries = {}
    for r in range(rows):
        for c in range(cols):
            if rng.random() < density:
                entries[(r, c)] = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
    return SparseMatrixQ(rows, cols, entries)


def test_entry_bounds_checked():
    with pytest.raises(IndexError):
        SparseMatrixQ(2, 2, {(2, 0): Fraction(1)})


def test_identity_and_matmul():
    I = identity(4)
    rng = random.Random(3)
    M = random_matrix(rng, 4, 4)
    assert matmul(I, M).entries == M.entries
    assert matmul(M, I).entries == M.entries


def test_transpose_rank_invariant():
    rng = random.Random(9)
    for _ in range(20):
        M = random_matrix(rng, rng.randint(1, 8), rng.randint(1, 8))
        assert rank_exact(M) == rank_exact(transpose(M))


def test_rank_against_dense_oracle():
    rng = random.Random(13)
    for _ in range(60):
        M = random_matrix(rng, rng.randint(1, 10), rng.randint(1, 10),
                          density=rng.choice([0.1, 0.3, 0.7]))
        assert rank_exact(M) == dense_rank_oracle(M)


def test_rank_of_rank_one_products():
    rng = random.Random(19)
    for _ in range(20):
        rows, cols = rng.randint(2, 7), rng.randint(2, 7)
        u = [Fraction(rng.randint(-4, 4)) for _ in range(rows)]
        v = [Fraction(rng.randint(-4, 4)) for _ in range(cols)]
        entries = {(r, c): u[r] * v[c] for r in range(rows) for c in range(cols)}
        M = SparseMatrixQ(rows, cols, entries)
        expect = 1 if any(u) and any(v) else 0
        assert rank_exact(M) == expect


def test_kernel_vectors_are_in_null_space():
    rng = random.Random(29)
    for _ in range(40):
        M = random_matrix(rng, rng.randint(1, 8), rng.randint(1, 8))
        basis = kernel_basis(M)
        assert len(basis) == M.cols - rank_exact(M)
        for v in basis:
            assert all(x == 0 for x in mul_vector(M, v))


def test_kernel_vectors_independent():
    rng = random.Random(31)
    for _ in range(20):
        M = random_matrix(rng, rng.randint(2, 7), rng.randint(2, 7))
        basis = kernel_basis(M)
        if not basis:
            continue
        K = SparseMatrixQ(len(basis), M.cols,
                          {(i, j): v for i, row in enumerate(basis)
                           for j, v in enumerate(row) if v})
        assert rank_exact(K) == len(basis)


def test_echelon_matches_reference_bit_for_bit():
    rng = random.Random(37)
    ties = 0
    for _ in range(400):
        rows = random_integer_rows(rng, rng.randint(1, 12), rng.randint(1, 12),
                                   rng.choice([0.1, 0.3, 0.6, 0.9]))
        lengths = [len(r) for r in rows if r]
        ties += len(lengths) - len(set(lengths))
        assert echelon([dict(r) for r in rows]) == reference_echelon(rows)
    assert ties > 400
    for _ in range(40):
        M = random_matrix(rng, rng.randint(1, 9), rng.randint(1, 9))
        rows = M.row_dicts()
        assert echelon(rows) == reference_echelon(rows)


@pytest.mark.parametrize("block", [(3, 3, 1, 1), (2, 5, 1, 1)])
def test_echelon_matches_reference_on_boundary_matrices(block):
    rows = boundary_matrix(*block).matrix.row_dicts()
    got = echelon(rows)
    assert got == reference_echelon(rows)
    assert len(got[0]) == {(3, 3, 1, 1): 486, (2, 5, 1, 1): 647}[block]


def test_echelon_leaves_input_rows_alone():
    rows = [{0: 2, 1: -4}, {0: -3, 2: 6}, {1: 5}]
    before = [dict(r) for r in rows]
    pivots, ech, pivot_rows = echelon(rows)
    assert rows == before
    assert pivots == [0, 1, 2]
    assert pivot_rows == [0, 2, 1]
    assert all(r[c] > 0 for c, r in zip(pivots, ech))
    # rows of content 1 go in uncopied: the first becomes a pivot row as
    # it is, the second is updated and the third is negated, all unchanged
    rows = [{0: 1, 1: 2}, {0: 1, 2: 1}, {1: -1}]
    before = [dict(r) for r in rows]
    pivots, ech, pivot_rows = echelon(rows)
    assert rows == before
    assert (pivots, pivot_rows, ech) == ([0, 1, 2], [0, 2, 1], [{0: 1, 1: 2}, {1: 1}, {2: 1}])


def test_boundary_matrix_entries_are_integers():
    M = boundary_matrix(2, 3, 1, 1).matrix
    assert M.entries and all(type(v) is int for v in M.entries.values())
    assert all(type(v) is int for row in M.row_dicts() for v in row.values())


def test_fraction_rows_scaled_to_integers():
    M = SparseMatrixQ(2, 3, {(0, 0): Fraction(1, 2), (0, 2): Fraction(1, 3),
                             (1, 1): Fraction(4, 2)})
    assert M.entries[(1, 1)] == 2 and type(M.entries[(1, 1)]) is int
    assert M.row_dicts() == [{0: 3, 2: 2}, {1: 2}]


def test_echelon_deterministic():
    rng = random.Random(41)
    M = random_matrix(rng, 8, 8, density=0.5)
    a = echelon(M.row_dicts())
    b = echelon(M.row_dicts())
    assert a == b


def test_zero_and_degenerate_shapes():
    Z = SparseMatrixQ(0, 5, {})
    assert rank_exact(Z) == 0
    assert len(kernel_basis(Z)) == 5
    Z2 = SparseMatrixQ(5, 0, {})
    assert rank_exact(Z2) == 0
    assert kernel_basis(Z2) == []


def _rows_to_matrix(rows, cols):
    return SparseMatrixQ(len(rows), cols,
                         {(r, c): v for r, row in enumerate(rows) for c, v in row.items()})


def test_pivot_columns_select_independent_columns():
    rng = random.Random(37)
    for _ in range(200):
        cols = rng.randint(1, 12)
        M = _rows_to_matrix(random_integer_rows(rng, rng.randint(1, 12), cols,
                                                rng.choice([0.1, 0.3, 0.6, 0.9])), cols)
        columns = columns_of(M)
        piv, prow = pivot_columns(columns, M.rows)
        # the echelon of the columns in ascending order of nonzero count,
        # ties by index
        order = sorted(range(M.cols), key=lambda c: (len(columns[c]), c))
        position = {c: p for p, c in enumerate(order)}
        ref_piv, _, ref_rows = reference_echelon(
            [{position[c]: v for c, v in row.items()} for row in M.row_dicts()])
        assert (piv, prow) == ([order[p] for p in ref_piv], ref_rows)
        assert len(piv) == len(prow) == rank_exact(M)
        assert len(set(piv)) == len(piv) and len(set(prow)) == len(prow)
        assert all(0 <= c < M.cols for c in piv)
        assert all(0 <= r < M.rows for r in prow)
        position = {c: i for i, c in enumerate(piv)}
        sub = SparseMatrixQ(M.rows, len(piv), {(r, position[c]): v
                                               for (r, c), v in M.entries.items()
                                               if c in position})
        assert rank_exact(sub) == len(piv)
        # the pivot rows are independent, so (rank many) they span the rows
        position = {r: i for i, r in enumerate(prow)}
        rows_only = SparseMatrixQ(len(prow), M.cols, {(position[r], c): v
                                                      for (r, c), v in M.entries.items()
                                                      if r in position})
        assert rank_exact(rows_only) == len(prow)


def test_pivot_columns_on_boundary_matrix():
    M = boundary_matrix(2, 5, 1, 1).matrix
    piv, prow = pivot_columns(columns_of(M), M.rows)
    assert len(piv) == rank_exact(M) == 647
    assert len(set(piv)) == len(set(prow)) == 647
    assert M.rows == 848


def first_nonzero(a_cols, columns):
    """(row, col, value) of the first column of B = columns, in column
    order, whose product with A = a_cols column_nonzero finds nonzero; None
    when A @ B = 0."""
    for c, column in enumerate(columns):
        bad = column_nonzero(a_cols, column)
        if bad is not None:
            return bad[0], c, bad[1]
    return None


def test_column_nonzero_agrees_with_matmul():
    rng = random.Random(43)
    zero_seen = 0
    for _ in range(200):
        k = rng.randint(1, 6)
        A = random_matrix(rng, rng.randint(1, 6), k, density=rng.choice([0.1, 0.3]))
        B = random_matrix(rng, k, rng.randint(1, 6), density=rng.choice([0.1, 0.3]))
        # B's entries in a random order, so the rows of each column come shuffled
        items = list(B.entries.items())
        rng.shuffle(items)
        B.entries = dict(items)
        P = matmul(A, B)
        a_cols = columns_of(A)
        for c, column in enumerate(columns_of(B)):
            got = column_nonzero(a_cols, column)
            if any(key[1] == c for key in P.entries):
                r, v = got
                assert P.entries[(r, c)] == v != 0
            else:
                assert got is None
        zero_seen += P.is_zero()
    assert zero_seen > 20
    # a column row beyond A's columns is an error, never a silent 0
    with pytest.raises(IndexError):
        column_nonzero(columns_of(SparseMatrixQ(2, 3)), {3: 1})


def test_column_nonzero_catches_one_corrupted_entry():
    d_out = columns_of(boundary_matrix(2, 3, 1, 1).matrix)
    d_in = boundary_matrix(2, 4, 1, 1).matrix
    columns = columns_of(d_in)
    assert first_nonzero(d_out, columns) is None
    for key in [k for k in d_in.entries if d_out[k[0]]][::97]:
        corrupt = list(columns)
        corrupt[key[1]] = dict(columns[key[1]])
        corrupt[key[1]][key[0]] += 1
        bad = [c for c, column in enumerate(corrupt) if column_nonzero(d_out, column)]
        assert bad == [key[1]]
        r, v = column_nonzero(d_out, corrupt[key[1]])
        assert v == d_out[key[0]][r]


def test_product_on_pivot_rows_decides_the_whole_product():
    # A[pivot rows] @ B = 0 exactly when A @ B = 0, since the pivot rows
    # span A's row space; half the B here are built from A's null space
    rng = random.Random(47)
    zero_seen = nonzero_seen = 0
    for _ in range(200):
        A = random_matrix(rng, rng.randint(1, 7), rng.randint(1, 6), density=0.5)
        null = kernel_basis(A)
        if null and rng.random() < 0.5:
            B = SparseMatrixQ(A.cols, len(null), {(r, c): v for c, vec in enumerate(null)
                                                  for r, v in enumerate(vec) if v})
            if rng.random() < 0.5:
                key = (rng.randrange(B.rows), rng.randrange(B.cols))
                B.entries[key] = B.entries.get(key, 0) + 1
        else:
            B = random_matrix(rng, A.cols, rng.randint(1, 5), density=0.3)
        # pivot_columns takes integer columns: A's rows scaled as row_dicts does
        a_cols = columns_of(_rows_to_matrix(A.row_dicts(), A.cols))
        _, prow = pivot_columns(a_cols, A.rows)
        keep = set(prow)
        got = first_nonzero([{r: v for r, v in column.items() if r in keep}
                             for column in columns_of(A)], columns_of(B))
        P = matmul(A, B)
        if P.is_zero():
            zero_seen += 1
            assert got is None
        else:
            nonzero_seen += 1
            r, c, v = got
            assert r in prow and P.entries[(r, c)] == v != 0
    assert zero_seen > 40 and nonzero_seen > 40
