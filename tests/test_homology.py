"""Betti numbers, Euler characteristics, the Poisson predicate."""

import importlib
import json
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from schouten import chains, cli, counting, homology, linalg, torus, words
from schouten.boundary import boundary, boundary_matrix
from schouten.homology import (
    HomologyInvariantError,
    HomologyReport,
    betti,
    dims_table,
    euler_characteristic,
    is_poisson,
)
from schouten.chains import (Chain, alphabet, basis_dim, block_dims, canonicalize_word,
                             enumerate_basis, max_arity)
from schouten.linalg import pivot_columns, rank_exact
from schouten.multivector import MultiVector, schouten_bracket
from schouten.torus import (Relabeling, enumerate_weight_zero, orbit_columns, unrank_words,
                            weight_zero_orbits)

DATA = Path(__file__).parent / "data"
# the module: `from schouten import boundary` gives the function
boundary_module = importlib.import_module("schouten.boundary")


# --- dimension tables --------------------------------------------------------


def test_dims_table_n2_weight_zero():
    # frozen regression; the m=2 value 18 is re-derived in test_chains via
    # brute-force enumeration
    assert dims_table(2, 0, 0) == [4, 18, 60, 120, 156, 134, 68, 15]


def test_dims_table_empty_block():
    assert dims_table(1, 1, 0) == []
    # h + n + w < 0: no word, and an alphabet without the Euler fields
    assert dims_table(2, 0, -3) == []
    assert betti(2, 2, 0, -3).betti == 0


def test_dims_and_euler_reject_n_below_one():
    with pytest.raises(ValueError):
        euler_characteristic(0, 0, 0)
    with pytest.raises(ValueError):
        dims_table(0, 1, 1)


def test_dims_match_enumeration():
    for (n, w, h) in [(2, 1, 1), (3, 0, 0)]:
        dims = dims_table(n, w, h)
        for m, d in enumerate(dims, start=1):
            assert len(enumerate_basis(n, m, w, h)) == d


# --- Betti numbers -----------------------------------------------------------


def test_betti_consistency_identity():
    rep = betti(2, 3, 0, 0)
    assert rep.dim == rep.betti + rep.rank_out + rep.rank_in
    assert rep.dim == 60
    assert (rep.rank_out, rep.rank_in, rep.betti) == (14, 46, 0)


def test_betti_rejects_ranks_that_overshoot(monkeypatch):
    # a rank above what the dimensions allow must fail loudly, also under
    # python -O, instead of reporting a negative Betti number; every map of
    # the tower is ranked by pivot_columns, through linalg.echelon
    monkeypatch.setattr(linalg, "echelon", lambda rows: ([0] * (len(rows) + 1), [], []))
    with pytest.raises(HomologyInvariantError, match="negative Betti number"):
        betti(2, 3, 0, 0)


def test_betti_rejects_weight_split_ranks_out_of_range(monkeypatch):
    # dim C_1 inflated: the v != 0 part of d: C_2 -> C_1 would need a rank
    # above dim C_2 less its weight-0 words
    real = homology.block_dims
    monkeypatch.setattr(homology, "block_dims",
                        lambda n, w, h: (1, real(n, w, h)[1] + 1000) + real(n, w, h)[2:])
    with pytest.raises(HomologyInvariantError, match="weight v != 0 part of d: C_2 -> C_1"):
        betti(2, 3, 0, 0)


def test_dims_table_rejects_words_beyond_max_arity(monkeypatch):
    monkeypatch.setattr(counting, "max_arity", lambda n, w, h: 1)
    with pytest.raises(HomologyInvariantError, match="beyond max arity"):
        dims_table(2, 0, 0)


def reference_betti(n, m, w, h):
    """betti before the weight split and clearing: both boundary matrices
    of the whole block ranked in full."""
    basis_m = enumerate_basis(n, m, w, h)
    basis_lo = enumerate_basis(n, m - 1, w, h) if m >= 2 else None
    basis_hi = enumerate_basis(n, m + 1, w, h)
    if m >= 2 and len(basis_m) and len(basis_lo):
        rank_out = rank_exact(boundary_matrix(n, m, w, h, basis_m, basis_lo).matrix)
    else:
        rank_out = 0
    if len(basis_hi) and len(basis_m):
        rank_in = rank_exact(boundary_matrix(n, m + 1, w, h, basis_hi, basis_m).matrix)
    else:
        rank_in = 0
    return HomologyReport(n, m, w, h, len(basis_m),
                          len(basis_lo) if basis_lo is not None else 0,
                          len(basis_hi), rank_out, rank_in,
                          len(basis_m) - rank_out - rank_in)


# (n, w, h) -> largest m compared; None is the whole tower up to max_arity.
# The n=2 (1,2) and (2,2) towers are cut at m = 4: their higher blocks run
# to 10570 and 40622 words, minutes of elimination for the reference.
CLEARING_GRID = {(n, w, h): (4 if (n, w, h) in ((2, 1, 2), (2, 2, 2)) else None)
                 for n in (1, 2) for (w, h) in ((0, 0), (0, 1), (1, 1), (1, 2), (2, 2))}


@pytest.mark.parametrize("nwh", sorted(CLEARING_GRID), ids="n{0[0]}-w{0[1]}-h{0[2]}".format)
def test_betti_with_clearing_matches_reference(nwh):
    n, w, h = nwh
    top = CLEARING_GRID[nwh] or max_arity(n, w, h)
    for m in range(1, top + 1):
        assert betti(n, m, w, h) == reference_betti(n, m, w, h)


# the nine blocks of the homology-wide benchmark workload
WIDE_BLOCKS = [(3, 2, 0, 0), (3, 2, 1, 1), (3, 2, 2, 2), (3, 2, 1, 2), (3, 1, 0, 0),
               (3, 1, 1, 1), (3, 1, 2, 2), (3, 1, 1, 2), (3, 3, 0, 0)]


@pytest.mark.parametrize("block", WIDE_BLOCKS, ids="m{0[1]}-w{0[2]}-h{0[3]}".format)
def test_betti_with_clearing_matches_reference_wide(block):
    assert betti(*block) == reference_betti(*block)


# (n, m, w, h) -> (dim, rank_out, rank_in, betti): every nonzero Betti
# number of n = 1 and of the n = 2 weight (0, 0) tower, with the m = 6
# block between them, and the n = 2 weight (2, 2) blocks at m = 7 and 8
# (frozen in tests/data/betti_extended.json).  Each block but the last two
# takes milliseconds.  A rank that came out
# too high in betti and in reference_betti alike would show here, and only
# here, as a Betti number too low.
NONZERO_BLOCKS = {
    (1, 3, 0, 0): (1, 0, 0, 1),
    (2, 5, 0, 0): (156, 74, 80, 2),
    (2, 6, 0, 0): (134, 80, 54, 0),
    (2, 7, 0, 0): (68, 54, 13, 1),
    (2, 8, 0, 0): (15, 13, 0, 2),
    # the deep nonzero blocks: about one second each in orbit coordinates
    (2, 7, 2, 2): (32596, 12779, 19816, 1),
    (2, 8, 2, 2): (40622, 19816, 20805, 1),
}


@pytest.mark.parametrize("block", sorted(NONZERO_BLOCKS), ids=lambda b: "n%d-m%d" % b[:2] + (
    "-w%d-h%d" % b[2:] if b[2:] != (0, 0) else ""))
def test_betti_pins_nonzero_blocks(block):
    rep = betti(*block)
    assert (rep.dim, rep.rank_out, rep.rank_in, rep.betti) == NONZERO_BLOCKS[block]


EXTENDED = {tuple(r[k] for k in ("n", "m", "w", "h")): r
            for r in json.loads((DATA / "betti_extended.json").read_text())["reports"]}


def test_extended_table_dims_match_block_dims():
    for (n, m, w, h), r in EXTENDED.items():
        dims = block_dims(n, w, h)
        assert (r["dim_lower"], r["dim"], r["dim_upper"]) == dims[m - 1:m + 2]


@pytest.mark.parametrize("block", [(4, 2, 2, 2), (5, 2, 1, 1)], ids="n{0[0]}-m{0[1]}-w{0[2]}".format)
def test_betti_pins_extended_blocks(block):
    # the blocks of tests/data/betti_extended.json that take under a second;
    # README lists the others
    rep = betti(*block)
    assert {k: getattr(rep, k) for k in HomologyReport.__slots__} == EXTENDED[block]


def torus_weight_of(word):
    """sum over the factors x^beta d_alpha of beta - 1_alpha, computed
    here independently of the package."""
    n = len(word[0][1])
    return tuple(sum(beta[l] - (l + 1 in alpha) for alpha, beta in word) for l in range(n))


# blocks whose weights have the widest digits in enumerate_weight_zero's
# base K = 2m(h + n + w + 2) + 1: n = 2 with large w = h, up to the first
# arity whose words reach 10^4, and n = 4.  (Over R^1 every generator has
# i = 0, so an n = 1 word has w = 0, and (1, m, 0, 0) is in CLEARING_GRID
# up to its top arity.)
WIDE_DIGIT_BLOCKS = [(2, 4, 4, 4), (2, 5, 4, 4), (2, 5, 5, 5), (2, 6, 6, 6),
                     (4, 1, 1, 1), (4, 2, 1, 1), (4, 1, 2, 2), (4, 2, 2, 2)]


@pytest.mark.parametrize("block", sorted(
    {(n, m, w, h) for (n, w, h), top in CLEARING_GRID.items()
     for m in range(1, (top or max_arity(n, w, h)) + 2)}
    | {(n, k, w, h) for (n, m, w, h) in WIDE_BLOCKS for k in range(1, m + 2)}
    | set(WIDE_DIGIT_BLOCKS)),
    ids="n{0[0]}-m{0[1]}-w{0[2]}-h{0[3]}".format)
def test_weight_zero_enumeration_filters_the_basis(block):
    # the words betti reads: C_1, ..., C_{m+1} of every compared block
    basis = enumerate_basis(*block)
    expect = [code for code, word in zip(basis.codes, basis.words)
              if not any(torus_weight_of(word))]
    zero = enumerate_weight_zero(*block)
    assert zero.codes == expect
    assert zero.alphabet is basis.alphabet


# every weight block (n, w, h) on which tier-1 runs betti, with the largest
# g-degree j of a generator it checks: None for the whole alphabet, and for
# the n = 4, 5 pins those of classes j <= h + m, as betti checks
TIER1_ALPHABETS = {(n, w, h): None for n in (1, 2, 3) for w in (0, 1, 2) for h in (-1, 0, 1, 2)}
TIER1_ALPHABETS.update({(4, 2, 2): 4, (5, 1, 1): 3})


@pytest.mark.parametrize("nwh", sorted(TIER1_ALPHABETS), ids="n{0[0]}-w{0[1]}-h{0[2]}".format)
def test_euler_fields_scale_generators_by_their_weight(nwh):
    n, w, h = nwh
    jmax = TIER1_ALPHABETS[nwh]
    gens = [gen for gen in alphabet(n, w, h).gens if jmax is None or sum(gen[1]) - 1 <= jmax]
    for l in range(1, n + 1):
        E = MultiVector.monomial(n, 1, tuple(int(k == l) for k in range(1, n + 1)), (l,))
        for gen in gens:
            g = MultiVector(n, {gen: 1})
            v = torus_weight_of((gen,))[l - 1]
            assert schouten_bracket(E, g) == v * g
            assert schouten_bracket(g, E) == -v * g


@pytest.mark.parametrize("n, w, h, top", [(2, 1, 1, None), (3, 0, 0, 3)])
def test_unrank_words_is_a_bijection_onto_the_basis(n, w, h, top):
    """unrank_words, which verify homotopy samples by, takes the positions
    0..dim-1 of C_m one to one onto the words of enumerate_basis, each
    canonical, and any increasing subset of positions to the same words."""
    for m in range(1, (top or max_arity(n, w, h)) + 1):
        basis = enumerate_basis(n, m, w, h)
        words = list(unrank_words(n, m, w, h, range(len(basis))))
        assert len(words) == len(basis) == basis_dim(n, m, w, h)
        assert sorted(words) == sorted(basis.words)
        assert len(set(words)) == len(words)
        assert all(canonicalize_word(word) == (1, word) for word in words)
        assert list(unrank_words(n, m, w, h, range(1, len(basis), 5))) == words[1::5]


def test_betti_enumerates_no_whole_block(monkeypatch):
    def refuse(*args):
        raise AssertionError("enumerate_basis called")

    assert not hasattr(homology, "enumerate_basis") and not hasattr(torus, "enumerate_basis")
    for module in (chains, boundary_module, words):
        monkeypatch.setattr(module, "enumerate_basis", refuse)
    for block in [(2, 3, 1, 1), (2, 5, 0, 0), (3, 2, 2, 2), (2, 2, 0, 1), (3, 1, 1, 2)]:
        betti(*block)


def test_betti_rejects_a_wrong_euler_bracket(monkeypatch, capsys):
    # [x_1 d_1, g] doubled in the direction templates, from which the
    # bracket table and the Euler check are both evaluated: the counts of
    # the weights v != 0 would rest on a false identity, so betti refuses
    # the block
    real = words._direction_terms

    def doubled(alpha_a, alpha_b):
        out = real(alpha_a, alpha_b)
        if alpha_a == (1,):
            out = tuple((i, 2 * s_a, 2 * s_b, alpha) for i, s_a, s_b, alpha in out)
        return out

    # fresh alphabets, so that their templates are built through `doubled`
    monkeypatch.setattr(words, "_ALPHABETS", {})
    monkeypatch.setattr(words, "_direction_terms", doubled)
    with pytest.raises(HomologyInvariantError, match="Euler field x_1 d_1"):
        betti(2, 3, 1, 1)
    rc = cli.main(["betti", "--n", "2", "--m", "3", "--w", "1", "--h", "1"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("internal invariant violated: the Euler field x_1 d_1")
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_betti_checks_the_euler_bracket_on_a_block_without_matrices(monkeypatch, capsys):
    # the w != h block (3; 2, 1, 2) has no weight-0 word, so betti
    # assembles nothing and rests every rank on the Euler identity; a
    # doubled [E_1, g] from _bracket must still make it exit 1 with one line
    real = words._bracket

    def doubled(A, a, b):
        out = real(A, a, b)
        if A.gens[a] == ((1,), (1,) + (0,) * (A.n - 1)):
            out = tuple((r, 2 * c) for r, c in out)
        return out

    monkeypatch.setattr(torus, "_bracket", doubled)
    rc = cli.main(["betti", "--n", "3", "--m", "2", "--w", "1", "--h", "2"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("internal invariant violated: the Euler field x_1 d_1")
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_betti_rejects_a_bracket_that_breaks_coordinate_symmetry(monkeypatch, capsys):
    # one sign of the template of the direction sets (1, 2) and (1, 3)
    # negated: no bracket of an Euler field uses that template, so the
    # Euler check passes, but the bracket no longer commutes with swapping
    # x_1 and x_2, on which the orbit coordinates rest, so betti refuses
    # the block
    real = words._direction_terms

    def negated(alpha_a, alpha_b):
        out = real(alpha_a, alpha_b)
        if (alpha_a, alpha_b) == ((1, 2), (1, 3)):
            i, s_a, s_b, alpha = out[0]
            out = ((i, -s_a, s_b, alpha),) + out[1:]
        return out

    assert any(s_a for _, s_a, _, _ in real((1, 2), (1, 3)))
    # fresh alphabets, so that their templates are built through `negated`
    monkeypatch.setattr(words, "_ALPHABETS", {})
    monkeypatch.setattr(words, "_direction_terms", negated)
    assert torus.euler_bracket_failure(3, 2, 1, 1) is None
    with pytest.raises(HomologyInvariantError, match="does not commute with swapping x_1 and x_2"):
        betti(3, 2, 1, 1)
    rc = cli.main(["betti", "--n", "3", "--m", "2", "--w", "1", "--h", "1"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("internal invariant violated: the bracket template of directions")
    assert "(n=3, w=1, h=1)" in err
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_betti_rejects_a_term_outside_the_weight_zero_words(monkeypatch, capsys):
    # a boundary term that is no weight-0 word of C_{m-1} (here the word
    # itself, of arity m) has no orbit row to fold into: WeightEscapeError,
    # exit 1 with one line
    monkeypatch.setattr(torus, "_word_boundary", lambda A, word: {word: 1})
    with pytest.raises(words.WeightEscapeError, match=r"left block \(m=3, w=1, h=1\)"):
        betti(2, 3, 1, 1)
    rc = cli.main(["betti", "--n", "2", "--m", "3", "--w", "1", "--h", "1"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("internal invariant violated: boundary of ")
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def swapped(chain, t):
    """The chain with x_t and x_{t+1}, and d_t and d_{t+1}, exchanged,
    computed here from the generators: x^beta d_alpha goes to x^beta'
    d_alpha', beta' and alpha' with t and t + 1 exchanged, times -1 when
    alpha holds both (the d_l anticommute), and each word is put back in
    the canonical order by Chain.from_word."""
    terms = {}
    for word, c in chain.terms.items():
        sign = 1
        factors = []
        for alpha, beta in word:
            if t in alpha and t + 1 in alpha:
                sign = -sign
            moved = list(beta)
            moved[t - 1], moved[t] = beta[t], beta[t - 1]
            factors.append((tuple(sorted({t: t + 1, t + 1: t}.get(l, l) for l in alpha)),
                            tuple(moved)))
        for out, d in Chain.from_word(chain.n, factors, sign * c).terms.items():
            terms[out] = terms.get(out, 0) + d
    return Chain(chain.n, terms)


@pytest.mark.parametrize("block", [(2, 3, 1, 1), (2, 4, 2, 2), (2, 3, 1, 2), (3, 2, 1, 1),
                                   (3, 3, 0, 0), (3, 2, 2, 2)],
                         ids="n{0[0]}-m{0[1]}-w{0[2]}-h{0[3]}".format)
def test_boundary_commutes_with_adjacent_transpositions(block):
    # the orbit coordinates of betti rest on d(sigma . c) = sigma . d(c) for
    # every coordinate permutation sigma; the adjacent swaps generate S_n.
    # Checked on 30 seeded words of each block through the public Chain
    # boundary, with the swap computed above, of all weights
    n = block[0]
    basis = enumerate_basis(*block).words
    for word in random.Random("swap:%d:%d:%d:%d" % block).sample(basis, 30):
        c = Chain(n, {word: 1})
        for t in range(1, n):
            image = swapped(c, t)
            assert swapped(image, t) == c
            assert boundary(image) == swapped(boundary(c), t)


@pytest.mark.parametrize("nwh", [(2, 1, 1), (2, 0, 0), (2, 2, 2)], ids="w{0[1]}-h{0[2]}".format)
def test_weight_zero_orbits_follow_the_swap(nwh):
    # over R^2, S_2 is {1, swap}: a weight-0 word u with swap(u) = -u lies
    # in a dropped orbit (its orbit sum is 0), and otherwise u and swap(u)
    # = c v share one row, with signs in the orbit sum that differ by c.
    # Among the dropped words is x_1 x_2 d_1 ^ d_2, the one weight-0 word of
    # C_1 of the (1, 1) block.  betti still equals the full elimination
    n, w, h = nwh
    relabeling = Relabeling(n, w, h)
    rank_of = relabeling.alphabet.rank_of
    dropped = 0
    for m in range(1, 5):
        orbits = weight_zero_orbits(n, m, w, h, relabeling)
        codes = enumerate_weight_zero(n, m, w, h)
        assert orbits.size == len(codes) and set(orbits.fold) == set(codes.codes)
        assert sorted(orbits.reps) == orbits.reps
        for word in codes.words:
            code = tuple(map(rank_of, word))
            ((image, c),) = swapped(Chain(n, {word: 1}), 1).terms.items()
            f, g = orbits.fold[code], orbits.fold[tuple(map(rank_of, image))]
            if image == word and c == -1:
                assert f is None
                dropped += 1
            else:
                assert f is not None and g is not None
                assert f == g if c == 1 else f == ~g
                assert orbits.reps[max(f, ~f)] <= code
        if m <= 3 or (w, h) != (2, 2):
            assert betti(n, m, w, h) == reference_betti(n, m, w, h)
    assert dropped
    if (w, h) == (1, 1):
        x12 = (rank_of(((1, 2), (1, 1))),)
        orbits = weight_zero_orbits(2, 1, 1, 1, relabeling)
        assert (orbits.size, orbits.reps, orbits.fold) == (1, [], {x12: None})


def test_n1_orbits_are_the_words():
    # over R^1 the group is trivial: every weight-0 word is an orbit of its
    # own, with sign 1, and betti keeps the pinned nonzero Betti numbers
    for m in range(1, max_arity(1, 0, 0) + 1):
        orbits = weight_zero_orbits(1, m, 0, 0, Relabeling(1, 0, 0))
        codes = enumerate_weight_zero(1, m, 0, 0).codes
        assert orbits.reps == codes
        assert orbits.fold == {code: i for i, code in enumerate(codes)}
    for block, pinned in NONZERO_BLOCKS.items():
        if block[0] == 1:
            rep = betti(*block)
            assert (rep.dim, rep.rank_out, rep.rank_in, rep.betti) == pinned


def weight_zero_columns(n, m, w, h):
    """The S_n orbits of the weight-0 words of C_m and of C_{m-1}, and the
    columns of d: C_m -> C_{m-1} on their orbit sums, as betti streams
    them."""
    relabeling = Relabeling(n, w, h)
    domain = weight_zero_orbits(n, m, w, h, relabeling)
    codomain = weight_zero_orbits(n, m - 1, w, h, relabeling)
    return domain, codomain, list(orbit_columns(relabeling.alphabet, domain.reps,
                                                codomain.fold, m, w, h))


def corrupted_columns(m_in, key, change):
    """orbit_columns with the entry key = (row, col) of the arity-m_in
    stream replaced by change(entry)."""
    def columns(A, reps, fold, m, w, h):
        for col, column in enumerate(orbit_columns(A, reps, fold, m, w, h)):
            if m == m_in and col == key[1]:
                column = dict(column)
                column[key[0]] = change(column[key[0]])
            yield column
    return columns


def test_betti_rejects_nonzero_boundary_squared(monkeypatch, capsys):
    # negate one entry of d_in = d(C_4 -> C_3) in a row whose column of
    # d_out = d(C_3 -> C_2) is nonzero, so that d_out . d_in != 0; both in
    # the orbit coordinates that betti assembles
    d_out = weight_zero_columns(2, 3, 1, 1)[2]
    d_in = weight_zero_columns(2, 4, 1, 1)[2]
    key = next((r, c) for c, column in enumerate(d_in) for r in column if d_out[r])
    monkeypatch.setattr(homology, "orbit_columns", corrupted_columns(4, key, lambda v: -v))
    with pytest.raises(HomologyInvariantError, match="boundary squared"):
        betti(2, 3, 1, 1)
    rc = cli.main(["betti", "--n", "2", "--m", "3", "--w", "1", "--h", "1"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("internal invariant violated: boundary squared")
    assert "(n=2, m=3, w=1, h=1)" in err
    assert len(err.splitlines()) == 1 and "Traceback" not in err


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_betti_checks_every_map_of_the_tower(monkeypatch, capsys, k):
    # betti(2, 5, 0, 0) checks each of d_3..d_6 against the cleared map
    # below it; one negated entry of d_k, in a row whose column of d_{k-1}
    # is nonzero, makes d_{k-1} . d_k != 0 and must raise, naming k, also
    # for the intermediate maps whose rank is never reported.  (In the
    # (1, 1) block d_2 is 0 on orbit sums, so d_3 is not checked there.)
    d_below = weight_zero_columns(2, k - 1, 0, 0)[2]
    d_k = weight_zero_columns(2, k, 0, 0)[2]
    key = next((r, c) for c, column in enumerate(d_k) for r in column if d_below[r])
    monkeypatch.setattr(homology, "orbit_columns", corrupted_columns(k, key, lambda v: -v))
    with pytest.raises(HomologyInvariantError, match=r"d_%d \. d_%d is" % (k - 1, k)):
        betti(2, 5, 0, 0)
    rc = cli.main(["betti", "--n", "2", "--m", "5", "--w", "0", "--h", "0"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("internal invariant violated: boundary squared")
    assert "(n=2, m=5, w=0, h=0)" in err and "d_%d . d_%d" % (k - 1, k) in err
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_betti_streams_only_the_top_map(monkeypatch):
    # every map d_2..d_{m+1} between orbit sums of weight 0 is ranked once
    # by pivot_columns, in order, but d_2, whose codomain has no orbit sum
    # here (the one weight-0 word of C_1, x_1 x_2 d_1 ^ d_2, is negated by
    # the swap); each below the top is held as a list of its cleared
    # columns, and d_{m+1} comes as a stream that is never held
    calls = []
    real = homology.pivot_columns

    def recording(columns, rows):
        calls.append((type(columns) is list, rows))
        return real(columns, rows)

    monkeypatch.setattr(homology, "pivot_columns", recording)
    betti(2, 5, 1, 1)
    relabeling = Relabeling(2, 1, 1)
    rows = [len(weight_zero_orbits(2, k, 1, 1, relabeling).reps) for k in range(1, 6)]
    assert rows[0] == 0 and all(rows[1:])
    assert calls == [(True, r) for r in rows[1:-1]] + [(False, rows[-1])]


def test_boundary_squared_check_on_pivot_rows_catches_corrupted_entries(monkeypatch):
    # betti checks d_out . d_in = 0 only on the pivot rows of the cleared
    # d_out (29 of the 35 orbit rows here, as for the uncleared d_out);
    # each of 18 corrupted d_in entries, in a row k whose d_out column is
    # nonzero, must still raise, also where that column meets rows that
    # are not pivots of the uncleared d_out
    _, codomain, d_out = weight_zero_columns(2, 4, 1, 1)
    _, pivot_rows = pivot_columns(d_out, len(codomain.reps))
    d_in = weight_zero_columns(2, 5, 1, 1)[2]
    keys = sorted((r, c) for c, column in enumerate(d_in) for r in column if d_out[r])[::63]
    assert len(keys) == 18
    assert len(pivot_rows) < len(codomain.reps)
    assert any(set(d_out[k[0]]) - set(pivot_rows) for k in keys)
    for key in keys:
        monkeypatch.setattr(homology, "orbit_columns",
                            corrupted_columns(5, key, lambda v: v + 1))
        with pytest.raises(HomologyInvariantError, match="boundary squared"):
            betti(2, 4, 1, 1)


def test_betti_holds_d_in_once(monkeypatch):
    # d_in (99 orbit sums of its 594 weight-0 words here) streams into the
    # echelon's integer rows, and d_out = d(C_2 -> C_1) is 0 on orbit sums,
    # as the 3 weight-0 words of C_1 lie in dropped orbits: betti builds no
    # SparseMatrixQ at all
    shapes = []
    init = linalg.SparseMatrixQ.__init__

    def counting(self, rows, cols, entries=None):
        shapes.append((rows, cols))
        init(self, rows, cols, entries)

    monkeypatch.setattr(linalg.SparseMatrixQ, "__init__", counting)
    rep = betti(3, 2, 1, 1)
    assert shapes == []
    assert (rep.dim_lower, rep.dim, rep.dim_upper) == (18, 504, 6507)


def test_first_betti_always_zero_small():
    for n in (2, 3):
        for w in (0, 1):
            for h in (-1, 0, 1):
                assert betti(n, 1, w, h).betti == 0


def test_second_betti_zero_on_diagonal_blocks():
    assert betti(2, 2, 0, 0).betti == 0
    assert betti(2, 2, 1, 1).betti == 0


def test_off_diagonal_blocks_vanish():
    assert betti(2, 2, 0, 1).betti == 0
    assert betti(2, 2, 1, 0).betti == 0


def test_higher_betti_profile_n2_weight_zero():
    """Frozen regression data: the nonzero Betti numbers of the n=2 weight
    (0,0) tower sit at m = 5, 7, 8."""
    profile = [betti(2, m, 0, 0).betti for m in range(1, 9)]
    assert profile == [0, 0, 0, 0, 2, 0, 1, 2]


def test_csv_row_shape():
    rep = betti(2, 2, 0, 0)
    row = rep.csv_row()
    assert row.split(",")[0] == "2"
    assert len(row.split(",")) == len(HomologyReport.CSV_HEADER.split(","))


# --- Euler characteristic ----------------------------------------------------


def test_euler_zero_blocks():
    for (w, h) in [(0, 0), (1, 1), (0, 1)]:
        assert euler_characteristic(2, w, h) == 0


def test_n3_counts_pinned():
    # counted without enumeration; before counting, enumerating n=3 (1,1)
    # ran out of memory at m=7
    for (w, h) in [(0, 0), (1, 1), (1, 2)]:
        assert euler_characteristic(3, w, h) == 0
    assert dims_table(3, 0, 0)[:3] == [9, 90, 660]
    # the (3, 3, 2, 2) boundary matrix is 954 x 23373
    assert dims_table(3, 2, 2)[1:3] == [954, 23373]


def test_euler_equals_alternating_betti_sum():
    """Independent check: chi = sum (-1)^m betti_m including the scalar
    block at m = 0, which contributes 1 only at weight (0, 0)."""
    for (n, w, h) in [(2, 1, 1), (2, 0, 1)]:
        mm = max_arity(n, w, h)
        chi_b = (1 if (w, h) == (0, 0) else 0)
        # scalars are a homology class of their own at m = 0: nothing maps
        # onto them (d of a 1-chain is zero) so betti_0 = dim C_0
        for m in range(1, mm + 1):
            chi_b += (-1) ** m * betti(n, m, w, h).betti
        assert euler_characteristic(n, w, h) == chi_b


# --- Poisson predicate -------------------------------------------------------


def poly_mul(p, q):
    out = {}
    for b1, c1 in p.items():
        for b2, c2 in q.items():
            k = tuple(x + y for x, y in zip(b1, b2))
            out[k] = out.get(k, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def poly_diff(p, i):
    out = {}
    for b, c in p.items():
        if b[i - 1]:
            nb = list(b)
            nb[i - 1] -= 1
            out[tuple(nb)] = out.get(tuple(nb), 0) + c * b[i - 1]
    return out


def poly_add(p, q, scale=1):
    out = dict(p)
    for k, c in q.items():
        out[k] = out.get(k, 0) + scale * c
    return {k: c for k, c in out.items() if c}


def poisson_bracket_oracle(pi, f, g):
    """{f, g} = sum_{i<j} pi_ij (d_i f d_j g - d_j f d_i g), polynomials as
    exponent dicts; independent of the bracket implementation."""
    n = pi.n
    out = {}
    for (alpha, beta), c in pi.terms.items():
        i, j = alpha
        coeff = {beta: c}
        t1 = poly_mul(coeff, poly_mul(poly_diff(f, i), poly_diff(g, j)))
        t2 = poly_mul(coeff, poly_mul(poly_diff(f, j), poly_diff(g, i)))
        out = poly_add(out, t1)
        out = poly_add(out, t2, -1)
    return out


def jacobiator_vanishes(pi):
    """Jacobi identity on all coordinate triples; equivalent to [pi,pi]=0
    because the Jacobiator is a derivation in each slot."""
    n = pi.n

    def x(i):
        b = [0] * n
        b[i - 1] = 1
        return {tuple(b): Fraction(1)}

    def pb(f, g):
        return poisson_bracket_oracle(pi, f, g)

    for i, j, k in combinations(range(1, n + 1), 3):
        total = poly_add(poly_add(pb(x(i), pb(x(j), x(k))),
                                  pb(x(j), pb(x(k), x(i)))),
                         pb(x(k), pb(x(i), x(j))))
        if total:
            return False
    return True


def random_bivector(rng, n, nterms):
    terms = {}
    for _ in range(nterms):
        alpha = tuple(sorted(rng.sample(range(1, n + 1), 2)))
        beta = [0] * n
        for _ in range(rng.randint(0, 2)):
            beta[rng.randrange(n)] += 1
        terms[(alpha, tuple(beta))] = Fraction(rng.randint(-3, 3))
    return MultiVector(n, terms)


def test_is_poisson_against_jacobiator_oracle():
    rng = random.Random(59)
    seen_false = False
    for _ in range(80):
        pi = random_bivector(rng, 3, rng.randint(1, 3))
        if pi.is_zero():
            continue
        got = is_poisson(pi)
        assert got == jacobiator_vanishes(pi)
        seen_false = seen_false or not got
    assert seen_false  # the sample must contain genuine non-Poisson bivectors


def test_is_poisson_known_structures():
    # rotational structure: x1 d2^d3 + x2 d3^d1 + x3 d1^d2
    pi = (MultiVector.monomial(3, 1, (1, 0, 0), (2, 3))
          - MultiVector.monomial(3, 1, (0, 1, 0), (1, 3))
          + MultiVector.monomial(3, 1, (0, 0, 1), (1, 2)))
    assert is_poisson(pi)
    # constant structures are always Poisson
    assert is_poisson(MultiVector.monomial(3, 1, (0, 0, 0), (1, 2)))
    # every bivector on R^2 is Poisson (the Jacobiator is a 3-vector)
    rng = random.Random(61)
    for _ in range(10):
        pi2 = random_bivector(rng, 2, 2)
        if pi2:
            assert is_poisson(pi2)


def test_is_poisson_rejects_non_bivector():
    with pytest.raises(ValueError):
        is_poisson(MultiVector.coordinate_field(2, 1))
    assert is_poisson(MultiVector.zero(2))
