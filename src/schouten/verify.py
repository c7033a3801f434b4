"""The property suites of `schouten verify`: dsq, jacobi, weights, psi and
homotopy.

Each suite takes the parsed arguments (n, w, h, seed) and returns its
report, a dict with the suite's name, the number of items checked and a
list of failures, each a witness.  Each suite imports what it runs when it
runs, so `verify jacobi` loads no chain module and only `verify psi` loads
contraction.
"""

import math

HOMOTOPY_WORDS = 24  # words checked per arity by verify homotopy


def _random_generator(rng, n, max_beta):
    alpha = tuple(sorted(rng.sample(range(1, n + 1), rng.randint(1, n))))
    beta = [0] * n
    for _ in range(rng.randint(0, max_beta)):
        beta[rng.randrange(n)] += 1
    return alpha, tuple(beta)


def _verify_words(args, suite, blocks):
    """The report of a word suite.  blocks(n, w, h, top) yields, for
    m = 2..top, the basis of C_m and the positions of its failing words;
    top is max_arity, and each block is enumerated once."""
    from .counting import max_arity
    from .words import format_factor
    n, w, h = args.n, args.w, args.h
    failures = []
    checked = 0
    for basis, bad in blocks(n, w, h, max_arity(n, w, h)):
        checked += len(basis)
        failures.extend({"m": basis.m, "word": [format_factor(f) for f in basis.words[i]]}
                        for i in bad)
    return {"suite": suite, "n": n, "w": w, "h": h,
            "checked": checked, "failures": failures}


def _verify_dsq(args):
    """boundary(boundary(word)) = 0 for every basis word of the block."""
    from .boundary import boundary_squared_failures
    return _verify_words(args, "dsq", boundary_squared_failures)


def _verify_jacobi(args):
    """Graded antisymmetry and the super Jacobi identity on random
    homogeneous monomials."""
    import random
    from fractions import Fraction
    from .multivector import MultiVector, g_degree, schouten_bracket
    rng = random.Random(args.seed)
    n = args.n
    failures = []
    checked = 0
    for _ in range(200):
        A, B, C = (MultiVector(n, {_random_generator(rng, n, 4): Fraction(rng.randint(-3, 3) or 1)})
                   for _ in range(3))
        x, y, z = (g_degree(next(iter(M.terms))) for M in (A, B, C))
        anti = schouten_bracket(A, B) - (-1) ** (1 + x * y) * schouten_bracket(B, A)
        jac = ((-1) ** (x * z) * schouten_bracket(schouten_bracket(A, B), C)
               + (-1) ** (y * x) * schouten_bracket(schouten_bracket(B, C), A)
               + (-1) ** (z * y) * schouten_bracket(schouten_bracket(C, A), B))
        checked += 1
        if not anti.is_zero() or not jac.is_zero():
            failures.append({"triple": [sorted(M.terms) for M in (A, B, C)],
                             "antisymmetry": not anti.is_zero(),
                             "jacobi": not jac.is_zero()})
    return {"suite": "jacobi", "n": n, "seed": args.seed,
            "checked": checked, "failures": failures}


def _weight_escapes(n, w, h, top):
    """For m = 2..top, the basis of C_m and the positions of its words
    whose boundary has a term that is no word of C_{m-1}."""
    from .words import WeightEscapeError, boundary_columns, enumerate_basis
    lower = enumerate_basis(n, 1, w, h)
    for m in range(2, top + 1):
        basis = enumerate_basis(n, m, w, h)
        escapes = []
        for i, code in enumerate(basis.codes):
            try:
                next(boundary_columns(basis.alphabet, (code,), lower.index, m, w, h))
            except WeightEscapeError:
                escapes.append(i)
        yield basis, escapes
        lower = basis


def _verify_weights(args):
    """Weight bookkeeping: the boundary of every word of the blocks stays
    inside the (m-1, w, h) block."""
    return _verify_words(args, "weights", _weight_escapes)


def unrank_words(n, m, w, h, positions):
    """The words of C_m^{(w,h)} over R^n at the increasing `positions`, as
    generator tuples, without building the block.

    Positions count the words in the order enumerate_basis builds them
    before its sort: class multiset by class multiset, and inside one the
    picks of each class in lexicographic order, the last class fastest.  A
    class of d generators taken k times holds comb(d, k) picks for even i
    and comb(d + k - 1, k) for odd i, so a position is split over the
    classes in mixed radix and each pick is unranked on its own.
    """
    from .words import _class_multisets, alphabet
    A = alphabet(n, w, h)
    positions = iter(positions)
    pos = next(positions, None)
    start = 0
    for multiset in _class_multisets(n, m, w, h, (0, -1)):
        if pos is None:
            return
        # (ranks, 1 if odd, d, k, comb(d, k)): the k-multisets of an odd
        # class are its k-subsets of d = len(ranks) + k - 1, each slot t
        # less t
        parts = []
        for (i, j), k in multiset:
            ranks = A.classes[(i, j)]
            odd = i % 2
            d = len(ranks) + odd * (k - 1)
            parts.append((ranks, odd, d, k, math.comb(d, k)))
        end = start + math.prod(part[4] for part in parts)
        while pos is not None and pos < end:
            q = pos - start
            picks = []
            for ranks, odd, d, k, size in reversed(parts):
                q, r = divmod(q, size)
                picks.append([ranks[x - odd * t]
                              for t, x in enumerate(_unrank_combination(d, k, r))])
            yield tuple(A.gens[x] for pick in reversed(picks) for x in pick)
            pos = next(positions, None)
        start = end


def _unrank_combination(d, k, q):
    """The q-th k-subset of range(d) in lexicographic order, ascending.
    The subsets whose least element is x number comb(d - x - 1, k - 1)."""
    out = []
    x = 0
    for left in range(k, 0, -1):
        while q >= math.comb(d - x - 1, left - 1):
            q -= math.comb(d - x - 1, left - 1)
            x += 1
        out.append(x)
        x += 1
    return out


def _homotopy_words(n, w, h, seed):
    """(m, words) for m = 1..max_arity: the words of C_m of the block, or a
    seeded sample of HOMOTOPY_WORDS of them where it holds more, each
    built from its position (unrank_words), so no arity is built whole."""
    import random
    from .counting import basis_dim, max_arity
    rng = random.Random(seed)
    for m in range(1, max_arity(n, w, h) + 1):
        dim = basis_dim(n, m, w, h)
        positions = (range(dim) if dim <= HOMOTOPY_WORDS
                     else sorted(rng.sample(range(dim), HOMOTOPY_WORDS)))
        yield m, list(unrank_words(n, m, w, h, positions))


def _verify_homotopy(args):
    """Cartan's formula for the Euler fields E_l = x_l d_l: d(E_l ^^ c) +
    E_l ^^ d(c) = v_l c on seeded words c of the block, with v_l the sum of
    the exponents of x_l in c less the number of its factors that hold d_l,
    through the Chain boundary and wedge_chain."""
    from .boundary import boundary
    from .chains import Chain, wedge_chain
    from .words import format_factor
    n = args.n
    fields = [Chain(n, {(((l,), tuple(int(k == l) for k in range(1, n + 1))),): 1})
              for l in range(1, n + 1)]
    failures = []
    checked = 0
    for m, words in _homotopy_words(n, args.w, args.h, args.seed):
        for word in words:
            c = Chain(n, {word: 1})
            dc = boundary(c)
            for l, E in enumerate(fields, start=1):
                v = sum(beta[l - 1] - (l in alpha) for alpha, beta in word)
                if boundary(wedge_chain(E, c)) + wedge_chain(E, dc) != v * c:
                    failures.append({"m": m, "word": [format_factor(f) for f in word], "l": l})
            checked += 1
    return {"suite": "homotopy", "n": n, "w": args.w, "h": args.h, "seed": args.seed,
            "checked": checked, "failures": failures}


def _verify_psi(args):
    from .contraction import verify_psi_structure
    from .words import format_factor
    rep = verify_psi_structure(args.n, args.w)
    failures = [{"word": [format_factor(f) for f in v["word"]],
                 "type": v["type"], "stray_strata": [list(s) for s in v["stray_strata"]]}
                for v in rep["violations"]]
    out = {"suite": "psi", "n": rep["n"], "w": rep["w"], "checked": rep["checked"],
           "failures": failures}
    if rep["tl_vacuous"]:
        out["note"] = "no TL strata at this weight; the ascent clause is vacuous"
    return out


SUITES = {"dsq": _verify_dsq, "jacobi": _verify_jacobi, "weights": _verify_weights,
          "psi": _verify_psi, "homotopy": _verify_homotopy}


def run_suites(names, args):
    """The reports of the suites `names`, in order."""
    reports = []
    for name in names:
        if name == "weights" and reports and reports[0]["suite"] == "dsq":
            # dsq, which returned, assembled the same columns: a term outside
            # its block would have raised WeightEscapeError there
            reports.append(dict(reports[0], suite="weights", failures=[]))
        else:
            reports.append(SUITES[name](args))
    return reports
