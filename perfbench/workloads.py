"""The four workloads of the CLI benchmark.

Each workload is a list of ops; an op is one `schouten` CLI command run in
a fresh process, together with the oracle that checks its output.  Only the
public API of the package is used here: inputs are generated and outputs
re-checked through `schouten.chains`, `schouten.boundary` and
`schouten.homology`, never through private kernels or caches.

Expected homology and census values live in expected.json; they were frozen
from the package's output at the commit that introduced the benchmark and
agree with the published vanishing results.
"""

import json
import os
import random
from fractions import Fraction

from schouten.boundary import boundary
from schouten.chains import Chain, chain_to_text, enumerate_basis, wedge_chain
from schouten.homology import is_poisson
from schouten.multivector import MultiVector, parse_monomial

HERE = os.path.dirname(os.path.abspath(__file__))

# (n, m, w, h) blocks.  deep: n = 2 high-arity blocks, near-square matrices
# with heavy fill, where elimination does almost all the work.  wide: the
# paper's n = 3 headline blocks, wide short matrices where enumeration and
# assembly take a large share.
HOMOLOGY_DEEP = [(2, 4, 1, 1), (2, 5, 1, 1), (2, 4, 2, 2), (2, 3, 1, 2)]
HOMOLOGY_WIDE = [(3, 2, 0, 0), (3, 2, 1, 1), (3, 2, 2, 2), (3, 2, 1, 2),
                 (3, 1, 0, 0), (3, 1, 1, 1), (3, 1, 2, 2), (3, 1, 1, 2),
                 (3, 3, 0, 0)]
# (n, w, h) weight blocks of the census: enumeration only.
CENSUS = [(2, 0, 0), (2, 0, 1), (2, 1, 1), (2, 1, 2), (2, 2, 2)]
# (n, w, number of terms of the cycle) for U = boundary(random 3-chain);
# the sizes span 40 to 400 terms so that parsing, contraction and
# chain-level boundary all show.
CERTIFY_CYCLES = [(2, 1, 40), (3, 1, 120), (3, 2, 400), (4, 1, 200)]


class Op:
    """One CLI command and the check of its result.

    `check(rc, data)` returns None when the output is right and a short
    reason otherwise; `data` is the op's stdout, or the bytes of `output`
    when the command writes a file.
    """

    def __init__(self, op_id, argv, check, output=None):
        self.id = op_id
        self.argv = argv
        self.check = check
        self.output = output


def _key(*xs):
    return ",".join(map(str, xs))


def _load_expected():
    with open(os.path.join(HERE, "expected.json")) as f:
        return json.load(f)


def _structured(rc, data):
    if rc != 0:
        return None, "exit code %d" % rc
    try:
        return json.loads(data), None
    except ValueError:
        return None, "output is not JSON"


def _betti_op(block, expected):
    n, m, w, h = block

    def check(rc, data):
        out, err = _structured(rc, data)
        if err:
            return err
        got = {k: out.get(k) for k in expected}
        return None if got == expected else "got %s, expected %s" % (got, expected)

    argv = ["betti", "--n", str(n), "--m", str(m), "--w", str(w), "--h", str(h),
            "--format", "structured"]
    return Op("betti-" + "-".join(map(str, block)), argv, check)


def _dims_op(block, expected):
    n, w, h = block

    def check(rc, data):
        out, err = _structured(rc, data)
        if err:
            return err
        got = [row["dim"] for row in out.get("dims", [])]
        return None if got == expected else "got dims %s, expected %s" % (got, expected)

    argv = ["dims", "--n", str(n), "--w", str(w), "--h", str(h), "--format", "structured"]
    return Op("dims-" + "-".join(map(str, block)), argv, check)


def _euler_op(block, expected):
    n, w, h = block

    def check(rc, data):
        out, err = _structured(rc, data)
        if err:
            return err
        got = out.get("euler")
        return None if got == expected else "got euler %s, expected %s" % (got, expected)

    argv = ["euler", "--n", str(n), "--w", str(w), "--h", str(h), "--format", "structured"]
    return Op("euler-" + "-".join(map(str, block)), argv, check)


def read_chain(n, lines):
    """Parse chain text in linear time, independently of the program's own
    parser: each line is built with Chain.from_word and merged into one
    dict."""
    terms = {}
    for line in lines:
        line = line.strip()
        if not line:
            continue
        head, _, tail = line.partition("|")
        factors = []
        for part in tail.split(";"):
            _, beta, alpha = parse_monomial("1 * " + part.strip())
            factors.append((alpha, beta))
        for word, c in Chain.from_word(n, factors, Fraction(head.strip())).terms.items():
            terms[word] = terms.get(word, 0) + c
    return Chain(n, terms)


def random_cycle(n, w, size):
    """U = boundary(V0) for a random 3-chain V0 of the (w, w) block, grown
    word by word until U has at least `size` terms.  V0 is drawn from a
    fixed seed; run seeds relabel the coordinates of U instead (see
    relabel), so every run does nearly the same work."""
    rng = random.Random("cycle:%d:%d" % (n, w))
    words = list(enumerate_basis(n, 3, w, w).words)
    rng.shuffle(words)
    terms = {}
    for word in words:
        c = rng.choice((-3, -2, -1, 1, 2, 3))
        for out, d in boundary(Chain(n, {word: c})).terms.items():
            terms[out] = terms.get(out, 0) + d
            if not terms[out]:
                del terms[out]
        if len(terms) >= size:
            break
    return Chain(n, terms)


def relabel(chain, perm):
    """The chain with every x_l renamed x_perm[l] and d_l renamed
    d_perm[l].  A permutation of coordinates commutes with the Schouten
    bracket, so cycles stay cycles and their certificates keep their
    annihilator degree and, to within 1%, their size."""
    n = chain.n
    terms = {}
    for word, c in chain.terms.items():
        sign = 1
        factors = []
        for alpha, beta in word:
            image = [perm[a] for a in alpha]
            for i in range(len(image)):
                for j in range(i + 1, len(image)):
                    if image[i] > image[j]:
                        sign = -sign
            new_beta = [0] * n
            for l, e in enumerate(beta, start=1):
                new_beta[perm[l] - 1] = e
            factors.append((tuple(sorted(image)), tuple(new_beta)))
        for out, d in Chain.from_word(n, factors, sign * c).terms.items():
            terms[out] = terms.get(out, 0) + d
    return Chain(n, terms)


def poisson_square(rng, n=3):
    """pi ^^ pi for pi = f(x_i, x_j) d_i ^ d_j with f a seeded quadratic:
    a bivector in two variables is Poisson, so pi ^^ pi is a 2-cycle of
    the (2, 2, 2) block."""
    i, j = sorted(rng.sample(range(1, n + 1), 2))
    terms = {}
    for a in range(3):
        beta = [0] * n
        beta[i - 1], beta[j - 1] = a, 2 - a
        terms[((i, j), tuple(beta))] = Fraction(rng.choice((-2, -1, 1, 2, 3)))
    pi = MultiVector(n, terms)
    if not is_poisson(pi):
        raise RuntimeError("generated bivector is not Poisson")
    pi1 = Chain.from_multivector(pi)
    return wedge_chain(pi1, pi1)


def _certify_ops(name, n, U, workdir):
    """certify then check-certificate on the cycle U, both checked."""
    cycle_path = os.path.join(workdir, name + ".txt")
    cert_path = os.path.join(workdir, name + ".json")
    with open(cycle_path, "w") as f:
        f.write(chain_to_text(U) + "\n")

    def check_cert(rc, data):
        if rc != 0:
            return "exit code %d" % rc
        try:
            cert = json.loads(data)
            V = read_chain(n, cert["V"])
            cycle = read_chain(n, cert["U"])
            p0 = Fraction(cert["p"][0])
        except (ValueError, KeyError, IndexError, TypeError) as e:
            return "malformed certificate: %s" % e
        if cycle != U:
            return "certificate cycle differs from the input"
        if p0 == 0:
            return "annihilator has p(0) = 0"
        if boundary(V) != U:
            return "boundary(V) != U"
        return None

    def check_verdict(rc, data):
        out, err = _structured(rc, data)
        if err:
            return err
        return None if out.get("valid") is True else "certificate reported invalid"

    return [
        Op("certify-" + name, ["certify", "--n", str(n), "--input", cycle_path,
                               "--output", cert_path], check_cert, output=cert_path),
        Op("check-" + name, ["check-certificate", "--input", cert_path,
                             "--format", "structured"], check_verdict),
    ]


def build(workload, seed, workdir):
    """The ops of a workload, in the order the seed gives them."""
    rng = random.Random("%s:%d" % (workload, seed))
    expected = _load_expected()
    if workload in ("homology-deep", "homology-wide"):
        blocks = HOMOLOGY_DEEP if workload == "homology-deep" else HOMOLOGY_WIDE
        ops = [_betti_op(b, expected["betti"][_key(*b)]) for b in blocks]
        rng.shuffle(ops)
        return ops
    if workload == "census":
        ops = []
        for b in CENSUS:
            ops.append(_dims_op(b, expected["dims"][_key(*b)]))
            ops.append(_euler_op(b, expected["euler"][_key(*b)]))
        rng.shuffle(ops)
        return ops
    if workload == "certify":
        pairs = []
        for n, w, size in CERTIFY_CYCLES:
            images = rng.sample(range(1, n + 1), n)
            U = relabel(random_cycle(n, w, size), dict(zip(range(1, n + 1), images)))
            if boundary(U):
                raise RuntimeError("relabelled chain is not a cycle")
            pairs.append(_certify_ops("cycle-%d-%d" % (n, w), n, U, workdir))
        pairs.append(_certify_ops("poisson-square", 3, poisson_square(rng), workdir))
        rng.shuffle(pairs)
        return [op for pair in pairs for op in pair]
    raise ValueError("unknown workload %r" % workload)


WORKLOADS = ("homology-deep", "homology-wide", "census", "certify")
