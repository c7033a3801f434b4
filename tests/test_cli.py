"""The command line frontend: formats, exit codes, reproducibility."""

import argparse
import importlib
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from schouten import chains, counting, verify, words
from schouten.boundary import WeightEscapeError, boundary, boundary_columns
from schouten.chains import (Chain, chain_to_text, enumerate_basis, format_factor, parse_chain,
                             wedge_chain)
from schouten.cli import build_parser, main

boundary_module = importlib.import_module("schouten.boundary")


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def test_dims_plain(capsys):
    rc, out = run(capsys, "dims", "--n", "2", "--w", "0", "--h", "0")
    assert rc == 0
    assert "m=2  dim=18" in out


def test_dims_empty_block(capsys):
    rc, out = run(capsys, "dims", "--n", "1", "--w", "1", "--h", "0")
    assert rc == 0
    assert "empty" in out


def test_dims_csv_and_structured(capsys):
    rc, out = run(capsys, "dims", "--n", "2", "--w", "0", "--h", "0",
                  "--format", "csv")
    assert out.splitlines()[0] == "m,dim"
    assert "2,18" in out.splitlines()
    rc, out = run(capsys, "dims", "--n", "2", "--w", "0", "--h", "0",
                  "--format", "structured")
    data = json.loads(out)
    assert data["dims"][1] == {"m": 2, "dim": 18}


def test_betti_guaranteed_zero_exit(capsys):
    rc, out = run(capsys, "betti", "--n", "2", "--m", "2", "--w", "1", "--h", "1")
    assert rc == 0
    assert "betti=0" in out


def test_betti_nonzero_unguaranteed_block_is_fine(capsys):
    # m = 5 at weight (0,0) has betti 2; no published zero is violated
    rc, out = run(capsys, "betti", "--n", "2", "--m", "5", "--w", "0", "--h", "0")
    assert rc == 0
    assert out == "block (n=2, m=5, w=0, h=0): dim=156 rank_out=74 rank_in=80 betti=2\n"


@pytest.mark.parametrize("argv", [
    ["euler", "--n", "0", "--w", "0", "--h", "0"],
    ["dims", "--n", "0", "--w", "0", "--h", "0"],
    ["verify", "dsq", "--n", "0"],
    ["betti", "--n", "0", "--m", "2", "--w", "0", "--h", "0"],
    ["betti", "--n", "2", "--m", "0", "--w", "0", "--h", "0"],
    ["basis", "--n", "0", "--m", "1", "--w", "0", "--h", "0"],
    ["psi-matrix", "--n", "0", "--w", "0"],
    ["certify", "--n", "-1"],
], ids=["euler-n0", "dims-n0", "verify-dsq-n0", "betti-n0", "betti-m0", "basis-n0",
        "psi-matrix-n0", "certify-n-1"])
def test_nonpositive_n_or_m_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.startswith("usage: schouten %s" % argv[0])
    assert "must be at least 1" in err and "Traceback" not in err


def test_euler_zero(capsys):
    rc, out = run(capsys, "euler", "--n", "2", "--w", "1", "--h", "1",
                  "--format", "csv")
    assert rc == 0
    assert out.splitlines()[1] == "2,1,1,0"


def test_euler_n3_counted(capsys):
    rc, out = run(capsys, "euler", "--n", "3", "--w", "1", "--h", "1",
                  "--format", "structured")
    assert rc == 0
    assert json.loads(out)["euler"] == 0


def test_verify_jacobi_pass(capsys):
    rc, out = run(capsys, "verify", "jacobi", "--n", "3", "--seed", "7")
    assert rc == 0
    assert "jacobi: pass (200 checked)" in out


def test_verify_psi_vacuous_note(capsys):
    rc, out = run(capsys, "verify", "psi", "--n", "2", "--w", "0")
    assert rc == 0
    assert "vacuous" in out


def test_verify_all_csv(capsys):
    rc, out = run(capsys, "verify", "all", "--n", "2", "--w", "0", "--h", "0",
                  "--format", "csv")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "suite,checked,failures"
    assert all(line.endswith(",0") for line in lines[1:])


def test_verify_structured_reproducible(capsys):
    rc1, out1 = run(capsys, "verify", "jacobi", "--n", "2", "--seed", "3",
                    "--format", "structured")
    rc2, out2 = run(capsys, "verify", "jacobi", "--n", "2", "--seed", "3",
                    "--format", "structured")
    assert (rc1, out1) == (rc2, out2)
    assert json.loads(out1)["status"] == "pass"


@pytest.mark.parametrize("suite", ["dsq", "weights"])
def test_verify_word_suites_structured_report(capsys, suite):
    rc, out = run(capsys, "verify", suite, "--n", "2", "--w", "0", "--h", "0",
                  "--format", "structured")
    report = {"checked": 571, "failures": [], "h": 0, "n": 2, "suite": suite, "w": 0}
    expect = {"command": "verify", "reports": [report], "status": "pass"}
    assert rc == 0
    assert out == json.dumps(expect, indent=2, sort_keys=True) + "\n"


def _corrupted_columns(m_bad, key):
    """boundary.boundary_columns with entry key = (row, col) of
    d(C_m_bad -> C_{m_bad - 1}) raised by 1."""
    real = boundary_module.boundary_columns

    def columns(A, codes, row_of, m, w, h):
        for col, column in enumerate(real(A, codes, row_of, m, w, h)):
            if m == m_bad and col == key[1]:
                column = dict(column)
                column[key[0]] = column.get(key[0], 0) + 1
            yield column
    return columns


@pytest.mark.parametrize("suite", ["dsq", "weights"])
def test_verify_word_suites_report_witnesses(capsys, monkeypatch, suite):
    if suite == "dsq":
        # one entry of d on the top arity m = 8, in a row whose word has a
        # nonzero boundary, raised by 1: d . d is nonzero on that one word
        lower, mid, top = (enumerate_basis(2, m, 0, 0) for m in (6, 7, 8))
        d_mid = list(boundary_columns(mid.alphabet, mid.codes, lower.index, 7, 0, 0))
        d_top = boundary_columns(top.alphabet, top.codes, mid.index, 8, 0, 0)
        key = next((r, c) for c, column in enumerate(d_top) for r in column if d_mid[r])
        monkeypatch.setattr(boundary_module, "boundary_columns", _corrupted_columns(8, key))
        expect = [{"m": 8, "word": [format_factor(f) for f in top.words[key[1]]]}]
    else:
        # with the word boundary replaced by the identity, every word's
        # boundary leaves its block
        monkeypatch.setattr(words, "_word_boundary", lambda A, word: {word: 1})
        expect = [{"m": m, "word": [format_factor(f) for f in word]}
                  for m in range(2, 9) for word in enumerate_basis(2, m, 0, 0).words]
    rc, out = run(capsys, "verify", suite, "--n", "2", "--w", "0", "--h", "0",
                  "--format", "structured")
    report = json.loads(out)["reports"][0]
    assert rc == 1
    assert report["checked"] == 571
    assert report["failures"] == expect


def test_verify_all_takes_the_weights_report_from_dsq(capsys, monkeypatch):
    # the weights report of `all` is byte for byte that of `verify weights`,
    # and comes from the dsq pass, which assembled the same columns
    reports = {}
    for fmt in ("structured", "plain"):
        rc, alone = run(capsys, "verify", "weights", "--n", "2", "--w", "0", "--h", "0",
                        "--format", fmt)
        assert rc == 0
        reports[fmt] = alone
    monkeypatch.setattr(verify, "_weight_escapes", None)
    rc, out = run(capsys, "verify", "all", "--n", "2", "--w", "0", "--h", "0",
                  "--format", "structured")
    assert rc == 0
    assert json.loads(out)["reports"][2] == json.loads(reports["structured"])["reports"][0]
    rc, out = run(capsys, "verify", "all", "--n", "2", "--w", "0", "--h", "0")
    assert reports["plain"] in out


def test_verify_homotopy_pass(capsys):
    # 4 + 18 + 24 * 4 + 15 words: every word of the arities with at most 24
    rc, out = run(capsys, "verify", "homotopy", "--n", "2", "--w", "0", "--h", "0",
                  "--format", "structured")
    report = {"checked": 157, "failures": [], "h": 0, "n": 2, "seed": 7,
              "suite": "homotopy", "w": 0}
    assert rc == 0
    assert json.loads(out) == {"command": "verify", "reports": [report], "status": "pass"}


def test_verify_homotopy_samples_without_building_an_arity(capsys):
    # the n = 3 (1, 1) tower has 18 arities, up to 41.9M words in one; one
    # arity holds 18 words and each of the others a sample of 24
    rc, out = run(capsys, "verify", "homotopy", "--n", "3", "--w", "1", "--h", "1",
                  "--format", "csv")
    assert rc == 0
    assert out.strip().splitlines() == ["suite,checked,failures", "homotopy,426,0"]


def euler_field(n, gen):
    """l when gen is x_l d_l, else None."""
    alpha, beta = gen
    if len(alpha) == 1 and beta == tuple(int(k == alpha[0]) for k in range(1, n + 1)):
        return alpha[0]
    return None


def test_verify_homotopy_reports_witnesses(capsys, monkeypatch):
    # every bracket with x_l d_l on either side doubled: d(E_l ^^ c) +
    # E_l ^^ d(c) becomes 2 v_l c, which is wrong exactly where v_l != 0
    real = words._bracket

    def doubled(A, a, b):
        out = real(A, a, b)
        if euler_field(A.n, A.gens[a]) or euler_field(A.n, A.gens[b]):
            out = tuple((r, 2 * c) for r, c in out)
        return out

    expect = [{"l": l, "m": m, "word": [format_factor(f) for f in word]}
              for m, words in verify._homotopy_words(2, 0, 0, 7) for word in words
              for l in (1, 2)
              if sum(beta[l - 1] - (l in alpha) for alpha, beta in word)]
    # fresh alphabets, so that their bracket tables fill through `doubled`
    monkeypatch.setattr(words, "_ALPHABETS", {})
    monkeypatch.setattr(words, "_bracket", doubled)
    rc, out = run(capsys, "verify", "homotopy", "--n", "2", "--w", "0", "--h", "0",
                  "--format", "structured")
    report = json.loads(out)["reports"][0]
    assert rc == 1
    assert report["checked"] == 157
    assert expect and report["failures"] == expect


def test_verify_enumerates_each_block_once(capsys, monkeypatch):
    # max_arity counts instead of enumerating, so verify builds each block
    # m = 1..max_arity exactly once (C_1 holds the rows of d on C_2), with
    # the block's Hilbert series cached or not
    calls = []
    real = chains.enumerate_basis

    def counting(n, m, w, h):
        calls.append(m)
        return real(n, m, w, h)

    for module in (chains, boundary_module, words):
        monkeypatch.setattr(module, "enumerate_basis", counting)
    for suite in ("dsq", "weights"):
        for clear in (True, False):
            if clear:
                chains.block_dims.cache_clear()
            calls.clear()
            rc, _ = run(capsys, "verify", suite, "--n", "2", "--w", "0", "--h", "0",
                        "--format", "structured")
            assert rc == 0
            assert calls == list(range(1, 9))


def test_output_into_missing_directory_exit_2(capsys, tmp_path):
    target = tmp_path / "missing" / "dims.json"
    rc = main(["dims", "--n", "2", "--w", "0", "--h", "0", "--output", str(target)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == "cannot write %s: No such file or directory\n" % target
    assert not target.parent.exists()


@pytest.fixture
def pipi_file(tmp_path):
    pi = Chain.from_word(2, [((1, 2), (1, 1))])
    U = wedge_chain(pi, pi)
    p = tmp_path / "pipi.txt"
    p.write_text(chain_to_text(U) + "\n")
    return p


def test_certify_and_check_round_trip(capsys, tmp_path, pipi_file):
    cert_path = tmp_path / "cert.json"
    rc, _ = run(capsys, "certify", "--n", "2", "--input", str(pipi_file),
                "--output", str(cert_path))
    assert rc == 0
    data = json.loads(cert_path.read_text())
    assert data["block"] == [2, 2]
    assert data["p"][0] != "0"
    rc, out = run(capsys, "check-certificate", "--input", str(cert_path))
    assert rc == 0
    assert "valid" in out


DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("name", ["pipi_n2", "cycle_2_1", "cycle_3_2", "cycle_2_1_rational"])
def test_certificates_pinned_byte_for_byte(capsys, tmp_path, name):
    """certify on the n=2 pi^^pi square, on a seeded (2, 1) cycle, on a
    seeded 30-term n=3 (2, 2) cycle (annihilator degree 4) and on
    (1/2) U1 + (2/3) U2 for two seeded (2, 1) cycles (coefficients with
    denominators 2, 3 and 6) writes exactly the certificate files kept in
    tests/data, and check-certificate accepts each of them."""
    pinned = DATA / (name + ".cert.json")
    n = json.loads(pinned.read_text())["block"][0]
    out = tmp_path / "cert.json"
    rc = main(["certify", "--n", str(n), "--input", str(DATA / (name + ".txt")),
               "--output", str(out)])
    assert rc == 0
    assert out.read_bytes() == pinned.read_bytes()
    rc, out = run(capsys, "check-certificate", "--input", str(pinned))
    assert rc == 0
    assert "valid" in out


def test_certify_non_cycle_exit_1(capsys, tmp_path):
    p = tmp_path / "noncycle.txt"
    p.write_text("1 | x[0,0] d[1] ; x[1,2] d[1,2]\n")
    rc = main(["certify", "--n", "2", "--input", str(p)])
    captured = capsys.readouterr()
    assert rc == 1
    assert "not a cycle" in captured.err


def test_certify_non_cycle_prints_its_boundary(capsys, tmp_path):
    p = tmp_path / "noncycle.txt"
    p.write_text("1 | x[0,0] d[1] ; x[1,2] d[1,2]\n")
    rc = main(["certify", "--n", "2", "--input", str(p)])
    err = capsys.readouterr().err
    assert rc == 1
    dU = boundary(parse_chain(2, p.read_text()))
    assert dU
    assert err.rstrip("\n").endswith(chain_to_text(dU))


def test_certify_zero_denominator_exit_2(capsys, tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("1/0 | x[0,0] d[1] ; x[1,2] d[1,2]\n")
    rc = main(["certify", "--n", "2", "--input", str(p)])
    assert rc == 2
    assert "malformed" in capsys.readouterr().err


def test_certify_malformed_exit_2(capsys, tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("this is not a chain\n")
    rc = main(["certify", "--n", "2", "--input", str(p)])
    assert rc == 2
    assert "malformed" in capsys.readouterr().err


def test_certify_malformed_later_line_exit_2(capsys, tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("1 | x[0,0] d[1] ; x[1,2] d[1,2]\n1 | x[0,0,0] d[1] ; x[1,2] d[1,2]\n")
    rc = main(["certify", "--n", "2", "--input", str(p)])
    assert rc == 2
    assert "malformed" in capsys.readouterr().err


def test_check_tampered_certificate_exit_1(capsys, tmp_path, pipi_file):
    cert_path = tmp_path / "cert.json"
    run(capsys, "certify", "--n", "2", "--input", str(pipi_file),
        "--output", str(cert_path))
    data = json.loads(cert_path.read_text())
    head, _, tail = data["V"][0].partition(" | ")
    data["V"][0] = "%s | %s" % (Fraction(head) + 1, tail)
    cert_path.write_text(json.dumps(data))
    rc, out = run(capsys, "check-certificate", "--input", str(cert_path))
    assert rc == 1
    assert "INVALID" in out


def test_check_forged_block_exit_1(capsys, tmp_path, pipi_file):
    cert_path = tmp_path / "cert.json"
    run(capsys, "certify", "--n", "2", "--input", str(pipi_file),
        "--output", str(cert_path))
    data = json.loads(cert_path.read_text())
    assert data["block"] == [2, 2]
    data["block"] = [2, 5]
    cert_path.write_text(json.dumps(data))
    rc, out = run(capsys, "check-certificate", "--input", str(cert_path))
    assert rc == 1
    assert "INVALID" in out


@pytest.mark.parametrize("block", [[2, "2"], [2, 2.0], [2], [True, 2], [0, 2], [2, -1], {"n": 2}])
def test_check_mistyped_block_exit_2(capsys, tmp_path, pipi_file, block):
    cert_path = tmp_path / "cert.json"
    run(capsys, "certify", "--n", "2", "--input", str(pipi_file),
        "--output", str(cert_path))
    rc, _ = run(capsys, "check-certificate", "--input", str(cert_path))
    assert rc == 0
    data = json.loads(cert_path.read_text())
    data["block"] = block
    cert_path.write_text(json.dumps(data))
    rc = main(["check-certificate", "--input", str(cert_path)])
    assert rc == 2
    assert "malformed certificate" in capsys.readouterr().err


def _pinned_with(tmp_path, field, value):
    """The pinned pi^^pi certificate with one field replaced."""
    data = json.loads((DATA / "pipi_n2.cert.json").read_text())
    data[field] = value(data[field]) if callable(value) else value
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(data))
    return path


@pytest.mark.parametrize("field, value", [
    ("V", lambda V: ["1/0 | " + V[0].partition(" | ")[2]] + V[1:]),
    ("p", lambda p: p[:-1] + ["1/0"]),
], ids=["V", "p"])
def test_check_zero_denominator_exit_2(capsys, tmp_path, field, value):
    rc = main(["check-certificate", "--input", str(_pinned_with(tmp_path, field, value))])
    assert rc == 2
    assert "malformed certificate" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("p", lambda p: p[:-1] + [True]),
    ("p", lambda p: [float(c) for c in p]),
    ("U", lambda U: "\n".join(U)),
], ids=["p-bool", "p-floats", "U-string"])
def test_check_mistyped_field_exit_2(capsys, tmp_path, field, value):
    """U, V and p are lists of strings, as certificate_to_dict writes them;
    the same values in other JSON types are refused, not read."""
    rc = main(["check-certificate", "--input", str(_pinned_with(tmp_path, field, value))])
    assert rc == 2
    assert "malformed certificate: %s must be a list of strings" % field in capsys.readouterr().err


@pytest.mark.parametrize("p", [
    ["0", "47", "-12", "1"],
    lambda p: ["0"] + p[1:],
    [],
    lambda p: [str(2 * Fraction(c)) for c in p],
], ids=["zero-constant", "zero-constant-kept-rest", "empty", "not-monic"])
def test_check_tampered_annihilator_exit_1(capsys, tmp_path, p):
    """U and V are the pinned, valid ones; only p is forged."""
    rc, out = run(capsys, "check-certificate", "--input",
                  str(_pinned_with(tmp_path, "p", p)))
    assert rc == 1
    assert "INVALID" in out


def _line_of(chain):
    """The text of a one-term chain."""
    text = chain_to_text(chain)
    assert len(text.splitlines()) == 1
    return text


@pytest.mark.parametrize("field, change", [
    ("U", lambda U, V: ["%s | %s" % (Fraction(U[0].partition(" | ")[0]) + 1,
                                     U[0].partition(" | ")[2])] + U[1:]),
    ("V", lambda U, V: V + [U[0]]),
    ("V", lambda U, V: V + [_line_of(Chain(2, {enumerate_basis(2, 3, 1, 1).words[0]: 1}))]),
], ids=["U-coefficient", "V-arity-2-word", "V-word-of-another-block"])
def test_check_tampered_cycle_or_primitive_exit_1(capsys, tmp_path, field, change):
    """The pinned pi^^pi certificate, (n, w) = (2, 2), with one term of U
    changed or one line added to V."""
    data = json.loads((DATA / "pipi_n2.cert.json").read_text())
    rc, out = run(capsys, "check-certificate", "--input",
                  str(_pinned_with(tmp_path, field, change(data["U"], data["V"]))))
    assert rc == 1
    assert "INVALID" in out


def seeded_cycle_text(n, w, seed, rational=False):
    """The text of U = boundary(3-chain) on four seeded words of the
    (3, w, w) block, its lines shuffled and each line's factors reversed,
    so that the parser must reorder them; with rational coefficients when
    asked."""
    rng = random.Random("%d:%d:%d" % (n, w, seed))
    picks = rng.sample(enumerate_basis(n, 3, w, w).words, 4)
    coeffs = [Fraction(rng.choice((-3, -1, 1, 2)), rng.choice((1, 2, 3) if rational else (1,)))
              for _ in picks]
    U = boundary(Chain(n, dict(zip(picks, coeffs))))
    assert U
    lines = []
    for word, c in U.terms.items():
        # reversed word = sign * word
        sign, canonical = chains.canonicalize_word(word[::-1])
        assert canonical == word
        lines.append("%s | %s" % (chains.format_coeff(sign * c),
                                  " ; ".join(format_factor(f) for f in word[::-1])))
    rng.shuffle(lines)
    return "\n".join(lines) + "\n"


def _tampered_copies(data):
    """The certificate dict and copies of it: some still valid, some
    not, one malformed."""
    U, V, p = data["U"], data["V"], data["p"]
    bump = lambda line: "%s | %s" % (Fraction(line.partition(" | ")[0]) * 2,
                                     line.partition(" | ")[2])
    other = _line_of(Chain(data["block"][0], {enumerate_basis(data["block"][0], 3, 0, 0)
                                               .words[0]: 1}))
    return [data,
            dict(data, V=list(reversed(V)) + ["0 | " + V[0].partition(" | ")[2]]),
            dict(data, U=[bump(U[0])] + U[1:]),
            dict(data, V=V[:-1] + [bump(V[-1])]),
            dict(data, V=V[1:]),
            dict(data, V=V + [U[0]]),
            dict(data, V=V + [other]),
            dict(data, U=U + [other]),
            dict(data, block=[data["block"][0], data["block"][1] + 1]),
            dict(data, p=p[:-1] + ["2"]),
            dict(data, p=["0"] + p[1:]),
            dict(data, V=V + ["1 | x[9] d[1]"])]


@pytest.mark.parametrize("n, w, rational", [(2, 1, False), (3, 1, False), (3, 2, False),
                                            (4, 1, False), (2, 1, True)],
                         ids=["2-1", "3-1", "3-2", "4-1", "2-1-rational"])
def test_cli_matches_the_chain_api(capsys, tmp_path, n, w, rational):
    """certify writes certificate_to_dict(certify_exact(parse_chain(n,
    text))) byte for byte, and check-certificate gives the verdict of
    check_certificate(certificate_from_dict(...)) on it and on tampered
    copies of it (exit 2 where certificate_from_dict refuses one)."""
    from schouten.cli import _json
    from schouten.contraction import (certificate_from_dict, certificate_to_dict,
                                      certify_exact, check_certificate)
    for seed in range(2):
        text = seeded_cycle_text(n, w, seed, rational)
        cycle, cert = tmp_path / "cycle.txt", tmp_path / "cert.json"
        cycle.write_text(text)
        rc = main(["certify", "--n", str(n), "--input", str(cycle), "--output", str(cert)])
        assert rc == 0
        expect = _json(certificate_to_dict(certify_exact(parse_chain(n, text)))) + "\n"
        assert cert.read_text() == expect
        verdicts = []
        for data in _tampered_copies(json.loads(expect)):
            cert.write_text(json.dumps(data))
            rc = main(["check-certificate", "--input", str(cert)])
            capsys.readouterr()
            try:
                verdict = 0 if check_certificate(certificate_from_dict(data)) else 1
            except ValueError:
                verdict = 2
            assert rc == verdict
            verdicts.append(rc)
        assert verdicts[:2] == [0, 0] and verdicts[-1] == 2 and set(verdicts[2:-1]) == {1}


def test_certify_zero_line_with_a_factor_outside_its_block(capsys, tmp_path):
    """x[5] d[1] has bidegree (0, 4), outside the alphabet of the line's
    (0, 2) block, next to a repeated even factor d[1]: the line is the
    zero chain, and its certificate is the trivial one."""
    text = "1 | x[5] d[1] ; x[0] d[1] ; x[0] d[1]\n"
    assert parse_chain(1, text).is_zero()
    p, cert = tmp_path / "zero.txt", tmp_path / "cert.json"
    p.write_text(text)
    rc = main(["certify", "--n", "1", "--input", str(p), "--output", str(cert)])
    assert rc == 0
    assert json.loads(cert.read_text()) == {"block": [1, 0], "U": [], "V": [], "p": ["1"]}
    rc, out = run(capsys, "check-certificate", "--input", str(cert))
    assert rc == 0


@pytest.mark.parametrize("first, second", [(0, 1), (1, 0)])
def test_certify_cycle_in_two_blocks_exit_1(capsys, tmp_path, first, second):
    """Cycles of the (2, 0, 0) and (2, 1, 1) blocks in one file: the
    block of the first term is the one the others must lie in."""
    texts = [chain_to_text(boundary(Chain(2, {enumerate_basis(2, 3, w, w).words[3]: 1})))
             for w in (0, 1)]
    p = tmp_path / "two.txt"
    p.write_text(texts[first] + "\n" + texts[second] + "\n")
    rc = main(["certify", "--n", "2", "--input", str(p)])
    assert rc == 1
    assert capsys.readouterr().err == (
        "certification failed: term signature (2, %d, %d) outside the (2, %d, %d) block\n"
        % (second, second, first, first))


def test_certify_arity_3_exit_1(capsys, tmp_path):
    p = tmp_path / "three.txt"
    p.write_text(_line_of(Chain(2, {enumerate_basis(2, 3, 1, 1).words[5]: 1})) + "\n")
    rc = main(["certify", "--n", "2", "--input", str(p)])
    assert rc == 1
    assert capsys.readouterr().err == (
        "certification failed: term signature (3, 1, 1) outside the (2, 1, 1) block\n")


def test_certify_factor_invalid_for_n_exit_2(capsys, tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("1 | x[0,0] d[3] ; x[1,0] d[1]\n")
    rc = main(["certify", "--n", "2", "--input", str(p)])
    assert rc == 2
    assert capsys.readouterr().err == "malformed input: direction out of range 1..2 in (3,)\n"


def test_certificate_commands_build_no_chain(capsys, monkeypatch, tmp_path):
    """certify and check-certificate carry U and V as int words from the
    input text to the output text: no Chain is decoded or encoded."""
    contraction = importlib.import_module("schouten.contraction")
    calls = []

    def refuse(name):
        def wrapper(*args, **kwargs):
            calls.append(name)
            raise AssertionError("%s called" % name)
        return wrapper

    for module in (chains, boundary_module, contraction):
        for name in ("decode_chain", "encode_chain", "parse_chain", "chain_to_text"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse(name))
    cert = tmp_path / "cert.json"
    rc = main(["certify", "--n", "3", "--input", str(DATA / "cycle_3_2.txt"),
               "--output", str(cert)])
    assert rc == 0
    assert cert.read_bytes() == (DATA / "cycle_3_2.cert.json").read_bytes()
    rc, out = run(capsys, "check-certificate", "--input", str(cert))
    assert rc == 0
    assert calls == []


@pytest.mark.parametrize("argv", [
    ["certify", "--n", "2", "--format", "structured"],
    ["check-certificate", "--format", "csv"],
    ["basis", "--n", "2", "--m", "1", "--w", "0", "--h", "0", "--format", "csv"],
    ["psi-matrix", "--n", "2", "--w", "0", "--format", "csv"],
], ids=["certify", "check-certificate", "basis", "psi-matrix"])
def test_format_values_that_do_nothing_are_refused(capsys, argv):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    assert "--format" in capsys.readouterr().err


def test_check_malformed_certificate_exit_2(capsys, tmp_path):
    p = tmp_path / "junk.json"
    p.write_text("{]")
    rc = main(["check-certificate", "--input", str(p)])
    assert rc == 2


def test_check_certificate_that_is_no_object_exit_2(capsys, tmp_path):
    data = json.loads((DATA / "pipi_n2.cert.json").read_text())
    p = tmp_path / "cert.json"
    p.write_text(json.dumps([data]))
    rc = main(["check-certificate", "--input", str(p)])
    assert rc == 2
    assert capsys.readouterr().err == (
        "malformed certificate: the certificate must be a JSON object\n")


def test_check_certificate_missing_field_exit_2(capsys, tmp_path):
    data = json.loads((DATA / "pipi_n2.cert.json").read_text())
    del data["V"]
    p = tmp_path / "cert.json"
    p.write_text(json.dumps(data))
    rc = main(["check-certificate", "--input", str(p)])
    assert rc == 2
    assert capsys.readouterr().err == "malformed certificate: missing field 'V'\n"


def _one_invariant_line(err):
    return (err.startswith("internal invariant violated: ") and len(err.splitlines()) == 1
            and "Traceback" not in err)


@pytest.mark.parametrize("command", ["dims", "euler"])
def test_counting_invariant_exit_1(capsys, monkeypatch, command):
    # a block whose Hilbert series runs past max_arity: dims_table refuses it
    monkeypatch.setattr(counting, "max_arity", lambda n, w, h: 1)
    rc = main([command, "--n", "2", "--w", "0", "--h", "0"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert _one_invariant_line(captured.err)
    assert "beyond max arity 1" in captured.err


@pytest.mark.parametrize("suite", ["weights", "dsq"])
def test_verify_weight_escape_exit_1(capsys, monkeypatch, suite):
    if suite == "weights":
        # the suite reports the escapes it finds word by word; one raised
        # past it reaches main
        def escapes(n, w, h, top):
            raise WeightEscapeError("boundary of a word left block (m=2, w=0, h=0)")
            yield

        monkeypatch.setattr(verify, "_weight_escapes", escapes)
    else:
        # dsq catches no escape: with the word boundary replaced by the
        # identity, the first word of C_2 leaves its block
        monkeypatch.setattr(words, "_word_boundary", lambda A, word: {word: 1})
    rc = main(["verify", suite, "--n", "2"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert _one_invariant_line(captured.err)
    assert "left block (m=2, w=0, h=0)" in captured.err


COMMANDS = ["dims", "betti", "euler", "verify", "certify", "check-certificate", "basis",
            "psi-matrix"]


def test_help_lists_every_command(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["--help"])
    assert exit_.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: schouten ")
    assert "{%s}" % ",".join(COMMANDS) in out
    for command in COMMANDS:
        assert "\n    %s " % command in out


@pytest.mark.parametrize("command", COMMANDS)
def test_command_help_exit_0(capsys, command):
    with pytest.raises(SystemExit) as exit_:
        main([command, "--help"])
    assert exit_.value.code == 0
    assert capsys.readouterr().out.startswith("usage: schouten %s " % command)


def _built_commands(ap):
    sub, = [a for a in ap._actions if isinstance(a, argparse._SubParsersAction)]
    return list(sub.choices)


def test_build_parser_builds_only_the_named_command():
    assert _built_commands(build_parser(["certify", "--n", "2"])) == ["certify"]
    for argv in (None, [], ["--help"], ["-h"], ["nope"], ["--n", "2", "dims"]):
        assert _built_commands(build_parser(argv)) == COMMANDS


@pytest.mark.parametrize("argv", [
    ["certify", "--help"],
    ["certify", "--n", "2", "--input", "cycle.txt"],
    ["certify", "--n", "2", "extra"],
    ["certify", "--n"],
    ["dims", "--n", "0", "--w", "0", "--h", "0"],
    ["dims", "dims"],
    ["betti", "--n", "1", "--m", "2", "--w", "0", "--h", "0", "--format", "xml"],
    ["verify", "bogus", "--n", "1"],
    ["verify", "jacobi", "--n", "1", "--seed", "3"],
    ["check-certificate", "--format", "csv"],
    ["psi-matrix", "--n", "2"],
])
def test_one_command_parser_matches_the_full_parser(capsys, argv):
    """The parser built for argv's command alone parses argv as the parser
    of all eight commands does, down to each usage, help and error text."""
    results = []
    for ap in (build_parser(argv), build_parser()):
        try:
            result = vars(ap.parse_args(argv))
        except SystemExit as exit_:
            result = exit_.code
        results.append((result, capsys.readouterr()))
    assert results[0] == results[1]


def test_no_partial_output_on_failure(tmp_path, capsys):
    target = tmp_path / "out.json"
    p = tmp_path / "bad.txt"
    p.write_text("garbage\n")
    rc = main(["certify", "--n", "2", "--input", str(p), "--output", str(target)])
    capsys.readouterr()
    assert rc == 2
    assert not target.exists()


def test_basis_listing(capsys):
    rc, out = run(capsys, "basis", "--n", "2", "--m", "1", "--w", "0", "--h", "0")
    assert rc == 0
    assert len(out.strip().splitlines()) == 4


def test_psi_matrix_header(capsys):
    rc, out = run(capsys, "psi-matrix", "--n", "2", "--w", "0")
    assert rc == 0
    rows, cols, nnz = map(int, out.splitlines()[0].split())
    assert rows == cols == 18
    assert nnz == len(out.splitlines()) - 1


@pytest.mark.parametrize("argv, pinned", [
    (["psi-matrix", "--n", "2", "--w", "1"], "psi_matrix_2_1.txt"),
    (["psi-matrix", "--n", "2", "--w", "1", "--format", "structured"], "psi_matrix_2_1.json"),
    (["verify", "psi", "--n", "3", "--w", "1", "--format", "structured"], "verify_psi_3_1.json"),
], ids=["psi-matrix", "psi-matrix-structured", "verify-psi-structured"])
def test_psi_outputs_pinned_byte_for_byte(capsys, argv, pinned):
    """psi-matrix, plain and structured, on the (2, 1, 1) block over R^2
    and the verify psi report on the (2, 1, 1) block over R^3 write
    exactly the files kept in tests/data."""
    rc, out = run(capsys, *argv)
    assert rc == 0
    assert out == (DATA / pinned).read_text()


@pytest.mark.parametrize("argv, block", [
    (["betti", "--n", "2", "--m", "2", "--w", "1", "--h", "1"], "(n=2, w=1, h=1)"),
    (["verify", "dsq", "--n", "2"], "(n=2, w=0, h=0)"),
], ids=["betti", "verify-dsq"])
def test_bracket_escape_exit_1(capsys, monkeypatch, argv, block):
    """A bracket term outside the alphabet, here from template offsets
    shifted past every direction set's id, so that no term's key is a key
    of the alphabet, is an invariant violation: one line, no traceback."""
    real = words._key_terms

    def shifted(A, alpha_a, alpha_b):
        beyond = A.span << A.n
        return tuple((i, s_a, s_b, offset + beyond)
                     for i, s_a, s_b, offset in real(A, alpha_a, alpha_b))

    monkeypatch.setattr(words, "_key_terms", shifted)
    # fresh alphabets, so no bracket comes from a filled table
    monkeypatch.setattr(words, "_ALPHABETS", {})
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert _one_invariant_line(captured.err)
    assert "left the alphabet of block " + block in captured.err


@pytest.mark.parametrize("module, argv", [
    ("certificate", ["certify", "--n", "2", "--input", str(DATA / "cycle_2_1.txt")]),
    ("contraction", ["psi-matrix", "--n", "2", "--w", "1"]),
], ids=["certify", "psi-matrix"])
def test_psi_block_escape_exit_1(capsys, monkeypatch, module, argv):
    """An image of psi outside the (2, w, w) block, here an added arity-3
    word, is an invariant violation: one line, no traceback.  T is
    patched in the module whose pass looks it up: certificate for
    certify's Krylov pass, contraction for psi's columns."""
    module = importlib.import_module("schouten." + module)
    real = module._t_codes
    monkeypatch.setattr(module, "_t_codes", lambda A, codes: {**real(A, codes), (0, 1, 2): 1})
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert _one_invariant_line(captured.err)
    assert "psi left the (2, 1, 1) block" in captured.err


def test_output_file_matches_stdout(capsys, tmp_path):
    rc, out = run(capsys, "dims", "--n", "2", "--w", "1", "--h", "1",
                  "--format", "structured")
    target = tmp_path / "dims.json"
    rc2 = main(["dims", "--n", "2", "--w", "1", "--h", "1",
                "--format", "structured", "--output", str(target)])
    capsys.readouterr()
    assert rc == rc2 == 0
    assert target.read_text() == out
