"""Command line frontend.

Subcommands: dims | betti | euler | verify | certify | check-certificate |
basis | psi-matrix.  Output goes to stdout or, with --output, is written
atomically (temp file + rename) so a failing run never leaves a partial
file.  The structured format is JSON and is the stable surface; csv
(dims, betti, euler, verify) is stable per command; plain is for humans
and may change.  certify always writes the JSON certificate.

This module imports nothing from the package at load time; each command
imports what it runs, so a fresh process compiles only these modules of
the package besides cli (tests/test_hygiene.py pins the sets):

    --help, <cmd> --help   nothing
    dims, euler            counting
    basis                  counting words
    betti                  counting words linalg record homology torus
    certify,               counting words monomial certificate
      check-certificate
    psi-matrix             counting words monomial certificate record
                             contraction
    verify jacobi          counting verify words monomial multivector
    verify weights         counting verify words
    verify dsq             counting verify words monomial certificate
                             multivector chains boundary linalg
    verify homotopy        counting verify words monomial certificate
                             multivector chains boundary
    verify psi             counting verify words monomial certificate
                             record contraction
    verify all             counting verify words monomial certificate
                             multivector chains boundary linalg record
                             contraction

verify all loads the union of its suites.

Exit codes: 0 success, 1 a guaranteed-zero came out nonzero / input is not
a cycle / verification failed / an internal invariant was violated (one
line on stderr, no traceback), 2 malformed input or a bad argument, such as
--n 0 or --m 0 (with a usage message) or an --output in a directory that
does not exist (one line on stderr).  Randomized suites take --seed
(default 7) and record it in the output.
"""

import argparse
import json
import os
import sys


class OutputError(Exception):
    """--output names a file in a directory that cannot be written to."""


def _emit(text, output):
    if output is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        return
    import tempfile
    d = os.path.dirname(os.path.abspath(output))
    try:
        fd, tmp = tempfile.mkstemp(dir=d, prefix=".schouten-")
    except OSError as e:
        raise OutputError("cannot write %s: %s" % (output, e.strerror)) from None
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
            if not text.endswith("\n"):
                f.write("\n")
        os.replace(tmp, output)
    except BaseException:
        os.unlink(tmp)
        raise


def _json(obj):
    return json.dumps(obj, indent=2, sort_keys=True)


# --- dims / betti / euler ---------------------------------------------------


def cmd_dims(args):
    from .counting import dims_table
    dims = dims_table(args.n, args.w, args.h)
    if args.format == "structured":
        text = _json({"command": "dims", "n": args.n, "w": args.w, "h": args.h,
                      "dims": [{"m": m, "dim": d} for m, d in enumerate(dims, start=1)]})
    elif args.format == "csv":
        text = "\n".join(["m,dim"] + ["%d,%d" % (m, d) for m, d in enumerate(dims, start=1)])
    else:
        head = "dim C_m for n=%d, weight (%d, %d)" % (args.n, args.w, args.h)
        body = ["  m=%d  dim=%d" % (m, d) for m, d in enumerate(dims, start=1)]
        text = "\n".join([head] + (body or ["  (all blocks empty)"]))
    _emit(text, args.output)
    return 0


def _guaranteed_zero(n, m, w, h):
    """Blocks whose vanishing homology is a published result: the first
    Betti number, every w != h block, and the second Betti number of the
    (w, w) blocks."""
    return m == 1 or w != h or m == 2


def cmd_betti(args):
    from .homology import HomologyReport, betti
    rep = betti(args.n, args.m, args.w, args.h)
    if args.format == "structured":
        text = _json({"command": "betti", "n": rep.n, "m": rep.m, "w": rep.w, "h": rep.h,
                      "dim": rep.dim, "rank_out": rep.rank_out, "rank_in": rep.rank_in,
                      "betti": rep.betti})
    elif args.format == "csv":
        text = HomologyReport.CSV_HEADER + "\n" + rep.csv_row()
    else:
        text = ("block (n=%d, m=%d, w=%d, h=%d): dim=%d rank_out=%d rank_in=%d betti=%d"
                % (rep.n, rep.m, rep.w, rep.h, rep.dim, rep.rank_out, rep.rank_in, rep.betti))
    _emit(text, args.output)
    if rep.betti != 0 and _guaranteed_zero(args.n, args.m, args.w, args.h):
        return 1
    return 0


def cmd_euler(args):
    from .counting import euler_characteristic
    chi = euler_characteristic(args.n, args.w, args.h)
    if args.format == "structured":
        text = _json({"command": "euler", "n": args.n, "w": args.w, "h": args.h, "euler": chi})
    elif args.format == "csv":
        text = "n,w,h,euler\n%d,%d,%d,%d" % (args.n, args.w, args.h, chi)
    else:
        text = "euler characteristic (n=%d, w=%d, h=%d) = %d" % (args.n, args.w, args.h, chi)
    _emit(text, args.output)
    return 0 if chi == 0 else 1


# --- verify -----------------------------------------------------------------


def cmd_verify(args):
    from .verify import SUITES, run_suites
    reports = run_suites(list(SUITES) if args.suite == "all" else [args.suite], args)
    failed = any(r["failures"] for r in reports)
    if args.format == "structured":
        text = _json({"command": "verify", "reports": reports,
                      "status": "fail" if failed else "pass"})
    elif args.format == "csv":
        lines = ["suite,checked,failures"]
        for r in reports:
            lines.append("%s,%d,%d" % (r["suite"], r["checked"], len(r["failures"])))
        text = "\n".join(lines)
    else:
        lines = []
        for r in reports:
            status = "FAIL" if r["failures"] else "pass"
            lines.append("%s: %s (%d checked)" % (r["suite"], status, r["checked"]))
            if "note" in r:
                lines.append("  note: %s" % r["note"])
            for f in r["failures"]:
                lines.append("  witness: %s" % json.dumps(f, sort_keys=True))
        text = "\n".join(lines)
    _emit(text, args.output)
    return 1 if failed else 0


# --- certificates -----------------------------------------------------------


def _read_input(args):
    if args.input is None or args.input == "-":
        return sys.stdin.read()
    with open(args.input) as f:
        return f.read()


def cmd_certify(args):
    from .certificate import CertificateError, _certify_form, _parse_terms
    try:
        U = _parse_terms(args.n, _read_input(args))
    except (OSError, ValueError, KeyError) as e:
        sys.stderr.write("malformed input: %s\n" % e)
        return 2
    try:
        cert = _certify_form(args.n, U)
    except (CertificateError, ValueError) as e:
        sys.stderr.write("certification failed: %s\n" % e)
        return 1
    _emit(_json(cert), args.output)
    return 0


def cmd_check_certificate(args):
    from .certificate import _check_codes, _read_certificate
    try:
        n, w, U, V, p = _read_certificate(json.loads(_read_input(args)))
    except (OSError, ValueError, KeyError, TypeError) as e:
        sys.stderr.write("malformed certificate: %s\n" % e)
        return 2
    ok = _check_codes(n, w, p, U, V)
    if ok:
        text = "certificate valid: boundary(V) == U"
    else:
        text = ("certificate INVALID: p is not monic with p(0) != 0, a word lies outside "
                "the declared block, or boundary(V) != U")
    if args.format == "structured":
        text = _json({"command": "check-certificate", "block": [n, w],
                      "valid": ok})
    _emit(text, args.output)
    return 0 if ok else 1


# --- basis / psi-matrix -----------------------------------------------------


def cmd_basis(args):
    from .words import enumerate_basis, format_factor
    basis = enumerate_basis(args.n, args.m, args.w, args.h)
    if args.format == "structured":
        text = _json({"command": "basis", "n": args.n, "m": args.m, "w": args.w,
                      "h": args.h, "dim": len(basis),
                      "words": [[format_factor(f) for f in word] for word in basis.words]})
    else:
        lines = [" ; ".join(format_factor(f) for f in word) for word in basis.words]
        text = "\n".join(lines) if lines else "(empty block)"
    _emit(text, args.output)
    return 0


def cmd_psi_matrix(args):
    """Matrix of psi on the canonical basis of the (2, w, w) block,
    coordinate-list format: header `rows cols nnz`, then `row col value`
    sorted by (col, row)."""
    from .contraction import _psi_columns
    basis, columns = _psi_columns(args.n, args.w)
    lines = ["%d %d %d" % (len(basis), len(basis), sum(map(len, columns)))]
    for col, column in enumerate(columns):
        lines += ["%d %d %d" % (r, col, v)
                  for r, v in sorted((basis.index[x], v) for x, v in column.items())]
    text = "\n".join(lines)
    if args.format == "structured":
        text = _json({"command": "psi-matrix", "n": args.n, "w": args.w, "dim": len(basis),
                      "matrix": lines})
    _emit(text, args.output)
    return 0


# --- argument plumbing ------------------------------------------------------


def _positive_int(text):
    """argparse type of --n and --m: an int >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid int value: %r" % text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1, got %d" % value)
    return value


def _add_common(p, *names, formats=("structured", "csv", "plain")):
    if "n" in names:
        p.add_argument("--n", type=_positive_int, required=True, help="dimension of R^n")
    if "m" in names:
        p.add_argument("--m", type=_positive_int, required=True, help="chain arity")
    if "w" in names:
        p.add_argument("--w", type=int, required=True, help="first weight")
    if "h" in names:
        p.add_argument("--h", type=int, required=True, help="second weight")
    p.add_argument("--output", help="write here atomically instead of stdout")
    p.add_argument("--format", choices=formats, default="plain")


# command -> (help, function), in the order of --help
COMMANDS = {
    "dims": ("chain space dimensions of a weight block", cmd_dims),
    "betti": ("Betti number of one block", cmd_betti),
    "euler": ("Euler characteristic of a weight block", cmd_euler),
    "verify": ("property suites: dsq, jacobi, weights, psi, homotopy", cmd_verify),
    "certify": ("build an exactness certificate for a 2-cycle", cmd_certify),
    "check-certificate": ("re-verify a certificate file", cmd_check_certificate),
    "basis": ("list the canonical basis words of a block", cmd_basis),
    "psi-matrix": ("matrix of the psi operator on a (2, w, w) block", cmd_psi_matrix),
}


def build_parser(argv=None):
    """The command line parser.  When argv[0] names a command, only that
    command's subparser is built, and the usage still lists all eight;
    otherwise (--help, no command, an unknown one) all eight are."""
    ap = argparse.ArgumentParser(
        prog="schouten",
        description="Exact homology of polynomial multivector fields under "
                    "the Schouten bracket.")
    names = [argv[0]] if argv and argv[0] in COMMANDS else list(COMMANDS)
    sub = ap.add_subparsers(dest="command", required=True,
                            metavar="{%s}" % ",".join(COMMANDS) if len(names) == 1 else None)
    for name in names:
        p = sub.add_parser(name, help=COMMANDS[name][0])
        p.set_defaults(func=COMMANDS[name][1])
        if name in ("dims", "euler"):
            _add_common(p, "n", "w", "h")
        elif name == "betti":
            _add_common(p, "n", "m", "w", "h")
        elif name == "verify":
            p.add_argument("suite", choices=("dsq", "jacobi", "weights", "psi", "homotopy",
                                             "all"))
            p.add_argument("--n", type=_positive_int, required=True)
            p.add_argument("--w", type=int, default=0)
            p.add_argument("--h", type=int, default=0)
            p.add_argument("--seed", type=int, default=7)
            p.add_argument("--output")
            p.add_argument("--format", choices=("structured", "csv", "plain"), default="plain")
        elif name == "certify":
            p.add_argument("--n", type=_positive_int, required=True)
            p.add_argument("--input", help="cycle file in chain text form (default stdin)")
            p.add_argument("--output")
        elif name == "check-certificate":
            p.add_argument("--input", help="certificate JSON (default stdin)")
            p.add_argument("--output")
            p.add_argument("--format", choices=("structured", "plain"), default="plain")
        elif name == "basis":
            _add_common(p, "n", "m", "w", "h", formats=("structured", "plain"))
        else:
            _add_common(p, "n", "w", formats=("structured", "plain"))
    return ap


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    from .counting import HomologyInvariantError
    try:
        return args.func(args)
    except HomologyInvariantError as e:
        # raised on a rank, counting, bracket, boundary or psi-block bug;
        # WeightEscapeError is one
        sys.stderr.write("internal invariant violated: %s\n" % e)
        return 1
    except OutputError as e:
        sys.stderr.write("%s\n" % e)
        return 2


if __name__ == "__main__":
    sys.exit(main())
