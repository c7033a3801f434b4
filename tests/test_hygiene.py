"""Source hygiene: invariants in the package must survive `python -O`, and
each command imports only the modules it runs."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import schouten

SRC = Path(schouten.__file__).parent


def test_no_assert_statements_in_package():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append("%s:%d" % (path.name, node.lineno))
    assert not found, "assert statements vanish under python -O: %s" % found


# refusal -> (a script that breaks what betti checks, the start of its one
# stderr line); each ends in cli.main on a block that runs the check
REFUSALS = {
    "euler": ("""
real = words._direction_terms
def negated(alpha_a, alpha_b):
    out = real(alpha_a, alpha_b)
    if (alpha_a, alpha_b) == ((1,), (1, 2)):
        out = tuple((i, -s_a if i == 0 else s_a, s_b, alpha) for i, s_a, s_b, alpha in out)
    return out
words._direction_terms = negated
block = (3, 2, 1, 2)
""", "the Euler field x_1 d_1 does not scale"),
    "euler-weight-zero": ("""
real = words._direction_terms
def stray(alpha_a, alpha_b):
    out = real(alpha_a, alpha_b)
    if (alpha_a, alpha_b) == ((1,), (2,)):
        out += ((2, 0, 1, (2,)),)
    return out
words._direction_terms = stray
block = (3, 2, 1, 1)
""", "the Euler field x_1 d_1 does not scale"),
    "equivariance": ("""
real = torus._permutation_tables
def tampered(A):
    tables = real(A)
    for p, directions, _ in tables:
        if all(p[l] != l for l in range(3)):
            head, sign = directions[0b011]
            directions[0b011] = (head, -sign)
    return tables
torus._permutation_tables = tampered
block = (3, 2, 1, 1)
""", "the bracket template of directions"),
    "exponent-place": ("""
real = torus._permutation_tables
def tampered(A):
    return [(p, directions, [A.places[l] for l in (2, 0, 1)] if p == (1, 2, 0) else places)
            for p, directions, places in real(A)]
torus._permutation_tables = tampered
block = (3, 1, 1, 1)
""", "the bracket template of directions"),
    "boundary-squared": ("""
pivots = []
real_pivots, real_columns = homology.pivot_columns, homology.boundary_columns
def recording(columns, rows):
    out = real_pivots(columns, rows)
    pivots.append(out[0])
    return out
def corrupted(A, codes, fold, m, w, h):
    for col, column in enumerate(real_columns(A, codes, fold, m, w, h)):
        if m == 4 and col == 0:
            # one more entry, in the row of a pivot column of d_3
            column = dict(column)
            column[pivots[-1][0]] = column.get(pivots[-1][0], 0) + 1
        yield column
homology.pivot_columns, homology.boundary_columns = recording, corrupted
block = (2, 3, 1, 1)
""", "boundary squared is nonzero"),
}


@pytest.mark.parametrize("refusal", list(REFUSALS))
def test_betti_refusals_survive_python_O(refusal):
    """Under python -O, which strips assert statements, each run-time check
    of betti still refuses a block it cannot prove: exit 1 and one line on
    stderr."""
    script, start = REFUSALS[refusal]
    code = ("import sys\nfrom schouten import cli, homology, torus, words\n" + script
            + "sys.exit(cli.main(['betti'] + ['--%s=%d' % kv for kv in zip('nmwh', block)]))")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True,
                         text=True)
    assert out.returncode == 1
    assert out.stderr.startswith("internal invariant violated: " + start)
    assert len(out.stderr.splitlines()) == 1 and "Traceback" not in out.stderr


def test_boundary_module_has_no_memo():
    """The word boundary and the bracket kernel are computed fresh each
    time: no lru_cache or cache decorator anywhere in boundary.py,
    certificate.py (which holds boundary_codes), multivector.py or
    words.py, which holds _word_boundary, _bracket, _direction_terms and
    _bracket_mono (the alphabet's bracket table and its direction
    templates are the one store of brackets).  The one exception is the
    generator list of a bidegree, which holds no word and no bracket."""
    allowed = {("words.py", "generators_of_bidegree")}
    found = []
    defined = set()
    for module in ("boundary.py", "certificate.py", "multivector.py", "words.py"):
        path = SRC / module
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add((module, node.name))
                for dec in node.decorator_list:
                    target = dec.func if isinstance(dec, ast.Call) else dec
                    name = (target.attr if isinstance(target, ast.Attribute)
                            else getattr(target, "id", None))
                    if name in ("lru_cache", "cache") and (module, node.name) not in allowed:
                        found.append("%s:%s:%d" % (module, node.name, node.lineno))
    assert {("words.py", fn) for fn in
            ("_word_boundary", "_bracket", "_direction_terms", "_bracket_mono",
             "boundary_columns")} | {("certificate.py", "boundary_codes")} <= defined
    assert not found, "memoized functions: %s" % found


def _calls(names):
    """(module file, line) of each call in the package of a function or
    method named in names."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                name = (node.func.attr if isinstance(node.func, ast.Attribute)
                        else getattr(node.func, "id", None))
                if name in names:
                    found.append((path.name, node.lineno))
    return found


def test_no_function_of_the_package_calls_the_chain_operators():
    """psi, phi_op and capital_phi are Chain adapters for callers outside
    the package: every algorithm inside it applies the operators on int
    words (contraction's _psi_codes, _phi_op_codes and _capital_phi_codes)."""
    found = _calls({"psi", "phi_op", "capital_phi"})
    assert not found, "calls of a Chain adapter: %s" % found


def test_generators_are_checked_only_by_multivector_and_chains():
    """MultiVector checks its terms, chains the factors of the chains it
    encodes (encode_chain, the one bridge of every Chain operator to int
    words), and certificate the factors of chain text (parse_codes, the
    one parser); no other module checks a generator."""
    found = {module for module, _ in _calls({"check_generator"})}
    assert found == {"multivector.py", "chains.py", "certificate.py"}


def test_one_class_holds_the_combination_arithmetic():
    """Chain and MultiVector share the arithmetic of a rational combination:
    exactly one class of the package defines __add__, __neg__, __mul__
    and __eq__, and no other defines any of the first three."""
    arithmetic = {"__add__", "__neg__", "__mul__", "__eq__"}
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ClassDef):
                defined = arithmetic & {item.name for item in node.body
                                        if isinstance(item, ast.FunctionDef)}
                if defined - {"__eq__"}:
                    found["%s:%s" % (path.name, node.name)] = defined
    assert found == {"multivector.py:_Combination": arithmetic}


# module -> the names it re-exports from words, where they are defined
REEXPORTED = {
    "chains": ["Alphabet", "BasisIndex", "_class_multisets", "_compositions", "alphabet",
               "enumerate_basis", "factor_key", "format_factor", "generators_of_bidegree",
               "place_factor"],
    "multivector": ["_bracket_mono", "_merge_directions"],
    "boundary": ["WeightEscapeError", "_bracket", "_word_boundary", "boundary_columns"],
}

# module -> the names it imports back from certificate, where they are defined
CERTIFICATE_REEXPORTED = {
    "chains": ["codes_to_text", "parse_codes"],
    "boundary": ["boundary_codes"],
    "contraction": ["CertificateError", "_bounds", "_capital_phi_codes", "_certificate_dict",
                    "_certify_codes", "_certify_form", "_check_codes", "_check_psi_image",
                    "_column_operator", "_combine", "_content", "_krylov_minimal_polynomial",
                    "_one_block", "_read_certificate", "_shifts", "_t_codes",
                    "boundary_codes"],
}


# module -> the names it imports from monomial, where they are defined
MONOMIAL_REEXPORTED = {
    "multivector": ["DimensionMismatchError", "_FACTOR", "_FACTOR_RE", "_exponents",
                    "check_generator", "format_coeff", "parse_coeff", "parse_factor"],
    "chains": ["check_generator", "format_coeff"],
    "certificate": ["check_generator", "format_coeff", "parse_coeff", "parse_factor"],
}


def _imports(leaf):
    """The modules of the package that leaf.py imports, and the modules
    outside the package and the standard library that it imports."""
    path = SRC / (leaf + ".py")
    package, outside = [], []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            outside += [a.name for a in node.names
                        if a.name.split(".")[0] not in sys.stdlib_module_names]
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                package.append(node.module)
            elif node.module.split(".")[0] not in sys.stdlib_module_names:
                outside.append(node.module)
    return package, outside


def test_words_is_a_leaf():
    """The int-word kernel imports only the standard library and the
    counting leaf, so the commands that run on it load nothing else."""
    assert _imports("words") == (["counting"], [])


def test_certificate_is_a_leaf():
    """The certificate path imports only the standard library, monomial and
    words, so certify and check-certificate load nothing else of the
    package."""
    assert _imports("certificate") == (["monomial", "words"], [])


def test_monomial_is_a_leaf():
    """The generator check and the coefficient and factor text import only
    the standard library, so verify jacobi, which runs MultiVector, loads
    none of the certificate path."""
    assert _imports("monomial") == ([], [])


def _check_reexports(leaf, table):
    """Each module of table hands out the objects of leaf under the old
    names, and no other module of the package defines or assigns one at
    its top level."""
    import importlib

    source = importlib.import_module("schouten." + leaf)
    for module, names in table.items():
        mod = importlib.import_module("schouten." + module)
        for name in names:
            value = getattr(source, name)
            assert getattr(mod, name) is value, (module, name)
            if callable(value):
                assert value.__module__ == "schouten." + leaf, name
    moved = {name for names in table.values() for name in names}
    elsewhere = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == leaf + ".py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name in moved):
                elsewhere.append("%s:%s" % (path.name, node.name))
        for node in tree.body:
            if isinstance(node, ast.Assign):
                elsewhere += ["%s:%s" % (path.name, target.id) for target in node.targets
                              if isinstance(target, ast.Name) and target.id in moved]
    assert not elsewhere


def test_reexported_kernel_names_are_the_words_definitions():
    """chains, multivector and boundary hand out the objects of words under
    the old names, and no other module of the package defines one."""
    _check_reexports("words", REEXPORTED)


def test_certificate_names_are_defined_once():
    """chains, boundary and contraction hand out the objects of certificate
    under the old names, and no other module of the package defines one:
    each function of the certificate path has one definition."""
    _check_reexports("certificate", CERTIFICATE_REEXPORTED)


def test_monomial_names_are_defined_once():
    """multivector, chains and certificate hand out the generator check and
    the coefficient and factor text of monomial, and no other module of the
    package defines one."""
    _check_reexports("monomial", MONOMIAL_REEXPORTED)


def _fresh(code):
    """Run code in a fresh interpreter that sees this package; returns the
    JSON its last stdout line prints."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


# modules loaded by the code after `before` was taken
NEW_MODULES = "json.dumps(sorted(set(sys.modules) - before))"


def test_import_schouten_loads_no_submodule():
    new = _fresh("import sys, json; before = set(sys.modules); import schouten; "
                 "print(%s)" % NEW_MODULES)
    assert [m for m in new if m.startswith("schouten.")] == []


@pytest.mark.parametrize("argv", [None, ["dims", "--n", "2", "--w", "1", "--h", "1"],
                                  ["euler", "--n", "2", "--w", "1", "--h", "1"]],
                         ids=["import", "dims", "euler"])
def test_cli_counting_loads_neither_contraction_nor_dataclasses(argv):
    run = "" if argv is None else "cli.main(%r); " % argv
    new = _fresh("import sys, json; before = set(sys.modules); from schouten import cli; "
                 + run + "print(%s)" % NEW_MODULES)
    assert "schouten.cli" in new
    assert "schouten.contraction" not in new
    assert "dataclasses" not in new
    # the weight split, which only betti imports
    assert "schouten.torus" not in new


DATA = Path(__file__).parent / "data"

# command -> (argv, the schouten modules it loads besides cli and counting)
COMMAND_MODULES = {
    "dims": (["dims", "--n", "2", "--w", "1", "--h", "1"], []),
    "euler": (["euler", "--n", "2", "--w", "1", "--h", "1"], []),
    "betti": (["betti", "--n", "2", "--m", "2", "--w", "0", "--h", "0"],
              ["homology", "linalg", "record", "torus", "words"]),
    "basis": (["basis", "--n", "1", "--m", "2", "--w", "0", "--h", "0"], ["words"]),
    "certify": (["certify", "--n", "2", "--input", str(DATA / "cycle_2_1.txt")],
                ["certificate", "monomial", "words"]),
    "check-certificate": (["check-certificate", "--input", str(DATA / "cycle_2_1.cert.json")],
                          ["certificate", "monomial", "words"]),
    "psi-matrix": (["psi-matrix", "--n", "2", "--w", "1"],
                   ["certificate", "contraction", "monomial", "record", "words"]),
    "verify-dsq": (["verify", "dsq", "--n", "1"],
                   ["boundary", "certificate", "chains", "linalg", "monomial", "multivector",
                    "verify", "words"]),
    "verify-jacobi": (["verify", "jacobi", "--n", "1"],
                      ["monomial", "multivector", "verify", "words"]),
    "verify-weights": (["verify", "weights", "--n", "1"], ["verify", "words"]),
    "verify-psi": (["verify", "psi", "--n", "1"],
                   ["certificate", "contraction", "monomial", "record", "verify", "words"]),
    "verify-homotopy": (["verify", "homotopy", "--n", "1"],
                        ["boundary", "certificate", "chains", "monomial", "multivector",
                         "verify", "words"]),
    "verify-all": (["verify", "all", "--n", "1"],
                   ["boundary", "certificate", "chains", "contraction", "linalg", "monomial",
                    "multivector", "record", "verify", "words"]),
}


@pytest.mark.parametrize("command", list(COMMAND_MODULES))
def test_each_command_loads_exactly_the_modules_it_runs(command):
    argv, modules = COMMAND_MODULES[command]
    rc, new = _fresh("import sys, json; before = set(sys.modules); from schouten import cli; "
                     "rc = cli.main(%r); "
                     "print(json.dumps([rc, sorted(set(sys.modules) - before)]))" % (argv,))
    assert rc == 0
    loaded = sorted(m for m in new if m.startswith("schouten."))
    assert loaded == sorted("schouten." + m for m in ["cli", "counting"] + modules)
    if command in ("dims", "euler"):
        assert "fractions" not in new and "decimal" not in new
    if command in ("betti", "basis"):
        # the int-word kernel builds no Fraction, Chain, MultiVector or regex
        assert not {"fractions", "decimal", "numbers", "schouten.chains",
                    "schouten.multivector", "schouten.boundary"} & set(new)
    if command in ("certify", "check-certificate", "psi-matrix"):
        assert not {"schouten.linalg", "schouten.homology", "schouten.torus"} & set(new)
    if command in ("psi-matrix", "verify-psi"):
        # psi runs on int words; only the Chain adapters load chains
        assert not {"schouten.chains", "schouten.multivector"} & set(new)
    if command == "verify-jacobi":
        assert "schouten.certificate" not in new
    if command in ("certify", "check-certificate"):
        # the int-word certificate path builds no Chain and no MultiVector
        assert not {"schouten.chains", "schouten.multivector", "schouten.boundary",
                    "schouten.record", "schouten.contraction"} & set(new)


def _docstring_module_table():
    """The table of cli's docstring as {command: [its modules]}.  A row
    starts at the table's indentation; a line indented deeper continues
    the row above, in its names column, its modules column or both."""
    from schouten import cli

    lines = cli.__doc__.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("    --help"))
    col = lines[start].index("nothing")
    rows = []
    for line in lines[start:]:
        if not line.strip():
            break
        if not line.startswith("     "):
            rows.append(([], []))
        names, modules = rows[-1]
        names += [name.strip() for name in line[:col].split(",") if name.strip()]
        modules += line[col:].split()
    return {name: modules for names, modules in rows for name in names}


def test_cli_docstring_table_matches_the_loaded_modules():
    """The module table in cli's docstring lists, for every command, what
    test_each_command_loads_exactly_the_modules_it_runs finds it loads."""
    table = _docstring_module_table()
    assert table.pop("--help") == table.pop("<cmd> --help") == ["nothing"]
    assert sorted(table) == sorted(command.replace("verify-", "verify ")
                                   for command in COMMAND_MODULES)
    for command, (_, modules) in COMMAND_MODULES.items():
        listed = table[command.replace("verify-", "verify ")]
        assert len(listed) == len(set(listed)), command
        assert sorted(listed) == sorted(["counting"] + modules), command


def test_help_loads_nothing_beyond_the_counting_leaf():
    argvs = [["--help"]] + [[command, "--help"] for command in
                            ["dims", "betti", "euler", "verify", "certify", "check-certificate",
                             "basis", "psi-matrix"]]
    codes, new = _fresh("""
import sys, json
before = set(sys.modules)
from schouten import cli
codes = []
for argv in %r:
    try:
        cli.main(argv)
    except SystemExit as e:
        codes.append(e.code)
print(json.dumps([codes, sorted(set(sys.modules) - before)]))
""" % (argvs,))
    assert codes == [0] * len(argvs)
    assert {m for m in new if m.startswith("schouten.")} <= {"schouten.cli",
                                                            "schouten.counting"}


def test_no_module_of_the_package_loads_dataclasses():
    new = _fresh("import sys, json; before = set(sys.modules); "
                 "import schouten.cli, schouten.contraction, schouten.homology; "
                 "print(%s)" % NEW_MODULES)
    assert "schouten.contraction" in new
    assert "dataclasses" not in new


def test_lazy_exports_resolve():
    # schouten.cli first: importing the submodule schouten.boundary must not
    # shadow the exported function schouten.boundary
    got = _fresh("""
import importlib, json, schouten, schouten.cli
names = sorted(schouten._EXPORTS)
ok = [name for name in names if getattr(schouten, name) is getattr(
      importlib.import_module("schouten." + schouten._EXPORTS[name]), name)]
try:
    schouten.no_such_name
    unknown = "resolved"
except AttributeError:
    unknown = "AttributeError"
from schouten import betti, boundary
print(json.dumps({"names": names, "ok": ok, "dir": dir(schouten), "unknown": unknown,
                  "from": [betti.__module__, boundary.__name__, boundary.__module__],
                  "module": schouten.homology.__name__}))
""")
    assert len(got["names"]) == 35
    assert got["ok"] == got["names"]
    assert set(got["names"]) <= set(got["dir"])
    assert got["unknown"] == "AttributeError"
    assert got["from"] == ["schouten.homology", "boundary", "schouten.boundary"]
    assert got["module"] == "schouten.homology"


def test_docs_name_only_what_exists():
    """Every `module.name` reference to a module of the package, in
    README.md and in the package's docstrings, names an attribute of that
    module, so a rename or a deletion cannot leave a stale reference."""
    import importlib
    import re

    modules = sorted(path.stem for path in SRC.glob("*.py") if path.stem != "__init__")
    texts = {"README.md": (SRC.parents[1] / "README.md").read_text()}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
                doc = ast.get_docstring(node)
                if doc:
                    texts["%s:%s" % (path.name, getattr(node, "name", ""))] = doc
    reference = re.compile(r"(?<![\w.])(?:schouten\.)?(%s)\.([A-Za-z_]\w*)" % "|".join(modules))
    found = [(where,) + m.groups() for where, text in texts.items()
             for m in reference.finditer(text) if m.group(2) != "py"]
    stale = [ref for ref in found
             if not hasattr(importlib.import_module("schouten." + ref[1]), ref[2])]
    assert len(found) >= 40
    assert not stale


def test_traced_functions_resolve():
    """Every function that perfbench/traced_cli.py traces is still a
    function of its schouten module, so deleting API cannot break the
    benchmark's traced pass."""
    import importlib
    import importlib.util

    path = SRC.parents[1] / "perfbench" / "traced_cli.py"
    spec = importlib.util.spec_from_file_location("traced_cli", path)
    traced_cli = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced_cli)
    missing = [mod + "." + fn for mod, funcs in traced_cli.TRACED.items() for fn in funcs
               if not callable(getattr(importlib.import_module("schouten." + mod), fn, None))]
    assert traced_cli.TRACED and not missing
