"""Run one `schouten` CLI command with a span around every call into the
public functions of each module, then write the spans out as JSON.

    python3 perfbench/traced_cli.py SPANS_FILE OP_ID CLI_ARG...

The package itself is not instrumented: the traced functions are replaced,
in every `schouten` module that holds a reference to them, by wrappers
defined here.  Spans are kept in memory and written when the command ends.
A span is {"id", "name", "parent", "op", "start", "end"}, plus "counts" for
the functions whose results carry a size.
"""

import functools
import importlib
import json
import sys
import time
import types


def _basis_counts(args, basis):
    return {"chains.enumerate_basis.calls": 1, "chains.words": len(basis)}


def _matrix_counts(args, bm):
    return {"boundary.boundary_matrix.nnz": len(bm.matrix.entries)}


def _rank_counts(args, rank):
    M = args[0]
    return {"linalg.rank_exact.rows": M.rows, "linalg.rank_exact.cols": M.cols,
            "linalg.rank": rank}


def _certificate_counts(args, cert):
    return {"contraction.annihilator_degree": len(cert.annihilator) - 1,
            "contraction.primitive_terms": len(cert.primitive.terms)}


# module -> {public function: counter of its result, or None}
TRACED = {
    "chains": {"enumerate_basis": _basis_counts, "parse_chain": None,
               "chain_to_text": None},
    "boundary": {"boundary_matrix": _matrix_counts, "boundary": None},
    "linalg": {"rank_exact": _rank_counts},
    "homology": {"betti": None, "dims_table": None, "euler_characteristic": None},
    "contraction": {"certify_exact": _certificate_counts, "check_certificate": None},
    "cli": {"main": None},
}


class Tracer:
    """Collects the spans of one op."""

    def __init__(self, op):
        self.op = op
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name, "op": self.op,
                    "parent": self._stack[-1]["id"] if self._stack else None}
            self.spans.append(span)
            self._stack.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span["counts"] = counter(args, result)
            return result
        return traced

    def install(self):
        """Replace each traced function by its wrapper wherever a schouten
        module refers to it, so calls between modules are traced too."""
        wrappers = {}
        for mod_name, funcs in TRACED.items():
            mod = importlib.import_module("schouten." + mod_name)
            for fn_name, counter in funcs.items():
                fn = getattr(mod, fn_name)
                wrappers[fn] = self.wrap("%s.%s" % (mod_name, fn_name), fn, counter)
        for name, mod in list(sys.modules.items()):
            if name != "schouten" and not name.startswith("schouten."):
                continue
            for attr, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    setattr(mod, attr, wrappers[value])


def main(argv):
    spans_path, op = argv[0], argv[1]
    tracer = Tracer(op)
    tracer.install()
    from schouten import cli
    try:
        return cli.main(argv[2:])
    finally:
        with open(spans_path, "w") as f:
            json.dump(tracer.spans, f)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
