"""Exact homology engine for polynomial multivector fields on R^n under the
Schouten bracket: double-weighted chain complexes, boundary matrices, Betti
numbers, and the quasi-contraction operators that certify exactness of
2-cycles in the (w, w) blocks.

The exports below, and the submodules that define them, are imported
lazily (PEP 562): `import schouten` loads no submodule, and `schouten.betti`
or `from schouten import betti` loads the submodule that defines it on
first use.
"""

import sys
import types
from importlib import import_module

# exported name -> submodule that defines it
_EXPORTS = {
    **dict.fromkeys(["MultiVector", "schouten_bracket", "bidegree"], "multivector"),
    **dict.fromkeys(["Chain", "canonicalize_word", "wedge_chain", "weight_signature",
                     "basis_dim", "chain_to_vector", "max_arity"], "chains"),
    **dict.fromkeys(["BasisIndex", "enumerate_basis"], "words"),
    **dict.fromkeys(["boundary", "boundary_matrix"], "boundary"),
    **dict.fromkeys(["SparseMatrixQ", "rank_exact", "kernel_basis"], "linalg"),
    **dict.fromkeys(["HomologyReport", "betti", "euler_characteristic", "is_poisson",
                     "dims_table"], "homology"),
    **dict.fromkeys(["classify_type", "phi_op", "capital_phi", "psi", "PairStratum",
                     "Stratification", "project_stratum", "structured_descent",
                     "annihilating_polynomial", "certify_exact", "check_certificate",
                     "verify_psi_structure", "ExactnessCertificate"], "contraction"),
}
_SUBMODULES = set(_EXPORTS.values())

__version__ = "0.1.0"


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        if name in _SUBMODULES:
            return import_module("." + name, __name__)
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(import_module("." + module, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS) | _SUBMODULES)


class _Package(types.ModuleType):
    """Importing a submodule binds it as an attribute of the package.  The
    function schouten.boundary shares its name with the submodule
    schouten.boundary; an exported name keeps naming the export."""

    def __setattr__(self, name, value):
        if not (name in _EXPORTS and isinstance(value, types.ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
