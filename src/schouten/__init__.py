"""Exact homology engine for polynomial multivector fields on R^n under the
Schouten bracket: double-weighted chain complexes, boundary matrices, Betti
numbers, and the quasi-contraction operators that certify exactness of
2-cycles in the (w, w) blocks."""

from .multivector import (
    MultiVector,
    wedge_mv,
    schouten_bracket,
    bidegree,
    scale_by_coordinate,
)
from .chains import (
    Chain,
    BasisIndex,
    canonicalize_word,
    wedge_chain,
    weight_signature,
    enumerate_basis,
    basis_dim,
    chain_to_vector,
    vector_to_chain,
    max_arity,
)
from .boundary import left_action, boundary, boundary_matrix
from .linalg import SparseMatrixQ, rank_exact, kernel_basis
from .homology import HomologyReport, betti, euler_characteristic, is_poisson, dims_table
from .contraction import (
    classify_type,
    phi_op,
    capital_phi,
    psi,
    PairStratum,
    Stratification,
    project_stratum,
    structured_descent,
    annihilating_polynomial,
    certify_exact,
    check_certificate,
    verify_psi_structure,
    ExactnessCertificate,
)

__version__ = "0.1.0"
