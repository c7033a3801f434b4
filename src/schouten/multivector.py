"""Polynomial-coefficient multivector fields on R^n with exact rational
coefficients: the Schouten bracket and bidegrees.

A monomial generator is x^beta d_alpha where beta is a tuple of n exponents
and alpha a strictly increasing tuple of directions in 1..n.  Its g-bidegree
is (|alpha|-1, |beta|-1); the first component drives all Koszul signs.

schouten_bracket extends the closed-form bracket of two monomials,
_bracket_mono (defined in the leaf module words and re-exported here),
bilinearly over the terms.

_Combination holds the arithmetic of a rational combination once;
MultiVector and chains.Chain subclass it and differ only in what their
constructors accept.  check_generator is the one test of a generator:
MultiVector runs it on each term, chains on the factors of the chains it
encodes, and certificate.parse_codes on the factors of chain text.

Text form of one monomial (bit-exact, used by the CLI and serialization):
    c * x[b1,...,bn] d[a1,...,am]      with c printed as p or p/q
e.g. ``-3/2 * x[1,1] d[1,2]`` is -(3/2) x1 x2 d1^d2.  format_coeff and
parse_coeff write and read the coefficient of monomial and chain text, and
parse_factor reads the text of a generator.  These three, check_generator
and DimensionMismatchError are defined in the leaf module certificate,
which the certificate commands run on without loading this module, and
are re-exported here; parse_monomial's pattern extends certificate's
factor pattern.
"""

from fractions import Fraction
import re

# the generator check and the text of coefficients and factors live in
# the leaf module certificate; re-exported here
from .certificate import (DimensionMismatchError, _FACTOR, _FACTOR_RE, _exponents,
                          check_generator, format_coeff, parse_coeff, parse_factor)
from .words import _bracket_mono, _merge_directions, format_factor


class MixedDegreeError(ValueError):
    """Raised when an operation needs a bihomogeneous multivector."""
    pass


def g_degree(gen):
    """Super degree |alpha| - 1 of a generator (alpha, beta)."""
    return len(gen[0]) - 1


class _Combination:
    """The arithmetic of a rational combination over R^n, shared by
    MultiVector (of generators) and Chain (of words).  terms maps each key
    to its nonzero coefficient; the zero combination is the empty dict.
    Every result goes through the subclass's constructor, which normalizes
    the terms, and an instance equals only one of its own class."""

    __slots__ = ("n", "terms")

    @classmethod
    def zero(cls, n):
        return cls(n)

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, type(self)) and self.n == other.n and self.terms == other.terms

    def _check(self, other):
        if self.n != other.n:
            raise DimensionMismatchError("mixing n=%d with n=%d" % (self.n, other.n))

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for k, c in other.terms.items():
            terms[k] = terms.get(k, 0) + c
        return type(self)(self.n, terms)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return type(self)(self.n, {k: -c for k, c in self.terms.items()})

    def __mul__(self, scalar):
        return type(self)(self.n, {k: c * scalar for k, c in self.terms.items()})

    __rmul__ = __mul__


class MultiVector(_Combination):
    """Normalized rational combination of monomial generators.

    terms maps (alpha, beta) -> nonzero Fraction, each generator checked.
    Instances are treated as immutable.
    """

    __slots__ = ()

    def __init__(self, n, terms=None):
        self.n = n
        clean = {}
        if terms:
            for (alpha, beta), c in terms.items():
                c = Fraction(c)
                if c:
                    check_generator(n, alpha, beta)
                    clean[(tuple(alpha), tuple(beta))] = c
        self.terms = clean

    @classmethod
    def monomial(cls, n, coeff, beta, alpha):
        return cls(n, {(tuple(alpha), tuple(beta)): Fraction(coeff)})

    @classmethod
    def coordinate_field(cls, n, l):
        """The constant vector field d_l."""
        return cls.monomial(n, 1, (0,) * n, (l,))

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def sorted_terms(self):
        """Terms in the canonical order: lexicographic on (alpha, beta)."""
        return sorted(self.terms.items(), key=lambda kv: kv[0])

    def __repr__(self):
        if not self.terms:
            return "MultiVector(%d, 0)" % self.n
        return "MultiVector(%d, %s)" % (self.n, " + ".join(
            format_monomial(c, beta, alpha) for (alpha, beta), c in self.sorted_terms()))


def format_monomial(coeff, beta, alpha):
    return "%s * %s" % (format_coeff(coeff), format_factor((alpha, beta)))


_MONO_RE = re.compile(r"^\s*(-?\d+(?:/\d+)?)\s*\*\s*" + _FACTOR)


def parse_monomial(text):
    """Parse the monomial text form; returns (coeff, beta, alpha)."""
    m = _MONO_RE.match(text)
    if m is None:
        raise ValueError("malformed monomial: %r" % text)
    return (parse_coeff(m.group(1)),) + _exponents(m.group(2), m.group(3))


def schouten_bracket(A, B):
    """Schouten bracket, extended bilinearly over monomial terms."""
    A._check(B)
    terms = {}
    for (aA, bA), cA in A.terms.items():
        for (aB, bB), cB in B.terms.items():
            for key, c in _bracket_mono(A.n, aA, bA, aB, bB):
                terms[key] = terms.get(key, 0) + c * cA * cB
    return MultiVector(A.n, terms)


def bidegree(A):
    """The g-bidegree (|alpha|-1, |beta|-1) of a bihomogeneous multivector."""
    if not A.terms:
        raise ValueError("the zero multivector has no bidegree")
    degs = {(len(alpha) - 1, sum(beta) - 1) for (alpha, beta) in A.terms}
    if len(degs) > 1:
        raise MixedDegreeError("mixed bidegrees %s; split into homogeneous parts" % sorted(degs))
    return degs.pop()
