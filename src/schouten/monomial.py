"""The generator check and the coefficient and factor text (see multivector)."""

from fractions import Fraction
import re


class DimensionMismatchError(ValueError):
    pass


def check_generator(n, alpha, beta):
    if len(beta) != n:
        raise DimensionMismatchError("beta has length %d, ambient dimension is %d" % (len(beta), n))
    if any(b < 0 for b in beta):
        raise ValueError("negative exponent in %r" % (beta,))
    if not alpha:
        raise ValueError("empty direction set")
    if any(not 1 <= a <= n for a in alpha):
        raise ValueError("direction out of range 1..%d in %r" % (n, alpha))
    if any(alpha[i] >= alpha[i + 1] for i in range(len(alpha) - 1)):
        raise ValueError("directions not strictly increasing: %r" % (alpha,))


def format_coeff(c):
    """The text p or p/q of a rational coefficient."""
    if type(c) is int:
        return str(c)
    c = Fraction(c)
    return str(c.numerator) if c.denominator == 1 else "%d/%d" % (c.numerator, c.denominator)


def parse_coeff(text):
    """Fraction(text), with a zero denominator reported as ValueError."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % (text,)) from None


_FACTOR = r"x\[([0-9,]*)\]\s*d\[([0-9,]+)\]\s*$"
_FACTOR_RE = re.compile(r"^\s*" + _FACTOR)


def parse_factor(text):
    """Parse the text x[beta] d[alpha] of a generator, the monomial form
    without its coefficient; returns (beta, alpha)."""
    m = _FACTOR_RE.match(text)
    if m is None:
        raise ValueError("malformed factor: %r" % text)
    return _exponents(m.group(1), m.group(2))


def _exponents(beta, alpha):
    return (tuple(map(int, beta.split(","))) if beta else (), tuple(map(int, alpha.split(","))))
