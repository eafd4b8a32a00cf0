"""Exact coefficient arithmetic: integers, rationals, integers mod m.

``Rational`` is stdlib ``fractions.Fraction``, which already maintains the
canonical-form invariants (gcd(|numerator|, denominator) = 1, denominator > 0,
zero stored as 0/1), so it is used directly as the rational coefficient type.

The ring objects below give polynomials, towers, and matrices a uniform way to
construct, test, coerce, and print coefficients.  The elements themselves are
plain values that carry the arithmetic operators: int over ZZ, Fraction over
QQ, and int over Z/m (``ModularRing``) and its field case GF(p)
(``PrimeField``).  A modular ring reduces on construction and on read, never
on each operation; ``modulus`` is m there and None over ZZ and QQ.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import OracleResourceError

Rational = Fraction

# Every number the program derives has at most MAX_DERIVED_DIGITS decimal
# digits where it is checked: each power of a point coordinate formed while
# reducing into the residue tower, each quotient coefficient of triangular
# division over ZZ and QQ, and each residue-tower element printed (the rest
# of a report echoes parsed input).
# That keeps printing below CPython's 4300-digit limit on int-to-text
# conversion; a larger number ends the job as a resource error (exit 3)
# instead of a traceback or an unbounded run.
MAX_DERIVED_DIGITS = 4000
_DERIVED_BOUND = 10**MAX_DERIVED_DIGITS


def check_derived(n: int) -> None:
    """Raise OracleResourceError when |n| has more than MAX_DERIVED_DIGITS
    digits."""
    if abs(n) >= _DERIVED_BOUND:
        raise OracleResourceError(
            "a derived number of about %d digits is above the limit of %d"
            % (abs(n).bit_length() * 30103 // 100000 + 1, MAX_DERIVED_DIGITS)
        )


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# Miller-Rabin on the bases above is exact below this bound (Sorenson and
# Webster, "Strong pseudoprimes to twelve prime bases", 2015)
PRIME_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; raises ValueError for n >= PRIME_BOUND,
    where the test is no longer proven exact."""
    if n >= PRIME_BOUND:
        raise ValueError(
            "%d is not below %d, the bound of the primality test" % (n, PRIME_BOUND)
        )
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class IntegerRing:
    """The ring of integers; elements are plain Python ints."""

    name = "ZZ"
    is_field = False
    modulus = None

    def from_int(self, n: int) -> int:
        return int(n)

    def coerce(self, c) -> int:
        if isinstance(c, bool) or not isinstance(c, int):
            raise TypeError("cannot coerce %r into ZZ" % (c,))
        return c

    def zero(self) -> int:
        return 0

    def one(self) -> int:
        return 1

    def is_zero(self, a) -> bool:
        return a == 0

    def elem_str(self, a) -> str:
        return str(a)

    def __reduce__(self):
        return "ZZ"

    def __repr__(self):
        return "ZZ"


class RationalField:
    """The field of rationals; elements are ``fractions.Fraction`` values."""

    name = "QQ"
    is_field = True
    modulus = None

    def from_int(self, n: int) -> Fraction:
        return Fraction(n)

    def fraction(self, num: int, den: int) -> Fraction:
        return Fraction(num, den)

    def coerce(self, c) -> Fraction:
        if isinstance(c, Fraction):
            return c
        if isinstance(c, int) and not isinstance(c, bool):
            return Fraction(c)
        raise TypeError("cannot coerce %r into QQ" % (c,))

    def zero(self) -> Fraction:
        return Fraction(0)

    def one(self) -> Fraction:
        return Fraction(1)

    def is_zero(self, a) -> bool:
        return a == 0

    def inv(self, a: Fraction) -> Fraction:
        return Fraction(1) / a

    def elem_str(self, a) -> str:
        return str(a)

    def __reduce__(self):
        return "QQ"

    def __repr__(self):
        return "QQ"


class ModularRing:
    """Z/m; elements are plain ints.  A polynomial over it holds canonical
    residues in [0, m), reduced once by ``MultiPoly``; a sum or product
    formed outside a polynomial may leave that range, so ``is_zero`` and
    ``elem_str`` reduce what they read."""

    is_field = False

    def __init__(self, m: int):
        self.modulus = m
        self.name = "Z/%d" % m

    def from_int(self, n: int) -> int:
        return n % self.modulus

    def coerce(self, c) -> int:
        if isinstance(c, bool) or not isinstance(c, int):
            raise TypeError("cannot coerce %r into %s" % (c, self.name))
        return c % self.modulus

    def zero(self) -> int:
        return 0

    def one(self) -> int:
        return 1

    def is_zero(self, a) -> bool:
        return a % self.modulus == 0

    def elem_str(self, a) -> str:
        return str(a % self.modulus)

    def __eq__(self, other):
        return type(other) is type(self) and other.modulus == self.modulus

    def __hash__(self):
        return hash(self.modulus)

    def __repr__(self):
        return self.name


class PrimeField(ModularRing):
    """The prime field GF(p).  Instances are cached, one per p."""

    _cache: dict = {}
    is_field = True

    def __new__(cls, p: int):
        inst = cls._cache.get(p)
        if inst is None:
            if not is_prime(p):
                raise ValueError("%d is not prime" % p)
            inst = cls._cache[p] = super().__new__(cls)
        return inst

    def __init__(self, p: int):
        self.modulus = p
        self.name = "GF(%d)" % p

    def __reduce__(self):
        return PrimeField, (self.modulus,)

    def inv(self, a: int) -> int:
        p = self.modulus
        if a % p == 0:
            raise ZeroDivisionError("inverse of zero in GF(%d)" % p)
        return pow(a, p - 2, p)


ZZ = IntegerRing()
QQ = RationalField()
