"""Exact scalar arithmetic over the rationals and over prime fields.

Matrices in this package store raw values (``Fraction`` over the rationals,
``int`` residues over a prime field) tagged with a single field object per
matrix.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InputError

# Default prime for generic-point sampling; large enough that accidental
# rank drop is negligible at the matrix sizes this package handles.
DEFAULT_SAMPLING_PRIME = 32003


# Miller-Rabin with these bases is exact for every p < 3.3 * 10**24, so for
# every p a prime field accepts (below 2**64).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MAX_PRIME = 2**64


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    for b in _PRIME_BASES:
        if p % b == 0:
            return p == b
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _PRIME_BASES:
        x = pow(b, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def int_from_json(obj, what: str) -> int:
    """``obj`` if it is a JSON integer; floats, bools and strings are refused."""
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise InputError(f"{what} must be an integer, got {obj!r}")
    return obj


class Field:
    """Common interface for the two concrete fields."""

    tag: str

    def normalize(self, value):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def scalar_to_json(self, a):
        raise NotImplementedError

    def scalar_from_json(self, obj):
        raise NotImplementedError

    def __eq__(self, other):
        return isinstance(other, Field) and self.tag == other.tag

    def __hash__(self):
        return hash(self.tag)

    def __repr__(self):
        return self.tag


class RationalField(Field):
    """The field of rationals; values are ``fractions.Fraction``."""

    tag = "Q"

    def normalize(self, value):
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, str):
            return Fraction(value)
        raise InputError(f"cannot coerce {value!r} into Q")

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero in Q")
        return 1 / a

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def scalar_to_json(self, a):
        if a.denominator == 1:
            return int(a)
        return f"{a.numerator}/{a.denominator}"

    def scalar_from_json(self, obj):
        if isinstance(obj, bool) or not isinstance(obj, (int, str)):
            raise InputError(f"bad rational entry {obj!r}")
        try:
            return self.normalize(obj)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad rational entry {obj!r}") from exc


class PrimeField(Field):
    """The prime field with ``p`` elements; values are residues in [0, p)."""

    def __init__(self, p: int):
        if p >= _MAX_PRIME:
            raise InputError(f"{p} is too large: a prime field needs p < 2**64")
        if not _is_prime(p):
            raise InputError(f"{p} is not prime")
        self.p = p
        self.tag = f"Fp:{p}"

    def normalize(self, value):
        if isinstance(value, int):
            return value % self.p
        if isinstance(value, str):
            return int(value) % self.p
        if isinstance(value, Fraction):
            if value.denominator % self.p == 0:
                raise InputError(f"denominator of {value} vanishes mod {self.p}")
            return (value.numerator * pow(value.denominator, -1, self.p)) % self.p
        raise InputError(f"cannot coerce {value!r} into {self.tag}")

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError(f"inverse of zero in {self.tag}")
        return pow(a, self.p - 2, self.p)

    def zero(self):
        return 0

    def one(self):
        return 1

    def scalar_to_json(self, a):
        return a

    def scalar_from_json(self, obj):
        if isinstance(obj, bool) or not isinstance(obj, (int, str)):
            raise InputError(f"bad {self.tag} entry {obj!r}")
        try:
            return self.normalize(int(obj))
        except ValueError as exc:
            raise InputError(f"bad {self.tag} entry {obj!r}") from exc


QQ = RationalField()
GF2 = PrimeField(2)
GF3 = PrimeField(3)


def field_from_tag(tag: str) -> Field:
    """Parse a field tag of the form ``"Q"`` or ``"Fp:<p>"``."""
    if tag == "Q":
        return QQ
    if isinstance(tag, str) and tag.startswith("Fp:"):
        try:
            p = int(tag[3:])
        except ValueError as exc:
            raise InputError(f"bad field tag {tag!r}") from exc
        return PrimeField(p)
    raise InputError(f"unknown field tag {tag!r}")
