"""Exact scalar fields: the rationals and the prime fields.

Scalars are :class:`fractions.Fraction` values over the rationals and
:class:`Fp` residues over a prime field.  Both support the ordinary arithmetic
operators, so matrix and polynomial code is field-generic.  There is no
floating point anywhere.  ``fractions`` is imported only where a rational is
built, so a process that works over F_p alone never loads it (nor the
``decimal`` module it loads).
"""

from __future__ import annotations

import sys
from functools import cached_property

from .errors import DivisorNotUnit, FieldMismatch, ParseError


# Miller-Rabin over the primes 2..41 is exact below this bound (the least
# strong pseudoprime to all thirteen bases; Sorenson and Webster, 2015)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality check over the prime bases 2..41.

    The answer is exact below 3.3e24; a larger ``n`` raises ``ParseError``
    rather than getting a probabilistic answer.
    """
    if n < 2:
        return False
    if n >= _MR_EXACT_BELOW:
        raise ParseError(f"modulus {n} is too large to certify as prime (limit 3.3e24)")
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
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


class Fp:
    """Canonical residue in ``[0, p)`` for a prime ``p``.

    Arithmetic only mixes with residues of the same modulus or with plain
    ints (which are reduced).  Anything else is a ``TypeError`` rather than a
    silent coercion.
    """

    __slots__ = ("v", "p")

    def __init__(self, v: int, p: int):
        self.v = v % p
        self.p = p

    def _lift(self, other):
        if isinstance(other, Fp):
            if other.p != self.p:
                raise FieldMismatch(f"residues mod {self.p} and mod {other.p}")
            return other.v
        if isinstance(other, int):
            return other % self.p
        return None

    def __add__(self, other):
        w = self._lift(other)
        return NotImplemented if w is None else Fp(self.v + w, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        w = self._lift(other)
        return NotImplemented if w is None else Fp(self.v - w, self.p)

    def __rsub__(self, other):
        w = self._lift(other)
        return NotImplemented if w is None else Fp(w - self.v, self.p)

    def __mul__(self, other):
        w = self._lift(other)
        return NotImplemented if w is None else Fp(self.v * w, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        w = self._lift(other)
        if w is None:
            return NotImplemented
        if w % self.p == 0:
            raise ZeroDivisionError(f"division by zero in F_{self.p}")
        return Fp(self.v * pow(w, -1, self.p), self.p)

    def __rtruediv__(self, other):
        w = self._lift(other)
        if w is None:
            return NotImplemented
        if self.v == 0:
            raise ZeroDivisionError(f"division by zero in F_{self.p}")
        return Fp(w * pow(self.v, -1, self.p), self.p)

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        if e == 0:
            return Fp(1, self.p)
        if e < 0 and self.v == 0:
            raise ZeroDivisionError(f"division by zero in F_{self.p}")
        return Fp(pow(self.v, e, self.p), self.p)

    def __neg__(self):
        return Fp(-self.v, self.p)

    def __bool__(self):
        return self.v != 0

    def __eq__(self, other):
        if isinstance(other, Fp):
            return self.p == other.p and self.v == other.v
        return NotImplemented

    def __hash__(self):
        return hash((self.v, self.p))

    def __repr__(self):
        return str(self.v)


def _loaded(module: str, name: str):
    """The class ``name`` of ``module``, or ``()``, which no value is an
    instance of, while the module is not loaded: none of its values can
    exist yet, and the lookup loads nothing."""
    loaded = sys.modules.get(module)
    return () if loaded is None else getattr(loaded, name)


class Field:
    """Descriptor of an exact coefficient field."""

    characteristic: int

    def coerce(self, x):
        """Return ``x`` as an element of this field, or raise."""
        raise NotImplementedError

    def from_literal(self, num: int, den: int):
        """Value of the literal ``num/den`` (den >= 1, taken verbatim)."""
        raise NotImplementedError

    @property
    def zero(self):
        return self.coerce(0)

    @property
    def one(self):
        return self.coerce(1)


class Rationals(Field):
    """The field of arbitrary-precision rationals."""

    characteristic = 0

    @cached_property
    def _fraction(self):
        """``fractions.Fraction``, imported when the first rational is built."""
        from fractions import Fraction

        return Fraction

    def coerce(self, x):
        Fraction = self._fraction
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        if isinstance(x, Fp):
            raise FieldMismatch("cannot coerce a prime-field residue into Q")
        raise FieldMismatch(f"cannot coerce {x!r} into Q")

    def from_literal(self, num, den):
        if den < 1:
            raise ValueError("denominator must be a positive integer")
        return self._fraction(num, den)

    def sort_key(self, x):
        n = x.numerator
        return (abs(n), x.denominator, 0 if n == 0 else (1 if n > 0 else -1))

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Q"


QQ = Rationals()


class PrimeField(Field):
    """The field of integers modulo a prime ``p``."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p

    @property
    def characteristic(self):
        return self.p

    def coerce(self, x):
        if isinstance(x, Fp):
            if x.p != self.p:
                raise FieldMismatch(f"residue mod {x.p} used in F_{self.p}")
            return x
        if isinstance(x, int):
            return Fp(x, self.p)
        if isinstance(x, _loaded("fractions", "Fraction")):
            return self.from_literal(x.numerator, x.denominator)
        raise FieldMismatch(f"cannot coerce {x!r} into F_{self.p}")

    def from_literal(self, num, den):
        if den < 1:
            raise ValueError("denominator must be a positive integer")
        if den % self.p == 0:
            raise DivisorNotUnit(f"denominator {den} is 0 mod {self.p}")
        return Fp(num * pow(den % self.p, -1, self.p), self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return f"F_{self.p}"


def parse_scalar(text: str, field: Field):
    """Parse a scalar literal ``[-]int[/posint]``, in the ASCII digits 0-9,
    into a field element."""
    s = text.strip()
    neg = s.startswith("-")
    if neg:
        s = s[1:]
    num_str, slash, den_str = s.partition("/")
    if not s.isascii() or not num_str.isdigit() or (slash and not den_str.isdigit()):
        raise ParseError(f"bad scalar literal {text!r}")
    try:
        den = int(den_str) if den_str else 1
        num = int(num_str)
    except ValueError:  # longer than the interpreter converts
        digits = max(len(num_str), len(den_str))
        raise ParseError(f"bad scalar literal: {digits} digits are too long to convert") from None
    if den == 0:
        raise ParseError(f"bad scalar literal {text!r}: denominator must be positive")
    return field.from_literal(-num if neg else num, den)


def power_too_long(x, e: int) -> bool:
    """Whether the rational x^e has a numerator or a denominator of more
    digits than ``int()`` converts (the interpreter's limit, none before
    Python 3.10.7), decided without computing a large power: |n|^e is at
    least 2^(e (bits(n) - 1)), and 2^(4 limit) exceeds 10^limit.  An ``Fp``
    power never is."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    return isinstance(x, _loaded("fractions", "Fraction")) and bool(limit) and any(
        e * (n.bit_length() - 1) > 4 * limit or n**e >= 10**limit
        for n in (abs(x.numerator), x.denominator)
    )
