"""Finite abelian groups in invariant-factor form and exact Q/Z arithmetic."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd
from typing import Any, Iterator, Mapping, Sequence

import numpy as np

from .errors import InputError

# Python's int and every numpy integer scalar type; bool and np.bool_ are not among them.
_INTEGER_TYPES = {int} | {np.dtype(c).type for c in np.typecodes["AllInteger"]}


def _flat(values: Any, ndim: int) -> Any:
    for _ in range(ndim - 1):
        values = itertools.chain.from_iterable(values)
    return values


def integer_array(values: Any, what: str, ndim: int = 1) -> np.ndarray | None:
    """``values``, nested ``ndim`` deep, as an int64 array (object, of Python
    ints, past int64), or None when it does not nest evenly ``ndim`` deep.
    An entry whose type is not int or a numpy integer type (a float, bool,
    string or None) raises InputError naming ``what`` and the entry: nothing is
    truncated.  An int64 array ``ndim`` deep passes without a scan, and nested lists take one.
    """
    if isinstance(values, np.ndarray):
        if values.dtype == np.int64 and values.ndim == ndim:
            return values
        values = values.tolist()
    try:
        if not _INTEGER_TYPES.issuperset(map(type, _flat(values, ndim))):
            bad = next(x for x in _flat(values, ndim) if type(x) not in _INTEGER_TYPES)
            raise InputError(f"{what} must be integers, got {bad!r}")
        try:
            return np.array(values, dtype=np.int64)
        except OverflowError:
            return np.array(values, dtype=object)
    except (TypeError, ValueError):
        return None


def integer_tuple(values: Any, what: str) -> tuple[int, ...]:
    """A flat iterable of integers, not a Mapping, as a tuple of Python ints, by ``integer_array``."""
    if not isinstance(values, (list, tuple)) and (isinstance(values, Mapping) or not hasattr(values, "__iter__")):
        raise InputError(f"{what} must be a list of integers, got {values!r}")
    return tuple(integer_array(list(values), what).tolist())


def integer(value: Any, what: str) -> int:
    """One integer as a Python int: an int passes as it is (no array is built
    on a hot constructor), anything else goes through ``integer_tuple``."""
    return value if type(value) is int else integer_tuple((value,), what)[0]


@dataclass(frozen=True)
class FinAb:
    """Z/d_1 + ... + Z/d_k with d_1 | d_2 | ... | d_k and every d_i >= 2.

    The empty factor list is the trivial group.  Elements are integer
    tuples reduced componentwise.
    """

    factors: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "factors", integer_tuple(self.factors, "invariant factors"))
        for i, d in enumerate(self.factors):
            if d < 2:
                raise InputError(f"invariant factor {d} < 2 at position {i}")
            if i and self.factors[i] % self.factors[i - 1]:
                raise InputError(
                    f"invariant factors {self.factors[i - 1]}, {self.factors[i]} break the divisibility chain"
                )

    @property
    def rank(self) -> int:
        return len(self.factors)

    @property
    def order(self) -> int:
        n = 1
        for d in self.factors:
            n *= d
        return n

    @property
    def exponent(self) -> int:
        return self.factors[-1] if self.factors else 1

    def add(self, a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
        return tuple((x + y) % d for x, y, d in zip(a, b, self.factors))

    def elements(self) -> Iterator[tuple[int, ...]]:
        return itertools.product(*(range(d) for d in self.factors))

    def basis_vector(self, i: int) -> tuple[int, ...]:
        return tuple(1 if j == i else 0 for j in range(self.rank))


@dataclass(frozen=True, order=True)
class QmodZ:
    """An element a/b of Q/Z in lowest terms with 0 <= a < b."""

    num: int
    den: int

    def __post_init__(self) -> None:
        if not (0 <= self.num < self.den) or gcd(self.num, self.den) != 1:
            raise InputError(f"{self.num}/{self.den} is not in canonical reduced form")

    @staticmethod
    def make(num: int, den: int) -> QmodZ:
        num, den = integer_tuple((num, den), "Q/Z numerators and denominators")
        if den == 0:
            raise InputError("denominator must be nonzero")
        if den < 0:
            num, den = -num, -den
        num %= den
        g = gcd(num, den)
        return QmodZ(num // g, den // g)

    @staticmethod
    def zero() -> QmodZ:
        return QmodZ(0, 1)

    def __add__(self, other: QmodZ) -> QmodZ:
        return QmodZ.make(self.num * other.den + other.num * self.den, self.den * other.den)

    def __neg__(self) -> QmodZ:
        return QmodZ.make(-self.num, self.den)

    def __sub__(self, other: QmodZ) -> QmodZ:
        return self + (-other)

    @property
    def order(self) -> int:
        return self.den

    def is_zero(self) -> bool:
        return self.num == 0

    def __str__(self) -> str:
        return f"{self.num}/{self.den}"
