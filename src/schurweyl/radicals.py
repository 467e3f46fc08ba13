"""Exact arithmetic on Q-linear combinations of square roots.

A :class:`Radical` is a finite sum ``sum_m c_m * sqrt(m)`` with rational
coefficients ``c_m`` and pairwise distinct square-free radicands ``m >= 1``.
Square roots of distinct square-free integers are linearly independent over
the rationals, so this form is canonical: two values are equal iff their
term maps are identical, and a value is zero iff it has no terms.  That
makes equality of amplitudes decidable, which the unitarity and
normalization checks rely on.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, sqrt

from schurweyl.tableaux import InvariantViolation, json_field

# Largest radicand a JSON document may carry.  Reading one means a
# square-free split, whose trial division then stops near 65 536; the
# package itself writes radicands of a few thousand at most.
MAX_JSON_RADICAND = 2**48


def squarefree_decompose(n: int) -> tuple[int, int]:
    """Split a positive integer as ``n == s*s*m`` with ``m`` square-free.

    Returns ``(s, m)``.  Trial division runs only up to the cube root;
    whatever remains has at most two prime factors, so it is either a
    perfect square or already square-free.
    """
    if n < 1:
        raise ValueError(f"expected a positive integer, got {n}")
    square = 1
    free = 1
    d = 2
    while d * d * d <= n:
        if n % d == 0:
            exp = 0
            while n % d == 0:
                n //= d
                exp += 1
            square *= d ** (exp // 2)
            if exp % 2:
                free *= d
        d += 1 if d == 2 else 2
    root = isqrt(n)
    if root * root == n:
        square *= root
    else:
        free *= n
    return square, free


def _fold_terms(pairs) -> dict[int, Fraction]:
    """Canonical term map of ``sum c * sqrt(m)`` over ``(m, c)`` pairs of int and Fraction.

    Radicands are reduced to square-free form, like terms merged and zeros dropped.
    """
    folded: dict[int, Fraction] = {}
    for radicand, coeff in pairs:
        if not coeff:
            continue
        s, m = squarefree_decompose(radicand)
        if s != 1:
            coeff *= s
        if m in folded:
            coeff += folded[m]
        if coeff:
            folded[m] = coeff
        else:
            folded.pop(m, None)
    return folded


class Radical:
    """An exact real number ``sum_m c_m * sqrt(m)`` in canonical form."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        """Build from a ``{radicand: coefficient}`` mapping.

        Radicands may be any positive integers; they are reduced to
        square-free form and like terms are merged, so the constructor
        always yields the canonical representation.
        """
        self._terms = (
            _fold_terms((radicand, Fraction(coeff)) for radicand, coeff in terms.items())
            if terms
            else {}
        )

    @classmethod
    def from_rational(cls, value) -> "Radical":
        return cls({1: Fraction(value)})

    @property
    def terms(self) -> dict[int, Fraction]:
        """Copy of the canonical term map (square-free radicand -> coefficient)."""
        return dict(self._terms)

    def items(self) -> tuple[tuple[int, Fraction], ...]:
        return tuple(sorted(self._terms.items()))

    def is_zero(self) -> bool:
        return not self._terms

    def is_rational(self) -> bool:
        return all(m == 1 for m in self._terms)

    def add(self, other: "Radical") -> "Radical":
        merged = dict(self._terms)
        for m, c in other._terms.items():
            new = merged.get(m, _ZERO_FRACTION) + c
            if new:
                merged[m] = new
            else:
                merged.pop(m, None)
        out = Radical.__new__(Radical)
        out._terms = merged
        return out

    def mul(self, other: "Radical") -> "Radical":
        # sqrt(m1)*sqrt(m2) == g*sqrt(m1*m2/g^2) for g = gcd(m1, m2),
        # and m1*m2/g^2 is square-free when m1, m2 are, so no refactoring
        # of the product radicand is ever needed.
        acc: dict[int, Fraction] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                g = gcd(m1, m2)
                m = (m1 // g) * (m2 // g)
                c = c1 * c2 * g
                new = acc.get(m, _ZERO_FRACTION) + c
                if new:
                    acc[m] = new
                else:
                    acc.pop(m, None)
        out = Radical.__new__(Radical)
        out._terms = acc
        return out

    def neg(self) -> "Radical":
        out = Radical.__new__(Radical)
        out._terms = {m: -c for m, c in self._terms.items()}
        return out

    def square(self) -> "Radical":
        return self.mul(self)

    def to_float(self) -> float:
        return sum((float(c) * sqrt(m) for m, c in self._terms.items()), 0.0)

    def __add__(self, other):
        if not isinstance(other, Radical):
            return NotImplemented
        return self.add(other)

    def __sub__(self, other):
        if not isinstance(other, Radical):
            return NotImplemented
        return self.add(other.neg())

    def __mul__(self, other):
        if not isinstance(other, Radical):
            return NotImplemented
        return self.mul(other)

    def __neg__(self):
        return self.neg()

    def __eq__(self, other):
        if not isinstance(other, Radical):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(self.items())

    def __bool__(self):
        return bool(self._terms)

    def __float__(self):
        return self.to_float()

    def to_string(self) -> str:
        """Exact text form, e.g. ``-1/2*sqrt(3)`` or ``1/2+1/3*sqrt(6)``.

        Terms are sorted by radicand; each is an optionally signed
        rational, with ``*sqrt(m)`` appended for radicands above 1.
        """
        if not self._terms:
            return "0"
        parts = []
        for m, c in self.items():
            body = str(abs(c))
            if m != 1:
                body += f"*sqrt({m})"
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+" if c > 0 else "-") + body)
        return "".join(parts)

    def __str__(self):
        return self.to_string()

    def __repr__(self):
        return f"Radical({self.to_string()})"

    def to_json_obj(self, approx: bool = True):
        obj = {
            "terms": [
                {"radicand": m, "num": c.numerator, "den": c.denominator}
                for m, c in self.items()
            ]
        }
        if approx:
            obj["approx"] = self.to_float()
        return obj

    @classmethod
    def from_json_obj(cls, obj) -> "Radical":
        """Parse :meth:`to_json_obj` output; the ``approx`` float is ignored.

        Radicands may be any integers in ``1..MAX_JSON_RADICAND``; they are
        folded into canonical form as in the constructor.
        """
        pairs = []
        for entry in json_field(obj, "terms", list, "radical"):
            m, num, den = (
                json_field(entry, key, int, "radical") for key in ("radicand", "num", "den")
            )
            if not 1 <= m <= MAX_JSON_RADICAND:
                raise InvariantViolation(
                    "radical document",
                    f"field 'radicand': {m} outside 1..{MAX_JSON_RADICAND}",
                )
            if den == 0:
                raise InvariantViolation("radical document", "field 'den': zero")
            pairs.append((m, Fraction(num, den)))
        out = cls.__new__(cls)
        out._terms = _fold_terms(pairs)
        return out


_ZERO_FRACTION = Fraction(0)

ZERO = Radical()
ONE = Radical({1: 1})


def radical_from_sqrt(sign: int, num: int, den: int) -> Radical:
    """Exact value of ``sign * sqrt(num/den)`` for integers ``num, den >= 0``.

    ``sqrt(num/den) == sqrt(num*den)/den``, and the square part of
    ``num*den`` folds into the rational coefficient.
    """
    if sign not in (-1, 0, 1):
        raise ValueError(f"sign must be -1, 0 or +1, got {sign}")
    if num < 0 or den <= 0:
        raise ValueError(f"expected num >= 0 and den > 0, got {num}/{den}")
    if sign == 0 or num == 0:
        return ZERO
    s, m = squarefree_decompose(num * den)
    # m is square-free and the coefficient nonzero: already canonical
    out = Radical.__new__(Radical)
    out._terms = {m: Fraction(sign * s, den)}
    return out
