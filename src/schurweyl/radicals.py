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
from functools import cache
from math import gcd, isqrt, sqrt

from schurweyl.tableaux import InvariantViolation

# Largest radicand a JSON document may carry.  Reading one means a
# square-free split, whose trial division then stops near 65 536; the
# package itself writes radicands of a few thousand at most.
MAX_JSON_RADICAND = 2**48

# Largest bit length of a coefficient's ``num`` or ``den`` in a JSON
# document; the package writes 18 bits at most.  Times the square part of a
# radicand (below 2**24) and summed over the terms of any document, such a
# coefficient stays far inside the float range, so ``approx`` is finite.
MAX_JSON_COEFFICIENT_BITS = 512


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


def _fold_terms(triples) -> dict[int, tuple[int, int]]:
    """Canonical term map of ``sum num/den * sqrt(m)`` over ``(m, num, den)`` int triples.

    Radicands are reduced to square-free form, like terms merged, zeros
    dropped and each coefficient stored as a reduced pair with ``den > 0``.
    """
    folded: dict[int, tuple[int, int]] = {}
    for radicand, num, den in triples:
        if num:
            s, m = squarefree_decompose(radicand)
            _accumulate(folded, m, num * s, den)
    return folded


def _accumulate(terms: dict[int, tuple[int, int]], m: int, num: int, den: int) -> None:
    """Add ``num/den * sqrt(m)`` (``num != 0``) to a term map, keeping its pairs canonical."""
    if m in terms:
        p, q = terms[m]
        num, den = p * den + num * q, q * den
        if not num:
            del terms[m]
            return
    g = gcd(num, den)
    if den < 0:
        g = -g
    terms[m] = (num // g, den // g)


def _new(terms: dict[int, tuple[int, int]]) -> "Radical":
    out = Radical.__new__(Radical)
    out._terms = terms
    return out


def accumulator() -> "Radical":
    """A new zero :class:`Radical` for :func:`add_product` to sum into.

    It is the one kind of :class:`Radical` ever written: only by
    :func:`add_product`, and only until its caller returns it.
    """
    out = Radical.__new__(Radical)
    out._terms = {}
    return out


def add_product(acc: "Radical", a: "Radical", b: "Radical") -> None:
    """Add ``a * b`` into the accumulator ``acc`` in place, keeping it canonical.

    ``acc`` comes from :func:`accumulator`; it is never a value shared
    elsewhere, as the fans share one object among every edge of a value.
    Its radicands end in the order that ``acc + a * b`` gives, and
    ``to_float`` sums terms in stored order, so the float of the sum is
    the one that ``+`` would have given.
    """
    terms, x, y = acc._terms, a._terms, b._terms
    if len(x) > 1 and len(y) > 1:
        # two sums can meet on one radicand inside their product, so it is
        # folded first, as ``acc + a * b`` folds it
        x, y = a.mul(b)._terms, ONE._terms
    # times one root, distinct radicands stay distinct, so each term of the
    # product reaches the map once, in the order ``mul`` lists them
    for m1, (p1, q1) in x.items():
        for m2, (p2, q2) in y.items():
            g = gcd(m1, m2)
            _accumulate(terms, (m1 // g) * (m2 // g), p1 * p2 * g, q1 * q2)


def nonzero_radicals(sums: dict) -> dict:
    """The entries of ``{key: accumulator}`` whose sums did not cancel to zero.

    Only the fewer of the two kinds of key is hashed again: the zero
    entries are deleted from ``sums`` in place when they are the fewer, as
    in an up step, and otherwise the others are copied into a new dict,
    as in a down step, whose sums mostly cancel.
    """
    zeros = [key for key, acc in sums.items() if not acc._terms]
    if 2 * len(zeros) > len(sums):
        return {key: acc for key, acc in sums.items() if acc._terms}
    for key in zeros:
        del sums[key]
    return sums


class Radical:
    """An exact real number ``sum_m c_m * sqrt(m)`` in canonical form.

    Each coefficient is held as an int pair ``(num, den)`` with ``den > 0``,
    ``gcd(num, den) == 1`` and ``num != 0``; :attr:`terms` and :meth:`items`
    give them as ``Fraction`` values.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        """Build from a ``{radicand: coefficient}`` mapping.

        Radicands may be any positive integers and coefficients anything
        ``Fraction`` accepts; radicands are reduced to square-free form and
        like terms are merged, so the constructor always yields the
        canonical representation.
        """
        rationals = ((m, Fraction(c)) for m, c in terms.items()) if terms else ()
        self._terms = _fold_terms((m, c.numerator, c.denominator) for m, c in rationals)

    @property
    def terms(self) -> dict[int, Fraction]:
        """Copy of the canonical term map (square-free radicand -> coefficient)."""
        return {m: Fraction(p, q) for m, (p, q) in self._terms.items()}

    def items(self) -> tuple[tuple[int, Fraction], ...]:
        return tuple(sorted(self.terms.items()))

    def int_items(self) -> list[tuple[int, tuple[int, int]]]:
        """:meth:`items` with each coefficient as its int pair ``(num, den)``, ``den > 0``."""
        return sorted(self._terms.items())

    def is_zero(self) -> bool:
        return not self._terms

    def add(self, other: "Radical") -> "Radical":
        merged = dict(self._terms)
        for m, (p, q) in other._terms.items():
            _accumulate(merged, m, p, q)
        return _new(merged)

    def mul(self, other: "Radical") -> "Radical":
        # sqrt(m1)*sqrt(m2) == g*sqrt(m1*m2/g^2) for g = gcd(m1, m2),
        # and m1*m2/g^2 is square-free when m1, m2 are, so no refactoring
        # of the product radicand is ever needed.
        acc: dict[int, tuple[int, int]] = {}
        for m1, (p1, q1) in self._terms.items():
            for m2, (p2, q2) in other._terms.items():
                g = gcd(m1, m2)
                _accumulate(acc, (m1 // g) * (m2 // g), p1 * p2 * g, q1 * q2)
        return _new(acc)

    def neg(self) -> "Radical":
        return _new({m: (-p, q) for m, (p, q) in self._terms.items()})

    def square(self) -> "Radical":
        return self.mul(self)

    def to_float(self) -> float:
        return sum((p / q * sqrt(m) for m, (p, q) in self._terms.items()), 0.0)

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
        return hash(frozenset(self._terms.items()))

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
        for m, (p, q) in sorted(self._terms.items()):
            body = str(abs(p)) if q == 1 else f"{abs(p)}/{q}"
            if m != 1:
                body += f"*sqrt({m})"
            if not parts:
                parts.append(body if p > 0 else "-" + body)
            else:
                parts.append(("+" if p > 0 else "-") + body)
        return "".join(parts)

    def __str__(self):
        return self.to_string()

    def __repr__(self):
        return f"Radical({self.to_string()})"

    def to_json_obj(self):
        return {
            "terms": [{"radicand": m, "num": p, "den": q} for m, (p, q) in self.int_items()],
            "approx": self.to_float(),
        }


ZERO = Radical()
ONE = Radical({1: 1})


def check_json_triple(m: int, num: int, den: int) -> None:
    """Bound one ``(radicand, num, den)`` term of a JSON document, its fields exact ints.

    Radicands may be any integers in ``1..MAX_JSON_RADICAND``, ``den`` is
    nonzero, and ``num``/``den`` have at most ``MAX_JSON_COEFFICIENT_BITS``
    bits.
    """
    if not 1 <= m <= MAX_JSON_RADICAND:
        raise InvariantViolation(
            "radical document", f"field 'radicand': {m} outside 1..{MAX_JSON_RADICAND}"
        )
    if den == 0:
        raise InvariantViolation("radical document", "field 'den': zero")
    for key, value in (("num", num), ("den", den)):
        if value.bit_length() > MAX_JSON_COEFFICIENT_BITS:
            raise InvariantViolation(
                "radical document", f"field {key!r}: more than {MAX_JSON_COEFFICIENT_BITS} bits"
            )


def radical_from_json_triples(triples: tuple, memo: dict) -> Radical:
    """The value of a document's amplitude, given as its terms' ``(radicand, num, den)`` triples.

    The triples are exact ints, checked by the caller, so a ``true`` or
    ``1.0`` never meets the entry of a ``1``.  ``memo``, kept by the
    caller for one document, maps each tuple of triples read to its value:
    a tuple is bounded by :func:`check_json_triple` and folded the first
    time it is seen, and a repeat is one lookup.
    """
    found = memo.get(triples)
    if found is None:
        for triple in triples:
            check_json_triple(*triple)
        found = memo[triples] = _new(_fold_terms(triples))
    return found


def radical_from_sqrt(sign: int, num: int, den: int) -> Radical:
    """Exact value of ``sign * sqrt(num/den)`` for integers ``num, den >= 0``.

    Every nonzero value is one shared object, made on its first request:
    equal values are the same :class:`Radical`, whatever their arguments.
    """
    if sign not in (-1, 0, 1):
        raise ValueError(f"sign must be -1, 0 or +1, got {sign}")
    if num < 0 or den <= 0:
        raise ValueError(f"expected num >= 0 and den > 0, got {num}/{den}")
    return _unchecked_sqrt(sign, num, den) if sign else ZERO


def _unchecked_sqrt(sign: int, num: int, den: int) -> Radical:
    """:func:`radical_from_sqrt` for a ``sign`` of -1 or +1 and ints ``num >= 0``, ``den > 0``.

    Only the argument checks are skipped, for the up fans, whose own ints
    pass them: a zero ``num`` still gives :data:`ZERO`.
    """
    if not num:
        return ZERO
    # gcd takes ints only, so the cache below is keyed by exact ints
    g = gcd(num, den)
    return _signed_root(sign < 0, num // g, den // g)


@cache
def _signed_root(negative: bool, num: int, den: int) -> Radical:
    # sqrt(num/den) == sqrt(num*den)/den for coprime num, den > 0; the square
    # part of num*den folds into the coefficient, and the result is canonical
    # once reduced
    s, m = squarefree_decompose(num * den)
    g = gcd(s, den)
    coefficient = s // g
    return _new({m: (-coefficient if negative else coefficient, den // g)})
