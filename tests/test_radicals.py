import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from schurweyl.radicals import (
    MAX_JSON_COEFFICIENT_BITS,
    MAX_JSON_RADICAND,
    ONE,
    ZERO,
    Radical,
    _unchecked_sqrt,
    accumulator,
    add_product,
    nonzero_radicals,
    radical_from_json_triples,
    radical_from_sqrt,
    squarefree_decompose,
)
from schurweyl.tableaux import InvariantViolation

from oracles import module_caches


def brute_squarefree(n):
    # Oracle: largest square divisor by direct search.
    best = 1
    s = 1
    while s * s <= n:
        if n % (s * s) == 0:
            best = s
        s += 1
    return best, n // (best * best)


def test_squarefree_decompose_small():
    assert squarefree_decompose(1) == (1, 1)
    assert squarefree_decompose(4) == (2, 1)
    assert squarefree_decompose(12) == (2, 3)
    assert squarefree_decompose(360) == (6, 10)
    for n in range(1, 2000):
        s, m = squarefree_decompose(n)
        assert s * s * m == n
        assert (s, m) == brute_squarefree(n)


def test_squarefree_decompose_large_remainders():
    # Remainder after cube-root trial division: 1, p, p^2 and p*q cases.
    p, q = 10007, 10009
    assert squarefree_decompose(p) == (1, p)
    assert squarefree_decompose(p * p) == (p, 1)
    assert squarefree_decompose(p * q) == (1, p * q)
    assert squarefree_decompose(4 * p * q) == (2, p * q)
    with pytest.raises(ValueError):
        squarefree_decompose(0)


def test_constructor_normalizes():
    # sqrt(8) == 2*sqrt(2); like terms merge; zeros drop.
    assert Radical({8: 1}) == Radical({2: 2})
    assert Radical({2: 1, 8: 1}) == Radical({2: 3})
    assert Radical({3: Fraction(1, 2), 12: Fraction(-1, 4)}).is_zero()
    assert Radical({}).is_zero()
    assert not ZERO
    assert ONE.terms == {1: 1}


def test_golden_string_forms():
    assert radical_from_sqrt(-1, 3, 4).to_string() == "-1/2*sqrt(3)"
    assert radical_from_sqrt(1, 1, 2).to_string() == "1/2*sqrt(2)"
    assert radical_from_sqrt(1, 2, 3).to_string() == "1/3*sqrt(6)"
    assert radical_from_sqrt(1, 1, 1).to_string() == "1"
    assert ZERO.to_string() == "0"
    assert (ONE + radical_from_sqrt(-1, 3, 1)).to_string() == "1-1*sqrt(3)"
    assert (radical_from_sqrt(-1, 1, 4) + radical_from_sqrt(1, 3, 9)).to_string() == "-1/2+1/3*sqrt(3)"


def test_from_sqrt_squares_back():
    for num in range(0, 40):
        for den in range(1, 40):
            for sign in (-1, 1):
                r = radical_from_sqrt(sign, num, den)
                assert r.square() == Radical({1: Fraction(num, den)})
                assert math.isclose(
                    r.to_float(), sign * math.sqrt(num / den), abs_tol=1e-12
                )


def test_from_sqrt_matches_constructor():
    # radical_from_sqrt builds its term map directly, bypassing the
    # normalizing constructor; both must give the same canonical form
    for num in range(1, 41):
        for den in range(1, 41):
            for sign in (-1, 1):
                r = radical_from_sqrt(sign, num, den)
                assert r == Radical({num * den: Fraction(sign, den)})
                (m,) = r.terms
                assert brute_squarefree(m) == (1, m)


def test_from_sqrt_shares_one_object_per_value():
    for cache in module_caches():
        cache.cache_clear()
    half = radical_from_sqrt(-1, 2, 4)
    # every argument triple of one value, before and after its first call
    assert radical_from_sqrt(-1, 1, 2) is half
    assert radical_from_sqrt(-1, 6, 12) is half
    assert radical_from_sqrt(1, 1, 2) is not half
    assert radical_from_sqrt(1, 1, 2) == -half
    # a float or bool sign that passes the sign check gives the int result
    assert radical_from_sqrt(1.0, 2, 1) is radical_from_sqrt(True, 2, 1)
    assert radical_from_sqrt(1.0, 2, 1)._terms == {2: (1, 1)}


def test_unchecked_sqrt_is_the_checked_value():
    # the up fans' entry skips only the argument checks: for every argument
    # the checks pass, with a sign of -1 or +1, it gives the same shared
    # object, and a zero product still gives ZERO
    for num in range(0, 30):
        for den in range(1, 30):
            for sign in (-1, 1):
                assert _unchecked_sqrt(sign, num, den) is radical_from_sqrt(sign, num, den)
    assert _unchecked_sqrt(-1, 0, 7) is ZERO
    assert radical_from_sqrt(0, 5, 7) is ZERO


@pytest.mark.parametrize(
    "args, valid, error",
    [
        ((1, 2.0, 1), (1, 2, 1), TypeError),
        ((1, 4, 1.0), (1, 4, 1), TypeError),
        ((2, 1, 1), (1, 1, 1), ValueError),
        ((-1, -3, 1), (-1, 3, 1), ValueError),
    ],
    ids=["float-num", "float-den", "bad-sign", "negative-num"],
)
def test_from_sqrt_rejects_alike_whatever_is_cached(args, valid, error):
    # the shared objects are keyed by checked ints, so a cached valid value
    # never answers for arguments the checks reject
    for cache in module_caches():
        cache.cache_clear()
    for _ in range(2):
        with pytest.raises(error):
            radical_from_sqrt(*args)
    radical_from_sqrt(*valid)
    for _ in range(2):
        with pytest.raises(error):
            radical_from_sqrt(*args)


def test_mul_cross_radicands():
    r = radical_from_sqrt(1, 6, 1) * radical_from_sqrt(1, 10, 1)
    assert r == Radical({15: 2})
    assert (ONE + radical_from_sqrt(1, 2, 1)).square() == Radical({1: 3, 2: 2})


def read_back(obj) -> Radical:
    """The value of a :meth:`Radical.to_json_obj` document, read as the state reader reads it."""
    triples = tuple((term["radicand"], term["num"], term["den"]) for term in obj["terms"])
    return radical_from_json_triples(triples, {})


def test_json_round_trip():
    r = Radical({1: Fraction(-1, 2), 3: Fraction(1, 3)})
    obj = r.to_json_obj()
    assert obj["terms"] == [
        {"radicand": 1, "num": -1, "den": 2},
        {"radicand": 3, "num": 1, "den": 3},
    ]
    assert math.isclose(obj["approx"], r.to_float())
    assert read_back(obj) == r
    # radicands are bounded so that reading one stays cheap; 2**48 is a
    # perfect square, and the bound itself is read
    def doc(m):
        return radical_from_json_triples(((m, 1, 1),), {})

    assert doc(MAX_JSON_RADICAND) == Radical({1: 2**24})
    for m in (0, MAX_JSON_RADICAND + 1, 10**36):
        with pytest.raises(InvariantViolation, match="radicand"):
            doc(m)
    # num and den are bounded so that every accepted value is a finite
    # float, also with the largest square part a radicand can carry
    top = 2**MAX_JSON_COEFFICIENT_BITS - 1

    def coeff(num, den, m=1):
        return radical_from_json_triples(((m, num, den),), {})

    assert coeff(top, 1) == Radical({1: top})
    assert coeff(-top, top) == -ONE
    assert math.isfinite(coeff(top, 1, MAX_JSON_RADICAND).to_float())
    assert coeff(1, top).to_float() > 0
    for num, den, field in (
        (top + 1, 1, "num"),
        (-top - 1, 1, "num"),
        (10**400, 1, "num"),
        (1, top + 1, "den"),
        (1, -top - 1, "den"),
    ):
        with pytest.raises(InvariantViolation, match=field):
            coeff(num, den)


rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=12
)
radicands = st.integers(min_value=1, max_value=60)


@st.composite
def radical_values(draw):
    n = draw(st.integers(min_value=0, max_value=4))
    terms = {}
    for _ in range(n):
        m = draw(radicands)
        c = draw(rationals)
        terms[m] = terms.get(m, 0) + c
    return Radical(terms)


@given(radical_values(), radical_values(), radical_values())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert (a - a).is_zero()


@given(radical_values())
def test_float_tracks_exact(a):
    total = sum(
        (float(c) * math.sqrt(m) for m, c in a.items()), 0.0
    )
    assert math.isclose(a.to_float(), total, rel_tol=1e-12, abs_tol=1e-12)


@given(radical_values(), radical_values())
def test_hash_consistent_with_eq(a, b):
    if a == b:
        assert hash(a) == hash(b)


# Reference ring: {square-free radicand: Fraction}, folded by brute force.


def ref_fold(pairs):
    out = {}
    for m, c in pairs:
        s, free = brute_squarefree(m)
        out[free] = out.get(free, 0) + c * s
    return {m: Fraction(c) for m, c in out.items() if c}


def ref_mul(a, b):
    return ref_fold((m1 * m2, c1 * c2) for m1, c1 in a.items() for m2, c2 in b.items())


def ref_string(ref):
    parts = []
    for m, c in sorted(ref.items()):
        body = str(abs(c)) + ("" if m == 1 else f"*sqrt({m})")
        parts.append(("-" if c < 0 else "+" if parts else "") + body)
    return "".join(parts) or "0"


def assert_matches(r, ref):
    # canonical form: square-free radicands, int pairs, den > 0, reduced, nonzero
    for m, (num, den) in r._terms.items():
        assert brute_squarefree(m) == (1, m)
        assert type(num) is int and type(den) is int
        assert den > 0 and num != 0 and math.gcd(num, den) == 1
    assert r.terms == ref
    assert r.to_string() == ref_string(ref)
    obj = r.to_json_obj()
    assert obj["terms"] == [
        {"radicand": m, "num": c.numerator, "den": c.denominator}
        for m, c in sorted(ref.items())
    ]
    # the float is Fraction's own, term by term in the map's order
    exact_sum = sum((float(c) * math.sqrt(m) for m, c in r.terms.items()), 0.0)
    assert obj["approx"] == r.to_float() == exact_sum
    ref_sum = sum(float(c) * math.sqrt(m) for m, c in ref.items())
    assert math.isclose(r.to_float(), ref_sum, rel_tol=1e-12, abs_tol=1e-12)
    assert read_back(obj) == r


raw_maps = st.dictionaries(
    st.integers(min_value=1, max_value=72),
    st.fractions(min_value=-6, max_value=6, max_denominator=36),
    max_size=4,
)


@given(raw_maps, raw_maps)
def test_ring_matches_fraction_reference(x, y):
    a, b = Radical(x), Radical(y)
    ra, rb = ref_fold(x.items()), ref_fold(y.items())
    assert_matches(a, ra)
    assert_matches(b, rb)
    assert_matches(a + b, ref_fold([*ra.items(), *rb.items()]))
    assert_matches(a - b, ref_fold([*ra.items(), *((m, -c) for m, c in rb.items())]))
    assert_matches(a * b, ref_mul(ra, rb))
    assert_matches(-a, {m: -c for m, c in ra.items()})
    assert_matches(a.square(), ref_mul(ra, ra))


def test_multi_term_cases():
    root2, root3 = radical_from_sqrt(1, 2, 1), radical_from_sqrt(1, 3, 1)
    both = root2 + root3
    assert_matches(both, {2: Fraction(1), 3: Fraction(1)})
    assert both * (root2 - root3) == -ONE
    folded = Radical({12: Fraction(-1, 4)})
    assert_matches(folded, {3: Fraction(-1, 2)})
    assert folded.to_string() == "-1/2*sqrt(3)"
    # a document's pair need not be reduced, nor its denominator positive
    doc = ((12, 2, -8), (2, 3, 6))
    assert_matches(radical_from_json_triples(doc, {}), {2: Fraction(1, 2), 3: Fraction(-1, 2)})


# add_product against the Radical sum it replaces


@given(st.lists(st.tuples(raw_maps, raw_maps), min_size=1, max_size=4))
def test_add_product_matches_sum_of_products(pairs):
    # every product, then every product negated, which cancels the
    # accumulator back to zero, then the first product again
    operands = [(Radical(x), Radical(y)) for x, y in pairs]
    steps = operands + [(-a, b) for a, b in operands] + operands[:1]
    total, acc, ref = accumulator(), ZERO, {}
    for i, (a, b) in enumerate(steps, 1):
        held = (list(a._terms.items()), list(b._terms.items()))
        add_product(total, a, b)
        acc = acc + a * b
        ref = ref_fold([*ref.items(), *ref_mul(a.terms, b.terms).items()])
        assert (list(a._terms.items()), list(b._terms.items())) == held
        # the Radical sum's pairs in its order, so approx sums them alike
        assert list(total._terms.items()) == list(acc._terms.items())
        assert_matches(nonzero_radicals({0: total}).get(0, ZERO), ref)
        if i == 2 * len(operands):
            assert total._terms == {}


def test_add_product_cancels_regains_and_keeps_order():
    root2, root3, root6 = (radical_from_sqrt(1, m, 1) for m in (2, 3, 6))
    total = accumulator()
    add_product(total, root2 + root3, root2 - root3)
    assert total._terms == {1: (-1, 1)}
    add_product(total, ONE, ONE)
    assert total._terms == {}
    kept = accumulator()
    add_product(kept, root2, ONE)
    sums = {"kept": kept, "gone": total}
    assert nonzero_radicals(sums) is sums and sums == {"kept": root2}
    add_product(total, root2, root3)
    assert nonzero_radicals({"back": total}) == {"back": root6}
    # (sqrt2 + sqrt3)(sqrt6 - 2) == 2*sqrt3 - 2*sqrt2 + 3*sqrt2 - 2*sqrt3: the
    # sqrt3 terms cancel inside the product, so -2*sqrt3 already in the sum
    # keeps its place, as it does in acc + a * b
    a, b = root2 + root3, root6 - Radical({1: 2})
    total = accumulator()
    add_product(total, Radical({3: -2}), ONE)
    add_product(total, ONE, Radical({5: 1}))
    acc = Radical({3: -2}) + Radical({5: 1})
    add_product(total, a, b)
    assert list(total._terms.items()) == list((acc + a * b)._terms.items())
    assert list(total._terms.items()) == [(3, (-2, 1)), (5, (1, 1)), (2, (1, 1))]
    assert (root2._terms, root3._terms, root6._terms) == ({2: (1, 1)}, {3: (1, 1)}, {6: (1, 1)})
