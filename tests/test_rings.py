import os
import pickle
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from regulus import MultiPoly, PrimeField, QQ, ZZ, parse_poly
from regulus.rings import PRIME_BOUND, is_prime


@pytest.mark.parametrize("ring", [ZZ, QQ, PrimeField(5)])
def test_polynomial_pickles_over_the_same_ring(ring):
    f = parse_poly("3*x^2*y - 2*y + 4", ("x", "y"), ring)
    if ring is QQ:
        f = f.scale(QQ.fraction(1, 3))
    g = pickle.loads(pickle.dumps(f))
    assert g.ring is ring
    assert g == f


def test_is_prime_small():
    primes = [n for n in range(2, 60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    assert not is_prime(1)
    assert not is_prime(0)
    assert not is_prime(-7)


def test_is_prime_large():
    # strong pseudoprime to the bases 2, 3, 5 and 7
    assert not is_prime(3215031751)
    # strong pseudoprime to the first twelve prime bases; the 13th catches it
    assert not is_prime(318665857834031151167461)
    assert is_prime(10**18 + 3)
    assert is_prime(2**61 - 1)
    assert not is_prime((2**31 - 1) * (10**9 + 7))
    assert is_prime(3317044064679887385961813)  # the largest prime below the bound
    with pytest.raises(ValueError):
        is_prime(PRIME_BOUND)


def test_prime_field_is_cached():
    assert PrimeField(5) is PrimeField(5)
    assert PrimeField(5) is not PrimeField(7)


def test_prime_field_rejects_composite():
    with pytest.raises(ValueError):
        PrimeField(6)


def _constant(field, n):
    return MultiPoly.constant(field, ("x",), field.from_int(n))


def test_prime_field_arithmetic():
    F = PrimeField(7)
    a = _constant(F, 3)
    b = _constant(F, 5)
    assert (a + b) == _constant(F, 1)
    assert (a * b) == _constant(F, 1)
    assert (-a) == _constant(F, 4)
    assert (a - b) == _constant(F, 5)
    assert a ** 0 == _constant(F, 1)
    assert a ** 6 == _constant(F, 1)


def test_prime_field_inverse():
    F = PrimeField(13)
    for k in range(1, 13):
        a = _constant(F, k)
        assert a * _constant(F, F.inv(k)) == _constant(F, 1)
        assert F.inv(k - 13) == F.inv(k)
    with pytest.raises(ZeroDivisionError):
        F.inv(F.zero())
    with pytest.raises(ZeroDivisionError):
        F.inv(26)


def test_prime_field_mixed_modulus_rejected():
    a = _constant(PrimeField(5), 2)
    b = _constant(PrimeField(7), 2)
    for op in (lambda: a + b, lambda: a - b, lambda: a * b):
        with pytest.raises(ValueError, match="mixed coefficient rings"):
            op()


def test_prime_field_coerce_and_str():
    F = PrimeField(3)
    assert F.coerce(5) == F.from_int(2)
    assert F.coerce(F.one()) == F.one()
    assert PrimeField(7).coerce(9) == 2
    assert F.elem_str(F.from_int(2)) == "2"
    assert str(F.from_int(-1)) == "2"
    assert F.is_field


@pytest.mark.parametrize("ring", [PrimeField(7)], ids=["GF7"])
def test_modular_coefficients_are_canonical(ring):
    m = ring.modulus
    vars = ("x", "y")
    canonical = parse_poly("%d*x^2 + y + %d" % (m - 3, m - 1), vars, ring)
    built = MultiPoly(ring, vars, {(2, 0): -3, (0, 1): m + 1, (0, 0): 5 * m - 1, (1, 1): -2 * m})
    assert built == canonical and hash(built) == hash(canonical)
    assert all(0 < c < m for c in built.terms.values())
    # sums and products that wrap to the modulus
    f = MultiPoly(ring, vars, {(1, 0): m - 1, (0, 0): 3})
    g = MultiPoly(ring, vars, {(1, 0): 1, (0, 0): m - 2})
    one = parse_poly("1", vars, ring)
    assert f + g == one and hash(f + g) == hash(one)
    assert f - f == MultiPoly.zero(ring, vars) and not (f - f).terms
    assert f * g == parse_poly("%d*x^2 + 5*x + %d" % (m - 1, m - 6), vars, ring)


def test_elem_bool_matches_is_zero():
    F = PrimeField(5)
    assert not F.zero()
    assert F.one()
    assert F.is_zero(F.from_int(10))


def test_rationals():
    assert QQ.is_field
    half = QQ.fraction(1, 2)
    assert half + half == QQ.one()
    assert QQ.inv(half) == QQ.from_int(2)
    assert QQ.elem_str(half) == "1/2"
    assert QQ.elem_str(QQ.from_int(-3)) == "-3"
    assert QQ.coerce(2) == QQ.from_int(2)
    with pytest.raises(ZeroDivisionError):
        QQ.inv(QQ.zero())


def test_integers_are_not_a_field():
    assert not ZZ.is_field
    assert ZZ.from_int(4) == 4
    assert ZZ.is_zero(0)
    assert ZZ.elem_str(-2) == "-2"


def test_arithmetic_checks_hold_under_optimization():
    # python -O strips assert statements; these checks must raise anyway
    code = textwrap.dedent("""
        from helpers import evaluate
        from regulus import PrimeField, QQ, parse_poly
        a, b = (parse_poly("x + 2", ("x",), PrimeField(p)) for p in (5, 7))
        checks = [
            lambda: a + b,
            lambda: a - b,
            lambda: a * b,
            lambda: a ** -1,
            lambda: evaluate(parse_poly("x + y", ("x", "y"), QQ), [QQ.one()], QQ),
        ]
        for check in checks:
            try:
                check()
            except ValueError as exc:
                print(exc)
            else:
                print("no error")
    """)
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(tests.parent / "src"), str(tests))))
    result = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["mixed coefficient rings"] * 3 + [
        "negative exponent -1",
        "1 values for 2 variables",
    ]
