"""Graded polynomial pieces: bases, arithmetic, parsing."""

import math
import random

import numpy as np
import pytest

from oracles import monomials_by_recursion, multiply
from pushsplit.errors import FormSyntaxError, InputError
from pushsplit.polyring import (
    BASIS_CACHE_SIZE,
    HomogPoly,
    graded_dim,
    monomial_array,
    multiplication_matrix,
    parse_form,
)
from pushsplit.exactla import rank_rational


def add(p, q):
    """Sum of two forms of one degree, built through from_dict."""
    coeffs = dict(p.terms)
    for mono, c in q.terms:
        coeffs[mono] = coeffs.get(mono, 0) + c
    return HomogPoly.from_dict(p.num_vars, p.degree, coeffs)


def random_poly(rng, num_vars, degree):
    monos = monomials_by_recursion(num_vars, degree)
    terms = {m: rng.randrange(-3, 4) for m in rng.sample(monos, k=min(3, len(monos)))}
    poly = HomogPoly.from_dict(num_vars, degree, terms)
    if poly.is_zero():
        return HomogPoly.monomial(monos[0])
    return poly


def test_graded_dim_matches_binomial():
    assert graded_dim(5, 2) == 15
    assert graded_dim(5, 0) == 1
    assert graded_dim(5, -1) == 0
    assert graded_dim(1, 9) == 1
    for n in range(1, 6):
        for d in range(0, 8):
            assert graded_dim(n + 1, d) == math.comb(n + d, n)


def test_monomials_enumeration():
    for num_vars in (1, 2, 3, 4):
        for degree in (0, 1, 2, 3):
            monos = monomial_array(num_vars, degree).tolist()
            assert len(monos) == graded_dim(num_vars, degree)
            assert all(len(m) == num_vars and sum(m) == degree for m in monos)
            assert monos == sorted(monos, reverse=True)
    assert monomial_array(3, 2)[[0, -1]].tolist() == [[2, 0, 0], [0, 0, 2]]


def test_monomial_array_matches_recursive_enumeration():
    for num_vars in range(1, 7):
        for degree in range(-1, 13):
            expected = monomials_by_recursion(num_vars, degree)
            array = monomial_array(num_vars, degree)
            assert array.dtype == np.int64
            assert array.shape == (len(expected), num_vars)
            assert [tuple(row) for row in array.tolist()] == list(expected)
    assert monomial_array(1, 5).tolist() == [[5]]
    assert monomial_array(1, -1).shape == (0, 1)
    assert monomial_array(4, -3).shape == (0, 4)
    with pytest.raises(InputError):
        monomial_array(0, 2)


def test_monomial_array_is_read_only():
    array = monomial_array(3, 2)
    with pytest.raises(ValueError):
        array[0, 0] = 7
    assert monomial_array(3, 2)[0].tolist() == [2, 0, 0]


def test_basis_cache_is_bounded():
    keys = [(v, d) for v in (1, 2, 3) for d in range(50)]
    assert len(keys) > BASIS_CACHE_SIZE
    for num_vars, degree in keys:
        assert [tuple(row) for row in monomial_array(num_vars, degree)
                .tolist()] == list(monomials_by_recursion(num_vars, degree))
        assert monomial_array.cache_info().currsize <= BASIS_CACHE_SIZE
    assert monomial_array.cache_info().currsize == BASIS_CACHE_SIZE


def test_basis_index_round_trip():
    basis = monomial_array(4, 3).tolist()
    assert len(basis) == graded_dim(4, 3)
    for i, mono in enumerate(basis):
        assert basis.index(mono) == i


def test_poly_arithmetic():
    y0_plus_y1 = HomogPoly.from_dict(2, 1, {(1, 0): 1, (0, 1): 1})
    square = multiply(y0_plus_y1, y0_plus_y1)
    assert dict(square.terms) == {(2, 0): 1, (1, 1): 2, (0, 2): 1}


def test_poly_validation():
    with pytest.raises(InputError):
        HomogPoly.from_dict(2, 2, {(1, 0): 1})
    with pytest.raises(InputError):
        HomogPoly.from_dict(2, 2, {(2, 0, 0): 1})


def test_multiply_properties():
    rng = random.Random(2024)
    for _ in range(15):
        p = random_poly(rng, 3, rng.randrange(1, 3))
        q = random_poly(rng, 3, rng.randrange(1, 3))
        r = random_poly(rng, 3, q.degree)
        assert multiply(p, q) == multiply(q, p)
        assert multiply(p, add(q, r)) == add(multiply(p, q), multiply(p, r))
        assert multiply(p, q).degree == p.degree + q.degree


def test_multiplication_matrix_power_map():
    forms = (parse_form("y0^2", 2), parse_form("y1^2", 2))
    m = multiplication_matrix(forms, 0)
    assert (m.rows, m.cols) == (3, 2)
    assert rank_rational(m) == 2
    m1 = multiplication_matrix(forms, 1)
    assert (m1.rows, m1.cols) == (4, 4)
    assert rank_rational(m1) == 4


def test_multiplication_matrix_column_convention():
    # columns grouped by form index, source monomials in basis order inside
    forms = (parse_form("y0^2", 2), parse_form("y0*y1", 2))
    m = multiplication_matrix(forms, 1)
    basis3 = monomials_by_recursion(2, 3)
    # col 0 = f0 * y0 = y0^3, col 3 = f1 * y1 = y0*y1^2
    assert m.entries[basis3.index((3, 0)) * m.cols + 0] == 1
    assert m.entries[basis3.index((1, 2)) * m.cols + 3] == 1


def direct_multiplication_matrix(forms, source_degree):
    """Dense rows of the multiplication matrix, one term at a time."""
    v, k = forms[0].num_vars, forms[0].degree
    source = monomials_by_recursion(v, source_degree)
    target = monomials_by_recursion(v, source_degree + k)
    rows = [[0] * (len(forms) * len(source)) for _ in range(len(target))]
    for i, f in enumerate(forms):
        for j, g in enumerate(source):
            for mono, coeff in f.terms:
                prod = tuple(a + b for a, b in zip(mono, g))
                rows[target.index(prod)][i * len(source) + j] += coeff
    return rows


def test_multiplication_matrix_matches_direct_build():
    rng = random.Random(5)
    cases = []
    for num_vars, k in [(1, 3), (2, 2), (3, 3), (4, 2), (5, 1)]:
        forms = [random_poly(rng, num_vars, k) for _ in range(num_vars)]
        forms[0] = add(forms[0], HomogPoly.monomial(
            (k,) + (0,) * (num_vars - 1), 10 ** 25))
        cases.append(forms)
    # a zero form, a one-term form beside a many-term one, and a
    # coefficient beyond int64 in a form other than f0
    dense = HomogPoly.from_dict(3, 2, {m: i + 1 for i, m in
                                       enumerate(monomials_by_recursion(3, 2))})
    cases += [
        [HomogPoly(3, 2, ()), parse_form("y1^2", 3), dense],
        [parse_form("y0*y2", 3), dense, HomogPoly(3, 2, ())],
        [parse_form("y0^2", 3), add(dense, HomogPoly.monomial(
            (0, 1, 1), 2 ** 63 + 5)), parse_form("-3*y2^2", 3)],
        [HomogPoly(2, 3, ()), HomogPoly(2, 3, ())],
    ]
    for forms in cases:
        for source_degree in range(-1, 4):
            m = multiplication_matrix(forms, source_degree)
            rows = direct_multiplication_matrix(forms, source_degree)
            assert (m.rows, m.cols) == (len(rows), len(rows[0]) if rows else 0)
            assert m.entries == tuple(x for row in rows for x in row)
            assert m.values.size == sum(x != 0 for row in rows for x in row)


def test_parse_form_examples():
    p = parse_form("y0^2 + 3*y1*y2", 3)
    assert p.degree == 2
    assert dict(p.terms) == {(2, 0, 0): 1, (0, 1, 1): 3}
    q = parse_form("-y0^3+y1^3", 2)
    assert dict(q.terms) == {(3, 0): -1, (0, 3): 1}
    r = parse_form("2*y0*y0*y1", 2)
    assert dict(r.terms) == {(2, 1): 2}
    assert parse_form("  y0 \t+ y1 ", 2).degree == 1


def test_parse_form_errors():
    with pytest.raises(InputError):
        parse_form("y0 + y1^2", 2)
    with pytest.raises(InputError):
        parse_form("y0 - y0", 2)
    with pytest.raises(FormSyntaxError) as err:
        parse_form("y9^2", 3)
    assert err.value.position is not None
    with pytest.raises(FormSyntaxError):
        parse_form("y0^", 2)
    with pytest.raises(FormSyntaxError):
        parse_form("", 2)
    with pytest.raises(FormSyntaxError):
        parse_form("3", 2)
    with pytest.raises(FormSyntaxError) as err:
        parse_form("y0^2 + @", 2)
    assert "position" in str(err.value)


def test_text_round_trips_through_parser():
    rng = random.Random(5)
    for _ in range(20):
        p = random_poly(rng, 4, rng.randrange(1, 4))
        assert parse_form(p.text(), 4) == p
