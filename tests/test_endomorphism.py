"""Finiteness verdicts cross-checked against a brute-force prime-field scan.

The independent oracle enumerates projective points over small prime
fields and looks for common zeros of the coordinate forms.  A common
zero where the Jacobian has the maximal rank n lifts to characteristic
zero, so a FINITE verdict must never coexist with such a point.
"""

import itertools
import math
import random

import pytest

from oracles import hilbert_function, monomials_by_recursion, rank_bareiss, \
    splitting_by_ranks
from pushsplit import endomorphism, exactla
from pushsplit.errors import InputError
from pushsplit.endomorphism import (
    FINITE,
    NOT_FINITE,
    Endomorphism,
    _macaulay_columns,
    load_endomorphism,
    parse_endomorphism,
    power_map,
    random_endomorphism,
    validate_finite,
)
from pushsplit.exactla import DEFAULT_PRIMES, rank_mod
from pushsplit.polyring import (
    HomogPoly,
    graded_dim,
    multiplication_matrix,
    parse_form,
)
from pushsplit.splitting import _box_counts, splitting_from_endo, \
    splitting_universal

SCAN_PRIMES = (2, 3, 5, 7)


def projective_points(n, p):
    """One representative per point of P^n(F_p): first nonzero coord is 1."""
    for lead in range(n + 1):
        for tail in itertools.product(range(p), repeat=n - lead):
            yield (0,) * lead + (1,) + tail


def eval_mod(poly, point, p):
    total = 0
    for mono, coeff in poly.terms:
        v = coeff
        for e, x in zip(mono, point):
            v *= pow(x, e, p)
        total += v
    return total % p


def jacobian_rank_mod(forms, point, p):
    rows = []
    for f in forms:
        row = []
        for j in range(f.num_vars):
            entry = 0
            for mono, coeff in f.terms:
                if mono[j] == 0:
                    continue
                v = coeff * mono[j]
                for idx, (e, x) in enumerate(zip(mono, point)):
                    v *= pow(x, e - 1 if idx == j else e, p)
                entry += v
            row.append(entry % p)
        rows.append(row)
    # Gaussian elimination over F_p
    r = 0
    ncols = len(rows[0])
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] % p), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        rows[r] = [x * inv % p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def smooth_common_zero_exists(e, p):
    for point in projective_points(e.n, p):
        if all(eval_mod(f, point, p) == 0 for f in e.forms):
            if jacobian_rank_mod(e.forms, point, p) >= e.n:
                return True
    return False


def any_common_zero_exists(e, p):
    return any(
        all(eval_mod(f, point, p) == 0 for f in e.forms)
        for point in projective_points(e.n, p)
    )


def has_finite_reduction(e, p):
    """Rank test for the reduction mod p: full rank means no zeros over F_p bar.

    At primes dividing discriminant-like invariants the reduction can
    degenerate even for a map that is finite over Q, so scan assertions
    are only sound at primes of finite reduction.
    """
    d = (e.n + 1) * (e.k - 1) + 1
    m = multiplication_matrix(e.forms, d - e.k)
    return rank_mod(m, p) == graded_dim(e.n + 1, d)


def test_power_map_shapes():
    e = power_map(3, 2)
    assert e.n == 3 and e.k == 2
    assert all(f.degree == 2 for f in e.forms)
    # the rank test certifies it: full rank modulo the first prime
    report = validate_finite(e)
    assert report.verdict == FINITE
    assert report.rank.modular == ((DEFAULT_PRIMES[0], report.required_rank),)


def test_power_maps_validate_finite():
    for n in range(1, 4):
        for k in (1, 2, 3):
            e = Endomorphism(n, k, power_map(n, k).forms)
            report = validate_finite(e)
            assert report.verdict == FINITE
            d = (n + 1) * (k - 1) + 1
            assert report.test_degree == d
            assert report.required_rank == graded_dim(n + 1, d)


def test_degenerate_map_not_finite():
    e = Endomorphism(1, 2, (parse_form("y0^2", 2), parse_form("y0*y1", 2)))
    report = validate_finite(e, exact=True)
    assert report.verdict == NOT_FINITE
    assert report.rank.rational is not None
    assert report.rank.rational < report.required_rank
    # the oracle sees the common zero (0 : 1) in every characteristic
    for p in SCAN_PRIMES:
        assert smooth_common_zero_exists(e, p)
    with pytest.raises(InputError, match="not finite"):
        splitting_from_endo(e, 0)


def test_disagreeing_primes_escalate_to_rational_rank():
    e = load_endomorphism("tests/fixtures/disagree23.endo")
    report = validate_finite(e, primes=(2, 3))
    assert report.rank.modular == ((2, 2), (3, 3))
    assert report.rank.rational == 4
    assert report.verdict == FINITE


def test_not_finite_is_recomputed_for_a_later_request():
    e = load_endomorphism("tests/fixtures/nonfinite12.endo")
    assert validate_finite(e).rank.rational is None
    report = validate_finite(e, primes=(1048583,), exact=True)
    assert report.verdict == NOT_FINITE
    assert report.rank.rational is not None
    assert [p for p, _ in report.rank.modular] == [1048583]


def test_agreeing_primes_do_not_escalate():
    e = Endomorphism(1, 2, (parse_form("y0^2", 2), parse_form("y0*y1", 2)))
    report = validate_finite(e)
    assert report.verdict == NOT_FINITE
    assert report.rank.rational is None


def test_perturbed_squaring_map_finite():
    e = load_endomorphism("tests/fixtures/perturbed22.endo")
    assert validate_finite(e, exact=True).verdict == FINITE
    for p in SCAN_PRIMES:
        assert not smooth_common_zero_exists(e, p)


def box(v, k, t):
    """box(t), the Hilbert function of the power map, 0 outside its table."""
    counts = _box_counts(v, k)
    return counts[t] if 0 <= t < len(counts) else 0


@pytest.mark.parametrize("v", range(2, 6))
@pytest.mark.parametrize("k", range(1, 6))
def test_macaulay_columns_count_the_bound(v, k):
    for t in range(v * (k - 1) + 2):
        keep = _macaulay_columns(v, k, t)
        assert keep.size == v * graded_dim(v, t - k)
        assert int(keep.sum()) == graded_dim(v, t) - box(v, k, t)
        # each kept column (i, b) stands for b + k*e_i, and together they
        # are the degree-t monomials divisible by some y_i^k
        columns = itertools.product(range(v), monomials_by_recursion(v, t - k))
        images = {tuple(x + k * (j == i) for j, x in enumerate(b))
                  for c, (i, b) in enumerate(columns) if keep[c]}
        assert images == {a for a in monomials_by_recursion(v, t) if max(a) >= k}


def spy_on_eliminations(monkeypatch):
    """One [rows, replayed] per rank_mod call: its matrix's row count, and
    whether the columns after Macaulay's were replayed and eliminated."""
    calls = []
    rank, replay = exactla.rank_mod, exactla._replay

    def spy_rank(m, *args):
        calls.append([m.rows, False])
        return rank(m, *args)

    def spy_replay(*args):
        calls[-1][1] = True
        return replay(*args)

    monkeypatch.setattr(exactla, "rank_mod", spy_rank)
    monkeypatch.setattr(exactla, "_replay", spy_replay)
    return calls


def powers_of_linear_forms(rows, k):
    """The forms (a . y)^k, one per row a."""
    forms = []
    for a in rows:
        coeffs = {}
        for b in monomials_by_recursion(len(a), k):
            c = math.factorial(k) // math.prod(math.factorial(x) for x in b)
            c *= math.prod(x ** y for x, y in zip(a, b))
            if c:
                coeffs[b] = c
        forms.append(HomogPoly.from_dict(len(a), k, coeffs))
    return tuple(forms)


def test_power_maps_reach_the_bound_on_macaulay_columns(monkeypatch):
    sizes = ((1, 2), (2, 3), (3, 2), (3, 3), (4, 2))
    # a power map's Hilbert function is box(t) in every degree
    for n, k in sizes:
        for t in range((n + 1) * (k - 1) + 2):
            assert hilbert_function(power_map(n, k), t) == box(n + 1, k, t)
    # at the socle degree Macaulay's columns, one per row, reach full rank
    # modulo the first prime: one elimination of them, no replay
    calls = spy_on_eliminations(monkeypatch)
    for n, k in sizes:
        rank = validate_finite(power_map(n, k)).rank
        assert len(rank.modular) == 1 and rank.rational is None
    assert calls == [[graded_dim(n + 1, (n + 1) * (k - 1) + 1), False]
                     for n, k in sizes]
    # after an invertible linear change of coordinates no line of the
    # matrix is a singleton, and Macaulay's columns still reach full rank
    for rows in ([[1, 1, 0], [0, 1, 1], [1, 0, 1]],
                 [[1, 2, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [1, 0, 0, 1]]):
        n = len(rows) - 1
        e = Endomorphism(n, 3, powers_of_linear_forms(rows, 3))
        for t in range(6, (n + 1) * 2 + 2):
            assert hilbert_function(e, t) == box(n + 1, 3, t)
        calls.clear()
        assert validate_finite(e).verdict == FINITE
        assert calls == [[graded_dim(n + 1, (n + 1) * 2 + 1), False]]


def test_short_macaulay_columns_fall_back_to_the_whole_matrix(monkeypatch):
    e = load_endomorphism("tests/fixtures/dense33.endo")
    for t in range(10):
        m = multiplication_matrix(e.forms, t - 3)
        rows = [[0] * m.cols for _ in range(m.rows)]
        for r, c, x in zip(m.row_index.tolist(), m.col_index.tolist(),
                           m.values.tolist()):
            rows[r][c] = x
        assert hilbert_function(e, t) == graded_dim(4, t) - rank_bareiss(rows)
    # at the socle degree D = 9 Macaulay's columns leave rows without a
    # pivot: one elimination, whose row operations are replayed onto the
    # other columns
    calls = spy_on_eliminations(monkeypatch)
    assert validate_finite(e).verdict == FINITE
    assert calls == [[graded_dim(4, 9), True]]
    for l in range(7):
        expected = splitting_universal(3, 3, l)
        assert splitting_by_ranks(e, l) == expected.as_dict()
        assert splitting_from_endo(e, l) == expected


def test_finite_verdicts_agree_with_scan():
    rng = random.Random(424242)
    checked = 0
    while checked < 6:
        n = rng.choice((1, 2))
        monos2 = [(i, j) for i in range(3) for j in range(3 - i)]
        forms = []
        for i in range(n + 1):
            terms = {}
            for mono in itertools.combinations_with_replacement(range(n + 1), 2):
                exps = [0] * (n + 1)
                for v in mono:
                    exps[v] += 1
                if rng.random() < 0.5:
                    terms[tuple(exps)] = rng.randrange(-3, 4)
            exps = [0] * (n + 1)
            exps[i] = 2
            terms[tuple(exps)] = terms.get(tuple(exps), 0) or 1
            forms.append(HomogPoly.from_dict(n + 1, 2, terms))
        try:
            e = Endomorphism(n, 2, tuple(forms))
        except InputError:
            continue
        if validate_finite(e, exact=True).verdict != FINITE:
            continue
        checked += 1
        for p in SCAN_PRIMES:
            if has_finite_reduction(e, p):
                assert not any_common_zero_exists(e, p)
                assert not smooth_common_zero_exists(e, p)
    assert checked == 6


def test_random_endomorphism_is_finite_and_seeded(monkeypatch):
    checks = []

    def checked(*args, **kwargs):
        checks.append(validate_finite(*args, **kwargs))
        return checks[-1]

    monkeypatch.setattr(endomorphism, "validate_finite", checked)
    e = random_endomorphism(2, 2, random.Random(1))
    ranks = []
    monkeypatch.setattr(exactla, "rank_mod",
                        lambda *args, real=rank_mod: ranks.append(args[1])
                        or real(*args))
    # the draw's own check is cached under its rank policy and returned
    assert validate_finite(e) is checks[-1]
    assert checks[-1].verdict == FINITE and ranks == []
    # another policy is another key: its report names its own prime
    report = validate_finite(e, primes=(101,), exact=True)
    assert report.verdict == FINITE and ranks == [101]
    assert [p for p, _ in report.rank.modular] == [101]
    again = random_endomorphism(2, 2, random.Random(1))
    assert again.forms == e.forms


def test_endomorphism_validation():
    with pytest.raises(InputError):
        Endomorphism(0, 2, (parse_form("y0^2", 1),))
    with pytest.raises(InputError):
        Endomorphism(1, 2, (parse_form("y0^2", 2),))
    with pytest.raises(InputError):
        Endomorphism(1, 2, (parse_form("y0^2", 2), parse_form("y1", 2)))


def test_parse_endomorphism_file_format():
    text = """
    # squaring with a comment
    n = 1
    k = 2
    f1 = y1^2
    f0 = y0^2
    """
    e = parse_endomorphism(text)
    assert e.n == 1 and e.k == 2
    assert e.forms[0] == parse_form("y0^2", 2)


def test_parse_endomorphism_errors_carry_line_numbers():
    with pytest.raises(InputError) as err:
        parse_endomorphism("n = 1\nk = 2\nf0 = y0^2\nf0 = y1^2\nf1 = y1^2\n")
    assert ":4:" in str(err.value)
    with pytest.raises(InputError):
        parse_endomorphism("n = 1\nk = 2\nf0 = y0^2\n")  # f1 missing
    with pytest.raises(InputError):
        parse_endomorphism("n = 1\nk = 2\nf0 = y0^2\nf1 = y1^2\nf2 = y0*y1\n")
    with pytest.raises(InputError):
        parse_endomorphism("n = 1\nk = 2\nf0 = y0\nf1 = y1\n")  # degree != k
    with pytest.raises(InputError):
        parse_endomorphism("n = 1\nbogus\n")
    # an n far beyond the file's statements is refused before any form is
    # parsed (parsing f0 with 10**30 variables raised OverflowError)
    with pytest.raises(InputError, match="'f1 = ...'"):
        parse_endomorphism(f"n = {10 ** 30}\nk = 1\nf0 = y0\n")
    # superscript digits pass str.isdigit but not int()
    with pytest.raises(InputError):
        parse_endomorphism("n = 1\nk = 2\nf0 = y0^\u00b2\nf1 = y1^2\n")


def test_load_endomorphism_fixture():
    e = load_endomorphism("tests/fixtures/power42.endo")
    assert e.n == 4 and e.k == 2
    assert e.forms == power_map(4, 2).forms
