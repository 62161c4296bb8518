"""The closed-form registry as exact data, and the ClosedForm type it shares."""

import inspect
import math
from fractions import Fraction

import numpy as np
import pytest

from spherepde import NoClosedFormError, SphereDomainError, green_tables
from spherepde.closedform import ClosedForm, derive_green_closed_form

from registry_values import POINTS, VALUES

F = Fraction
ROWS = green_tables.rows_for()
ROW_IDS = [f"n{r.n}-L{r.L}" for r in ROWS]
ATOM_SIZE = {"1": lambda t: 1.0, "lg": lambda t: abs(math.log((1 - t) / 2)),
             "pi-th": lambda t: math.acos(-t), "pi*sqrt2": lambda t: math.pi * math.sqrt(2)}


def magnitude(form, t):
    """sum_k |p_k|(|t|) |atom_k(t)| / den_k(t), |p| with absolute coefficients.

    The size of the partial results any evaluation of the formula forms, so
    rounding errors scale with it; near t = -1 the odd-n rows and at large
    n the rational and log parts cancel to a much smaller G.
    """
    total = 0.0
    for atom, a, b, coeffs in form.terms:
        p = sum(abs(float(c)) * abs(t) ** i for i, c in enumerate(coeffs))
        total += p * ATOM_SIZE[atom](t) / ((1 - t) ** (a / 2) * (1 + t) ** (b / 2))
    return total


def tolerance(form, t, ref):
    return 1e-13 * (1.0 + abs(ref)) + 1e-14 * magnitude(form, t)


def test_pinned_values_cover_the_registry():
    assert len(VALUES) == 66
    assert set(VALUES) == {(r.n, str(r.L)) for r in ROWS}


@pytest.mark.parametrize("row", ROWS, ids=ROW_IDS)
def test_pinned_values(row):
    for t, ref in zip(POINTS, VALUES[(row.n, str(row.L))]):
        assert abs(row.eval(t) - ref) <= tolerance(row, t, ref), t


@pytest.mark.parametrize("row", ROWS, ids=ROW_IDS)
def test_array_eval_equals_scalar_eval(row):
    ts = np.linspace(-0.999, 0.999, 301)
    got = row.eval(ts)
    assert isinstance(row.eval(0.25), float)
    assert np.array_equal(got, [row.eval(float(t)) for t in ts])
    assert np.array_equal(row.eval(ts.reshape(7, 43)), got.reshape(7, 43))


# derived forms beside the rows: n = 2, negative L, and a larger n
DERIVED = [derive_green_closed_form(n, L) for n, L in ((2, 3), (4, -1), (8, 2), (16, 3))]
_OUTSIDE = (1.0, 1.0 - 1e-13, 1.0 - 1e-12, 1.0 + 5e-13, 1.5, -1.5, -1.0 - 2e-12,
            math.nan, math.inf)


@pytest.mark.parametrize("form", ROWS + DERIVED,
                         ids=ROW_IDS + [f"derived-n{f.n}-L{f.L}" for f in DERIVED])
def test_direct_eval_follows_the_green_t_rule(form):
    # the diagonal band t >= 1 - 1e-12, |t| > 1 + 1e-12 and NaN are refused as
    # a scalar and anywhere in an array, as GreenFunction refuses them
    for t in _OUTSIDE:
        with pytest.raises(SphereDomainError):
            form.eval(t)
        with pytest.raises(SphereDomainError):
            form.eval(np.array([[0.2, -0.5], [t, 0.0]]))
    assert math.isfinite(form.eval(1.0 - 1e-11))
    # roundoff past -1 is clamped to the antipode, where a (1+t) form has no value
    below = -1.0 - 5e-13
    if any(b for _atom, _a, b, _c in form.terms):
        for t in (below, np.array([0.3, below])):
            with pytest.raises(NoClosedFormError):
                form.eval(t)
    else:
        assert form.eval(below) == form.eval(-1.0)
        assert np.array_equal(form.eval(np.array([0.3, below])), form.eval(np.array([0.3, -1.0])))


@pytest.mark.parametrize("row", ROWS, ids=ROW_IDS)
def test_text_is_the_same_function(row):
    names = {k: getattr(math, k) for k in ("log", "acos", "sqrt", "pi")}
    for t in POINTS:
        ref = row.eval(t)
        got = eval(row.text(), {"__builtins__": {}}, dict(names, t=t))
        assert abs(got - ref) <= tolerance(row, t, ref), t


# the (n, L) keys of each table, written out: 1 the Poisson case, 2 positive
# integer L, 3 positive half-integer L, 4 negative a
TABLE_KEYS = {
    1: {(n, F(0)) for n in range(2, 11)},
    2: {(n, F(L)) for n in range(2, 9) for L in range(1, 5)},
    3: {(n, F(k, 2)) for n in (3, 5, 7) for k in (1, 3, 5, 7)},
    4: {(3, F(-1, 2)), (4, F(-1)), (6, F(-1)), (6, F(-2)), (8, F(-1)), (8, F(-2)), (8, F(-3))}
       | {(5, F(-k, 2)) for k in range(1, 5)} | {(7, F(-k, 2)) for k in range(1, 7)},
}


@pytest.mark.parametrize("table", sorted(TABLE_KEYS))
def test_table_keys_pinned(table):
    assert {(r.n, r.L) for r in ROWS if r.table == table} == TABLE_KEYS[table]


def test_rows_derive_their_table():
    # _row takes no table label: it follows from (n, L) by the rule above
    assert list(inspect.signature(green_tables._row).parameters) == ["n", "L", "terms"]
    assert sum(map(len, TABLE_KEYS.values())) == len(ROWS) == 66


def test_registry_rows_are_canonical():
    for row in ROWS:
        assert ClosedForm(row.terms) == row
        assert ClosedForm(row.terms).terms == row.terms


def test_like_terms_merge_and_factors_cancel():
    # 1 + 4t/3 written in two pieces is the one polynomial (3 + 4t)/3
    two = ClosedForm([("1", 0, 0, [1]), ("1", 0, 0, [0, Fraction(4, 3)])])
    assert two == ClosedForm([("1", 0, 0, [1, Fraction(4, 3)])])
    # (1-t)(1+t)/(1-t^2) = 1
    assert ClosedForm([("lg", 2, 2, [1, 0, -1])]).terms == (("lg", 0, 0, (Fraction(1),)),)
    # sqrt(1-t) = (1-t)/sqrt(1-t): a negative exponent lifts, a half factor stays
    assert ClosedForm([("1", -1, 0, [1])]) == ClosedForm([("1", 1, 0, [1, -1])])
    assert ClosedForm([("1", 1, 0, [1, -1])]).terms == (("1", 1, 0, (F(1), F(-1))),)
    # different atoms and different half-power classes stay apart
    assert ClosedForm([("1", 0, 0, [1])]) != ClosedForm([("pi*sqrt2", 0, 0, [1])])
    assert len(ClosedForm([("1", 0, 0, [1]), ("1", 1, 0, [1])]).terms) == 2


def test_n7_rows_reduce_to_lowest_terms():
    # written as (-5t + 7t^3 - 2t^5)/(48(1-t^2)^3) - (pi-th)/(16(1-t^2)^{5/2})
    row = green_tables.lookup_by_root(7, -1)
    assert row.terms == (("1", 4, 4, (F(0), F(-5, 48), F(0), F(1, 24))),
                         ("pi-th", 5, 5, (F(-1, 16),)))
    assert row.text() == "(-5*t + 2*t**3)/(48*(1-t**2)**2) - (pi-acos(t))/(16*(1-t**2)**(5/2))"


def test_zero_form():
    zero = ClosedForm([("lg", 0, 0, [1]), ("lg", 0, 0, [-1])])
    assert zero.terms == () and zero.text() == "0"
    assert zero.eval(0.3) == 0.0
    assert np.array_equal(zero.eval(np.array([-0.5, 0.5])), [0.0, 0.0])


def test_labels_take_no_part_in_equality():
    row = green_tables.lookup_by_root(4, 0)
    assert ClosedForm(row.terms, n=4, L=0) == row and row.table == 1
    assert row.a == 0 and green_tables.lookup_by_root(3, Fraction(1, 2)).a == Fraction(5, 4)


def test_unknown_atom_rejected():
    with pytest.raises(ValueError):
        ClosedForm([("exp", 0, 0, [1])])


def test_latex():
    row = green_tables.lookup_by_root(3, Fraction(1, 2))
    assert row.latex() == r"\frac{\left(1 - 2t\right)\pi\sqrt{2}}{4(1-t)^{1/2}}"
    assert row.text() == "(1 - 2*t)*pi*sqrt(2)/(4*sqrt(1-t))"

