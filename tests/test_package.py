"""Package-wide rules: runtime checks survive -O, the exports resolve, and
malformed input files raise only InputError."""

import ast
from pathlib import Path
from types import ModuleType

from hypothesis import given, settings
from hypothesis import strategies as st

import pushsplit
from pushsplit.endomorphism import parse_endomorphism
from pushsplit.errors import InputError
from pushsplit.polyring import parse_form
from pushsplit.varieties import parse_table

PACKAGE = Path(pushsplit.__file__).resolve().parent


def test_no_assert_statements():
    # python -O strips asserts; a runtime check must raise IntegrityError
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_every_export_resolves():
    assert len(set(pushsplit.__all__)) == len(pushsplit.__all__)
    missing = [name for name in pushsplit.__all__
               if not hasattr(pushsplit, name)]
    assert missing == []
    # and the reverse: every public name the package binds is exported
    unlisted = [name for name, value in vars(pushsplit).items()
                if not name.startswith("_")
                and not isinstance(value, ModuleType)
                and name not in pushsplit.__all__]
    assert unlisted == []


# Pieces of the three file grammars, with numbers that are empty, signed,
# huge, or made of characters that str.isdigit accepts but int refuses
# (superscripts) or accepts (Arabic-Indic digits).
NUMBERS = st.sampled_from(("0", "1", "2", "3", "-1", "+2", "", "1e3", "9" * 30,
                           "\u00b2", "\u0663", "0x1"))
FORMS = st.lists(st.one_of(NUMBERS, st.sampled_from(
    ("y0", "y1", "y2", "y3", "y", "x0", "^", "*", "+", "-", " ", "\t", "#",
     "y0^2", "2*", "(", "="))), max_size=10).map("".join)
SEPARATORS = st.sampled_from(("=", " = ", " ", "", "==", "\n"))


def statements(keys, values):
    line = st.tuples(st.sampled_from(keys), SEPARATORS, values).map("".join)
    return st.lists(st.one_of(line, st.text(max_size=8)), max_size=8).map("\n".join)


ENDOMORPHISMS = statements(("n", "k", "f0", "f1", "f2", "f3", "g", "#", " "),
                           st.one_of(NUMBERS, FORMS))
TABLE_ROWS = st.tuples(st.sampled_from(("h", "hI", "H")),
                       st.lists(NUMBERS, max_size=5)).map(
                           lambda t: " ".join((t[0],) + tuple(t[1])))
TABLES = st.lists(st.one_of(TABLE_ROWS, statements(
    ("n", "dim", "degree", "omega_twist", "trange", "linear_pm",
     "general_position", "x"),
    st.one_of(NUMBERS, st.sampled_from(("none", "true", "False", "0..2",
                                        "2..0", "..", "a..b", "1..1..2"))))),
    max_size=12).map("\n".join)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.one_of(
    st.tuples(st.just(parse_form), st.one_of(FORMS, st.text(max_size=12)),
              st.integers(1, 4)),
    st.tuples(st.just(parse_endomorphism), ENDOMORPHISMS),
    st.tuples(st.just(parse_table), TABLES)))
def test_parsers_raise_only_input_error(call):
    parser, *args = call
    try:
        parser(*args)
    except InputError:
        pass
