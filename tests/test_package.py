"""Package-wide rules: runtime checks survive -O, the exports resolve,
every public definition has a caller, README names only what exists,
numpy is imported only where the linear algebra runs, and malformed input
files raise only InputError."""

import ast
import dataclasses
import importlib
import re
import sys
from pathlib import Path
from types import ModuleType

from hypothesis import given, settings
from hypothesis import strategies as st

import pushsplit
from oracles import parse_form_by_scanner
from pushsplit.endomorphism import parse_endomorphism
from pushsplit.errors import FormSyntaxError, InputError
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


def test_numpy_is_imported_only_inside_functions():
    # a module-level import would load numpy for closed-form commands too;
    # an ``if TYPE_CHECKING:`` block runs only under a type checker
    def numpy_imports(nodes):
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if (isinstance(node, ast.If) and isinstance(node.test, ast.Name)
                    and node.test.id == "TYPE_CHECKING"):
                yield from numpy_imports(node.orelse)
                continue
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                names = []
            if any(name.split(".")[0] == "numpy" for name in names):
                yield node.lineno
            yield from numpy_imports(ast.iter_child_nodes(node))

    found = [f"{path.name}:{line}" for path in sorted(PACKAGE.glob("*.py"))
             for line in numpy_imports([ast.parse(path.read_text(), str(path))])]
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


def test_every_public_definition_has_a_caller():
    # a public top-level function or class must be referenced by some other
    # definition in the package (its own module's count: rank_verified calls
    # rank_mod) or named in README section Python API; __init__ re-exports
    # every name and so counts for none.  No exceptions.
    def referenced(node):
        return {n.id if isinstance(n, ast.Name) else
                n.attr if isinstance(n, ast.Attribute) else n.name
                for n in ast.walk(node)
                if isinstance(n, (ast.Name, ast.Attribute, ast.alias))}

    nodes = [(path.stem, node) for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "__init__.py"
             for node in ast.parse(path.read_text(), str(path)).body]
    uses = [(node, referenced(node)) for _, node in nodes]
    readme = (PACKAGE.parents[1] / "README.md").read_text()
    api = readme.split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"\w+", api))
    unused = [f"{module}.{node.name}" for module, node in nodes
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")
              and node.name not in documented
              and not any(node.name in names for other, names in uses
                          if other is not node)]
    assert unused == []


# the backticked words of README section Python API that are flags,
# commands or environment variables rather than Python names
README_NOT_PYTHON = {"--exact", "verify-endo", "split --endo", "COLUMNS"}


def test_readme_python_api_names_only_what_exists():
    # the other direction of the test above: each name the section's code
    # imports is exported, and each Python name its prose backticks is a
    # pushsplit module, a module's attribute, or an attribute or field of
    # an exported class; a call's arguments are not read
    readme = (PACKAGE.parents[1] / "README.md").read_text()
    api = readme.split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    code = "".join(re.findall(r"```python\n(.*?)```", api, re.S))
    imported = [alias.name for node in ast.walk(ast.parse(code))
                if isinstance(node, ast.ImportFrom)
                and node.module == "pushsplit" for alias in node.names]
    assert imported
    assert [name for name in imported if not hasattr(pushsplit, name)] == []

    modules = {path.stem: importlib.import_module(f"pushsplit.{path.stem}")
               for path in PACKAGE.glob("*.py")
               if path.stem not in ("__init__", "__main__")}
    classes = [value for value in vars(pushsplit).values()
               if isinstance(value, type)]

    def members(owner):
        names = set(dir(owner))
        if dataclasses.is_dataclass(owner):
            names |= {f.name for f in dataclasses.fields(owner)}
        return names

    def resolves(text):
        head, *rest = re.sub(r"\(\w*\)$", "", text).split(".")
        if head in modules:
            owner = modules[head]
        else:
            owners = [owner for owner in [*modules.values(), *classes]
                      if head in members(owner)]
            if not owners:
                return False
            owner = getattr(owners[0], head, None)
        for name in rest:
            if name not in members(owner):
                return False
            owner = getattr(owner, name)
        return True

    prose = re.sub(r"```.*?```", "", api, flags=re.S)
    named = set(re.findall(r"`([^`]+)`", prose)) - README_NOT_PYTHON
    assert {"cli.main(argv)", "smooth_general_position", "n"} <= named
    assert sorted(text for text in named if not resolves(text)) == []


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



@st.composite
def grammar_forms(draw):
    """Forms put together from the grammar with random spacing, then with
    at most one character deleted or inserted."""
    def gap():
        return draw(st.sampled_from(("", "", " ", "\t ")))

    pieces = [draw(st.sampled_from(("", "", "-", "+")))]
    for t in range(draw(st.integers(1, 3))):
        if t:
            pieces.append(draw(st.sampled_from(("+", "-"))))
        if draw(st.booleans()):
            pieces += [draw(st.sampled_from(("0", "1", "2", "12"))), "*"]
        for f in range(draw(st.integers(1, 3))):
            if f:
                pieces.append("*")
            pieces += ["y", str(draw(st.integers(0, 4)))]
            if draw(st.booleans()):
                pieces += ["^", str(draw(st.integers(0, 3)))]
    text = "".join(gap() + piece for piece in pieces) + gap()
    at = draw(st.integers(0, len(text)))
    edit = draw(st.sampled_from(("", "", "delete", "insert")))
    if edit == "delete":
        return text[:at] + text[at + 1:]
    if edit == "insert":
        return text[:at] + draw(st.sampled_from("y^*+-0 #")) + text[at:]
    return text


def parsed(text, num_vars, parser):
    """The form ``parser`` reads, or its error's type, message and position."""
    try:
        return parser(text, num_vars)
    except InputError as exc:
        return type(exc), str(exc), getattr(exc, "position", None)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(st.one_of(FORMS, grammar_forms(), st.text(max_size=12)),
       st.integers(1, 4))
def test_parse_form_agrees_with_the_character_scanner(text, num_vars):
    assert parsed(text, num_vars, parse_form) == \
        parsed(text, num_vars, parse_form_by_scanner)


def test_parse_form_reads_every_space_and_digit_as_the_scanner_does():
    odd = [c for c in map(chr, range(sys.maxunicode + 1))
           if c.isspace() or c.isdecimal()]
    assert len(odd) > 600
    for c in odd:
        for text in (f"{c}y{c}1{c}^{c}2{c}-{c}3{c}*{c}y0^2{c}", f"y0^{c}",
                     f"{c}", f"y{c}", f"{c}*y0 + y1{c}{c}"):
            assert parsed(text, 2, parse_form) == \
                parsed(text, 2, parse_form_by_scanner), text



def test_parse_form_refuses_a_number_too_long_to_read_as_the_scanner_does():
    # a coefficient, an exponent and a variable index one digit past the
    # interpreter's limit, each at the position of its first digit
    long = "1" * 641
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        for text, position in ((f"{long}*y0^2 + y1^2", 0), (f"y0^ {long}", 4),
                               (f"y0^2 + y {long}^2", 9), (f"y0 - {long}", 5)):
            error = parsed(text, 2, parse_form)
            assert error == parsed(text, 2, parse_form_by_scanner)
            assert error[0] is FormSyntaxError and error[2] == position
            assert "number with more than 640 digits" in error[1]
        # a syntax error read before the long number comes first
        assert "expected '+', '-'" in parsed(f"y0 y1 + {long}*y1", 2,
                                            parse_form)[1]
        # without a limit the number is read
        sys.set_int_max_str_digits(0)
        assert parse_form(f"{long}*y0", 1).terms == (((1,), int(long)),)
    finally:
        sys.set_int_max_str_digits(limit)
