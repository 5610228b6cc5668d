"""Exception taxonomy shared by all modules, and the input-file reader.

The CLI maps these onto disjoint exit codes: InputError -> 2,
IntegrityError -> 3, TableRangeError -> 4.
"""


class PushsplitError(Exception):
    """Base class for all errors raised by this package."""


class InputError(PushsplitError):
    """Malformed or out-of-contract user input (files, flags, preconditions)."""


class FormSyntaxError(InputError):
    """Syntax error in a polynomial form, with a character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class MissingDataError(InputError):
    """A model lacks the data (ideal or dualizing rows) an operation needs."""


class IntegrityError(PushsplitError):
    """Two routes that must agree disagreed, or a proof failed; carries
    both values when there are two.

    Never downgraded to a warning: it means either an implementation bug
    or a counterexample, and both must be loud.
    """

    def __init__(self, message: str, expected=None, actual=None):
        super().__init__(message)
        self.expected = expected
        self.actual = actual


class TableRangeError(PushsplitError):
    """A cohomology table was queried outside its declared twist range."""


def read_input_file(path: str, kind: str) -> str:
    """The text of a UTF-8 input file, without one leading byte-order
    mark; InputError if it cannot be read."""
    try:
        # decoded whole as UTF-8, so a bad byte's offset counts the mark
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read().removeprefix("\ufeff")
    except OSError as exc:
        raise InputError(f"cannot read {kind} file: {exc}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot read {kind} file {path!r}: not UTF-8 "
                         f"(byte {exc.start})") from None
