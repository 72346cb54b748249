"""One immutable namedtuple base for the package's value classes:
`collections` is loaded already, and the base needs no `inspect`."""

from collections import namedtuple

_tuple_eq = tuple.__eq__


def value_base(fields: str) -> type:
    """A base whose instances equal only same-class instances with equal
    fields, hash as their field tuple, reject assignment and give their
    fields as a dict and as JSON; a subclass sets `__slots__ = ()` to
    have no attributes besides its fields.

    Calling the class runs its `__post_init__` check; a trusted instance
    is built without it by `tuple.__new__(cls, fields)`."""
    fields_tuple = namedtuple("Value", fields)
    size = len(fields_tuple._fields)

    class Value(fields_tuple):
        __slots__ = ()

        def __new__(cls, *args, **kwargs):
            # namedtuple's argument parsing only for keywords or a wrong call
            if len(args) == size and not kwargs:
                self = tuple.__new__(cls, args)
            else:
                self = fields_tuple.__new__(cls, *args, **kwargs)
            self.__post_init__()
            return self

        def __post_init__(self):
            pass

        def __eq__(self, other):
            # False, not NotImplemented, or tuple would compare the fields
            return type(other) is type(self) and _tuple_eq(self, other)

        # tuple's own __ne__ would compare the fields with a plain tuple
        def __ne__(self, other):
            return not self == other

        __hash__ = tuple.__hash__

        as_dict = fields_tuple._asdict

        def to_json(self) -> str:
            import json  # only callers that print JSON pay for the import
            return json.dumps(self.as_dict())

    return Value
