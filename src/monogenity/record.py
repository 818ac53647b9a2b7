"""Immutable records kept on __slots__, with no code generated per class.

A Record subclass names its fields in _fields; its __slots__ hold them
and whatever its constructor derives from them.  The plain constructor
takes the fields by position or keyword; one that validates or derives
stores through object.__setattr__.  Records of one class are equal when
their fields are, hash and print by their fields, refuse assignment,
and pickle through their constructor.
"""


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *values, **named):
        names = self._fields
        values += tuple(named.pop(name) for name in names[len(values):] if name in named)
        if len(values) != len(names) or named:
            raise TypeError(f"{type(self).__name__} takes the fields {names}")
        for name, value in zip(names, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({body})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
