"""Immutable records with no code generated per class.

A Record subclass names its fields in _fields; its __slots__ hold them
and whatever its constructor derives from them.  The plain constructor
takes the fields by position or keyword; one that validates or derives
stores through object.__setattr__.  Records of one class are equal when
their fields are, hash and print by their fields, refuse assignment,
and pickle through their constructor.

A TupleRecord subclass is a tuple: its fields are its class
annotations, in order, and each is a read-only descriptor that reads
its index.  It unpacks, indexes, compares and hashes as the tuple of its
fields, prints as Name(field=value, ...) and pickles through its
constructor, as a typing.NamedTuple does, but neither imports typing
nor compiles anything when its class is made.  Keywords are matched
to fields in Python, about 1 us more than a NamedTuple takes, so the
records made per prime or per side are built by position.
"""

from operator import itemgetter

try:
    # the read-only descriptor collections.namedtuple reads its fields with
    from _collections import _tuplegetter
except ImportError:  # not CPython

    def _tuplegetter(index, doc):
        return property(itemgetter(index), doc=doc)


_new_tuple = tuple.__new__


def _field_values(cls, values: tuple, named: dict) -> tuple:
    # the fields of cls from a constructor's positional and keyword arguments
    names = cls._fields
    if named:
        try:
            values += tuple(map(named.pop, names[len(values):]))
        except KeyError:
            values = ()
    if len(values) != len(names) or named:
        raise TypeError(f"{cls.__name__} takes the fields {names}")
    return values


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *values, **named):
        for name, value in zip(self._fields, _field_values(type(self), values, named)):
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


class _TupleRecordType(type):
    # reads the fields off the annotations of the class body, before the
    # class exists, so that its __slots__ can still be set to ()
    def __new__(mcls, name, bases, namespace):
        fields = tuple(namespace.get("__annotations__", ()))
        for index, field in enumerate(fields):
            namespace[field] = _tuplegetter(index, f"field {index}")
        namespace["__slots__"] = ()
        namespace["_fields"] = fields
        return super().__new__(mcls, name, bases, namespace)


class TupleRecord(tuple, metaclass=_TupleRecordType):
    def __new__(cls, *values, **named):
        if named or len(values) != len(cls._fields):
            values = _field_values(cls, values, named)
        return _new_tuple(cls, values)

    def __repr__(self):
        body = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self))
        return f"{type(self).__name__}({body})"

    def __getnewargs__(self):
        return tuple(self)
