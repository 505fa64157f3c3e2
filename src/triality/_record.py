"""The one base of the package's immutable records.

A record is a class whose fields are its ``__slots__``, from the
signatures and bases to ``linalg``'s ``Subspace``, ``CoordSolver`` and
``StructureConstants``.  Defining one builds nothing at import time: no
generated code, no ``dataclasses`` or ``inspect`` import.  ``ExactScalar``
and ``Matrix`` use the same idiom with guards of their own, so that
``import triality.cli`` does not load this module.
"""


class Record:
    """An immutable record; its fields are the subclass's ``__slots__``.

    Fields are given by position or keyword, and all of them are required.
    Every record compares by class and field values, and hashes exactly
    when all its field values do.  The repr is ``Name(field=value, ...)``.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        values = dict(zip(names, args), **kwargs)
        if len(args) + len(kwargs) != len(names) or values.keys() != set(names):
            raise TypeError(f"{type(self).__name__} takes the fields "
                            f"({', '.join(names)}), each exactly once")
        for name in names:
            object.__setattr__(self, name, values[name])

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
