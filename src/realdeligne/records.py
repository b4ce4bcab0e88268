"""Immutable value records: the base of the package's small result types.

A record names its fields in ``__slots__`` and sets each of them once, in
its own ``__init__``, through ``object.__setattr__``; assigning or deleting
a field afterwards raises :class:`AttributeError`.  Two records are equal
when they are of the same class and their fields are equal, a record hashes
as the tuple of its fields, and its repr names each field, as in
``GroupDescriptor(rank=1, torsion=(2,))``.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # reads the fields as one tuple, so every record has two or more
        cls._fields = attrgetter(*cls.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields(self) == other._fields(other)

    def __hash__(self):
        return hash(self._fields(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a {type(self).__name__}")

    def __reduce__(self):
        # copy and pickle rebuild a record through its constructor, which
        # takes the fields in slot order
        return type(self), self._fields(self)
