"""Immutable value records: the base of the package's small result types.

A record names its fields in ``__slots__`` and sets each of them once,
through ``object.__setattr__``; assigning or deleting a field afterwards
raises :class:`AttributeError`.  A record class that defines no
``__init__`` gets one when the class is created: a constructor taking the
slots in order, by position or by keyword, with no defaults, compiled from
the slot names alone.  A record that checks or normalizes its input writes
its own.  Two records are equal when they are of the same class and their
fields are equal, a record hashes as the tuple of its fields, and its repr
names each field, as in ``GroupDescriptor(rank=1, torsion=(2,))``.
Every module loads this one, so it also holds :func:`moved_names`.
"""

from __future__ import annotations

from operator import attrgetter


def _constructor(cls):
    """``cls.__init__(self, *slots)``, storing each argument in its slot.

    Compiled rather than looping over the slots at each call, which costs
    a records-heavy query noticeably; the source is built from the class's
    own slot names, never from input."""
    names = cls.__slots__
    lines = "".join(f"\n    _set(self, {name!r}, {name})" for name in names)
    namespace = {"_set": object.__setattr__}
    exec(f"def __init__(self, {', '.join(names)}):{lines}", namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"  # names the record in call errors
    return init


class Record:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # reads the fields as one tuple, so every record has two or more
        cls._fields = attrgetter(*cls.__slots__)
        if "__init__" not in cls.__dict__:
            cls.__init__ = _constructor(cls)

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


def moved_names(namespace: dict, homes: dict):
    """The module ``__getattr__`` (PEP 562) of the module whose globals are
    ``namespace``, for names defined elsewhere in the package: ``homes``
    maps each to the sibling module that defines it, imported on the first
    read of one of its names here.  The name is then kept in ``namespace``,
    so its next read is a plain lookup; any other name loads nothing."""

    def __getattr__(name):
        home = homes.get(name)
        if home is None:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        module = __import__(home, namespace, None, (name,), 1)  # as ``from .home import name``
        namespace[name] = value = getattr(module, name)
        return value

    return __getattr__
