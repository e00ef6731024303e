"""The shared methods of the package's value types, as ``dataclasses`` would write them.

A record class names its fields, in ``repr`` order, in ``_fields`` and writes
its own ``__init__``; a ``compare`` class keyword names the fields ``==`` and
``hash`` read, when not all of them.  ``==`` holds only between instances of
the same class and compares those fields as a tuple, ``hash`` is the hash of
that tuple, and ``repr`` is ``Name(field=value!r, ...)`` over every field.
"""

from operator import attrgetter


class Record:
    """A mutable record: ``==`` and ``repr``; unhashable."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    __hash__ = None

    def __init_subclass__(cls, compare=None, **kwargs):
        super().__init_subclass__(**kwargs)
        names = cls._fields if compare is None else compare
        get = attrgetter(*names) if names else (lambda self: ())
        # attrgetter gives a bare value for one name; a key is always a tuple
        key = (lambda self: (get(self),)) if len(names) == 1 else get

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return key(self) == key(other)
            return NotImplemented

        cls.__eq__, cls._key = __eq__, staticmethod(key)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class Frozen(Record):
    """An immutable, hashable record; ``__init__`` stores through ``self.__dict__``."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "__hash__" not in cls.__dict__:
            key = cls._key
            cls.__hash__ = lambda self: hash(key(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
