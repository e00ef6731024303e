"""The one base of the package's value types, the methods ``dataclasses`` would write.

A record class names its fields, in ``repr`` order, in ``_fields`` and writes
its own ``__init__``, which stores them through ``self.__dict__``.  ``==``
holds only between instances of the same class and compares every field as a
tuple, ``hash`` is the hash of that tuple, and ``repr`` is
``Name(field=value!r, ...)`` over every field.  A record refuses assignment
and deletion.
"""

from operator import attrgetter


class Frozen:
    """An immutable, hashable record."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = cls._fields
        get = attrgetter(*names) if names else (lambda self: ())
        # attrgetter gives a bare value for one name; a key is always a tuple
        key = (lambda self: (get(self),)) if len(names) == 1 else get

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return key(self) == key(other)
            return NotImplemented

        cls.__eq__ = __eq__
        if "__hash__" not in cls.__dict__:
            cls.__hash__ = lambda self: hash(key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
