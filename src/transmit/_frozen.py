"""The base of the package's immutable value classes: expression nodes,
transmission triples, rooted graphs and pending wedges.

It does what a frozen dataclass would, without importing :mod:`dataclasses`,
which loads :mod:`inspect` and :mod:`ast` and takes several milliseconds of
every command's start-up.
"""

from __future__ import annotations


class Frozen:
    """An immutable value with one slot per field, named in order by the
    subclass's ``__slots__``.

    Each subclass gets an ``__init__`` that takes the fields by position or
    by name, passes them in order to the subclass's ``_check``, if it has
    one, which raises to refuse them, and then sets them. Assigning or
    deleting a field raises :class:`AttributeError`. Two values are equal,
    and hash alike, when they are of the same class with equal fields. A
    value pickles and copies as its class called on its fields, so the check
    runs again.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = cls.__slots__
        if not fields:  # a base of other value classes
            return
        # Each field is set through its slot's own descriptor, which the
        # refusing __setattr__ below does not stand in front of.
        namespace = {f"set_{name}": getattr(cls, name).__set__ for name in fields}
        namespace["__name__"] = cls.__module__  # so that __init__.__module__ is the class's
        params = ", ".join(fields)
        lines = [f"def __init__(self, {params}):"]
        if hasattr(cls, "_check"):
            namespace["check"] = cls._check
            lines.append(f"    check({params})")
        lines += [f"    set_{name}(self, {name})" for name in fields]
        exec("\n".join(lines), namespace)
        cls.__init__ = namespace["__init__"]
        cls.__match_args__ = fields

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash((type(self), *self._values()))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
