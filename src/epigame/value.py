"""Immutable value classes, with their methods written out once here.

A subclass of :class:`Value` declares its fields as class annotations and
stores them in an ``__init__`` of its own through :data:`setfield`.  It
gets what a frozen dataclass would give, without generating code at import
time: equality that compares the class first and then the fields in
order, so ``Neg(x) != Nu(x)``; a hash that agrees with it; the
``Name(field=value, ...)`` repr; and a refusal to assign or delete an
attribute.  A class that defines ``__eq__`` or ``__hash__`` keeps its own.
Fields are read from the class's own ``__annotations__``, so every module
that defines a value class starts with ``from __future__ import
annotations``; a class with an ``__init__`` and no fields found there is
refused at definition.

A value computes its hash once and keeps it, since the modal layer hashes
whole formula trees on every call.  Instances keep a ``__dict__``, so
``cached_property`` works on them.  Copies and pickles carry the fields
alone, restored without ``__setattr__``: cached properties are rebuilt on
demand, and a kept hash would be wrong in another process, where a ``str``
hashes differently.
"""

from __future__ import annotations

from operator import attrgetter

#: Stores a field from a value's own ``__init__``, past the refusal below.
setfield = object.__setattr__


def _no_fields(value: Value) -> tuple[()]:
    return ()


class Value:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        if not cls._fields and "__init__" in cls.__dict__:
            # annotations the class body does not keep as a dict (Python
            # 3.14 without the __future__ import) would make every instance
            # equal to every other
            raise TypeError(f"{cls.__qualname__} has an __init__ but no field annotations in __annotations__")
        key = attrgetter(*cls._fields) if cls._fields else _no_fields

        def __eq__(self, other: object) -> bool:
            if other.__class__ is self.__class__:
                return key(self) == key(other)
            return NotImplemented

        def __hash__(self) -> int:
            found = self.__dict__.get("_hash")
            if found is None:
                found = self.__dict__["_hash"] = hash(key(self))
            return found

        for method in (__eq__, __hash__):
            if method.__name__ not in cls.__dict__:
                setattr(cls, method.__name__, method)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __getstate__(self) -> dict:
        return {name: getattr(self, name) for name in self._fields}

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
