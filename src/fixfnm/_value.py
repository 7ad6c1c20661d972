"""The base of fixfnm's immutable value classes."""

from __future__ import annotations

from operator import attrgetter

set_field = object.__setattr__  # the one way to fill a field, from __init__


class FrozenValue:
    """An immutable record compared and hashed by its fields.

    The fields are the names in the subclass's ``__slots__``, in order,
    that do not start with ``_``. A ``_``-prefixed slot holds derived state
    that ``__init__`` (or a method, on first use) fills from the fields; it
    is not a field, so it takes no part in what follows. The base gives:

    * ``==`` and ``hash`` over the field values, for objects of the same
      class only;
    * a ``repr`` of the form ``Name(field=value, ...)``;
    * ``AttributeError`` on assigning or deleting an attribute;
    * copying and pickling through the constructor.

    Each subclass writes ``__slots__`` and an ``__init__`` that checks its
    arguments and stores each field with ``set_field(self, name, value)``,
    in slot order, so that the fields are also the positional arguments.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))
        # the field value, or the tuple of them when there are several
        cls._key = property(attrgetter(*cls._fields))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({inner})"

    def __reduce__(self) -> tuple:
        return self.__class__, tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to {name!r}: {self.__class__.__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r}: {self.__class__.__name__} is immutable")
