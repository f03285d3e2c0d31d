"""Frozen value records in __slots__, the package's result types.

A record is built by position or keyword (_defaults fills the fields left
out), equal and hashed by its fields within its class, printed as
Class(field=value, ...), pickled by its fields, and frozen.  Its fields are
its slots but the underscored ones, such as __dict__ for a cached property.
Records are not dataclasses: importing that module, with the inspect and
ast modules it loads, and generating each class's methods were most of the
package's import time in a process that runs one command.
"""


class Record:
    __slots__ = ()
    _defaults: dict = {}

    def __init_subclass__(cls) -> None:
        cls.__match_args__ = tuple(n for n in cls.__slots__ if not n.startswith("_"))
        cls._setters = tuple(getattr(cls, field).__set__ for field in cls.__match_args__)

    def __init__(self, *args, **kwargs) -> None:
        if kwargs or len(args) != len(self._setters):
            fields = self.__match_args__
            values = {**self._defaults, **dict(zip(fields, args)), **kwargs}
            repeated = set(kwargs) & set(fields[:len(args)])
            if len(args) > len(fields) or values.keys() != set(fields) or repeated:
                raise TypeError(f"{self.__class__.__qualname__}() takes the fields {fields}")
            args = [values[field] for field in fields]
        for set_field, value in zip(self._setters, args):
            set_field(self, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, field) for field in self.__match_args__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join([f"{field}={getattr(self, field)!r}" for field in self.__match_args__])
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
