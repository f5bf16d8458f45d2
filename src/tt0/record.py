"""Records: the syntax nodes of every layer and a few state records.

A subclass of `Record` declares its fields as annotations after those of its
bases, with class attributes as defaults.  `__init_subclass__` reads the new
fields once and gives the class `__match_args__` (every field name in order,
the field list of generic readers) and an `__init__`, `==` and `hash`
compiled for them.  `==` and `hash` skip the fields named by the class
keyword `uncompared` (binder names, spans), `repr` those named by `unshown`;
a record without compared fields equals each record of its class and hashes
its class.  Records are frozen unless the class says `frozen=False`.
"""

from __future__ import annotations

from typing import Any


class Record:
    __match_args__: tuple[str, ...] = ()
    _compared: tuple[str, ...] = ()
    _shown: tuple[str, ...] = ()

    def __init_subclass__(cls, frozen=True, uncompared=(), unshown=()) -> None:
        if not frozen:
            cls.__setattr__ = object.__setattr__
            cls.__delattr__ = object.__delattr__
            cls.__hash__ = None
        own = tuple(f for f in vars(cls).get("__annotations__", ()) if f not in cls.__match_args__)
        if not own:
            return
        cls.__match_args__ += own
        cls._compared += tuple(f for f in own if f not in uncompared)
        cls._shown += tuple(f for f in own if f not in unshown)
        for name, method in _compile(cls).items():
            if name not in vars(cls):  # a mutable record keeps `__hash__ = None`
                method.__qualname__ = f"{cls.__qualname__}.{name}"
                setattr(cls, name, method)

    # `==` and `hash` of a record without compared fields: its class.
    def __eq__(self, other: object) -> bool:
        return True if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self.__class__)

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._shown)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def replace(self, **changes: object) -> Any:
        """A copy of the record with the given fields changed."""
        return type(self)(**{f: getattr(self, f) for f in self.__match_args__} | changes)


_METHODS = """\
def __init__(self, {params}):
    d = self.__dict__
{stores}
def __eq__(self, other):
    if other.__class__ is self.__class__:
        return ({mine}) == ({theirs})
    return NotImplemented
def __hash__(self):
    return hash(({mine}))
"""


def _compile(cls: type[Record]) -> dict[str, Any]:
    """`__init__` for the fields of `cls`, which stores each field in the
    instance's `__dict__`, past the frozen `__setattr__`, and `__eq__` and
    `__hash__` for its compared fields, if it has any."""
    fields = cls.__match_args__
    defaults = {f: getattr(cls, f) for f in fields if hasattr(cls, f)}
    mine = "".join(f"self.{f}, " for f in cls._compared)
    source = _METHODS.format(
        params=", ".join(f"{f}=_defaults[{f!r}]" if f in defaults else f for f in fields),
        stores="\n".join(f"    d[{f!r}] = {f}" for f in fields),
        mine=mine,
        theirs=mine.replace("self.", "other."),
    )
    namespace = {"_defaults": defaults}
    exec(source, namespace)
    methods = ("__init__", "__eq__", "__hash__") if cls._compared else ("__init__",)
    return {name: namespace[name] for name in methods}
