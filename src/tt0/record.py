"""Records: the syntax nodes of every layer and a few state records.

A subclass of `Record` declares its fields as annotations after those of its
bases, with class attributes as defaults.  `__init_subclass__` reads the new
fields once and gives the class `__match_args__` (every field name in order,
the field list of generic readers) and an `__init__`, `==` and `hash` for
them: a template compiled once per field count, its placeholders `_0`, `_1`,
… renamed to the fields, so no field may be named like one, nor `self`,
`other` or `d`.  `==` and `hash` skip the fields named by the class keyword
`uncompared` (binder names, spans), `repr` those named by `unshown`; a record
without compared fields equals each record of its class and hashes its class.
Records are frozen unless the class says `frozen=False`.
"""

from __future__ import annotations

from functools import cache
from itertools import dropwhile
from types import CodeType, FunctionType
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
        for f in own:
            if f in ("self", "other", "d") or f[0] == "_" and f[1:].isdecimal():
                raise TypeError(f"field {f!r} of {cls.__qualname__}: its methods use the name")
        cls.__match_args__ += own
        cls._compared += tuple(f for f in own if f not in uncompared)
        cls._shown += tuple(f for f in own if f not in unshown)
        fields = cls.__match_args__
        # the defaults of the first field that has one and of every later field
        defaults = tuple(getattr(cls, f) for f in dropwhile(lambda f: not hasattr(cls, f), fields))
        methods = [("__init__", fields, defaults)]
        methods += [(name, cls._compared, ()) for name in ("__eq__", "__hash__") if cls._compared]
        for name, names, values in methods:
            if name not in vars(cls):  # a mutable record keeps `__hash__ = None`
                setattr(cls, name, _method(cls, name, names, values))

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


@cache
def _compile(n: int) -> dict[str, CodeType]:
    """The code of the methods for `n` fields named `_0`, `_1`, …, compiled
    once per field count."""
    names = [f"_{i}" for i in range(n)]
    mine = "".join(f"self.{f}, " for f in names)
    stores = "\n".join(f"    d[{f!r}] = {f}" for f in names)
    params, theirs = ", ".join(names), mine.replace("self.", "other.")
    namespace: dict[str, Any] = {}
    exec(_METHODS.format(params=params, stores=stores, mine=mine, theirs=theirs), namespace)
    return {name: namespace[name].__code__ for name in ("__init__", "__eq__", "__hash__")}


def _method(cls: type, name: str, fields: tuple[str, ...], defaults: tuple) -> FunctionType:
    """The method `name` of `cls` for `fields`: the template for their count
    with each placeholder renamed to its field.  The code object is the
    class's own, so the inline caches in it serve that class alone."""
    code, to = _compile(len(fields))[name], {f"_{i}": f for i, f in enumerate(fields)}
    renamed = {k: tuple(to.get(x, x) for x in getattr(code, k)) for k in _RENAMED}
    method = FunctionType(code.replace(**renamed), globals(), name, defaults or None)
    method.__qualname__ = f"{cls.__qualname__}.{name}"
    return method


_RENAMED = ("co_varnames", "co_names", "co_consts")
