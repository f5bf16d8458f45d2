"""The JSON format of tt0's output: one writer for core terms, extracted
target terms and the JSON values around them.

A term is an object whose `"tag"` names its former, followed by its fields
in order; `extract` adds its target classes to `TAGS`.  The kernel does not
use this module.
"""

from __future__ import annotations

from _json import encode_basestring_ascii as _quote
from functools import cache
from typing import Callable

from . import core as co

# The JSON tag of each syntax class.  A constant's tag is its keyword, and a
# literal is written as nested `succ` objects around `zero`.
TAGS: dict[type, str] = {
    co.Var: "Var", co.Lam: "Lam", co.App: "App", co.Pi: "Pi", co.Sigma: "Sigma",
    co.Pair: "Pair", co.Fst: "Fst", co.Snd: "Snd", co.Succ: "succ",
    co.NatElim: "natElim", co.BoolElim: "boolElim", co.Let: "Let", co.Meta: "Meta",
    **{type(c): kw for kw, (c, _, _) in co.CONSTANTS.items()},
}

# JSON keys that differ from the field names.
_KEYS = {"fst_ty": "fst", "snd_ty": "snd", "icit": "implicit", "mid": "id", "els": "else"}

# The JSON value of each field that is neither a subterm nor a JSON scalar.
_FIELD_VALUES: dict[str, Callable[..., object]] = {
    "mode": lambda m: m.value,
    "icit": lambda i: i is co.IMPL,
    "mask": lambda ms: [None if m is None else m.value for m in ms],
}


@cache
def fields(cls: type) -> tuple[tuple[str, str], ...]:
    """(field name, JSON key) of each field of a syntax class, in order."""
    return tuple((f, _KEYS.get(f, f)) for f in cls.__match_args__)


def _leaf(v: object) -> object:
    """The JSON text of a string, int, bool or None; a list, dict or term as
    it is."""
    if type(v) is str:
        return _quote(v)
    if type(v) is int:
        return str(v)
    if type(v) is bool:
        return "true" if v else "false"
    return "null" if v is None else v


def to_json(value: object) -> str:
    """The text `json.dumps` writes for a JSON value in which core and target
    terms stand for their JSON objects.  It works on an explicit stack of
    values and text pieces, so its depth is bounded by memory, and a literal
    is one string repetition, with no Python step per `succ`."""
    out: list[str] = []
    todo: list[object] = [_leaf(value)]
    while todo:
        v = todo.pop()
        if type(v) is str:
            out.append(v)
        elif type(v) is dict or type(v) is list:
            opener, closer = ("{", "}") if type(v) is dict else ("[", "]")
            items = v.items() if type(v) is dict else ((None, x) for x in v)
            todo.append(closer)
            for i, (key, x) in reversed(list(enumerate(items))):
                key_text = "" if key is None else _quote(key) + ": "
                todo += [_leaf(x), (", " if i else "") + key_text]
            todo.append(opener)
        elif (tag := TAGS[type(v)]) == "zero":
            out.append('{"tag": "succ", "arg": ' * v.n + '{"tag": "zero"}' + "}" * v.n)
        else:
            out.append(f'{{"tag": "{tag}"')
            todo.append("}")
            for name, key in reversed(fields(type(v))):
                x = getattr(v, name)
                if name in _FIELD_VALUES:
                    x = _FIELD_VALUES[name](x)
                todo += [_leaf(x), f', "{key}": ']
    return "".join(out)
