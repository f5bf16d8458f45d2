"""A fixed unit of interpreter work that shares no code with tt0.

The machine this benchmark was built on is shared: the speed at which it
runs the same Python code drifts by up to 2x within seconds (a fixed loop
timed in 2-second buckets over a minute read from 10.5 to 23.4 ms), and
the guest sees almost none of it as steal time.  So each operation is
timed between two runs of this kernel, and its wall time is rescaled to
the speed at which the kernel takes `REFERENCE_S`.  The kernel is a small
normaliser for untyped lambda terms, the same kind of work tt0 does
(frozen dataclasses, structural pattern matching, recursion, tuples), so
the drift moves both alike.  The kernel never changes, and it runs with
the cyclic garbage collector paused, so that collections of what tt0 left
behind do not land in it; its objects hold no cycles, and reference
counting frees them all.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from time import perf_counter

# Seconds one `calibration()` run is taken to last.  Rescaled figures are
# wall time on a machine as fast as this.
REFERENCE_S = 0.01


@dataclass(frozen=True)
class Var:
    ix: int


@dataclass(frozen=True)
class Lam:
    body: object


@dataclass(frozen=True)
class App:
    fn: object
    arg: object


@dataclass(frozen=True)
class Clo:
    env: tuple
    body: object


@dataclass(frozen=True)
class Neu:
    lvl: int
    spine: tuple


def _eval(env: tuple, t: object) -> object:
    match t:
        case Var(ix):
            return env[ix]
        case Lam(body):
            return Clo(env, body)
        case App(fn, arg):
            return _apply(_eval(env, fn), _eval(env, arg))
    raise TypeError(t)


def _apply(f: object, a: object) -> object:
    match f:
        case Clo(env, body):
            return _eval((a,) + env, body)
        case Neu(lvl, spine):
            return Neu(lvl, spine + (a,))
    raise TypeError(f)


def _quote(depth: int, v: object) -> object:
    match v:
        case Clo():
            return Lam(_quote(depth + 1, _apply(v, Neu(depth, ()))))
        case Neu(lvl, spine):
            t: object = Var(depth - lvl - 1)
            for a in spine:
                t = App(t, _quote(depth, a))
            return t
    raise TypeError(v)


def _church(n: int) -> Lam:
    t: object = Var(0)
    for _ in range(n):
        t = App(Var(1), t)
    return Lam(Lam(t))


_MULT = Lam(Lam(Lam(App(Var(2), App(Var(1), Var(0))))))
_TERM = App(App(_MULT, _church(12)), _church(12))  # 144: about 150 frames deep
_ROUNDS = 14


def calibration() -> float:
    """Wall seconds of one fixed run of the kernel."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        for _ in range(_ROUNDS):
            _quote(0, _eval((), _TERM))
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
