"""Command line driver: check, elaborate, normalise, extract, run and
verify the mode translations over `.tt0` files."""

from __future__ import annotations

import os
import sys
from collections.abc import Iterable, Iterator
from contextlib import suppress
from functools import cache
from itertools import chain
from types import SimpleNamespace
from typing import TYPE_CHECKING

from . import core as co
from . import extract as ex
from . import translate
from .diagnostics import Diagnostic, InternalError
from .elab import ElabResult, closed_definition, closed_main, elaborate_text
from .jsontext import to_json

if TYPE_CHECKING:
    from argparse import ArgumentParser, Namespace

JSON_VERSION = 1

EXIT_OK = 0
EXIT_DIAGNOSTICS = 1
EXIT_USAGE = 2
EXIT_FUEL = 3


# Each option, as argparse's `add_argument` takes it; a flag has no `type`.
_OPTIONS = {
    "--json": {"dest": "json", "action": "store_true", "help": "machine-readable output"},
    "--no-color": {"dest": "no_color", "action": "store_true", "help": "plain diagnostics"},
    "--def": {"dest": "name", "metavar": "NAME", "type": str},
    "--main": {"dest": "main", "action": "store_true"},
    "--fuel": {"dest": "fuel", "metavar": "N", "type": int},
}

# Each command: its help, its options, and the options it takes exactly one of.
_FLAGS = ("--json", "--no-color")
_CLI = {
    "check": ("elaborate and re-check every declaration", _FLAGS, ()),
    "elab": ("print the elaborated core terms", _FLAGS, ()),
    "nf": ("print the normal form of a definition", _FLAGS, ("--def",)),
    "extract": ("print the extracted runtime program", _FLAGS, ("--def", "--main")),
    "run": ("extract main, evaluate it, print the result", (*_FLAGS, "--fuel"), ()),
    "meta": ("re-check the zeroed and mode-stripped module", _FLAGS, ()),
}


@cache
def build_parser() -> ArgumentParser:
    """Argparse's parser, built on first use, for the command lines `_read` leaves."""
    import argparse

    p = argparse.ArgumentParser(prog="tt0", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    for command, (summary, options, one_of) in _CLI.items():
        sp = sub.add_parser(command, help=summary)
        sp.add_argument("file", help="input .tt0 file")
        group = sp.add_mutually_exclusive_group(required=True) if len(one_of) > 1 else sp
        for spelling in (*options, *one_of):
            to = group if spelling in one_of else sp
            to.add_argument(spelling, required=(spelling,) == one_of, **_OPTIONS[spelling])
    return p


def _read(argv: list[str]) -> SimpleNamespace | None:
    """What argparse would return, if every token after the command is the one
    FILE or the full spelling of an option of the command, used once, with a
    value not starting with `-`, and for nf and extract one of `one_of`; else None."""
    if not argv or argv[0] not in _CLI:
        return None
    _, options, one_of = _CLI[argv[0]]
    unused = {s: _OPTIONS[s] for s in (*options, *one_of)}
    args = {"command": argv[0], "file": None}
    args |= {o["dest"]: None if "type" in o else False for o in unused.values()}
    tokens = iter(argv[1:])
    try:
        for token in tokens:
            if token in unused:
                option = unused.pop(token)
                value = next(tokens, "-") if "type" in option else ""
                if value.startswith("-"):
                    return None
                args[option["dest"]] = option["type"](value) if "type" in option else True
            elif token.startswith("-") or args["file"] is not None:
                return None
            else:
                args["file"] = token
    except ValueError:  # a value its `type` refuses, as in argparse
        return None
    if args["file"] is None or one_of and sum(s not in unused for s in one_of) != 1:
        return None
    return SimpleNamespace(**args)


# What a command returns: its exit code, the keys of its JSON envelope that
# follow "version", and its text lines.  The lines are lazy and `main` reads
# them only without `--json`, whose output carries a result's term as JSON,
# not as text, which can be long (a numeral prints as its `succ` chain).
Output = tuple[int, dict, Iterable[str]]


class _UsageError(Exception):
    """A usage error found after the arguments were parsed."""


def _report(diags: list[Diagnostic], source: str | None, use_json: bool, color: bool) -> None:
    if use_json:
        diagnostics = [d.to_json() for d in diags]
        print(to_json({"version": JSON_VERSION, "diagnostics": diagnostics}), file=sys.stderr)
        return
    for d in diags:
        text = d.render(source)
        if color:
            text = text.replace("error:", "\x1b[31merror:\x1b[0m", 1)
        print(text, file=sys.stderr)


def _load(path: str) -> str:
    """The text of a source file without one leading byte-order mark, line
    breaks as they are, so that the tokenizer sees what the library sees; an
    unreadable or non-UTF-8 file is a diagnostic at its byte offset."""
    try:
        with open(path, "rb", buffering=0) as f:
            return f.read().decode("utf-8").removeprefix("\ufeff")
    except OSError as e:
        reason = e.strerror
    except UnicodeDecodeError as e:
        reason = f"not UTF-8 text ({e.reason} at byte {e.start})"
    raise Diagnostic(f"cannot read {path}: {reason}")


def cmd_check(result: ElabResult, args: Namespace | SimpleNamespace) -> Output:
    names = result.sig.names
    rows = [{"name": d.name, "type": co.pp(d.ty, names[:i])} for i, d in enumerate(result.decls)]
    if result.main is not None:
        ty = co.quote(result.store, result.sig.depth, result.main[1])
        rows.append({"name": "main", "type": co.pp(ty, names)})
    return EXIT_OK, {"checked": rows}, (f"ok {r['name']} : {r['type']}" for r in rows)


def cmd_elab(result: ElabResult, args: Namespace | SimpleNamespace) -> Output:
    payload: dict = {
        "decls": [{"name": d.name, "type": d.ty, "body": d.body} for d in result.decls]
    }
    if result.main is not None:
        payload["main"] = result.main[0]

    def text() -> Iterator[str]:
        names = result.sig.names
        for i, d in enumerate(result.decls):
            yield f"let {d.name} : {co.pp(d.ty, names[:i])}"
            yield f"  = {co.pp(d.body, names[:i])}"
        if result.main is not None:
            yield f"main = {co.pp(result.main[0], names)}"

    return EXIT_OK, payload, text()


def cmd_nf(result: ElabResult, args: Namespace | SimpleNamespace) -> Output:
    nf = co.normal_form(result.store, (), closed_definition(result, args.name))
    return EXIT_OK, {"nf": nf}, map(co.pp, [nf])


def cmd_extract(result: ElabResult, args: Namespace | SimpleNamespace) -> Output:
    closed = closed_main(result) if args.main else closed_definition(result, args.name)
    target = ex.extract(co.Context(), closed)
    return EXIT_OK, {"target": target}, map(ex.pp_target, [target])


def cmd_run(result: ElabResult, args: Namespace | SimpleNamespace) -> Output:
    target = ex.extract(co.Context(), closed_main(result))
    fuel, source = args.fuel, "--fuel"
    if fuel is None:
        raw, source = os.environ.get("TT0_FUEL", str(ex.DEFAULT_FUEL)), "TT0_FUEL"
        try:
            fuel = int(raw)
        except ValueError:
            raise _UsageError(f"invalid TT0_FUEL value {raw!r}") from None
    if fuel < 0:
        raise _UsageError(f"{source} cannot be negative: {fuel}")
    nf = ex.eval_target(target, fuel or None)  # 0 is unbounded; may not terminate
    k = ex.as_numeral(nf)
    if k is None:
        return EXIT_OK, {"result": nf}, map(ex.pp_target, [nf])
    return EXIT_OK, {"result": nf, "numeral": k}, chain(map(ex.pp_target, [nf]), [f"= {k}"])


def cmd_meta(result: ElabResult, args: Namespace | SimpleNamespace) -> Output:
    rows = translate.sweep(result)
    ok = all(r.zeroing_ok and r.stripping_ok for r in rows)
    decls = [{"name": r.name, "zeroing": r.zeroing_ok, "stripping": r.stripping_ok} for r in rows]
    width = max([len("decl"), *(len(r.name) for r in rows)])
    lines = [f"{'decl'.ljust(width)}  zeroing  stripping"]
    for r in rows:
        z = "ok" if r.zeroing_ok else "FAIL"
        s = "ok" if r.stripping_ok else "FAIL"
        lines.append(f"{r.name.ljust(width)}  {z.ljust(7)}  {s}")
    return EXIT_OK if ok else EXIT_DIAGNOSTICS, {"decls": decls, "ok": ok}, lines


_COMMANDS = {
    "check": cmd_check,
    "elab": cmd_elab,
    "nf": cmd_nf,
    "extract": cmd_extract,
    "run": cmd_run,
    "meta": cmd_meta,
}


def main(argv: list[str] | None = None) -> int:
    sys.setrecursionlimit(100_000)
    try:
        args = _read(sys.argv[1:] if argv is None else argv) or build_parser().parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    source = None
    try:
        source = _load(args.file)
        result = elaborate_text(source, args.file)
        if result.ok:
            code, payload, lines = _COMMANDS[args.command](result, args)
            if args.json:
                print(to_json({"version": JSON_VERSION, **payload}))
            else:
                for line in lines:
                    print(line)
            return code
        diags, code = result.errors, EXIT_DIAGNOSTICS
    except ex.FuelExhausted as e:
        diags, code = [e], EXIT_FUEL
    except Diagnostic as e:
        diags, code = [e], EXIT_DIAGNOSTICS
    except _UsageError as e:
        with suppress(BrokenPipeError):  # the reader closed stderr
            print(f"tt0: {e}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # The reader closed stdout (`tt0 run … | head`): end quietly, with
        # stdout on the null device so that the flush at exit cannot fail.
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
        return EXIT_OK
    except Exception as e:  # noqa: BLE001 - no traceback past the driver
        diags, code = [InternalError(f"{args.command}: {type(e).__name__}: {e}")], EXIT_DIAGNOSTICS
    with suppress(BrokenPipeError):  # the reader closed stderr
        _report(diags, source, args.json, not args.no_color and sys.stderr.isatty())
    return code


if __name__ == "__main__":
    sys.exit(main())
