"""Command line driver: check, elaborate, normalise, extract, run and
verify the mode translations over `.tt0` files."""

from __future__ import annotations

import argparse
import os
import sys

from . import core as co
from . import extract as ex
from . import translate
from .diagnostics import Diagnostic, InternalError
from .elab import ElabResult, closed_definition, closed_main, elaborate_text
from .jsontext import to_json

JSON_VERSION = 1

EXIT_OK = 0
EXIT_DIAGNOSTICS = 1
EXIT_USAGE = 2
EXIT_FUEL = 3


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="tt0", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("file", help="input .tt0 file")
        sp.add_argument("--json", action="store_true", help="machine-readable output")
        sp.add_argument("--no-color", action="store_true", help="plain diagnostics")

    sp = sub.add_parser("check", help="elaborate and re-check every declaration")
    common(sp)

    sp = sub.add_parser("elab", help="print the elaborated core terms")
    common(sp)

    sp = sub.add_parser("nf", help="print the normal form of a definition")
    common(sp)
    sp.add_argument("--def", dest="name", required=True, metavar="NAME")

    sp = sub.add_parser("extract", help="print the extracted runtime program")
    common(sp)
    g = sp.add_mutually_exclusive_group(required=True)
    g.add_argument("--def", dest="name", metavar="NAME")
    g.add_argument("--main", action="store_true")

    sp = sub.add_parser("run", help="extract main, evaluate it, print the result")
    common(sp)
    sp.add_argument("--fuel", type=int, default=None, metavar="N")

    sp = sub.add_parser("meta", help="re-check the zeroed and mode-stripped module")
    common(sp)

    return p


_PARSER = build_parser()


class _Reporter:
    def __init__(self, source: str | None, use_json: bool, color: bool):
        self.source = source
        self.use_json = use_json
        self.color = color

    def emit(self, diags: list[Diagnostic]) -> None:
        if self.use_json:
            payload = {
                "version": JSON_VERSION,
                "diagnostics": [d.to_json() for d in diags],
            }
            print(to_json(payload), file=sys.stderr)
            return
        for d in diags:
            text = d.render(self.source)
            if self.color:
                text = text.replace("error:", "\x1b[31merror:\x1b[0m", 1)
            print(text, file=sys.stderr)


def _load(path: str) -> str:
    """The text of a source file, line breaks as they are, so that the
    tokenizer sees what the library sees; an unreadable or non-UTF-8 file
    is a diagnostic."""
    try:
        with open(path, encoding="utf-8", newline="") as f:
            return f.read()
    except OSError as e:
        reason = e.strerror
    except UnicodeDecodeError as e:
        reason = f"not UTF-8 text ({e.reason} at byte {e.start})"
    raise Diagnostic(f"cannot read {path}: {reason}")


def cmd_check(result: ElabResult, args: argparse.Namespace) -> int:
    rows = []
    for i, d in enumerate(result.decls):
        ty = co.pp(d.ty, result.sig.names[:i])
        rows.append({"name": d.name, "type": ty})
        if not args.json:
            print(f"ok {d.name} : {ty}")
    if result.main is not None:
        ty_t = co.quote(result.store, result.sig.depth, result.main[1])
        ty = co.pp(ty_t, result.sig.names)
        rows.append({"name": "main", "type": ty})
        if not args.json:
            print(f"ok main : {ty}")
    if args.json:
        print(to_json({"version": JSON_VERSION, "checked": rows}))
    return EXIT_OK


def cmd_elab(result: ElabResult, args: argparse.Namespace) -> int:
    if args.json:
        decls = [{"name": d.name, "type": d.ty, "body": d.body} for d in result.decls]
        payload: dict = {"version": JSON_VERSION, "decls": decls}
        if result.main is not None:
            payload["main"] = result.main[0]
        print(to_json(payload))
        return EXIT_OK
    for i, d in enumerate(result.decls):
        names = result.sig.names[:i]
        print(f"let {d.name} : {co.pp(d.ty, names)}")
        print(f"  = {co.pp(d.body, names)}")
    if result.main is not None:
        print(f"main = {co.pp(result.main[0], result.sig.names)}")
    return EXIT_OK


def _named_closed(result: ElabResult, name: str) -> co.Term:
    try:
        return closed_definition(result, name)
    except KeyError:
        raise Diagnostic(f"no declaration named {name!r}") from None


def cmd_nf(result: ElabResult, args: argparse.Namespace) -> int:
    closed = _named_closed(result, args.name)
    nf = co.normal_form(result.store, (), closed)
    if args.json:
        print(to_json({"version": JSON_VERSION, "nf": nf}))
    else:
        print(co.pp(nf))
    return EXIT_OK


def cmd_extract(result: ElabResult, args: argparse.Namespace) -> int:
    if args.main:
        if result.main is None:
            raise Diagnostic("module has no main expression")
        closed = closed_main(result)
    else:
        closed = _named_closed(result, args.name)
    target = ex.extract(co.Context(), closed)
    if args.json:
        print(to_json({"version": JSON_VERSION, "target": target}))
    else:
        print(ex.pp_target(target))
    return EXIT_OK


def cmd_run(result: ElabResult, args: argparse.Namespace) -> int:
    if result.main is None:
        raise Diagnostic("module has no main expression")
    closed = closed_main(result)
    target = ex.extract(co.Context(), closed)
    fuel: int | None
    if args.fuel is not None:
        fuel = args.fuel
    else:
        raw = os.environ.get("TT0_FUEL", str(ex.DEFAULT_FUEL))
        try:
            fuel = int(raw)
        except ValueError:
            print(f"tt0: invalid TT0_FUEL value {raw!r}", file=sys.stderr)
            return EXIT_USAGE
    if fuel == 0:
        fuel = None  # unbounded; may not terminate
    try:
        nf = ex.eval_target(target, fuel)
    except ex.FuelExhausted as e:
        _Reporter(None, args.json, False).emit([e])
        return EXIT_FUEL
    k = ex.as_numeral(nf)
    if args.json:
        payload = {"version": JSON_VERSION, "result": nf}
        if k is not None:
            payload["numeral"] = k
        print(to_json(payload))
    else:
        print(ex.pp_target(nf))
        if k is not None:
            print(f"= {k}")
    return EXIT_OK


def cmd_meta(result: ElabResult, args: argparse.Namespace) -> int:
    rows = translate.sweep(result)
    ok = all(r.zeroing_ok and r.stripping_ok for r in rows)
    if args.json:
        payload = {
            "version": JSON_VERSION,
            "decls": [
                {
                    "name": r.name,
                    "zeroing": r.zeroing_ok,
                    "stripping": r.stripping_ok,
                }
                for r in rows
            ],
            "ok": ok,
        }
        print(to_json(payload))
        return EXIT_OK if ok else EXIT_DIAGNOSTICS
    width = max((len(r.name) for r in rows), default=4)
    print(f"{'decl'.ljust(width)}  zeroing  stripping")
    for r in rows:
        z = "ok" if r.zeroing_ok else "FAIL"
        s = "ok" if r.stripping_ok else "FAIL"
        print(f"{r.name.ljust(width)}  {z.ljust(7)}  {s}")
    return EXIT_OK if ok else EXIT_DIAGNOSTICS


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
        args = _PARSER.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    rep = _Reporter(None, args.json, not args.no_color and sys.stderr.isatty())
    try:
        rep.source = _load(args.file)
        result = elaborate_text(rep.source, args.file)
        if not result.ok:
            rep.emit(result.errors)
            return EXIT_DIAGNOSTICS
        return _COMMANDS[args.command](result, args)
    except Diagnostic as e:
        rep.emit([e])
        return EXIT_DIAGNOSTICS
    except BrokenPipeError:
        # The reader closed stdout (`tt0 run … | head`): end quietly, with
        # stdout on the null device so that the flush at exit cannot fail.
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
        return EXIT_OK
    except Exception as e:  # noqa: BLE001 - no traceback past the driver
        rep.emit([InternalError(f"{args.command}: {type(e).__name__}: {e}")])
        return EXIT_DIAGNOSTICS


if __name__ == "__main__":
    sys.exit(main())
