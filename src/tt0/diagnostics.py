"""Source spans and the diagnostic exception hierarchy."""

from __future__ import annotations

import re
from bisect import bisect_right
from functools import lru_cache

from .record import Record

# A region of a source as the offsets of its first character and of the end;
# only a diagnostic needs its lines and columns, which `Source.span` computes.
Span = tuple[int, int]


class SourceSpan(Record):
    """A region of a source file: the 1-based line and column of its first
    and of its last character."""

    file: str
    start_line: int
    start_col: int
    end_line: int
    end_col: int

    def __str__(self) -> str:
        return f"{self.file}:{self.start_line}:{self.start_col}"


@lru_cache(maxsize=1)
def line_starts(text: str) -> list[int]:
    """The offset at which each line of `text` starts.  Lines end at a
    newline only.  The table of the last text asked for is kept."""
    return [0, *(m.end() for m in re.finditer("\n", text))]


class Source:
    """A source text under its file name, which turns offsets into lines
    and columns.  A tab or a carriage return is one column."""

    def __init__(self, text: str, file: str = "<input>"):
        self.text = text
        self.file = file

    def position(self, offset: int) -> tuple[int, int]:
        starts = line_starts(self.text)
        line = bisect_right(starts, offset)
        return line, offset - starts[line - 1] + 1

    def span(self, start: int, end: int) -> SourceSpan:
        """The lines and columns of the offsets `start` up to `end`."""
        return SourceSpan(self.file, *self.position(start), *self.position(max(start, end - 1)))

    def line(self, n: int) -> str | None:
        """Line `n` without its newline, or None if there is no such line; a
        final newline ends the last line and starts no new one."""
        starts = line_starts(self.text)
        if not 1 <= n <= len(starts) or starts[n - 1] == len(self.text):
            return None
        return self.text[starts[n - 1] : starts[n] - 1 if n < len(starts) else None]


# Columns of the source line shown on each side of the caret; the rest is
# cut and marked with "…", so a long line cannot flood the terminal.
EXCERPT_WIDTH = 60

# The tokenizer counts a tab or a carriage return as one column; the excerpt
# prints each as one space, so that the caret stays under its column.
_ONE_COLUMN = str.maketrans("\t\r", "  ")


class Diagnostic(Exception):
    """Base class for all user-facing errors produced by the pipeline.

    Inside the elaborator a diagnostic is raised with the offset `Span` of
    its node; `elaborate_module` turns it into a `SourceSpan`."""

    kind = "error"

    def __init__(self, message: str, span: SourceSpan | None = None):
        super().__init__(message)
        self.message = message
        self.span = span

    def render(self, source: str | None = None) -> str:
        loc = f"{self.span}: " if self.span is not None else ""
        out = f"{loc}{self.kind}: {self.message}"
        line = Source(source).line(self.span.start_line) if source and self.span else None
        if line is not None:
            line = line.removesuffix("\r").translate(_ONE_COLUMN)
            col = self.span.start_col - 1
            lo = max(0, col - EXCERPT_WIDTH)
            cut = "…" if lo else ""
            excerpt = cut + line[lo : col + EXCERPT_WIDTH]
            excerpt += "…" if col + EXCERPT_WIDTH < len(line) else ""
            caret = " " * (len(cut) + col - lo) + "^"
            out += f"\n  {excerpt}\n  {caret}"
        return out

    def to_json(self) -> dict:
        d: dict = {"severity": self.kind, "message": self.message}
        if self.span is not None:
            d.update(file=self.span.file, line=self.span.start_line, col=self.span.start_col)
        return d


class LexError(Diagnostic):
    pass


class ParseError(Diagnostic):
    pass


class ElabError(Diagnostic):
    pass


class KernelError(Diagnostic):
    """Rejection by the kernel typechecker."""


class UnifyError(Diagnostic):
    """Failure of the pattern unifier.

    `reason` is one of: mismatch, spine, non-pattern, non-linear, occurs,
    scope, mode.
    """

    def __init__(self, reason: str, message: str, span: SourceSpan | None = None):
        super().__init__(message, span)
        self.reason = reason


class InternalError(Diagnostic):
    """Violation of an invariant the pipeline is supposed to maintain.

    Raising this on well-formed input is a bug, never a user error.
    """

    kind = "internal error"
