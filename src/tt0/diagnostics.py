"""Source spans and the diagnostic exception hierarchy."""

from __future__ import annotations

from .record import Record


class SourceSpan(Record):
    """A half-open region of a source file, 1-based lines and columns."""

    file: str
    start_line: int
    start_col: int
    end_line: int
    end_col: int

    def merge(self, other: SourceSpan) -> SourceSpan:
        a = min((self.start_line, self.start_col), (other.start_line, other.start_col))
        b = max((self.end_line, self.end_col), (other.end_line, other.end_col))
        return SourceSpan(self.file, a[0], a[1], b[0], b[1])

    def __str__(self) -> str:
        return f"{self.file}:{self.start_line}:{self.start_col}"


# Columns of the source line shown on each side of the caret; the rest is
# cut and marked with "…", so a long line cannot flood the terminal.
EXCERPT_WIDTH = 60

# The tokenizer counts a tab or a carriage return as one column; the excerpt
# prints each as one space, so that the caret stays under its column.
_ONE_COLUMN = str.maketrans("\t\r", "  ")


class Diagnostic(Exception):
    """Base class for all user-facing errors produced by the pipeline."""

    kind = "error"

    def __init__(self, message: str, span: SourceSpan | None = None):
        super().__init__(message)
        self.message = message
        self.span = span

    def render(self, source: str | None = None) -> str:
        loc = f"{self.span}: " if self.span is not None else ""
        out = f"{loc}{self.kind}: {self.message}"
        if source is not None and self.span is not None:
            # Lines end at "\n" only, as the tokenizer counts them; a final
            # "\n" ends the last line and starts no new one.
            lines = source.split("\n")
            if not lines[-1]:
                lines.pop()
            if 1 <= self.span.start_line <= len(lines):
                line = lines[self.span.start_line - 1].removesuffix("\r")
                line = line.translate(_ONE_COLUMN)
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
            d.update(
                file=self.span.file,
                line=self.span.start_line,
                col=self.span.start_col,
            )
        return d


class LexError(Diagnostic):
    pass


class ParseError(Diagnostic):
    def __init__(
        self,
        message: str,
        span: SourceSpan | None = None,
        expected: tuple[str, ...] = (),
    ):
        if expected:
            message = f"{message} (expected {', '.join(expected)})"
        super().__init__(message, span)
        self.expected = expected


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
