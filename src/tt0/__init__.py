"""tt0: a small compiler for a dependently typed language with erasure.

Surface programs annotate binders with a mode, erased (0) or runtime
(omega).  Elaboration produces a mode-annotated core calculus that an
independent kernel re-checks, and runtime definitions extract to untyped
lambda terms in which every erased binder, argument, type and motive is
gone.
"""

from .diagnostics import Diagnostic, SourceSpan
from .elab import ElabResult, elaborate_module, elaborate_text
from .surface import Icit, Mode, Module, parse_module_text, tokenize

__version__ = "0.1.0"

__all__ = [
    "Diagnostic",
    "ElabResult",
    "Icit",
    "Mode",
    "Module",
    "SourceSpan",
    "__version__",
    "elaborate_module",
    "elaborate_text",
    "parse_module_text",
    "tokenize",
]
