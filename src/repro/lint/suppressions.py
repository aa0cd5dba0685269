"""Per-rule suppression comments: ``# repro-lint: disable=R003``.

Two forms are recognized, mirroring ``noqa``-style linters:

* **line suppression** — ``# repro-lint: disable=R003`` (or
  ``disable=R003,R004`` or ``disable=all``) suppresses matching
  diagnostics anchored on the comment's physical line.  A comment that
  stands alone on its line suppresses the *next* line instead, so
  multi-line statements can be annotated above rather than squeezed onto
  their first line.
* **file suppression** — ``# repro-lint: disable-file=R003`` anywhere in
  the file suppresses the rule for the whole file.

Suppressions are parsed with :mod:`tokenize` (never by substring search
inside string literals) and counted, so reports can state how many
findings were muted.
"""

from __future__ import annotations

import io
import re
import tokenize
from typing import Dict, Set

_PRAGMA = re.compile(
    r"#\s*repro-lint:\s*(?P<kind>disable-file|disable)\s*=\s*"
    r"(?P<rules>[A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*)"
)


class SuppressionIndex:
    """Suppression pragmas of one source file, queryable per line."""

    def __init__(self, source: str):
        self.by_line: Dict[int, Set[str]] = {}
        self.file_level: Set[str] = set()
        try:
            tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
        except (tokenize.TokenError, IndentationError, SyntaxError):
            return  # unparseable files carry their own diagnostic
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _PRAGMA.search(token.string)
            if match is None:
                continue
            rules = {part.strip() for part in match.group("rules").split(",")}
            if match.group("kind") == "disable-file":
                self.file_level |= rules
                continue
            line = token.start[0]
            # A standalone comment (nothing but whitespace before it)
            # targets the following line.
            standalone = token.line[: token.start[1]].strip() == ""
            target = line + 1 if standalone else line
            self.by_line.setdefault(target, set()).update(rules)

    def is_suppressed(self, rule: str, line: int) -> bool:
        """True iff ``rule`` is muted at ``line``."""
        if "all" in self.file_level or rule in self.file_level:
            return True
        muted = self.by_line.get(line)
        return muted is not None and ("all" in muted or rule in muted)

    @property
    def empty(self) -> bool:
        return not self.by_line and not self.file_level
