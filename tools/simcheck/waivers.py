"""SIMCHECK-ALLOW waivers.

A finding is waived by a marker on its own line, or by a marker on
the line above when that line holds nothing but the comment (a
marker trailing code on the previous line belongs to THAT line, not
the next one — otherwise a waiver on one field would silently cover
its neighbor):

    // SIMCHECK-ALLOW(rule-name): reason the contract is satisfied

The rule name and the reason are both mandatory — a waiver without a
reason is itself a finding (`waiver-syntax`), and a waiver that no
longer suppresses anything is itself a finding (`unused-waiver`), so
waivers cannot rot.
"""

import re

ALLOW_RE = re.compile(
    r"SIMCHECK-ALLOW\((?P<rule>[\w-]+)\)\s*:\s*(?P<reason>\S.*)"
)
# Prose that merely mentions the marker name (docs, this file) is
# not a waiver attempt; only `SIMCHECK-ALLOW(` starts one.
ALLOW_ANY_RE = re.compile(r"SIMCHECK-ALLOW\(")

class Waiver:
    __slots__ = ("file", "line", "rule", "reason", "used")

    def __init__(self, file, line, rule, reason):
        self.file = file
        self.line = line
        self.rule = rule
        self.reason = reason
        self.used = False


class WaiverSet:
    """All waivers of one analysis run, indexed by (file, line)."""

    def __init__(self):
        self._by_loc = {}  # (file, line) -> [Waiver]
        self._syntax_errors = []  # (file, line, text)
        self._file_lines = {}  # file -> raw lines

    def scan_file(self, rel, lines):
        self._file_lines[rel] = lines
        for i, raw in enumerate(lines, 1):
            if not ALLOW_ANY_RE.search(raw):
                continue
            m = ALLOW_RE.search(raw)
            if not m:
                self._syntax_errors.append((rel, i, raw.strip()))
                continue
            w = Waiver(rel, i, m.group("rule"), m.group("reason"))
            self._by_loc.setdefault((rel, i), []).append(w)

    def lines(self, rel):
        return self._file_lines.get(rel, [])

    def _comment_only(self, rel, ln):
        lines = self._file_lines.get(rel, [])
        if not 1 <= ln <= len(lines):
            return False
        return lines[ln - 1].lstrip().startswith(("//", "/*", "*"))

    def suppresses(self, rel, line, rule):
        """True when a matching waiver sits on the finding's line, or
        on a comment-only line above it. Marks the waiver used."""
        candidates = [line]
        if self._comment_only(rel, line - 1):
            candidates.append(line - 1)
        for ln in candidates:
            for w in self._by_loc.get((rel, ln), ()):
                if w.rule == rule:
                    w.used = True
                    return True
        return False

    def syntax_findings(self):
        return list(self._syntax_errors)

    def unused(self):
        """SIMCHECK-ALLOW waivers that suppressed nothing this run."""
        out = []
        for ws in self._by_loc.values():
            for w in ws:
                if not w.used:
                    out.append(w)
        return sorted(out, key=lambda w: (w.file, w.line))
