"""Suppression-file handling for tools/analyze.

    <path-suffix> : <rule> : <substring>  # justification

Blank lines and lines starting with `#` are comments. Colons are split
only when whitespace-flanked, so substrings may contain C++ scope
operators (`dcas::kPayloadShift`). A suppression without a justification
is a configuration error. An entry applies to findings of exactly its
rule in a file whose repo-relative path ends with the path-suffix and
whose source line or message contains the substring; `*` as the
substring suppresses the rule for the whole file.
"""

from __future__ import annotations

import dataclasses
import re
from collections.abc import Callable, Iterable, Sequence


@dataclasses.dataclass
class Suppression:
    path_suffix: str
    rule: str
    substring: str
    justification: str
    source_line: int
    used: bool = False

    def matches(self, path: str, rule: str,
                haystacks: Sequence[str]) -> bool:
        return (path.endswith(self.path_suffix) and rule == self.rule
                and (self.substring == "*"
                     or any(self.substring in h for h in haystacks)))


def parse(text: str, origin: str, rule_ids: Iterable[str],
          on_error: Callable[[str], None]) -> list[Suppression]:
    """Parse a suppression file; `on_error` is called (and must not
    return normally) for format violations."""
    known = set(rule_ids)
    sups: list[Suppression] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        matcher, sep, justification = line.partition("#")
        justification = justification.strip()
        if not sep or not justification:
            on_error(f"{origin}:{lineno}: suppression lacks a justification "
                     "(append `# <one-line reason>`)")
        parts = [p.strip() for p in re.split(r"\s+:\s+", matcher.strip(),
                                             maxsplit=2)]
        if len(parts) != 3 or not all(parts):
            on_error(f"{origin}:{lineno}: expected `<path-suffix> : <rule> : "
                     f"<substring>  # <reason>`, got: {line}")
        path_suffix, rule, substring = parts
        if rule not in known:
            on_error(f"{origin}:{lineno}: unknown rule id '{rule}' "
                     f"(known: {', '.join(sorted(known))})")
        sups.append(Suppression(path_suffix, rule, substring, justification,
                                lineno))
    return sups


def apply(findings: list, sups: list[Suppression],
          fields: Callable[[object], tuple[str, str, Sequence[str]]]
          ) -> list:
    """Filter `findings`, marking matching suppressions used. `fields`
    maps a finding to (path, rule, substring-haystacks)."""
    remaining = []
    for f in findings:
        path, rule, haystacks = fields(f)
        hit = next((s for s in sups if s.matches(path, rule, haystacks)),
                   None)
        if hit is not None:
            hit.used = True
        else:
            remaining.append(f)
    return remaining
