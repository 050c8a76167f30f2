#!/usr/bin/env python3
"""Markdown link checker: fail the build when docs rot.

Validates, in README.md and docs/*.md:

1. Relative markdown links ``[text](path)`` — the target file or
   directory must exist (``#anchor`` suffixes are stripped; absolute
   URLs and ``mailto:`` are skipped).
2. Code references in inline code spans that look like repo paths,
   e.g. ``src/scenario/request.hpp`` or ``src/util/json.cpp:42`` — the
   path must exist, and when a ``:line`` is given it must not exceed the
   file's line count. Only spans rooted at a known top-level directory
   are checked, so shell examples like ``build/apps/thermosched`` (build
   outputs) are ignored.
3. Qualified C++ names in inline code spans, e.g.
   ``thermal::ThermalAnalyzer::simulate_session`` or
   ``Floorplan::adjacencies()`` — the last component (without ``()``
   or ``~``) must occur as a word in some file under src, apps, bench,
   examples or tests, so a doc that names a deleted symbol fails.

Stdlib only (CI runs it with a bare python3). Exit 0 = clean, 1 = rot.
"""
from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# Directories a checked code span may be rooted at. build/ is absent on
# purpose: generated binaries do not exist in a fresh checkout.
CODE_ROOTS = ("src", "docs", "examples", "tests", "bench", "apps", "cmake",
              "tools")

# Directories whose files a qualified-name span must resolve in.
SYMBOL_ROOTS = ("src", "apps", "bench", "examples", "tests")

MD_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
CODE_SPAN = re.compile(r"`([^`\n]+)`")
CODE_PATH = re.compile(
    r"^(?:" + "|".join(CODE_ROOTS) + r")(?:/[A-Za-z0-9_.-]+)*"
    r"(?::(\d+))?$")
QUALIFIED_NAME = re.compile(r"^[A-Za-z_]\w*(?:::~?[A-Za-z_]\w*)+(?:\(\))?$")


def checked_files() -> list[Path]:
    files = [REPO / "README.md"]
    files.extend(sorted((REPO / "docs").glob("*.md")))
    return [f for f in files if f.exists()]


def check_md_links(path: Path, text: str, errors: list[str]) -> None:
    for match in MD_LINK.finditer(text):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        relative = target.split("#", 1)[0]
        if not relative:
            continue
        resolved = (path.parent / relative).resolve()
        if not resolved.exists():
            errors.append(f"{path.relative_to(REPO)}: broken link "
                          f"[...]({target}) -> {relative}")


def check_code_refs(path: Path, text: str, errors: list[str]) -> None:
    for match in CODE_SPAN.finditer(text):
        span = match.group(1)
        ref = CODE_PATH.match(span)
        if not ref:
            continue
        file_part = span.split(":", 1)[0]
        resolved = REPO / file_part
        if not resolved.exists():
            errors.append(f"{path.relative_to(REPO)}: code reference "
                          f"`{span}` -> {file_part} does not exist")
            continue
        if ref.group(1) is not None:
            if not resolved.is_file():
                errors.append(f"{path.relative_to(REPO)}: code reference "
                              f"`{span}` gives a line number on a directory")
                continue
            line = int(ref.group(1))
            count = len(resolved.read_text(encoding="utf-8",
                                           errors="replace").splitlines())
            if line < 1 or line > count:
                errors.append(f"{path.relative_to(REPO)}: code reference "
                              f"`{span}` points past the end of {file_part} "
                              f"({count} lines)")


def code_words() -> set[str]:
    words: set[str] = set()
    for root in SYMBOL_ROOTS:
        for source in (REPO / root).rglob("*"):
            if source.is_file():
                words.update(re.findall(r"\w+", source.read_text(
                    encoding="utf-8", errors="replace")))
    return words


def check_qualified_names(path: Path, text: str, words: set[str],
                          errors: list[str]) -> None:
    for match in CODE_SPAN.finditer(text):
        span = match.group(1)
        if not QUALIFIED_NAME.match(span):
            continue
        name = span.removesuffix("()").rsplit("::", 1)[1].lstrip("~")
        if name not in words:
            errors.append(f"{path.relative_to(REPO)}: code reference "
                          f"`{span}` names {name}, which no file under "
                          f"{', '.join(SYMBOL_ROOTS)} contains")


def main() -> int:
    errors: list[str] = []
    files = checked_files()
    words = code_words()
    for path in files:
        # Fenced code blocks are example input/output, not prose with
        # references — drop them before scanning.
        text = re.sub(r"```.*?```", "", path.read_text(encoding="utf-8"),
                      flags=re.DOTALL)
        check_md_links(path, text, errors)
        check_code_refs(path, text, errors)
        check_qualified_names(path, text, words, errors)
    if errors:
        print(f"check_links: {len(errors)} broken reference(s):")
        for error in errors:
            print(f"  {error}")
        return 1
    print(f"check_links: OK ({len(files)} files checked)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
