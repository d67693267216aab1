#!/usr/bin/env python
"""Execute every fenced ``python`` block in the Markdown docs, and
validate every intra-repo Markdown link.

Documentation that shows code must show code that runs: this tool
extracts fenced blocks whose info string starts with ``python`` from
README.md and docs/*.md and executes them, per file, in one shared
namespace (so a block may use names an earlier block in the same file
defined -- the way a reader would type them into one REPL session).

Documentation that points somewhere must point at something: before
running any code, every ``[text](target)`` link in README.md,
ROADMAP.md, and docs/*.md is resolved.  Relative targets must name an
existing file or directory; ``#fragment`` anchors (bare or attached
to a ``.md`` target) must match a heading in the target file under
GitHub's slug rules.  External schemes (``http(s)``, ``mailto``) are
left alone -- this is a repo-integrity check, not a crawler.  A
broken link fails the run exactly like a failing example block.

Documentation that quotes a committed number must quote it right:
a Markdown table right below ``<!-- numbers: BENCH_x.json -->`` (in
EXPERIMENTS.md, README.md or docs/*.md) is checked cell by cell
against that JSON file.  Every number in such a table names its field
in a comment right after it -- ``72.7 <!-- metrics.a.b ms -->`` -- and
must equal the field's value rounded (half up) to the quoted
precision, in the quoted unit: an optional ``ms`` or ``%`` after the
field scales a JSON value in seconds or as a fraction.  A number
without a field, or one that does not match, fails the run.

Conventions:

* Blocks run with the repository's ``src/`` importable and the
  current directory set to a fresh temp dir, so examples may write
  files (checkpoints, event logs) without polluting the repo.
* A block whose info string contains ``no-run`` is skipped -- reserved
  for output transcripts and genuinely unrunnable sketches.  Use
  sparingly; every skip weakens the guarantee.
* Non-``python`` fences (bash, plain) are ignored.

Exit status 0 iff every block ran without raising.  On failure, the
offending file, block, and source line are reported with the
traceback.  Wired into ``make verify`` and the docs-check CI job.
"""

from __future__ import annotations

import json
import os
import re
import sys
import tempfile
import time
import traceback
from decimal import ROUND_HALF_UP, Decimal

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_FENCE = re.compile(
    r"^```(?P<info>[^\n]*)\n(?P<body>.*?)^```\s*$",
    re.MULTILINE | re.DOTALL,
)


def doc_files() -> list[str]:
    files = [os.path.join(REPO, "README.md")]
    docs = os.path.join(REPO, "docs")
    for name in sorted(os.listdir(docs)):
        if name.endswith(".md"):
            files.append(os.path.join(docs, name))
    return files


def link_checked_files() -> list[str]:
    return doc_files() + [os.path.join(REPO, "ROADMAP.md")]


# -- intra-repo link validation ----------------------------------------

#: ``[text](target)`` and ``![alt](target)``; title suffixes
#: (``(file.md "title")``) are split off the target below.
_LINK = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")

_EXTERNAL = re.compile(r"^[a-zA-Z][a-zA-Z0-9+.-]*:")


def _strip_fences(text: str) -> str:
    """Drop fenced code blocks -- bracketed indexing in code is not a
    Markdown link."""
    return _FENCE.sub("", text)


def _slugify(heading: str) -> str:
    """GitHub's anchor slug for a heading line (close enough: lower,
    strip punctuation except hyphens/underscores, spaces to hyphens)."""
    # Inline code/emphasis markers render away before slugging.
    text = re.sub(r"[`*_]", "", heading.strip()).lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def _anchors(path: str) -> set[str]:
    with open(path, encoding="utf-8") as f:
        text = _strip_fences(f.read())
    out = set()
    for line in text.splitlines():
        if line.startswith("#"):
            out.add(_slugify(line.lstrip("#")))
    return out


def check_links() -> int:
    """Validate every intra-repo link; returns the number broken."""
    broken = 0
    checked = 0
    for path in link_checked_files():
        rel = os.path.relpath(path, REPO)
        with open(path, encoding="utf-8") as f:
            text = _strip_fences(f.read())
        for m in _LINK.finditer(text):
            target = m.group(1)
            if _EXTERNAL.match(target):
                continue
            checked += 1
            line = text.count("\n", 0, m.start()) + 1
            dest, _, fragment = target.partition("#")
            if dest:
                dest_path = os.path.normpath(
                    os.path.join(os.path.dirname(path), dest)
                )
            else:
                dest_path = path  # same-file anchor
            if not os.path.exists(dest_path):
                broken += 1
                print(f"BROKEN {rel}:{line}: ({target}) -> no such file "
                      f"{os.path.relpath(dest_path, REPO)}")
                continue
            if fragment and dest_path.endswith(".md"):
                if fragment.lower() not in _anchors(dest_path):
                    broken += 1
                    print(f"BROKEN {rel}:{line}: ({target}) -> no heading "
                          f"#{fragment} in "
                          f"{os.path.relpath(dest_path, REPO)}")
    print(f"docs-check: {checked} intra-repo links checked, {broken} broken")
    return broken


# -- quoted numbers against committed results ---------------------------

_NUMBERS = re.compile(r"^<!--\s*numbers:\s*(\S+\.json)\s*-->[ \t]*$", re.MULTILINE)

#: ``<!-- dotted.field [ms|%] -->`` right after a quoted number.
_FIELD = re.compile(r"<!--\s*([\w.]+)(?:\s+(ms|%))?\s*-->")

_NUM = re.compile(r"[+\-\u2212]?\d[\d,]*(?:\.\d+)?")

_SCALE = {None: 1, "ms": 1000, "%": 100}


def _field_value(data: object, path: str) -> object:
    """The JSON value at a dotted path, or ``None`` if there is none."""
    for key in path.split("."):
        if not isinstance(data, dict) or key not in data:
            return None
        data = data[key]
    return data


def _check_quote(quoted: str, value: object, unit: str | None) -> bool:
    """Does ``value`` (JSON, in seconds / as a fraction for ``ms`` /
    ``%``) round to ``quoted`` at the quoted precision?"""
    want = Decimal(quoted.replace(",", "").replace("\u2212", "-"))
    got = Decimal(repr(value)) * _SCALE[unit]
    quantum = Decimal(1).scaleb(want.as_tuple().exponent)
    return got.quantize(quantum, rounding=ROUND_HALF_UP) == want


def check_numbers() -> int:
    """Check every ``numbers:`` table; returns the number of bad cells."""
    bad = tables = checked = 0
    for path in [os.path.join(REPO, "EXPERIMENTS.md")] + doc_files():
        rel = os.path.relpath(path, REPO)
        with open(path, encoding="utf-8") as f:
            text = f.read()
        for marker in _NUMBERS.finditer(text):
            tables += 1
            with open(os.path.join(REPO, marker.group(1)), encoding="utf-8") as f:
                data = json.load(f)
            # The table starts on the line after the marker.
            line_no = text.count("\n", 0, marker.end()) + 2
            rows = text[marker.end() + 1 :].splitlines()
            for i, row in enumerate(rows):
                if not row.startswith("|"):
                    break
                where = f"{rel}:{line_no + i}"
                for cell in row.strip("|").split("|"):
                    pos = 0
                    for m in _FIELD.finditer(cell):
                        quoted = cell[pos : m.start()]
                        nums = _NUM.findall(quoted)
                        field, unit = m.group(1), m.group(2)
                        value = _field_value(data, field)
                        checked += 1
                        if (
                            len(nums) != 1
                            or not isinstance(value, (int, float))
                            or not _check_quote(nums[0], value, unit)
                        ):
                            bad += 1
                            print(f"NUMBER {where}: quoted {quoted.strip()!r}"
                                  f" but {marker.group(1)} {field} = "
                                  f"{value!r}{' (' + unit + ')' if unit else ''}")
                        pos = m.end()
                    if i >= 2 and _NUM.search(cell[pos:]):
                        bad += 1
                        print(f"NUMBER {where}: {cell.strip()!r} quotes a "
                              "number that names no field")
    print(f"docs-check: {checked} quoted numbers in {tables} tables "
          f"checked, {bad} wrong")
    return bad


def python_blocks(text: str) -> list[tuple[int, str, str]]:
    """``(first_line_number, info_string, source)`` per fenced block."""
    blocks = []
    for m in _FENCE.finditer(text):
        info = m.group("info").strip()
        line = text.count("\n", 0, m.start()) + 2  # body starts after fence
        blocks.append((line, info, m.group("body")))
    return blocks


def run_file(path: str) -> tuple[int, int]:
    """Execute the file's python blocks; returns (run, failed)."""
    with open(path, encoding="utf-8") as f:
        text = f.read()
    rel = os.path.relpath(path, REPO)
    namespace: dict = {"__name__": f"docscheck:{rel}"}
    run = failed = 0
    for line, info, body in python_blocks(text):
        words = info.split()
        if not words or words[0] != "python":
            continue
        if "no-run" in words[1:]:
            print(f"  {rel}:{line}: skipped (no-run)")
            continue
        run += 1
        t0 = time.perf_counter()
        try:
            code = compile(body, f"{rel}:{line}", "exec")
            exec(code, namespace)  # noqa: S102 -- the point of the tool
        except Exception:
            failed += 1
            print(f"FAIL {rel}:{line}")
            print("  | " + body.rstrip().replace("\n", "\n  | "))
            traceback.print_exc()
        else:
            print(f"  {rel}:{line}: ok ({time.perf_counter() - t0:.1f}s)")
    return run, failed


def main() -> int:
    sys.path.insert(0, os.path.join(REPO, "src"))
    bad_links = check_links()  # before chdir: paths resolve repo-relative
    bad_numbers = check_numbers()
    total = bad = 0
    with tempfile.TemporaryDirectory(prefix="repro-docs-") as scratch:
        os.chdir(scratch)  # examples may write checkpoints/logs here
        for path in doc_files():
            run, failed = run_file(path)
            total += run
            bad += failed
    print(f"docs-check: {total} blocks run, {bad} failed")
    return 1 if bad or bad_links or bad_numbers else 0


if __name__ == "__main__":
    raise SystemExit(main())
