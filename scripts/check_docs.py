#!/usr/bin/env python
"""Docs checker: markdown links, DESIGN.md section references, CI job lists.

CI's ``docs`` job runs this over every ``*.md`` and ``*.py`` file in the
repository and fails on:

* **broken intra-repo markdown links** — ``[text](target)`` in a markdown
  file whose target is a relative path that does not exist on disk
  (anchors are stripped; external ``http(s)``/``mailto`` targets and
  GitHub-relative idioms like the CI badge's ``../../actions/...``, which
  resolve outside the repository, are skipped);
* **stale DESIGN.md section references** — any ``DESIGN.md §N`` (or a
  ``§A–§B`` range) in markdown or Python whose section has no matching
  ``## §N`` heading in DESIGN.md, plus plain ``§N`` references *inside*
  DESIGN.md itself.  Dotted references (``§5.3``) and ``paper's §N`` are
  the source paper's sections, not DESIGN.md's, and are ignored;
* **CI job lists out of step with the workflow** — the jobs under ``jobs:``
  in ``.github/workflows/ci.yml`` are listed by hand twice more, in that
  file's header comment and in README's "What CI runs" bullets, each with
  a spelled-out count ("six required jobs").  Either list naming a job
  that does not exist, missing one that does, or stating another count
  fails (three consecutive PRs hand-edited all three).

Usage::

    python scripts/check_docs.py          # exit 1 on any problem

Nine PRs of growth have already produced one silent renumbering near-miss;
this keeps prose and code pointing at sections that still exist.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

#: directories never scanned (VCS internals, caches)
SKIP_DIRS = {".git", "__pycache__", ".pytest_cache", ".ruff_cache", ".claude"}

#: ``[text](target)`` — good enough for the repo's hand-written markdown
#: (no reference-style links in use); nested brackets are not needed.
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

#: cross-file reference: ``DESIGN.md §8`` or a range ``DESIGN.md §6–§7``
DESIGN_REF_RE = re.compile(r"DESIGN(?:\.md)?\s+§(\d+)(?:[–-]§?(\d+))?")

#: a plain in-document reference inside DESIGN.md: ``§8`` but not ``§5.3``
#: (dotted = the source paper's numbering) and not ``paper's §5``
SELF_REF_RE = re.compile(r"§(\d+)(?!\.\d)")
PAPER_REF_RE = re.compile(r"paper(?:'s|’s)?\s+§\d+")


def iter_files(suffixes):
    for path in sorted(REPO_ROOT.rglob("*")):
        if path.suffix not in suffixes or not path.is_file():
            continue
        if SKIP_DIRS.intersection(part for part in path.relative_to(REPO_ROOT).parts):
            continue
        yield path


def design_sections() -> set[int]:
    """Section numbers with an actual ``## §N`` heading in DESIGN.md."""
    text = (REPO_ROOT / "DESIGN.md").read_text()
    return {int(num) for num in re.findall(r"^## §(\d+)", text, flags=re.MULTILINE)}


def check_markdown_links() -> list[str]:
    problems = []
    for path in iter_files({".md"}):
        rel = path.relative_to(REPO_ROOT)
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            for target in LINK_RE.findall(line):
                if target.startswith(("http://", "https://", "mailto:", "#")):
                    continue
                resolved = (path.parent / target.split("#", 1)[0]).resolve()
                if not resolved.is_relative_to(REPO_ROOT):
                    continue  # GitHub-relative idiom (e.g. the CI badge)
                if not resolved.exists():
                    problems.append(
                        f"{rel}:{lineno}: broken link ({target})"
                    )
    return problems


def check_design_references() -> list[str]:
    sections = design_sections()
    if not sections:
        return ["DESIGN.md: no '## §N' headings found (checker misconfigured?)"]
    problems = []
    for path in iter_files({".md", ".py"}):
        rel = path.relative_to(REPO_ROOT)
        is_design = rel == Path("DESIGN.md")
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            referenced = []
            for match in DESIGN_REF_RE.finditer(line):
                first = int(match.group(1))
                last = int(match.group(2)) if match.group(2) else first
                referenced.extend(range(first, last + 1))
            if is_design:
                scrubbed = PAPER_REF_RE.sub("", DESIGN_REF_RE.sub("", line))
                referenced.extend(
                    int(num) for num in SELF_REF_RE.findall(scrubbed)
                )
            for number in referenced:
                if number not in sections:
                    problems.append(
                        f"{rel}:{lineno}: reference to DESIGN.md §{number}, "
                        f"which has no heading (sections: "
                        f"§{min(sections)}–§{max(sections)})"
                    )
    return problems


#: the spelled-out job counts the two hand-written lists may state
_COUNT_WORDS = {
    word: number
    for number, word in enumerate(
        "one two three four five six seven eight nine ten eleven twelve".split(), start=1
    )
}
COUNT_RE = re.compile(r"(\w+)\s+required\s+jobs")


def check_ci_job_lists() -> list[str]:
    """README's and the workflow header's job lists must match ``jobs:``."""
    workflow = (REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text()
    header, _, body = workflow.partition("\njobs:\n")
    jobs = re.findall(r"^  ([\w-]+):\s*$", body, flags=re.MULTILINE)
    if not jobs:
        return ["ci.yml: no jobs found under 'jobs:' (checker misconfigured?)"]
    readme = (REPO_ROOT / "README.md").read_text()
    section = re.search(r"^### What CI runs\n(.*?)(?=^#{1,6} )", readme, re.MULTILINE | re.DOTALL)
    lists = {
        "ci.yml header comment": (header, r"^#   ([\w-]+)\s"),
        'README.md "What CI runs"': (section.group(1) if section else "", r"^\* \*\*([\w-]+)\*\*"),
    }
    problems = []
    for where, (text, entry_re) in lists.items():
        named = re.findall(entry_re, text, flags=re.MULTILINE)
        for job in sorted(set(named) - set(jobs)):
            problems.append(f"{where}: names job '{job}', which ci.yml does not define")
        for job in sorted(set(jobs) - set(named)):
            problems.append(f"{where}: does not list job '{job}'")
        count = COUNT_RE.search(text)
        stated = _COUNT_WORDS.get(count.group(1).lower()) if count else None
        if stated != len(jobs):
            problems.append(
                f"{where}: states {count.group(1) if count else 'no'} required jobs, "
                f"ci.yml defines {len(jobs)}"
            )
    return problems


def main() -> int:
    problems = (
        check_markdown_links() + check_design_references() + check_ci_job_lists()
    )
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        print(f"\n{len(problems)} docs problem(s)", file=sys.stderr)
        return 1
    print(
        "docs check passed (links resolve, DESIGN.md §-references exist, "
        "CI job lists match the workflow)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
