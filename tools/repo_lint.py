#!/usr/bin/env python3
"""Source-tree policy gate, run by CI next to the unit tests.

Checks enforced:

 1. No raw ``getenv(`` in production code (src/, tools/) outside
    src/common/env.cc -- every environment read must go through the
    typed trb::env accessors so the knob registry stays authoritative.
    (tests/ may use getenv for save/restore guards.)

 2. Every TRB_* variable registered in src/common/env.cc is documented
    in docs/env-vars.md, and every TRB_* knob named in that table is
    registered -- the table and the registry may never drift apart.

 3. Every backticked repository path in README.md, DESIGN.md,
    EXPERIMENTS.md and docs/*.md names a file or directory that exists
    (a glob must match one).  A bare tools/X, bench/X or examples/X
    names a binary and resolves to its source file.  Fenced code blocks
    are skipped: they hold commands and output, not citations.

Exit status: 0 clean, 1 violations (each printed as file:line: message).
"""

import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
ENV_CC = ROOT / "src" / "common" / "env.cc"
ENV_DOC = ROOT / "docs" / "env-vars.md"
DOC_PAGES = ("README.md", "DESIGN.md", "EXPERIMENTS.md", "docs/*.md")
# A backticked token is a repository path when it starts with one of
# these directories.
SOURCE_DIRS = ("src", "tools", "bench", "examples", "tests", "docs",
               "perfbench", "perf", ".github")
BINARY_DIRS = ("tools", "bench", "examples")
SOURCE_SUFFIXES = (".cc", ".cpp", ".py")

errors = []


def check_raw_getenv():
    pattern = re.compile(r"\bgetenv\s*\(")
    for top in ("src", "tools"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.suffix not in (".cc", ".hh"):
                continue
            if path == ENV_CC:
                continue
            for lineno, line in enumerate(
                    path.read_text().splitlines(), start=1):
                if pattern.search(line):
                    rel = path.relative_to(ROOT)
                    errors.append(
                        f"{rel}:{lineno}: raw getenv() outside "
                        f"src/common/env.cc -- use the trb::env accessors")


def check_env_docs():
    registered = set(re.findall(r'\{"(TRB_[A-Z0-9_]+)"', ENV_CC.read_text()))
    if not registered:
        errors.append(f"{ENV_CC.relative_to(ROOT)}: no registered "
                      f"TRB_* variables found (registry parse failure?)")
        return
    doc_text = ENV_DOC.read_text()
    documented = set(re.findall(r"`(TRB_[A-Z0-9_]+)`", doc_text))
    for name in sorted(registered - documented):
        errors.append(f"{ENV_DOC.relative_to(ROOT)}: registered variable "
                      f"{name} is not documented")
    for name in sorted(documented - registered):
        errors.append(f"{ENV_DOC.relative_to(ROOT)}: documents {name}, "
                      f"which is not in the src/common/env.cc registry")


def doc_path_exists(token):
    if "*" in token:
        return any(ROOT.glob(token))
    if (ROOT / token).exists():
        return True
    return token.split("/")[0] in BINARY_DIRS and any(
        (ROOT / (token + suffix)).exists() for suffix in SOURCE_SUFFIXES)


def check_doc_paths():
    span = re.compile(r"`([^`\s]+)`")
    pages = sorted({p for pattern in DOC_PAGES for p in ROOT.glob(pattern)})
    for page in pages:
        in_fence = False
        for lineno, line in enumerate(
                page.read_text(encoding="utf-8").splitlines(), start=1):
            if line.lstrip().startswith("```"):
                in_fence = not in_fence
                continue
            if in_fence:
                continue
            for token in span.findall(line):
                if ("/" in token and token.split("/")[0] in SOURCE_DIRS
                        and not doc_path_exists(token)):
                    errors.append(f"{page.relative_to(ROOT)}:{lineno}: "
                                  f"`{token}` names no file in the "
                                  f"repository")


def main():
    check_raw_getenv()
    check_env_docs()
    check_doc_paths()
    for err in errors:
        print(err)
    if errors:
        print(f"repo_lint: {len(errors)} violation(s)")
        return 1
    print("repo_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
