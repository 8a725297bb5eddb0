#!/usr/bin/env python3
"""Doc-comment gate for the public headers (the CI docs job runs this).

Doxygen-equivalent check that needs no toolchain beyond python3: every
public symbol in the audited headers must carry a `//` doc comment.
Enforced rules, per header file:

  R1  The file starts with a `//` comment block (file-level doc).
  R2  Every blank-line-separated group of namespace-scope declarations
      — class/struct/enum/using alias/free function/constant — has a
      `//` comment immediately above its first line (a template<> line
      may sit between the comment and the declaration).
  R3  The same grouping rule inside the public section of a class (or
      anywhere in a struct, public-by-default). Grouping matches the
      repo's comment style: one comment may cover a tight block of
      related members, but an undocumented group is an error.

Usage: scripts/check_doc_comments.py [DIR ...]
Default audit set: src/sim src/core src/net src/sweep src/graph src/obs
src/trace src/policy src/cpu.
Exit status 0 when every header passes, 1 otherwise (one line per
violation: file:line: symbol).
"""

import os
import re
import sys

DEFAULT_DIRS = ["src/sim", "src/core", "src/net", "src/sweep", "src/graph",
                "src/obs", "src/trace", "src/policy", "src/cpu"]

# Namespace-scope lines that are structure, not symbols to document.
SKIP_RE = re.compile(
    r"^(#|namespace\b|using namespace\b|extern\b|\}|\{|\)|template\b|"
    r"BENCHMARK|TEST|$)"
)
DECL_RE = re.compile(r"^[A-Za-z_~]")


def strip_inline_comment(line: str) -> str:
    pos = line.find("//")
    return line if pos < 0 else line[:pos]


def net_braces(line: str) -> int:
    code = strip_inline_comment(line)
    return code.count("{") - code.count("}")


def symbol_name(line: str) -> str:
    """Best-effort symbol name for the error message."""
    m = re.search(r"\b(class|struct|enum(?:\s+class)?|using)\s+([A-Za-z_]\w*)", line)
    if m:
        return m.group(2)
    m = re.search(r"([A-Za-z_~]\w*)\s*\(", line)
    if m:
        return m.group(1)
    return line.strip().rstrip("{;").strip()[:40]


def check_header(path: str) -> list:
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    errors = []

    # R1: file-level doc comment on line 1.
    if not lines or not lines[0].lstrip().startswith("//"):
        errors.append((1, "<file-level doc comment missing>"))

    # Section stack entry: {"public": bool, "depth": brace depth inside}.
    sections = []
    depth = 0
    prev_comment = False   # previous significant line was a // comment
    prev_blank = True      # previous line was blank (group boundary)
    pending_template = False
    parens = 0             # running ( ) balance across declaration lines
    cont = False           # inside a multi-line declaration continuation

    for i, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        code = strip_inline_comment(raw)

        if not stripped:
            prev_blank = True
            continue
        if stripped.startswith("//"):
            prev_comment = True
            prev_blank = False
            continue

        in_body = bool(sections) and depth > sections[-1]["depth"]
        at_ns_scope = not sections and depth <= 1  # inside the namespace

        # Access specifiers flip the documentation requirement.
        if re.match(r"^(public|protected|private)\s*:", stripped):
            if sections:
                sections[-1]["public"] = stripped.startswith("public")
            prev_comment = False
            prev_blank = True  # a new group starts after the specifier
            continue

        if stripped.startswith("template"):
            # template<...> rides between the doc comment and the decl.
            pending_template = prev_comment
            prev_comment = False
            prev_blank = False
            depth += net_braces(raw)
            continue

        forward_decl = re.match(r"^(class|struct)\s+[A-Za-z_]\w*\s*;", stripped)
        must_document = False
        if (
            not in_body
            and not cont
            and not forward_decl
            and DECL_RE.match(stripped)
            and not SKIP_RE.match(stripped)
        ):
            if at_ns_scope:
                must_document = prev_blank  # R2: first decl of each group
            elif sections and sections[-1]["public"] and depth == sections[-1]["depth"]:
                must_document = prev_blank  # R3: first decl of each group
        if must_document and not (prev_comment or pending_template):
            errors.append((i, symbol_name(stripped)))

        # A declaration continues onto the next line while its parens are
        # unbalanced or it ends without ; { or } (e.g. a long signature).
        parens += code.count("(") - code.count(")")
        tail = code.rstrip()
        cont = parens > 0 or (
            bool(tail) and tail[-1] not in ";{}" and not stripped.startswith("#")
        )

        opens_type = re.match(r"^(class|struct)\s+[A-Za-z_]\w*", stripped) and not (
            code.rstrip().endswith(";") and "{" not in code
        )

        if opens_type and ("{" in code):
            # struct = public by default, class = private until public:.
            sections.append(
                {"public": stripped.startswith("struct"), "depth": depth + 1}
            )
        depth += net_braces(raw)
        while sections and depth < sections[-1]["depth"]:
            sections.pop()

        prev_comment = False
        prev_blank = False
        pending_template = False

    return errors


def main() -> int:
    dirs = sys.argv[1:] or DEFAULT_DIRS
    failed = 0
    checked = 0
    for d in dirs:
        if not os.path.isdir(d):
            print(f"error: {d} is not a directory (run from the repo root)")
            return 1
        for name in sorted(os.listdir(d)):
            if not name.endswith(".h"):
                continue
            path = os.path.join(d, name)
            checked += 1
            for line, sym in check_header(path):
                print(f"{path}:{line}: undocumented public symbol: {sym}")
                failed += 1
    if failed:
        print(f"\n{failed} undocumented public symbol(s) across {checked} headers")
        return 1
    print(f"ok: {checked} headers, every public symbol documented")
    return 0


if __name__ == "__main__":
    sys.exit(main())
