#!/usr/bin/env python3
"""Non-test code lines of the served stack, per file and in total.

Counts every ``*.rs`` file under ``crates/core/src``, ``crates/obs/src``
and ``crates/server/src`` (subdirectories included) by one rule:

* a line counts when it is not blank and, stripped of leading
  whitespace, does not start with ``//`` (so ``///`` and ``//!`` docs
  are left out too);
* lines inside a ``#[cfg(test)]`` module block do not count: from the
  attribute through the ``}`` that closes the ``mod name {`` line at
  the same indentation (rustfmt's layout).

Usage:
    python3 scripts/loc.py [--root DIR]
    python3 scripts/loc.py --self-test

It prints one line per file, then the total. It is a report, not a
gate: it exits 0 whatever the counts read.
"""

import argparse
import os
import re
import sys

CRATES = ("core", "obs", "server")
MOD_OPEN = re.compile(r"^(\s*)(pub(\([^)]*\))?\s+)?mod\s+\w+\s*\{\s*$")


def count_lines(text):
    """Non-test code lines of one Rust source text."""
    lines = text.splitlines()
    n = 0
    k = 0
    while k < len(lines):
        stripped = lines[k].strip()
        if stripped == "#[cfg(test)]":
            # Skip further attributes to the item the cfg applies to.
            j = k + 1
            while j < len(lines) and lines[j].strip().startswith("#["):
                j += 1
            m = MOD_OPEN.match(lines[j]) if j < len(lines) else None
            if m:
                close = m.group(1) + "}"
                j += 1
                while j < len(lines) and lines[j].rstrip() != close:
                    j += 1
                k = j + 1
                continue
        if stripped and not stripped.startswith("//"):
            n += 1
        k += 1
    return n


def table(root):
    """(path relative to root, count) for every counted file, sorted."""
    rows = []
    for crate in CRATES:
        src = os.path.join(root, "crates", crate, "src")
        for dirpath, _, files in os.walk(src):
            for name in files:
                if name.endswith(".rs"):
                    path = os.path.join(dirpath, name)
                    with open(path, encoding="utf-8") as fh:
                        rows.append((os.path.relpath(path, root), count_lines(fh.read())))
    return sorted(rows)


def self_test():
    """Checks the counting rule on small synthetic sources."""
    checks = []

    def check(label, text, want):
        got = count_lines(text)
        checks.append((label, got == want))
        print(f"{'ok' if got == want else 'FAIL':<5} self-test: {label} ({got}, want {want})")

    check("code lines count", "fn a() {}\nfn b() {}\n", 2)
    check(
        "blank lines, comments and docs do not",
        "//! crate doc\n\n/// item doc\n// note\n  // indented note\nfn a() {}\n",
        1,
    )
    check("a trailing comment keeps its line", "let x = 1; // one\n", 1)
    test_mod = (
        "fn a() {}\n"
        "#[cfg(test)]\n"
        "mod tests {\n"
        "    use super::*;\n"
        "\n"
        "    #[test]\n"
        "    fn t() {\n"
        "        a();\n"
        "    }\n"
        "}\n"
        "fn b() {}\n"
    )
    check("a #[cfg(test)] mod block is left out", test_mod, 2)
    nested = (
        "mod outer {\n"
        "    fn a() {}\n"
        "    #[cfg(test)]\n"
        "    #[allow(unused)]\n"
        "    mod tests {\n"
        "        fn t() {\n"
        "        }\n"
        "    }\n"
        "}\n"
    )
    check("an indented test module ends at its own brace", nested, 3)
    check(
        "#[cfg(test)] on an item other than a module counts",
        "#[cfg(test)]\nfn helper() {}\n",
        2,
    )
    check(
        "a cfg_attr naming test is not a test module",
        "#[cfg_attr(not(test), allow(dead_code))]\nfn a() {}\n",
        2,
    )

    bad = [label for label, ok in checks if not ok]
    if bad:
        print(f"\nloc self-test: {len(bad)} check(s) failed", file=sys.stderr)
        return 1
    print(f"\nloc self-test: all {len(checks)} checks passed")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--root",
        default=os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir),
        help="repository root (default: this script's parent directory)",
    )
    ap.add_argument(
        "--self-test",
        action="store_true",
        help="run the counting rule's own tests and exit",
    )
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    rows = table(os.path.normpath(args.root))
    width = max(len(path) for path, _ in rows)
    for path, n in rows:
        print(f"{path:<{width}}  {n:>6}")
    print(f"{'total':<{width}}  {sum(n for _, n in rows):>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
