#!/usr/bin/env python3
"""Name-level scan for exported values and optional labels no program
code uses.

A `val` declared in lib/**/*.mli counts as used when its name appears,
as a whole identifier, in some .ml file under lib/, bin/, bench/,
perfbench/ or examples/ other than the module's own implementation.
An optional label `?l` in such a `val`'s type counts as passed when
`~l` or `?l` appears in one of those files other than the module's own
implementation.  Name collisions make both unused counts lower bounds.
The scan also counts the unused values and labels that no test under
test/ names either.

Run from the repository root: python3 scripts/unused_vals.py [--list]
It reports and never fails; the last line is the value count.
"""

import os
import re
import sys

PROGRAM_DIRS = ["lib", "bin", "bench", "perfbench", "examples"]
VAL = re.compile(r"^\s*val\s+([a-z_][A-Za-z0-9_']*)\s*:", re.M)
IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")
# Where a val's type ends: the next signature item.
ITEM = re.compile(
    r"^\s*(val|type|module|exception|external|include|open|end|class)\b", re.M
)
OPTIONAL = re.compile(r"\?([a-z_][A-Za-z0-9_']*)\s*:")
LABEL = re.compile(r"[~?]([a-z_][A-Za-z0-9_']*)")


def files(root, suffix):
    for base, dirs, names in os.walk(root):
        dirs[:] = [d for d in dirs if not d.startswith((".", "_"))]
        for n in names:
            if n.endswith(suffix):
                yield os.path.join(base, n)


def read(path):
    with open(path, encoding="utf-8", errors="replace") as f:
        return f.read()


def strip_comments(text):
    out, depth, i = [], 0, 0
    while i < len(text):
        if text.startswith("(*", i):
            depth, i = depth + 1, i + 2
        elif depth and text.startswith("*)", i):
            depth, i = depth - 1, i + 2
        else:
            if not depth:
                out.append(text[i])
            i += 1
    return "".join(out)


def signatures(text):
    """(name, type text) of every val in an interface."""
    text = strip_comments(text)
    for m in VAL.finditer(text):
        nxt = ITEM.search(text, m.end())
        yield m.group(1), text[m.end() : nxt.start() if nxt else len(text)]


def main():
    sources = {p: read(p) for d in PROGRAM_DIRS for p in files(d, ".ml")}
    program = {p: set(IDENT.findall(s)) for p, s in sources.items()}
    passed = {p: set(LABEL.findall(s)) for p, s in sources.items()}
    tests, test_labels = set(), set()
    for p in files("test", ".ml"):
        s = read(p)
        tests |= set(IDENT.findall(s))
        test_labels |= set(LABEL.findall(s))
    total, unused, untested = 0, [], 0
    labels, unpassed, unpassed_untested = 0, [], 0
    for mli in sorted(files("lib", ".mli")):
        own = mli[:-1]
        for name, sig in signatures(read(mli)):
            total += 1
            if not any(name in ids for p, ids in program.items() if p != own):
                unused.append(f"{mli}: {name}")
                if name not in tests:
                    untested += 1
            for label in OPTIONAL.findall(sig):
                labels += 1
                if not any(label in ls for p, ls in passed.items() if p != own):
                    unpassed.append(f"{mli}: {name} ?{label}")
                    if label not in test_labels:
                        unpassed_untested += 1
    if "--list" in sys.argv[1:]:
        print("\n".join(unused + unpassed))
    print(
        f"optional labels: {labels}  passed by no program: {len(unpassed)}  "
        f"passed by no program and no test: {unpassed_untested}"
    )
    print(f"vals: {total}  unused: {len(unused)}  unused and untested: {untested}")


if __name__ == "__main__":
    main()
