#!/usr/bin/env python3
"""Name-level scan for exported values no program code uses.

A `val` declared in lib/**/*.mli counts as used when its name appears,
as a whole identifier, in some .ml file under lib/, bin/, bench/,
perfbench/ or examples/ other than the module's own implementation.
Name collisions make the unused count a lower bound.  The scan also
counts the unused values that no test under test/ names either.

Run from the repository root: python3 scripts/unused_vals.py [--list]
It reports and never fails.
"""

import os
import re
import sys

PROGRAM_DIRS = ["lib", "bin", "bench", "perfbench", "examples"]
VAL = re.compile(r"^\s*val\s+([a-z_][A-Za-z0-9_']*)\s*:", re.M)
IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")


def files(root, suffix):
    for base, dirs, names in os.walk(root):
        dirs[:] = [d for d in dirs if not d.startswith((".", "_"))]
        for n in names:
            if n.endswith(suffix):
                yield os.path.join(base, n)


def identifiers(path):
    with open(path, encoding="utf-8", errors="replace") as f:
        return set(IDENT.findall(f.read()))


def main():
    program = {p: identifiers(p) for d in PROGRAM_DIRS for p in files(d, ".ml")}
    tests = set()
    for p in files("test", ".ml"):
        tests |= identifiers(p)
    total, unused, untested = 0, [], 0
    for mli in sorted(files("lib", ".mli")):
        own = mli[:-1]
        with open(mli, encoding="utf-8") as f:
            names = VAL.findall(f.read())
        for name in names:
            total += 1
            if not any(name in ids for p, ids in program.items() if p != own):
                unused.append(f"{mli}: {name}")
                if name not in tests:
                    untested += 1
    if "--list" in sys.argv[1:]:
        print("\n".join(unused))
    print(f"vals: {total}  unused: {len(unused)}  unused and untested: {untested}")


if __name__ == "__main__":
    main()
