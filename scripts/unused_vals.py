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

A module lib/<dir>/<name>.ml counts as used when some .ml file under
lib/, bin/, perfbench/ or examples/ other than its own implementation
names it (capitalised) in code: comments, string literals and character
literals are skipped.  A name qualified by another module counts only
when that module is a library wrapper (`Newton_dataplane.Table` names
Table, `Fivetuple.Table` does not), and an unqualified name does not
count in a file that defines a submodule of that name, except as the
target of a module alias (`module Reactive = Reactive`).  bench/ and
test/ do not count: a module only they name is a model no front-end
runs, and must be on ALLOWED below with the reason it stays.

Run from the repository root: python3 scripts/unused_vals.py [--list]
It reports and never fails; the last line is the value count.
"""

import os
import re
import sys

PROGRAM_DIRS = ["lib", "bin", "bench", "perfbench", "examples"]
FRONT_END_DIRS = ["lib", "bin", "perfbench", "examples"]
# lib/ modules that no front-end names but that stay, with the reason.
ALLOWED = {
    "Flowradar": "fig12/13 baseline",
    "Scream": "fig12/13 baseline",
    "Starflow": "fig12/13 baseline",
    "Turboflow": "fig12/13 baseline",
    "Sonata_cost": "fig15/16 cost model",
    "Register_alloc": "ablation (c); the allocator of ROADMAP item 12",
    "Tablefmt": "bench table printer",
}
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


TOKEN = re.compile(
    r"""(?P<comment>\(\*)
      | (?P<string>"(?:[^"\\]|\\.)*")
      | (?P<quoted>\{(?P<qid>[a-z_]*)\|)
      | (?P<char>'(?:[^'\\\n]|\\(?:[\\'"ntbr ]|[0-9]{3}|x[0-9A-Fa-f]{2}|o[0-7]{3}|u\{[0-9A-Fa-f]+\}))')
      | (?P<ident>[A-Za-z_][A-Za-z0-9_']*)
      | (?P<number>[0-9][0-9A-Za-z_.']*)
      | (?P<other>\S)""",
    re.X | re.S,
)


def tokens(text):
    """The identifiers and punctuation of OCaml source: comments
    (nested, with the string literals inside them), string, quoted
    string and character literals are skipped."""
    out, i, depth = [], 0, 0
    while True:
        m = TOKEN.search(text, i)
        if not m:
            return out
        i = m.end()
        kind = m.lastgroup
        if kind == "quoted":
            close = text.find("|" + m.group("qid") + "}", i)
            i = len(text) if close < 0 else close + len(m.group("qid")) + 2
        elif kind == "comment":
            depth += 1
        elif depth and m.group() == "*" and text.startswith(")", i):
            depth, i = depth - 1, i + 1
        elif not depth and kind in ("ident", "other"):
            out.append(m.group())


def module_refs(text, wrappers):
    """The capitalised names [text] uses as a module (see the module
    rule in the header)."""
    toks = tokens(text)
    defined, refs, shadowable = set(), set(), set()
    for i, t in enumerate(toks):
        if t == "module" and toks[i - 1 : i] != ["("]:  # not (module M)
            j = i + 1
            while j < len(toks) and toks[j] in ("rec", "type"):
                j += 1
            if j < len(toks) and toks[j][:1].isupper():
                defined.add(toks[j])
                # the target of an alias counts even when it shadows
                if toks[j + 1 : j + 2] == ["="] and toks[j + 2 : j + 3] != ["struct"]:
                    k = j + 2
                    while toks[k + 1 : k + 2] == ["."] and toks[k] in wrappers:
                        k += 2
                    refs.add(toks[k])
        if not t[:1].isupper():
            continue
        # the module path before [t]: its capitalised components
        path, j = [], i
        while j >= 2 and toks[j - 1] == "." and toks[j - 2][:1].isupper():
            path.append(toks[j - 2])
            j -= 2
        if not path:
            shadowable.add(t)
        elif all(q in wrappers for q in path):
            refs.add(t)
    return refs | (shadowable - defined)


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
    wrappers = {
        m.group(1).capitalize()
        for p in files("lib", "dune")
        for m in re.finditer(r"\(name\s+([a-z_0-9]+)\)", read(p))
    }
    # an alias of a wrapper qualifies as the wrapper does
    wrappers |= {
        m.group(1)
        for p, s in sources.items()
        if p.startswith("lib")
        for m in re.finditer(r"^\s*module\s+([A-Z]\w*)\s*=\s*(Newton\w*)\s*$", s, re.M)
        if m.group(2) in wrappers
    }
    front_end = {
        p: module_refs(s, wrappers)
        for p, s in sources.items()
        if p.split(os.sep)[0] in FRONT_END_DIRS
    }
    modules, dead = 0, []
    for ml in sorted(files("lib", ".ml")):
        modules += 1
        name = os.path.basename(ml)[:-3].capitalize()
        if not any(name in ids for p, ids in front_end.items() if p != ml):
            dead.append((ml, name))
    unlisted = sum(1 for _, name in dead if name not in ALLOWED)
    if "--list" in sys.argv[1:]:
        print("\n".join(unused + unpassed))
        for ml, name in dead:
            print(f"{ml}: module {name} ({ALLOWED.get(name, 'not allowed')})")
    print(
        f"modules: {modules}  named by no front-end: {len(dead)}  "
        f"not allowed: {unlisted}"
    )
    print(
        f"optional labels: {labels}  passed by no program: {len(unpassed)}  "
        f"passed by no program and no test: {unpassed_untested}"
    )
    print(f"vals: {total}  unused: {len(unused)}  unused and untested: {untested}")


if __name__ == "__main__":
    main()
