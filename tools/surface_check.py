#!/usr/bin/env python3
"""Check that every value lib/ exports has a caller outside tests.

Lists each `val` (or `external`) declared in a `lib/**/*.mli` that no
`.ml` file outside its own module and outside `test/` refers to, and
fails unless that name is on the allowlist (tools/surface_allowlist.txt).
It also fails on a stale allowlist entry: one that now has a caller or
no longer exists.  Values declared inside a `module type` are
requirements, not exports, and are skipped.

The scan is textual.  A file refers to value `v` of module `Lib.Mod` when
it writes `Lib.Mod.v`, or `H.v` for a handle `H` of the module: the bare
`Mod` inside library `Lib` (or after `open Lib`), or an alias
`module H = Lib.Mod` (functor applications `Lib.Mod.Make (X)` included).
A file that opens the module (`open H`, `let open H in`, `H.(...)`)
refers to every value whose bare name it mentions.

Usage: python3 tools/surface_check.py [--list]
  --list  print every test-only or uncalled export and exit 0
"""

import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
ALLOWLIST = ROOT / "tools" / "surface_allowlist.txt"
CALLER_DIRS = ["lib", "bin", "bench", "examples", "perfbench"]

TOKEN = re.compile(
    r"\(\*|\"|\{([a-z_]*)\||'(?:\\(?:[0-9]{3}|x[0-9a-fA-F]{2}|.)|[^\\'\n])'"
)


def strip(src):
    """Blank out comments, string and character literals."""
    out, i, depth = [], 0, 0
    while i < len(src):
        if depth:
            j = src.find("*)", i)
            k = src.find("(*", i)
            if k != -1 and (j == -1 or k < j):
                depth, i = depth + 1, k + 2
            elif j == -1:
                break
            else:
                depth, i = depth - 1, j + 2
            if not depth:
                out.append(" ")
            continue
        m = TOKEN.search(src, i)
        if not m:
            out.append(src[i:])
            break
        out.append(src[i:m.start()])
        tok = m.group(0)
        if tok == "(*":
            depth, i = 1, m.end()
        elif tok == '"':
            j = m.end()
            while j < len(src) and src[j] != '"':
                j += 2 if src[j] == "\\" else 1
            out.append('""')
            i = j + 1
        elif tok.startswith("{"):
            j = src.find("|" + m.group(1) + "}", m.end())
            out.append('""')
            i = len(src) if j == -1 else j + len(m.group(1)) + 2
        else:
            out.append("' '")
            i = m.end()
    return "".join(out)


WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")


def exports(text):
    """Names of the values a signature declares, with their module path
    below the file's own module, skipping `module type` bodies."""
    stack, pending, found = [], None, []
    toks = WORD.findall(text)
    for k, tok in enumerate(toks):
        nxt = toks[k + 1] if k + 1 < len(toks) else ""
        if tok == "module":
            pending = ("type", None) if nxt == "type" else ("mod", nxt)
        elif tok in ("sig", "struct", "object"):
            kind, name = pending or ("mod", None)
            stack.append((kind, name))
            pending = None
        elif tok == "end" and stack:
            stack.pop()
        elif tok in ("val", "external") and all(f[0] == "mod" for f in stack):
            path = [f[1] for f in stack if f[1]]
            if re.fullmatch(r"[a-z_][A-Za-z0-9_']*", nxt):
                found.append((".".join(path), nxt))
            pending = None
    return found


class Source:
    def __init__(self, path):
        self.rel = path.relative_to(ROOT).as_posix()
        self.text = strip(path.read_text())
        parts = self.rel.split("/")
        self.lib = parts[1].capitalize() if parts[0] == "lib" else None
        self.opens = set(re.findall(r"\bopen!?\s+([A-Z][\w.]*)", self.text))
        self.aliases = re.findall(
            r"\bmodule\s+([A-Z]\w*)\s*=\s*([A-Z][\w.]*)", self.text
        )
        self.local_opens = set(
            re.findall(r"(?<![\w.'])([A-Z][\w.]*?)\s*\.\s*\(", self.text)
            + re.findall(r"\blet\s+open!?\s+([A-Z][\w.]*)", self.text)
        )
        self.qualified = {}
        for path, name in re.findall(
            r"(?<![\w.'])([A-Z]\w*(?:\.[A-Z]\w*)*)\.([a-z_][\w']*)", self.text
        ):
            self.qualified.setdefault(name, set()).add(path)
        self.words = set(WORD.findall(self.text))

    def handles(self, lib, mod):
        """Paths this file can name module [lib.mod] by."""
        libs = {lib}
        # A library whose only module shares its name is that module.
        found = {lib if mod == lib else lib + "." + mod}
        if self.lib == lib or lib in self.opens:
            found.add(mod)
        changed = True
        while changed:
            changed = False
            for alias, target in self.aliases:
                if alias in found or alias in libs:
                    continue
                if target in libs or any(
                    target == h or target.startswith(h + ".") for h in found
                ):
                    (libs if target in libs else found).add(alias)
                    changed = True
            found |= {l + "." + mod for l in libs if mod != lib}
        return found

    def refers(self, handles, name):
        if any(
            p == h or p.startswith(h + ".")
            for h in handles
            for p in self.qualified.get(name, ())
        ):
            return True
        opened = any(
            h in self.opens or h in self.local_opens for h in handles
        )
        return opened and name in self.words


def scan():
    sources = [
        Source(p)
        for d in CALLER_DIRS + ["test"]
        for p in sorted((ROOT / d).rglob("*.ml"))
    ]
    report = {}
    for mli in sorted((ROOT / "lib").rglob("*.mli")):
        lib = mli.parent.relative_to(ROOT / "lib").parts[0].capitalize()
        mod = mli.stem.capitalize()
        own = mli.with_suffix(".ml").relative_to(ROOT).as_posix()
        names = exports(strip(mli.read_text()))
        others = [(s, s.handles(lib, mod)) for s in sources if s.rel != own]
        path = (lib,) if mod == lib else (lib, mod)
        for sub, name in names:
            key = ".".join(p for p in path + (sub, name) if p)
            users = [s for s, hs in others if s.refers(hs, name)]
            if any(not s.rel.startswith("test/") for s in users):
                report[key] = "called"
            else:
                report[key] = "test-only" if users else "uncalled"
    return report


def main():
    report = scan()
    loose = {k: v for k, v in report.items() if v != "called"}
    if "--list" in sys.argv[1:]:
        for key, how in sorted(loose.items()):
            print(f"{key}  {how}")
        return 0
    allowed = set()
    for line in ALLOWLIST.read_text().splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            key, _, reason = line.partition(" ")
            if not reason.strip():
                print(f"surface-check: {key}: allowlist entry has no reason")
                return 1
            allowed.add(key)
    bad = 0
    for key, how in sorted(loose.items()):
        if key not in allowed:
            what = "only tests call it" if how == "test-only" else "no caller"
            print(f"surface-check: {key} has no caller outside test/ ({what}); "
                  "delete it or add it to the allowlist with a reason")
            bad += 1
    for key in sorted(allowed):
        if key not in report:
            print(f"surface-check: stale allowlist entry {key}: no such export")
            bad += 1
        elif report[key] == "called":
            print(f"surface-check: stale allowlist entry {key}: it has a caller")
            bad += 1
    if bad:
        return 1
    print(f"surface-check: OK ({len(report)} exports, {len(allowed)} allowlisted)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
