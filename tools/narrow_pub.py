#!/usr/bin/env python3
"""Privatize-and-rebuild check of the library crates' public API.

The rule: an item of parcache-types, -disk, -trace, -core or -bench is
`pub` only when something outside its crate names it (another workspace
crate, perfbench, an example, an integration test, a bench target or a
doctest). This script checks the rule on a copy of the working tree:

1. every `pub` item (fn, struct, enum, const, trait, type, static, mod,
   use) under the five crates' `src/` becomes `pub(crate)`; a grouped
   re-export `pub use a::{x, y};` is split into one line per name first;
2. the copy is rebuilt: `cargo build --workspace --all-targets`, the
   perfbench build, the doctests, `cargo doc -D warnings` and
   `cargo clippy --all-targets -D warnings`;
3. every item a build error, a `private_interfaces` warning, a rustdoc
   private-link warning or a clippy error names gets its `pub` back, and
   step 2 repeats until everything builds. (Clippy runs with `dead_code`
   and `unused_imports` allowed: a narrowed item nothing calls is a
   finding of the pass, not a reason to keep it `pub`.)

Whatever is still narrowed at the end could be `pub(crate)` in the real
tree: the script lists it and exits 1. A tree that keeps the rule lists
nothing and exits 0. The working tree itself is never edited.

usage: python3 tools/narrow_pub.py [--target-dir DIR] [--keep]

A full run rebuilds the workspace a few dozen times; on a 2-vCPU host it
takes about ten minutes. `--target-dir` (default: a `narrow-pub` folder
under the repository's `target/`) keeps the build cache between runs;
`--keep` leaves the narrowed copy in place for inspection.
"""
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

CRATES = ["types", "disk", "trace", "core", "bench"]
KINDS = r'(?:(?:const|unsafe|async) )*(?:fn|struct|enum|const|trait|type|static|mod|use|union) '
ITEM = re.compile(r'^(\s*)pub (?=' + KINDS + ')')
GROUP = re.compile(r'^(\s*)pub use ([\w:]+)::\{([^{}]*)\};', re.M)
LOC = re.compile(r'(?:-->|:::) (\S+?):(\d+):(\d+)')


class Pass:
    def __init__(self, root, target):
        self.root = root
        self.target = target
        self.changed = {}  # path -> 1-based line numbers narrowed

    # -- narrowing --------------------------------------------------------

    def files(self):
        for c in CRATES:
            base = os.path.join(self.root, "crates", c, "src")
            for dp, _, fns in os.walk(base):
                if dp.startswith(os.path.join(base, "bin")):
                    continue  # binaries are crates of their own
                for f in fns:
                    if f.endswith(".rs"):
                        yield os.path.join(dp, f)

    def narrow(self):
        def split(m):
            names = [n.strip() for n in m.group(3).replace("\n", " ").split(",") if n.strip()]
            return "\n".join(f"{m.group(1)}pub use {m.group(2)}::{n};" for n in names)

        for p in self.files():
            lines = GROUP.sub(split, open(p).read()).split("\n")
            narrowed = set()
            for i, l in enumerate(lines):
                m = ITEM.match(l)
                if m:
                    lines[i] = m.group(1) + "pub(crate) " + l[m.end():]
                    narrowed.add(i + 1)
            if narrowed:
                self.changed[p] = narrowed
                open(p, "w").write("\n".join(lines))

    def restore(self, path, line):
        lines = open(path).read().split("\n")
        lines[line - 1] = lines[line - 1].replace("pub(crate) ", "pub ", 1)
        open(path, "w").write("\n".join(lines))
        self.changed[path].discard(line)

    def narrowed_at(self, path, lo, hi):
        s = self.changed.get(path, ())
        return next((ln for ln in range(lo, hi + 1) if ln in s), None)

    def definitions(self, name, files):
        """Narrowed lines in `files` that define or re-export `name`."""
        pat = re.compile(r'\s*pub\(crate\) (?:' + KINDS + re.escape(name) + r'\b|use .*\b'
                         + re.escape(name) + r'\b)')
        out = []
        for f in files:
            if f in self.changed:
                lines = open(f).read().split("\n")
                out += [(f, ln) for ln in self.changed[f] if pat.match(lines[ln - 1])]
        return out

    # -- building ---------------------------------------------------------

    def norm(self, fname):
        p = fname if os.path.isabs(fname) else os.path.join(self.root, fname)
        return os.path.normpath(p)

    def cargo(self, args, target_sub, extra_env=None):
        env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(self.target, target_sub))
        env.update(extra_env or {})
        return subprocess.run(["cargo"] + args, cwd=self.root, env=env,
                              capture_output=True, text=True)

    def json_stage(self, args, target_sub, extra_env=None):
        split = args.index("--") if "--" in args else len(args)
        args = args[:split] + ["--message-format=json"] + args[split:]
        r = self.cargo(args, target_sub, extra_env)
        hits, unresolved = set(), []
        for line in r.stdout.splitlines():
            try:
                d = json.loads(line)["message"]
            except (ValueError, KeyError):
                continue
            code = (d.get("code") or {}).get("code") or ""
            if d["level"] != "error" and code not in ("private_interfaces", "private_bounds"):
                continue
            if d["message"].startswith(("aborting", "could not compile")):
                continue
            found = self.from_spans(d) | self.from_reexport(d, code) | self.from_doc_link(d)
            if not found:
                # A lint that fires on the narrowed item itself.
                found = self.from_spans({"spans": [dict(s, is_primary=False)
                                                   for s in d["spans"] if s["is_primary"]]})
            hits |= found
            if not found:
                unresolved.append(d.get("rendered") or d["message"])
        return r.returncode == 0, hits, unresolved

    def from_spans(self, d):
        """The items a diagnostic's notes and secondary labels point at."""
        spans = [s for s in d["spans"] if not s["is_primary"]]
        for ch in d.get("children", []):
            spans += ch["spans"]
        hits = set()
        for sp in spans:
            p = self.norm(sp["file_name"])
            ln = self.narrowed_at(p, sp["line_start"], sp["line_end"])
            if ln:
                hits.add((p, ln))
        return hits

    def from_reexport(self, d, code):
        """`pub use m::Name` of a narrowed `Name` (E0364/E0365)."""
        if code not in ("E0364", "E0365"):
            return set()
        hits = set()
        for sp in d["spans"]:
            if not sp["is_primary"]:
                continue
            path = self.norm(sp["file_name"])
            t = sp["text"][0]
            segs = t["text"][t["highlight_start"] - 1:t["highlight_end"] - 1].split("::")
            name, mods = segs[-1].strip(), [s.strip() for s in segs[:-1]]
            if not mods:
                m = re.search(r'use\s+([\w:]+)::\{', t["text"])
                mods = m.group(1).split("::") if m else []
            src = path[:path.index("/src/") + 5]
            if mods and mods[0] == "crate":
                base, mods = src, mods[1:]
            elif path.endswith(("lib.rs", "mod.rs")):
                base = os.path.dirname(path) + "/"
            else:
                base = path[:-3] + "/"
            rel = "/".join(mods)
            files = [base + rel + ".rs", base + rel + "/mod.rs"] if mods else [path]
            hits |= set(self.definitions(name, files))
        return hits

    def from_doc_link(self, d):
        """rustdoc: public documentation linking to a narrowed item."""
        m = re.search(r"links to private item `([^`]+)`", d["message"])
        if not m:
            return set()
        name = m.group(1).split("::")[-1].replace("mod@", "")
        sp = next(s for s in d["spans"] if s["is_primary"])
        path = self.norm(sp["file_name"])
        src = path[:path.index("/src/") + 5]
        return set(self.definitions(name, [p for p in self.changed if p.startswith(src)]))

    def doctest_stage(self):
        r = self.cargo(["test", "--offline", "--doc", "--workspace", "-q"], "ws")
        out = r.stdout + r.stderr
        hits = set()
        for block in re.split(r'\n(?=(?:error|warning)(?:\[\w+\])?: )', out):
            if not block.startswith("error"):
                continue
            lines = block.split("\n")
            for i, l in enumerate(lines):
                m = LOC.search(l)
                # Only what a note or a secondary label points at: the
                # primary location is the doctest itself.
                if m and (":::" in l or (i > 0 and "note:" in lines[i - 1])):
                    p = self.norm(m.group(1))
                    ln = self.narrowed_at(p, int(m.group(2)), int(m.group(2)))
                    if ln:
                        hits.add((p, ln))
        return r.returncode == 0, hits, [] if hits else [out[-4000:]]

    def stages(self):
        deny = {"RUSTDOCFLAGS": "-D warnings"}
        return [
            ("workspace", lambda: self.json_stage(
                ["build", "--offline", "--workspace", "--all-targets", "--keep-going"], "ws")),
            ("perfbench", lambda: self.json_stage(
                ["build", "--offline", "--release", "--manifest-path", "perfbench/Cargo.toml"],
                "perfbench")),
            ("doctests", self.doctest_stage),
            ("rustdoc", lambda: self.json_stage(
                ["doc", "--offline", "--workspace", "--no-deps", "--keep-going"], "ws", deny)),
            ("clippy", lambda: self.json_stage(
                ["clippy", "--offline", "--workspace", "--all-targets", "--", "-D", "warnings",
                 "-A", "dead_code", "-A", "unused_imports"], "ws")),
        ]

    def run(self):
        self.narrow()
        print(f"narrowed {sum(map(len, self.changed.values()))} items", flush=True)
        settled = False
        while not settled:
            settled = True
            for name, stage in self.stages():
                while True:
                    ok, hits, unresolved = stage()
                    print(f"{name}: ok={ok} restored={len(hits)}", flush=True)
                    for p, ln in sorted(hits):
                        self.restore(p, ln)
                    if not hits:
                        break
                    settled = False
                if not ok:
                    print("\n".join(unresolved[:20]) or "no diagnostic names the failure")
                    sys.exit(f"{name} fails for a reason the pass cannot attribute")
        left = []
        for p, lines in sorted(self.changed.items()):
            text = open(p).read().split("\n")
            left += [f"{os.path.relpath(p, self.root)}:{ln}: {text[ln - 1].strip()}"
                     for ln in sorted(lines)]
        print(f"{len(left)} items could be narrowed")
        for l in left:
            print("  " + l)
        return not left


def main():
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    args = sys.argv[1:]
    target = os.path.join(repo, "target", "narrow-pub")
    if "--target-dir" in args:
        target = os.path.abspath(args[args.index("--target-dir") + 1])
    copy = tempfile.mkdtemp(prefix="narrow-pub-")
    files = subprocess.run(["git", "ls-files", "-co", "--exclude-standard", "-z"], cwd=repo,
                           capture_output=True, text=True, check=True).stdout.split("\0")
    for f in filter(None, files):
        src = os.path.join(repo, f)
        if os.path.isfile(src):
            os.makedirs(os.path.dirname(os.path.join(copy, f)), exist_ok=True)
            shutil.copy2(src, os.path.join(copy, f))
    try:
        clean = Pass(copy, target).run()
    finally:
        if "--keep" in args:
            print(f"narrowed copy left in {copy}")
        else:
            shutil.rmtree(copy)
    sys.exit(0 if clean else 1)


if __name__ == "__main__":
    main()
