"""Run the Tier-1 suite against hand-written mutants and print which survive.

    python tools/mutants.py [NAME ...]

Each mutant of `tools/mutants.txt` (an INI file: one section per mutant,
with `file`, `old`, `new`, `expect` and an optional `note`) replaces the
text `old`, which must occur exactly once in `file` and lie on one line, by
`new`. For each mutant, the working tree (without `.git` and caches) is
copied to a temporary directory, since tests also read `README.md` and
`perfbench/`; the replacement is applied there, and
`python -m pytest -x -q tests` runs in that directory with `PYTHONPATH` at
the copy's `src`. A failing test or a timed-out run kills the mutant, a
passing run lets it survive, and any other pytest exit (a collection
error, say) is reported as an error. Every replacement is checked, and
the unmutated copy must pass, before the first mutant runs.

Names given on the command line select mutants; by default all run. The
exit status is 0 when every outcome matches its `expect` and 1 otherwise.
This file imports only the standard library; the suite needs its own
dependencies.
"""

import argparse
import configparser
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = ROOT / "tools" / "mutants.txt"
TIMEOUT_S = 900   # a mutant that makes the suite hang counts as killed


def _mutants(names):
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(MUTANTS, encoding="utf-8")
    unknown = set(names) - set(parser.sections())
    if unknown:
        sys.exit(f"unknown mutants: {', '.join(sorted(unknown))}")
    out = []
    for name in names or parser.sections():
        m = parser[name]
        text = (ROOT / m["file"]).read_text(encoding="utf-8")
        if "\n" in m["old"] or text.count(m["old"]) != 1:
            sys.exit(f"{name}: `old` must be one line found exactly once in {m['file']}")
        if m["expect"] not in ("killed", "survived"):
            sys.exit(f"{name}: `expect` must be killed or survived")
        out.append((name, m["file"], text.replace(m["old"], m["new"]), m["expect"]))
    return out


def _run(path: str | None, mutated: str = "") -> str:
    """The suite's outcome on a copy of the tree with `path` set to `mutated`
    (the unmutated tree when `path` is None)."""
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache",
                                    ".perfbench_work")
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=ignore)
        if path is not None:
            (tree / path).write_text(mutated, encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(tree / "src"))
        try:
            done = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p",
                                   "no:cacheprovider", "tests"], cwd=tree, env=env,
                                  capture_output=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "killed"
    # pytest exits 1 when a test fails; 2-5 mean the suite did not run through
    return {0: "survived", 1: "killed"}.get(done.returncode,
                                            f"error (pytest exit {done.returncode})")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("names", nargs="*", help="mutants to run (default: all)")
    args = ap.parse_args(argv)
    mutants = _mutants(args.names)
    if _run(None) != "survived":
        sys.exit("the suite fails on the unmutated tree; no mutant was run")
    mismatches = 0
    for name, path, mutated, expect in mutants:
        outcome = _run(path, mutated)
        mismatches += outcome != expect
        flag = "" if outcome == expect else f"  (expected {expect})"
        print(f"{name}: {outcome}{flag}", flush=True)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
