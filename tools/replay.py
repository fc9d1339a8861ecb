"""Replay CLI commands on a base revision and on the working tree, and print
the commands whose reports differ.

    python tools/replay.py [--base REV]

The base revision (default HEAD) is exported with `git archive` into a
temporary directory, so no worktree is left registered in the repository.
Each side runs every command of `tools/replay_commands.txt` (one
command per line, split as a shell would, `#` starting a comment) with
`--format json`, in one Python process per side that imports `ncjoin`
from that side's `src` and calls `ncjoin.cli.main` once per command. A command's result is its exit code
and what it printed on stdout and stderr, each read as JSON where it
parses. The placeholders `{C8}`, `{C12}` and `{M3}` name system files that
the working tree writes once, so both sides read the same input: the
rotations C8 and C12, and Ad(u) on M3 for a Haar u drawn with seed 2008.

For each command whose results differ, the command and every differing
field are printed. The exit status is 0 when all results agree and 1
otherwise. This file imports only the standard library; the two sides
need numpy.
"""

import argparse
import io
import json
import os
import shlex
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = ROOT / "tools" / "replay_commands.txt"
PLACEHOLDERS = ("C8", "C12", "M3")

_WRITE_SYSTEMS = r"""
import json, sys
import numpy as np
from ncjoin import fileio
from ncjoin.algebra import cyclic_rotation_system, single_block_system
z = np.random.default_rng(2008).standard_normal((3, 3, 2)) @ [1, 1j]
q, r = np.linalg.qr(z)
systems = {"C8": cyclic_rotation_system(8), "C12": cyclic_rotation_system(12),
           "M3": single_block_system(q * (np.diag(r) / abs(np.diag(r))))}
for name, sysd in systems.items():
    with open(f"{sys.argv[1]}/{name}.json", "w") as f:
        json.dump(fileio.dump_system(sysd), f)
"""

_RUN_COMMANDS = r"""
import contextlib, io, json, sys
from ncjoin import cli
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:   # a usage error
            code = exc.code
    results.append([code, out.getvalue(), err.getvalue()])
json.dump(results, sys.stdout)
"""


def _python(tree: Path, args, stdin=None) -> str:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    return subprocess.run([sys.executable, "-B", *args], input=stdin, env=env, check=True,
                          capture_output=True, text=True).stdout


def _parsed(text: str):
    try:
        return json.loads(text)
    except ValueError:
        return text


def _replay(tree: Path, argvs) -> list[dict]:
    return [{"exit": code, "stdout": _parsed(out), "stderr": _parsed(err)}
            for code, out, err in json.loads(_python(tree, ["-c", _RUN_COMMANDS],
                                                     json.dumps(argvs)))]


def _differences(a, b, path):
    """`path: a -> b` for each leaf where the two parsed results differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(a.keys() | b.keys()):
            yield from _differences(a.get(key), b.get(key), f"{path}.{key}")
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            yield from _differences(x, y, f"{path}[{i}]")
    elif a != b:
        yield f"{path}: {json.dumps(a)} -> {json.dumps(b)}"


def _export(rev: str, target: Path) -> None:
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(target, filter="data")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    ap.add_argument("--base", default="HEAD", help="the git revision to compare against")
    args = ap.parse_args(argv)
    lines = (line.strip() for line in COMMANDS.read_text(encoding="utf-8").splitlines())
    commands = [line for line in lines if line and not line.startswith("#")]
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "base"
        _export(args.base, base)
        _python(ROOT, ["-c", _WRITE_SYSTEMS, tmp])
        argvs = []
        for command in commands:
            for name in PLACEHOLDERS:
                command = command.replace("{%s}" % name, str(Path(tmp) / f"{name}.json"))
            argvs.append(shlex.split(command) + ["--format", "json"])
        before, after = _replay(base, argvs), _replay(ROOT, argvs)
    differing = 0
    for command, a, b in zip(commands, before, after):
        if a != b:
            differing += 1
            print(f"ncjoin {command}")
            for line in _differences(a, b, "result"):
                print(f"    {line}")
    print(f"{differing} of {len(commands)} commands differ from {args.base}")
    return 1 if differing else 0


if __name__ == "__main__":
    raise SystemExit(main())
