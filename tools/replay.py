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
parses. Placeholders such as `{C8}` name system and objective files that
the working tree writes once, so both sides read the same input
(`PLACEHOLDERS`):
the rotations C8 and C12; Ad(u) on M3 for a Haar u drawn with seed 2008;
valid non-tracial systems on several blocks, by Z, Z^2 and Z_3; a
conjugator whose defect the Frobenius norm does not clear but which is
unitary to the tolerance; and one invalid system for each kind that
validation reports, one of them just past the tolerance; and two
objective files, one on pauli ⊙ pauli with a repeated pair and complex,
−0.0 and bare real coefficients, and one with no terms.

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
PLACEHOLDERS = ("C8", "C12", "M3", "MULTI", "ZK", "ZM", "BAND", "NONHERMITIAN", "TRACE",
                "UNFAITHFUL", "NONUNITARY", "NEARUNITARY", "NONINVARIANT", "NONCOMMUTING",
                "ORDER", "PAULI_OBJECTIVE", "EMPTY_OBJECTIVE")

_WRITE_SYSTEMS = r"""
import json, sys
import numpy as np
from ncjoin import fileio
from ncjoin.algebra import (Automorphism, BlockStructure, FaithfulState, FiniteSystem,
                            GroupDescriptor, cyclic_rotation_system, single_block_system)
rng = np.random.default_rng(2008)


def haar(n):
    q, r = np.linalg.qr(rng.standard_normal((n, n, 2)) @ [1, 1j])
    return q * (np.diag(r) / abs(np.diag(r)))


def system(sizes, density, conjugators, perm=None, group=GroupDescriptor("Z")):
    s = BlockStructure(sizes)
    perm = perm or tuple(range(len(sizes)))
    return FiniteSystem(s, FaithfulState(s, density), group,
                        [Automorphism(s, perm, u) for u in conjugators])


M3 = single_block_system(haar(3))
# on blocks (2, 2, 1): a generator swapping the 2×2 blocks, ρ_1 = u_0* ρ_0 u_0
u0, v = haar(2), haar(2)
rho0 = (v * [0.3, 0.1]) @ v.conj().T
MULTI = system((2, 2, 1), [rho0, u0.conj().T @ rho0 @ u0, np.array([[0.2]])],
               [[u0, u0.conj().T, np.eye(1)]], perm=(1, 0, 2))
# on (2, 1): a non-tracial density and unitaries diagonal in its eigenbasis
v = haar(2)
rho = [(v * [0.5, 0.3]) @ v.conj().T, np.array([[0.2]])]


def diagonal(phases):
    return [(v * np.exp(1j * np.asarray(phases))) @ v.conj().T, np.eye(1)]


ZK = system((2, 1), rho, [diagonal([0.4, 1.9]), diagonal([2.2, -0.7])],
            group=GroupDescriptor("Zk", k=2))
ZM = system((2, 1), rho, [diagonal(2 * np.pi * np.array([1, 2]) / 3)],
            group=GroupDescriptor("Zm", m=3))
u = diagonal([0.4, 1.9])
spread = rng.standard_normal((2, 2)) @ [1, 1j]
rank_one = np.outer([1, 1j], [1, -1]) / 2
systems = {
    "C8": cyclic_rotation_system(8), "C12": cyclic_rotation_system(12), "M3": M3,
    "MULTI": MULTI, "ZK": ZK, "ZM": ZM,
    # u*u − 1 of Frobenius norm above VALIDATION_TOL/2, operator norm below it
    "BAND": system((2, 1), rho, [[u[0] + 2.4e-10 * spread / np.linalg.norm(spread, 2), u[1]]]),
    "NONHERMITIAN": system((2, 1), [rho[0] + 1e-3 * rank_one, rho[1]], [u]),
    "TRACE": system((2, 1), [1.1 * b for b in rho], [u]),
    "UNFAITHFUL": system((2, 1), [rho[0] / 0.8, np.array([[0.0]])], [u]),
    "NONUNITARY": system((2, 1), rho, [[1.001 * u[0], u[1]]]),
    "NEARUNITARY": system((2, 1), rho, [[u[0] + 1.5e-9 * rank_one, u[1]]]),
    "NONINVARIANT": system((2, 1), rho, [[haar(2), u[1]]]),
    "NONCOMMUTING": single_block_system([haar(2), haar(2)]),
    "ORDER": single_block_system(np.diag([1, -1, 1j]), group=GroupDescriptor("Zm", m=3)),
}
files = {name: fileio.dump_system(sysd) for name, sysd in systems.items()}
files["PAULI_OBJECTIVE"] = {"terms": [
    {"i": 0, "j": 1, "coef": [0.5, -0.25]}, {"i": 3, "j": 2, "coef": [-0.0, 1.0]},
    {"i": 0, "j": 1, "coef": 2.0}, {"i": 1, "j": 1}, {"i": 2, "j": 0, "coef": [-0.0, -0.0]},
    {"i": 2, "j": 3, "coef": [-1.5, -0.0]}]}
files["EMPTY_OBJECTIVE"] = {"terms": []}
for name, data in files.items():
    with open(f"{sys.argv[1]}/{name}.json", "w") as f:
        json.dump(data, f)
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
