"""Bundled example corpus used by the CLI and the test suite.

Finite systems: cyclic rotations c2/c3/c5, identity systems id2/id3, the
two-generator Pauli conjugation system on one matrix block, and a Gibbs
state block with a phase rotation. Dual systems: an all-shift free group,
an all-cycle free group, a mixed free group, and a finitary permutation
group conjugated by a track advance with one shift and one cycle track.
"""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path

from . import fileio
from .errors import InputFormatError

FINITE_SYSTEMS = ("c2", "c3", "c5", "id2", "id3", "pauli", "gibbs")
DUAL_SYSTEMS = ("dual_shift", "dual_cycle2", "dual_mixed", "dual_finperm_shift")
_FILES = resources.files(__package__).joinpath("corpus")


def names() -> tuple[str, ...]:
    return FINITE_SYSTEMS + DUAL_SYSTEMS


def text(name: str) -> str:
    if name not in names():
        raise InputFormatError(f"unknown corpus entry {name!r}; available: {', '.join(names())}")
    return _FILES.joinpath(f"{name}.json").read_text()


def raw(name: str) -> dict:
    return json.loads(text(name))


def system(name: str):
    if name not in FINITE_SYSTEMS:
        raise InputFormatError(f"{name!r} is not a finite-system corpus entry")
    return fileio.load_system(raw(name))


def dual(name: str):
    if name not in DUAL_SYSTEMS:
        raise InputFormatError(f"{name!r} is not a dual-system corpus entry")
    from .dual import load_dual

    return load_dual(raw(name))


def export(directory) -> list[str]:
    """Copy every corpus file into a directory; returns the written paths."""
    out = []
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name in names():
        p = directory / f"{name}.json"
        p.write_text(text(name))
        out.append(str(p))
    return out
