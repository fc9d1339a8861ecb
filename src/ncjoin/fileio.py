"""JSON interchange formats for systems and dual-system groups.

Matrices are nested row-major arrays whose entries are [re, im] pairs
(bare numbers are accepted on input and read as real). A system file is

    {"blocks": [n_1, ...],
     "state": {"density": <block-diagonal matrix>},
     "group": {"kind": "Z" | "Zk" | "Zm", "k": int, "m": int},
     "generators": [{"perm": [...], "unitary": <block-diagonal matrix>}, ...]}

where "perm" is the block permutation in the pull convention (output block
k reads input block perm[k]) and "unitary" is the block-diagonal conjugator.
"Zk" with k = 1 is read as "Z", as `GroupDescriptor` builds it.

A dual-system file is

    {"family": "free" | "finperm",
     "tracks": [{"id": "x", "kind": "shift"} | {"id": "y", "kind": "cycle", "m": 3}],
     "h": {"cycles": [["p", "q", ...], ...]}}

"h" is only meaningful for the finperm family: it spells out extra finite
cycles of the conjugating bijection over fresh letter names, which are
normalized into cycle tracks at load time; the original names stay usable
in words through the returned alias table.
"""

from __future__ import annotations

import cmath
import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .algebra import (
    Automorphism,
    BlockStructure,
    FaithfulState,
    FiniteSystem,
    GroupDescriptor,
)
from .errors import InputFormatError, StructureError

if TYPE_CHECKING:
    from .dual import DualSystem


def _entry_from_json(x) -> complex:
    """A number or an [re, im] pair; JSON's NaN and Infinity are rejected."""
    if isinstance(x, (list, tuple)) and len(x) == 2:
        x = complex(float(x[0]), float(x[1]))
    if not isinstance(x, (int, float, complex)):
        raise InputFormatError(f"matrix entry must be a number or [re, im], got {x!r}")
    if not cmath.isfinite(x):
        raise InputFormatError(f"matrix entry {x!r} is not finite")
    return complex(x)


def matrix_from_json(data) -> np.ndarray:
    """A square complex matrix from rows of [re, im] pairs or bare real numbers.

    One numpy conversion reads the whole matrix: pairs give an (n, n, 2)
    float array, bare numbers an (n, n) one. Rows that mix the two are
    ragged to numpy; their bare numbers are then written as pairs first.
    """
    try:
        a = np.array(data)
    except ValueError:
        try:
            a = np.array([[x if isinstance(x, list) else [x, 0] for x in row] for row in data])
        except (TypeError, ValueError) as exc:
            raise InputFormatError(f"malformed matrix: {exc}") from exc
    if a.dtype.kind not in "biuf":   # strings, nulls, objects, integers beyond int64
        raise InputFormatError("matrix entries must be numbers or [re, im] pairs of numbers")
    finite = np.isfinite(a)
    if not finite.all():
        raise InputFormatError(f"matrix entry {float(a[~finite][0])!r} is not finite")
    if a.ndim == 3 and a.shape[2] == 2:
        a = np.ascontiguousarray(a, dtype=float).view(complex)[..., 0]
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InputFormatError(f"matrix must be square, got shape {a.shape}")
    return a.astype(complex, copy=False)


def matrix_to_json(m: np.ndarray):
    return [[[float(x.real), float(x.imag)] for x in row] for row in np.asarray(m, dtype=complex)]


def _expect(value, kind: type, what: str):
    """`value`, which must be a JSON object (dict) or array (list)."""
    if not isinstance(value, kind):
        raise InputFormatError(f"{what} must be a JSON {'object' if kind is dict else 'array'}, "
                               f"got {type(value).__name__}")
    return value


def _integer(value, what: str) -> int:
    """A JSON integer; a float, boolean or string is an error, never truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputFormatError(f"{what} must be an integer, got {value!r}")
    return value


def load_group(data) -> GroupDescriptor:
    if not isinstance(data, dict) or "kind" not in data:
        raise InputFormatError("group must be an object with a 'kind'")
    kind = data["kind"]
    try:
        if kind == "Z":
            return GroupDescriptor("Z")
        if kind == "Zk":
            return GroupDescriptor("Zk", k=_integer(data["k"], "group k"))
        if kind == "Zm":
            return GroupDescriptor("Zm", m=_integer(data["m"], "group m"))
    except (KeyError, ValueError, StructureError) as exc:
        raise InputFormatError(f"malformed group descriptor: {exc}") from exc
    raise InputFormatError(f"unknown group kind {kind!r}")


def load_system(data) -> FiniteSystem:
    """The system of a parsed system file."""
    _expect(data, dict, "a system file")
    try:
        structure = BlockStructure(tuple(_integer(n, "a block size") for n in data["blocks"]))
    except (KeyError, TypeError, ValueError, StructureError) as exc:
        raise InputFormatError(f"malformed blocks: {exc}") from exc
    try:
        density_m = matrix_from_json(data["state"]["density"])
        density = structure.from_block_matrix(density_m)
    except (KeyError, TypeError, StructureError) as exc:
        raise InputFormatError(f"malformed state: {exc}") from exc
    state = FaithfulState(structure, density.blocks)
    group = load_group(data.get("group", {"kind": "Z"}))
    gens = []
    for gi, g in enumerate(_expect(data.get("generators", []), list, "'generators'")):
        try:
            perm = tuple(_integer(p, "a perm entry") for p in g["perm"])
            unitary = structure.from_block_matrix(matrix_from_json(g["unitary"]))
            gens.append(Automorphism(structure, perm, unitary.blocks))
        except (KeyError, TypeError, ValueError, StructureError) as exc:
            raise InputFormatError(f"malformed generator {gi}: {exc}") from exc
    try:
        return FiniteSystem(structure, state, group, gens)
    except StructureError as exc:
        raise InputFormatError(str(exc)) from exc


def dump_system(sys: FiniteSystem) -> dict:
    group: dict = {"kind": sys.group.kind}
    if sys.group.kind == "Zk":
        group["k"] = sys.group.k
    if sys.group.kind == "Zm":
        group["m"] = sys.group.m
    return {
        "blocks": list(sys.structure.block_sizes),
        "state": {"density": matrix_to_json(sys.state.density.block_matrix())},
        "group": group,
        "generators": [
            {"perm": list(g.block_perm),
             "unitary": matrix_to_json(g.conjugator.block_matrix())}
            for g in sys.generators
        ],
    }


@dataclass
class DualFile:
    system: DualSystem
    aliases: dict[str, str] = field(default_factory=dict)

    def resolve_text(self, text: str) -> str:
        """Substitute alias letter names by their track tokens in a word string."""
        if not self.aliases:
            return text

        def sub(match):
            name = match.group(0)
            return self.aliases.get(name, name)

        return re.sub(r"[A-Za-z_]+(?![-\d])", sub, text)


def load_dual(data) -> DualFile:
    """The group of a parsed dual-system file, with its 'h' aliases."""
    from .dual import DualSystem, Track, TrackSpec

    _expect(data, dict, "a dual-system file")
    family = data.get("family")
    if family not in ("free", "finperm"):
        raise InputFormatError(f"family must be 'free' or 'finperm', got {family!r}")
    tracks = []
    for t in _expect(data.get("tracks", []), list, "'tracks'"):
        try:
            kind = t["kind"]
            if kind == "cycle":
                tracks.append(Track(t["id"], "cycle", _integer(t["m"], "track m")))
            elif kind == "shift":
                tracks.append(Track(t["id"], "shift"))
            else:
                raise InputFormatError(f"unknown track kind {kind!r}")
        except (KeyError, TypeError, ValueError, StructureError) as exc:
            raise InputFormatError(f"malformed track {t!r}: {exc}") from exc
    aliases: dict[str, str] = {}
    if "h" in data and data["h"] is not None:
        if family != "finperm":
            raise InputFormatError("'h' is only meaningful for the finperm family")
        cycles = _expect(_expect(data["h"], dict, "'h'").get("cycles", []), list, "'h' cycles")
        for ci, cyc in enumerate(cycles):
            # track ids must be purely alphabetic; digits belong to indices
            suffix = ""
            k = ci
            while True:
                suffix = chr(ord("a") + k % 26) + suffix
                k = k // 26 - 1
                if k < 0:
                    break
            tid = f"h{suffix}"
            if any(t.id == tid for t in tracks):
                raise InputFormatError(f"track id {tid} collides with an 'h' cycle")
            names = [str(x) for x in _expect(cyc, list, "an 'h' cycle")]
            for name in names:
                if not re.fullmatch(r"[A-Za-z_]+", name):
                    raise InputFormatError(
                        f"'h' cycle letters must be bare names, got {name!r}")
                if name in aliases:
                    raise InputFormatError(f"letter {name!r} appears in two 'h' cycles")
            tracks.append(Track(tid, "cycle", len(names)))
            for pos, name in enumerate(names):
                aliases[name] = f"{tid}{pos}"
    try:
        system = DualSystem(family, TrackSpec(tuple(tracks)))
    except StructureError as exc:
        raise InputFormatError(str(exc)) from exc
    return DualFile(system=system, aliases=aliases)
