"""The JSON interchange format of finite systems.

Matrices are nested row-major arrays whose entries are [re, im] pairs
(bare numbers are accepted on input and read as real). A system file is

    {"blocks": [n_1, ...],
     "state": {"density": <block-diagonal matrix>},
     "group": {"kind": "Z" | "Zk" | "Zm", "k": int, "m": int},
     "generators": [{"perm": [...], "unitary": <block-diagonal matrix>}, ...]}

where "perm" is the block permutation in the pull convention (output block
k reads input block perm[k]) and "unitary" is the block-diagonal conjugator.
"Zk" with k = 1 is read as "Z", as `GroupDescriptor` builds it.
"""

from __future__ import annotations

import cmath
from itertools import chain

import numpy as np

from .algebra import (
    Automorphism,
    BlockStructure,
    FaithfulState,
    FiniteSystem,
    GroupDescriptor,
)
from .errors import InputFormatError, StructureError, _expect, _integer


def _entry_from_json(x) -> complex:
    """A number or an [re, im] pair; JSON's NaN, Infinity and booleans are rejected."""
    if isinstance(x, (list, tuple)) and len(x) == 2 and not any(isinstance(v, bool) for v in x):
        x = complex(float(x[0]), float(x[1]))
    if isinstance(x, bool) or not isinstance(x, (int, float, complex)):
        raise InputFormatError(f"matrix entry must be a number or [re, im], got {x!r}")
    if not cmath.isfinite(x):
        raise InputFormatError(f"matrix entry {x!r} is not finite")
    return complex(x)


def matrix_from_json(data) -> np.ndarray:
    """A square complex matrix from rows of [re, im] pairs or bare real numbers.

    One numpy conversion reads the whole matrix: pairs give an (n, n, 2)
    float array, bare numbers an (n, n) one. Rows that mix the two are
    ragged to numpy; their bare numbers are then written as pairs first.
    numpy reads true and false as numbers, so the JSON values are checked
    for booleans too.
    """
    try:
        a = np.array(data)
    except ValueError:
        try:
            data = [[x if isinstance(x, list) else [x, 0] for x in row] for row in data]
            a = np.array(data)
        except (TypeError, ValueError) as exc:
            raise InputFormatError(f"malformed matrix: {exc}") from exc
    if a.dtype.kind not in "biuf":   # strings, nulls, objects, integers beyond int64
        raise InputFormatError("matrix entries must be numbers or [re, im] pairs of numbers")
    finite = np.isfinite(a)
    if not finite.all():
        raise InputFormatError(f"matrix entry {float(a[~finite][0])!r} is not finite")
    pairs = a.ndim == 3 and a.shape[2] == 2
    if pairs:
        a = np.ascontiguousarray(a, dtype=float).view(complex)[..., 0]
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InputFormatError(f"matrix must be square, got shape {a.shape}")
    values = chain.from_iterable(data)
    if bool in set(map(type, chain.from_iterable(values) if pairs else values)):
        for x in chain.from_iterable(data):
            _entry_from_json(x)   # raises, naming the first entry that holds one
    return a.astype(complex, copy=False)


def matrix_to_json(m: np.ndarray):
    return [[[float(x.real), float(x.imag)] for x in row] for row in np.asarray(m, dtype=complex)]


def load_group(data) -> GroupDescriptor:
    """The group of a system file; `GroupDescriptor` checks its fields."""
    if not isinstance(data, dict) or "kind" not in data:
        raise InputFormatError("group must be an object with a 'kind'")
    fields = {f: _integer(data[f], f"group {f}") for f in ("k", "m") if f in data}
    try:
        return GroupDescriptor(data["kind"], **fields)
    except StructureError as exc:
        raise InputFormatError(str(exc)) from exc


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
    state = FaithfulState(structure, density)
    group = load_group(data.get("group", {"kind": "Z"}))
    gens = []
    for gi, g in enumerate(_expect(data.get("generators", []), list, "'generators'")):
        try:
            perm = tuple(_integer(p, "a perm entry") for p in g["perm"])
            unitary = structure.from_block_matrix(matrix_from_json(g["unitary"]))
            gens.append(Automorphism(structure, perm, unitary))
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
