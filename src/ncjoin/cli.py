"""Command-line front end.

Every command prints a report, as an aligned table by default or as
canonical JSON with --format json. JSON reports are deterministic: same
inputs and seed give byte-identical output. Each command takes only the
options its handler reads: --format everywhere, the solver's --max-iter
and --width on `joinings find` and `joinings disjoint`, and --seed on
`dual classify`. Exit codes: 0 success, 1 internal invariant violation,
2 malformed input (unreadable files, non-finite entries, out-of-range
arguments, empty windows, unsupported groups, options a command does not
take), 3 inconclusive solver verdict. A reader that closes the output
early, as `| head` does, ends the command quietly with its own exit code.

Input files may be replaced by corpus references like ``corpus:c3``.

Where a command's result is one library object, its results section is
that object's fields in their order, nested for each element report:
`classify` prints `Classification` under "classification", and
`ornstein`, `dual classify` and `dual ornstein` print `OrnsteinScan`,
`DualClassification` and `DualOrnsteinScan`.

The dual commands import ``ncjoin.dual`` in their handlers and loader, so
that a finite command never loads the exact dual layer.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import random
import sys as _sys
from pathlib import Path

import numpy as np

from . import corpus, fileio
from .errors import InputFormatError, NcjoinError, _integer
from .gns import cesaro_correlation, classify_finite
from .joinings import (
    DEFAULT_MAX_ITER,
    DEFAULT_WIDTH,
    build_tensor_context,
    cesaro_diagonal_average,
    diagonal_state,
    disjointness_test,
    find_joining,
    graph_joining,
    mirror_context,
    ornstein_ratio_scan,
)


# ---------------------------------------------------------------------------
# serialization helpers


def _json_default(x):
    """What `json.dumps` cannot write itself: a numpy scalar or array as its
    list, a complex number as [re, im], anything else (a Fraction, an exact
    scalar) as its string."""
    if hasattr(x, "tolist"):
        return x.tolist()
    if isinstance(x, complex):
        return [x.real, x.imag]
    return str(x)


def _sig6(x) -> str:
    """Number with 6 significant digits for tables; [float, float] is complex."""
    if isinstance(x, (list, tuple)) and len(x) == 2 and all(isinstance(v, float) for v in x):
        x = complex(x[0], x[1])
    elif isinstance(x, (list, tuple)):
        return "[" + ", ".join(_sig6(v) for v in x) + "]"
    if isinstance(x, complex):
        if abs(x.imag) < 5e-16:
            return _sig6(x.real)
        sign = "+" if x.imag >= 0 else "-"
        return f"{x.real:.6g}{sign}{abs(x.imag):.6g}i"
    if isinstance(x, float):
        return f"{x:.6g}"
    return str(x)


def _flatten(prefix: str, value, rows: list):
    if isinstance(value, dict):
        for k in value:
            _flatten(f"{prefix}.{k}" if prefix else str(k), value[k], rows)
    elif isinstance(value, list) and value and isinstance(value[0], dict):
        for i, v in enumerate(value):
            _flatten(f"{prefix}[{i}]", v, rows)
    else:
        rows.append((prefix, _sig6(value)))


def emit_report(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, sort_keys=True, indent=2, default=_json_default)
    rows: list[tuple[str, str]] = []
    _flatten("", json.loads(json.dumps(report, default=_json_default)), rows)
    width = max((len(k) for k, _ in rows), default=0)
    return "\n".join(f"{k.ljust(width)}  {v}" for k, v in rows)


def _load_source(ref: str, family: str | None = None) -> tuple[object, dict]:
    """The parsed JSON of a path or corpus:NAME reference, and its input record.

    An object with "blocks" is a finite system and one with "family" a dual
    system; a source of the other family than `family` is refused.
    """
    if ref.startswith("corpus:"):
        text = corpus.text(ref.split(":", 1)[1])
    else:
        try:
            text = Path(ref).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise InputFormatError(f"cannot read {ref}: {_reason(exc)}") from exc
    data = json.loads(text)
    if family is not None and isinstance(data, dict):
        found = ("finite system" if "blocks" in data else
                 "dual system" if "family" in data else family)
        if found != family:
            raise InputFormatError(f"{ref} is a {found}; this command reads a {family}")
    return data, {"ref": ref, "sha256": hashlib.sha256(text.encode()).hexdigest()[:16]}


def _reason(exc: Exception) -> str:
    """An OS error's own message without its errno and path; else the error's text."""
    return getattr(exc, "strerror", None) or str(exc)


def _load_system(ref: str):
    data, rec = _load_source(ref, "finite system")
    sysd = fileio.load_system(data)
    if not sysd.validation.valid:
        raise InputFormatError(f"{ref}: invalid system: {sysd.validation}")
    return sysd, rec


def _load_dual(ref: str):
    from .dual import load_dual

    data, rec = _load_source(ref, "dual system")
    return load_dual(data), rec


def _parse_window(text: str) -> range:
    lo, sep, hi = text.rpartition("..")
    try:
        window = range(int(lo) if sep else 0, int(hi) + 1)
    except ValueError as exc:
        raise InputFormatError(f"malformed window {text!r}; use like 0..32") from exc
    if not window:
        raise InputFormatError(f"empty window {text!r}; use like 0..32")
    return window


def _index(text, size: int) -> int:
    """An index below `size`; a non-integer raises ValueError."""
    i = int(text)
    if not 0 <= i < size:
        raise InputFormatError(f"index {i} is out of range 0..{size - 1}")
    return i


def _basis_pair(ctx, text: str) -> tuple[int, int]:
    """Basis indices 'i,j' of e_i ⊗ f_j."""
    try:
        i, j = text.split(",")
        return _index(i, ctx.dim_a), _index(j, ctx.dim_b)
    except ValueError as exc:
        raise InputFormatError(f"basis pair must be 'i,j', got {text!r}") from exc


def _folner_index(n: int) -> int:
    if n < 1:
        raise InputFormatError(f"--N must be >= 1, got {n}")
    return n


# ---------------------------------------------------------------------------
# command handlers; each returns (results dict, warnings list, status str)


def _cmd_classify(args):
    sysd, rec = _load_system(args.system)
    cls = classify_finite(sysd)
    results = {
        "classification": vars(cls),
        "point_spectrum": [
            {"eigenvalue": list(e.eigenvalue), "multiplicity": e.multiplicity}
            for e in sysd.spectrum.entries
        ],
    }
    return {"system": rec}, results, [], "ok"


def _parse_vector(text: str, sysd):
    if text == "omega":
        return sysd.gns.cyclic_vector
    try:
        return np.eye(sysd.dimension)[:, _index(text, sysd.dimension)]
    except ValueError:
        pass
    try:
        vec = np.array([fileio._entry_from_json(x) for x in json.loads(text)])
    except (ValueError, TypeError) as exc:
        raise InputFormatError("vector must be an index, 'omega' or JSON coefficients") from exc
    if vec.size != sysd.dimension:
        raise InputFormatError(
            f"vector has {vec.size} coordinates, expected {sysd.dimension}")
    return vec


def _cmd_average(args):
    sysd, rec = _load_system(args.system)
    x = _parse_vector(args.x, sysd)
    y = _parse_vector(args.y, sysd)
    res = cesaro_correlation(sysd, x, y, _folner_index(args.N))
    return {"system": rec}, {**vars(res), "N": args.N}, [], "ok"


def _parse_objective_file(ctx, ref: str):
    data, _ = _load_source(ref)
    terms = data.get("terms") if isinstance(data, dict) else None
    if not isinstance(terms, list):
        raise InputFormatError(f"{ref}: objective file needs a 'terms' list")
    elem = ctx.structure.zero()
    for t in terms:
        try:
            coef = fileio._entry_from_json(t.get("coef", [1.0, 0.0]))
            i = _index(_integer(t["i"], "objective term i"), ctx.dim_a)
            j = _index(_integer(t["j"], "objective term j"), ctx.dim_b)
            elem = elem + coef * ctx.basis_pair(i, j)
        except (AttributeError, KeyError, TypeError, ValueError, InputFormatError) as exc:
            raise InputFormatError(f"{ref}: malformed objective term {t!r}: {exc}") from exc
    return elem


def _cmd_joinings_find(args):
    A, rec_a = _load_system(args.a)
    B, rec_b = _load_system(args.b)
    ctx = build_tensor_context(A, B)
    objective = None
    if args.objective_file is not None:
        objective = _parse_objective_file(ctx, args.objective_file)
    elif args.objective is not None:
        objective = _basis_pair(ctx, args.objective)
    jm, rep = find_joining(ctx, objective=objective, max_iter=args.max_iter, width=args.width)
    status = "inconclusive" if rep.inconclusive else "ok"
    results = {
        "label": jm.label,
        "achieved": rep.lower,
        "lower": rep.lower,
        "upper": rep.upper,
        "dual_floor": rep.dual_floor,
        "tangent_dim": rep.tangent_dim,
        "iterations": rep.iterations,
        "oracle_calls": rep.oracle_calls,
        "residuals": jm.residuals,
        "inconclusive": rep.inconclusive,
        "message": rep.message,
    }
    return {"a": rec_a, "b": rec_b}, results, [], status


def _cmd_joinings_disjoint(args):
    A, rec_a = _load_system(args.a)
    B, rec_b = _load_system(args.b)
    ctx = build_tensor_context(A, B)
    cert = disjointness_test(ctx, max_iter=args.max_iter, width=args.width)
    results = {
        "verdict": cert.verdict,
        "tangent_dim": cert.tangent_dim,
        "directions_scanned": cert.directions_scanned,
        "min_margin": cert.min_margin,
    }
    if cert.verdict == "not_disjoint":
        i, j, wgt = cert.witness_direction
        results["witness"] = {
            "direction": [i, j],
            "weight": complex(wgt),
            "gap": cert.witness_gap,
            "residuals": cert.witness.residuals,
        }
    if cert.verdict == "disjoint":
        results["max_gap_bound"] = cert.max_gap_bound
    status = "inconclusive" if cert.verdict == "inconclusive" else "ok"
    return {"a": rec_a, "b": rec_b}, results, [], status


def _cmd_joinings_diagonal(args):
    sysd, rec = _load_system(args.system)
    jm = diagonal_state(sysd) if args.graph_n is None else graph_joining(sysd, args.graph_n)
    results = {
        "label": jm.label,
        "residuals": jm.residuals,
        "values": jm.values,
    }
    return {"system": rec}, results, [], "ok"


def _cmd_ornstein(args):
    sysd, rec = _load_system(args.system)
    window = _parse_window(args.window)
    ctx = mirror_context(sysd)
    if args.elements:
        pairs = [_basis_pair(ctx, chunk) for chunk in args.elements.split(";")]
    else:
        pairs = [(i, i) for i in range(ctx.dim_a)]
    elements = [ctx.basis_pair(i, j) for i, j in pairs]
    labels = [f"e{i}xf{j}" for i, j in pairs]
    scan = ornstein_ratio_scan(ctx, elements, window, labels=labels)
    results = {**vars(scan), "elements": [vars(r) for r in scan.elements]}
    warnings = []
    if scan.period is None:
        warnings.append("no exact recurrence within the window")
    return {"system": rec}, results, warnings, "ok"


def _cmd_cesaro_diagonal(args):
    sysd, rec = _load_system(args.system)
    res = cesaro_diagonal_average(sysd, _folner_index(args.N))
    warnings = []
    if not res.ergodic:
        warnings.append("system is not ergodic; the average need not approach the product")
    results = {"deviation": res.deviation, "N": args.N}
    return {"system": rec}, results, warnings, "ok"


def _dual_coherence(sysd, cls, samples: int, seed: int) -> dict:
    """Sampled cross-checks of the orbits against the classification `cls`:
    an ergodic group has no finite orbit but the identity's, and a compact
    one no infinite orbit.

    The samples are counted by orbit kind as they are drawn, so each
    violation count is read off the kind counts.
    """
    from .dual import orbit_kind_counts

    finite, identity = orbit_kind_counts(sysd, random.Random(seed), samples)
    return {
        "samples": samples,
        "seed": seed,
        "finite_orbits": finite,
        "infinite_orbits": samples - finite,
        "violations": cls.ergodic * (finite - identity) + cls.compact * (samples - finite),
    }


def _cmd_dual_classify(args):
    from .dual import classify_dual

    sysd, rec = _load_dual(args.group)
    cls = classify_dual(sysd)
    results = dict(vars(cls))
    if args.samples:
        results["coherence"] = _dual_coherence(sysd, cls, args.samples, args.seed)
    return {"group": rec}, results, [], "ok"


def _cmd_dual_orbit(args):
    sysd, rec = _load_dual(args.group)
    g = sysd.parse(args.word)
    cert = sysd.orbit_length(g)
    results = {
        "element": sysd.format(g),
        "orbit": cert.kind,
    }
    if cert.kind == "finite":
        results["period"] = cert.period
    else:
        results["escaping_letter"] = f"{cert.escaping[0]}{cert.escaping[1]}"
    return {"group": rec}, results, [], "ok"


def _cmd_dual_correlations(args):
    from .dual import correlation_series, parse_combination

    sysd, rec = _load_dual(args.group)
    a = parse_combination(sysd, args.a)
    b = parse_combination(sysd, args.b)
    window = _parse_window(args.n)
    series = correlation_series(sysd, a, b, window)
    text = {key: str(v) for key, v in {id(v): v for v in series.centered + series.raw}.items()}
    results = {
        "n": list(series.ns),
        "centered": [text[id(v)] for v in series.centered],
        "raw": [text[id(v)] for v in series.raw],
        "cauchy_schwarz_ok": series.bound_satisfied(),
    }
    return {"group": rec}, results, [], "ok"


def _default_pair_element(sysd):
    """Two diagonal terms λ(g) ⊗ ρ(g) over small sample elements."""
    from fractions import Fraction

    from .dual import FinPerm, QQi

    spec = sysd.spec
    track = spec.tracks[0]
    if sysd.family == "free":
        g1 = (((track.id, 0), 1),)
        g2 = (((track.id, 1 % (track.m or 10**9)), 1),)
        if g1 == g2:
            return {(g1, g1): QQi(Fraction(1))}
        return {(g1, g1): QQi(Fraction(1)), (g2, g2): QQi(Fraction(1))}
    letters = []
    for t in spec.tracks:
        rng = range(t.m) if t.kind == "cycle" else range(3)
        letters.extend((t.id, i) for i in rng)
    if len(letters) < 2:
        raise InputFormatError("group too small for a default test element")
    p1 = FinPerm.from_cycles([letters[:2]])
    p2 = FinPerm.from_cycles([letters[1:3]]) if len(letters) >= 3 else p1
    out = {(p1, p1): QQi(Fraction(1))}
    out[(p2, p2)] = out.get((p2, p2), QQi()) + QQi(Fraction(1))
    return out


def _cmd_dual_ornstein(args):
    from .dual import ornstein_scan_dual, parse_pair_combination

    sysd, rec = _load_dual(args.group)
    window = _parse_window(args.window)
    if args.elements:
        cs = [parse_pair_combination(sysd, args.elements)]
        labels = ["user element"]
    else:
        cs = [_default_pair_element(sysd)]
        labels = ["default element"]
    scan = ornstein_scan_dual(sysd, cs, window, labels=labels)
    results = {**vars(scan), "elements": [vars(r) for r in scan.elements]}
    return {"group": rec}, results, [], "ok"


_EXPERIMENT_CANDIDATES = ("dual_cycle2",)


def _cmd_dual_joining(args):
    from .dual import classify_dual, opposite_group_joining

    sysd, rec = _load_dual(args.group)
    oj = opposite_group_joining(sysd)
    sub = oj.subsystem
    results = {
        "trivial": sub.trivial,
        "finite_orbit_subsystem": sub.description,
    }
    if oj.witness is not None:
        g, h = oj.witness
        results["witness"] = {
            "g": sysd.format(g),
            "h": sysd.format(h),
            "joining_value": oj.evaluate(g, h),
            "product_value": oj.product_value(g, h),
        }
    warnings = []
    if args.experiment:
        if not sub.trivial:
            raise InputFormatError("--experiment expects an ergodic dual system")
        findings = []
        for name in _EXPERIMENT_CANDIDATES:
            cand = corpus.dual(name)
            findings.append({
                "candidate": name,
                "candidate_compact": classify_dual(cand).compact,
                "diagonal_construction_joining": "trivial (no shared finite orbits)",
            })
        results["experiment"] = {
            "method": "opposite-group diagonal construction against compact candidates",
            "findings": findings,
            "conclusion": None,
        }
        warnings.append(
            "experiment draws no conclusion; absence of a witness in this family proves nothing")
    return {"group": rec}, results, warnings, "ok"


def _cmd_corpus(args):
    if args.action == "list":
        results = {"finite_systems": list(corpus.FINITE_SYSTEMS),
                   "dual_systems": list(corpus.DUAL_SYSTEMS)}
    elif args.action == "show":
        if not args.name:
            raise InputFormatError("corpus show needs a name")
        results = {"name": args.name, "content": corpus.raw(args.name)}
    else:   # "export", the parser's last choice
        if not args.name:
            raise InputFormatError("corpus export needs a target directory")
        try:
            results = {"written": corpus.export(args.name)}
        except OSError as exc:
            raise InputFormatError(f"cannot export to {args.name}: {_reason(exc)}") from exc
    return {}, results, [], "ok"


# ---------------------------------------------------------------------------
# parser


def _ranged(convert, ok, need: str):
    """An argparse type: `convert`, then reject values for which `ok` fails."""
    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {need}, got {text}")
        return value
    parse.__name__ = convert.__name__   # argparse names the type in its messages
    return parse


_COUNT = _ranged(int, lambda n: n >= 0, ">= 0")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ncjoin",
        description="Mixing classification and joinings of finite-dimensional "
                    "dynamical systems, plus exact dual-system combinatorics.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def command(parent, name, func, summary):
        p = parent.add_parser(name, help=summary)
        p.set_defaults(func=func)
        p.add_argument("--format", choices=("json", "table"), default="table")
        return p

    def solver_options(p):
        p.add_argument("--max-iter", type=_COUNT, default=DEFAULT_MAX_ITER,
                       help="Newton-step cap of a joining solve")
        p.add_argument("--width", type=_ranged(float, lambda w: math.isfinite(w) and w > 0,
                                               "finite and positive"),
                       default=DEFAULT_WIDTH,
                       help="gap tolerance: a joining solve ends when upper - lower <= width")

    p = command(sub, "classify", _cmd_classify, "classification and point spectrum")
    p.add_argument("--system", required=True)

    p = command(sub, "average", _cmd_average, "Cesaro average of a GNS correlation")
    p.add_argument("--system", required=True)
    p.add_argument("--x", required=True, help="basis index, 'omega', or JSON coefficients")
    p.add_argument("--y", required=True)
    p.add_argument("--N", type=int, required=True)

    p = command(sub, "cesaro-diagonal", _cmd_cesaro_diagonal,
                "averaged diagonal state vs the product")
    p.add_argument("--system", required=True)
    p.add_argument("--N", type=int, required=True)

    pj = sub.add_parser("joinings", help="joining solver commands")
    jsub = pj.add_subparsers(dest="subcommand", required=True)

    p = command(jsub, "find", _cmd_joinings_find,
                "feasible joining, optionally maximizing a direction")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    objective = p.add_mutually_exclusive_group()
    objective.add_argument("--objective", default=None, help="basis direction as 'i,j'")
    objective.add_argument("--objective-file", default=None,
                           help="JSON file {'terms': [{'i':0,'j':0,'coef':[re,im]}, ...]}")
    solver_options(p)

    p = command(jsub, "disjoint", _cmd_joinings_disjoint, "disjointness certificate")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    solver_options(p)

    p = command(jsub, "diagonal", _cmd_joinings_diagonal, "diagonal state or its graph shift")
    p.add_argument("--system", required=True)
    p.add_argument("--graph-n", type=int, default=None)

    p = command(sub, "ornstein", _cmd_ornstein, "ratio scan of the shifted diagonal state")
    p.add_argument("--system", required=True)
    p.add_argument("--window", required=True,
                   help="like 0..32; write a negative start as --window=-4..4")
    p.add_argument("--elements", default=None, help="basis pairs 'i,j;i,j'")

    pd = sub.add_parser("dual", help="exact dual-system commands")
    dsub = pd.add_subparsers(dest="subcommand", required=True)

    p = command(dsub, "classify", _cmd_dual_classify, "exact orbit classification")
    p.add_argument("--group", required=True)
    p.add_argument("--samples", type=_COUNT, default=0,
                   help="sampled coherence checks between orbits and flags")
    p.add_argument("--seed", type=int, default=0, help="seed of the sampled elements")

    p = command(dsub, "orbit", _cmd_dual_orbit, "orbit certificate of one element")
    p.add_argument("--group", required=True)
    p.add_argument("--word", required=True)

    p = command(dsub, "correlations", _cmd_dual_correlations,
                "exact centered correlation series")
    p.add_argument("--group", required=True)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--n", required=True,
                   help="window like 0..64; write a negative start as --n=-4..4")

    p = command(dsub, "ornstein", _cmd_dual_ornstein, "exact ratio scan with escape bounds")
    p.add_argument("--group", required=True)
    p.add_argument("--window", required=True,
                   help="like 0..32; write a negative start as --window=-4..4")
    p.add_argument("--elements", default=None,
                   help="pair combination like '1 * x0 | x0; x1 | x1'")

    p = command(dsub, "joining", _cmd_dual_joining,
                "finite-orbit joining with the opposite group")
    p.add_argument("--group", required=True)
    p.add_argument("--experiment", action="store_true",
                   help="scan compact candidates for an ergodic input; draws no conclusion")

    p = command(sub, "corpus", _cmd_corpus, "bundled example corpus")
    p.add_argument("action", choices=("list", "show", "export"))
    p.add_argument("name", nargs="?", default=None,
                   help="corpus entry for 'show', directory for 'export'")

    return ap


def _error_report(command: str, message: str) -> dict:
    return {"command": command, "inputs": {}, "results": {}, "warnings": [],
            "status": "error", "error": message}


def _execute(args) -> tuple[dict, int]:
    command = args.command + ("." + args.subcommand if hasattr(args, "subcommand") else "")
    try:
        inputs, results, warnings, status = args.func(args)
    except (InputFormatError, json.JSONDecodeError) as exc:   # every JSON the CLI parses is input
        return _error_report(command, str(exc)), 2
    except NcjoinError as exc:
        return _error_report(command, f"internal invariant violation: {exc}"), 1
    report = {
        "command": command,
        "inputs": inputs,
        "results": results,
        "warnings": warnings,
        "status": status,
    }
    return report, 0 if status == "ok" else 3


def run(argv=None) -> tuple[dict, int]:
    """Execute one command; returns (report, exit code)."""
    return _execute(build_parser().parse_args(argv))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    report, code = _execute(args)
    stream = _sys.stderr if report["status"] == "error" else _sys.stdout
    try:
        print(emit_report(report, args.format), file=stream, flush=True)
    except BrokenPipeError:
        # the reader stopped early (`| head`): what is left of the report is
        # dropped, and so is the interpreter's own final flush of the stream
        os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
    return code


if __name__ == "__main__":
    raise SystemExit(main())
