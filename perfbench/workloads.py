"""The benchmark's workloads: inputs made from a seed, tasks, and checks.

A workload's ``setup`` loads or generates its systems and returns the
tasks of one pass. A task's ``run`` is the timed call; its ``check`` runs
afterwards, untimed, and returns a failure message or None. Checks compare
result fields with tolerances against references that do not come from the
solver: closed-form optima, the verdicts and gaps pinned by the test suite,
marginal bounds and exact recurrence periods.

The seed changes the inputs but not the amount of work: it picks the
objective direction of each corpus pair (all directions of a pair have the
same optimum and the same iteration count, by symmetry), the objective of
each rotation rung, the phase that conjugates the Ad(u) rung (an
isomorphic system with the same optimum), the random M3 system and the
order of the tasks.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# Calls go through module attributes so that the tracer's wrappers apply.
from ncjoin import cli, corpus, fileio, joinings
from ncjoin.algebra import cyclic_rotation_system, single_block_system
from ncjoin.joinings import residual_magnitude

BATTERY_TOL = 1e-8        # joining battery, as in the acceptance suite
OPTIMUM_TOL = 2e-6        # bisection width 1e-6, plus slack for its midpoint
GAP_TOL = 1e-4            # witness gaps, as pinned by the tests
M2_PINNED_OPTIMUM = 0.4996492855260036   # at the commit that defined this benchmark
M2_VALUE_TOL = 1e-5


@dataclass
class Task:
    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    probe: str = "solver"     # reference-kernel mix, see probe.MIXES


def _haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / abs(d))


def _solve(a, b, objective):
    def run():
        return joinings.find_joining(joinings.build_tensor_context(a, b), objective=objective)
    return run


def _check_optimum(objective, lower: float, expected: float | None, upper: float,
                   pinned: float | None = None):
    def check(result):
        jm, _ = result
        battery = residual_magnitude(jm.residuals)
        if not battery < BATTERY_TOL:
            return f"joining battery {battery:.3g} >= {BATTERY_TOL}"
        value = float(jm.values[objective].real)
        if expected is not None and abs(value - expected) > OPTIMUM_TOL:
            return f"optimum {value!r} differs from {expected!r}"
        if not lower - 1e-9 <= value <= upper + 1e-9:
            return f"optimum {value!r} outside [{lower!r}, {upper!r}]"
        if pinned is not None and abs(value - pinned) > M2_VALUE_TOL:
            return f"optimum {value!r} differs from the pinned {pinned!r}"
        return None
    return check


def _rotation_points(name: str) -> tuple[str, int]:
    return name.rstrip("0123456789"), int(name.lstrip("cid"))


def setup_corpus_find(seed: int, workdir: Path) -> list[Task]:
    """The acceptance fixture's maximizations, one direction per pair."""
    systems = {n: corpus.system(n) for n in ("c2", "c3", "id2", "id3")}
    fixture = [
        ("c2", "c2", [(0, 0), (0, 1), (1, 0), (1, 1)]),
        ("c2", "c3", [(0, 0), (1, 1), (0, 2), (1, 0)]),
        ("c3", "c3", [(0, 0), (1, 1), (2, 0), (0, 1)]),
        ("c2", "id2", [(0, 0), (0, 1), (1, 0), (1, 1)]),
        ("c3", "id3", [(0, 0), (1, 1), (2, 2), (0, 1)]),
    ]
    tasks = []
    for k, (na, nb, objectives) in enumerate(fixture):
        obj = objectives[(seed + k) % len(objectives)]
        _, p = _rotation_points(na)
        kind_b, q = _rotation_points(nb)
        # invariant couplings of two uniform rotations: gcd(p,q)/(pq);
        # against an identity system only the product survives: 1/(pq)
        best = math.gcd(p, q) / (p * q) if kind_b == "c" else 1 / (p * q)
        tasks.append(Task(
            f"{na}x{nb}:{obj[0]},{obj[1]}",
            _solve(systems[na], systems[nb], obj),
            _check_optimum(obj, 1 / (p * q), best, min(1 / p, 1 / q)),
        ))
    random.Random(seed).shuffle(tasks)
    return tasks


def _disjoint(a, b):
    def run():
        return joinings.disjointness_test(joinings.build_tensor_context(a, b))
    return run


def _check_verdict(verdict: str):
    def check(cert):
        if cert.verdict != verdict:
            return f"verdict {cert.verdict!r}, expected {verdict!r}"
        if verdict == "disjoint" and not cert.max_gap_bound <= 1e-5:
            return f"max_gap_bound {cert.max_gap_bound!r} > 1e-5"
        if verdict == "not_disjoint":
            if abs(cert.witness_gap - 0.25) > GAP_TOL:
                return f"witness gap {cert.witness_gap!r}, expected 0.25"
            battery = residual_magnitude(cert.witness.residuals)
            if not battery < BATTERY_TOL:
                return f"witness battery {battery:.3g} >= {BATTERY_TOL}"
        return None
    return check


def setup_corpus_disjoint(seed: int, workdir: Path) -> list[Task]:
    """Disjointness verdicts pinned by the tests, disjoint and not."""
    s = {n: corpus.system(n) for n in ("c2", "c3", "c5", "id3", "pauli")}
    pairs = [
        ("c5", "id3", "disjoint"),
        ("c2", "c3", "disjoint"),
        ("c2", "c2", "not_disjoint"),
        ("pauli", "pauli", "not_disjoint"),
    ]
    tasks = [Task(f"{a}x{b}", _disjoint(s[a], s[b]), _check_verdict(v))
             for a, b, v in pairs]
    random.Random(seed).shuffle(tasks)
    return tasks


def setup_ladder(seed: int, workdir: Path) -> list[Task]:
    """Larger tensor dimension D: C4xC4 (16), C5xC5 (25), Ad(u) M2xM2 (16)."""
    tasks = []
    for p in (4, 5):
        sysp = cyclic_rotation_system(p)
        obj = (seed % p, (seed // p) % p)
        tasks.append(Task(f"C{p}xC{p}", _solve(sysp, sysp, obj),
                          _check_optimum(obj, 1 / p ** 2, 1 / p, 1 / p)))
    # u0 is fixed; the seed's diagonal phase gives an isomorphic system that
    # fixes the matrix unit e_00, so the optimum for (0,0) is unchanged
    u0 = _haar_unitary(np.random.default_rng(2008), 2)
    phase = np.diag([1.0, np.exp(1j * random.Random(seed).uniform(0, 2 * math.pi))])
    m2 = single_block_system(phase @ u0 @ phase.conj().T)
    # tracial state: product value 1/4; a coupling of two projections of
    # trace 1/2 is at most 1/2 (marginal bound)
    tasks.append(Task("M2xM2", _solve(m2, m2, (0, 0)),
                      _check_optimum((0, 0), 0.25, None, 0.5, M2_PINNED_OPTIMUM)))
    random.Random(seed).shuffle(tasks)
    return tasks


def _results(report: dict) -> dict:
    return report["results"]


def _expect(**fields):
    """Check exact result fields (flags, periods, exact rationals) by name.

    A field expected as a string is compared in its printed form, which is
    how exact rationals are written in the reports.
    """
    def check(report):
        res = _results(report)
        for key, want in fields.items():
            got = res.get(key)
            if (str(got) if isinstance(want, str) else got) != want:
                return f"{key}={got!r}, expected {want!r}"
        return None
    return check


def _expect_class(ergodic: bool, weakly_mixing: bool, fixed_dim: int):
    def check(report):
        c = _results(report)["classification"]
        got = (c["ergodic"], c["weakly_mixing"], c["compact"], c["fixed_algebra_dimension"])
        want = (ergodic, weakly_mixing, True, fixed_dim)
        return None if got == want else f"classification {got}, expected {want}"
    return check


def _expect_below(key: str, limit_key: str | None = None, limit: float = 0.0):
    def check(report):
        res = _results(report)
        bound = res[limit_key] if limit_key else limit
        return None if res[key] <= bound else f"{key}={res[key]!r} > {bound!r}"
    return check


def _expect_battery(report):
    worst = residual_magnitude(_results(report)["residuals"])
    return None if worst < BATTERY_TOL else f"joining battery {worst:.3g} >= {BATTERY_TOL}"


def _ok(report):
    return None


def _commands(seed: int, files: dict[str, str]):
    """Analysis commands by task, each as (argv, check)."""
    corpus_cmds = [
        (["corpus", "list"], lambda r: None if len(_results(r)["finite_systems"]) == 7
         else "corpus list incomplete"),
        (["classify", "--system", "corpus:c5"], _expect_class(True, False, 1)),
        (["classify", "--system", "corpus:pauli"], _ok),
        (["average", "--system", "corpus:c3", "--x", "0", "--y", "0", "--N", "1000"],
         _expect_below("deviation", "remainder_bound")),
        (["joinings", "diagonal", "--system", "corpus:c2", "--graph-n", "1"], _expect_battery),
        (["ornstein", "--system", "corpus:c2", "--window", "0..16"], _expect(period=2)),
        (["ornstein", "--system", "corpus:c3", "--window", "0..16"], _expect(period=3)),
        (["cesaro-diagonal", "--system", "corpus:c3", "--N", "12"],
         _expect_below("deviation", limit=1e-9)),
    ]
    dual_cmds = [
        (["dual", "classify", "--group", "corpus:dual_shift", "--samples", "2000",
          "--seed", str(seed)],
         lambda r: _expect(ergodic=True, strongly_mixing=True, compact=False)(r)
         or (None if _results(r)["coherence"]["violations"] == 0 else "coherence violations")),
        (["dual", "classify", "--group", "corpus:dual_mixed", "--samples", "2000",
          "--seed", str(seed)], _expect(ergodic=False, compact=False)),
        (["dual", "orbit", "--group", "corpus:dual_mixed", "--word", "x0 y1"],
         _expect(orbit="infinite")),
        (["dual", "correlations", "--group", "corpus:dual_shift", "--a", "x0",
          "--b", "x5^-1", "--n", "0..512"], _expect(cauchy_schwarz_ok=True)),
        (["dual", "ornstein", "--group", "corpus:dual_cycle2", "--window", "0..512"],
         _expect(strongly_mixing=False, max_limsup="2")),
        (["dual", "ornstein", "--group", "corpus:dual_shift", "--window", "0..512"],
         _expect(strongly_mixing=True)),
        (["dual", "joining", "--group", "corpus:dual_shift", "--experiment"],
         _expect(trivial=True)),
        (["dual", "joining", "--group", "corpus:dual_mixed"], _expect(trivial=False)),
    ]

    def generated(name, ergodic, fixed_dim, period, cesaro_n):
        f = files[name]
        average = (_expect_below("deviation", "remainder_bound") if ergodic else _ok)
        cesaro = _expect_below("deviation", limit=1e-9) if ergodic else _ok
        return [
            (["classify", "--system", f], _expect_class(ergodic, False, fixed_dim)),
            (["ornstein", "--system", f, "--window", "0..16"], _expect(period=period)),
            (["cesaro-diagonal", "--system", f, "--N", str(cesaro_n)], cesaro),
            (["joinings", "diagonal", "--system", f, "--graph-n", "1"], _expect_battery),
            (["average", "--system", f, "--x", "0", "--y", "0", "--N", "100"], average),
        ]

    return {
        "corpus": corpus_cmds,
        "dual": dual_cmds,
        # a random Ad(u) on M3 fixes exactly the diagonal of u's eigenbasis
        # and has no exact period
        "M3": generated("M3", False, 3, None, 12),
        "C8": generated("C8", True, 1, 8, 16),
        "C12": [
            (["classify", "--system", files["C12"]], _expect_class(True, False, 1)),
            (["ornstein", "--system", files["C12"], "--window", "0..16"], _expect(period=12)),
        ],
    }


def _cli_task(name, commands, probe):
    def run():
        return [cli.run(argv) for argv, _ in commands]

    def check(outputs):
        for (argv, check_one), (report, code) in zip(commands, outputs):
            if code != 0 or report["status"] != "ok":
                return f"{' '.join(argv)}: exit {code}, {report.get('error', report['status'])}"
            problem = check_one(report)
            if problem:
                return f"{' '.join(argv)}: {problem}"
        return None

    return Task(name, run, check, probe)


def setup_analysis(seed: int, workdir: Path) -> list[Task]:
    """README non-solver commands on the corpus and on generated systems."""
    workdir.mkdir(parents=True, exist_ok=True)
    generated = {
        "C8": cyclic_rotation_system(8),
        "C12": cyclic_rotation_system(12),
        "M3": single_block_system(_haar_unitary(np.random.default_rng(seed), 3)),
    }
    files = {}
    for name, sysd in generated.items():
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(fileio.dump_system(sysd)))
        files[name] = str(path)
    # the commutant null-space SVDs dominate the M3 and C12 commands
    tasks = [_cli_task(name, cmds, "dense" if name in ("M3", "C12") else "solver")
             for name, cmds in _commands(seed, files).items()]
    random.Random(seed).shuffle(tasks)
    return tasks


WORKLOADS = {
    "corpus-find": setup_corpus_find,
    "corpus-disjoint": setup_corpus_disjoint,
    "ladder": setup_ladder,
    "analysis": setup_analysis,
}
