"""The barrier Newton path: its line search and the steps of the benchmark's solves.

The line search is compared with the safeguarded Newton on ψ′ that it
replaced (`oracles.line_search_reference`). The Newton step counts,
brackets and verdicts of the solver tasks of the benchmark (seed 1
objectives) are pinned at the values of the long-step schedule: η grows
×30 per centred step, and on the second centred step in a row at least to
2ν/width. Each bracket holds its closed form (1/p, gcd(p, q)/(pq), the
witness optimum 1/2), and the M2 bracket lies within 1e-5 of the optimum
the benchmark pins. Rotation pairs C_p×C_q keep their closed form
1/lcm(p, q) within three steps, and the corpus's not-disjoint pairs keep
theirs at widths down to 1e-11.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncjoin import corpus, joinings
from ncjoin.algebra import cyclic_rotation_system
from ncjoin.joinings import build_tensor_context, disjointness_test, find_joining

from oracles import line_search_reference

STOP = 1e-6        # the line search's relative stop
AGREEMENT = 2e-6   # relative, against the reference


def _dpsi(lams, slope, s):
    """ψ′(s) for ψ(s) = −slope·s − Σ log(1 + s·λ_j)."""
    return -slope - float(np.sum(lams / (1 + s * lams)))


def _sign_change(lams, slope, s):
    """ψ′ changes sign across s within the stop tolerance (not beyond the pole)."""
    pole = -1 / lams.min()
    return (_dpsi(lams, slope, s * (1 - STOP)) <= 0
            <= _dpsi(lams, slope, min(s * (1 + STOP), (s + pole) / 2)))


@st.composite
def line_searches(draw):
    """(λ, slope): 1-30 eigenvalues, at least one negative, at a scale from
    1e-2 to 1e3, and a slope with ψ′(0) = −slope − Σ λ < 0.

    A Newton direction has −ψ′(0) = ψ″(0) = Σ λ², the squared Newton
    decrement; −ψ′(0) is drawn from 1e-3 to 1e3 times that.
    """
    n = draw(st.integers(min_value=1, max_value=30))
    unit = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
    lams = np.array([draw(st.floats(min_value=-1.0, max_value=-1e-3))]
                    + draw(st.lists(unit, min_size=n - 1, max_size=n - 1)))
    lams *= 10.0 ** draw(st.floats(min_value=-2.0, max_value=3.0))
    descent = float(lams @ lams) * 10.0 ** draw(st.floats(min_value=-3.0, max_value=3.0))
    return lams, descent - float(lams.sum())


@settings(max_examples=300, deadline=None)
@given(case=line_searches())
def test_line_search_matches_reference(case):
    lams, slope = case
    assert _dpsi(lams, slope, 0.0) < 0
    s = joinings._line_search(lams, slope)
    assert 0 < s < -1 / lams.min()
    assert _sign_change(lams, slope, s)
    # the reference can stop short next to the pole (see below); where it
    # meets its own stop rule, the two agree
    reference = line_search_reference(lams, slope)
    if _sign_change(lams, slope, reference):
        assert s == pytest.approx(reference, rel=AGREEMENT, abs=0)


def test_line_search_reaches_a_minimizer_next_to_the_pole():
    # one eigenvalue: ψ′(s) = 0 at 1 + s·λ = −λ/slope, 0.006% below the pole;
    # Newton on ψ′ creeps towards it from the pole's side and stops 6e-5 short
    lams, slope = np.array([-0.01447483]), 240.01447483490628
    root = (-lams[0] / slope - 1) / lams[0]
    assert joinings._line_search(lams, slope) == pytest.approx(root, rel=1e-12)
    assert line_search_reference(lams, slope) == pytest.approx(root, rel=1e-4)
    assert line_search_reference(lams, slope) != pytest.approx(root, rel=1e-5)


def test_line_search_zero_step():
    # ΔF ⪰ 0: the barrier never blocks the step
    assert joinings._line_search(np.array([0.0, 0.5]), -0.5) == 1.0


def _system(request, name):
    if name == "M2":
        return request.getfixturevalue("ladder_m2")
    if name in ("C4", "C5"):
        return cyclic_rotation_system(int(name[1]))
    return corpus.system(name)


# (a, b, objective or None for disjointness_test, verdict,
#  (Newton steps, lower, upper) of its barrier solve or None where none runs)
PINNED = [
    ("c2", "c2", (0, 1), None, (3, 0.49999999166666687, 0.500000250000125)),
    ("c2", "c3", (0, 2), None, (0, 0.16666666666666666, 0.16666666666666666)),
    ("c3", "c3", (0, 1), None, (3, 0.33333332222222234, 0.3333335000001666)),
    ("c2", "id2", (0, 0), None, (0, 0.25, 0.25)),
    ("c3", "id3", (1, 1), None, (0, 0.1111111111111111, 0.1111111111111111)),
    ("c5", "id3", None, "disjoint", None),
    ("c2", "c3", None, "disjoint", None),
    ("c2", "c2", None, "not_disjoint", (3, 0.4999999916666667, 0.5000002500001249)),
    ("pauli", "pauli", None, "not_disjoint", (3, 0.4999999916666667, 0.5000002500001248)),
    ("C4", "C4", (1, 0), None, (3, 0.24999998750000021, 0.2500001250001875)),
    ("C5", "C5", (1, 0), None, (3, 0.1999999866666669, 0.2000001000002)),
    ("M2", "M2", (0, 0), None, (6, 0.4996498831632853, 0.4996500465420498)),
]


@pytest.mark.parametrize("a,b,objective,verdict,path", PINNED,
                         ids=[f"{a}x{b}:" + (f"{o[0]},{o[1]}" if o else "disjoint")
                              for a, b, o, _, _ in PINNED])
def test_solver_tasks_keep_their_newton_path(request, monkeypatch, a, b, objective, verdict,
                                             path):
    reports = []
    solve = joinings._barrier_solve

    def recorded(*args, **kwargs):
        jm, report = solve(*args, **kwargs)
        reports.append(report)
        return jm, report

    monkeypatch.setattr(joinings, "_barrier_solve", recorded)
    ctx = build_tensor_context(_system(request, a), _system(request, b))
    if objective is None:
        assert disjointness_test(ctx).verdict == verdict
    else:
        _, report = find_joining(ctx, objective=objective)
        assert not report.inconclusive
    if path is None:
        assert reports == []
        return
    (report,) = reports
    steps, lower, upper = path
    assert report.iterations == steps
    assert report.lower == pytest.approx(lower, rel=0, abs=1e-12)
    assert report.upper == pytest.approx(upper, rel=0, abs=1e-12)


@pytest.mark.parametrize("p,q", [(4, 6), (6, 9), (8, 12), (3, 5)])
def test_rotation_pairs_reach_their_closed_form_in_three_steps(p, q):
    # e_0 ⊗ f_0 is at most the weight 1/lcm(p, q) of the orbit of (0, 0)
    # under the joint rotation, and the invariant coupling on that orbit
    # attains it
    ctx = build_tensor_context(cyclic_rotation_system(p), cyclic_rotation_system(q))
    _, report = find_joining(ctx, objective=(0, 0))
    assert not report.inconclusive
    assert report.iterations <= 3
    assert report.lower - 1e-9 <= 1 / math.lcm(p, q) <= report.upper + 1e-9


@pytest.mark.parametrize("width", [1e-3, 1e-9, 1e-11])
@pytest.mark.parametrize("name,optimum", [("c2", 1 / 2), ("c3", 1 / 3), ("pauli", 1 / 2)])
def test_long_steps_keep_the_closed_form_at_every_width(name, optimum, width):
    """Every basis pair of c_p × c_p has optimum 1/p; pauli × pauli is
    checked on its witness direction (0, 0)."""
    sysd = corpus.system(name)
    ctx = build_tensor_context(sysd, sysd)
    pairs = [(0, 0)] if name == "pauli" else \
        [(i, j) for i in range(ctx.dim_a) for j in range(ctx.dim_b)]
    for pair in pairs:
        _, report = find_joining(ctx, objective=pair, width=width)
        assert not report.inconclusive, pair
        assert report.upper - report.lower <= width
        assert report.lower - 1e-12 <= optimum <= report.upper + 1e-12, pair
    assert disjointness_test(ctx, width=width).verdict == "not_disjoint"
