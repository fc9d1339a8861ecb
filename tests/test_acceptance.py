"""Acceptance suite.

One test per numbered criterion; each prints a single pass or fail line so
the run doubles as a checklist (use pytest -s to see the lines). Expected
values come from independent oracles: transportation-polytope linear
programs for the commutative instances, exact indicator combinatorics for
the dual systems, and hand-checked finite formulas elsewhere.
"""

import functools
import random
from fractions import Fraction

import numpy as np
import pytest

from ncjoin import corpus
from ncjoin.algebra import AlgebraElement, identity_system
from ncjoin.dual import (
    QQi,
    classify_dual,
    delta_n_eval,
    finite_orbit_subsystem,
    ornstein_scan_dual,
    parse_pair_combination,
    parse_word,
    sample_element,
)
from ncjoin.gns import (
    cesaro_correlation,
    classify_finite,
    modular_invariance_check,
    point_spectrum,
    point_spectrum_overlap,
)
from ncjoin.joinings import (
    build_tensor_context,
    conditional_expectation,
    diagonal_state,
    disjointness_test,
    find_joining,
    graph_joining,
    joining_face_dimension,
    joining_from_values,
    product_joining,
    residual_magnitude,
)

from oracles import (eigenoperator, invariant_segment_vertices, invariant_transportation_max,
                     verify_spectral_covariance)

OMEGA3 = np.exp(2j * np.pi / 3)


def criterion(number, summary):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] criterion {number}: FAIL - {summary}")
                raise
            print(f"[acceptance] criterion {number}: PASS - {summary}")
        return run
    return wrap


def _rotation_images(points):
    return [(i + 1) % points for i in range(points)]


@pytest.fixture(scope="module")
def solver_joinings():
    """Twenty optimizer outputs across corpus pairs, shared by criteria 4 and 10."""
    jobs = [
        ("c2", "c2", [(0, 0), (0, 1), (1, 0), (1, 1)]),
        ("c2", "c3", [(0, 0), (1, 1), (0, 2), (1, 0)]),
        ("c3", "c3", [(0, 0), (1, 1), (2, 0), (0, 1)]),
        ("c2", "id2", [(0, 0), (0, 1), (1, 0), (1, 1)]),
        ("c3", "id3", [(0, 0), (1, 1), (2, 2), (0, 1)]),
    ]
    out = []
    for name_a, name_b, objectives in jobs:
        ctx = build_tensor_context(corpus.system(name_a), corpus.system(name_b))
        for obj in objectives:
            jm, rep = find_joining(ctx, objective=obj)
            out.append((f"{name_a}x{name_b}:{obj}", ctx, jm, rep))
    assert len(out) == 20
    return out


@criterion(1, "ergodic C5 disjoint from the identity system on three points")
def test_criterion_01_disjoint_from_identity(c5, id3):
    ctx = build_tensor_context(c5, id3)
    cert = disjointness_test(ctx)
    assert cert.verdict == "disjoint"
    assert cert.max_gap_bound <= 1e-5
    # independent oracle: the 15-cell invariant transportation polytope is
    # the single product point, so every scanned maximum equals 1/15
    mu, nu = [0.2] * 5, [1 / 3] * 3
    sigma, tau = _rotation_images(5), list(range(3))
    for i in range(5):
        for j in range(3):
            cost = np.zeros((5, 3))
            cost[i, j] = 1.0
            best, _ = invariant_transportation_max(mu, nu, sigma, tau, cost)
            assert abs(best - mu[i] * nu[j]) < 1e-9


@criterion(2, "coprime spectra give disjointness; equal systems give the diagonal witness")
def test_criterion_02_spectrum_disjointness(c2, c3):
    common = point_spectrum_overlap(point_spectrum(c2), point_spectrum(c3))
    assert len(common) == 1 and abs(common[0][0] - 1) < 1e-10
    cert = disjointness_test(build_tensor_context(c2, c3))
    assert cert.verdict == "disjoint"
    assert cert.max_gap_bound <= 1e-5

    cert2 = disjointness_test(build_tensor_context(c2, corpus.system("c2")))
    assert cert2.verdict == "not_disjoint"
    i, j, w = cert2.witness_direction
    assert (i, j, w) == (0, 0, 1)
    assert cert2.witness_gap == pytest.approx(0.25, abs=1e-4)
    # oracle: the optimum of the invariant transportation polytope
    best, coupling = invariant_transportation_max(
        [0.5, 0.5], [0.5, 0.5], _rotation_images(2), _rotation_images(2),
        np.array([[1.0, 0], [0, 0]]))
    assert best == pytest.approx(0.5, abs=1e-12)
    assert best - 0.25 == pytest.approx(cert2.witness_gap, abs=1e-4)


@criterion(3, "Cesaro averages: exact at full periods, within 2/N in general")
def test_criterion_03_cesaro(c3):
    e0 = np.eye(3)[:, 0]
    for n in (3, 6, 300):
        assert cesaro_correlation(c3, e0, e0, n).deviation < 1e-9
    for n in (10, 100, 1000):
        assert cesaro_correlation(c3, e0, e0, n).deviation <= 2 / n


@criterion(4, "joining battery below 1e-8 for every constructor on the corpus")
def test_criterion_04_battery(solver_joinings):
    z_names = ("c2", "c3", "c5", "id2", "id3", "gibbs")
    systems = {name: corpus.system(name) for name in corpus.FINITE_SYSTEMS}
    for a in z_names:
        for b in z_names:
            ctx = build_tensor_context(systems[a], corpus.system(b))
            assert residual_magnitude(product_joining(ctx).residuals) < 1e-8, (a, b)
    pauli_ctx = build_tensor_context(systems["pauli"], corpus.system("pauli"))
    assert residual_magnitude(product_joining(pauli_ctx).residuals) < 1e-8
    for name in corpus.FINITE_SYSTEMS:
        assert residual_magnitude(diagonal_state(systems[name]).residuals) < 1e-8, name
    for name in z_names:
        for n in range(7):
            jm = graph_joining(systems[name], n)
            assert residual_magnitude(jm.residuals) < 1e-8, (name, n)
    for label, ctx, jm, rep in solver_joinings:
        assert residual_magnitude(jm.residuals) < 1e-8, label


@criterion(5, "diagonal coupling is extreme, the product is not")
def test_criterion_05_faces(c2):
    ctx = build_tensor_context(c2, corpus.system("c2"))
    diag = joining_from_values(ctx, np.diag([0.5, 0.5]), label="diagonal-coupling")
    assert joining_face_dimension(ctx, diag) == 0
    prod = product_joining(ctx)
    assert joining_face_dimension(ctx, prod) >= 1
    # oracle: vertex enumeration of the invariant transportation polytope,
    # which is the segment between the two shift couplings
    verts = invariant_segment_vertices(
        [0.5, 0.5], [0.5, 0.5], _rotation_images(2), _rotation_images(2))
    expected = {tuple(np.round(v.reshape(-1), 9)) for v in verts}
    assert expected == {(0.5, 0.0, 0.0, 0.5), (0.0, 0.5, 0.5, 0.0)}
    product_matrix = np.full((2, 2), 0.25)
    assert any(np.allclose(product_matrix, (v1 + v2) / 2)
               for v1 in verts for v2 in verts if not np.allclose(v1, v2))


@criterion(6, "orbit combinatorics classify the dual corpus exactly")
def test_criterion_06_dual_classification(dual_shift, dual_cycle2, dual_mixed):
    cs = classify_dual(dual_shift)
    assert (cs.ergodic, cs.strongly_mixing, cs.compact) == (True, True, False)
    cc = classify_dual(dual_cycle2)
    assert (cc.ergodic, cc.compact) == (False, True)
    cm = classify_dual(dual_mixed)
    assert (cm.ergodic, cm.compact) == (False, False)
    fos = finite_orbit_subsystem(dual_mixed)
    assert not fos.trivial
    assert fos.membership(parse_word(dual_mixed.spec, "y0 y1^-1"))
    assert not fos.membership(parse_word(dual_mixed.spec, "x0"))
    restricted = classify_dual(fos.restricted)
    assert restricted.compact and not restricted.ergodic
    assert {t.id for t in fos.restricted.spec.tracks} == {"y"}


@criterion(7, "shifted diagonal values collapse exactly past the index span")
def test_criterion_07_dual_graph_values(dual_shift, dual_cycle2):
    rng = random.Random(2024)
    pairs = []
    while len(pairs) < 12:
        g = sample_element(dual_shift, rng, max_len=3)
        h = sample_element(dual_shift, rng, max_len=3)
        pairs.append((g, h))
    pairs += [((), ()), ((), pairs[0][0] or (( ("x", 0), 1),))]
    for g, h in pairs:
        idxs = [i for w in (g, h) for (_, i), _ in w]
        span = (max(idxs) - min(idxs)) if idxs else 0
        limit = QQi(Fraction(int(g == () and h == ())))
        c = {(g, h): QQi(Fraction(1))}
        for n in range(0, 65):
            val = delta_n_eval(dual_shift, c, n).value
            if n > span:
                assert val == limit, (g, h, n)
    # cycle systems recur forever: the indicator series is periodic and
    # keeps returning to 1 while the product value is 0
    g = parse_word(dual_cycle2.spec, "x0")
    c = {(g, g): QQi(Fraction(1))}
    series = [delta_n_eval(dual_cycle2, c, n).value for n in range(0, 65)]
    assert all(series[n] == series[n + 2] for n in range(63))
    ones = [n for n, v in enumerate(series) if v == QQi(Fraction(1))]
    assert ones == list(range(0, 65, 2))


@criterion(8, "domination ratio is exactly one for mixing duals, two for the cycle")
def test_criterion_08_dual_ratio_scan(dual_shift, dual_cycle2):
    rng = random.Random(99)
    elements = []
    while len(elements) < 10:
        support = rng.randrange(1, 5)
        c = {}
        for _ in range(support):
            g = sample_element(dual_shift, rng, max_len=2)
            h = sample_element(dual_shift, rng, max_len=2)
            num = rng.randrange(-3, 4)
            den = rng.randrange(1, 4)
            inum = rng.randrange(-2, 3)
            coef = QQi(Fraction(num, den), Fraction(inum, 2))
            c[(g, h)] = c.get((g, h), QQi()) + coef
        if any(not v.is_zero for v in c.values()):
            elements.append(c)
    scan = ornstein_scan_dual(dual_shift, elements, range(0, 65))
    assert scan.strongly_mixing
    for rep in scan.elements:
        for n, ratio in rep.ratios:
            if n > rep.escape_bound:
                assert ratio == 1, (rep.label, n)
    assert len(scan.elements) + len(scan.skipped) == 10

    c2 = parse_pair_combination(dual_cycle2, "x0 | x0; x1 | x1")
    scan2 = ornstein_scan_dual(dual_cycle2, [c2], range(0, 65))
    assert scan2.max_limsup == Fraction(2)
    assert not scan2.strongly_mixing


@criterion(9, "eigenoperator, spectral covariance and modular invariance residuals")
def test_criterion_09_spectral_components(c3, pauli, gibbs):
    chi = np.conj(OMEGA3)
    u = eigenoperator(c3, chi)
    assert np.allclose([b[0, 0] for b in u.blocks], [1, OMEGA3, OMEGA3 ** 2])
    ident = c3.structure.identity()
    assert (u.adjoint() @ u - ident).norm() < 1e-10
    assert (u @ u.adjoint() - ident).norm() < 1e-10
    for n in range(1, 7):
        rep = verify_spectral_covariance(c3, u, chi, n, grid=12)
        assert rep.atom_residual < 1e-10
        assert rep.grid_commutation_residual < 1e-12
    # modular invariance: tracial state leaves every projection fixed
    proj = AlgebraElement(pauli.structure,
                          [np.array([[1, 0], [0, 0]], dtype=complex)])
    res = modular_invariance_check(pauli, proj)
    assert res.sigma_residual < 1e-10
    assert res.conjugation_vector_residual < 1e-10
    # negative control: a skew projection strays under a Gibbs state
    skew = AlgebraElement(gibbs.structure,
                          [np.full((2, 2), 0.5, dtype=complex)])
    assert modular_invariance_check(gibbs, skew).sigma_residual > 0.1


@criterion(10, "conditional expectations of solver joinings are intertwining contractions")
def test_criterion_10_conditional_expectations(solver_joinings, c2, c3):
    assert len(solver_joinings) == 20
    for label, ctx, jm, rep in solver_joinings:
        ce = conditional_expectation(ctx, jm)
        assert ce.norm <= 1 + 1e-8, label
        assert ce.intertwining_residual < 1e-6, label
    ctx = build_tensor_context(c2, c3)
    ce = conditional_expectation(ctx, product_joining(ctx))
    omega_a = ctx.A.gns.cyclic_vector
    for j in range(ctx.dim_b):
        assert np.allclose(ce.matrix[:, j], complex(ctx.B.state.values[j]) * omega_a)


@criterion(11, "finite-dimension facts replace the unreachable universal statements")
def test_criterion_11_finite_dimension_facts(c2, c3):
    systems = [corpus.system(name) for name in corpus.FINITE_SYSTEMS]
    systems.append(identity_system([1]))
    for sysd in systems:
        cls = classify_finite(sysd)
        assert cls.compact and cls.discrete_spectrum
        assert cls.weakly_mixing == (sysd.dimension == 1)
        assert cls.h0_dimension == sysd.dimension
        assert any("compact is automatic" in note for note in cls.notes)
    # the compact-systems quantifier is only ever tested pair by pair over a corpus
    assert disjointness_test(build_tensor_context(c2, c3)).verdict == "disjoint"
