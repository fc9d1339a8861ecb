"""Power tables and Følner means against independent references.

`gns.element_matrices` builds each generator's powers by running
products, and `gns.folner_mean` and `gns.cesaro_correlation` read the
Følner mean off the joint spectrum (`sys.spectrum`); the references in
`oracles.py` compute every element's matrix on its own, or sum one power
per step, and take the Cesàro limit from a null space of their own.
"""

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ncjoin import cli, corpus, joinings
from ncjoin.algebra import (FiniteSystem, GroupDescriptor, _operator_norms,
                            cyclic_rotation_system, single_block_system, uniform_state)
from ncjoin.gns import (asymptotic_abelianness_profile, cesaro_correlation, element_matrices,
                        folner_mean)
from ncjoin.joinings import (_diagonal_values, cesaro_diagonal_average, mirror_context,
                             ornstein_ratio_scan)
from oracles import (
    cesaro_correlation_reference,
    element_automorphism_reference,
    element_matrix_reference,
    folner_mean_reference,
    folner_mean_running_reference,
    onb_matrices_reference,
    ornstein_ratio_reference,
    recurrence_period_reference,
)
from test_differential import _haar_unitary, _separated, _weyl_pair

TOL = 1e-12


def _zm_system(m):
    rot = cyclic_rotation_system(m)
    return FiniteSystem(rot.structure, uniform_state(rot.structure),
                        GroupDescriptor("Zm", m=m), rot.generators)


SYSTEMS = {name: corpus.system(name) for name in corpus.FINITE_SYSTEMS}
SYSTEMS["Z4m"] = _zm_system(4)


def _windows(sysd):
    """Exponent sets with negative and positive entries, and a Folner set."""
    group = sysd.group
    if group.kind == "Z":
        sets = [[(j,) for j in range(-9, 10)], [(-5,)], [(7,), (-2,), (7,)]]
    elif group.kind == "Zk":
        sets = [list(itertools.product(range(-3, 4), repeat=group.k)), [(-4, 2)]]
    else:
        sets = [[(j,) for j in range(-group.m, 2 * group.m)]]
    return sets + [group.folner_elements(6)]


def _close(a, b):
    return np.linalg.norm(a - b) <= TOL * max(1.0, np.linalg.norm(b))


@pytest.mark.parametrize("orthonormal", [False, True])
@pytest.mark.parametrize("name", SYSTEMS)
def test_of_elements_matches_per_element_powers(name, orthonormal):
    """Canonical power tables against fresh powers of the canonical matrices,
    and, mapped to orthonormal coordinates through C, against fresh powers
    of C·U·C⁻¹ (`oracles.onb_matrices_reference`)."""
    sysd = SYSTEMS[name]
    space = sysd.gns
    mats = onb_matrices_reference(sysd) if orthonormal else sysd.generator_matrices
    for elements in _windows(sysd):
        stack = element_matrices(sysd.generator_matrices, elements)
        assert stack.shape == (len(elements), sysd.dimension, sysd.dimension)
        if orthonormal:
            stack = space.onb_factor @ stack @ space.onb_factor_inv
        for g, U in zip(elements, stack):
            assert _close(U, element_matrix_reference(mats, g, unitary=orthonormal)), g


@pytest.mark.parametrize("name", SYSTEMS)
def test_folner_averages_match_reference(name):
    sysd = SYSTEMS[name]
    d = sysd.dimension
    x, y = np.eye(d)[:, 0], np.eye(d)[:, d - 1]
    for n in (1, 5, 40):
        assert _close(folner_mean(sysd, n), folner_mean_reference(sysd, n))
        res = cesaro_correlation(sysd, x, y, n)
        value, deviation = cesaro_correlation_reference(sysd, x, y, n)
        assert abs(res.value - value) <= TOL and abs(res.deviation - deviation) <= TOL
    ctx = mirror_context(sysd)
    for n in (1, 12):
        ref = _diagonal_values(ctx, folner_mean_reference(sysd, n))
        ref_dev = float(np.max(np.abs(ref - ctx.product_values())))
        assert abs(cesaro_diagonal_average(sysd, n).deviation - ref_dev) <= TOL


@st.composite
def cesaro_cases(draw):
    """A system, vectors x and y and a Folner index N in 1..10⁴. The systems
    are rotations C_p up to p = 60, Haar Ad(u) on M_n (non-ergodic: the
    diagonal of u's eigenbasis is fixed), Z^2 clock and shift pairs on M_n
    and Z_m rotations. x is a random vector or a joint eigenvector, where the
    bound is reached, and y is x or random, each scaled by 10^s, |s| ≤ 3."""
    kind = draw(st.sampled_from(["rotation", "haar", "weyl", "Zm"]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    if kind == "rotation":
        sysd = cyclic_rotation_system(draw(st.integers(min_value=2, max_value=60)))
    elif kind == "Zm":
        sysd = _zm_system(draw(st.integers(min_value=1, max_value=12)))
    else:
        n = draw(st.integers(min_value=2, max_value=4))
        if kind == "haar":
            u = _haar_unitary(rng, n)
            assume(_separated(u))
            sysd = single_block_system(u)
        else:
            v = _haar_unitary(rng, n)
            sysd = single_block_system([v @ w @ v.conj().T for w in _weyl_pair(n)])
    d = sysd.dimension

    def vector():
        return (rng.standard_normal(d) + 1j * rng.standard_normal(d)) * 10.0 ** draw(
            st.integers(min_value=-3, max_value=3))

    if draw(st.booleans()):
        x = sysd.gns.onb_factor_inv @ sysd.spectrum.onb[:, draw(st.integers(0, d - 1))]
    else:
        x = vector()
    y = x if draw(st.booleans()) else vector()
    return sysd, x, y, draw(st.integers(min_value=1, max_value=10**4))


@settings(max_examples=60, deadline=None)
@given(case=cesaro_cases())
def test_cesaro_deviation_within_its_bound(case):
    """The deviation from ⟨P₁x, y⟩ never exceeds the reported bound, with no
    slack, and the value and deviation match running products and a fixed
    space of the reference's own."""
    sysd, x, y, n = case
    res = cesaro_correlation(sysd, x, y, n)
    assert res.deviation <= res.remainder_bound
    value, deviation = cesaro_correlation_reference(sysd, x, y, n)
    tol = 1e-9 * max(1.0, sysd.gns.norm(x) * sysd.gns.norm(y))
    assert abs(res.value - value) <= tol
    assert abs(res.deviation - deviation) <= tol


def _haar_m3(seed):
    z = np.random.default_rng(seed).standard_normal((3, 3, 2)) @ [1, 1j]
    q, r = np.linalg.qr(z)
    return single_block_system(q * (np.diag(r) / abs(np.diag(r))))


# Z, Z^k, Z_m and an Ad(u) on M3 without an exact period
FOLNER_SYSTEMS = {"c5": SYSTEMS["c5"], "pauli": SYSTEMS["pauli"], "Z4m": SYSTEMS["Z4m"],
                  "M3": _haar_m3(4)}
FOLNER_NS = (1, 2, 7, 8, 100, 1000)


@pytest.mark.parametrize("name", FOLNER_SYSTEMS)
def test_spectral_folner_mean_matches_running_products(name):
    """The spectral mean against one running product per power, up to
    N = 1000."""
    sysd = FOLNER_SYSTEMS[name]
    mats = sysd.generator_matrices
    for n in FOLNER_NS:
        got = folner_mean(sysd, n)
        assert np.abs(got - folner_mean_running_reference(mats, sysd.group, n)).max() <= TOL, n


@pytest.mark.parametrize("name", [n for n, s in SYSTEMS.items() if s.group.kind == "Z"])
def test_ornstein_scan_matches_reference(name):
    sysd = SYSTEMS[name]
    ctx = mirror_context(sysd)
    rng = np.random.default_rng(3)
    # basis pairs, then elements with every coordinate nonzero
    elements = [ctx.basis_pair(i, i) for i in range(ctx.dim_a)] + [
        ctx.structure.from_coords(rng.standard_normal(ctx.dim)
                                  + 1j * rng.standard_normal(ctx.dim)) for _ in range(3)]
    for window in (range(-4, 5), range(0, 17), range(5, 10), range(-6, 0)):
        scan = ornstein_ratio_scan(ctx, elements, window)
        assert scan.period == recurrence_period_reference(sysd, max(window))
        assert not scan.skipped
        for c, report in zip(elements, scan.elements):
            denom, values = ornstein_ratio_reference(ctx, c, window)
            assert abs(report.denominator - denom) <= TOL * denom
            for n, (row_n, ratio), value in zip(window, report.ratios, values):
                assert row_n == n
                assert abs(ratio - value / denom) <= TOL


@pytest.mark.parametrize("eps,period", [(0.8e-9, 1), (1.2e-9, None)])
def test_period_search_decides_the_frobenius_band(monkeypatch, eps, period):
    """Ad(diag(1, e^{iε})) on M2: U − 1 has two singular values |e^{iε} − 1| = ε,
    so its Frobenius norm √2·ε lies in the band [1e-9, √d·1e-9) with d = 4,
    where only the operator norm decides. U¹ recurs at ε = 0.8e-9 and no
    power does at 1.2e-9; every higher power lies above the band."""
    sysd = single_block_system(np.diag([1, np.exp(1j * eps)]))
    ctx = mirror_context(sysd)
    stacks = []

    def recorded(stack):
        stacks.append(len(stack))
        return _operator_norms(stack)

    monkeypatch.setattr(joinings, "_operator_norms", recorded)
    scan = ornstein_ratio_scan(ctx, [ctx.basis_pair(0, 0)], range(0, 17))
    assert scan.period == period == recurrence_period_reference(sysd, 16)
    assert stacks == [1]


def test_ornstein_negative_window_command():
    report, code = cli.run(["ornstein", "--system", "corpus:c3", "--window=-4..4"])
    assert code == 0
    assert report["results"]["period"] == recurrence_period_reference(SYSTEMS["c3"], 4) == 3
    assert [row[0] for row in report["results"]["elements"][0]["ratios"]] == list(range(-4, 5))


@pytest.mark.parametrize("name", ["c3", "pauli", "gibbs", "Z4m"])
def test_abelianness_profile_matches_automorphisms(name):
    sysd = SYSTEMS[name]
    rng = np.random.default_rng(2)
    a, b = (sysd.structure.from_coords(rng.standard_normal(sysd.dimension)
                                       + 1j * rng.standard_normal(sysd.dimension))
            for _ in range(2))
    profile = asymptotic_abelianness_profile(sysd, a, b, 5)
    for n, value in enumerate(profile, start=1):
        images = [element_automorphism_reference(sysd, g).apply(b)
                  for g in sysd.group.folner_elements(n)]
        ref = np.mean([(a @ bg - bg @ a).norm() for bg in images])
        assert abs(value - ref) <= TOL * max(1.0, ref)
