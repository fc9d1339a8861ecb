"""Power tables against one fresh matrix power per group element.

`gns.element_matrices` builds each generator's powers by running
products, and `gns.folner_mean` sums them by doubling; the
references in `oracles.py` compute every element's matrix on its own, or
sum one power per step, as the package did before.
"""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from ncjoin import cli, corpus, joinings
from ncjoin.algebra import (FiniteSystem, GroupDescriptor, _operator_norms,
                            cyclic_rotation_system, single_block_system, uniform_state)
from ncjoin.gns import (asymptotic_abelianness_profile, cesaro_correlation, compactness_net,
                        element_matrices, folner_mean)
from ncjoin.joinings import (_diagonal_values, cesaro_diagonal_average, mirror_context,
                             ornstein_ratio_scan)
from oracles import (
    cesaro_correlation_reference,
    compactness_net_reference,
    element_automorphism_reference,
    element_matrix_reference,
    folner_mean_reference,
    folner_mean_running_reference,
    onb_matrices_reference,
    ornstein_ratio_reference,
    recurrence_period_reference,
)

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
    and, mapped to orthonormal coordinates as `compactness_net` maps them,
    against fresh powers of C·U·C⁻¹ (`oracles.onb_matrices_reference`)."""
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
        dev = cesaro_correlation(sysd, x, y, n).deviation
        assert abs(dev - cesaro_correlation_reference(sysd, x, y, n)) <= TOL
    ctx = mirror_context(sysd)
    for n in (1, 12):
        ref = _diagonal_values(ctx, folner_mean_reference(sysd, n))
        ref_dev = float(np.max(np.abs(ref - ctx.product_values())))
        assert abs(cesaro_diagonal_average(sysd, n).deviation - ref_dev) <= TOL


def _haar_m3(seed):
    z = np.random.default_rng(seed).standard_normal((3, 3, 2)) @ [1, 1j]
    q, r = np.linalg.qr(z)
    return single_block_system(q * (np.diag(r) / abs(np.diag(r))))


# Z, Z^k, Z_m and an Ad(u) on M3 without an exact period
DOUBLING_SYSTEMS = {"c5": SYSTEMS["c5"], "pauli": SYSTEMS["pauli"], "Z4m": SYSTEMS["Z4m"],
                    "M3": _haar_m3(4)}
FOLNER_NS = (1, 2, 7, 8, 100, 1000)


@pytest.mark.parametrize("name", DOUBLING_SYSTEMS)
def test_folner_mean_by_doubling_matches_running_products(name):
    sysd = DOUBLING_SYSTEMS[name]
    mats = sysd.generator_matrices
    for n in FOLNER_NS:
        got = folner_mean(sysd, n)
        assert np.abs(got - folner_mean_running_reference(mats, sysd.group, n)).max() <= TOL, n


class _MatmulCounter(np.ndarray):
    """An array whose matmuls, and those of every array derived from it, are counted."""

    matmuls = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            _MatmulCounter.matmuls += 1
        plain = tuple(x.view(np.ndarray) if isinstance(x, np.ndarray) else x for x in inputs)
        if "out" in kwargs:
            kwargs["out"] = tuple(x.view(np.ndarray) for x in kwargs["out"])
        result = getattr(ufunc, method)(*plain, **kwargs)
        return result.view(_MatmulCounter) if isinstance(result, np.ndarray) else result


@pytest.mark.parametrize("name", DOUBLING_SYSTEMS)
def test_folner_mean_matmuls_grow_as_log_n(name):
    sysd = DOUBLING_SYSTEMS[name]
    counted = SimpleNamespace(group=sysd.group, generator_matrices=[
        U.view(_MatmulCounter) for U in sysd.generator_matrices])
    k = len(sysd.generator_matrices)
    for n in FOLNER_NS + (4096,):
        _MatmulCounter.matmuls = 0
        folner_mean(counted, n)
        box = len(sysd.group.folner_range(n))
        assert 1 <= _MatmulCounter.matmuls <= k * (3 * box.bit_length() + 2), (n, box)


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


@pytest.mark.parametrize("name", ["c3", "c5", "id2", "pauli", "gibbs", "Z4m"])
def test_compactness_net_matches_reference(name):
    sysd = SYSTEMS[name]
    assert compactness_net(sysd) == compactness_net_reference(sysd, 0.1)


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
