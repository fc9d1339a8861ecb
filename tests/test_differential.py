"""Differential tests of the joining solver on generated systems.

Commutative Z-systems (a permutation of points with an invariant state) are
drawn by Hypothesis and their optima compared with the LP oracle. Seeded
Ad(u) pairs on M2 and M3 are compared with optima recorded at commit
7f751cd, whose solver worked on a multiplicity-inflated matrix on the
tensor of the two GNS spaces rather than on the block density of A ⊗ B.
The rank verdict of `disjointness_test` is compared with the eigenvalue
pairs of the GNS unitaries and with the verdicts of the direction scan
that it replaced.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncjoin import corpus
from ncjoin.algebra import (
    Automorphism,
    BlockStructure,
    FaithfulState,
    FiniteSystem,
    GroupDescriptor,
    single_block_system,
)
from ncjoin.joinings import (
    build_tensor_context,
    conditional_expectation,
    disjointness_test,
    find_joining,
    residual_magnitude,
)

from oracles import invariant_transportation_max

BATTERY_TOL = 1e-8
LP_TOL = 2e-6
PINNED_TOL = 1e-6


def _permutation_system(images, weights) -> FiniteSystem:
    """Points moved by e_i ↦ e_{images[i]}, with state weights on the points."""
    n = len(images)
    s = BlockStructure((1,) * n)
    pull = [0] * n
    for i, k in enumerate(images):
        pull[k] = i   # output block images[i] reads input block i
    state = FaithfulState(s, [np.array([[w]]) for w in weights])
    gen = Automorphism(s, tuple(pull), [np.eye(1)] * n)
    return FiniteSystem(s, state, GroupDescriptor("Z"), [gen])


@st.composite
def permutation_systems(draw):
    """(images, weights): a permutation of 2-4 points and a state constant on its cycles."""
    n = draw(st.integers(min_value=2, max_value=4))
    images = draw(st.permutations(range(n)))
    cycle = [-1] * n
    count = 0
    for start in range(n):
        k = start
        while cycle[k] < 0:
            cycle[k] = count
            k = images[k]
        count += cycle[start] == count
    per_cycle = draw(st.lists(st.integers(min_value=1, max_value=3),
                              min_size=count, max_size=count))
    weights = [per_cycle[c] for c in cycle]
    return list(images), [w / sum(weights) for w in weights]


@settings(max_examples=12, deadline=None)
@given(a=permutation_systems(), b=permutation_systems(), data=st.data())
def test_commutative_optima_match_lp_oracle(a, b, data):
    (images_a, mu), (images_b, nu) = a, b
    cost = np.array(data.draw(st.lists(
        st.lists(st.integers(min_value=0, max_value=2),
                 min_size=len(nu), max_size=len(nu)),
        min_size=len(mu), max_size=len(mu))), dtype=float)
    ctx = build_tensor_context(_permutation_system(images_a, mu),
                               _permutation_system(images_b, nu))
    objective = ctx.structure.zero()
    for (i, j), c in np.ndenumerate(cost):
        objective = objective + complex(c) * ctx.basis_pair(i, j)
    jm, rep = find_joining(ctx, objective=objective)
    oracle, _ = invariant_transportation_max(mu, nu, images_a, images_b, cost)
    assert not rep.inconclusive
    assert rep.achieved == pytest.approx(oracle, abs=LP_TOL)
    assert float(np.sum(cost * jm.values).real) == pytest.approx(oracle, abs=LP_TOL)
    assert residual_magnitude(jm.residuals) < BATTERY_TOL


def _haar_unitary(rng, n):
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / abs(d))


# (n, seed, same unitary on both legs, objective, optimum found at commit 7f751cd)
AD_PINNED = [
    (2, 1, True, (0, 0), 0.3538508405414005),
    (2, 2, False, (0, 0), 0.3330097198487434),
    (2, 3, True, (0, 3), 0.49999976101898946),
    (2, 4, False, (1, 2), 0.11414432525657602),
    (2, 5, True, (1, 2), 0.4201850882396916),
    (2, 6, False, (0, 3), 0.2905771732330861),
    (3, 1, True, (0, 0), 0.2492540142067725),
    (3, 7, False, (1, 3), 0.0788354869030933),
    (3, 11, False, (1, 5), 0.019399642811559696),
]


@pytest.mark.parametrize("n, seed, same, objective, pinned", AD_PINNED)
def test_ad_pairs_match_pinned_optima(n, seed, same, objective, pinned):
    rng = np.random.default_rng(seed)
    u = _haar_unitary(rng, n)
    v = u if same else _haar_unitary(rng, n)
    ctx = build_tensor_context(single_block_system(u), single_block_system(v))
    jm, rep = find_joining(ctx, objective=objective)
    assert float(jm.values[objective].real) == pytest.approx(pinned, abs=PINNED_TOL)
    assert residual_magnitude(jm.residuals) < BATTERY_TOL
    assert conditional_expectation(ctx, jm).norm <= 1 + 1e-8


def _ad_context(n, seed, same):
    rng = np.random.default_rng(seed)
    u = _haar_unitary(rng, n)
    v = u if same else _haar_unitary(rng, n)
    return build_tensor_context(single_block_system(u), single_block_system(v))


def test_m3_inconclusive_bound_regression():
    # the bisection it replaced stopped at [0.22395, 0.22401], inconclusive,
    # below a joining of value 0.224105802
    ctx = _ad_context(3, 3, True)
    jm, rep = find_joining(ctx, objective=(0, 4))
    assert not rep.inconclusive
    assert rep.upper - rep.lower <= 1e-6
    assert rep.upper >= 0.224105802
    assert float(jm.values[0, 4].real) == pytest.approx(rep.lower, abs=1e-12)
    assert residual_magnitude(jm.residuals) < BATTERY_TOL


def _eigenvalue_pairs(ctx) -> int:
    """Pairs λ of U_A and λ̄ of U_B, one eigenvalue 1 dropped on each side."""
    spectra = []
    for U in (ctx.rep_a.matrices[0], ctx.rep_b.matrices[0]):
        lam = np.linalg.eigvals(U)
        spectra.append(np.delete(lam, np.argmin(abs(lam - 1))))
    la, lb = spectra
    return int(np.sum(abs(la[:, None] - lb.conj()[None, :]) < 1e-8))


@settings(max_examples=30, deadline=None)
@given(a=permutation_systems(), b=permutation_systems())
def test_rank_verdict_counts_eigenvalue_pairs(a, b):
    ctx = build_tensor_context(_permutation_system(*a), _permutation_system(*b))
    cert = disjointness_test(ctx)
    assert cert.tangent_dim == _eigenvalue_pairs(ctx)
    assert cert.verdict == ("disjoint" if cert.tangent_dim == 0 else "not_disjoint")


@pytest.mark.parametrize("n, seed, same", [row[:3] for row in AD_PINNED])
def test_ad_rank_counts_eigenvalue_pairs(n, seed, same):
    ctx = _ad_context(n, seed, same)
    assert disjointness_test(ctx).tangent_dim == _eigenvalue_pairs(ctx) > 0


# not-disjoint partners among the Z-systems of the corpus, as found by the
# probe scan at commit 5c42b4e; every other ordered pair was "disjoint"
SCAN_NOT_DISJOINT = {
    "c2": {"c2"},
    "c3": {"c3"},
    "c5": {"c5"},
    "id2": {"id2", "id3", "gibbs"},
    "id3": {"id2", "id3", "gibbs"},
    "gibbs": {"id2", "id3", "gibbs"},
}


@pytest.mark.parametrize("a", sorted(SCAN_NOT_DISJOINT))
def test_rank_verdicts_match_the_scan(a):
    for b in SCAN_NOT_DISJOINT:
        ctx = build_tensor_context(corpus.system(a), corpus.system(b))
        cert = disjointness_test(ctx)
        assert cert.tangent_dim == _eigenvalue_pairs(ctx), b
        assert cert.verdict == ("not_disjoint" if b in SCAN_NOT_DISJOINT[a] else "disjoint"), b
