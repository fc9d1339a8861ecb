"""Differential tests of the joining solver on generated systems.

Commutative Z-systems (a permutation of points with an invariant state) are
drawn by Hypothesis and their optima compared with the LP oracle. Seeded
Ad(u) pairs on M2 and M3 are compared with optima recorded at commit
7f751cd, whose solver worked on a multiplicity-inflated matrix on the
tensor of the two GNS spaces rather than on the block density of A ⊗ B.
The rank verdict of `disjointness_test` is compared with the eigenvalue
pairs of the GNS unitaries and with the verdicts of the direction scan
that it replaced. The tangent space, built from the two legs' joint
eigenvectors, is compared with the null space of the dense constraint rows
on the dense Hermitian basis matrix (`oracles.tangent_space_reference`).
The joint point spectrum from one `eigh` is compared with the iterated
eigenspace refinement it replaced (`oracles.joint_eigenspaces_reference`).
The Newton step's kernels, which carry 1×1 density blocks as flat vectors,
are compared with the same kernels on (m, N, N) stacks of every size
(`oracles.newton_terms_reference` and its neighbours). A seeded batch of
Ad(u) pairs on M2-M4 bounds the Newton steps of the long-step barrier
schedule on non-commutative legs.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ncjoin import corpus, gns, joinings
from ncjoin.algebra import (
    Automorphism,
    BlockStructure,
    FaithfulState,
    FiniteSystem,
    GroupDescriptor,
    cyclic_rotation_system,
    identity_system,
    single_block_system,
)
from ncjoin.joinings import (
    _tangent_space,
    build_tensor_context,
    conditional_expectation,
    disjointness_test,
    find_joining,
    residual_magnitude,
)

from oracles import (
    block_stacks_reference,
    invariant_transportation_max,
    joint_eigenspaces_reference,
    newton_dual_reference,
    newton_terms_reference,
    onb_matrices_reference,
    step_eigenvalues_reference,
    tangent_space_reference,
)

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
    jm, rep = find_joining(ctx, objective=cost)
    oracle, _ = invariant_transportation_max(mu, nu, images_a, images_b, cost)
    assert not rep.inconclusive
    assert rep.lower == pytest.approx(oracle, abs=LP_TOL)
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


# The long-step schedule on the batch below: 1,041 Newton steps, at most 17
# in one solve; the fixed ×30 growth it replaced took 1,079 and 17. Growth
# ×1000 takes 1,658 and up to 145, and the jump to 2ν/width after the first
# centred step ends inconclusive.
AD_BATCH_STEPS, AD_BATCH_WORST = 1041, 17


def test_ad_batch_newton_steps_stay_bounded():
    steps = []
    for n in (2, 3, 4):
        for seed in range(4):
            for same in (True, False):
                ctx = _ad_context(n, seed, same)
                rng = np.random.default_rng(seed)
                for i, j in rng.integers(n * n, size=(4, 2)):
                    _, rep = find_joining(ctx, objective=(int(i), int(j)))
                    assert not rep.inconclusive, (n, seed, same, i, j)
                    steps.append(rep.iterations)
    assert max(steps) <= AD_BATCH_WORST
    assert sum(steps) <= AD_BATCH_STEPS


def test_singular_hessian_near_the_boundary_regression():
    """A permutation pair whose Newton Hessian reaches condition ~1e16 near the
    optimum 8/7; LU met a zero pivot there and the solve ended inconclusive,
    with a gap of 1.02e-6 above the width 1e-6."""
    (images_a, mu), (images_b, nu) = ([0, 2, 1], [1 / 7, 3 / 7, 3 / 7]), \
        ([2, 1, 0, 3], [0.2, 0.3, 0.2, 0.3])
    cost = np.array([[0, 0, 1, 1], [0, 2, 0, 0], [2, 2, 2, 0]], dtype=float)
    ctx = build_tensor_context(_permutation_system(images_a, mu),
                               _permutation_system(images_b, nu))
    jm, rep = find_joining(ctx, objective=cost)
    oracle, _ = invariant_transportation_max(mu, nu, images_a, images_b, cost)
    assert oracle == pytest.approx(8 / 7, abs=1e-12)
    assert not rep.inconclusive
    assert rep.lower - LP_TOL <= oracle <= rep.upper + LP_TOL
    assert residual_magnitude(jm.residuals) < BATTERY_TOL


def _eigenvalue_pairs(ctx) -> int:
    """Pairs λ of U_A and λ̄ of U_B, one eigenvalue 1 dropped on each side."""
    spectra = []
    for U in (ctx.A.generator_matrices[0], ctx.B.generator_matrices[0]):
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


def _spectral_pair(rng, n, order, weights):
    """(u, ρ): u = V·diag(roots of unity of that order)·V* for a Haar V, and the
    invariant density ρ = V·diag(weights)·V*, or the trace state when weights is None."""
    v = _haar_unitary(rng, n)
    u = (v * np.exp(2j * math.pi * rng.integers(0, order, n) / order)) @ v.conj().T
    rho = np.eye(n) / n if weights is None else (v * (weights / sum(weights))) @ v.conj().T
    return u, rho


@st.composite
def z_systems(draw):
    """A Z-system: a rotation C_p, Ad(u) on M_n with a tracial or a
    non-tracial invariant density, or Ad(1 ⊕ u) on C ⊕ M_2."""
    kind = draw(st.sampled_from(["rotation", "matrix", "c+m2"]))
    if kind == "rotation":
        return cyclic_rotation_system(draw(st.integers(min_value=2, max_value=6)))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    n = 2 if kind == "c+m2" else draw(st.integers(min_value=2, max_value=3))
    weights = draw(st.none() | st.lists(st.integers(min_value=1, max_value=4),
                                        min_size=n, max_size=n).map(np.array))
    u, rho = _spectral_pair(rng, n, draw(st.integers(min_value=1, max_value=4)), weights)
    if kind == "matrix":
        return single_block_system(u, density=rho)
    s = BlockStructure((1, 2))
    w = draw(st.integers(min_value=1, max_value=4)) / 5
    state = FaithfulState(s, [np.array([[w]]), (1 - w) * rho])
    gen = Automorphism(s, (0, 1), [np.eye(1), u])
    return FiniteSystem(s, state, GroupDescriptor("Z"), [gen])


PAULI_PARTNERS = [corpus.system("pauli"),
                  identity_system((2,), GroupDescriptor("Zk", k=2)),
                  identity_system((1, 1), GroupDescriptor("Zk", k=2))]


@settings(max_examples=60, deadline=None)
@given(pair=st.tuples(z_systems(), z_systems())
       | st.tuples(st.just(PAULI_PARTNERS[0]), st.sampled_from(PAULI_PARTNERS)))
def test_gathered_tangent_space_matches_dense_reference(pair):
    ctx = build_tensor_context(*pair)
    tangent = _tangent_space(ctx)
    basis, gap = tangent_space_reference(ctx)
    assert tangent.basis.shape == basis.shape

    def projector(rows):   # onto the span of the rows, as real vectors
        real = np.hstack([rows.real, rows.imag])
        return real.T @ real

    assert np.abs(projector(tangent.basis) - projector(basis)).max() <= 1e-12


@st.composite
def one_by_one_pairs(draw):
    """Pairs of systems acting by one group. Commutative pairs, all of whose
    density blocks are 1×1: permutations of points (Z), rotations C_p with
    p | 12 as Z_12, and a rotation with a power of it (Z²). Mixed pairs: a
    C ⊕ M_2 leg with a rotation or another C ⊕ M_2 leg (Z), whose product
    has 1×1 blocks and larger ones."""
    kind = draw(st.sampled_from(["Z", "Zm", "Zk", "mixed"]))
    if kind == "Z":
        return tuple(_permutation_system(*draw(permutation_systems())) for _ in range(2))
    if kind == "Zm":
        rots = [cyclic_rotation_system(draw(st.sampled_from([2, 3, 4, 6]))) for _ in range(2)]
        return tuple(FiniteSystem(rot.structure, rot.state, GroupDescriptor("Zm", m=12),
                                  rot.generators) for rot in rots)
    if kind == "Zk":
        legs = []
        for _ in range(2):
            rot = cyclic_rotation_system(draw(st.integers(min_value=2, max_value=5)))
            gen = rot.generators[0]
            legs.append(FiniteSystem(rot.structure, rot.state, GroupDescriptor("Zk", k=2),
                                     [gen, gen.power(draw(st.integers(0, 4)))]))
        return tuple(legs)
    with_c = z_systems().filter(lambda sysd: 1 in sysd.structure.block_sizes)
    return (draw(z_systems().filter(lambda sysd: sysd.structure.block_sizes == (1, 2))),
            draw(with_c))


def _close(flat, stacked, scale=None):
    scale = np.linalg.norm(stacked) if scale is None else scale
    assert np.linalg.norm(flat - stacked) <= 1e-12 * scale


@settings(max_examples=80, deadline=None)
@given(pair=one_by_one_pairs(), data=st.data())
def test_flat_kernels_match_stacked_reference(pair, data):
    """Gradient, Hessian, dual point and step eigenvalues of the Newton step
    with 1×1 blocks as flat vectors, against every block as a stack, at a
    point drawn up to 90% of the way to the boundary of the joining set."""
    ctx = build_tensor_context(*pair)
    basis = _tangent_space(ctx).basis
    assume(len(basis))
    r, prod = len(basis), ctx.product_values().reshape(-1)
    stacks = joinings._block_stacks(ctx, basis, prod)
    reference = block_stacks_reference(ctx, basis, prod)
    assert 1 in [n for n, *_ in stacks]
    rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2**32 - 1)))
    d = rng.standard_normal(r)
    lams = step_eigenvalues_reference(newton_terms_reference(reference, np.zeros(r))[2], d)
    x = data.draw(st.floats(min_value=0.0, max_value=0.9)) * d / max(-lams.min(), 1e-3)
    grad, hess, parts = joinings._derivatives(stacks, joinings._factors(stacks, x))
    grad_ref, hess_ref, parts_ref = newton_terms_reference(reference, x)
    # tr W_i can cancel to rounding (at the product of two uniform states it
    # is 0): it is compared on the scale of its bound |tr W_i| ≤ √ν·‖W_i‖,
    # with ν the number of diagonal units and ‖W_i‖² = H_ii
    nu = sum(idx.shape[0] * idx.shape[1] for idx in ctx.blocks)
    _close(grad, grad_ref, math.sqrt(nu * np.trace(hess_ref)))
    _close(hess, hess_ref)
    g, dt = rng.standard_normal((2, r))
    eta = 10.0 ** rng.uniform(-2, 3)
    _close(joinings._newton_dual(ctx, basis, g, parts, dt, eta),
           newton_dual_reference(ctx, basis, g, parts_ref, dt, eta))
    _close(np.sort(joinings._step_eigenvalues(parts, dt)),
           np.sort(step_eigenvalues_reference(parts_ref, dt)))


def _conjugated(rng, n, phases):
    """V·diag(e^{iφ})·V* for a Haar V."""
    v = _haar_unitary(rng, n)
    return (v * np.exp(1j * np.asarray(phases))) @ v.conj().T


def _weyl_pair(n):
    """Shift and clock on C^n: ZX = ωXZ, so Ad(X) and Ad(Z) commute."""
    shift = np.roll(np.eye(n), 1, axis=0)
    clock = np.diag(np.exp(2j * math.pi * np.arange(n) / n))
    return shift, clock


def _separated(u, tol=1e-3):
    """The characters λ_a·conj(λ_b) of Ad(u) either coincide or lie tol apart."""
    lam = np.linalg.eigvals(u)
    chars = (lam[:, None] * lam.conj()[None, :]).reshape(-1)
    gaps = abs(chars[:, None] - chars[None, :])
    return bool(np.all((gaps < 1e-12) | (gaps > tol)))


@st.composite
def spectral_systems(draw):
    """Systems whose spectra test the one-eigh construction: identity systems
    of Z and Z^2, Z^2 Weyl (Pauli-like) pairs on M_n, rotations C_p up to
    p = 24, Ad(u) with an eigenvalue of multiplicity 3, Haar Ad(u) on M_n,
    and Ad(u) with pairs of characters mirrored, or nearly, about the angle
    1 radian of the first generator, which the Hermitian combination H
    cannot tell apart. Distinct characters lie at least 1e-3 apart: both
    constructions resolve closer ones only to about ε over their distance."""
    kind = draw(st.sampled_from(["identity", "weyl", "rotation", "triple", "haar", "mirror"]))
    if kind == "identity":
        sizes = draw(st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=3))
        group = draw(st.sampled_from([GroupDescriptor("Z"), GroupDescriptor("Zk", k=2)]))
        return identity_system(sizes, group)
    if kind == "rotation":
        return cyclic_rotation_system(draw(st.integers(min_value=2, max_value=24)))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    if kind == "weyl":
        n = draw(st.integers(min_value=2, max_value=4))
        v = _haar_unitary(rng, n)
        return single_block_system([v @ w @ v.conj().T for w in _weyl_pair(n)])
    if kind == "triple":
        u = _conjugated(rng, 5, [0.4, 0.4, 0.4, 1.7, -2.2])
    elif kind == "haar":
        u = _haar_unitary(rng, draw(st.integers(min_value=2, max_value=4)))
        assume(_separated(u))
    else:
        # Ad(u) has e^{i(1+a)}, e^{i(1-a+b)}, e^{i(2+b)} and 1: two pairs b from
        # mirrored, which H cannot tell apart at b = 0 and mixes by ~ε/b above
        a = draw(st.floats(min_value=0.2, max_value=0.8))
        b = draw(st.sampled_from([0.0, 1e-9, 1e-7, 1e-5]))
        u = _conjugated(rng, 3, [0.0, 1 + a, 2.0 + b])
    return single_block_system(u)


@settings(max_examples=80, deadline=None)
@given(sysd=spectral_systems())
def test_one_eigh_spectrum_matches_eigenspace_refinement(sysd):
    space = sysd.gns
    reference = joint_eigenspaces_reference(onb_matrices_reference(sysd))
    entries = sysd.spectrum.entries
    assert len(entries) == len(reference)
    for entry in entries:
        chars, B = min(reference, key=lambda r: max(
            abs(np.array(r[0]) - entry.eigenvalue)))
        assert entry.multiplicity == B.shape[1]
        assert max(abs(np.array(chars) - entry.eigenvalue)) <= 1e-12
        Q = space.onb_factor @ entry.eigenvectors   # orthonormal coordinates
        assert abs(Q @ Q.conj().T - B @ B.conj().T).max() <= 1e-12


def test_mirrored_characters_force_the_split(monkeypatch):
    """Ad(u) with u of eigenvalues 1 and e^{2i}: the characters 1 and e^{2i}
    give one eigenvalue cos 1 of the Hermitian combination, and the split
    separates them."""
    splits, split = [], gns._split
    monkeypatch.setattr(gns, "_split", lambda W, B: splits.append(B.shape[1]) or split(W, B))
    v = np.array([[1, 1j], [1j, 1]]) / math.sqrt(2)
    sysd = single_block_system(v @ np.diag([1, np.exp(2j)]) @ v.conj().T)
    got = [(e.eigenvalue[0], e.multiplicity) for e in sysd.spectrum.entries]
    want = [(np.exp(-2j), 1), (np.exp(2j), 1), (1, 2)]   # sorted by (Re, Im)
    assert [m for _, m in got] == [m for _, m in want]
    assert max(abs(a - b) for (a, _), (b, _) in zip(got, want)) <= 1e-12
    assert splits == [3]   # the eigenvalue cos 1 of H: e^{2i} and the two 1's
