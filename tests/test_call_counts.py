"""Validation and GNS builds per CLI command, counted by the benchmark's tracer.

A system carries its validation report, GNS data and mirror system once
built, so one command validates and builds the GNS data of each system it
loads once. The mirror system it promotes shares its validation report, and
its GNS data is built only by a command that reads it: a tensor context
builds no GNS data of its own. The tracer in perfbench/
is loaded from its file and never modified; it is uninstalled after each
command.

Work that should not grow with a window or with the number of blocks is
counted by wrapping numpy functions and comparing a small input with a
large one. A barrier solve makes one linear solve per Newton step, and on
1×1 density blocks it calls no Cholesky, inverse or eigenvalue routine.
A system's point spectrum takes one `eigh`, however many classifications
and joining solves read it, its value vectors are built once for all the
solves on it, and contexts over one pair of block-size tuples share one
product structure. A context builds its tangent space once, with at most one
SVD. The joining battery reads the generators' coordinate
matrices, so `joinings diagonal` builds no GNS data of the mirror, and
the asymptotic abelianness profile, which reads only those, builds none.
`dual classify --samples` classifies the group once, and on a free group
it counts the orbit kinds of the samples without building an element or
an orbit certificate. The exact dual scans print and compare each distinct
value of a window once. The spectral covariance check decomposes u once,
and the modular invariance check eigendecomposes ρ once.
"""

import dataclasses
import importlib.util
import json
from collections import Counter
from fractions import Fraction
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest

from ncjoin import cli, corpus, dual, fileio, gns, joinings
from ncjoin.algebra import (
    Automorphism,
    BlockStructure,
    FaithfulState,
    GroupDescriptor,
    cyclic_rotation_system,
    identity_system,
    single_block_system,
    validate_system,
)
from ncjoin.dual import DualSystem, QQi
from ncjoin.errors import InputFormatError
from ncjoin.gns import classify_finite, mirror_system
from ncjoin.joinings import (
    build_tensor_context,
    disjointness_test,
    find_joining,
    mirror_context,
)

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER_MODULE = _tracer_module()

# command -> upper bounds on calls per traced layer
BOUNDS = [
    ("ornstein --system corpus:c3 --window 0..16",
     {"algebra.validate_system": 1, "gns.gns_construct": 1, "gns.mirror_system": 1,
      "algebra.Automorphism.compose": 0, "joinings.build_tensor_context": 1}),
    ("classify --system corpus:c3",
     {"algebra.validate_system": 1, "gns.gns_construct": 1, "gns.point_spectrum": 1}),
    ("average --system corpus:c3 --x 0 --y 0 --N 100",
     {"algebra.validate_system": 1, "gns.gns_construct": 1, "gns.point_spectrum": 0}),
    ("cesaro-diagonal --system corpus:c3 --N 12",
     {"algebra.validate_system": 1, "gns.gns_construct": 1,
      "algebra.Automorphism.compose": 0, "gns.point_spectrum": 0}),
    ("joinings disjoint --a corpus:c2 --b corpus:c3",
     {"algebra.validate_system": 2, "gns.gns_construct": 2}),
    ("joinings diagonal --system corpus:c2 --graph-n 1",
     {"algebra.validate_system": 1, "gns.gns_construct": 1}),
]


@pytest.mark.parametrize("command,bounds", BOUNDS, ids=[c for c, _ in BOUNDS])
def test_builds_per_command(command, bounds):
    tracer = TRACER_MODULE.Tracer()
    tracer.install()
    try:
        _, code = cli.run(command.split())
    finally:
        tracer.uninstall()
    assert code == 0
    calls = Counter(span.layer for span in tracer.spans)
    calls.update(tracer.counts)
    assert calls["algebra.validate_system"] >= 1
    for layer, bound in bounds.items():
        assert calls[layer] <= bound, (layer, calls[layer])


# work that does not depend on n is done once per scan: (class or module,
# attribute, command with a small window, same command with a large one)
WINDOW_PAIRS = [
    (DualSystem, "multiply", "dual ornstein --group corpus:dual_cycle2 --window 0..8",
     "dual ornstein --group corpus:dual_cycle2 --window 0..512"),
    (DualSystem, "multiply", "dual ornstein --group corpus:dual_finperm_shift --window 0..8",
     "dual ornstein --group corpus:dual_finperm_shift --window 0..512"),
    (DualSystem, "apply_T", "dual ornstein --group corpus:dual_cycle2 --window 0..8",
     "dual ornstein --group corpus:dual_cycle2 --window 0..512"),
    (DualSystem, "apply_T", "dual ornstein --group corpus:dual_finperm_shift --window 0..8",
     "dual ornstein --group corpus:dual_finperm_shift --window 0..512"),
    (DualSystem, "apply_T",
     "dual correlations --group corpus:dual_mixed --a x0;y1 --b x3^-1;y0^-1 --n 0..8",
     "dual correlations --group corpus:dual_mixed --a x0;y1 --b x3^-1;y0^-1 --n 0..512"),
    (QQi, "__str__", "dual correlations --group corpus:dual_shift --a x0 --b x5^-1 --n 0..64",
     "dual correlations --group corpus:dual_shift --a x0 --b x5^-1 --n 0..512"),
    (QQi, "__str__",
     "dual correlations --group corpus:dual_mixed --a x0;y1 --b x3^-1;y0^-1 --n 0..64",
     "dual correlations --group corpus:dual_mixed --a x0;y1 --b x3^-1;y0^-1 --n 0..512"),
    (np.linalg, "eigh", "average --system corpus:c3 --x 0 --y 0 --N 10",
     "average --system corpus:c3 --x 0 --y 0 --N 1000"),
    (np.linalg, "eigh", "average --system corpus:pauli --x 1 --y 2 --N 10",
     "average --system corpus:pauli --x 1 --y 2 --N 60"),
    (np.linalg, "matrix_power", "ornstein --system corpus:c3 --window 0..4",
     "ornstein --system corpus:c3 --window 0..64"),
    (np.linalg, "eigh", "cesaro-diagonal --system corpus:c3 --N 4",
     "cesaro-diagonal --system corpus:c3 --N 64"),
]


def _calls(monkeypatch, owner, attr, command):
    original = getattr(owner, attr)
    calls = Counter()

    def counted(*args, **kwargs):
        calls[attr] += 1
        return original(*args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(owner, attr, counted)
        _, code = cli.run(command.split())
    assert code == 0
    return calls[attr]


@pytest.mark.parametrize("owner,attr,small,large", WINDOW_PAIRS,
                         ids=[f"{a}:{s}" for _, a, s, _ in WINDOW_PAIRS])
def test_window_independent_work_does_not_grow(monkeypatch, owner, attr, small, large):
    count = _calls(monkeypatch, owner, attr, small)
    assert count >= 1
    assert _calls(monkeypatch, owner, attr, large) == count


@pytest.mark.parametrize("group", ["dual_cycle2", "dual_shift"])
def test_ratio_scan_compares_each_distinct_ratio_once(monkeypatch, group):
    """The limsup and, on the strongly mixing dual_shift, the escape check
    compare the distinct ratios, which a longer window does not add to."""
    calls = Counter()

    def counted(original):
        def wrapper(*args, **kwargs):
            calls["comparisons"] += 1
            return original(*args, **kwargs)
        return wrapper

    def comparisons(window):
        calls.clear()
        with monkeypatch.context() as m:
            for attr in ("__eq__", "__lt__", "__le__", "__gt__", "__ge__"):
                m.setattr(Fraction, attr, counted(getattr(Fraction, attr)))
            _, code = cli.run(["dual", "ornstein", "--group", f"corpus:{group}",
                               "--window", window])
        assert code == 0
        return calls["comparisons"]

    count = comparisons("0..64")
    assert count >= 1
    assert comparisons("0..512") == count


def test_period_search_norms_do_not_grow(monkeypatch, tmp_path):
    """The period search takes at most one batched SVD, also where it finds
    no period: the Frobenius norms decide every power outside the band
    [1e-9, √d·1e-9), and the SVD covers only the powers in the band.

    Ad(diag(1, −e^{iδ})) on M2 with δ = 6e-10 has no exact period, so the
    search covers the whole window. Its U² − 1 has operator norm 2 sin δ ≈
    1.2e-9 and Frobenius norm √2 times that, inside the band, and every
    other power lies outside it: the one SVD is the search's own, since
    validating the system takes none.
    """
    path = tmp_path / "m2.json"
    path.write_text(json.dumps(fileio.dump_system(
        single_block_system(np.diag([1, -np.exp(6e-10j)])))))
    small, large = (f"ornstein --system {path} --window 0..{n}" for n in (4, 64))
    report, _ = cli.run(large.split())
    assert report["results"]["period"] is None
    count = _calls(monkeypatch, np.linalg, "svd", small)
    assert count >= 1
    assert _calls(monkeypatch, np.linalg, "svd", large) == count


# numpy kernels that a per-block loop would call once per block; on 1×1
# blocks only validation's Frobenius screen (`vdot`) runs of these
BLOCK_KERNELS = [(np.linalg, "norm"), (np.linalg, "svd"), (np.linalg, "eigvalsh"),
                 (np.linalg, "eigh"), (np, "kron"), (np, "vdot")]


def _kernel_calls(monkeypatch, sysd):
    calls = Counter()

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    with monkeypatch.context() as m:
        for owner, attr in BLOCK_KERNELS:
            m.setattr(owner, attr, counted(attr, getattr(owner, attr)))
        assert validate_system(sysd).valid
        mirror_system(sysd)
    return calls


@pytest.mark.parametrize("small,large", [
    (cyclic_rotation_system(4), cyclic_rotation_system(24)),
    (identity_system((2, 1, 3)), identity_system((2, 1, 3) * 8)),
], ids=["C4-C24", "sizes-2-1-3-x1-x8"])
def test_block_kernels_run_once_per_block_size(monkeypatch, small, large):
    """Validation and the mirror make as many kernel calls for 24 blocks as for 4."""
    count = _kernel_calls(monkeypatch, small)
    assert sum(count.values()) >= 1
    assert _kernel_calls(monkeypatch, large) == count


def _counted(monkeypatch, targets, action):
    """Calls of each (owner, attribute) of `targets` while `action()` runs."""
    calls = Counter()

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    with monkeypatch.context() as m:
        for owner, attr in targets:
            m.setattr(owner, attr, counted(attr, getattr(owner, attr)))
        action()
    return calls


def _generated_systems():
    """Ad(u) on M3 with a non-tracial density commuting with u, a Z^2 pair
    and a Z_3 action on it, each through the file format."""
    rng = np.random.default_rng(11)
    z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    v = np.linalg.qr(z)[0]
    density = (v * np.array([0.5, 0.3, 0.2])) @ v.conj().T

    def unitary(phases):
        return (v * np.exp(1j * np.asarray(phases))) @ v.conj().T

    return [single_block_system(unitary(rng.uniform(0, 6, 3)), density),
            single_block_system([unitary(rng.uniform(0, 6, 3)) for _ in range(2)], density),
            single_block_system(unitary(2 * np.pi * np.array([0, 1, 2]) / 3), density,
                                group=GroupDescriptor("Zm", m=3))]


FRESH_SYSTEMS = ([(name, corpus.raw(name)) for name in corpus.FINITE_SYSTEMS]
                 + [(f"M3-{kind}", fileio.dump_system(sysd))
                    for kind, sysd in zip(("Z", "Z2", "Z3"), _generated_systems())])


@pytest.mark.parametrize("name,data", FRESH_SYSTEMS, ids=[n for n, _ in FRESH_SYSTEMS])
def test_fresh_valid_systems_take_no_svd_and_no_second_vector(monkeypatch, name, data):
    """A valid system loads, validates and promotes its mirror without an
    SVD, since the Frobenius norms clear every residual, and without
    concatenating a coordinate vector: the state and the generators keep
    the vectors read off their matrices, and the mirror permutes and
    conjugates those."""
    def build():
        sysd = fileio.load_system(data)
        assert validate_system(sysd).valid
        mirror_system(sysd)

    calls = _counted(monkeypatch, [(np.linalg, "svd"), (np, "concatenate")], build)
    assert calls == {}, calls


@pytest.mark.parametrize("sysd", [cyclic_rotation_system(5), identity_system((1, 1, 1)),
                                  corpus.system("c3")], ids=["C5", "id-1-1-1", "c3"])
def test_one_by_one_blocks_take_no_eigenvalue_routine(monkeypatch, sysd):
    """On 1×1 density blocks the faithfulness check and ρ^{±1/2} of the
    mirror read the eigenvalues and eigenvectors off the entries."""
    calls = _counted(monkeypatch, [(np.linalg, "eigvalsh"), (np.linalg, "eigh")],
                     lambda: (validate_system(sysd), mirror_system(sysd)))
    assert calls == {}, calls


def test_corpus_text_resolves_the_package_once(monkeypatch):
    calls = _counted(monkeypatch, [(corpus.resources, "files")],
                     lambda: [corpus.text(name) for name in corpus.names()])
    assert calls == {}


@pytest.mark.parametrize("command", [
    "joinings diagonal --system corpus:gibbs --graph-n 1",
    "ornstein --system corpus:c3 --window 0..16",
])
def test_gram_only_commands_take_no_cholesky(monkeypatch, command):
    """The diagonal and graph joinings and the ratio scan read the Gram
    matrix of the GNS space, not its Cholesky factor C or C⁻¹."""
    calls = _counted(monkeypatch, [(np.linalg, "cholesky"), (np.linalg, "inv")],
                     lambda: cli.run(command.split()))
    assert calls == {}, calls


def _zeros_calls(monkeypatch, ctx):
    calls = Counter()
    original = np.zeros

    def counted(*args, **kwargs):
        calls["zeros"] += 1
        return original(*args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(np, "zeros", counted)
        for i, j in ((0, 0), (1, 2), (3, 3)):
            ctx.basis_pair(i, j).coords()
    return calls["zeros"]


def test_basis_pairs_allocate_once_per_element(monkeypatch):
    """An element is one coordinate vector: a basis pair of the 576-block C24
    mirror context allocates as often as one of the 16-block C4 context."""
    small, large = (mirror_context(cyclic_rotation_system(p)) for p in (4, 24))
    count = _zeros_calls(monkeypatch, small)
    assert count >= 1
    assert _zeros_calls(monkeypatch, large) == count


def test_contexts_build_no_gns_data(monkeypatch):
    """A context on fresh systems validates its legs and builds no GNS data;
    an invalid leg still raises InputFormatError before the group check."""
    calls = Counter()
    original = gns.gns_construct

    def counted(*args, **kwargs):
        calls["gns_construct"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(gns, "gns_construct", counted)
    for legs in ((cyclic_rotation_system(3), cyclic_rotation_system(4)),
                 (corpus.system("gibbs"), corpus.system("c2")),
                 (single_block_system(np.eye(2)), identity_system((1, 2)))):
        ctx = build_tensor_context(*legs)
        assert ctx.A is legs[0] and ctx.B is legs[1]
        assert all(leg.validation.valid for leg in legs)
    assert calls["gns_construct"] == 0
    rot = cyclic_rotation_system(3)
    weights = [np.array([[w]], dtype=complex) for w in (0.5, 0.3, 0.2)]
    invalid = dataclasses.replace(rot, state=FaithfulState(rot.structure, weights))
    other_group = corpus.system("pauli")
    for legs in ((invalid, other_group), (other_group, invalid)):
        with pytest.raises(InputFormatError, match="invariance at"):
            build_tensor_context(*legs)
    assert calls["gns_construct"] == 0


def test_abelianness_profile_builds_no_gns_data(monkeypatch):
    """The profile reads only the generator matrices, so a fresh system
    builds no GNS data for it; `sys.gns`, read after, is one GnsSpace."""
    calls = Counter()
    original = gns.gns_construct

    def counted(*args, **kwargs):
        calls["gns_construct"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(gns, "gns_construct", counted)
    sysd = corpus.system("c3")
    a, b = (sysd.structure.basis_element(j) for j in (0, 1))
    assert len(gns.asymptotic_abelianness_profile(sysd, a, b, 4)) == 4
    assert calls["gns_construct"] == 0
    assert isinstance(sysd.gns, gns.GnsSpace)
    assert calls["gns_construct"] == 1


def test_dual_classify_with_samples_classifies_once(monkeypatch):
    """The sampled coherence check reads the classification of the report."""
    assert _calls(monkeypatch, dual, "classify_dual",
                  "dual classify --group corpus:dual_shift --samples 5") == 1


@pytest.mark.parametrize("name,built", [("dual_shift", 0), ("dual_finperm_shift", 2000)])
def test_sampled_coherence_proves_no_certificate(monkeypatch, name, built):
    """The coherence count classifies each sample as drawn: a free word stays
    int codes, so 2,000 samples build no element, and no sample gets an orbit
    certificate. A permutation is drawn by `sample_element`, one call each."""
    calls = Counter()

    def counted(attr, original):
        def wrapper(*args, **kwargs):
            calls[attr] += 1
            return original(*args, **kwargs)
        return wrapper

    sampler = counted("sample_element", dual.sample_element)
    with monkeypatch.context() as m:
        m.setattr(dual, "sample_element", sampler)
        m.setattr(cli, "sample_element", sampler, raising=False)   # a CLI-side import counts too
        m.setattr(DualSystem, "orbit_length",
                  counted("orbit_length", DualSystem.orbit_length))
        _, code = cli.run(["dual", "classify", "--group", f"corpus:{name}",
                           "--samples", "2000", "--seed", "1"])
    assert code == 0
    assert (calls["sample_element"], calls["orbit_length"]) == (built, 0)


def _solver_calls(monkeypatch, ctx, objective):
    calls = Counter()

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    with monkeypatch.context() as m:
        m.setattr(np.linalg, "solve", counted("solve", np.linalg.solve))
        m.setattr(np, "tensordot", counted("tensordot", np.tensordot))
        _, report = find_joining(ctx, objective=objective)
    return calls, report


@pytest.mark.parametrize("name", ["C4xC4", "M2xM2"])
def test_one_linear_solve_per_newton_step(monkeypatch, request, name):
    """dt(η) is linear in η: a step that grows η solves no second system."""
    sysd = cyclic_rotation_system(4) if name == "C4xC4" else request.getfixturevalue("ladder_m2")
    calls, report = _solver_calls(monkeypatch, build_tensor_context(sysd, sysd), (0, 0))
    assert report.iterations > 0 and not report.inconclusive
    assert calls["solve"] == report.iterations
    assert calls["tensordot"] == 0


LAPACK_KERNELS = ("cholesky", "inv", "eigvalsh")


def _lapack_calls(monkeypatch, ctx, objective):
    """LAPACK calls of one solve, and the number of iterates whose
    derivatives it forms."""
    calls, terms = Counter(), Counter()

    def counted(counter, name, original):
        def wrapper(*args, **kwargs):
            counter[name] += 1
            return original(*args, **kwargs)
        return wrapper

    with monkeypatch.context() as m:
        for name in LAPACK_KERNELS:
            m.setattr(np.linalg, name, counted(calls, name, getattr(np.linalg, name)))
        m.setattr(joinings, "_derivatives",
                  counted(terms, "derivatives", joinings._derivatives))
        _, report = find_joining(ctx, objective=objective)
    assert not report.inconclusive
    return calls, terms["derivatives"], report


@pytest.mark.parametrize("a,b,objective,steps", [
    ("C4", "C4", (1, 0), 3),
    ("c3", "id3", (1, 1), 0),
], ids=["C4xC4", "c3xid3"])
def test_one_by_one_blocks_call_no_lapack(monkeypatch, a, b, objective, steps):
    """Every density block of these products is 1×1: the factor, the
    eigenvalues and the PSD floors are read off the diagonal. The legs'
    spectra, whose GNS factor C takes a Cholesky and an inverse, are built
    before counting."""
    legs = [cyclic_rotation_system(4) if n == "C4" else corpus.system(n) for n in (a, b)]
    for leg in legs:
        leg.spectrum
    calls, _, report = _lapack_calls(monkeypatch, build_tensor_context(*legs), objective)
    assert report.iterations == steps
    assert sum(calls.values()) == 0, calls


def test_larger_blocks_take_one_cholesky_per_iterate(monkeypatch, ladder_m2):
    """The start and the end of each Newton step are factored, steps + 1
    Choleskys in all; the gradient and Hessian are formed once per step, so
    not at the last iterate, whose factor only shows that F > 0."""
    calls, derivatives, report = _lapack_calls(
        monkeypatch, build_tensor_context(ladder_m2, ladder_m2), (0, 0))
    assert report.iterations > 0
    assert calls["cholesky"] == report.iterations + 1
    assert derivatives == report.iterations


def test_addresses_are_computed_once_per_structure(monkeypatch):
    """A context build on fresh systems, and a solve on it, compute the
    (block, row, col) arrays of each structure they read them from once. The
    legs' structures read none: their adjoint indices and identity
    coordinates come from their size groups."""
    computed = {}   # id of a structure -> [the structure, times it computed its addresses]
    original = BlockStructure.addresses.func

    def counted(self):
        computed.setdefault(id(self), [self, 0])[1] += 1
        return original(self)

    prop = cached_property(counted)
    prop.__set_name__(BlockStructure, "addresses")
    monkeypatch.setattr(BlockStructure, "addresses", prop)
    joinings._product_layout.cache_clear()   # so that the product structures are built here
    legs = (cyclic_rotation_system(3), single_block_system(np.eye(2)))
    ctx = build_tensor_context(legs[0], legs[0])
    find_joining(ctx, objective=(0, 1))
    find_joining(build_tensor_context(legs[1], legs[1]), objective=(0, 1))
    assert id(ctx.structure) in computed
    assert not {id(s.structure) for s in legs} & set(computed)
    assert all(count == 1 for _, count in computed.values())


def test_contexts_over_one_pair_of_block_sizes_share_one_product_structure(monkeypatch):
    """Five contexts over one pair of systems, with a solve on each, compute
    the addresses of the product structure once."""
    computed, original = Counter(), BlockStructure.addresses.func

    def counted(self):
        computed[self.block_sizes] += 1
        return original(self)

    prop = cached_property(counted)
    prop.__set_name__(BlockStructure, "addresses")
    monkeypatch.setattr(BlockStructure, "addresses", prop)
    joinings._product_layout.cache_clear()
    legs = (identity_system((1, 2)), identity_system((2,)))
    contexts = [build_tensor_context(*legs) for _ in range(5)]
    for ctx in contexts:
        find_joining(ctx, objective=(0, 1))
    assert all(ctx.structure is contexts[0].structure for ctx in contexts)
    assert computed[(2, 4)] == 1


def test_one_eigh_per_system(monkeypatch):
    """classify, find_joining and disjointness_test read one cached spectrum
    per system: one `eigh` each for pauli and two C3 systems."""
    calls = Counter()
    original = np.linalg.eigh

    def counted(*args, **kwargs):
        calls["eigh"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    pauli, c3, rot3 = corpus.system("pauli"), corpus.system("c3"), cyclic_rotation_system(3)
    for _ in range(3):
        for sysd in (pauli, c3, rot3):
            classify_finite(sysd)
        for a, b in ((pauli, pauli), (c3, rot3), (rot3, c3), (c3, c3)):
            ctx = build_tensor_context(a, b)
            find_joining(ctx, objective=(0, 1))
            disjointness_test(ctx)
    assert calls["eigh"] == 3


def test_value_vectors_are_built_once_per_system(monkeypatch):
    """find_joining and disjointness_test read the legs' value vectors
    x = Cᵀ·conj(q) from the cached spectrum: one build each for pauli and
    two C3 systems over three rounds."""
    built = Counter()
    original = gns.Spectrum.values.func

    def counted(self):
        built["values"] += 1
        return original(self)

    prop = cached_property(counted)
    prop.__set_name__(gns.Spectrum, "values")
    monkeypatch.setattr(gns.Spectrum, "values", prop)
    pauli, c3, rot3 = corpus.system("pauli"), corpus.system("c3"), cyclic_rotation_system(3)
    for _ in range(3):
        for a, b in ((pauli, pauli), (c3, rot3), (rot3, c3), (c3, c3)):
            ctx = build_tensor_context(a, b)
            find_joining(ctx, objective=(0, 1))
            disjointness_test(ctx)
    assert built["values"] == 3


def test_one_tangent_space_per_context(monkeypatch):
    """disjointness_test, two find_joining solves and joining_face_dimension
    on one context read one T (`TensorContext.tangent`)."""
    built = Counter()
    original = joinings._tangent_space

    def counted(ctx):
        built["T"] += 1
        return original(ctx)

    monkeypatch.setattr(joinings, "_tangent_space", counted)
    ctx = build_tensor_context(corpus.system("c3"), corpus.system("c3"))
    assert disjointness_test(ctx).verdict == "not_disjoint"
    jm, _ = find_joining(ctx, objective=(0, 1))
    find_joining(ctx, objective=(1, 1))
    joinings.joining_face_dimension(ctx, jm)
    assert built["T"] == 1


@pytest.mark.parametrize("a,b,svds", [
    ("c2", "c3", 0), ("c5", "id3", 0), ("c3", "c3", 1), ("id2", "id3", 1),
    ("gibbs", "gibbs", 1), ("pauli", "pauli", 1)])
def test_tangent_space_takes_at_most_one_svd(monkeypatch, a, b, svds):
    """T is read off the two spectra with one SVD, of the Hermitian parts of
    the paired tables, and none when no pair is left: then the verdict is
    "disjoint", reached with no SVD at all."""
    A, B = corpus.system(a), corpus.system(b)
    A.spectrum, B.spectrum
    calls = Counter()
    original = np.linalg.svd

    def counted(*args, **kwargs):
        calls["svd"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    ctx = build_tensor_context(A, B)
    ctx.tangent
    assert calls["svd"] == svds
    if not svds:
        assert disjointness_test(ctx).verdict == "disjoint" and calls["svd"] == 0


def test_one_path_to_the_spectrum_and_the_tangent_space():
    """The dense constraint rows and the iterated eigenspace refinement are
    references in tests/oracles.py only."""
    assert not hasattr(joinings, "_constraint_rows")
    assert not hasattr(gns, "_joint_eigenspaces")


def test_fixed_space_is_read_off_the_spectrum(monkeypatch):
    """Once a system's spectrum (and, for the diagonal average, its
    validated mirror) is built, its fixed space, classification and ergodic
    flags take no SVD: they read the spectrum's χ = 1 class. The null-space
    SVD and the greedy clusterer are references in tests/oracles.py only."""
    assert not hasattr(gns, "_null_space")
    assert not hasattr(gns, "_cluster_values")
    systems = [corpus.system(name) for name in ("c3", "pauli", "id3", "gibbs")]
    for sysd in systems:
        sysd.spectrum
        mirror_context(sysd)
    calls = Counter()
    original = np.linalg.svd

    def counted(*args, **kwargs):
        calls["svd"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    for sysd in systems:
        x = np.ones(sysd.dimension)
        classify_finite(sysd)
        gns.fixed_point_algebra(sysd)
        gns.cesaro_correlation(sysd, x, x, 5)
        joinings.cesaro_diagonal_average(sysd, 5)
    assert calls["svd"] == 0


@pytest.mark.parametrize("n, grid", [(1, 12), (-2, 12), (5, 36)])
def test_spectral_covariance_decomposes_u_once(monkeypatch, n, grid):
    """The covariance check takes the spectral atoms of u once, however fine
    its grid, and reads α^n of each atom off the generator's power table
    without composing or applying automorphisms in normal form."""
    calls = Counter()

    def counted(name, original):
        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        return wrapper

    c3 = corpus.system("c3")
    chi = np.exp(-2j * np.pi / 3)
    u = gns.eigenoperator(c3, chi)
    monkeypatch.setattr(gns, "spectral_atoms", counted("atoms", gns.spectral_atoms))
    for meth in ("power", "compose", "apply"):
        monkeypatch.setattr(Automorphism, meth, counted(meth, getattr(Automorphism, meth)))
    gns.verify_spectral_covariance(c3, u, chi, n, grid=grid)
    assert calls == {"atoms": 1}


def test_modular_check_eigendecomposes_rho_once(monkeypatch):
    """The modular invariance check takes σ_t at every sampled t from one
    `modular_group` call, so one `_density_powers` call, and J from the
    cached mirror; a repeat check calls it once and gives an equal result."""
    gibbs = corpus.system("gibbs")
    P = gibbs.structure.from_coords([0.5, 0.5, 0.5, 0.5])
    first = gns.modular_invariance_check(gibbs, P)
    calls = Counter()
    original = gns._density_powers

    def counted(*args):
        calls["density_powers"] += 1
        return original(*args)

    monkeypatch.setattr(gns, "_density_powers", counted)
    assert gns.modular_invariance_check(gibbs, P) == first
    assert calls["density_powers"] == 1
