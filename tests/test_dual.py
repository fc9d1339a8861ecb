import json
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncjoin import cli, dual
from ncjoin.dual import (
    CorrelationSeries,
    DualSystem,
    FinPerm,
    QQi,
    Track,
    TrackSpec,
    classify_dual,
    correlation_series,
    delta_n_eval,
    finite_orbit_subsystem,
    format_perm,
    format_word,
    opposite_group_joining,
    orbit_kind_counts,
    ornstein_scan_dual,
    parse_combination,
    parse_pair_combination,
    parse_perm,
    parse_qqi,
    parse_word,
    sample_element,
    word_inverse,
    word_multiply,
    _shift_times,
)
from ncjoin import corpus
from ncjoin.errors import InputFormatError, NcjoinError, StructureError
from oracles import (classify_dual_reference, correlation_reference, delta_n_reference,
                     dual_coherence_reference, orbit_periods_reference, sample_element_reference)


def _mixed23(family):
    """Cycle tracks of coprime lengths 2 and 3 next to a shift track."""
    return DualSystem(family, TrackSpec((
        Track("x", "cycle", 2), Track("y", "cycle", 3), Track("z", "shift"))))


# the corpus dual systems and two generated ones whose orbits mix residue classes
DUAL_SYSTEMS = {name: corpus.dual(name) for name in corpus.DUAL_SYSTEMS}
DUAL_SYSTEMS.update({f"{family}_2_3_shift": _mixed23(family)
                     for family in ("free", "finperm")})


@pytest.fixture(scope="module")
def cycles23():
    return DualSystem("free", TrackSpec((
        Track("x", "cycle", 2), Track("y", "cycle", 3))))


# ---------------------------------------------------------------------------
# scalars


def test_qqi_arithmetic():
    a = parse_qqi("1/2+1/3i")
    b = parse_qqi("-2")
    assert (a * b) == QQi(Fraction(-1), Fraction(-2, 3))
    assert a.conjugate().im == Fraction(-1, 3)
    assert parse_qqi("i") * parse_qqi("i") == QQi(Fraction(-1))
    assert parse_qqi("-3/4").re == Fraction(-3, 4)
    assert a.abs2() == Fraction(1, 4) + Fraction(1, 9)
    with pytest.raises(InputFormatError):
        parse_qqi("one half")


def test_qqi_operands_stay_exact():
    # int and Fraction operands convert exactly; a complex has no exact value
    one = QQi(Fraction(1))
    assert one + 2 == QQi(Fraction(3))
    assert one * Fraction(1, 3) - Fraction(1, 2) == QQi(Fraction(-1, 6))
    assert QQi.of(0.5) == QQi(Fraction(1, 2))
    with pytest.raises(TypeError):
        one + 0.5j
    with pytest.raises(TypeError):
        QQi.of(2**-45 + 0j)


@pytest.mark.parametrize("text,re,im", [
    ("2i", 0, 2), ("3/4i", 0, Fraction(3, 4)), ("-2i", 0, -2), ("0i", 0, 0), ("i", 0, 1),
    ("-i", 0, -1), ("2", 2, 0), ("1+2i", 1, 2), ("1/2-i", Fraction(1, 2), -1),
])
def test_qqi_forms(text, re, im):
    """A number directly before 'i' is the imaginary part, not a real part plus i."""
    assert parse_qqi(text) == QQi(Fraction(re), Fraction(im))


@pytest.mark.parametrize("text", ["1/0", "0/0", "1/00", "1/2+1/0i", "3/0i"])
def test_zero_denominator_is_an_input_error(text):
    with pytest.raises(InputFormatError, match="zero denominator"):
        parse_qqi(text)


@pytest.mark.parametrize("argv", [
    ["dual", "correlations", "--group", "corpus:dual_shift", "--a", "1/0 * x0", "--b", "x0",
     "--n", "0..2"],
    ["dual", "ornstein", "--group", "corpus:dual_shift", "--window", "0..4",
     "--elements", "1/0 * x0 | x0"],
    ["dual", "orbit", "--group", "corpus:dual_finperm_shift", "--word", "(x0 x1) y0"],
    ["dual", "ornstein", "--group", "corpus:dual_finperm_shift", "--window", "0..4",
     "--elements", "(y0 y1) junk | (y0 y1)"],
])
def test_malformed_dual_inputs_exit_2(argv):
    report, code = cli.run(argv)
    assert code == 2, report
    assert not report["error"].startswith("internal invariant violation")


def test_permutations_are_cycles_and_nothing_else():
    spec = corpus.dual("dual_finperm_shift").spec
    for text in ("(x0 x1)(y0 y1)", " (x0 x1)  (y0 y1) ", "(y1 y0) (x1 x0)"):
        assert format_perm(parse_perm(spec, text)) == "(x0 x1)(y0 y1)"
    for text in ("(x0 x1) y0", "(y0 y1) junk", "x0 (x0 x1)", "(x0 x1", "(x0 (x1))", "()()"):
        with pytest.raises(InputFormatError, match="cannot parse permutation"):
            parse_perm(spec, text)


def test_a_repeated_letter_is_named_as_written(dual_finperm):
    """A letter met twice, in one cycle or in two, is named like a word names it."""
    for text, letter in (("(x0 x0)", "x0"), ("(x0 x1)(x1 x2)", "x1"), ("(y0 y3)", "y0")):
        with pytest.raises(StructureError, match=f"^letter {letter} appears twice$"):
            parse_perm(dual_finperm.spec, text)
    report, code = cli.run(["dual", "orbit", "--group", "corpus:dual_finperm_shift",
                            "--word", "(x0 x0)"])
    assert (code, report["error"]) == (2, "letter x0 appears twice")


def test_combinations_and_pair_combinations_split_terms_alike(dual_shift):
    """Both split a term at its first '*'; an omitted coefficient is 1."""
    text = "x0; -1/2 * x1 x0^-1; i*x0; ; 2 * x1"
    single = parse_combination(dual_shift, text)
    pairs = parse_pair_combination(dual_shift, "; ".join(
        f"{term} | 1" for term in text.split(";") if term.strip()))
    assert {g: c for (g, _), c in pairs.items()} == single
    assert single[dual_shift.parse("x0")] == QQi(Fraction(1), Fraction(1))
    with pytest.raises(InputFormatError, match="pair term needs"):
        parse_pair_combination(dual_shift, "2 * x0")


# ---------------------------------------------------------------------------
# words


def test_word_cancellation(dual_shift):
    spec = dual_shift.spec
    x0 = parse_word(spec, "x0")
    assert word_multiply(x0, word_inverse(x0)) == ()
    w = word_multiply(parse_word(spec, "x0 x1"), parse_word(spec, "x1^-1 x5"))
    assert format_word(w) == "x0 x5"
    assert format_word(word_inverse(parse_word(spec, "x0 x1"))) == "x1^-1 x0^-1"


def test_word_reduction_idempotent(dual_mixed):
    rng = random.Random(5)
    spec = dual_mixed.spec
    for _ in range(200):
        w = sample_element(dual_mixed, rng)
        assert word_multiply(w, ()) == w
        assert word_inverse(word_inverse(w)) == w
        assert word_multiply(w, word_inverse(w)) == ()


def test_group_axioms_random_triples(dual_mixed, dual_finperm):
    for sysd in (dual_mixed, dual_finperm):
        rng = random.Random(99)
        for _ in range(1000):
            a = sample_element(sysd, rng)
            b = sample_element(sysd, rng)
            c = sample_element(sysd, rng)
            left = sysd.multiply(sysd.multiply(a, b), c)
            right = sysd.multiply(a, sysd.multiply(b, c))
            assert left == right
            assert sysd.multiply(a, sysd.inverse(a)) == sysd.identity()


def test_automorphism_property_random_pairs(dual_mixed, dual_finperm):
    for sysd in (dual_mixed, dual_finperm):
        rng = random.Random(42)
        for _ in range(1000):
            a = sample_element(sysd, rng)
            b = sample_element(sysd, rng)
            n = rng.randrange(-6, 7)
            lhs = sysd.apply_T(sysd.multiply(a, b), n)
            rhs = sysd.multiply(sysd.apply_T(a, n), sysd.apply_T(b, n))
            assert lhs == rhs
            assert sysd.apply_T(sysd.inverse(a), n) == sysd.inverse(sysd.apply_T(a, n))


def test_apply_T_examples(dual_shift, dual_finperm):
    spec3 = TrackSpec((Track("x", "cycle", 3),))
    sys3 = DualSystem("free", spec3)
    assert dual_shift.apply_T(parse_word(dual_shift.spec, "x0"), 5) == \
        parse_word(dual_shift.spec, "x5")
    w = parse_word(spec3, "x0 x1")
    assert sys3.apply_T(w, 3) == w
    t = FinPerm.from_cycles([[("x", 0), ("x", 1)]])
    assert format_perm(dual_finperm.apply_T(t, 2)) == "(x2 x3)"


def test_power_composition_exact(dual_mixed):
    rng = random.Random(17)
    for _ in range(200):
        g = sample_element(dual_mixed, rng)
        m, n = rng.randrange(-5, 6), rng.randrange(-5, 6)
        assert dual_mixed.apply_T(g, 0) == g
        assert dual_mixed.apply_T(dual_mixed.apply_T(g, m), n) == \
            dual_mixed.apply_T(g, m + n)


# ---------------------------------------------------------------------------
# orbits


def test_orbit_identity(dual_shift):
    cert = dual_shift.orbit_length(())
    assert cert.kind == "finite" and cert.period == 1


def test_orbit_lcm_example(cycles23):
    g = parse_word(cycles23.spec, "x0 y0")
    cert = cycles23.orbit_length(g)
    assert cert.kind == "finite" and cert.period == 6
    # explicit verification: no earlier return
    for j in range(1, 6):
        assert cycles23.apply_T(g, j) != g
    assert cycles23.apply_T(g, 6) == g


def test_orbit_infinite_certificate(dual_shift):
    cert = dual_shift.orbit_length(parse_word(dual_shift.spec, "x0"))
    assert cert.kind == "infinite"
    assert cert.escaping == ("x", 0)


def test_orbit_escape_monotone(dual_mixed, dual_finperm):
    rng = random.Random(8)
    for sysd in (dual_mixed, dual_finperm):
        for _ in range(300):
            g = sample_element(sysd, rng)
            cert = sysd.orbit_length(g)
            if cert.kind == "infinite":
                tid, idx = cert.escaping
                seen = []
                for n in range(1, 51):
                    moved = sysd.apply_T(g, n)
                    letters = dict()
                    if sysd.family == "free":
                        present = [l for l, _ in moved]
                    else:
                        present = list(moved.support)
                    match = [i for t, i in present if t == tid]
                    assert match, "escaping letter track vanished"
                    seen.append(min(m for m in match))
                assert all(b > a for a, b in zip(seen, seen[1:]))
            else:
                n = cert.period
                assert sysd.apply_T(g, n) == g
                for j in range(1, n):
                    assert sysd.apply_T(g, j) != g


def test_finperm_orbit_period_not_just_lcm(dual_finperm):
    # the full rotation of the cycle track commutes with the advance map
    full = FinPerm.from_cycles([[("y", 0), ("y", 1), ("y", 2)]])
    cert = dual_finperm.orbit_length(full)
    assert cert.kind == "finite" and cert.period == 1


# ---------------------------------------------------------------------------
# classification


def test_classify_corpus(dual_shift, dual_cycle2, dual_mixed, dual_finperm):
    cs = classify_dual(dual_shift)
    assert cs.ergodic and cs.strongly_mixing and cs.weakly_mixing and not cs.compact
    cc = classify_dual(dual_cycle2)
    assert cc.compact and not cc.ergodic
    cm = classify_dual(dual_mixed)
    assert not cm.ergodic and not cm.compact
    cf = classify_dual(dual_finperm)
    assert not cf.ergodic and not cf.compact


def test_classify_finite_group_not_ergodic():
    sysd = DualSystem("finperm", TrackSpec((Track("y", "cycle", 3),)))
    cls = classify_dual(sysd)
    assert cls.gamma_finite and cls.gamma_order == 6
    assert cls.compact and not cls.ergodic
    assert any("finite" in note for note in cls.notes)


def test_two_letter_finperm_group_is_compact_not_ergodic():
    # Γ = S2 ≠ {1} is finite, so it is not ergodic
    cls = classify_dual(DualSystem("finperm", TrackSpec((Track("y", "cycle", 2),))))
    assert not cls.ergodic and cls.compact
    assert cls.gamma_order == 2


def test_four_letter_finperm_group_has_order_24():
    cls = classify_dual(DualSystem("finperm", TrackSpec((Track("y", "cycle", 4),))))
    assert cls.gamma_order == 24
    assert not cls.ergodic and cls.compact


@st.composite
def track_sets(draw):
    """A free or finperm group on one to three tracks, cycles of length 1-4
    or shifts, with at most five letters in the piece that
    `orbit_periods_reference` enumerates (two per shift track)."""
    family = draw(st.sampled_from(("free", "finperm")))
    lengths = draw(st.lists(st.one_of(st.none(), st.integers(1, 4)), min_size=1, max_size=3)
                   .filter(lambda ms: sum(m or 2 for m in ms) <= 5))
    return DualSystem(family, TrackSpec(tuple(
        Track(tid, "shift") if m is None else Track(tid, "cycle", m)
        for tid, m in zip("xyz", lengths))))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(sysd=track_sets())
def test_orbits_match_an_independent_count(sysd):
    """`orbit_length`, `finite_orbit_subsystem` and `classify_dual` against
    T iterated on every element of a finite piece of Γ, with no escape rule
    (`orbit_periods_reference`)."""
    members = finite_orbit_subsystem(sysd)
    for g, period in orbit_periods_reference(sysd):
        cert = sysd.orbit_length(g)
        assert (cert.kind, cert.period) == (("infinite", None) if period is None
                                            else ("finite", period)), g
        assert members.membership(g) == (period is not None), g
    cls = classify_dual(sysd)
    assert (cls.ergodic, cls.compact, cls.gamma_order) == classify_dual_reference(sysd)
    assert members.trivial == cls.ergodic


def test_classify_trivial_finperm_group():
    sysd = DualSystem("finperm", TrackSpec((Track("y", "cycle", 1),)))
    cls = classify_dual(sysd)
    assert cls.gamma_order == 1
    assert cls.ergodic and cls.compact


def test_classification_coherence_with_sampled_orbits(
        dual_shift, dual_cycle2, dual_mixed, dual_finperm):
    for sysd in (dual_shift, dual_cycle2, dual_mixed, dual_finperm):
        cls = classify_dual(sysd)
        rng = random.Random(123)
        all_finite = True
        nontrivial_finite = False
        for _ in range(1000):
            g = sample_element(sysd, rng)
            cert = sysd.orbit_length(g)
            if cert.kind == "infinite":
                all_finite = False
            elif g != sysd.identity():
                nontrivial_finite = True
        assert cls.compact == all_finite
        assert cls.ergodic == (not nontrivial_finite)


# ---------------------------------------------------------------------------
# finite orbit subsystem


def test_finite_orbit_subsystem_mixed(dual_mixed):
    fos = finite_orbit_subsystem(dual_mixed)
    assert not fos.trivial
    assert "cycle-track letters y" in fos.description
    assert fos.membership(parse_word(dual_mixed.spec, "y0 y1"))
    assert not fos.membership(parse_word(dual_mixed.spec, "y0 x0"))
    assert classify_dual(fos.restricted).compact
    # multiplicative closure on samples
    rng = random.Random(31)
    members = [g for g in (sample_element(dual_mixed, rng) for _ in range(600))
               if fos.membership(g)]
    for a, b in zip(members, members[1:]):
        assert fos.membership(dual_mixed.multiply(a, b))
        assert fos.membership(dual_mixed.inverse(a))


def test_finite_orbit_subsystem_all_shift(dual_shift):
    fos = finite_orbit_subsystem(dual_shift)
    assert fos.trivial
    assert fos.restricted is None
    assert classify_dual(dual_shift).ergodic


# ---------------------------------------------------------------------------
# correlations


def test_correlation_series_shift_example(dual_shift):
    a = parse_combination(dual_shift, "x0")
    b = parse_combination(dual_shift, "x5^-1")
    s = correlation_series(dual_shift, a, b, range(0, 9))
    assert [v.re for v in s.centered] == [0, 0, 0, 0, 0, 1, 0, 0, 0]
    assert s.bound_satisfied()


def test_correlation_series_unit(dual_shift):
    one = parse_combination(dual_shift, "1")
    s = correlation_series(dual_shift, one, one, range(0, 5))
    assert all(v.is_zero for v in s.centered)
    assert all(v.re == 1 for v in s.raw)


def test_correlation_series_periodic_no_decay(dual_cycle2):
    spec3 = DualSystem("free", TrackSpec((Track("x", "cycle", 3),)))
    a = parse_combination(spec3, "x0")
    b = parse_combination(spec3, "x0^-1")
    s = correlation_series(spec3, a, b, range(0, 10))
    assert [v.re for v in s.raw] == [1 if n % 3 == 0 else 0 for n in range(10)]


def _random_combination(sysd, rng):
    """1-4 terms λ(g) with random Gaussian-rational coefficients."""
    c = {}
    for _ in range(rng.randint(1, 4)):
        g = sample_element(sysd, rng, max_len=3)
        coef = QQi(Fraction(rng.randint(-6, 6), rng.randint(1, 5)),
                   Fraction(rng.randint(-6, 6), rng.randint(1, 5)))
        c[g] = c.get(g, QQi()) + coef
    return c


@pytest.mark.parametrize("name", DUAL_SYSTEMS)
def test_correlation_series_matches_per_n_loop(name):
    sysd = DUAL_SYSTEMS[name]
    rng = random.Random(sum(map(ord, name)) + 2)
    for window in (range(-9, 15), range(-20, -11), range(40, 47)):
        for _ in range(15):
            a, b = _random_combination(sysd, rng), _random_combination(sysd, rng)
            if rng.random() < 0.3:   # an identity term makes the mean nonzero
                a[sysd.identity()] = QQi(Fraction(1, 2))
                b[sysd.identity()] = QQi(Fraction(-2), Fraction(1))
            series = correlation_series(sysd, a, b, window)
            raw, centered = correlation_reference(sysd, a, b, window)
            assert series.ns == list(window)
            assert series.raw == raw
            assert series.centered == centered
            cap = series.norm_a2 * series.norm_b2
            assert series.bound_satisfied() == all(v.abs2() <= cap for v in centered)


def test_bound_satisfied_flags_one_violating_value():
    ok, bad = QQi(Fraction(1, 2)), QQi(Fraction(1), Fraction(1))
    series = CorrelationSeries(ns=list(range(9)), raw=[ok] * 9, centered=[ok] * 8 + [bad],
                               norm_a2=Fraction(1), norm_b2=Fraction(1))
    assert not series.bound_satisfied()
    series.centered = [ok] * 9
    assert series.bound_satisfied()


# free alphabets of 8, 9, 16 and 17 letters: a power of two and one above it,
# where the rejection rule draws one bit more (a shift track has 9 letters)
EDGE_ALPHABETS = {
    "cycle8": (Track("x", "cycle", 8),),
    "cycle9": (Track("x", "cycle", 9),),
    "cycle7_shift": (Track("x", "cycle", 7), Track("y", "shift")),
    "cycle8_shift": (Track("x", "cycle", 8), Track("y", "shift")),
}


def _sampled_system(name):
    if name in EDGE_ALPHABETS:
        return DualSystem("free", TrackSpec(EDGE_ALPHABETS[name]))
    return corpus.dual(name)


@pytest.mark.parametrize("name", list(corpus.DUAL_SYSTEMS) + list(EDGE_ALPHABETS))
def test_sampler_matches_reference(name):
    """Same elements, and the same stream consumed, for lengths up to 0, 1, 7 and 8 too;
    the orbit kind counts are those of the same elements."""
    sysd = _sampled_system(name)
    max_lens = (6, 3, 6, 0, 1, 7, 8)
    for seed in (0, 1, 7, 42):
        ours, ref = random.Random(seed), random.Random(seed)
        for max_len in max_lens:
            for _ in range(100):
                assert sample_element(sysd, ours, max_len) == sample_element_reference(
                    sysd, ref, max_len)
            assert ours.getstate() == ref.getstate()
        ours, ref = random.Random(seed), random.Random(seed)
        for max_len in max_lens:
            drawn = [sample_element_reference(sysd, ref, max_len) for _ in range(100)]
            assert orbit_kind_counts(sysd, ours, 100, max_len) == (
                sum(sysd.orbit_length(g).kind == "finite" for g in drawn),
                sum(g == sysd.identity() for g in drawn))
            assert ours.getstate() == ref.getstate()
        if name in EDGE_ALPHABETS:
            continue
        ref = random.Random(seed)
        kinds = [sysd.orbit_length(sample_element_reference(sysd, ref)).kind
                 for _ in range(300)]
        report, code = cli.run(["dual", "classify", "--group", f"corpus:{name}",
                                "--samples", "300", "--seed", str(seed)])
        assert code == 0
        coherence = report["results"]["coherence"]
        assert (coherence["finite_orbits"], coherence["infinite_orbits"]) == (
            kinds.count("finite"), kinds.count("infinite"))


@pytest.mark.parametrize("name", list(corpus.DUAL_SYSTEMS) + list(EDGE_ALPHABETS))
def test_coherence_matches_per_sample_loop(name):
    """Counting the samples by orbit kind as they are drawn gives the per-sample counts."""
    sysd = _sampled_system(name)
    cls = classify_dual(sysd)
    for seed in (0, 5, 19):
        for samples in (1, 400, 2000):
            assert cli._dual_coherence(sysd, cls, samples, seed) == dual_coherence_reference(
                sysd, samples, seed)


@pytest.mark.parametrize("name", corpus.DUAL_SYSTEMS)
def test_sampler_rejects_negative_length(name):
    """A negative length bound is an empty range for both families, as for `randrange`."""
    sysd = corpus.dual(name)
    for draw in (lambda rng: sample_element(sysd, rng, -1),
                 lambda rng: sample_element_reference(sysd, rng, -1),
                 lambda rng: orbit_kind_counts(sysd, rng, 5, -1)):
        with pytest.raises(ValueError, match="empty range"):
            draw(random.Random(0))


def test_correlation_series_empty_support(dual_shift):
    with pytest.raises(InputFormatError):
        correlation_series(dual_shift, {}, {(): QQi(Fraction(1))}, range(3))


def test_correlation_ergodic_escape_bound(dual_shift):
    # centered correlations of nonidentity words vanish past the index span
    rng = random.Random(77)
    for _ in range(200):
        a = {sample_element(dual_shift, rng): QQi(Fraction(1))}
        b = {sample_element(dual_shift, rng): QQi(Fraction(1))}
        idxs = [i for w in (*a, *b) for (_, i), _ in w]
        span = (max(idxs) - min(idxs)) if idxs else 0
        s = correlation_series(dual_shift, a, b, range(span + 1, span + 10))
        ga, gb = next(iter(a)), next(iter(b))
        expect = QQi(Fraction(1)) if (ga == () and gb == ()) else QQi()
        for v in s.raw:
            assert v == expect


# ---------------------------------------------------------------------------
# graph values and the ratio scan


def test_delta_examples(dual_shift, dual_cycle2):
    c_diag = parse_pair_combination(dual_shift, "x0 | x0")
    assert delta_n_eval(dual_shift, c_diag, 0).value == QQi(Fraction(1))
    for n in range(1, 6):
        assert delta_n_eval(dual_shift, c_diag, n).value == QQi()
    one = parse_pair_combination(dual_shift, "1 | 1")
    for n in range(5):
        assert delta_n_eval(dual_shift, one, n).value == QQi(Fraction(1))


def test_ornstein_scan_shift_two_terms(dual_shift):
    c = parse_pair_combination(dual_shift, "x0 | x0; x1 | x1")
    scan = ornstein_scan_dual(dual_shift, [c], range(0, 12))
    rep = scan.elements[0]
    assert rep.escape_bound == 1
    assert rep.denominator == 2
    assert all(r == 1 for n, r in rep.ratios if n >= 2)
    assert rep.ratios[0] == (0, Fraction(2))
    assert scan.strongly_mixing


def test_ornstein_scan_cycle2_limsup(dual_cycle2):
    c = parse_pair_combination(dual_cycle2, "x0 | x0; x1 | x1")
    scan = ornstein_scan_dual(dual_cycle2, [c], range(0, 12))
    rep = scan.elements[0]
    assert rep.limsup_window == Fraction(2)
    assert [r for _, r in rep.ratios[:4]] == [Fraction(2), Fraction(1), Fraction(2), Fraction(1)]
    assert not scan.strongly_mixing


def test_ornstein_scan_unit_element(dual_shift, dual_cycle2):
    for sysd in (dual_shift, dual_cycle2):
        one = parse_pair_combination(sysd, "1 | 1")
        scan = ornstein_scan_dual(sysd, [one], range(0, 6))
        assert all(r == 1 for _, r in scan.elements[0].ratios)


def test_ornstein_scan_skips_degenerate(dual_shift):
    scan = ornstein_scan_dual(dual_shift, [{}], range(0, 3), labels=["empty"])
    assert scan.skipped == ["empty"]


ONE_LETTER_CYCLE = {"family": "finperm",
                    "tracks": [{"id": "c", "kind": "cycle", "m": 1}, {"id": "s", "kind": "shift"}]}


@pytest.mark.parametrize("group, elements, bound", [
    (ONE_LETTER_CYCLE, None, None),
    (ONE_LETTER_CYCLE, "(c0 s0) | (c0 s0); 2 * (c0 s-3 s7) | (s-3 c0)", 10),
    (ONE_LETTER_CYCLE, "(c0 s5 s7) | (c0 s5 s7)", 2),
    (ONE_LETTER_CYCLE, "(s5 s7) | (s5 s7)", 2),
    ({"family": "finperm", "tracks": [{"id": "s", "kind": "shift"}], "h": {"cycles": [["p"]]}},
     None, None),
], ids=["track", "track-elements", "fixed-letter", "shift-letters", "h-cycle"])
def test_ornstein_scan_on_a_one_letter_cycle(tmp_path, capsys, group, elements, bound):
    """A finperm group with a single cycle letter is ergodic and strongly
    mixing: its one-letter cycle permutes nothing. The scan reads that off
    the classification, so it gives escape bounds and checks them on the
    window instead of reporting an internal error. T fixes the cycle letter
    c0, so its index does not widen a bound: it is the span of the shift
    letters, with or without c0."""
    path = tmp_path / "group.json"
    path.write_text(json.dumps(group))
    argv = ["dual", "ornstein", "--group", str(path), "--window=-20..64", "--format", "json"]
    assert cli.main(argv + ([f"--elements={elements}"] if elements else [])) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["strongly_mixing"] is True
    assert classify_dual(dual.load_dual(group)).strongly_mixing
    for elem in results["elements"]:
        assert elem["escape_bound"] is not None and elem["eventual_ratio"] == "1"
        assert bound is None or elem["escape_bound"] == bound
        assert all(r == "1" for n, r in elem["ratios"] if n > elem["escape_bound"])


def _random_pair_combination(sysd, rng):
    """1-5 terms λ(g) ⊗ ρ(h) with random Gaussian-rational coefficients."""
    def frac():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 5))

    c = {}
    for _ in range(rng.randint(1, 5)):
        key = (sample_element(sysd, rng), sample_element(sysd, rng))
        c[key] = c.get(key, QQi()) + QQi(frac(), frac())
    return c


@pytest.mark.parametrize("name", DUAL_SYSTEMS)
def test_shift_times_match_brute_force(name):
    sysd = DUAL_SYSTEMS[name]
    rng = random.Random(sum(map(ord, name)) + 1)
    window = range(-30, 31)
    for _ in range(60):
        w = sample_element(sysd, rng)
        # half the keys are reachable from w, half are independent draws
        if rng.random() < 0.5:
            v = sysd.apply_T(w, rng.randint(-12, 12))
        else:
            v = sample_element(sysd, rng)
        times = _shift_times(sysd, w, v)
        hits = [n for n in window if sysd.apply_T(w, n) == v]
        if times is None:
            assert hits == []
        elif times[1] == 0:
            assert hits == [times[0]]
        else:
            r, p = times
            assert 0 <= r < p == sysd.orbit_length(w).period
            assert hits == [n for n in window if (n - r) % p == 0]


@pytest.mark.parametrize("name", DUAL_SYSTEMS)
def test_square_table_matches_pair_loop(name):
    sysd = DUAL_SYSTEMS[name]
    rng = random.Random(sum(map(ord, name)))
    window = range(-7, 13)
    for _ in range(30):
        c = _random_pair_combination(sysd, rng)
        refs = [delta_n_reference(sysd, c, n) for n in window]
        for n, ref in zip(window, refs):
            ev = delta_n_eval(sysd, c, n)
            assert isinstance(ev.square_value, Fraction)
            assert (ev.value, ev.square_value, ev.product_square) == (
                ref.value, ref.square_value, ref.product_square), n
        scan = ornstein_scan_dual(sysd, [c], window, labels=["c"])
        denom = refs[0].product_square
        if denom == 0:
            assert scan.skipped == ["c"]
            continue
        assert scan.elements[0].denominator == denom
        assert scan.elements[0].ratios == [
            (n, ref.square_value / denom) for n, ref in zip(window, refs)]


# the scanned groups: on the free group with cycles of 7, 11 and 13 letters
# the residue rows of a scan can have lcm 1001, longer than any window
SCAN_SYSTEMS = dict(DUAL_SYSTEMS, free_7_11_13_shift=DualSystem("free", TrackSpec((
    Track("x", "cycle", 7), Track("y", "cycle", 11), Track("z", "cycle", 13),
    Track("s", "shift")))))


@pytest.mark.parametrize("name", SCAN_SYSTEMS)
def test_dual_scans_match_per_n_references(monkeypatch, name):
    """The window scans and their readers against the per-n loops: windows
    with negative starts, and one-n windows at single shift times.

    The escape check is run with a claimed bound on every group, mixing or
    not, so that it meets ratios other than one: it must raise at the first
    n past the bound whose reference ratio is not one, and only then."""
    sysd = SCAN_SYSTEMS[name]
    rng = random.Random(sum(map(ord, name)) + 3)
    for _ in range(6):
        a, b = _random_combination(sysd, rng), _random_combination(sysd, rng)
        c = _random_pair_combination(sysd, rng)
        # for each element g of a, and each first leg g of c, a term that meets
        # T^n(g) at a random n: a single shift time when g escapes, else a residue
        times = [rng.randint(-40, 40) for _ in range(len(a) + len(c))]
        for g, n in zip(list(a), times):
            h = sysd.inverse(sysd.apply_T(g, n))
            b[h] = b.get(h, QQi()) + QQi(Fraction(rng.randint(1, 6), rng.randint(1, 5)))
        for (g, _), n in zip(list(c), times[len(a):]):
            key = (g, sysd.apply_T(g, n))
            c[key] = c.get(key, QQi()) + QQi(Fraction(rng.randint(1, 6), rng.randint(1, 5)))
        for window in (range(-25, 31), range(-61, -44), range(times[0], times[0] + 1),
                       range(times[-1], times[-1] + 1)):
            series = correlation_series(sysd, a, b, window)
            raw, centered = correlation_reference(sysd, a, b, window)
            assert (series.ns, series.raw, series.centered) == (list(window), raw, centered)
            cap = series.norm_a2 * series.norm_b2
            assert series.bound_satisfied() == all(v.abs2() <= cap for v in centered)

            refs = [delta_n_reference(sysd, c, n) for n in window]
            denom = refs[0].product_square
            ratios = [(n, ref.square_value / denom) for n, ref in zip(window, refs)]
            scan = ornstein_scan_dual(sysd, [c], window, labels=["c"])
            rep = scan.elements[0]
            assert (rep.denominator, rep.ratios) == (denom, ratios)
            assert rep.limsup_window == max(r for _, r in ratios) == scan.max_limsup
            assert (rep.escape_bound is None) == (not scan.strongly_mixing)

            bound = rng.randint(window.start - 1, window.stop)
            first = next(((n, r) for n, r in ratios if n > bound and r != 1), None)
            with monkeypatch.context() as m:
                m.setattr(dual, "classify_dual", lambda _: SimpleNamespace(strongly_mixing=True))
                m.setattr(dual, "_index_span", lambda *_: bound)
                if first is None:
                    assert ornstein_scan_dual(sysd, [c], window).elements[0].escape_bound == bound
                    continue
                with pytest.raises(NcjoinError) as err:
                    ornstein_scan_dual(sysd, [c], window, labels=["c"])
            assert str(err.value) == (
                f"escape bound violated for c at n = {first[0]}: ratio {first[1]}")


def test_ornstein_scan_rejects_an_empty_window(monkeypatch, dual_shift):
    """An empty window raises before any square table is built, as the
    finite ratio scan does."""
    def built(*_):
        raise AssertionError("square table built for an empty window")

    monkeypatch.setattr(dual, "_square_table", built)
    c = parse_pair_combination(dual_shift, "x0 | x0")
    with pytest.raises(ValueError, match="^empty scan window$"):
        ornstein_scan_dual(dual_shift, [c], range(0))


# ---------------------------------------------------------------------------
# opposite-group joining


def test_opposite_joining_shift_trivial(dual_shift):
    oj = opposite_group_joining(dual_shift)
    assert oj.subsystem.trivial
    assert oj.witness is None
    assert oj.evaluate((), ()) == 1


def test_opposite_joining_mixed_witness(dual_mixed):
    oj = opposite_group_joining(dual_mixed)
    assert not oj.subsystem.trivial
    g, h = oj.witness
    assert oj.evaluate(g, h) == 1
    assert oj.product_value(g, h) == 0
    with pytest.raises(InputFormatError):
        oj.evaluate(g, parse_word(dual_mixed.spec, "x0"))


def test_opposite_joining_marginal_and_invariance(dual_mixed):
    oj = opposite_group_joining(dual_mixed)
    spec = dual_mixed.spec
    words = [(), parse_word(spec, "y0"), parse_word(spec, "y0 y1"),
             parse_word(spec, "y1^-1")]
    for g in words:
        # marginal in the first leg: h = identity picks the Haar state
        haar = Fraction(1) if g == () else Fraction(0)
        assert oj.evaluate(g, ()) == haar
        for h in words:
            lhs = oj.evaluate(dual_mixed.apply_T(g, 1), dual_mixed.apply_T(h, 1))
            assert lhs == oj.evaluate(g, h)


def test_opposite_joining_finperm(dual_finperm):
    oj = opposite_group_joining(dual_finperm)
    assert not oj.subsystem.trivial
    g, h = oj.witness
    assert oj.evaluate(g, h) == 1
