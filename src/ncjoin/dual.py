"""Exact engine for group-algebra dual systems.

A discrete group Γ comes either as a free group on a trackwise alphabet or
as the finitary permutations of that alphabet. The distinguished
automorphism T advances every track index by one (modulo m on a cycle
track); for the permutation family T conjugates by that advance bijection.
Every quantity here is exact: words and permutations are symbolic,
coefficients are Gaussian rationals, correlations are indicator sums.

The Haar (trace) state on the group algebra is μ(λ(g)) = [g = identity];
the mirror leg uses right translations ρ(h), and the shifted diagonal
values reduce to Δ_n(λ(g) ⊗ ρ(h)) = [T^n(g) = h].

A dual-system file, read by `load_dual`, is the JSON object

    {"family": "free" | "finperm",
     "tracks": [{"id": "x", "kind": "shift"} | {"id": "y", "kind": "cycle", "m": 3}],
     "h": {"cycles": [["p", "q", ...], ...]}}

"h" is only meaningful for the finperm family: it spells out extra finite
cycles of the conjugating bijection over fresh letter names, which are
normalized into cycle tracks at load time. The track spec keeps each
original name with its letter, so a name stands for that letter wherever a
permutation names one: with cycles [["p", "q"]], "(p q)" is "(ha0 ha1)".
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputFormatError, NcjoinError, StructureError, _expect, _integer

Letter = tuple[str, int]


# ---------------------------------------------------------------------------
# exact scalars


@dataclass(frozen=True)
class QQi:
    """Gaussian rational a + b·i with Fraction components."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    @staticmethod
    def of(x) -> "QQi":
        if isinstance(x, QQi):
            return x
        return QQi(Fraction(x))   # exact: a complex raises TypeError

    def __add__(self, other):
        other = QQi.of(other)
        return QQi(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        other = QQi.of(other)
        return QQi(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        other = QQi.of(other)
        return QQi(self.re * other.re - self.im * other.im,
                   self.re * other.im + self.im * other.re)

    def conjugate(self) -> "QQi":
        return QQi(self.re, -self.im)

    def abs2(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        sign = "+" if self.im >= 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


_QQI_RE = re.compile(r"^([+-]?\d+(?:/\d+)?)??(?:([+-]?(?:\d+(?:/\d+)?)?)i)?$")


def parse_qqi(text: str) -> QQi:
    """Parse '1', '-2/3', 'i', '-i', '3/4i', '1/2+1/3i' and friends."""
    s = text.replace(" ", "")
    if not s:
        raise InputFormatError("empty coefficient")
    m = _QQI_RE.match(s)
    if not m or (m.group(1) is None and m.group(2) is None):
        raise InputFormatError(f"cannot parse coefficient {text!r}")
    re_txt, im_txt = m.group(1) or "0", m.group(2)
    if im_txt is None:
        im_txt = "0"
    elif im_txt in ("", "+", "-"):
        im_txt += "1"
    try:
        return QQi(Fraction(re_txt), Fraction(im_txt))
    except ZeroDivisionError:
        raise InputFormatError(f"zero denominator in coefficient {text!r}") from None


# ---------------------------------------------------------------------------
# tracks and letters


@dataclass(frozen=True)
class Track:
    id: str
    kind: str           # "cycle" | "shift"
    m: int | None = None

    def __post_init__(self):
        if not re.fullmatch(r"[A-Za-z_]+", self.id):
            raise StructureError(f"track id {self.id!r} must be alphabetic")
        if self.kind not in ("cycle", "shift"):
            raise StructureError(f"unknown track kind {self.kind!r}")
        if self.kind == "cycle" and (self.m is None or self.m < 1):
            raise StructureError(f"cycle track {self.id!r} needs length m >= 1")
        if self.kind == "shift" and self.m is not None:
            raise StructureError(f"shift track {self.id!r} takes no length m")


@dataclass(frozen=True)
class TrackSpec:
    tracks: tuple[Track, ...]
    names: tuple[tuple[str, Letter], ...] = ()   # 'h' letter names, like ("p", ("ha", 0))

    def __post_init__(self):
        if not self.tracks:
            raise StructureError("at least one track is required")
        ids = [t.id for t in self.tracks]
        if len(set(ids)) != len(ids):
            raise StructureError("track ids must be unique")

    def track(self, tid: str) -> Track:
        for t in self.tracks:
            if t.id == tid:
                return t
        raise InputFormatError(f"unknown track {tid!r}")

    def normalize(self, letter: Letter) -> Letter:
        tid, idx = letter
        t = self.track(tid)
        if t.kind == "cycle":
            return (tid, idx % t.m)
        return (tid, idx)

    def advance(self, letter: Letter, n: int) -> Letter:
        return self.normalize((letter[0], letter[1] + n))

    @property
    def cycle_tracks(self) -> tuple[Track, ...]:
        return tuple(t for t in self.tracks if t.kind == "cycle")

    @property
    def shift_tracks(self) -> tuple[Track, ...]:
        return tuple(t for t in self.tracks if t.kind == "shift")


# ---------------------------------------------------------------------------
# free words


FreeWord = tuple[tuple[Letter, int], ...]

IDENTITY_WORD: FreeWord = ()


def _reduce(seq) -> FreeWord:
    stack: list[tuple[Letter, int]] = []
    for letter, e in seq:
        if stack and stack[-1][0] == letter and stack[-1][1] == -e:
            stack.pop()
        else:
            stack.append((letter, e))
    return tuple(stack)


def word_multiply(w1: FreeWord, w2: FreeWord) -> FreeWord:
    return _reduce(list(w1) + list(w2))


def word_inverse(w: FreeWord) -> FreeWord:
    return tuple((letter, -e) for letter, e in reversed(w))


def format_word(w: FreeWord) -> str:
    if not w:
        return "1"
    parts = []
    for (tid, idx), e in w:
        parts.append(f"{tid}{idx}" + ("^-1" if e == -1 else ""))
    return " ".join(parts)


_TOKEN_RE = re.compile(r"^([A-Za-z_]+)(-?\d+)(?:\^(-?\d+))?$")


def parse_word(spec: TrackSpec, text: str) -> FreeWord:
    text = text.strip()
    if text in ("", "1", "e", "id"):
        return IDENTITY_WORD
    seq = []
    for tok in text.split():
        m = _TOKEN_RE.match(tok)
        if not m:
            raise InputFormatError(f"cannot parse word token {tok!r}")
        tid, idx, exp = m.group(1), int(m.group(2)), m.group(3)
        k = int(exp) if exp is not None else 1
        letter = spec.normalize((tid, idx))
        e = 1 if k > 0 else -1
        seq.extend([(letter, e)] * abs(k))
    return _reduce(seq)


# ---------------------------------------------------------------------------
# finitary permutations


@dataclass(frozen=True)
class FinPerm:
    """Finite-support bijection of the letter set, stored by nonidentity pairs."""

    pairs: tuple[tuple[Letter, Letter], ...] = ()

    def __post_init__(self):
        mapping = dict(self.pairs)
        if len(mapping) != len(self.pairs):
            raise StructureError("duplicate domain point in permutation")
        if set(mapping) != set(mapping.values()):
            raise StructureError("permutation support is not closed")
        clean = tuple(sorted((x, y) for x, y in mapping.items() if x != y))
        object.__setattr__(self, "pairs", clean)

    def apply(self, x: Letter) -> Letter:
        for a, b in self.pairs:
            if a == x:
                return b
        return x

    @property
    def support(self) -> tuple[Letter, ...]:
        return tuple(a for a, _ in self.pairs)

    def compose(self, other: "FinPerm") -> "FinPerm":
        """self after other: (self ∘ other)(x) = self(other(x))."""
        domain = set(self.support) | set(other.support)
        return FinPerm(tuple((x, self.apply(other.apply(x))) for x in domain))

    def inverse(self) -> "FinPerm":
        return FinPerm(tuple((b, a) for a, b in self.pairs))

    @staticmethod
    def from_cycles(cycles) -> "FinPerm":
        pairs = []
        seen = set()
        for cyc in cycles:
            if len(cyc) < 2:
                continue
            for x in cyc:
                if x in seen:
                    raise StructureError(f"letter {x[0]}{x[1]} appears twice")
                seen.add(x)
            for i, x in enumerate(cyc):
                pairs.append((x, cyc[(i + 1) % len(cyc)]))
        return FinPerm(tuple(pairs))

    def cycles(self):
        remaining = set(self.support)
        out = []
        while remaining:
            start = min(remaining)
            cyc = [start]
            remaining.discard(start)
            x = self.apply(start)
            while x != start:
                cyc.append(x)
                remaining.discard(x)
                x = self.apply(x)
            out.append(tuple(cyc))
        return out


IDENTITY_PERM = FinPerm()


def format_perm(p: FinPerm) -> str:
    if not p.pairs:
        return "id"
    return "".join(
        "(" + " ".join(f"{tid}{idx}" for tid, idx in cyc) + ")" for cyc in p.cycles())


def parse_perm(spec: TrackSpec, text: str) -> FinPerm:
    text = text.strip()
    if text in ("", "id", "1", "e", "()"):
        return IDENTITY_PERM
    if not re.fullmatch(r"(\([^()]*\)\s*)+", text):   # cycles, whitespace between
        raise InputFormatError(f"cannot parse permutation {text!r}")
    names = dict(spec.names)
    cycles = []
    for chunk in re.findall(r"\(([^()]*)\)", text):
        letters = []
        for tok in chunk.split():
            if tok in names:
                letters.append(names[tok])
            elif m := re.match(r"^([A-Za-z_]+)(-?\d+)$", tok):
                letters.append(spec.normalize((m.group(1), int(m.group(2)))))
            else:
                raise InputFormatError(f"cannot parse letter {tok!r}")
        if letters:
            cycles.append(letters)
    if not cycles:
        raise InputFormatError(f"cannot parse permutation {text!r}")
    return FinPerm.from_cycles(cycles)


# ---------------------------------------------------------------------------
# the dual system


@dataclass(frozen=True)
class DualSystem:
    """Group with the track-advance automorphism; family is free or finperm."""

    family: str
    spec: TrackSpec

    def __post_init__(self):
        if self.family not in ("free", "finperm"):
            raise StructureError(f"unknown family {self.family!r}")

    # group operations -----------------------------------------------------

    def identity(self):
        return IDENTITY_WORD if self.family == "free" else IDENTITY_PERM

    def multiply(self, a, b):
        if self.family == "free":
            return word_multiply(a, b)
        return a.compose(b)

    def inverse(self, a):
        return word_inverse(a) if self.family == "free" else a.inverse()

    def format(self, a) -> str:
        return format_word(a) if self.family == "free" else format_perm(a)

    def parse(self, text: str):
        if self.family == "free":
            return parse_word(self.spec, text)
        return parse_perm(self.spec, text)

    # the automorphism ------------------------------------------------------

    def apply_T(self, g, n: int = 1):
        """n-th power of the automorphism; exact, any sign of n."""
        if self.family == "free":
            return tuple((self.spec.advance(letter, n), e) for letter, e in g)
        return FinPerm(tuple(
            (self.spec.advance(x, n), self.spec.advance(y, n)) for x, y in g.pairs))

    def _letters_of(self, g):
        if self.family == "free":
            return [letter for letter, _ in g]
        return list(g.support)

    @functools.cached_property
    def _shift_ids(self) -> frozenset[str]:
        """Ids of the shift tracks: T moves a letter on one of them monotonically."""
        return frozenset(t.id for t in self.spec.shift_tracks)

    @functools.cached_property
    def _alphabet(self) -> tuple[Letter, ...]:
        """The normalized letters `sample_element` draws from."""
        letters = []
        for t in self.spec.tracks:
            span = range(t.m) if t.kind == "cycle" else range(-4, 5)
            letters.extend((t.id, i) for i in span)
        return tuple(letters)

    def orbit_length(self, g) -> "OrbitCertificate":
        """Exact orbit analysis, no iteration bound needed.

        An element whose letters (or support) touch a shift track escapes
        monotonically and the certificate names an escaping letter. Otherwise
        the orbit is periodic; the minimal period divides the lcm of the
        cycle lengths involved and is found among its divisors.
        """
        letters = self._letters_of(g)
        for letter in letters:
            if letter[0] in self._shift_ids:
                return OrbitCertificate(kind="infinite", escaping=letter)
        tracks = {tid for tid, _ in letters}
        lcm = 1
        for tid in sorted(tracks):
            lcm = math.lcm(lcm, self.spec.track(tid).m)
        # T^lcm fixes every letter involved, so the search stops at lcm at the latest
        period = next(d for d in sorted(_divisors(lcm)) if self.apply_T(g, d) == g)
        return OrbitCertificate(kind="finite", period=period)


def _divisors(n: int):
    out = set()
    for d in range(1, int(math.isqrt(n)) + 1):
        if n % d == 0:
            out.add(d)
            out.add(n // d)
    return out


@dataclass
class OrbitCertificate:
    kind: str                     # "finite" | "infinite"
    period: int | None = None
    escaping: Letter | None = None


@dataclass
class DualClassification:
    ergodic: bool
    weakly_mixing: bool
    strongly_mixing: bool
    compact: bool
    gamma_finite: bool
    gamma_order: int | None
    notes: tuple[str, ...]


def classify_dual(sys: DualSystem) -> DualClassification:
    """Exact classification from the orbit structure.

    Ergodicity, weak mixing and strong mixing coincide for dual systems and
    hold exactly when only the identity has a finite orbit. Compactness
    holds exactly when every orbit is finite. A group with 1 < |Γ| < ∞ is
    not ergodic: a finite finperm group has more than one cycle letter.
    """
    spec = sys.spec
    all_finite = not spec.shift_tracks
    if sys.family == "free":
        ergodic, gamma_finite, order = not spec.cycle_tracks, False, None
    else:
        letters = sum(t.m for t in spec.cycle_tracks)
        ergodic, gamma_finite = letters <= 1, all_finite
        order = math.factorial(letters) if all_finite and letters <= 64 else None
    notes = ((f"|Γ| = {order} is finite and larger than 1, hence not ergodic",)
             if order is not None and order > 1 else ())
    return DualClassification(
        ergodic=ergodic,
        weakly_mixing=ergodic,
        strongly_mixing=ergodic,
        compact=all_finite,
        gamma_finite=gamma_finite,
        gamma_order=order,
        notes=notes,
    )


@dataclass
class FiniteOrbitSubsystem:
    """The subsystem generated by the elements with finite orbit."""

    system: DualSystem
    description: str
    trivial: bool
    restricted: DualSystem | None

    def membership(self, g) -> bool:
        return self.system.orbit_length(g).kind == "finite"


def finite_orbit_subsystem(sys: DualSystem) -> FiniteOrbitSubsystem:
    """Membership predicate and restricted system for the finite-orbit part.

    For the free family the finite-orbit elements form the free subgroup on
    the cycle-track letters; for permutations they are the ones supported on
    the cycle-track letters. The restricted system is compact; a trivial
    restriction is exactly the ergodic case.
    """
    cycles = sys.spec.cycle_tracks
    trivial = classify_dual(sys).ergodic
    description = ("trivial subgroup" if trivial else
                   ("free subgroup on" if sys.family == "free" else
                    "finitary permutations supported on")
                   + " the cycle-track letters " + ", ".join(t.id for t in cycles))
    restricted = DualSystem(sys.family, TrackSpec(cycles)) if cycles else None
    return FiniteOrbitSubsystem(
        system=sys, description=description, trivial=trivial, restricted=restricted)


# ---------------------------------------------------------------------------
# the dual-system file


def load_dual(data) -> DualSystem:
    """The group of a parsed dual-system file; its spec keeps the 'h' letter names.

    The family is checked first; `Track`, `TrackSpec` and `DualSystem`
    check the rest, and their errors are reported as malformed input.
    """
    _expect(data, dict, "a dual-system file")
    family = data.get("family")
    if family not in ("free", "finperm"):
        raise InputFormatError(f"family must be 'free' or 'finperm', got {family!r}")
    tracks = []
    for t in _expect(data.get("tracks", []), list, "'tracks'"):
        try:
            kind = t["kind"]
            tracks.append(Track(t["id"], kind,
                                _integer(t["m"], "track m") if kind == "cycle" else t.get("m")))
        except (KeyError, TypeError, StructureError) as exc:
            raise InputFormatError(f"malformed track {t!r}: {exc}") from exc
    named: dict[str, Letter] = {}
    cycles = []   # (track id, length) of each 'h' cycle
    if data.get("h") is not None:
        if family != "finperm":
            raise InputFormatError("'h' is only meaningful for the finperm family")
        for ci, cyc in enumerate(_expect(_expect(data["h"], dict, "'h'").get("cycles", []),
                                         list, "'h' cycles")):
            suffix, k = "", ci
            while k >= 0:   # ha, ..., hz, haa, ...: digits belong to indices
                suffix, k = chr(ord("a") + k % 26) + suffix, k // 26 - 1
            tid = f"h{suffix}"
            names = [str(x) for x in _expect(cyc, list, "an 'h' cycle")]
            for pos, name in enumerate(names):
                if not re.fullmatch(r"[A-Za-z_]+", name):
                    raise InputFormatError(f"'h' cycle letters must be bare names, got {name!r}")
                if name in named:
                    raise InputFormatError(f"letter {name!r} appears " + (
                        "twice in one 'h' cycle" if name in names[:pos] else "in two 'h' cycles"))
                named[name] = (tid, pos)
            cycles.append((tid, len(names)))
    try:
        spec = TrackSpec((*tracks, *(Track(tid, "cycle", m) for tid, m in cycles)),
                         tuple(named.items()))
        return DualSystem(family, spec)
    except StructureError as exc:
        raise InputFormatError(str(exc)) from exc


# ---------------------------------------------------------------------------
# correlations, graph values, ratio scans


Combination = dict  # element -> QQi


def _haar(sys: DualSystem, comb: Combination) -> QQi:
    return comb.get(sys.identity(), QQi())


def _norm2_squared(comb: Combination) -> Fraction:
    return sum((c.abs2() for c in comb.values()), Fraction(0))


@dataclass
class CorrelationSeries:
    ns: list[int]
    raw: list[QQi]          # μ(α^n(a) b)
    centered: list[QQi]     # raw - μ(a) μ(b)
    norm_a2: Fraction
    norm_b2: Fraction

    def bound_satisfied(self) -> bool:
        """Cauchy-Schwarz: |centered value|² ≤ ‖a‖₂²‖b‖₂², exactly, per distinct object."""
        cap = self.norm_a2 * self.norm_b2
        return all(v.abs2() <= cap for v in {id(v): v for v in self.centered}.values())


def _shift_times(sys: DualSystem, w, v) -> tuple[int, int] | None:
    """The exact set {n : T^n(w) = v}: (r, 0) for the single time r, (r, p)
    for r + pℤ, None when it is empty.

    T moves a shift-track letter monotonically, so an element with one meets
    v at most once, at the index difference of that letter: at the same
    position of a free word, and at the smallest support index on that
    track of a permutation (T keeps the letter count of every track, so the
    sorted supports put it at the same position). Otherwise the orbit of w
    has period p, and r is the one residue in [0, p) that T^r(w) = v, tried
    only where T^r moves the first letter of w onto a letter of v.
    """
    lw, lv = sys._letters_of(w), sys._letters_of(v)
    if len(lw) != len(lv):
        return None
    if not lw:
        return (0, 1)
    cert = sys.orbit_length(w)
    if cert.kind == "infinite":
        i = lw.index(cert.escaping)
        if lv[i][0] != lw[i][0]:
            return None
        n0 = lv[i][1] - lw[i][1]
        return (n0, 0) if sys.apply_T(w, n0) == v else None
    first, targets = lw[0], set(lv)
    r = next((r for r in range(cert.period) if sys.spec.advance(first, r) in targets
              and sys.apply_T(w, r) == v), None)
    return None if r is None else (r, cert.period)


def _window_sums(sys: DualSystem, table: dict, ns, finish=lambda total: total) -> list:
    """finish(Σ of the coefficients whose key (w, v) has T^n(w) = v) for each n of ns.

    Each key's shift times are solved once; the periodic ones are summed
    into one residue row per period. The sum at n depends only on n modulo
    the lcm of the periods and on whether n is a single shift time, so each
    distinct sum is finished once, and the n that share it share the object.
    """
    single: dict[int, QQi] = {}
    rows: dict[int, list[QQi]] = {}
    for (w, v), coef in table.items():
        times = _shift_times(sys, w, v)
        if times is None:
            continue
        r, p = times
        if p == 0:
            single[r] = single.get(r, QQi()) + coef
        else:
            row = rows.setdefault(p, [QQi()] * p)
            row[r] = row[r] + coef
    lcm = math.lcm(*rows)
    finished: dict = {}
    out = []
    for n in ns:
        key = (n,) if n in single else n % lcm
        if key not in finished:
            finished[key] = finish(sum((row[n % p] for p, row in rows.items()),
                                       single.get(n, QQi())))
        out.append(finished[key])
    return out


def correlation_series(sys: DualSystem, a: Combination, b: Combination,
                       n_range) -> CorrelationSeries:
    """Exact centered correlations μ(α^n(a) b) − μ(a) μ(b).

    Coefficients are Gaussian rationals; the Haar state picks the identity
    coefficient, so the value at n sums c_g·d_h over the pairs with
    T^n(g) = h⁻¹, read from the shift times of the keys (g, h⁻¹).
    """
    if not a or not b:
        raise InputFormatError("combinations must have nonempty support")
    mean = _haar(sys, a) * _haar(sys, b)
    table: dict = {}
    for g, cg in a.items():
        for h, dh in b.items():
            key = (g, sys.inverse(h))
            table[key] = table.get(key, QQi()) + cg * dh
    ns = list(n_range)
    pairs = _window_sums(sys, table, ns, lambda total: (total, total - mean))
    raw = [value for value, _ in pairs]
    centered = [value for _, value in pairs]
    return CorrelationSeries(
        ns=ns, raw=raw, centered=centered,
        norm_a2=_norm2_squared(a), norm_b2=_norm2_squared(b),
    )


PairCombination = dict  # (g, h) -> QQi


@dataclass
class DeltaEvaluation:
    value: QQi
    square_value: Fraction
    product_square: Fraction


def _square_table(sys: DualSystem, c: PairCombination) -> dict:
    """c*c as {(g₁⁻¹g₂, h₁⁻¹h₂): Σ conj(c₁)·c₂}, equal keys merged, zeros dropped.

    The table does not depend on n, so a scan builds it once per combination;
    its identity key holds the product-state value Σ |c_{g,h}|².
    """
    table: dict = {}
    for (g1, h1), c1 in c.items():
        g1i, h1i, c1c = sys.inverse(g1), sys.inverse(h1), c1.conjugate()
        for (g2, h2), c2 in c.items():
            key = (sys.multiply(g1i, g2), sys.multiply(h1i, h2))
            table[key] = table.get(key, QQi()) + c1c * c2
    return {key: coef for key, coef in table.items() if not coef.is_zero}


def _real_square(total: QQi) -> Fraction:
    if total.im != 0:
        raise NcjoinError("Δ_n(c*c) must be real")
    return total.re


def delta_n_eval(sys: DualSystem, c: PairCombination, n: int) -> DeltaEvaluation:
    """Δ_n on a combination Σ c_{g,h} λ(g) ⊗ ρ(h), and on its square.

    Δ_n(λ(g) ⊗ ρ(h)) = [T^n(g) = h], read from the shift times of the keys
    of c; the square is read the same way from the square table of c, and
    the product state gives its identity entry Σ |c_{g,h}|².
    """
    table = _square_table(sys, c)
    return DeltaEvaluation(
        value=_window_sums(sys, c, [n])[0],
        square_value=_window_sums(sys, table, [n], _real_square)[0],
        product_square=table.get((sys.identity(),) * 2, QQi()).re,
    )


def _index_span(sys: DualSystem, c: PairCombination) -> int:
    """Spread of the shift-letter indices of the keys of c. A strongly mixing
    system has at most one cycle letter, which T fixes, and T moves shift
    letters by n: past this spread Tⁿ(w) = v fails on the square table of c
    for every w ≠ 1, since w has a shift letter (a lone letter permutes nothing)."""
    indices = [idx for (g, h) in c.keys() for elt in (g, h)
               for tid, idx in sys._letters_of(elt) if tid in sys._shift_ids]
    return max(indices) - min(indices) if indices else 0


@dataclass
class DualOrnsteinReport:
    label: str
    denominator: Fraction
    escape_bound: int | None
    eventual_ratio: Fraction | None
    limsup_window: Fraction
    ratios: list[tuple[int, Fraction]]


@dataclass
class DualOrnsteinScan:
    strongly_mixing: bool
    max_limsup: Fraction
    skipped: list[str]
    elements: list[DualOrnsteinReport]


def ornstein_scan_dual(sys: DualSystem, test_set, n_range,
                       labels=None) -> DualOrnsteinScan:
    """Exact ratios Δ_n(c*c) / Σ|c|² over a window, with escape analysis.

    Each combination's square table is built, and its keys' shift times
    solved, once: a window costs a lookup per n and a comparison per
    distinct ratio.

    On a strongly mixing system only the identity has a finite orbit, so
    the support of any nonidentity element escapes: past the index span of
    the support the indicator collapses to the diagonal pairs and the ratio
    is exactly one. The report records that bound and the scan verifies it
    on the window; a non-mixing system recurs and gets no bound.
    """
    ns = list(n_range)
    if not ns:
        raise ValueError("empty scan window")
    mixing = classify_dual(sys).strongly_mixing
    labels = labels or [f"element {k}" for k in range(len(test_set))]
    elements, skipped = [], []
    max_limsup = Fraction(0)
    for c, label in zip(test_set, labels):
        denom = _norm2_squared(c)
        if denom == 0:
            skipped.append(label)
            continue
        table = _square_table(sys, c)
        ratios = list(zip(ns, _window_sums(
            sys, table, ns, lambda total: _real_square(total) / denom)))
        distinct = {id(r): r for _, r in ratios}
        limsup = max(distinct.values())
        bound = _index_span(sys, c) if mixing else None
        eventual = Fraction(1) if mixing else None
        if mixing:
            off = {key for key, r in distinct.items() if r != 1}
            for n, r in ratios:
                if n > bound and id(r) in off:
                    raise NcjoinError(
                        f"escape bound violated for {label} at n = {n}: ratio {r}")
        max_limsup = max(max_limsup, limsup)
        elements.append(DualOrnsteinReport(
            label=label, denominator=denom, escape_bound=bound, eventual_ratio=eventual,
            limsup_window=limsup, ratios=ratios,
        ))
    return DualOrnsteinScan(strongly_mixing=mixing, max_limsup=max_limsup,
                            skipped=skipped, elements=elements)


# ---------------------------------------------------------------------------
# the opposite-group joining


@dataclass
class OppositeJoining:
    """Diagonal-type joining with the finite-orbit part of the opposite group.

    The opposite group has the same elements and the same T-orbits; its dual
    system acts by right translations inside the commutant. The joining
    evaluates to ω(λ(g) ⊗ ρ(h)) = [g = h] for h in the finite-orbit
    subgroup, and it collapses to the product exactly when that subgroup is
    trivial, which is the ergodic case.
    """

    subsystem: FiniteOrbitSubsystem
    witness: tuple | None

    def evaluate(self, g, h) -> Fraction:
        if not self.subsystem.membership(h):
            raise InputFormatError(
                "second leg must come from the finite-orbit subsystem")
        return Fraction(1) if g == h else Fraction(0)

    def product_value(self, g, h) -> Fraction:
        return Fraction(int(g == h == self.subsystem.system.identity()))


def opposite_group_joining(sys: DualSystem) -> OppositeJoining:
    sub = finite_orbit_subsystem(sys)
    witness = None
    if not sub.trivial:
        cycles = sys.spec.cycle_tracks
        if sys.family == "free":
            g = (((cycles[0].id, 0), 1),)
        else:
            g = FinPerm.from_cycles([[(t.id, i) for t in cycles for i in range(t.m)][:2]])
        witness = (g, g)
    return OppositeJoining(subsystem=sub, witness=witness)


# ---------------------------------------------------------------------------
# sampling for the exact property checks


def _free_codes(bits, size: int, max_len: int) -> list[int]:
    """A reduced word of at most `max_len` letters over `size` letters, as codes
    2·i + (sign < 0), drawn from `bits` = `rng.getrandbits` as `randrange` and
    `choice` draw its length, letters and signs: n.bit_length() bits, drawn
    again while they reach n. The letters are distinct, so code c ^ 1 inverts
    code c, and the word is reduced as drawn, as `_reduce` does."""
    if max_len < 0:
        raise ValueError(f"empty range for randrange() (0, {max_len + 1}, {max_len + 1})")
    n, kn, k = max_len + 1, (max_len + 1).bit_length(), size.bit_length()
    length = bits(kn)
    while length >= n:
        length = bits(kn)
    codes: list[int] = []
    for _ in range(length):
        i = bits(k)
        while i >= size:
            i = bits(k)
        sign = bits(2)   # choice((1, -1)) draws below 2 from two bits
        while sign >= 2:
            sign = bits(2)
        code = 2 * i + sign
        if codes and codes[-1] == code ^ 1:
            codes.pop()
        else:
            codes.append(code)
    return codes


def sample_element(sys: DualSystem, rng, max_len: int = 6):
    """Random reduced word (drawn by `_free_codes`) or finitary permutation
    (by `randrange`, `sample` and `shuffle`), exact and seedable."""
    letters = sys._alphabet
    if sys.family == "free":
        return tuple((letters[c >> 1], 1 - 2 * (c & 1))
                     for c in _free_codes(rng.getrandbits, len(letters), max_len))
    k = rng.randrange(0, min(max_len, len(letters)) + 1)
    if k < 2:
        return IDENTITY_PERM
    chosen = rng.sample(letters, k)
    images = chosen[:]
    rng.shuffle(images)
    return FinPerm(tuple(zip(chosen, images)))


def orbit_kind_counts(sys: DualSystem, rng, samples: int, max_len: int = 6) -> tuple[int, int]:
    """(finite, identity): how many of `samples` elements, drawn from `rng` as
    `sample_element` draws them, have a finite orbit, and how many are the identity.

    An orbit is finite exactly when no letter lies on a shift track, the rule
    `DualSystem.orbit_length` certifies: a free word is tested by its codes,
    with no word built, and a permutation by its support.
    """
    letters, bits, free = sys._alphabet, rng.getrandbits, sys.family == "free"
    escaping = {code for i, letter in enumerate(letters) if letter[0] in sys._shift_ids
                for code in ((2 * i, 2 * i + 1) if free else (letter,))}
    finite = identity = 0
    for _ in range(samples):
        drawn = (_free_codes(bits, len(letters), max_len) if free
                 else sample_element(sys, rng, max_len).support)
        finite += escaping.isdisjoint(drawn)
        identity += not drawn
    return finite, identity


def _terms(text: str):
    """(term, coefficient, rest) of each nonempty ';'-separated term; the
    coefficient is the text before the first '*', 1 without one."""
    for term in text.split(";"):
        term = term.strip()
        if not term:
            continue
        if "*" in term:
            coef_txt, rest = term.split("*", 1)
            yield term, parse_qqi(coef_txt), rest
        else:
            yield term, QQi(Fraction(1)), term


def parse_combination(sys: DualSystem, text: str) -> Combination:
    """Combinations 'x0; -1/2 * x1 y0^-1'; omitted coefficients default to 1."""
    out: Combination = {}
    for _, coef, elt_txt in _terms(text):
        elt = sys.parse(elt_txt.strip())
        out[elt] = out.get(elt, QQi()) + coef
    if not out:
        raise InputFormatError(f"empty combination {text!r}")
    return out


def parse_pair_combination(sys: DualSystem, text: str) -> PairCombination:
    """Pair combinations 'x0 | x0; -1 * x1 | x0' for Σ c λ(g) ⊗ ρ(h)."""
    out: PairCombination = {}
    for term, coef, rest in _terms(text):
        if "|" not in rest:
            raise InputFormatError(f"pair term needs 'g | h': {term!r}")
        g_txt, h_txt = rest.split("|", 1)
        key = (sys.parse(g_txt.strip()), sys.parse(h_txt.strip()))
        out[key] = out.get(key, QQi()) + coef
    if not out:
        raise InputFormatError(f"empty pair combination {text!r}")
    return out
