"""PD parsing, orientation inference, canonical forms, formal sums."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finitype.bracelets import HopfPairBracelet
from finitype.diagram import (
    Crossing,
    Diagram,
    FormalSum,
    PDArcError,
    PDError,
    PDOrientationError,
    PDSyntaxError,
    SingularDiagram,
    load_table,
    mirror,
    parse_gauss,
    parse_pd,
    serialize_pd,
    switch_crossing,
    to_gauss,
)
from finitype.goussarov import switch_family
from finitype.tables import bundled_table

TREFOIL = "X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]"


def relabeled(d: Diagram, mapping: dict[int, int]) -> Diagram:
    """d with every arc label a replaced by mapping[a]."""
    return Diagram(
        [Crossing(tuple(mapping[s] for s in x.slots), x.sign) for x in d.crossings], d.free_loops
    )


@pytest.fixture
def builds(monkeypatch):
    """Every Diagram constructed while the test runs."""
    built = []
    original = Diagram.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(Diagram, "__init__", counted)
    return built


class TestParsing:
    def test_trefoil_parses_with_negative_signs(self):
        d = parse_pd(TREFOIL)
        assert d.n_crossings == 3
        assert [x.sign for x in d.crossings] == [-1, -1, -1]
        assert d.writhe == -3
        assert d.is_knot()

    def test_one_diagram_built_per_parse(self, builds):
        for text in (TREFOIL, "components=1 arcs=6 " + TREFOIL, "components=2 arcs=6 " + TREFOIL):
            builds.clear()
            parse_pd(text)
            assert len(builds) == 1, text

    def test_preamble_declares_free_loops(self):
        d = parse_pd("components=1 arcs=0")
        assert d.n_crossings == 0
        assert d.n_components == 1
        assert d.free_loops == 1
        assert parse_pd("components=3 arcs=0").n_components == 3

    def test_preamble_must_match_tokens(self):
        with pytest.raises(PDSyntaxError):
            parse_pd("components=1 arcs=4 " + TREFOIL)
        with pytest.raises(PDSyntaxError):
            parse_pd("components=0 arcs=6 " + TREFOIL)
        with pytest.raises(PDSyntaxError):
            parse_pd(TREFOIL + " components=1 arcs=6")

    def test_malformed_tokens(self):
        for bad in (
            "X[1,2,3]",
            "X[1,2,3,4,5]",
            "Y[1,2,3,4]",
            "X[a,b,c,d]",
            "X 1 2 3 4",
            "X[1,4,2,5] D[3,6,4,1] X[5,2,6,3]",  # D[...] occurs only in singular keys
        ):
            with pytest.raises(PDSyntaxError):
                parse_pd(bad)

    def test_arc_count_validation(self):
        with pytest.raises(PDArcError):
            parse_pd("X[1,1,1,2] X[2,3,3,4]")  # arc 1 occurs 3 times
        with pytest.raises(PDArcError):
            parse_pd("X[1,2,3,4]")  # every arc occurs once
        for text in ("", "components=0 arcs=0"):
            with pytest.raises(PDArcError, match="at least one component"):
                parse_pd(text)

    def test_from_quads_matches_parse(self):
        for name, d in bundled_table().items():
            if d.crossings and not d.free_loops:
                quads = [x.slots for x in d.crossings]
                assert Diagram.from_quads(quads).crossings == d.crossings, name
        with pytest.raises(PDOrientationError):
            Diagram.from_quads([(1, 3, 2, 4), (1, 4, 2, 3)])
        with pytest.raises(PDArcError):
            Diagram.from_quads([])

    def test_wrong_stored_sign_rejected(self):
        # the slots alone fix every over-strand's direction in these rows, so
        # a flipped stored sign contradicts the orientation
        flips = 0
        for d in bundled_table().values():
            for i, x in enumerate(d.crossings):
                xs = list(d.crossings)
                xs[i] = Crossing(x.slots, -x.sign)
                with pytest.raises(PDOrientationError):
                    Diagram(xs, d.free_loops)
                flips += 1
        assert flips == 82

    def test_orientation_conflict(self):
        # two crossings forcing arc 1 incoming (slot 0) at both ends
        with pytest.raises(PDOrientationError):
            parse_pd("X[1,3,2,4] X[1,4,2,3]")

    def test_over_only_component_default(self):
        # arcs 3 and 4 never pass under, so their direction is free: the
        # lowest-index crossing they pass is made positive, in either order
        assert [x.sign for x in parse_pd("X[1,3,2,4] X[2,3,1,4]").crossings] == [1, -1]
        assert [x.sign for x in parse_pd("X[2,3,1,4] X[1,3,2,4]").crossings] == [1, -1]
        assert [x.sign for x in parse_pd("X[1,3,2,4] X[2,4,1,3]").crossings] == [1, 1]

    def test_comments_and_newlines_ignored(self):
        text = "# a trefoil\nX[1,4,2,5] # first\nX[3,6,4,1]\nX[5,2,6,3]\n"
        assert parse_pd(text) == parse_pd(TREFOIL)

    def test_roundtrip_is_exact(self):
        for name, d in bundled_table().items():
            back = parse_pd(serialize_pd(d))
            assert back.crossings == d.crossings, name
            assert back.free_loops == d.free_loops, name

    def test_single_character_mutations_never_crash(self):
        rng = random.Random(7)
        alphabet = "0123456789X[],= acomponents"
        sources = [serialize_pd(d) for d in bundled_table().values()]
        outcomes = {"ok": 0, "rejected": 0}
        for _ in range(300):
            s = rng.choice(sources)
            pos = rng.randrange(len(s))
            t = s[:pos] + rng.choice(alphabet) + s[pos + 1 :]
            try:
                parse_pd(t)
                outcomes["ok"] += 1
            except PDError:
                outcomes["rejected"] += 1
        # every mutation either parses to a valid diagram or raises PDError
        assert sum(outcomes.values()) == 300


class TestStructure:
    def test_component_counts(self):
        t = bundled_table()
        assert t["hopf"].n_components == 2
        assert t["chain3"].n_components == 3
        assert t["solomon"].n_components == 2
        assert t["0_1"].n_components == 1
        assert all(t[n].is_knot() for n in ("3_1", "4_1", "5_1", "6_1", "7_1", "8_3"))

    def test_arc_component_map(self):
        d = bundled_table()["hopf"]
        comps = {frozenset(c) for c in d.components}
        assert comps == {frozenset({1, 2}), frozenset({3, 4})}

    def test_crossing_components(self):
        d = bundled_table()["hopf"]
        assert set(d.crossing_components(0)) == {0, 1}

    def test_connectivity(self):
        t = bundled_table()
        assert t["3_1"].is_connected()
        assert t["hopf"].is_connected()
        assert not t["unlink2"].is_connected()
        assert t["0_1"].is_connected()


class TestSwitchAndMirror:
    def test_switch_rotates_quad_and_flips_sign(self):
        d = parse_pd("X[1,3,2,4] X[3,1,4,2]")  # positive Hopf link
        assert [x.sign for x in d.crossings] == [1, 1]
        s = switch_crossing(d, 0)
        assert s.crossings[0].slots == (4, 1, 3, 2)
        assert s.crossings[0].sign == -1
        assert s.crossings[1] == d.crossings[1]

    def test_switch_is_involution(self):
        for name in ("3_1", "4_1", "6_1", "hopf"):
            d = bundled_table()[name]
            for i in range(d.n_crossings):
                assert switch_crossing(switch_crossing(d, i), i).crossings == d.crossings

    def test_switch_preserves_orientation_semantics(self):
        d = bundled_table()["3_1"]
        s = switch_crossing(d, 1)
        x, y = d.crossings[1], s.crossings[1]
        assert {x.under_in, x.over_in} == {y.under_in, y.over_in}
        assert x.under_in == y.over_in
        assert x.sign == -y.sign

    def test_mirror_negates_writhe(self):
        for name in ("3_1", "4_1", "5_1", "hopf"):
            d = bundled_table()[name]
            assert mirror(d).writhe == -d.writhe
            assert mirror(mirror(d)) == d

    def test_one_diagram_built_per_derived_diagram(self, builds):
        rows = [d for d in bundled_table().values() if d.n_crossings >= 3]
        for d in rows:
            builds.clear()
            m = mirror(d)
            assert len(builds) == 1
            assert [x.sign for x in m.crossings] == [-x.sign for x in d.crossings]
            builds.clear()
            out = SingularDiagram(d, (0, 2)).resolved({0: 1, 2: 1})
            assert len(builds) == 1
            assert out.crossings[0].sign == out.crossings[2].sign == 1

    def test_out_of_range_switch(self):
        with pytest.raises(IndexError):
            switch_crossing(bundled_table()["3_1"], 3)


class TestCanonicalForm:
    def test_relabeling_invariance_knots(self):
        # a knot has one component, so any arc bijection is an isomorphism
        rng = random.Random(11)
        for name in ("3_1", "4_1", "6_1"):
            d = bundled_table()[name]
            arcs = d.arcs()
            for _ in range(5):
                shuffled = arcs[:]
                rng.shuffle(shuffled)
                r = relabeled(d, dict(zip(arcs, shuffled)))
                assert r.canonical_key() == d.canonical_key()

    def test_relabeling_invariance_links(self):
        # component order is data, so only within-component rotations are
        # guaranteed neutral for links
        rng = random.Random(13)
        for name in ("hopf", "chain3", "solomon"):
            d = bundled_table()[name]
            for _ in range(5):
                mapping = {}
                for comp in d.components:
                    r = rng.randrange(len(comp))
                    for i, a in enumerate(comp):
                        mapping[a] = comp[(i + r) % len(comp)]
                assert relabeled(d, mapping).canonical_key() == d.canonical_key()

    def test_distinct_diagrams_distinct_keys(self):
        t = bundled_table()
        keys = {t[n].canonical_key() for n in ("0_1", "3_1", "3_1m", "4_1", "5_1", "6_1")}
        assert len(keys) == 6

    def test_switched_key_differs(self):
        d = bundled_table()["3_1"]
        assert switch_crossing(d, 0).canonical_key() != d.canonical_key()

    def test_crossingless_key(self):
        loop = parse_pd("components=1 arcs=0")
        assert loop.canonical_key() == "components=1 arcs=0"
        assert SingularDiagram(loop, ()).canonical_key() == "components=1 arcs=0"

    def test_pinned_keys(self):
        # key strings order FormalSum terms, so a changed key can reorder sums
        t = bundled_table()
        assert t["3_1"].canonical_key() == (
            "components=1 arcs=6 X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]"
        )
        assert t["hopf"].canonical_key() == "components=2 arcs=4 X[1,3,2,4] X[3,1,4,2]"
        assert t["unlink2"].canonical_key() == "components=2 arcs=0"
        # the least string, not the least tuple: "X[1,12," < "X[1,8,"
        assert t["8_3"].canonical_key() == (
            "components=1 arcs=16 X[1,12,2,13] X[3,10,4,11] X[5,1,6,16] X[7,15,8,14]"
            " X[9,4,10,5] X[11,2,12,3] X[13,9,14,8] X[15,7,16,6]"
        )
        # the positive resolution, its marked token written D[...]
        assert SingularDiagram(t["3_1"], (0,)).canonical_key() == (
            "components=1 arcs=6 D[1,5,2,4] X[2,5,3,6] X[6,3,1,4]"
        )

    def test_key_matches_its_definition_on_relabeled_rows(self):
        rng = random.Random(27)
        for name, d in bundled_table().items():
            arcs = d.arcs()
            for _ in range(5):
                offset = rng.randrange(100)
                labels = rng.sample(range(1, 3 * len(arcs) + 1), len(arcs))
                r = relabeled(d, {a: offset + b for a, b in zip(arcs, labels)})
                assert r.canonical_key() == _least_serialization(r), name

    def test_key_matches_its_definition_on_switch_families(self):
        for name, k in bundled_table().items():
            if not k.is_knot():
                continue
            for size in (0, 1, 2):
                for crossings in itertools.combinations(range(k.n_crossings), size):
                    fam = switch_family(k, crossings)
                    states = {}
                    for mask in range(1 << fam.m):
                        res = fam.resolve(r for r in range(fam.m) if mask >> r & 1)
                        states[id(res)] = res
                    for res in states.values():
                        assert res.canonical_key() == _least_serialization(res), (name, crossings)

    def test_key_matches_its_definition_on_random_labellings(self):
        rng = random.Random(2027)
        checked = first_never_under = 0
        for _ in range(3000):
            c = rng.randint(1, 6)
            labels = [a for a in range(1, 2 * c + 1) for _ in range(2)]
            rng.shuffle(labels)
            try:
                d = Diagram.from_quads([labels[4 * i : 4 * i + 4] for i in range(c)])
            except PDError:
                continue
            checked += 1
            first_never_under += not {x.under_in for x in d.crossings} & set(d.components[0])
            assert d.canonical_key() == _least_serialization(d), serialize_pd(d)
        # the first component need not pass under; the key's search must
        # then start from a later one
        assert checked > 1000 and first_never_under > 100

    def test_bracelet_key_work_is_bounded(self):
        # 2^32 start choices exist; the search branches over a component's
        # start only when a token first needs it
        rng = random.Random(32)
        perm = rng.sample(range(1, 33), 32)
        pairs = [(perm[2 * i], perm[2 * i + 1]) for i in range(16)]
        d = HopfPairBracelet.from_matching(pairs).to_link()
        mapping = {}
        for comp in d.components:
            r = rng.randrange(len(comp))
            mapping.update((a, comp[(i + r) % len(comp)]) for i, a in enumerate(comp))
        assert relabeled(d, mapping).canonical_key() == d.canonical_key()
        other = HopfPairBracelet.from_matching([(i, i + 1) for i in range(1, 33, 2)]).to_link()
        assert other.canonical_key() != d.canonical_key()

    def test_key_is_computed_once(self):
        d = parse_pd(TREFOIL)
        assert d.canonical_key() is d.canonical_key()
        k = SingularDiagram(d, (0,))
        assert k.canonical_key() is k.canonical_key()


def _least_serialization(d, marked=()):
    """The canonical key by its definition: resolve the marked crossings
    positively, then for every choice of one start arc per component number
    the components' arcs in turn from their starts, sort the relabeled quads
    numerically, and join their tokens, marked ones as D[...]; the key holds
    the least of these strings."""
    r = SingularDiagram(d, marked).resolved({i: 1 for i in marked})
    bodies = []
    for starts in itertools.product(*(range(len(comp)) for comp in r.components)):
        label = {}
        for comp, s in zip(r.components, starts):
            for j in range(len(comp)):
                label[comp[(s + j) % len(comp)]] = len(label) + 1
        quads = sorted(
            (tuple(label[a] for a in x.slots), "D" if i in marked else "X")
            for i, x in enumerate(r.crossings)
        )
        bodies.append(" ".join(letter + "[%d,%d,%d,%d]" % q for q, letter in quads))
    return f"components={d.n_components} arcs={2 * d.n_crossings} {min(bodies)}".rstrip()


class TestGaussCode:
    def test_roundtrip_on_knots(self):
        for name in ("3_1", "3_1m", "4_1", "5_1", "6_1", "7_1", "8_3"):
            d = bundled_table()[name]
            assert parse_gauss(to_gauss(d)) == d, name

    def test_trefoil_code_shape(self):
        import re

        code = to_gauss(bundled_table()["3_1"])
        toks = re.findall(r"[OU]\d+[+-]", code)
        assert len(toks) == 6
        assert "".join(toks) == code
        assert {t[0] for t in toks} == {"O", "U"}
        assert all(t.endswith("-") for t in toks)

    def test_bad_codes_rejected(self):
        for bad in ("O1+", "O1+ U1-", "O1+ U2- O2+ U1-x"):
            with pytest.raises(PDError):
                parse_gauss(bad)


class TestSingularDiagram:
    def test_mark_validates_indices(self):
        d = bundled_table()["3_1"]
        with pytest.raises(IndexError):
            SingularDiagram(d, (5,))

    def test_marked_crossing_forgets_over_under(self):
        d = bundled_table()["3_1"]
        assert SingularDiagram(d, (0,)) == SingularDiagram(switch_crossing(d, 0), (0,))
        assert SingularDiagram(d, (0,)) != SingularDiagram(d, (1,)) or (
            SingularDiagram(d, (0,)).canonical_key()
            == SingularDiagram(d, (1,)).canonical_key()
        )

    def test_marked_crossing_keeps_orientation(self):
        # the double points agree; the remaining crossing is positive in one
        # and negative in the other
        t = bundled_table()
        assert SingularDiagram(t["hopf"], (0,)) != SingularDiagram(t["hopf_m"], (0,))

    def test_no_marks_is_the_plain_key(self):
        for name, d in bundled_table().items():
            assert SingularDiagram(d, ()).canonical_key() == d.canonical_key(), name

    def test_key_matches_its_definition_on_rows(self):
        for name, d in bundled_table().items():
            for size in (1, 2):
                for marked in itertools.combinations(range(d.n_crossings), size):
                    key = SingularDiagram(d, marked).canonical_key()
                    assert key == _least_serialization(d, marked), (name, marked)

    def test_unmarked_crossings_still_matter(self):
        d = bundled_table()["4_1"]
        assert SingularDiagram(d, (0,)) != SingularDiagram(switch_crossing(d, 1), (0,))

    def test_resolved_covers_marked_set(self):
        d = bundled_table()["3_1"]
        k = SingularDiagram(d, (0, 1))
        out = k.resolved({0: 1, 1: -1})
        assert out.crossings[0].sign == 1
        assert out.crossings[1].sign == -1
        with pytest.raises(ValueError):
            k.resolved({0: 1})


class TestFormalSum:
    def test_cancellation(self):
        d = bundled_table()["3_1"]
        r = relabeled(d, dict(zip(d.arcs(), [a + 10 for a in d.arcs()])))
        s = FormalSum.single(d) + FormalSum.single(r, -1)
        assert s.is_zero()

    def test_merge_and_coefficient(self):
        d = bundled_table()["3_1"]
        e = bundled_table()["4_1"]
        s = FormalSum([(d, Fraction(2)), (e, Fraction(1)), (d, Fraction(-1))])
        assert s.coefficient(d) == 1
        assert s.coefficient(e) == 1
        assert len(s) == 2

    def test_scale_and_subtract(self):
        d = bundled_table()["3_1"]
        s = FormalSum.single(d, 3)
        assert (s - s.scale(1)).is_zero()
        assert s.scale(Fraction(1, 3)).coefficient(d) == 1

    def test_map_terms_is_linear(self):
        t = bundled_table()
        s = FormalSum([(t["3_1"], Fraction(1)), (t["4_1"], Fraction(2))])
        doubled = s.map_terms(lambda d: FormalSum.single(d, 2))
        assert doubled == s.scale(2)

    def test_terms_sorted_deterministically(self):
        t = bundled_table()
        s = FormalSum([(t["4_1"], Fraction(1)), (t["3_1"], Fraction(1))])
        keys = [obj.canonical_key() for obj, _ in s.terms()]
        assert keys == sorted(keys)


class TestLoadTable:
    def test_bundled_table_shape(self):
        t = bundled_table()
        assert len(t) == 20
        assert "3_1" in t and "8_3" in t and "hopf" in t

    def test_duplicate_names_rejected(self):
        with pytest.raises(PDError):
            load_table("a\tX[1,1,2,2]\na\tX[1,1,2,2]\n")

    def test_blank_and_comment_lines_skipped(self):
        t = load_table("# header\n\nk\tX[1,1,2,2]\n")
        assert list(t) == ["k"]


@st.composite
def table_diagrams(draw):
    names = sorted(bundled_table())
    return bundled_table()[draw(st.sampled_from(names))]


class TestProperties:
    @given(table_diagrams(), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_canonical_key_stable_under_relabeling(self, d, rnd):
        arcs = d.arcs()
        if not arcs:
            return
        offset = rnd.randrange(1, 50)
        mapping = {a: a + offset for a in arcs}
        assert relabeled(d, mapping).canonical_key() == d.canonical_key()

    @given(table_diagrams(), st.integers(0, 7))
    @settings(max_examples=40, deadline=None)
    def test_switch_changes_only_one_crossing(self, d, i):
        if d.n_crossings == 0:
            return
        i %= d.n_crossings
        s = switch_crossing(d, i)
        assert s.writhe == d.writhe - 2 * d.crossings[i].sign
        same = [j for j in range(d.n_crossings) if s.crossings[j] == d.crossings[j]]
        assert len(same) == d.n_crossings - 1

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=30, deadline=None)
    def test_signs_survive_relabeling_and_reordering(self, rnd):
        # a knot with a crossing passes under somewhere, so its orientation,
        # and with it every sign, is fixed by the quads alone
        for name, d in bundled_table().items():
            if not d.is_knot() or not d.crossings:
                continue
            arcs = d.arcs()
            mapping = dict(zip(arcs, rnd.sample(range(1, 10 * len(arcs)), len(arcs))))
            order = rnd.sample(range(d.n_crossings), d.n_crossings)
            got = Diagram.from_quads([tuple(mapping[s] for s in d.crossings[i].slots) for i in order])
            assert [x.sign for x in got.crossings] == [d.crossings[i].sign for i in order], name

    @given(st.integers(1, 6), st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_random_labellings_build_or_raise(self, c, rnd):
        labels = [a for a in range(1, 2 * c + 1) for _ in range(2)]
        rnd.shuffle(labels)
        quads = [tuple(labels[4 * i : 4 * i + 4]) for i in range(c)]
        # oracle: the components of every sign vector that gives a valid
        # diagram; Diagram must build exactly these, with these components
        valid = {}
        for signs in itertools.product((1, -1), repeat=c):
            comps = _oriented_components(quads, signs)
            try:
                d = Diagram([Crossing(q, s) for q, s in zip(quads, signs)])
            except PDOrientationError:
                assert comps is None
                continue
            assert d.components == comps
            valid[signs] = comps
        try:
            d = Diagram.from_quads(quads)
        except PDOrientationError:
            assert not valid
            return
        assert d.components == valid[tuple(x.sign for x in d.crossings)]


def _oriented_components(quads, signs):
    """Arc cycles of the quads under these signs, least arc first and sorted,
    or None unless every arc ends once at an incoming and once at an
    outgoing slot."""
    succ, ins, outs = {}, [], []
    for (a, b, c, d), s in zip(quads, signs):
        over_in, over_out = (d, b) if s > 0 else (b, d)
        succ[a], succ[over_in] = c, over_out
        ins += [a, over_in]
        outs += [c, over_out]
    arcs = {a for q in quads for a in q}
    if sorted(ins) != sorted(arcs) or sorted(outs) != sorted(arcs):
        return None
    comps, left = [], set(arcs)
    while left:
        cycle = [min(left)]
        while succ[cycle[-1]] != cycle[0]:
            cycle.append(succ[cycle[-1]])
        left -= set(cycle)
        comps.append(tuple(cycle))
    return tuple(comps)
