"""Detour families: construction, freezing, encodings, difference sums."""

from fractions import Fraction
from itertools import combinations

import pytest

from finitype import diagram, goussarov
from finitype.diagram import Diagram, SingularDiagram, parse_pd, serialize_pd, switch_crossing
from finitype.goussarov import (
    MAX_REGIONS,
    DetourFamily,
    FamilyError,
    Route,
    SwitchRegion,
    delta_g,
    encode_crossing_as_detours,
    encode_singular_as_bracelet,
    goussarov_difference,
    goussarov_type_check,
    parse_family,
    serialize_family,
    switch_family,
    theorem1_identity_check,
)
from finitype.invariants import conway, get_invariant, jones
from finitype.tables import bundled_table
from finitype.vassiliev import vassiliev_difference

T = bundled_table()


class TestConstruction:
    def test_region_count_limit(self):
        with pytest.raises(FamilyError):
            switch_family(T["6_1"], range(6))  # 12 regions > limit
        assert MAX_REGIONS == 10

    def test_non_knot_host_rejected(self):
        with pytest.raises(FamilyError):
            switch_family(T["hopf"], (0,))
        with pytest.raises(FamilyError):
            encode_crossing_as_detours(T["unlink2"], 0)

    def test_route_arc_ownership_must_be_disjoint(self):
        fam = switch_family(T["3_1"], (0,))
        r0, r1 = fam.regions
        # second region claiming the first's detour arcs is rejected
        clash = SwitchRegion(r1.stubs, r1.route0, r0.route1)
        with pytest.raises(FamilyError):
            DetourFamily(fam.quads, (r0, clash), fam.host_joins)

    def test_stubs_must_be_host_arcs(self):
        fam = switch_family(T["3_1"], (0,))
        r0, r1 = fam.regions
        bad = SwitchRegion((999,), r0.route0, r0.route1)
        with pytest.raises(FamilyError):
            DetourFamily(fam.quads, (bad, r1), fam.host_joins)

    def test_dangling_route_arc_rejected(self):
        quads = [x.slots for x in T["3_1"].crossings]
        floating = SwitchRegion((), Route(), Route(arcs=(99,)))
        with pytest.raises(FamilyError):
            DetourFamily(quads, (floating,))

    def test_partially_owned_crossing_rejected(self):
        fam = switch_family(T["3_1"], (0,))
        r0, r1 = fam.regions
        # drop one arc from the detour: the orphan falls to the host and the
        # clasp crossing becomes half present in the untaken state
        crippled = Route(arcs=r0.route1.arcs[:2], joins=r0.route1.joins)
        with pytest.raises(FamilyError):
            DetourFamily(fam.quads, (SwitchRegion(r0.stubs, r0.route0, crippled), r1))

    def test_link_state_rejected(self):
        quads = [x.slots for x in T["hopf"].crossings]
        with pytest.raises(FamilyError, match="has 2 components"):
            DetourFamily(quads)

    def test_resolutions_built_without_parsing(self, monkeypatch):
        calls = []
        original = diagram.parse_pd

        def counted(text):
            calls.append(text)
            return original(text)

        for module in (diagram, goussarov):
            monkeypatch.setattr(module, "parse_pd", counted, raising=False)
        fam = switch_family(T["4_1"], (0, 2))
        assert fam.m == 4
        assert calls == []

    def test_resolutions_renumbered(self):
        fam = encode_crossing_as_detours(T["3_1"], 0)
        base = fam.resolve(())
        assert base.arcs() == list(range(1, 2 * base.n_crossings + 1))
        # every state is numbered 1..2c along its one component
        fam = switch_family(T["4_1"], (0, 2))
        for mask in range(1 << fam.m):
            d = fam.resolve(r for r in range(fam.m) if mask >> r & 1)
            assert d.components == (tuple(range(1, 2 * d.n_crossings + 1)),), mask

    def test_m_and_trivial_property(self):
        fam = switch_family(T["3_1"], (0, 1))
        assert fam.m == 4
        assert fam.regions[0].route0 != fam.regions[0].route1


class TestSharedResolutions:
    """States with equal relabelled quads share one validated Diagram."""

    def test_one_diagram_per_switched_subset(self, monkeypatch):
        # one Diagram per distinct resolution, each built once
        builds = []
        original = Diagram.__init__

        def counted(self, *args, **kwargs):
            builds.append(args)
            original(self, *args, **kwargs)

        monkeypatch.setattr(Diagram, "__init__", counted)
        fam = switch_family(T["5_1"], (0, 1, 2))
        assert fam.m == 6
        states = [fam.resolve(r for r in range(6) if mask >> r & 1) for mask in range(64)]
        assert len({id(d) for d in states}) == 8
        assert len(builds) == 8

    def test_one_relabeling_search_per_distinct_resolution(self, monkeypatch):
        # a fresh parse, so no key of the cached table diagram is reused
        fam = switch_family(parse_pd(serialize_pd(T["5_1"])), (0, 1, 2))
        # every uncached Diagram key runs the search kernel once
        searches = []
        original = Diagram._least_body

        def counted(self):
            searches.append(self)
            return original(self)

        monkeypatch.setattr(Diagram, "_least_body", counted)
        goussarov_difference(fam, get_invariant("c2"))
        assert len(searches) == 8

    def test_each_state_is_the_host_switched_at_its_full_pairs(self):
        # A state switches crossing i when both regions of i's pair are
        # taken.  States that switch nothing have the key of k itself.  The
        # others carry one extra R2 pair per switched crossing, so they are
        # compared with switch_crossing by crossing count and invariants,
        # and with every state that switches the same crossings by key.
        for name, k in T.items():
            if not k.is_knot():
                continue
            for size in (0, 1, 2):
                for crossings in combinations(range(k.n_crossings), size):
                    fam = switch_family(k, crossings)
                    first: dict[tuple[int, ...], Diagram] = {(): k}
                    for mask in range(1 << fam.m):
                        res = fam.resolve(r for r in range(fam.m) if mask >> r & 1)
                        switched = tuple(
                            i for j, i in enumerate(crossings) if mask >> 2 * j & 3 == 3
                        )
                        expect = first.setdefault(switched, res)
                        assert res.canonical_key() == expect.canonical_key(), (name, mask)
                    for switched, res in first.items():
                        expect = k
                        for i in switched:
                            expect = switch_crossing(expect, i)
                        assert res.n_crossings == k.n_crossings + 2 * len(switched)
                        assert conway(res) == conway(expect), (name, switched)
                        assert jones(res) == jones(expect), (name, switched)


class TestCrossingEncoding:
    def test_three_states_are_the_host(self):
        for name, i in (("3_1", 0), ("4_1", 2), ("5_1", 4)):
            k = T[name]
            fam = encode_crossing_as_detours(k, i)
            for taken in ((), (0,), (1,)):
                assert fam.resolve(taken) == k, (name, i, taken)

    def test_both_detours_is_the_switch_up_to_moves(self):
        k = T["3_1"]
        fam = encode_crossing_as_detours(k, 0)
        both = fam.resolve((0, 1))
        switched = switch_crossing(k, 0)
        # two extra crossings that cancel by a planar move, so canonical
        # forms differ but every invariant agrees
        assert both.n_crossings == k.n_crossings + 2
        assert both != switched
        assert jones(both) == jones(switched)
        assert conway(both) == conway(switched)

    def test_difference_telescopes_to_switch_minus_host(self):
        c2 = get_invariant("c2")
        for name, i in (("3_1", 1), ("4_1", 0)):
            k = T[name]
            fam = encode_crossing_as_detours(k, i)
            expect = c2(switch_crossing(k, i)) - c2(k)
            assert goussarov_difference(fam, c2) == expect, (name, i)

    def test_crossing_index_validated(self):
        with pytest.raises(IndexError):
            encode_crossing_as_detours(T["3_1"], 3)


class TestSwitchFamily:
    def test_full_mask_resolves_to_all_switched(self):
        k = T["4_1"]
        fam = switch_family(k, (0, 2))
        switched = switch_crossing(switch_crossing(k, 0), 2)
        both_pairs = fam.resolve((0, 1, 2, 3))
        assert conway(both_pairs) == conway(switched)
        assert jones(both_pairs) == jones(switched)

    def test_difference_is_signed_switch_sum(self):
        c2 = get_invariant("c2")
        # one pair: detour sum = -(2-fold switch difference)
        assert goussarov_difference(switch_family(T["3_1"], (0,)), c2) == -(
            vassiliev_difference(T["3_1"], (0,), c2)
        )
        # two pairs: signs cancel
        assert goussarov_difference(switch_family(T["4_1"], (0, 2)), c2) == (
            vassiliev_difference(T["4_1"], (0, 2), c2)
        )

    def test_duplicate_crossings_rejected(self):
        with pytest.raises(FamilyError):
            switch_family(T["3_1"], (0, 0))


class TestFreezing:
    def test_frozen_reduces_region_count(self):
        fam = switch_family(T["3_1"], (0,))
        assert fam.frozen(0, True).m == 1
        assert fam.frozen(1, False).m == 1

    def test_frozen_index_validated(self):
        with pytest.raises(IndexError):
            switch_family(T["3_1"], (0,)).frozen(2, True)

    def test_frozen_preserves_the_matching_resolutions(self):
        fam = switch_family(T["3_1"], (0,))
        sub = fam.frozen(0, True)
        assert sub.resolve(()) == fam.resolve((0,))
        assert sub.resolve((0,)) == fam.resolve((0, 1))

    def test_freezing_splits_the_sum(self):
        # G(f) = G(f frozen r to route0) - G(f frozen r to route1), any r
        c2 = get_invariant("c2")
        for fam in (switch_family(T["3_1"], (0,)), switch_family(T["4_1"], (1, 3))):
            want = goussarov_difference(fam, c2)
            for r in range(fam.m):
                split = goussarov_difference(
                    fam.frozen(r, False), c2
                ) - goussarov_difference(fam.frozen(r, True), c2)
                assert split == want, r

    def test_delta_g_of_duplicated_route_cancels(self):
        fam = switch_family(T["3_1"], (0,))
        regions = (
            SwitchRegion(fam.regions[0].stubs, fam.regions[0].route1, fam.regions[0].route1),
            fam.regions[1],
        )
        dup = DetourFamily(fam.quads, regions, fam.host_joins)
        assert delta_g(dup, 0).is_zero()

    def test_iterated_delta_recovers_the_alternating_sum(self):
        c2 = get_invariant("c2")
        fam = switch_family(T["3_1"], (0,))
        total = delta_g(fam, 0).map_terms(lambda f: delta_g(f, 0))
        # all remaining families have zero regions; evaluate directly
        acc = Fraction(0)
        for zero_fam, coeff in total.terms():
            assert zero_fam.m == 0
            acc += coeff * c2(zero_fam.resolve(()))
        assert acc == (-1) ** fam.m * goussarov_difference(fam, c2)


class TestSingularEncoding:
    def test_region_count(self):
        k = SingularDiagram(T["4_1"], (0, 2))
        assert encode_singular_as_bracelet(k).m == 4

    def test_base_state_is_all_negative(self):
        k = SingularDiagram(T["3_1"], (0, 1))
        fam = encode_singular_as_bracelet(k)
        assert fam.resolve(()) == k.resolved({0: -1, 1: -1})

    def test_pair_flips_its_double_point(self):
        k = SingularDiagram(T["3_1"], (0,))
        fam = encode_singular_as_bracelet(k)
        plus = fam.resolve((0, 1))
        assert conway(plus) == conway(k.resolved({0: 1}))

    def test_non_knot_rejected(self):
        with pytest.raises(FamilyError):
            encode_singular_as_bracelet(SingularDiagram(T["hopf"], (0,)))

    def test_theorem1_pins(self):
        c2 = get_invariant("c2")
        res = theorem1_identity_check(SingularDiagram(T["3_1"], (0,)), c2)
        assert res.equal
        assert res.lhs == Fraction(-1)

    def test_theorem1_across_invariants(self):
        k = SingularDiagram(T["4_1"], (0, 2))
        for name in ("jones", "conway", "c2", "j3"):
            assert theorem1_identity_check(k, get_invariant(name)).equal, name


class TestTypeCheck:
    def test_region_count_must_be_n_plus_one(self):
        c2 = get_invariant("c2")
        fam = switch_family(T["3_1"], (0, 1))  # m = 4
        with pytest.raises(ValueError):
            goussarov_type_check(c2, 4, [fam])

    def test_vanishing_at_degree_four(self):
        c2 = get_invariant("c2")
        fam = switch_family(T["3_1"], (0, 1, 2)).frozen(0, False)  # m = 5
        report = goussarov_type_check(c2, 4, [fam], ["tre"])
        assert report.passed
        assert report.cases[0].crossings is None

    def test_sharpness_at_degree_three(self):
        c2 = get_invariant("c2")
        fam = switch_family(T["3_1"], (0, 1))  # m = 4 = 2n for n = 2
        report = goussarov_type_check(c2, 3, [fam])
        assert not report.passed
        assert report.cases[0].value == Fraction(1)


class TestSerialization:
    def test_roundtrip(self):
        for fam in (
            switch_family(T["3_1"], (0,)),
            switch_family(T["4_1"], (1, 3)),
            encode_singular_as_bracelet(SingularDiagram(T["3_1"], (0, 1))),
        ):
            back = parse_family(serialize_family(fam))
            assert back == fam
            assert back.canonical_key() == fam.canonical_key()

    def test_comments_allowed(self):
        text = serialize_family(switch_family(T["3_1"], (0,)))
        commented = "# generated\n" + text.replace("\n", " # tail\n", 1)
        assert parse_family(commented) == parse_family(text)

    def test_bad_header_rejected(self):
        with pytest.raises(FamilyError):
            parse_family("host X[1,4,2,5]\n")

    def test_bad_token_rejected(self):
        text = serialize_family(switch_family(T["3_1"], (0,)))
        with pytest.raises(FamilyError):
            parse_family(text.replace("P[1,", "Q[1,", 1))

    def test_region_count_mismatch_rejected(self):
        text = serialize_family(switch_family(T["3_1"], (0,)))
        with pytest.raises(FamilyError):
            parse_family(text.replace("regions=2", "regions=3", 1))

    def test_missing_route_rejected(self):
        text = serialize_family(switch_family(T["3_1"], (0,)))
        lines = [ln for ln in text.splitlines() if not ln.startswith("region 2 route1")]
        with pytest.raises(FamilyError):
            parse_family("\n".join(lines))
