"""End-to-end command-line coverage via in-process ``main`` calls, plus two
checks in a fresh interpreter (``python -m finitype``, lazy imports)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import finitype
from finitype.cli import main
from finitype.diagram import parse_pd, serialize_pd
from finitype.goussarov import parse_family, serialize_family, switch_family
from finitype.invariants import get_invariant, linking_matrix
from finitype.tables import bundled_table


# the package's public names: __version__ and every module's __all__
PUBLIC_NAMES = [
    "BraceletError", "ChordDiagram", "Crossing", "CyclicLink", "DetourFamily",
    "Diagram", "FamilyError", "FormalSum", "GaussError", "HopfPairBracelet",
    "Invariant", "InvariantError", "LaurentPoly", "MAX_DEGREE", "MAX_REGIONS",
    "PDArcError", "PDError", "PDOrientationError", "PDSyntaxError", "RelationSet",
    "Route", "SingularDiagram", "SparseMatrix", "SuiteCase", "SwitchRegion",
    "TableError", "Theorem1Result", "TypeCheckCase", "TypeCheckReport",
    "WeightSpaceReport", "__version__", "bundled_suite_path", "bundled_table", "c2",
    "conway", "delta_g", "detect_hopf_pairs", "difference_sum", "dim_a",
    "encode_crossing_as_detours", "encode_singular_as_bracelet", "enumerate_diagrams",
    "evaluate_on_sum", "generate_4t", "generate_fi", "get_invariant",
    "goussarov_difference", "goussarov_type_check", "invariant_names", "j3", "jones",
    "kauffman_bracket", "linking_matrix", "load_suite", "load_table", "mirror",
    "odd_degree_empty", "parse_family", "parse_gauss", "parse_pd", "realize_as_link",
    "resolve_all", "resolve_diagram_ref", "resolve_once", "serialize_family",
    "serialize_pd", "switch_crossing", "switch_family", "theorem1_identity_check",
    "to_gauss", "vassiliev_difference", "vassiliev_type_check",
]


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_python(*argv):
    """A fresh interpreter with the finitype under test on its path."""
    src = str(Path(finitype.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env, timeout=60
    )


@pytest.fixture()
def trefoil_family(tmp_path):
    fam = switch_family(bundled_table()["3_1"], (0,))
    p = tmp_path / "fam.dtf"
    p.write_text(serialize_family(fam))
    return str(p)


class TestInvariant:
    def test_c2_trefoil(self, capsys):
        rc, out, err = run(capsys, "invariant", "--name", "c2", "--pd", "knots.pdtab#3_1")
        assert (rc, out, err) == (0, "1\n", "")

    def test_jones_figure_eight(self, capsys):
        rc, out, _ = run(capsys, "invariant", "--name", "jones", "--pd", "knots.pdtab#4_1")
        assert rc == 0
        assert out == "q^-2 - q^-1 + 1 - q + q^2\n"

    def test_conway_hopf(self, capsys):
        rc, out, _ = run(capsys, "invariant", "--name", "conway", "--pd", "knots.pdtab#hopf")
        assert (rc, out) == (0, "z\n")

    def test_inline_pd(self, capsys):
        rc, out, _ = run(
            capsys, "invariant", "--name", "c2", "--pd", "X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]"
        )
        assert (rc, out) == (0, "1\n")

    def test_linking_matrix(self, capsys):
        rc, out, _ = run(capsys, "invariant", "--name", "lk", "--pd", "knots.pdtab#hopf")
        assert rc == 0
        assert out == str(linking_matrix(bundled_table()["hopf"])) + "\n"

    def test_json_mode(self, capsys):
        rc, out, _ = run(capsys, "--json", "invariant", "--name", "c2", "--pd", "knots.pdtab#3_1")
        assert rc == 0
        assert json.loads(out) == {"command": "invariant", "name": "c2", "value": "1"}

    def test_json_flag_after_subcommand(self, capsys):
        _, before, _ = run(capsys, "--json", "invariant", "--name", "j3", "--pd", "knots.pdtab#3_1")
        _, after, _ = run(capsys, "invariant", "--json", "--name", "j3", "--pd", "knots.pdtab#3_1")
        assert before == after
        assert json.loads(before)["value"] == "6"

    def test_unknown_name_is_usage_error(self, capsys):
        rc, _, err = run(capsys, "invariant", "--name", "v9", "--pd", "knots.pdtab#3_1")
        assert rc == 2
        assert err.startswith("usage error:")

    def test_unparsable_pd(self, capsys):
        rc, _, err = run(capsys, "invariant", "--name", "c2", "--pd", "X[1,2,3]")
        assert rc == 2
        assert err.startswith("parse error:")

    def test_zero_component_pd(self, capsys):
        for name in ("conway", "jones", "c2"):
            rc, out, err = run(capsys, "invariant", "--name", name, "--pd", "components=0 arcs=0")
            assert rc == 2, name
            assert out == ""
            assert err.startswith("parse error:"), name

    def test_missing_table_row(self, capsys):
        rc, _, err = run(capsys, "invariant", "--name", "c2", "--pd", "knots.pdtab#zzz")
        assert rc == 2
        assert err.startswith("input error:")

    def test_jones_on_even_link(self, capsys):
        rc, _, err = run(capsys, "invariant", "--name", "jones", "--pd", "knots.pdtab#hopf")
        assert rc == 2
        assert err.startswith("input error:")

    @pytest.mark.parametrize(
        "argv",
        [
            ("--max-crossings", "2", "invariant", "--name", "c2", "--pd", "knots.pdtab#3_1"),
            ("invariant", "--max-crossings", "2", "--name", "c2", "--pd", "knots.pdtab#3_1"),
        ],
    )
    def test_crossing_guard_both_positions(self, capsys, argv):
        rc, _, err = run(capsys, *argv)
        assert rc == 2
        assert err.startswith("input error:")
        assert "--max-crossings" in err


class TestVtype:
    def test_single_diagram_pass(self, capsys):
        rc, out, _ = run(
            capsys, "vtype", "--invariant", "c2", "--n", "2",
            "--pd", "knots.pdtab#3_1", "--crossings", "0,1,2",
        )
        assert rc == 0
        assert out.splitlines()[-1].startswith("PASS")
        assert "value=0" in out

    def test_single_diagram_fail(self, capsys):
        rc, out, _ = run(
            capsys, "vtype", "--invariant", "c2", "--n", "1",
            "--pd", "knots.pdtab#3_1", "--crossings", "0,1",
        )
        assert rc == 1
        assert out.splitlines()[-1].startswith("FAIL")
        assert "value=1" in out

    def test_bundled_suite(self, capsys):
        rc, out, _ = run(capsys, "vtype", "--invariant", "c2", "--n", "2", "--suite", "vtype_c2.suite")
        assert rc == 0
        assert out.splitlines()[-1] == "PASS (20/20 sums vanish)"

    def test_suite_json(self, capsys):
        rc, out, _ = run(
            capsys, "--json", "vtype", "--invariant", "j3", "--n", "3", "--suite", "vtype_j3.suite"
        )
        assert rc == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert len(payload["cases"]) == 20
        assert all(c["value"] == "0" for c in payload["cases"])

    def test_suite_excludes_pd(self, capsys):
        rc, _, err = run(
            capsys, "vtype", "--invariant", "c2", "--n", "2",
            "--suite", "vtype_c2.suite", "--pd", "knots.pdtab#3_1",
        )
        assert rc == 2
        assert err.startswith("usage error:")

    def test_needs_some_input(self, capsys):
        rc, _, err = run(capsys, "vtype", "--invariant", "c2", "--n", "2")
        assert rc == 2
        assert err.startswith("usage error:")

    def test_degree_guard(self, capsys):
        rc, _, err = run(
            capsys, "vtype", "--invariant", "c2", "--n", "8",
            "--pd", "knots.pdtab#3_1", "--crossings", "0,1,2",
        )
        assert rc == 2
        assert err.startswith("input error:")

    def test_unknown_invariant(self, capsys):
        rc, _, err = run(
            capsys, "vtype", "--invariant", "zeta", "--n", "2",
            "--pd", "knots.pdtab#3_1", "--crossings", "0,1,2",
        )
        assert rc == 2
        assert err.startswith("input error:")


class TestGtype:
    def test_pass(self, capsys, tmp_path):
        fam = switch_family(bundled_table()["3_1"], (0, 1, 2))
        p = tmp_path / "six.dtf"
        p.write_text(serialize_family(fam))
        rc, out, _ = run(capsys, "gtype", "--invariant", "c2", "--n", "5", "--family", str(p))
        assert rc == 0
        assert out.splitlines()[-1].startswith("PASS")

    def test_fail(self, capsys, trefoil_family):
        rc, out, _ = run(capsys, "gtype", "--invariant", "c2", "--n", "1", "--family", trefoil_family)
        assert rc == 1
        assert out.splitlines()[-1].startswith("FAIL")

    def test_missing_file(self, capsys):
        rc, _, err = run(capsys, "gtype", "--invariant", "c2", "--n", "1", "--family", "/nope.dtf")
        assert rc == 2
        assert err.startswith("input error:")

    def test_garbage_family(self, capsys, tmp_path):
        p = tmp_path / "bad.dtf"
        p.write_text("not a family\n")
        rc, _, err = run(capsys, "gtype", "--invariant", "c2", "--n", "1", "--family", str(p))
        assert rc == 2
        assert err.startswith("parse error:")


class TestResolve:
    def test_base_state_is_host(self, capsys, trefoil_family):
        rc, out, _ = run(capsys, "resolve", "--family", trefoil_family)
        assert rc == 0
        resolved = parse_pd(out.strip())
        assert resolved.canonical_key() == bundled_table()["3_1"].canonical_key()

    def test_full_subset_switches(self, capsys, trefoil_family):
        rc, out, _ = run(capsys, "resolve", "--family", trefoil_family, "--subset", "1,2")
        assert rc == 0
        resolved = parse_pd(out.strip())
        # switching one trefoil crossing unknots it
        assert get_invariant("conway")(resolved) == get_invariant("conway")(
            bundled_table()["0_1"]
        )

    def test_subset_is_one_based(self, capsys, trefoil_family):
        rc, _, err = run(capsys, "resolve", "--family", trefoil_family, "--subset", "0")
        assert rc == 2
        assert "out of range 1..2" in err

    def test_subset_upper_bound(self, capsys, trefoil_family):
        rc, _, err = run(capsys, "resolve", "--family", trefoil_family, "--subset", "3")
        assert rc == 2
        assert err.startswith("input error:")


class TestEncodeAndTheorem1:
    def test_encode_roundtrips(self, capsys):
        rc, out, _ = run(capsys, "encode", "--pd", "knots.pdtab#3_1", "--singular", "0")
        assert rc == 0
        fam = parse_family(out)
        assert fam.m == 2

    def test_encode_json(self, capsys):
        rc, out, _ = run(capsys, "--json", "encode", "--pd", "knots.pdtab#3_1", "--singular", "0,1")
        assert rc == 0
        fam = parse_family(json.loads(out)["family"])
        assert fam.m == 4

    def test_theorem1_text(self, capsys):
        rc, out, _ = run(
            capsys, "theorem1", "--pd", "knots.pdtab#3_1", "--singular", "0", "--invariant", "c2"
        )
        assert rc == 0
        assert out == "lhs=-1\nrhs=-1\nPASS\n"

    def test_theorem1_all_invariants(self, capsys):
        for name in ("jones", "conway", "c2", "j3"):
            rc, out, _ = run(
                capsys, "theorem1", "--pd", "knots.pdtab#4_1",
                "--singular", "0,2", "--invariant", name,
            )
            assert rc == 0
            assert out.splitlines()[-1] == "PASS"

    def test_theorem1_json(self, capsys):
        rc, out, _ = run(
            capsys, "--json", "theorem1", "--pd", "knots.pdtab#3_1",
            "--singular", "0", "--invariant", "conway",
        )
        assert rc == 0
        payload = json.loads(out)
        assert payload["equal"] is True
        assert payload["lhs"] == payload["rhs"]

    def test_bad_mark_index(self, capsys):
        rc, _, err = run(
            capsys, "theorem1", "--pd", "knots.pdtab#3_1", "--singular", "7", "--invariant", "c2"
        )
        assert rc == 2
        assert err.startswith("input error:")


class TestChordSide:
    def test_dim_a_zero(self, capsys):
        rc, out, err = run(capsys, "dim-a", "--n", "0")
        assert (rc, out, err) == (0, "dim=1\n", "")

    def test_dim_a_four(self, capsys):
        rc, out, _ = run(capsys, "dim-a", "--n", "4")
        assert (rc, out) == (0, "dim=3\n")

    def test_dim_a_framed(self, capsys):
        rc, out, _ = run(capsys, "dim-a", "--n", "4", "--framed")
        assert (rc, out) == (0, "dim=6\n")

    def test_dim_a_json(self, capsys):
        rc, out, _ = run(capsys, "--json", "dim-a", "--n", "4")
        payload = json.loads(out)
        assert rc == 0
        assert payload["n_diagrams"] == 18
        assert payload["dim"] == 3
        assert payload["rank"] == payload["n_diagrams"] - payload["dim"]

    def test_dim_a_degree_guard(self, capsys):
        rc, _, err = run(capsys, "dim-a", "--n", "8")
        assert rc == 2
        assert err.startswith("input error:")
        assert "--max-degree" in err

    def test_chords_count(self, capsys):
        rc, out, _ = run(capsys, "chords", "--n", "3")
        assert (rc, out) == (0, "count=5\n")

    def test_chords_list(self, capsys):
        rc, out, _ = run(capsys, "chords", "--n", "3", "--list")
        assert rc == 0
        assert out.splitlines() == ["AABBCC", "AABCBC", "AABCCB", "ABACBC", "ABCABC"]

    def test_chords_json(self, capsys):
        rc, out, _ = run(capsys, "--json", "chords", "--n", "2", "--list")
        assert rc == 0
        assert json.loads(out) == {
            "command": "chords",
            "count": 2,
            "n": 2,
            "words": ["AABB", "ABAB"],
        }


class TestBracelet:
    def test_emit_link(self, capsys):
        rc, out, _ = run(capsys, "bracelet", "--matching", "1:2", "--emit-link")
        assert (rc, out) == (0, "components=2 arcs=4 X[1,3,2,4] X[3,1,4,2]\n")

    def test_chord_word(self, capsys):
        rc, out, _ = run(capsys, "bracelet", "--matching", "1:3,2:4", "--chord")
        assert (rc, out) == (0, "ABAB\n")

    def test_emitted_link_parses(self, capsys):
        rc, out, _ = run(capsys, "bracelet", "--matching", "1:4,2:6,3:5", "--emit-link")
        assert rc == 0
        assert parse_pd(out.strip()).n_components == 6

    def test_exactly_one_mode(self, capsys):
        rc, _, err = run(capsys, "bracelet", "--matching", "1:2", "--emit-link", "--chord")
        assert rc == 2
        assert err.startswith("usage error:")
        rc, _, err = run(capsys, "bracelet", "--matching", "1:2")
        assert rc == 2
        assert err.startswith("usage error:")

    def test_malformed_matching(self, capsys):
        rc, _, err = run(capsys, "bracelet", "--matching", "1-2", "--chord")
        assert rc == 2
        assert err.startswith("input error:")

    def test_incomplete_matching(self, capsys):
        rc, _, err = run(capsys, "bracelet", "--matching", "1:3", "--chord")
        assert rc == 2
        assert err.startswith("input error:")
        assert "odd component count" in err


class TestTopLevel:
    def test_no_arguments(self, capsys):
        rc, _, err = run(capsys)
        assert rc == 2
        assert err.startswith("usage error:")

    def test_unknown_subcommand(self, capsys):
        rc, _, err = run(capsys, "frobnicate")
        assert rc == 2
        assert err.startswith("usage error:")

    def test_help_exits_zero(self, capsys):
        rc, out, _ = run(capsys, "--help")
        assert rc == 0
        assert "finitype" in out

    def test_byte_identical_reruns(self, capsys):
        argv = ("invariant", "--name", "jones", "--pd", "knots.pdtab#8_3")
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second

    def test_json_key_order_is_stable(self, capsys):
        argv = ("--json", "dim-a", "--n", "3")
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second
        keys = list(json.loads(first[1]).keys())
        assert keys == sorted(keys)


    def test_runs_as_a_module(self):
        pd = bundled_table()["3_1"]
        proc = run_python("-m", "finitype", "invariant", "--name", "c2", "--pd", serialize_pd(pd))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "1\n"

    def test_selftest_loaded_only_by_its_command(self):
        code = (
            "import sys, finitype\n"
            "print(sorted(m for m in ('finitype.selftest', 'finitype.oracles', 'finitype.cli')"
            " if m in sys.modules))\n"
            "import finitype.cli\n"
            "print('finitype.selftest' in sys.modules)"
        )
        proc = run_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\nFalse\n"

    def test_package_surface(self):
        assert sorted(finitype.__all__) == PUBLIC_NAMES
        missing = [name for name in PUBLIC_NAMES if not hasattr(finitype, name)]
        assert missing == []


class TestSelftestCommand:
    def test_json_report(self, capsys):
        rc, out, _ = run(capsys, "--json", "selftest")
        assert rc == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert [c["number"] for c in payload["criteria"]] == list(range(1, 10))
        assert all(c["passed"] for c in payload["criteria"])
