"""Bundled tables, diagram references, and suite manifests."""

from pathlib import Path

import pytest

from finitype.diagram import PDError, parse_pd
from finitype.tables import (
    TableError,
    bundled_suite_path,
    bundled_table,
    load_suite,
    resolve_diagram_ref,
)


class TestBundledTable:
    def test_contents(self):
        names = list(bundled_table())
        assert len(names) == 20
        for required in ("0_1", "3_1", "3_1m", "4_1", "5_1", "6_1", "7_1",
                         "8_3", "hopf", "unlink2", "chain3", "solomon"):
            assert required in names

    def test_returns_a_copy(self):
        t = bundled_table()
        t.clear()
        assert len(bundled_table()) == 20

    def test_unknown_table(self):
        with pytest.raises(TableError):
            bundled_table("nope.pdtab")


class TestResolveDiagramRef:
    def test_inline_pd(self):
        d = resolve_diagram_ref("X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]")
        assert d == bundled_table()["3_1"]

    def test_inline_preamble_only(self):
        assert resolve_diagram_ref("components=1 arcs=0").n_components == 1

    def test_bundled_row(self):
        assert resolve_diagram_ref("knots.pdtab#4_1") == bundled_table()["4_1"]

    def test_missing_row_lists_rows(self):
        with pytest.raises(TableError, match="rows:"):
            resolve_diagram_ref("knots.pdtab#missing")

    def test_file_path(self, tmp_path):
        p = tmp_path / "knot.pd"
        p.write_text("X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]\n")
        assert resolve_diagram_ref(str(p)) == bundled_table()["3_1"]

    def test_file_row_reference(self, tmp_path):
        p = tmp_path / "mini.pdtab"
        p.write_text("tre\tX[1,4,2,5] X[3,6,4,1] X[5,2,6,3]\n")
        assert resolve_diagram_ref(f"{p}#tre") == bundled_table()["3_1"]

    def test_relative_to(self, tmp_path):
        p = tmp_path / "mini.pdtab"
        p.write_text("tre\tX[1,4,2,5] X[3,6,4,1] X[5,2,6,3]\n")
        d = resolve_diagram_ref("mini.pdtab#tre", relative_to=tmp_path)
        assert d == bundled_table()["3_1"]

    def test_missing_file(self):
        with pytest.raises(TableError, match="no such file"):
            resolve_diagram_ref("/does/not/exist.pd")

    def test_parse_errors_propagate(self):
        with pytest.raises(PDError):
            resolve_diagram_ref("X[1,2,3]")


class TestSuites:
    def test_bundled_suites_load(self):
        for name, size in (("vtype_c2.suite", 3), ("vtype_j3.suite", 4)):
            cases = load_suite(bundled_suite_path(name))
            assert len(cases) == 20
            for c in cases:
                assert len(c.crossings) == size
                assert c.diagram.is_knot()
                assert c.label.startswith("knots.pdtab#")

    def test_bare_name_falls_back_to_bundled(self):
        assert len(load_suite("vtype_c2.suite")) == 20

    def test_custom_suite(self, tmp_path):
        p = tmp_path / "my.suite"
        p.write_text("# demo\nknots.pdtab#3_1\t0,1,2\n")
        cases = load_suite(p)
        assert len(cases) == 1
        assert cases[0].crossings == (0, 1, 2)
        assert cases[0].diagram == bundled_table()["3_1"]

    def test_suite_refs_resolve_relative_to_manifest(self, tmp_path):
        (tmp_path / "local.pdtab").write_text(
            "tre\tX[1,4,2,5] X[3,6,4,1] X[5,2,6,3]\n"
        )
        p = tmp_path / "my.suite"
        p.write_text("local.pdtab#tre\t0,1\n")
        assert load_suite(p)[0].diagram == bundled_table()["3_1"]

    def test_missing_suite(self):
        with pytest.raises(TableError, match="no such suite"):
            load_suite("/nope/missing.suite")

    def test_malformed_lines(self, tmp_path):
        p = tmp_path / "bad.suite"
        p.write_text("knots.pdtab#3_1\n")
        with pytest.raises(TableError, match="expected"):
            load_suite(p)
        p.write_text("knots.pdtab#3_1\tx,y\n")
        with pytest.raises(TableError, match="bad crossing"):
            load_suite(p)
        p.write_text("# only comments\n")
        with pytest.raises(TableError, match="no cases"):
            load_suite(p)

    def test_space_separated_fallback(self, tmp_path):
        p = tmp_path / "sp.suite"
        p.write_text("knots.pdtab#3_1 0,1,2\n")
        assert load_suite(p)[0].crossings == (0, 1, 2)
