"""View materialisation tests, centred on the paper's σ0 (Example 2.2)."""

import pytest

from repro.dtd import hospital_view_dtd, parse_dtd
from repro.dtd.validate import conforms
from repro.errors import ViewError
from repro.views import materialize, sigma0, view_spec
from repro.xpath import evaluate, parse_query
from repro.xtree import parse_xml

#: One hospital with two patients: Alice (heart disease, one parent with a
#: test visit) and Bob (flu only — must NOT appear in the view).
HOSPITAL_XML = """
<hospital>
  <department><name>cardio</name>
    <patient>
      <pname>Alice</pname>
      <address><street>s</street><city>c</city><zip>z</zip></address>
      <visit><date>d1</date>
        <treatment><medication><type>t</type>
          <diagnosis>heart disease</diagnosis></medication></treatment>
        <doctor><dname>who</dname><specialty>cardiology</specialty></doctor>
      </visit>
      <parent>
        <patient>
          <pname>Carol</pname>
          <address><street>s</street><city>c</city><zip>z</zip></address>
          <visit><date>d0</date>
            <treatment><test>blood test</test></treatment>
            <doctor><dname>who</dname><specialty>gp</specialty></doctor>
          </visit>
        </patient>
      </parent>
    </patient>
    <patient>
      <pname>Bob</pname>
      <address><street>s</street><city>c</city><zip>z</zip></address>
      <visit><date>d2</date>
        <treatment><medication><type>t</type>
          <diagnosis>flu</diagnosis></medication></treatment>
        <doctor><dname>who</dname><specialty>gp</specialty></doctor>
      </visit>
    </patient>
  </department>
</hospital>
"""


@pytest.fixture(scope="module")
def view():
    return materialize(sigma0(), parse_xml(HOSPITAL_XML))


class TestSigma0Materialisation:
    def test_only_heart_disease_patients(self, view):
        patients = [c for c in view.tree.root.children if c.label == "patient"]
        assert len(patients) == 1  # Alice only; Bob hidden

    def test_parent_hierarchy_exposed(self, view):
        q = parse_query("patient/parent/patient")
        assert len(evaluate(q, view.tree.root)) == 1

    def test_diagnosis_text_copied(self, view):
        q = parse_query("patient/record/diagnosis")
        (diagnosis,) = evaluate(q, view.tree.root)
        assert diagnosis.text() == "heart disease"

    def test_test_visit_becomes_empty_record(self, view):
        q = parse_query("patient/parent/patient/record/empty")
        (empty,) = evaluate(q, view.tree.root)
        assert empty.children == []

    def test_sensitive_data_hidden(self, view):
        from repro.xtree import serialize

        text = serialize(view.tree)
        assert "Alice" not in text  # names are not in the view
        assert "blood test" not in text  # test contents hidden
        assert "cardiology" not in text  # doctor data hidden
        assert "flu" not in text  # Bob's record entirely absent

    def test_view_conforms_to_view_dtd(self, view):
        assert conforms(view.tree, hospital_view_dtd(), strict_sequences=False)

    def test_provenance_points_into_source(self, view):
        q = parse_query("patient")
        (alice_view,) = evaluate(q, view.tree.root)
        source = view.provenance[alice_view]
        assert source.label == "patient"
        assert [c for c in source.children if c.label == "pname"][0].text() == "Alice"

    def test_provenance_of_root(self, view):
        assert view.provenance[view.tree.root].label == "hospital"

    def test_sources_maps_sets(self, view):
        nodes = evaluate(parse_query("patient/record"), view.tree.root)
        sources = view.sources(nodes)
        assert all(s.label == "visit" for s in sources)

    def test_children_follow_production_then_document_order(self, view):
        """Child groups follow the view production (parent*, record*); the
        nodes within one group are in source document order."""
        (alice,) = evaluate(parse_query("patient"), view.tree.root)
        kinds = [c.label for c in alice.children]
        assert kinds == sorted(kinds, key=["parent", "record"].index)
        for kind in ("parent", "record"):
            ids = [
                view.provenance[c].node_id
                for c in alice.children
                if c.label == kind
            ]
            assert ids == sorted(ids)


class TestGuards:
    def test_epsilon_cycle_view_rejected(self):
        src = parse_dtd("root s\ns -> #PCDATA")
        cyclic_view = parse_dtd(
            """
            root v
            v -> w*
            w -> v*
            """
        )
        spec = view_spec(
            src, cyclic_view, {("v", "w"): ".", ("w", "v"): "."}
        )
        with pytest.raises(ViewError, match="depth"):
            materialize(spec, parse_xml("<s>x</s>"))

    def test_str_view_type_copies_context_text(self):
        src = parse_dtd("root s\ns -> t\nt -> #PCDATA")
        view_dtd = parse_dtd("root v\nv -> w*\nw -> #PCDATA")
        spec = view_spec(src, view_dtd, {("v", "w"): "t"})
        result = materialize(spec, parse_xml("<s><t>payload</t></s>"))
        (w,) = [c for c in result.tree.root.children if c.label == "w"]
        assert w.text() == "payload"
