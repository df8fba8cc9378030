"""DTD validation and document generation tests."""

import pytest

from repro.dtd import (
    GeneratorConfig,
    conforms,
    generate_document,
    hospital_dtd,
    parse_dtd,
    validate,
)
from repro.errors import DTDError, ValidationError
from repro.xtree import parse_xml

DTD_TEXT = """
root r
r -> a*, b
a -> #PCDATA
b -> c + d
c -> EMPTY
d -> #PCDATA
"""


def dtd():
    return parse_dtd(DTD_TEXT)


class TestValidate:
    def test_valid_document(self):
        tree = parse_xml("<r><a>1</a><a>2</a><b><c/></b></r>")
        validate(tree, dtd())

    def test_zero_star_items_ok(self):
        validate(parse_xml("<r><b><d>x</d></b></r>"), dtd())

    def test_wrong_root(self):
        with pytest.raises(ValidationError, match="root"):
            validate(parse_xml("<x/>"), dtd())

    def test_missing_mandatory_child(self):
        with pytest.raises(ValidationError, match="expected <b>"):
            validate(parse_xml("<r><a>1</a></r>"), dtd())

    def test_trailing_child(self):
        with pytest.raises(ValidationError, match="trailing"):
            validate(parse_xml("<r><a>1</a><b><c/></b><a>late</a></r>"), dtd())

    def test_pcdata_with_element_child(self):
        with pytest.raises(ValidationError, match="PCDATA"):
            validate(parse_xml("<r><a><c/></a><b><c/></b></r>"), dtd())

    def test_empty_with_content(self):
        with pytest.raises(ValidationError, match="must be empty"):
            validate(parse_xml("<r><b><c>boom</c></b></r>"), dtd())

    def test_choice_needs_exactly_one(self):
        with pytest.raises(ValidationError, match="exactly one"):
            validate(parse_xml("<r><b><c/><c/></b></r>"), dtd())

    def test_choice_wrong_option(self):
        with pytest.raises(ValidationError):
            validate(parse_xml("<r><b><a>no</a></b></r>"), dtd())

    def test_unexpected_text(self):
        with pytest.raises(ValidationError, match="unexpected PCDATA"):
            validate(parse_xml("<r>stray<a>1</a><b><c/></b></r>"), dtd())

    def test_conforms_bool(self):
        assert conforms(parse_xml("<r><b><c/></b></r>"), dtd())
        assert not conforms(parse_xml("<r/>"), dtd())

    def test_lenient_mode_allows_missing_mandatory(self):
        tree = parse_xml("<r><a>1</a></r>")
        assert conforms(tree, dtd(), strict_sequences=False)


class TestGenerate:
    def test_generated_conforms(self):
        for seed in range(5):
            doc = generate_document(dtd(), GeneratorConfig(seed=seed))
            validate(doc, dtd())

    def test_deterministic(self):
        one = generate_document(dtd(), GeneratorConfig(seed=42))
        two = generate_document(dtd(), GeneratorConfig(seed=42))
        assert [n.label for n in one.nodes] == [n.label for n in two.nodes]
        assert [n.value for n in one.nodes] == [n.value for n in two.nodes]

    def test_seed_changes_output(self):
        sizes = {
            generate_document(dtd(), GeneratorConfig(seed=s, star_mean=3)).size
            for s in range(8)
        }
        assert len(sizes) > 1

    def test_recursive_dtd_terminates_and_conforms(self):
        hospital = hospital_dtd()
        doc = generate_document(
            hospital,
            GeneratorConfig(
                seed=1,
                star_mean=1.5,
                max_depth=16,
                soft_depth=5,
                star_overrides={("hospital", "department"): 3.0},
            ),
        )
        validate(doc, hospital)
        assert doc.size > 50

    def test_depth_bounded(self):
        hospital = hospital_dtd()
        doc = generate_document(
            hospital, GeneratorConfig(seed=2, max_depth=12, soft_depth=3)
        )
        # patient recursion stops at the budget; one patient description is
        # ~4 levels deep, so the bound is max_depth plus a small constant.
        assert doc.depth() <= 12 + 6

    def test_text_pools_used(self):
        doc = generate_document(
            dtd(),
            GeneratorConfig(seed=3, text_pools={"a": ["only"]}, star_mean=3),
        )
        values = {n.text() for n in doc.nodes if n.label == "a"}
        assert values <= {"only"}

    def test_text_provider_wins(self):
        doc = generate_document(
            dtd(),
            GeneratorConfig(
                seed=3,
                text_pools={"a": ["pool"]},
                text_provider=lambda label, rng: f"<{label}>",
                star_mean=2,
            ),
        )
        for node in doc.nodes:
            if node.label == "a":
                assert node.text() == "<a>"

    def test_star_overrides(self):
        doc = generate_document(
            dtd(), GeneratorConfig(seed=0, star_overrides={("r", "a"): 0.0})
        )
        assert not [c for c in doc.root.children if c.label == "a"]

    def test_mandatory_cycle_rejected(self):
        bad = parse_dtd("root r\nr -> a\na -> r")
        with pytest.raises(DTDError, match="cannot terminate"):
            generate_document(bad, GeneratorConfig(seed=0, max_depth=5))
