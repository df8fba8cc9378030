"""View specification tests."""

import pytest

from repro.dtd import parse_dtd
from repro.errors import ViewError
from repro.views import copy_view, sigma0, view_spec
from repro.xpath import ast

SRC = parse_dtd(
    """
    root s
    s -> x*
    x -> y*, t
    y -> EMPTY
    t -> #PCDATA
    """
)

VIEW = parse_dtd(
    """
    root v
    v -> w*
    w -> #PCDATA
    """
)


class TestViewSpec:
    def test_annotations_parse_strings(self):
        spec = view_spec(SRC, VIEW, {("v", "w"): "x/t"})
        assert isinstance(spec.annotation("v", "w"), ast.Concat)

    def test_descendant_annotations_desugar(self):
        spec = view_spec(SRC, VIEW, {("v", "w"): "//t"})
        assert not ast.contains_desc_or_self(spec.annotation("v", "w"))

    def test_missing_annotation_rejected(self):
        with pytest.raises(ViewError, match="missing annotation"):
            view_spec(SRC, VIEW, {})

    def test_extra_annotation_rejected(self):
        with pytest.raises(ViewError, match="does not match"):
            view_spec(SRC, VIEW, {("v", "w"): "x/t", ("v", "zzz"): "x"})

    def test_unknown_source_label_rejected(self):
        with pytest.raises(ViewError, match="unknown source"):
            view_spec(SRC, VIEW, {("v", "w"): "ghost"})

    def test_unannotated_lookup_raises(self):
        spec = view_spec(SRC, VIEW, {("v", "w"): "x/t"})
        with pytest.raises(ViewError):
            spec.annotation("v", "nope")

    def test_size_sums_annotation_asts(self):
        spec = view_spec(SRC, VIEW, {("v", "w"): "x/t"})
        assert spec.size() == 3  # Concat + two labels

    def test_is_recursive_tracks_view_dtd(self):
        assert sigma0().is_recursive
        assert not view_spec(SRC, VIEW, {("v", "w"): "x/t"}).is_recursive

    def test_describe_lists_annotations(self):
        text = sigma0().describe()
        assert "sigma(hospital, patient)" in text
        assert "heart disease" in text

    def test_sigma0_matches_fig1c(self):
        spec = sigma0()
        assert len(spec.annotations) == 6
        from repro.xpath import unparse

        assert unparse(spec.annotation("patient", "parent")) == "parent"
        assert unparse(spec.annotation("record", "diagnosis")) == (
            "treatment/medication/diagnosis"
        )


class TestCopyView:
    def test_identity_annotations(self):
        spec = copy_view(SRC)
        assert spec.annotation("x", "y") == ast.Label("y")
        assert spec.view_dtd is SRC
