"""Workload and bench-harness tests."""

import pytest

from repro.bench import (
    format_ratios,
    format_series,
    make_algorithms,
    measure,
    pruning_statistics,
    run_series,
)
from repro.dtd import hospital_dtd, validate
from repro.workloads import (
    EXAMPLE_1_1,
    EXAMPLE_2_1,
    EXAMPLE_4_1,
    FIG8,
    FIG9,
    VIEW_QUERIES,
    HospitalConfig,
    generate_hospital_document,
    parse_all,
)
from repro.workloads.scales import SeriesStep, document_series
from repro.xpath import classify, parse_query


class TestHospitalWorkload:
    def test_document_conforms_to_fig1a_dtd(self):
        doc = generate_hospital_document(HospitalConfig(num_patients=25, seed=2))
        validate(doc, hospital_dtd())

    def test_deterministic(self):
        a = generate_hospital_document(HospitalConfig(num_patients=10, seed=5))
        b = generate_hospital_document(HospitalConfig(num_patients=10, seed=5))
        assert [n.label for n in a.nodes] == [n.label for n in b.nodes]
        assert [n.value for n in a.nodes] == [n.value for n in b.nodes]

    def test_patient_count_scales_size(self):
        small = generate_hospital_document(HospitalConfig(num_patients=10, seed=1))
        large = generate_hospital_document(HospitalConfig(num_patients=40, seed=1))
        assert large.element_count > 2.5 * small.element_count

    def test_depth_near_paper(self):
        doc = generate_hospital_document(HospitalConfig(num_patients=60, seed=1))
        assert 8 <= doc.depth() <= 20  # paper: 13

    def test_element_text_ratio_near_paper(self):
        doc = generate_hospital_document(HospitalConfig(num_patients=60, seed=1))
        ratio = doc.element_count / (doc.size - doc.element_count)
        assert 1.5 <= ratio <= 3.0  # paper: ≈ 2:1

    def test_selectivity_knob(self):
        lo = generate_hospital_document(
            HospitalConfig(num_patients=50, seed=1, heart_disease_rate=0.05)
        )
        hi = generate_hospital_document(
            HospitalConfig(num_patients=50, seed=1, heart_disease_rate=0.9)
        )

        def heart_count(doc):
            return sum(
                1
                for n in doc.nodes
                if n.label == "diagnosis" and n.text() == "heart disease"
            )

        assert heart_count(hi) > heart_count(lo)

    def test_recursive_parent_chains_exist(self):
        doc = generate_hospital_document(HospitalConfig(num_patients=60, seed=1))
        deep = parse_query("department/patient/parent/patient/parent/patient")
        from repro.xpath import evaluate

        assert evaluate(deep, doc.root)


class TestQueries:
    def test_all_workload_queries_parse(self):
        parse_all(FIG8)
        parse_all(FIG9)
        parse_all(VIEW_QUERIES)
        parse_query(EXAMPLE_1_1)
        parse_query(EXAMPLE_2_1)
        parse_query(EXAMPLE_4_1)

    def test_fig8_is_xpath_fragment(self):
        for name, text in FIG8.items():
            assert classify(parse_query(text)) == "X", name

    def test_fig9_is_proper_regular_xpath(self):
        for name, text in FIG9.items():
            assert classify(parse_query(text)) == "Xreg", name

    def test_example_41_is_regular_xpath(self):
        assert classify(parse_query(EXAMPLE_4_1)) == "Xreg"

    def test_example_11_is_xpath(self):
        assert classify(parse_query(EXAMPLE_1_1)) == "X"


class TestSeries:
    def test_series_growth_linear(self):
        series = document_series(steps=3)
        counts = [step.element_count for step in series]
        assert counts[0] < counts[1] < counts[2]
        # roughly linear: step k ≈ k * step 1
        assert counts[2] < 4.5 * counts[0]

    def test_series_steps_labeled(self):
        series = document_series(steps=2)
        assert [s.label for s in series] == ["step-1", "step-2"]

    def test_scale_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.1")
        small = document_series(steps=1)[0].num_patients
        monkeypatch.setenv("REPRO_SCALE", "1.0")
        normal = document_series(steps=1)[0].num_patients
        assert small < normal

    def test_bad_scale_env_ignored(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "not-a-number")
        from repro.workloads.scales import scale_factor

        assert scale_factor() == 1.0


class TestBenchHarness:
    def test_measure(self):
        timing = measure(lambda: sum(range(100)), repeats=3)
        assert timing.repeats == 3
        assert timing.best <= timing.mean <= timing.worst

    def test_format_series(self):
        table = format_series(
            "Fig X",
            ["s1", "s2"],
            {"hype": [0.001, 0.002], "naive": [0.003, 0.004]},
            extra={"elements": [10, 20]},
        )
        assert "Fig X" in table and "hype" in table and "elements" in table
        assert "1.0" in table and "4.0" in table

    def test_format_ratios(self):
        text = format_ratios("naive", {"naive": [2.0], "hype": [1.0]})
        assert "naive/hype = 2.00x" in text

    def test_make_algorithms_rejects_unknown(self):
        with pytest.raises(ValueError):
            make_algorithms("a", ["bogus"])

    def test_runners_survive_dropped_documents(self):
        """Regression: the OptHyPE runners cached their index under
        ``id(tree)`` without holding the tree, so documents generated,
        run and dropped one after another reused ids and ran through a
        dead document's index — wrong answer sets and ``IndexError``s.
        Every document must agree with ``naive``."""
        runners = make_algorithms(
            FIG8["fig8a"], ["naive", "hype", "opthype", "opthype-c"]
        )
        answered = 0
        for seed in range(40):
            doc = generate_hospital_document(
                HospitalConfig(num_patients=3 + seed % 5, seed=seed)
            )
            expected = {n.node_id for n in runners["naive"](doc)}
            answered += bool(expected)
            for name in ("hype", "opthype", "opthype-c"):
                got = {n.node_id for n in runners[name](doc)}
                assert got == expected, (seed, name)
            del doc
        assert answered > 10

    def test_run_series_smoke(self):
        doc = generate_hospital_document(HospitalConfig(num_patients=8, seed=4))
        series = [SeriesStep("tiny", 8, doc)]
        result = run_series(
            "smoke", FIG8["fig8a"], series, ["naive", "hype", "opthype"],
            repeats=1,
        )
        assert set(result.times) == {"naive", "hype", "opthype"}
        assert len(result.answer_counts) == 1
        assert "smoke" in result.render()

    def test_run_series_detects_disagreement(self):
        doc = generate_hospital_document(HospitalConfig(num_patients=5, seed=4))
        series = [SeriesStep("tiny", 5, doc)]

        import repro.bench.runners as runners

        broken = {"naive": lambda tree: set(), "hype": lambda tree: {tree.root}}
        original = runners.make_algorithms
        runners.make_algorithms = lambda q, inc: broken
        try:
            with pytest.raises(AssertionError, match="disagrees"):
                run_series("broken", "department", series, ["naive", "hype"])
        finally:
            runners.make_algorithms = original

    def test_pruning_statistics(self):
        doc = generate_hospital_document(HospitalConfig(num_patients=20, seed=4))
        stats = pruning_statistics("department/patient/pname", doc)
        assert set(stats) == {"hype", "opthype", "opthype-c"}
        assert all(0.0 <= v <= 1.0 for v in stats.values())
        # the rooted query never enters visit/address subtrees
        assert stats["hype"] > 0.3
        assert stats["opthype"] >= stats["hype"] - 1e-9
