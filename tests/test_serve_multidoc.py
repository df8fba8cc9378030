"""Multi-document serving: per-request documents, catalogs, drain.

The PR-8 tentpole's first layer: one :class:`QueryService` serves many
cataloged documents, each request selecting one by content hash, with
per-tenant document catalogs enforced at authorisation time.  Includes
the in-process graceful-drain semantics (the subprocess SIGTERM path is
``tests/test_serve_drain.py``).
"""

import asyncio

import pytest

from repro.errors import DocumentError
from repro.serve.admission import AdmissionConfig
from repro.serve.frontend import FrontendClient, QueryFrontend
from repro.serve.service import QueryRequest, QueryService, rejection_kind
from repro.workloads.multidoc import (
    HOSPITAL,
    ONTOLOGY,
    MultiDocConfig,
    build_multidoc_service,
    generate_multidoc_traffic,
)

CFG = MultiDocConfig(patients=16, terms=16, chain_depth=6, num_requests=32)


@pytest.fixture()
def multidoc():
    service, hashes = build_multidoc_service(CFG)
    yield service, hashes
    service.close()


class TestDocumentRegistry:
    def test_two_distinct_hashes_and_default_flag(self, multidoc):
        service, hashes = multidoc
        assert hashes[HOSPITAL] != hashes[ONTOLOGY]
        docs = service.documents()
        assert set(docs) == {hashes[HOSPITAL], hashes[ONTOLOGY]}
        assert docs[hashes[HOSPITAL]] == "default"
        assert docs[hashes[ONTOLOGY]] is None
        assert service.default_document_hash == hashes[HOSPITAL]

    def test_hashes_deterministic_across_builds(self):
        _, first = build_multidoc_service(CFG)
        _, second = build_multidoc_service(CFG)
        assert first == second

    def test_add_document_is_idempotent(self, multidoc):
        service, hashes = multidoc
        from repro.workloads.multidoc import build_documents

        again = service.add_document(build_documents(CFG)[ONTOLOGY])
        assert again == hashes[ONTOLOGY]
        assert len(service.documents()) == 2

    def test_cataloging_unknown_document_rejected(self, multidoc):
        service, _ = multidoc
        with pytest.raises(DocumentError):
            service.register_tenant("x", None, documents=("deadbeef",))


class TestPerRequestDocuments:
    def test_documentless_request_uses_default(self, multidoc):
        service, hashes = multidoc
        answer = service.submit("inst-0", "patient")
        assert answer.document == hashes[HOSPITAL]

    def test_admin_serves_both_documents(self, multidoc):
        service, hashes = multidoc
        hospital = service.submit(
            "admin", "//patient/pname", document=hashes[HOSPITAL]
        )
        ontology = service.submit(
            "admin", "//term/tname", document=hashes[ONTOLOGY]
        )
        assert hospital.document == hashes[HOSPITAL]
        assert ontology.document == hashes[ONTOLOGY]
        assert len(hospital.nodes) > 0
        assert len(ontology.nodes) > 0
        # The same query text answers differently per document.
        assert len(service.submit("admin", "//*", document=hashes[HOSPITAL]).nodes) != len(
            service.submit("admin", "//*", document=hashes[ONTOLOGY]).nodes
        )

    def test_catalog_enforced_for_research_tenant(self, multidoc):
        service, hashes = multidoc
        with pytest.raises(DocumentError) as excinfo:
            service.submit("inst-0", "patient", document=hashes[ONTOLOGY])
        assert rejection_kind(excinfo.value) == "document"

    def test_catalog_enforced_for_curator(self, multidoc):
        service, hashes = multidoc
        with pytest.raises(DocumentError):
            service.submit("cur-0", "cterm/label", document=hashes[HOSPITAL])

    def test_unknown_hash_is_document_error_not_probe(self, multidoc):
        """An uncataloged hash rejects identically whether or not the
        document exists — tenants cannot probe the registry."""
        service, hashes = multidoc
        with pytest.raises(DocumentError) as unknown:
            service.submit("inst-0", "patient", document="0" * 16)
        with pytest.raises(DocumentError) as known:
            service.submit("inst-0", "patient", document=hashes[ONTOLOGY])
        assert "catalog" in str(unknown.value)
        assert "catalog" in str(known.value)

    def test_document_rejections_counted_in_metrics(self, multidoc):
        service, hashes = multidoc
        for _ in range(3):
            with pytest.raises(DocumentError):
                service.submit("inst-0", "patient", document=hashes[ONTOLOGY])
        snapshot = service.metrics.snapshot()
        assert snapshot.rejected_kinds.get("document") == 3

    def test_cached_plan_realised_per_document(self, multidoc):
        """Regression: one cached MFA (same view, same query text) must
        not answer one document from another's index.  OptHyPE
        executables are per label table and read the mask column of the
        document they run on: hospital and ontology get separate ones."""
        service, hashes = multidoc
        for document in (hashes[HOSPITAL], hashes[ONTOLOGY]):
            answer = service.submit(
                "admin", "//*", algorithm="opthype", document=document
            )
            assert answer.document == document
            assert len(answer.nodes) > 0
        hosp = service.submit("admin", "//*", document=hashes[HOSPITAL])
        onto = service.submit("admin", "//*", document=hashes[ONTOLOGY])
        assert len(hosp.nodes) != len(onto.nodes)

    def test_wave_partitions_by_document_and_matches_sequential(self, multidoc):
        service, hashes = multidoc
        traffic = generate_multidoc_traffic(CFG, hashes)
        assert {r.document for r in traffic} == {
            hashes[HOSPITAL],
            hashes[ONTOLOGY],
        }
        sequential = [
            service.submit(r.tenant, r.query, document=r.document)
            for r in traffic
        ]
        requests = [
            QueryRequest(r.tenant, r.query, document=r.document)
            for r in traffic
        ]
        answers, stats = service.submit_many(requests)
        assert [a.ids() for a in answers] == [a.ids() for a in sequential]
        assert [a.document for a in answers] == [r.document for r in traffic]
        assert stats.lanes > 0


class TestFrontendDocuments:
    def _run(self, scenario, admission=None):
        async def main():
            service, hashes = build_multidoc_service(CFG)
            frontend = QueryFrontend(
                service,
                admission or AdmissionConfig(max_wave=8, max_wait=0.01),
            )
            host, port = await frontend.start("127.0.0.1", 0)
            client = await FrontendClient.connect(host, port)
            try:
                return await scenario(client, frontend, hashes)
            finally:
                await client.aclose()
                await frontend.close()
                service.close()

        return asyncio.run(main())

    def test_documents_op_lists_catalog(self):
        async def scenario(client, _frontend, hashes):
            return await client.documents(), hashes

        reply, hashes = self._run(scenario)
        assert reply["ok"] is True
        assert set(reply["documents"]) == set(hashes.values())
        assert reply["default"] == hashes[HOSPITAL]

    def test_query_echoes_document_hash(self):
        async def scenario(client, _frontend, hashes):
            routed = await client.query(
                "cur-0", "cterm/label", document=hashes[ONTOLOGY]
            )
            defaulted = await client.query("inst-0", "patient")
            return routed, defaulted, hashes

        routed, defaulted, hashes = self._run(scenario)
        assert routed["ok"] is True
        assert routed["document"] == hashes[ONTOLOGY]
        assert defaulted["ok"] is True
        assert defaulted["document"] == hashes[HOSPITAL]

    def test_uncataloged_document_maps_to_document_error(self):
        async def scenario(client, _frontend, hashes):
            return await client.query(
                "inst-0", "patient", document=hashes[ONTOLOGY]
            )

        reply = self._run(scenario)
        assert reply["ok"] is False
        assert reply["error"] == "document"
        assert "catalog" in reply["message"]


class TestDrain:
    def _run(self, scenario, admission=None):
        async def main():
            service, hashes = build_multidoc_service(CFG)
            frontend = QueryFrontend(
                service,
                admission or AdmissionConfig(max_wave=8, max_wait=0.01),
            )
            host, port = await frontend.start("127.0.0.1", 0)
            client = await FrontendClient.connect(host, port)
            try:
                return await scenario(client, frontend, hashes)
            finally:
                await client.aclose()
                await frontend.close()
                service.close()

        return asyncio.run(main())

    def test_draining_rejects_new_queries_with_kind(self):
        async def scenario(client, frontend, hashes):
            await frontend.drain()
            assert frontend.draining
            rejected = await client.query("inst-0", "patient")
            # Non-query ops still pass so supervisors can scrape.
            metrics = await client.metrics()
            return rejected, metrics

        rejected, metrics = self._run(scenario)
        assert rejected["ok"] is False
        assert rejected["error"] == "draining"
        assert metrics["ok"] is True
        assert metrics["metrics"]["rejected_kinds"].get("draining") == 1

    def test_drain_completes_inflight_queries(self):
        """A query admitted before drain() still gets its (ok) reply: the
        admission hold (max_wait) keeps it in flight while drain starts."""

        async def scenario(client, frontend, hashes):
            pending = asyncio.ensure_future(
                client.query("inst-0", "patient")
            )
            # Let the server read the line and admit the query into the
            # (held) wave before draining.
            await asyncio.sleep(0.05)
            await frontend.drain()
            reply = await pending
            return reply

        reply = self._run(
            scenario, admission=AdmissionConfig(max_wave=8, max_wait=0.3)
        )
        assert reply["ok"] is True
        assert reply["count"] > 0
