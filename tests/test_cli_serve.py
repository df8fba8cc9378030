"""CLI tests for the serving subcommands (serve-batch, warm, serve-front)."""

import json
import os
import re
import signal
import socket
import subprocess
import sys

import pytest

from repro.cli import main
from repro.dtd.samples import HOSPITAL_DTD_TEXT, HOSPITAL_VIEW_DTD_TEXT
from repro.views.samples import SIGMA0_ANNOTATIONS

SPEC_TEXT = (
    "source <<<\n" + HOSPITAL_DTD_TEXT + "\n>>>\n"
    "view <<<\n" + HOSPITAL_VIEW_DTD_TEXT + "\n>>>\n"
    + "\n".join(
        f"{parent} {child} = {query}"
        for (parent, child), query in SIGMA0_ANNOTATIONS.items()
    )
)

QUERIES = [
    "//patient[.//diagnosis/text() = 'heart disease']",
    "department/name",
    "//doctor/specialty",
    "//visit/date",
]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_serve")
    doc = root / "hospital.xml"
    spec = root / "research.view"
    spec.write_text(SPEC_TEXT)
    assert main(
        ["generate", "--patients", "20", "--seed", "7", "--out", str(doc)]
    ) == 0
    return {"doc": doc, "spec": spec}


class TestServeBatch:
    def test_source_queries(self, workspace, capsys):
        assert main(["serve-batch", str(workspace["doc"]), *QUERIES]) == 0
        out = capsys.readouterr().out
        assert out.count("query:") == len(QUERIES)
        assert "element(s) visited vs" in out
        assert f"batched {len(QUERIES)} query(ies)" in out

    def test_view_queries_with_spec(self, workspace, capsys):
        assert main(
            [
                "serve-batch",
                str(workspace["doc"]),
                "patient",
                "patient/record/diagnosis",
                "--spec",
                str(workspace["spec"]),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert out.count("query:") == 2
        assert "answer(s)" in out

    def test_output_ids_stable_across_runs_and_batching(self, workspace, capsys):
        """Batched CLI output lists node ids in document order every run."""
        assert main(["serve-batch", str(workspace["doc"]), *QUERIES]) == 0
        batched = capsys.readouterr().out
        assert main(["serve-batch", str(workspace["doc"]), *QUERIES]) == 0
        again = capsys.readouterr().out
        assert batched == again
        # Per-query answer listing matches the single-query path exactly.
        assert main(["query", str(workspace["doc"]), QUERIES[0]]) == 0
        single = capsys.readouterr().out
        single_listing = [
            line for line in single.splitlines() if line.startswith("  node ")
        ]
        batched_listing = [
            line for line in batched.splitlines() if line.startswith("  node ")
        ]
        assert single_listing == batched_listing[: len(single_listing)]
        # Listed ids are strictly increasing (document order).
        listed = [
            int(line.split()[1].rstrip(":")) for line in single_listing
        ]
        assert listed == sorted(listed)

    def test_missing_document_fails_cleanly(self, capsys):
        assert main(["serve-batch", "/no/such/file.xml", "a"]) == 1
        assert "error:" in capsys.readouterr().err


class TestWarmAndPlanDir:
    def test_warm_populates_a_store(self, tmp_path, capsys):
        plan_dir = tmp_path / "plans"
        assert main(["warm", "--plan-dir", str(plan_dir)]) == 0
        out = capsys.readouterr().out
        assert "compiled" in out and "rewrite" in out
        stored = list(plan_dir.glob("*.plan.json"))
        assert stored  # the workload's plans landed on disk
        # Warming again compiles nothing: everything is already stored.
        assert main(["warm", "--plan-dir", str(plan_dir)]) == 0
        out = capsys.readouterr().out
        assert "0 compiled" in out
        assert "rewrite" not in out

    def test_warm_explicit_queries_over_a_spec(
        self, workspace, tmp_path, capsys
    ):
        plan_dir = tmp_path / "plans"
        assert main(
            [
                "warm",
                "--plan-dir",
                str(plan_dir),
                "--spec",
                str(workspace["spec"]),
                "patient",
                "patient/record/diagnosis",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "2 compiled" in out
        assert len(list(plan_dir.glob("*.plan.json"))) == 2

    def test_warm_spec_without_queries_errors(self, workspace, tmp_path, capsys):
        assert main(
            [
                "warm",
                "--plan-dir",
                str(tmp_path / "plans"),
                "--spec",
                str(workspace["spec"]),
            ]
        ) == 1
        assert "error:" in capsys.readouterr().err

    def test_serve_batch_restart_hits_the_store(
        self, workspace, tmp_path, capsys
    ):
        plan_dir = str(tmp_path / "plans")
        args = [
            "serve-batch",
            str(workspace["doc"]),
            "patient",
            "patient/record/diagnosis",
            "--spec",
            str(workspace["spec"]),
            "--plan-dir",
            plan_dir,
        ]
        assert main(args) == 0
        cold = capsys.readouterr().out
        assert "2 miss(es)" in cold
        assert "rewrite 2x" in cold
        assert main(args) == 0
        warm = capsys.readouterr().out
        assert "2 L2 hit(s), 0 miss(es)" in warm
        assert "rewrite" not in warm
        # Identical answer listings cold vs warm.
        cold_nodes = [l for l in cold.splitlines() if l.startswith("  node ")]
        warm_nodes = [l for l in warm.splitlines() if l.startswith("  node ")]
        assert cold_nodes == warm_nodes


def test_serve_front_max_line_bytes_reaches_the_frontend():
    """``serve-front --max-line-bytes`` caps the booted server's lines:
    a line under the cap is served, one past it is refused with a
    structured ``invalid-request`` and the connection closes."""
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve-front", "--port", "0",
         "--patients", "2", "--tenants", "1", "--max-line-bytes", "2048"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
    )
    try:
        boot = proc.stdout.readline()
        match = re.search(r"listening on ([\d.]+):(\d+)", boot)
        assert match, f"no listening line: {boot!r}"
        address = (match.group(1), int(match.group(2)))
        with socket.create_connection(address, timeout=30) as sock:
            stream = sock.makefile("rwb")
            ping = {"op": "ping", "pad": "x" * 1500}
            stream.write(json.dumps(ping).encode() + b"\n")
            stream.flush()
            assert json.loads(stream.readline())["ok"] is True
            oversize = {"op": "ping", "pad": "x" * 3000}
            stream.write(json.dumps(oversize).encode() + b"\n")
            stream.flush()
            reply = json.loads(stream.readline())
            assert reply == {
                "ok": False,
                "error": "invalid-request",
                "message": "request line exceeds 2048 bytes",
            }
            assert stream.readline() == b""  # the connection is closed
        proc.send_signal(signal.SIGTERM)
        proc.communicate(timeout=30)
        assert proc.returncode == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def test_serve_front_and_obs_flags_take_effect_over_the_wire(tmp_path, capsys):
    """One boot with every serving knob away from its default, each
    shown over the wire: ``--pool-size 2`` in the ``metrics`` op,
    ``--max-pending 2`` as an ``overloaded`` third pipelined query,
    ``--max-wave 1`` as waves of one, ``--trace-sample 1`` as the
    queries' traces in the ``trace`` op and ``--slow-ms 0`` as a slow
    entry per query on stderr; ``obs`` prints the traces and
    ``obs --prometheus`` the exposition."""
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    errors = open(tmp_path / "stderr.log", "w+")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve-front", "--port", "0",
         "--patients", "2", "--tenants", "1", "--pool-size", "2",
         "--max-pending", "2", "--max-wave", "1", "--trace-sample", "1",
         "--slow-ms", "0"],
        stdout=subprocess.PIPE, stderr=errors, text=True, env=env,
    )
    try:
        boot = proc.stdout.readline()
        match = re.search(r"listening on ([\d.]+):(\d+)", boot)
        assert match, f"no listening line: {boot!r}"
        host, port = match.group(1), int(match.group(2))
        with socket.create_connection((host, port), timeout=30) as sock:
            stream = sock.makefile("rwb")

            def ask(message):
                stream.write(json.dumps(message).encode() + b"\n")
                stream.flush()
                return json.loads(stream.readline())

            burst = [
                {"op": "query", "id": f"q{i}", "tenant": "admin", "query": "//patient"}
                for i in range(3)
            ]
            stream.write(b"".join(json.dumps(m).encode() + b"\n" for m in burst))
            stream.flush()
            replies = {}
            for _ in burst:
                reply = json.loads(stream.readline())
                replies[reply["id"]] = reply
            assert [replies[f"q{i}"]["ok"] for i in range(3)] == [True, True, False]
            assert replies["q2"]["error"] == "overloaded"
            assert ask({"op": "query", "tenant": "admin", "query": "//pname"})["ok"]

            metrics = ask({"op": "metrics"})["metrics"]
            assert metrics["pool"]["size"] == 2
            assert metrics["rejected_kinds"]["overloaded"] == 1
            assert metrics["waves"] == metrics["wave_requests"] == 3
            assert metrics["largest_wave"] == 1

            traces = ask({"op": "trace"})
            assert traces["ok"] and traces["started"] >= 3
            holds = [
                span
                for trace in traces["traces"]
                for span in trace["spans"]
                if span["name"] == "admission.hold"
            ]
            assert len(holds) == 3
            assert all(span["attributes"]["wave"] == 1 for span in holds)
            trace_ids = {trace["trace_id"] for trace in traces["traces"]}

        assert main(["obs", "--host", host, "--port", str(port)]) == 0
        printed = capsys.readouterr().out
        assert all(f"trace {trace_id}" in printed for trace_id in trace_ids)
        assert "admission.hold" in printed
        assert main(["obs", "--prometheus", "--host", host, "--port", str(port)]) == 0
        exposition = capsys.readouterr().out
        assert "# TYPE" in exposition and "repro_" in exposition

        proc.send_signal(signal.SIGTERM)
        proc.communicate(timeout=30)
        assert proc.returncode == 0
        errors.seek(0)
        slow = [json.loads(line) for line in errors if line.startswith("{")]
        assert len(slow) == 3
        assert all(entry["slow"] for entry in slow)
        assert {entry["trace_id"] for entry in slow} <= trace_ids
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        errors.close()
