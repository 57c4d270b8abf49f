"""Tests for the repro CLI."""

import pytest

from repro.cli import build_parser, main
from repro.graph.stream_io import read_event_stream, write_event_stream


@pytest.fixture()
def trace_path(tmp_path, tiny_stream):
    path = tmp_path / "trace.tsv"
    write_event_stream(tiny_stream, path)
    return str(path)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_args(self):
        args = build_parser().parse_args(
            ["generate", "--preset", "tiny", "--out", "x.tsv", "--nodes", "100"]
        )
        assert args.command == "generate"
        assert args.nodes == 100

    def test_unknown_preset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["generate", "--preset", "bogus", "--out", "x"])


class TestCommands:
    def test_generate_writes_valid_trace(self, tmp_path, capsys):
        out = tmp_path / "gen.tsv"
        code = main([
            "generate", "--preset", "tiny", "--seed", "3",
            "--nodes", "150", "--days", "25", "--out", str(out),
        ])
        assert code == 0
        stream = read_event_stream(out)
        assert stream.num_nodes > 50
        assert "wrote" in capsys.readouterr().out

    def test_info(self, trace_path, capsys):
        assert main(["info", trace_path]) == 0
        out = capsys.readouterr().out
        assert "valid" in out
        assert "avg degree" in out

    def test_metrics(self, trace_path, capsys):
        assert main(["metrics", trace_path, "--interval", "30", "--path-sample", "30"]) == 0
        out = capsys.readouterr().out
        assert "average_degree" in out
        assert len(out.strip().splitlines()) >= 3

    def test_communities(self, trace_path, capsys):
        assert main(["communities", trace_path, "--interval", "20"]) == 0
        out = capsys.readouterr().out
        assert "modularity" in out
        assert "events:" in out

    def test_experiment_single(self, capsys):
        code = main([
            "experiment", "F2b", "--preset", "tiny",
            "--seed", "3", "--nodes", "300", "--days", "40",
        ])
        assert code == 0
        assert "[F2b]" in capsys.readouterr().out

    def test_experiment_unknown(self, capsys):
        args = ["experiment", "F99", "--preset", "tiny", "--nodes", "100", "--days", "20"]
        assert main(args) == 2
        assert "error" in capsys.readouterr().err


class TestProfileAndBackend:
    """Timings come from ``--trace`` plus ``repro obs summarize``; there is
    no ``--profile`` flag and no ``--backend`` switch."""

    def test_metrics_profile_table(self, trace_path, tmp_path, capsys):
        out = tmp_path / "run.trace.jsonl"
        args = [
            "metrics", trace_path, "--interval", "30", "--path-sample", "30",
            "--trace", str(out),
        ]
        assert main(args) == 0
        capsys.readouterr()
        assert main(["obs", "summarize", str(out)]) == 0
        summary = capsys.readouterr().out
        assert "mean ms" in summary
        for name in ("average_degree", "average_path_length", "assortativity"):
            assert f"metric.{name}" in summary

    def test_metrics_profile_counts_cache_hits(self, trace_path, tmp_path, capsys):
        args = [
            "metrics", trace_path, "--interval", "30", "--path-sample", "30",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        for run in ("cold", "warm"):
            assert main([*args, "--trace", str(tmp_path / f"{run}.jsonl")]) == 0
        capsys.readouterr()
        assert main(["obs", "summarize", str(tmp_path / "cold.jsonl")]) == 0
        cold = capsys.readouterr().out
        assert "cache.misses" in cold and "cache.hits" not in cold
        assert main(["obs", "summarize", str(tmp_path / "warm.jsonl")]) == 0
        warm = capsys.readouterr().out
        assert "cache.hits" in warm and "cache.misses" not in warm

    def test_metrics_json_has_only_times_and_values(self, trace_path, capsys):
        import json

        args = ["metrics", trace_path, "--interval", "30", "--path-sample", "30", "--json"]
        assert main(args) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"times", "values"}
        assert len(payload["times"]) > 0
        assert len(payload["values"]["average_path_length"]) == len(payload["times"])

    @pytest.mark.parametrize("command", ["metrics", "communities", "experiment"])
    def test_backend_flag_removed(self, command, capsys):
        # One CSR engine: no subcommand offers a kernel switch any more.
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--help"])
        assert excinfo.value.code == 0
        assert "--backend" not in capsys.readouterr().out
        with pytest.raises(SystemExit) as excinfo:
            main([command, "x", "--backend", "csr"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("command", ["metrics", "experiment"])
    def test_profile_flag_removed(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--help"])
        assert excinfo.value.code == 0
        assert "--profile" not in capsys.readouterr().out
        with pytest.raises(SystemExit) as excinfo:
            main([command, "x", "--profile"])
        assert excinfo.value.code == 2

    def test_experiment_profile(self, tmp_path, capsys):
        out = tmp_path / "f1d.trace.jsonl"
        code = main([
            "experiment", "F1d", "--preset", "tiny",
            "--seed", "3", "--nodes", "300", "--days", "40", "--trace", str(out),
        ])
        assert code == 0
        capsys.readouterr()
        assert main(["obs", "summarize", str(out)]) == 0
        summary = capsys.readouterr().out
        assert "experiment.F1d" in summary
        assert "metric.average_degree" in summary


class TestObsCommand:
    def test_diff_flags_regressions_and_sets_exit_code(self, tmp_path, capsys):
        import json

        before = tmp_path / "before.json"
        after = tmp_path / "after.json"
        before.write_text(json.dumps({"endpoints": {"/metrics": {"p99": 0.010}}}))
        after.write_text(json.dumps({"endpoints": {"/metrics": {"p99": 0.030}}}))
        assert main(["obs", "diff", str(before), str(after)]) == 0
        out = capsys.readouterr().out
        assert "endpoints./metrics.p99" in out
        assert "+200.0%" in out
        # With a threshold the same regression fails the command.
        assert main([
            "obs", "diff", str(before), str(after), "--fail-above", "0.10"
        ]) == 1
        assert "!" in capsys.readouterr().out

    def test_diff_accepts_trace_jsonl_inputs(self, tmp_path, capsys):
        from repro.obs import TraceRecorder, write_jsonl

        paths = []
        for run, latency in (("a", 0.01), ("b", 0.02)):
            recorder = TraceRecorder(lane=0, label="main")
            recorder.observe("serve.latency", latency)
            recorder.count("requests", 5)
            path = tmp_path / f"{run}.trace.jsonl"
            write_jsonl(recorder.to_payload(), path)
            paths.append(str(path))
        assert main(["obs", "diff", *paths]) == 0
        out = capsys.readouterr().out
        assert "histograms.serve.latency.max" in out
        assert "counters.requests" in out

    def _trace_pair(self, tmp_path):
        """One JSONL trace and the same trace's Chrome export."""
        from repro.obs import TraceRecorder, write_chrome, write_jsonl

        recorder = TraceRecorder(lane=0, label="main")
        with recorder.span("work"):
            recorder.count("requests", 5)
        jsonl, chrome = tmp_path / "run.trace.jsonl", tmp_path / "run.json"
        write_jsonl(recorder.to_payload(), jsonl)
        write_chrome(recorder.to_payload(), chrome)
        return str(jsonl), str(chrome)

    def test_diff_rejects_chrome_trace_export(self, tmp_path, capsys):
        # A Chrome export is a JSON object but not a telemetry snapshot;
        # read as one it would diff as an empty table and pass any gate.
        _, chrome = self._trace_pair(tmp_path)
        assert main(["obs", "diff", chrome, chrome, "--fail-above", "0"]) == 1
        captured = capsys.readouterr()
        assert "Chrome trace-event export" in captured.err
        assert captured.out == ""

    def test_diff_rejects_trace_against_telemetry(self, tmp_path, capsys):
        import json

        jsonl, _ = self._trace_pair(tmp_path)
        telemetry = tmp_path / "snap.json"
        telemetry.write_text(json.dumps({"counters": {"requests": 5}}))
        for pair in ((jsonl, str(telemetry)), (str(telemetry), jsonl)):
            assert main(["obs", "diff", *pair, "--fail-above", "0"]) == 1
            captured = capsys.readouterr()
            assert "cannot compare a" in captured.err
            assert captured.out == ""

    def test_diff_missing_file_is_an_error(self, tmp_path, capsys):
        good = tmp_path / "a.json"
        good.write_text("{}")
        assert main(["obs", "diff", str(good), str(tmp_path / "nope.json")]) == 1
        assert "error" in capsys.readouterr().err

    def test_scrape_unreachable_server_is_an_error(self, capsys):
        # Port 1 on localhost: reliably refused, never listened on.
        assert main(["obs", "scrape", "--host", "127.0.0.1", "--port", "1"]) == 1
        assert "cannot scrape" in capsys.readouterr().err

    def test_scrape_live_server_writes_snapshot(self, tmp_path, tiny_stream, capsys):
        import asyncio
        import json
        import threading

        from repro.serve import ReproServer, ServeConfig
        from repro.store.convert import write_store

        store = tmp_path / "tiny.store"
        write_store(tiny_stream, store, chunk_events=512)
        address: list = []
        ready, done = threading.Event(), threading.Event()

        def serve():
            async def run():
                server = ReproServer(ServeConfig(store_path=str(store)))
                address.extend(await server.start())
                ready.set()
                while not done.is_set():
                    await asyncio.sleep(0.05)
                await server.stop()

            asyncio.run(run())

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        assert ready.wait(timeout=60)
        try:
            out_path = tmp_path / "snap.json"
            code = main([
                "obs", "scrape", "--host", address[0], "--port", str(address[1]),
                "--format", "json", "--out", str(out_path),
            ])
            assert code == 0
            doc = json.loads(out_path.read_text())
            assert "endpoints" in doc and "shards" in doc
            prom_code = main([
                "obs", "scrape", "--host", address[0], "--port", str(address[1]),
            ])
            assert prom_code == 0
            assert "repro_serve_uptime_seconds" in capsys.readouterr().out
        finally:
            done.set()
            thread.join(timeout=60)
