"""`prophet serve` / `prophet submit`: the CLI face of the service."""

import threading

import pytest

from repro.cli import build_parser, build_service_server, main
from repro.samples import build_sample_model
from repro.xmlio.writer import write_model


@pytest.fixture
def live_server(tmp_path, capsys):
    args = build_parser().parse_args(
        ["serve", "--registry", str(tmp_path / "registry"),
         "--cache-dir", str(tmp_path / "cache"),
         "--port", "0", "--preload", "kernel6"])
    server, service = build_service_server(args)
    capsys.readouterr()  # swallow the preload line
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}", service
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


class TestServeParser:
    def test_registry_is_required(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])

    def test_preload_ingests_models(self, tmp_path, capsys):
        args = build_parser().parse_args(
            ["serve", "--registry", str(tmp_path / "r"), "--port", "0",
             "--preload", "kernel6,sample"])
        server, service = build_service_server(args)
        server.server_close()
        assert len(service.registry) == 2
        assert "preloaded kernel6" in capsys.readouterr().out

    def test_preload_accepts_scenarios(self, tmp_path, capsys):
        args = build_parser().parse_args(
            ["serve", "--registry", str(tmp_path / "r"), "--port", "0",
             "--preload", "stencil2d,fork_join"])
        server, service = build_service_server(args)
        server.server_close()
        assert len(service.registry) == 2
        assert service.registry.resolve("stencil2d")
        assert "preloaded fork_join" in capsys.readouterr().out

    def test_jobs_selects_process_executor(self, tmp_path):
        args = build_parser().parse_args(
            ["serve", "--registry", str(tmp_path / "r"), "--port", "0",
             "--jobs", "2"])
        server, service = build_service_server(args)
        server.server_close()
        assert service.executor == "process"
        assert service.max_workers == 2

    def test_an_infinite_deadline_fails_at_start_up(self, tmp_path):
        from repro.errors import ProphetError
        args = build_parser().parse_args(
            ["serve", "--registry", str(tmp_path / "r"), "--port", "0",
             "--job-timeout", "inf"])
        with pytest.raises(ProphetError, match="job_timeout must be"):
            build_service_server(args)


class TestSubmit:
    def test_submit_by_label(self, live_server, capsys):
        url, _ = live_server
        code = main(["submit", "--url", url, "--ref", "kernel6",
                     "--backends", "analytic,codegen",
                     "--processes", "1,2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "4 request(s): 4 unique job(s)" in out
        assert "analytic" in out and "codegen" in out

    def test_submit_ingests_file(self, live_server, tmp_path, capsys):
        url, service = live_server
        path = write_model(build_sample_model(), tmp_path / "m.xml")
        code = main(["submit", "--url", url, "--ingest", str(path),
                     "--label", "mine", "--backends", "codegen"])
        assert code == 0
        assert "ingested SampleModel" in capsys.readouterr().out
        assert service.registry.resolve("mine")

    def test_submit_sample_and_cache_hits_on_resubmit(self, live_server,
                                                      capsys):
        url, _ = live_server
        main(["submit", "--url", url, "--sample", "sample",
              "--processes", "1,2"])
        capsys.readouterr()
        code = main(["submit", "--url", url, "--ref", "sample",
                     "--processes", "1,2"])
        assert code == 0
        assert "2 cache hit(s)" in capsys.readouterr().out

    def test_submit_json_output(self, live_server, capsys):
        import json
        url, _ = live_server
        code = main(["submit", "--url", url, "--ref", "kernel6",
                     "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["results"][0]["status"] == "ok"

    def test_submit_needs_exactly_one_target(self, live_server, capsys):
        url, _ = live_server
        assert main(["submit", "--url", url]) == 2
        assert main(["submit", "--url", url, "--ref", "x",
                     "--sample", "kernel6"]) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_submit_unknown_ref_exits_nonzero(self, live_server, capsys):
        url, _ = live_server
        code = main(["submit", "--url", url, "--ref", "missing"])
        assert code == 1
        assert "FAILED" in capsys.readouterr().out

    def test_submit_unreachable_service(self, capsys):
        code = main(["submit", "--url", "http://127.0.0.1:1",
                     "--ref", "x"])
        assert code == 2
        assert "cannot reach" in capsys.readouterr().err
