"""The ``prophet sweep`` subcommand — the acceptance-path experiment.

Drives a 16+ point grid ({processes} × {problem size} × {analytic,
interp, codegen}) through the CLI: ASCII table + CSV out, and a second
identical invocation served ≥90% from the cache.
"""

import pytest

from repro.cli import main
from repro.samples import build_kernel6_model
from repro.xmlio.writer import write_model

GRID_ARGS = ["--processes", "1,2,4", "--backends",
             "analytic,interp,codegen", "--param", "N=100,200"]


@pytest.fixture
def kernel_xml(tmp_path):
    return str(write_model(build_kernel6_model(), tmp_path / "k6.xml"))


class TestSweepCommand:
    def test_full_grid_with_csv_and_cache(self, tmp_path, kernel_xml,
                                          capsys):
        cache_dir = str(tmp_path / "cache")
        csv_path = tmp_path / "sweep.csv"

        code = main(["sweep", kernel_xml, *GRID_ARGS,
                     "--cache-dir", cache_dir, "--csv", str(csv_path)])
        assert code == 0
        out = capsys.readouterr().out
        # 18-point grid: 3 processes × 2 sizes × 3 backends.
        assert "18 point(s), 18 ok" in out
        assert "predicted_time" in out           # the ASCII table
        assert "0 served from cache (0%)" in out

        csv_text = csv_path.read_text()
        assert len(csv_text.splitlines()) == 1 + 18

        # Second identical run: >= 90% from cache (here: all of it).
        code = main(["sweep", kernel_xml, *GRID_ARGS,
                     "--cache-dir", cache_dir, "--csv", str(csv_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "18 served from cache (100%)" in out
        assert csv_path.read_text() == csv_text  # cache-transparent CSV

    def test_builtin_model_kind(self, capsys):
        code = main(["sweep", "--kind", "kernel6",
                     "--processes", "1,2", "--backends", "analytic"])
        assert code == 0
        out = capsys.readouterr().out
        assert "2 point(s), 2 ok" in out
        assert "Kernel6Model" in out

    def test_speedup_tables(self, capsys):
        code = main(["sweep", "--kind", "kernel6",
                     "--processes", "1,2,4", "--backends", "analytic",
                     "--no-table", "--speedup"])
        assert code == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        assert "efficiency" in out

    def test_parallel_jobs_flag(self, capsys):
        code = main(["sweep", "--kind", "kernel6",
                     "--processes", "1,2", "--backends", "analytic",
                     "--jobs", "2", "--no-table"])
        assert code == 0
        assert "2 point(s), 2 ok" in capsys.readouterr().out

    def test_failing_point_sets_exit_code(self, capsys):
        # Overriding the per-iteration cost constant to a negative value
        # makes the cost negative, which the backends reject.
        code = main(["sweep", "--kind", "kernel6",
                     "--processes", "1", "--backends", "analytic",
                     "--param", "C6=2e-9,-1", "--no-table"])
        assert code == 1
        out = capsys.readouterr().out
        assert "1 failed" in out
        assert "FAILED" in out


class TestSweepArgumentErrors:
    def test_needs_model_kind_or_scenario(self, capsys):
        assert main(["sweep", "--processes", "1"]) == 2
        assert "model XML file, --kind, or --scenario" in \
            capsys.readouterr().err

    def test_rejects_model_and_kind_together(self, kernel_xml, capsys):
        assert main(["sweep", kernel_xml, "--kind", "kernel6"]) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_rejects_kind_and_scenario_together(self, capsys):
        assert main(["sweep", "--kind", "kernel6",
                     "--scenario", "pipeline"]) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_scenario_param_requires_scenario(self, capsys):
        assert main(["sweep", "--kind", "kernel6",
                     "--scenario-param", "stages=2"]) == 2
        assert "--scenario-param requires --scenario" in \
            capsys.readouterr().err

    def test_bad_process_list(self, capsys):
        assert main(["sweep", "--kind", "kernel6",
                     "--processes", "1,x"]) == 2
        assert "comma-separated integers" in capsys.readouterr().err

    def test_bad_param_spec(self, capsys):
        assert main(["sweep", "--kind", "kernel6",
                     "--param", "N100,200"]) == 2
        assert "NAME=V1,V2" in capsys.readouterr().err

    def test_unknown_backend(self, capsys):
        assert main(["sweep", "--kind", "kernel6",
                     "--backends", "fortran"]) == 2
        assert "backend" in capsys.readouterr().err


class TestNetworkAxesAndGridFlags:
    def test_latency_bandwidth_lists_sweep_the_network(self, capsys):
        code = main(["sweep", "--kind", "kernel6",
                     "--processes", "2", "--backends", "analytic",
                     "--latency", "1e-7,1e-6,1e-5",
                     "--bandwidth", "1e8,1e9", "--no-table"])
        assert code == 0
        out = capsys.readouterr().out
        assert "6 point(s), 6 ok" in out
        assert "grid group(s)" in out  # dispatched through the grid path

    def test_small_simulated_sweep_falls_back_to_serial(self, capsys):
        code = main(["sweep", "--kind", "kernel6",
                     "--processes", "1,2", "--backends", "codegen",
                     "--jobs", "2", "--no-table"])
        assert code == 0
        assert "serial executor" in capsys.readouterr().out

    def test_infinite_deadline_rejected(self, capsys):
        assert main(["sweep", "--kind", "kernel6", "--no-table",
                     "--job-timeout", "inf"]) == 2
        assert "job_timeout must be" in capsys.readouterr().err

    def test_bad_latency_list_rejected(self, capsys):
        assert main(["sweep", "--kind", "kernel6",
                     "--latency", "fast"]) == 2
        assert "comma-separated numbers" in capsys.readouterr().err
