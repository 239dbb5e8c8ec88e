"""CLI hardening: argument validation and the trace --verify path."""

import os

import numpy as np
import pytest

from repro.cli import main
from repro.trace.io import write_trace
from repro.trace.record import AccessType, RefBatch


class TestArgumentValidation:
    @pytest.mark.parametrize("command", ["analyze", "power", "perf"])
    @pytest.mark.parametrize("flag,value", [
        ("--refs", "-5"),
        ("--refs", "0"),
        ("--iterations", "0"),
        ("--iterations", "-2"),
        ("--scale", "0"),
        ("--scale", "-0.5"),
    ])
    def test_nonpositive_knobs_exit_2(self, capsys, command, flag, value):
        rc = main([command, "gtc", flag, value])
        assert rc == 2
        err = capsys.readouterr().err
        assert "nvscavenger: error" in err
        assert flag in err and "positive" in err

    def test_valid_args_still_run(self, capsys):
        rc = main(["analyze", "gtc", "--refs", "2000", "--scale", "0.004",
                   "--iterations", "3"])
        assert rc == 0
        assert "references" in capsys.readouterr().out


class TestExperimentsJobsFlag:
    def test_negative_jobs_exit_2(self, capsys):
        rc = main(["experiments", "all", "--jobs", "-1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "nvscavenger: error" in err and "--jobs" in err
        assert "usage:" in err

    def test_garbage_jobs_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["experiments", "all", "--jobs", "lots"])
        assert exc.value.code == 2
        assert "expected an integer or 'adaptive'" in capsys.readouterr().err

    def test_jobs_adaptive_is_accepted(self):
        from repro.experiments.__main__ import _jobs_arg

        assert _jobs_arg("adaptive") == "adaptive"
        assert _jobs_arg(" Adaptive ") == "adaptive"
        assert _jobs_arg("3") == 3

    def test_unknown_transport_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["experiments", "all", "--transport", "carrier-pigeon"])
        assert exc.value.code == 2
        assert "--transport" in capsys.readouterr().err

    def test_jobs_zero_resolves_to_cpu_count(self):
        import os

        from repro.sched import resolve_jobs

        assert resolve_jobs(0) == max(1, os.cpu_count() or 1)

    def test_single_experiment_ignores_jobs(self, capsys):
        rc = main(["experiments", "table5", "--jobs", "2",
                   "--refs", "2000", "--scale", "0.004", "--iterations", "3"])
        assert rc == 0
        assert "table5" in capsys.readouterr().out.lower()


class TestServeFlag:
    """``serve`` follows the CLI's exit-code contract: 2 on bad args
    (before any socket is opened), 130/143 on signals (covered end to
    end in test_service_http.py)."""

    @pytest.mark.parametrize("argv,fragment", [
        (["serve", "--cache-dir", "c", "--port", "70000"], "--port"),
        (["serve", "--cache-dir", "c", "--port", "-1"], "--port"),
        (["serve", "--cache-dir", "c", "--max-inflight", "0"],
         "--max-inflight"),
        (["serve", "--cache-dir", "c", "--max-queue", "-1"], "--max-queue"),
        (["serve", "--cache-dir", "c", "--grace", "-2"], "--grace"),
        (["serve", "--cache-dir", "c", "--default-deadline", "0"],
         "--default-deadline"),
        (["serve", "--cache-dir", "c", "--max-deadline", "-5"],
         "--max-deadline"),
        (["serve", "--cache-dir", "c", "--breaker-threshold", "0"],
         "--breaker-threshold"),
        (["serve", "--cache-dir", "c", "--chaos", "no-such-scenario"],
         "chaos scenario"),
        (["serve", "--cache-dir", "c", "--cache-budget", "lots"],
         "byte size"),
    ])
    def test_invalid_args_exit_2(self, capsys, argv, fragment):
        rc = main(argv)
        assert rc == 2
        err = capsys.readouterr().err
        assert "nvscavenger: error" in err
        assert fragment in err

    def test_missing_cache_dir_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve"])
        assert exc.value.code == 2
        assert "--cache-dir" in capsys.readouterr().err

    def test_garbage_port_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--cache-dir", "c", "--port", "http"])
        assert exc.value.code == 2
        assert "invalid int value" in capsys.readouterr().err


class TestWorkFlag:
    """``nvscavenger work`` keeps the exit-code contract: 2 on anything
    that prevents the worker from even joining a run (bad args, missing
    cache, unknown run id), before any lease is touched."""

    def test_missing_required_args_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["work"])
        assert exc.value.code == 2
        assert "--cache-dir" in capsys.readouterr().err

    def test_nonexistent_cache_dir_exit_2(self, capsys, tmp_path):
        rc = main(["work", "--cache-dir", str(tmp_path / "nope"),
                   "--run-id", "r1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "nvscavenger: error" in err and "--cache-dir" in err

    def test_unknown_run_id_exit_2(self, capsys, tmp_path):
        rc = main(["work", "--cache-dir", str(tmp_path), "--run-id", "ghost"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "nvscavenger: error" in err and "ghost" in err

    def test_once_and_max_tasks_are_mutually_exclusive(self, capsys,
                                                       tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["work", "--cache-dir", str(tmp_path), "--run-id", "r1",
                  "--once", "--max-tasks", "2"])
        assert exc.value.code == 2
        assert "not allowed" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value,fragment", [
        ("--poll", "0", "--poll"),
        ("--poll", "-1", "--poll"),
        ("--heartbeat", "0", "--heartbeat"),
        ("--max-tasks", "0", "--max-tasks"),
        ("--chaos", "no-such-scenario", "chaos scenario"),
    ])
    def test_invalid_knobs_exit_2(self, capsys, tmp_path, flag, value,
                                  fragment):
        rc = main(["work", "--cache-dir", str(tmp_path), "--run-id", "r1",
                   flag, value])
        assert rc == 2
        err = capsys.readouterr().err
        assert "nvscavenger: error" in err
        assert fragment in err


class TestTraceVerify:
    @pytest.fixture
    def trace_path(self, tmp_path):
        path = str(tmp_path / "t.npz")
        batches = [
            RefBatch.from_access(np.arange(16, dtype=np.uint64) * 8,
                                 AccessType.READ, iteration=i)
            for i in range(2)
        ]
        write_trace(path, batches)
        return path

    def test_inspect(self, capsys, trace_path):
        assert main(["trace", trace_path]) == 0
        out = capsys.readouterr().out
        assert "v2" in out and "2 batches" in out

    def test_verify_ok(self, capsys, trace_path):
        assert main(["trace", trace_path, "--verify"]) == 0
        out = capsys.readouterr().out
        assert "all checksums verified" in out
        assert "32 references" in out

    def test_verify_detects_corruption(self, capsys, trace_path):
        data = dict(np.load(trace_path))
        arr = data["b1_addr"].copy()
        arr.view(np.uint8)[5] ^= 0x01
        data["b1_addr"] = arr
        np.savez_compressed(trace_path, **data)
        assert main(["trace", trace_path, "--verify"]) == 1
        err = capsys.readouterr().err
        assert "corrupt trace (batch 1)" in err

    def test_missing_file(self, capsys, tmp_path):
        assert main(["trace", str(tmp_path / "nope.npz"), "--verify"]) == 1
        assert "corrupt trace" in capsys.readouterr().err

    def test_show_subcommand_spelled_out(self, capsys, trace_path):
        # the legacy "trace <path>" spelling above is a shim; the real
        # subcommand must work too
        assert main(["trace", "show", trace_path, "--verify"]) == 0
        assert "all checksums verified" in capsys.readouterr().out


class TestTraceMigrate:
    @pytest.fixture
    def trace_path(self, tmp_path):
        path = str(tmp_path / "t.npz")
        batches = [
            RefBatch.from_access(np.arange(16, dtype=np.uint64) * 8,
                                 AccessType.READ, iteration=i)
            for i in range(2)
        ]
        write_trace(path, batches)
        return path

    def test_migrate_then_show(self, capsys, trace_path, tmp_path):
        dst = str(tmp_path / "out")
        assert main(["trace", "migrate", trace_path, dst]) == 0
        out = capsys.readouterr().out
        assert "2 batches" in out and "32 references" in out
        assert main(["trace", dst, "--verify"]) == 0
        out = capsys.readouterr().out
        assert "v3" in out and "all checksums verified" in out

    def test_existing_destination_is_usage_error(self, capsys, trace_path,
                                                 tmp_path):
        dst = str(tmp_path / "out")
        assert main(["trace", "migrate", trace_path, dst]) == 0
        capsys.readouterr()
        assert main(["trace", "migrate", trace_path, dst]) == 2
        err = capsys.readouterr().err
        assert "nvscavenger: error" in err and "exists" in err

    def test_unreadable_source_exit_1(self, capsys, tmp_path):
        src = str(tmp_path / "junk.npz")
        with open(src, "wb") as fh:
            fh.write(b"not a trace")
        assert main(["trace", "migrate", src, str(tmp_path / "out")]) == 1
        assert "trace" in capsys.readouterr().err
        import os

        assert not os.path.exists(str(tmp_path / "out.tv3"))

    def test_missing_args_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["trace", "migrate"])
        assert exc.value.code == 2


class TestCrashcheck:
    def test_list_names_every_protocol(self, capsys):
        assert main(["crashcheck", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ("artifact", "fence", "journal", "queue", "tv3"):
            assert name in out

    def test_unknown_protocol_exit_2(self, capsys):
        assert main(["crashcheck", "bogus"]) == 2
        err = capsys.readouterr().err
        assert "nvscavenger: error" in err and "unknown protocol" in err
        assert "fence" in err  # the valid choices are spelled out

    def test_violation_prints_reproducer_exit_1(self, capsys, monkeypatch):
        from repro.crashcheck import PROTOCOLS, ProtocolSpec
        from repro.errors import CrashConsistencyError

        def workload(root, fs, mark):
            with fs.open(os.path.join(root, "f"), "wb") as fh:
                fh.write(b"x")
            mark("saved")  # acked without any fsync

        def recover(root, acked):
            if acked and not os.path.exists(os.path.join(root, "f")):
                raise CrashConsistencyError("acked file lost",
                                            protocol="unsynced")

        monkeypatch.setitem(PROTOCOLS, "unsynced", ProtocolSpec(
            name="unsynced", description="acks before any fsync",
            setup=lambda root: None, workload=workload, recover=recover))
        assert main(["crashcheck", "unsynced"]) == 1
        out = capsys.readouterr().out
        assert "VIOLATION" in out and "acked file lost" in out
        assert "reproducer: {" in out

    def test_fence_run_clean_and_writes_corpus(self, capsys, tmp_path):
        corpus = str(tmp_path / "corpus.json")
        rc = main(["crashcheck", "fence", "--max-states", "120",
                   "--corpus", corpus])
        assert rc == 0
        out = capsys.readouterr().out
        assert "fence" in out and "CLEAN" in out
        import json as _json

        with open(corpus) as fh:
            payload = _json.load(fh)
        (report,) = payload["reports"]
        assert report["protocol"] == "fence" and report["clean"]
        assert report["n_unique_states"] > 0
