"""Tests for the command-line interface."""

import re

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.workloads.generators import erdos_renyi_edges
from repro.workloads.io import read_stream, write_edge_list


class TestGen:
    def test_gen_er(self, tmp_path, capsys):
        out = str(tmp_path / "s.txt")
        assert main(["gen", "--kind", "er", "--n", "20", "--m", "50",
                     "--batch", "10", "--seed", "1", "--out", out]) == 0
        stream = read_stream(out)
        assert sum(b.size for b in stream) == 100  # 50 inserts + 50 deletes
        assert "wrote" in capsys.readouterr().out

    def test_gen_star(self, tmp_path):
        out = str(tmp_path / "star.txt")
        assert main(["gen", "--kind", "star", "--n", "30", "--batch", "5",
                     "--out", out]) == 0
        stream = read_stream(out)
        inserts = [b for b in stream if b.kind == "insert"]
        assert sum(b.size for b in inserts) == 29

    def test_gen_hyper(self, tmp_path):
        out = str(tmp_path / "h.txt")
        assert main(["gen", "--kind", "hyper", "--n", "20", "--m", "40",
                     "--rank", "3", "--batch", "8", "--out", out]) == 0
        stream = read_stream(out)
        assert all(e.cardinality == 3 for b in stream if b.kind == "insert"
                   for e in b.edges)

    def test_gen_window(self, tmp_path):
        out = str(tmp_path / "w.txt")
        assert main(["gen", "--kind", "er", "--n", "30", "--m", "100",
                     "--batch", "20", "--window", "40", "--out", out]) == 0
        kinds = [b.kind for b in read_stream(out)]
        assert "delete" in kinds[:-1]  # interleaved, not just at the end

    @pytest.mark.parametrize("adv", ["random", "fifo", "lifo", "vertex"])
    def test_gen_adversaries(self, tmp_path, adv):
        out = str(tmp_path / f"{adv}.txt")
        assert main(["gen", "--kind", "er", "--n", "15", "--m", "30",
                     "--batch", "10", "--adversary", adv, "--out", out]) == 0


class TestRun:
    @pytest.fixture
    def stream_file(self, tmp_path):
        out = str(tmp_path / "s.txt")
        main(["gen", "--kind", "er", "--n", "25", "--m", "80", "--batch", "20",
              "--seed", "3", "--out", out])
        return out

    @pytest.mark.parametrize("algo", ["paper", "gt", "static", "naive", "random-mate", "bgs"])
    def test_run_all_algorithms(self, stream_file, algo, capsys):
        assert main(["run", "--stream", stream_file, "--algo", algo]) == 0
        out = capsys.readouterr().out
        assert "work/update" in out

    def test_run_check_mode(self, stream_file, capsys):
        assert main(["run", "--stream", stream_file, "--algo", "paper", "--check"]) == 0
        assert "maximality verified" in capsys.readouterr().out

    def test_run_prints_profile(self, stream_file, capsys):
        main(["run", "--stream", stream_file, "--algo", "paper"])
        assert "work profile" in capsys.readouterr().out


class TestStatic:
    def test_static(self, tmp_path, capsys):
        path = str(tmp_path / "g.txt")
        write_edge_list(path, erdos_renyi_edges(20, 60, np.random.default_rng(0)))
        assert main(["static", "--edges", path, "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "matching size" in out and "rounds" in out


def _fastpath_counts(out):
    """Parse the ``fast path: vector_batches=... object_batches=...`` line."""
    lines = [l for l in out.splitlines() if l.startswith("fast path:")]
    assert lines, f"no fast-path summary in output:\n{out}"
    pairs = lines[0].replace("fast path:", "").split()
    return {k: int(v) for k, v in (kv.split("=") for kv in pairs)}


def _native_totals(out):
    """Parse the ``native: kernel calls=N   kernel seconds=S`` line."""
    lines = [l for l in out.splitlines() if l.startswith("native:")]
    assert lines, f"no native summary in output:\n{out}"
    m = re.fullmatch(r"native: kernel calls=(\d+)\s+kernel seconds=([\d.]+)",
                     lines[0])
    assert m, f"unexpected native summary: {lines[0]!r}"
    return int(m.group(1)), float(m.group(2))


class TestNoVectorized:
    """The array backend has no opt-out and one charge route: every
    ``paper`` batch runs it, observed or not, and the summary reports
    kernel call totals (one numpy backend, so no backend name)."""

    @pytest.fixture
    def stream_file(self, tmp_path):
        out = str(tmp_path / "s.txt")
        main(["gen", "--kind", "er", "--n", "25", "--m", "80", "--batch", "20",
              "--seed", "3", "--out", out])
        return out

    def test_run_default_attempts_vector_pipeline(self, stream_file, capsys):
        assert main(["run", "--stream", stream_file, "--algo", "paper"]) == 0
        out = capsys.readouterr().out
        vs = _fastpath_counts(out)
        assert vs["vector_batches"] > 0
        assert vs["object_batches"] == 0
        _native_totals(out)

    def test_serve_default_attempts_vector_pipeline(self, stream_file,
                                                    tmp_path, capsys):
        assert main(["serve", "--journal", str(tmp_path / "j"), "--stream",
                     stream_file, "--no-fsync"]) == 0
        out = capsys.readouterr().out
        vs = _fastpath_counts(out)
        assert vs["vector_batches"] > 0
        assert vs["object_batches"] == 0
        _native_totals(out)

    def test_run_large_batches_take_the_columnar_route(self, tmp_path, capsys):
        """The CLI's observer leaves 128-edge batches on the columnar
        route: no batch leaves the array backend, and the interned
        matcher relabel (``intern_localize``) runs."""
        from repro import native

        stream = str(tmp_path / "big.txt")
        main(["gen", "--kind", "er", "--n", "400", "--m", "1000", "--batch", "128",
              "--seed", "3", "--out", stream])
        native.reset_stats()
        assert main(["run", "--stream", stream]) == 0
        out = capsys.readouterr().out
        assert "object_batches=0" in out
        vs = _fastpath_counts(out)
        assert vs["vector_batches"] == 16
        (kernels,) = [l for l in out.splitlines() if l.startswith("native kernels:")]
        assert "intern_localize=" in kernels

    def test_kernel_calls_count_this_command_only(self, tmp_path, capsys):
        """Each ``run`` reports the kernel calls it made, not the
        process's running total: two runs of one stream print the same
        count."""
        stream = str(tmp_path / "big.txt")
        main(["gen", "--kind", "er", "--n", "400", "--m", "1000", "--batch", "128",
              "--seed", "3", "--out", stream])
        capsys.readouterr()
        counts = []
        for _ in range(2):
            assert main(["run", "--stream", stream]) == 0
            counts.append(_native_totals(capsys.readouterr().out)[0])
        assert counts[0] > 0
        assert counts[0] == counts[1]


class TestServeSharded:
    @pytest.fixture
    def stream_file(self, tmp_path):
        out = str(tmp_path / "s.txt")
        main(["gen", "--kind", "er", "--n", "30", "--m", "60", "--batch", "15",
              "--seed", "5", "--out", out])
        return out

    @pytest.mark.parametrize("shards", [1, 2])
    def test_serve_sharded_journal_and_recover(self, stream_file, tmp_path,
                                               shards, capsys):
        root = str(tmp_path / f"svc{shards}")
        assert main(["serve", "--journal", root, "--stream", stream_file,
                     "--shards", str(shards), "--shard-transport", "inline",
                     "--no-fsync", "--check"]) == 0
        out = capsys.readouterr().out
        assert f"across {shards} shards" in out
        assert f"shards: {shards} (inline)" in out
        assert "merged ledger work:" in out
        assert "merged maximality verified" in out

        # Recovery autodetects the sharded root from its manifest.
        assert main(["serve", "--recover", root, "--certify", "--no-fsync"]) == 0
        out = capsys.readouterr().out
        assert f"recovered" in out and "sharded root" in out
        assert "certified against uninterrupted sharded oracle" in out

    def test_serve_sharded_recover_and_continue(self, stream_file, tmp_path, capsys):
        root = str(tmp_path / "svc")
        assert main(["serve", "--journal", root, "--stream", stream_file,
                     "--shards", "2", "--shard-transport", "inline",
                     "--no-fsync"]) == 0
        capsys.readouterr()
        more = str(tmp_path / "more.txt")
        main(["gen", "--kind", "er", "--n", "30", "--m", "40", "--batch", "10",
              "--seed", "77", "--out", more])
        capsys.readouterr()
        assert main(["serve", "--recover", root, "--stream", more,
                     "--no-fsync"]) == 0
        out = capsys.readouterr().out
        assert "continued with" in out
        assert "shards: 2" in out

    def test_serve_sharded_requires_stream_with_journal(self, tmp_path, capsys):
        assert main(["serve", "--journal", str(tmp_path / "j"),
                     "--shards", "2"]) == 2
        assert "requires --stream" in capsys.readouterr().out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_algo_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--stream", "x", "--algo", "bogus"])

    def test_serve_shard_flags_parse(self):
        args = build_parser().parse_args(
            ["serve", "--journal", "d", "--stream", "s",
             "--shards", "4", "--shard-transport", "process"]
        )
        assert args.shards == 4 and args.shard_transport == "process"

    def test_serve_shards_default_off(self):
        args = build_parser().parse_args(["serve", "--recover", "d"])
        assert args.shards is None and args.shard_transport is None

    def test_serve_rejects_unknown_shard_transport(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["serve", "--journal", "d", "--shard-transport", "telepathy"]
            )
