from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import mdclique
from mdclique import coprime_graph, parse_dimacs, write_dimacs
from mdclique.cli import main
from mdclique.graph import MAX_VERTICES
from conftest import make_hub7


@pytest.fixture
def hub7_path(tmp_path: Path) -> Path:
    path = tmp_path / "hub7.clq"
    path.write_text(write_dimacs(make_hub7()))
    return path


@pytest.fixture
def empty_path(tmp_path: Path) -> Path:
    path = tmp_path / "empty.clq"
    path.write_text("p edge 0 0\n")
    return path


class TestSolveCommand:
    def test_md_mode(self, hub7_path, capsys):
        rc = main(["solve", str(hub7_path), "--md"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "clique weight: 4" in out
        assert "vertices: 1 2 3 4" in out
        assert "status: Optimal" in out
        assert "md time:" in out and "total time:" in out

    def test_plain_mode_agrees(self, hub7_path, capsys):
        rc = main(["solve", str(hub7_path), "--plain"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "clique weight: 4" in out
        assert "md time: 0.000000 s" in out

    def test_default_is_md(self, hub7_path, capsys):
        rc = main(["solve", str(hub7_path)])
        assert rc == 0
        assert "clique weight: 4" in capsys.readouterr().out

    def test_missing_file(self, tmp_path, capsys):
        path = tmp_path / "nope.clq"
        rc = main(["solve", str(path)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {path}: No such file or directory\n"

    def test_parse_error_names_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.clq"
        bad.write_text("p edge 2 1\ne 1 5\n")
        rc = main(["solve", str(bad)])
        assert rc == 1
        assert "line 2" in capsys.readouterr().err

    def test_non_ascii_edge_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.clq"
        bad.write_bytes(b"c \xc3\xa9\np edge 2 1\ne 1 \xe92\n")
        rc = main(["solve", str(bad)])
        err = capsys.readouterr().err
        assert rc == 1
        assert "line 3: non-ASCII" in err and "Traceback" not in err

    def test_vertex_count_over_limit(self, tmp_path, capsys):
        big = tmp_path / "big.clq"
        big.write_text(f"p edge {MAX_VERTICES + 1} 1\ne 1 2\n")
        rc = main(["solve", str(big)])
        err = capsys.readouterr().err
        assert rc == 1
        assert "line 1: vertex count" in err and "Traceback" not in err

    @pytest.mark.parametrize("mode", ["--md", "--plain"])
    def test_empty_graph_rejected(self, empty_path, mode, capsys):
        rc = main(["solve", str(empty_path), mode])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err == f"error: {empty_path}: graph has no vertices\n"

    def test_timeout_exit_code(self, tmp_path, capsys):
        path = tmp_path / "coprime500.clq"
        path.write_text(write_dimacs(coprime_graph(500)))
        rc = main(["solve", str(path), "--plain", "--time-limit", "0.05"])
        assert rc == 2
        assert "status: TimedOut" in capsys.readouterr().out

    def test_ordering_flag(self, hub7_path, capsys):
        rc = main(["solve", str(hub7_path), "--plain", "--ordering", "natural"])
        assert rc == 0
        assert "clique weight: 4" in capsys.readouterr().out


class TestTimeLimitFlag:
    @pytest.mark.parametrize("command", ["solve", "bench"])
    @pytest.mark.parametrize("limit", ["-1", "nan"])
    def test_invalid_limit_is_one_error_line(self, hub7_path, command, limit, capsys):
        rc = main([command, str(hub7_path), "--time-limit", limit])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err == f"error: time limit must be >= 0, got {float(limit)}\n"


class TestDimacsWarnings:
    MISMATCH = "p edge 3 5\ne 1 2\ne 2 3\n"

    def test_solve_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "short.clq"
        path.write_text(self.MISMATCH)
        rc = main(["solve", str(path)])
        assert rc == 0
        assert capsys.readouterr().err == (
            f"warning: {path}: problem line declares 5 edges, file has 2\n"
        )

    def test_bench_warns_for_every_file(self, tmp_path, capsys):
        paths = [tmp_path / "a.clq", tmp_path / "b.clq"]
        for path in paths:
            path.write_text(self.MISMATCH)
        rc = main(["bench", str(tmp_path), "--modes", "md"])
        assert rc == 0
        assert capsys.readouterr().err == "".join(
            f"warning: {path}: problem line declares 5 edges, file has 2\n" for path in paths
        )


class TestMdCommand:
    def test_tree_and_stats(self, hub7_path, capsys):
        rc = main(["md", str(hub7_path)])
        out = capsys.readouterr().out
        assert rc == 0
        # numeric labels for parsed files: a..g arrive as 1..7
        assert "Prime[Series[1,2,3],4,Parallel[5,6],7]" in out
        assert "nodes: prime=1 series=1 parallel=1 leaf=7" in out
        assert "depth: 2" in out

    def test_verify_flag(self, hub7_path, capsys):
        rc = main(["md", str(hub7_path), "--verify"])
        assert rc == 0
        assert "verify: OK" in capsys.readouterr().out

    def test_directory_names_path_once(self, tmp_path, capsys):
        rc = main(["md", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {tmp_path}: Is a directory\n"

    def test_empty_graph_rejected(self, empty_path, capsys):
        rc = main(["md", str(empty_path), "--verify"])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {empty_path}: graph has no vertices\n"

    def test_k5(self, tmp_path, capsys):
        path = tmp_path / "k5.clq"
        path.write_text("p edge 5 10\n" + "".join(
            f"e {i} {j}\n" for i in range(1, 6) for j in range(i + 1, 6)
        ))
        rc = main(["md", str(path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Series[1,2,3,4,5]" in out
        assert "nodes: prime=0 series=1 parallel=0 leaf=5" in out

    def test_coprime8_matches_generator(self, tmp_path, capsys):
        path = tmp_path / "c8.clq"
        path.write_text(write_dimacs(coprime_graph(8)))
        rc = main(["md", str(path)])
        assert rc == 0
        assert "Series[1,Parallel[Series[Parallel[2,4,8],3],6],5,7]" in capsys.readouterr().out


class TestGenCommand:
    def test_coprime_round_trip(self, tmp_path, capsys):
        out_path = tmp_path / "c8.clq"
        rc = main(["gen", "coprime", "8", "-o", str(out_path)])
        assert rc == 0
        assert parse_dimacs(out_path.read_text()) == coprime_graph(8)

    def test_cograph_has_no_prime_nodes(self, tmp_path, capsys):
        out_path = tmp_path / "cog.clq"
        rc = main(["gen", "cograph", "500", "--seed", "1", "-o", str(out_path)])
        assert rc == 0
        rc = main(["md", str(out_path)])
        assert rc == 0
        assert "prime=0" in capsys.readouterr().out

    def test_gnp_reproducible(self, tmp_path):
        a, b = tmp_path / "a.clq", tmp_path / "b.clq"
        assert main(["gen", "gnp", "18", "--p", "0.5", "--seed", "7", "-o", str(a)]) == 0
        assert main(["gen", "gnp", "18", "--p", "0.5", "--seed", "7", "-o", str(b)]) == 0
        assert a.read_text() == b.read_text()

    def test_stdout_default(self, capsys):
        rc = main(["gen", "coprime", "3"])
        assert rc == 0
        assert capsys.readouterr().out.startswith("p edge 3")

    def test_invalid_parameters(self, capsys):
        assert main(["gen", "coprime", "0"]) == 1
        assert main(["gen", "gnp", "5", "--p", "1.5"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unwritable_output_is_one_error_line(self, tmp_path, capsys):
        out_path = tmp_path / "missing" / "g.clq"
        assert main(["gen", "gnp", "5", "-o", str(out_path)]) == 1
        assert capsys.readouterr().err == f"error: {out_path}: No such file or directory\n"

    def test_over_vertex_limit_is_one_error_line(self, tmp_path, capsys):
        out_path = tmp_path / "big.clq"
        assert main(["gen", "gnp", str(MAX_VERTICES + 1), "-o", str(out_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not out_path.exists()


def _child_env() -> dict[str, str]:
    """The environment for a child Python that imports this mdclique."""
    src = str(Path(mdclique.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


class TestClosedStdout:
    """A reader that has gone away, as in `mdclique md x.clq | head -c 1`,
    ends the command with exit code 1 and no traceback."""

    @pytest.mark.parametrize("command", [
        ["md", "coprime300.clq"], ["gen", "coprime", "300"], ["solve", "coprime300.clq"],
    ])
    def test_exit_1_with_empty_stderr(self, tmp_path, command):
        (tmp_path / "coprime300.clq").write_text(write_dimacs(coprime_graph(300)))
        # the read end is closed before the child starts, so its first
        # write to stdout fails however fast it runs
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = subprocess.run(
                [sys.executable, "-m", "mdclique", *command], cwd=tmp_path,
                stdout=write_end, stderr=subprocess.PIPE, env=_child_env(), timeout=60,
            )
        finally:
            os.close(write_end)
        assert result.returncode == 1
        assert result.stderr == b""


class TestOutOfMemory:
    """A command that runs out of memory ends with one error line and exit
    code 1, not a traceback. The child lowers its own address-space limit
    to 256 MiB; decomposing the edgeless graph at the vertex limit peaks
    near 600 MB, so the limit trips within a few seconds."""

    @pytest.mark.parametrize("command", ["solve", "md"])
    def test_one_error_line(self, tmp_path, command):
        (tmp_path / "edgeless.clq").write_text(f"p edge {MAX_VERTICES} 0\n")
        child = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))\n"
            "from mdclique.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", child, command, "edgeless.clq"], cwd=tmp_path,
            capture_output=True, env=_child_env(), timeout=60,
        )
        assert result.returncode == 1
        assert result.stderr == b"error: edgeless.clq: out of memory\n"
