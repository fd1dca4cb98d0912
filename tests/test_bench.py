from __future__ import annotations

from pathlib import Path

import pytest

from mdclique import SolverConfig, bench_graph, coprime_graph, run_bench, records_to_csv, write_dimacs
from mdclique.bench import CSV_COLUMNS, MODE_MD, MODE_PLAIN, expand_paths
from mdclique.cli import main
from conftest import make_hub7

LIMIT_60S = SolverConfig(time_limit=60.0)

EXPECTED_HEADER = (
    "instance,n,m,mode,clique_weight,status,md_time_s,solve_time_s,"
    "total_time_s,prime_nodes,tree_depth"
)


@pytest.fixture
def instance_dir(tmp_path: Path) -> Path:
    (tmp_path / "hub7.clq").write_text(write_dimacs(make_hub7()))
    (tmp_path / "coprime20.clq").write_text(write_dimacs(coprime_graph(20)))
    return tmp_path


class TestBenchGraph:
    def test_md_record(self):
        record = bench_graph("fig1", make_hub7(), MODE_MD, SolverConfig())
        assert record.clique_weight == 4
        assert record.status == "Optimal"
        assert record.mode == "MD"
        assert record.n == 7 and record.m == 10
        assert record.prime_nodes == 1 and record.tree_depth == 2
        assert record.total_time_s == record.md_time_s + record.solve_time_s

    def test_plain_record(self):
        record = bench_graph("fig1", make_hub7(), MODE_PLAIN, SolverConfig())
        assert record.clique_weight == 4
        assert record.md_time_s == 0.0
        assert record.prime_nodes == 0 and record.tree_depth == 0


class TestRunBench:
    def test_rows_in_order_md_then_plain(self, instance_dir):
        paths = [instance_dir / "hub7.clq", instance_dir / "coprime20.clq"]
        records = run_bench(paths, [MODE_MD, MODE_PLAIN], LIMIT_60S)
        assert [(r.instance, r.mode) for r in records] == [
            ("hub7", "MD"),
            ("hub7", "Plain"),
            ("coprime20", "MD"),
            ("coprime20", "Plain"),
        ]

    def test_cross_mode_agreement(self, instance_dir):
        records = run_bench(sorted(instance_dir.iterdir()), [MODE_MD, MODE_PLAIN], LIMIT_60S)
        by_instance = {}
        for r in records:
            by_instance.setdefault(r.instance, {})[r.mode] = r
        for rows in by_instance.values():
            assert rows["MD"].clique_weight == rows["Plain"].clique_weight

    def test_directory_expansion(self, instance_dir):
        paths = expand_paths([instance_dir])
        assert [p.name for p in paths] == ["coprime20.clq", "hub7.clq"]

    def test_error_row_continues(self, instance_dir, tmp_path):
        bad = instance_dir / "broken.clq"
        bad.write_text("p edge x y\n")
        records = run_bench(
            [bad, instance_dir / "hub7.clq"], [MODE_MD, MODE_PLAIN], LIMIT_60S
        )
        assert [r.status for r in records[:2]] == ["ERROR", "ERROR"]
        assert records[2].instance == "hub7"
        assert records[2].status == "Optimal"

    def test_csv_schema(self, instance_dir):
        records = run_bench([instance_dir / "hub7.clq"], [MODE_MD], LIMIT_60S)
        csv_text = records_to_csv(records)
        lines = csv_text.strip().split("\n")
        assert lines[0] == EXPECTED_HEADER
        assert lines[0] == ",".join(CSV_COLUMNS)
        fields = lines[1].split(",")
        assert fields[0] == "hub7"
        assert fields[3] == "MD"
        assert fields[4] == "4"
        # six-decimal fixed-point times
        for t in fields[6:9]:
            whole, frac = t.split(".")
            assert len(frac) == 6

    def test_coprime_ladder_both_modes_optimal(self, tmp_path):
        for n in (100, 150, 200):
            (tmp_path / f"coprime{n}.clq").write_text(write_dimacs(coprime_graph(n)))
        records = run_bench(sorted(tmp_path.iterdir()), [MODE_MD, MODE_PLAIN], LIMIT_60S)
        assert len(records) == 6
        assert all(r.status == "Optimal" for r in records)
        weights = {}
        for r in records:
            weights.setdefault(r.instance, set()).add(r.clique_weight)
        assert all(len(ws) == 1 for ws in weights.values())

    def test_csv_bit_stable_without_timings(self, instance_dir):
        def stable_part(csv_text: str) -> list[list[str]]:
            rows = [line.split(",") for line in csv_text.strip().split("\n")]
            return [row[:6] + row[9:] for row in rows]

        paths = sorted(instance_dir.iterdir())
        first = records_to_csv(run_bench(paths, [MODE_MD, MODE_PLAIN], LIMIT_60S))
        second = records_to_csv(run_bench(paths, [MODE_MD, MODE_PLAIN], LIMIT_60S))
        assert stable_part(first) == stable_part(second)


class TestBenchCommand:
    def test_writes_csv(self, instance_dir, tmp_path, capsys):
        out = tmp_path / "out.csv"
        rc = main(
            ["bench", str(instance_dir / "hub7.clq"), "--time-limit", "60", "-o", str(out)]
        )
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == EXPECTED_HEADER
        assert len(lines) == 3  # header + MD + Plain

    def test_stdout_and_modes_filter(self, instance_dir, capsys):
        rc = main(["bench", str(instance_dir / "hub7.clq"), "--modes", "plain"])
        out = capsys.readouterr().out
        assert rc == 0
        lines = out.strip().split("\n")
        assert len(lines) == 2
        assert ",Plain," in lines[1]

    def test_unreadable_file_gives_error_exit(self, instance_dir, tmp_path, capsys):
        rc = main(
            ["bench", str(tmp_path / "missing.clq"), str(instance_dir / "hub7.clq")]
        )
        out = capsys.readouterr().out
        assert rc == 1
        assert "ERROR" in out
        assert "hub7" in out

    def test_empty_graph_gives_error_rows(self, instance_dir, tmp_path, capsys):
        empty = tmp_path / "empty.clq"
        empty.write_text("p edge 0 0\n")
        rc = main(["bench", str(empty), str(instance_dir / "hub7.clq")])
        lines = capsys.readouterr().out.strip().split("\n")
        assert rc == 1
        assert [line.split(",")[3:6:2] for line in lines[1:]] == [
            ["MD", "ERROR"], ["Plain", "ERROR"], ["MD", "Optimal"], ["Plain", "Optimal"],
        ]

    def test_unwritable_output_is_one_error_line(self, instance_dir, tmp_path, capsys):
        out = tmp_path / "missing" / "out.csv"
        rc = main(["bench", str(instance_dir / "hub7.clq"), "-o", str(out)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == f"error: {out}: No such file or directory\n"
        assert captured.out == ""

    def test_unknown_mode_rejected(self, instance_dir, capsys):
        rc = main(["bench", str(instance_dir / "hub7.clq"), "--modes", "turbo"])
        assert rc == 1
        assert "unknown mode" in capsys.readouterr().err
