"""The summary of scripts/bench_pairs.py, on canned result lines of perfbench/run.py."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def result_line(wall, rss, failed=0):
    return json.dumps({
        "correct": not failed,
        "attempted": 10,
        "failed": failed,
        "metrics": {
            "wall_s": {"value": wall, "unit": "s"},
            "peak_rss_mib": {"value": rss, "unit": "MiB"},
        },
    })


def run_output(line):
    return f"closure_wide: 20 passes, raw median pass 0.1 s\nclosure_wide wall_s = 0.1 s\n{line}\n"


def test_parse_result_reads_the_last_line():
    result = bench_pairs.parse_result(run_output(result_line(0.5, 28.0)))
    assert result["metrics"]["wall_s"]["value"] == 0.5
    with pytest.raises(ValueError):
        bench_pairs.parse_result("")


def test_summary_gives_medians_quartiles_and_wins():
    walls = [(0.10, 0.08), (0.12, 0.09), (0.11, 0.12), (0.13, 0.07), (0.14, 0.10)]
    pairs = [
        (bench_pairs.parse_result(run_output(result_line(p, 29.0))),
         bench_pairs.parse_result(run_output(result_line(c, 30.0, failed=k == 0))))
        for k, (p, c) in enumerate(walls)
    ]
    lines = bench_pairs.summarize(pairs, {"wall_s": "lower", "peak_rss_mib": "lower"})
    assert lines == [
        "wall_s: parent 0.12 [0.105, 0.135]  change 0.09 [0.075, 0.11]  -25.0%  "
        "change better in 4/5, tied in 0  median gap 0.03 within parent IQR 0.03  no change",
        "peak_rss_mib: parent 29 [29, 29]  change 30 [30, 30]  +3.4%  "
        "change better in 0/5, tied in 0  median gap 1 exceeds parent IQR 0  regression",
        "parent failed 0 of 50 items",
        "change failed 1 of 50 items",
    ]


def test_summary_follows_the_metric_direction():
    pairs = [(json.loads(result_line(1.0, 1.0)), json.loads(result_line(2.0, 1.0)))]
    (wall, rss, *_) = bench_pairs.summarize(pairs, {"wall_s": "higher"})
    assert wall.endswith("+100.0%  change better in 1/1, tied in 0  median gap 1 exceeds parent IQR 0  gain")
    assert wall.startswith("wall_s: parent 1 [1, 1]  change 2 [2, 2]")
    assert rss.endswith("+0.0%  change better in 0/1, tied in 1  median gap 0 within parent IQR 0  no change")


def test_summary_counts_ties_apart_from_wins_and_applies_the_claim_rule():
    # wall_s: the change wins two pairs, ties one and loses one, and its
    # median gap (1.0) is inside the parent's quartile spread (2.5).  rss
    # ties in every pair.  Second run: every pair won by 0.65, outside the
    # parent's spread of 0.25.
    walls = [(1.0, 0.5), (2.0, 2.0), (3.0, 1.0), (4.0, 5.0)]
    pairs = [(json.loads(result_line(p, 29.0)), json.loads(result_line(c, 29.0))) for p, c in walls]
    wall, rss, *_ = bench_pairs.summarize(pairs, {})
    assert wall.endswith("change better in 2/4, tied in 1  median gap 1 within parent IQR 2.5  no change")
    assert rss.endswith("change better in 0/4, tied in 4  median gap 0 within parent IQR 0  no change")
    pairs = [(json.loads(result_line(p, 29.0)), json.loads(result_line(0.5, 29.0)))
             for p in (1.0, 1.1, 1.2, 1.3)]
    wall, *_ = bench_pairs.summarize(pairs, {})
    assert wall.endswith("change better in 4/4, tied in 0  median gap 0.65 exceeds parent IQR 0.25  gain")


@pytest.mark.parametrize(
    "wins, losses, gap, spread, expected",
    [
        (9, 1, 2.0, 1.0, "gain"),
        (9, 0, 2.0, 1.0, "gain"),  # a tie counts for neither side
        (8, 0, 2.0, 1.0, "no change"),
        (10, 0, 1.0, 1.0, "no change"),  # the gap must exceed the parent's IQR
        (1, 9, 2.0, 1.0, "regression"),
        (0, 8, 2.0, 1.0, "no change"),
        (0, 10, 0.5, 1.0, "no change"),
    ],
)
def test_verdict_applies_the_claim_rule_and_its_mirror(wins, losses, gap, spread, expected):
    assert bench_pairs.verdict(wins, losses, 10, gap, spread) == expected


def test_summary_reads_regression_when_the_parent_wins_nine_in_ten():
    walls = [(1.0 + k / 100, 2.0 + k / 100) for k in range(9)] + [(1.5, 1.0)]
    pairs = [(json.loads(result_line(p, 29.0)), json.loads(result_line(c, 29.0))) for p, c in walls]
    wall, *_ = bench_pairs.summarize(pairs, {})
    assert "change better in 1/10, tied in 0" in wall
    assert wall.endswith("  regression")


def test_workload_names_expand_all_and_keep_the_first_of_repeats():
    spec = {"workloads": [{"name": "a"}, {"name": "b"}, {"name": "c"}]}
    assert bench_pairs.workload_names(["b"], spec) == ["b"]
    assert bench_pairs.workload_names(["c", "all", "a"], spec) == ["c", "a", "b"]
    assert bench_pairs.workload_names(["b", "b", "x"], spec) == ["b", "x"]
    with pytest.raises(SystemExit):
        bench_pairs.workload_names(["all"], {})


def test_main_prints_one_block_per_workload(tmp_path, monkeypatch, capsys):
    spec = {"workloads": [{"name": "w1"}, {"name": "w2"}], "end_to_end": [{"name": "wall_s"}]}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    runs = []

    def fake_run_once(root, workload, seed, seconds):
        runs.append((root.name, workload, seed))
        return json.loads(result_line(1.0 if root.name == "parent" else 0.5, 29.0))

    monkeypatch.setattr(bench_pairs, "run_once", fake_run_once)
    parent, change = tmp_path / "parent", tmp_path
    argv = ["--parent", str(parent), "--change", str(change), "--workload", "all",
            "--pairs", "2", "--seconds", "1", "--seed", "5"]
    assert bench_pairs.main(argv) == 0
    change_name = change.name
    assert runs == [
        ("parent", "w1", 5), (change_name, "w1", 5), (change_name, "w1", 6), ("parent", "w1", 6),
        ("parent", "w2", 5), (change_name, "w2", 5), (change_name, "w2", 6), ("parent", "w2", 6),
    ]
    captured = capsys.readouterr()
    assert captured.err.startswith("warning: runs of 1 s are shorter than 10 s")
    out = captured.out
    blocks = [line for line in out.splitlines() if not line.startswith(" ")]
    assert [b for b in blocks if "pairs," in b] == ["w1, 2 pairs, 1 s a run:", "w2, 2 pairs, 1 s a run:"]
    assert out.count("wall_s: parent 1 [1, 1]  change 0.5 [0.5, 0.5]  -50.0%  change better in 2/2") == 2


def test_main_warns_only_for_runs_shorter_than_ten_seconds(tmp_path, monkeypatch, capsys):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [{"name": "wall_s"}]}))
    monkeypatch.setattr(bench_pairs, "run_once", lambda *args: json.loads(result_line(1.0, 29.0)))
    argv = ["--parent", str(tmp_path), "--change", str(tmp_path), "--workload", "w", "--pairs", "1"]
    assert bench_pairs.main(argv + ["--seconds", "9.5"]) == 0
    assert "shorter than 10 s" in capsys.readouterr().err
    assert bench_pairs.main(argv + ["--seconds", "10"]) == 0
    assert capsys.readouterr().err == ""


def test_code_lines_count_as_the_grep_pipeline_does(tmp_path):
    # grep -v '^\s*$' src/weyltype/*.py | grep -v ':\s*#' | wc -l: blank
    # lines and comment lines drop out, and so does a code line whose colon
    # is followed by a comment; docstring lines count.
    package = tmp_path / "src" / "weyltype"
    package.mkdir(parents=True)
    (package / "a.py").write_text('"""Doc."""\n\nx = 1\n    # note\nif x:  # why\n    y = {"k": 2}\n')
    (package / "b.py").write_text("def f():\n    return 1\n")
    (package / "c.txt").write_text("not python\n")
    assert bench_pairs.code_lines(tmp_path) == 5
    assert bench_pairs.code_lines(tmp_path / "missing") == 0


def test_main_prints_both_code_line_counts_first(tmp_path, monkeypatch, capsys):
    for side, lines in (("parent", 2), ("change", 3)):
        package = tmp_path / side / "src" / "weyltype"
        package.mkdir(parents=True)
        (package / "m.py").write_text("x = 1\n" * lines)
    monkeypatch.setattr(bench_pairs, "run_once", lambda *args: json.loads(result_line(1.0, 29.0)))
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
            "--workload", "w", "--pairs", "1", "--seconds", "10"]
    assert bench_pairs.main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == ["parent src/weyltype code lines: 2", "change src/weyltype code lines: 3"]
