import argparse
import json
import os
import shlex
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from algoselect.cli import build_parser, main
from algoselect import epm, greedy, online
from algoselect.core import merge_close, shatter_probe
from algoselect.greedy import (
    KnapsackInstance,
    greedy_cost,
    knapsack_family,
    load_mwis,
    mwis_family,
    piece_costs,
    random_knapsack_instance,
    random_mwis_instance,
    run_greedy,
    save_knapsack,
    save_mwis,
    step_functions,
)
from algoselect.online import build_hard_instance, instance_from_jsonl
from algoselect.gdtune import GdInstance, save_gd_instance
from algoselect.utils import labeled_rng
from _fixtures import interval_gadget
from _grid_oracles import scalar_costs


def run_cli(*argv):
    return main([str(a) for a in argv])


def mwis_dir(tmp_path, count=4, n=7, seed=0):
    d = tmp_path / "instances"
    d.mkdir()
    rng = np.random.default_rng(seed)
    for i in range(count):
        save_mwis(random_mwis_instance(n, 0.4, rng), str(d / f"g{i}.json"))
    return d


class TestErmGreedy:
    def test_empty_directory_errors(self, tmp_path, capsys):
        empty = tmp_path / "none"
        empty.mkdir()
        code = run_cli("erm-greedy", "--instances", empty, "--out", tmp_path / "o.csv")
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert "no instances" in err["error"]

    def test_window_gadget_optimum_lands_inside(self, tmp_path):
        d = tmp_path / "instances"
        d.mkdir()
        save_mwis(interval_gadget(0.25, 0.75), str(d / "gadget.json"))
        out = tmp_path / "result.csv"
        assert run_cli("erm-greedy", "--instances", d, "--out", out, "--holdout-frac", 0) == 0
        header, row = out.read_text().strip().split("\n")
        assert header.startswith("rho_star,breakpoint_count")
        rho_star = float(row.split(",")[0])
        assert 0.25 < rho_star < 0.75

    def test_knapsack_problem_flag(self, tmp_path):
        d = tmp_path / "items"
        d.mkdir()
        save_knapsack(KnapsackInstance([4.0, 3.0], [4.0, 1.0], 4.0), str(d / "a.csv"))
        save_knapsack(KnapsackInstance([5.0, 3.2, 3.2], [5.0, 2.5, 2.5], 5.0), str(d / "b.csv"))
        out = tmp_path / "result.csv"
        code = run_cli("erm-greedy", "--problem", "knapsack", "--instances", d,
                       "--rho-hi", 2.0, "--out", out)
        assert code == 0
        assert out.read_text().count("\n") == 2

    def test_fractional_endpoint_is_one_json_line(self, tmp_path, capsys):
        d = tmp_path / "instances"
        d.mkdir()
        (d / "g.json").write_text(json.dumps({"n": 3, "edges": [[0, 1.7]], "weights": [0.5, 0.4, 0.3]}))
        out = tmp_path / "o.csv"
        assert run_cli("erm-greedy", "--instances", d, "--out", out) == 1
        assert not out.exists()
        (line,) = capsys.readouterr().err.strip().split("\n")
        payload = json.loads(line)
        assert payload["type"] == "ValueError"
        assert "whole numbers" in payload["error"]

    @pytest.mark.parametrize("n", [3.5, '"3"', "true", "null"])
    def test_vertex_count_not_whole_is_one_json_line(self, n, tmp_path, capsys):
        d = tmp_path / "instances"
        d.mkdir()
        (d / "g.json").write_text(f'{{"n": {n}, "edges": [[0, 1]], "weights": [0.5, 0.4, 0.3]}}')
        out = tmp_path / "o.csv"
        assert run_cli("erm-greedy", "--instances", d, "--out", out) == 1
        assert not out.exists()
        (line,) = capsys.readouterr().err.strip().split("\n")
        payload = json.loads(line)
        assert payload["type"] == "ValueError"
        assert "whole number" in payload["error"]

    def test_default_split_numbers_match_scalar_greedy(self, tmp_path):
        d, out = mwis_dir(tmp_path, count=6, seed=4), tmp_path / "o.csv"
        assert run_cli("erm-greedy", "--instances", d, "--out", out) == 0
        row = dict(zip(*(line.split(",") for line in out.read_text().strip().split("\n"))))
        items = [load_mwis(str(d / name)) for name in sorted(os.listdir(d))]
        order = labeled_rng(0, "train-holdout-split").permutation(6)
        train, holdout = [items[i] for i in order[:3]], [items[i] for i in order[3:]]
        fam, rho = mwis_family(7), float(row["rho_star"])
        held = [np.mean([greedy_cost(fam, r, x) for x in holdout])
                for r in piece_costs(fam, holdout)[0]]
        chosen = np.mean([greedy_cost(fam, rho, x) for x in holdout])
        assert float(row["train_mean"]) == np.mean([greedy_cost(fam, rho, x) for x in train])
        assert float(row["holdout_mean"]) == chosen
        assert float(row["estimated_error"]) == abs(chosen - max(held)) > 0

    @pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (0.1, 2.5), (0.3, 0.3)])
    def test_breakpoint_count_is_the_merged_training_union(self, tmp_path, lo, hi):
        d, out = mwis_dir(tmp_path, count=5, seed=9), tmp_path / "o.csv"
        assert run_cli("erm-greedy", "--instances", d, "--out", out, "--holdout-frac", 0,
                       "--rho-lo", lo, "--rho-hi", hi) == 0
        row = dict(zip(*(line.split(",") for line in out.read_text().strip().split("\n"))))
        train = [load_mwis(str(d / name)) for name in sorted(os.listdir(d))]
        points = np.unique(step_functions(mwis_family(7, (lo, hi)), train).points)
        union = merge_close(points, greedy._BREAKPOINT_MERGE_RTOL)
        assert int(row["breakpoint_count"]) == union.size
        assert (union.size > 0) == (lo < hi)

    @pytest.mark.parametrize("frac", ["inf", "nan", "1.5", "1.0", "-0.25"])
    def test_holdout_fraction_outside_unit_interval_rejected(self, frac, tmp_path, capsys):
        out = tmp_path / "o.csv"
        assert run_cli("erm-greedy", "--instances", mwis_dir(tmp_path), "--holdout-frac", frac,
                       "--out", out) == 1
        assert not out.exists()
        (line,) = capsys.readouterr().err.strip().split("\n")
        payload = json.loads(line)
        assert payload["type"] == "ValueError"
        assert "--holdout-frac" in payload["error"]


class TestGdTune:
    def test_single_point_net_echoed(self, tmp_path):
        out = tmp_path / "gd.csv"
        code = run_cli("gd-tune", "--net", "0.25", "--samples", 5, "--out", out)
        assert code == 0
        row = out.read_text().strip().split("\n")[1]
        assert float(row.split(",")[0]) == 0.25
        assert int(row.split(",")[2]) == 1

    def test_default_output_bytes(self, tmp_path):
        # The K-net at the defaults: 12,001 points, 50 generated samples.
        out = tmp_path / "gd.csv"
        assert run_cli("gd-tune", "--seed", 0, "--out", out) == 0
        assert out.read_bytes() == (b"rho_star,mean_iterations,net_size,K,H\n"
                                    b"0.39615000000000006,4.16,12001,2.5000000000000005e-05,"
                                    b"43.70869065356567\n")

    @pytest.mark.parametrize("net", ["0.2001,0.2", "0.2,0.2001"])
    def test_tied_means_pick_the_smaller_step_in_either_order(self, net, tmp_path):
        out = tmp_path / "gd.csv"
        assert run_cli("gd-tune", "--seed", 0, "--net", net, "--out", out) == 0
        row = out.read_text().strip().split("\n")[1].split(",")
        assert (row[0], row[1], row[2]) == ("0.2", "8.22", "2")

    def test_instance_directory_input(self, tmp_path):
        d = tmp_path / "gd"
        d.mkdir()
        save_gd_instance(GdInstance([1.0], [1.0]), str(d / "one.json"))
        out = tmp_path / "gd.csv"
        code = run_cli("gd-tune", "--rho-lo", 0.5, "--rho-hi", 1.0, "--L", 1.0,
                       "--c", 0.5, "--nu", 0.1, "--instances", d, "--net", "0.5,1.0",
                       "--out", out)
        assert code == 0
        row = out.read_text().strip().split("\n")[1]
        rho_star, mean_iters = float(row.split(",")[0]), float(row.split(",")[1])
        assert rho_star == 1.0 and mean_iters == 1.0

    def test_progress_failure_is_one_json_line(self, tmp_path, capsys):
        # lambda=4 at rho=0.5 maps z to -z: no progress, so run_gd's
        # GuaranteedProgressError must reach the user as the JSON error line.
        d = tmp_path / "gd"
        d.mkdir()
        save_gd_instance(GdInstance([4.0], [0.5]), str(d / "bad.json"))
        out = tmp_path / "gd.csv"
        code = run_cli("gd-tune", "--rho-hi", 0.5, "--net", "0.1,0.5", "--instances", d,
                       "--out", out)
        assert code == 1
        assert not out.exists()
        (line,) = capsys.readouterr().err.strip().split("\n")
        payload = json.loads(line)
        assert payload["type"] == "GuaranteedProgressError"
        assert "rho=0.5" in payload["error"]

    def test_iteration_cap_is_one_json_line(self, tmp_path, capsys):
        # The family's iteration cap is 3, and three halvings of a start norm
        # of Z (1 + 1e-12) stop just above nu.
        d = tmp_path / "gd"
        d.mkdir()
        save_gd_instance(GdInstance([0.5], [1 + 1e-12]), str(d / "slow.json"))
        out = tmp_path / "gd.csv"
        code = run_cli("gd-tune", "--rho-lo", 1.0, "--rho-hi", 1.0, "--L", 0.5, "--m-sc", 0.5,
                       "--c", 0.5, "--Z", 1.0, "--nu", 0.125, "--instances", d, "--out", out)
        assert code == 1
        assert not out.exists()
        (line,) = capsys.readouterr().err.strip().split("\n")
        assert json.loads(line) == {"error": "no convergence within 3 iterations; guaranteed progress violated",
                                    "type": "GuaranteedProgressError"}

    @pytest.mark.parametrize("source", ["generated", "file"])
    def test_zero_dimension_is_one_json_line(self, source, tmp_path, capsys):
        out = tmp_path / "gd.csv"
        if source == "generated":
            args = ["--dim", 0, "--samples", 2]
        else:
            d = tmp_path / "gd"
            d.mkdir()
            (d / "empty.json").write_text(json.dumps({"lambdas": [], "z0": []}))
            args = ["--instances", d]
        assert run_cli("gd-tune", *args, "--out", out) == 1
        assert not out.exists()
        (line,) = capsys.readouterr().err.strip().split("\n")
        payload = json.loads(line)
        assert payload["type"] == "ValueError"
        assert "nonempty" in payload["error"]


class TestAdversary:
    def test_jsonl_replay_scores_one_in_final_window(self, tmp_path):
        out = tmp_path / "seq.jsonl"
        assert run_cli("adversary", "--n-budget", 200, "--T", 10, "--seed", 3, "--out", out) == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 10
        params = [instance_from_jsonl(line) for line in lines]
        mid = (params[-1].r + params[-1].s) / 2
        for p in params:
            inst = build_hard_instance(p)
            cost = run_greedy(mwis_family(inst.n), mid, inst)[1].value
            assert abs(cost - 1.0) < 1e-12

    def test_windows_are_exact_rationals(self, tmp_path):
        out = tmp_path / "seq.jsonl"
        run_cli("adversary", "--n-budget", 200, "--T", 6, "--seed", 5, "--out", out)
        params = [instance_from_jsonl(l) for l in out.read_text().strip().split("\n")]
        n = params[0].n
        for j, p in enumerate(params, start=1):
            assert p.s - p.r == Fraction(1, n**j)

    def test_runs_as_a_module_from_the_source_tree(self, tmp_path):
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src)
        out = tmp_path / "seq.jsonl"
        done = subprocess.run([sys.executable, "-m", "algoselect", "adversary", "--n-budget", "200",
                               "--T", "3", "--out", str(out)], env=env, capture_output=True,
                              text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert run_cli("adversary", "--n-budget", 200, "--T", 3, "--out", tmp_path / "b") == 0
        assert out.read_bytes() == (tmp_path / "b").read_bytes()


class TestPdimProbe:
    def test_constant_family_never_shattered(self, tmp_path):
        out = tmp_path / "probe.json"
        code = run_cli("pdim-probe", "--family", "constant", "--sets", 3,
                       "--set-size", 2, "--out", out)
        assert code == 0
        payload = json.loads(out.read_text())
        assert all(not r["shattered"] for r in payload["reports"])
        assert all(r["labeling_count"] == 1 for r in payload["reports"])

    @pytest.mark.parametrize("family", ["mwis", "knapsack"])
    def test_reports_equal_the_scalar_probe_family(self, family, tmp_path):
        # The probe reads its costs off step functions; the scalar runner at
        # every representative must give the same reports.
        out = tmp_path / "probe.json"
        assert run_cli("pdim-probe", "--family", family, "--seed", 7, "--out", out) == 0
        rng = labeled_rng(7, "pdim-instances")
        if family == "mwis":
            fam = mwis_family(6)
            instances = [random_mwis_instance(6, 0.5, rng) for _ in range(6)]
        else:
            fam = knapsack_family(6, (0.0, 2.0))
            instances = [random_knapsack_instance(6, rng) for _ in range(6)]
        costs = scalar_costs(fam, instances, piece_costs(fam, instances)[0])
        reports = shatter_probe(costs, [[0, 1], [2, 3], [4, 5]])
        got = json.loads(out.read_text())["reports"]
        assert [(r["set_size"], r["shattered"], r["labeling_count"], r["witnesses"]) for r in got] == \
            [(r.set_size, r.shattered, r.labeling_count, list(r.witnesses) if r.witnesses else None)
             for r in reports]

    def test_mwis_probe_runs(self, tmp_path):
        out = tmp_path / "probe.json"
        code = run_cli("pdim-probe", "--family", "mwis", "--n", 6, "--sets", 2,
                       "--set-size", 1, "--seed", 2, "--out", out)
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload["reports"]) == 2


class TestEpmCommand:
    def test_output_schema(self, tmp_path):
        out = tmp_path / "epm.json"
        code = run_cli("epm", "--n", 6, "--samples", 30, "--holdout", 10, "--out", out)
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload["epms"]) == 3
        for record in payload["epms"]:
            assert set(record) >= {"schema_id", "algorithm_index", "coefficients", "training_loss"}
        assert 0 <= payload["selection_matches_true_best"] <= payload["holdout_instances"]

    def test_features_are_computed_once_per_instance(self, tmp_path, monkeypatch):
        calls = []
        features = epm.FeatureMap.__call__
        monkeypatch.setattr(epm.FeatureMap, "__call__", lambda *a: calls.append(a) or features(*a))
        assert run_cli("epm", "--samples", 60, "--holdout", 30, "--out", tmp_path / "epm.json") == 0
        assert len(calls) == 60 + 30

    def test_out_of_interval_rho_is_run_greedys_error(self, tmp_path, capsys):
        out = tmp_path / "epm.json"
        assert run_cli("epm", "--rhos", "0,1.5", "--out", out) == 1
        assert not out.exists()
        (line,) = capsys.readouterr().err.strip().split("\n")
        assert line == '{"error": "rho=1.5 outside family interval (0.0, 1.0)", "type": "ValueError"}'


class TestSortBench:
    def test_skewed_bench_is_correct_and_beats_mergesort(self, tmp_path):
        out = tmp_path / "sort.csv"
        code = run_cli("sort-bench", "--n", 64, "--train", 50, "--test", 20, "--out", out)
        assert code == 0
        rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
        assert len(rows) == 20
        assert all(row[6] == "1" for row in rows)  # matches_reference
        ours = np.mean([int(row[1]) for row in rows])
        merge = np.mean([int(row[7]) for row in rows])
        assert ours <= merge

    def test_csv_inputs(self, tmp_path):
        from algoselect.sorter import save_arrays_csv

        rng = np.random.default_rng(0)
        arrays = [rng.uniform(0, 1, 16) for _ in range(8)]
        train_csv = tmp_path / "train.csv"
        save_arrays_csv(arrays, str(train_csv))
        out = tmp_path / "sort.csv"
        code = run_cli("sort-bench", "--train-csv", train_csv, "--out", out)
        assert code == 0
        assert len(out.read_text().strip().split("\n")) == 9

    def test_zero_length_arrays_rejected(self, tmp_path, capsys):
        out = tmp_path / "sort.csv"
        assert run_cli("sort-bench", "--n", 0, "--out", out) == 1
        assert not out.exists()
        (line,) = capsys.readouterr().err.strip().split("\n")
        payload = json.loads(line)
        assert payload["type"] == "ValueError"
        assert "--n" in payload["error"]

    def test_nan_key_in_csv_is_one_json_line(self, tmp_path, capsys):
        train_csv = tmp_path / "train.csv"
        train_csv.write_text("0.1,0.2\n0.3,nan\n")
        out = tmp_path / "sort.csv"
        assert run_cli("sort-bench", "--train-csv", train_csv, "--out", out) == 1
        assert not out.exists()
        (line,) = capsys.readouterr().err.strip().split("\n")
        payload = json.loads(line)
        assert payload["type"] == "ValueError"
        assert "NaN" in payload["error"]


class TestOnlineCommand:
    def test_trace_csv(self, tmp_path):
        out = tmp_path / "trace.csv"
        code = run_cli("online", "--n", 5, "--T", 20, "--net-size", 64, "--sigma", 0.5,
                       "--intervals", "0:1", "--out", out)
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "step,chosen_rho,cost,cum_cost,cum_best,avg_regret"
        assert len(lines) == 21

    def test_defaults_build_no_transition_superset(self, tmp_path, monkeypatch):
        # Each step is cut by its own crossings; no step of the default run
        # is flagged for sliver cuts, and the gap is never read.
        def superset(weights):
            raise AssertionError("a transition superset was built")

        monkeypatch.setattr(online, "_transition_rows", superset)
        assert run_cli("online", "--out", tmp_path / "trace.csv") == 0

    def test_single_vertex_runs(self, tmp_path):
        # One vertex is always selected: every step scores its whole weight.
        out = tmp_path / "trace.csv"
        assert run_cli("online", "--n", 1, "--T", 5, "--net-size", 8, "--out", out) == 0
        header, *rows = out.read_text().strip().split("\n")
        assert header == "step,chosen_rho,cost,cum_cost,cum_best,avg_regret"
        assert len(rows) == 5
        assert all(float(r.split(",")[2]) == 1.0 and float(r.split(",")[5]) == 0.0 for r in rows)

    @pytest.mark.parametrize("size,message", [(-5, "net size must be a point count >= 1, got -5"),
                                              (0, "nonempty")])
    def test_net_size_below_one_is_named(self, tmp_path, capsys, size, message):
        out = tmp_path / "trace.csv"
        assert run_cli("online", "--T", 5, "--net-size", size, "--out", out) == 1
        assert not out.exists()
        (line,) = capsys.readouterr().err.strip().split("\n")
        payload = json.loads(line)
        assert payload["type"] == "ValueError"
        assert message in payload["error"]


@pytest.mark.parametrize("command,extra", [
    ("online", ["--p-er", 1.5, "--T", 5, "--net-size", 8]),
    ("epm", ["--p-er", "nan", "--samples", 5, "--holdout", 2]),
], ids=["online-above-1", "epm-nan"])
def test_bad_edge_probability_is_one_json_line(command, extra, tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli(command, *extra, "--out", out) == 1
    assert not out.exists()
    (line,) = capsys.readouterr().err.strip().split("\n")
    payload = json.loads(line)
    assert payload["type"] == "ValueError"
    assert "edge probability" in payload["error"]


ALL_COMMANDS = [
    ("erm-greedy", lambda tmp: ["--instances", mwis_dir(tmp)]),
    ("gd-tune", lambda tmp: ["--samples", 8, "--dim", 2]),
    ("online", lambda tmp: ["--n", 5, "--T", 10, "--net-size", 32, "--sigma", 0.5]),
    ("adversary", lambda tmp: ["--n-budget", 200, "--T", 5]),
    ("pdim-probe", lambda tmp: ["--family", "mwis", "--n", 5, "--sets", 2, "--set-size", 1]),
    ("epm", lambda tmp: ["--n", 5, "--samples", 20, "--holdout", 5]),
    ("sort-bench", lambda tmp: ["--n", 32, "--train", 20, "--test", 10]),
]


@pytest.mark.parametrize("command,extra", ALL_COMMANDS, ids=[c for c, _ in ALL_COMMANDS])
def test_reruns_are_byte_identical(command, extra, tmp_path):
    args = extra(tmp_path)
    out_a = tmp_path / "a.out"
    out_b = tmp_path / "b.out"
    assert run_cli(command, *args, "--seed", 42, "--out", out_a) == 0
    assert run_cli(command, *args, "--seed", 42, "--out", out_b) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def numeric_edge_cases():
    """Every int and float option of every subcommand, at each of its edge values."""
    parser = build_parser()
    subcommands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    edges = {int: ["-1", "0"], float: ["nan", "inf", "1e308", "-1", "0"]}
    for command, sub in subcommands.choices.items():
        for action in sub._actions:
            for value in edges.get(action.type, []):
                option = f"{action.option_strings[0]}={value}"
                yield pytest.param(command, option, id=f"{command}{option}")


@pytest.mark.parametrize("command,option", numeric_edge_cases())
def test_numeric_edge_values_keep_the_error_contract(command, option, tmp_path, capsys):
    # Small sizes from ALL_COMMANDS, then the one option at its edge value.
    code = run_cli(command, *dict(ALL_COMMANDS)[command](tmp_path), option, "--out", tmp_path / "out")
    err = capsys.readouterr().err
    assert code in (0, 1)
    if code == 1:
        (line,) = err.strip().split("\n")
        assert set(json.loads(line)) == {"error", "type"}


def one_json_error(capsys):
    """The payload of the one JSON line a failed call printed, with nothing on stdout."""
    out, err = capsys.readouterr()
    (line,) = err.strip().split("\n")
    payload = json.loads(line)
    assert set(payload) == {"error", "type"} and out == ""
    return payload


def typed_options():
    """Every option of every subcommand that takes a number, a list or a choice."""
    parser = build_parser()
    subcommands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for command, sub in subcommands.choices.items():
        for action in sub._actions:
            if action.option_strings and (action.type or action.choices):
                yield pytest.param(command, action.option_strings[0],
                                   id=f"{command}{action.option_strings[0]}")


@pytest.mark.parametrize("command,option", typed_options())
def test_non_numeric_value_is_one_json_line(command, option, tmp_path, capsys):
    out = tmp_path / "out"
    argv = [command, *dict(ALL_COMMANDS)[command](tmp_path), option, "abc", "--out", out]
    assert run_cli(*argv) == 1
    assert not out.exists()
    payload = one_json_error(capsys)
    assert payload["type"] == "ValueError"
    assert option in payload["error"] and "abc" in payload["error"]


@pytest.mark.parametrize("argv,named", [
    (["online", "--T", "abc", "--out", "x"], "--T"),
    (["erm-greedy", "--problem", "tsp", "--instances", "d", "--out", "x"], "--problem"),
    (["online"], "--out"),
    (["no-such-command", "--out", "x"], "no-such-command"),
    ([], "command"),
], ids=["bad-int", "bad-choice", "missing-out", "unknown-command", "no-command"])
def test_usage_errors_are_one_json_line(argv, named, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_cli(*argv) == 1
    assert named in one_json_error(capsys)["error"]
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("argv", [["--help"], ["online", "--help"]], ids=["top", "online"])
def test_help_prints_usage_and_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as done:
        run_cli(*argv)
    assert done.value.code == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: algoselect") and err == ""


@pytest.mark.parametrize("command,option,value,token", [
    ("online", "--intervals", "0.5", "'0.5'"),
    ("online", "--intervals", "0.1:x", "'x'"),
    ("pdim-probe", "--sets", "0", "got 0"),
    ("pdim-probe", "--set-size", "0", "got 0"),
    ("epm", "--rhos", "", "''"),
    ("gd-tune", "--net", "0.2,a", "'a'"),
], ids=["intervals-one-bound", "intervals-not-a-number", "sets-0", "set-size-0", "rhos-empty",
        "net-not-a-number"])
def test_bad_values_name_their_option(command, option, value, token, tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli(command, *dict(ALL_COMMANDS)[command](tmp_path), option, value, "--out", out) == 1
    assert not out.exists()
    error = one_json_error(capsys)["error"]
    assert option in error and token in error


@pytest.mark.parametrize("net", ["", ","], ids=["empty", "comma"])
def test_empty_net_is_one_json_line(net, tmp_path, capsys):
    # An empty --net is an error, not a request for the default K-net.
    out = tmp_path / "gd.csv"
    assert run_cli("gd-tune", "--samples", 2, "--net", net, "--out", out) == 1
    assert not out.exists()
    (line,) = capsys.readouterr().err.strip().split("\n")
    assert json.loads(line)["type"] == "ValueError"


def test_error_payload_is_machine_readable(tmp_path, capsys):
    code = run_cli("erm-greedy", "--instances", tmp_path / "missing", "--out", tmp_path / "x.csv")
    assert code == 1
    payload = json.loads(capsys.readouterr().err)
    assert payload["type"] == "ValueError"


def test_readme_command_lines_parse():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        section = fh.read().split("## Command line", 1)[1].split("\n## ", 1)[0]
    block = section.split("```bash", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("algoselect ")]
    parser = build_parser()
    # parse_args raises on an unknown flag or a bad value; every subcommand is shown.
    shown = {parser.parse_args(shlex.split(line)[1:]).command for line in lines}
    subcommands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert shown == set(subcommands.choices)
