"""Batch experiment harness: every module exposed as a seeded subcommand.

All randomness derives from one root --seed via fixed labeled streams, so any
subcommand rerun with the same flags reproduces its output files byte for
byte.  Each subcommand returns the text of its one output file, which is written
atomically; failures, usage errors too, print one machine readable JSON object
to stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import epm as epm_mod
from . import gdtune, greedy, online, sorter
from .core import MAXIMIZE, shatter_probe
from .utils import atomic_write_text, labeled_rng


def _csv(header: str, rows) -> str:
    lines = [header]
    lines.extend(
        ",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row) for row in rows
    )
    return "\n".join(lines) + "\n"


def _numbers(text: str, sep: str = ",") -> list[float]:
    """A `sep`-separated list of numbers, as an argparse type."""
    try:
        return [float(tok) for tok in text.split(sep)]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{text!r}: {exc}") from None


def _intervals(text: str) -> list[list[float]]:
    """`lo:hi` pairs separated by commas, as an argparse type."""
    pairs = [_numbers(chunk, ":") for chunk in text.split(",")]
    if any(len(pair) != 2 for pair in pairs):
        raise argparse.ArgumentTypeError(f"{text!r} is not a list of lo:hi pairs")
    return pairs


def _load_instance_dir(path: str, suffix: str, loader):
    if not os.path.isdir(path):
        raise ValueError(f"instance directory not found: {path}")
    names = sorted(name for name in os.listdir(path) if name.endswith(suffix))
    instances = [loader(os.path.join(path, name)) for name in names]
    if not instances:
        raise ValueError(f"no instances ({suffix} files) in {path}")
    return instances


def _train_holdout_split(instances, seed: int, frac: float):
    if len(instances) < 2 or frac <= 0:
        return instances, None
    order = labeled_rng(seed, "train-holdout-split").permutation(len(instances))
    cut = max(1, int(round(len(instances) * (1 - frac))))
    train = [instances[i] for i in order[:cut]]
    holdout = [instances[i] for i in order[cut:]]
    return train, holdout or None


def cmd_erm_greedy(args) -> str:
    if not 0.0 <= args.holdout_frac < 1.0:  # NaN fails the comparison too
        raise ValueError(f"--holdout-frac must be in [0, 1), got {args.holdout_frac}")
    interval = (args.rho_lo, args.rho_hi)
    if args.problem == "mwis":
        instances = _load_instance_dir(args.instances, ".json", greedy.load_mwis)
        family = greedy.mwis_family(max(x.n for x in instances), interval,
                                    adaptive=args.variant == "adaptive")
    else:
        instances = _load_instance_dir(args.instances, ".csv", greedy.load_knapsack)
        family = greedy.knapsack_family(max(x.n for x in instances), interval)
    train, holdout = _train_holdout_split(instances, args.seed, args.holdout_frac)
    rhos, costs = greedy.piece_costs(family, train)
    rho_star, report = greedy.erm_breakpoint(family, rhos, costs, holdout)
    return _csv(
        "rho_star,breakpoint_count,train_mean,holdout_mean,estimated_error",
        [(float(rho_star), max(rhos.size - 3, 0), report.train_mean,
          report.holdout_mean, report.estimated_error)],
    )


def cmd_gd_tune(args) -> str:
    family = gdtune.GdFamily(args.rho_lo, args.rho_hi, args.L, args.m_sc, args.c, args.Z, args.nu)
    if args.instances:
        samples = _load_instance_dir(args.instances, ".json", gdtune.load_gd_instance)
    else:
        rng = labeled_rng(args.seed, "gd-instances")
        samples = [gdtune.random_instance(family, args.dim, rng) for _ in range(args.samples)]
    net = gdtune.knet(family) if args.net is None else np.asarray(args.net)
    rho_star, report = gdtune.erm_stepsize(family, samples, net=net)
    return _csv(
        "rho_star,mean_iterations,net_size,K,H",
        [(float(rho_star), report.train_mean, int(net.size), family.K, family.H)],
    )


def cmd_online(args) -> str:
    spec = online.uniform_smooth_spec(args.n, args.sigma, args.intervals)
    generator = online.erdos_renyi_generator(args.n, args.p_er)
    trace = online.run_smoothed_online(spec, generator, args.T, args.seed, args.net_size)
    return trace.to_csv()


def cmd_adversary(args) -> str:
    params = online.adversary_sequence(args.n_budget, args.T, args.seed)
    lines = [online.instance_to_jsonl(p) for p in params]
    return "\n".join(lines) + "\n"


def _probe_costs(args, count: int) -> np.ndarray:
    """(candidates x instances) costs of the probed family on `count` random instances."""
    if args.family == "constant":
        return np.full((4, count), 0.5)
    rng = labeled_rng(args.seed, "pdim-instances")
    if args.family == "mwis":
        fam = greedy.mwis_family(args.n)
        instances = [greedy.random_mwis_instance(args.n, 0.5, rng) for _ in range(count)]
    else:
        fam = greedy.knapsack_family(args.n, (0.0, 2.0))
        instances = [greedy.random_knapsack_instance(args.n, rng) for _ in range(count)]
    return greedy.piece_costs(fam, instances)[1]


def cmd_pdim_probe(args) -> str:
    for option, value in (("--sets", args.sets), ("--set-size", args.set_size)):
        if value < 1:
            raise ValueError(f"{option} must be >= 1, got {value}")
    costs = _probe_costs(args, args.sets * args.set_size)
    sets = [range(i * args.set_size, (i + 1) * args.set_size) for i in range(args.sets)]
    reports = shatter_probe(costs, sets)
    payload = [
        {
            "set_size": r.set_size,
            "shattered": r.shattered,
            "labeling_count": r.labeling_count,
            "witnesses": list(r.witnesses) if r.witnesses else None,
        }
        for r in reports
    ]
    return json.dumps({"family": args.family, "reports": payload}, indent=2) + "\n"


def cmd_epm(args) -> str:
    fam = greedy.mwis_family(args.n)
    fmap = epm_mod.mwis_feature_map()
    rng = labeled_rng(args.seed, "epm-instances")
    train = [greedy.random_mwis_instance(args.n, args.p_er, rng) for _ in range(args.samples)]
    holdout = [greedy.random_mwis_instance(args.n, args.p_er, rng) for _ in range(args.holdout)]
    costs = greedy.cost_matrix(fam, train, args.rhos)
    epms = epm_mod.fit_linear_epms(args.rhos, train, costs, fmap)
    hits = 0
    for x, held in zip(holdout, greedy.cost_matrix(fam, holdout, args.rhos).T):
        predicted = epm_mod.select_per_instance(epms, x, fmap, MAXIMIZE)
        truth = max(zip(held.tolist(), args.rhos), key=lambda cell: (cell[0], -cell[1]))[1]
        hits += predicted == truth
    payload = {
        "epms": [epm_mod.epm_to_dict(e) for e in epms],
        "holdout_instances": len(holdout),
        "selection_matches_true_best": hits,
    }
    return json.dumps(payload, indent=2) + "\n"


def cmd_sort_bench(args) -> str:
    if args.n < 1:
        raise ValueError(f"--n must be >= 1, got {args.n}")
    rng = labeled_rng(args.seed, "sort-bench")
    if args.train_csv:
        train = sorter.load_arrays_csv(args.train_csv)
        tests = sorter.load_arrays_csv(args.test_csv) if args.test_csv else train
    else:
        def draw(count):
            if args.dist == "uniform":
                return [rng.uniform(0, 1, args.n) for _ in range(count)]
            centers = (np.arange(args.n) + 0.5) / args.n
            half = 0.3 / args.n
            return [np.clip(centers + rng.uniform(-half, half, args.n), 0, 1) for _ in range(count)]

        train = draw(args.train)
        tests = draw(args.test)
    trained = sorter.train_sorter(train)
    rows = []
    for i, arr in enumerate(tests):
        out, stats = sorter.sort(trained, arr)
        reference, merge_comparisons = sorter.mergesort_count(list(arr))
        rows.append((
            i, stats.comparisons, stats.routing_comparisons, stats.insertion_comparisons,
            stats.merge_comparisons, int(stats.fallback), int(list(out) == reference),
            merge_comparisons,
        ))
    return _csv(
        "array_index,comparisons,routing,insertion,merge,fallback,matches_reference,mergesort_comparisons",
        rows,
    )


class _Parser(argparse.ArgumentParser):
    """Usage errors raise, so `main` reports them as one JSON line too."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="algoselect",
        description="Seeded experiment harness for data-driven algorithm selection",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--seed", type=int, default=0, help="root seed for all randomness")
        p.add_argument("--out", required=True, help="output file path")
        p.set_defaults(func=func)
        return p

    p = command("erm-greedy", cmd_erm_greedy, "best greedy parameter via breakpoint ERM")
    p.add_argument("--problem", choices=["mwis", "knapsack"], default="mwis")
    p.add_argument("--variant", choices=["nonadaptive", "adaptive"], default="nonadaptive")
    p.add_argument("--instances", required=True, help="directory of instance files")
    p.add_argument("--rho-lo", type=float, default=0.0)
    p.add_argument("--rho-hi", type=float, default=1.0)
    p.add_argument("--holdout-frac", type=float, default=0.5)

    p = command("gd-tune", cmd_gd_tune, "best gradient descent step size over the net")
    p.add_argument("--rho-lo", type=float, default=0.1)
    p.add_argument("--rho-hi", type=float, default=0.4)
    p.add_argument("--L", type=float, default=4.0)
    p.add_argument("--m-sc", type=float, default=1.0)
    p.add_argument("--c", type=float, default=0.1)
    p.add_argument("--Z", type=float, default=1.0)
    p.add_argument("--nu", type=float, default=0.01)
    p.add_argument("--instances", help="directory of instance JSON files (default: generate)")
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--net", type=_numbers, help="explicit comma-separated net (default: the K-net)")

    p = command("online", cmd_online, "no-regret selection on smoothed instances")
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--sigma", type=float, default=0.25)
    p.add_argument("--T", type=int, default=1000)
    p.add_argument("--p-er", type=float, default=0.3)
    p.add_argument("--intervals", type=_intervals, default="0:1",
                   help="weight support, e.g. 0.6:0.65,0.82:0.87")
    p.add_argument("--net-size", type=int, default=10000)

    p = command("adversary", cmd_adversary, "nested-window instance sequence (JSON lines)")
    p.add_argument("--n-budget", type=int, default=1500)
    p.add_argument("--T", type=int, default=10)

    p = command("pdim-probe", cmd_pdim_probe, "brute-force shattering probe")
    p.add_argument("--family", choices=["mwis", "knapsack", "constant"], default="mwis")
    p.add_argument("--n", type=int, default=6, help="instance size")
    p.add_argument("--sets", type=int, default=3, help="number of instance sets to probe")
    p.add_argument("--set-size", type=int, default=2)

    p = command("epm", cmd_epm, "fit per-algorithm linear performance models")
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--p-er", type=float, default=0.3)
    p.add_argument("--rhos", type=_numbers, default="0.0,0.5,1.0")
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--holdout", type=int, default=100)

    p = command("sort-bench", cmd_sort_bench, "train a bucket sorter and benchmark it")
    p.add_argument("--n", type=int, default=256)
    p.add_argument("--train", type=int, default=200)
    p.add_argument("--test", type=int, default=100)
    p.add_argument("--dist", choices=["uniform", "skewed"], default="skewed")
    p.add_argument("--train-csv", help="training arrays CSV (overrides generation)")
    p.add_argument("--test-csv", help="test arrays CSV")

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        atomic_write_text(args.out, args.func(args))
        return 0
    except (ValueError, KeyError, OSError, TypeError, gdtune.GuaranteedProgressError) as exc:
        sys.stderr.write(json.dumps({"error": str(exc), "type": type(exc).__name__}) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
