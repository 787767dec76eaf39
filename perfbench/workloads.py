"""The benchmark's workloads, built from five stages.

A stage is one kind of operation with its inputs: breakpoint-ERM and other
offline selection jobs, smoothed online selection, the adversary replay,
step-size tuning, and the self-improving sorter.  Each stage makes its inputs
from the seed in `setup`, runs one round of identical operations per `run`
call (the timed part), and checks the outputs in `check` against the
computations in `reference.py`.  The first round is checked against the
references in full; every later round must reproduce its outputs byte for
byte, and is checked by that comparison.

A workload runs its own stage at stress size and every other stage at a
small probe size, so that every run reports every end-to-end metric; the
metric a workload is named for is measured at stress size there.

Timed operations drive the program through `algoselect.cli.main`, in
process.  The sorter and the adversary replay have no subcommand that times
what is measured here, so they call the library entry points.  Every call
goes through a module attribute, so the traced run sees it.
"""

from __future__ import annotations

import csv
import gc
import io
import json
import math
import os
import time
from fractions import Fraction

import numpy as np

import reference as ref
from algoselect import cli, greedy, online, sorter

clock = time.perf_counter

# Reference time of `calibrate` on an uncontended core of the machine the
# figures in README.md come from (its fastest runs; see "Steadiness").
CALIBRATION_S = 0.015


def calibrate() -> float:
    """Seconds taken by a fixed mix of interpreter and small-array work,
    the two kinds of work the library's hot paths do."""
    start = clock()
    total, table = 0, {}
    for i in range(60_000):
        total += i * i
        table[i & 255] = total
    sorted(range(20_000), key=lambda x: -x)
    x = np.linspace(0.0, 1.0, 64)
    acc = 0.0
    for i in range(1_400):
        acc += float(np.log1p(np.sort(x * i)).sum())
    return clock() - start


class Stopwatch:
    """Times operations at calibration speed.

    On a shared host the speed of a core swings by up to 2x for seconds to
    minutes at a time.  Every timed operation runs between two calibration
    loops (each loop shared with the neighbouring operation); its time is
    scaled by CALIBRATION_S / (their mean time), which takes the machine's
    momentary speed out.  Medians over rounds do the rest.
    """

    def __init__(self) -> None:
        self.last = calibrate()
        self.total = 0.0

    def time(self, fn, *args):
        """(fn(*args), seconds at calibration speed)."""
        start = clock()
        result = fn(*args)
        elapsed = clock() - start
        after = calibrate()
        seconds = elapsed * CALIBRATION_S / ((self.last + after) / 2)
        self.last = after
        self.total += seconds
        return result, seconds


def median(values) -> float:
    return float(np.median(np.asarray(values, dtype=float)))


class Failure:
    """One operation whose output was wrong or that raised."""

    def __init__(self, op: str, message: str, expected: bool = False):
        self.op, self.message, self.expected = op, message, expected

    def __str__(self) -> str:
        tag = "known fault" if self.expected else "FAIL"
        return f"{tag}: {self.op}: {self.message}"


def run_cli(argv: list[str]) -> str | None:
    """Run one CLI command in process; returns an error message or None."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        return f"exited with {exc.code}"
    except Exception as exc:  # the program's own fault: report it, keep running
        return f"raised {type(exc).__name__}: {exc}"
    return None if code == 0 else f"returned {code}"


def read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def parse_csv(data: bytes) -> list[dict]:
    return list(csv.DictReader(io.StringIO(data.decode("utf-8"))))


def check_repeats(results: list[dict], failures: list[Failure]) -> None:
    """Later rounds must reproduce the first round's outputs byte for byte;
    an operation that failed in the first round fails in every round."""
    first = results[0]["outputs"]
    failed_first = {f.op: f for f in failures}
    for k, result in enumerate(results[1:], start=2):
        for op, data in result["outputs"].items():
            if op in failed_first:
                failures.append(failed_first[op])
            elif data != first[op]:
                failures.append(Failure(op, f"round {k} output differs from round 1"))


class Stage:
    """One kind of operation; subclasses define `setup`, `run`, `check`, `metrics`."""

    name = ""

    def __init__(self, seed: int, **config):
        self.seed = seed
        self.config = config
        self.workdir = ""

    def rng(self) -> np.random.Generator:
        return np.random.default_rng([self.seed, STAGE_STREAMS[self.name]])

    def path(self, *parts: str) -> str:
        return os.path.join(self.workdir, *parts)

    def cli_jobs(self) -> dict[str, list[str]]:
        """Subcommand argument lists, without --out."""
        return {}

    def run_jobs(self, watch: Stopwatch) -> dict:
        times, outputs, errors = {}, {}, {}
        for job, argv in self.cli_jobs().items():
            out = self.path(f"{job}.out")
            errors[job], times[job] = watch.time(run_cli, argv + ["--out", out])
            outputs[job] = b"" if errors[job] else read_bytes(out)
            if os.path.exists(out):
                os.remove(out)
        return {"times": times, "outputs": outputs, "errors": errors}


# ---------------------------------------------------------------------------
# Offline selection jobs
# ---------------------------------------------------------------------------

# Degree sequence shared by every generated MWIS graph: four distinct
# degrees, so crossings exist, and a fixed degree mix, so the work per graph
# does not swing with the seed.
DEGREES = (1, 1, 2, 2, 2, 3, 3, 4)
WEIGHT_PALETTE = 1.17 ** -np.arange(12, dtype=float)
KNAPSACK_ITEMS = 10
# ROADMAP item 1 repro: equal-value items tie exactly at rho = 0.
TIE_REPRO = (([1.0, 1.0, 1.0], [2.0, 1.0, 1.0], 2.0), ([2.0, 1.5], [2.0, 1.0], 2.0))
TIE_JOB = "erm-knapsack-tie"
TIE_FOUND = "known fault of breakpoint ERM at tie points (FOUND line for greedy.erm_breakpoint in CHANGES.md)"
GRID_POINTS = 2001
PDIM = {"n": 6, "sets": 3, "set_size": 2}
EPM = {"n": 8, "p_er": 0.3, "rhos": (0.0, 0.5, 1.0), "samples": 60, "holdout": 30}


def havel_hakimi(degrees) -> list[tuple[int, int]]:
    remaining = [[d, v] for v, d in enumerate(degrees)]
    edges = []
    while True:
        remaining.sort(key=lambda item: (-item[0], item[1]))
        d, v = remaining[0]
        if d == 0:
            return edges
        for item in remaining[1:d + 1]:
            item[0] -= 1
            edges.append((min(v, item[1]), max(v, item[1])))
        remaining[0][0] = 0


def degree_preserving_graph(degrees, rng, swaps: int) -> list[tuple[int, int]]:
    """A random graph with the given degree sequence: double-edge swaps from
    the Havel-Hakimi graph, each kept only if it adds no loop or repeat."""
    edges = havel_hakimi(degrees)
    present = set(edges)
    for _ in range(swaps):
        i, j = rng.choice(len(edges), size=2, replace=False)
        (a, b), (c, d) = edges[i], edges[j]
        if rng.random() < 0.5:
            c, d = d, c
        new1, new2 = (min(a, d), max(a, d)), (min(c, b), max(c, b))
        if a == d or c == b or new1 in present or new2 in present or new1 == new2:
            continue
        present -= {edges[i], edges[j]}
        present |= {new1, new2}
        edges[i], edges[j] = new1, new2
    return sorted(edges)


def lattice(rng, count: int, slots: int) -> np.ndarray:
    """count x slots values in (0, 1]: for every slot, the `count` points
    (k + 1 - u_slot) / count of a shifted lattice, in random order.

    The shifts are u_slot = u + slot / slots (mod 1) for one random u, so the
    slots' lattices interleave evenly and no two values coincide.  The pooled
    values are then spread the same way for every seed, so the number of
    score crossings, and with it the work, barely moves with the seed.
    """
    shift = (rng.random() + np.arange(slots) / slots) % 1.0
    return np.stack([(rng.permutation(count) + 1.0 - shift[k]) / count for k in range(slots)], axis=1)


def lattice_2d(rng, count: int) -> np.ndarray:
    """count points of a randomly shifted Fibonacci lattice in (0, 1]^2, in
    random order: evenly spread in the plane, not just along each axis."""
    k = np.arange(count)
    u = rng.random(2)
    points = np.stack([(k + u[0]) / count, (k * 0.6180339887498949 + u[1]) % 1.0], axis=1)
    return 1.0 - points[rng.permutation(count)]


def write_mwis(path: str, edges, weights) -> None:
    with open(path, "w") as fh:
        json.dump({"n": len(weights), "edges": [list(e) for e in edges],
                   "weights": [float(w) for w in weights]}, fh)


def write_knapsack(path: str, values, sizes, capacity) -> None:
    lines = [f"capacity={float(capacity)!r}", "value,size"]
    lines += [f"{float(v)!r},{float(s)!r}" for v, s in zip(values, sizes)]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


class OfflineJobs(Stage):
    """CLI selection jobs: breakpoint ERM, the shattering probe and EPM fits.

    config: cont_graphs, palette_graphs, knapsack_sets (instances per set)
    and jobs (the job names to run, from `all_jobs`).
    """

    name = "offline"

    def setup(self, workdir: str) -> None:
        self.workdir = workdir
        rng = self.rng()
        cfg = self.config
        n = len(DEGREES)
        weights = lattice(rng, cfg["cont_graphs"], n)
        points = lattice_2d(rng, cfg["knapsack_sets"] * KNAPSACK_ITEMS)
        values = (1.0 + 9.0 * points[:, 0]).reshape(-1, KNAPSACK_ITEMS)
        sizes = (1.0 + 7.0 * points[:, 1]).reshape(-1, KNAPSACK_ITEMS)
        self.sets = {
            "mwis-cont": [(degree_preserving_graph(DEGREES, rng, 40), weights[k])
                          for k in range(cfg["cont_graphs"])],
            "mwis-palette": [(degree_preserving_graph(DEGREES, rng, 40),
                              rng.choice(WEIGHT_PALETTE, n, replace=False))
                             for _ in range(cfg["palette_graphs"])],
            "knapsack-cont": [(values[k], sizes[k], 0.5 * float(sizes[k].sum()))
                              for k in range(cfg["knapsack_sets"])],
            "knapsack-tie": list(TIE_REPRO),
        }
        for set_name, items in self.sets.items():
            os.makedirs(self.path(set_name))
            for k, item in enumerate(items):
                if set_name.startswith("mwis"):
                    write_mwis(self.path(set_name, f"g{k:03d}.json"), *item)
                else:
                    write_knapsack(self.path(set_name, f"k{k:03d}.csv"), *item)
        jobs = self.all_jobs()
        self.jobs = {job: jobs[job] for job in cfg["jobs"]}

    def all_jobs(self) -> dict[str, list[str]]:
        seed = str(self.seed)
        erm = ["erm-greedy", "--seed", seed]
        # No holdout on the continuous sets: the whole set is the training
        # set, so the pooled crossing count does not depend on the split.
        cont = erm + ["--instances", self.path("mwis-cont"), "--holdout-frac", "0"]
        palette = erm + ["--instances", self.path("mwis-palette")]
        knapsack = erm + ["--problem", "knapsack", "--rho-hi", "2", "--holdout-frac", "0"]
        return {
            "erm-mwis-cont-nonadaptive": cont,
            "erm-mwis-cont-adaptive": cont + ["--variant", "adaptive"],
            "erm-mwis-palette-nonadaptive": palette,
            "erm-mwis-palette-adaptive": palette + ["--variant", "adaptive"],
            "erm-knapsack-cont": knapsack + ["--instances", self.path("knapsack-cont")],
            TIE_JOB: knapsack + ["--instances", self.path("knapsack-tie")],
            "pdim-probe": ["pdim-probe", "--seed", seed, "--family", "mwis",
                           "--n", str(PDIM["n"]), "--sets", str(PDIM["sets"]),
                           "--set-size", str(PDIM["set_size"])],
            "epm": ["epm", "--seed", seed, "--n", str(EPM["n"]), "--p-er", str(EPM["p_er"]),
                    "--rhos", ",".join(str(r) for r in EPM["rhos"]),
                    "--samples", str(EPM["samples"]), "--holdout", str(EPM["holdout"])],
        }

    def cli_jobs(self):
        return self.jobs

    def run(self, watch: Stopwatch) -> dict:
        return self.run_jobs(watch)

    def ops(self) -> int:
        return len(self.jobs)

    def metrics(self, results):
        round_s = median([sum(r["times"].values()) for r in results])
        return {"offline_jobs_per_s": (len(self.jobs) / round_s, "jobs/s")}

    def check(self, results):
        first = results[0]
        failures = []
        for job, argv in self.jobs.items():
            if first["errors"][job]:
                failures.append(Failure(job, first["errors"][job]))
                continue
            try:
                if job.startswith("erm-"):
                    message = self._check_erm(job, argv, first["outputs"][job])
                elif job == "pdim-probe":
                    message = self._check_pdim(first["outputs"][job])
                else:
                    message = self._check_epm(first["outputs"][job])
            except (ValueError, KeyError, IndexError) as exc:
                message = f"unreadable output: {exc!r}"
            if message:
                if job == TIE_JOB:
                    message += f"; {TIE_FOUND}"
                failures.append(Failure(job, message, expected=job == TIE_JOB))
        check_repeats(results, failures)
        return failures

    @staticmethod
    def _value_fn(job: str):
        if "knapsack" in job:
            return lambda item, rho: ref.knapsack_value(item[0], item[1], item[2], rho)
        adaptive = job.endswith("-adaptive")

        def value(item, rho):
            edges, weights = item
            return ref.mwis_value(list(weights), ref.adjacency(len(weights), edges), rho, adaptive)
        return value

    def _check_erm(self, job: str, argv: list[str], data: bytes) -> str | None:
        (row,) = parse_csv(data)
        items = self.sets[os.path.basename(argv[argv.index("--instances") + 1])]
        frac = float(argv[argv.index("--holdout-frac") + 1]) if "--holdout-frac" in argv else 0.5
        hi = float(argv[argv.index("--rho-hi") + 1]) if "--rho-hi" in argv else 1.0
        train_ids, hold_ids = ref.train_holdout_split(len(items), self.seed, frac)
        value = self._value_fn(job)
        rho_star = float(row["rho_star"])
        train_mean = float(row["train_mean"])
        train = [items[i] for i in train_ids]
        ref_train = math.fsum(value(x, rho_star) for x in train) / len(train)
        if not ref.close(ref_train, train_mean):
            return f"train_mean {train_mean} but the reference mean at rho_star={rho_star} is {ref_train}"
        hold = [items[i] for i in hold_ids] or train
        ref_hold = math.fsum(value(x, rho_star) for x in hold) / len(hold)
        if not ref.close(ref_hold, float(row["holdout_mean"])):
            return f"holdout_mean {row['holdout_mean']} but the reference mean is {ref_hold}"
        grid = np.linspace(0.0, hi, GRID_POINTS)
        means = [math.fsum(value(x, rho) for x in train) / len(train) for rho in grid]
        best = int(np.argmax(means))
        if means[best] > train_mean and not ref.close(means[best], train_mean):
            return (f"train_mean {train_mean} at rho_star={rho_star}, but rho={float(grid[best])} "
                    f"scores {means[best]} under the reference greedy")
        return None

    def _cli_instances(self, label: str, count: int, n: int, p: float):
        """The instances a seeded subcommand draws, rebuilt from the library's
        public generator and the subcommand's labeled stream."""
        rng = ref.labeled_generator(self.seed, label)
        return [greedy.random_mwis_instance(n, p, rng) for _ in range(count)]

    def _check_pdim(self, data: bytes) -> str | None:
        payload = json.loads(data)
        size = PDIM["set_size"]
        instances = self._cli_instances("pdim-instances", PDIM["sets"] * size, PDIM["n"], 0.5)
        for k, report in enumerate(payload["reports"]):
            if not report["shattered"]:
                continue
            members = instances[k * size:(k + 1) * size]
            graphs = [(x.weights.tolist(), ref.adjacency(x.n, x.edges.tolist())) for x in members]
            # Every behaviour on [0, 1]: the crossings themselves and the
            # midpoints between consecutive ones, over all set members.
            points = [np.zeros(1), np.ones(1)]
            points += [ref.mwis_step_function(w, adj, 0.0, 1.0)[0] for w, adj in graphs]
            grid = np.unique(np.concatenate(points))
            candidates = np.concatenate([grid, (grid[:-1] + grid[1:]) / 2.0])
            witnesses = report["witnesses"]
            labelings = {
                tuple(ref.mwis_value(w, adj, rho, False) > wit for (w, adj), wit in zip(graphs, witnesses))
                for rho in candidates
            }
            if len(labelings) != 2**size or report["labeling_count"] != 2**size:
                return (f"set {k} reported shattered by witnesses {witnesses}, but the reference "
                        f"greedy realizes {len(labelings)} of {2**size} labelings")
        return None

    def _check_epm(self, data: bytes) -> str | None:
        payload = json.loads(data)
        total = EPM["samples"] + EPM["holdout"]
        instances = self._cli_instances("epm-instances", total, EPM["n"], EPM["p_er"])
        graphs = [(x.weights.tolist(), ref.adjacency(x.n, x.edges.tolist())) for x in instances]

        def features(w, adj):
            # The documented default features: intercept, size, edge density,
            # mean and max weight, mean degree.
            degrees = [len(a) for a in adj]
            return [1.0, float(len(w)), sum(degrees) / 2 / len(w), float(np.mean(w)), float(max(w)),
                    float(np.mean(degrees))]

        X = np.asarray([features(w, adj) for w, adj in graphs])
        train_X, hold_X = X[:EPM["samples"]], X[EPM["samples"]:]
        labels = np.asarray([[ref.mwis_value(w, adj, rho, False) for rho in EPM["rhos"]]
                             for w, adj in graphs])
        coefs = []
        for k, model in enumerate(payload["epms"]):
            coef = np.asarray(model["coefficients"], dtype=float)
            coefs.append(coef)
            y = labels[:EPM["samples"], k]
            gradient = train_X.T @ (train_X @ coef - y)
            scale = np.linalg.norm(train_X) * (np.linalg.norm(train_X) * np.linalg.norm(coef)
                                               + np.linalg.norm(y))
            if np.abs(gradient).max() > 1e-9 * scale:
                return (f"model for rho={model['algorithm_index']} misses the normal equations: "
                        f"|X^T(X b - y)| = {np.abs(gradient).max():.3e}")
            loss = float(np.mean((train_X @ coef - y) ** 2))
            if not math.isclose(loss, model["training_loss"], rel_tol=1e-6, abs_tol=1e-12):
                return f"training_loss {model['training_loss']} but the residual gives {loss}"
        predicted = np.argmax(hold_X @ np.stack(coefs).T, axis=1)
        truth = np.argmax(labels[EPM["samples"]:], axis=1)  # first maximum: the smallest rho
        hits = int((predicted == truth).sum())
        if hits != payload["selection_matches_true_best"]:
            return (f"selection_matches_true_best {payload['selection_matches_true_best']} but the "
                    f"models pick the reference best on {hits}")
        return None


# ---------------------------------------------------------------------------
# Smoothed online selection
# ---------------------------------------------------------------------------

SMOOTHED = {"n": 8, "sigma": 0.25, "p_er": 0.3, "net_size": 10_000}
HEDGE_DELTA = 1e-6


class SmoothedOnline(Stage):
    """CLI `online` on Erdos-Renyi graphs with smoothed weights.  config: T."""

    name = "smoothed"

    def setup(self, workdir: str) -> None:
        self.workdir = workdir
        self.T = self.config["T"]

    def cli_jobs(self):
        return {"online": ["online", "--seed", str(self.seed), "--n", str(SMOOTHED["n"]),
                           "--sigma", str(SMOOTHED["sigma"]), "--p-er", str(SMOOTHED["p_er"]),
                           "--T", str(self.T), "--net-size", str(SMOOTHED["net_size"])]}

    def run(self, watch: Stopwatch) -> dict:
        return self.run_jobs(watch)

    def ops(self) -> int:
        return self.T

    def metrics(self, results):
        round_s = median([r["times"]["online"] for r in results])
        return {"online_rounds_per_s": (self.T / round_s, "rounds/s")}

    def check(self, results):
        first = results[0]
        failures = []
        if first["errors"]["online"]:
            failures.append(Failure("online", first["errors"]["online"]))
        else:
            message = self._check_trace(first["outputs"]["online"])
            if message:
                failures.append(Failure("online", message))
        check_repeats(results, failures)
        return failures

    def _check_trace(self, data: bytes) -> str | None:
        rows = parse_csv(data)
        T, N = self.T, SMOOTHED["net_size"]
        if len(rows) != T:
            return f"trace has {len(rows)} rows, expected {T}"
        # The instance stream the subcommand drew, rebuilt by the library.
        spec = online.uniform_smooth_spec(SMOOTHED["n"], SMOOTHED["sigma"])
        stream = online.smooth_sequence(
            spec, online.erdos_renyi_generator(SMOOTHED["n"], SMOOTHED["p_er"]), T, self.seed)
        net = np.linspace(0.0, 1.0, N)
        totals = np.zeros(N)
        collected = 0.0
        for t, (row, x) in enumerate(zip(rows, stream)):
            weights = x.weights.tolist()
            adj = ref.adjacency(x.n, x.edges.tolist())
            scale = math.fsum(weights)
            rho = float(row["chosen_rho"])
            expected = ref.mwis_value(weights, adj, rho, False) / scale
            cost = float(row["cost"])
            if not ref.close(cost, expected):
                return f"step {t + 1}: cost {cost} but the reference greedy at rho={rho} gives {expected}"
            tau, pieces = ref.mwis_step_function(weights, adj, 0.0, 1.0)
            totals += pieces[np.searchsorted(tau, net, side="right")] / scale
            collected += cost
        regret = (totals.max() - collected) / T
        bound = math.sqrt(math.log(N) / (2 * T)) + math.sqrt(2 * math.log(1 / HEDGE_DELTA) / T)
        if regret > bound:
            return f"average regret {regret} above the Hedge bound {bound} (delta={HEDGE_DELTA})"
        if not ref.close(float(rows[-1]["cum_best"]), float(totals.max())):
            return f"final cum_best {rows[-1]['cum_best']} but the best net total is {totals.max()}"
        return None


# ---------------------------------------------------------------------------
# Nested-window adversary, replayed
# ---------------------------------------------------------------------------


class AdversaryReplay(Stage):
    """CLI `adversary` writes a window sequence; each round of it is replayed:
    parsed, its graph built, and the exact greedy run inside and outside the
    window.  config: n_budget, T."""

    name = "replay"

    def setup(self, workdir: str) -> None:
        self.workdir = workdir
        self.T = self.config["T"]

    def cli_jobs(self):
        return {"adversary": ["adversary", "--seed", str(self.seed),
                              "--n-budget", str(self.config["n_budget"]), "--T", str(self.T)]}

    @staticmethod
    def replay(line: str):
        params = online.instance_from_jsonl(line)
        instance = online.build_hard_instance(params)
        family = greedy.mwis_family(instance.n)
        inside = greedy.run_greedy(family, (params.r + params.s) / 2, instance)
        outside = greedy.run_greedy(family, params.s + (params.s - params.r), instance)
        return params, instance, inside, outside

    def run(self, watch: Stopwatch) -> dict:
        result = self.run_jobs(watch)
        result["replay"] = []
        if not result["errors"]["adversary"]:
            for j, line in enumerate(result["outputs"]["adversary"].decode("utf-8").splitlines()):
                replayed, result["times"][f"replay {j + 1}"] = watch.time(self.replay, line)
                result["replay"].append(self._check_replay(*replayed))
                del replayed  # one graph alive at a time: peak memory is the library's
        return result

    @staticmethod
    def _check_replay(params, instance, inside, outside) -> str | None:
        """Checked right away (untimed), so the big graph need not be kept."""
        m = params.m
        (in_ids, in_cost), (out_ids, out_cost) = inside, outside
        if not ref.is_independent(instance.n, instance.edges, in_ids):
            return "in-window solution is not independent"
        if not ref.is_independent(instance.n, instance.edges, out_ids):
            return "out-of-window solution is not independent"
        if not ref.close(in_cost.value, 1.0):
            return f"in-window value {in_cost.value}, expected 1"
        bound = m**-0.5 + 1.0 / (m - 1)
        if not out_cost.value < bound:
            return f"out-of-window value {out_cost.value} not below m^-1/2 + 1/(m-1) = {bound}"
        return None

    def ops(self) -> int:
        return self.T

    def metrics(self, results):
        round_s = median([sum(r["times"].values()) for r in results])
        return {"replay_rounds_per_s": (self.T / round_s, "rounds/s")}

    def check(self, results):
        first = results[0]
        failures = []
        if first["errors"]["adversary"]:
            failures.append(Failure("adversary", first["errors"]["adversary"]))
        else:
            message = self._check_windows(first["outputs"]["adversary"])
            if message:
                failures.append(Failure("adversary", message))
        for k, result in enumerate(results, start=1):
            for j, message in enumerate(result["replay"], start=1):
                if message:
                    failures.append(Failure(f"replay {j}", f"round {k}: {message}"))
        check_repeats(results, failures)
        return failures

    def _check_windows(self, data: bytes) -> str | None:
        lines = data.decode("utf-8").splitlines()
        if len(lines) != self.T:
            return f"sequence has {len(lines)} lines, expected {self.T}"
        lo, hi = Fraction(0), Fraction(1, 2)
        for j, line in enumerate(lines, start=1):
            payload = json.loads(line)
            m, r, s = payload["m"], Fraction(payload["r"]), Fraction(payload["s"])
            n = (m * m - 2) + (m**3 - 1) + (m * m + m + 1)
            if n > self.config["n_budget"]:
                return f"window {j}: graph of {n} vertices exceeds the budget"
            if not (lo <= r < s <= hi and r > 0):
                return f"window {j}: ({r}, {s}] is not nested inside ({lo}, {hi}]"
            if s - r != Fraction(1, n**j):
                return f"window {j}: width {s - r} is not n^-{j}"
            lo, hi = r, s
        return None


# ---------------------------------------------------------------------------
# Step-size tuning
# ---------------------------------------------------------------------------

GD = {"dim": 2, "rho_l": 0.1, "L": 4.0, "c": 0.1, "Z": 1.0, "nu": 0.01}
# Instance bands: a slow eigenvalue near m_sc = 1 and a fast one near
# 1/rho_u, start points of norm about a third of Z with weight on both
# eigenvectors (angle in radians).  Every band lies where all step sizes of
# the family make guaranteed progress.  Narrow bands keep the iteration
# counts, and with them the work of one sample, within about 2% from seed to
# seed.
GD_BANDS = {"slow": (1.0, 1.02), "fast": (3.0, 3.06), "norm": (0.32, 0.33), "angle": (0.75, 0.80)}


class StepSizeTuning(Stage):
    """CLI `gd-tune` over the full K-net on generated instances.

    config: samples, rho_u (the family's upper step size; 0.4 is the CLI
    default, whose K-net has 12,001 points).
    """

    name = "gd"

    def setup(self, workdir: str) -> None:
        self.workdir = workdir
        S = self.config["samples"]
        u = lattice(self.rng(), S, len(GD_BANDS))
        band = {name: lo + (hi - lo) * u[:, k] for k, (name, (lo, hi)) in enumerate(GD_BANDS.items())}
        self.samples = [
            (np.array([band["slow"][k], band["fast"][k]]),
             band["norm"][k] * np.array([math.cos(band["angle"][k]), math.sin(band["angle"][k])]))
            for k in range(S)
        ]
        os.makedirs(self.path("instances"))
        for k, (lam, z0) in enumerate(self.samples):
            with open(self.path("instances", f"q{k:03d}.json"), "w") as fh:
                json.dump({"lambdas": lam.tolist(), "z0": z0.tolist()}, fh)

    def cli_jobs(self):
        return {"gd-tune": ["gd-tune", "--seed", str(self.seed), "--instances", self.path("instances"),
                            "--rho-hi", str(self.config["rho_u"])]}

    def run(self, watch: Stopwatch) -> dict:
        return self.run_jobs(watch)

    def ops(self) -> int:
        return len(self.samples)

    def metrics(self, results):
        round_s = median([r["times"]["gd-tune"] for r in results])
        return {"gd_samples_per_s": (len(self.samples) / round_s, "samples/s")}

    def check(self, results):
        first = results[0]
        failures = []
        if first["errors"]["gd-tune"]:
            failures.append(Failure("gd-tune", first["errors"]["gd-tune"]))
        else:
            message = self._check(first["outputs"]["gd-tune"])
            if message:
                failures.append(Failure("gd-tune", message))
        check_repeats(results, failures)
        return failures

    def _check(self, data: bytes) -> str | None:
        (row,) = parse_csv(data)
        rho_u = self.config["rho_u"]
        K, H = ref.k_spacing(GD["L"], GD["c"], GD["Z"], GD["nu"], rho_u)
        net = ref.k_net(GD["rho_l"], rho_u, K)
        if not (ref.close(float(row["K"]), K) and ref.close(float(row["H"]), H)):
            return f"K={row['K']}, H={row['H']}; the reference gives K={K}, H={H}"
        if int(row["net_size"]) != net.size:
            return f"net_size {row['net_size']}, the reference K-net has {net.size} points"
        counts = np.stack([ref.gd_iterations(lam, z0, net, GD["nu"], math.ceil(H))
                           for lam, z0 in self.samples])
        if np.abs(np.diff(counts, axis=1)).max() > 1:
            return "iteration counts at adjacent net points differ by more than 1"
        means = counts.mean(axis=0)
        rho_star = float(row["rho_star"])
        k = int(np.argmin(np.abs(net - rho_star)))
        if not ref.close(net[k], rho_star, 1e-12):
            return f"rho_star={rho_star} is not a point of the K-net"
        mean_iterations = float(row["mean_iterations"])
        if means[k] != mean_iterations:
            return f"mean_iterations {mean_iterations}, the reference count at rho_star is {means[k]}"
        if means.min() < mean_iterations:
            return (f"mean_iterations {mean_iterations}, but rho={net[int(np.argmin(means))]} "
                    f"averages {means.min()}")
        return None


# ---------------------------------------------------------------------------
# Self-improving sorter
# ---------------------------------------------------------------------------


class SelfImprovingSort(Stage):
    """Train a bucket sorter, then sort in-distribution and concentrated arrays.

    config: n (keys per array), train, in_distribution, concentrated.
    """

    name = "sort"

    def setup(self, workdir: str) -> None:
        self.workdir = workdir
        rng = self.rng()
        n = self.config["n"]
        # Fixed per-position distribution: position i is uniform on a narrow
        # interval around its own center; centers are a seeded permutation.
        centers = ((np.arange(n) + 0.5) / n)[rng.permutation(n)]
        half = 0.3 / n

        def draw(count):
            return [np.clip(centers + rng.uniform(-half, half, n), 0.0, 1.0) for _ in range(count)]

        self.train = draw(self.config["train"])
        self.tests = draw(self.config["in_distribution"])
        # Concentrated arrays: all keys within 0.3/n, a fraction of a
        # bucket, in decreasing order, so bucket insertion sort exceeds the
        # comparison budget and the sorter falls back to mergesort.
        for _ in range(self.config["concentrated"]):
            base = rng.uniform(0.25, 0.75)
            self.tests.append(base + np.sort(rng.uniform(0.0, 0.3 / n, n))[::-1])

    def sort_all(self, trained):
        return [sorter.sort(trained, array) for array in self.tests]

    def run(self, watch: Stopwatch) -> dict:
        trained, train_s = watch.time(sorter.train_sorter, self.train)
        results, sort_s = watch.time(self.sort_all, trained)
        problems = []
        for k, (array, (out, stats)) in enumerate(zip(self.tests, results)):
            if not np.array_equal(out, np.sort(array)):
                problems.append((k, "output differs from np.sort of the input"))
            elif stats.comparisons != (stats.routing_comparisons + stats.insertion_comparisons
                                       + stats.merge_comparisons):
                problems.append((k, "comparisons != routing + insertion + merge"))
            elif k >= self.config["in_distribution"] and not stats.fallback:
                problems.append((k, "concentrated array did not take the mergesort fallback"))
        in_dist = [stats.comparisons for _, stats in results[:self.config["in_distribution"]]]
        return {"times": {"train": train_s, "sort": sort_s}, "problems": problems,
                "comparisons": sum(stats.comparisons for _, stats in results),
                "in_dist_mean": float(np.mean(in_dist))}

    def ops(self) -> int:
        return len(self.tests)

    def metrics(self, results):
        keys = len(self.tests) * self.config["n"]
        return {
            "sorter_train_s": (median([r["times"]["train"] for r in results]), "s"),
            "sort_keys_per_s": (keys / median([r["times"]["sort"] for r in results]), "keys/s"),
            # Identical in every round: the comparisons are a function of the inputs.
            "sort_comparisons_per_key": (results[0]["comparisons"] / keys, "comparisons/key"),
        }

    def check(self, results):
        n = self.config["n"]
        failures = []
        for k, result in enumerate(results, start=1):
            failures += [Failure(f"sort array {i}", f"round {k}: {msg}") for i, msg in result["problems"]]
            if result["comparisons"] != results[0]["comparisons"]:
                failures.append(Failure("sort", f"round {k}: comparison count differs from round 1"))
            if not result["in_dist_mean"] < n * math.log2(n):
                failures.append(Failure("sort", f"round {k}: mean comparisons {result['in_dist_mean']} "
                                                "on in-distribution arrays not below n log2 n"))
        return failures


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

# Offsets that give each stage its own input stream for one --seed.
STAGE_STREAMS = {"offline": 1, "smoothed": 2, "replay": 3, "gd": 4, "sort": 5}

ERM_ALL = ("erm-mwis-cont-nonadaptive", "erm-mwis-cont-adaptive", "erm-mwis-palette-nonadaptive",
           "erm-mwis-palette-adaptive", "erm-knapsack-cont", TIE_JOB, "pdim-probe", "epm")
STRESS = {
    "offline": dict(cont_graphs=5, palette_graphs=8, knapsack_sets=8, jobs=ERM_ALL),
    "smoothed": dict(T=500),
    "replay": dict(n_budget=2500, T=2),
    "gd": dict(samples=1, rho_u=0.4),
    "sort": dict(n=256, train=200, in_distribution=100, concentrated=20),
}
PROBE = {
    "offline": dict(cont_graphs=3, palette_graphs=4, knapsack_sets=5,
                    jobs=("erm-mwis-cont-adaptive", "erm-knapsack-cont")),
    "smoothed": dict(T=50),
    "replay": dict(n_budget=200, T=2),
    "gd": dict(samples=4, rho_u=0.105),
    "sort": dict(n=128, train=50, in_distribution=60, concentrated=8),
}
STAGES = {"offline": OfflineJobs, "smoothed": SmoothedOnline, "replay": AdversaryReplay,
          "gd": StepSizeTuning, "sort": SelfImprovingSort}
# Each workload's own stages run at stress size, the rest at probe size.
WORKLOADS = {
    "offline-erm": ("offline",),
    "online": ("smoothed", "replay"),
    "gd-tune": ("gd",),
    "self-improving-sort": ("sort",),
}


class Workload:
    """All five stages, the named ones at stress size, run as one round."""

    def __init__(self, name: str, seed: int):
        self.stages = [cls(seed, **(STRESS if key in WORKLOADS[name] else PROBE)[key])
                       for key, cls in STAGES.items()]

    def setup(self, workdir: str) -> None:
        for stage in self.stages:
            os.makedirs(os.path.join(workdir, stage.name))
            stage.setup(os.path.join(workdir, stage.name))

    def run_round(self) -> dict:
        """One round of every stage; `wall` is its time at calibration speed."""
        # Every round starts from a collected heap, so the collector's passes
        # fall at the same points of the same operations in every round.
        gc.collect()
        watch = Stopwatch()
        rnd = {stage.name: stage.run(watch) for stage in self.stages}
        rnd["wall"] = watch.total
        return rnd

    def check(self, rounds: list[dict]) -> tuple[int, list[Failure]]:
        """(operations attempted, failures) over all rounds."""
        attempted, failures = 0, []
        for stage in self.stages:
            attempted += len(rounds) * stage.ops()
            failures += stage.check([r[stage.name] for r in rounds])
        return attempted, failures

    def metrics(self, rounds: list[dict]) -> dict[str, tuple[float, str]]:
        metrics = {}
        for stage in self.stages:
            metrics.update(stage.metrics([r[stage.name] for r in rounds]))
        return metrics
