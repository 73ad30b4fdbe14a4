"""treembed benchmark: one workload per run, closed loop, one caller.

Run from the repository root:

    python3 perfbench/run.py --workload extremal-proofs --seed 1 --seconds 20 --trace 0

The library is imported from ./src, the metric names and units come from
./BENCHMARK.json.  With --trace 0 the run times whole passes over the
workload's instances until --seconds have passed and prints the end-to-end
metrics, with times scaled by a speed reference timed alongside them (see
perfbench/README.md); with --trace 1 it alternates untraced and traced
passes and prints the per-layer metrics.  Every verdict is checked; the
last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import tempfile
import time
import traceback
from collections import Counter
from pathlib import Path

import measure
import spans as tracing
from workloads import NODE_BUDGET, WORKLOADS

# times import and fixture building are timed, spread over the run
SETUP_REPEATS = 12
# instance time between two timings of the speed reference
REFERENCE_EVERY_S = 0.05
# the timed loop stops after the first whole pass past this many seconds,
# even if it has fewer samples than p90 needs
MAX_LOOP_S = 120.0
DECIDED = ("embedded", "not_embedded")


def import_treembed(src: Path):
    """Import treembed afresh from src, so each call pays the full import."""
    for name in [n for n in sys.modules if n.split(".")[0] == "treembed"]:
        del sys.modules[name]
    tb = importlib.import_module("treembed")
    importlib.import_module("treembed.cli")
    if Path(tb.__file__).resolve().parent != (src / "treembed").resolve():
        raise ImportError(f"treembed came from {tb.__file__}, not from {src}")
    return tb


def reference_time() -> float:
    """Time of a second run of the reference, so that it runs from warm
    caches and what the instances left in them does not count."""
    measure.reference()
    t0 = time.perf_counter()
    measure.reference()
    return time.perf_counter() - t0


def scale_of(refs: list[float]) -> float:
    """How much slower than usual the machine runs, from reference times."""
    return statistics.fmean(refs) / measure.REFERENCE_S


class Runner:
    """Runs passes of one workload and keeps every outcome for the checks.

    The reference is timed at the start and end of each pass and after
    every REFERENCE_EVERY_S of instance time; each verdict time is divided
    by the scale of the reference times around it (`scaled_ms`), and
    `raw_ms` keeps them as measured.
    """

    def __init__(self, wl, tb):
        self.wl, self.tb = wl, tb
        self.raw_ms: list[float] = []
        self.scaled_ms: list[float] = []
        self.scales: list[float] = []
        self.passes: list[list] = []
        self.failures: Counter = Counter()

    def run_pass(self, instances, tracer=None) -> float:
        """One pass; returns its wall time."""
        outcomes, times, refs, segment = [], [], [reference_time()], []
        t_pass = time.perf_counter()
        since_ref = 0.0
        for inst in instances:
            if since_ref >= REFERENCE_EVERY_S:
                refs.append(reference_time())
                since_ref = 0.0
            segment.append(len(refs) - 1)
            if tracer is not None:
                tracer.instance = inst.id
            t0 = time.perf_counter()
            try:
                out = self.wl.run(self.tb, inst)
            except Exception as exc:  # one failed instance must not end the run
                out = None
                name = type(exc).__name__
                if not self.failures[name]:
                    print(f"{inst.id}: {name}", file=sys.stderr)
                    traceback.print_exc(file=sys.stderr)
                self.failures[name] += 1
            dt = time.perf_counter() - t0
            times.append(dt * 1000.0)
            since_ref += dt
            if out is not None and self.passes:
                out.witness = None  # only the first pass's witnesses are checked
            outcomes.append(out)
        wall = time.perf_counter() - t_pass
        refs.append(reference_time())
        # an instance between references k and k+1 is scaled by the mean of
        # references k-1 .. k+2, which brackets it and damps a single outlier
        scales = [scale_of(refs[max(0, k - 1):k + 3]) for k in range(len(refs) - 1)]
        self.scales.append(scale_of(refs))
        self.raw_ms.extend(times)
        self.scaled_ms.extend(t / scales[k] for t, k in zip(times, segment))
        self.passes.append(outcomes)
        return wall

    def problems(self, instances) -> list[str]:
        """Wrong verdicts: forbidden kinds, bad witnesses, contrary witnesses
        to a NotEmbedded, and verdicts that differ between passes."""
        tb, wl = self.tb, self.wl
        first = self.passes[0]
        out = []
        for later in self.passes[1:]:
            for inst, a, b in zip(instances, first, later):
                if a is not None and b is not None and (a.kind, a.nodes) != (b.kind, b.nodes):
                    out.append(f"{inst.id}: {a.kind}/{a.nodes} then {b.kind}/{b.nodes}")
        for inst, res in zip(instances, first):
            if res is None or res.kind not in DECIDED:
                continue
            if res.kind in wl.wrong_kinds:
                out.append(f"{inst.id}: {res.kind} is wrong on {wl.name}")
                continue
            tree, host = wl.graphs(tb, inst)
            if res.kind == "embedded":
                bad = _check(tree, host, res.witness)
                if bad:
                    out.append(f"{inst.id}: bad witness: {bad[0]}")
                continue
            recheck = tb.embedding.exact_embed(
                tree, host, budget=tb.embedding.Budget(max_nodes=NODE_BUDGET), symmetry=False
            )
            if recheck.kind.value == "embedded" and not _check(tree, host, recheck.embedding):
                out.append(f"{inst.id}: NotEmbedded, but a search without symmetry embeds it")
        return out


def _check(tree, host, mapping) -> list[str]:
    if mapping is None:
        return ["no witness"]
    g = tree.graph
    return measure.witness_problems(g.n, list(g.edges()), host.n, host.neighbor_sets, mapping)


def verdict_summary(instances, outcomes) -> str:
    """Decided/attempted per grid family (or per point), and the undecided
    verdicts by kind, for the log."""
    groups: dict[str, list[int]] = {}
    undecided: Counter = Counter()
    for inst, res in zip(instances, outcomes):
        key = inst.id.split("(", 1)[0] if not inst.params else inst.id.split("#", 1)[0]
        tally = groups.setdefault(key, [0, 0])
        tally[0] += res is not None and res.kind in DECIDED
        tally[1] += 1
        if res is not None and res.kind not in DECIDED:
            undecided[res.kind] += 1
    return (", ".join(f"{k} {d}/{n}" for k, (d, n) in groups.items())
            + "; undecided: " + (", ".join(f"{k} {v}" for k, v in sorted(undecided.items()))
                                 or "none"))


def end_to_end(runner, instances, setup_s) -> dict[str, float]:
    first = runner.passes[0]
    timing = measure.timing_summary(runner.scaled_ms, 90.0)
    raw = measure.timing_summary(runner.raw_ms, 90.0)
    print(f"verdict_ms over {timing['samples']} samples in {len(runner.passes)} passes "
          f"of {len(instances)}: p50 {timing['p50']:.4f}, p90 {timing['p90']:.4f}; "
          f"unscaled p50 {raw['p50']:.4f}, p90 {raw['p90']:.4f}, "
          f"{1000.0 * len(runner.raw_ms) / sum(runner.raw_ms):.4f}/s; "
          f"machine scale median {statistics.median(runner.scales):.3f}")
    return {
        "decided_share": sum(r is not None and r.kind in DECIDED for r in first) / len(first),
        "search_nodes": sum(r.nodes for r in first if r is not None),
        "instances_per_s": 1000.0 * len(runner.scaled_ms) / sum(runner.scaled_ms),
        "verdict_ms_p50": timing["p50"],
        "verdict_ms_p90": timing["p90"],
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run_untraced(wl, src, seed, seconds, tmp):
    """Passes until `seconds` of passes and a p90's worth of samples.

    Every pass reuses the fixtures of the first set-up.  The machine's speed
    drifts in spells of a second or two, so set-up is timed again, on
    throwaway copies, whenever another 1/SETUP_REPEATS of the run has
    passed; its median then spans the same spells as the passes.
    """
    setups = []

    def set_up():
        refs = [reference_time(), reference_time()]
        t0 = time.perf_counter()
        tb = import_treembed(src)
        instances = wl.setup(tb, seed, tmp)
        dt = time.perf_counter() - t0
        refs += [reference_time(), reference_time()]
        setups.append(dt / scale_of(refs))
        return tb, instances

    tb, instances = set_up()
    # put the modules the passes use back after each throwaway import, so
    # imports inside treembed functions resolve to them
    modules = {n: m for n, m in sys.modules.items() if n.split(".")[0] == "treembed"}
    runner = Runner(wl, tb)
    min_samples = measure.min_samples_for(90.0)
    loop_s = last_setup = 0.0
    while loop_s < MAX_LOOP_S and (loop_s < seconds or len(runner.raw_ms) < min_samples):
        if len(setups) < SETUP_REPEATS and loop_s - last_setup >= seconds / SETUP_REPEATS:
            set_up()
            sys.modules.update(modules)
            last_setup = loop_s
        loop_s += runner.run_pass(instances)
    while len(setups) < SETUP_REPEATS:
        set_up()
        sys.modules.update(modules)
    return runner, instances, end_to_end(runner, instances, statistics.median(setups))


def run_traced(wl, src, seed, seconds, tmp):
    """Alternate untraced and traced set-up plus pass; per-layer figures are
    per traced pass, and trace.overhead_s the difference of median walls."""
    tb = import_treembed(src)
    runner = Runner(wl, tb)
    tracer = tracing.Tracer()
    walls = {False: [], True: []}
    t_start = time.perf_counter()
    while not walls[True] or time.perf_counter() - t_start < seconds:
        for traced in (False, True):
            if traced:
                tracer.install(tb)
            try:
                t0 = time.perf_counter()
                tracer.instance = "setup"
                instances = wl.setup(tb, seed, tmp)
                runner.run_pass(instances, tracer if traced else None)
                walls[traced].append(time.perf_counter() - t0)
            finally:
                tracer.uninstall()
    metrics = tracing.layer_metrics(tracer.spans, len(walls[True]))
    metrics["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False])
    return runner, instances, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    spec_path = root / "BENCHMARK.json"
    if not (src / "treembed" / "__init__.py").is_file() or not spec_path.is_file():
        print("error: run from a treembed checkout (needs src/treembed and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    sys.path.insert(0, str(src))
    wl = WORKLOADS[args.workload]
    print(json.dumps({"meta": measure.run_meta(root, args.seed, NODE_BUDGET)}))
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as tmp:
        run = run_traced if args.trace else run_untraced
        runner, instances, metrics = run(wl, src, args.seed, args.seconds, Path(tmp))
        problems = runner.problems(instances)
    print(f"{wl.name}: decided {verdict_summary(instances, runner.passes[0])}")
    if runner.failures:
        print("failed operations by type: "
              + ", ".join(f"{k} {v}" for k, v in sorted(runner.failures.items())))
    for line in problems[:20]:
        print(f"WRONG {line}")
    mismatch = {m["name"] for m in declared} ^ set(metrics)
    if mismatch:
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(mismatch)}")
    out = {}
    for m in declared:
        out[m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
        print(f"{m['name']} = {metrics[m['name']]} {m['unit']}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(runner.raw_ms),
        "failed": sum(runner.failures.values()),
        "metrics": out,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
