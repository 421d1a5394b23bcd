"""Benchmark for dcjsort: the real CLI driven in-process, one closed-loop client.

Usage, from the root of a source checkout (the package is imported from
``./src``; interpreter start-up is not timed)::

    python3 perfbench/run.py --workload realize --seed 1 --seconds 10 --trace 0

Each op is one ``dcjsort.cli.main(argv)`` call with stdout captured in
memory, issued by one thread after the previous op returned.  Inputs come
only from ``--seed``, so a seed always replays the same op sequence.  Each
output is checked by :mod:`checker`, which does not import dcjsort, right
after its op is timed.

``--trace 0`` reports the end-to-end metrics.  Their times are
host-normalized: each op and set-up is bracketed by runs of the fixed
kernel in :mod:`calibrate`, and its wall time is scaled by the kernel's
reference time over its time around the op, so the host's drifting speed
cancels out.  The same figures in plain wall time are printed as
``wall.*`` lines.

``--trace 1`` alternates untraced op cycles with cycles traced by
:mod:`spans` wrappers, and reports per-op self time, calls and errors per
traced name and module and the tracing overhead; on ``codec`` it also runs
the budgeted scaling sweep of :mod:`sweep` and prints its ``scale.*`` lines.

Every metric is printed as ``name value unit``; the last line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  Spans and a
full JSON report go to ``.perfbench/`` in the current directory.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import io
import json
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from typing import Callable, NamedTuple

import calibrate
import checker
import generators as gen
import spans
import sweep

#: Set-ups per run, spread over the timed loop; setup_s is their median.
SETUPS = 5
#: The one workload whose traced run also runs the scaling sweep, which
#: does not depend on the workload.
SWEEP_WORKLOAD = "codec"
#: The traced run confirms a workload's design when at least this share of a
#: traced op is self time in the workload's focus layers.
FOCUS_SHARE = 0.8

MODULES = ("genome", "adjacency_graph", "enumeration", "trees", "parking", "fissions", "cli")

#: Per-op statistics reported from the traced run, per traced name.
LAYER_METRICS = (
    ("genome.Genome", "calls"),
    ("genome.Genome", "self_ms"),
    ("genome.apply_dcj", "self_ms"),
    ("genome.read_genomes", "self_ms"),
    ("adjacency_graph.AdjacencyGraph", "self_ms"),
    ("adjacency_graph.dcj_distance", "calls"),
    ("adjacency_graph.dcj_distance", "self_ms"),
    ("adjacency_graph.CycleTracker.fission_to_dcj", "self_ms"),
    ("adjacency_graph.CycleTracker.members", "calls"),
    ("cli.main", "self_ms"),
    ("enumeration.interleave", "self_ms"),
    ("enumeration.multinomial", "calls"),
    ("enumeration.multinomial", "self_ms"),
    ("enumeration.sample_scenario", "self_ms"),
    ("trees.prufer_decode", "self_ms"),
    ("trees.tree_to_scenario", "self_ms"),
    ("trees.scenario_to_tree", "self_ms"),
    ("trees.LabeledTree", "self_ms"),
    ("parking.parking_to_scenario", "self_ms"),
    ("fissions.chain_top", "calls"),
    ("fissions.chain_top", "self_ms"),
    ("fissions.validate_scenario", "self_ms"),
    ("fissions.apply_fission", "calls"),
    ("fissions.apply_fission", "self_ms"),
    ("fissions.scenario_partners", "self_ms"),
)
UNITS = {"calls": "calls/op", "self_ms": "ms/op", "errors": "errors/op"}


class Workload(NamedTuple):
    files: dict[str, str]  # written to the work directory before the first op
    period: int  # ops per cycle of the op sequence; runs end on a whole cycle
    argv: Callable[[int, Path], list[str]]  # op k, work directory -> CLI arguments
    check: Callable[[int, str], str | None]  # op k, stdout -> failure reason or None
    instances: Callable[[], list[dict]]  # recorded statistics of the inputs
    focus: tuple[str, ...]  # modules or traced names the workload is built to stress


def _pair_workload(a, b, argv, check, focus) -> Workload:
    stats = functools.cache(lambda: gen.pair_stats(a, b))
    return Workload(
        files={"pair.txt": gen.pair_text(a, b)},
        period=1,
        argv=lambda k, work: argv(k, str(work / "pair.txt")),
        check=lambda k, out: check(out, stats()),
        instances=lambda: [{"input": "pair.txt", **stats()}],
        focus=focus,
    )


def realize(seed: int) -> Workload:
    """sample --format json on N=200: a few big cycles, realized step by step."""
    rng = gen.make_rng("realize", seed)
    a, b = gen.shuffled_pair(200, rng)
    first = rng.randrange(2**32)
    return _pair_workload(
        a,
        b,
        lambda k, path: ["sample", path, "--seed", str(first + k), "--format", "json"],
        lambda out, stats: checker.check_realize(out, a, b),
        ("genome", "adjacency_graph"),
    )


def many_cycles(seed: int) -> Workload:
    """sample --format parking on N=401 with 100 shuffled 3-block windows."""
    rng = gen.make_rng("many-cycles", seed)
    a, b = gen.windows_pair(401, rng)
    first = rng.randrange(2**32)
    return _pair_workload(
        a,
        b,
        lambda k, path: ["sample", path, "--seed", str(first + k), "--format", "parking"],
        lambda out, stats: checker.check_cycle_parking(out, stats["cycle_sizes"]),
        ("enumeration.interleave", "enumeration.multinomial"),
    )


def query(seed: int) -> Workload:
    """distance --json on N=10^4 with a long circular chromosome."""
    rng = gen.make_rng("query", seed)
    a, b = gen.shuffled_pair(10_000, rng)
    return _pair_workload(
        a,
        b,
        lambda k, path: ["distance", "--json", path],
        checker.check_distance,
        ("genome", "adjacency_graph"),
    )


#: Random codec inputs per conversion kind.
CODEC_POOL = 8
#: Conversions per pooled input in one op cycle: parking->tree, tree->parking,
#: fissions->parking.  Each kind, and the one identity parking->fissions, then
#: takes 13-31 % of the cycle time, so ops_per_s sees every kind, and the
#: median op lands in the middle of the fissions->parking ops.
CODEC_REPEATS = (3, 3, 4)
CODEC_N = 500


def codec(seed: int) -> Workload:
    """convert at n=500: random inputs of three kinds, then the adversarial identity."""
    rng = gen.make_rng("codec", seed)
    n = CODEC_N
    pfs = [gen.random_parking(n - 1, rng) for _ in range(CODEC_POOL)]
    trees = [gen.random_tree(n, rng) for _ in range(CODEC_POOL)]
    scenarios = [gen.random_scenario(n, rng) for _ in range(CODEC_POOL)]
    identity = gen.identity_parking(n - 1)
    files = {"identity.txt": gen.parking_text(identity)}
    for i in range(CODEC_POOL):
        files[f"parking{i}.txt"] = gen.parking_text(pfs[i])
        files[f"tree{i}.txt"] = gen.tree_text(n, trees[i])
        files[f"fissions{i}.txt"] = gen.scenario_text(n, scenarios[i])
    random_kinds = (
        ("parking", "tree", "parking{}.txt", lambda i, out: checker.check_tree(out, n)),
        ("tree", "parking", "tree{}.txt", lambda i, out: checker.check_parking(out, n - 1)),
        (
            "fissions",
            "parking",
            "fissions{}.txt",
            lambda i, out: checker.check_parking(out, n - 1, [s[0] for s in scenarios[i]]),
        ),
    )
    identity_kind = ("parking", "fissions", "identity.txt", lambda i, out: checker.check_fissions(out, n, identity))
    ops = [
        (kind, i)
        for kind, repeats in zip(random_kinds, CODEC_REPEATS)
        for _ in range(repeats)
        for i in range(CODEC_POOL)
    ]
    ops.append((identity_kind, None))

    def argv(k, work):
        (source, target, name, _), i = ops[k % len(ops)]
        return ["convert", "--from", source, "--to", target, str(work / name.format(i))]

    def check(k, out):
        (_, _, _, check_output), i = ops[k % len(ops)]
        return check_output(i, out)

    return Workload(
        files=files,
        period=len(ops),
        argv=argv,
        check=check,
        instances=lambda: [
            {"input": name, "shape": shape, "n": n, "count_digits": gen.decimal_digits(n ** (n - 2))}
            for name, shape in (
                (f"parking0..{CODEC_POOL - 1}.txt", "uniform parking function"),
                (f"tree0..{CODEC_POOL - 1}.txt", "uniform tree (random Prufer code)"),
                (f"fissions0..{CODEC_POOL - 1}.txt", "random valid scenario"),
                ("identity.txt", "identity parking function"),
            )
        ],
        focus=("parking", "fissions", "trees"),
    )


WORKLOADS = {"realize": realize, "many-cycles": many_cycles, "codec": codec, "query": query}


# --- running ops ------------------------------------------------------------


def import_dcjsort(src: Path):
    """Import dcjsort afresh from ``src`` (earlier imports are dropped)."""
    for key in [k for k in sys.modules if k == "dcjsort" or k.startswith("dcjsort.")]:
        del sys.modules[key]
    cli = importlib.import_module("dcjsort.cli")
    package = sys.modules["dcjsort"]
    if not Path(package.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"dcjsort was imported from {package.__file__}, not from {src}")
    return package, cli


def call(cli, argv) -> tuple[object, str]:
    """One op: (exit code or error, captured stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crashing op is a failed op, not a failed run
            code = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue()


def set_up(src: Path, build, seed: int, work: Path):
    """Fresh import of dcjsort, inputs, input files and one warm-up op."""
    package, cli = import_dcjsort(src)
    wl = build(seed)
    for name, text in wl.files.items():
        (work / name).write_text(text, encoding="utf-8")
    call(cli, wl.argv(0, work))
    return package, cli, wl


def verdict(wl: Workload, k: int, code, out: str) -> str | None:
    """Why op k failed, or None."""
    if code != 0:
        return f"exit {code}"
    try:
        return wl.check(k, out)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"


def timed_loop(prepare, work: Path, seconds: float, tracer=None):
    """Closed loop for `seconds` of op time, ending on a whole op cycle.

    The loop runs in SETUPS equal segments, each after a fresh timed
    set-up, so the set-ups spread over the run and its host speed states.
    Each output is checked as soon as its op is timed and only the verdict
    is kept.  A calibration sample (:mod:`calibrate`) is taken before each
    set-up and op and after the last op, so each of them is bracketed.
    Set-ups, checks and calibration are left out of the loop time.  With a
    tracer, every other op cycle runs with its wrappers installed, so traced
    and untraced ops see the same host conditions.

    Returns (ops, loop seconds, set-ups, clock, (package, cli, workload) of
    the last set-up).  An op is (op, wall seconds, calibration mark, traced,
    failure or None); a set-up is (wall seconds, calibration mark).
    """
    ops, setups, loop_s, k = [], [], 0.0, 0
    clock = calibrate.Clock()
    for segment in range(1, SETUPS + 1):
        clock.calibrate()
        t0 = perf_counter()
        package, cli, wl = prepare()
        wall = perf_counter() - t0
        setups.append((wall, clock.mark()))
        last = segment == SETUPS
        start, paused = perf_counter(), 0.0
        # The last segment ends on a whole cycle, and a traced run holds at
        # least one untraced and one traced cycle.
        cycles = 2 if tracer else 1
        while (last and (k % wl.period or k < cycles * wl.period)) or (
            loop_s + perf_counter() - start - paused < seconds * segment / SETUPS
        ):
            t0 = perf_counter()
            clock.calibrate()
            paused += perf_counter() - t0
            argv = wl.argv(k, work)
            traced = tracer is not None and k // wl.period % 2 == 1
            if traced:
                tracer.op = k
                tracer.install()
            try:
                t0 = perf_counter()
                code, out = call(cli, argv)
                latency = perf_counter() - t0
            finally:
                if traced:
                    tracer.restore()
            t0 = perf_counter()
            ops.append((k, latency, clock.mark(), traced, verdict(wl, k, code, out)))
            paused += perf_counter() - t0
            k += 1
        loop_s += perf_counter() - start - paused
    clock.calibrate()
    return ops, loop_s, setups, clock, (package, cli, wl)


def p50_ms(latencies) -> float:
    return statistics.median(latencies) * 1e3


# --- metrics ------------------------------------------------------------------


def end_to_end(ops, loop_s, setups, clock) -> tuple[dict, dict]:
    """Host-normalized end-to-end metrics, and the same figures in wall time."""
    wall = [op[1] for op in ops]
    ref = [op[1] * clock.scale(op[2]) for op in ops]
    ref_loop_s = loop_s * sum(ref) / sum(wall)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "op_p50_ms": (p50_ms(ref), "ms"),
        "ops_per_s": (len(ops) / ref_loop_s, "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "setup_s": (statistics.median(w * clock.scale(m) for w, m in setups), "s"),
    }
    raw = {
        "wall.op_p50_ms": (p50_ms(wall), "ms"),
        "wall.ops_per_s": (len(ops) / loop_s, "1/s"),
        "wall.setup_s": (statistics.median(w for w, _ in setups), "s"),
        "calibration_ms": (statistics.median(clock.samples) * 1e3, "ms"),
    }
    return metrics, raw


def per_layer(wl: Workload, ops, rows, clock) -> dict:
    traced = [op for op in ops if op[3]]
    n_traced = len(traced)

    def per_op(name, stat):
        row = rows.get(name, {"calls": 0, "errors": 0, "self_s": 0.0})
        return row["self_s"] * 1e3 / n_traced if stat == "self_ms" else row[stat] / n_traced

    def ref_p50(is_traced):
        return p50_ms([op[1] * clock.scale(op[2]) for op in ops if op[3] == is_traced])

    metrics = {f"{name}.{stat}": (per_op(name, stat), UNITS[stat]) for name, stat in LAYER_METRICS}
    module_ms = {}
    for module in MODULES:
        names = [name for name in rows if name.startswith(module + ".")]
        module_ms[module] = sum(per_op(name, "self_ms") for name in names)
        metrics[f"{module}.self_ms"] = (module_ms[module], "ms/op")
        metrics[f"{module}.errors"] = (sum(per_op(name, "errors") for name in names), "errors/op")
    op_ms = sum(module_ms.values())
    focus_ms = sum(module_ms[f] if f in module_ms else per_op(f, "self_ms") for f in wl.focus)
    metrics["trace.ops"] = (n_traced, "count")
    metrics["trace.focus_share"] = (focus_ms / op_ms, "ratio")
    metrics["trace.overhead_frac"] = ((ref_p50(True) - ref_p50(False)) / ref_p50(False), "ratio")
    return metrics


def sweep_lines(records) -> list[str]:
    lines = []
    for rec in records:
        prefix = f"scale.{rec['layer']}.{rec['shape']}"
        for e in rec["entries"]:
            tag = " (helper size)" if e["helper"] else ""
            if e["status"] == "ok":
                lines.append(f"{prefix}.n{e['n']}_ms {e['ms']:.6g} ms{tag}")
            elif "predicted_ms" in e:
                lines.append(f"{prefix}.n{e['n']}_ms {e['status']} (predicted {e['predicted_ms']:.6g} ms){tag}")
            elif "aborted_after_ms" in e:
                lines.append(f"{prefix}.n{e['n']}_ms {e['status']} (aborted after {e['aborted_after_ms']:.6g} ms){tag}")
            else:
                lines.append(f"{prefix}.n{e['n']}_ms {e['status']}{tag}")
        bound = " (lower bound)" if rec["exponent_is_lower_bound"] else ""
        value = "n/a" if rec["exponent"] is None else f"{rec['exponent']:.3f}"
        lines.append(f"{prefix}.exponent {value} log/log{bound}")
    return lines


# --- entry point --------------------------------------------------------------


def run(args, out_dir: Path, work: Path) -> tuple[dict, dict]:
    prepare = functools.partial(set_up, Path.cwd() / "src", WORKLOADS[args.workload], args.seed, work)
    tracer = spans.Tracer() if args.trace else None
    ops, loop_s, setups, clock, (package, cli, wl) = timed_loop(prepare, work, args.seconds, tracer)
    instances = wl.instances()
    for inst in instances:
        shown = {k: v for k, v in inst.items() if k != "cycle_sizes"}
        print("instance " + " ".join(f"{k}={v}" for k, v in shown.items()))

    report = {"workload": args.workload, "seed": args.seed, "instances": instances}
    if not args.trace:
        metrics, wall = end_to_end(ops, loop_s, setups, clock)
        for name, (value, unit) in wall.items():
            print(f"{name} {value:.6g} {unit}")
    else:
        spans.write_spans(tracer.spans, out_dir / f"spans-{args.workload}-{args.seed}.tsv")
        rows = spans.aggregate(tracer.spans)
        metrics = per_layer(wl, ops, rows, clock)
        share = metrics["trace.focus_share"][0]
        design = "met" if share >= FOCUS_SHARE else "NOT MET"
        print(
            f"design {args.workload}: {'+'.join(wl.focus)} self time is {share:.1%} of a traced op "
            f"(target >= {FOCUS_SHARE:.0%}): {design}; "
            f"genome.Genome.calls {metrics['genome.Genome.calls'][0]:.6g}/op"
        )
        report.update(traced_names=rows)
        if args.workload == SWEEP_WORKLOAD:
            records = sweep.run(package, cli, args.seed, work)
            print("\n".join(sweep_lines(records)))
            report.update(sweep=records)

    failed = [(op[0], op[4]) for op in ops if op[4]]
    for k, reason in failed[:5]:
        print(f"failure op {k}: {reason}")
    print(f"ops {len(ops)} count")
    print(f"fail_frac {len(failed) / len(ops):.6g} ratio")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    report.update(
        result=result,
        latencies_ms=[op[1] * 1e3 for op in ops],
        ref_latencies_ms=[op[1] * clock.scale(op[2]) * 1e3 for op in ops],
        calibration_ms=[c * 1e3 for c in clock.samples],
    )
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (Path.cwd() / "src" / "dcjsort" / "cli.py").is_file():
        print("perfbench: run from a dcjsort checkout; src/dcjsort/cli.py is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path.cwd() / "src"))
    out_dir = Path.cwd() / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=out_dir))
    try:
        result, report = run(args, out_dir, work)
    finally:
        shutil.rmtree(work)
    name = f"report-{args.workload}-{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
