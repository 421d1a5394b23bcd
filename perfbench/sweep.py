"""Budgeted scaling sweep of single layers at n, N in {10^2, 10^3, 10^4}.

Each layer is timed at 10^2 and at a helper size 2*10^2, then at each
larger size only if the time extrapolated from the last two measured sizes
(with a log-log slope of at least 1) fits the per-call budget.  A size over
budget is recorded as skipped with its prediction, never measured at a
smaller size in its place.  An error is recorded as ``failed: <error>``.
The exponent is the least-squares log-log slope over the measured sizes.
Each input has its own generator, seeded by (seed, layer, shape, size), so
which sizes are skipped never changes the inputs of another size or layer.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import signal
import statistics
from time import perf_counter

import generators as gen

SIZES = (100, 200, 1000, 10000)
HELPER_SIZES = (200,)
#: Largest single call the sweep makes, in seconds.
BUDGET_S = 2.0
#: A call still running after this many seconds is aborted as over budget.
ABORT_S = 3 * BUDGET_S
#: Small sizes repeat until this much time has been spent, and report the median.
MIN_TOTAL_S = 0.2


class _Aborted(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Aborted


def _run_cli(cli, argv):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"exit code {code}")


def layers(d, cli, workdir):
    """(layer, shape, prepare) triples; prepare(n, rng) builds inputs and returns the timed call."""

    def scenario(n, rng):
        return d.FissionScenario(n, tuple(d.Fission(*f) for f in gen.random_scenario(n, rng)))

    def pair_file(n, rng):
        path = workdir / f"sweep-pair-{n}.txt"
        path.write_text(gen.pair_text(*gen.shuffled_pair(n, rng)), encoding="utf-8")
        return str(path)

    def parking_random(n, rng):
        pf = tuple(gen.random_parking(n - 1, rng))
        return lambda: d.parking_to_scenario(pf)

    def parking_identity(n, rng):
        pf = tuple(gen.identity_parking(n - 1))
        return lambda: d.parking_to_scenario(pf)

    def to_tree(n, rng):
        s = scenario(n, rng)
        return lambda: d.scenario_to_tree(s)

    def from_tree(n, rng):
        t = d.LabeledTree(n, gen.random_tree(n, rng))
        return lambda: d.tree_to_scenario(t)

    def validate(n, rng):
        s = scenario(n, rng)
        return lambda: d.validate_scenario(s)

    def sample(n, rng):
        seed = rng.randrange(2**32)
        return lambda: d.sample_scenario(n, random.Random(seed))

    def interleave(n, rng):
        per_cycle = [scenario(3, rng) for _ in range(n)]
        seed = rng.randrange(2**32)
        return lambda: d.interleave(per_cycle, random.Random(seed))

    def realize(n, rng):
        (_, a), (_, b) = d.read_genomes(gen.pair_text(*gen.shuffled_pair(n, rng)))
        cycles = d.build_adjacency_graph(a, b).cycles
        per_cycle = [scenario(c.n, rng) for c in cycles]
        order = [m for m, c in enumerate(cycles) for _ in range(c.n - 1)]

        def call():
            g = a
            for op in d.realize_scenario(a, b, per_cycle, order):
                g = d.apply_dcj(g, op)
            if g != b:
                raise RuntimeError("replay does not reach genome B")

        return call

    def serialize(n, rng):
        genome = d.parse_genome(gen.genome_text(gen.circular_genome(n, rng)))
        return lambda: d.serialize_genome(genome)

    def read_graph(n, rng):
        text = gen.pair_text(*gen.shuffled_pair(n, rng))

        def call():
            (_, a), (_, b) = d.read_genomes(text)
            d.build_adjacency_graph(a, b)

        return call

    def count(n, rng):
        path = pair_file(n, rng)
        return lambda: _run_cli(cli, ["count", path])

    def sample_json(n, rng):
        path = pair_file(n, rng)
        return lambda: _run_cli(cli, ["sample", path, "--format", "json", "--seed", "1"])

    return [
        ("parking_to_scenario", "random", parking_random),
        ("parking_to_scenario", "identity", parking_identity),
        ("scenario_to_tree", "random", to_tree),
        ("tree_to_scenario", "random", from_tree),
        ("validate_scenario", "random", validate),
        ("sample_scenario", "random", sample),
        ("interleave", "two_step", interleave),
        ("realize_replay", "shuffled", realize),
        ("serialize_genome", "circular", serialize),
        ("read_graph", "shuffled", read_graph),
        ("cli_count", "shuffled", count),
        ("cli_sample_json", "shuffled", sample_json),
    ]


def _time(call) -> float:
    """Seconds per call: one call, or the median of repeats when calls are short."""
    times = []
    while not times or (sum(times) < MIN_TOTAL_S and len(times) < 50):
        start = perf_counter()
        call()
        times.append(perf_counter() - start)
    return statistics.median(times)


def _predict(points, n) -> float:
    n1, t1 = points[-1]
    slope = 1.0
    if len(points) > 1:
        n0, t0 = points[-2]
        slope = max(math.log(t1 / t0) / math.log(n1 / n0), 1.0)
    return t1 * (n / n1) ** slope


def exponent(points) -> float:
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def run(d, cli, seed: int, workdir) -> list[dict]:
    """Sweep every layer; one record per (layer, shape) with its entries.

    A call aborted after ABORT_S enters the fit as a lower bound (n,
    ABORT_S), and the record says so.
    """
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    records = []
    try:
        for layer, shape, prepare in layers(d, cli, workdir):
            points, entries, bounded = [], [], False
            for n in SIZES:
                entry = {"n": n, "helper": n in HELPER_SIZES}
                entries.append(entry)
                predicted = _predict(points, n) if points else 0.0
                if predicted > BUDGET_S and n > SIZES[1]:
                    entry.update(status="skipped: over budget", predicted_ms=predicted * 1e3)
                    continue
                call = prepare(n, gen.make_rng("sweep", seed, layer, shape, n))
                signal.setitimer(signal.ITIMER_REAL, ABORT_S)
                try:
                    seconds = _time(call)
                except _Aborted:
                    points.append((n, ABORT_S))
                    bounded = True
                    entry.update(status="skipped: over budget", aborted_after_ms=ABORT_S * 1e3)
                    continue
                except Exception as exc:  # recorded, the sweep goes on
                    message = f"{type(exc).__name__}: {exc}".splitlines()[0]
                    entry.update(status=f"failed: {message}")
                    continue
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
                points.append((n, seconds))
                entry.update(status="ok", ms=seconds * 1e3)
            records.append(
                {
                    "layer": layer,
                    "shape": shape,
                    "entries": entries,
                    "exponent": exponent(points) if len(points) > 1 else None,
                    "exponent_is_lower_bound": bounded,
                }
            )
    finally:
        signal.signal(signal.SIGALRM, previous)
    return records
