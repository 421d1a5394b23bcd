"""Command-line surface: distances, counts, sampling, conversions, oracles.

Exit codes: 0 on success, 1 on domain errors (genomes not co-tailed, an
invalid parking function, ...), 2 on usage or parse errors.
"""

from __future__ import annotations

import argparse
import decimal
import json
import sys

from .adjacency_graph import CycleTracker, build_adjacency_graph, dcj_distance
from .enumeration import (
    count_scenarios,
    enumerate_dcj_sorting_scenarios,
    enumerate_scenarios,
    interleave,
    make_rng,
    sample_scenario,
)
from .errors import DcjsortError, GenomeParseError, TextFormatError
from .fissions import format_scenario, parse_scenario, require_valid
from .genome import Genome, apply_dcj, read_genomes, signed_pair
from .parking import format_parking, parking_to_scenario, parse_parking, scenario_to_parking
from .trees import format_tree, parse_tree, scenario_to_tree, tree_to_dot, tree_to_scenario

SCENARIO_READERS = {
    "parking": lambda text: parking_to_scenario(parse_parking(text)),
    "fissions": lambda text: require_valid(parse_scenario(text)),
    "tree": lambda text: tree_to_scenario(parse_tree(text)),
}

SCENARIO_WRITERS = {
    "parking": lambda s: format_parking(scenario_to_parking(s)),
    "fissions": format_scenario,
    "tree": lambda s: format_tree(scenario_to_tree(s)),
    "dot": lambda s: tree_to_dot(scenario_to_tree(s)),
}


def _read_text(path: str | None) -> str:
    if path is None or path == "-":
        return sys.stdin.read()
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise TextFormatError(f"cannot read {path}: {reason}") from None


def _load_genome_pair(paths: list[str]) -> tuple[Genome, Genome]:
    entries = []
    for path in paths or ["-"]:
        entries.extend(read_genomes(_read_text(path)))
    if len(entries) != 2:
        raise DcjsortError(f"expected exactly two genomes, found {len(entries)}")
    return entries[0][1], entries[1][1]


def _dcj_json(op) -> dict:
    return {
        "cut": [list(signed_pair(adj)) for adj in op.cut],
        "form": [list(signed_pair(adj)) for adj in op.form],
    }


def _cmd_distance(args) -> int:
    a, b = _load_genome_pair(args.paths)
    graph = build_adjacency_graph(a, b)
    lengths = list(graph.cycle_lengths)
    if args.json:
        print(
            json.dumps(
                {
                    "N": graph.n_blocks,
                    "C": graph.n_cycles,
                    "K": graph.n_linear,
                    "d": graph.distance,
                    "cycles": lengths,
                }
            )
        )
    else:
        print(
            f"N={graph.n_blocks} C={graph.n_cycles} K={graph.n_linear} "
            f"d={graph.distance}; cycles: {lengths}"
        )
    return 0


def _print_count(total: int, as_json: bool) -> None:
    # C decimal has no int->str digit limit, unlike str(int) beyond 4300 digits
    digits = str(decimal.Decimal(total))
    print(f'{{"count": {digits}}}' if as_json else digits)


def _cmd_count(args) -> int:
    a, b = _load_genome_pair(args.paths)
    _print_count(count_scenarios(build_adjacency_graph(a, b).profile), args.json)
    return 0


def _sample_global(graph, rng):
    """One uniform global scenario: per-cycle draws plus an interleaving."""
    per_cycle = [sample_scenario(cycle.n, rng) for cycle in graph.cycles]
    merged = interleave(per_cycle, rng)
    return per_cycle, merged


def _realized_steps(graph, a, b, merged):
    """Translate merged fissions to DCJs, checking every step en route."""
    trackers = [CycleTracker(c) for c in graph.cycles]
    current = a
    remaining = graph.distance
    steps = []
    for m, fission in merged:
        partner = trackers[m].partner(fission.base)
        op = trackers[m].fission_to_dcj(fission)
        current = apply_dcj(current, op)
        remaining -= 1
        if dcj_distance(current, b) != remaining:
            raise DcjsortError("internal check failed: step is not sorting")
        steps.append((m, fission, partner, op))
    if current != b:
        raise DcjsortError("internal check failed: scenario does not reach the target genome")
    return steps


def _print_chunks(chunks: list[str], fmt: str) -> None:
    if chunks:
        print(("\n\n" if fmt in ("fissions", "tree", "dcj") else "\n").join(chunks))


def _cmd_sample(args) -> int:
    a, b = _load_genome_pair(args.paths)
    graph = build_adjacency_graph(a, b)
    fmt = "json" if args.json else args.format
    rng = make_rng(args.seed)
    chunks = []
    for _ in range(args.num):
        per_cycle, merged = _sample_global(graph, rng)
        if fmt in ("parking", "fissions", "tree"):
            writer = SCENARIO_WRITERS[fmt]
            chunks.extend(writer(s) for s in per_cycle)
        elif fmt == "dcj":
            steps = _realized_steps(graph, a, b, merged)
            chunks.append("\n".join(str(op) for _, _, _, op in steps))
        else:
            steps = _realized_steps(graph, a, b, merged)
            chunks.append(
                json.dumps(
                    [
                        {
                            "cycle": m,
                            "base": fission.base,
                            "top": fission.top,
                            "partner": partner,
                            "dcj": _dcj_json(op),
                        }
                        for m, fission, partner, op in steps
                    ]
                )
            )
    _print_chunks(chunks, fmt)
    return 0


def _cmd_convert(args) -> int:
    scenario = SCENARIO_READERS[args.source](_read_text(args.path))
    print(SCENARIO_WRITERS[args.target](scenario))
    return 0


def _cmd_enumerate(args) -> int:
    writer = SCENARIO_WRITERS[args.format]
    chunks = [writer(s) for s in enumerate_scenarios(args.n, limit=args.num, force=args.force)]
    _print_chunks(chunks, args.format)
    return 0


def _cmd_oracle_count(args) -> int:
    a, b = _load_genome_pair(args.paths)
    _print_count(sum(1 for _ in enumerate_dcj_sorting_scenarios(a, b, force=args.force)), args.json)
    return 0


def _seed(value: str) -> int:
    seed = int(value)
    if not 0 <= seed < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in 64 bits")
    return seed


def _num(value: str) -> int:
    num = int(value)
    if num < 0:
        raise argparse.ArgumentTypeError("must be non-negative")
    return num


def _add_genome_inputs(sub):
    sub.add_argument("paths", nargs="*", help="genome file(s) holding two genomes; '-' or empty reads stdin")
    sub.add_argument("--json", action="store_true", help="emit JSON instead of plain text")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dcjsort",
        description="DCJ distances, scenario counting, uniform sampling, and scenario codecs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("distance", help="DCJ distance and cycle structure of two genomes")
    _add_genome_inputs(p)
    p.set_defaults(func=_cmd_distance)

    p = sub.add_parser("count", help="exact number of parsimonious sorting scenarios")
    _add_genome_inputs(p)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("sample", help="sample sorting scenarios uniformly")
    _add_genome_inputs(p)
    p.add_argument("--seed", type=_seed, default=0, help="RNG seed (default 0)")
    p.add_argument("--num", type=_num, default=1, help="number of samples (default 1)")
    p.add_argument(
        "--format",
        choices=["parking", "fissions", "tree", "dcj", "json"],
        default="parking",
        help="output representation (default parking)",
    )
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("convert", help="convert one scenario between representations")
    p.add_argument("path", nargs="?", help="input file; '-' or empty reads stdin")
    p.add_argument("--from", dest="source", required=True, choices=sorted(SCENARIO_READERS))
    p.add_argument("--to", dest="target", required=True, choices=sorted(SCENARIO_WRITERS))
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("enumerate", help="enumerate all scenarios of a cycle exhaustively")
    p.add_argument("--n", type=int, required=True, help="cycle size")
    p.add_argument("--num", type=_num, default=None, help="stop after this many scenarios")
    p.add_argument("--force", action="store_true", help="override the size guard")
    p.add_argument("--format", choices=["parking", "fissions", "tree"], default="parking")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("oracle-count", help="count scenarios by brute-force DCJ search")
    _add_genome_inputs(p)
    p.add_argument("--force", action="store_true", help="override the distance guard")
    p.set_defaults(func=_cmd_oracle_count)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (GenomeParseError, TextFormatError) as exc:
        print(f"dcjsort: error: {exc}", file=sys.stderr)
        return 2
    except DcjsortError as exc:
        print(f"dcjsort: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
