"""Command-line surface: distances, counts, sampling, conversions, oracles.

Exit codes: 0 on success, 1 on domain errors (genomes not co-tailed, an
invalid parking function, ...) and when stdout is closed before the output
is written, 2 on usage or parse errors.

`sample` and `enumerate` write each chunk as it is made, so a closed pipe
stops the work at once.  Every `dcj` or `json` sample written to stdout has
passed the replay; a failed replay exits 1 after the samples before it.
"""

from __future__ import annotations

import argparse
import decimal
import functools
import json
import os
import sys

from .adjacency_graph import build_adjacency_graph, realize
from .enumeration import (
    count_scenarios,
    enumerate_dcj_sorting_scenarios,
    enumerate_scenarios,
    interleave,
    make_rng,
    multinomial,
    sample_scenario,
)
from .errors import DcjsortError, GenomeParseError, InvalidDcjError, TextFormatError
from .fissions import format_scenario, parse_scenario, partners, require_valid
from .genome import Genome, apply_dcj, read_genomes, signed_pair
from .parking import format_parking, parking_to_scenario, parse_parking
from .trees import bases_to_tree, format_tree, parse_tree, tree_to_dot, tree_to_scenario

SCENARIO_READERS = {
    "parking": lambda text: parking_to_scenario(parse_parking(text)),
    "fissions": lambda text: require_valid(parse_scenario(text)),
    "tree": lambda text: tree_to_scenario(parse_tree(text)),
}

# every reader above and every sampled or enumerated scenario is valid
# already, so the writers encode without validating again
SCENARIO_WRITERS = {
    "parking": lambda s: format_parking(s.bases),
    "fissions": format_scenario,
    "tree": lambda s: format_tree(bases_to_tree(s.bases)),
    "dot": lambda s: tree_to_dot(bases_to_tree(s.bases)),
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


def _cmd_distance(args) -> int:
    a, b = _load_genome_pair(args.paths)
    graph = build_adjacency_graph(a, b)
    fields = {"N": graph.n_blocks, "C": graph.n_cycles, "K": graph.n_linear, "d": graph.distance}
    lengths = list(graph.cycle_lengths)
    if args.json:
        print(json.dumps({**fields, "cycles": lengths}))
    else:
        print(" ".join(f"{k}={v}" for k, v in fields.items()) + f"; cycles: {lengths}")
    return 0


def _print_count(total: int, as_json: bool) -> None:
    # C decimal has no int->str digit limit, unlike str(int) beyond 4300 digits
    digits = str(decimal.Decimal(total))
    print(f'{{"count": {digits}}}' if as_json else digits)


def _cmd_count(args) -> int:
    a, b = _load_genome_pair(args.paths)
    _print_count(count_scenarios(build_adjacency_graph(a, b).profile), args.json)
    return 0


def _check_realization(graph, ops) -> None:
    """Replay `ops` on genome A; raise unless they sort it into B.

    In co-tailed genomes a DCJ changes the cycle count by at most one and
    no telomere, so the distance N - (C + K) drops by at most one per
    step.  d valid DCJs (`apply_dcj` rejects any other) that lead from A,
    at distance d, to B, at distance 0, therefore each lower it by
    exactly one: no per-step distance is needed.
    """
    if len(ops) != graph.distance:
        raise DcjsortError(f"internal check failed: {len(ops)} DCJs for distance {graph.distance}")
    current = graph.genome_a
    try:
        for op in ops:
            current = apply_dcj(current, op)
    except InvalidDcjError as exc:
        raise DcjsortError(f"internal check failed: {exc}") from None
    if current != graph.genome_b:
        raise DcjsortError("internal check failed: scenario does not reach the target genome")


def _write_chunks(chunks, fmt: str) -> None:
    """Write each chunk as it is made; multi-line formats get a blank line between."""
    gap = "\n" if fmt in ("fissions", "tree", "dcj") else ""
    for i, chunk in enumerate(chunks):
        sys.stdout.write(f"{gap if i else ''}{chunk}\n")


def _sample_chunks(args, fmt: str):
    graph = build_adjacency_graph(*_load_genome_pair(args.paths))
    rng = make_rng(args.seed)
    total = multinomial(graph.profile)
    for _ in range(args.num):
        per_cycle = [sample_scenario(steps + 1, rng) for steps in graph.profile]
        # drawn for every format, so each seed gives one stream
        rank = rng.randrange(total)
        if fmt in ("parking", "fissions", "tree"):
            yield from map(SCENARIO_WRITERS[fmt], per_cycle)
            continue
        merged = interleave(per_cycle, rank)
        ops = realize(graph, per_cycle, [m for m, _ in merged])
        _check_realization(graph, ops)
        if fmt == "dcj":
            yield "\n".join(map(str, ops))
            continue
        partner_steps = [iter(partners(s.bases)) for s in per_cycle]
        yield json.dumps(
            [
                {
                    "cycle": m,
                    "base": fission.base,
                    "top": fission.top,
                    "partner": next(partner_steps[m]),
                    "dcj": {
                        "cut": [list(signed_pair(adj)) for adj in op.cut],
                        "form": [list(signed_pair(adj)) for adj in op.form],
                    },
                }
                for (m, fission), op in zip(merged, ops)
            ]
        )


def _cmd_sample(args) -> int:
    fmt = "json" if args.json else args.format
    _write_chunks(_sample_chunks(args, fmt), fmt)
    return 0


def _cmd_convert(args) -> int:
    scenario = SCENARIO_READERS[args.source](_read_text(args.path))
    print(SCENARIO_WRITERS[args.target](scenario))
    return 0


def _cmd_enumerate(args) -> int:
    scenarios = enumerate_scenarios(args.n, limit=args.num, force=args.force)
    _write_chunks(map(SCENARIO_WRITERS[args.format], scenarios), args.format)
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


def _positive(value: str) -> int:
    num = int(value)
    if num < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return num


def _add_genome_inputs(sub):
    sub.add_argument("paths", nargs="*", help="genome file(s) holding two genomes; '-' or empty reads stdin")
    sub.add_argument("--json", action="store_true", help="emit JSON instead of plain text")


@functools.cache
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
    p.add_argument("--n", type=_positive, required=True, help="cycle size")
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
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader went away (`| head`): point stdout at devnull so the exit
        # flush does not fail again (Python `signal` docs, "Note on SIGPIPE")
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (GenomeParseError, TextFormatError) as exc:
        print(f"dcjsort: error: {exc}", file=sys.stderr)
        return 2
    except DcjsortError as exc:
        print(f"dcjsort: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
