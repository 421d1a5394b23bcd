"""Fissions acting on the cycle (1 2 ... n), and the kernel behind every codec.

Splitting a cycle of the adjacency graph is modeled abstractly as a fission
of the integer cycle (1 2 ... n): two cuts, one after the `base` and one
after the `top`, excise the arc (base, top] into its own cycle.  A sorting
scenario of a cycle with n target adjacencies is then a sequence of n-1
fissions ending in singletons.  The `partner` of a fission is the element
sitting right of the first cut, i.e. the smallest element above the base in
the base's current cycle.

The codecs of :mod:`dcjsort.parking` and :mod:`dcjsort.trees` and validation
share one O(n log n) kernel: `partners` maps bases to partners,
`step_parents` hangs each step below the step that introduced its base, and
`erase_edges` erases that tree's edges in step order to read off the tops.
The partition walk (`apply_fission`, `scenario_partners`, ...) and
`chain_top`, the invariant that fixes every top, are the slow reference
definitions it is tested against; only failure reports and oracles use them.

Cycles are stored as increasing tuples and partitions as tuples of cycles
sorted by their minimum, which is canonical because fissions preserve the
increasing order of every cycle they create.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .errors import InvalidFissionError, InvalidScenarioError, TextFormatError


class Fission(NamedTuple):
    base: int
    top: int


class FissionScenario(NamedTuple):
    """n plus the n-1 fissions that refine (1..n) into singletons."""

    n: int
    steps: tuple[Fission, ...]

    @property
    def bases(self) -> tuple[int, ...]:
        return tuple(f.base for f in self.steps)

    @property
    def tops(self) -> tuple[int, ...]:
        return tuple(f.top for f in self.steps)


#: A partition of {1..n} into increasing cycles, sorted by minimum element.
CyclePartition = tuple[tuple[int, ...], ...]


def single_cycle(n: int) -> CyclePartition:
    if n < 1:
        raise ValueError(f"cycle size must be positive, got {n}")
    return (tuple(range(1, n + 1)),)


def singletons(n: int) -> CyclePartition:
    return tuple((x,) for x in range(1, n + 1))


def apply_fission(part: CyclePartition, fission) -> CyclePartition:
    """Split one cycle of `part` at the gaps after `base` and after `top`."""
    base, top = fission
    index = next((i for i, blk in enumerate(part) if base in blk), None)
    if index is None:
        raise InvalidFissionError(f"base {base} is not in the partition")
    block = part[index]
    if top <= base:
        raise InvalidFissionError(f"top {top} must exceed base {base}")
    if top not in block:
        if any(top in blk for blk in part):
            raise InvalidFissionError(f"base {base} and top {top} lie in different cycles")
        raise InvalidFissionError(f"top {top} is not in the partition")
    inner = tuple(x for x in block if base < x <= top)
    outer = tuple(x for x in block if not (base < x <= top))
    rest = [blk for i, blk in enumerate(part) if i != index]
    rest.extend((outer, inner))
    return tuple(sorted(rest))


def partner_in(part: CyclePartition, base: int) -> int:
    """Smallest element above `base` in the cycle containing it."""
    for block in part:
        if base in block:
            i = block.index(base)
            if i == len(block) - 1:
                raise InvalidFissionError(f"{base} is the largest element of its cycle")
            return block[i + 1]
    raise InvalidFissionError(f"base {base} is not in the partition")


class ScenarioReport(NamedTuple):
    ok: bool
    step: int | None = None
    reason: str | None = None
    partition: CyclePartition | None = None


def validate_scenario(s: FissionScenario) -> ScenarioReport:
    """Check a scenario; reports the first failing step if any.

    Valid means the bases form a parking function that decodes back to the
    steps; only an invalid scenario is walked to locate its first failure.
    """
    if s.n < 1:
        return ScenarioReport(False, None, f"cycle size must be positive, got {s.n}")
    if len(s.steps) != s.n - 1:
        return ScenarioReport(False, None, f"expected {s.n - 1} fissions, got {len(s.steps)}")
    steps = tuple(map(tuple, s.steps))
    bases = [base for base, _ in steps]
    if is_parking_function(bases) and decode_bases(bases).steps == steps:
        return ScenarioReport(True)
    part = single_cycle(s.n)
    for i, f in enumerate(s.steps, start=1):
        try:
            part = apply_fission(part, f)
        except InvalidFissionError as exc:
            return ScenarioReport(False, i, str(exc), part)
    raise AssertionError("a scenario that walks to singletons must decode from its bases")


def require_valid(s: FissionScenario) -> FissionScenario:
    report = validate_scenario(s)
    if not report.ok:
        where = f"step {report.step}: " if report.step is not None else ""
        raise InvalidScenarioError(f"invalid scenario: {where}{report.reason}")
    return s


def run_scenario(s: FissionScenario) -> tuple[CyclePartition, ...]:
    """All n partitions the scenario walks through, initial one included."""
    require_valid(s)
    part = single_cycle(s.n)
    trace = [part]
    for f in s.steps:
        part = apply_fission(part, f)
        trace.append(part)
    return tuple(trace)


def scenario_partners(s: FissionScenario) -> tuple[int, ...]:
    """The partner of each step, recomputed from the evolving partition."""
    part = single_cycle(s.n)
    partners = []
    for f in s.steps:
        partners.append(partner_in(part, f.base))
        part = apply_fission(part, f)
    return tuple(partners)


def chain_top(pairs: Sequence[tuple[int, int]], start: int) -> int:
    """Follow last-partner links from `start` until it is no pair's base.

    With `pairs` taken from the tail of a valid scenario, the fixpoint is
    the largest element of the cycle those remaining fissions finish
    sorting: top i equals chain_top(pairs[i+1:], q_i).  This is the
    invariant `erase_edges` computes in one pass; kept as its oracle.
    """
    x = start
    for _ in range(len(pairs) + 1):
        last = None
        for base, q in pairs:
            if base == x:
                last = q
        if last is None:
            return x
        x = last
    raise InvalidScenarioError("partner links do not terminate")


def find_root(link: list[int], v: int) -> int:
    """Root of `v` in a union-find forest, halving the path on the way."""
    while link[v] != v:
        link[v] = v = link[link[v]]
    return v


def is_parking_function(seq: Sequence[int]) -> bool:
    values = list(seq)
    if any(v < 1 for v in values):
        return False
    return all(v <= i for i, v in enumerate(sorted(values), start=1))


def partners(bases: Sequence[int]) -> tuple[int, ...]:
    """The partner of each step, from bases that form a parking function.

    Base values are served from n-1 down to 1, occurrences left to right;
    each takes the smallest free value above it, found through a "next free
    value" union-find over 2..n.
    """
    free = list(range(len(bases) + 2))  # free[v] leads to the smallest free value >= v
    out = [0] * len(bases)
    for i in sorted(range(len(bases)), key=lambda i: -bases[i]):
        out[i] = q = find_root(free, bases[i] + 1)
        free[q] = q + 1
    return tuple(out)


def step_parents(bases: Sequence[int], qs: Sequence[int]) -> list[int]:
    """parent[i]: the step whose partner step i reuses as its base, 0 for base 1 and i = 0."""
    introduced = [0] * (len(bases) + 2)
    for j, q in enumerate(qs, start=1):
        introduced[q] = j
    return [0] + [introduced[b] for b in bases]


def erase_edges(parent: Sequence[int], names: Sequence[int]) -> FissionScenario:
    """The scenario read off a tree on 0..n-1 by erasing edges 1..n-1 in order.

    Edge i enters vertex i from parent[i].  Step i's base is the name of
    vertex i's parent, and its top the largest name still hanging below
    vertex i once edges 1..i are gone: re-adding the edges from n-1 down in
    a union-find that carries each component's largest name finds them all.
    """
    n = len(names)
    link = list(range(n))
    best = list(names)
    tops = [0] * n
    for i in range(n - 1, 0, -1):
        root = find_root(link, i)
        tops[i] = best[root]
        up = find_root(link, parent[i])
        link[root] = up
        best[up] = max(best[up], best[root])
    return FissionScenario(n, tuple(Fission(names[parent[i]], tops[i]) for i in range(1, n)))


def decode_bases(bases: Sequence[int]) -> FissionScenario:
    """The unique scenario whose bases are the parking function `bases`."""
    qs = partners(bases)
    return erase_edges(step_parents(bases, qs), (1,) + qs)


def is_non_crossing(part: CyclePartition) -> bool:
    """True when no two cycles interleave around the circle 1..n."""
    owner = {x: i for i, blk in enumerate(part) for x in blk}
    for i in range(len(part)):
        for j in range(i + 1, len(part)):
            merged = sorted(part[i] + part[j])
            runs = 1
            for a, b in zip(merged, merged[1:]):
                if owner[a] != owner[b]:
                    runs += 1
            # four or more alternation runs means the pair crosses
            if runs >= 4:
                return False
    return True


def refines(finer: CyclePartition, coarser: CyclePartition) -> bool:
    """True when every cycle of `finer` sits inside one cycle of `coarser`."""
    cover = {x: i for i, blk in enumerate(coarser) for x in blk}
    for blk in finer:
        target = cover.get(blk[0])
        if target is None or any(cover.get(x) != target for x in blk):
            return False
    return True


def format_scenario(s: FissionScenario) -> str:
    """Text form: n on the first line, then one "base top" pair per line."""
    return "\n".join([str(s.n)] + [f"{f.base} {f.top}" for f in s.steps])


def parse_pairs(text: str, what: str, size: str, pair: str) -> tuple[int, list[tuple[int, int]]]:
    """A size on the first line, then one integer pair per line; `#` starts a comment."""
    rows = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    rows = [r for r in rows if r]
    if not rows:
        raise TextFormatError(f"empty {what} text")
    try:
        n = int(rows[0])
    except ValueError:
        raise TextFormatError(f"first line must be the {size}, got {rows[0]!r}") from None
    pairs = []
    for r in rows[1:]:
        try:
            x, y = (int(v) for v in r.split())
        except ValueError:
            raise TextFormatError(f"expected {pair!r}, got {r!r}") from None
        pairs.append((x, y))
    return n, pairs


def parse_scenario(text: str) -> FissionScenario:
    n, pairs = parse_pairs(text, "scenario", "cycle size", "base top")
    return FissionScenario(n, tuple(Fission(*p) for p in pairs))
