"""Seeded instance generators and an independent adjacency model.

Nothing here imports dcjsort: inputs and the statistics recorded about them
(N, C, K, d, largest cycle, digits of the scenario count) come from this
file alone, so the benchmark cannot inherit a defect of the program it
measures.

Genomes are lists of ``(kind, blocks)`` with kind ``"linear"`` or
``"circular"`` and blocks signed integers.  Block ``b`` has tail extremity
``2b`` and head extremity ``2b + 1``.
"""

from __future__ import annotations

import heapq
import math
import random


def make_rng(*parts) -> random.Random:
    """A generator whose stream depends only on ``parts`` (str seeds hash with SHA-512)."""
    return random.Random(":".join(str(p) for p in parts))


# --- genome pairs -----------------------------------------------------------


def _signed_shuffle(blocks, rng):
    blocks = list(blocks)
    rng.shuffle(blocks)
    return [b if rng.random() < 0.5 else -b for b in blocks]


def shuffled_pair(n: int, rng: random.Random):
    """B is the linear chromosome 1..n.  A keeps 1 and n at the ends of a
    linear chromosome and puts the other n-2 blocks in random order and
    sign, half of them on one circular chromosome: a few big cycles."""
    inner = _signed_shuffle(range(2, n), rng)
    half = len(inner) // 2
    a = [("linear", [1] + inner[half:] + [n]), ("circular", inner[:half])]
    return a, [("linear", list(range(1, n + 1)))]


def windows_pair(n: int, rng: random.Random):
    """B is the linear chromosome 1..n.  A is B with (n-1)//4 disjoint
    3-block windows, each followed by one fixed block, shuffled and
    re-signed in place: many small cycles of at most 3 steps each."""
    blocks = list(range(1, n + 1))
    for lo in range(1, n - 3, 4):
        blocks[lo : lo + 3] = _signed_shuffle(blocks[lo : lo + 3], rng)
    return [("linear", blocks)], [("linear", list(range(1, n + 1)))]


def circular_genome(n: int, rng: random.Random):
    """One circular chromosome holding blocks 1..n in random order and sign."""
    return [("circular", _signed_shuffle(range(1, n + 1), rng))]


def genome_text(chromosomes) -> str:
    lines = []
    for kind, blocks in chromosomes:
        opener, closer = ("(", ")") if kind == "linear" else ("[", "]")
        lines.append(opener + " ".join(map(str, blocks)) + closer)
    return "\n".join(lines)


def pair_text(a, b) -> str:
    return f">A\n{genome_text(a)}\n>B\n{genome_text(b)}\n"


# --- adjacency model --------------------------------------------------------


def left_ext(block: int) -> int:
    """Extremity through which a signed block is entered when read left to right."""
    return 2 * block if block > 0 else 2 * -block + 1


def right_ext(block: int) -> int:
    return 2 * block + 1 if block > 0 else 2 * -block


def partner_map(chromosomes) -> dict[int, int]:
    """Extremity -> extremity across each adjacency; telomeres are absent."""
    out = {}
    for kind, blocks in chromosomes:
        pairs = list(zip(blocks, blocks[1:]))
        if kind == "circular":
            pairs.append((blocks[-1], blocks[0]))
        for x, y in pairs:
            u, v = right_ext(x), left_ext(y)
            out[u] = v
            out[v] = u
    return out


def cycle_sizes(pa: dict[int, int], pb: dict[int, int]) -> list[int]:
    """B-adjacencies per adjacency-graph cycle, found with a union-find."""
    parent = {e: e for e in pa}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for partners in (pa, pb):
        for e, f in partners.items():
            if e < f:
                rx, ry = find(e), find(f)
                if rx != ry:
                    parent[rx] = ry
    sizes: dict[int, int] = {}
    for e in pa:
        r = find(e)
        sizes[r] = sizes.get(r, 0) + 1
    return [s // 2 for s in sizes.values()]


def distance(pa: dict[int, int], pb: dict[int, int], n_blocks: int, n_linear: int) -> int:
    return n_blocks - len(cycle_sizes(pa, pb)) - n_linear


def decimal_digits(x: int) -> int:
    """Digits of a positive integer without converting it to text."""
    k = max(1, int((x.bit_length() - 1) * math.log10(2)))
    while 10**k <= x:
        k += 1
    while k > 1 and 10 ** (k - 1) > x:
        k -= 1
    return k


def scenario_count(steps) -> int:
    """Closed-form count: multinomial interleavings times (l+1)^(l-1) per cycle."""
    total, out = 0, 1
    for l in steps:
        total += l
        out *= math.comb(total, l)
        if l >= 1:
            out *= (l + 1) ** (l - 1)
    return out


def pair_stats(a, b) -> dict:
    """N, C, K, d, largest cycle (in steps) and digits of the count."""
    n_blocks = sum(len(blocks) for _, blocks in a)
    n_linear = sum(1 for kind, _ in a if kind == "linear")
    sizes = cycle_sizes(partner_map(a), partner_map(b))
    steps = [s - 1 for s in sizes]
    return {
        "N": n_blocks,
        "C": len(sizes),
        "K": n_linear,
        "d": n_blocks - len(sizes) - n_linear,
        "nontrivial": sum(1 for s in steps if s),
        "largest_cycle_steps": max(steps, default=0),
        "count_digits": decimal_digits(scenario_count(steps)),
        "cycle_sizes": sorted(sizes),
    }


# --- scenario codes ---------------------------------------------------------


def random_parking(m: int, rng: random.Random) -> list[int]:
    """Uniform parking function of length m (Pollak's circular argument).

    m cars with preferences in Z_{m+1} park on a circle of m+1 spots,
    leaving exactly one spot empty; rotating every preference so the empty
    spot is the last one gives a parking function, and each rotation class
    holds exactly one, so the result is uniform.
    """
    spots = m + 1
    prefs = [rng.randrange(spots) for _ in range(m)]
    nxt = list(range(spots))  # first free spot at or after i, path-halved

    def free(i):
        while nxt[i] != i:
            nxt[i] = nxt[nxt[i]]
            i = nxt[i]
        return i

    for p in prefs:
        s = free(p)
        nxt[s] = (s + 1) % spots
    shift = m - free(0)
    return [(p + shift) % spots + 1 for p in prefs]


def identity_parking(m: int) -> list[int]:
    return list(range(1, m + 1))


def random_tree(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Uniform labeled tree on 0..n-1, decoded from a random Prüfer code."""
    if n == 1:
        return []
    code = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in code:
        degree[v] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in code:
        edges.append((heapq.heappop(leaves), v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def random_scenario(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """A valid scenario on (1..n): n-1 random fissions of a partition model.

    Each step picks a cycle with at least two elements and two of its
    elements as base and top, uniformly.
    """
    blocks = [list(range(1, n + 1))] if n > 1 else []
    steps = []
    while blocks:
        i = rng.randrange(len(blocks))
        block = blocks[i]
        lo, hi = sorted(rng.sample(range(len(block)), 2))
        base, top = block[lo], block[hi]
        steps.append((base, top))
        outer, inner = block[: lo + 1] + block[hi + 1 :], block[lo + 1 : hi + 1]
        blocks[i] = blocks[-1]
        blocks.pop()
        blocks.extend(b for b in (outer, inner) if len(b) >= 2)
    return steps


def tree_text(n: int, edges) -> str:
    return "\n".join([str(n)] + [f"{u} {v}" for u, v in edges]) + "\n"


def scenario_text(n: int, steps) -> str:
    return "\n".join([str(n)] + [f"{b} {t}" for b, t in steps]) + "\n"


def parking_text(values) -> str:
    return " ".join(map(str, values)) + "\n"
