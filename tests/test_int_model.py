"""The integer extremity model against the eager `Extremity` code it replaced.

Names are drawn so that string order and order of appearance disagree
("10" < "9", "B" < "a", "_x" after letters), with mixed linear and circular
chromosomes, one-block chromosomes and all-circular pairs.
"""

import gc
import random

from hypothesis import given, settings, strategies as st

import oracles
from dcjsort import (
    BlockMismatchError,
    Chromosome,
    DcjOp,
    Extremity,
    Genome,
    GenomeParseError,
    InvalidDcjError,
    NotCoTailedError,
    apply_dcj,
    build_adjacency_graph,
    co_tailed,
    make_dcj,
    read_genomes,
)
from dcjsort.genome import HEAD, TAIL
from test_adjacency_graph import _signed, co_tailed_partner

TRICKY_NAMES = ["9", "10", "100", "2", "B", "a", "A", "b", "_x", "x_", "Z9", "z", "0"]
names_strategy = st.lists(
    st.one_of(st.sampled_from(TRICKY_NAMES), st.from_regex(r"[A-Za-z0-9_]{1,3}", fullmatch=True)),
    min_size=1,
    max_size=14,
    unique=True,
)


def _deal(draw, tokens, kinds):
    """Cut `tokens` into chromosomes of the given kinds; one-block pieces are common."""
    cuts = sorted(draw(st.sets(st.integers(1, max(1, len(tokens) - 1)), max_size=len(tokens))))
    chroms, start = [], 0
    for cut in cuts + [len(tokens)]:
        if cut > start:
            chroms.append(Chromosome(draw(kinds), tuple(tokens[start:cut])))
            start = cut
    return chroms


@st.composite
def chromosome_lists(draw):
    """Signed, shuffled names dealt to chromosomes; all circular half the time."""
    kinds = st.just("circular") if draw(st.booleans()) else st.sampled_from(["linear", "circular"])
    return _deal(draw, _signed(draw, draw(st.permutations(draw(names_strategy)))), kinds)


@st.composite
def co_tailed_pairs(draw):
    """Genome A, and a genome B that keeps A's telomeres, over the same names."""
    chroms_a = draw(chromosome_lists())
    return Genome(chroms_a), co_tailed_partner(draw, chroms_a)


def _rewritten(draw, chroms):
    """The same genome written differently: chromosomes flipped, rotated and reordered."""
    out = []
    for kind, blocks in chroms:
        if draw(st.booleans()):
            blocks = tuple(b[1:] if b[0] == "-" else "-" + b for b in reversed(blocks))
        if kind == "circular":
            r = draw(st.integers(0, len(blocks) - 1))
            blocks = blocks[r:] + blocks[:r]
        out.append(Chromosome(kind, blocks))
    return draw(st.permutations(out))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (GenomeParseError, InvalidDcjError, ValueError) as exc:
        return type(exc), str(exc)


def _views(g):
    return g.chromosomes, g.blocks, g.adjacencies, g.telomeres, g.tails


@settings(max_examples=300)
@given(chromosome_lists(), st.data())
def test_views_match_eager_oracle(chroms, data):
    if data.draw(st.integers(0, 4)) == 0:
        # append a token already in the genome: a duplicate name
        k = data.draw(st.integers(0, len(chroms) - 1))
        kind, blocks = chroms[k]
        repeated = data.draw(st.sampled_from([b for _, bs in chroms for b in bs]))
        chroms[k] = Chromosome(kind, (*blocks, repeated))
    expected = _outcome(oracles.eager_views, chroms)
    assert _outcome(lambda c: _views(Genome(c)), chroms) == expected
    if isinstance(expected[1], frozenset):
        g = Genome(chroms)
        assert g.n_blocks == len(expected[1])
        assert g.n_linear == len(expected[3]) // 2 == sum(kind == "linear" for kind, _ in chroms)


@settings(max_examples=200)
@given(chromosome_lists(), chromosome_lists(), st.data())
def test_equality_and_hash_are_semantic(chroms, other, data):
    g = Genome(chroms)
    same = Genome(_rewritten(data.draw, chroms))
    views = oracles.eager_views(chroms)[1:4]
    assert same == g
    assert hash(same) == hash(g) == hash(views)
    assert repr(same) == repr(g)
    h = Genome(other)
    assert (g == h) == (views == oracles.eager_views(other)[1:4])


@settings(max_examples=300)
@given(co_tailed_pairs())
def test_graph_matches_sorted_oracle(pair):
    a, b = pair
    graph = build_adjacency_graph(a, b)
    cycles = oracles.cycles(a, b)
    assert graph.cycles == cycles
    assert graph.cycle_lengths == tuple(c.length for c in cycles)
    assert graph.profile == tuple(c.n - 1 for c in cycles)
    assert graph.distance == a.n_blocks - (len(cycles) + a.n_linear)


@settings(max_examples=200)
@given(chromosome_lists(), chromosome_lists())
def test_graph_errors_match_co_tailed(chroms_a, chroms_b):
    a, b = Genome(chroms_a), Genome(chroms_b)
    try:
        expected = "ok" if co_tailed(a, b) else NotCoTailedError
    except BlockMismatchError:
        expected = BlockMismatchError
    try:
        build_adjacency_graph(a, b)
        got = "ok"
    except (BlockMismatchError, NotCoTailedError) as exc:
        got = type(exc)
    assert got == expected


@st.composite
def dcj_cases(draw):
    """A genome and an op: mostly a real rewiring of two of its adjacencies,
    sometimes an absent cut, a foreign extremity or the identity."""
    g = Genome(draw(chromosome_lists()))
    adjacencies = sorted(g.adjacencies)
    exts = [Extremity(name, end) for name in sorted(g.blocks) for end in (TAIL, HEAD)]
    exts += [Extremity("absent", TAIL), Extremity(min(g.blocks), 2)]

    def adjacency():
        if adjacencies and draw(st.integers(0, 4)):
            return draw(st.sampled_from(adjacencies))
        e1, e2 = draw(st.lists(st.sampled_from(exts), min_size=2, max_size=2, unique=True))
        return (e1, e2) if e1 <= e2 else (e2, e1)

    cut = (adjacency(), adjacency())
    (e1, e2), (e3, e4) = cut
    kind = draw(st.integers(0, 5))
    if kind == 0:
        form = cut
    elif kind == 1:
        form = (adjacency(), adjacency())
    else:
        form = ((e1, e3), (e2, e4)) if kind % 2 else ((e1, e4), (e2, e3))
    return g, DcjOp(cut, form)


@settings(max_examples=400)
@given(dcj_cases())
def test_apply_dcj_matches_set_rewrite(case):
    g, op = case
    expected = _outcome(oracles.apply_dcj_chromosomes, g, op)
    got = _outcome(lambda: _views(apply_dcj(g, op)))
    assert got == (expected if isinstance(expected[0], type) else oracles.eager_views(expected))


@settings(max_examples=100)
@given(chromosome_lists(), st.data())
def test_apply_dcj_chains_match_set_rewrite(chroms, data):
    """Ops applied one after another to results of `apply_dcj` itself."""
    g = Genome(chroms)
    for _ in range(4):
        adjacencies = sorted(g.adjacencies)
        if len(adjacencies) < 2:
            return
        cut = data.draw(st.lists(st.sampled_from(adjacencies), min_size=2, max_size=2, unique=True))
        (e1, e2), (e3, e4) = cut
        op = make_dcj(cut, data.draw(st.sampled_from([((e1, e3), (e2, e4)), ((e1, e4), (e2, e3))])))
        chroms = oracles.apply_dcj_chromosomes(g, op)
        g = apply_dcj(g, op)
        assert _views(g) == oracles.eager_views(chroms)


def _query_pair_text(n):
    """A co-tailed pair on n blocks: B is (1 .. n); A keeps 1 and n at the
    ends of a linear chromosome and shuffles and re-signs the rest, half of
    them on a long circular chromosome."""
    rng = random.Random(1)
    inner = [str(x) if rng.random() < 0.5 else f"-{x}" for x in rng.sample(range(2, n), n - 2)]
    half = len(inner) // 2
    a = f"(1 {' '.join(inner[half:])} {n})\n[{' '.join(inner[:half])}]"
    return f">A\n{a}\n>B\n({' '.join(map(str, range(1, n + 1)))})\n"


def test_graph_keeps_few_gc_tracked_objects():
    """Parse, graph and cycle lengths on a 10^4-block pair keep O(chromosomes)
    objects, not O(N): no `Extremity` or adjacency tuple per block."""
    n = 10_000
    text = _query_pair_text(n)
    gc.collect()
    before = len(gc.get_objects())
    (_, a), (_, b) = read_genomes(text)
    graph = build_adjacency_graph(a, b)
    assert graph.distance > 0 and sum(graph.cycle_lengths) == 2 * (n - 1)
    gc.collect()
    assert len(gc.get_objects()) - before < n // 10
