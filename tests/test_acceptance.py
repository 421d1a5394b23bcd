"""Acceptance suite: the package's end-to-end guarantees at desk scale.

Each test covers one advertised guarantee, asserts it at full strength, and
prints a one-line verdict (visible with ``pytest -s`` or on failure).
Run with ``pytest tests/test_acceptance.py -v``.
"""

import time
from collections import Counter
from itertools import product

from dcjsort import (
    apply_dcj,
    build_adjacency_graph,
    chain_top,
    count_parking,
    dcj_distance,
    enumerate_dcj_sorting_scenarios,
    enumerate_scenarios,
    erase_edges_components,
    interleave,
    is_non_crossing,
    make_rng,
    parking_to_scenario,
    prufer_decode,
    realize_scenario,
    refines,
    run_scenario,
    sample_scenario,
    scenario_partners,
    scenario_to_parking,
    scenario_to_tree,
    tree_to_scenario,
)
from dcjsort.enumeration import count_scenarios
from conftest import REFERENCE_PARKING, REFERENCE_PARTNERS, REFERENCE_TOPS

#: documented seed for the uniformity criterion (also quoted in the README)
UNIFORMITY_SEED = 2024


def _report(number, text):
    print(f"[acceptance] criterion {number}: {text}: PASS")


def test_criterion_1_worked_example_fidelity(reference_scenario):
    started = time.monotonic()
    assert scenario_to_parking(reference_scenario) == REFERENCE_PARKING
    decoded = parking_to_scenario(REFERENCE_PARKING)
    assert scenario_partners(decoded) == REFERENCE_PARTNERS
    assert decoded.tops == REFERENCE_TOPS
    assert decoded == reference_scenario
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    _report(1, f"worked-example encode/decode exact ({elapsed:.3f}s)")


def test_criterion_2_cardinalities():
    started = time.monotonic()
    expected = {1: 1, 2: 1, 3: 3, 4: 16, 5: 125, 6: 1296}
    for n, want in expected.items():
        assert sum(1 for _ in enumerate_scenarios(n)) == want
        assert want == (n ** (n - 2) if n >= 2 else 1)
        assert want == count_parking(n - 1)
        trees = {prufer_decode(seq, n) for seq in product(range(n), repeat=max(n - 2, 0))}
        assert len(trees) == want
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    _report(2, f"scenario/parking/tree counts agree for n=1..6 ({elapsed:.1f}s)")


def test_criterion_3_bijection_round_trips():
    total = 0
    for n in range(1, 7):
        scenarios = list(enumerate_scenarios(n))
        parkings = [scenario_to_parking(s) for s in scenarios]
        trees = [scenario_to_tree(s) for s in scenarios]
        assert len(set(parkings)) == len(scenarios)
        assert len(set(trees)) == len(scenarios)
        for s, pf, t in zip(scenarios, parkings, trees):
            assert parking_to_scenario(pf) == s
            assert tree_to_scenario(t) == s
        total += len(scenarios)
    _report(3, f"both codecs injective and inverse on all {total} scenarios, n<=6")


def test_criterion_4_full_pipeline(genome_a, genome_b):
    started = time.monotonic()
    graph = build_adjacency_graph(genome_a, genome_b)
    assert (graph.n_blocks, graph.n_cycles, graph.n_linear) == (7, 1, 2)
    assert graph.distance == 4
    assert count_scenarios(graph.profile) == 125
    assert sum(1 for _ in enumerate_dcj_sorting_scenarios(genome_a, genome_b)) == 125
    for seed in range(100):
        rng = make_rng(seed)
        per_cycle = [sample_scenario(c.n, rng) for c in graph.cycles]
        merged = interleave(per_cycle, rng)
        ops = realize_scenario(genome_a, genome_b, per_cycle, [m for m, _ in merged])
        g = genome_a
        d = graph.distance
        for op in ops:
            g = apply_dcj(g, op)
            d -= 1
            assert dcj_distance(g, genome_b) == d
        assert g == genome_b
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    _report(4, f"distance 4, 125 by formula and by oracle, 100 seeds realized ({elapsed:.1f}s)")


def test_criterion_5_partner_chain_reaches_maximum():
    failures = 0
    for n in range(5, 10):
        rng = make_rng(n)
        for _ in range(1000):
            s = sample_scenario(n, rng)
            pairs = list(zip(s.bases, scenario_partners(s)))
            if chain_top(pairs, 1) != n:
                failures += 1
    assert failures == 0
    _report(5, "partner chain from 1 reaches n on 1000 samples at each n=5..9")


def test_criterion_6_non_crossing_suite():
    checked = 0
    for n in range(1, 7):
        for s in enumerate_scenarios(n):
            trace = run_scenario(s)
            for part in trace:
                assert all(blk == tuple(sorted(blk)) for blk in part)
                assert is_non_crossing(part)
            for earlier, later in zip(trace, trace[1:]):
                assert refines(later, earlier)
            checked += len(trace)
    _report(6, f"{checked} intermediate partitions increasing/non-crossing/refining")


def test_criterion_7_tree_erasure_equivalence():
    checked = 0
    for n in range(1, 7):
        for s in enumerate_scenarios(n):
            tree = scenario_to_tree(s)
            trace = run_scenario(s)
            for k in range(n):
                assert erase_edges_components(tree, s, k) == trace[k]
                checked += 1
    _report(7, f"edge erasure matches the partition trace at {checked} (scenario, k) points")


def test_criterion_8_uniform_sampling():
    rng = make_rng(UNIFORMITY_SEED)
    counts = Counter(sample_scenario(4, rng).steps for _ in range(16000))
    assert len(counts) == 16
    assert all(850 <= c <= 1150 for c in counts.values()), sorted(counts.values())
    _report(8, f"16000 draws at n=4, every scenario in [850, 1150] (seed {UNIFORMITY_SEED})")


def test_criterion_9_shuffle_counts(profile_21_pair):
    a, b = profile_21_pair
    graph = build_adjacency_graph(a, b)
    assert graph.profile == (2, 1)
    scenarios = list(enumerate_dcj_sorting_scenarios(a, b))
    assert len(scenarios) == len(set(scenarios)) == 9
    per_cycle = [sample_scenario(3, make_rng(0)), sample_scenario(2, make_rng(0))]
    orders = {tuple(m for m, _ in interleave(per_cycle, i)) for i in range(3)}
    assert len(orders) == 3
    _report(9, "profile (2,1): oracle finds 9 scenarios, 3 interleavings enumerate")
