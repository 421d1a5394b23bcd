import pytest

from dcjsort import (
    CycleTracker,
    Fission,
    FissionScenario,
    InvalidFissionError,
    InvalidScenarioError,
    adjacency_from_signed,
    apply_dcj,
    build_adjacency_graph,
    dcj_distance,
    enumerate_scenarios,
    make_dcj,
    parse_genome,
    realize_scenario,
)


def test_worked_example_single_cycle(genome_a, genome_b):
    graph = build_adjacency_graph(genome_a, genome_b)
    assert graph.n_cycles == 1
    assert graph.cycle_lengths == (10,)
    assert graph.profile == (4,)


def test_identical_genomes_trivial_cycles(genome_b):
    graph = build_adjacency_graph(genome_b, genome_b)
    assert graph.n_cycles == 5
    assert graph.cycle_lengths == (2, 2, 2, 2, 2)
    assert graph.distance == 0


def test_small_circular_cycle():
    a = parse_genome("[a -b]")
    b = parse_genome("[a b]")
    graph = build_adjacency_graph(a, b)
    assert graph.cycle_lengths == (4,)
    assert graph.distance == 1


def test_distance_worked_example(genome_a, genome_b):
    assert dcj_distance(genome_a, genome_b) == 4


def test_distance_zero_iff_equal(genome_a, genome_b):
    assert dcj_distance(genome_b, genome_b) == 0
    assert dcj_distance(genome_a, genome_b) > 0


def test_label_cycle_traversal_order(genome_a, genome_b):
    graph = build_adjacency_graph(genome_a, genome_b)
    cycle = graph.cycles[0]
    expected = [("a", "b"), ("f", "g"), ("b", "c"), ("e", "f"), ("d", "e")]
    assert list(cycle.b_order) == [adjacency_from_signed(*p) for p in expected]
    assert cycle.n == 5


def test_label_cycle_trivial(genome_b):
    graph = build_adjacency_graph(genome_b, genome_b)
    cycle = graph.cycles[0]
    assert cycle.n == 1
    assert cycle.a_between == cycle.b_order


def test_label_cycle_deterministic(genome_a, genome_b):
    first = build_adjacency_graph(genome_a, genome_b).cycles
    second = build_adjacency_graph(genome_a, genome_b).cycles
    assert first == second


def test_label_cycle_index_out_of_range(genome_a, genome_b):
    graph = build_adjacency_graph(genome_a, genome_b)
    with pytest.raises(IndexError):
        graph.cycles[3]


def test_fission_to_dcj_worked_example(genome_a, genome_b):
    graph = build_adjacency_graph(genome_a, genome_b)
    tracker = CycleTracker(graph.cycles[0])
    op = tracker.fission_to_dcj(Fission(1, 2))
    expected = make_dcj(
        (adjacency_from_signed("a", "-f"), adjacency_from_signed("-c", "g")),
        (adjacency_from_signed("f", "g"), adjacency_from_signed("a", "c")),
    )
    assert op == expected
    assert tracker.partition() == ((1, 3, 4, 5), (2,))


def test_fission_to_dcj_increases_cycle_count(genome_a, genome_b):
    graph = build_adjacency_graph(genome_a, genome_b)
    tracker = CycleTracker(graph.cycles[0])
    g = genome_a
    cycles = graph.n_cycles
    for fission in [Fission(1, 2), Fission(1, 4), Fission(3, 4)]:
        g = apply_dcj(g, tracker.fission_to_dcj(fission))
        now = build_adjacency_graph(g, genome_b).n_cycles
        assert now == cycles + 1
        cycles = now


def test_fission_on_trivial_cycle_fails(genome_b):
    graph = build_adjacency_graph(genome_b, genome_b)
    tracker = CycleTracker(graph.cycles[0])
    with pytest.raises(InvalidFissionError):
        tracker.fission_to_dcj(Fission(1, 2))


def test_fission_to_dcj_rejects_cross_cycle(genome_a, genome_b):
    graph = build_adjacency_graph(genome_a, genome_b)
    tracker = CycleTracker(graph.cycles[0])
    tracker.fission_to_dcj(Fission(2, 3))
    with pytest.raises(InvalidFissionError, match="different cycles"):
        tracker.fission_to_dcj(Fission(2, 3))


def _apply_all(genome, ops):
    for op in ops:
        genome = apply_dcj(genome, op)
    return genome


def test_realize_scenario_reaches_target(genome_a, genome_b):
    for scenario in enumerate_scenarios(5, limit=10):
        ops = realize_scenario(genome_a, genome_b, [scenario], [0, 0, 0, 0])
        assert len(ops) == 4
        assert _apply_all(genome_a, ops) == genome_b


def test_realize_scenario_steps_reduce_distance(genome_a, genome_b):
    scenario = next(iter(enumerate_scenarios(5)))
    ops = realize_scenario(genome_a, genome_b, [scenario], [0, 0, 0, 0])
    g = genome_a
    d = dcj_distance(genome_a, genome_b)
    for op in ops:
        g = apply_dcj(g, op)
        d -= 1
        assert dcj_distance(g, genome_b) == d


def test_realize_identical_genomes_empty(genome_b):
    trivial = FissionScenario(1, ())
    ops = realize_scenario(genome_b, genome_b, [trivial] * 5, [])
    assert ops == ()


def test_realize_two_cycles_interleavings_commute(profile_21_pair):
    a, b = profile_21_pair
    first = next(iter(enumerate_scenarios(3)))
    second = next(iter(enumerate_scenarios(2)))
    ops1 = realize_scenario(a, b, [first, second], [0, 0, 1])
    ops2 = realize_scenario(a, b, [first, second], [0, 1, 0])
    assert ops1 != ops2
    assert _apply_all(a, ops1) == _apply_all(a, ops2)
    assert _apply_all(a, ops1) == b


def test_realize_scenario_length_mismatch(genome_a, genome_b):
    short = FissionScenario(3, (Fission(1, 2), Fission(2, 3)))
    with pytest.raises(InvalidScenarioError, match="cycle 0 has 5"):
        realize_scenario(genome_a, genome_b, [short], [0, 0])


def test_realize_scenario_bad_interleaving(genome_a, genome_b):
    scenario = next(iter(enumerate_scenarios(5)))
    with pytest.raises(InvalidScenarioError, match="interleaving"):
        realize_scenario(genome_a, genome_b, [scenario], [0, 0, 0])
