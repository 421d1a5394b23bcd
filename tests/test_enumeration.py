from collections import Counter

import pytest

from dcjsort import (
    Fission,
    FissionScenario,
    GuardExceededError,
    count_parking,
    dcj_distance,
    enumerate_dcj_sorting_scenarios,
    enumerate_scenarios,
    interleave,
    make_rng,
    multinomial,
    parse_genome,
    sample_scenario,
    scenario_to_parking,
    validate_scenario,
)
from dcjsort.enumeration import count_scenarios
from dcjsort.adjacency_graph import build_adjacency_graph
from dcjsort.genome import apply_dcj

# all-circular pair with a single adjacency-graph cycle, distance 6;
# found by search, frozen here to exercise the oracle guard
DEEP_A_TEXT = "[a -e -h -g d b -f c]"
DEEP_B_TEXT = "[a b c d e f g h]"


@pytest.mark.parametrize("lengths, expected", [((2, 1), 3), ((1, 1, 1), 6), ((4,), 1), ((), 1)])
def test_multinomial(lengths, expected):
    assert multinomial(lengths) == expected


@pytest.mark.parametrize(
    "lengths, expected",
    [((4,), 125), ((2, 1), 9), ((0, 0, 0), 1), ((), 1), ((1, 1), 2)],
)
def test_count_scenarios(lengths, expected):
    assert count_scenarios(lengths) == expected


def test_enumerate_n1():
    assert list(enumerate_scenarios(1)) == [FissionScenario(1, ())]


def test_enumerate_n3_exact_order():
    scenarios = list(enumerate_scenarios(3))
    assert [s.steps for s in scenarios] == [
        (Fission(1, 2), Fission(1, 3)),
        (Fission(1, 3), Fission(2, 3)),
        (Fission(2, 3), Fission(1, 2)),
    ]


@pytest.mark.parametrize("n, expected", [(1, 1), (2, 1), (3, 3), (4, 16), (5, 125)])
def test_enumerate_counts(n, expected):
    assert sum(1 for _ in enumerate_scenarios(n)) == expected
    assert expected == count_parking(n - 1)


def test_enumerate_all_valid_and_distinct():
    scenarios = list(enumerate_scenarios(5))
    assert len(set(scenarios)) == len(scenarios)
    assert all(validate_scenario(s).ok for s in scenarios)


def test_enumerate_limit():
    assert sum(1 for _ in enumerate_scenarios(5, limit=10)) == 10


def test_enumerate_guard():
    with pytest.raises(GuardExceededError, match="force"):
        enumerate_scenarios(9)
    assert next(iter(enumerate_scenarios(9, limit=1, force=True))).n == 9


def test_oracle_single_sorting_dcj():
    a, b = parse_genome("[a -b]"), parse_genome("[a b]")
    assert sum(1 for _ in enumerate_dcj_sorting_scenarios(a, b)) == 1


def test_oracle_identical_genomes(genome_b):
    assert list(enumerate_dcj_sorting_scenarios(genome_b, genome_b)) == [()]


def test_oracle_matches_formula_on_two_cycle_instance(profile_21_pair):
    a, b = profile_21_pair
    graph = build_adjacency_graph(a, b)
    assert graph.profile == (2, 1)
    scenarios = list(enumerate_dcj_sorting_scenarios(a, b))
    assert len(scenarios) == count_scenarios(graph.profile) == 9
    assert len(set(scenarios)) == 9
    for ops in scenarios:
        g = a
        for op in ops:
            g = apply_dcj(g, op)
        assert g == b


def test_oracle_guard():
    a, b = parse_genome(DEEP_A_TEXT), parse_genome(DEEP_B_TEXT)
    assert dcj_distance(a, b) == 6
    with pytest.raises(GuardExceededError, match="force"):
        enumerate_dcj_sorting_scenarios(a, b)
    assert len(next(iter(enumerate_dcj_sorting_scenarios(a, b, limit=1, force=True)))) == 6


def test_sample_n2_is_the_only_scenario():
    rng = make_rng(99)
    for _ in range(5):
        assert sample_scenario(2, rng) == FissionScenario(2, (Fission(1, 2),))


def test_sample_deterministic_per_seed():
    assert sample_scenario(7, make_rng(42)) == sample_scenario(7, make_rng(42))
    streams = [tuple(sample_scenario(5, make_rng(s)) for _ in range(10)) for s in (3, 3)]
    assert streams[0] == streams[1]


def test_sampled_scenarios_validate():
    rng = make_rng(5)
    for n in range(1, 10):
        for _ in range(20):
            s = sample_scenario(n, rng)
            assert s.n == n
            assert validate_scenario(s).ok


def test_sample_rough_uniformity_n3():
    rng = make_rng(11)
    counts = Counter(sample_scenario(3, rng).steps for _ in range(3000))
    assert len(counts) == 3
    # 5 sigma around 1000 for p=1/3
    assert all(870 <= c <= 1130 for c in counts.values())


def test_sample_uniform_over_parking_functions():
    rng = make_rng(17)
    counts = Counter(scenario_to_parking(sample_scenario(3, rng)) for _ in range(3000))
    assert set(counts) == {(1, 1), (1, 2), (2, 1)}


def _two_scenarios():
    first = FissionScenario(3, (Fission(1, 2), Fission(1, 3)))
    second = FissionScenario(2, (Fission(1, 2),))
    return [first, second]


def test_interleave_by_index_enumerates_all():
    per_cycle = _two_scenarios()
    orders = [tuple(m for m, _ in interleave(per_cycle, i)) for i in range(3)]
    assert orders == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    with pytest.raises(IndexError):
        interleave(per_cycle, 3)


def test_interleave_keeps_per_cycle_order():
    per_cycle = _two_scenarios()
    merged = interleave(per_cycle, 1)
    assert [f for m, f in merged if m == 0] == list(per_cycle[0].steps)
    assert [f for m, f in merged if m == 1] == list(per_cycle[1].steps)


def test_interleave_single_cycle_identity():
    per_cycle = [_two_scenarios()[0]]
    assert interleave(per_cycle, 0) == ((0, Fission(1, 2)), (0, Fission(1, 3)))


def test_interleave_uniform_mode():
    per_cycle = [
        FissionScenario(2, (Fission(1, 2),)),
        FissionScenario(2, (Fission(1, 2),)),
    ]
    rng = make_rng(23)
    counts = Counter(tuple(m for m, _ in interleave(per_cycle, rng)) for _ in range(10000))
    assert set(counts) == {(0, 1), (1, 0)}
    # 5 sigma around 5000 for p=1/2
    assert all(4750 <= c <= 5250 for c in counts.values())
