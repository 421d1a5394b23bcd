from itertools import product

import pytest
from hypothesis import given, strategies as st

from dcjsort import (
    Fission,
    FissionScenario,
    InvalidParkingFunctionError,
    InvalidScenarioError,
    LabeledTree,
    chain_top,
    count_parking,
    enumerate_scenarios,
    format_parking,
    is_parking_function,
    parking_to_scenario,
    parse_parking,
    scenario_partners,
    scenario_to_parking,
    scenario_to_tree,
    validate_scenario,
)
from dcjsort.fissions import partners
from conftest import REFERENCE_PARKING, REFERENCE_PARTNERS, REFERENCE_TOPS


def brute_force_parking_functions(m):
    """Oracle: filter the whole cube {1..m}^m by the definition."""
    return [seq for seq in product(range(1, m + 1), repeat=m) if is_parking_function(seq)]


@pytest.mark.parametrize(
    "seq, expected",
    [
        ((4, 8, 1, 2, 2, 3, 2, 4), True),
        ((1, 1, 1), True),
        ((3, 3), False),
        ((), True),
        ((0, 1), False),
        ((2,), False),
    ],
)
def test_is_parking_function(seq, expected):
    assert is_parking_function(seq) is expected


def test_encode_reference_scenario(reference_scenario):
    assert scenario_to_parking(reference_scenario) == REFERENCE_PARKING


def test_encode_rejects_invalid():
    with pytest.raises(InvalidScenarioError):
        scenario_to_parking(FissionScenario(3, (Fission(1, 2),)))


def test_decode_reference_parking(reference_scenario):
    decoded = parking_to_scenario(REFERENCE_PARKING)
    assert scenario_partners(decoded) == REFERENCE_PARTNERS
    assert decoded.tops == REFERENCE_TOPS
    assert decoded == reference_scenario


def test_decode_singleton():
    assert parking_to_scenario((1,)) == FissionScenario(2, (Fission(1, 2),))


def test_decode_empty():
    assert parking_to_scenario(()) == FissionScenario(1, ())


def test_decode_rejects_non_parking():
    with pytest.raises(InvalidParkingFunctionError):
        parking_to_scenario((3, 3))


@pytest.mark.parametrize("m, expected", [(0, 1), (1, 1), (2, 3), (3, 16), (8, 4782969)])
def test_count_parking_values(m, expected):
    assert count_parking(m) == expected


@pytest.mark.parametrize("m", range(5))
def test_count_parking_against_brute_force(m):
    assert count_parking(m) == len(brute_force_parking_functions(m))


@pytest.mark.parametrize("n", range(1, 6))
def test_encode_is_injective(n):
    encoded = [scenario_to_parking(s) for s in enumerate_scenarios(n)]
    assert len(set(encoded)) == len(encoded)


@pytest.mark.parametrize("n", range(1, 6))
def test_decode_after_encode_is_identity(n):
    for s in enumerate_scenarios(n):
        assert parking_to_scenario(scenario_to_parking(s)) == s


@pytest.mark.parametrize("m", range(5))
def test_encode_after_decode_is_identity(m):
    for pf in brute_force_parking_functions(m):
        s = parking_to_scenario(pf)
        assert validate_scenario(s).ok
        assert scenario_to_parking(s) == pf


@pytest.mark.parametrize("m", range(5))
def test_first_fission_of_each_base_pairs_with_successor(m):
    for pf in brute_force_parking_functions(m):
        s = parking_to_scenario(pf)
        partners = scenario_partners(s)
        seen = set()
        for f, q in zip(s.steps, partners):
            if f.base not in seen:
                assert q == f.base + 1
                seen.add(f.base)


@st.composite
def parking_functions(draw):
    # draw a sorted witness s_i <= i, then shuffle it
    m = draw(st.integers(0, 60))
    witness = [draw(st.integers(1, i)) for i in range(1, m + 1)]
    return tuple(draw(st.permutations(witness)))


@given(parking_functions())
def test_random_parking_functions_round_trip(pf):
    s = parking_to_scenario(pf)
    assert validate_scenario(s).ok
    assert scenario_to_parking(s) == pf


def test_kernel_partners_of_reference():
    assert partners(REFERENCE_PARKING) == REFERENCE_PARTNERS


def test_kernel_decodes_identity_parking_function():
    # the identity is the worst case of the last-partner chains: step i splits off (i, n]
    m = 200
    s = parking_to_scenario(range(1, m + 1))
    assert s.tops == (m + 1,) * m
    assert partners(tuple(range(1, m + 1))) == tuple(range(2, m + 2))


# the kernel against the partition-walk oracles kept in dcjsort.fissions
@given(parking_functions())
def test_kernel_partners_match_partition_walk(pf):
    assert partners(pf) == scenario_partners(parking_to_scenario(pf))


@given(parking_functions())
def test_kernel_tops_end_last_partner_chains(pf):
    s = parking_to_scenario(pf)
    qs = partners(pf)
    pairs = list(zip(pf, qs))
    assert s.tops == tuple(chain_top(pairs[i + 1 :], q) for i, q in enumerate(qs))


@given(parking_functions())
def test_kernel_tree_edges_match_partition_walk(pf):
    s = parking_to_scenario(pf)
    introduced = {q: j for j, q in enumerate(scenario_partners(s), start=1)}
    edges = [(0 if f.base == 1 else introduced[f.base], i) for i, f in enumerate(s.steps, start=1)]
    assert scenario_to_tree(s) == LabeledTree(s.n, edges)


@pytest.mark.parametrize("n", range(1, 8))
def test_decoding_every_parking_function_gives_every_scenario(n):
    decoded = [parking_to_scenario(pf) for pf in brute_force_parking_functions(n - 1)]
    assert len(set(decoded)) == len(decoded)
    assert set(decoded) == set(enumerate_scenarios(n))


def test_parking_text_round_trip():
    text = format_parking(REFERENCE_PARKING)
    assert text == "4 8 1 2 2 3 2 4"
    assert parse_parking(text) == REFERENCE_PARKING
