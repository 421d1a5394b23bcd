import pytest
from hypothesis import given, strategies as st

from dcjsort import (
    Fission,
    FissionScenario,
    InvalidFissionError,
    InvalidScenarioError,
    apply_fission,
    chain_top,
    format_scenario,
    is_non_crossing,
    parse_scenario,
    partner_in,
    refines,
    run_scenario,
    scenario_partners,
    single_cycle,
    singletons,
    validate_scenario,
)
from dcjsort.fissions import ScenarioReport
from conftest import REFERENCE_TRACE


def test_apply_fission_first_reference_step():
    assert apply_fission(single_cycle(9), Fission(4, 5)) == REFERENCE_TRACE[1]


def test_apply_fission_mid_reference_step():
    part = ((2, 3, 4, 6, 7, 8),)
    assert apply_fission(part, Fission(2, 6)) == ((2, 7, 8), (3, 4, 6))


def test_apply_fission_smallest():
    assert apply_fission(single_cycle(2), Fission(1, 2)) == ((1,), (2,))


def test_apply_fission_cross_cycle_rejected():
    part = ((1, 3), (2,))
    with pytest.raises(InvalidFissionError, match="different cycles"):
        apply_fission(part, Fission(2, 3))


def test_apply_fission_top_absent():
    with pytest.raises(InvalidFissionError, match="not in the partition"):
        apply_fission(single_cycle(3), Fission(1, 7))


def test_apply_fission_base_not_below_top():
    with pytest.raises(InvalidFissionError, match="must exceed"):
        apply_fission(single_cycle(3), Fission(3, 3))


def test_validate_reference_scenario(reference_scenario):
    assert validate_scenario(reference_scenario).ok


def test_validate_wrong_length():
    report = validate_scenario(FissionScenario(3, (Fission(1, 2),)))
    assert not report.ok
    assert "expected 2 fissions" in report.reason


def test_validate_reports_first_failure():
    report = validate_scenario(FissionScenario(3, (Fission(1, 2), Fission(2, 3))))
    assert not report.ok
    assert report.step == 2
    assert report.partition == ((1, 3), (2,))


def test_run_scenario_reference_trace(reference_scenario):
    assert run_scenario(reference_scenario) == REFERENCE_TRACE


def test_run_scenario_two_elements():
    trace = run_scenario(FissionScenario(2, (Fission(1, 2),)))
    assert trace == (((1, 2),), ((1,), (2,)))


def test_run_scenario_rejects_invalid():
    with pytest.raises(InvalidScenarioError, match="step 2"):
        run_scenario(FissionScenario(3, (Fission(1, 2), Fission(2, 3))))


def test_partner_recomputation(reference_scenario):
    assert scenario_partners(reference_scenario) == (5, 9, 2, 3, 7, 4, 8, 6)


def test_partner_of_largest_element_fails():
    with pytest.raises(InvalidFissionError, match="largest element"):
        partner_in(((1, 2),), 2)


def test_chain_top_partial_pairs():
    pairs = [(2, 7), (3, 4), (2, 8), (4, 6)]
    assert chain_top(pairs, 3) == 6


def test_chain_top_full_reference(reference_scenario):
    pairs = list(zip(reference_scenario.bases, scenario_partners(reference_scenario)))
    assert chain_top(pairs, 1) == 9


def test_chain_top_fixpoint(reference_scenario):
    pairs = list(zip(reference_scenario.bases, scenario_partners(reference_scenario)))
    assert chain_top(pairs, 9) == 9


def test_chain_top_garbage_does_not_hang():
    with pytest.raises(InvalidScenarioError, match="terminate"):
        chain_top([(2, 3), (3, 2)], 2)


def test_non_crossing_examples():
    assert is_non_crossing(((1, 5), (2, 4), (3,)))
    assert not is_non_crossing(((1, 3), (2, 4)))
    assert not is_non_crossing(((1, 3, 10), (2, 4)))


def test_refinement_examples():
    assert refines(((1,), (2, 3)), ((1, 2, 3),))
    assert not refines(((1, 2), (3,)), ((1,), (2, 3)))


def test_reference_trace_properties(reference_scenario):
    trace = run_scenario(reference_scenario)
    for earlier, later in zip(trace, trace[1:]):
        assert refines(later, earlier)
    for part in trace:
        assert is_non_crossing(part)
        assert all(blk == tuple(sorted(blk)) for blk in part)


def test_singletons_helper():
    assert singletons(3) == ((1,), (2,), (3,))


def test_scenario_text_round_trip(reference_scenario):
    text = format_scenario(reference_scenario)
    assert text.splitlines()[0] == "9"
    assert parse_scenario(text) == reference_scenario


# independent scenario generator: a random walk over legal fissions
@st.composite
def random_walk_scenarios(draw):
    n = draw(st.integers(2, 9))
    part = single_cycle(n)
    steps = []
    for _ in range(n - 1):
        options = sorted(
            Fission(p, t)
            for blk in part
            if len(blk) >= 2
            for i, p in enumerate(blk)
            for t in blk[i + 1 :]
        )
        pick = options[draw(st.integers(0, len(options) - 1))]
        steps.append(pick)
        part = apply_fission(part, pick)
    return FissionScenario(n, tuple(steps))


@given(random_walk_scenarios())
def test_random_walks_are_valid_scenarios(s):
    assert validate_scenario(s).ok


@given(random_walk_scenarios())
def test_partners_cover_two_to_n_once(s):
    assert sorted(scenario_partners(s)) == list(range(2, s.n + 1))


@given(random_walk_scenarios())
def test_successive_partners_of_a_base_increase(s):
    partners = scenario_partners(s)
    by_base = {}
    for f, q in zip(s.steps, partners):
        by_base.setdefault(f.base, []).append(q)
    for qs in by_base.values():
        assert qs == sorted(qs)
        assert len(set(qs)) == len(qs)


@given(random_walk_scenarios())
def test_intermediate_partitions_non_crossing(s):
    for part in run_scenario(s):
        assert is_non_crossing(part)


def walk_report(s):
    """Oracle: validation by the partition walk alone."""
    if s.n < 1:
        return ScenarioReport(False, None, f"cycle size must be positive, got {s.n}")
    if len(s.steps) != s.n - 1:
        return ScenarioReport(False, None, f"expected {s.n - 1} fissions, got {len(s.steps)}")
    part = single_cycle(s.n)
    for i, f in enumerate(s.steps, start=1):
        try:
            part = apply_fission(part, f)
        except InvalidFissionError as exc:
            return ScenarioReport(False, i, str(exc), part)
    assert part == singletons(s.n)
    return ScenarioReport(True)


@st.composite
def arbitrary_fission_lists(draw):
    n = draw(st.integers(0, 9))
    length = max(n - 1 + draw(st.sampled_from([0, 0, 0, -1, 1])), 0)
    pairs = st.tuples(st.integers(0, n + 1), st.integers(0, n + 1))
    steps = draw(st.lists(pairs, min_size=length, max_size=length))
    return FissionScenario(n, tuple(Fission(*p) for p in steps))


@st.composite
def damaged_scenarios(draw):
    s = draw(random_walk_scenarios())
    i = draw(st.integers(0, len(s.steps) - 1))
    f = Fission(draw(st.integers(0, s.n + 1)), draw(st.integers(0, s.n + 1)))
    return FissionScenario(s.n, s.steps[:i] + (f,) + s.steps[i + 1 :])


@given(st.one_of(arbitrary_fission_lists(), damaged_scenarios(), random_walk_scenarios()))
def test_validate_matches_walk_report(s):
    # ScenarioReport is a NamedTuple: equality compares ok, step, reason and partition
    assert validate_scenario(s) == walk_report(s)
