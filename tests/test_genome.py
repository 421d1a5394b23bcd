import pytest
from hypothesis import given, strategies as st

from dcjsort import (
    BlockMismatchError,
    Chromosome,
    DcjOp,
    Genome,
    GenomeParseError,
    InvalidDcjError,
    adjacency_from_signed,
    apply_dcj,
    co_tailed,
    make_dcj,
    parse_genome,
    read_genomes,
    serialize_genome,
)
from conftest import GENOME_A_TEXT, GENOME_B_TEXT


def test_parse_worked_example():
    g = parse_genome(GENOME_A_TEXT)
    assert g.n_blocks == 7
    assert g.n_linear == 2
    assert len(g.chromosomes) == 2


def test_parse_single_block():
    g = parse_genome("(a)")
    assert g.n_blocks == 1
    assert g.adjacencies == frozenset()
    assert len(g.telomeres) == 2


def test_parse_duplicate_block_rejected():
    with pytest.raises(GenomeParseError, match="duplicate block name 'a'"):
        parse_genome("(a b) (a c)")


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("(a b", "unclosed"),
        ("()", "empty chromosome"),
        ("(a ;b)", "invalid block token"),
        ("a b", "outside a chromosome"),
        ("(a b]", "unexpected"),
        ("(a (b))", "unexpected"),
    ],
)
def test_parse_errors_report_position(text, fragment):
    with pytest.raises(GenomeParseError, match="line 1") as err:
        parse_genome(text)
    assert fragment in str(err.value)


def test_read_genomes_with_headers():
    text = f">A\n{GENOME_A_TEXT}\n>B\n{GENOME_B_TEXT}\n"
    named = read_genomes(text)
    assert [name for name, _ in named] == ["A", "B"]
    assert named[0][1].n_blocks == 7


def test_read_genomes_header_without_body():
    with pytest.raises(GenomeParseError, match="no chromosomes"):
        read_genomes(">A\n>B\n(a)")


def test_serialize_worked_example(genome_a):
    assert serialize_genome(genome_a) == GENOME_A_TEXT


def test_serialize_circular():
    assert serialize_genome(parse_genome("[a b]")) == "[a b]"
    assert serialize_genome(parse_genome("[b a]")) == "[a b]"
    assert serialize_genome(parse_genome("[-b -a]")) == "[a b]"


def test_comments_and_blanks_ignored():
    g = parse_genome("# header\n\n(a b)  # trailing\n")
    assert g.n_blocks == 2


names = st.integers(1, 8).map(lambda n: [f"b{i}" for i in range(n)])


@st.composite
def genomes(draw):
    blocks = draw(names)
    order = draw(st.permutations(blocks))
    signed = [b if draw(st.booleans()) else f"-{b}" for b in order]
    cuts = sorted(draw(st.sets(st.integers(1, max(1, len(signed) - 1)), max_size=3)))
    chroms = []
    start = 0
    for cut in cuts + [len(signed)]:
        if cut == start:
            continue
        kind = "circular" if draw(st.booleans()) else "linear"
        chroms.append(Chromosome(kind, tuple(signed[start:cut])))
        start = cut
    return Genome(chroms)


@given(genomes())
def test_serialize_parse_round_trip(g):
    text = serialize_genome(g)
    again = parse_genome(text)
    assert g == again
    assert serialize_genome(again) == text


@given(genomes())
def test_adjacency_count_invariant(g):
    assert len(g.adjacencies) == g.n_blocks - g.n_linear
    assert len(g.telomeres) == 2 * g.n_linear


def test_co_tailed_worked_example(genome_a, genome_b):
    assert co_tailed(genome_a, genome_b)
    assert genome_a.tails | genome_b.tails == {"a", "-c", "d", "-g"}


def test_co_tailed_identity(genome_a):
    assert co_tailed(genome_a, genome_a)


def test_co_tailed_false_when_tails_differ():
    a = parse_genome("(a b)\n(c)")
    b = parse_genome("(a b c)")
    assert not co_tailed(a, b)


def test_co_tailed_block_mismatch():
    with pytest.raises(BlockMismatchError):
        co_tailed(parse_genome("(a)"), parse_genome("(b)"))


def test_adjacency_sets(genome_a, genome_b):
    assert isinstance(genome_a.adjacencies, frozenset)
    assert len(genome_a.adjacencies) == 5
    assert adjacency_from_signed("e", "-d") in genome_a.adjacencies
    assert adjacency_from_signed("-c", "g") in genome_a.adjacencies
    assert adjacency_from_signed("a", "b") in genome_b.adjacencies


def test_adjacency_flip_invariance():
    assert adjacency_from_signed("e", "-d") == adjacency_from_signed("d", "-e")


def test_circular_two_block_adjacencies():
    g = parse_genome("[a b]")
    assert g.adjacencies == {
        adjacency_from_signed("a", "b"),
        adjacency_from_signed("b", "a"),
    }


def _op(cut_pairs, form_pairs):
    return make_dcj(
        tuple(adjacency_from_signed(*p) for p in cut_pairs),
        tuple(adjacency_from_signed(*p) for p in form_pairs),
    )


def test_apply_dcj_inversion():
    g = parse_genome("(a b c d)")
    op = _op([("a", "b"), ("c", "d")], [("a", "-c"), ("-b", "d")])
    assert apply_dcj(g, op) == parse_genome("(a -c -b d)")


def test_apply_dcj_excision():
    g = parse_genome("(a b c d)")
    op = _op([("a", "b"), ("c", "d")], [("a", "d"), ("c", "b")])
    assert apply_dcj(g, op) == parse_genome("(a d)\n[b c]")


def test_apply_dcj_missing_adjacency():
    g = parse_genome("(a b c d)")
    op = _op([("a", "c"), ("b", "d")], [("a", "b"), ("c", "d")])
    with pytest.raises(InvalidDcjError, match="not present"):
        apply_dcj(g, op)


def test_apply_dcj_rejects_identity_rewiring():
    g = parse_genome("(a b c d)")
    op = DcjOp(
        (adjacency_from_signed("a", "b"), adjacency_from_signed("c", "d")),
        (adjacency_from_signed("a", "b"), adjacency_from_signed("c", "d")),
    )
    with pytest.raises(InvalidDcjError, match="identity"):
        apply_dcj(g, op)


def test_apply_dcj_rejects_foreign_extremities():
    g = parse_genome("(a b c d)")
    op = _op([("a", "b"), ("c", "d")], [("a", "b"), ("c", "-d")])
    with pytest.raises(InvalidDcjError, match="four cut extremities"):
        apply_dcj(g, op)


def test_apply_dcj_preserves_counts_and_inverse():
    g = parse_genome("(a b c d)")
    op = _op([("a", "b"), ("c", "d")], [("a", "d"), ("c", "b")])
    h = apply_dcj(g, op)
    assert h.n_blocks == g.n_blocks
    assert h.telomeres == g.telomeres
    back = apply_dcj(h, DcjOp(cut=op.form, form=op.cut))
    assert back == g


def test_genomes_equal_flip():
    assert parse_genome("(a b)") == parse_genome("(-b -a)")


def test_genomes_equal_chromosome_order():
    assert parse_genome("(a b)\n(c)") == parse_genome("(c)\n(a b)")


def test_genomes_not_equal_different_adjacency():
    assert parse_genome("(a b)") != parse_genome("(b a)")
