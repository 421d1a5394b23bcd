from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from dcjsort import genome as genome_module
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


def _canonical_oracle(ch):
    """Least reading over every flip and all 2L rotations, materialized."""
    flipped = tuple(genome_module.flip_block(b) for b in reversed(ch.blocks))
    if ch.kind == "linear":
        best = min(ch.blocks, flipped, key=genome_module._sequence_key)
    else:
        candidates = []
        for seq in (ch.blocks, flipped):
            for r in range(len(seq)):
                candidates.append(seq[r:] + seq[:r])
        best = min(candidates, key=genome_module._sequence_key)
    return Chromosome(ch.kind, tuple(best))


# decimal names order differently as strings ("10" < "9") and as numbers
decimal_chromosomes = st.integers(1, 30).flatmap(
    lambda n: st.tuples(
        st.sampled_from(["linear", "circular"]),
        st.permutations([str(i) for i in range(1, n + 1)]),
        st.lists(st.booleans(), min_size=n, max_size=n),
    )
).map(lambda t: Chromosome(t[0], tuple(b if keep else f"-{b}" for b, keep in zip(t[1], t[2]))))


@given(decimal_chromosomes)
def test_canonical_chromosome_matches_all_rotations(ch):
    assert genome_module._canonical_chromosome(ch) == _canonical_oracle(ch)


def test_serialize_long_circular_chromosome():
    blocks = [str(i) if i % 3 else f"-{i}" for i in range(2000, 0, -1)]
    text = serialize_genome(Genome([Chromosome("circular", tuple(blocks))]))
    # the least rotation starts at the smallest key, ("1", False)
    assert text.startswith("[1 2000 1999 -1998 1997 ")
    assert text.endswith(" 4 -3 2]")
    assert parse_genome(text) == Genome([Chromosome("circular", tuple(blocks))])


def _read_outcome(text):
    try:
        return [(name, g, g.chromosomes) for name, g in read_genomes(text)]
    except GenomeParseError as exc:
        return f"GenomeParseError: {exc}"


def _walked_outcome(text):
    # every line through the token walk alone
    walk = genome_module._walk_chromosome_line
    with mock.patch.object(genome_module, "_parse_chromosome_line", walk):
        return _read_outcome(text)


_SPACE = st.sampled_from([" ", "  ", "\t", " \t "])


@st.composite
def genome_texts(draw):
    """Multi-genome text: headers, comments, blank lines, odd spacing,
    several linear and circular chromosomes per line."""
    out = []
    for g in range(draw(st.integers(1, 3))):
        if g or draw(st.booleans()):
            out.append(f">{draw(st.sampled_from(['', 'A', ' B ', 'g 1']))}")
        names = draw(st.permutations([f"x{i}" if i % 2 else str(i) for i in range(1, draw(st.integers(1, 12)) + 1)]))
        chroms = [[]]
        for name in names:
            if chroms[-1] and draw(st.integers(0, 3)) == 0:
                chroms.append([])
            chroms[-1].append(name if draw(st.booleans()) else f"-{name}")
        line = draw(st.sampled_from(["", " ", "\t"]))
        for i, blocks in enumerate(chroms):
            opener, closer = draw(st.sampled_from(["()", "[]"]))
            body = " ".join(blocks) if draw(st.booleans()) else "".join(draw(_SPACE) + b for b in blocks)
            body += draw(st.sampled_from(["", " ", "\t"]))
            line += opener + body + closer
            if i + 1 == len(chroms) or draw(st.booleans()):
                if draw(st.booleans()):
                    line += " # note (a"
                out.append(line)
                line = ""
                if draw(st.integers(0, 3)) == 0:
                    out.append(draw(st.sampled_from(["", "   ", "# comment", "\t# [x"])))
            else:
                line += draw(st.sampled_from(["", " ", "\t "]))
    return "\n".join(out) + draw(st.sampled_from(["", "\n"]))


@given(genome_texts())
def test_fast_parse_matches_token_walk(text):
    outcome = _read_outcome(text)
    assert not isinstance(outcome, str), outcome
    assert outcome == _walked_outcome(text)


@settings(max_examples=300)
@given(genome_texts(), st.data())
def test_malformed_text_errors_match_token_walk(text, data):
    # edit anywhere, or next to a bracket, where chromosome bodies start and end
    brackets = [i + side for i, c in enumerate(text) if c in "()[]" for side in (0, 1)]
    pos = data.draw(st.integers(0, len(text)) | st.sampled_from(brackets or [0]))
    edit = data.draw(st.sampled_from(["insert", "delete", "replace"]))
    char = data.draw(st.sampled_from(list("()[]-,;.é#>") + ["--", "a b", " ", "\t"]))
    if edit == "insert":
        text = text[:pos] + char + text[pos:]
    elif edit == "delete":
        text = text[:pos] + text[pos + 1 :]
    else:
        text = text[:pos] + char + text[pos + 1 :]
    assert _read_outcome(text) == _walked_outcome(text)


_EDIT_CHARS = list("()[]-,;.é#> \t") + ["--", "a b", ""]


@pytest.mark.parametrize("base", ["(a -b)[c]", "( 1 -10  9 )\t[x_2 -y]", ">G\n[-a]  (b c d) # c"])
def test_every_single_edit_errors_match_token_walk(base):
    for pos in range(len(base) + 1):
        for char in _EDIT_CHARS:
            for text in (base[:pos] + char + base[pos:], base[:pos] + char + base[pos + 1 :]):
                assert _read_outcome(text) == _walked_outcome(text), text


@pytest.mark.parametrize(
    "text, message",
    [
        ("(a b", "line 1: unclosed chromosome at end of line"),
        ("(a b]", "line 1: unexpected ']' (col 5)"),
        ("[a b)", "line 1: unexpected ')' (col 5)"),
        ("(a (b))", "line 1: unexpected '(' inside a chromosome (col 4)"),
        ("(a) )", "line 1: unexpected ')' (col 5)"),
        ("(a)\n(b --c)", "line 2: invalid block token '--c' (col 4)"),
        ("(a,b)", "line 1: invalid block token 'a,b' (col 2)"),
        ("(a) x (b)", "line 1: block 'x' outside a chromosome (col 5)"),
        ("(a) [ ]", "line 1: empty chromosome (col 7)"),
    ],
)
def test_parse_error_messages_are_exact(text, message):
    with pytest.raises(GenomeParseError) as err:
        read_genomes(text)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "blocks, message",
    [
        (("a b",), "invalid block token 'a b'"),
        (("a,b",), "invalid block token 'a,b'"),
        (("x", ""), "invalid block token ''"),
        (("--a",), "invalid block token '--a'"),
        (("a-",), "invalid block token 'a-'"),
        (("a", "b", "-a"), "duplicate block name 'a'"),
    ],
)
def test_genome_rejects_bad_blocks(blocks, message):
    for kind in ("linear", "circular"):
        with pytest.raises(GenomeParseError) as err:
            Genome([Chromosome(kind, blocks)])
        assert str(err.value) == message
