"""Signed-block genomes on linear and circular chromosomes.

Text format, one chromosome per line::

    (a -f -b e -d)     linear chromosome
    [-c g]             circular chromosome

Block names match ``[A-Za-z0-9_]+`` and a leading ``-`` reverses a block.
``#`` starts a comment, blank lines are ignored, and an optional ``>Name``
header line starts a new genome in multi-genome files.  Flipping a whole
chromosome, rotating a circular one, or reordering the chromosome list all
describe the same genome.

Internally a genome is kept as its adjacency set plus telomere set.  An
adjacency is the unordered pair of block extremities that meet between two
consecutive blocks, which makes the flip identity (x y) = (-y -x) hold for
free; a telomere is an extremity exposed at the end of a linear chromosome.
Block sequences are a derived view, rebuilt by walking the adjacency set,
so a DCJ operation is a plain set rewrite.
"""

from __future__ import annotations

import re
from typing import Iterable, NamedTuple

from .errors import BlockMismatchError, GenomeParseError, InvalidDcjError

TAIL = 0
HEAD = 1

LINEAR = "linear"
CIRCULAR = "circular"

_BLOCK_RE = re.compile(r"-?[A-Za-z0-9_]+")
_TOKEN_RE = re.compile(r"[()\[\]]|[^\s()\[\]]+")


class Extremity(NamedTuple):
    """One end of a block; tails order before heads within a block."""

    block: str
    end: int

    def __str__(self):
        return f"{self.block}.{'t' if self.end == TAIL else 'h'}"


#: An adjacency is a pair of extremities stored in sorted order.
Adjacency = tuple[Extremity, Extremity]


def flip_block(block: str) -> str:
    return block[1:] if block.startswith("-") else "-" + block


def _left_extremity(block: str) -> Extremity:
    if block.startswith("-"):
        return Extremity(block[1:], HEAD)
    return Extremity(block, TAIL)


def _right_extremity(block: str) -> Extremity:
    if block.startswith("-"):
        return Extremity(block[1:], TAIL)
    return Extremity(block, HEAD)


def _block_from_left(ext: Extremity) -> str:
    # entering a block through `ext` reads it forward from its tail,
    # backward from its head
    return ext.block if ext.end == TAIL else "-" + ext.block


def adjacency(e1: Extremity, e2: Extremity) -> Adjacency:
    """The unordered adjacency between two distinct extremities."""
    if e1 == e2:
        raise InvalidDcjError(f"adjacency cannot pair {e1} with itself")
    return (e1, e2) if e1 <= e2 else (e2, e1)


def adjacency_from_signed(left: str, right: str) -> Adjacency:
    """Adjacency written as two consecutive signed blocks, e.g. ("e", "-d")."""
    return adjacency(_right_extremity(left), _left_extremity(right))


def _signed_reading(e1: Extremity, e2: Extremity) -> tuple[str, str]:
    left = e1.block if e1.end == HEAD else flip_block(e1.block)
    right = e2.block if e2.end == TAIL else flip_block(e2.block)
    return left, right


def signed_pair(adj: Adjacency) -> tuple[str, str]:
    """Render an adjacency as two consecutive signed blocks (canonical flip)."""
    e1, e2 = adj
    return min(
        _signed_reading(e1, e2),
        _signed_reading(e2, e1),
        key=lambda pair: [_block_key(b) for b in pair],
    )


def format_adjacency(adj: Adjacency) -> str:
    return "({} {})".format(*signed_pair(adj))


class Chromosome(NamedTuple):
    kind: str
    blocks: tuple[str, ...]


class Genome:
    """A genome over uniquely named signed blocks.

    Equality and hashing are semantic: two genomes are equal when they have
    the same block names, adjacency set, and telomere set, regardless of how
    their chromosomes were written down.
    """

    __slots__ = ("chromosomes", "blocks", "adjacencies", "telomeres", "tails")

    def __init__(self, chromosomes: Iterable[Chromosome]):
        chroms = tuple(Chromosome(kind, tuple(blocks)) for kind, blocks in chromosomes)
        names = []
        for kind, blocks in chroms:
            if kind not in (LINEAR, CIRCULAR):
                raise ValueError(f"unknown chromosome kind {kind!r}")
            if not blocks:
                raise GenomeParseError("empty chromosome")
            for b in blocks:
                if not _BLOCK_RE.fullmatch(b):
                    raise GenomeParseError(f"invalid block token {b!r}")
                names.append(b[1:] if b.startswith("-") else b)
        seen = set()
        for name in names:
            if name in seen:
                raise GenomeParseError(f"duplicate block name {name!r}")
            seen.add(name)

        adjacencies = set()
        telomeres = set()
        tails = set()
        for kind, blocks in chroms:
            pairs = list(zip(blocks, blocks[1:]))
            if kind == CIRCULAR:
                pairs.append((blocks[-1], blocks[0]))
            else:
                telomeres.add(_left_extremity(blocks[0]))
                telomeres.add(_right_extremity(blocks[-1]))
                tails.add(blocks[0])
                tails.add(flip_block(blocks[-1]))
            for x, y in pairs:
                adjacencies.add(adjacency(_right_extremity(x), _left_extremity(y)))

        self.chromosomes = chroms
        self.blocks = frozenset(names)
        self.adjacencies = frozenset(adjacencies)
        self.telomeres = frozenset(telomeres)
        self.tails = frozenset(tails)

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    @property
    def n_linear(self) -> int:
        return sum(1 for c in self.chromosomes if c.kind == LINEAR)

    def __eq__(self, other):
        return (
            isinstance(other, Genome)
            and self.blocks == other.blocks
            and self.adjacencies == other.adjacencies
            and self.telomeres == other.telomeres
        )

    def __hash__(self):
        return hash((self.blocks, self.adjacencies, self.telomeres))

    def __repr__(self):
        return f"Genome({serialize_genome(self)!r})"


def _parse_chromosome_line(line: str, lineno: int) -> list[Chromosome]:
    chroms = []
    kind = None
    blocks: list[str] = []
    for m in _TOKEN_RE.finditer(line):
        tok = m.group()
        col = m.start() + 1
        if tok in "([":
            if kind is not None:
                raise GenomeParseError(f"unexpected {tok!r} inside a chromosome (col {col})", lineno)
            kind = LINEAR if tok == "(" else CIRCULAR
            blocks = []
        elif tok in ")]":
            expected = ")" if kind == LINEAR else "]"
            if kind is None or tok != expected:
                raise GenomeParseError(f"unexpected {tok!r} (col {col})", lineno)
            if not blocks:
                raise GenomeParseError(f"empty chromosome (col {col})", lineno)
            chroms.append(Chromosome(kind, tuple(blocks)))
            kind = None
        else:
            if kind is None:
                raise GenomeParseError(f"block {tok!r} outside a chromosome (col {col})", lineno)
            if not _BLOCK_RE.fullmatch(tok):
                raise GenomeParseError(f"invalid block token {tok!r} (col {col})", lineno)
            blocks.append(tok)
    if kind is not None:
        raise GenomeParseError("unclosed chromosome at end of line", lineno)
    return chroms


def read_genomes(text: str) -> list[tuple[str, Genome]]:
    """Parse possibly multi-genome text into (name, genome) pairs."""
    entries: list[tuple[str, list[Chromosome], int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith(">"):
            entries.append((line[1:].strip(), [], lineno))
            continue
        if not entries:
            entries.append(("", [], lineno))
        entries[-1][1].extend(_parse_chromosome_line(line, lineno))
    genomes = []
    for name, chroms, lineno in entries:
        if not chroms:
            label = f"genome {name!r}" if name else "genome"
            raise GenomeParseError(f"{label} has no chromosomes", lineno)
        genomes.append((name, Genome(chroms)))
    return genomes


def parse_genome(text: str) -> Genome:
    """Parse text containing exactly one genome."""
    genomes = read_genomes(text)
    if len(genomes) != 1:
        raise GenomeParseError(f"expected exactly one genome, found {len(genomes)}")
    return genomes[0][1]


def _block_key(block: str):
    neg = block.startswith("-")
    return (block[1:] if neg else block, neg)


def _sequence_key(blocks):
    return [_block_key(b) for b in blocks]


def _canonical_chromosome(ch: Chromosome) -> Chromosome:
    flipped = tuple(flip_block(b) for b in reversed(ch.blocks))
    if ch.kind == LINEAR:
        best = min(ch.blocks, flipped, key=_sequence_key)
    else:
        candidates = []
        for seq in (ch.blocks, flipped):
            for r in range(len(seq)):
                candidates.append(seq[r:] + seq[:r])
        best = min(candidates, key=_sequence_key)
    return Chromosome(ch.kind, tuple(best))


def serialize_genome(g: Genome) -> str:
    """Deterministic text form: each chromosome flipped/rotated to its
    lexicographically smallest reading, chromosomes sorted."""
    chroms = sorted(
        (_canonical_chromosome(c) for c in g.chromosomes),
        key=lambda c: _sequence_key(c.blocks),
    )
    lines = []
    for c in chroms:
        opener, closer = ("(", ")") if c.kind == LINEAR else ("[", "]")
        lines.append(opener + " ".join(c.blocks) + closer)
    return "\n".join(lines)


def co_tailed(a: Genome, b: Genome) -> bool:
    """True when both genomes expose the same chromosome ends.

    All-circular genome pairs are vacuously co-tailed.  Raises
    BlockMismatchError when the block-name sets differ.
    """
    if a.blocks != b.blocks:
        raise BlockMismatchError("genomes are over different block sets")
    return a.telomeres == b.telomeres


class DcjOp(NamedTuple):
    """Cut two adjacencies and rejoin their four extremities differently."""

    cut: tuple[Adjacency, Adjacency]
    form: tuple[Adjacency, Adjacency]

    def __str__(self):
        cut = " ".join(format_adjacency(x) for x in self.cut)
        form = " ".join(format_adjacency(x) for x in self.form)
        return f"cut {cut} form {form}"


def make_dcj(cut, form) -> DcjOp:
    """Canonical DcjOp: adjacencies normalized and each pair sorted."""
    cut = tuple(sorted(adjacency(*x) for x in cut))
    form = tuple(sorted(adjacency(*x) for x in form))
    if len(cut) != 2 or len(form) != 2:
        raise InvalidDcjError("a DCJ cuts exactly two adjacencies and forms exactly two")
    return DcjOp(cut, form)


def _assemble(block_names, adjacencies, telomeres) -> tuple[Chromosome, ...]:
    """Rebuild chromosomes from an adjacency set and a telomere set."""
    partner = {}
    for e1, e2 in adjacencies:
        partner[e1] = e2
        partner[e2] = e1

    used = set()
    chroms = []
    for telomere in sorted(telomeres):
        if telomere.block in used:
            continue
        blocks = []
        ext = telomere
        while True:
            blocks.append(_block_from_left(ext))
            used.add(ext.block)
            right = Extremity(ext.block, 1 - ext.end)
            if right in telomeres:
                break
            ext = partner[right]
        chroms.append(Chromosome(LINEAR, tuple(blocks)))

    for name in sorted(block_names):
        if name in used:
            continue
        blocks = []
        ext = Extremity(name, TAIL)
        start = ext
        while True:
            blocks.append(_block_from_left(ext))
            used.add(ext.block)
            right = Extremity(ext.block, 1 - ext.end)
            ext = partner[right]
            if ext == start:
                break
        chroms.append(Chromosome(CIRCULAR, tuple(blocks)))
    return tuple(chroms)


def apply_dcj(g: Genome, op: DcjOp) -> Genome:
    """Apply a DCJ: adjacency set becomes (set - cut) | form.

    The operation must cut two distinct existing adjacencies and re-pair
    exactly their four extremities in a non-identity way; telomeres are
    never touched.
    """
    op = make_dcj(op.cut, op.form)
    if op.cut[0] == op.cut[1]:
        raise InvalidDcjError("cut adjacencies must be distinct")
    for adj in op.cut:
        if adj not in g.adjacencies:
            raise InvalidDcjError(f"cut adjacency {format_adjacency(adj)} is not present")
    cut_exts = {e for adj in op.cut for e in adj}
    form_exts = [e for adj in op.form for e in adj]
    if len(form_exts) != 4 or set(form_exts) != cut_exts:
        raise InvalidDcjError("rewiring must reuse exactly the four cut extremities")
    if set(op.form) == set(op.cut):
        raise InvalidDcjError("identity rewiring is not a DCJ operation")
    new_adjacencies = (g.adjacencies - set(op.cut)) | set(op.form)
    return Genome(_assemble(g.blocks, new_adjacencies, g.telomeres))
