"""Signed-block genomes on linear and circular chromosomes.

Text format, one chromosome per line::

    (a -f -b e -d)     linear chromosome
    [-c g]             circular chromosome

Block names match ``[A-Za-z0-9_]+`` and a leading ``-`` reverses a block.
``#`` starts a comment, blank lines are ignored, and an optional ``>Name``
header line starts a new genome in multi-genome files.  Flipping a whole
chromosome, rotating a circular one, or reordering the chromosome list all
describe the same genome.

Internally block k, in order of appearance, has tail extremity 2k and
head extremity 2k + 1.  A genome keeps its block names, one int list with
the extremity each extremity meets in an adjacency (-1 at a telomere, an
end of a linear chromosome) and its telomere ids.  Its `frozenset` views
of `Extremity` tuples are built on first access.  A DCJ rewires a copy of
the partner list and reads the chromosomes off it again.

Reading a genome of N blocks takes three passes, each O(N).  The parser
matches each ``( ... )`` or ``[ ... ]`` with one regular expression,
checks its whole body with one ``fullmatch`` and splits it with
``str.split``; a line that fails this check is walked again token by
token, only to word the error with its line and column, so messages are
those of the walk.  `Genome` checks every token with one ``fullmatch``
and the names for duplicates by set size (the first duplicate is looked
up only when there is one).  It then fills the partner list with one loop
per chromosome and makes no object per block.
"""

from __future__ import annotations

import copy
import functools
import re
from typing import Iterable, NamedTuple

from .errors import BlockMismatchError, GenomeParseError, InvalidDcjError

TAIL = 0
HEAD = 1

LINEAR = "linear"
CIRCULAR = "circular"

_BLOCK_RE = re.compile(r"-?[A-Za-z0-9_]+")
_TOKEN_RE = re.compile(r"[()\[\]]|[^\s()\[\]]+")
#: one chromosome: its body is group 1 when linear, group 2 when circular
_CHROMOSOME_RE = re.compile(r"\s*(?:\(([^()\[\]]*)\)|\[([^()\[\]]*)\])")
_BODY_RE = re.compile(rf"\s*{_BLOCK_RE.pattern}(?:\s+{_BLOCK_RE.pattern})*\s*")


class Extremity(NamedTuple):
    """One end of a block; tails order before heads within a block."""

    block: str
    end: int

    def __str__(self):
        return f"{self.block}.{'t' if self.end == TAIL else 'h'}"


#: Extremity((block, end)) without the Python-level NamedTuple constructor,
#: for the views that list two extremities per block
_extremity = functools.partial(tuple.__new__, Extremity)

#: An adjacency is a pair of extremities stored in sorted order.
Adjacency = tuple[Extremity, Extremity]


def flip_block(block: str) -> str:
    return block[1:] if block.startswith("-") else "-" + block


def _left_extremity(block: str) -> Extremity:
    return Extremity(block[1:], HEAD) if block.startswith("-") else Extremity(block, TAIL)


def _right_extremity(block: str) -> Extremity:
    return Extremity(block[1:], TAIL) if block.startswith("-") else Extremity(block, HEAD)


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

    # block names, each extremity's partner (-1 at a telomere), telomere ids;
    # then the views and the block order by name, each built on first use
    __slots__ = (
        "chromosomes", "_names", "_partner", "_telomere_ids",
        "_blocks", "_adjacencies", "_telomeres", "_tails", "_order",
    )

    def __init__(self, chromosomes: Iterable[Chromosome]):
        chroms = tuple(Chromosome(kind, tuple(blocks)) for kind, blocks in chromosomes)
        names, partner, telomere_ids = [], [], []
        for kind, blocks in chroms:
            if kind not in (LINEAR, CIRCULAR):
                raise ValueError(f"unknown chromosome kind {kind!r}")
            if not blocks:
                raise GenomeParseError("empty chromosome")
            if not all(map(_BLOCK_RE.fullmatch, blocks)):
                bad = next(b for b in blocks if not _BLOCK_RE.fullmatch(b))
                raise GenomeParseError(f"invalid block token {bad!r}")
            names += [b[1:] if b[0] == "-" else b for b in blocks]
            # a block read forward enters at its tail, reversed at its head
            k = len(partner)
            lefts = [x + (b[0] == "-") for x, b in zip(range(k, k + 2 * len(blocks), 2), blocks)]
            rights = [x ^ 1 for x in lefts]
            partner += [-1] * (2 * len(blocks))
            if kind == CIRCULAR:
                lefts.append(lefts[0])
            else:
                telomere_ids += (lefts[0], rights[-1])
            # each block's right end meets the next block's left end
            for x, y in zip(rights, lefts[1:]):
                partner[x], partner[y] = y, x
        if len(set(names)) != len(names):
            seen = set()
            dup = next(name for name in names if name in seen or seen.add(name))
            raise GenomeParseError(f"duplicate block name {dup!r}")
        self.chromosomes, self._names = chroms, names
        self._partner, self._telomere_ids = partner, telomere_ids
        self._blocks = self._adjacencies = self._telomeres = self._tails = self._order = None

    @property
    def blocks(self) -> frozenset[str]:
        if self._blocks is None:
            self._blocks = frozenset(self._names)
        return self._blocks

    @property
    def adjacencies(self) -> frozenset[Adjacency]:
        if self._adjacencies is None:
            ext = [_extremity((name, end)) for name in self._names for end in (TAIL, HEAD)]
            adjacencies = (adjacency(ext[x], ext[y]) for x, y in enumerate(self._partner) if x < y)
            self._adjacencies = frozenset(adjacencies)
        return self._adjacencies

    @property
    def telomeres(self) -> frozenset[Extremity]:
        if self._telomeres is None:
            self._telomeres = frozenset(_extremity((self._names[x >> 1], x & 1)) for x in self._telomere_ids)
        return self._telomeres

    @property
    def tails(self) -> frozenset[str]:
        if self._tails is None:
            self._tails = frozenset(("-" if x & 1 else "") + self._names[x >> 1] for x in self._telomere_ids)
        return self._tails

    @property
    def n_blocks(self) -> int:
        return len(self._names)

    @property
    def n_linear(self) -> int:
        return len(self._telomere_ids) // 2

    def _semantic(self):
        return self.blocks, self.adjacencies, self.telomeres

    def __eq__(self, other):
        return isinstance(other, Genome) and self._semantic() == other._semantic()

    def __hash__(self):
        return hash(self._semantic())

    def __repr__(self):
        return f"Genome({serialize_genome(self)!r})"


def _parse_chromosome_line(line: str, lineno: int) -> list[Chromosome]:
    chroms = []
    pos = 0
    while pos < len(line):
        m = _CHROMOSOME_RE.match(line, pos)
        if m is None:
            break
        linear, circular = m.groups()
        body = circular if linear is None else linear
        if not _BODY_RE.fullmatch(body):
            break
        chroms.append(Chromosome(CIRCULAR if linear is None else LINEAR, tuple(body.split())))
        pos = m.end()
    if pos == len(line):
        return chroms
    # the same grammar, walked token by token to word the error
    return _walk_chromosome_line(line, lineno)


def _walk_chromosome_line(line: str, lineno: int) -> list[Chromosome]:
    """Token-by-token parse; raises the error with its column."""
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
        # names are unique, so within one orientation every block key is
        # distinct and the least rotation starts at the smallest key
        candidates = []
        for seq in (ch.blocks, flipped):
            keys = _sequence_key(seq)
            r = keys.index(min(keys))
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


def _walk_chromosomes(names, partner, telomere_ids, order) -> tuple[Chromosome, ...]:
    """The chromosomes of a partner list: linear ones from their telomeres in
    `Extremity` order, then circular ones from their first block in `order`."""
    done, chroms = set(), []
    for x in sorted(telomere_ids, key=lambda t: (names[t >> 1], t & 1)) + [2 * k for k in order]:
        if x >> 1 in done:
            continue
        blocks, stop = [], -1 if partner[x] < 0 else x
        while True:
            # entering a block through its tail reads it forward
            blocks.append(("-" if x & 1 else "") + names[x >> 1])
            done.add(x >> 1)
            x = partner[x ^ 1]
            if x == stop:
                break
        chroms.append(Chromosome(LINEAR if stop < 0 else CIRCULAR, tuple(blocks)))
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
    names, partner = g._names, g._partner
    # the ids of the cut extremities that exist in g
    ids = {e: 2 * names.index(e[0]) + e[1] for adj in op.cut for e in adj if e[0] in names and e[1] in (0, 1)}
    for adj in op.cut:
        if adj[0] not in ids or partner[ids[adj[0]]] != ids.get(adj[1]):
            raise InvalidDcjError(f"cut adjacency {format_adjacency(adj)} is not present")
    if {e for adj in op.form for e in adj} != ids.keys():
        raise InvalidDcjError("rewiring must reuse exactly the four cut extremities")
    if set(op.form) == set(op.cut):
        raise InvalidDcjError("identity rewiring is not a DCJ operation")
    if g._order is None:
        g._order = sorted(range(len(names)), key=names.__getitem__)
    partner = partner.copy()
    for e, f in op.form:
        partner[ids[e]], partner[ids[f]] = ids[f], ids[e]
    out = copy.copy(g)  # the blocks and telomeres stay: their views and `_order` carry over
    out.chromosomes = _walk_chromosomes(names, partner, g._telomere_ids, g._order)
    out._partner, out._adjacencies = partner, None
    return out
