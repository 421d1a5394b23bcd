"""Slow, obviously correct reference code that the fast paths replaced.

`Genome` used to build its adjacency, telomere and tail sets eagerly from
`Extremity` tuples, `apply_dcj` rewrote the adjacency set and read the
chromosomes back off it (`assemble`), and the adjacency graph sorted every
extremity before walking a cycle from the smallest one.  The property tests
check the integer model against these.
"""

from dcjsort import Chromosome, Extremity, GenomeParseError, InvalidDcjError, LabeledCycle, make_dcj
from dcjsort.genome import CIRCULAR, HEAD, LINEAR, TAIL, _BLOCK_RE, flip_block, format_adjacency


def eager_views(chromosomes):
    """(chromosomes, blocks, adjacencies, telomeres, tails) as the eager `Genome` built them."""
    chroms = tuple(Chromosome(kind, tuple(blocks)) for kind, blocks in chromosomes)
    names, adjacencies, telomeres, tails = [], [], [], []
    for kind, blocks in chroms:
        if kind not in (LINEAR, CIRCULAR):
            raise ValueError(f"unknown chromosome kind {kind!r}")
        if not blocks:
            raise GenomeParseError("empty chromosome")
        if not all(map(_BLOCK_RE.fullmatch, blocks)):
            bad = next(b for b in blocks if not _BLOCK_RE.fullmatch(b))
            raise GenomeParseError(f"invalid block token {bad!r}")
        first = last = None  # left end of the first block, right end of the latest
        for b in blocks:
            if b[0] == "-":
                name = b[1:]
                left, right = Extremity(name, HEAD), Extremity(name, TAIL)
            else:
                name = b
                left, right = Extremity(name, TAIL), Extremity(name, HEAD)
            names.append(name)
            if last is None:
                first = left
            else:
                adjacencies.append((last, left) if last <= left else (left, last))
            last = right
        if kind == CIRCULAR:
            adjacencies.append((last, first) if last <= first else (first, last))
        else:
            telomeres += (first, last)
            tails += (blocks[0], flip_block(blocks[-1]))
    seen = set()
    for name in names:
        if name in seen:
            raise GenomeParseError(f"duplicate block name {name!r}")
        seen.add(name)
    return chroms, frozenset(names), frozenset(adjacencies), frozenset(telomeres), frozenset(tails)


def _block_from_left(ext):
    return ext.block if ext.end == TAIL else "-" + ext.block


def assemble(block_names, adjacencies, telomeres):
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
        ext = start = Extremity(name, TAIL)
        while True:
            blocks.append(_block_from_left(ext))
            used.add(ext.block)
            ext = partner[Extremity(ext.block, 1 - ext.end)]
            if ext == start:
                break
        chroms.append(Chromosome(CIRCULAR, tuple(blocks)))
    return tuple(chroms)


def apply_dcj_chromosomes(g, op):
    """The chromosomes of `apply_dcj(g, op)` by the set rewrite, with its errors."""
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
    return assemble(g.blocks, (g.adjacencies - set(op.cut)) | set(op.form), g.telomeres)


def cycles(a, b):
    """The cycle decomposition as first written: every extremity sorted,
    each cycle walked from its smallest one."""
    ext_to_a = {e: adj for adj in a.adjacencies for e in adj}
    ext_to_b = {e: adj for adj in b.adjacencies for e in adj}
    assert ext_to_a.keys() == ext_to_b.keys()
    out = []
    seen = set()
    for start in sorted(ext_to_b):
        if start in seen:
            continue
        first = ext_to_b[start]
        b_order = []
        a_between = []
        b_adj, exit_ext = first, start
        while True:
            b_order.append(b_adj)
            seen.update(b_adj)
            a_adj = ext_to_a[exit_ext]
            a_between.append(a_adj)
            entry = a_adj[0] if a_adj[1] == exit_ext else a_adj[1]
            nxt = ext_to_b[entry]
            if nxt == first:
                break
            b_adj = nxt
            exit_ext = nxt[0] if nxt[1] == entry else nxt[1]
        out.append(LabeledCycle(tuple(b_order), tuple(a_between)))
    return tuple(out)
