"""Stack-based sequential decoding with give-up.

Best-first search over the code tree: the cheapest checked node is repeatedly
popped and expanded until a terminal node surfaces or the node-check budget L
is exhausted, in which case the decoder gives up and returns the error marker.
Expanding a stage-h node checks all c_h of its children at once.

Because the cost measure only accumulates, a returned message is guaranteed
to attain the minimum full-path cost among all 2^k terminal nodes.

Pop order is (cost, depth descending, prefix lexicographic): the cost key is
the algorithm's; the depth-then-lexicographic tie-break is fixed here so
that runs are deterministic and terminals win cost ties.

Expanding a node computes its children's costs as one block, which
reaches the heap in one of three ways by its width:

- Narrow (at most 8 children, so every fanout-2 stage): every child is
  pushed as its own heap entry.  A narrow stage whose segment has at most
  8 symbols is memoized: its children's segment costs depend only on the
  parent's output bits on the segment, an int key whose bit j is the
  parent's output on row j.  At decode start every such stage gets a
  table of the segment cost of each of its 2^S mismatch patterns and, per
  child, its segment outputs XOR y as an S-bit int, so child i of a parent
  with key q costs table[q ^ outs[i]].  The pop loop expands every node of
  these stages itself, the root included, with no call and no numpy: it
  looks the key up in the stage's memo, fills a miss by sorting the
  children's (table cost, index) pairs, pushes the children but the
  cheapest and holds the cheapest for the next pop.  A table entry is a
  row of a C-row product, as the eager `(xs != y) @ w` that costs a
  C-child block is: the patterns are stacked C rows an item in one
  np.matmul per (S, C) shape.  OpenBLAS costs a 2-row product with its
  tail kernel, so one flat (2^S, S) product differed from the 2-row
  products on 221 of 2560 rows at 8 symbols and gamma 0.9992.  Other
  narrow blocks are costed by one numpy product as Python floats, added
  to the parent's cost in Python.
- Sorted (9 to 4096 children): costed in one product and argsorted by
  numpy.  Only the cheapest child is pushed, with a generator that yields
  the rest as (cost, index) pairs, converted 4 at a time; popping a
  child pushes the next (Jelinek 1969; Zigangirov 1966).
- Lazy slices (more than 4096, such as the 2^21-child root at the paper's
  design point): as sorted, but costed a 4096-row chunk at a time from a
  table of the last 12 suffix bits and one of the others, and ordered in
  slices, the cheapest 256 children with all their ties, then the next
  512, and so on, each taken only when the generator runs out of the
  previous one, since a decode pops only a few children of a wide block.

The heap so holds one entry per checked narrow child and one per expanded
wider parent.  Its keys (cost, -depth, prefix) are distinct, since a
prefix is unique at its depth, and every way gives the same costs to the
bit (Python's float addition is the IEEE addition numpy does) and yields
siblings in stable (cost, index) order, so the pops are exactly those of
a heap of every checked node.  An expansion's cheapest child is held back
and enters by heappushpop at the next pop, with no sift if it is cheapest.

Prefixes are packed into Python ints with the first message bit most
significant, so at equal depth integer order is lexicographic order; they
are unpacked to tuples only for the result and trace records.  The
generator's rows are packed the same way once per decode; a parent's
output bit on a segment row is the parity of its prefix ANDed with that
row shifted down to the prefix's length.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappush, heappushpop

import numpy as np

from .measure import CostModel
from .tree_code import GeneratorMatrix, TreeProfile

# Peak memory a decode holds per checked node, with a 12% margin, measured
# as peak RSS growth over 4e5 checks on (128, 64) staircases that give up:
# 91 B at fanout 2, 123 B at 4, 139 B at 8 (the worst: each child is a
# heap entry, and few are popped), 115 B at 16, 66 B at 16 and 32 mixed.
BYTES_PER_CHECK = 156

# A sibling block of more than _CHUNK_ROWS children is costed one
# _CHUNK_ROWS-row chunk at a time and ordered in slices, the first of the
# cheapest _FIRST_SLICE children.  A block that fits in one chunk is costed
# in one product and fully sorted, which is faster at its size.
_CHUNK_BITS = 12
_CHUNK_ROWS = 1 << _CHUNK_BITS
_FIRST_SLICE = 256
# Every child of a block of at most _NARROW children is pushed onto the
# heap, which at its size is faster than numpy's per-call overhead and than
# an iterator per block.  A wider block's numpy order is converted _PAGE
# pairs at a time as they are reached, which holds less than longer pages
# while its iterator waits on the heap.  A narrow stage whose segment has
# S <= _MEMO_SYMBOLS symbols is costed from a table of its 2^S segment
# costs, built for every such stage at decode start, and a memo keyed on
# the parent's S output bits, so each holds at most 2^_MEMO_SYMBOLS
# entries.
_NARROW = 8
_PAGE = 4
_MEMO_SYMBOLS = 8


@dataclass(frozen=True)
class DecodeOutcome:
    """Decoder result: the message (None when the decoder gave up), the final
    node-check count, and the peak stack size.

    max_stack_size is the peak number of checked but not yet popped nodes:
    node checks minus pops, which each expansion raises by c_h - 1 > 0, so
    its value after the last expansion.  It is the size a stack holding
    every checked node would reach; the decoder computes it rather than
    materializing such a stack.
    """

    result: tuple | None
    nodes_checked: int
    max_stack_size: int

    @property
    def gave_up(self) -> bool:
        return self.result is None


def decode_memory_bytes(profile: TreeProfile, limit: int) -> int:
    """Estimated peak memory of one trial's generator and decode, in bytes.

    A trial holds its n x k generator and the profile's support mask, 1 B
    per entry each.  The next trial's draw holds its raw words and their
    bits, 1 B per entry each, but only after the last generator is
    dropped, so beside the mask alone: 3 B per entry in all.  Packing the
    generator's rows at decode start casts 64 columns at a time to uint64,
    8 B per entry of n x min(k, 64).  The cost model, the channel's noise
    draw, the codeword and the received word hold under 32 B per symbol.
    Every stage's suffix tables are held, 1 B per output symbol of their
    min(c, _CHUNK_ROWS) rows plus c / _CHUNK_ROWS for c > _CHUNK_ROWS
    children, and so is every memoized narrow stage's record: about 1 kB,
    plus 80 B and 72 B per child for each of the 2^(segment length)
    mismatch patterns, which covers the pattern's table float and at most
    one memo entry (traced with the memos full, at most 0.85 of this).  On
    top, the largest expansion holds 10 B per entry of the rows it costs in
    one product (the mask, its float64 copy and a chunk's tiled target; a
    _CHUNK_ROWS-row chunk of a lazily ordered block) and 32 B per child (its
    float64 costs, plus either the stable argsort or the copy that
    np.partition selects in with the masks and index arrays of a slice).
    Then BYTES_PER_CHECK per node check after the root expansion, whose c_0
    children the block term already holds: at most limit - c_0 +
    max(c_1, ...) of them, none for a one-stage profile, whose decode
    returns at the first pop.  At the paper's design point (c_0 = 2^21, 32
    root symbols) a decode at limit c_0 peaked at 36 MB traced against 72
    MB estimated.  The estimate reads only the profile's stages, and
    charges a stage of more than 64 bits as 2^64 children without forming
    its fanout: 32 B a child of those is far above any memory ceiling.
    """
    n, k, levels, ends = profile.n, profile.k, profile.levels, profile.ends
    trial = 3 * n * k + 8 * n * min(k, 64) + 32 * n
    shapes = [(1 << min(b - a, 64), ends[h + 1] - ends[h])
              for h, (a, b) in enumerate(zip(levels, levels[1:]))]
    fanout = [rows for rows, _ in shapes]
    tables = sum((min(rows, _CHUNK_ROWS)
                  + (rows >> _CHUNK_BITS if rows > _CHUNK_ROWS else 0)) * seg
                 for rows, seg in shapes)
    memos = sum(1024 + (1 << seg) * (80 + 72 * rows) for rows, seg in shapes
                if rows <= _NARROW and seg <= _MEMO_SYMBOLS)
    block = max(10 * min(rows, _CHUNK_ROWS) * seg + 32 * rows
                for rows, seg in shapes)
    after_root = (int(limit) - fanout[0] + max(fanout[1:])
                  if len(fanout) > 1 else 0)
    return (trial + tables + memos + block
            + BYTES_PER_CHECK * max(after_root, 0))


def _pack_rows(bits: np.ndarray) -> list:
    """Each row of a 0/1 matrix with at least one column as an int, first
    column most significant: 64 columns at a time by an exact integer
    product with their place values."""
    rows = None
    for lo in range(0, bits.shape[1], 64):
        chunk = bits[:, lo:lo + 64]
        width = chunk.shape[1]
        place = np.uint64(1) << np.arange(width - 1, -1, -1, dtype=np.uint64)
        words = (chunk @ place).tolist()
        rows = words if rows is None else [(row << width) | word
                                           for row, word in zip(rows, words)]
    return rows


def _unpack(prefix: int, depth: int) -> tuple:
    """A packed prefix of `depth` bits as a tuple of bits."""
    return tuple(map(int, format(prefix, f"0{depth}b")))


def _xor_table(cols: np.ndarray) -> np.ndarray:
    """Row i XORs the rows of the 0/1 matrix `cols` that the bits of i pick,
    the first row by the most significant bit; built by XOR-doubling.  A
    (w, M, S) stack of M matrices' rows gives the (2^w, M, S) stack of
    their tables."""
    table = np.zeros((1 << len(cols), *cols.shape[1:]), dtype=np.uint8)
    for j, col in enumerate(cols[::-1]):
        np.bitwise_xor(table[:1 << j], col, out=table[1 << j:2 << j])
    return table


def _stage_block(g: GeneratorMatrix, cm: CostModel, y: np.ndarray,
                 packed: list, lo: int, hi: int, level: int,
                 next_level: int):
    """What expanding a node at prefix length `level` needs.

    Its children append every suffix of width w = next_level - level and
    add the cost of output segment (lo, hi].  Returns the segment's outputs
    as two _xor_tables of the suffix columns: `low` of the last
    min(w, _CHUNK_BITS), and `high` of the others when there are any, else
    None.  By linearity over GF(2), suffix c * _CHUNK_ROWS + i outputs
    high[c] ^ low[i].  Then the parent columns' rows packed as ints, cut
    from the generator's rows `packed` once per decode; the segment of y;
    and its per-symbol costs.
    """
    split = max(level, next_level - _CHUNK_BITS)
    high = _xor_table(g.bits[lo:hi, level:split].T) if split > level else None
    low = _xor_table(g.bits[lo:hi, split:next_level].T)
    shift = g.profile.k - level
    rows = [row >> shift for row in packed[lo:hi]]
    return (low, high, rows, y[lo:hi],
            np.asarray(cm.per_symbol_cost[lo:hi], dtype=float))


def _narrow_records(g: GeneratorMatrix, cm: CostModel, y: np.ndarray,
                    packed: list) -> list:
    """Per stage, the record the pop loop expands its nodes from when the
    stage's block is narrow and its segment at most _MEMO_SYMBOLS long,
    else None.

    A record holds the parent columns' rows packed as ints, last row first;
    the segment-cost memo, empty; the segment-cost table; each child's
    segment outputs XOR the segment of y; the suffix width; and the
    children's -depth.  Bit j of a memo key or an output int is segment
    row j, so child i of a parent whose outputs form key q mismatches y on
    the set bits of q ^ outs[i], and table[q ^ outs[i]] is its segment
    cost.  The memo maps q to the cheapest child's segment cost and index
    and the others' (segment cost, index) pairs in that order.

    Entry m of a C-child stage's table is costed as a row of a C-row
    product, as the block's `(xs != y) @ w` is: the 2^S mismatch patterns
    (at least C, repeating) are stacked C rows an item, for every stage of
    one (S, C) shape in one np.matmul.  BLAS costs a 2-row product's rows
    with another kernel than a long product's, so one flat (2^S, S)
    product would not give the same bits.
    """
    prof = g.profile
    r, levels = prof.ends, prof.levels
    shapes = {}
    for h, c in enumerate(prof.branch_fanout):
        if c <= _NARROW and r[h + 1] - r[h] <= _MEMO_SYMBOLS:
            shapes.setdefault((r[h + 1] - r[h], c), []).append(h)
    records = [None] * prof.num_stages
    for (symbols, children), stages in shapes.items():
        width = children.bit_length() - 1
        rows = np.add.outer([r[h] for h in stages], np.arange(symbols))
        cols = np.add.outer([levels[h + 1] - width for h in stages],
                            np.arange(width))
        patterns = np.arange(max(1 << symbols, children))
        patterns = (patterns[:, None] >> np.arange(symbols)) & 1
        tables = np.matmul(
            patterns.reshape(-1, children, symbols).astype(float),
            cm.per_symbol_cost[rows][:, None, :, None])
        tables = tables.reshape(len(stages), -1)[:, :1 << symbols]
        outputs = _xor_table(g.bits[rows, cols.T[:, :, None]])
        outs = (outputs ^ y[rows]) @ (1 << np.arange(symbols))
        for h, table, out in zip(stages, tables.tolist(), outs.T.tolist()):
            shift = prof.k - levels[h]
            parent_rows = [row >> shift for row in packed[r[h]:r[h + 1]]]
            records[h] = (parent_rows[::-1], {}, table, out, width,
                          -levels[h + 1])
    return records


def _chunked_costs(low: np.ndarray, high: np.ndarray, target: np.ndarray,
                   weights: np.ndarray, cost: float) -> np.ndarray:
    """cost + (table != target) @ weights for the suffix table whose row
    c * _CHUNK_ROWS + i is high[c] ^ low[i], one full chunk c at a time,
    with low compared flat against target ^ high[c] tiled, so that neither
    the table nor a float64 copy of its whole mismatch mask is made.
    Full power-of-two chunks gave the one-shot product's values to the bit
    on 2^16 x 34 and 2^21 x 32 blocks (OpenBLAS, Haswell kernel), where a
    12345-row chunk did not; the eager-reference tests guard this.
    """
    costs = np.empty((len(high), _CHUNK_ROWS))
    for row, out in zip(high, costs):
        mask = low.reshape(-1) != np.tile(target ^ row, _CHUNK_ROWS)
        np.matmul(mask.reshape(low.shape), weights, out=out)
    costs += cost
    return costs.reshape(-1)


def _next_slice(costs: np.ndarray, above: float | None, size: int):
    """The next slice of a lazily ordered sibling block.

    Of the children costing more than `above` (all of them when None), takes
    every child whose cost is at most the size-th smallest such cost, ties
    included, in stable (cost, index) order.  Consecutive slices therefore
    concatenate to the block's stable argsort.  Returns the slice and the
    (above, size) of the next one, with size doubled, or None when no child
    is left.
    """
    rest = costs.copy() if above is None else costs[costs > above]
    size = min(size, len(rest))
    rest.partition(size - 1)
    cut = rest.item(size - 1)
    chosen = costs <= cut
    if above is not None:
        chosen &= costs > above
    idx = np.flatnonzero(chosen)
    order = idx[costs[idx].argsort(kind="stable")]
    return order, ((cut, 2 * size) if len(order) < len(rest) else None)


def _wide_successors(costs: np.ndarray, order: np.ndarray, rest):
    """A wide sibling block's (cost, index) pairs in stable (cost, index)
    order: `order`, then while `rest` is not None the slices _next_slice
    takes from its (above, size), each converted _PAGE pairs at a time."""
    while True:
        for a in range(0, len(order), _PAGE):
            page = order[a:a + _PAGE]
            yield from zip(costs[page].tolist(), page.tolist())
        if rest is None:
            return
        order, rest = _next_slice(costs, *rest)


def _check_word(g: GeneratorMatrix, y, cm: CostModel) -> np.ndarray:
    """y as uint8, once its length and the cost model's n match the code's."""
    n = g.profile.n
    y = np.asarray(y, dtype=np.uint8)
    if len(y) != n:
        raise ValueError(f"received word has length {len(y)}, expected {n}")
    if cm.n != n:
        raise ValueError(f"cost model built for n={cm.n}, code has n={n}")
    return y


def ssdgu_decode(g: GeneratorMatrix, y, cm: CostModel, limit: int,
                 trace: list | None = None) -> DecodeOutcome:
    """Run the give-up stack decoder on one received word.

    The root's children are checked first, setting the counter to c_0;
    while the counter stays within `limit`, the cheapest checked node is
    popped, returned if terminal, and otherwise expanded (counting its
    children).  When the loop exits on budget, the give-up marker is
    returned.

    If a trace list is supplied, one record per pop is appended.
    """
    prof = g.profile
    y = _check_word(g, y, cm)
    c0 = prof.branch_fanout[0]
    if not limit >= c0:
        raise ValueError(
            f"limit {limit} cannot cover the root expansion (c_0 = {c0})")

    k, levels, r, fanout = prof.k, prof.levels, prof.ends, prof.branch_fanout
    packed = _pack_rows(g.bits)
    narrows = _narrow_records(g, cm, y, packed)
    blocks = [None] * prof.num_stages
    heap = []

    def expand(prefix: int, stage: int, cost: float) -> tuple:
        """Check the children of a stage-`stage` node with no narrow
        record, push all of a narrow block's but the cheapest, and return
        the cheapest's heap entry: its cursor is None, or for a wider block
        (base, iterator of the rest)."""
        if blocks[stage] is None:
            blocks[stage] = _stage_block(g, cm, y, packed, r[stage],
                                         r[stage + 1], levels[stage],
                                         levels[stage + 1])
        low, high, parent_rows, y_seg, weights = blocks[stage]
        parent_out = [(row & prefix).bit_count() & 1 for row in parent_rows]
        base = prefix << (levels[stage + 1] - levels[stage])
        neg_depth = -levels[stage + 1]
        target = y_seg ^ np.array(parent_out, dtype=np.uint8)
        if len(low) <= _NARROW:
            seg = sorted(zip(((low != target) @ weights).tolist(),
                             range(len(low))))
            for s, i in seg[1:]:
                heappush(heap, (cost + s, neg_depth, base | i, stage + 1,
                                None))
            s, i = seg[0]
            return cost + s, neg_depth, base | i, stage + 1, None
        if high is not None:
            costs = _chunked_costs(low, high, target, weights, cost)
            order, rest = _next_slice(costs, None, _FIRST_SLICE)
        else:
            costs = cost + (low != target) @ weights
            order, rest = costs.argsort(kind="stable"), None
        cursor = base, _wide_successors(costs, order, rest)
        first_cost, first = next(cursor[1])
        return first_cost, neg_depth, base | first, stage + 1, cursor

    # each pass expands a node, the root first, and pops the next
    cost, prefix, stage = 0.0, 0, 0
    nodes_checked = pops = 0
    while True:
        nodes_checked += fanout[stage]
        if nodes_checked > limit:
            break
        narrow = narrows[stage]
        if narrow:
            # no call and no numpy: the memo, else the table, costs it
            rows, memo, table, outs, width, child_depth = narrow
            key = 0
            for row in rows:
                key = key << 1 | (row & prefix).bit_count() & 1
            seg = memo.get(key)
            if seg is None:
                seg = sorted(zip([table[o ^ key] for o in outs],
                                 range(len(outs))))
                seg = memo[key] = *seg[0], seg[1:]
            s, i, rest = seg
            base = prefix << width
            stage += 1
            for s1, i1 in rest:
                heappush(heap, (cost + s1, child_depth, base | i1, stage,
                                None))
            held = cost + s, child_depth, base | i, stage, None
        else:
            held = expand(prefix, stage, cost)
        cost, neg_depth, prefix, stage, cursor = heappushpop(heap, held)
        pops += 1
        if trace is not None:
            trace.append({"iteration": pops,
                          "prefix": _unpack(prefix, -neg_depth),
                          "stage": stage, "cost": cost,
                          "nodes_checked": nodes_checked})
        if -neg_depth == k:
            return DecodeOutcome(result=_unpack(prefix, k),
                                 nodes_checked=nodes_checked,
                                 max_stack_size=nodes_checked - pops + 1)
        if cursor is not None:
            base, successors = cursor
            sibling = next(successors, None)
            if sibling is not None:
                heappush(heap, (sibling[0], neg_depth, base | sibling[1],
                                stage, cursor))

    return DecodeOutcome(result=None, nodes_checked=nodes_checked,
                         max_stack_size=nodes_checked - pops)
