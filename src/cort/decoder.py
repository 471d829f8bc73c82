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

The stack is kept in sorted-successor form (Jelinek 1969; Zigangirov 1966).
Expanding a node computes its children's costs as one block and orders them
by (cost, prefix); the heap holds one cursor per expanded parent, keyed by
that parent's cheapest unpopped child, and popping a child advances its
cursor to the next sibling.  The pops are exactly those of a heap holding
every checked node, while the heap holds at most one entry per expanded
node.  A block of up to 4096 children is fully sorted.  A wider one (the
2^21-child root at the paper's design point) is costed in row chunks and
ordered in slices: the cheapest 256 children with all their ties, then the
next 512, and so on, each taken only when the cursor runs out, since a
decode pops only a few children of a wide block.
Prefixes are packed into Python ints with the first message bit most
significant, so at equal depth integer order is lexicographic order; they
are unpacked to tuples only for the result and trace records.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .measure import CostModel
from .tree_code import GeneratorMatrix, TreeProfile

# Peak memory a decode holds per checked node, measured as peak RSS growth
# over 4e5 checks on a fanout-2 staircase that gives up (216 to 219 B).
# Fanout 2 is the worst case: each expansion keeps a heap entry, a cursor
# and two small arrays for only two children; wide stages need 8 to 16 B a
# child.
BYTES_PER_CHECK = 224

# A sibling block of more than _CHUNK_ROWS children is costed one
# _CHUNK_ROWS-row chunk at a time and ordered in slices, the first of the
# cheapest _FIRST_SLICE children.  A block that fits in one chunk is costed
# in one product and fully sorted, which is faster at its size.
_CHUNK_ROWS = 4096
_FIRST_SLICE = 256
# Suffix tables are XOR-doubled _FLAT_ROWS rows at a time as one flat row
# once they are that tall, so that numpy's inner loop is long.
_FLAT_ROWS = 1024


@dataclass(frozen=True)
class DecodeOutcome:
    """Decoder result: the message (None when the decoder gave up), the final
    node-check count, and the peak stack size.

    max_stack_size is the peak number of checked but not yet popped nodes
    (node checks minus pops, taken after each expansion).  It is the size
    a stack holding every checked node would reach; the decoder computes it
    rather than materializing such a stack.
    """

    result: tuple | None
    nodes_checked: int
    max_stack_size: int

    @property
    def gave_up(self) -> bool:
        return self.result is None


def decode_memory_bytes(profile: TreeProfile, limit: int) -> int:
    """Estimated peak memory of one decode, in bytes.

    Every stage's suffix-output table is held, at 1 B per child and output
    symbol.  On top, the largest expansion holds 10 B per entry of the rows
    it costs in one product (the mismatch mask and its float64 copy; a
    _CHUNK_ROWS-row chunk of a lazily ordered block) and 32 B per child
    (its float64 costs, plus either the stable argsort or the copy that
    np.partition selects in with the masks and index arrays of a slice).
    Then BYTES_PER_CHECK per node check after the root expansion, whose
    c_0 children the block term already holds: at most
    limit - c_0 + max(c_1, ...) of them.  At the paper's design point
    (c_0 = 2^21, 32 root symbols) the largest expansion's traced peak was
    103 MB against 136 MB estimated for the tables and block.
    """
    r = profile.ends
    fanout = profile.branch_fanout
    shapes = [(rows, r[h + 1] - r[h]) for h, rows in enumerate(fanout)]
    tables = sum(rows * seg for rows, seg in shapes)
    block = max(10 * min(rows, _CHUNK_ROWS) * seg + 32 * rows
                for rows, seg in shapes)
    after_root = int(limit) - fanout[0] + max(fanout[1:], default=0)
    return tables + block + BYTES_PER_CHECK * max(after_root, 0)


def _pack_rows(bits: np.ndarray) -> list:
    """Each row of a 0/1 matrix as an int, first column most significant."""
    packed = np.packbits(bits, axis=1)
    pad = 8 * packed.shape[1] - bits.shape[1]
    return [int.from_bytes(row.tobytes(), "big") >> pad for row in packed]


def _unpack(prefix: int, depth: int) -> tuple:
    """A packed prefix of `depth` bits as a tuple of bits."""
    return tuple(map(int, format(prefix, f"0{depth}b")))


def _stage_block(g: GeneratorMatrix, cm: CostModel, y: np.ndarray,
                 lo: int, hi: int, level: int, next_level: int):
    """What expanding a node at prefix length `level` needs.

    Its children append every suffix of width w = next_level - level and
    add the cost of output segment (lo, hi].  Returns the segment's outputs
    for all 2^w suffixes as a (2^w, hi - lo) table, suffix i in row i (its
    first bit most significant), built in place by XOR-doubling the suffix
    columns; the parent columns' rows packed as ints; the segment of y; and
    its per-symbol costs.
    """
    seg = hi - lo
    table = np.empty((1 << (next_level - level), seg), dtype=np.uint8)
    table[0] = 0
    m = 1
    for col in g.bits[lo:hi, level:next_level].T[::-1]:
        if m < _FLAT_ROWS:
            np.bitwise_xor(table[:m], col, out=table[m:2 * m])
        else:
            flat = _FLAT_ROWS * seg
            np.bitwise_xor(table[:m].reshape(-1, flat),
                           np.tile(col, _FLAT_ROWS),
                           out=table[m:2 * m].reshape(-1, flat))
        m *= 2
    return (table, _pack_rows(g.bits[lo:hi, :level]), y[lo:hi],
            np.asarray(cm.per_symbol_cost[lo:hi], dtype=float))


def _chunked_costs(table: np.ndarray, target: np.ndarray,
                   weights: np.ndarray, cost: float) -> np.ndarray:
    """cost + (table != target) @ weights, one _CHUNK_ROWS-row chunk at a
    time, so that no float64 copy of the whole mismatch mask is made.

    The table has a power-of-two row count above _CHUNK_ROWS, so every chunk
    is full.  Full power-of-two chunks gave the one-shot product's values to
    the bit on 2^16 x 34 and 2^21 x 32 blocks (OpenBLAS, Haswell kernel),
    where a 12345-row chunk did not; the eager-reference tests guard this.
    """
    costs = np.empty(len(table))
    flat_target = np.tile(target, _CHUNK_ROWS)
    for a in range(0, len(table), _CHUNK_ROWS):
        mask = table[a:a + _CHUNK_ROWS].reshape(-1) != flat_target
        np.matmul(mask.reshape(_CHUNK_ROWS, -1), weights,
                  out=costs[a:a + _CHUNK_ROWS])
    costs += cost
    return costs


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
    y = np.asarray(y, dtype=np.uint8)
    if len(y) != prof.n:
        raise ValueError(f"received word has length {len(y)}, expected {prof.n}")
    c0 = prof.branch_fanout[0]
    if limit < c0:
        raise ValueError(
            f"limit {limit} cannot cover the root expansion (c_0 = {c0})")

    k = prof.k
    levels, r = prof.levels, prof.ends
    fanout = prof.branch_fanout
    blocks = [None] * prof.num_stages
    heap = []

    def expand(prefix: int, stage: int, cost: float) -> None:
        """Check the children of a stage-`stage` node and push its cursor
        [costs, ordered slice, next position, children's prefix base,
        next slice's (above, size) or None]."""
        if blocks[stage] is None:
            blocks[stage] = _stage_block(g, cm, y, r[stage], r[stage + 1],
                                         levels[stage], levels[stage + 1])
        table, parent_rows, y_seg, weights = blocks[stage]
        parent_out = [(row & prefix).bit_count() & 1 for row in parent_rows]
        target = y_seg ^ np.array(parent_out, dtype=np.uint8)
        if len(table) > _CHUNK_ROWS:
            costs = _chunked_costs(table, target, weights, cost)
            order, rest = _next_slice(costs, None, _FIRST_SLICE)
        else:
            costs = cost + (table != target) @ weights
            order, rest = costs.argsort(kind="stable"), None
        first = order.item(0)
        base = prefix << (levels[stage + 1] - levels[stage])
        heapq.heappush(heap, (costs.item(first), -levels[stage + 1],
                              base | first, stage + 1,
                              [costs, order, 1, base, rest]))

    expand(0, 0, 0.0)
    nodes_checked = max_stack = c0
    pops = 0
    while nodes_checked <= limit:
        cost, neg_depth, prefix, stage, cursor = heapq.heappop(heap)
        pops += 1
        if trace is not None:
            trace.append({"iteration": pops,
                          "prefix": _unpack(prefix, -neg_depth),
                          "stage": stage, "cost": cost,
                          "nodes_checked": nodes_checked})
        if -neg_depth == k:
            return DecodeOutcome(result=_unpack(prefix, k),
                                 nodes_checked=nodes_checked,
                                 max_stack_size=max_stack)
        costs, order, j, base, rest = cursor
        if j == len(order) and rest is not None:
            order, cursor[4] = _next_slice(costs, *rest)
            cursor[1], j = order, 0
        if j < len(order):
            i = order.item(j)
            cursor[2] = j + 1
            heapq.heappush(heap, (costs.item(i), neg_depth, base | i, stage,
                                  cursor))
        expand(prefix, stage, cost)
        nodes_checked += fanout[stage]
        max_stack = max(max_stack, nodes_checked - pops)

    return DecodeOutcome(result=None, nodes_checked=nodes_checked,
                         max_stack_size=max_stack)

