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
Expanding a node computes its children's costs as one block and sorts them
by (cost, prefix); the heap holds one cursor per expanded parent, keyed by
that parent's cheapest unpopped child, and popping a child advances its
cursor to the next sibling.  The pops are exactly those of a heap holding
every checked node, while the heap holds at most one entry per expanded
node.
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
# over 4e5 checks on a fanout-2 staircase that gives up (about 220 B).
# Fanout 2 is the worst case: each expansion keeps a heap entry, a cursor
# and two small arrays for only two children; wide stages need ~16 B a child.
BYTES_PER_CHECK = 224


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
    """Estimated peak memory of one decode: the largest sibling block (its
    suffix-output table, mismatch mask and the mask's float64 copy, 10 B per
    child and output symbol) plus BYTES_PER_CHECK per node check."""
    r = profile.stage_end_times()
    block = max(fanout * int(r[h + 1] - r[h])
                for h, fanout in enumerate(profile.branch_fanout))
    return 10 * block + BYTES_PER_CHECK * int(limit)


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
    first bit most significant), built by XOR-doubling the suffix columns;
    the parent columns' rows packed as ints; the segment of y; and its
    per-symbol costs.
    """
    table = np.zeros((1, hi - lo), dtype=np.uint8)
    for col in g.bits[lo:hi, level:next_level].T[::-1]:
        table = np.concatenate([table, table ^ col])
    return (table, _pack_rows(g.bits[lo:hi, :level]), y[lo:hi],
            np.asarray(cm.per_symbol_cost[lo:hi], dtype=float))


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
    levels = (0,) + prof.branch_levels
    r = prof.stage_end_times().tolist()
    fanout = prof.branch_fanout
    blocks = [None] * prof.num_stages
    heap = []

    def expand(prefix: int, stage: int, cost: float) -> None:
        """Check the children of a stage-`stage` node and push its cursor
        [costs, order, next position, children's prefix base]."""
        if blocks[stage] is None:
            blocks[stage] = _stage_block(g, cm, y, r[stage], r[stage + 1],
                                         levels[stage], levels[stage + 1])
        table, parent_rows, y_seg, weights = blocks[stage]
        parent_out = [(row & prefix).bit_count() & 1 for row in parent_rows]
        target = y_seg ^ np.array(parent_out, dtype=np.uint8)
        costs = cost + (table != target) @ weights
        order = costs.argsort(kind="stable")
        first = order.item(0)
        base = prefix << (levels[stage + 1] - levels[stage])
        heapq.heappush(heap, (costs.item(first), -levels[stage + 1],
                              base | first, stage + 1, [costs, order, 1, base]))

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
        costs, order, j, base = cursor
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

