"""Pure-Python breadth-first search kernel over bit-packed states.

Reference implementation: arbitrary state width, no dependencies.  One call
answers one query: whether a state meeting the goal is reachable, and by
which plan.  The compiled kernel must produce byte-identical outcomes.

The search runs level by level: the frontier of depth ``d`` is a list,
expanded state by state with the candidates in their fixed order, and the
states it discovers form the frontier of depth ``d + 1``.  That is the order
of a FIFO queue, so the first goal hit yields the lexicographically smallest
shortest plan.  One visited dict maps each discovered state to its
``(parent state, candidate index)`` link (``None`` for the start), and the
plan is walked back through the links.

The goal test is one comparison, ``eff & mask == target``, on the user's
effective value bits ``eff``: the query's single ``QueryEntry`` gives the
mask (for a relaxed query, the target itself) and the target.  A state
without membership bits is its own ``eff`` below the mask; otherwise ``eff``
ORs in the segments of the user's effective groups, the union of the junior
closures of the groups held.  A table local to the call derives that union
once per membership word, and with it the ``mem`` and ``effmem`` bits of the
guards' view words.
"""

from __future__ import annotations

import time

from .encoding import ALWAYS, CompiledInstance, QueryEntry

KERNEL_NAME = "python"

# Each expanded state tests every candidate, so reading the clock every
# ``_TIME_CHECK_INTERVAL // (candidates + 1) + 1`` expanded states reads it
# about every ``_TIME_CHECK_INTERVAL`` candidate tests; ``_kernel.c`` follows
# the same rule.
_TIME_CHECK_INTERVAL = 16384

# Outcome codes shared with the compiled kernel
REACHABLE = 0
UNREACHABLE = 1
DEPTH_EXCEEDED = 2
STATES_EXCEEDED = 3
MILLIS_EXCEEDED = 4


def bfs(
    ci: CompiledInstance,
    start: int,
    goal: QueryEntry,
    strict: bool,
    max_depth: int,
    max_states: int,
    max_millis: int,
):
    """Run BFS from ``start`` to the goal; returns (code, plan as a list of
    candidate indices or None, states explored)."""
    s, smask, mem_offset, seg_offsets = ci.n_slots, ci.seg_mask(), ci.mem_offset, ci.seg_offsets
    # (candidate index, bit mask, add, subject, guard or None when always true)
    candidates = [(i, 1 << c.bit, c.add, c.subject, None if c.guard == ALWAYS else c.guard)
                  for i, c in enumerate(ci.candidates)]
    # membership word -> (segment offsets of the user's effective groups,
    #                     the view's ``mem << 2S | effmem << (2S + G)`` bits)
    members = {0: ((), 0)}

    def member(mem: int) -> tuple[tuple[int, ...], int]:
        """The entry of a membership word the table does not hold yet."""
        groups = {k for j in range(ci.n_groups) if mem >> j & 1 for k in ci.closure_idx[j]}
        effmem = sum([1 << k for k in groups])
        entry = members[mem] = (tuple([seg_offsets[k] for k in groups]),
                                (mem | effmem << ci.n_groups) << 2 * s)
        return entry

    def eff_bits(state: int) -> int:
        """The user's effective value bits, with higher bits left over: mask them."""
        mem = state >> mem_offset
        eff = state
        for off in (members.get(mem) or member(mem))[0]:
            eff |= state >> off
        return eff

    def make_view(state: int, subject: int) -> int:
        """The word a guard reads: see ``encoding``."""
        mem = state >> mem_offset
        offsets, above = members.get(mem) or member(mem)
        own = state
        if subject >= 0:  # a group's effective values: the segments of its junior closure
            own = state >> seg_offsets[subject]
            offsets = [seg_offsets[k] for k in ci.closure_idx[subject]]
        eff = own
        for off in offsets:
            eff |= state >> off
        return own & smask | (eff & smask) << s | above

    # a relaxed query's target is its own mask
    mask, target = goal.mask if strict else goal.target, goal.target
    plain_below = 1 << mem_offset  # states without membership bits
    if eff_bits(start) & mask == target:
        return REACHABLE, [], 1

    seen = {start: None}
    frontier = [start]
    deadline = time.monotonic() + max_millis / 1000.0
    expanded, every = 0, _TIME_CHECK_INTERVAL // (len(candidates) + 1) + 1
    depth = 0

    while frontier and depth < max_depth:
        nxt = []
        for state in frontier:
            expanded += 1
            if expanded % every == 0 and time.monotonic() > deadline:
                return MILLIS_EXCEEDED, None, len(seen)
            views = {}
            for ci_idx, bit, add, subject, guard in candidates:
                succ = state | bit if add else state & ~bit
                if succ == state or succ in seen:
                    continue
                if guard is not None:
                    view = views.get(subject)
                    if view is None:
                        view = views[subject] = make_view(state, subject)
                    for care, want in guard:
                        if view & care == want:
                            break
                    else:
                        continue
                if len(seen) >= max_states:
                    return STATES_EXCEEDED, None, len(seen)
                seen[succ] = (state, ci_idx)
                if (succ if succ < plain_below else eff_bits(succ)) & mask == target:
                    plan = []
                    link = seen[succ]
                    while link is not None:
                        at, c = link
                        plan.append(c)
                        link = seen[at]
                    plan.reverse()
                    return REACHABLE, plan, len(seen)
                nxt.append(succ)
        frontier = nxt
        depth += 1

    # a nonempty frontier left at max_depth is the depth bound cutting the search
    return DEPTH_EXCEEDED if frontier else UNREACHABLE, None, len(seen)
