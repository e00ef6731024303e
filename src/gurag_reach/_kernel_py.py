"""Pure-Python breadth-first search kernel over bit-packed states.

Reference implementation: arbitrary state width, no dependencies.  The
compiled kernel must produce byte-identical outcomes; request generation
order is fixed by the candidate list and the queue is strictly FIFO, so the
first goal hit yields the lexicographically smallest shortest plan.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Optional

from .encoding import ALWAYS, CompiledInstance, QueryEntry

KERNEL_NAME = "python"

_TIME_CHECK_INTERVAL = 2048

# Outcome codes shared with the compiled kernel
REACHABLE = 0
UNREACHABLE = 1
DEPTH_EXCEEDED = 2
STATES_EXCEEDED = 3
MILLIS_EXCEEDED = 4


def _eff_group_bits(ci: CompiledInstance, state: int, j: int, smask: int) -> int:
    bits = 0
    for k in ci.closure_idx[j]:
        bits |= (state >> ci.seg_offsets[k]) & smask
    return bits


def _eff_user_bits(ci: CompiledInstance, state: int, smask: int) -> int:
    bits = state & smask
    mem = state >> ci.mem_offset
    for j in range(ci.n_groups):
        if mem >> j & 1:
            bits |= _eff_group_bits(ci, state, j, smask)
    return bits


def _view(ci: CompiledInstance, state: int, subject: int, smask: int) -> int:
    """The word a guard reads: see ``encoding``."""
    mem = state >> ci.mem_offset
    if subject < 0:
        direct = state & smask
        eff = _eff_user_bits(ci, state, smask)
    else:
        direct = (state >> ci.seg_offsets[subject]) & smask
        eff = _eff_group_bits(ci, state, subject, smask)
    effmem = 0
    for j, seniors in enumerate(ci.senior_mask):
        if mem & seniors:
            effmem |= 1 << j
    s = ci.n_slots
    return direct | eff << s | mem << 2 * s | effmem << (2 * s + ci.n_groups)


def _goal_holds(ci, state, goal: tuple[QueryEntry, ...], strict: bool, smask: int) -> bool:
    eff = _eff_user_bits(ci, state, smask)
    for entry in goal:
        if strict:
            if eff & entry.mask != entry.target:
                return False
        else:
            if entry.target & ~eff:
                return False
    return True


def bfs(
    ci: CompiledInstance,
    start: int,
    goal: Optional[tuple[QueryEntry, ...]],
    strict: bool,
    max_depth: int,
    max_states: int,
    max_millis: int,
):
    """Run BFS from ``start``.

    With a goal: returns (code, plan as candidate-index list, states_explored).
    Without (enumeration mode): returns (code, list of (state, depth), count).
    """
    smask = ci.seg_mask()
    # (candidate index, bit mask, add, subject, guard or None when always true)
    candidates = [(i, 1 << c.bit, c.add, c.subject, None if c.guard == ALWAYS else c.guard)
                  for i, c in enumerate(ci.candidates)]

    if goal is not None and _goal_holds(ci, start, goal, strict, smask):
        return REACHABLE, [], 1

    # discovery-ordered parallel arrays
    states = [start]
    parents = [-1]
    via = [-1]
    depths = [0]
    seen = {start: 0}
    queue = deque([0])
    deadline = time.monotonic() + max_millis / 1000.0
    depth_cut = False
    expanded = 0

    while queue:
        idx = queue.popleft()
        state = states[idx]
        depth = depths[idx]
        if depth >= max_depth:
            depth_cut = True
            continue
        expanded += 1
        if expanded % _TIME_CHECK_INTERVAL == 0 and time.monotonic() > deadline:
            return MILLIS_EXCEEDED, None, len(states)
        views = {}
        for ci_idx, bit, add, subject, guard in candidates:
            succ = state | bit if add else state & ~bit
            if succ == state or succ in seen:
                continue
            if guard is not None:
                view = views.get(subject)
                if view is None:
                    view = views[subject] = _view(ci, state, subject, smask)
                for care, want in guard:
                    if view & care == want:
                        break
                else:
                    continue
            if len(states) >= max_states:
                return STATES_EXCEEDED, None, len(states)
            seen[succ] = len(states)
            states.append(succ)
            parents.append(idx)
            via.append(ci_idx)
            depths.append(depth + 1)
            if goal is not None and _goal_holds(ci, succ, goal, strict, smask):
                plan = []
                at = len(states) - 1
                while at > 0:
                    plan.append(via[at])
                    at = parents[at]
                plan.reverse()
                return REACHABLE, plan, len(states)
            queue.append(len(states) - 1)

    if goal is None:
        return (DEPTH_EXCEEDED if depth_cut else UNREACHABLE), list(zip(states, depths)), len(states)
    if depth_cut:
        return DEPTH_EXCEEDED, None, len(states)
    return UNREACHABLE, None, len(states)
