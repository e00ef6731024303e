"""Pure-Python breadth-first search kernel over bit-packed states.

The package's one search kernel: arbitrary state width, no dependencies.
One call answers one query: whether a state meeting the goal is reachable,
and by which plan.

The search runs level by level: the frontier of depth ``d`` is a list,
expanded state by state with the candidates in their fixed order, and the
states it discovers form the frontier of depth ``d + 1``.  That is the order
of a FIFO queue, so the first goal hit yields the lexicographically smallest
shortest plan.  One visited dict maps each discovered state to its one
link: the index of the candidate that reached it, ``-1`` for the start.  A
request flips exactly one bit, so flipping that candidate's bit back gives
the parent, whose own link is read next; that walk yields the plan backwards.

A state tests only its *live* candidates: those whose guard holds and whose
request is not a no-op, as a bit mask over candidate indices.  A child
differs from its parent in the one bit its candidate flipped, so it inherits
the parent's live mask and re-tests only the candidates that bit can affect.
A table local to the call gives, per candidate, ``(keep, on, recheck)``: the
live bits the flip cannot change, the ``ALWAYS``-guarded writers of the bit
that it turns on (writers in its own direction turn off), and the guarded
writers and readers of the bit, re-tested on the child's view.  Readers come
from each guard's ``care`` bits mapped to state bits, over-approximating
where the view folds several state bits into one; the re-test is exact, so
the live mask always is.  The start state (link ``-1``) tests every
candidate.  The frontier is two flat lists, the states and each one's parent
live mask.  A state's own mask is derived when it is expanded, and a row of
the table when the first state reached through its candidate is.  Live
candidates are walked in index order, 8 bits at a time, so plans,
``statesExplored``, bound cuts and the goal test are those of testing every
candidate at every state.

A state also skips the edges that can only lead to visited states, by a
sleep set (Godefroid and Wolper, CAV 1991).  Let ``s`` be reached from its
parent ``p`` through candidate ``c``.  Then ``s`` skips each live candidate
``c' < c`` that was live at ``p`` and writes no state bit that ``c``'s guard
may read, by the table's readers map (reads through junior closures too).
Why ``s ^ c'`` is visited by the time ``s`` is expanded: ``p`` came to ``c'``
before ``c``, so ``p ^ c'`` was visited before ``s`` was (``p`` may have
skipped ``c'``, but only because, by this same argument, ``p ^ c'`` was
visited already) and is expanded first.  ``c`` is live there, since flipping
``c'``'s bit changes neither ``c``'s guard nor ``c``'s own bit (a writer of
that bit live at both ``p`` and ``s`` would be a no-op at one of them), and
``(p ^ c') ^ c`` is ``s ^ c'``.  So only edges into visited states are
dropped: the visited dict, each link and the discovery order, and with them
plans, ``statesExplored``, the bound cuts and the clock reads per expanded
state, are those of testing every live candidate.  The skip is derived only
on a state that shares a live candidate with its parent, which no state of a
chain does, from one mask per candidate, built the first time it is needed.

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

# Reading the clock every ``_TIME_CHECK_INTERVAL // (candidates + 1) + 1``
# expanded states reads it at most every ``_TIME_CHECK_INTERVAL`` candidate
# tests.
_TIME_CHECK_INTERVAL = 16384

# Outcome codes; ``search`` maps them to its outcome classes
REACHABLE = 0
UNREACHABLE = 1
DEPTH_EXCEEDED = 2
STATES_EXCEEDED = 3
MILLIS_EXCEEDED = 4

# byte -> the indices of its set bits, in order: the bytes from 2^j up to
# 2^(j + 1) hold j and the bits of the bytes below 2^j
_BYTE_BITS = [()]
for _j in range(8):
    _BYTE_BITS += [bits + (_j,) for bits in _BYTE_BITS]


class _LiveTable:
    """How a step changes the live set.  ``rows[i]`` is ``(keep, on, recheck)``
    for a state reached through candidate ``i``, built when the first such
    state is expanded; the last row, read through link -1, is the start's.
    The state's live mask is ``parent_live & keep | on``, plus each candidate
    of ``recheck`` that passes its test ``(mask, flip, need, subject, guard)``:
    ``state & flip == need`` (not a no-op), and ``guard``, None for
    ``ALWAYS``, holds on the subject's view; ``mask`` is ``1 << j`` for
    candidate ``j``."""

    def __init__(self, ci: CompiledInstance):
        self.ci = ci
        self.tests = tests = []
        self.adds = self.always = 0
        self.writers = writers = {}  # state bit -> the candidates that write it
        for i, c in enumerate(ci.candidates):
            mask, flip = 1 << i, 1 << c.bit
            writers[c.bit] = writers.get(c.bit, 0) | mask
            guard = None if c.guard == ALWAYS else c.guard
            if c.add:
                self.adds |= mask
            if guard is None:
                self.always |= mask
            tests.append((mask, flip, 0 if c.add else flip, c.subject, guard))
        self.rows = [None] * len(tests) + [(0, 0, tuple(tests))]
        self.readers = None  # state bit -> the guarded candidates that may read it

    def _index_readers(self) -> dict[int, int]:
        ci = self.ci
        s, n_groups, mem_offset, seg_offsets = ci.n_slots, ci.n_groups, ci.mem_offset, ci.seg_offsets
        smask, all_mem = (1 << s) - 1, ((1 << n_groups) - 1) << mem_offset
        # times an S-bit word: a copy in the user's segment and in every group's
        user_spread = sum([1 << off for off in seg_offsets], 1)
        written = 0
        for b in self.writers:
            written |= 1 << b
        readers = {}
        for mask, _, _, subject, guard in self.tests:
            if guard is None:
                continue
            care = 0
            for part, _ in guard:
                care |= part
            direct, eff, mem = care & smask, care >> s & smask, care >> 2 * s
            if mem >> n_groups:  # effmem bits: every membership bit
                mem = all_mem
            else:
                mem <<= mem_offset
            if subject < 0:  # any group may be effective: its segment and membership
                reads = direct | eff * user_spread | (all_mem if eff else mem)
            else:  # the subject's own segment is in its junior closure
                reads = direct << seg_offsets[subject] | mem
                for k in ci.closure_idx[subject]:
                    reads |= eff << seg_offsets[k]
            reads &= written
            while reads:
                low = reads & -reads
                at = low.bit_length() - 1
                readers[at] = readers.get(at, 0) | mask
                reads ^= low
        return readers

    def build(self, i: int) -> tuple[int, int, tuple]:
        """``rows[i]``: writers of the flipped bit in the same direction are
        no-ops now (off), the ``ALWAYS``-guarded ones in the other direction
        are live (on), and its guarded writers and readers are re-tested."""
        if self.readers is None:
            self.readers = self._index_readers()
        c = self.ci.candidates[i]
        full = (1 << len(self.tests)) - 1
        same = self.writers[c.bit] & (self.adds if c.add else full ^ self.adds)
        other = self.writers[c.bit] ^ same
        on = other & self.always
        recheck = other ^ on | (self.readers.get(c.bit, 0) | same) ^ same
        keep = full ^ (same | on | recheck)
        tests = []
        while recheck:
            low = recheck & -recheck
            tests.append(self.tests[low.bit_length() - 1])
            recheck ^= low
        row = self.rows[i] = (keep, on, tuple(tests))
        return row

    def sleep(self, i: int) -> int:
        """The sleep mask of a state reached through candidate ``i``: the
        candidates below ``i`` that write no state bit ``i``'s guard may read,
        by the readers map ``build`` indexed."""
        mask, sleep = 1 << i, (1 << i) - 1
        for at, readers in self.readers.items():
            if readers & mask:
                sleep &= ~self.writers[at]
        return sleep


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

    deadline = time.monotonic() + max_millis / 1000.0
    table = _LiveTable(ci)
    rows, sleeps, flips = table.rows, {}, [flip for _, flip, _, _, _ in table.tests]
    seen = {start: -1}
    frontier, lives = [start], [0]  # each state, and the live mask of its parent
    expanded, every = 0, _TIME_CHECK_INTERVAL // (len(flips) + 1) + 1
    depth = 0

    while frontier and depth < max_depth:
        nxt, nxt_lives = [], []
        for state, parent_live in zip(frontier, lives):
            expanded += 1
            if expanded % every == 0 and time.monotonic() > deadline:
                return MILLIS_EXCEEDED, None, len(seen)
            link = seen[state]
            keep, on, recheck = rows[link] or table.build(link)
            live = parent_live & keep | on
            if recheck:
                views = {}
                for cand_bit, flip, need, subject, guard in recheck:
                    if state & flip != need:
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
                    live |= cand_bit
            rest, base = live, 0
            if live & parent_live:  # skip what the parent's earlier children reach
                try:
                    sleep = sleeps[link]
                except KeyError:
                    sleep = sleeps[link] = table.sleep(link)
                rest &= ~(parent_live & sleep)
            while rest:
                byte = rest & 255
                if not byte:  # jump to the chunk of the lowest live candidate
                    skip = ((rest & -rest).bit_length() - 1) & -8
                    rest >>= skip
                    base += skip
                    byte = rest & 255
                for j in _BYTE_BITS[byte]:
                    ci_idx = base + j
                    succ = state ^ flips[ci_idx]
                    if succ in seen:
                        continue
                    if len(seen) >= max_states:
                        return STATES_EXCEEDED, None, len(seen)
                    seen[succ] = ci_idx
                    if (succ if succ < plain_below else eff_bits(succ)) & mask == target:
                        plan, at, c = [], succ, ci_idx
                        while c >= 0:
                            plan.append(c)
                            at ^= flips[c]
                            c = seen[at]
                        plan.reverse()
                        return REACHABLE, plan, len(seen)
                    nxt.append(succ)
                    nxt_lives.append(live)
                rest >>= 8
                base += 8
        frontier, lives = nxt, nxt_lives
        depth += 1

    # a nonempty frontier left at max_depth is the depth bound cutting the search
    return DEPTH_EXCEEDED if frontier else UNREACHABLE, None, len(seen)
