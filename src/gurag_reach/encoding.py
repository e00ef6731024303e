"""Bit-level compilation of a problem instance for the search kernel.

A direct state is packed into one integer: an S-bit value segment for the user,
one S-bit segment per group (same attribute layout), then one membership bit
per group.  Every rule expands into concrete candidate requests sorted
deterministically, each with a guard: its precondition as a disjunction of
``(care, want)`` clauses over the subject's *view* word

    direct | eff << S | mem << 2S | effmem << (2S + G)

where ``direct``/``eff`` are the subject's direct and effective value bits,
``mem`` the user's membership bits and bit ``j`` of ``effmem`` is set when the
user is effectively in group ``j``.  A clause holds when ``view & care ==
want``.  The search kernel, ``_kernel_py``, consumes this representation.

A segment has slots only for the *kept* scope values: those that some rule
targets (add or delete) or that some segment of the initial state holds.  They
are numbered attribute by attribute, each attribute's values sorted, so each
attribute's kept values are contiguous (its ``att_spans`` entry).  Every other
value is *idle* and maps to one shared slot after the kept ones, present only
when some value is idle; S counts the kept values and that slot.

Why this changes no answer.  No candidate writes the shared slot in any
segment, as a candidate writes only its rule's target, and the start state
does not hold it, so it is 0 in every reachable state, just as each idle
value's own bit was under one slot per value.  So a guard literal on an idle
value, direct or effective, in any segment, reads 0 where it read 0 before,
and every guard holds on the same reachable states.  A query target naming an
idle value gets the shared bit, which no effective set holds; a strict query
has it outside ``mask`` too, since the attribute's span covers only its kept
values, so that goal never holds, as before.  An idle value outside a strict
query's target was 0 under the mask and is left out of it now.  The candidates
and their order are unchanged.  A guard's clauses may not be: one that asks
for one idle value and against another now reads one bit both ways and is
dropped as self-contradictory, but it never held.  So each guard and the goal
take the same value on every reachable state, and a guard still depends only
on the bits its ``care`` words name, which is all the kernel's live and
sleep tables need of it.  The kernel therefore visits the same states in the
same order: plans, ``statesExplored`` and bound cuts are those of one slot per
value, on narrower states.
"""

from __future__ import annotations

from ._record import Frozen, Record
from .model import DirectState, ProblemInstance
from .policy import (
    DirectGroup,
    DirectVal,
    EffGroup,
    EffVal,
    Precondition,
    Rule,
    TrueCond,
    clauses,
)
from .transition import ReachabilityQuery, Request

ALWAYS = ((0, 0),)  # the guard of a precondition that always holds


class Candidate(Frozen):
    """One concrete request a rule can authorize, plus its compiled guard."""

    _fields = ("bit", "add", "subject", "guard", "rule_id", "request")

    def __init__(
        self,
        bit: int,              # absolute bit index toggled by the request
        add: bool,             # set vs clear
        subject: int,          # -1 = user, else group index (whose view the guard reads)
        guard: tuple[tuple[int, int], ...],  # (care, want) clauses, any of which must hold
        rule_id: int,
        request: Request,
    ):
        self.__dict__.update(bit=bit, add=add, subject=subject, guard=guard, rule_id=rule_id,
                             request=request)


class QueryEntry(Frozen):
    """A query as one goal word over the user's effective value bits.

    The attributes' slot masks are disjoint, so one union holds every queried
    attribute: a strict query holds when ``eff & mask == target``, a relaxed
    one when ``eff & target == target``.
    """

    _fields = ("mask", "target")

    def __init__(self, mask: int, target: int):
        # mask: queried attributes' slot masks within an S-bit segment;
        # target: required bits within that mask
        self.__dict__.update(mask=mask, target=target)


class CompiledInstance(Record):
    """An instance compiled to the bit form the search kernel searches."""

    _fields = ("groups", "slot", "att_spans", "n_slots", "n_groups", "nbits", "mem_offset",
               "seg_offsets", "closure_idx", "candidates")

    def __init__(self, instance: ProblemInstance):
        # (att, val) -> slot within an S-bit segment; every idle value -> the
        # one shared slot after the kept ones
        self.slot = slot = {}
        # att -> (slot offset, width) of its kept values, which are contiguous
        self.att_spans = att_spans = {}
        init = instance.initial_state
        kept = {(rule.target_attr, rule.target_val) for rule in instance.rules.rules}
        for att, vals in init.user_attrs.items():
            for val in vals:
                kept.add((att, val))
        for attrs in init.group_attrs.values():
            for att, vals in attrs.items():
                for val in vals:
                    kept.add((att, val))
        idle = []
        cursor = 0
        for att in sorted(instance.scopes):
            first = cursor
            for val in sorted(instance.scopes[att]):
                key = (att, val)
                if key in kept:
                    slot[key] = cursor
                    cursor += 1
                else:
                    idle.append(key)
            att_spans[att] = (first, cursor - first)
        if idle:
            slot.update(dict.fromkeys(idle, cursor))
            cursor += 1
        self.n_slots = n_slots = cursor  # S: kept values, plus the idle slot if any

        self.groups = groups = tuple(sorted(instance.groups))
        gidx = {g: j for j, g in enumerate(groups)}
        self.n_groups = n_groups = len(groups)
        self.seg_offsets = seg_offsets = tuple(n_slots * (1 + j) for j in range(n_groups))
        self.mem_offset = mem_offset = n_slots * (1 + n_groups)
        self.nbits = mem_offset + n_groups
        self.closure_idx = tuple(
            tuple(sorted(gidx[j] for j in instance.hierarchy.junior_closure(g)))
            for g in groups
        )

        def view_bit(lit: Precondition) -> int:
            if isinstance(lit, DirectVal):
                return slot[lit.att, lit.val]
            if isinstance(lit, EffVal):
                return n_slots + slot[lit.att, lit.val]
            if isinstance(lit, DirectGroup):
                return 2 * n_slots + gidx[lit.group]
            if isinstance(lit, EffGroup):
                return 2 * n_slots + n_groups + gidx[lit.group]
            raise TypeError(f"unknown precondition node {lit!r}")  # pragma: no cover

        guards = []
        for rule in instance.rules:  # rule ids are declaration order
            pre = rule.pre
            kind = pre.__class__
            # ``true`` and a value literal are one clause each, as ``clauses``
            # would give them, without its walk
            if kind is TrueCond:
                guards.append(ALWAYS)
            elif kind is DirectVal or kind is EffVal:
                b = 1 << (slot[pre.att, pre.val] if kind is DirectVal
                          else n_slots + slot[pre.att, pre.val])
                guards.append(((b, b),))
            else:
                guard = clauses(pre, view_bit)
                guards.append(ALWAYS if (0, 0) in guard else tuple(guard))
        candidates = []
        for key in _request_keys(instance):
            group, rule = key[6], key[7]
            rel = rule.relation
            if rel.is_membership:
                bit, subject = mem_offset + gidx[group], -1
            elif rel.is_group_subject:
                subject = gidx[group]
                bit = seg_offsets[subject] + slot[rule.target_attr, rule.target_val]
            else:
                bit, subject = slot[rule.target_attr, rule.target_val], -1
            rule_id = rule.rule_id
            candidates.append(Candidate(
                bit, not rel.is_delete, subject, guards[rule_id], rule_id,
                Request(rel, rule.role, rule.target_attr, rule.target_val, group)))
        self.candidates = tuple(candidates)

    def seg_mask(self) -> int:
        return (1 << self.n_slots) - 1

    def encode_state(self, state: DirectState) -> int:
        """``state`` as a state word; ``ValueError`` if it holds an idle value,
        whose shared slot must stay 0."""
        bits = 0
        for att, vals in state.user_attrs.items():
            for val in vals:
                bits |= 1 << self._kept_slot(att, val)
        for g, attrs in state.group_attrs.items():
            off = self.seg_offsets[self.groups.index(g)]
            for att, vals in attrs.items():
                for val in vals:
                    bits |= 1 << (off + self._kept_slot(att, val))
        for g in state.user_groups:
            bits |= 1 << (self.mem_offset + self.groups.index(g))
        return bits

    def _kept_slot(self, att: str, val: str) -> int:
        at = self.slot[att, val]
        off, width = self.att_spans[att]
        if not off <= at < off + width:
            raise ValueError(f"{att}={val} is idle: no rule writes it and the initial "
                             "state does not hold it")
        return at

    def compile_query(self, q: ReachabilityQuery) -> QueryEntry:
        mask = target = 0
        for att, vset in q.entries.items():
            off, width = self.att_spans[att]
            mask |= ((1 << width) - 1) << off
            for val in vset:  # an idle value's bit, the shared slot, lies outside every mask
                target |= 1 << self.slot[att, val]
        return QueryEntry(mask, target)


def _request_keys(instance: ProblemInstance) -> list[tuple]:
    """One flat key per concrete request a rule can authorize, sorted: the
    request's ``Request.sort_key`` and the rule's id, which no two requests
    share, then the request's group (or None) and the rule, which the sort
    never reaches.  A group-subject rule gives one request per group."""
    groups = sorted(instance.groups)
    keys = []
    for rule in instance.rules:
        rel = rule.relation
        order, att, val = rel.order, rule.target_attr or "", rule.target_val or ""
        role, rule_id = rule.role, rule.rule_id
        if rel.is_group_subject:
            keys += [(order, att, val, g, role, rule_id, g, rule) for g in groups]
        else:
            g = rule.target_group
            keys.append((order, att, val, g or "", role, rule_id, g, rule))
    keys.sort()
    return keys


def candidate_requests(instance: ProblemInstance) -> list[tuple[Request, Rule]]:
    """Each concrete request a rule can authorize, with that rule, in search
    order: by request, then by rule id.  A group-subject rule gives one
    request per group."""
    out = []
    for key in _request_keys(instance):
        group, rule = key[6], key[7]
        out.append((Request(rule.relation, rule.role, rule.target_attr, rule.target_val, group),
                    rule))
    return out


def compile_instance(instance: ProblemInstance) -> CompiledInstance:
    return CompiledInstance(instance)
