"""Bit-level compilation of a problem instance for the search kernels.

A direct state is packed into one integer: an S-bit value segment for the user,
one S-bit segment per group (same attribute layout), then one membership bit
per group.  Every rule expands into concrete candidate requests sorted
deterministically, each with a guard: its precondition as a disjunction of
``(care, want)`` clauses over the subject's *view* word

    direct | eff << S | mem << 2S | effmem << (2S + G)

where ``direct``/``eff`` are the subject's direct and effective value bits,
``mem`` the user's membership bits and bit ``j`` of ``effmem`` is set when the
user is effectively in group ``j``.  A clause holds when ``view & care ==
want``.  Both the pure-Python and the compiled kernel consume this
representation.
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
    """An instance compiled to the bit form both kernels search."""

    _fields = ("groups", "slot", "att_spans", "n_slots", "n_groups", "nbits", "mem_offset",
               "seg_offsets", "closure_idx", "candidates")

    def __init__(self, instance: ProblemInstance):
        self.slot = slot = {}            # (att, val) -> slot within an S-bit segment
        self.att_spans = att_spans = {}  # att -> (slot offset, width)
        cursor = 0
        for att in sorted(instance.scopes):
            vals = sorted(instance.scopes[att])
            att_spans[att] = (cursor, len(vals))
            for val in vals:
                slot[att, val] = cursor
                cursor += 1
        self.n_slots = n_slots = cursor  # S: total scope values

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
            guard = clauses(rule.pre, view_bit)
            guards.append(ALWAYS if (0, 0) in guard else tuple(guard))
        candidates = []
        for req, rule in candidate_requests(instance):
            if req.kind.is_membership:
                bit, subject = mem_offset + gidx[req.group], -1
            elif req.kind.is_group_subject:
                subject = gidx[req.group]
                bit = seg_offsets[subject] + slot[req.att, req.val]
            else:
                bit, subject = slot[req.att, req.val], -1
            candidates.append(Candidate(bit, not req.kind.is_delete, subject, guards[rule.rule_id],
                                        rule.rule_id, req))
        self.candidates = tuple(candidates)

    def seg_mask(self) -> int:
        return (1 << self.n_slots) - 1

    def encode_state(self, state: DirectState) -> int:
        bits = 0
        for att, vals in state.user_attrs.items():
            for val in vals:
                bits |= 1 << self.slot[att, val]
        for g, attrs in state.group_attrs.items():
            off = self.seg_offsets[self.groups.index(g)]
            for att, vals in attrs.items():
                for val in vals:
                    bits |= 1 << (off + self.slot[att, val])
        for g in state.user_groups:
            bits |= 1 << (self.mem_offset + self.groups.index(g))
        return bits

    def compile_query(self, q: ReachabilityQuery) -> QueryEntry:
        mask = target = 0
        for att, vset in q.entries.items():
            off, width = self.att_spans[att]
            mask |= ((1 << width) - 1) << off
            for val in vset:
                target |= 1 << self.slot[att, val]
        return QueryEntry(mask, target)


def candidate_requests(instance: ProblemInstance) -> list[tuple[Request, Rule]]:
    """Each concrete request a rule can authorize, with that rule, in search
    order: by request, then by rule id.  A group-subject rule gives one
    request per group."""
    groups = sorted(instance.groups)
    out = []
    for rule in instance.rules:
        rel = rule.relation
        subjects = groups if rel.is_group_subject else [rule.target_group]
        out += [(Request(rel, rule.role, rule.target_attr, rule.target_val, g), rule)
                for g in subjects]
    out.sort(key=lambda c: (c[0].sort_key, c[1].rule_id))
    return out


def compile_instance(instance: ProblemInstance) -> CompiledInstance:
    return CompiledInstance(instance)
