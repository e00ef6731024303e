"""ctypes binding of the compiled search kernel built from ``_kernel.c``.

``CKernel(path)`` wraps the shared library at ``path``.  Its ``bfs`` has the
contract of ``_kernel_py.bfs``: the instance, start state and goal go to the
library as flat arrays in one ``gr_bfs`` call, and the outcome, the number of
states explored and any plan come back through the same structure; the plan is
the only buffer the library hands back, and ``gr_free`` releases it.
"""

from __future__ import annotations

import ctypes
import sys
from array import array

from ._kernel_py import REACHABLE
from .encoding import ALWAYS, CompiledInstance, QueryEntry

_i32 = ctypes.POINTER(ctypes.c_int32)
_u64 = ctypes.POINTER(ctypes.c_uint64)


class _Search(ctypes.Structure):
    """``struct gr_search`` of _kernel.c, field for field."""
    _fields_ = [
        ("n_slots", ctypes.c_int32), ("n_groups", ctypes.c_int32),
        ("mem_offset", ctypes.c_int32), ("words", ctypes.c_int32),
        ("view_words", ctypes.c_int32),
        ("seg_offsets", _i32), ("closure_start", _i32), ("closure", _i32),
        ("n_cands", ctypes.c_int32), ("cand_bit", _i32),
        ("cand_flags", _i32), ("cand_subject", _i32),
        ("clause_start", _i32), ("care", _u64), ("want", _u64),
        ("start", _u64), ("goal_mask", _u64), ("goal_target", _u64),
        ("max_depth", ctypes.c_int32), ("max_states", ctypes.c_uint32),
        ("max_millis", ctypes.c_int64),
        ("plan", _i32), ("plan_len", ctypes.c_int32), ("n_states", ctypes.c_uint32),
    ]


def _ints(values) -> ctypes.Array:
    raw = array("i", values)
    return (ctypes.c_int32 * len(raw)).from_buffer(raw)


def _words(values, n: int) -> ctypes.Array:
    """Each int of ``values`` as ``n`` native uint64 words, least significant first."""
    raw = array("Q", b"".join([v.to_bytes(8 * n, "little") for v in values]))
    if sys.byteorder == "big":
        raw.byteswap()
    return (ctypes.c_uint64 * len(raw)).from_buffer(raw)


class CKernel:
    KERNEL_NAME = "compiled"

    def __init__(self, path: str):
        lib = ctypes.CDLL(path)
        self._bfs, self._free, size = lib.gr_bfs, lib.gr_free, lib.gr_search_size
        size.argtypes, size.restype = [], ctypes.c_size_t
        if size() != ctypes.sizeof(_Search):  # a build of another _kernel.c
            raise OSError(f"{path}: struct gr_search is not _Search; rebuild it")
        self._bfs.argtypes = self._free.argtypes = [ctypes.POINTER(_Search)]
        self._bfs.restype = ctypes.c_int
        self._free.restype = None

    def bfs(
        self,
        ci: CompiledInstance,
        start: int,
        goal: QueryEntry,
        strict: bool,
        max_depth: int,
        max_states: int,
        max_millis: int,
    ):
        """Identical contract to the pure kernel's ``bfs``."""
        words = max(1, -(-ci.nbits // 64))
        bits, flags, subjects, clause_start, clauses = [], [], [], [0], []
        for cand in ci.candidates:
            bits.append(cand.bit)
            flags.append(cand.add | (cand.guard != ALWAYS) << 1)  # ADD | GUARDED
            subjects.append(cand.subject)
            clauses += cand.guard
            clause_start.append(len(clauses))
        cares = [care for care, _ in clauses]
        view_words = max(1, -(-max(cares, default=0).bit_length() // 64))
        closure_start = [0]
        for closure in ci.closure_idx:
            closure_start.append(closure_start[-1] + len(closure))
        # a relaxed query's target is its own mask
        mask, target = goal.mask if strict else goal.target, goal.target
        # the structure keeps every array assigned to it alive until it is dropped
        s = _Search(
            n_slots=ci.n_slots, n_groups=ci.n_groups, mem_offset=ci.mem_offset,
            words=words, view_words=view_words,
            seg_offsets=_ints(ci.seg_offsets), closure_start=_ints(closure_start),
            closure=_ints([k for closure in ci.closure_idx for k in closure]),
            n_cands=len(bits), cand_bit=_ints(bits), cand_flags=_ints(flags),
            cand_subject=_ints(subjects), clause_start=_ints(clause_start),
            care=_words(cares, view_words), want=_words([want for _, want in clauses], view_words),
            start=_words([start], words),
            goal_mask=_words([mask], words), goal_target=_words([target], words),
            max_depth=max_depth, max_states=max_states, max_millis=max_millis,
        )
        code = self._bfs(ctypes.byref(s))
        try:
            if code < 0:
                raise MemoryError("the compiled kernel ran out of memory")
            if code == REACHABLE:
                return code, s.plan[:s.plan_len] if s.plan_len else [], s.n_states
            return code, None, s.n_states
        finally:
            self._free(ctypes.byref(s))
