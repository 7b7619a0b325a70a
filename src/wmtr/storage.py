"""Storage disciplines: where a write lands and what a load returns.

Each memory model is one class behind one interface, and the engine in
`memmodel` calls only that interface.  A storage value is an immutable
tuple; every method takes one and returns a new one.  RELAXED keeps the
parts of its values in tables on the instance and puts their ids in the
value, so a value means something only to the instance that made it:
one instance serves one build.  An instance is made with the build's
burst table, whose `id(burst)` interns a burst, and its own steps come
with burst ids from it.

  SC       writes hit memory at once; observations are emitted in the
           same burst as the event they observe.
  TSO      per-core FIFO store buffers (Owens, Sarkar and Sewell,
           x86-TSO, TPHOLs 2009); a flush makes the head entry globally
           visible and emits its observation.  TAS drains the issuing
           core's buffer and writes through.
  RELAXED  per-variable write records that propagate to other cores one
           at a time in per-variable coherence order; no cross-variable
           ordering.  A core that overwrites a variable jumps past (and
           thereby supersedes) records it never received.  TAS acts on
           the coherence-latest value and is instantly global.

The interface, for a storage s:

  initial()                        the storage before any write
  read(s, core, var)               the value a load on `core` returns
  latest(s, core, var)             the value a TAS on a drained `core` acts on
  write(s, core, var, val, kind, carrier, obs)
                                   (s', events emitted now, ref), or None
  tas_write(s, core, var, val, carrier)            (s', ref)
  attach(s, core, ref, opid, obs)  s' with the response's observation on the
                                   operation's last write, or None: emit now
  drained(s, core)                 every write of `core` is visible everywhere
  inv_ready(s, core, spec)         `core` may invoke a (spec) operation
  moves(s)                         [(burst id, s')]: the storage's own steps

Invocations under TSO wait until the invoking core holds no buffered
program write; under RELAXED, specification invocations wait until the
core's program writes have fully propagated.  Both reflect the enforced
order's treatment of operation boundaries as code the program cannot
see into but the laws still constrain.

A write is a client assignment ("prog"), an object store ("obj") or the
virtual write that stands for an effectful operation in the object-free
chaos mode ("virt").  Its carrier is the step or operation that made it,
and its observation fires once every core can see it.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import itemgetter
from typing import Dict, List, NamedTuple, Optional

from .events import Event


def _tget(pairs: tuple, key, default=None):
    for k, v in pairs:
        if k == key:
            return v
    return default


_key = itemgetter(0)


def _tset(pairs: tuple, key, value) -> tuple:
    """`pairs` (sorted, unique keys) with `key` bound to `value`: the
    binding is replaced in place or inserted at its sorted position."""
    i = bisect_left(pairs, key, key=_key)
    j = i + 1 if i < len(pairs) and pairs[i][0] == key else i
    return pairs[:i] + ((key, value),) + pairs[j:]


class Storage:
    """Defaults of the interface: no write is ever in flight."""

    def __init__(self, cores: tuple, initials: dict, buffer: int, bursts):
        self.cores, self.initials, self.buffer = cores, initials, buffer
        self.bursts = bursts

    def latest(self, s, core, var):
        return self.read(s, core, var)

    def attach(self, s, core, ref, opid, obs):
        return None

    def drained(self, s, core):
        return True

    def inv_ready(self, s, core, spec):
        return True

    def moves(self, s):
        return []


class SC(Storage):
    """Memory alone: sorted ((var, value), ...).  Virtual writes leave no
    trace in it."""

    def initial(self):
        return tuple(sorted(self.initials.items()))

    def read(self, s, core, var):
        return _tget(s, var)

    def write(self, s, core, var, val, kind, carrier, obs):
        if kind != "virt":
            s = _tset(s, var, val)
        return s, ((obs,) if obs is not None else ()), None

    def tas_write(self, s, core, var, val, carrier):
        return _tset(s, var, val), None


class Entry(NamedTuple):  # TSO buffer entry
    var: str
    val: int
    kind: str
    carrier: object
    obs: Optional[Event]


class TSO(Storage):
    """(memory, buffers): memory as under SC, buffers sorted
    ((core, (Entry, ...)), ...) with the oldest entry first.  The ref of
    a buffered object store is ("buf",); `attach` finds the entry
    itself."""

    def initial(self):
        return (tuple(sorted(self.initials.items())),
                tuple((c, ()) for c in self.cores))

    def read(self, s, core, var):
        for e in reversed(_tget(s[1], core)):
            if e.var == var:
                return e.val
        return _tget(s[0], var)

    def write(self, s, core, var, val, kind, carrier, obs):
        mem, bufs = s
        buf = _tget(bufs, core)
        if len(buf) >= self.buffer:
            return None
        entry = Entry(var, val, kind, carrier, obs)
        return (mem, _tset(bufs, core, buf + (entry,))), (), ("buf",)

    def tas_write(self, s, core, var, val, carrier):
        return (_tset(s[0], var, val), s[1]), None  # the buffer is empty

    def attach(self, s, core, ref, opid, obs):
        mem, bufs = s
        buf = _tget(bufs, core)
        for j in range(len(buf) - 1, -1, -1):
            e = buf[j]
            if e.kind == "obj" and e.carrier == opid:
                buf2 = buf[:j] + (e._replace(obs=obs),) + buf[j + 1:]
                return mem, _tset(bufs, core, buf2)
        return None

    def drained(self, s, core):
        return not _tget(s[1], core)

    def inv_ready(self, s, core, spec):
        return all(e.kind != "prog" for e in _tget(s[1], core))

    def moves(self, s):
        mem, bufs = s
        out = []
        for core, buf in bufs:
            if buf:
                head = buf[0]
                mem2 = mem if head.kind == "virt" else _tset(mem, head.var, head.val)
                b = self.bursts.id((head.obs,)) if head.obs is not None else 0
                out.append((b, (mem2, _tset(bufs, core, buf[1:]))))
        return out


class RELAXED(Storage):
    """Sorted ((var, entry_id), ...) over the variables written so far.

    An entry is the pair (recs, posv) of one variable, interned in
    `entries` (collapse compression: the 47k states of the largest
    corpus graph hold a few dozen distinct entries), so a storage value
    is a short tuple of small ints and strs.  posv[k] is the position in
    recs of the latest record of var that the core of rank k (its index
    in the sorted cores) received, -1 before any.  A record is the tuple
      (val, core_rank, kind, carrier_code, covered_mask, obs_code, emitted)
    where bit k of covered_mask says core k received or superseded it,
    and carrier and observation are interned in `decode` (code 0 is
    None); an observation is decoded when its record emits it.  The ref
    of a write is (var, pos).

    An entry's own steps do not depend on the variable or on the rest
    of the storage, so `moves` computes them once per entry id, as
    [(burst id, entry_id')]; likewise `entry` notes once which cores still
    have a record in flight, for `drained` and `inv_ready`.  Every table
    lives on the instance and goes with the build."""

    def __init__(self, cores, initials, buffer, bursts):
        super().__init__(cores, initials, buffer, bursts)
        self.rank = {c: k for k, c in enumerate(cores)}
        self.full = (1 << len(cores)) - 1
        self.codes: Dict[object, int] = {None: 0}
        self.decode: List[object] = [None]
        self.entry_ids: Dict[tuple, int] = {}
        self.entries: List[tuple] = []
        # per entry id: bit k set iff core k issued a record (a program
        # record) that not every core has yet
        self.pending: List[int] = []
        self.pending_prog: List[int] = []
        self.entry_moves: List[Optional[list]] = []
        self.unseen_id = self.entry(((), (-1,) * len(cores)))

    def intern(self, x) -> int:
        code = self.codes.get(x)
        if code is None:
            code = self.codes[x] = len(self.decode)
            self.decode.append(x)
        return code

    def entry(self, e: tuple) -> int:
        """The id of entry `e`, interned on first sight."""
        eid = self.entry_ids.get(e)
        if eid is None:
            eid = self.entry_ids[e] = len(self.entries)
            self.entries.append(e)
            pending = pending_prog = 0
            for _, c, kind, _, cov, _, _ in e[0]:
                if cov != self.full:
                    pending |= 1 << c
                    if kind == "prog":
                        pending_prog |= 1 << c
            self.pending.append(pending)
            self.pending_prog.append(pending_prog)
            self.entry_moves.append(None)
        return eid

    def _get(self, s, var):
        return self.entries[_tget(s, var, self.unseen_id)]

    def initial(self):
        return ()

    def read(self, s, core, var):
        recs, posv = self._get(s, var)
        pos = posv[self.rank[core]]
        return recs[pos][0] if pos >= 0 else self.initials[var]

    def latest(self, s, core, var):
        recs, _ = self._get(s, var)
        return recs[-1][0] if recs else self.initials[var]

    def write(self, s, core, var, val, kind, carrier, obs):
        recs, posv = self._get(s, var)
        pos = len(recs)
        k = self.rank[core]
        bit = 1 << k
        old = posv[k]
        # the issuing core supersedes the records it never received
        recs = recs[:old + 1] + tuple(
            (v, c, kd, ca, cov | bit, ob, em)
            for v, c, kd, ca, cov, ob, em in recs[old + 1:])
        rec = (val, k, kind, self.intern(carrier), bit, self.intern(obs), False)
        posv = posv[:k] + (pos,) + posv[k + 1:]
        return (_tset(s, var, self.entry((recs + (rec,), posv))), (),
                (var, pos))

    def tas_write(self, s, core, var, val, carrier):
        recs, posv = self._get(s, var)
        pos = len(recs)
        # every core jumps to the new record, superseding those it lacks
        recs = tuple(
            (v, c, kd, ca, cov | sum(1 << k for k, p in enumerate(posv) if p < i),
             ob, em)
            for i, (v, c, kd, ca, cov, ob, em) in enumerate(recs))
        rec = (val, self.rank[core], "obj", self.intern(carrier), self.full, 0,
               False)
        eid = self.entry((recs + (rec,), (pos,) * len(posv)))
        return _tset(s, var, eid), (var, pos)

    def attach(self, s, core, ref, opid, obs):
        if ref is None:
            return None
        var, pos = ref
        recs, posv = self._get(s, var)
        rec = recs[pos]
        if rec[4] == self.full:
            return None
        rec2 = rec[:5] + (self.intern(obs),) + rec[6:]
        return _tset(s, var, self.entry((recs[:pos] + (rec2,) + recs[pos + 1:],
                                         posv)))

    def _pending(self, s, core, table) -> bool:
        bit = 1 << self.rank[core]
        return any(table[eid] & bit for _, eid in s)

    def drained(self, s, core):
        return not self._pending(s, core, self.pending)

    def inv_ready(self, s, core, spec):
        return not spec or not self._pending(s, core, self.pending_prog)

    def moves(self, s):
        out = []
        memo = self.entry_moves
        for i, (var, eid) in enumerate(s):
            steps = memo[eid]
            if steps is None:
                steps = memo[eid] = self._entry_moves(eid)
            if steps:
                head, tail = s[:i], s[i + 1:]
                for b, eid2 in steps:
                    out.append((b, head + ((var, eid2),) + tail))
        return out

    def _entry_moves(self, eid: int) -> list:
        """[(burst id, entry_id')]: each record that every core has emits
        its observation, and each other record propagates to every core
        next in line for it; records by position, cores by rank."""
        recs, posv = self.entries[eid]
        out = []
        full = self.full
        for pos, (v, c, kd, ca, cov, ob, em) in enumerate(recs):
            if cov == full and (not ob or em):
                continue
            before, after = recs[:pos], recs[pos + 1:]
            if cov == full:  # every core has it: emit its observation
                recs2 = before + ((v, c, kd, ca, cov, ob, True),) + after
                out.append((self.bursts.id((self.decode[ob],)),
                            self.entry((recs2, posv))))
                continue
            for k in range(len(posv)):  # propagate to each core next in line
                if cov >> k & 1 or posv[k] != pos - 1:
                    continue
                rec2 = (v, c, kd, ca, cov | 1 << k, ob, em)
                posv2 = posv[:k] + (pos,) + posv[k + 1:]
                out.append((0, self.entry((before + (rec2,) + after, posv2))))
        return out
