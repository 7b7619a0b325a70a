"""Storage disciplines: where a write lands and what a load returns.

Each memory model is one class behind one interface, and the engine in
`memmodel` calls only that interface.  An exploration state is one int
of fixed-width fields (`FIELD_BITS` each), and a storage value is that
int: a discipline reads and changes its own fields, from bit `shift`
up, and leaves every lower bit as it found it, so a successor is often
the state plus a delta.  SC and TSO keep their storage as one tuple,
interned as a single field; RELAXED keeps one field per variable, its
entry's id.  The tuples and entries live in tables on the instance, so
a value means something only to the instance that made it: one
instance serves one build.  An instance is made with the build's burst
table, whose `id(burst)` interns a burst, and its own steps come with
burst ids from it.

  SC       writes hit memory at once; observations are emitted in the
           same burst as the event they observe.
  TSO      per-core FIFO store buffers (Owens, Sarkar and Sewell,
           x86-TSO, TPHOLs 2009); a flush makes the head entry globally
           visible and emits its observation.  A TAS, issued once the
           core's buffer is drained, writes through.
  RELAXED  per-variable write records that propagate to other cores one
           at a time in per-variable coherence order; no cross-variable
           ordering.  A core that overwrites a variable jumps past (and
           thereby supersedes) records it never received.  A TAS acts on
           the coherence-latest value and is instantly global.  `RELAXED`
           moves a record to a core in the edge of the first step that
           needs it there; `Eager`, the storage of a build that does not
           reduce, propagates it by silent steps of its own.

The interface, for a state int s:

  initial()                        the storage before any write
  read(s, core, var)               the value a load on `core` returns
  latest(s, core, var)             the value a TAS on a drained `core` acts on
  views(s, core, reads)            [s'], one per choice of what a load of
                                   each variable of `reads` on `core` may
                                   read: (s,) but under RELAXED
  writer(core, var, val, kind, carrier, obs)
                                   a write, prepared once for `write`
  write(s, w)                      s' once the storage takes `w`, or None
  attach(s, core, ref, opid, obs)  s' with the response's observation on the
                                   operation's last write, or None: emit now
  fence(s, core)                   s' once every write of `core` is visible
                                   everywhere, or None while it must wait
  invoke(s, core, spec)            s' once `core` may invoke a (spec)
                                   operation, or None while it must wait
  moves(s)                         [(burst id, s')]: the storage's own steps

A prepared write fixes what does not depend on the state: its `ref`,
where the storage puts it, which an operation's call slot records for
`attach`, and its `emits`, the events emitted as it is taken.  A
prepared write and each field value keep what they decide: a write's
change to the state is worked out once per value of the field it
changes, and a field's own steps once per value, as [(burst id, delta)].

Invocations under TSO wait until the invoking core holds no buffered
program write; under RELAXED, a specification invocation propagates the
core's program writes to every core in its own edge (`Eager` waits
until they have propagated).  Both reflect the enforced order's treatment
of operation boundaries as code the program cannot see into but the
laws still constrain.

A write is a client assignment ("prog"), an object store ("obj"), an
object TAS on a drained core ("tas") or the virtual write that stands
for an effectful operation in the object-free chaos mode ("virt").  Its
carrier is the step or operation that made it, and its observation
fires once every core can see it.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import itemgetter
from typing import Dict, List, NamedTuple, Optional, Tuple

from .events import Event

FIELD_BITS = 24  # the width of each field of a state int
BURST_BITS = 16  # the width of a burst id, an entry of a graph's burst column

_MISS = object()  # a memo's or table's default: nothing worked out yet


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


class Interned:
    """Distinct values in first-seen order, each with an id that fits
    `bits` bits, a state field's by default.  A value beyond the last id
    is refused with an error that names what holds the id (`holder`),
    so no two values ever share an id."""

    def __init__(self, what: str, holder: str = "a state field"):
        self.what, self.holder = what, holder
        self.values: list = []
        self.ids: dict = {}
        self.bits = FIELD_BITS

    def id(self, x) -> int:
        i = self.ids.get(x)
        if i is None:
            i = len(self.values)
            if i >> self.bits:
                raise OverflowError(
                    f"more than {i} distinct {self.what}: {self.holder} "
                    f"holds {self.bits} bits")
            self.ids[x] = i
            self.values.append(x)
        return i


class Write:
    """A write prepared by `writer`: the shift of the field it changes,
    its arguments as the discipline's `_write` takes them, its `ref` and
    `emits`, and per value of that field the change it makes to the
    state, or None when the storage refuses it."""
    __slots__ = ("shift", "args", "ref", "emits", "memo")

    def __init__(self, shift: int, args: tuple, ref=None, emits: tuple = ()):
        self.shift, self.args, self.memo = shift, args, {}
        self.ref, self.emits = ref, emits


class Storage:
    """Defaults of the interface: no write is ever in flight.  `fields`
    lists (shift, {value: its steps}) for the fields with own steps, in
    the order `moves` visits them."""

    def __init__(self, cores: tuple, initials: dict, buffer: int, bursts,
                 shift: int = 0):
        self.cores, self.initials, self.buffer = cores, initials, buffer
        self.bursts = bursts
        self.shift = shift
        self.bits = FIELD_BITS
        self.mask = (1 << FIELD_BITS) - 1
        self.fields: List[Tuple[int, dict]] = []

    def initial(self):
        return 0  # every field 0: the first value each table interns

    def latest(self, s, core, var):
        return self.read(s, core, var)

    def views(self, s, core, reads):
        return (s,)

    def write(self, s, w: Write):
        f = s >> w.shift & self.mask
        d = w.memo.get(f, _MISS)
        if d is _MISS:
            f2 = self._write(f, *w.args)
            d = w.memo[f] = None if f2 is None else (f2 - f) << w.shift
        return None if d is None else s + d

    def attach(self, s, core, ref, opid, obs):
        return None

    def fence(self, s, core):
        return s

    def invoke(self, s, core, spec):
        return s

    def moves(self, s):
        out = []
        mask = self.mask
        for shift, memo in self.fields:
            f = s >> shift & mask
            try:
                steps = memo[f]
            except KeyError:  # the first state with this value
                steps = memo[f] = [(b, (f2 - f) << shift)
                                   for b, f2 in self._moves(f)]
            for b, d in steps:
                out.append((b, s + d))
        return out


class _Interning(Storage):
    """A discipline whose storage is one tuple, interned as the single
    field at `shift`."""

    def __init__(self, cores, initials, buffer, bursts, shift=0):
        super().__init__(cores, initials, buffer, bursts, shift)
        self.table = Interned("storages")
        self.table.id(self._initial())

    def _get(self, s):
        return self.table.values[s >> self.shift & self.mask]

    def _put(self, s, value):
        """`s` with its storage tuple replaced by `value`."""
        f = s >> self.shift & self.mask
        return s + ((self.table.id(value) - f) << self.shift)


class SC(_Interning):
    """Memory alone: sorted ((var, value), ...).  Virtual writes leave no
    trace in it, and a write emits its observation as it is taken."""

    def _initial(self):
        return tuple(sorted(self.initials.items()))

    def read(self, s, core, var):
        return _tget(self._get(s), var)

    def writer(self, core, var, val, kind, carrier, obs):
        return Write(self.shift, (var, val, kind), None,
                     (obs,) if obs is not None else ())

    def _write(self, f, var, val, kind):
        if kind == "virt":
            return f
        return self.table.id(_tset(self.table.values[f], var, val))


class Entry(NamedTuple):  # TSO buffer entry
    var: str
    val: int
    kind: str
    carrier: object
    obs: Optional[Event]


class TSO(_Interning):
    """(memory, buffers): memory as under SC, buffers sorted
    ((core, (Entry, ...)), ...) with the oldest entry first.  A write
    has no ref: `attach` finds the entry by its carrier."""

    def __init__(self, cores, initials, buffer, bursts, shift=0):
        super().__init__(cores, initials, buffer, bursts, shift)
        self.fields = [(shift, {})]

    def _initial(self):
        return (tuple(sorted(self.initials.items())),
                tuple((c, ()) for c in self.cores))

    def read(self, s, core, var):
        mem, bufs = self._get(s)
        for e in reversed(_tget(bufs, core)):
            if e.var == var:
                return e.val
        return _tget(mem, var)

    def writer(self, core, var, val, kind, carrier, obs):
        return Write(self.shift, (core, Entry(var, val, kind, carrier, obs)))

    def _write(self, f, core, entry):
        mem, bufs = self.table.values[f]
        if entry.kind == "tas":  # the core is drained: write through
            return self.table.id((_tset(mem, entry.var, entry.val), bufs))
        buf = _tget(bufs, core)
        if len(buf) >= self.buffer:
            return None
        return self.table.id((mem, _tset(bufs, core, buf + (entry,))))

    def attach(self, s, core, ref, opid, obs):
        mem, bufs = self._get(s)
        buf = _tget(bufs, core)
        for j in range(len(buf) - 1, -1, -1):
            e = buf[j]
            if e.kind == "obj" and e.carrier == opid:
                buf2 = buf[:j] + (e._replace(obs=obs),) + buf[j + 1:]
                return self._put(s, (mem, _tset(bufs, core, buf2)))
        return None

    def fence(self, s, core):
        return None if _tget(self._get(s)[1], core) else s

    def invoke(self, s, core, spec):
        return (s if all(e.kind != "prog" for e in _tget(self._get(s)[1], core))
                else None)

    def _moves(self, f):
        mem, bufs = self.table.values[f]
        out = []
        for core, buf in bufs:
            if buf:
                head = buf[0]
                mem2 = mem if head.kind == "virt" else _tset(mem, head.var, head.val)
                b = self.bursts.id((head.obs,)) if head.obs is not None else 0
                out.append((b, self.table.id((mem2, _tset(bufs, core, buf[1:])))))
        return out


class RELAXED(Storage):
    """One field per variable, holding the id of its entry; entry 0 is
    the empty entry of a variable not yet written.  A record reaches a
    core when the first step it matters to needs it there, in that
    step's own edge (the view-based reading of Kang, Hur, Lahav,
    Vafeiadis and Dreyer, *A Promising Semantics for Relaxed-Memory
    Concurrency*, POPL 2017, and of Lahav, Giannarakis and Vafeiadis,
    *Taming Release-Acquire Consistency*, POPL 2016):

      views(s, core, reads)  a load of each variable of `reads` on
                             `core` may read any record of it from the
                             core's position to the latest, the initial
                             value only while the core holds no record;
                             [s'] with the core moved to the record read,
                             one per choice, the first moving nothing
      _moves                 a pending observation may be emitted at any
                             time; its edge moves every core to at least
                             its record
      fence, invoke          a fence or TAS, and a specification
                             invocation, move every core to at least the
                             issuing core's last record (last program
                             record) of each variable, in place of
                             waiting for it

    An entry is the pair (recs, posv) of one variable, interned in
    `entries` (collapse compression: the 47k states of the largest
    corpus graph hold a few dozen distinct entries).  posv[k] is the
    position in recs of the latest record of var that the core of rank k
    (its index in the sorted cores) holds, -1 before any; positions
    stand in for coverage, since core k holds, having received or
    superseded it, exactly each record at a position up to posv[k].  A
    record is the tuple
      (val, core_rank, kind, carrier_code, obs_code)
    where carrier and observation are interned in `codes` (code 0 is
    None), and it keeps only what a later step reads: a program record
    no carrier, since `attach` looks only for an operation's, and a
    record that emitted its observation no observation code; an
    observation is decoded when its record emits it.  `entry` drops the
    front records that lie before every core's position and owe no
    observation, and shifts the positions down by as many (live-data
    reduction).  The ref of a write is its variable: an operation's last
    write is the last record of that variable that carries the
    operation's code, since only one invocation carries its code, and
    `attach` finds none once that record is dropped, which every core
    held, and emits at once.

    The variables of `initials` get their fields when the instance is
    made, any other (a chaos call's virtual variable) when a write to it
    is first prepared; `moves` visits them by name.  An entry's own
    steps do not depend on the variable or on the rest of the storage,
    so `moves` tables them once per variable and entry; likewise `entry`
    notes once which cores issued a record that not every core holds,
    `attach` works out once per entry, operation and observation where
    the observation goes, a load's choices are tabled per (entry, core),
    and what `fence` and `invoke` make of an entry per (entry, core,
    program records only).  Every table lives on the instance and goes
    with the build."""

    def __init__(self, cores, initials, buffer, bursts, shift=0):
        super().__init__(cores, initials, buffer, bursts, shift)
        self.rank = {c: k for k, c in enumerate(cores)}
        self.codes = Interned("carriers and observations")
        self.codes.id(None)
        self.entries = Interned("RELAXED entries")
        # keyed (entry id, operation code, observation): what `attach`
        # makes of the entry, an entry id or None
        self.attached: Dict[tuple, Optional[int]] = {}
        # per entry id: bit k set iff core k issued a record (a program
        # record) that not every core holds
        self.pending: List[int] = []
        self.pending_prog: List[int] = []
        self.picks: Dict[tuple, tuple] = {}
        self.published: Dict[tuple, int] = {}
        self.entry(((), (-1,) * len(cores)))
        self.shifts: Dict[str, int] = {}
        for var in sorted(initials):
            self._slot(var)

    def _slot(self, var) -> int:
        """The shift of `var`'s field, given it on first sight."""
        shift = self.shifts.get(var)
        if shift is None:
            shift = self.shifts[var] = self.shift + len(self.shifts) * self.bits
            self.fields.insert(sorted(self.shifts).index(var), (shift, {}))
        return shift

    def entry(self, e: tuple) -> int:
        """The id of entry `e` once its settled front records are
        dropped, interned on first sight."""
        recs, posv = e
        n, low = 0, min(posv, default=-1)
        while n < low and not recs[n][4]:
            n += 1
        if n:
            e = (recs[n:], tuple(p - n for p in posv))
        eid = self.entries.id(e)
        if eid == len(self.pending):
            recs, posv = e
            pending = pending_prog = 0
            for _, c, kind, _, _ in recs[min(posv, default=-1) + 1:]:
                pending |= 1 << c
                if kind == "prog":
                    pending_prog |= 1 << c
            self.pending.append(pending)
            self.pending_prog.append(pending_prog)
        return eid

    def _get(self, s, var):
        return self.entries.values[s >> self.shifts[var] & self.mask]

    def read(self, s, core, var):
        recs, posv = self._get(s, var)
        pos = posv[self.rank[core]]
        return recs[pos][0] if pos >= 0 else self.initials[var]

    def latest(self, s, core, var):
        recs, _ = self._get(s, var)
        return recs[-1][0] if recs else self.initials[var]

    def views(self, s, core, reads) -> list:
        k, mask = self.rank[core], self.mask
        out = [s]
        for var in reads:
            shift = self.shifts[var]
            eid = s >> shift & mask
            picks = self.picks.get((eid, k))
            if picks is None:
                recs, posv = self.entries.values[eid]
                picks = self.picks[eid, k] = tuple(
                    self.entry((recs, posv[:k] + (j,) + posv[k + 1:])) - eid
                    for j in range(posv[k], len(recs)))
            out = [u + (d << shift) for u in out for d in picks]
        return out

    def writer(self, core, var, val, kind, carrier, obs):
        codes = self.codes
        return Write(self._slot(var), (
            self.rank[core], val, kind,
            codes.id(None if kind == "prog" else carrier), codes.id(obs)),
            var)

    def _write(self, eid, k, val, kind, ca, ob):
        recs, posv = self.entries.values[eid]
        pos = len(recs)
        if kind == "tas":
            # every core jumps to the new record, recorded as an object
            # store: once every core holds a store's record, the two are
            # the same record
            return self.entry((recs + ((val, k, "obj", ca, ob),),
                               (pos,) * len(posv)))
        # the issuing core jumps to its record, superseding those it lacks
        return self.entry((recs + ((val, k, kind, ca, ob),),
                           posv[:k] + (pos,) + posv[k + 1:]))

    def attach(self, s, core, var, opid, obs):
        if var is None:
            return None
        shift = self.shifts[var]
        eid = s >> shift & self.mask
        code = self.codes.ids[opid]
        e2 = self.attached.get((eid, code, obs), _MISS)
        if e2 is _MISS:
            e2 = self.attached[eid, code, obs] = self._attach(eid, code, obs)
        return None if e2 is None else s + ((e2 - eid) << shift)

    def _attach(self, eid, code, obs) -> Optional[int]:
        """The id of entry `eid` with `obs` on the last record carrying
        `code`, or None when every core holds that record or none is
        left."""
        recs, posv = self.entries.values[eid]
        pos = len(recs) - 1
        while pos >= 0 and recs[pos][3] != code:  # its last record of var
            pos -= 1
        if pos <= min(posv):  # every core holds it, or it was dropped
            return None
        return self.entry((recs[:pos] + (recs[pos][:4] + (self.codes.id(obs),),)
                           + recs[pos + 1:], posv))

    def _emit(self, recs, posv, pos) -> tuple:
        """(burst id, entry id') of the emission of record `pos`'s
        observation, which moves every core to at least that record."""
        v, c, kd, ca, ob = recs[pos]
        recs = recs[:pos] + ((v, c, kd, ca, 0),) + recs[pos + 1:]
        return (self.bursts.id((self.codes.values[ob],)),
                self.entry((recs, tuple(max(p, pos) for p in posv))))

    def _moves(self, eid: int) -> list:
        recs, posv = self.entries.values[eid]
        return [self._emit(recs, posv, pos) for pos in range(len(recs))
                if recs[pos][4]]

    def _publish(self, s, core, table, prog: bool):
        k, mask = self.rank[core], self.mask
        for shift, _ in self.fields:
            eid = s >> shift & mask
            if table[eid] >> k & 1:
                e2 = self.published.get((eid, k, prog))
                if e2 is None:
                    recs, posv = self.entries.values[eid]
                    last = max(pos for pos, r in enumerate(recs) if r[1] == k
                               and (not prog or r[2] == "prog"))
                    e2 = self.published[eid, k, prog] = self.entry(
                        (recs, tuple(max(p, last) for p in posv)))
                s += (e2 - eid) << shift
        return s

    def fence(self, s, core):
        return self._publish(s, core, self.pending, False)

    def invoke(self, s, core, spec):
        return self._publish(s, core, self.pending_prog, True) if spec else s


class Eager(RELAXED):
    """RELAXED with propagation by silent steps of its own, the storage
    of a build that does not reduce: a load reads the record at its
    core's position, a record reaches each other core by a step of its
    own, and a fence or TAS (a specification invocation) waits until
    every core holds the issuing core's records (program records).  Its
    records are RELAXED's, and so are its traces: a dropped front record
    lies before every core's position and owes no observation, so no
    load reads it and no step emits from it, and `attach` emits at once
    where every core holds an operation's last record, dropped or not."""

    views = Storage.views

    def _moves(self, eid: int) -> list:
        """The entry's own steps: each record that every core holds
        emits its pending observation, and each other record propagates
        to every core next in line for it; records by position, cores by
        rank."""
        recs, posv = self.entries.values[eid]
        low = min(posv, default=-1)
        out = [self._emit(recs, posv, pos) for pos in range(low + 1)
               if recs[pos][4]]
        for pos in range(low + 1, len(recs)):
            out += [(0, self.entry((recs, posv[:k] + (pos,) + posv[k + 1:])))
                    for k, p in enumerate(posv) if p == pos - 1]
        return out

    def _pending(self, s, core, table) -> bool:
        bit, mask = 1 << self.rank[core], self.mask
        return any(table[s >> shift & mask] & bit for shift, _ in self.fields)

    def fence(self, s, core):
        return None if self._pending(s, core, self.pending) else s

    def invoke(self, s, core, spec):
        return None if spec and self._pending(s, core, self.pending_prog) else s
