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
           the coherence-latest value and is instantly global.

The interface, for a state int s:

  initial()                        the storage before any write
  read(s, core, var)               the value a load on `core` returns
  latest(s, core, var)             the value a TAS on a drained `core` acts on
  writer(core, var, val, kind, carrier, obs)
                                   a write, prepared once for `write`
  write(s, w)                      s' once the storage takes `w`, or None
  attach(s, core, ref, opid, obs)  s' with the response's observation on the
                                   operation's last write, or None: emit now
  drained(s, core)                 every write of `core` is visible everywhere
  inv_ready(s, core, spec)         `core` may invoke a (spec) operation
  moves(s)                         [(burst id, s')]: the storage's own steps

A prepared write fixes what does not depend on the state: its `ref`,
where the storage puts it, which an operation's call slot records for
`attach`, and its `emits`, the events emitted as it is taken.  A
prepared write and each field value keep what they decide: a write's
change to the state is worked out once per value of the field it
changes, and a field's own steps once per value, as [(burst id, delta)].

Invocations under TSO wait until the invoking core holds no buffered
program write; under RELAXED, specification invocations wait until the
core's program writes have fully propagated.  Both reflect the enforced
order's treatment of operation boundaries as code the program cannot
see into but the laws still constrain.

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
    """Distinct values in first-seen order, each with an id that fits a
    state field.  A value beyond the field's last id is refused with an
    error, so no two values ever share an id."""

    def __init__(self, what: str):
        self.what = what
        self.values: list = []
        self.ids: dict = {}
        self.bits = FIELD_BITS

    def id(self, x) -> int:
        i = self.ids.get(x)
        if i is None:
            i = len(self.values)
            if i >> self.bits:
                raise OverflowError(
                    f"more than {i} distinct {self.what}: a state field "
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

    def write(self, s, w: Write):
        f = s >> w.shift & self.mask
        d = w.memo.get(f, _MISS)
        if d is _MISS:
            f2 = self._write(f, *w.args)
            d = w.memo[f] = None if f2 is None else (f2 - f) << w.shift
        return None if d is None else s + d

    def attach(self, s, core, ref, opid, obs):
        return None

    def drained(self, s, core):
        return True

    def inv_ready(self, s, core, spec):
        return True

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
    ((core, (Entry, ...)), ...) with the oldest entry first.  The ref of
    a buffered write is ("buf",) and that of a TAS None; `attach` finds
    the entry itself."""

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
        return Write(self.shift, (core, Entry(var, val, kind, carrier, obs)),
                     None if kind == "tas" else ("buf",))

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

    def drained(self, s, core):
        return not _tget(self._get(s)[1], core)

    def inv_ready(self, s, core, spec):
        return all(e.kind != "prog" for e in _tget(self._get(s)[1], core))

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
    the empty entry of a variable not yet written.

    An entry is the pair (recs, posv) of one variable, interned in
    `entries` (collapse compression: the 47k states of the largest
    corpus graph hold a few dozen distinct entries).  posv[k] is the
    position in recs of the latest record of var that the core of rank k
    (its index in the sorted cores) received, -1 before any.  A record
    is the tuple
      (val, core_rank, kind, carrier_code, covered_mask, obs_code, emitted)
    where bit k of covered_mask says core k received or superseded it,
    and carrier and observation are interned in `decode` (code 0 is
    None); an observation is decoded when its record emits it.  The ref
    of a write is its variable: an operation's last write is the last
    record of that variable that carries the operation's code, since
    records are never removed and only one invocation carries its code.

    The variables of `initials` get their fields when the instance is
    made, any other (a chaos call's virtual variable) when a write to it
    is first prepared; `moves` visits them by name.  An entry's own
    steps do not depend on the variable or on the rest of the storage,
    so `moves` tables them once per variable and entry; likewise `entry`
    notes once which cores still have a record in flight, for `drained`
    and `inv_ready`.  `_steps` names, for each propagation of an entry,
    its target core and its record's writer and carrier, and
    `propagations` tables them once per entry for the silent-step
    reduction of `memmodel`, which picks a propagation to a core that
    will not touch the variable again.  Every table lives on the
    instance and goes with the build."""

    def __init__(self, cores, initials, buffer, bursts, shift=0):
        super().__init__(cores, initials, buffer, bursts, shift)
        self.rank = {c: k for k, c in enumerate(cores)}
        self.full = (1 << len(cores)) - 1
        self.codes: Dict[object, int] = {None: 0}
        self.decode: List[object] = [None]
        self.entries = Interned("RELAXED entries")
        self.props: Dict[int, tuple] = {}  # per entry id: `propagations`
        # per entry id: bit k set iff core k issued a record (a program
        # record) that not every core has yet
        self.pending: List[int] = []
        self.pending_prog: List[int] = []
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

    def intern(self, x) -> int:
        code = self.codes.get(x)
        if code is None:
            code = self.codes[x] = len(self.decode)
            self.decode.append(x)
        return code

    def entry(self, e: tuple) -> int:
        """The id of entry `e`, interned on first sight."""
        eid = self.entries.id(e)
        if eid == len(self.pending):
            pending = pending_prog = 0
            for _, c, kind, _, cov, _, _ in e[0]:
                if cov != self.full:
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

    def writer(self, core, var, val, kind, carrier, obs):
        return Write(self._slot(var), (self.rank[core], val, kind,
                                       self.intern(carrier), self.intern(obs)),
                     var)

    def _write(self, eid, k, val, kind, ca, ob):
        recs, posv = self.entries.values[eid]
        pos = len(recs)
        if kind == "tas":
            # every core jumps to the new record, superseding those it lacks
            recs = tuple(
                (v, c, kd, ca2,
                 cov | sum(1 << j for j, p in enumerate(posv) if p < i), ob2, em)
                for i, (v, c, kd, ca2, cov, ob2, em) in enumerate(recs))
            # recorded as an object store: once every core has a store's
            # record, the two are the same record
            rec = (val, k, "obj", ca, self.full, ob, False)
            return self.entry((recs + (rec,), (pos,) * len(posv)))
        bit = 1 << k
        old = posv[k]
        # the issuing core supersedes the records it never received
        recs = recs[:old + 1] + tuple(
            (v, c, kd, ca2, cov | bit, ob2, em)
            for v, c, kd, ca2, cov, ob2, em in recs[old + 1:])
        rec = (val, k, kind, ca, bit, ob, False)
        posv = posv[:k] + (pos,) + posv[k + 1:]
        return self.entry((recs + (rec,), posv))

    def attach(self, s, core, var, opid, obs):
        if var is None:
            return None
        shift = self.shifts[var]
        eid = s >> shift & self.mask
        recs, posv = self.entries.values[eid]
        code = self.codes[opid]
        pos = len(recs) - 1
        while recs[pos][3] != code:  # the operation's last record of var
            pos -= 1
        rec = recs[pos]
        if rec[4] == self.full:
            return None
        rec2 = rec[:5] + (self.intern(obs),) + rec[6:]
        e = (recs[:pos] + (rec2,) + recs[pos + 1:], posv)
        return s + ((self.entry(e) - eid) << shift)

    def _pending(self, s, core, table) -> bool:
        bit, mask = 1 << self.rank[core], self.mask
        return any(table[s >> shift & mask] & bit for shift, _ in self.fields)

    def drained(self, s, core):
        return not self._pending(s, core, self.pending)

    def inv_ready(self, s, core, spec):
        return not spec or not self._pending(s, core, self.pending_prog)

    def _moves(self, eid: int) -> list:
        return [(b, e2) for b, e2, _ in self._steps(eid)]

    def propagations(self, eid: int) -> tuple:
        """The propagations of entry `eid`, in `_steps` order, each as
        (target core rank, writer core rank, carrier code, entry id');
        worked out once per entry."""
        props = self.props.get(eid)
        if props is None:
            props = self.props[eid] = tuple(
                prop + (e2,) for _, e2, prop in self._steps(eid) if prop)
        return props

    def _steps(self, eid: int):
        """The entry's own steps, as (burst id, entry id', propagation):
        each record that every core has emits its observation, and each
        other record propagates to every core next in line for it, a
        propagation being (target core rank, the record's writer core
        rank, its carrier code), None for an emission; records by
        position, cores by rank."""
        recs, posv = self.entries.values[eid]
        full = self.full
        for pos, (v, c, kd, ca, cov, ob, em) in enumerate(recs):
            if cov == full and (not ob or em):
                continue
            before, after = recs[:pos], recs[pos + 1:]
            if cov == full:  # every core has it: emit its observation
                recs2 = before + ((v, c, kd, ca, cov, ob, True),) + after
                yield (self.bursts.id((self.decode[ob],)),
                       self.entry((recs2, posv)), None)
                continue
            for k in range(len(posv)):  # propagate to each core next in line
                if cov >> k & 1 or posv[k] != pos - 1:
                    continue
                rec2 = (v, c, kd, ca, cov | 1 << k, ob, em)
                posv2 = posv[:k] + (pos,) + posv[k + 1:]
                yield (0, self.entry((before + (rec2,) + after, posv2)),
                       (k, c, ca))
