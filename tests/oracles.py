"""Reference implementations kept only to cross-check the library.

Each one computes a notion of the library, in a second, more direct
way, and some test compares the two or builds on it:

  empirical_pairs_oracle  the set-based meet over paths that
                          `TraceSet.empirical_pairs` computed before
                          event sets became bitmasks.
  observables_oracle      the backward suffix-set pass that
                          `TraceSet.observables` computed before it became
                          a forward pass over interned prefixes.
  from_traces             the empirical enforced order of an explicit
                          trace set, straight from its definition.
  closure, allows         the transitive closure of given pairs as an
                          enforced order, and whether a trace respects
                          an order: the meaning of an enforced order,
                          straight from its definition.
  materialize, sample     the explicit trace set of an exploration graph,
                          and random walks through it.
  accepts                 whether a trace is a trace of an exploration
                          graph, without materializing its trace set.
  preorder                an exploration graph renumbered as the build
                          numbered it before it went to post-order: ids
                          in the order states are first seen, so every
                          graph and burst digest pinned before then
                          still holds.
  least_refuting_trace    the least trace of an exploration graph, by
                          (length, event JSON), whose observable is in a
                          given set: the canonical counterexample of
                          `check_wmtr`, by a per-length search.
  oracle_sc               brute-force SC traces of assignment-only
                          clients, with no use of the exploration engine.
  spec_histories          the object histories a specification admits,
                          against which the engine's spec mode is checked;
                          `check_atomic` is the cross-core discipline
                          those histories obey.
  BookSpec                the specification engine under the paper's
                          free observation placement: a response enters
                          a book of unobserved responses, each observed
                          by an edge of its own at any later time, and
                          an invocation waits while the book holds a
                          response of another core; `book_specs` builds
                          every specification on it.
  StepwiseImpl            the implementation engine under the frame rule
                          before merging: a frame settles its JUMPs only,
                          so each register-only instruction is a silent
                          step of its own; `stepwise_frames` builds every
                          implementation on it.
"""

import random
from contextlib import contextmanager
from itertools import chain
from types import SimpleNamespace
from unittest import mock
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from wmtr.events import (
    Event, History, Inv, OpId, OpObs, ProgObs, ProgStep, Res, StepId, Trace,
    event_to_json, observable_of,
)
from wmtr import memmodel
from wmtr.memmodel import (
    _LOCAL, ExploreConfig, _returned, _Step, covert_ops, run_spec_body,
    writes_shared,
)
from wmtr.porder import EnforcedOrder, Pair
from wmtr.program import Assign, ClientProgram, ObjectDef, eval_expr, label_of
from wmtr.storage import _MISS, Interned


def empirical_pairs_oracle(ts) -> frozenset:
    """(a, b) iff b occurs and a precedes b in every trace of `ts` where
    b occurs."""
    before: Dict[Event, frozenset] = {}
    reach = {ts.root: frozenset()}
    for s in ts.topo():
        base = reach[s]
        for burst, s2 in ts.graph[s]:
            here = set(base)
            for e in burst:
                prior = frozenset(here)
                before[e] = prior if e not in before else (before[e] & prior)
                here.add(e)
            f = frozenset(here)
            reach[s2] = f if s2 not in reach else (reach[s2] & f)
    pairs = set()
    for b, pre in before.items():
        for a in pre:
            if a != b:
                pairs.add((a, b))
    return frozenset(pairs)


def observables_oracle(ts) -> frozenset:
    """Every observable behaviour of `ts`: per state, from the last in
    topological order back to the root, the set of the observation
    sequences of the traces that start there, cuts inside bursts
    included."""
    suffix: Dict[int, frozenset] = {}
    for s in reversed(ts.topo()):
        acc = {()}
        for burst, s2 in ts.graph[s]:
            po = observable_of(burst)
            acc.update(po[:j] for j in range(1, len(po)))
            acc.update(po + t for t in suffix[s2])
        suffix[s] = frozenset(acc)
    return suffix[ts.root]


def from_traces(universe: Iterable[Event], traces: Iterable[Sequence[Event]]) -> EnforcedOrder:
    """Empirical enforced order of a trace set: (a, b) included iff b
    occurs somewhere and a precedes b in every trace containing b."""
    u = frozenset(universe)
    always_before: Dict[Event, set] = {}
    for t in traces:
        pos = {e: i for i, e in enumerate(t)}
        for b, j in pos.items():
            before = {a for a, i in pos.items() if i < j}
            if b in always_before:
                always_before[b] &= before
            else:
                always_before[b] = before
    pairs = frozenset(
        (a, b)
        for b, preds in always_before.items()
        if b in u
        for a in preds
        if a in u
    )
    return EnforcedOrder(u, pairs)


def closure(universe: Iterable[Event], pairs: Iterable[Pair]) -> EnforcedOrder:
    """Transitively close the given pairs over the universe."""
    u = frozenset(universe)
    succ: Dict[Event, set] = {}
    for a, b in pairs:
        succ.setdefault(a, set()).add(b)
    changed = True
    while changed:
        changed = False
        for a in list(succ):
            new = set()
            for b in succ[a]:
                new |= succ.get(b, set())
            if not new <= succ[a]:
                succ[a] |= new
                changed = True
    closed = frozenset((a, b) for a, bs in succ.items() for b in bs)
    return EnforcedOrder(u, closed)


def allows(po: EnforcedOrder, t: Sequence[Event]) -> bool:
    """True iff every pair (a, b) of po whose b occurs in t has a
    occurring earlier in t.  Pairs whose right element is absent do not
    bind: the trace may simply have stopped before b."""
    pos = {e: i for i, e in enumerate(t)}
    for a, b in po.pairs:
        j = pos.get(b)
        if j is None:
            continue
        i = pos.get(a)
        if i is None or i >= j:
            return False
    return True


# --- explicit trace sets of exploration graphs ---

def materialize(ts, max_traces: int = 200_000) -> frozenset:
    """The explicit trace set of `ts`; refuses to build oversized ones.
    A state's set of suffixes is dropped once the last edge into it has
    been followed, so only the sets some unfinished state needs are kept.
    What is held is bounded, not each set alone: the traces of every
    live set plus the union being built are counted as the union grows,
    and the build is refused as soon as they exceed `max_traces`."""
    waiting = [0] * ts.states  # per state: the edges into it not yet followed
    for s2 in ts.succ:
        waiting[s2] += 1
    suffix: Dict[int, frozenset] = {}
    held = 0  # traces in the live sets of `suffix`
    for s in reversed(ts.topo()):
        acc = {()}
        for burst, s2 in ts.graph[s]:
            heads = (burst[:j] for j in range(1, len(burst)))
            for t in chain(heads, (burst + t for t in suffix[s2])):
                acc.add(t)
                if held + len(acc) > max_traces:
                    raise ValueError("trace set too large to materialize")
            waiting[s2] -= 1
            if not waiting[s2]:
                held -= len(suffix.pop(s2))
        suffix[s] = frozenset(acc)
        held += len(acc)
    return suffix[ts.root]


def accepts(ts, trace) -> bool:
    """Whether `trace` is a trace of `ts`: reachability in the product of
    the graph with positions in the trace, where a burst longer than the
    rest of the trace accepts on a prefix."""
    trace = tuple(trace)
    end = len(trace)
    seen = {(ts.root, 0)}
    stack = [(ts.root, 0)]
    while stack:
        s, k = stack.pop()
        if k == end:
            return True
        for burst, s2 in ts.graph[s]:
            n = len(burst)
            if trace[k:k + n] == burst:
                if (s2, k + n) not in seen:
                    seen.add((s2, k + n))
                    stack.append((s2, k + n))
            elif end - k < n and burst[:end - k] == trace[k:]:
                return True
    return False


def least_refuting_trace(ts, bad, n: int) -> Optional[Trace]:
    """The least trace of `ts` by (length, event JSON) whose observable
    lies in `bad`, among those of at most `n` events; None if there is
    none.  Level by level over the lengths 0..n, it keeps per (state,
    observable so far) only the least trace of exactly that length:
    extending two traces of one length by the same events keeps their
    order, so no other trace through that pair can come first.  A cut
    inside a burst is a candidate of its own length; a pair whose
    observable begins no member of `bad` is dropped.  A silent edge keeps
    the length, so each level is closed under silent edges first."""
    bad = frozenset(bad)
    heads = {o[:j] for o in bad for j in range(len(o) + 1)}
    # per length: (state, observable) -> (event JSON, trace), the least
    levels: List[Dict[tuple, tuple]] = [{} for _ in range(n + 1)]
    cuts: List[list] = [[] for _ in range(n + 1)]

    def offer(length, at, key, trace) -> bool:
        old = levels[length].get(at)
        if old is None or key < old[0]:
            levels[length][at] = (key, trace)
            return True
        return False

    offer(0, (ts.root, ()), (), ())
    for length, level in enumerate(levels):
        todo = list(level)
        while todo:
            s, obs = at = todo.pop()
            least = level[at]
            for burst, s2 in ts.graph[s]:
                if not burst and offer(length, (s2, obs), *least):
                    todo.append((s2, obs))
                (key, trace), o = least, obs
                for j, e in enumerate(burst[:n - length], 1):
                    key, trace = key + (event_to_json(e),), trace + (e,)
                    o += observable_of((e,))
                    if o not in heads:
                        break
                    if j == len(burst):
                        offer(length + j, (s2, o), key, trace)
                    elif o in bad:
                        cuts[length + j].append((key, trace))
        found = cuts[length] + [v for (_, o), v in level.items() if o in bad]
        if found:
            return min(found)[1]
        levels[length] = {}
    return None


def sample(ts, n: int, seed: int = 0) -> List[Trace]:
    """`n` traces of `ts` from random walks, some cut inside a burst."""
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        s, events = ts.root, []
        while True:
            acts = ts.graph[s]
            if not acts or rng.random() < 0.15:
                break
            burst, s2 = acts[rng.randrange(len(acts))]
            events.extend(burst)
            s = s2
        if events and rng.random() < 0.3:
            events = events[:rng.randrange(len(events)) + 1]
        out.append(tuple(events))
    return out


def preorder(ts) -> SimpleNamespace:
    """`ts`'s graph and burst table as the build numbered them before it
    numbered states in post-order: ids in the order states are first
    seen, the root's being 0 and the state pushed last expanded first,
    and bursts in the order edges first carry them, the empty burst's
    being 0.
    Takes anything with a `root` and an `id -> ((burst, successor id),
    ...)` mapping as its `graph`; returns the same, with `bursts`."""
    g = ts.graph
    ids, order, stack = {ts.root: 0}, [ts.root], [ts.root]
    bursts = {(): 0}
    while stack:
        for burst, s2 in g[stack.pop()]:
            bursts.setdefault(burst, len(bursts))
            if s2 not in ids:
                ids[s2] = len(order)
                order.append(s2)
                stack.append(s2)
    graph = {i: tuple((burst, ids[s2]) for burst, s2 in g[s])
             for i, s in enumerate(order)}
    return SimpleNamespace(root=0, graph=graph, bursts=list(bursts))


# --- independent SC oracle ---

def oracle_sc(p: ClientProgram, cfg: ExploreConfig) -> frozenset:
    """Brute-force SC trace enumeration for straight-line, call-free
    clients.  Written against the observation rules directly, with no
    use of the exploration engine."""
    seqs = {}
    for th, stmts in p.threads.items():
        for s in stmts:
            if not isinstance(s, Assign):
                raise ValueError("the oracle only handles assignment-only clients")
        seqs[th] = stmts
    threads = sorted(seqs)
    traces = set()

    def rec(pos, mem, regs, trace):
        traces.add(tuple(trace))
        for th in threads:
            i = pos[th]
            if i >= len(seqs[th]):
                continue
            s = seqs[th][i]
            labels = [label_of(x) for x in seqs[th][:i] if isinstance(x, Assign)]
            inst = labels.count(label_of(s))
            sid = StepId(th, label_of(s), inst)

            def look(name, th=th):
                if name in regs[th]:
                    return regs[th][name]
                return mem[name]

            v = eval_expr(s.expr, look, cfg.values)
            pos2 = dict(pos)
            pos2[th] = i + 1
            if s.target in p.globals:
                step = ProgStep(sid, (s.target, v))
                traces.add(tuple(trace) + (step,))  # cut before the observation
                mem2 = dict(mem)
                mem2[s.target] = v
                rec(pos2, mem2, regs,
                    trace + [step, ProgObs(sid, s.target, v)])
            else:
                regs2 = {t: dict(r) for t, r in regs.items()}
                regs2[th][s.target] = v
                rec(pos2, mem, regs2, trace + [ProgStep(sid)])

    rec({th: 0 for th in threads}, dict(p.globals),
        {th: {} for th in threads}, [])
    return frozenset(traces)


# --- specification histories ---

def check_atomic(h: History, coremap: Dict[str, str]) -> bool:
    """True iff no invocation happens while an operation begun on a
    different core is still unobserved."""
    unobserved: Dict[OpId, str] = {}
    for e in h:
        if isinstance(e, Inv):
            core = coremap[e.op.thread]
            if any(c != core for c in unobserved.values()):
                return False
            unobserved[e.op] = core
        elif isinstance(e, OpObs):
            unobserved.pop(e.op, None)
    return True


def _call_structure(events) -> Dict[str, list]:
    calls: Dict[str, list] = {}
    for e in events:
        if isinstance(e, Inv):
            calls.setdefault(e.op.thread, []).append((e.op, e.arg))
    for th, seq in calls.items():
        seq.sort(key=lambda t: t[0].instance)
        if [k.instance for k, _ in seq] != list(range(len(seq))):
            raise ValueError(f"invocation instances of thread {th} are not contiguous")
    return calls


def spec_histories(spec: ObjectDef, events, coremap: Dict[str, str],
                   values: int = 3,
                   covert: Optional[frozenset] = None) -> FrozenSet[History]:
    """Prefix-closed set of object histories the specification admits for
    the given invocation structure: an observation may trail its
    response arbitrarily, invocations obey `check_atomic`, and operations
    with no effect on shared state are observed immediately."""
    if spec.kind != "spec":
        raise ValueError("spec_histories needs a specification object")
    calls = _call_structure(events)
    threads = sorted(calls)
    if covert is None:
        covert = frozenset(n for n, op in spec.ops.items()
                           if not writes_shared(op))
    init = (tuple(0 for _ in threads), tuple(None for _ in threads),
            tuple(sorted(spec.shared.items())), ())
    memo: dict = {}

    def edges(st) -> list:
        """The steps from `st`, each (its events, the next state), worked
        out once per state."""
        if st in memo:
            return memo[st]
        nxt, pend, val, book = st
        out = []
        cores_busy = [coremap[threads[j]] for j, p in enumerate(pend)
                      if p is not None]
        cores_busy += [c for (_, _, c) in book]
        for i, th in enumerate(threads):
            core = coremap[th]
            if pend[i] is None and nxt[i] < len(calls[th]):
                if all(c == core for c in cores_busy):
                    opid, arg = calls[th][nxt[i]]
                    out.append(((Inv(opid, arg),),
                                (_rep(nxt, i, nxt[i] + 1),
                                 _rep(pend, i, (opid, arg)), val, book)))
            if pend[i] is not None:
                opid, arg = pend[i]
                r = run_spec_body(spec.ops[opid.call], dict(val), arg, values)
                if r is not None:
                    st_new, outv = r
                    val2 = tuple(sorted(st_new.items()))
                    if opid.call in covert:
                        out.append(((Res(opid, outv), OpObs(opid, outv)),
                                    (nxt, _rep(pend, i, None), val2, book)))
                    else:
                        out.append(((Res(opid, outv),),
                                    (nxt, _rep(pend, i, None), val2,
                                     book + ((opid, outv, core),))))
        for j, (opid, outv, core) in enumerate(book):
            out.append(((OpObs(opid, outv),),
                        (nxt, pend, val, book[:j] + book[j + 1:])))
        memo[st] = out
        return out

    # every prefix of the events of every path from the initial state;
    # the steps from a state start with distinct events, so each history
    # ends one path, or one path but for an observation covert with its
    # response, and is built once
    result = [()]
    stack = [(init, ())]
    while stack:
        st, h = stack.pop()
        for evs, st2 in edges(st):
            h2 = h + evs
            if len(evs) > 1:
                result.append(h2[:-1])
            result.append(h2)
            stack.append((st2, h2))
    return frozenset(result)


def _rep(t: tuple, i: int, v):
    return t[:i] + (v,) + t[i + 1:]


# --- the frame rule before merging ---

class StepwiseImpl(memmodel._Impl):
    """`_Impl` with no merged instructions: a frame stands at every
    settled pc, and each of its steps is an edge."""

    def run_merged(self, op, f):
        return f


@contextmanager
def stepwise_frames():
    """Within the block, every build of an implementation object, those
    of `explore` and `check_wmtr` included, runs on `StepwiseImpl`."""
    with mock.patch.dict(memmodel.ENGINES, impl=StepwiseImpl):
        yield


# --- free observation placement ---

class BookSpec(memmodel._Engine):
    """The specification engine with the paper's free observation
    placement: each call runs atomically (`run_spec_body`) against a
    logical valuation, and its response enters a book of unobserved
    responses, any of which may be observed at any time; an invocation
    may not overlap an unobserved operation of another core.
    A thread in a call holds (opid, arg, reg).  The valuation and the
    book, of (opid, out, core) entries, are interned, their ids held in
    the two fields above the threads'.  A call's edge depends on the book
    as well as the valuation, so the engine tables its calls itself
    (`spec_calls`, keyed on the valuation, and the book changes each
    call's _Step holds) and hands the steps of a thread outside a call to
    the base's step table; a thread in a call never reaches the base's
    `_interpret`, so the engine needs no `_in_call`."""
    fields = 2

    def __init__(self, *args):
        super().__init__(*args)
        self.vshift, self.bshift = self.top, self.top + self.bits
        self.covert = covert_ops(self.p, self.obj)
        self.valuations = Interned("specification valuations")
        self.books = Interned("books of unobserved responses")
        # keyed (thread, own-state id, valuation id): a _Step whose `arg`
        # is (book entry or None, {book id: change to the state for the
        # book}), or None when blocked
        self.spec_calls: Dict[tuple, Optional[_Step]] = {}
        # per book id: its observations' edges, [(burst id, change)]
        self.book_moves: Dict[int, list] = {}

    def root(self) -> int:
        objst = tuple(sorted(self.in_domain(self.obj.shared).items()))
        return (super().root() | self.valuations.id(objst) << self.vshift
                | self.books.id(()) << self.bshift)

    def invoke(self, st: int, thread: str) -> Optional[int]:
        core = self.coremap[thread]
        mask = self.mask
        book = self.books.values[st >> self.bshift & mask]
        if (all(values[st >> shift & mask].call is None
                or self.coremap[th2] == core
                for th2, values, shift in self.slots)
                and all(c == core for (_, _, c) in book)):
            return self.mem.invoke(st, core, True)
        return None

    def call_slot(self, opid, arg, reg):
        return opid, arg, reg

    def actions(self, st: int) -> List[Tuple[int, int]]:
        out = super().actions(st)
        b = st >> self.bshift & self.mask
        if b:
            out.extend([(bid, st + d) for bid, d in self._book_moves(b)])
        return out

    def _book_moves(self, b: int) -> list:
        """[(burst id, change)]: each response in book `b` is observed, in
        book order; worked out once per book."""
        steps = self.book_moves.get(b)
        if steps is None:
            book = self.books.values[b]
            steps = self.book_moves[b] = [
                (self.bursts.id((OpObs(opid, outv),)),
                 (self.books.id(book[:j] + book[j + 1:]) - b) << self.bshift)
                for j, (opid, outv, _) in enumerate(book)]
        return steps

    def step_actions(self, out, st, th, x, ts):
        """Add to `out` the edges of `th`'s next step: a step outside a
        call is the base's; a call's edge is added unless its body blocks.
        The body runs once per own state and valuation; each state then
        only adds the response to its book."""
        if ts.call is None:
            return super().step_actions(out, st, th, x, ts)
        key = (th, x, st >> self.vshift & self.mask)
        step = self.spec_calls.get(key, _MISS)
        if step is _MISS:
            step = self.spec_calls[key] = self._spec_call(th, ts, key[2])
        if step is None:
            return
        d = step.delta
        pending, books = step.arg
        if pending is not None:
            b = st >> self.bshift & self.mask
            db = books.get(b)
            if db is None:
                db = books[b] = (self.books.id(self.books.values[b] + (pending,))
                                 - b) << self.bshift
            d += db
        out.append((step.bid, st + d))

    def _spec_call(self, th, ts, objst):
        """Run `th`'s call against valuation `objst`: a _Step with its
        burst id and, as `arg`, the response for the book or None when the
        operation is observed at once, and {} for the book changes; or
        None."""
        opid, arg, ret_reg = ts.call
        r = run_spec_body(self.obj.ops[opid.call],
                          dict(self.valuations.values[objst]), arg,
                          self.cfg.values)
        if r is None:
            return None
        valuation, outv = r
        d = (self._delta(th, ts, _returned(ts, ret_reg, outv))
             + ((self.valuations.id(tuple(sorted(valuation.items()))) - objst)
                << self.vshift))
        if opid.call in self.covert:
            step = _Step(_LOCAL, (Res(opid, outv), OpObs(opid, outv)), d,
                         (None, None))
        else:
            step = _Step(_LOCAL, (Res(opid, outv),), d,
                         ((opid, outv, self.coremap[th]), {}))
        step.bid = self.bursts.id(step.burst)
        return step


@contextmanager
def book_specs():
    """Within the block, every build of a specification object, those of
    `explore` and `check_wmtr` included, runs on `BookSpec`."""
    with mock.patch.dict(memmodel.ENGINES, spec=BookSpec):
        yield
