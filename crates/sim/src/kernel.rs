//! The simulation engine: the one copy of the tick.
//!
//! A [`Simulation`] owns the network (topology, loss table, options) and
//! one or more *workers*, each a contiguous id range of processes with
//! its own in-flight heap, timers, RNG stream and metrics. The tick's
//! phases, the outbox flush, timer handling and the fast-forward test
//! are written here once and serve every worker count: one worker runs
//! the loop inline on the caller's thread, and [`crate::ShardedKernel`]
//! runs `W > 1` workers on threads, exchanging their cross-range mail at
//! a tick barrier. The virtual-time fabric in `diffuse-net` has no tick
//! of its own: its node threads take their handler turns from this
//! engine's schedule, so it replays the engine by construction. The
//! oracle for the phase and draw order is `tests/engine_golden.rs`,
//! which pins fixed-seed runs to literal values.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};

use diffuse_model::{Configuration, LinkId, Probability, ProcessId, Topology};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::adversary::MessageAdversary;
use crate::crash::CrashState;
use crate::loss::LossBatcher;
use crate::shard::partition;
use crate::{shard_seed, CrashModel, Metrics, SimTime, TimerId};

/// A message that can travel through the simulated network.
///
/// The `kind` string labels metrics (e.g. `"data"`, `"ack"`,
/// `"heartbeat"`) so experiments can count message categories separately,
/// as the paper's figures require.
pub trait SimMessage: Clone {
    /// Metric label for this message.
    fn kind(&self) -> &'static str {
        "message"
    }
}

impl SimMessage for String {}
impl SimMessage for u64 {}

/// A protocol instance living at one process of the simulated system.
///
/// Handlers run only while the process is up. Crashes are omission
/// windows: a down process receives nothing and observes no ticks; on
/// recovery [`Actor::on_recover`] reports how long the outage lasted
/// (the input to the paper's Event 4).
pub trait Actor {
    /// The message type this actor exchanges.
    type Message: SimMessage;

    /// Called once at simulation start (time zero).
    fn on_start(&mut self, ctx: &mut Context<'_, Self::Message>) {
        let _ = ctx;
    }

    /// Called when a message is delivered to this process.
    fn on_message(
        &mut self,
        ctx: &mut Context<'_, Self::Message>,
        from: ProcessId,
        message: Self::Message,
    );

    /// Called once per tick while the process is up.
    ///
    /// Actors that report [`Actor::wants_ticks`]` == false` never receive
    /// this call; they are driven purely by messages and timers, which
    /// lets the kernel fast-forward over eventless stretches of time.
    fn on_tick(&mut self, ctx: &mut Context<'_, Self::Message>) {
        let _ = ctx;
    }

    /// Called when a timer scheduled through [`Context::set_timer`]
    /// reaches its deadline (while the process is up). Timers that come
    /// due during a crash fire on the recovery tick, after
    /// [`Actor::on_recover`].
    fn on_timer(&mut self, ctx: &mut Context<'_, Self::Message>, timer: TimerId) {
        let _ = (ctx, timer);
    }

    /// Called when the process recovers from a crash lasting `down_ticks`
    /// ticks, before any other handler on the recovery tick.
    fn on_recover(&mut self, ctx: &mut Context<'_, Self::Message>, down_ticks: u64) {
        let _ = (ctx, down_ticks);
    }

    /// Whether this actor needs [`Actor::on_tick`] every tick.
    ///
    /// Defaults to `true` (the legacy polling contract). Event-driven
    /// actors — everything built on `diffuse-core`'s timer-scheduled
    /// `Protocol` — return `false`; when *every* actor does, the kernel
    /// may jump over ticks on which no message, timer, or crash event is
    /// due.
    fn wants_ticks(&self) -> bool {
        true
    }
}

/// Handler context: the executing process's identity, the current time,
/// an outbox for sending messages to neighbors, and timer controls.
#[derive(Debug)]
pub struct Context<'a, M> {
    now: SimTime,
    id: ProcessId,
    outbox: &'a mut Vec<(ProcessId, M)>,
    timer_ops: &'a mut Vec<(TimerId, Option<SimTime>)>,
}
impl<M> Context<'_, M> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The identity of the executing process.
    pub fn id(&self) -> ProcessId {
        self.id
    }

    /// Sends `message` to neighbor `to`.
    ///
    /// The message is subject to link loss and the configured link delay.
    /// Sending to a non-neighbor is counted in
    /// [`Metrics::dropped_invalid`] and otherwise ignored.
    pub fn send(&mut self, to: ProcessId, message: M) {
        self.outbox.push((to, message));
    }

    /// Schedules (or re-schedules) this actor's named timer to fire at
    /// the absolute time `at`.
    ///
    /// A deadline at or before the current tick fires during the current
    /// tick's timer phase if that phase has not yet passed, otherwise on
    /// the next tick. Re-arming a timer from inside its own
    /// [`Actor::on_timer`] with a deadline `<= now` is a protocol bug
    /// (it would fire again within the same tick, livelocking the phase).
    pub fn set_timer(&mut self, timer: TimerId, at: SimTime) {
        self.timer_ops.push((timer, Some(at)));
    }

    /// Cancels this actor's named timer if it is pending.
    pub fn cancel_timer(&mut self, timer: TimerId) {
        self.timer_ops.push((timer, None));
    }
}

/// Options controlling a [`Simulation`].
#[derive(Debug, Clone, PartialEq)]
pub struct SimOptions {
    /// RNG seed; equal seeds yield bit-identical runs.
    pub seed: u64,
    /// Message latency in ticks (must be at least 1).
    pub link_delay: u64,
    /// How processes crash and recover.
    pub crash_model: CrashModel,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            seed: 0xD1FF,
            link_delay: 1,
            crash_model: CrashModel::AlwaysUp,
        }
    }
}

impl SimOptions {
    /// Replaces the RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the link delay (clamped to at least 1 tick).
    #[must_use]
    pub fn with_link_delay(mut self, ticks: u64) -> Self {
        self.link_delay = ticks.max(1);
        self
    }

    /// Replaces the crash model.
    #[must_use]
    pub fn with_crash_model(mut self, model: CrashModel) -> Self {
        self.crash_model = model;
        self
    }
}

/// Bits of [`Flight::order`] holding the source worker's send sequence;
/// the source worker's index sits above them.
const SEQ_BITS: u32 = 48;

/// The most workers [`Flight::order`] can tell apart.
const MAX_WORKERS: usize = 1 << (64 - SEQ_BITS);

/// A message in flight, ordered by `(at, order)`.
#[derive(Debug)]
pub(crate) struct Flight<M> {
    at: SimTime,
    /// The source worker's index above its send sequence, so `(at,
    /// order)` is the merge key `(arrival, source worker, send order)`:
    /// no thread interleaving can perturb it, and with one worker it is
    /// plain send order. Packed into one word to keep the heap's
    /// elements small.
    order: u64,
    from: ProcessId,
    to: ProcessId,
    message: M,
}

impl<M> PartialEq for Flight<M> {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.order) == (other.at, other.order)
    }
}

impl<M> Eq for Flight<M> {}

impl<M> PartialOrd for Flight<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<M> Ord for Flight<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.order).cmp(&(other.at, other.order))
    }
}

struct Node<A> {
    actor: A,
    crash: CrashState,
}

/// Per-destination cache for one outbox flush: link validity, loss
/// probability, owning worker, stagger offset, and per-kind sent counts
/// are resolved once per destination instead of once per message.
struct BurstSlot {
    to: ProcessId,
    /// `None`: invalid destination (non-neighbor, self-loop, unknown).
    link: Option<LinkId>,
    loss: f64,
    worker: usize,
    stagger: u64,
    sent: Vec<(&'static str, u64)>,
}

/// What one worker contributes to the clock decision; [`Status::merge`]
/// combines workers into the status of the whole system.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Status {
    /// The earliest pending delivery or timer deadline.
    next_wake: Option<SimTime>,
    /// Processes in a forced outage (fast-forward would skip their
    /// per-tick countdown).
    forced_outages: usize,
}

impl Status {
    pub(crate) fn merge(self, other: Status) -> Status {
        Status {
            next_wake: earliest(self.next_wake, other.next_wake),
            forced_outages: self.forced_outages + other.forced_outages,
        }
    }
}

fn earliest(a: Option<SimTime>, b: Option<SimTime>) -> Option<SimTime> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    }
}

/// What every worker reads and none writes while ticks run. Fault
/// scripts change the loss table only between `run_ticks` calls, so all
/// workers observe a change at the same tick.
pub(crate) struct Net {
    topology: Topology,
    loss: Configuration,
    options: SimOptions,
    /// First process id of each worker's range, ascending.
    boundaries: Vec<ProcessId>,
    /// `true` while every actor is event-driven (`wants_ticks == false`):
    /// the `on_tick` phase is skipped and eventless ticks may be
    /// fast-forwarded.
    event_driven: bool,
}

impl Net {
    /// The worker whose id range would hold `id`.
    fn worker_of(&self, id: ProcessId) -> usize {
        self.boundaries
            .partition_point(|&b| b <= id)
            .saturating_sub(1)
    }
}

/// One worker: a contiguous id range of processes plus everything a tick
/// touches — in-flight heap, timers, RNG stream, metrics.
pub(crate) struct Shard<A: Actor> {
    pub(crate) index: u32,
    nodes: BTreeMap<ProcessId, Node<A>>,
    ids: Vec<ProcessId>,
    rng: StdRng,
    /// Batched per-(sender, destination) loss sampling (see
    /// [`LossBatcher`] for the draw-order contract). Senders belong to
    /// this worker, so the cell tables of different workers are disjoint.
    loss_runs: LossBatcher,
    /// Scheduled message adversary on this worker's suppression stream
    /// (see [`MessageAdversary`] for the draw-order contract). Inactive
    /// by default, so adversary-free runs draw nothing from it.
    adversary: MessageAdversary,
    now: SimTime,
    /// Ticks actually executed (fast-forwarded ticks are not counted).
    busy_ticks: u64,
    /// [`Flight::order`] of this worker's next send.
    next_order: u64,
    in_flight: BinaryHeap<Reverse<Flight<A::Message>>>,
    /// Pending timer deadlines, one per `(process, timer)` pair …
    timers: BTreeMap<(ProcessId, TimerId), SimTime>,
    /// … mirrored as a deadline-ordered queue for due-scans and wakes.
    timer_queue: BTreeSet<(SimTime, ProcessId, TimerId)>,
    outbox: Vec<(ProcessId, A::Message)>,
    timer_ops: Vec<(TimerId, Option<SimTime>)>,
    /// Reused buffers for the timer phase and [`Shard::flush_outbox`].
    due_scratch: Vec<(ProcessId, TimerId)>,
    flush_scratch: Vec<(ProcessId, A::Message)>,
    burst_scratch: Vec<BurstSlot>,
    /// Sends into other workers' ranges, per destination worker, handed
    /// over at the next tick barrier. Unused with one worker.
    pub(crate) outbound: Vec<Vec<Flight<A::Message>>>,
    pub(crate) metrics: Metrics,
    forced_outages: usize,
}

impl<A: Actor> Shard<A> {
    fn new(
        index: u32,
        ids: &[ProcessId],
        make_actor: &mut impl FnMut(ProcessId) -> A,
        run_seed: u64,
        workers: usize,
    ) -> Self {
        let seed = shard_seed(run_seed, index);
        Shard {
            index,
            nodes: ids
                .iter()
                .map(|&id| {
                    let actor = make_actor(id);
                    let crash = CrashState::new();
                    (id, Node { actor, crash })
                })
                .collect(),
            ids: ids.to_vec(),
            rng: StdRng::seed_from_u64(seed),
            loss_runs: LossBatcher::new(),
            adversary: MessageAdversary::inactive(seed),
            now: SimTime::ZERO,
            busy_ticks: 0,
            next_order: u64::from(index) << SEQ_BITS,
            in_flight: BinaryHeap::new(),
            timers: BTreeMap::new(),
            timer_queue: BTreeSet::new(),
            outbox: Vec::new(),
            timer_ops: Vec::new(),
            due_scratch: Vec::new(),
            flush_scratch: Vec::new(),
            burst_scratch: Vec::new(),
            outbound: (0..workers).map(|_| Vec::new()).collect(),
            metrics: Metrics::new(),
            forced_outages: 0,
        }
    }

    fn is_up(&self, id: ProcessId) -> bool {
        self.nodes.get(&id).is_some_and(|n| n.crash.up)
    }

    fn force_down(&mut self, id: ProcessId, ticks: u64) {
        if let Some(node) = self.nodes.get_mut(&id) {
            if node.crash.forced_down_remaining == 0 {
                self.forced_outages += 1;
            }
            node.crash.force_down(ticks);
        }
    }

    /// The earliest pending delivery or timer deadline on this worker.
    fn next_wake(&self) -> Option<SimTime> {
        earliest(
            self.in_flight.peek().map(|Reverse(f)| f.at),
            self.timer_queue.first().map(|&(at, _, _)| at),
        )
    }

    /// This worker's share of the clock decision.
    pub(crate) fn status(&self) -> Status {
        Status {
            next_wake: self.next_wake(),
            forced_outages: self.forced_outages,
        }
    }

    /// Queues messages other workers addressed to this one. The heap's
    /// merge key makes the order of arrival irrelevant.
    pub(crate) fn accept(&mut self, batch: &mut Vec<Flight<A::Message>>) {
        self.in_flight.extend(batch.drain(..).map(Reverse));
    }

    /// Runs `f` for the actor at `id` with a context, then applies timer
    /// operations and flushes sends.
    fn with_actor(
        &mut self,
        net: &Net,
        id: ProcessId,
        f: impl FnOnce(&mut A, &mut Context<'_, A::Message>),
    ) {
        let now = self.now;
        let Some(node) = self.nodes.get_mut(&id) else {
            return;
        };
        let mut outbox = std::mem::take(&mut self.outbox);
        let mut timer_ops = std::mem::take(&mut self.timer_ops);
        {
            let mut ctx = Context {
                now,
                id,
                outbox: &mut outbox,
                timer_ops: &mut timer_ops,
            };
            f(&mut node.actor, &mut ctx);
        }
        self.outbox = outbox;
        self.timer_ops = timer_ops;
        self.apply_timer_ops(id);
        self.flush_outbox(net, id);
    }

    /// Applies buffered set/cancel timer operations for `id`.
    fn apply_timer_ops(&mut self, id: ProcessId) {
        if self.timer_ops.is_empty() {
            return;
        }
        let mut ops = std::mem::take(&mut self.timer_ops);
        for (timer, op) in ops.drain(..) {
            let key = (id, timer);
            if let Some(old) = self.timers.remove(&key) {
                self.timer_queue.remove(&(old, id, timer));
            }
            if let Some(at) = op {
                self.timers.insert(key, at);
                self.timer_queue.insert((at, id, timer));
            }
        }
        self.timer_ops = ops;
    }

    /// Fires every pending timer with a deadline at or before `now` whose
    /// process is up, ordered by `(process, timer)` — the same order the
    /// legacy per-tick phase visited processes. Loops so that timers
    /// armed by recoveries or deliveries for the current tick still fire
    /// on it; timers of down processes stay pending until recovery.
    fn fire_due_timers(&mut self, net: &Net) {
        loop {
            let mut due = std::mem::take(&mut self.due_scratch);
            due.clear();
            for &(at, id, timer) in self.timer_queue.iter() {
                if at > self.now {
                    break;
                }
                if self.is_up(id) {
                    due.push((id, timer));
                }
            }
            if due.is_empty() {
                self.due_scratch = due;
                return;
            }
            due.sort_unstable();
            for &(id, timer) in due.iter() {
                // An earlier handler in this pass may have cancelled or
                // re-armed this timer; fire only if it is still due.
                let Some(&at) = self.timers.get(&(id, timer)) else {
                    continue;
                };
                if at > self.now {
                    continue;
                }
                self.timers.remove(&(id, timer));
                self.timer_queue.remove(&(at, id, timer));
                self.with_actor(net, id, |actor, ctx| actor.on_timer(ctx, timer));
            }
            self.due_scratch = due;
        }
    }

    /// Loss-samples and schedules everything the last handler sent.
    ///
    /// In the paper's model a process sends *one* message per step, so
    /// when a handler emits several messages to the same destination
    /// (e.g. the `m⃗[j]` copies of Algorithm 1), they are staggered one
    /// tick apart. This keeps per-copy failures independent — delivering
    /// a whole burst in one tick would make one receiver-crash sample
    /// destroy every copy at once.
    ///
    /// This is the Monte-Carlo inner loop: link validation and loss
    /// probabilities are resolved once per distinct destination of the
    /// burst (a small linear cache instead of per-message map walks), and
    /// sent-message metrics are recorded in per-destination batches. Loss
    /// decisions come from the batched geometric sampler ([`LossBatcher`])
    /// rather than one `gen_bool` per message: the RNG is consulted only
    /// when a lossy cell needs a fresh run length, in send order per the
    /// sampler's documented total order, so seeded streams stay frozen
    /// and every executor built on this engine replays it bit-exactly.
    /// Scheduled messages go to this worker's heap or, when the receiver
    /// belongs to another worker, to that worker's outbound batch.
    fn flush_outbox(&mut self, net: &Net, from: ProcessId) {
        // Drain into a persistent scratch buffer: scheduling needs
        // `&mut self`, and reusing the buffer keeps the flush
        // allocation-free in steady state.
        let mut pending = std::mem::take(&mut self.flush_scratch);
        std::mem::swap(&mut pending, &mut self.outbox);
        // Slots from previous flushes are recycled in place (their
        // per-kind Vecs keep their allocations); `live` marks how many
        // belong to *this* flush.
        let mut slots = std::mem::take(&mut self.burst_scratch);
        let mut live = 0usize;
        let mut invalid = 0u64;
        for (to, message) in pending.drain(..) {
            let slot_index = match slots[..live].iter().position(|s| s.to == to) {
                Some(i) => i,
                None => {
                    let link = LinkId::new(from, to)
                        .ok()
                        .filter(|&l| net.topology.contains_link(l));
                    let loss = link.map(|l| net.loss.loss(l).value()).unwrap_or(0.0);
                    let worker = net.worker_of(to);
                    if live == slots.len() {
                        slots.push(BurstSlot {
                            to,
                            link,
                            loss,
                            worker,
                            stagger: 0,
                            sent: Vec::new(),
                        });
                    } else {
                        let slot = &mut slots[live];
                        slot.to = to;
                        slot.link = link;
                        slot.loss = loss;
                        slot.worker = worker;
                        slot.stagger = 0;
                        slot.sent.clear();
                    }
                    live += 1;
                    live - 1
                }
            };
            let slot = &mut slots[slot_index];
            if slot.link.is_none() {
                invalid += 1;
                continue;
            }
            // Sent metrics count pre-loss copies, batched per kind.
            let kind = message.kind();
            match slot.sent.iter_mut().find(|(k, _)| *k == kind) {
                Some((_, n)) => *n += 1,
                None => slot.sent.push((kind, 1)),
            }
            // The message adversary acts before link loss and consumes
            // no loss draws (it has its own stream), so surviving
            // messages see the exact loss schedule of an adversary-free
            // run.
            if self.adversary.should_suppress(from, self.now) {
                self.metrics.record_suppressed();
                continue;
            }
            if slot.loss > 0.0
                && self
                    .loss_runs
                    .should_drop(from, to, slot.loss, &mut self.rng)
            {
                self.metrics.record_lost();
                continue;
            }
            let flight = Flight {
                at: self.now + net.options.link_delay + slot.stagger,
                order: self.next_order,
                from,
                to,
                message,
            };
            slot.stagger += 1;
            self.next_order += 1;
            if slot.worker == self.index as usize {
                self.in_flight.push(Reverse(flight));
            } else {
                self.outbound[slot.worker].push(flight);
            }
        }
        if invalid > 0 {
            self.metrics.record_invalid_batch(invalid);
        }
        for slot in slots[..live].iter() {
            if let Some(link) = slot.link {
                for &(kind, n) in &slot.sent {
                    self.metrics.record_sent_batch(link, kind, n);
                }
            }
        }
        self.flush_scratch = pending;
        self.burst_scratch = slots;
    }

    /// Advances this worker's processes by one tick (see [`Simulation`]
    /// for the phases).
    fn step(&mut self, net: &Net) {
        self.now += 1;
        self.busy_ticks += 1;

        // Phase 1: crash/recovery transitions, id order.
        let model = net.options.crash_model;
        let mut recovered: Vec<(ProcessId, u64)> = Vec::new();
        for (&id, node) in self.nodes.iter_mut() {
            let was_forced = node.crash.forced_down_remaining > 0;
            if let Some(downtime) = node.crash.advance(&model, &mut self.rng) {
                recovered.push((id, downtime));
            }
            if was_forced && node.crash.forced_down_remaining == 0 {
                self.forced_outages -= 1;
            }
        }
        for (id, downtime) in recovered {
            self.with_actor(net, id, |actor, ctx| actor.on_recover(ctx, downtime));
        }

        // Phase 2: deliveries due this tick, in merge-key order.
        while let Some(Reverse(flight)) = self.in_flight.peek() {
            if flight.at > self.now {
                break;
            }
            let Reverse(flight) = self.in_flight.pop().expect("peeked");
            if !self.is_up(flight.to) {
                self.metrics.record_dropped_receiver_down();
                continue;
            }
            self.metrics.record_delivered(flight.message.kind());
            let (from, to, message) = (flight.from, flight.to, flight.message);
            self.with_actor(net, to, |actor, ctx| actor.on_message(ctx, from, message));
        }

        // Phase 3: timers due this tick, in (process, timer) order.
        self.fire_due_timers(net);

        // Phase 4: tick handlers for up processes, id order (skipped
        // entirely when every actor is event-driven).
        if !net.event_driven {
            for i in 0..self.ids.len() {
                let id = self.ids[i];
                if self.is_up(id) {
                    self.with_actor(net, id, |actor, ctx| actor.on_tick(ctx));
                }
            }
        }
    }

    /// Runs this worker until its clock reaches `end`. `sync` returns the
    /// status of the whole system before every clock decision: with one
    /// worker that is [`Shard::status`]; with several, the threaded
    /// executor first exchanges the tick's cross-worker mail at a
    /// barrier, so every worker decides identically and the clocks
    /// advance in lockstep.
    ///
    /// The fast-forward test: when every actor is event-driven, the crash
    /// model draws no per-tick randomness and no forced outage is counting
    /// down, the clock jumps straight to the tick before the next event.
    /// The jump is unobservable — no handler runs and no randomness is
    /// drawn on the skipped ticks — so runs are bit-identical to
    /// tick-by-tick execution.
    pub(crate) fn run_to(
        &mut self,
        net: &Net,
        end: SimTime,
        mut sync: impl FnMut(&mut Self) -> Status,
    ) {
        let mut status = sync(self);
        while self.now < end {
            if net.event_driven
                && status.forced_outages == 0
                && net.options.crash_model == CrashModel::AlwaysUp
            {
                match status.next_wake {
                    // Jump to just before the next event, then step onto
                    // it (the event may re-enable crashes via force_down,
                    // so re-check each round).
                    Some(at) if at <= end => {
                        if at > self.now + 1 {
                            self.now = SimTime::new(at.ticks() - 1);
                        }
                    }
                    // Nothing due before the horizon.
                    _ => {
                        self.now = end;
                        return;
                    }
                }
            }
            self.step(net);
            status = sync(self);
        }
    }
}

/// The checkpoint loop behind both executors' `run_until_every`:
/// `predicate` is evaluated only at multiples of `check_every` (and
/// before the first step, when the current time is such a multiple), and
/// `run_ticks` covers the stretches in between, fast-forwarding.
pub(crate) fn run_until_every<S>(
    sim: &mut S,
    now: fn(&S) -> SimTime,
    run_ticks: fn(&mut S, u64),
    mut predicate: impl FnMut(&S) -> bool,
    check_every: u64,
    max_ticks: u64,
) -> Option<SimTime> {
    let check_every = check_every.max(1);
    let end = now(sim) + max_ticks;
    let mut hit =
        |sim: &S| (now(sim).ticks() % check_every == 0 && predicate(sim)).then(|| now(sim));
    if let Some(at) = hit(sim) {
        return Some(at);
    }
    while now(sim) < end {
        let t = now(sim).ticks();
        let next_check = t - t % check_every + check_every;
        run_ticks(sim, next_check.min(end.ticks()) - t);
        if let Some(at) = hit(sim) {
            return Some(at);
        }
    }
    None
}

/// A deterministic discrete-event simulation of a distributed system.
///
/// The simulation owns one [`Actor`] per process, a lossy network derived
/// from a [`Topology`] plus per-link loss probabilities, and a crash
/// model. A single seeded RNG drives all randomness, consumed in
/// deterministic order, so equal seeds reproduce runs exactly.
///
/// Each tick proceeds in five phases:
///
/// 1. crash/recovery transitions (recoveries invoke
///    [`Actor::on_recover`]);
/// 2. delivery of messages due this tick, in send order;
/// 3. [`Actor::on_timer`] for every due timer, in `(process, timer)`
///    order;
/// 4. [`Actor::on_tick`] for every up process, in id order (skipped when
///    every actor is event-driven — see [`Actor::wants_ticks`]);
/// 5. newly sent messages are loss-sampled and scheduled
///    `link_delay` ticks ahead.
///
/// When every actor is event-driven and the crash model is
/// [`CrashModel::AlwaysUp`], [`Simulation::run_ticks`] and
/// [`Simulation::run_until_every`] *fast-forward*: ticks on which no
/// delivery, timer, or forced recovery is due are skipped wholesale,
/// which costs nothing and changes nothing (no handler would have run
/// and no randomness would have been drawn).
///
/// This is the engine with one worker, run inline on the caller's
/// thread; [`crate::ShardedKernel`] is the same engine with `W ≥ 1`.
///
/// # Example
///
/// ```
/// use diffuse_model::{ProcessId, Topology};
/// use diffuse_sim::{Actor, Context, SimOptions, Simulation};
///
/// struct Echo;
/// impl Actor for Echo {
///     type Message = u64;
///     fn on_message(&mut self, ctx: &mut Context<'_, u64>, from: ProcessId, n: u64) {
///         if n > 0 {
///             ctx.send(from, n - 1);
///         }
///     }
/// }
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut topology = Topology::new();
/// topology.add_link(ProcessId::new(0), ProcessId::new(1))?;
///
/// let mut sim = Simulation::new(
///     topology,
///     Default::default(), // lossless
///     |_| Echo,
///     SimOptions::default(),
/// );
/// sim.command(ProcessId::new(0), |_, ctx| {
///     let peer = ProcessId::new(1);
///     ctx.send(peer, 10);
/// });
/// sim.run_ticks(30);
/// assert_eq!(sim.metrics().sent_total(), 11); // 10, 9, …, 0
/// # Ok(())
/// # }
/// ```
pub struct Simulation<A: Actor> {
    pub(crate) net: Net,
    /// The workers, in id-range order; they advance in lockstep.
    pub(crate) shards: Vec<Shard<A>>,
    started: bool,
}

impl<A: Actor> std::fmt::Debug for Simulation<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("now", &self.now())
            .field("workers", &self.shards.len())
            .field("processes", &self.nodes().count())
            .finish_non_exhaustive()
    }
}

impl<A: Actor> Simulation<A> {
    /// Creates a simulation over `topology` with per-link loss
    /// probabilities taken from `loss` (its crash probabilities are
    /// ignored — crashes come from [`SimOptions::crash_model`]).
    ///
    /// `make_actor` constructs the protocol instance for each process.
    pub fn new(
        topology: Topology,
        loss: Configuration,
        make_actor: impl FnMut(ProcessId) -> A,
        options: SimOptions,
    ) -> Self {
        Self::with_workers(topology, loss, make_actor, options, 1)
    }

    /// The engine over `workers` contiguous id ranges (clamped to
    /// `1..=process count` and to at most 65 536). `make_actor` runs in
    /// ascending id order, and worker `k` draws from
    /// [`shard_seed`]`(seed, k)`, so one worker takes the run seed
    /// verbatim.
    pub(crate) fn with_workers(
        topology: Topology,
        loss: Configuration,
        mut make_actor: impl FnMut(ProcessId) -> A,
        options: SimOptions,
        workers: usize,
    ) -> Self {
        let ids: Vec<ProcessId> = topology.processes().collect();
        let workers = workers.clamp(1, ids.len().clamp(1, MAX_WORKERS));
        let shards: Vec<Shard<A>> = partition(ids.len(), workers)
            .enumerate()
            .map(|(k, range)| {
                Shard::new(
                    k as u32,
                    &ids[range],
                    &mut make_actor,
                    options.seed,
                    workers,
                )
            })
            .collect();
        let net = Net {
            boundaries: shards
                .iter()
                .map(|s| s.ids.first().copied().unwrap_or(ProcessId::new(0)))
                .collect(),
            event_driven: shards
                .iter()
                .flat_map(|s| s.nodes.values())
                .all(|n| !n.actor.wants_ticks()),
            topology,
            loss,
            options,
        };
        Simulation {
            net,
            shards,
            started: false,
        }
    }

    /// How many ticks were actually *executed* (crash/delivery/timer
    /// phases run) rather than fast-forwarded. On an event-driven run
    /// the gap to `now()` is the number of skipped idle ticks.
    pub fn busy_ticks(&self) -> u64 {
        self.shards[0].busy_ticks
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.shards[0].now
    }

    /// The simulated topology.
    pub fn topology(&self) -> &Topology {
        &self.net.topology
    }

    /// Collected metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.shards[0].metrics
    }

    /// Resets collected metrics (e.g. after warm-up).
    pub fn reset_metrics(&mut self) {
        for shard in &mut self.shards {
            shard.metrics.reset();
        }
    }

    /// Immutable access to a process's actor.
    pub fn node(&self, id: ProcessId) -> Option<&A> {
        let shard = &self.shards[self.net.worker_of(id)];
        shard.nodes.get(&id).map(|n| &n.actor)
    }

    /// Iterates over `(id, actor)` pairs in id order.
    pub fn nodes(&self) -> impl Iterator<Item = (ProcessId, &A)> {
        self.shards
            .iter()
            .flat_map(|s| s.nodes.iter().map(|(id, n)| (*id, &n.actor)))
    }

    /// Returns `true` iff the process is currently up.
    ///
    /// Unknown processes are reported as down.
    pub fn is_up(&self, id: ProcessId) -> bool {
        self.shards[self.net.worker_of(id)].is_up(id)
    }

    /// Forces `id` down for the next `ticks` ticks (failure injection).
    pub fn force_down(&mut self, id: ProcessId, ticks: u64) {
        if ticks > 0 {
            let worker = self.net.worker_of(id);
            self.shards[worker].force_down(id, ticks);
        }
    }

    /// Overrides the loss probability of one link (e.g. to heal or break
    /// a path mid-run).
    pub fn set_loss(&mut self, link: LinkId, p: Probability) {
        self.net.loss.set_loss(link, p);
    }

    /// (Re)configures the message adversary: from now on it destroys up
    /// to `d` of each sender's emissions per `window` ticks. `d == 0`
    /// deactivates it. The adversary draws from its own seeded stream,
    /// so toggling it never perturbs loss sampling for surviving
    /// messages.
    pub fn set_message_adversary(&mut self, d: u32, window: u64) {
        for shard in &mut self.shards {
            shard.adversary.configure(d, window, shard.now);
        }
    }

    /// Emissions destroyed by the message adversary so far.
    pub fn suppressed_by_adversary(&self) -> u64 {
        self.shards.iter().map(|s| s.adversary.suppressed()).sum()
    }

    /// Runs a closure against one process's actor with a live context, as
    /// an external command (e.g. "broadcast now"). Returns `false` (and
    /// does nothing) if the process is unknown or down.
    pub fn command(
        &mut self,
        id: ProcessId,
        f: impl FnOnce(&mut A, &mut Context<'_, A::Message>),
    ) -> bool {
        self.ensure_started();
        let worker = self.net.worker_of(id);
        if !self.shards[worker].is_up(id) {
            return false;
        }
        self.invoke(worker, id, f);
        true
    }

    pub(crate) fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        // Ascending id order: workers hold ascending ranges.
        for worker in 0..self.shards.len() {
            for i in 0..self.shards[worker].ids.len() {
                let id = self.shards[worker].ids[i];
                self.invoke(worker, id, |actor, ctx| actor.on_start(ctx));
            }
        }
    }

    /// Runs a handler outside the tick loop (no worker is running), then
    /// hands its cross-worker sends straight to their destinations.
    fn invoke(
        &mut self,
        worker: usize,
        id: ProcessId,
        f: impl FnOnce(&mut A, &mut Context<'_, A::Message>),
    ) {
        self.shards[worker].with_actor(&self.net, id, f);
        for dst in 0..self.shards.len() {
            if dst != worker {
                let mut batch = std::mem::take(&mut self.shards[worker].outbound[dst]);
                self.shards[dst].accept(&mut batch);
            }
        }
    }

    /// Advances the simulation by one tick.
    pub fn step(&mut self) {
        self.ensure_started();
        self.shards[0].step(&self.net);
    }

    /// Runs `n` ticks.
    ///
    /// When every actor is event-driven and the crash model draws no
    /// per-tick randomness, eventless stretches are fast-forwarded: the
    /// clock jumps straight to the next message delivery or timer
    /// deadline. The jump is unobservable — no handler runs and no
    /// randomness is drawn on the skipped ticks — so runs are
    /// bit-identical to tick-by-tick execution.
    pub fn run_ticks(&mut self, n: u64) {
        self.ensure_started();
        let end = self.now() + n;
        self.shards[0].run_to(&self.net, end, |shard| shard.status());
    }

    /// Steps until `predicate` returns `true` (checked before the first
    /// step and after every step) or `max_ticks` have elapsed.
    ///
    /// Returns the time at which the predicate first held, or `None` on
    /// timeout. The simulation is advanced tick by tick so the predicate
    /// observes every intermediate state; use
    /// [`Simulation::run_until_every`] for fast-forwarded periodic
    /// checks.
    pub fn run_until(
        &mut self,
        mut predicate: impl FnMut(&Simulation<A>) -> bool,
        max_ticks: u64,
    ) -> Option<SimTime> {
        self.ensure_started();
        if predicate(self) {
            return Some(self.now());
        }
        for _ in 0..max_ticks {
            self.step();
            if predicate(self) {
                return Some(self.now());
            }
        }
        None
    }

    /// Runs until `predicate` holds, evaluating it only at multiples of
    /// `check_every` ticks (and before the first step, when the current
    /// time is such a multiple), giving up after `max_ticks`.
    ///
    /// Between checkpoints the simulation advances with
    /// [`Simulation::run_ticks`], so eventless stretches fast-forward.
    /// This matches the long-standing harness idiom of a per-tick
    /// `run_until` whose predicate short-circuits on
    /// `now % check_every != 0` — same checkpoints, same result, without
    /// visiting the idle ticks in between.
    pub fn run_until_every(
        &mut self,
        predicate: impl FnMut(&Simulation<A>) -> bool,
        check_every: u64,
        max_ticks: u64,
    ) -> Option<SimTime> {
        self.ensure_started();
        run_until_every(
            self,
            Self::now,
            Self::run_ticks,
            predicate,
            check_every,
            max_ticks,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    /// Counts everything it receives; forwards `hops`-decremented copies
    /// to all neighbors when asked.
    struct Counter {
        received: Vec<(ProcessId, u64)>,
        recovered_after: Vec<u64>,
        ticks: u64,
    }

    impl Counter {
        fn new() -> Self {
            Counter {
                received: Vec::new(),
                recovered_after: Vec::new(),
                ticks: 0,
            }
        }
    }

    impl Actor for Counter {
        type Message = u64;

        fn on_message(&mut self, _ctx: &mut Context<'_, u64>, from: ProcessId, n: u64) {
            self.received.push((from, n));
        }

        fn on_tick(&mut self, _ctx: &mut Context<'_, u64>) {
            self.ticks += 1;
        }

        fn on_recover(&mut self, _ctx: &mut Context<'_, u64>, down_ticks: u64) {
            self.recovered_after.push(down_ticks);
        }
    }

    fn pair_topology() -> Topology {
        let mut t = Topology::new();
        t.add_link(p(0), p(1)).unwrap();
        t
    }

    #[test]
    fn message_arrives_after_link_delay() {
        let mut sim = Simulation::new(
            pair_topology(),
            Configuration::new(),
            |_| Counter::new(),
            SimOptions::default().with_link_delay(3),
        );
        sim.command(p(0), |_, ctx| ctx.send(p(1), 42));
        sim.run_ticks(2);
        assert!(sim.node(p(1)).unwrap().received.is_empty());
        sim.run_ticks(1);
        assert_eq!(sim.node(p(1)).unwrap().received, vec![(p(0), 42)]);
        assert_eq!(sim.metrics().sent_total(), 1);
        assert_eq!(sim.metrics().delivered_total(), 1);
    }

    #[test]
    fn total_loss_link_delivers_nothing() {
        let topology = pair_topology();
        let mut loss = Configuration::new();
        loss.set_loss(LinkId::new(p(0), p(1)).unwrap(), Probability::ONE);
        let mut sim = Simulation::new(topology, loss, |_| Counter::new(), SimOptions::default());
        for _ in 0..10 {
            sim.command(p(0), |_, ctx| ctx.send(p(1), 1));
        }
        sim.run_ticks(5);
        assert_eq!(sim.metrics().sent_total(), 10);
        assert_eq!(sim.metrics().lost_in_link(), 10);
        assert_eq!(sim.metrics().delivered_total(), 0);
        assert!(sim.node(p(1)).unwrap().received.is_empty());
    }

    #[test]
    fn partial_loss_matches_probability() {
        let topology = pair_topology();
        let mut loss = Configuration::new();
        loss.set_loss(
            LinkId::new(p(0), p(1)).unwrap(),
            Probability::new(0.3).unwrap(),
        );
        let mut sim = Simulation::new(
            topology,
            loss,
            |_| Counter::new(),
            SimOptions::default().with_seed(99),
        );
        for _ in 0..10_000 {
            sim.command(p(0), |_, ctx| ctx.send(p(1), 1));
        }
        sim.run_ticks(2);
        let lost = sim.metrics().lost_in_link() as f64 / 10_000.0;
        assert!((lost - 0.3).abs() < 0.02, "loss fraction {lost}");
    }

    #[test]
    fn sends_to_non_neighbors_are_rejected() {
        let mut topology = pair_topology();
        topology.add_process(p(2));
        let mut sim = Simulation::new(
            topology,
            Configuration::new(),
            |_| Counter::new(),
            SimOptions::default(),
        );
        sim.command(p(0), |_, ctx| {
            ctx.send(p(2), 1); // not a neighbor
            ctx.send(p(0), 2); // self-loop
            ctx.send(p(9), 3); // unknown
        });
        sim.run_ticks(2);
        assert_eq!(sim.metrics().dropped_invalid(), 3);
        assert_eq!(sim.metrics().sent_total(), 0);
    }

    #[test]
    fn crashed_receiver_drops_messages_and_recovers() {
        let mut sim = Simulation::new(
            pair_topology(),
            Configuration::new(),
            |_| Counter::new(),
            SimOptions::default(),
        );
        sim.force_down(p(1), 5);
        sim.command(p(0), |_, ctx| ctx.send(p(1), 7));
        sim.run_ticks(3);
        assert_eq!(sim.metrics().dropped_receiver_down(), 1);
        assert!(!sim.is_up(p(1)));
        sim.run_ticks(3);
        assert!(sim.is_up(p(1)));
        assert_eq!(sim.node(p(1)).unwrap().recovered_after, vec![5]);
        // The outage covers ticks 1–4 entirely; recovery happens in tick
        // 5's crash phase, so tick handlers run again from tick 5 on.
        assert_eq!(sim.node(p(1)).unwrap().ticks, sim.now().ticks() - 4);
    }

    #[test]
    fn command_on_down_process_is_refused() {
        let mut sim = Simulation::new(
            pair_topology(),
            Configuration::new(),
            |_| Counter::new(),
            SimOptions::default(),
        );
        sim.force_down(p(0), 2);
        // force_down takes effect immediately for commands.
        assert!(!sim.command(p(0), |_, ctx| ctx.send(p(1), 1)));
        assert!(sim.command(p(1), |_, ctx| ctx.send(p(0), 1)));
    }

    #[test]
    fn same_seed_reproduces_identical_runs() {
        let run = |seed: u64| {
            let topology = pair_topology();
            let mut loss = Configuration::new();
            loss.set_loss(
                LinkId::new(p(0), p(1)).unwrap(),
                Probability::new(0.5).unwrap(),
            );
            let mut sim = Simulation::new(
                topology,
                loss,
                |_| Counter::new(),
                SimOptions::default()
                    .with_seed(seed)
                    .with_crash_model(CrashModel::Bernoulli {
                        p: Probability::new(0.1).unwrap(),
                    }),
            );
            for _ in 0..200 {
                sim.command(p(0), |_, ctx| ctx.send(p(1), 1));
                sim.step();
            }
            sim.metrics().clone()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn run_until_reports_first_hit_time() {
        let mut sim = Simulation::new(
            pair_topology(),
            Configuration::new(),
            |_| Counter::new(),
            SimOptions::default(),
        );
        sim.command(p(0), |_, ctx| ctx.send(p(1), 1));
        let hit = sim.run_until(
            |s| s.node(p(1)).is_some_and(|n| !n.received.is_empty()),
            100,
        );
        assert_eq!(hit, Some(SimTime::new(1)));
        // Timeout case.
        let miss = sim.run_until(|_| false, 5);
        assert_eq!(miss, None);
        assert_eq!(sim.now(), SimTime::new(6));
    }

    #[test]
    fn set_loss_changes_future_transmissions() {
        let mut sim = Simulation::new(
            pair_topology(),
            Configuration::new(),
            |_| Counter::new(),
            SimOptions::default(),
        );
        sim.command(p(0), |_, ctx| ctx.send(p(1), 1));
        sim.set_loss(LinkId::new(p(0), p(1)).unwrap(), Probability::ONE);
        sim.command(p(0), |_, ctx| ctx.send(p(1), 2));
        sim.run_ticks(3);
        let received = &sim.node(p(1)).unwrap().received;
        assert_eq!(received, &vec![(p(0), 1)]);
    }

    #[test]
    fn same_destination_bursts_are_staggered() {
        let mut sim = Simulation::new(
            pair_topology(),
            Configuration::new(),
            |_| Counter::new(),
            SimOptions::default(),
        );
        // One handler invocation sends three copies to p1.
        sim.command(p(0), |_, ctx| {
            ctx.send(p(1), 1);
            ctx.send(p(1), 2);
            ctx.send(p(1), 3);
        });
        sim.run_ticks(1);
        assert_eq!(sim.node(p(1)).unwrap().received.len(), 1);
        sim.run_ticks(1);
        assert_eq!(sim.node(p(1)).unwrap().received.len(), 2);
        sim.run_ticks(1);
        assert_eq!(sim.node(p(1)).unwrap().received.len(), 3);
    }

    /// Event-driven actor: echoes every message after a per-message
    /// timer, plus a periodic "beat" timer.
    struct TimerEcho {
        beat_period: u64,
        beats: Vec<SimTime>,
        fired: Vec<(SimTime, TimerId)>,
    }

    const BEAT: TimerId = TimerId::new(0);
    const ONESHOT: TimerId = TimerId::new(1);

    impl TimerEcho {
        fn new(beat_period: u64) -> Self {
            TimerEcho {
                beat_period,
                beats: Vec::new(),
                fired: Vec::new(),
            }
        }
    }

    impl Actor for TimerEcho {
        type Message = u64;

        fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
            if self.beat_period > 0 {
                ctx.set_timer(BEAT, ctx.now() + self.beat_period);
            }
        }

        fn on_message(&mut self, ctx: &mut Context<'_, u64>, _from: ProcessId, _n: u64) {
            ctx.set_timer(ONESHOT, ctx.now() + 5);
        }

        fn on_timer(&mut self, ctx: &mut Context<'_, u64>, timer: TimerId) {
            self.fired.push((ctx.now(), timer));
            if timer == BEAT {
                self.beats.push(ctx.now());
                ctx.set_timer(BEAT, ctx.now() + self.beat_period);
            }
        }

        fn wants_ticks(&self) -> bool {
            false
        }
    }

    #[test]
    fn timers_fire_at_their_deadlines() {
        let mut sim = Simulation::new(
            pair_topology(),
            Configuration::new(),
            |_| TimerEcho::new(10),
            SimOptions::default(),
        );
        sim.run_ticks(25);
        let node = sim.node(p(0)).unwrap();
        assert_eq!(node.beats, vec![SimTime::new(10), SimTime::new(20)]);
    }

    #[test]
    fn fast_forward_skips_idle_ticks_without_changing_behavior() {
        let run = |period| {
            let mut sim = Simulation::new(
                pair_topology(),
                Configuration::new(),
                |_| TimerEcho::new(period),
                SimOptions::default(),
            );
            sim.command(p(0), |_, ctx| ctx.send(p(1), 1));
            sim.run_ticks(1000);
            (
                sim.now(),
                sim.node(p(0)).unwrap().beats.clone(),
                sim.node(p(1)).unwrap().fired.clone(),
                sim.metrics().clone(),
            )
        };
        let (now, beats, fired, metrics) = run(100);
        // The clock still lands exactly on the horizon.
        assert_eq!(now, SimTime::new(1000));
        assert_eq!(beats.len(), 10);
        // The message at tick 1 armed p1's one-shot for tick 6.
        assert!(fired.contains(&(SimTime::new(6), ONESHOT)));
        assert_eq!(metrics.sent_total(), 1);
        assert_eq!(metrics.delivered_total(), 1);
    }

    #[test]
    fn timer_rearm_and_cancel_are_respected() {
        struct Canceller {
            fired: u32,
        }
        impl Actor for Canceller {
            type Message = u64;
            fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
                ctx.set_timer(TimerId::new(3), SimTime::new(4));
                ctx.set_timer(TimerId::new(3), SimTime::new(8)); // re-arm
                ctx.set_timer(TimerId::new(4), SimTime::new(5));
                ctx.cancel_timer(TimerId::new(4));
            }
            fn on_message(&mut self, _: &mut Context<'_, u64>, _: ProcessId, _: u64) {}
            fn on_timer(&mut self, _ctx: &mut Context<'_, u64>, timer: TimerId) {
                assert_eq!(timer, TimerId::new(3));
                self.fired += 1;
            }
            fn wants_ticks(&self) -> bool {
                false
            }
        }
        let mut sim = Simulation::new(
            pair_topology(),
            Configuration::new(),
            |_| Canceller { fired: 0 },
            SimOptions::default(),
        );
        sim.run_ticks(6);
        assert_eq!(sim.node(p(0)).unwrap().fired, 0);
        sim.run_ticks(2);
        assert_eq!(sim.node(p(0)).unwrap().fired, 1);
    }

    #[test]
    fn timers_of_a_down_process_fire_on_recovery() {
        let mut sim = Simulation::new(
            pair_topology(),
            Configuration::new(),
            |_| TimerEcho::new(10),
            SimOptions::default(),
        );
        sim.run_ticks(5);
        sim.force_down(p(0), 10); // covers the beat due at tick 10
        sim.run_ticks(20);
        let node = sim.node(p(0)).unwrap();
        // The tick-10 beat was deferred to the recovery tick (15), and
        // the following beat fired normally at 25.
        assert_eq!(node.beats, vec![SimTime::new(15), SimTime::new(25)]);
        // The peer kept its own schedule.
        assert_eq!(
            sim.node(p(1)).unwrap().beats,
            vec![SimTime::new(10), SimTime::new(20)]
        );
    }

    #[test]
    fn run_until_every_checks_only_at_multiples() {
        let mut sim = Simulation::new(
            pair_topology(),
            Configuration::new(),
            |_| TimerEcho::new(7),
            SimOptions::default(),
        );
        let mut checked_at: Vec<u64> = Vec::new();
        let hit = sim.run_until_every(
            |s| {
                // Record the observation times; converge once a beat
                // has fired (first beat is at tick 7).
                let t = s.now().ticks();
                !s.node(p(0)).unwrap().beats.is_empty() && t > 0 && {
                    checked_at.push(t);
                    true
                }
            },
            5,
            100,
        );
        assert_eq!(hit, Some(SimTime::new(10)));
        assert_eq!(sim.now(), SimTime::new(10));
    }

    #[test]
    fn nodes_iterates_in_id_order() {
        let mut topology = Topology::new();
        topology.add_link(p(2), p(0)).unwrap();
        topology.add_link(p(1), p(2)).unwrap();
        let sim = Simulation::new(
            topology,
            Configuration::new(),
            |_| Counter::new(),
            SimOptions::default(),
        );
        let ids: Vec<ProcessId> = sim.nodes().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![p(0), p(1), p(2)]);
        assert!(sim.node(p(9)).is_none());
        assert!(!sim.is_up(p(9)));
    }
}
