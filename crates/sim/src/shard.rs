//! The sharded executor: the engine's workers, one thread each.
//!
//! [`ShardedKernel`] partitions the process set into `W` contiguous
//! id-range workers and runs the engine's tick (`crate::kernel`, the one
//! copy of the phases, the outbox flush and the timer handling) on each.
//! Within a tick every worker runs the phases — crash transitions,
//! deliveries, timers, tick handlers — *locally*, over its own nodes,
//! its own in-flight heap and its own RNG stream; cross-worker sends are
//! batched and exchanged at a tick barrier. Since the link delay is at
//! least one tick, a message sent during tick `t` is never due before
//! `t + 1`, so the end-of-tick exchange always lands in time.
//!
//! One engine serves every `W ≥ 1`: with one worker the loop runs inline
//! on the caller's thread, with no spawn and no barrier, and is the
//! [`crate::Simulation`] tick itself; the virtual-time fabric in
//! `diffuse-net` takes its turns from that same tick.
//! `tests/engine_golden.rs` pins the phase and draw order to literal
//! values.
//!
//! # Determinism contract
//!
//! The executor is **self-reproducible by construction**:
//!
//! * Every worker draws from a private RNG seeded by
//!   [`crate::shard_seed`]`(run_seed, worker)` — a pure function of the
//!   run seed and the stable worker id, never of thread scheduling.
//! * Cross-worker messages carry `(arrival, source worker, source seq)`
//!   and the delivery heap orders by exactly that key, so the merge
//!   order is independent of which worker published first.
//! * The fast-forward decision is taken by *global consensus*: each
//!   worker publishes its next wake and forced-outage count at the
//!   barrier, and every worker computes the identical jump from the
//!   combined status. The per-worker clocks advance in lockstep.
//!
//! Hence a given `(seed, topology, W)` replays byte-identically on every
//! re-run. With `W = 1` the single worker receives the run seed verbatim
//! and runs [`crate::Simulation`]'s stream. For `W > 1` the loss draws
//! are distributed over per-worker streams, so individual runs differ
//! from the one-worker stream while remaining statistically equivalent —
//! and on loss-free, crash-free scenarios (which draw no randomness at
//! all) the delivered message *sets* and wire metrics are equal at every
//! worker count; only the within-tick arrival order of same-tick
//! messages from different workers may permute.
//!
//! # Synchronization shape
//!
//! Two `std::sync::Barrier` waits per executed tick; a `W × W` mailbox
//! grid of `Mutex<Vec<_>>` slots, each locked at most once per tick by
//! its single producer and once by its single consumer, on opposite
//! sides of a barrier — the per-message hot path touches no lock. This
//! module is classified `relaxed-determinism` in `diffuse-lint`'s policy
//! table: threading and per-worker streams are allowed, wall-clock reads
//! and unordered iteration remain banned. Thread code belongs here only;
//! `crate::kernel` stays strictly deterministic.

use std::ops::Range;
use std::sync::{Barrier, Mutex};

use diffuse_model::{Configuration, LinkId, Probability, ProcessId, Topology};

use crate::kernel::{run_until_every, Flight, Shard, Status};
use crate::{Actor, Context, Metrics, SimOptions, SimTime, Simulation};

/// The id-range partition: `workers` contiguous index ranges covering
/// `0..n`, the first `n % workers` of them one longer.
pub(crate) fn partition(n: usize, workers: usize) -> impl Iterator<Item = Range<usize>> {
    let (base, extra) = (n / workers, n % workers);
    (0..workers).scan(0, move |start, k| {
        let range = *start..*start + base + usize::from(k < extra);
        *start = range.end;
        Some(range)
    })
}

/// The tick barrier of one `run_ticks` call on `W > 1` workers.
struct Exchange<M> {
    workers: usize,
    /// `W × W` single-producer/single-consumer mailbox slots, indexed
    /// `dst * W + src`. Producer and consumer sides are separated by a
    /// barrier, so each lock is uncontended by construction.
    mailboxes: Vec<Mutex<Vec<Flight<M>>>>,
    barrier: Barrier,
    status: Mutex<Vec<Status>>,
}

fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().expect("a sibling worker panicked")
}

impl<M> Exchange<M> {
    fn new(workers: usize) -> Self {
        Exchange {
            workers,
            mailboxes: (0..workers * workers)
                .map(|_| Mutex::new(Vec::new()))
                .collect(),
            barrier: Barrier::new(workers),
            status: Mutex::new(vec![Status::default(); workers]),
        }
    }

    /// One tick barrier, seen from `shard`: post its outbound batches,
    /// take what siblings addressed to it, publish its status, and return
    /// the combined status — the same snapshot on every worker.
    fn sync<A: Actor<Message = M>>(&self, shard: &mut Shard<A>) -> Status {
        let (me, w) = (shard.index as usize, self.workers);
        for (dst, batch) in shard.outbound.iter_mut().enumerate() {
            if !batch.is_empty() {
                lock(&self.mailboxes[dst * w + me]).append(batch);
            }
        }
        self.barrier.wait();
        for src in (0..w).filter(|&src| src != me) {
            shard.accept(&mut lock(&self.mailboxes[me * w + src]));
        }
        lock(&self.status)[me] = shard.status();
        self.barrier.wait();
        let status = lock(&self.status);
        status.iter().fold(Status::default(), |a, &b| a.merge(b))
    }
}

/// A parallel executor for [`Actor`] systems: the simulation engine with
/// `W` id-range workers, one thread each (see the module docs for the
/// determinism contract). With `workers == 1` it runs inline and is
/// draw-for-draw [`crate::Simulation`].
pub struct ShardedKernel<A: Actor> {
    sim: Simulation<A>,
}

impl<A: Actor> std::fmt::Debug for ShardedKernel<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedKernel")
            .field("now", &self.now())
            .field("workers", &self.workers())
            .field("processes", &self.nodes().count())
            .finish_non_exhaustive()
    }
}

impl<A: Actor> ShardedKernel<A> {
    /// Creates a sharded simulation over `topology` with `workers`
    /// shards (clamped to `1..=process count` and to at most 65 536).
    /// Mirrors [`crate::Simulation::new`] otherwise: `loss` supplies
    /// per-link loss probabilities, `make_actor` builds each process's
    /// protocol instance (called in ascending id order), and crashes
    /// come from [`SimOptions::crash_model`].
    pub fn new(
        topology: Topology,
        loss: Configuration,
        make_actor: impl FnMut(ProcessId) -> A,
        options: SimOptions,
        workers: usize,
    ) -> Self {
        ShardedKernel {
            sim: Simulation::with_workers(topology, loss, make_actor, options, workers),
        }
    }

    /// Number of worker shards (after clamping).
    pub fn workers(&self) -> usize {
        self.sim.shards.len()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// The simulated topology.
    pub fn topology(&self) -> &Topology {
        self.sim.topology()
    }

    /// Ticks actually executed (fast-forwarded ticks are not counted).
    /// Shard clocks advance in lockstep, so every shard reports the same
    /// number.
    pub fn busy_ticks(&self) -> u64 {
        self.sim.busy_ticks()
    }

    /// Wire metrics aggregated over all shards (merged in shard order).
    pub fn metrics(&self) -> Metrics {
        let (first, rest) = self.sim.shards.split_first().expect("one worker at least");
        let mut total = first.metrics.clone();
        for shard in rest {
            total.merge(&shard.metrics);
        }
        total
    }

    /// Resets every shard's collected metrics (e.g. after warm-up).
    pub fn reset_metrics(&mut self) {
        self.sim.reset_metrics();
    }

    /// Immutable access to a process's actor.
    pub fn node(&self, id: ProcessId) -> Option<&A> {
        self.sim.node(id)
    }

    /// Iterates over `(id, actor)` pairs in ascending id order.
    pub fn nodes(&self) -> impl Iterator<Item = (ProcessId, &A)> {
        self.sim.nodes()
    }

    /// Returns `true` iff the process is currently up. Unknown processes
    /// are reported as down.
    pub fn is_up(&self, id: ProcessId) -> bool {
        self.sim.is_up(id)
    }

    /// Forces `id` down for the next `ticks` ticks (failure injection).
    /// Applied between run segments — i.e. at a tick barrier.
    pub fn force_down(&mut self, id: ProcessId, ticks: u64) {
        self.sim.force_down(id, ticks);
    }

    /// Overrides one link's loss probability. Applied between run
    /// segments, so every shard observes the change at the same tick.
    pub fn set_loss(&mut self, link: LinkId, p: Probability) {
        self.sim.set_loss(link, p);
    }

    /// (Re)configures every shard's message adversary (see
    /// [`crate::Simulation::set_message_adversary`]). Applied between
    /// run segments; shard clocks are in lockstep, so every shard's
    /// window 0 starts at the same tick.
    pub fn set_message_adversary(&mut self, d: u32, window: u64) {
        self.sim.set_message_adversary(d, window);
    }

    /// Emissions destroyed by the message adversary, summed over shards.
    pub fn suppressed_by_adversary(&self) -> u64 {
        self.sim.suppressed_by_adversary()
    }

    /// Runs a closure against one process's actor with a live context,
    /// as an external command. Returns `false` (and does nothing) if the
    /// process is unknown or down. Commands execute on the coordinator
    /// between segments; any sends route into the owning shards'
    /// heaps immediately.
    pub fn command(
        &mut self,
        id: ProcessId,
        f: impl FnOnce(&mut A, &mut Context<'_, A::Message>),
    ) -> bool {
        self.sim.command(id, f)
    }
}

impl<A: Actor + Send> ShardedKernel<A>
where
    A::Message: Send,
{
    /// Runs `n` ticks across all shards.
    ///
    /// One worker runs inline on the caller's thread. With more, one
    /// scoped thread per worker runs for the duration of the segment;
    /// workers synchronize twice per executed tick and take fast-forward
    /// jumps by global consensus (see the module docs). Faults and
    /// commands applied between calls therefore land at a tick barrier on
    /// every shard simultaneously.
    pub fn run_ticks(&mut self, n: u64) {
        let workers = self.workers();
        if workers == 1 || n == 0 {
            self.sim.run_ticks(n);
            return;
        }
        self.sim.ensure_started();
        let end = self.now() + n;
        let exchange = Exchange::new(workers);
        let net = &self.sim.net;
        std::thread::scope(|scope| {
            for shard in self.sim.shards.iter_mut() {
                let exchange = &exchange;
                scope.spawn(move || shard.run_to(net, end, |shard| exchange.sync(shard)));
            }
        });
    }

    /// Runs until `predicate` holds, evaluating it only at multiples of
    /// `check_every` ticks; see [`crate::Simulation::run_until_every`].
    pub fn run_until_every(
        &mut self,
        predicate: impl FnMut(&ShardedKernel<A>) -> bool,
        check_every: u64,
        max_ticks: u64,
    ) -> Option<SimTime> {
        self.sim.ensure_started();
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
    use crate::{Simulation, TimerId};

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    fn ring(n: u32) -> Topology {
        let mut t = Topology::new();
        for i in 0..n {
            t.add_link(p(i), p((i + 1) % n)).unwrap();
        }
        t
    }

    /// Event-driven flood actor: forwards hop-decremented copies to all
    /// neighbors; every delivery is recorded.
    struct Relay {
        neighbors: Vec<ProcessId>,
        received: Vec<(ProcessId, u64)>,
    }

    fn make_relay(topology: &Topology) -> impl FnMut(ProcessId) -> Relay + '_ {
        |id| Relay {
            neighbors: topology.neighbors(id).collect(),
            received: Vec::new(),
        }
    }

    impl Actor for Relay {
        type Message = u64;

        fn on_message(&mut self, ctx: &mut Context<'_, u64>, from: ProcessId, n: u64) {
            self.received.push((from, n));
            if n > 0 {
                for &to in self.neighbors.clone().iter() {
                    ctx.send(to, n - 1);
                }
            }
        }

        fn wants_ticks(&self) -> bool {
            false
        }
    }

    /// Periodic event-driven beeper for timer/fast-forward coverage.
    struct Beeper {
        period: u64,
        beats: Vec<SimTime>,
    }

    impl Actor for Beeper {
        type Message = u64;

        fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
            ctx.set_timer(TimerId::new(0), ctx.now() + self.period);
        }

        fn on_message(&mut self, _: &mut Context<'_, u64>, _: ProcessId, _: u64) {}

        fn on_timer(&mut self, ctx: &mut Context<'_, u64>, timer: TimerId) {
            self.beats.push(ctx.now());
            ctx.set_timer(timer, ctx.now() + self.period);
        }

        fn wants_ticks(&self) -> bool {
            false
        }
    }

    /// Per-process received logs: (receiver, [(sender, payload)]).
    type ReceivedLogs = Vec<(ProcessId, Vec<(ProcessId, u64)>)>;

    fn run_sharded(
        topology: &Topology,
        loss: &Configuration,
        seed: u64,
        workers: usize,
        ticks: u64,
    ) -> (ReceivedLogs, Metrics) {
        let mut sharded = ShardedKernel::new(
            topology.clone(),
            loss.clone(),
            make_relay(topology),
            SimOptions::default().with_seed(seed),
            workers,
        );
        sharded.command(p(0), |_, ctx| ctx.send(p(1), 6));
        sharded.run_ticks(ticks);
        let received = sharded
            .nodes()
            .map(|(id, a)| (id, a.received.clone()))
            .collect();
        (received, sharded.metrics())
    }

    /// Records the thread every delivery runs on.
    struct ThreadProbe {
        neighbors: Vec<ProcessId>,
        threads: Vec<std::thread::ThreadId>,
    }

    impl Actor for ThreadProbe {
        type Message = u64;

        fn on_message(&mut self, ctx: &mut Context<'_, u64>, _: ProcessId, n: u64) {
            self.threads.push(std::thread::current().id());
            if n > 0 {
                for &to in &self.neighbors {
                    ctx.send(to, n - 1);
                }
            }
        }

        fn wants_ticks(&self) -> bool {
            false
        }
    }

    fn delivery_threads(workers: usize) -> Vec<std::thread::ThreadId> {
        let topology = ring(6);
        let mut sharded = ShardedKernel::new(
            topology.clone(),
            Configuration::new(),
            |id| ThreadProbe {
                neighbors: topology.neighbors(id).collect(),
                threads: Vec::new(),
            },
            SimOptions::default(),
            workers,
        );
        sharded.command(p(0), |_, ctx| ctx.send(p(1), 4));
        sharded.run_ticks(20);
        sharded
            .nodes()
            .flat_map(|(_, a)| a.threads.iter().copied())
            .collect()
    }

    #[test]
    fn one_worker_runs_inline_on_the_callers_thread() {
        let caller = std::thread::current().id();
        let inline = delivery_threads(1);
        assert!(!inline.is_empty());
        assert!(inline.iter().all(|&t| t == caller));
        // The probe can tell: two workers deliver on spawned threads.
        let spawned = delivery_threads(2);
        assert!(!spawned.is_empty());
        assert!(spawned.iter().all(|&t| t != caller));
    }

    #[test]
    fn same_seed_same_workers_replays_byte_identically() {
        let topology = ring(12);
        let mut loss = Configuration::new();
        for link in topology.links() {
            loss.set_loss(link, Probability::new(0.25).unwrap());
        }
        let a = run_sharded(&topology, &loss, 7, 4, 60);
        let b = run_sharded(&topology, &loss, 7, 4, 60);
        assert_eq!(a, b);
        let c = run_sharded(&topology, &loss, 8, 4, 60);
        assert_ne!(a, c, "seed must matter");
    }

    #[test]
    fn loss_free_runs_match_the_kernel_exactly_at_any_worker_count() {
        // No loss and no crashes → zero RNG draws anywhere → every
        // worker count delivers *exactly* the kernel's message set and
        // wire metrics. (Within one tick, a receiver may see same-tick
        // messages from different shards in shard order rather than
        // global send order, so the per-receiver delivery *sequence* is
        // compared as a multiset.)
        let topology = ring(10);
        let loss = Configuration::new();
        let mut kernel = Simulation::new(
            topology.clone(),
            loss.clone(),
            make_relay(&topology),
            SimOptions::default().with_seed(1),
        );
        kernel.command(p(0), |_, ctx| ctx.send(p(1), 6));
        kernel.run_ticks(40);
        let expected: Vec<_> = kernel
            .nodes()
            .map(|(id, a)| {
                let mut received = a.received.clone();
                received.sort_unstable();
                (id, received)
            })
            .collect();
        for workers in [1, 2, 3, 4, 10] {
            let (mut received, metrics) = run_sharded(&topology, &loss, 1, workers, 40);
            for (_, r) in received.iter_mut() {
                r.sort_unstable();
            }
            assert_eq!(expected, received, "W={workers}");
            assert_eq!(kernel.metrics(), &metrics, "W={workers}");
        }
    }

    #[test]
    fn timers_and_fast_forward_run_in_lockstep() {
        let topology = ring(6);
        let mut sharded = ShardedKernel::new(
            topology,
            Configuration::new(),
            |id| Beeper {
                period: 10 + u64::from(id.index()) % 3,
                beats: Vec::new(),
            },
            SimOptions::default(),
            3,
        );
        sharded.run_ticks(1000);
        assert_eq!(sharded.now(), SimTime::new(1000));
        // Fast-forward skipped the idle gaps between deadlines.
        assert!(sharded.busy_ticks() < 400, "{}", sharded.busy_ticks());
        for (id, beeper) in sharded.nodes() {
            let period = 10 + u64::from(id.index()) % 3;
            assert_eq!(beeper.beats.first(), Some(&SimTime::new(period)), "{id}");
            assert!(beeper.beats.len() as u64 >= 1000 / period - 1, "{id}");
        }
    }

    #[test]
    fn forced_outages_apply_at_segment_boundaries() {
        let topology = ring(6);
        let mut sharded = ShardedKernel::new(
            topology.clone(),
            Configuration::new(),
            make_relay(&topology),
            SimOptions::default(),
            3,
        );
        sharded.force_down(p(3), 5);
        assert!(!sharded.is_up(p(3)));
        sharded.command(p(2), |_, ctx| ctx.send(p(3), 0));
        sharded.run_ticks(3);
        assert_eq!(sharded.metrics().dropped_receiver_down(), 1);
        assert!(!sharded.is_up(p(3)));
        sharded.run_ticks(3);
        assert!(sharded.is_up(p(3)));
    }

    #[test]
    fn partition_and_membership_queries() {
        let topology = ring(10);
        let sharded = ShardedKernel::new(
            topology.clone(),
            Configuration::new(),
            make_relay(&topology),
            SimOptions::default(),
            3,
        );
        assert_eq!(sharded.workers(), 3);
        for id in topology.processes() {
            assert!(sharded.node(id).is_some(), "{id}");
            assert!(sharded.is_up(id));
        }
        assert!(sharded.node(p(99)).is_none());
        assert!(!sharded.is_up(p(99)));
        let ids: Vec<ProcessId> = sharded.nodes().map(|(id, _)| id).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(ids, sorted, "nodes() iterates in id order");
        // Worker counts beyond the process count are clamped.
        let wide = ShardedKernel::new(
            topology.clone(),
            Configuration::new(),
            make_relay(&topology),
            SimOptions::default(),
            64,
        );
        assert_eq!(wide.workers(), 10);
    }

    #[test]
    fn commands_on_down_or_unknown_processes_are_refused() {
        let topology = ring(6);
        let mut sharded = ShardedKernel::new(
            topology.clone(),
            Configuration::new(),
            make_relay(&topology),
            SimOptions::default(),
            2,
        );
        sharded.force_down(p(1), 4);
        assert!(!sharded.command(p(1), |_, ctx| ctx.send(p(2), 1)));
        assert!(!sharded.command(p(42), |_, ctx| ctx.send(p(2), 1)));
        assert!(sharded.command(p(2), |_, ctx| ctx.send(p(3), 1)));
    }
}
