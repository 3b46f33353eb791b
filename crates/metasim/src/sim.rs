//! The discrete-event serving simulator.
//!
//! One [`Simulation`] models the full `prism-serve` stack — bounded
//! submission queue, batch coalescing, worker pool, session cache,
//! deadlines, priorities and cancellation — at *virtual* microsecond
//! time by driving the server's own components, not copies of them:
//! the [`BatchPlanner`] decides and [`BatchPlanner::pop`] drains, a
//! [`SessionCache`] with unit payloads (the corpus id as fingerprint)
//! probes, stores and evicts, [`dead_verdict`] sheds and
//! [`ServeStats::count_failure`] counts, all into a real [`ServeStats`].
//! What lives here is the event loop, the workers' virtual busy time and
//! the order `server.rs` applies those components in: a free worker
//! first takes every arrival through the session-cache probe (a
//! selection hit is answered at pickup with zero service time, and never
//! waits for company), the rest enter the coalescing window the planner
//! decides over, one engine pass runs per flushed set, and cancel /
//! deadline outcomes at completion never fail pass-mates.
//!
//! Everything is deterministic: no wall clock, no thread interleaving,
//! no hash-order dependence (the event heap orders by `(time, sequence)`
//! and the session cache evicts by a unique recency tick). The same
//! inputs produce a bit-identical event digest and report on every run.

use std::collections::{BinaryHeap, VecDeque};

use prism_core::Priority;
use prism_semcache::hash::{fnv1a, splitmix_next, FNV_OFFSET};
use prism_serve::{
    corpus_tag, dead_verdict, BatchPlanner, CacheLookup, LoadReport, PlanDecision, QueueItem,
    Sample, ServeConfig, ServeError, ServeStats, SessionCache,
};
use prism_workload::{TraceEvent, TraceGenerator};

use crate::report::SimReport;
use crate::service::ServiceModel;

/// Microseconds a simulated closed-loop client waits before resubmitting
/// after backpressure — the backoff floor of the retry policy in
/// `prism_serve::drive_closed_loop`.
pub const BACKPRESSURE_RETRY_US: u64 = 200;

/// One logical request entering the simulated server.
#[derive(Debug, Clone)]
pub struct SimRequest {
    /// Stable identity (trace index / closed-loop submission index);
    /// folded into the event digest.
    pub id: u64,
    /// Session identity (cache affinity).
    pub session: u64,
    /// Corpus identity: requests sharing `(session, corpus, key)` are
    /// exact repeats and can replay a cached selection.
    pub corpus: u64,
    /// The request's session-cache memo key: its routing tag, the only
    /// part of the server's `SelectionKey` that varies within one trace
    /// or `LoadSpec` (`k`, overrides and precisions are per-run).
    pub key: u64,
    /// Total packed tokens (the planner's budget unit).
    pub tokens: usize,
    /// Scheduling class.
    pub priority: Priority,
    /// Relative deadline in microseconds from admission, if any.
    pub deadline_us: Option<u64>,
    /// Caller cancels this many microseconds after admission, if ever.
    pub cancel_after_us: Option<u64>,
    /// Reported under the `"high"` class (vs `"bulk"`) in mixed runs.
    pub high_class: bool,
    /// Closed-loop owner: completion triggers this client's next
    /// submission, and backpressure triggers a retry instead of a drop.
    pub client: Option<usize>,
}

impl SimRequest {
    /// Converts a generated trace event into a simulator request, using
    /// the same corpus-to-tag convention as the closed-loop generator.
    pub fn from_trace(ev: &TraceEvent) -> SimRequest {
        SimRequest {
            id: ev.index,
            session: ev.session,
            corpus: ev.corpus,
            key: corpus_tag(ev.corpus),
            tokens: ev.tokens,
            priority: match ev.class {
                2 => Priority::High,
                0 => Priority::Bulk,
                _ => Priority::Normal,
            },
            deadline_us: ev.deadline_us,
            cancel_after_us: ev.cancel_after_us,
            high_class: ev.class == 2,
            client: None,
        }
    }
}

/// A queued request with its virtual-time bookkeeping.
#[derive(Debug, Clone)]
struct SimPending {
    req: SimRequest,
    /// First submission attempt — the latency epoch (retries included),
    /// mirroring the closed-loop client's `t0` before its retry loop.
    first_attempt: u64,
    /// Admission time (queue-wait epoch).
    enqueued_at: u64,
    /// Absolute deadline, resolved at admission like the real server.
    deadline_at: Option<u64>,
    /// Absolute cancellation instant.
    cancel_at: Option<u64>,
}

impl SimPending {
    /// Why this request is dead at `now`, if it is — the server's rule.
    fn verdict(&self, now: u64) -> Option<ServeError> {
        dead_verdict(
            self.cancel_at.is_some_and(|c| c <= now),
            self.deadline_at.is_some_and(|d| d <= now),
        )
    }
}

#[derive(Debug)]
enum Event {
    /// A request (re)submission; `first_attempt` survives retries.
    Submit { req: SimRequest, first_attempt: u64 },
    /// Worker finished its running batch.
    WorkerFree { worker: usize },
    /// The coalescing age bound expired; replan.
    PlanTimer,
}

struct Scheduled {
    at: u64,
    seq: u64,
    event: Event,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    // Reversed: BinaryHeap is a max-heap, we need earliest-first with
    // FIFO tie-break on the schedule sequence.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

struct RunningBatch {
    items: Vec<SimPending>,
    service_us: u64,
    /// A shard fault hit this batch with no replica to fail over to:
    /// every member surfaces a typed shard error at completion.
    shard_failed: bool,
}

/// A seeded, deterministic shard-fault model for the simulated serving
/// stack: each executed batch draws a fault with probability
/// `per_mille / 1000`. What the fault *costs* is priced by replication:
///
/// * `replicas >= 2` — the victim shard's sub-batch fails over to its
///   next-ranked replica mid-request (the real `ShardSet` contract), so
///   the batch completes correctly but pays one shard's share of the
///   forward again. Counted in [`ServeStats::failovers`].
/// * `replicas == 1` — nothing covers the fault: the batch runs to the
///   fault and every member fails with a typed shard error (the
///   fail-fast default), surfacing as request errors.
///
/// Fault draws come from their own splitmix64 stream and fold into the
/// event digest, so a faulted run replays bit-identically from its seed.
#[derive(Debug, Clone, Copy)]
pub struct SimFaults {
    /// Seed of the fault-draw stream.
    pub seed: u64,
    /// Per-batch fault probability in thousandths (0 disables).
    pub per_mille: u32,
    /// Shards behind the forward map (sets the failover replay share).
    pub shards: usize,
    /// Replica sets per candidate: R >= 2 covers any single-shard fault.
    pub replicas: usize,
}

/// Deterministic discrete-event simulation of one serving configuration.
pub struct Simulation {
    planner: BatchPlanner,
    queue_capacity: usize,
    service: ServiceModel,
    stats: ServeStats,
    /// The server's session cache, storing nothing: hits and misses are
    /// all a simulated run needs of it. `None` when disabled, as there.
    cache: Option<SessionCache<u64, u64, (), (), ()>>,

    now: u64,
    seq: u64,
    heap: BinaryHeap<Scheduled>,
    /// Accepted requests no worker has probed yet.
    arrivals: VecDeque<SimPending>,
    /// The coalescing window: probed requests that need a pass.
    window: VecDeque<SimPending>,
    worker_busy: Vec<bool>,
    running: Vec<Option<RunningBatch>>,
    timer_at: Option<u64>,
    client_streams: Vec<VecDeque<SimRequest>>,
    faults: Option<SimFaults>,
    fault_state: u64,

    samples: Vec<Sample>,
    retries: u64,
    events: u64,
    digest: u64,
}

impl Simulation {
    /// Builds a simulator for `config` (validated) with the given
    /// service-time model.
    pub fn new(config: &ServeConfig, service: ServiceModel) -> Self {
        config
            .validate()
            .expect("invalid ServeConfig for simulation");
        let workers = config.workers.max(1);
        Simulation {
            planner: config.planner(),
            queue_capacity: config.queue_capacity.max(1),
            service,
            stats: ServeStats::new(),
            cache: (config.session_cache_capacity > 0)
                .then(|| SessionCache::new(config.session_cache_capacity)),
            now: 0,
            seq: 0,
            heap: BinaryHeap::new(),
            arrivals: VecDeque::new(),
            window: VecDeque::new(),
            worker_busy: vec![false; workers],
            running: (0..workers).map(|_| None).collect(),
            timer_at: None,
            client_streams: Vec::new(),
            faults: None,
            fault_state: 0,
            samples: Vec::new(),
            retries: 0,
            events: 0,
            digest: FNV_OFFSET,
        }
    }

    /// Simulates the first `n` events of a trace as an *open-loop*
    /// arrival stream: requests arrive on the trace's schedule whether
    /// or not the server keeps up, and backpressure rejections are
    /// dropped (counted, never retried). `faults` injects a shard-fault
    /// model.
    pub fn run_trace(
        config: &ServeConfig,
        service: ServiceModel,
        generator: &TraceGenerator,
        n: u64,
        label: &str,
        faults: Option<SimFaults>,
    ) -> SimReport {
        let mut sim = Simulation::new(config, service);
        sim.set_faults(faults);
        let split = generator.profile().high_fraction > 0.0;
        sim.event_loop(
            generator
                .arrivals(n)
                .map(|(at, ev)| (at, SimRequest::from_trace(&ev))),
        );
        sim.finish(label, n, split)
    }

    /// Simulates a *closed-loop* run: each client owns a request stream
    /// and submits its next request the instant the previous one is
    /// answered, retrying backpressure after
    /// [`BACKPRESSURE_RETRY_US`] — the same discipline as
    /// `prism_serve::run_closed_loop`. `faults` injects a shard-fault
    /// model.
    pub fn run_closed(
        config: &ServeConfig,
        service: ServiceModel,
        mut streams: Vec<VecDeque<SimRequest>>,
        label: &str,
        split_classes: bool,
        faults: Option<SimFaults>,
    ) -> SimReport {
        let mut sim = Simulation::new(config, service);
        sim.set_faults(faults);
        let total: u64 = streams.iter().map(|s| s.len() as u64).sum();
        for stream in &mut streams {
            if let Some(first) = stream.pop_front() {
                sim.schedule(
                    0,
                    Event::Submit {
                        req: first,
                        first_attempt: 0,
                    },
                );
            }
        }
        sim.client_streams = streams;
        sim.event_loop(std::iter::empty());
        sim.finish(label, total, split_classes)
    }

    fn set_faults(&mut self, faults: Option<SimFaults>) {
        self.fault_state = faults.map_or(0, |f| f.seed ^ 0xFA17_FA17_FA17_FA17);
        self.faults = faults;
    }

    fn schedule(&mut self, at: u64, event: Event) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Scheduled { at, seq, event });
    }

    fn mix(&mut self, code: u64, a: u64, b: u64) {
        for value in [code, a, b] {
            self.digest = fnv1a(self.digest, &value.to_le_bytes());
        }
    }

    fn event_loop(&mut self, arrivals: impl Iterator<Item = (u64, SimRequest)>) {
        let mut arrivals = arrivals;
        let mut next_arrival = arrivals.next();
        loop {
            let heap_at = self.heap.peek().map(|s| s.at);
            let take_arrival = match (&next_arrival, heap_at) {
                (Some((at, _)), Some(h)) => *at <= h,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            if take_arrival {
                let (at, req) = next_arrival.take().expect("arrival present");
                next_arrival = arrivals.next();
                self.now = self.now.max(at);
                self.events += 1;
                let now = self.now;
                self.submit(req, now, now);
            } else {
                let Scheduled { at, event, .. } = self.heap.pop().expect("event present");
                self.now = self.now.max(at);
                self.events += 1;
                match event {
                    Event::Submit { req, first_attempt } => {
                        let now = self.now;
                        self.submit(req, first_attempt, now)
                    }
                    Event::WorkerFree { worker } => {
                        let now = self.now;
                        self.complete(worker, now);
                        self.try_dispatch(now);
                    }
                    Event::PlanTimer => {
                        if self.timer_at == Some(at) {
                            self.timer_at = None;
                            let now = self.now;
                            self.try_dispatch(now);
                        }
                    }
                }
            }
        }
    }

    /// One submission attempt, in the order of `PrismServer::submit` +
    /// `SubmissionQueue::push`: admission deadline check, shed-then-
    /// backpressure when full, depth update, dispatch.
    fn submit(&mut self, req: SimRequest, first_attempt: u64, now: u64) {
        self.mix(1, now, req.id);
        // The real admission path rejects a deadline that has already
        // passed at submission — with relative slack that is exactly
        // the zero-slack case.
        if req.deadline_us == Some(0) {
            self.stats.deadline_rejected.inc();
            self.answer(req, first_attempt, false, now);
            return;
        }
        if self.depth() >= self.queue_capacity {
            self.shed_dead(now);
        }
        if self.depth() >= self.queue_capacity {
            self.stats.rejected.inc();
            self.mix(2, now, req.id);
            if req.client.is_some() {
                // Closed-loop caller: absorb with a retry.
                self.retries += 1;
                self.schedule(
                    now + BACKPRESSURE_RETRY_US,
                    Event::Submit { req, first_attempt },
                );
            } else {
                // Open-loop arrival: dropped on the floor.
                self.samples.push((req.high_class, None));
            }
            return;
        }
        self.stats.submitted.inc();
        let pending = SimPending {
            deadline_at: req.deadline_us.map(|us| now.saturating_add(us)),
            cancel_at: req.cancel_after_us.map(|us| now.saturating_add(us)),
            req,
            first_attempt,
            enqueued_at: now,
        };
        self.arrivals.push_back(pending);
        self.set_depth();
        self.try_dispatch(now);
    }

    /// Requests accepted and not yet answered or taken into a pass.
    fn depth(&self) -> usize {
        self.arrivals.len() + self.window.len()
    }

    fn set_depth(&self) {
        self.stats.queue_depth.set(self.depth() as u64);
    }

    /// Answers and removes every request of either stage that is
    /// already dead — the queue's shed pass, window first (its entries
    /// arrived before any waiting arrival).
    fn shed_dead(&mut self, now: u64) {
        let mut dead = take_dead(&mut self.window, now);
        dead.extend(take_dead(&mut self.arrivals, now));
        for (p, err) in dead {
            self.stats.count_failure(&err);
            self.answer(p.req, p.first_attempt, false, now);
        }
    }

    /// Hands work to idle workers until the planner says wait
    /// (scheduling a replan timer) or no worker is free — the
    /// virtual-time equivalent of each worker's `next_work` loop: every
    /// arrival is probed first, then the window is planned.
    fn try_dispatch(&mut self, now: u64) {
        loop {
            let Some(worker) = self.worker_busy.iter().position(|b| !b) else {
                return;
            };
            self.shed_dead(now);
            while let Some(p) = self.arrivals.pop_front() {
                self.probe(p, now);
            }
            self.set_depth();
            if self.window.is_empty() {
                return;
            }
            let snapshot: Vec<QueueItem> = self
                .window
                .iter()
                .map(|p| QueueItem {
                    tokens: p.req.tokens,
                    enqueued_micros: p.enqueued_at,
                    priority: p.req.priority,
                    deadline_micros: p.deadline_at,
                })
                .collect();
            let take = match self.planner.decide(&snapshot, now) {
                PlanDecision::Wait(us) => {
                    let at = now.saturating_add(us.max(1));
                    if self.timer_at.is_none_or(|t| t > at) {
                        self.timer_at = Some(at);
                        self.schedule(at, Event::PlanTimer);
                    }
                    return;
                }
                PlanDecision::Flush(set) => set,
            };
            let pass = self
                .planner
                .pop(&mut self.window, &snapshot, &take, &self.stats);
            self.set_depth();
            self.execute(worker, now, pass);
        }
    }

    /// The probe half at pickup, in `server.rs::probe`'s order: the
    /// session-memo probe answers a selection hit at once, with zero
    /// service time; an unsharded miss stores its embedding for later
    /// repeats (a sharded server keeps no embedding replay: shards embed
    /// their own partitions). Everything else enters the window.
    fn probe(&mut self, p: SimPending, now: u64) {
        let lookup = match &mut self.cache {
            Some(cache) => cache.lookup(&p.req.session, p.req.corpus, &(), &p.req.key),
            None => CacheLookup::Miss,
        };
        match lookup {
            CacheLookup::Selection(_) => {
                self.stats.cache_selection_hits.inc();
                self.stats
                    .queued_us
                    .record(now.saturating_sub(p.enqueued_at));
                self.stats.service_us.record(0);
                self.stats.completed.inc();
                self.answer(p.req, p.first_attempt, true, now);
                return;
            }
            CacheLookup::Embed(()) => self.stats.cache_embed_hits.inc(),
            CacheLookup::Miss => {
                self.stats.cache_misses.inc();
                let replays_embeds = !matches!(self.service, ServiceModel::Sharded(_));
                if let Some(cache) = self.cache.as_mut().filter(|_| replays_embeds) {
                    cache.store_embed(&p.req.session, p.req.corpus, &(), ());
                }
            }
        }
        self.window.push_back(p);
    }

    /// Runs one pass flushed from the window: pass instruments, each
    /// member's queue time, and one service-time charge for the set —
    /// the worker's busy interval from pickup to reply, which is what the
    /// server records as `service_us` (planning included; the probe's
    /// embedding is priced there too).
    fn execute(&mut self, worker: usize, now: u64, pass: Vec<SimPending>) {
        let size = pass.len();
        self.mix(3, now, size as u64);
        let tokens: u64 = pass.iter().map(|p| p.req.tokens as u64).sum();
        self.stats.batches.inc();
        self.stats.batch_size.record(size as u64);
        self.stats.batch_tokens.record(tokens);
        self.stats.in_flight.add(size as u64);
        for p in &pass {
            self.stats
                .queued_us
                .record(now.saturating_sub(p.enqueued_at));
        }
        let mut service_us = self.service.batch_micros(size, tokens).max(1);
        let mut shard_failed = false;
        if let Some(f) = self.faults {
            let draw = splitmix_next(&mut self.fault_state) % 1000;
            if (draw as u32) < f.per_mille.min(1000) {
                self.mix(6, draw, f.replicas as u64);
                if f.replicas >= 2 {
                    // Failover: the victim shard's sub-batch replays on
                    // its next-ranked replica — one shard's share of the
                    // forward paid a second time, result unchanged.
                    let share = tokens / f.shards.max(1) as u64;
                    service_us =
                        service_us.saturating_add(self.service.batch_micros(size, share).max(1));
                    self.stats.failovers.inc();
                } else {
                    // Nothing covers the fault: the batch still occupies
                    // the worker until the fault surfaces, then every
                    // member fails with a typed shard error.
                    shard_failed = true;
                }
            }
        }
        self.worker_busy[worker] = true;
        self.schedule(now.saturating_add(service_us), Event::WorkerFree { worker });
        self.running[worker] = Some(RunningBatch {
            items: pass,
            service_us,
            shard_failed,
        });
    }

    /// Finalizes a finished pass: a member cancelled or past its
    /// deadline mid-run surfaces its typed error without failing its
    /// pass-mates; survivors record the shared service time and seed
    /// the session cache.
    fn complete(&mut self, worker: usize, at: u64) {
        let run = self.running[worker].take().expect("worker had a batch");
        self.worker_busy[worker] = false;
        let size = run.items.len();
        for p in run.items {
            // An unrecoverable shard fault (R=1) is a typed error, never
            // a wrong selection.
            let failure = if run.shard_failed {
                Some(ServeError::ShardFailure("simulated shard fault".into()))
            } else {
                p.verdict(at)
            };
            if let Some(err) = failure {
                self.stats.count_failure(&err);
                self.answer(p.req, p.first_attempt, false, at);
                continue;
            }
            self.stats.service_us.record(run.service_us);
            self.stats.completed.inc();
            if let Some(cache) = &mut self.cache {
                cache.store_selection(&p.req.session, p.req.corpus, &(), p.req.key, &());
            }
            self.answer(p.req, p.first_attempt, true, at);
        }
        self.stats.in_flight.sub(size as u64);
    }

    /// Delivers the reply to the caller: sample or error, digest fold,
    /// and — for closed-loop clients — the next submission at the reply
    /// instant.
    fn answer(&mut self, req: SimRequest, first_attempt: u64, ok: bool, at: u64) {
        let latency = at.saturating_sub(first_attempt);
        self.mix(if ok { 4 } else { 5 }, at, req.id);
        self.samples.push((req.high_class, ok.then_some(latency)));
        if let Some(c) = req.client {
            if let Some(next) = self.client_streams[c].pop_front() {
                self.schedule(
                    at,
                    Event::Submit {
                        req: next,
                        first_attempt: at,
                    },
                );
            }
        }
    }

    fn finish(self, label: &str, requests: u64, split_classes: bool) -> SimReport {
        SimReport {
            label: label.to_string(),
            requests,
            events: self.events,
            digest: self.digest,
            run: LoadReport::from_samples(
                &self.samples,
                self.retries,
                self.now as f64 / 1e6,
                split_classes,
                Some(self.stats.snapshot()),
            ),
        }
    }
}

/// Removes the entries of `stage` that are dead at `now`, in order, with
/// their typed errors.
fn take_dead(stage: &mut VecDeque<SimPending>, now: u64) -> Vec<(SimPending, ServeError)> {
    let mut dead = Vec::new();
    let mut i = 0;
    while i < stage.len() {
        match stage[i].verdict(now) {
            Some(err) => dead.push((stage.remove(i).expect("index in bounds"), err)),
            None => i += 1,
        }
    }
    dead
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{Calibration, ServiceModel};
    use prism_device::{DeviceSpec, ScatterGatherCost, ServeBatchCost};
    use prism_model::{ModelArch, ModelConfig};
    use prism_workload::TraceProfile;
    use std::time::Duration;

    fn flat_service(us: f64) -> ServiceModel {
        ServiceModel::calibrated(Calibration {
            batch_fixed_us: us,
            per_request_us: 0.0,
            per_token_us: 0.0,
        })
    }

    fn req(id: u64, tokens: usize) -> SimRequest {
        SimRequest {
            id,
            session: id % 4,
            corpus: id,
            key: id,
            tokens,
            priority: Priority::Normal,
            deadline_us: None,
            cancel_after_us: None,
            high_class: false,
            client: None,
        }
    }

    fn serial_config() -> ServeConfig {
        ServeConfig {
            workers: 1,
            max_batch_requests: 1,
            session_cache_capacity: 0,
            ..Default::default()
        }
    }

    #[test]
    fn serial_open_loop_matches_hand_computation() {
        // Two requests arriving at 0 and 100us on one serial worker with
        // a flat 1000us service time: completions at 1000 and 2000.
        let arrivals = vec![(0_u64, req(0, 10)), (100_u64, req(1, 10))];
        let mut sim = Simulation::new(&serial_config(), flat_service(1_000.0));
        sim.event_loop(arrivals.into_iter());
        let report = sim.finish("hand", 2, false);
        assert_eq!(report.run.completed, 2);
        assert_eq!(report.stats().batches, 2);
        assert_eq!(report.stats().completed, 2);
        // First waits 0 then serves 1000; second queues 900 then serves
        // (nearest-rank p50 over two samples picks the upper one).
        assert!((report.run.mean_us - 1_450.0).abs() < 1e-9);
        assert_eq!(report.run.p50_us, 1_900);
        assert_eq!(report.run.max_us, 1_900);
        assert_eq!(report.run.elapsed_s, 2_000.0 / 1e6);
    }

    #[test]
    fn coalescing_batches_under_load() {
        // Eight same-instant arrivals, batch budget 8: one batch.
        let arrivals: Vec<(u64, SimRequest)> = (0..8).map(|i| (0_u64, req(i, 10))).collect();
        let config = ServeConfig {
            workers: 1,
            session_cache_capacity: 0,
            ..Default::default()
        };
        let mut sim = Simulation::new(&config, flat_service(1_000.0));
        sim.event_loop(arrivals.into_iter());
        let report = sim.finish("batched", 8, false);
        assert_eq!(report.run.completed, 8);
        assert_eq!(report.stats().batches, 1);
        assert_eq!(report.stats().batch_size.max, 8);
    }

    #[test]
    fn selection_hits_complete_instantly() {
        // Same (session, corpus, key) back to back on a cached config:
        // the repeat replays at pickup with zero service time, without
        // waiting out the coalescing window the first request waited.
        let mut a = req(0, 10);
        let mut b = req(1, 10);
        for r in [&mut a, &mut b] {
            r.session = 7;
            r.corpus = 42;
            r.key = 9;
        }
        let arrivals = vec![(0_u64, a), (10_000_u64, b)];
        let config = ServeConfig {
            workers: 1,
            session_cache_capacity: 8,
            ..Default::default()
        };
        let mut sim = Simulation::new(&config, flat_service(1_000.0));
        sim.event_loop(arrivals.into_iter());
        let report = sim.finish("cached", 2, false);
        assert_eq!(report.stats().cache_selection_hits, 1);
        assert_eq!(report.stats().cache_misses, 1);
        // Like the real server, a cache answer joins no pass: one pass
        // ran, for the miss, after its 2 ms window (latency 3 ms); the
        // repeat is answered the instant it is picked up (t = 10 ms).
        assert_eq!(report.stats().batches, 1);
        assert_eq!(report.run.completed, 2);
        assert_eq!(report.run.max_us, 3_000);
        assert_eq!(report.run.elapsed_s, 10_000.0 / 1e6);
        assert_eq!(report.stats().queued_us.max, 2_000);
    }

    #[test]
    fn sharded_servers_replay_no_embeddings() {
        // Same session and corpus, different memo keys, one coalesced
        // pass: the first miss's probe caches the embedding the second
        // replays — unless the modeled server is sharded, which keeps no
        // embedding replay (`server.rs::probe`'s miss path).
        let pair = |service: ServiceModel| {
            let (mut a, mut b) = (req(0, 10), req(1, 10));
            for r in [&mut a, &mut b] {
                r.session = 3;
                r.corpus = 42;
            }
            let config = ServeConfig {
                workers: 1,
                session_cache_capacity: 8,
                ..Default::default()
            };
            let mut sim = Simulation::new(&config, service);
            sim.event_loop(vec![(0_u64, a), (0_u64, b)].into_iter());
            let report = sim.finish("pair", 2, false);
            assert_eq!(report.stats().batches, 1, "one coalesced batch");
            (report.stats().cache_embed_hits, report.stats().cache_misses)
        };
        assert_eq!(pair(flat_service(1_000.0)), (1, 1));
        let worker = ServeBatchCost::new(
            ModelConfig::test_config(ModelArch::DecoderOnly, 6),
            DeviceSpec::apple_m2(),
        );
        let sharded = ServiceModel::sharded(ScatterGatherCost::new(worker, 2));
        assert_eq!(pair(sharded), (0, 2));
    }

    #[test]
    fn unrecoverable_shard_faults_count_as_answered() {
        // Like `Pending::fail` on the server: a shard error answers the
        // request, so it counts in `completed` (only cancellations and
        // deadline sheds do not).
        let arrivals: Vec<(u64, SimRequest)> = (0..4).map(|i| (i * 10_000, req(i, 10))).collect();
        let mut sim = Simulation::new(&serial_config(), flat_service(1_000.0));
        sim.set_faults(Some(SimFaults {
            seed: 1,
            per_mille: 1000,
            shards: 2,
            replicas: 1,
        }));
        sim.event_loop(arrivals.into_iter());
        let report = sim.finish("faulted", 4, false);
        assert_eq!((report.run.completed, report.run.errors), (0, 4));
        assert_eq!(report.stats().completed, 4);
        assert_eq!(report.stats().cancelled + report.stats().deadline_missed, 0);
    }

    #[test]
    fn queued_deadline_is_shed_not_executed() {
        // Deadline shorter than the wait behind a long-running batch.
        let mut dead = req(1, 10);
        dead.deadline_us = Some(500);
        let arrivals = vec![(0_u64, req(0, 10)), (1_u64, dead)];
        let mut sim = Simulation::new(&serial_config(), flat_service(10_000.0));
        sim.event_loop(arrivals.into_iter());
        let report = sim.finish("deadline", 2, false);
        assert_eq!(report.stats().deadline_missed, 1);
        assert_eq!(report.run.completed, 1);
        assert_eq!(report.run.errors, 1);
    }

    #[test]
    fn cancellation_mid_flight_is_counted() {
        let mut victim = req(0, 10);
        victim.cancel_after_us = Some(500);
        let arrivals = vec![(0_u64, victim)];
        let mut sim = Simulation::new(&serial_config(), flat_service(10_000.0));
        sim.event_loop(arrivals.into_iter());
        let report = sim.finish("cancel", 1, false);
        assert_eq!(report.stats().cancelled, 1);
        assert_eq!(report.run.completed, 0);
    }

    #[test]
    fn open_loop_backpressure_drops_and_counts() {
        // Queue capacity 1, slow worker, burst of arrivals at t=0:
        // extras are rejected.
        let config = ServeConfig {
            workers: 1,
            queue_capacity: 1,
            max_batch_requests: 1,
            session_cache_capacity: 0,
            ..Default::default()
        };
        let arrivals: Vec<(u64, SimRequest)> = (0..4).map(|i| (0_u64, req(i, 10))).collect();
        let mut sim = Simulation::new(&config, flat_service(1_000_000.0));
        sim.event_loop(arrivals.into_iter());
        let report = sim.finish("burst", 4, false);
        assert!(
            report.stats().rejected >= 2,
            "rejected {}",
            report.stats().rejected
        );
        assert_eq!(
            report.run.backpressure_retries, 0,
            "open loop never retries"
        );
        assert_eq!(report.run.completed + report.run.errors, 4);
    }

    #[test]
    fn closed_loop_retries_absorb_backpressure() {
        let config = ServeConfig {
            workers: 1,
            queue_capacity: 1,
            max_batch_requests: 1,
            session_cache_capacity: 0,
            ..Default::default()
        };
        let mut streams: Vec<VecDeque<SimRequest>> = vec![VecDeque::new(); 4];
        for i in 0..16_u64 {
            let mut r = req(i, 10);
            r.client = Some((i % 4) as usize);
            streams[(i % 4) as usize].push_back(r);
        }
        let report = Simulation::run_closed(
            &config,
            flat_service(5_000.0),
            streams,
            "closed",
            false,
            None,
        );
        assert_eq!(report.run.completed, 16, "closed loop completes everything");
        assert!(report.run.backpressure_retries > 0);
        assert!(report.stats().rejected > 0);
    }

    #[test]
    fn starvation_promotion_counts_inversions() {
        // A steady stream of High arrivals over an aged Bulk request:
        // the starvation guard eventually promotes the bulk item and
        // records a priority inversion.
        let config = ServeConfig {
            workers: 1,
            max_batch_requests: 1,
            session_cache_capacity: 0,
            max_batch_wait: Duration::from_micros(100),
            starvation_age: Duration::from_millis(5),
            ..Default::default()
        };
        // A filler occupies the serial worker for 50ms; the bulk request
        // queues behind it at t=1us, then High arrivals pile in every
        // 400us. When the worker frees, the bulk item has aged past the
        // 5ms starvation bound and must be promoted past the waiting
        // High work.
        let mut arrivals: Vec<(u64, SimRequest)> = vec![(0, req(99, 10))];
        let mut bulk = req(0, 10);
        bulk.priority = Priority::Bulk;
        arrivals.push((1, bulk));
        for i in 1..40_u64 {
            let mut high = req(i, 10);
            high.priority = Priority::High;
            high.high_class = true;
            arrivals.push((i * 400, high));
        }
        let mut sim = Simulation::new(&config, flat_service(50_000.0));
        sim.event_loop(arrivals.into_iter());
        let report = sim.finish("starvation", 41, true);
        assert!(
            report.stats().priority_inversions > 0,
            "aged bulk must be promoted past waiting high work"
        );
        assert_eq!(report.run.completed, 41);
    }

    #[test]
    fn trace_run_is_deterministic() {
        let config = ServeConfig::default();
        let generator = TraceGenerator::new(TraceProfile::burst_storm(2_000.0), 17);
        let run =
            || Simulation::run_trace(&config, flat_service(900.0), &generator, 5_000, "t", None);
        let (a, b) = (run(), run());
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.events, b.events);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap(),
            "whole report must be bit-identical"
        );
        assert!(a.run.completed + a.run.errors == 5_000);
    }

    /// Replication prices faults: the same fault stream costs latency
    /// (failover replays, zero errors) at R=2 and costs *requests*
    /// (typed shard errors) at R=1 — and both runs replay bit-identically
    /// from the fault seed.
    #[test]
    fn fault_model_prices_replication() {
        let config = ServeConfig::default();
        let generator = TraceGenerator::new(TraceProfile::steady(400.0), 23);
        let faults = |replicas| {
            Some(SimFaults {
                seed: 99,
                per_mille: 200,
                shards: 3,
                replicas,
            })
        };
        let run = |faults| {
            Simulation::run_trace(&config, flat_service(900.0), &generator, 2_000, "t", faults)
        };
        let (clean, covered, exposed) = (run(None), run(faults(2)), run(faults(1)));

        // R=2: every fault is absorbed as a failover replay — no new
        // errors, but the replay premium shows up in service time.
        assert!(covered.stats().failovers > 0, "no faults drawn");
        assert_eq!(
            covered.run.errors, clean.run.errors,
            "R=2 must cover every fault"
        );
        assert!(
            covered.stats().service_us.mean > clean.stats().service_us.mean,
            "failover replay must cost virtual time"
        );

        // R=1: the same draws surface as typed request errors instead.
        assert_eq!(exposed.stats().failovers, 0);
        assert!(
            exposed.run.errors > clean.run.errors,
            "uncovered faults must fail requests"
        );

        // Seeded determinism: the faulted run replays bit-identically.
        let replay = run(faults(2));
        assert_eq!(covered.digest, replay.digest);
        // ... and to pinned bits. This trace repeats corpora, so the pin
        // also fixes when selection hits are answered: at pickup, never
        // inside a pass.
        assert_eq!(covered.digest, 0x08b1_3122_f90c_d9d8);
        assert_eq!(covered.stats().failovers, 202);
        assert_eq!(covered.stats().cache_selection_hits, 466);
        assert_eq!(
            serde_json::to_string(&covered).unwrap(),
            serde_json::to_string(&replay).unwrap()
        );
    }
}
