//! The serving runtime: worker pool over one shared engine.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use prism_api::{SelectionHandle, SelectionOutcome, SelectionService, ServiceError};
use prism_core::{
    rank_full_scores, ActiveRequest, PrismEngine, PrismError, RequestOptions, Selection,
};
use prism_model::layer::ForwardScratch;
use prism_model::SequenceBatch;

use crate::config::ServeConfig;
use crate::queue::{Pending, Probed, SubmissionQueue, Work};
use crate::scheduler::BatchPlanner;
use crate::semantic::{merge_tail_scores, replay_selection, SemState, SemanticLayer};
use crate::stats::ServeStats;

struct ServerShared {
    engine: PrismEngine,
    queue: SubmissionQueue,
    planner: BatchPlanner,
    /// Cross-request semantic score cache shared by all sessions;
    /// `None` when disabled by configuration.
    semcache: Option<SemanticLayer>,
    stats: ServeStats,
    ticket: AtomicU64,
}

/// A running PRISM serving instance.
///
/// Owns the worker threads; dropping (or [`PrismServer::shutdown`])
/// closes the submission queue, drains already-accepted requests and
/// joins the workers. Request handles obtained before shutdown remain
/// valid — accepted work is always answered.
pub struct PrismServer {
    shared: Arc<ServerShared>,
    workers: Vec<JoinHandle<()>>,
}

impl PrismServer {
    /// Starts `config.workers` worker threads over `engine`.
    pub fn start(engine: PrismEngine, config: ServeConfig) -> crate::Result<Self> {
        config.validate()?;
        let stats = ServeStats::new();
        let semcache = (config.semcache_capacity_bytes > 0)
            .then(|| SemanticLayer::new(config.semcache_config(engine.config().hidden_dim)));
        let shared = Arc::new(ServerShared {
            engine,
            queue: SubmissionQueue::new(config.queue_capacity, stats.clone(), config.workers),
            planner: config.planner(),
            semcache,
            stats,
            ticket: AtomicU64::new(0),
        });
        let mut workers = Vec::with_capacity(config.workers);
        for i in 0..config.workers {
            let shared = Arc::clone(&shared);
            let handle = std::thread::Builder::new()
                .name(format!("prism-serve-{i}"))
                .spawn(move || worker_loop(&shared))
                .map_err(|e| ServiceError::Config(format!("spawning worker {i}: {e}")))?;
            workers.push(handle);
        }
        Ok(PrismServer { shared, workers })
    }

    /// Live serving telemetry (shared handles — cheap to clone).
    pub fn stats(&self) -> &ServeStats {
        &self.shared.stats
    }

    /// The engine behind this server.
    pub fn engine(&self) -> &PrismEngine {
        &self.shared.engine
    }

    /// The cross-request semantic cache tier, when enabled (byte meter
    /// and leak audits for tests and telemetry).
    pub fn semcache(&self) -> Option<&SemanticLayer> {
        self.shared.semcache.as_ref()
    }

    /// The one way in: a cloneable [`SelectionService`] labelled
    /// `session`. The label names the caller (the wire server passes its
    /// connection's session); no cache is keyed by it, and every session
    /// shares the semantic cache. Submissions fail fast with
    /// [`ServiceError::Backpressure`] when the queue is full and
    /// [`ServiceError::DeadlineExceeded`] when the deadline has already
    /// passed at admission; accepted ones return non-blocking
    /// `SelectionHandle`s with cancellation, deadlines and progress.
    pub fn service(&self, session: impl Into<String>) -> RemoteService {
        RemoteService {
            shared: Arc::clone(&self.shared),
            session: session.into(),
        }
    }

    /// Stops accepting requests, drains the queue and joins the workers.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shared.queue.close();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for PrismServer {
    fn drop(&mut self) {
        self.stop();
    }
}

impl ServerShared {
    /// Resolves ticket/tag/deadline for one submission. A request no
    /// engine can serve, or whose deadline already passed, is rejected
    /// here (the latter counted), before it reaches any cache.
    fn admit(
        &self,
        batch: &SequenceBatch,
        options: &mut RequestOptions,
        now: Instant,
    ) -> Result<(u64, Option<Instant>), ServiceError> {
        // One admission rule for every backend (prism-api owns it).
        let deadline = prism_api::admit(&self.engine, batch, options, now).inspect_err(|e| {
            if matches!(e, ServiceError::DeadlineExceeded) {
                self.stats.deadline_rejected.inc();
            }
        })?;
        let ticket = self.ticket.fetch_add(1, Ordering::Relaxed) + 1;
        if options.tag.is_none() {
            // Pin the routing stream to the submission order so a serving
            // run is reproducible against a sequential reference.
            options.tag = Some(ticket);
        }
        Ok((ticket, deadline))
    }

    fn enqueue(&self, pending: Pending) -> crate::Result<()> {
        match self.queue.push(pending) {
            Ok(()) => {
                self.stats.submitted.inc();
                Ok(())
            }
            Err(e) => {
                if matches!(e, ServiceError::Backpressure { .. }) {
                    self.stats.rejected.inc();
                }
                Err(e)
            }
        }
    }

    fn submit_handle(
        &self,
        batch: SequenceBatch,
        options: RequestOptions,
    ) -> Result<SelectionHandle, ServiceError> {
        let now = Instant::now();
        let mut options = options;
        let (ticket, deadline) = self.admit(&batch, &mut options, now)?;
        let (handle, completion) = SelectionHandle::channel(ticket, deadline);
        self.enqueue(Pending {
            ticket,
            tokens: batch.total_tokens(),
            batch,
            options,
            enqueued: now,
            deadline,
            cancel: handle.cancel_token(),
            reply: completion,
        })?;
        Ok(handle)
    }
}

fn worker_loop(shared: &ServerShared) {
    let mut scratch: Vec<ForwardScratch> = Vec::new();
    while let Some(work) = shared.queue.next_work(&shared.planner) {
        match work {
            Work::Probe(pending) => probe(shared, pending),
            Work::Pass(pass) => run_pass(shared, pass, &mut scratch),
        }
    }
}

/// How one request was served: the timing and provenance half of its
/// [`SelectionOutcome`].
#[derive(Clone, Copy)]
struct Served {
    batch_size: usize,
    queued_us: u64,
    service_us: u64,
    from_cache: bool,
}

fn micros_between(from: Instant, to: Instant) -> u64 {
    to.saturating_duration_since(from).as_micros() as u64
}

/// One pass member bound for execution.
struct RunItem {
    pending: Pending,
    served: Served,
    /// Semantic-cache bookkeeping when the request engaged that tier
    /// (the partial-replay merge and the store happen after finalize).
    sem: Option<SemState>,
}

/// Looks up every candidate of one eligible request in the semantic
/// cache. Returns `Ok(selection)` when every candidate hit (the request
/// is answered without touching the engine), `Err(state)` when at least
/// one candidate is novel.
fn probe_semantic(
    shared: &ServerShared,
    layer: &SemanticLayer,
    pending: &Pending,
) -> Result<Selection, SemState> {
    let stats = &shared.stats;
    let profile = SemanticLayer::profile_byte(&pending.options);
    let probes = layer.lookup(&pending.batch, profile);
    let novel: Vec<usize> = (0..probes.len()).filter(|&i| probes[i].is_none()).collect();
    stats
        .semcache_hits
        .inc_by((probes.len() - novel.len()) as u64);
    stats.semcache_misses.inc_by(novel.len() as u64);
    if novel.is_empty() {
        // Full replay: every candidate's full-depth score is cached, so
        // the exact pruning-off ranking is reproducible without running
        // a single layer.
        return Ok(replay_selection(
            probes.into_iter().flatten().collect(),
            pending.options.k,
            shared.engine.config().num_layers,
        ));
    }
    Err(SemState {
        profile,
        probes,
        novel,
    })
}

/// Merges and stores one finalized request's semantic-cache state,
/// returning the selection to answer with. Only runs on the success
/// path: a cancelled, expired or failed request stores nothing, so no
/// cache or meter bytes can leak from aborted work.
fn resolve_semantic(
    shared: &ServerShared,
    layer: &SemanticLayer,
    pending: &Pending,
    sem: &SemState,
    mut selection: Selection,
) -> Selection {
    if sem.is_partial() {
        // Partial replay: the engine computed only the novel candidates;
        // scatter their scores back through the keep mask and re-rank at
        // the original `k` so the merged result is exactly the full
        // pruning-off order.
        let merged = merge_tail_scores(&sem.probes, &sem.novel, &selection.last_scores);
        let trace = std::mem::take(&mut selection.trace);
        selection = Selection {
            ranked: rank_full_scores(
                &merged,
                pending.options.k,
                shared.engine.config().num_layers,
            ),
            last_scores: merged,
            trace,
        };
    }
    layer.store(
        &pending.batch,
        sem.profile,
        &sem.novel,
        &selection.last_scores,
    );
    shared.stats.semcache_bytes.set(layer.bytes());
    selection
}

/// Plans one request on the shared engine — the full batch, or only the
/// novel candidates of a partially-hit semantic probe — and wires the
/// caller's controls into it: cancel and deadline abort at layer
/// boundaries, progress streams back through the handle.
fn plan(
    shared: &ServerShared,
    pending: &Pending,
    sem: Option<&SemState>,
) -> Result<ActiveRequest, PrismError> {
    let mut planned = match sem.filter(|state| state.is_partial()) {
        Some(state) => {
            let sub_batch = pending.batch.gather(&state.novel)?;
            let mut sub_options = pending.options.clone();
            sub_options.k = sub_options.k.min(state.novel.len());
            shared.engine.plan_request(&sub_batch, sub_options)
        }
        None => shared
            .engine
            .plan_request(&pending.batch, pending.options.clone()),
    }?;
    planned.attach_cancel(pending.cancel.clone());
    if let Some(d) = pending.deadline {
        planned.attach_deadline(d);
    }
    planned.attach_progress(pending.reply.progress_fn());
    Ok(planned)
}

/// The probe half of the one request path, run by a free worker on each
/// arrival before anything waits for company: one semantic-cache lookup
/// per candidate of an eligible request. A full hit leaves here at
/// pickup; anything else enters the coalescing window as a [`Probed`]
/// entry, carrying its semantic state to [`run_pass`].
fn probe(shared: &ServerShared, pending: Pending) {
    let picked_at = Instant::now();
    let layer = shared
        .semcache
        .as_ref()
        .filter(|_| SemanticLayer::eligible(&pending.options, shared.engine.options().pruning));
    let sem = match layer.map(|layer| probe_semantic(shared, layer, &pending)) {
        Some(Ok(selection)) => {
            // The request leaves the queue's count before its caller
            // hears back. A cache answer runs alone, and no layer:
            // service time zero.
            shared.queue.answered_by_probe();
            let cached = Served {
                batch_size: 1,
                queued_us: micros_between(pending.enqueued, picked_at),
                service_us: 0,
                from_cache: true,
            };
            answer(&shared.stats, pending, cached, Ok(selection));
            return;
        }
        Some(Err(state)) => Some(state),
        None => None,
    };
    shared.queue.wait_for_pass(Probed {
        pending,
        sem,
        probe_us: picked_at.elapsed().as_micros() as u64,
    });
}

/// The pass half of the one request path: one set flushed from the
/// coalescing window. Sheds what died while it waited, plans every
/// member — hidden states, spill file and metered bytes exist only from
/// here — runs one pass over the shared engine's weights for all of
/// them, then per request: semantic epilogue → stats → reply
/// ([`finish`]).
fn run_pass(shared: &ServerShared, pass: Vec<Probed>, scratch: &mut Vec<ForwardScratch>) {
    let picked_at = Instant::now();
    let stats = &shared.stats;

    // Last pre-execution cancellation/deadline point: the queue shed
    // dead work when the pass was popped, but the caller may have acted
    // since. Shed first so the pass telemetry and per-response
    // `batch_size` describe what actually executes.
    let pass: Vec<Probed> = pass
        .into_iter()
        .filter_map(|probed| match probed.pending.verdict(picked_at) {
            Some(err) => {
                probed.pending.fail(stats, err);
                None
            }
            None => Some(probed),
        })
        .collect();
    if pass.is_empty() {
        return;
    }
    let size = pass.len();
    stats.batches.inc();
    stats.batch_size.record(size as u64);
    stats
        .batch_tokens
        .record(pass.iter().map(|p| p.pending.tokens as u64).sum());
    stats.in_flight.add(size as u64);

    let mut items: Vec<RunItem> = Vec::with_capacity(size);
    let mut planned: Vec<ActiveRequest> = Vec::with_capacity(size);
    for probed in pass {
        let Probed {
            pending,
            sem,
            probe_us,
        } = probed;
        // The probe's work is service; everything else before the
        // pickup — waiting for a worker, then for company — is queue.
        let served = Served {
            batch_size: size,
            queued_us: micros_between(pending.enqueued, picked_at).saturating_sub(probe_us),
            service_us: probe_us,
            from_cache: false,
        };

        // ---- Plan, on the shared engine ----
        match plan(shared, &pending, sem.as_ref()) {
            Ok(p) => planned.push(p),
            Err(e) => {
                answer(stats, pending, served, Err(e.into()));
                continue;
            }
        }
        items.push(RunItem {
            pending,
            served,
            sem,
        });
    }

    // ---- Run: one pass over the weights for the whole coalesced batch
    // (skipped when every member failed planning) ----
    if !planned.is_empty() {
        match shared.engine.run_planned(&mut planned, scratch) {
            // Finalize per request: an aborted member of the batch
            // (cancelled / past deadline) surfaces as its typed error
            // without failing its batch-mates.
            Ok(()) => {
                for (item, req) in items.into_iter().zip(planned) {
                    let result = shared.engine.finalize_request(req);
                    finish(shared, item, picked_at, result);
                }
            }
            Err(e) => {
                let err = ServiceError::from(e);
                for item in items {
                    answer(stats, item.pending, item.served, Err(err.clone()));
                }
            }
        }
    }
    stats.in_flight.sub(size as u64);
}

/// Epilogue of one executed request. A selection passes through the
/// quarantine counter and the semantic-cache merge and store; a failure
/// skips both (so aborted batch-mates contribute no cache bytes). Either
/// way the request is then answered, with its probe plus everything
/// since its pass was picked as its `service_us` — plan (embed
/// included) and run, so `queued_us + service_us` spans enqueue to
/// reply.
fn finish(
    shared: &ServerShared,
    item: RunItem,
    picked_at: Instant,
    result: Result<Selection, PrismError>,
) {
    let stats = &shared.stats;
    let result = result.map(|selection| {
        stats
            .slots_quarantined
            .inc_by(selection.trace.spill_stats.quarantined);
        match (&item.sem, &shared.semcache) {
            (Some(sem), Some(layer)) => {
                resolve_semantic(shared, layer, &item.pending, sem, selection)
            }
            _ => selection,
        }
    });
    let served = Served {
        service_us: item.served.service_us + picked_at.elapsed().as_micros() as u64,
        ..item.served
    };
    answer(stats, item.pending, served, result.map_err(Into::into));
}

/// Answers one request — every reply of the worker path goes through
/// here: records the queue time, then the service time and the
/// completion, or hands a failure to [`Pending::fail`] (counted by
/// [`ServeStats::count_failure`], which owns the cancelled /
/// deadline-missed / completed split).
fn answer(
    stats: &ServeStats,
    mut pending: Pending,
    served: Served,
    result: Result<Selection, ServiceError>,
) {
    stats.queued_us.record(served.queued_us);
    match result {
        Ok(selection) => {
            stats.service_us.record(served.service_us);
            stats.completed.inc();
            pending.reply.complete(Ok(SelectionOutcome {
                selection,
                ticket: pending.ticket,
                queued_us: served.queued_us,
                service_us: served.service_us,
                batch_size: served.batch_size,
                served_from_cache: served.from_cache,
            }));
        }
        Err(err) => pending.fail(stats, err),
    }
}

/// The serving backend of the `prism-api` facade: a cloneable
/// [`SelectionService`] over a [`PrismServer`], labelled with a session
/// name. The label is only a name: no cache is keyed by it.
/// Submissions flow through the bounded queue and the FIFO coalescing
/// window like every other request; the returned `SelectionHandle`
/// adds mid-flight cancellation and layer-granularity progress on top.
#[derive(Clone)]
pub struct RemoteService {
    shared: Arc<ServerShared>,
    session: String,
}

impl RemoteService {
    /// The session label this service was created with.
    pub fn session(&self) -> &str {
        &self.session
    }
}

impl SelectionService for RemoteService {
    fn submit(
        &self,
        batch: SequenceBatch,
        options: RequestOptions,
    ) -> Result<SelectionHandle, ServiceError> {
        self.shared.submit_handle(batch, options)
    }
}
