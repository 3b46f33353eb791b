//! Sharded scatter-gather execution: consistent-hash candidate routing
//! over N engine shards, merged bit-identically to single-engine results.
//!
//! ```text
//!  request (n candidates)
//!      │  ForwardMap: flat slot table, shard = slots[key % SLOTS]
//!      ▼
//!  ┌───────────┬───────────┬───────────┐
//!  │ shard 0   │ shard 1   │ shard 2   │   each: own PrismEngine,
//!  │ sub-batch │ sub-batch │ sub-batch │   local pruning OFF
//!  └─────┬─────┴─────┬─────┴─────┬─────┘
//!        └─ scores ──┼── scores ─┘        per layer boundary
//!                    ▼
//!            ScatterGate (prism-core)     global gate: the same type, seed
//!                    │                    and methods a single engine runs
//!        ┌─ keep-mask per shard ─┐        physical pruning pushed back
//!        ▼                       ▼        to the owning shard
//!  merged top-k == single-engine top-k (bit-identical)
//! ```
//!
//! The routing table is the yanet2 `forward_map` dataplane idiom: a flat
//! array indexed by `key % slots`, rebuilt off the hot path when the
//! shard count changes (rendezvous hashing keeps key movement minimal),
//! and read lock-free.
//!
//! The scatter loop is deterministic lockstep in the calling worker
//! thread: the global gate is a per-layer rendezvous by construction, so
//! thread-per-shard fan-out would buy nothing within one request on this
//! class of host — cross-request parallelism comes from the serving
//! worker pool, and each shard engine stays independently owned (its own
//! weights, spill dir and meter), which is what a process-per-shard
//! deployment over `prism-wire` needs.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use prism_core::scatter::{merge_shard_scores, ScatterGate};
use prism_core::{
    ActiveRequest, CancelToken, PartialMode, PrismEngine, PrismError, ProgressFn, RequestOptions,
    Selection,
};
use prism_model::layer::ForwardScratch;
use prism_model::SequenceBatch;
use prism_semcache::hash::{fnv1a, mix64, FNV_OFFSET};

use crate::stats::ServeStats;

/// Number of routing slots in a [`ForwardMap`] (power of two; ~1k slots
/// per shard at the largest supported shard count keeps balance tight).
pub const FORWARD_SLOTS: usize = 4096;

/// FNV-1a over a candidate's token content — the routing key. Content
/// hashing (not position hashing) keeps routing deterministic across
/// requests: the same candidate text always lands on the same shard, so
/// shard-local caches stay warm.
pub fn candidate_key(tokens: &[u32]) -> u64 {
    tokens
        .iter()
        .fold(FNV_OFFSET, |h, t| fnv1a(h, &t.to_le_bytes()))
}

/// Flat consistent-hash routing table (the yanet2 `forward_map` idiom):
/// shard lookup is one bounds-free array read, `slots[key % len]`.
///
/// Slot ownership uses rendezvous (highest-random-weight) hashing, which
/// gives the three properties the proptest suite pins: deterministic
/// routing, per-shard balance within bounds, and minimal movement — when
/// a shard is added, the only slots that change owner are those the new
/// shard wins; none move between pre-existing shards.
#[derive(Debug, Clone)]
pub struct ForwardMap {
    slots: Vec<u16>,
    shards: usize,
}

impl ForwardMap {
    /// Builds the table for `shards` shards over [`FORWARD_SLOTS`] slots.
    pub fn new(shards: usize) -> Self {
        Self::with_slots(shards, FORWARD_SLOTS)
    }

    /// Builds the table with an explicit slot count (tests).
    pub fn with_slots(shards: usize, slots: usize) -> Self {
        let shards = shards.max(1);
        assert!(shards <= u16::MAX as usize, "shard count fits u16");
        let table = (0..slots.max(1))
            .map(|slot| {
                (0..shards)
                    .max_by_key(|&shard| {
                        (
                            mix64((slot as u64) << 16 | shard as u64),
                            // Ties (never observed with mix64, but the
                            // contract must not depend on that) go to the
                            // lower shard id, deterministically.
                            usize::MAX - shard,
                        )
                    })
                    .expect("at least one shard") as u16
            })
            .collect();
        ForwardMap {
            slots: table,
            shards,
        }
    }

    /// Shard owning `key` — the hot-path lookup: one masked index.
    pub fn shard_of(&self, key: u64) -> usize {
        self.slots[(key % self.slots.len() as u64) as usize] as usize
    }

    /// The key's replica set: up to `r` shards in rendezvous rank order.
    /// Rank 0 is always [`ForwardMap::shard_of`] (the primary); the
    /// failover coordinator walks the remaining ranks when the primary
    /// dies. Rendezvous ranking gives every slot an independent replica
    /// ordering, so a dead shard's load spreads across *all* survivors
    /// instead of doubling up one neighbor.
    pub fn replicas_of(&self, key: u64, r: usize) -> Vec<usize> {
        let slot = (key % self.slots.len() as u64) as usize;
        let mut ranked: Vec<usize> = (0..self.shards).collect();
        ranked.sort_by_key(|&shard| {
            // Highest weight first; ties (same contract as the table
            // build) go to the lower shard id.
            std::cmp::Reverse((
                mix64((slot as u64) << 16 | shard as u64),
                usize::MAX - shard,
            ))
        });
        ranked.truncate(r.clamp(1, self.shards));
        ranked
    }

    /// Number of shards the table routes across.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The raw slot table (diagnostics, balance tests).
    pub fn slots(&self) -> &[u16] {
        &self.slots
    }
}

/// Injected failure mode of one shard (fault-injection test hook; the
/// default `Healthy` path costs one relaxed atomic load per layer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardFault {
    /// Normal operation.
    Healthy,
    /// The shard is unreachable: any request touching it fails with
    /// [`PrismError::ShardFailure`] at the next layer boundary.
    Dead,
    /// The shard stalls for the given duration at every layer boundary
    /// (drives deadline-expiry paths without wall-clock flakiness).
    Slow(Duration),
}

struct FaultCell {
    // 0 = healthy, 1 = dead, 2 = slow (stall micros in `slow_us`).
    mode: AtomicU64,
    slow_us: AtomicU64,
}

impl FaultCell {
    fn new() -> Self {
        FaultCell {
            mode: AtomicU64::new(0),
            slow_us: AtomicU64::new(0),
        }
    }

    fn set(&self, fault: ShardFault) {
        match fault {
            ShardFault::Healthy => self.mode.store(0, Ordering::Release),
            ShardFault::Dead => self.mode.store(1, Ordering::Release),
            ShardFault::Slow(d) => {
                self.slow_us.store(d.as_micros() as u64, Ordering::Release);
                self.mode.store(2, Ordering::Release);
            }
        }
    }

    fn get(&self) -> ShardFault {
        match self.mode.load(Ordering::Acquire) {
            0 => ShardFault::Healthy,
            1 => ShardFault::Dead,
            _ => ShardFault::Slow(Duration::from_micros(self.slow_us.load(Ordering::Acquire))),
        }
    }
}

/// One shard's in-flight part of a scattered request.
struct ShardRun {
    shard: usize,
    /// Global candidate ids this shard owns, ascending.
    ids: Vec<usize>,
    req: ActiveRequest,
}

/// N engine shards behind a [`ForwardMap`], executing requests by
/// scatter-gather with the global gate in `prism_core::ScatterGate`.
///
/// Every shard engine must resolve routing identically (same seed,
/// threshold, mode, clustering bounds) — validated at construction — and
/// hold its layer weights resident (the stepping API's requirement).
pub struct ShardSet {
    engines: Vec<Arc<PrismEngine>>,
    map: ForwardMap,
    faults: Vec<FaultCell>,
    /// Replication factor R: each routing key has an R-way replica set
    /// (rendezvous rank order). `1` disables failover entirely.
    replicas: usize,
    /// Tail-latency hedge: a shard stalling at least this long at a
    /// boundary has its sub-batch re-sent to the next replica, first
    /// success wins. `None` disables hedging (stalls are waited out).
    hedge: Option<Duration>,
    /// Resilience telemetry sink (failovers, hedges). Shares state with
    /// the serving layer's instruments when attached.
    stats: ServeStats,
    /// Tag source for untagged requests (same rule as the engine's own).
    counter: AtomicU64,
    /// Scratch workspaces reused across scatter calls (per-call take/put,
    /// same pattern as the engine's own pool).
    scratch: Mutex<Vec<ForwardScratch>>,
}

/// What the fault probe decided for one shard touch.
enum FaultAction {
    /// Healthy (a tolerated stall has already been slept through).
    Proceed,
    /// Re-home this shard's sub-batch onto replicas; `hedged` marks a
    /// stall-triggered hedge rather than a death.
    FailOver { hedged: bool },
}

/// Per-request failover tally, folded into [`ServeStats`] when the
/// request leaves the scatter loop (wins only count on success).
#[derive(Default)]
struct FailTally {
    failovers: u64,
    hedges: u64,
}

impl ShardSet {
    /// Builds a shard set over the given engines.
    pub fn new(engines: Vec<Arc<PrismEngine>>) -> Result<Self, PrismError> {
        if engines.is_empty() {
            return Err(PrismError::InvalidRequest(
                "shard set needs at least one engine".into(),
            ));
        }
        let first = engines[0].options();
        for (i, e) in engines.iter().enumerate() {
            if e.options().streaming {
                return Err(PrismError::InvalidRequest(format!(
                    "shard {i} streams weights; layer stepping requires resident \
                     weights (EngineOptions::streaming = false)"
                )));
            }
        }
        for (i, e) in engines.iter().enumerate().skip(1) {
            let o = e.options();
            let routing_equal = o.seed == first.seed
                && o.dispersion_threshold == first.dispersion_threshold
                && o.mode == first.mode
                && o.pruning == first.pruning
                && o.max_clusters == first.max_clusters;
            if !routing_equal {
                return Err(PrismError::InvalidRequest(format!(
                    "shard {i} resolves routing differently from shard 0; \
                     all shards must share seed/threshold/mode/cluster options"
                )));
            }
            if e.config().num_layers != engines[0].config().num_layers {
                return Err(PrismError::InvalidRequest(format!(
                    "shard {i} has a different model depth"
                )));
            }
        }
        for (i, e) in engines.iter().enumerate().skip(1) {
            if e.options().hidden_offload != first.hidden_offload {
                return Err(PrismError::InvalidRequest(format!(
                    "shard {i} spills hidden states differently from shard 0; \
                     failover replay requires uniform offload configuration"
                )));
            }
        }
        let faults = (0..engines.len()).map(|_| FaultCell::new()).collect();
        let map = ForwardMap::new(engines.len());
        Ok(ShardSet {
            engines,
            map,
            faults,
            replicas: 1,
            hedge: None,
            stats: ServeStats::new(),
            counter: AtomicU64::new(0),
            scratch: Mutex::new(Vec::new()),
        })
    }

    /// Sets the replication factor R (clamped to `1..=shards`). With
    /// `R >= 2`, a dead or hedged shard's surviving candidates are
    /// replayed on each candidate's next-ranked live replica
    /// mid-request, keeping the merged selection bit-identical to the
    /// fault-free result.
    pub fn with_replicas(mut self, r: usize) -> Self {
        self.replicas = r.clamp(1, self.engines.len());
        self
    }

    /// Sets the tail-latency hedge delay: a shard stalling at least this
    /// long at a layer boundary is treated like a failed shard and its
    /// sub-batch re-sent to the next replica (first success wins; the
    /// straggler's run is cancelled and its resources released). `None`
    /// waits out stalls.
    pub fn with_hedge(mut self, hedge: Option<Duration>) -> Self {
        self.hedge = hedge;
        self
    }

    /// Attaches the serving layer's telemetry so failover/hedge counters
    /// land on the same instruments as the rest of the server.
    pub fn attach_stats(&mut self, stats: ServeStats) {
        self.stats = stats;
    }

    /// The configured replication factor.
    pub fn replicas(&self) -> usize {
        self.replicas
    }

    /// The configured hedge delay.
    pub fn hedge(&self) -> Option<Duration> {
        self.hedge
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.engines.len()
    }

    /// The engine of shard `i`.
    pub fn engine(&self, i: usize) -> &Arc<PrismEngine> {
        &self.engines[i]
    }

    /// The routing table.
    pub fn forward_map(&self) -> &ForwardMap {
        &self.map
    }

    /// Injects (or clears) a failure mode on shard `i` — the
    /// fault-injection hook the serving tests drive.
    pub fn inject_fault(&self, i: usize, fault: ShardFault) {
        self.faults[i].set(fault);
    }

    /// Partitions a batch's candidate indices across shards by routing
    /// key. Returns one ascending id list per shard (possibly empty).
    pub fn partition(&self, batch: &SequenceBatch) -> Vec<Vec<usize>> {
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); self.engines.len()];
        for i in 0..batch.num_sequences() {
            let shard = self.map.shard_of(candidate_key(batch.sequence(i)));
            groups[shard].push(i);
        }
        groups
    }

    /// Scatter-gather selection, bit-identical to
    /// `PrismEngine::select_with` on an unsharded engine with the same
    /// routing options.
    pub fn select_with(
        &self,
        batch: &SequenceBatch,
        options: RequestOptions,
    ) -> Result<Selection, PrismError> {
        self.select_with_controls(batch, options, None, None, None)
    }

    /// [`ShardSet::select_with`] plus the serving controls: a shared
    /// cancellation token, an absolute deadline, and a progress sink fed
    /// from the coordinator (one update per layer boundary).
    pub fn select_with_controls(
        &self,
        batch: &SequenceBatch,
        options: RequestOptions,
        cancel: Option<CancelToken>,
        deadline: Option<Instant>,
        progress: Option<ProgressFn>,
    ) -> Result<Selection, PrismError> {
        let n = batch.num_sequences();
        let tag = options
            .tag
            .unwrap_or_else(|| self.counter.fetch_add(1, Ordering::Relaxed) + 1);
        let num_layers = self.engines[0].config().num_layers;
        let mut gate = ScatterGate::new(self.engines[0].options(), &options, n, num_layers, tag)?;

        let mut pool = std::mem::take(&mut *self.scratch.lock().expect("scratch lock"));
        let mut tally = FailTally::default();
        let result = self.run_scatter(
            batch,
            &options,
            tag,
            &mut gate,
            cancel,
            deadline,
            progress.as_ref(),
            &mut pool,
            &mut tally,
        );
        let mut shared = self.scratch.lock().expect("scratch lock");
        if shared.is_empty() {
            *shared = pool;
        }
        drop(shared);
        self.stats.failovers.inc_by(tally.failovers);
        self.stats.hedges_fired.inc_by(tally.hedges);
        match result {
            Ok(runs) => {
                // Release shard resources through the engines' own
                // finalize path (surfaces deferred spill errors, clears
                // spill files and meter bytes); the shard-local ranked
                // lists are meaningless and discarded — the coordinator
                // owns the merged result.
                let mut finalize_err: Option<PrismError> = None;
                for run in runs {
                    let shard = run.shard;
                    match self.engines[shard].finalize_request(run.req) {
                        Ok(sel) => self
                            .stats
                            .slots_quarantined
                            .inc_by(sel.trace.spill_stats.quarantined),
                        Err(e) => {
                            finalize_err.get_or_insert(e);
                        }
                    }
                }
                if let Some(e) = finalize_err {
                    return Err(e);
                }
                // A hedge "wins" when the request it rescued completes.
                self.stats.hedges_won.inc_by(tally.hedges);
                Ok(gate.finalize())
            }
            Err(e) => Err(e),
        }
    }

    /// The lockstep scatter loop. Returns the shard runs for finalization
    /// on success; on failure every `ShardRun` has already been dropped
    /// (its `ActiveRequest` drop guard releases spill files and meter
    /// bytes), so a dead shard or an abort never leaks the survivors.
    #[allow(clippy::too_many_arguments)]
    fn run_scatter(
        &self,
        batch: &SequenceBatch,
        options: &RequestOptions,
        tag: u64,
        gate: &mut ScatterGate,
        cancel: Option<CancelToken>,
        deadline: Option<Instant>,
        progress: Option<&ProgressFn>,
        pool: &mut Vec<ForwardScratch>,
        tally: &mut FailTally,
    ) -> Result<Vec<ShardRun>, PrismError> {
        // Shards failed over away from during *this* request. A shard
        // that recovers mid-request stays down here: its in-flight state
        // for this request is gone, so re-admitting it could only
        // diverge. The next request sees it healthy again.
        let mut down = vec![false; self.engines.len()];

        // ---- Scatter: plan each shard's sub-batch, local pruning off.
        // A shard already dead (or stalling past the hedge) at planning
        // time re-homes its candidates before anything runs: the replica
        // plans the sub-batch directly, no replay needed.
        let mut assign: Vec<Vec<usize>> = vec![Vec::new(); self.engines.len()];
        let mut lost: Vec<usize> = Vec::new();
        for (shard, ids) in self.partition(batch).into_iter().enumerate() {
            if ids.is_empty() {
                continue;
            }
            match self.probe_fault(shard, &down) {
                FaultAction::Proceed => assign[shard].extend(ids),
                FaultAction::FailOver { hedged } => {
                    down[shard] = true;
                    tally.failovers += 1;
                    if hedged {
                        tally.hedges += 1;
                    }
                    for id in ids {
                        match self.next_replica(batch.sequence(id), &down) {
                            Some(s) => assign[s].push(id),
                            None => lost.push(id),
                        }
                    }
                }
            }
        }
        self.drop_lost(gate, options, &lost)?;
        let mut runs: Vec<ShardRun> = Vec::new();
        for (shard, mut ids) in assign.into_iter().enumerate() {
            if ids.is_empty() {
                continue;
            }
            // Re-homed ids interleave with the replica's own: restore the
            // ascending order every run invariantly keeps.
            ids.sort_unstable();
            let req = self.plan_shard_run(batch, options, tag, shard, &ids, &cancel, deadline)?;
            runs.push(ShardRun { shard, ids, req });
        }

        // ---- Seed the global gate with the merged probe scores ----
        gate.seed_probe(merge_runs(&runs));

        // ---- Lockstep layer loop: boundary → global gate → forward ----
        for layer_idx in 0..self.engines[0].config().num_layers {
            // Gate phase. A shard failing here re-homes mid-phase: its
            // replacements are appended, replayed up to this boundary,
            // and gated by this same sweep when the cursor reaches them.
            let mut i = 0;
            while i < runs.len() {
                let shard = runs[i].shard;
                match self.probe_fault(shard, &down) {
                    FaultAction::Proceed => {
                        self.engines[shard].gate_planned(&mut runs[i].req, layer_idx)?;
                        if runs[i].req.is_aborted() {
                            // Cancelled / past deadline: the aborting
                            // shard's finalize carries the typed error;
                            // dropping the other runs releases their
                            // resources immediately.
                            let aborted = runs.swap_remove(i);
                            runs.clear();
                            return match self.engines[shard].finalize_request(aborted.req) {
                                Err(e) => Err(e),
                                Ok(_) => Err(PrismError::Cancelled),
                            };
                        }
                        i += 1;
                    }
                    FaultAction::FailOver { hedged } => self.fail_over(
                        &mut runs, i, hedged, batch, options, tag, gate, &cancel, deadline,
                        &mut down, layer_idx, false, pool, tally,
                    )?,
                }
            }
            let step = gate.gate(layer_idx);
            if let Some(keep) = &step.keep {
                for run in runs.iter_mut() {
                    if run.req.is_done() {
                        continue;
                    }
                    let local: Vec<bool> = run.ids.iter().map(|&g| keep[g]).collect();
                    if local.iter().all(|&k| k) {
                        continue;
                    }
                    self.engines[run.shard].apply_keep_mask(&mut run.req, &local)?;
                }
            }
            if let Some(sink) = progress {
                sink(gate.progress(layer_idx));
            }
            if step.done {
                for run in runs.iter_mut() {
                    self.engines[run.shard].terminate_planned(&mut run.req);
                }
                break;
            }
            // Forward phase. Replacements planned here replay the earlier
            // layers *and* this boundary's gate, then this sweep forwards
            // them through the current layer like everyone else.
            let mut i = 0;
            while i < runs.len() {
                if runs[i].req.is_done() {
                    i += 1;
                    continue;
                }
                let shard = runs[i].shard;
                match self.probe_fault(shard, &down) {
                    FaultAction::Proceed => {
                        self.engines[shard].forward_planned_layer(
                            &mut runs[i].req,
                            layer_idx,
                            pool,
                        )?;
                        i += 1;
                    }
                    FaultAction::FailOver { hedged } => self.fail_over(
                        &mut runs, i, hedged, batch, options, tag, gate, &cancel, deadline,
                        &mut down, layer_idx, true, pool, tally,
                    )?,
                }
            }
            gate.observe_layer(merge_runs(&runs));
        }
        Ok(runs)
    }

    /// Plans one shard's sub-batch run (local pruning off, shared tag)
    /// and attaches the request's controls.
    #[allow(clippy::too_many_arguments)] // internal plumbing: one call site, grouped by request
    fn plan_shard_run(
        &self,
        batch: &SequenceBatch,
        options: &RequestOptions,
        tag: u64,
        shard: usize,
        ids: &[usize],
        cancel: &Option<CancelToken>,
        deadline: Option<Instant>,
    ) -> Result<ActiveRequest, PrismError> {
        let sub = batch.gather(ids)?;
        let mut shard_options = options.clone();
        shard_options.pruning = Some(false);
        shard_options.k = options.k.min(ids.len()).max(1);
        shard_options.tag = Some(tag);
        let mut req = self.engines[shard].plan_request(&sub, shard_options)?;
        if let Some(token) = cancel {
            req.attach_cancel(token.clone());
        }
        if let Some(d) = deadline {
            req.attach_deadline(d);
        }
        Ok(req)
    }

    /// Re-homes a failed (or hedged) run's surviving candidates onto each
    /// candidate's next-ranked live replica, replaying the already
    /// forwarded layers so the replacements rejoin the lockstep boundary.
    /// The failed run is dropped immediately — its `ActiveRequest` drop
    /// guard releases spill files and meter bytes (the hedge's "loser
    /// cancellation"). Candidates whose whole replica set is down either
    /// fail the request ([`PartialMode::Fail`]) or shrink its coverage
    /// ([`PartialMode::Partial`]).
    ///
    /// Replay is score-exact: per-candidate hidden states and boundary
    /// scores are pure functions of the candidate's token content, so the
    /// replica reproduces the straggler's contributions bit-identically —
    /// the chaos suite's parity property.
    #[allow(clippy::too_many_arguments)]
    fn fail_over(
        &self,
        runs: &mut Vec<ShardRun>,
        idx: usize,
        hedged: bool,
        batch: &SequenceBatch,
        options: &RequestOptions,
        tag: u64,
        gate: &mut ScatterGate,
        cancel: &Option<CancelToken>,
        deadline: Option<Instant>,
        down: &mut [bool],
        replay_layers: usize,
        gate_current: bool,
        pool: &mut Vec<ForwardScratch>,
        tally: &mut FailTally,
    ) -> Result<(), PrismError> {
        let failed = runs.swap_remove(idx);
        down[failed.shard] = true;
        tally.failovers += 1;
        if hedged {
            tally.hedges += 1;
        }
        let survivors: Vec<usize> = failed
            .ids
            .iter()
            .copied()
            .filter(|&g| gate.is_active(g))
            .collect();
        // Loser cancellation: the failed run's drop guard releases its
        // spill files and meter bytes now, before any replica plans.
        drop(failed);

        let mut assign: Vec<Vec<usize>> = vec![Vec::new(); self.engines.len()];
        let mut lost: Vec<usize> = Vec::new();
        for g in survivors {
            match self.next_replica(batch.sequence(g), down) {
                Some(s) => assign[s].push(g),
                None => lost.push(g),
            }
        }
        self.drop_lost(gate, options, &lost)?;
        for (shard, ids) in assign.into_iter().enumerate() {
            if ids.is_empty() {
                continue;
            }
            // `ids` inherit the failed run's ascending order.
            let mut req =
                self.plan_shard_run(batch, options, tag, shard, &ids, cancel, deadline)?;
            let abort = |req: ActiveRequest, runs: &mut Vec<ShardRun>| {
                runs.clear();
                match self.engines[shard].finalize_request(req) {
                    Err(e) => Err(e),
                    Ok(_) => Err(PrismError::Cancelled),
                }
            };
            for l in 0..replay_layers {
                self.engines[shard].gate_planned(&mut req, l)?;
                if req.is_aborted() {
                    return abort(req, runs);
                }
                self.engines[shard].forward_planned_layer(&mut req, l, pool)?;
            }
            if gate_current {
                self.engines[shard].gate_planned(&mut req, replay_layers)?;
                if req.is_aborted() {
                    return abort(req, runs);
                }
            }
            runs.push(ShardRun { shard, ids, req });
        }
        Ok(())
    }

    /// Handles candidates whose every replica is down: fail the request
    /// ([`PartialMode::Fail`], the default) or drop them from the global
    /// gate and serve a best-effort top-k over the survivors
    /// ([`PartialMode::Partial`], surfaced as `Selection::coverage < 1`).
    fn drop_lost(
        &self,
        gate: &mut ScatterGate,
        options: &RequestOptions,
        lost: &[usize],
    ) -> Result<(), PrismError> {
        if lost.is_empty() {
            return Ok(());
        }
        match options.on_partial {
            PartialMode::Fail => Err(PrismError::ShardFailure(format!(
                "shard replicas exhausted for {} candidate(s)",
                lost.len()
            ))),
            PartialMode::Partial => {
                gate.remove_candidates(lost);
                Ok(())
            }
        }
    }

    /// The next-ranked live replica for a candidate, or `None` when its
    /// whole replica set is down or dead.
    fn next_replica(&self, tokens: &[u32], down: &[bool]) -> Option<usize> {
        self.map
            .replicas_of(candidate_key(tokens), self.replicas)
            .into_iter()
            .find(|&s| !down[s] && self.faults[s].get() != ShardFault::Dead)
    }

    /// Probes shard `i`'s injected fault state: healthy proceeds, a
    /// tolerated stall is slept out, and a death — or a stall at or past
    /// the hedge delay, with replication enabled — asks for failover. A
    /// shard already failed away from this request stays down for the
    /// request's remainder even if it recovers mid-flight (its in-flight
    /// state is gone); the next request sees it healthy again.
    fn probe_fault(&self, shard: usize, down: &[bool]) -> FaultAction {
        if down[shard] {
            return FaultAction::FailOver { hedged: false };
        }
        match self.faults[shard].get() {
            ShardFault::Healthy => FaultAction::Proceed,
            ShardFault::Dead => FaultAction::FailOver { hedged: false },
            ShardFault::Slow(d) => match self.hedge {
                Some(h) if self.replicas > 1 && d >= h => FaultAction::FailOver { hedged: true },
                _ => {
                    std::thread::sleep(d);
                    FaultAction::Proceed
                }
            },
        }
    }
}

/// Gathers every live run's shard-local scores, translated to global
/// candidate ids, merged ascending.
fn merge_runs(runs: &[ShardRun]) -> Vec<(usize, f32)> {
    let per_shard: Vec<Vec<(usize, f32)>> = runs
        .iter()
        .map(|run| {
            run.req
                .scores()
                .iter()
                .map(|&(local, s)| (run.ids[local], s))
                .collect()
        })
        .collect();
    merge_shard_scores(&per_shard)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_map_routes_deterministically() {
        let m = ForwardMap::new(3);
        for key in [0_u64, 1, 42, u64::MAX, 0xDEAD_BEEF] {
            let s = m.shard_of(key);
            assert!(s < 3);
            assert_eq!(s, m.shard_of(key), "same key, same shard");
            assert_eq!(s, ForwardMap::new(3).shard_of(key), "rebuild-stable");
        }
    }

    #[test]
    fn forward_map_single_shard_routes_everything_to_zero() {
        let m = ForwardMap::new(1);
        assert!(m.slots().iter().all(|&s| s == 0));
    }

    #[test]
    fn growth_moves_slots_only_to_the_new_shard() {
        for n in 1..6_usize {
            let before = ForwardMap::new(n);
            let after = ForwardMap::new(n + 1);
            for (slot, (&a, &b)) in before.slots().iter().zip(after.slots()).enumerate() {
                if a != b {
                    assert_eq!(
                        b as usize, n,
                        "slot {slot} moved between pre-existing shards ({a} -> {b})"
                    );
                }
            }
        }
    }

    #[test]
    fn replica_rank_zero_is_the_primary() {
        let m = ForwardMap::new(5);
        for key in [0_u64, 7, 42, 0xDEAD_BEEF, u64::MAX] {
            for r in 1..=5 {
                let reps = m.replicas_of(key, r);
                assert_eq!(reps.len(), r);
                assert_eq!(reps[0], m.shard_of(key), "rank 0 must be shard_of");
                // Distinct shards, rebuild-stable ranking.
                let mut sorted = reps.clone();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(sorted.len(), r, "replica set has duplicates: {reps:?}");
                assert_eq!(reps, ForwardMap::new(5).replicas_of(key, r));
            }
        }
    }

    #[test]
    fn replica_count_clamps_to_shard_count() {
        let m = ForwardMap::new(3);
        assert_eq!(m.replicas_of(9, 0).len(), 1, "r=0 clamps up to 1");
        assert_eq!(m.replicas_of(9, 99).len(), 3, "r>shards clamps down");
    }

    #[test]
    fn replica_rankings_spread_secondary_load() {
        // Rendezvous ranking: the rank-1 replica of keys owned by one
        // primary must not all pile onto a single neighbor.
        let m = ForwardMap::new(4);
        let mut secondaries = std::collections::HashSet::new();
        for key in 0..256_u64 {
            let reps = m.replicas_of(key, 2);
            if reps[0] == 0 {
                secondaries.insert(reps[1]);
            }
        }
        assert!(
            secondaries.len() > 1,
            "all of shard 0's keys fail over to one shard: {secondaries:?}"
        );
    }

    #[test]
    fn candidate_key_is_content_hash() {
        assert_eq!(candidate_key(&[1, 2, 3]), candidate_key(&[1, 2, 3]));
        assert_ne!(candidate_key(&[1, 2, 3]), candidate_key(&[3, 2, 1]));
        assert_ne!(candidate_key(&[1]), candidate_key(&[1, 1]));
        // Routing slots must survive refactors of the hash plumbing:
        // values computed before FNV-1a moved into `prism-semcache`.
        assert_eq!(candidate_key(&[1, 2, 3]), 0xfd1f_0f43_81eb_0395);
        assert_eq!(
            candidate_key(&[7, 0, 0xFFFF_FFFF, 42]),
            0x4649_6fd6_a3d6_7134
        );
    }

    #[test]
    fn fault_cell_round_trips() {
        let c = FaultCell::new();
        assert_eq!(c.get(), ShardFault::Healthy);
        c.set(ShardFault::Dead);
        assert_eq!(c.get(), ShardFault::Dead);
        c.set(ShardFault::Slow(Duration::from_millis(3)));
        assert_eq!(c.get(), ShardFault::Slow(Duration::from_millis(3)));
        c.set(ShardFault::Healthy);
        assert_eq!(c.get(), ShardFault::Healthy);
    }
}
