//! Deterministic chaos harness for the resilience layer.
//!
//! A [`ChaosPlan`] is a *seeded, replayable* fault schedule: for each
//! request in a run it may bring one shard down ([`ShardFault::Dead`])
//! or make it stall ([`ShardFault::Slow`]) for exactly that request,
//! healing it afterwards. [`run_chaos`] drives the schedule against a
//! real [`ShardSet`] and checks the two properties the resilience layer
//! promises:
//!
//! 1. **Parity** — whenever replication covers the fault (R ≥ 2, single
//!    shard down), the merged selection is bit-identical to the
//!    fault-free golden result.
//! 2. **Hygiene** — no request, faulted or not, leaks spill files or
//!    metered hidden-state/intermediate bytes on any shard
//!    ([`audit_shard_hygiene`]).
//!
//! Determinism is load-bearing: the same seed always produces the same
//! schedule, so a chaos failure from CI replays locally with nothing
//! but the seed. The nightly soak runs the same harness over loopback
//! TCP with concurrent clients (see `tests/chaos_conformance.rs`).

use std::time::Duration;

use prism_core::{PrismError, RequestOptions, Selection};
use prism_metrics::MemCategory;
use prism_model::SequenceBatch;
use prism_semcache::hash::splitmix_next;

use crate::shard::{ShardFault, ShardSet};

/// One scheduled fault: `shard` runs under `fault` for the whole of one
/// request, then is healed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosStep {
    /// Index of the request this fault brackets.
    pub request: usize,
    /// The shard it lands on.
    pub shard: usize,
    /// The injected failure mode.
    pub fault: ShardFault,
}

/// A seeded, replayable fault schedule over `requests` requests against
/// `shards` shards. At most one fault per request — the single-fault
/// envelope R=2 replication is expected to cover with bit-parity.
#[derive(Debug, Clone)]
pub struct ChaosPlan {
    /// The seed that generated (and replays) this schedule.
    pub seed: u64,
    steps: Vec<ChaosStep>,
}

impl ChaosPlan {
    /// Generates the schedule for `seed`: ~2/3 of requests get a fault
    /// (uniform shard; `Dead` twice as often as `Slow`, whose stall is
    /// drawn from 1–4 ms so it straddles typical hedge delays — some
    /// stalls hedge away, some are waited out).
    pub fn seeded(seed: u64, shards: usize, requests: usize) -> Self {
        let mut rng = seed ^ 0xC4A0_5C4A_05C4_A05C;
        let mut steps = Vec::new();
        for request in 0..requests {
            if splitmix_next(&mut rng).is_multiple_of(3) {
                continue; // fault-free request
            }
            let shard = (splitmix_next(&mut rng) % shards.max(1) as u64) as usize;
            let fault = if splitmix_next(&mut rng) % 3 < 2 {
                ShardFault::Dead
            } else {
                let ms = 1 + splitmix_next(&mut rng) % 4;
                ShardFault::Slow(Duration::from_millis(ms))
            };
            steps.push(ChaosStep {
                request,
                shard,
                fault,
            });
        }
        ChaosPlan { seed, steps }
    }

    /// Every scheduled step, in request order.
    pub fn steps(&self) -> &[ChaosStep] {
        &self.steps
    }

    /// The steps bracketing request `request`.
    pub fn steps_for(&self, request: usize) -> impl Iterator<Item = &ChaosStep> {
        self.steps.iter().filter(move |s| s.request == request)
    }
}

/// What one chaos run observed, request by request.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChaosReport {
    /// Requests driven.
    pub requests: usize,
    /// Requests that ran under an injected fault.
    pub faulted: usize,
    /// Requests whose selection matched the golden result bit-for-bit.
    pub matched: usize,
    /// Requests answered with partial coverage
    /// ([`prism_core::PartialMode::Partial`] only).
    pub partial: usize,
    /// Requests that failed with a typed error (replicas exhausted under
    /// the default fail-fast mode).
    pub failed: usize,
}

impl ChaosReport {
    /// True when every request matched its golden bits — the
    /// conformance bar whenever replication covers the schedule.
    pub fn all_matched(&self) -> bool {
        self.matched == self.requests
    }
}

/// Drives `plan` against `set`: per request, inject the scheduled
/// fault, run the selection, heal, and compare against the golden
/// (fault-free) result bit-for-bit. Golden results must come from the
/// same batches/options on a fault-free engine (sharded or not — they
/// are bit-identical by the scatter conformance contract).
///
/// Typed per-request failures are *counted*, not propagated — a chaos
/// schedule that exhausts replicas under fail-fast mode is a legitimate
/// outcome the report surfaces as `failed`. Only infrastructure errors
/// (a failure on a fault-free request) propagate as `Err`.
pub fn run_chaos(
    set: &ShardSet,
    batches: &[SequenceBatch],
    options: &RequestOptions,
    golden: &[Selection],
    plan: &ChaosPlan,
) -> Result<ChaosReport, PrismError> {
    assert_eq!(
        batches.len(),
        golden.len(),
        "one golden selection per batch"
    );
    let mut report = ChaosReport {
        requests: batches.len(),
        ..Default::default()
    };
    for (i, (batch, gold)) in batches.iter().zip(golden).enumerate() {
        let mut faulted = false;
        for step in plan.steps_for(i) {
            set.inject_fault(step.shard, step.fault);
            faulted = true;
        }
        if faulted {
            report.faulted += 1;
        }
        let mut opts = options.clone();
        opts.tag = Some(0xC4A0_0000 ^ i as u64);
        let outcome = set.select_with(batch, opts);
        for step in plan.steps_for(i) {
            set.inject_fault(step.shard, ShardFault::Healthy);
        }
        match outcome {
            Ok(sel) => {
                let same = sel.ranked.len() == gold.ranked.len()
                    && sel
                        .ranked
                        .iter()
                        .zip(&gold.ranked)
                        .all(|(a, b)| a.id == b.id && a.score.to_bits() == b.score.to_bits());
                if !sel.is_complete() {
                    report.partial += 1;
                } else if same {
                    report.matched += 1;
                }
            }
            Err(e) if faulted => {
                // Replicas exhausted (or deadline under a stall): a
                // counted, typed outcome — never a panic or wrong bits.
                let _ = e;
                report.failed += 1;
            }
            Err(e) => return Err(e),
        }
    }
    Ok(report)
}

/// Audits every shard of `set` for leaked resources: spill directories
/// must be empty and the per-shard meters must carry zero hidden-state
/// and intermediate bytes. Call between requests or after a run —
/// anything non-zero is a leak (the engines release request state at
/// finalize/abort, not lazily).
pub fn audit_shard_hygiene(set: &ShardSet) -> Result<(), String> {
    for i in 0..set.shards() {
        let engine = set.engine(i);
        let dir = engine.spill_dir();
        // Only audit private spill dirs: the system temp dir holds
        // unrelated files by design.
        if dir != std::env::temp_dir() {
            let leftover: Vec<String> = std::fs::read_dir(dir)
                .map_err(|e| format!("shard {i}: reading spill dir {}: {e}", dir.display()))?
                .filter_map(|e| e.ok())
                .map(|e| e.file_name().to_string_lossy().into_owned())
                .collect();
            if !leftover.is_empty() {
                return Err(format!("shard {i} leaked spill files: {leftover:?}"));
            }
        }
        for cat in [MemCategory::HiddenStates, MemCategory::Intermediate] {
            let bytes = engine.meter().current(cat);
            if bytes != 0 {
                return Err(format!("shard {i} leaked {bytes} bytes of {cat:?}"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_replay_deterministically() {
        let a = ChaosPlan::seeded(42, 3, 64);
        let b = ChaosPlan::seeded(42, 3, 64);
        assert_eq!(a.steps(), b.steps());
        let c = ChaosPlan::seeded(43, 3, 64);
        assert_ne!(a.steps(), c.steps(), "different seeds must differ");
    }

    /// The schedule is a function of the shared SplitMix64 stream step:
    /// pinned to the bits the private generator it replaced produced, so
    /// a seed from an old CI failure still replays.
    #[test]
    fn seeded_plan_is_pinned_bit_for_bit() {
        use prism_semcache::hash::{fnv1a, FNV_OFFSET};
        let plan = ChaosPlan::seeded(7, 3, 64);
        assert_eq!(plan.steps().len(), 40);
        let step = |request, shard, fault| ChaosStep {
            request,
            shard,
            fault,
        };
        assert_eq!(
            plan.steps()[..4],
            [
                step(1, 0, ShardFault::Slow(Duration::from_millis(4))),
                step(2, 0, ShardFault::Dead),
                step(3, 0, ShardFault::Slow(Duration::from_millis(1))),
                step(5, 1, ShardFault::Dead),
            ]
        );
        let fold = plan.steps().iter().fold(FNV_OFFSET, |h, s| {
            fnv1a(
                h,
                format!("{}:{}:{:?};", s.request, s.shard, s.fault).as_bytes(),
            )
        });
        assert_eq!(fold, 0x9606_a3db_408f_504e);
    }

    #[test]
    fn plans_stay_in_the_single_fault_envelope() {
        let plan = ChaosPlan::seeded(7, 4, 256);
        assert!(!plan.steps().is_empty(), "fault probability too low");
        for w in plan.steps().windows(2) {
            assert!(
                w[1].request > w[0].request,
                "at most one fault per request, in order"
            );
        }
        for s in plan.steps() {
            assert!(s.shard < 4);
            assert_eq!(plan.steps_for(s.request).count(), 1);
        }
        // Both fault flavors appear over a long enough schedule.
        assert!(plan.steps().iter().any(|s| s.fault == ShardFault::Dead));
        assert!(plan
            .steps()
            .iter()
            .any(|s| matches!(s.fault, ShardFault::Slow(_))));
    }

    #[test]
    fn report_matters() {
        let r = ChaosReport {
            requests: 4,
            matched: 4,
            ..Default::default()
        };
        assert!(r.all_matched());
        let r = ChaosReport {
            requests: 4,
            matched: 3,
            partial: 1,
            ..Default::default()
        };
        assert!(!r.all_matched());
    }
}
