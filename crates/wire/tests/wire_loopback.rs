//! Loopback conformance for the wire protocol: selections read off a
//! real TCP socket must be bit-identical to direct engine calls,
//! faults and backpressure must arrive as
//! the same typed errors in-process callers see, cancellation and
//! progress must flow both ways, and malformed frames must be answered
//! with a typed connection-level error — never a hang, never a panic.

use std::io::Write as _;
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use prism_api::{SelectionHandle, SelectionOutcome, SelectionService, ServiceError};
use prism_core::{EngineOptions, PrismEngine, RequestOptions, Selection, SemCacheMode};
use prism_metrics::{MemCategory, MemoryMeter};
use prism_model::{Model, ModelArch, ModelConfig, SequenceBatch};
use prism_serve::{drive_closed_loop, LoadSpec, PrismServer, ServeConfig};
use prism_storage::Container;
use prism_wire::{
    read_frame, write_frame, Message, WireClient, WireError, WireServer, WIRE_VERSION,
};
use prism_workload::{dataset_by_name, WorkloadGenerator};

const K: usize = 4;

fn fixture(tag: &str) -> (ModelConfig, std::path::PathBuf) {
    let config = ModelConfig::test_config(ModelArch::DecoderOnly, 6);
    let model = Model::generate(config.clone(), 42).unwrap();
    let mut path = std::env::temp_dir();
    path.push(format!("prism-wire-it-{tag}-{}.prsm", std::process::id()));
    model.write_container(&path).unwrap();
    (config, path)
}

fn engine_with(
    config: &ModelConfig,
    path: &std::path::Path,
    options: EngineOptions,
) -> PrismEngine {
    PrismEngine::new(
        Container::open(path).unwrap(),
        config.clone(),
        options,
        MemoryMeter::new(),
    )
    .unwrap()
}

fn engine(config: &ModelConfig, path: &std::path::Path) -> PrismEngine {
    engine_with(config, path, EngineOptions::default())
}

/// An engine whose weight stream is throttled to 512 KB/s: about 20 ms
/// per layer of the test model, so a request stays in flight long
/// enough for a cancel, a second submission or a progress poll to race
/// it.
fn slow_engine(config: &ModelConfig, path: &std::path::Path) -> PrismEngine {
    engine_with(
        config,
        path,
        EngineOptions {
            stream_throttle: Some(512 << 10),
            ..Default::default()
        },
    )
}

fn batches(config: &ModelConfig, n: usize, candidates: usize) -> Vec<SequenceBatch> {
    let profile = dataset_by_name("wikipedia").unwrap();
    let generator = WorkloadGenerator::new(profile, config.vocab_size, config.max_seq, 7);
    (0..n)
        .map(|i| SequenceBatch::new(&generator.request(i as u64, candidates).sequences()).unwrap())
        .collect()
}

fn exact_bits(sel: &Selection) -> (Vec<(usize, u32, usize)>, Vec<u32>) {
    (
        sel.ranked
            .iter()
            .map(|r| (r.id, r.score.to_bits(), r.decided_at_layer))
            .collect(),
        sel.last_scores.iter().map(|s| s.to_bits()).collect(),
    )
}

/// Binds an ephemeral loopback port over `server` and connects one
/// client under `session`.
fn wire_pair(server: PrismServer, session: &str) -> (WireServer, WireClient) {
    let wire = WireServer::start(Arc::new(server), "127.0.0.1:0").unwrap();
    let client = WireClient::connect(&wire.local_addr().to_string(), session).unwrap();
    (wire, client)
}

/// Selections submitted over a real socket are bit-identical to direct
/// engine calls — the transport adds no semantics.
#[test]
fn wire_selections_match_direct_engine_bit_for_bit() {
    let (config, path) = fixture("parity");
    let requests = batches(&config, 6, 10);

    let reference: Vec<Selection> = {
        let eng = engine(&config, &path);
        requests
            .iter()
            .enumerate()
            .map(|(i, b)| {
                eng.select_with(b, RequestOptions::tagged(K, i as u64 + 1))
                    .unwrap()
            })
            .collect()
    };

    let server = PrismServer::start(
        engine(&config, &path),
        ServeConfig {
            session_cache_capacity: 0,
            ..Default::default()
        },
    )
    .unwrap();
    let (wire, client) = wire_pair(server, "tenant");

    let handles: Vec<_> = requests
        .iter()
        .enumerate()
        .map(|(i, b)| {
            client
                .submit(b.clone(), RequestOptions::tagged(K, i as u64 + 1))
                .unwrap()
        })
        .collect();
    for (i, (handle, reference)) in handles.into_iter().zip(&reference).enumerate() {
        let outcome = handle.wait().unwrap();
        assert_eq!(
            exact_bits(&outcome.selection),
            exact_bits(reference),
            "request {i} diverged over the wire"
        );
        assert!(!outcome.served_from_cache);
    }

    drop(client);
    wire.shutdown();
    std::fs::remove_file(&path).unwrap();
}

/// `handle.cancel()` on the client travels as a `Cancel` frame and is
/// observed in the queue or at the next layer boundary of the pass.
#[test]
fn cancel_over_the_wire_returns_cancelled() {
    let (config, path) = fixture("cancel");
    let batch = batches(&config, 1, 10).pop().unwrap();

    // A slow weight stream, so the Cancel frame wins the race to a
    // layer boundary.
    let server = PrismServer::start(
        slow_engine(&config, &path),
        ServeConfig {
            session_cache_capacity: 0,
            ..Default::default()
        },
    )
    .unwrap();

    let (wire, client) = wire_pair(server, "tenant");
    let handle = client.submit(batch, RequestOptions::tagged(K, 1)).unwrap();
    handle.cancel();
    let err = handle.wait().unwrap_err();
    assert!(
        matches!(err, ServiceError::Cancelled),
        "expected Cancelled, got {err:?}"
    );

    drop(client);
    wire.shutdown();
    std::fs::remove_file(&path).unwrap();
}

/// Layer-granularity progress streams over the socket while the
/// request is in flight, not only at completion.
#[test]
fn progress_streams_over_the_wire() {
    let (config, path) = fixture("progress");
    let batch = batches(&config, 1, 10).pop().unwrap();

    let server = PrismServer::start(
        slow_engine(&config, &path),
        ServeConfig {
            session_cache_capacity: 0,
            ..Default::default()
        },
    )
    .unwrap();

    let (wire, client) = wire_pair(server, "tenant");
    let handle = client.submit(batch, RequestOptions::tagged(K, 1)).unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut saw_midflight = false;
    loop {
        if handle.poll().is_some() {
            break;
        }
        let p = handle.progress();
        if p.layers_gated >= 1 {
            saw_midflight = true;
            break;
        }
        assert!(
            Instant::now() < deadline,
            "no progress frame observed within 30s"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(saw_midflight, "request finished before any progress frame");
    let outcome = handle.wait().unwrap();
    assert_eq!(outcome.selection.ranked.len(), K);

    drop(client);
    wire.shutdown();
    std::fs::remove_file(&path).unwrap();
}

/// Raw-socket probes: ping round-trips, a garbage frame is answered
/// with a typed connection-level error (request id 0) before the server
/// closes the connection, and an oversized length prefix is rejected
/// without allocating.
#[test]
fn ping_and_malformed_frames_get_typed_answers() {
    let (config, path) = fixture("malformed");
    let server = PrismServer::start(engine(&config, &path), ServeConfig::default()).unwrap();
    let wire = WireServer::start(Arc::new(server), "127.0.0.1:0").unwrap();
    let addr = wire.local_addr().to_string();

    // Client-object ping.
    let client = WireClient::connect(&addr, "tenant").unwrap();
    let rtt = client.ping(Duration::from_secs(10)).unwrap();
    assert!(rtt < Duration::from_secs(10));
    drop(client);

    // Unknown message type after a valid handshake.
    {
        let mut raw = TcpStream::connect(&addr).unwrap();
        write_frame(
            &mut raw,
            &Message::Hello {
                version: WIRE_VERSION,
                session: "raw".into(),
            },
        )
        .unwrap();
        assert!(matches!(
            read_frame(&mut raw).unwrap(),
            Message::HelloAck { .. }
        ));
        // [len = 1][type = 0x7f]: a type the codec has never heard of.
        raw.write_all(&[1, 0, 0, 0, 0x7f]).unwrap();
        match read_frame(&mut raw).unwrap() {
            Message::Error { request_id, error } => {
                assert_eq!(request_id, 0, "malformed frames are connection-level");
                assert!(matches!(error, ServiceError::Config(_)));
            }
            other => panic!("expected connection-level Error, got {other:?}"),
        }
        // The server then closes: framing cannot resync.
        assert!(matches!(read_frame(&mut raw), Err(WireError::Closed)));
    }

    // Oversized length prefix straight after the handshake.
    {
        let mut raw = TcpStream::connect(&addr).unwrap();
        write_frame(
            &mut raw,
            &Message::Hello {
                version: WIRE_VERSION,
                session: "raw2".into(),
            },
        )
        .unwrap();
        assert!(matches!(
            read_frame(&mut raw).unwrap(),
            Message::HelloAck { .. }
        ));
        raw.write_all(&u32::MAX.to_le_bytes()).unwrap();
        match read_frame(&mut raw).unwrap() {
            Message::Error { request_id, .. } => assert_eq!(request_id, 0),
            other => panic!("expected connection-level Error, got {other:?}"),
        }
        assert!(matches!(read_frame(&mut raw), Err(WireError::Closed)));
    }

    // A version the server does not speak is refused in the handshake.
    {
        let mut raw = TcpStream::connect(&addr).unwrap();
        write_frame(
            &mut raw,
            &Message::Hello {
                version: WIRE_VERSION + 1,
                session: "future".into(),
            },
        )
        .unwrap();
        match read_frame(&mut raw).unwrap() {
            Message::Error { request_id, error } => {
                assert_eq!(request_id, 0);
                assert!(matches!(error, ServiceError::Config(_)));
            }
            other => panic!("expected version refusal, got {other:?}"),
        }
    }

    wire.shutdown();
    std::fs::remove_file(&path).unwrap();
}

/// Nightly soak: hundreds of requests from concurrent clients through
/// one loopback wire server over a spilling engine, with pings and
/// cancels interleaved. Every completed selection must stay
/// bit-identical to a direct engine call, every connection must survive
/// the whole run, and after the drain the engine's private spill
/// directory must be empty and its hidden-state and intermediate meters
/// zero.
#[test]
#[ignore = "loopback soak: run explicitly (nightly CI, release)"]
fn wire_loopback_soak_stays_bit_identical() {
    const CLIENTS: usize = 4;
    const PER_CLIENT: usize = 100;
    const DISTINCT: usize = 16;
    let (config, path) = fixture("soak");
    let mut spill_dir = std::env::temp_dir();
    spill_dir.push(format!("prism-wire-it-soak-spill-{}", std::process::id()));
    std::fs::create_dir_all(&spill_dir).unwrap();
    // Ten candidates in chunks of two: two of five chunks spill.
    let spill_options = EngineOptions {
        hidden_offload: true,
        chunk_candidates: Some(2),
        ..Default::default()
    };
    let batch_set = batches(&config, DISTINCT, 10);
    let reference: Vec<_> = {
        let eng = engine_with(&config, &path, spill_options.clone());
        batch_set
            .iter()
            .enumerate()
            .map(|(i, b)| {
                exact_bits(
                    &eng.select_with(b, RequestOptions::tagged(K, i as u64 + 1))
                        .unwrap(),
                )
            })
            .collect()
    };

    let meter = MemoryMeter::new();
    let engine = PrismEngine::new(
        Container::open(&path).unwrap(),
        config.clone(),
        spill_options,
        meter.clone(),
    )
    .unwrap()
    .with_spill_dir(spill_dir.clone());
    let server = PrismServer::start(
        engine,
        ServeConfig {
            session_cache_capacity: 0,
            ..Default::default()
        },
    )
    .unwrap();
    let wire = WireServer::start(Arc::new(server), "127.0.0.1:0").unwrap();
    let addr = wire.local_addr().to_string();

    std::thread::scope(|s| {
        for c in 0..CLIENTS {
            let addr = &addr;
            let batch_set = &batch_set;
            let reference = &reference;
            s.spawn(move || {
                let client = WireClient::connect(addr, format!("soak-{c}")).unwrap();
                for r in 0..PER_CLIENT {
                    let i = (c + r * CLIENTS) % DISTINCT;
                    if r % 23 == 0 {
                        client.ping(Duration::from_secs(10)).unwrap();
                    }
                    let handle = client
                        .submit(
                            batch_set[i].clone(),
                            RequestOptions::tagged(K, i as u64 + 1),
                        )
                        .unwrap();
                    if r % 17 == 5 {
                        // A cancel race: either the request was already
                        // served (then it must match the reference) or
                        // it comes back typed-cancelled.
                        handle.cancel();
                        match handle.wait() {
                            Ok(outcome) => {
                                assert_eq!(exact_bits(&outcome.selection), reference[i]);
                            }
                            Err(ServiceError::Cancelled) => {}
                            Err(e) => panic!("soak cancel came back {e:?}"),
                        }
                    } else {
                        let outcome = handle.wait().unwrap();
                        assert_eq!(exact_bits(&outcome.selection), reference[i]);
                    }
                }
            });
        }
    });

    wire.shutdown();
    let leftover: Vec<_> = std::fs::read_dir(&spill_dir)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    assert!(leftover.is_empty(), "leaked spill files {leftover:?}");
    for category in [MemCategory::HiddenStates, MemCategory::Intermediate] {
        assert_eq!(meter.current(category), 0, "leaked {category:?} bytes");
    }
    std::fs::remove_dir_all(&spill_dir).ok();
    std::fs::remove_file(&path).ok();
}

/// `connect_timeout` bounds connection establishment *and* the
/// handshake: a peer that accepts TCP but never answers `Hello` yields
/// a typed `DeadlineExceeded` within the budget, while a live server
/// connects normally under the same API.
#[test]
fn connect_timeout_surfaces_typed_deadline() {
    // Never-accepting listener: the TCP handshake lands in the backlog,
    // the protocol handshake never completes.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let t0 = Instant::now();
    let err = WireClient::connect_timeout(&addr, "tenant", Duration::from_millis(100))
        .err()
        .expect("handshake must not complete");
    assert!(
        matches!(err, ServiceError::DeadlineExceeded),
        "expected DeadlineExceeded, got {err:?}"
    );
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "timeout did not bound the handshake: {:?}",
        t0.elapsed()
    );
    drop(listener);

    let (config, path) = fixture("connect-timeout");
    let server = PrismServer::start(engine(&config, &path), ServeConfig::default()).unwrap();
    let wire = WireServer::start(Arc::new(server), "127.0.0.1:0").unwrap();
    let client = WireClient::connect_timeout(
        &wire.local_addr().to_string(),
        "tenant",
        Duration::from_secs(10),
    )
    .unwrap();
    assert!(client.is_connected());
    // The handshake's read timeout must not linger on the reader: a
    // full round-trip still works after a quiet moment.
    let batch = batches(&config, 1, 8).pop().unwrap();
    client
        .submit(batch, RequestOptions::tagged(K, 1))
        .unwrap()
        .wait()
        .unwrap();

    drop(client);
    wire.shutdown();
    std::fs::remove_file(&path).unwrap();
}

type Bits = (Vec<(usize, u32, usize)>, Vec<u32>);

/// A backend that notes every selection it hands back, by tag.
struct Recording<'a, S> {
    inner: S,
    seen: &'a Mutex<Vec<(u64, Bits)>>,
}

impl<S: SelectionService> SelectionService for Recording<'_, S> {
    fn submit(
        &self,
        batch: SequenceBatch,
        options: RequestOptions,
    ) -> Result<SelectionHandle, ServiceError> {
        self.inner.submit(batch, options)
    }

    fn select(
        &self,
        batch: SequenceBatch,
        options: RequestOptions,
    ) -> Result<SelectionOutcome, ServiceError> {
        let tag = options.tag.expect("load requests are tagged");
        let outcome = self.inner.select(batch, options)?;
        let bits = exact_bits(&outcome.selection);
        self.seen.lock().unwrap().push((tag, bits));
        Ok(outcome)
    }
}

/// One `LoadSpec` is one stream of traffic whichever backend carries it:
/// sessions, repeats and the cross-session duplicate pool all reach a
/// server behind a socket exactly as they reach one in process, so both
/// end on the same cache counters and the same selections (one client,
/// so the order is fixed).
#[test]
fn one_load_spec_is_the_same_traffic_in_process_and_over_the_wire() {
    let (config, path) = fixture("same-traffic");
    let run = |spec: &LoadSpec, over_the_wire: bool| {
        let server =
            Arc::new(PrismServer::start(engine(&config, &path), ServeConfig::default()).unwrap());
        let seen = Mutex::new(Vec::new());
        let report = if over_the_wire {
            let wire = WireServer::start(Arc::clone(&server), "127.0.0.1:0").unwrap();
            let addr = wire.local_addr().to_string();
            let report = drive_closed_loop(&config, spec, |session| {
                WireClient::connect(&addr, session).map(|inner| Recording { inner, seen: &seen })
            });
            wire.shutdown();
            report.unwrap()
        } else {
            drive_closed_loop(&config, spec, |session| {
                let inner = server.service(session);
                Ok::<_, WireError>(Recording { inner, seen: &seen })
            })
            .unwrap()
        };
        let report = report.with_server_stats(server.stats());
        (report, seen.into_inner().unwrap())
    };
    // With three sessions the duplicate stream takes every other round
    // and no session repeats a corpus; with four, sessions 1 and 3 do.
    let mut selection_hits = 0;
    for sessions in [3, 4] {
        let spec = LoadSpec {
            requests: 24,
            clients: 1,
            candidates: 8,
            sessions,
            corpus_repeat: 2,
            dup_fraction: 0.5,
            options: RequestOptions::top_k(K).with_semcache(SemCacheMode::Aggressive),
            ..Default::default()
        };
        let (local, local_seen) = run(&spec, false);
        let (wired, wired_seen) = run(&spec, true);

        assert_eq!((local.completed, local.errors), (spec.requests, 0));
        assert_eq!((wired.completed, wired.errors), (spec.requests, 0));
        let (l, w) = (local.server_stats(), wired.server_stats());
        assert!(l.semcache_hits > 0, "{l:?}");
        assert_eq!(w.semcache_hits, l.semcache_hits);
        assert_eq!(w.semcache_misses, l.semcache_misses);
        assert_eq!(w.cache_selection_hits, l.cache_selection_hits);
        selection_hits += l.cache_selection_hits;
        assert_eq!(
            wired_seen, local_seen,
            "same tags, same selections, bit for bit"
        );
    }
    assert!(selection_hits > 0, "the session cache never engaged");
    std::fs::remove_file(&path).unwrap();
}

/// Backpressure travels typed: with the queue saturated by slow
/// in-flight work, a plain submit comes back as
/// `ServiceError::Backpressure` carrying the server's `retry_after`
/// hint — nothing retries on the caller's behalf. The same request,
/// resubmitted once the held work drains, returns the uncontended result
/// bit for bit.
#[test]
fn backpressure_travels_typed() {
    let (config, path) = fixture("backpressure");
    // A slow weight stream keeps the single worker busy long enough for
    // the queue to back up behind it.
    let server = PrismServer::start(
        slow_engine(&config, &path),
        ServeConfig {
            workers: 1,
            queue_capacity: 1,
            max_batch_requests: 1,
            session_cache_capacity: 0,
            ..Default::default()
        },
    )
    .unwrap();
    let batch = batches(&config, 1, 10).pop().unwrap();

    let (wire, client) = wire_pair(server, "session");
    let reference = client
        .submit(batch.clone(), RequestOptions::tagged(K, 1))
        .unwrap()
        .wait()
        .unwrap();

    // Saturate: one request in flight, one queued. The stagger lets the
    // worker pop the first before the second arrives, so the queue slot
    // stays occupied for the whole (slow) execution.
    let mut held = Vec::new();
    for i in 0..2 {
        held.push(
            client
                .submit(batch.clone(), RequestOptions::tagged(K, 100 + i))
                .unwrap(),
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    let err = client
        .submit(batch.clone(), RequestOptions::tagged(K, 1))
        .unwrap()
        .wait()
        .unwrap_err();
    match err {
        ServiceError::Backpressure {
            capacity,
            queue_depth,
            retry_after,
        } => {
            assert_eq!((capacity, queue_depth), (1, 1));
            assert!(retry_after > Duration::ZERO);
        }
        other => panic!("expected Backpressure, got {other:?}"),
    }
    for h in held {
        h.wait().unwrap();
    }
    assert_eq!(wire.server().stats().snapshot().rejected, 1);

    let resubmitted = client
        .submit(batch, RequestOptions::tagged(K, 1))
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(
        exact_bits(&resubmitted.selection),
        exact_bits(&reference.selection),
        "resubmitted result diverged"
    );

    drop(client);
    wire.shutdown();
    std::fs::remove_file(&path).unwrap();
}
