//! The out-of-process twin of `prism-serve`'s `RemoteService`: a
//! [`WireClient`] speaks the wire protocol over TCP and implements
//! [`SelectionService`], so facade callers swap between in-process and
//! networked serving without touching call sites — same non-blocking
//! [`SelectionHandle`]s, same typed errors, same layer-granularity
//! progress, bit-identical selections.

use std::collections::HashMap;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use prism_api::{admission_deadline, Completion, SelectionHandle, SelectionService, ServiceError};
use prism_core::{CancelToken, ProgressUpdate, RequestOptions};
use prism_model::SequenceBatch;

use crate::codec::{read_frame, write_frame, Message, WireError, WIRE_VERSION};

/// How often the cancel pump scans for locally-cancelled handles whose
/// Cancel frame has not been sent yet.
const CANCEL_SCAN_INTERVAL: Duration = Duration::from_micros(500);

struct ClientPending {
    completion: Completion,
    cancel: CancelToken,
    cancel_sent: bool,
}

struct ClientShared {
    writer: Mutex<TcpStream>,
    pending: Mutex<HashMap<u64, ClientPending>>,
    closed: AtomicBool,
    /// Highest pong nonce observed (monotonic: nonces are issued from
    /// the request counter).
    pong: Mutex<u64>,
    pong_ready: Condvar,
}

impl ClientShared {
    fn send(&self, msg: &Message) -> Result<(), WireError> {
        let mut stream = self.writer.lock().expect("wire client writer lock");
        write_frame(&mut *stream, msg)
    }

    /// Fails every outstanding request and marks the connection dead.
    fn disconnect(&self) {
        self.closed.store(true, Ordering::SeqCst);
        let mut map = self.pending.lock().expect("wire client pending lock");
        for (_, mut entry) in map.drain() {
            entry.completion.complete(Err(ServiceError::Disconnected));
        }
        // Wake any ping() waiter so it can observe the closed flag.
        self.pong_ready.notify_all();
    }
}

/// A connected wire-protocol client bound to one session.
pub struct WireClient {
    shared: Arc<ClientShared>,
    next_id: AtomicU64,
    reader_thread: Option<JoinHandle<()>>,
    cancel_thread: Option<JoinHandle<()>>,
}

impl WireClient {
    /// Connects to a [`crate::WireServer`] at `addr` and performs the
    /// `Hello`/`HelloAck` handshake under `session` (the session key
    /// all submissions run under).
    pub fn connect(addr: &str, session: impl Into<String>) -> Result<Self, WireError> {
        let stream = TcpStream::connect(addr)?;
        Self::finish_connect(stream, session.into())
    }

    /// [`WireClient::connect`] with an overall deadline on connection
    /// establishment *and* the handshake round-trip, surfacing typed
    /// facade errors: a budget overrun is
    /// [`ServiceError::DeadlineExceeded`], transport failures are
    /// [`ServiceError::Disconnected`], protocol violations are
    /// [`ServiceError::Config`]. Established connections read without a
    /// timeout (results can legitimately take long); pair with
    /// [`WireClient::ping`] for liveness bounds.
    pub fn connect_timeout(
        addr: &str,
        session: impl Into<String>,
        timeout: Duration,
    ) -> Result<Self, ServiceError> {
        use std::net::ToSocketAddrs;
        let deadline = Instant::now() + timeout;
        let addrs: Vec<_> = addr
            .to_socket_addrs()
            .map_err(|e| ServiceError::Config(format!("resolving {addr}: {e}")))?
            .collect();
        if addrs.is_empty() {
            return Err(ServiceError::Config(format!("{addr} resolves to nothing")));
        }
        let mut stream = None;
        for a in &addrs {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(ServiceError::DeadlineExceeded);
            }
            match TcpStream::connect_timeout(a, remaining) {
                Ok(s) => {
                    stream = Some(s);
                    break;
                }
                Err(e) if e.kind() == std::io::ErrorKind::TimedOut => {
                    return Err(ServiceError::DeadlineExceeded);
                }
                Err(_) => {}
            }
        }
        let stream = stream.ok_or(ServiceError::Disconnected)?;
        // Bound the handshake round-trip by the remaining budget; the
        // read timeout is a socket option shared by every clone, so it
        // is cleared again inside `finish_connect` before the reader
        // thread takes over.
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return Err(ServiceError::DeadlineExceeded);
        }
        stream.set_read_timeout(Some(remaining)).ok();
        match Self::finish_connect(stream, session.into()) {
            Ok(client) => Ok(client),
            Err(e) => {
                if Instant::now() >= deadline {
                    return Err(ServiceError::DeadlineExceeded);
                }
                Err(match e {
                    WireError::Corrupt(why) => ServiceError::Config(why),
                    _ => ServiceError::Disconnected,
                })
            }
        }
    }

    fn finish_connect(stream: TcpStream, session: String) -> Result<Self, WireError> {
        stream.set_nodelay(true).ok();
        let mut handshake = stream.try_clone()?;
        write_frame(
            &mut handshake,
            &Message::Hello {
                version: WIRE_VERSION,
                session,
            },
        )?;
        match read_frame(&mut handshake)? {
            Message::HelloAck { version } if version == WIRE_VERSION => {}
            Message::HelloAck { version } => {
                return Err(WireError::Corrupt(format!(
                    "server speaks protocol version {version}, client speaks {WIRE_VERSION}"
                )));
            }
            Message::Error { error, .. } => {
                return Err(WireError::Corrupt(format!("handshake rejected: {error}")));
            }
            other => {
                return Err(WireError::Corrupt(format!(
                    "expected HelloAck, got {other:?}"
                )));
            }
        }
        // The handshake's read timeout (if any) must not apply to the
        // reader thread: a legitimate selection can take arbitrarily
        // long, and a spurious timeout would tear the connection down.
        stream.set_read_timeout(None).ok();

        let shared = Arc::new(ClientShared {
            writer: Mutex::new(stream),
            pending: Mutex::new(HashMap::new()),
            closed: AtomicBool::new(false),
            pong: Mutex::new(0),
            pong_ready: Condvar::new(),
        });
        let reader_thread = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("prism-wire-client-rx".into())
                .spawn(move || reader_loop(&shared, handshake))
                .map_err(|e| WireError::Io(format!("spawning client reader: {e}")))?
        };
        let cancel_thread = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("prism-wire-client-cx".into())
                .spawn(move || cancel_loop(&shared))
                .map_err(|e| WireError::Io(format!("spawning cancel pump: {e}")))?
        };
        Ok(WireClient {
            shared,
            next_id: AtomicU64::new(0),
            reader_thread: Some(reader_thread),
            cancel_thread: Some(cancel_thread),
        })
    }

    /// Whether the connection is still up.
    pub fn is_connected(&self) -> bool {
        !self.shared.closed.load(Ordering::SeqCst)
    }

    /// Round-trips a `Ping`; returns the measured latency, or a typed
    /// error if the connection is down or the server does not answer
    /// within `timeout`.
    pub fn ping(&self, timeout: Duration) -> Result<Duration, ServiceError> {
        if !self.is_connected() {
            return Err(ServiceError::Disconnected);
        }
        let nonce = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        let t0 = Instant::now();
        self.shared
            .send(&Message::Ping { nonce })
            .map_err(|_| ServiceError::Disconnected)?;
        let deadline = t0 + timeout;
        let mut pong = self.shared.pong.lock().expect("pong lock");
        loop {
            if *pong >= nonce {
                return Ok(t0.elapsed());
            }
            if self.shared.closed.load(Ordering::SeqCst) {
                return Err(ServiceError::Disconnected);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(ServiceError::DeadlineExceeded);
            }
            let (next, _) = self
                .shared
                .pong_ready
                .wait_timeout(pong, deadline - now)
                .expect("pong lock");
            pong = next;
        }
    }
}

impl SelectionService for WireClient {
    /// Submits over the wire. The returned handle's ticket is the
    /// *client-side* correlation id (the server's ticket arrives in the
    /// `Accepted` frame and is carried on the outcome); everything else
    /// behaves exactly like the in-process backends — cancel flows back
    /// as a `Cancel` frame, progress streams in, and the outcome is
    /// consumed once.
    fn submit(
        &self,
        batch: SequenceBatch,
        options: RequestOptions,
    ) -> Result<SelectionHandle, ServiceError> {
        if !self.is_connected() {
            return Err(ServiceError::Disconnected);
        }
        // Fail fast locally on an already-expired deadline — the same
        // admission rule every backend applies (the server re-checks).
        let deadline = admission_deadline(&options, Instant::now())?;
        let request_id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        let (handle, completion) = SelectionHandle::channel(request_id, deadline);
        self.shared.pending.lock().expect("pending lock").insert(
            request_id,
            ClientPending {
                cancel: handle.cancel_token(),
                completion,
                cancel_sent: false,
            },
        );
        let sent = self.shared.send(&Message::Submit {
            request_id,
            options,
            batch,
        });
        if sent.is_err() {
            // Roll the registration back; the completion drops and the
            // handle reports Disconnected.
            self.shared
                .pending
                .lock()
                .expect("pending lock")
                .remove(&request_id);
            return Err(ServiceError::Disconnected);
        }
        Ok(handle)
    }
}

impl Drop for WireClient {
    fn drop(&mut self) {
        self.shared.closed.store(true, Ordering::SeqCst);
        // Closing the socket unblocks the reader thread.
        if let Ok(stream) = self.shared.writer.lock() {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        if let Some(t) = self.reader_thread.take() {
            let _ = t.join();
        }
        if let Some(t) = self.cancel_thread.take() {
            let _ = t.join();
        }
    }
}

fn reader_loop(shared: &Arc<ClientShared>, mut stream: TcpStream) {
    loop {
        match read_frame(&mut stream) {
            Ok(Message::Accepted { .. }) => {
                // The server ticket is informational; the outcome carries
                // it. Nothing to update client-side.
            }
            Ok(Message::Progress {
                request_id,
                progress,
            }) => {
                let map = shared.pending.lock().expect("pending lock");
                if let Some(entry) = map.get(&request_id) {
                    // Feed the aggregated snapshot through the handle's
                    // fold: fields map 1:1 onto a ProgressUpdate.
                    (entry.completion.progress_fn())(ProgressUpdate {
                        layer: progress.layers_gated.saturating_sub(1),
                        layers_forwarded: progress.layers_forwarded,
                        active: progress.candidates_active,
                        accepted: progress.candidates_accepted,
                        pruned: progress.candidates_pruned,
                    });
                }
            }
            Ok(Message::Result {
                request_id,
                outcome,
            }) => {
                let entry = shared
                    .pending
                    .lock()
                    .expect("pending lock")
                    .remove(&request_id);
                if let Some(mut entry) = entry {
                    entry.completion.complete(Ok(*outcome));
                }
            }
            Ok(Message::Error { request_id, error }) => {
                if request_id == 0 {
                    // Connection-level failure: everything outstanding
                    // dies with it.
                    shared.disconnect();
                    return;
                }
                let entry = shared
                    .pending
                    .lock()
                    .expect("pending lock")
                    .remove(&request_id);
                if let Some(mut entry) = entry {
                    entry.completion.complete(Err(error));
                }
            }
            Ok(Message::Pong { nonce }) => {
                let mut pong = shared.pong.lock().expect("pong lock");
                *pong = (*pong).max(nonce);
                drop(pong);
                shared.pong_ready.notify_all();
            }
            Ok(_) => {
                // Client-bound connections never receive client->server
                // messages; treat as protocol violation.
                shared.disconnect();
                return;
            }
            Err(_) => {
                shared.disconnect();
                return;
            }
        }
    }
}

/// Forwards local `handle.cancel()` calls to the server as `Cancel`
/// frames (once per request).
fn cancel_loop(shared: &Arc<ClientShared>) {
    while !shared.closed.load(Ordering::SeqCst) {
        let mut to_send = Vec::new();
        {
            let mut map = shared.pending.lock().expect("pending lock");
            for (&id, entry) in map.iter_mut() {
                if entry.cancel.is_cancelled() && !entry.cancel_sent {
                    entry.cancel_sent = true;
                    to_send.push(id);
                }
            }
        }
        for id in to_send {
            if shared.send(&Message::Cancel { request_id: id }).is_err() {
                shared.disconnect();
                return;
            }
        }
        std::thread::sleep(CANCEL_SCAN_INTERVAL);
    }
}
