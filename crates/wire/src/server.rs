//! The loopback TCP front-end over a [`PrismServer`].
//!
//! One thread accepts connections; each connection gets a *reader*
//! thread (frame parsing, admission, cancellation) and a *pump* thread
//! (streams progress and outcomes back). Submissions flow through the
//! same bounded queue, scheduler and engine as in-process callers — the
//! wire layer adds transport, not semantics, which is how the loopback
//! conformance suite can demand bit-identical selections through the
//! socket.
//!
//! Error discipline mirrors the serving layer: admission failures
//! (backpressure, expired deadline) come back as typed
//! [`Message::Error`] frames carrying the structured [`ServiceError`];
//! a malformed frame is answered with a connection-level error frame
//! (request id 0) and the connection is closed, because framing cannot
//! be resynchronized after corrupt bytes.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use prism_api::{Progress, SelectionHandle, SelectionOutcome, ServiceError};
use prism_serve::PrismServer;

use crate::codec::{read_frame, write_frame, Message, WireError, WIRE_VERSION};

/// How long the pump sleeps between sweeps over in-flight requests.
/// Short enough for layer-granularity progress to stream live, long
/// enough to stay invisible next to a forward pass.
const PUMP_INTERVAL: Duration = Duration::from_micros(200);

/// A TCP listener serving the PRISM wire protocol over a
/// [`PrismServer`].
pub struct WireServer {
    server: Arc<PrismServer>,
    addr: SocketAddr,
    closed: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl WireServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral loopback
    /// port) and starts accepting connections over `server`.
    pub fn start(server: Arc<PrismServer>, addr: &str) -> Result<Self, WireError> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let closed = Arc::new(AtomicBool::new(false));
        let accept_thread = {
            let server = Arc::clone(&server);
            let closed = Arc::clone(&closed);
            std::thread::Builder::new()
                .name("prism-wire-accept".into())
                .spawn(move || accept_loop(&listener, &server, &closed))
                .map_err(|e| WireError::Io(format!("spawning acceptor: {e}")))?
        };
        Ok(WireServer {
            server,
            addr,
            closed,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (with the resolved port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The serving backend.
    pub fn server(&self) -> &Arc<PrismServer> {
        &self.server
    }

    /// Stops accepting new connections and joins the acceptor. Existing
    /// connections finish their in-flight work (the backend server is
    /// shut down separately by its owner).
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if self.closed.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for WireServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(listener: &TcpListener, server: &Arc<PrismServer>, closed: &Arc<AtomicBool>) {
    for stream in listener.incoming() {
        if closed.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = stream else { continue };
        let server = Arc::clone(server);
        let spawn = std::thread::Builder::new()
            .name("prism-wire-conn".into())
            .spawn(move || {
                let _ = handle_connection(stream, &server);
            });
        let _ = spawn;
    }
}

/// In-flight state of one submitted request on a connection.
struct InFlight {
    handle: SelectionHandle,
    last_progress: Progress,
}

type PendingMap = Arc<Mutex<HashMap<u64, InFlight>>>;

/// Shared, serialized write side of a connection.
#[derive(Clone)]
struct WireWriter {
    stream: Arc<Mutex<TcpStream>>,
}

impl WireWriter {
    fn send(&self, msg: &Message) -> Result<(), WireError> {
        let mut stream = self.stream.lock().expect("wire writer lock");
        write_frame(&mut *stream, msg)
    }
}

fn handle_connection(stream: TcpStream, server: &Arc<PrismServer>) -> Result<(), WireError> {
    stream.set_nodelay(true).ok();
    let mut reader = stream.try_clone()?;
    let writer = WireWriter {
        stream: Arc::new(Mutex::new(stream)),
    };

    // ---- Handshake: Hello before anything else ----
    let session = match read_frame(&mut reader)? {
        Message::Hello { version, session } => {
            if version != WIRE_VERSION {
                writer.send(&Message::Error {
                    request_id: 0,
                    error: ServiceError::Config(format!(
                        "protocol version {version} unsupported (server speaks {WIRE_VERSION})"
                    )),
                })?;
                return Ok(());
            }
            writer.send(&Message::HelloAck {
                version: WIRE_VERSION,
            })?;
            session
        }
        _ => {
            writer.send(&Message::Error {
                request_id: 0,
                error: ServiceError::Config("expected Hello".into()),
            })?;
            return Ok(());
        }
    };
    let service = server.service(session);

    let pending: PendingMap = Arc::new(Mutex::new(HashMap::new()));
    let reading = Arc::new(AtomicBool::new(true));
    let pump = {
        let pending = Arc::clone(&pending);
        let reading = Arc::clone(&reading);
        let writer = writer.clone();
        std::thread::Builder::new()
            .name("prism-wire-pump".into())
            .spawn(move || pump_loop(&pending, &reading, &writer))
            .map_err(|e| WireError::Io(format!("spawning pump: {e}")))?
    };

    // ---- Frame loop ----
    let result = read_loop(&mut reader, &writer, &service, &pending);
    reading.store(false, Ordering::SeqCst);
    // The client is gone (or the connection is poisoned): nobody will
    // read further results, so cancel what is still in flight. The pump
    // drains the handles — cancellation is observed at the next layer
    // boundary and releases spill state — then exits.
    for entry in pending.lock().expect("pending lock").values() {
        entry.handle.cancel();
    }
    let _ = pump.join();
    result
}

fn read_loop(
    reader: &mut TcpStream,
    writer: &WireWriter,
    service: &prism_serve::RemoteService,
    pending: &PendingMap,
) -> Result<(), WireError> {
    use prism_api::SelectionService;
    loop {
        match read_frame(reader) {
            Ok(Message::Submit {
                request_id,
                options,
                batch,
            }) => match service.submit(batch, options) {
                Ok(handle) => {
                    writer.send(&Message::Accepted {
                        request_id,
                        ticket: handle.ticket(),
                    })?;
                    pending.lock().expect("pending lock").insert(
                        request_id,
                        InFlight {
                            handle,
                            last_progress: Progress::default(),
                        },
                    );
                }
                Err(error) => {
                    writer.send(&Message::Error { request_id, error })?;
                }
            },
            Ok(Message::Cancel { request_id }) => {
                if let Some(entry) = pending.lock().expect("pending lock").get(&request_id) {
                    entry.handle.cancel();
                }
            }
            Ok(Message::Ping { nonce }) => {
                writer.send(&Message::Pong { nonce })?;
            }
            Ok(other) => {
                // Server-bound connections never receive server->client
                // messages or a second Hello.
                writer.send(&Message::Error {
                    request_id: 0,
                    error: ServiceError::Config(format!("unexpected message: {other:?}")),
                })?;
                return Ok(());
            }
            Err(WireError::Closed) => return Ok(()),
            Err(e @ (WireError::Truncated | WireError::Io(_))) => return Err(e),
            Err(e) => {
                // Malformed frame: framing cannot resync — answer with a
                // typed connection-level error and drop the connection.
                let _ = writer.send(&Message::Error {
                    request_id: 0,
                    error: ServiceError::Config(format!("malformed frame: {e}")),
                });
                return Err(e);
            }
        }
    }
}

/// Streams progress and outcomes for every in-flight request until the
/// reader has stopped *and* nothing is in flight.
fn pump_loop(pending: &PendingMap, reading: &Arc<AtomicBool>, writer: &WireWriter) {
    loop {
        let mut finished: Vec<(u64, Result<SelectionOutcome, ServiceError>)> = Vec::new();
        let mut progressed: Vec<(u64, Progress)> = Vec::new();
        {
            let mut map = pending.lock().expect("pending lock");
            let ids: Vec<u64> = map.keys().copied().collect();
            for id in ids {
                let entry = map.get_mut(&id).expect("id just listed");
                if let Some(outcome) = entry.handle.poll() {
                    finished.push((id, outcome));
                    map.remove(&id);
                    continue;
                }
                let p = entry.handle.progress();
                if p != entry.last_progress {
                    entry.last_progress = p;
                    progressed.push((id, p));
                }
            }
        }
        // Write outside the map lock: a slow client must not block
        // submission admission.
        let mut write_failed = false;
        for (request_id, progress) in progressed {
            if writer
                .send(&Message::Progress {
                    request_id,
                    progress,
                })
                .is_err()
            {
                write_failed = true;
            }
        }
        for (request_id, outcome) in finished {
            let msg = match outcome {
                Ok(outcome) => Message::Result {
                    request_id,
                    outcome: Box::new(outcome),
                },
                Err(error) => Message::Error { request_id, error },
            };
            if writer.send(&msg).is_err() {
                write_failed = true;
            }
        }
        let drained = pending.lock().expect("pending lock").is_empty();
        if write_failed || (drained && !reading.load(Ordering::SeqCst)) {
            return;
        }
        std::thread::sleep(PUMP_INTERVAL);
    }
}
