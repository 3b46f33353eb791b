//! `prism-wire`: out-of-process serving over a length-prefixed binary
//! wire protocol.
//!
//! ```text
//!  WireClient (SelectionService)            WireServer
//!      │  [u32 len][u8 type][payload]           │
//!      ├── Hello / HelloAck ────────────────────┤ handshake: version + session
//!      ├── Submit ──────────────────────────────┤ → PrismServer queue/planner
//!      │◀─ Accepted / Progress* / Result|Error ─┤
//!      ├── Cancel ──────────────────────────────┤ → CancelToken, next boundary
//!      └── Ping / Pong ─────────────────────────┘
//! ```
//!
//! The transport adds no semantics: submissions flow through the same
//! bounded queue, FIFO coalescing window and engine as in-process
//! callers, and selections read off the wire are bit-identical — scores travel as IEEE-754 bit patterns.
//! Malformed frames (truncated, corrupted, oversized, unknown type)
//! decode to typed [`WireError`]s, never panics, and never size an
//! allocation from an unvalidated length ([`codec`] documents the
//! rules; `tests/wire_codec_props.rs` enforces them by property).
//!
//! Everything is `std::net` — no external dependencies.

pub mod client;
pub mod codec;
pub mod server;

pub use client::WireClient;
pub use codec::{
    decode_message, encode_message, read_frame, write_frame, Message, WireError, MAX_FRAME,
    WIRE_VERSION,
};
pub use server::WireServer;
