//! A concurrent TCP front-end for the InCLL store.
//!
//! Two pieces, one per module:
//!
//! * [`protocol`] — the length-prefixed request/response wire format
//!   (GET/PUT/DEL/BATCH/SCAN/STATS) with a typed [`WireError`] for every
//!   way a frame can be wrong, and the pipelining [`Client`] that frames
//!   it.
//! * [`server`] — run-to-completion connections on N session slots: each
//!   connection is one thread that reads what has arrived, executes
//!   every whole frame in request order on its slot's pooled
//!   [`Session`], commits that drain's puts and dels as one durable
//!   [`WriteBatch`] — so the commit protocol's fences are paid per drain,
//!   not per request — and writes every reply back in one `write`.
//!   Pipelining needs no machinery: while a drain commits, the
//!   connection's next requests pile up in its socket, and the next read
//!   is the next group. [`Service::serve_buffered`] is that step without
//!   the socket: bytes in, bytes out.
//!
//! The `incll-server` binary (`src/main.rs`) serves an in-memory arena
//! over TCP; the repo benchmark's `net_put`/`net_open` workloads are the
//! load generators.
//!
//! [`WireError`]: protocol::WireError
//! [`WriteBatch`]: incll::WriteBatch
//! [`Session`]: incll::Session

pub mod protocol;
pub mod server;

pub use protocol::{
    decode_request, decode_response, encode_request, encode_response, read_frame, BatchOp, Client,
    Request, Response, WireError, MAX_FRAME_BYTES,
};
pub use server::{CommitMode, Server, ServerConfig, Service};
