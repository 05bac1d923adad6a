//! A concurrent TCP front-end for the InCLL store.
//!
//! Three pieces, one per module:
//!
//! * [`protocol`] — the length-prefixed request/response wire format
//!   (GET/PUT/DEL/BATCH/SCAN/STATS) with a typed [`WireError`] for every
//!   way a frame can be wrong.
//! * [`group`] — the group-commit stage: puts and dels from *all*
//!   connections coalesce into one durable [`WriteBatch`] commit per
//!   group — whatever queued while the previous group was committing —
//!   so the commit protocol's fences amortise across the whole server
//!   instead of being paid per request.
//! * [`server`] — the M-connections-on-N-sessions server: per-connection
//!   reader threads stamp requests with sequence numbers, N workers
//!   (each owning a pooled [`Session`]) execute them — every connection
//!   pinned to one worker, so its writes reach durability in request
//!   order — and per-connection reorder buffers plus writer threads
//!   stream responses back in request order while later requests run
//!   under earlier ones (pipelining, bounded per connection by a
//!   configurable depth).
//!
//! The `incll-server` binary (`src/main.rs`) serves an in-memory arena
//! over TCP; see `incll_ycsb`'s network driver for load generation.
//!
//! [`WireError`]: protocol::WireError
//! [`WriteBatch`]: incll::WriteBatch
//! [`Session`]: incll::Session

pub mod group;
pub mod protocol;
pub mod server;

pub use group::{GroupCommitter, GroupOp};
pub use protocol::{
    decode_request, decode_response, encode_request, encode_response, read_frame, write_frame,
    BatchOp, Request, Response, WireError, MAX_FRAME_BYTES,
};
pub use server::{CommitMode, Server, ServerConfig};
