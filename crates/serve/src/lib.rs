//! `halk-serve` — a fault-tolerant query-serving daemon for the HaLk
//! reproduction, in the workspace house style: `std` only, no `unsafe`
//! beyond one POSIX `signal(2)` FFI declaration, everything bounded.
//!
//! One-shot `halk ask` pays a process launch, a graph parse and a model
//! load per question; the daemon pays them once and then answers over a
//! length-prefixed TCP protocol at interactive latency. The interesting
//! part is not the happy path but the hostile one — the design center is
//! *graceful degradation* (in the spirit of FuzzQE's soft answering:
//! an approximate answer under pressure beats no answer):
//!
//! | pressure | response |
//! |---|---|
//! | request takes too long | [`Deadline`] checked at slice boundaries; partial top-k with `truncated` flag ([`Response::Scores`]) |
//! | more load than capacity | bounded queue + predictive [`admit`]; typed `ERR overloaded` |
//! | request panics | `catch_unwind` per request; typed `ERR panic`, daemon lives |
//! | malformed / oversized / truncated frames | typed `ERR protocol`, bounded allocation ([`FrameDecoder`]) |
//! | slow or stalled clients | read/write timeouts, mid-frame stall budget |
//! | SIGINT / SIGTERM / `SHUTDOWN` frame | acceptor stops, queue drains to a deadline, metrics flush |
//!
//! Served answers are **bit-identical** to one-shot `halk ask`: the exact
//! engine runs the same compiled plans, and embedding scores travel as
//! shortest-round-trip floats (see [`protocol`]). The `halk` engine
//! scores through arc-sharded streaming top-k heaps. A session that holds
//! a free execution permit runs its request on its own thread; when the
//! permits are taken, a released permit passes to the oldest queued
//! request, whose session leads its queued companions with the same
//! compiled skeleton and engine as one kernel pass per shard —
//! DESIGN.md §13. DESIGN.md §12
//! documents the protocol grammar, the backpressure state machine and
//! the shutdown sequence; `scripts/ci.sh` drills the fault paths and the
//! sharded path against a live daemon on every run.
//!
//! [`Deadline`]: halk_obs::Deadline
//! [`admit`]: server::admit
//! [`Response::Scores`]: protocol::Response::Scores
//! [`FrameDecoder`]: protocol::FrameDecoder

pub mod client;
pub mod engine;
pub(crate) mod obs_http;
pub mod protocol;
pub mod server;
pub mod signal;

pub use client::Client;
pub use engine::{BatchItem, Engine, PreparedAsk};
pub use protocol::{AskEngine, ErrorKind, FrameDecoder, Request, Response, MAX_FRAME};
pub use server::{admit, Rejection, ServeConfig, Server};
