//! **server** — the networked compilation service.
//!
//! Exposes the [`engine`] crate's concurrent compilation service over
//! HTTP/1.1 on plain `std::net` (the workspace is std-only): any client
//! that can speak loopback HTTP can compile rotations and OpenQASM
//! circuits to Clifford+T and share one process-wide synthesis cache with
//! every other client. The serving-layer concerns live here:
//!
//! * [`service`] — configuration, shared state, graceful draining
//!   shutdown, and cache snapshot persistence (warm start on boot, save
//!   on shutdown).
//! * `event` — the event-driven core: one nonblocking epoll readiness
//!   loop owning every connection (keep-alive, pipelining, idle
//!   timeouts, per-connection state machines), bridged to handler
//!   threads over a bounded dispatch queue with an eventfd wakeup; 429
//!   backpressure at the connection and request caps.
//! * [`sys`] — the dependency-free raw-syscall wrappers (`epoll`,
//!   `eventfd`) behind the event core; the crate's only unsafe module.
//! * [`routes`] — the API: `POST /v1/compile`, `POST /v1/batch`,
//!   `GET /healthz`, `GET /metrics`.
//! * [`metrics`] — request/latency/queue/cache counters in Prometheus
//!   text format, built on [`engine::EngineStats`].
//! * [`http`] / [`json`] — minimal dependency-free HTTP/1.1 and JSON.
//! * [`queue`] — the bounded MPMC dispatch queue behind the
//!   backpressure story.
//! * [`client`] — a small blocking client used by `trasyn-loadgen` and
//!   the integration tests.
//! * [`fuzz`] — the differential fuzzing harness: seeded circuits through
//!   {CLI-equivalent engine batch × thread counts × warm/cold cache ×
//!   server loopback}, pairwise bit-identity cross-checks, the `verify`
//!   oracle, and shrunk QASM repro artifacts on mismatch.
//!
//! Three binaries ship with the crate: `trasyn-server` (the daemon),
//! `trasyn-loadgen` (a closed-loop load generator that drives request
//! mixes from [`workloads::requests`] and reports latency, throughput,
//! and cache hit rate), and `trasyn-fuzz` (the differential fuzzer; its
//! `--smoke` mode is a CI gate). See the root README for usage.
//!
//! # Determinism
//!
//! The serving layer adds no nondeterminism to compilation: a
//! `/v1/compile` response's `"qasm"` is bit-identical to what
//! `trasyn-compile` emits for the same input and settings, at any worker
//! count, because both are the same `Engine` call (verified by this
//! crate's loopback tests).
//!
//! # Platform
//!
//! The crate is Linux-only: the event core is built on `epoll` and
//! `eventfd` (see [`sys`]), and there is no portable fallback core.

#[cfg(not(target_os = "linux"))]
compile_error!(
    "the `server` crate is Linux-only: its event core is built on epoll and eventfd, \
     and there is no portable fallback core"
);

pub mod client;
pub(crate) mod event;
pub mod fuzz;
pub mod http;
pub mod json;
pub mod metrics;
pub mod queue;
pub mod routes;
pub mod service;
pub mod sys;

pub use client::{Conn, Response};
pub use fuzz::{FuzzConfig, FuzzReport, Harness};
pub use metrics::{Endpoint, Metrics};
pub use queue::BoundedQueue;
pub use service::{Server, ServerConfig, ServerHandle, ShutdownReport};
