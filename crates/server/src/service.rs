//! The compilation server: shared state, request routing, and graceful
//! shutdown.
//!
//! Connections are served by the event-driven core in `crate::event`:
//! one nonblocking epoll readiness loop owns every connection
//! (keep-alive, pipelining, idle timeouts), and hands parsed requests to
//! `http_workers` handler threads over a bounded dispatch queue. Slow or
//! idle clients cost a buffered connection, never a handler; tens of
//! thousands of concurrent connections fit in one thread's epoll set.
//!
//! # Graceful shutdown
//!
//! [`ServerHandle::shutdown`] stops accepting, serves everything already
//! accepted (in-flight requests plus buffered responses), joins all
//! threads, and finally — when a cache file is configured — saves a
//! [`engine::snapshot`] so the next boot starts warm.

use crate::metrics::Metrics;
use crate::queue::BoundedQueue;
use engine::snapshot::{self, WarmStart};
use engine::{BackendKind, Engine};
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Server configuration (everything except the engine itself).
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// HTTP handler threads; each runs one request at a time
    /// (connections live in the event loop).
    pub http_workers: usize,
    /// Dispatch queue depth (units: requests — the pending-request cap);
    /// overflow is answered 429.
    pub queue_depth: usize,
    /// Whole-request read deadline: partial requests older than this are
    /// answered 408 (the slowloris bound).
    pub read_timeout: Duration,
    /// Connections accepted beyond this are answered 429 and closed
    /// immediately (the connection-count cap).
    pub max_conns: usize,
    /// Idle keep-alive connections (no partial request, nothing in
    /// flight) are closed after this long.
    pub keepalive_timeout: Duration,
    /// Epsilon used when a request does not specify one.
    pub default_epsilon: f64,
    /// Backend used when a request does not specify one.
    pub default_backend: BackendKind,
    /// When set: warm-start the cache from this snapshot on
    /// [`Server::start`] and save back on shutdown.
    pub cache_file: Option<PathBuf>,
    /// Request tracing: sampling rate, retained-trace ring size, and the
    /// slow-request threshold (see [`trace::TraceConfig`]). Tracing is
    /// observation-only — responses are byte-identical with it on, off,
    /// or sampled out.
    pub trace: trace::TraceConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            http_workers: 4,
            queue_depth: 64,
            read_timeout: Duration::from_secs(5),
            max_conns: 10_240,
            keepalive_timeout: Duration::from_secs(5),
            default_epsilon: 1e-2,
            default_backend: BackendKind::Gridsynth,
            cache_file: None,
            trace: trace::TraceConfig::default(),
        }
    }
}

/// Shared state every handler sees.
pub(crate) struct Shared {
    pub(crate) engine: Arc<Engine>,
    pub(crate) metrics: Metrics,
    pub(crate) tracer: trace::Tracer,
    /// The request dispatch queue between the event loop and handlers.
    pub(crate) dispatch: BoundedQueue<crate::event::Job>,
    pub(crate) shutdown: AtomicBool,
    pub(crate) config: ServerConfig,
}

impl Shared {
    /// Live depth of the dispatch queue.
    pub(crate) fn queue_depth(&self) -> usize {
        self.dispatch.len()
    }
}

/// The server type; [`Server::start`] is the only entry point.
pub struct Server;

/// A running server. Dropping the handle without calling
/// [`ServerHandle::shutdown`] leaves the threads running for the process
/// lifetime (binaries call `shutdown`; tests must too).
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    core: crate::event::CoreHandles,
    /// How the warm start went (Absent when no cache file configured).
    pub warm_start: WarmStart,
}

/// What [`ServerHandle::shutdown`] observed.
#[derive(Debug)]
pub struct ShutdownReport {
    /// Requests handled over the server's lifetime.
    pub requests: u64,
    /// Connections and requests shed with 429.
    pub rejected: u64,
    /// Entries saved to the cache file (`None` when not configured;
    /// `Some(Err)` contains the save error message).
    pub cache_saved: Option<Result<usize, String>>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port), warm-starts the
    /// cache when configured, and spawns the event loop plus
    /// `config.http_workers` handler threads.
    pub fn start(
        addr: &str,
        config: ServerConfig,
        engine: Arc<Engine>,
    ) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;

        let warm_start = match &config.cache_file {
            Some(path) => snapshot::warm_from_file(engine.cache(), path),
            None => WarmStart::Absent,
        };

        let shared = Arc::new(Shared {
            engine,
            metrics: Metrics::new(),
            tracer: trace::Tracer::new(config.trace.clone()),
            dispatch: BoundedQueue::new(config.queue_depth),
            shutdown: AtomicBool::new(false),
            config,
        });

        let core = crate::event::start(listener, &shared)?;
        Ok(ServerHandle {
            addr: local,
            shared,
            core,
            warm_start,
        })
    }
}

impl ServerHandle {
    /// The bound address (resolves port 0 to the real ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The engine behind the server (e.g. for stats assertions in tests).
    pub fn engine(&self) -> Arc<Engine> {
        Arc::clone(&self.shared.engine)
    }

    /// Live request counters.
    pub fn metrics(&self) -> &Metrics {
        &self.shared.metrics
    }

    /// The request tracer (e.g. for retained-trace assertions in tests).
    pub fn tracer(&self) -> &trace::Tracer {
        &self.shared.tracer
    }

    /// Graceful shutdown: stop accepting, finish in-flight requests and
    /// flush buffered responses, join all threads, save the cache
    /// snapshot when configured.
    pub fn shutdown(self) -> ShutdownReport {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // The eventfd pops the loop out of epoll_wait; it drains
        // in-flight requests and buffered responses, then exits.
        self.core.wake.notify();
        let _ = self.core.looper.join();
        // Every job the loop dispatched has completed (the loop only
        // exits once all connections are answered), so closing the queue
        // just releases the handler threads.
        self.shared.dispatch.close();
        for h in self.core.handlers {
            let _ = h.join();
        }
        let cache_saved = self.shared.config.cache_file.as_ref().map(|path| {
            snapshot::save_to_file(self.shared.engine.cache(), path)
                .map_err(|e| format!("cannot save cache snapshot to {}: {e}", path.display()))
        });
        ShutdownReport {
            requests: self.shared.metrics.request_count(),
            rejected: self.shared.metrics.rejected(),
            cache_saved,
        }
    }
}
