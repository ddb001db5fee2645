//! The [`ShardTransport`] seam: how the frontend reaches one shard.
//!
//! [`LocalTransport`] dispatches into a [`crate::engine::ShardEngine`] in-process
//! through the exact worker code path ([`crate::worker::Service`]) — the
//! N=1/loopback case. [`RemoteTransport`] speaks the wire protocol to a
//! `tale-server shard` worker over persistent pooled `TcpStream`s: each
//! new connection is verified with a `Hello` handshake (protocol
//! version, shard identity, vocabulary fingerprint) before it serves
//! work, dead connections are re-dialed with exponential backoff, and a
//! failure mid-request surfaces as a typed error the frontend converts
//! to `ServerError::Transport` — the whole batch fails deterministically,
//! never a partial merge.

use crate::backoff::{sleep_capped, Jitter};
use crate::counters::ServerCounters;
use crate::wire::{self, HelloRequest, Request, Response};
use crate::worker::Service;
use crate::{Result, ServerError};
use parking_lot::Mutex;
use std::io::BufWriter;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How the frontend reaches one shard. `call` is synchronous; the
/// frontend scatters calls across shards on its own threads.
pub trait ShardTransport: Send + Sync {
    /// The shard this transport serves.
    fn shard(&self) -> u32;
    /// Round-trips one request. Implementations must either return the
    /// peer's response (including typed error responses) or fail with a
    /// transport-level [`ServerError`]. `deadline` bounds everything the
    /// transport does on the caller's behalf — dial backoff, socket
    /// waits, retries, hedges; `None` means the implementation's own
    /// idle timeouts are the only bound.
    fn call(&self, req: &Request, deadline: Option<Instant>) -> Result<Response>;
    /// Human-oriented endpoint description (for error messages).
    fn describe(&self) -> String;
    /// Pins the vocabulary fingerprint the peer(s) must report on every
    /// future handshake. Default no-op: in-process transports share the
    /// frontend's address space and can't disagree with themselves.
    fn pin_fingerprint(&self, _fp: u64) {}
    /// Per-replica breaker health, when this transport fronts a replica
    /// group ([`crate::replica::ReplicaSet`]). `None` = not replicated.
    fn replica_health(&self) -> Option<Vec<wire::ReplicaHealthInfo>> {
        None
    }
    /// Routes fault-handling counters (retries, failovers, hedges) to
    /// the serving process's [`ServerCounters`]. Default no-op for
    /// transports that never retry.
    fn attach_counters(&self, _counters: &Arc<ServerCounters>) {}
}

/// In-process transport: the frontend and the "worker" share an address
/// space. Same dispatch code as a TCP worker, minus the socket.
pub struct LocalTransport {
    ctx: crate::worker::ServerContext,
    shard: u32,
}

impl LocalTransport {
    /// Wraps `engine` (and its gate/counters) as a transport.
    pub fn new(ctx: crate::worker::ServerContext) -> LocalTransport {
        let shard = ctx.engine.shard();
        LocalTransport { ctx, shard }
    }
}

impl ShardTransport for LocalTransport {
    fn shard(&self) -> u32 {
        self.shard
    }
    fn call(&self, req: &Request, _deadline: Option<Instant>) -> Result<Response> {
        // The engine's own deadline handling sees `req.deadline_ms`;
        // there is no transport wait to bound in-process.
        Ok(self.ctx.handle(req, Instant::now()))
    }
    fn describe(&self) -> String {
        format!("local shard {}", self.shard)
    }
}

/// Remote transport tuning.
#[derive(Debug, Clone, Copy)]
pub struct RemoteConfig {
    /// Dial attempts before a connect error surfaces.
    pub connect_attempts: u32,
    /// Base retry/reconnect backoff. Actual delays are
    /// decorrelated-jitter draws from `[backoff, prev * 3]` so a fleet
    /// of frontends doesn't re-dial a restarted worker in lockstep.
    pub backoff: Duration,
    /// Ceiling on any single backoff sleep.
    pub backoff_cap: Duration,
    /// Idle connections kept pooled per transport.
    pub pool_size: usize,
    /// Round-trip retries for idempotent requests on a dead pooled
    /// connection (mutations are never resent after a send).
    pub retries: u32,
    /// Socket read/write timeout when the request carries no deadline;
    /// with a deadline, the effective timeout is the remaining budget
    /// (capped by this). `None` = block forever — only sensible on a
    /// trusted loopback.
    pub io_timeout: Option<Duration>,
}

impl Default for RemoteConfig {
    fn default() -> Self {
        RemoteConfig {
            connect_attempts: 5,
            backoff: Duration::from_millis(20),
            backoff_cap: Duration::from_millis(500),
            pool_size: 4,
            retries: 2,
            io_timeout: Some(Duration::from_secs(5)),
        }
    }
}

struct Conn {
    reader: TcpStream,
    writer: BufWriter<TcpStream>,
}

/// TCP transport to one `tale-server shard` worker, with a persistent
/// connection pool and handshake verification.
pub struct RemoteTransport {
    addr: SocketAddr,
    shard: u32,
    cfg: RemoteConfig,
    /// Vocabulary fingerprint every worker must report (all shards serve
    /// slices of the same database). `None` = accept and record.
    expected_fingerprint: Mutex<Option<u64>>,
    idle: Mutex<Vec<Conn>>,
    jitter: Mutex<Jitter>,
    counters: Mutex<Option<Arc<ServerCounters>>>,
}

impl RemoteTransport {
    /// Creates a transport for shard `shard` at `addr`. Dials lazily —
    /// the first `call` (or [`RemoteTransport::handshake`]) connects.
    pub fn new(addr: SocketAddr, shard: u32, cfg: RemoteConfig) -> Arc<RemoteTransport> {
        Arc::new(RemoteTransport {
            addr,
            shard,
            cfg,
            expected_fingerprint: Mutex::new(None),
            idle: Mutex::new(Vec::new()),
            jitter: Mutex::new(Jitter::new()),
            counters: Mutex::new(None),
        })
    }

    /// Dials and verifies one connection, returning the worker's hello.
    /// Useful at frontend startup to fail fast on a misconfigured shard
    /// list.
    pub fn handshake(&self) -> Result<wire::HelloResponse> {
        let mut conn = self.dial(None)?;
        self.arm_io_timeout(&conn, None)?;
        let hello = self.verify(&mut conn)?;
        self.check_in(conn);
        Ok(hello)
    }

    /// Pins the vocabulary fingerprint this worker must report (checked
    /// on every new connection's handshake).
    pub fn expect_fingerprint(&self, fp: u64) {
        *self.expected_fingerprint.lock() = Some(fp);
    }

    /// Dials with decorrelated-jitter backoff between attempts. Total
    /// reconnect wait is capped by `deadline`: once the request's budget
    /// is spent, the dial loop stops instead of sleeping past it.
    fn dial(&self, deadline: Option<Instant>) -> Result<Conn> {
        let mut delay = self.cfg.backoff;
        let mut last: Option<std::io::Error> = None;
        for attempt in 0..self.cfg.connect_attempts.max(1) {
            if attempt > 0 {
                delay =
                    self.jitter
                        .lock()
                        .decorrelated(self.cfg.backoff, delay, self.cfg.backoff_cap);
                if !sleep_capped(delay, deadline) {
                    break; // deadline spent mid-backoff
                }
            }
            match TcpStream::connect(self.addr) {
                Ok(stream) => {
                    stream.set_nodelay(true).ok();
                    let writer = stream.try_clone()?;
                    return Ok(Conn {
                        reader: stream,
                        writer: BufWriter::new(writer),
                    });
                }
                Err(e) => last = Some(e),
            }
        }
        Err(ServerError::Io(last.unwrap_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                "request deadline spent before a connection could be dialed",
            )
        })))
    }

    /// Runs the hello handshake on a fresh connection and verifies the
    /// peer is the worker this transport expects.
    fn verify(&self, conn: &mut Conn) -> Result<wire::HelloResponse> {
        let hello = Request::Hello(HelloRequest {
            protocol: wire::PROTOCOL_VERSION,
        });
        let resp = roundtrip(conn, &hello)?;
        let h = match resp {
            Response::Hello(h) => h,
            Response::Error(e) => return Err(ServerError::from_error_response(&e)),
            _ => {
                return Err(ServerError::Handshake(
                    "peer answered hello with a non-hello response".into(),
                ))
            }
        };
        if h.protocol != wire::PROTOCOL_VERSION {
            return Err(ServerError::Handshake(format!(
                "protocol skew: worker v{}, frontend v{}",
                h.protocol,
                wire::PROTOCOL_VERSION
            )));
        }
        if h.shard != self.shard {
            return Err(ServerError::Handshake(format!(
                "{} serves shard {}, expected shard {}",
                self.addr, h.shard, self.shard
            )));
        }
        let mut expected = self.expected_fingerprint.lock();
        match *expected {
            Some(fp) if fp != h.vocab_fingerprint => {
                return Err(ServerError::Handshake(format!(
                    "vocabulary fingerprint mismatch at {}: worker {:#018x}, expected {:#018x}",
                    self.addr, h.vocab_fingerprint, fp
                )));
            }
            Some(_) => {}
            None => *expected = Some(h.vocab_fingerprint),
        }
        Ok(h)
    }

    fn check_out(&self, deadline: Option<Instant>) -> Result<Conn> {
        if let Some(conn) = self.idle.lock().pop() {
            return Ok(conn);
        }
        let mut conn = self.dial(deadline)?;
        // Timeout armed before the handshake too: a peer that accepts
        // and then black-holes must not hang the verify read.
        self.arm_io_timeout(&conn, deadline)?;
        self.verify(&mut conn)?;
        Ok(conn)
    }

    /// Bounds the next socket waits: the remaining deadline budget,
    /// capped by the configured idle timeout. A request with no deadline
    /// gets the idle timeout alone.
    fn arm_io_timeout(&self, conn: &Conn, deadline: Option<Instant>) -> Result<()> {
        let remaining = deadline.map(|d| d.saturating_duration_since(Instant::now()));
        if remaining == Some(Duration::ZERO) {
            return Err(ServerError::DeadlineExceeded);
        }
        let effective = match (remaining, self.cfg.io_timeout) {
            (Some(r), Some(idle)) => Some(r.min(idle)),
            (Some(r), None) => Some(r),
            (None, idle) => idle,
        };
        // A zero Duration means "no timeout" to the socket API; the
        // ZERO check above already refused that case.
        conn.reader.set_read_timeout(effective)?;
        conn.reader.set_write_timeout(effective)?;
        Ok(())
    }

    fn check_in(&self, conn: Conn) {
        let mut idle = self.idle.lock();
        if idle.len() < self.cfg.pool_size {
            idle.push(conn);
        }
    }
}

fn roundtrip(conn: &mut Conn, req: &Request) -> Result<Response> {
    wire::write_request(&mut conn.writer, req)?;
    match wire::read_response(&mut conn.reader)? {
        Some((resp, _)) => Ok(resp),
        None => Err(ServerError::Wire(wire::WireError::Truncated)),
    }
}

/// Requests that are safe to resend after a connection died mid-flight.
/// Mutations are **never** resent: a worker may have applied one whose
/// acknowledgement was lost, and resending would apply it twice.
pub(crate) fn idempotent(req: &Request) -> bool {
    !matches!(
        req,
        Request::Insert(_) | Request::Remove(_) | Request::Fold(_)
    )
}

impl ShardTransport for RemoteTransport {
    fn shard(&self) -> u32 {
        self.shard
    }

    fn call(&self, req: &Request, deadline: Option<Instant>) -> Result<Response> {
        let retries = if idempotent(req) { self.cfg.retries } else { 0 };
        let mut delay = self.cfg.backoff;
        let mut attempt = 0;
        loop {
            // A connection that fails mid-request is dropped, not pooled:
            // its stream state is unknowable.
            let result = self.check_out(deadline).and_then(|mut conn| {
                self.arm_io_timeout(&conn, deadline)?;
                match roundtrip(&mut conn, req) {
                    Ok(resp) => {
                        self.check_in(conn);
                        Ok(resp)
                    }
                    Err(e) => Err(e),
                }
            });
            match result {
                Ok(resp) => return Ok(resp),
                Err(e) => {
                    // Handshake refusals and typed remote errors are
                    // answers, not transport flakes — never retried.
                    let transient = matches!(e, ServerError::Io(_) | ServerError::Wire(_));
                    if !transient || attempt >= retries {
                        return Err(e);
                    }
                    attempt += 1;
                    if let Some(c) = self.counters.lock().as_ref() {
                        c.retries.fetch_add(1, Ordering::Relaxed);
                    }
                    delay = self.jitter.lock().decorrelated(
                        self.cfg.backoff,
                        delay,
                        self.cfg.backoff_cap,
                    );
                    if !sleep_capped(delay, deadline) {
                        return Err(e); // budget spent; surface the last failure
                    }
                }
            }
        }
    }

    fn describe(&self) -> String {
        format!("shard {} at {}", self.shard, self.addr)
    }

    fn pin_fingerprint(&self, fp: u64) {
        self.expect_fingerprint(fp);
    }

    fn attach_counters(&self, counters: &Arc<ServerCounters>) {
        *self.counters.lock() = Some(Arc::clone(counters));
    }
}
