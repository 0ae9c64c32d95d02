//! A minimal blocking client for the [`crate::protocol`] — used by the
//! `serve_load` generator, the chaos harness, the CLI and the tests.
//!
//! Resilience lives here rather than in every caller: a client can
//! propagate a per-request deadline (`set_deadline_ms`), bound its own
//! socket waits (`set_io_timeout`), retry `Overloaded` rejections with
//! capped, jittered exponential backoff ([`Backoff`],
//! [`Client::call_with_retry`]), and reconnect-and-resend through
//! connection-level failures (refused, reset, broken pipe — the
//! failover triggers). I/O errors are never retried on the *same*
//! connection — a partially read or written frame leaves the stream
//! desynchronized, so the retry path always reconnects first.
//! [`MultiClient`] extends this across endpoints: reads fail over to a
//! replica when the primary is unreachable, and `NotPrimary` redirects
//! are followed to wherever writes are currently accepted.

use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::protocol::{
    decode_response_batch, encode_request_batch, read_frame, write_frame, Request, Response, Status,
};

/// True for I/O failures that mean "the connection is gone, a fresh one
/// may work": the peer refused, reset, or abandoned the stream. Used by
/// the retry paths to distinguish reconnect-worthy failures from
/// decode/timeout errors that a new connection would not fix.
pub fn is_transport_error(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::ConnectionRefused
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::BrokenPipe
            | io::ErrorKind::UnexpectedEof
            | io::ErrorKind::NotConnected
    )
}

/// One TCP connection speaking the batch protocol, closed-loop: each
/// [`Client::call`] sends one frame and blocks for its response frame.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    /// Resolved peer address, kept so the retry path can reconnect.
    addr: SocketAddr,
    next_tag: u32,
    deadline_ms: u32,
    io_timeout: Option<Duration>,
}

impl Client {
    /// Connects (with `TCP_NODELAY`, so small closed-loop frames are
    /// not delayed by Nagle's algorithm).
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let addr = stream.peer_addr()?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            reader,
            writer: BufWriter::new(stream),
            addr,
            next_tag: 1,
            deadline_ms: 0,
            io_timeout: None,
        })
    }

    /// The peer address this client connected to.
    pub fn peer_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Re-establishes the connection to the same peer, carrying over the
    /// configured I/O timeout. Any in-flight frame state is abandoned
    /// (tags keep incrementing, so stale responses can never be matched).
    pub fn reconnect(&mut self) -> io::Result<()> {
        let stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(self.io_timeout)?;
        stream.set_write_timeout(self.io_timeout)?;
        self.reader = BufReader::new(stream.try_clone()?);
        self.writer = BufWriter::new(stream);
        Ok(())
    }

    /// Sets the deadline field stamped on every subsequent request
    /// frame, in milliseconds. 0 (the default) defers to the server's
    /// configured default budget.
    pub fn set_deadline_ms(&mut self, deadline_ms: u32) {
        self.deadline_ms = deadline_ms;
    }

    /// Bounds this client's own socket reads and writes: a server that
    /// stops responding fails the call with `WouldBlock`/`TimedOut`
    /// instead of hanging the caller forever. `None` restores blocking.
    /// The setting survives [`Client::reconnect`].
    pub fn set_io_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.io_timeout = timeout;
        let stream = self.writer.get_ref();
        stream.set_read_timeout(timeout)?;
        stream.set_write_timeout(timeout)
    }

    /// Sends `reqs` as one batch frame and blocks for the matching
    /// response frame (matched by tag — an `Overloaded` rejection for a
    /// later pipelined frame can never be misattributed).
    pub fn call(&mut self, reqs: &[Request]) -> io::Result<Vec<Response>> {
        let tag = self.next_tag;
        self.next_tag = self.next_tag.wrapping_add(1);
        write_frame(
            &mut self.writer,
            &encode_request_batch(tag, self.deadline_ms, reqs),
        )?;
        loop {
            let Some(payload) = read_frame(&mut self.reader)? else {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection before responding",
                ));
            };
            let (resp_tag, resps) = decode_response_batch(&payload)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
            if resp_tag == tag {
                return Ok(resps);
            }
            // A response to an earlier (abandoned) frame; skip it.
        }
    }

    /// [`Client::call`], retrying two failure shapes with the same
    /// seeded backoff:
    ///
    /// - The *whole batch* rejected `Overloaded`: the server shed it
    ///   unexecuted, so a resend is safe and exact. Mixed responses are
    ///   returned as-is — some requests were answered, and re-running
    ///   those would double-count work on the server.
    /// - A transport failure ([`is_transport_error`]): the connection
    ///   is reconnected and the batch resent. A `ConnectionRefused` is
    ///   unambiguous (nothing was sent), but a reset or EOF *after*
    ///   the frame went out may re-execute requests the server already
    ///   ran — acceptable for reads and for idempotent writes
    ///   (`Upsert` replaces, it does not accumulate).
    ///
    /// Sleeps `backoff.delay(attempt)` between tries; returns the last
    /// all-`Overloaded` response or transport error when retries are
    /// exhausted.
    pub fn call_with_retry(
        &mut self,
        reqs: &[Request],
        backoff: &mut Backoff,
    ) -> io::Result<Vec<Response>> {
        let mut attempt = 0u32;
        loop {
            match self.call(reqs) {
                Ok(resps) => {
                    let all_overloaded = !resps.is_empty()
                        && resps
                            .iter()
                            .all(|r| matches!(r, Response::Error(Status::Overloaded, _)));
                    if !all_overloaded || attempt >= backoff.max_retries {
                        return Ok(resps);
                    }
                }
                Err(e) if is_transport_error(&e) => {
                    if attempt >= backoff.max_retries {
                        return Err(e);
                    }
                    std::thread::sleep(backoff.delay(attempt));
                    attempt += 1;
                    // A failed reconnect (e.g. the server is still
                    // restarting) leaves the dead streams in place; the
                    // next call() fails as a transport error and burns
                    // another attempt.
                    let _ = self.reconnect();
                    continue;
                }
                Err(e) => return Err(e),
            }
            std::thread::sleep(backoff.delay(attempt));
            attempt += 1;
        }
    }

    /// Sends a raw payload as a frame, bypassing the encoder — test
    /// hook for exercising the server's `BadRequest` path.
    pub fn send_raw(&mut self, payload: &[u8]) -> io::Result<()> {
        write_frame(&mut self.writer, payload)
    }

    /// Reads one raw response frame (pairs with [`Client::send_raw`]).
    pub fn recv_raw(&mut self) -> io::Result<Option<Vec<u8>>> {
        read_frame(&mut self.reader)
    }
}

// The borrow-split impls let `call` use the split halves of one socket;
// keep the raw stream reachable for tests that need half-close.
impl Client {
    /// Shuts down the write side, signalling the server a clean EOF.
    pub fn close_write(&mut self) -> io::Result<()> {
        self.writer.flush()?;
        self.writer.get_ref().shutdown(std::net::Shutdown::Write)
    }

    /// Drains and discards everything until the server closes the
    /// connection (used while shutting down gracefully).
    pub fn drain(&mut self) -> io::Result<()> {
        let mut sink = [0u8; 4096];
        loop {
            match self.reader.read(&mut sink) {
                Ok(0) => return Ok(()),
                Ok(_) => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// A client over an *endpoint set* (primary plus replicas) that keeps
/// serving through single-endpoint failures.
///
/// Connection policy:
/// - Lazily connects to the first reachable endpoint, starting from the
///   one that last worked.
/// - On a transport failure, rotates to the next endpoint and retries
///   (bounded by the backoff's `max_retries`) — this is how reads fail
///   over to a replica while the primary is down.
/// - When a batch comes back entirely `NotPrimary` with a non-empty
///   primary address, the client reconnects there and resends: a
///   `NotPrimary` response means the replica did *not* execute the
///   request, so the resend is exact. The redirect address is
///   remembered and preferred until it stops working.
///
/// The same re-execution caveat as [`Client::call_with_retry`] applies
/// to transport-failure resends.
pub struct MultiClient {
    endpoints: Vec<String>,
    /// Index of the endpoint the live connection (if any) points at;
    /// connection attempts start here and rotate.
    current: usize,
    /// Address learned from a `NotPrimary` redirect; tried first.
    redirect: Option<String>,
    client: Option<Client>,
    deadline_ms: u32,
    io_timeout: Option<Duration>,
}

impl MultiClient {
    /// Builds a client over `endpoints` (tried in order). Panics if the
    /// list is empty.
    pub fn new(endpoints: Vec<String>) -> MultiClient {
        assert!(!endpoints.is_empty(), "MultiClient needs >= 1 endpoint");
        MultiClient {
            endpoints,
            current: 0,
            redirect: None,
            client: None,
            deadline_ms: 0,
            io_timeout: None,
        }
    }

    /// Replaces the endpoint list (e.g. after a primary restarted on a
    /// new address) and drops the live connection so the next call
    /// reconnects against the new list.
    pub fn set_endpoints(&mut self, endpoints: Vec<String>) {
        assert!(!endpoints.is_empty(), "MultiClient needs >= 1 endpoint");
        self.endpoints = endpoints;
        self.current = 0;
        self.redirect = None;
        self.client = None;
    }

    /// Deadline stamped on every request frame (see
    /// [`Client::set_deadline_ms`]); applied to future connections too.
    pub fn set_deadline_ms(&mut self, deadline_ms: u32) {
        self.deadline_ms = deadline_ms;
        if let Some(c) = &mut self.client {
            c.set_deadline_ms(deadline_ms);
        }
    }

    /// Socket I/O bound (see [`Client::set_io_timeout`]); applied to
    /// future connections too.
    pub fn set_io_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.io_timeout = timeout;
        if let Some(c) = &mut self.client {
            c.set_io_timeout(timeout)?;
        }
        Ok(())
    }

    /// The endpoint (or redirect address) the live connection points
    /// at, if connected.
    pub fn connected_to(&self) -> Option<String> {
        self.client.as_ref().map(|c| c.addr.to_string())
    }

    fn connect_to(&self, addr: &str) -> io::Result<Client> {
        let mut c = Client::connect(addr)?;
        c.set_deadline_ms(self.deadline_ms);
        c.set_io_timeout(self.io_timeout)?;
        Ok(c)
    }

    /// Connects to the redirect target if one is known, else the first
    /// reachable endpoint starting at `current`. A dead redirect is
    /// forgotten so the endpoint list takes over.
    fn ensure_connected(&mut self) -> io::Result<&mut Client> {
        if self.client.is_none() {
            if let Some(addr) = self.redirect.clone() {
                match self.connect_to(&addr) {
                    Ok(c) => self.client = Some(c),
                    Err(_) => self.redirect = None,
                }
            }
        }
        if self.client.is_none() {
            let n = self.endpoints.len();
            let mut last_err = io::Error::new(io::ErrorKind::NotConnected, "no endpoint reachable");
            for k in 0..n {
                let i = (self.current + k) % n;
                match self.connect_to(&self.endpoints[i]) {
                    Ok(c) => {
                        self.current = i;
                        self.client = Some(c);
                        break;
                    }
                    Err(e) => last_err = e,
                }
            }
            if self.client.is_none() {
                return Err(last_err);
            }
        }
        Ok(self.client.as_mut().expect("connected above"))
    }

    /// One call on the current connection (connecting first if needed);
    /// no retries, no failover.
    pub fn call(&mut self, reqs: &[Request]) -> io::Result<Vec<Response>> {
        let r = self.ensure_connected()?.call(reqs);
        if r.is_err() {
            self.client = None;
        }
        r
    }

    /// [`Client::call_with_retry`] semantics plus endpoint failover and
    /// `NotPrimary` redirect-following (see the type docs).
    pub fn call_with_retry(
        &mut self,
        reqs: &[Request],
        backoff: &mut Backoff,
    ) -> io::Result<Vec<Response>> {
        let mut attempt = 0u32;
        loop {
            let result = match self.ensure_connected() {
                Ok(c) => c.call(reqs),
                Err(e) => Err(e),
            };
            match result {
                Ok(resps) => {
                    let redirect = resps.iter().find_map(|r| match r {
                        Response::NotPrimary { primary, .. } if !primary.is_empty() => {
                            Some(primary.clone())
                        }
                        _ => None,
                    });
                    let all_not_primary = !resps.is_empty()
                        && resps.iter().all(|r| {
                            matches!(
                                r,
                                Response::NotPrimary { .. }
                                    | Response::Error(Status::NotPrimary, _)
                            )
                        });
                    if all_not_primary && attempt < backoff.max_retries {
                        if let Some(addr) = redirect {
                            attempt += 1;
                            self.redirect = Some(addr);
                            self.client = None;
                            continue; // redirects are free: not executed, no sleep
                        }
                    }
                    let all_overloaded = !resps.is_empty()
                        && resps
                            .iter()
                            .all(|r| matches!(r, Response::Error(Status::Overloaded, _)));
                    if !all_overloaded || attempt >= backoff.max_retries {
                        return Ok(resps);
                    }
                    std::thread::sleep(backoff.delay(attempt));
                    attempt += 1;
                }
                Err(e) if is_transport_error(&e) => {
                    self.client = None;
                    if attempt >= backoff.max_retries {
                        return Err(e);
                    }
                    std::thread::sleep(backoff.delay(attempt));
                    attempt += 1;
                    // Rotate so the next connection attempt starts at a
                    // different endpoint than the one that just failed.
                    self.current = (self.current + 1) % self.endpoints.len();
                }
                Err(e) => {
                    self.client = None;
                    return Err(e);
                }
            }
        }
    }
}

/// Capped exponential backoff with full-range-halved jitter: attempt
/// `n` sleeps uniformly in `[cap/2, cap]` where `cap = min(base <<
/// n, max)`. Jitter is seeded (xorshift64*), so a load test's retry
/// storm is reproducible; distinct seeds desynchronize clients that
/// were rejected together (avoiding a retry thundering herd).
#[derive(Debug)]
pub struct Backoff {
    /// Retries after the first attempt (so `max_retries + 1` calls).
    pub max_retries: u32,
    base: Duration,
    max: Duration,
    rng: u64,
}

impl Backoff {
    /// `base` doubles per attempt, capped at `max`; `seed` drives the
    /// jitter.
    pub fn new(max_retries: u32, base: Duration, max: Duration, seed: u64) -> Backoff {
        Backoff {
            max_retries,
            base,
            max,
            rng: seed | 1,
        }
    }

    /// The sleep before retry number `attempt` (0-based).
    pub fn delay(&mut self, attempt: u32) -> Duration {
        let cap = self
            .base
            .saturating_mul(1u32.checked_shl(attempt.min(16)).unwrap_or(u32::MAX))
            .min(self.max);
        let r = ccam_storage::xorshift64_star(&mut self.rng);
        let cap_us = u64::try_from(cap.as_micros()).unwrap_or(u64::MAX);
        Duration::from_micros(cap_us / 2 + r % (cap_us / 2 + 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_delays_double_stay_jittered_and_cap() {
        let base = Duration::from_millis(10);
        let max = Duration::from_millis(80);
        let mut b = Backoff::new(8, base, max, 42);
        for attempt in 0..10 {
            let cap = u64::try_from(
                base.saturating_mul(1u32 << attempt.min(16))
                    .min(max)
                    .as_micros(),
            )
            .unwrap();
            let d = u64::try_from(b.delay(attempt).as_micros()).unwrap();
            assert!(
                d >= cap / 2 && d <= cap,
                "attempt {attempt}: {d} vs cap {cap}"
            );
        }
    }

    #[test]
    fn backoff_is_deterministic_per_seed() {
        let mk = |seed| {
            let mut b = Backoff::new(4, Duration::from_millis(5), Duration::from_millis(40), seed);
            (0..6).map(|a| b.delay(a)).collect::<Vec<_>>()
        };
        assert_eq!(mk(9), mk(9));
        assert_ne!(mk(9), mk(10));
    }
}
