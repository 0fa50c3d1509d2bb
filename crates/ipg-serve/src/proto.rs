//! The length-framed wire protocol and the Unix-socket front end.
//!
//! Every message is one frame: a little-endian `u32` payload length
//! followed by the payload (capped at the server's configured max frame,
//! [`MAX_FRAME`] by default). Requests start with an op byte, responses
//! with a status byte:
//!
//! | op | request payload | reply |
//! |---|---|---|
//! | `0x01 PARSE`  | `name_len:u8, name, input…`  | `DONE` / `ERROR` / `BUSY` / `GOAWAY` |
//! | `0x02 OPEN`   | `name_len:u8, name`          | `OPENED` / `ERROR` / `GOAWAY` |
//! | `0x03 FEED`   | `id:u64le, chunk…`           | `NEED_INPUT` / `ERROR` / `GOAWAY` |
//! | `0x04 FINISH` | `id:u64le`                   | `DONE` / `ERROR` / `GOAWAY` |
//! | `0x05 STATS`  | —                            | `STATS` |
//! | `0x06 METRICS` | —                           | `METRICS` |
//!
//! | status | response payload |
//! |---|---|
//! | `0x00 DONE`       | `steps:u64le, suspends:u64le, nodes:u32le, bytes:u64le` |
//! | `0x01 NEED_INPUT` | `kind:u8 (0 = bytes, 1 = until_end), n:u64le` |
//! | `0x02 ERROR`      | UTF-8 message |
//! | `0x03 OPENED`     | `id:u64le` |
//! | `0x04 STATS`      | UTF-8 JSON ([`crate::stats::StatsSnapshot::to_json`]) |
//! | `0x05 BUSY`       | `retry_after_ms:u64le` — shed at admission, retry later |
//! | `0x06 GOAWAY`     | — server draining; session (if any) sealed |
//! | `0x07 METRICS`    | UTF-8 Prometheus text ([`crate::metrics::Registry::gather`]) |
//!
//! Robustness contract: every malformed, truncated, oversized, or
//! out-of-order frame is answered with a *typed* `ERROR` frame — never a
//! panic, never a silent hangup. Oversized length prefixes are rejected
//! against the configured cap before any allocation; a connection that
//! stalls mid-frame past the io timeout (a slow-loris feed) gets a typed
//! error and a close; a draining server seals idle connections with an
//! unsolicited `GOAWAY` frame, so no client ever observes a torn frame.
//!
//! The same [`Server`] backs both front ends, so a session opened over
//! the socket is serviced by the same pinned worker as an in-process one.

use crate::fault::splitmix64;
use crate::pool::JobKind;
use crate::{Response, Server};
use ipg_core::interp::vm::Hint;
use std::io::{self, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Default hard cap on a frame payload (a hostile client cannot make the
/// server buffer more than this per message); tune per server with
/// [`crate::Config::max_frame`].
pub const MAX_FRAME: usize = 64 << 20;

/// How often a connection thread wakes from a blocked read to check the
/// drain flag and the slow-loris deadline.
const POLL: Duration = Duration::from_millis(25);

/// Request ops.
pub const OP_PARSE: u8 = 0x01;
/// Open a streaming session.
pub const OP_OPEN: u8 = 0x02;
/// Feed a chunk to a session.
pub const OP_FEED: u8 = 0x03;
/// Finish a session.
pub const OP_FINISH: u8 = 0x04;
/// Stats snapshot.
pub const OP_STATS: u8 = 0x05;
/// Prometheus metrics scrape.
pub const OP_METRICS: u8 = 0x06;

/// Response statuses.
pub const ST_DONE: u8 = 0x00;
/// More input needed.
pub const ST_NEED_INPUT: u8 = 0x01;
/// Error (payload is the message).
pub const ST_ERROR: u8 = 0x02;
/// Session opened (payload is the id).
pub const ST_OPENED: u8 = 0x03;
/// Stats JSON.
pub const ST_STATS: u8 = 0x04;
/// Shed at admission (payload is `retry_after_ms:u64le`).
pub const ST_BUSY: u8 = 0x05;
/// Server draining; no new work, sessions sealed.
pub const ST_GOAWAY: u8 = 0x06;
/// Prometheus metrics text.
pub const ST_METRICS: u8 = 0x07;

/// Writes one length-framed payload.
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one length-framed payload; `Ok(None)` on clean EOF before the
/// length prefix. This is the blocking client-side reader; the server
/// uses `read_request`'s polled, deadline-guarded variant.
///
/// # Errors
///
/// Propagates the underlying I/O error; oversized frames are
/// `InvalidData`.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    match r.read_exact(&mut len) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "frame exceeds MAX_FRAME"));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

fn bad_request(msg: &str) -> Vec<u8> {
    let mut out = vec![ST_ERROR];
    out.extend_from_slice(msg.as_bytes());
    out
}

fn encode_response(resp: &Response) -> Vec<u8> {
    match resp {
        Response::Done(s) => {
            let mut out = vec![ST_DONE];
            out.extend_from_slice(&s.steps.to_le_bytes());
            out.extend_from_slice(&s.suspends.to_le_bytes());
            out.extend_from_slice(&(s.nodes as u32).to_le_bytes());
            out.extend_from_slice(&(s.bytes as u64).to_le_bytes());
            out
        }
        Response::Opened { id } => {
            let mut out = vec![ST_OPENED];
            out.extend_from_slice(&id.to_le_bytes());
            out
        }
        Response::NeedInput { hint } => {
            let (kind, n) = match hint {
                Hint::Bytes(n) => (0u8, *n as u64),
                Hint::UntilEnd => (1u8, 0u64),
            };
            let mut out = vec![ST_NEED_INPUT, kind];
            out.extend_from_slice(&n.to_le_bytes());
            out
        }
        Response::Error(e) => bad_request(&e.to_string()),
        Response::Busy { retry_after_ms } => {
            let mut out = vec![ST_BUSY];
            out.extend_from_slice(&retry_after_ms.to_le_bytes());
            out
        }
        Response::GoAway => vec![ST_GOAWAY],
    }
}

/// Per-connection protocol state. Session ids are global and sequential,
/// so without an ownership check any client could `FEED`/`FINISH` (and
/// thereby corrupt or kill) another client's session just by guessing
/// ids; each connection may only touch sessions it opened itself.
#[derive(Default)]
pub struct ConnState {
    owned: std::collections::HashSet<u64>,
}

/// Executes one request payload against `server` for one connection and
/// returns the response payload. Shared by the Unix-socket front end and
/// any future transport (the framing stays at the edges; `conn` carries
/// the transport's per-client session ownership). Every malformed
/// request body maps to a typed error frame.
pub fn handle_request(server: &Server, conn: &mut ConnState, payload: &[u8]) -> Vec<u8> {
    let Some((&op, body)) = payload.split_first() else {
        return bad_request("empty frame");
    };
    match op {
        OP_PARSE => {
            let Some((name, input)) = split_name(body) else {
                return bad_request("malformed PARSE frame");
            };
            encode_response(&server.parse_response(name, input.to_vec()))
        }
        OP_OPEN => {
            let Some((name, rest)) = split_name(body) else {
                return bad_request("malformed OPEN frame");
            };
            if !rest.is_empty() {
                return bad_request("trailing bytes in OPEN frame");
            }
            let resp = server.open_response(name);
            if let Response::Opened { id } = resp {
                conn.owned.insert(id);
            }
            encode_response(&resp)
        }
        OP_FEED => {
            let Some((id, chunk)) = split_id(body) else {
                return bad_request("malformed FEED frame");
            };
            if !conn.owned.contains(&id) {
                return bad_request(&foreign_session(id));
            }
            encode_response(
                &server.session_request(id, JobKind::Feed { id, bytes: chunk.to_vec() }),
            )
        }
        OP_FINISH => {
            let Some((id, rest)) = split_id(body) else {
                return bad_request("malformed FINISH frame");
            };
            if !rest.is_empty() {
                return bad_request("trailing bytes in FINISH frame");
            }
            if !conn.owned.remove(&id) {
                return bad_request(&foreign_session(id));
            }
            encode_response(&server.session_request(id, JobKind::Finish { id }))
        }
        OP_STATS => {
            let mut out = vec![ST_STATS];
            out.extend_from_slice(server.stats().to_json().as_bytes());
            out
        }
        OP_METRICS => {
            let mut out = vec![ST_METRICS];
            out.extend_from_slice(server.metrics_text().as_bytes());
            out
        }
        other => bad_request(&format!("unknown op 0x{other:02x}")),
    }
}

fn foreign_session(id: u64) -> String {
    format!("session {id} was not opened on this connection")
}

fn split_name(body: &[u8]) -> Option<(&str, &[u8])> {
    let (&n, rest) = body.split_first()?;
    if rest.len() < n as usize {
        return None;
    }
    let (name, rest) = rest.split_at(n as usize);
    Some((std::str::from_utf8(name).ok()?, rest))
}

fn split_id(body: &[u8]) -> Option<(u64, &[u8])> {
    if body.len() < 8 {
        return None;
    }
    let (id, rest) = body.split_at(8);
    Some((u64::from_le_bytes(id.try_into().ok()?), rest))
}

/// A running Unix-socket front end; dropping it stops the acceptor and
/// removes the socket file. In-flight connections finish at their next
/// EOF (or GOAWAY, if the server is draining).
pub struct UnixFront {
    path: PathBuf,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
}

impl UnixFront {
    /// Stops accepting new connections without tearing down live ones —
    /// the first step of a graceful drain (existing connections learn
    /// about the drain through GOAWAY frames).
    pub fn stop_accepting(&self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = &self.acceptor {
            h.thread().unpark();
        }
    }
}

impl Server {
    /// Serves the framed protocol on a Unix socket at `path`. The server
    /// handle must be shared (`Arc`) because connections are handled on
    /// their own threads.
    ///
    /// # Errors
    ///
    /// Propagates socket-binding failures.
    pub fn serve_unix(self: &Arc<Self>, path: impl AsRef<Path>) -> io::Result<UnixFront> {
        let path = path.as_ref().to_path_buf();
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path)?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_stop = stop.clone();
        let server = self.clone();
        let acceptor =
            std::thread::Builder::new().name("ipg-serve-accept".into()).spawn(move || {
                while !accept_stop.load(Ordering::Acquire) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            let server = server.clone();
                            let _ = std::thread::Builder::new()
                                .name("ipg-serve-conn".into())
                                .spawn(move || serve_connection(&server, stream));
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                            std::thread::park_timeout(Duration::from_millis(5));
                        }
                        Err(_) => break,
                    }
                }
            })?;
        Ok(UnixFront { path, stop, acceptor: Some(acceptor) })
    }
}

/// What one polled frame-read attempt produced.
enum Req {
    /// A complete frame payload.
    Frame(Vec<u8>),
    /// Clean close (EOF before a length prefix, or torn by the client).
    Closed,
    /// The server began draining while the connection sat idle between
    /// frames — time to seal it with GOAWAY.
    DrainIdle,
    /// The length prefix exceeds the configured cap (rejected before any
    /// allocation).
    Oversized(u64),
    /// The frame stalled past the io timeout (slow-loris guard).
    Stalled,
    /// Hard I/O failure; nothing sensible left to say.
    IoError,
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
}

/// Reads one frame with a short poll timeout so the connection thread
/// stays responsive to drain, and a whole-frame deadline so a client
/// dripping bytes (slow loris) cannot hold the thread hostage: once the
/// first byte of a frame arrives, the rest must follow within
/// `io_timeout` total.
fn read_request(
    stream: &mut UnixStream,
    cap: usize,
    io_timeout: Duration,
    draining: impl Fn() -> bool,
) -> Req {
    let mut len = [0u8; 4];
    let mut got = 0usize;
    let mut frame_start: Option<Instant> = None;
    while got < 4 {
        match stream.read(&mut len[got..]) {
            Ok(0) => return Req::Closed,
            Ok(n) => {
                let start = *frame_start.get_or_insert_with(Instant::now);
                got += n;
                if got < 4 && start.elapsed() >= io_timeout {
                    return Req::Stalled;
                }
            }
            Err(e) if is_timeout(&e) => match frame_start {
                None if draining() => return Req::DrainIdle,
                None => {}
                Some(start) if start.elapsed() >= io_timeout => return Req::Stalled,
                Some(_) => {}
            },
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return Req::IoError,
        }
    }
    let n = u32::from_le_bytes(len) as usize;
    if n > cap {
        return Req::Oversized(n as u64);
    }
    let start = frame_start.unwrap_or_else(Instant::now);
    let mut payload = vec![0u8; n];
    let mut got = 0usize;
    while got < n {
        if start.elapsed() >= io_timeout {
            return Req::Stalled;
        }
        match stream.read(&mut payload[got..]) {
            Ok(0) => return Req::Closed,
            Ok(k) => got += k,
            Err(e) if is_timeout(&e) => {}
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return Req::IoError,
        }
    }
    Req::Frame(payload)
}

/// Deterministically corrupts a reply payload in place (chaos harness:
/// exercises client-side frame validation). The length prefix is left
/// intact so framing — and therefore every *subsequent* exchange — stays
/// parseable; only this one payload is garbage.
fn corrupt_payload(payload: &mut [u8]) {
    if let Some(first) = payload.first_mut() {
        *first ^= 0xA5;
    }
    let mid = payload.len() / 2;
    if mid > 0 {
        payload[mid] ^= 0x5A;
    }
}

/// Sessions orphaned by a disconnect (ownership is per-connection, so a
/// reconnecting client cannot resume them) are reclaimed by the workers'
/// deadline eviction. Framing violations are answered with typed error
/// frames before the connection closes; a drain seals the connection
/// with GOAWAY.
fn serve_connection(server: &Server, mut stream: UnixStream) {
    let shared = &server.shared;
    if stream.set_read_timeout(Some(POLL)).is_err()
        || stream.set_write_timeout(Some(shared.io_timeout)).is_err()
    {
        return;
    }
    let mut conn = ConnState::default();
    loop {
        let req =
            read_request(&mut stream, shared.max_frame, shared.io_timeout, || shared.is_draining());
        match req {
            Req::Frame(payload) => {
                let mut resp = handle_request(server, &mut conn, &payload);
                if let Some(plan) = &shared.faults {
                    if plan.corrupt_next_reply() {
                        corrupt_payload(&mut resp);
                    }
                }
                if write_frame(&mut stream, &resp).is_err() {
                    return;
                }
            }
            Req::DrainIdle => {
                let _ = write_frame(&mut stream, &[ST_GOAWAY]);
                return;
            }
            Req::Oversized(n) => {
                let _ = write_frame(
                    &mut stream,
                    &bad_request(&format!(
                        "frame length {n} exceeds the {}-byte max frame",
                        shared.max_frame
                    )),
                );
                return;
            }
            Req::Stalled => {
                let _ = write_frame(
                    &mut stream,
                    &bad_request(&format!(
                        "frame stalled past the {:?} io timeout (slow-loris guard)",
                        shared.io_timeout
                    )),
                );
                return;
            }
            Req::Closed | Req::IoError => return,
        }
    }
}

impl Drop for UnixFront {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.acceptor.take() {
            h.thread().unpark();
            let _ = h.join();
        }
        let _ = std::fs::remove_file(&self.path);
    }
}

/// A decoded wire response (client side).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Wire {
    /// `ST_DONE`.
    Done {
        /// VM steps executed.
        steps: u64,
        /// Session suspensions.
        suspends: u64,
        /// Tree records allocated.
        nodes: u32,
        /// Input bytes consumed.
        bytes: u64,
    },
    /// `ST_OPENED`.
    Opened {
        /// Session id.
        id: u64,
    },
    /// `ST_NEED_INPUT`.
    NeedInput {
        /// 0 = a byte shortfall, 1 = until end-of-input.
        kind: u8,
        /// The shortfall for kind 0.
        n: u64,
    },
    /// `ST_ERROR`.
    Error(String),
    /// `ST_STATS` (JSON).
    Stats(String),
    /// `ST_METRICS` (Prometheus text format).
    Metrics(String),
    /// `ST_BUSY` — shed at admission; retry after the hinted delay.
    Busy {
        /// Suggested backoff before retrying.
        retry_after_ms: u64,
    },
    /// `ST_GOAWAY` — the server is draining; tear down and reconnect
    /// elsewhere/later.
    GoAway,
}

/// Client-side retry discipline for `BUSY` sheds and connect failures:
/// bounded attempts, exponential backoff, deterministic jitter (seeded,
/// so a failing run reproduces) that spreads synchronized clients over
/// 50–100% of each backoff window.
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Retries after the first attempt.
    pub attempts: u32,
    /// First backoff window.
    pub base: Duration,
    /// Backoff ceiling.
    pub cap: Duration,
    /// Jitter stream seed.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 6,
            base: Duration::from_millis(5),
            cap: Duration::from_millis(500),
            seed: 0x9e37_79b9_7f4a_7c15,
        }
    }
}

impl RetryPolicy {
    /// The delay before retry number `attempt` (0-based), decorrelated by
    /// `salt` (e.g. a per-client id) so identical policies don't stampede
    /// in lockstep.
    pub fn backoff(&self, attempt: u32, salt: u64) -> Duration {
        let base_ms = (self.base.as_millis() as u64).max(1);
        let cap_ms = (self.cap.as_millis() as u64).max(1);
        let window = base_ms.saturating_mul(1u64 << attempt.min(16)).min(cap_ms);
        let jitter = splitmix64(self.seed ^ salt.rotate_left(17) ^ u64::from(attempt));
        Duration::from_millis(window - jitter % (window / 2 + 1))
    }
}

/// A blocking protocol client over a Unix stream (tests and the
/// benchmark's chunked-wire lane).
pub struct Client {
    stream: UnixStream,
    retries: u64,
}

impl Client {
    /// Connects to a [`UnixFront`] socket.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(path: impl AsRef<Path>) -> io::Result<Client> {
        Ok(Client { stream: UnixStream::connect(path)?, retries: 0 })
    }

    /// Connects with bounded, jittered retry — rides out a server that is
    /// still binding its socket or briefly restarting.
    ///
    /// # Errors
    ///
    /// The final connection failure once every attempt is exhausted.
    pub fn connect_with_retry(path: impl AsRef<Path>, policy: &RetryPolicy) -> io::Result<Client> {
        let path = path.as_ref();
        let mut attempt = 0u32;
        loop {
            match Client::connect(path) {
                Ok(c) => return Ok(c),
                Err(e) if attempt < policy.attempts => {
                    std::thread::sleep(policy.backoff(attempt, 0));
                    attempt += 1;
                    let _ = e;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Bounds how long any reply read may block (useful against a server
    /// under chaos testing).
    ///
    /// # Errors
    ///
    /// Propagates the socket-option failure.
    pub fn set_reply_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    /// BUSY retries performed by [`Client::parse_with_retry`] so far.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Reads one server-initiated frame without sending a request — how a
    /// client observes the unsolicited `GOAWAY` a draining server sends
    /// to connections that sit idle between frames. `Ok(None)` on EOF.
    ///
    /// # Errors
    ///
    /// I/O errors, or `InvalidData` for an undecodable frame.
    pub fn recv(&mut self) -> io::Result<Option<Wire>> {
        match read_frame(&mut self.stream)? {
            None => Ok(None),
            Some(p) => decode_wire(&p)
                .map(Some)
                .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed response")),
        }
    }

    fn round_trip(&mut self, payload: &[u8]) -> io::Result<Wire> {
        write_frame(&mut self.stream, payload)?;
        let resp = read_frame(&mut self.stream)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"))?;
        decode_wire(&resp)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed response"))
    }

    /// The wire encodes grammar names with a one-byte length; reject
    /// longer names here instead of letting `as u8` truncate them into a
    /// baffling server-side error.
    fn name_len(grammar: &str) -> io::Result<u8> {
        u8::try_from(grammar.len()).map_err(|_| {
            io::Error::new(io::ErrorKind::InvalidInput, "grammar name exceeds 255 bytes")
        })
    }

    /// One-shot parse.
    ///
    /// # Errors
    ///
    /// I/O errors only; parse failures come back as [`Wire::Error`].
    pub fn parse(&mut self, grammar: &str, input: &[u8]) -> io::Result<Wire> {
        let mut p = vec![OP_PARSE, Self::name_len(grammar)?];
        p.extend_from_slice(grammar.as_bytes());
        p.extend_from_slice(input);
        self.round_trip(&p)
    }

    /// One-shot parse that rides out `BUSY` sheds with the policy's
    /// backoff; any other reply (including `GOAWAY`) is returned as-is.
    ///
    /// # Errors
    ///
    /// I/O errors only; parse failures come back as [`Wire::Error`].
    pub fn parse_with_retry(
        &mut self,
        grammar: &str,
        input: &[u8],
        policy: &RetryPolicy,
    ) -> io::Result<Wire> {
        let salt = splitmix64(self.retries ^ input.len() as u64);
        let mut attempt = 0u32;
        loop {
            match self.parse(grammar, input)? {
                Wire::Busy { retry_after_ms } if attempt < policy.attempts => {
                    let backoff = policy.backoff(attempt, salt);
                    std::thread::sleep(backoff.max(Duration::from_millis(retry_after_ms)));
                    self.retries += 1;
                    attempt += 1;
                }
                wire => return Ok(wire),
            }
        }
    }

    /// Opens a streaming session.
    ///
    /// # Errors
    ///
    /// I/O errors only.
    pub fn open(&mut self, grammar: &str) -> io::Result<Wire> {
        let mut p = vec![OP_OPEN, Self::name_len(grammar)?];
        p.extend_from_slice(grammar.as_bytes());
        self.round_trip(&p)
    }

    /// Feeds a chunk to session `id`.
    ///
    /// # Errors
    ///
    /// I/O errors only.
    pub fn feed(&mut self, id: u64, chunk: &[u8]) -> io::Result<Wire> {
        let mut p = vec![OP_FEED];
        p.extend_from_slice(&id.to_le_bytes());
        p.extend_from_slice(chunk);
        self.round_trip(&p)
    }

    /// Finishes session `id`.
    ///
    /// # Errors
    ///
    /// I/O errors only.
    pub fn finish(&mut self, id: u64) -> io::Result<Wire> {
        let mut p = vec![OP_FINISH];
        p.extend_from_slice(&id.to_le_bytes());
        self.round_trip(&p)
    }

    /// Fetches a stats snapshot (JSON).
    ///
    /// # Errors
    ///
    /// I/O errors only.
    pub fn stats(&mut self) -> io::Result<Wire> {
        self.round_trip(&[OP_STATS])
    }

    /// Fetches a Prometheus metrics scrape over the framed protocol (the
    /// same text `--metrics-addr` serves over HTTP).
    ///
    /// # Errors
    ///
    /// I/O errors only.
    pub fn metrics(&mut self) -> io::Result<Wire> {
        self.round_trip(&[OP_METRICS])
    }
}

/// Decodes a response payload into a [`Wire`]; `None` for frames that
/// are not well-formed responses (unknown status byte, wrong payload
/// size) — the detection edge the chaos harness's corrupt-reply
/// injection exercises.
pub fn decode_wire(payload: &[u8]) -> Option<Wire> {
    let (&st, body) = payload.split_first()?;
    Some(match st {
        ST_DONE => {
            if body.len() != 28 {
                return None;
            }
            Wire::Done {
                steps: u64::from_le_bytes(body[0..8].try_into().ok()?),
                suspends: u64::from_le_bytes(body[8..16].try_into().ok()?),
                nodes: u32::from_le_bytes(body[16..20].try_into().ok()?),
                bytes: u64::from_le_bytes(body[20..28].try_into().ok()?),
            }
        }
        ST_OPENED => Wire::Opened { id: u64::from_le_bytes(body.try_into().ok()?) },
        ST_NEED_INPUT => {
            if body.len() != 9 {
                return None;
            }
            Wire::NeedInput { kind: body[0], n: u64::from_le_bytes(body[1..9].try_into().ok()?) }
        }
        ST_ERROR => Wire::Error(String::from_utf8_lossy(body).into_owned()),
        ST_STATS => Wire::Stats(String::from_utf8_lossy(body).into_owned()),
        ST_METRICS => Wire::Metrics(String::from_utf8_lossy(body).into_owned()),
        ST_BUSY => Wire::Busy { retry_after_ms: u64::from_le_bytes(body.try_into().ok()?) },
        ST_GOAWAY => {
            if !body.is_empty() {
                return None;
            }
            Wire::GoAway
        }
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_caps_and_jitters_deterministically() {
        let p = RetryPolicy::default();
        let d0 = p.backoff(0, 1);
        let d5 = p.backoff(5, 1);
        assert!(d0 <= Duration::from_millis(5));
        assert!(d5 <= p.cap, "backoff must respect the cap");
        assert!(d5 >= d0, "later attempts back off at least as long");
        assert_eq!(p.backoff(3, 7), p.backoff(3, 7), "same seed+salt reproduce");
        // Jitter stays inside the 50–100% band of the window.
        for attempt in 0..8 {
            let window = (p.base.as_millis() as u64) << attempt.min(16);
            let window = window.min(p.cap.as_millis() as u64);
            let d = p.backoff(attempt, 99).as_millis() as u64;
            assert!(d >= window - window / 2 && d <= window, "attempt {attempt}: {d} vs {window}");
        }
    }

    #[test]
    fn busy_and_goaway_round_trip_the_wire_codec() {
        let busy = encode_response(&Response::Busy { retry_after_ms: 40 });
        assert_eq!(decode_wire(&busy), Some(Wire::Busy { retry_after_ms: 40 }));
        let goaway = encode_response(&Response::GoAway);
        assert_eq!(decode_wire(&goaway), Some(Wire::GoAway));
        assert_eq!(decode_wire(&[ST_GOAWAY, 0xff]), None, "GOAWAY carries no payload");
    }

    #[test]
    fn corrupt_payload_keeps_length_but_breaks_decode() {
        let mut frame = encode_response(&Response::GoAway);
        let before = frame.len();
        corrupt_payload(&mut frame);
        assert_eq!(frame.len(), before, "framing must stay intact");
        assert_eq!(decode_wire(&frame), None, "corruption must be detectable");
    }
}
