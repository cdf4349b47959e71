//! The blocking wire client: submit sessions to a remote (or loopback)
//! `peert-wire` server and drain their result streams.
//!
//! One background reader thread demultiplexes the socket: submit
//! responses resolve pending [`WireClient::submit`] calls by
//! `request_id`, `Chunk`/`Done` frames route to their session's
//! channel, `CancelAck`s resolve pending [`WireClient::cancel`] calls.
//! Everything client-facing blocks — no async runtime, mirroring the
//! in-process [`peert_serve::SessionHandle`] surface closely enough
//! that the verify harness can run the same schedule through both and
//! compare bit-for-bit.

use std::collections::HashMap;
use std::io::Write;
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use peert_frame::Deframer;
use peert_serve::{Reject, SessionEvent, SessionOutcome, SessionResult};

use crate::codec::{Frame, WireSpec, MAX_FRAME_PAYLOAD, PROTOCOL_VERSION};

/// Why a client call failed.
#[derive(Clone, Debug, PartialEq)]
pub enum WireError {
    /// The server refused the submission — the same typed reason an
    /// in-process `Server::submit` returns.
    Rejected(Reject),
    /// The connection died (or was closed) mid-call.
    Disconnected,
    /// The server answered with a protocol-level [`Frame::Error`].
    Protocol {
        /// One of the `ERR_*` codes.
        code: u16,
        /// Server-supplied detail.
        message: String,
    },
    /// A local socket error.
    Io(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Rejected(r) => write!(f, "rejected: {r}"),
            WireError::Disconnected => write!(f, "connection closed"),
            WireError::Protocol { code, message } => {
                write!(f, "protocol error {code}: {message}")
            }
            WireError::Io(e) => write!(f, "socket error: {e}"),
        }
    }
}

enum SubmitReply {
    Accepted(u64, Receiver<SessionEvent>),
    Rejected(Reject),
    Failed(WireError),
}

#[derive(Default)]
struct Router {
    pending_submits: HashMap<u64, Sender<SubmitReply>>,
    sessions: HashMap<u64, Sender<SessionEvent>>,
    pending_cancels: HashMap<u64, Sender<bool>>,
}

impl Router {
    /// Fail every caller still waiting (connection teardown).
    fn fail_all(&mut self, err: &WireError) {
        for (_, tx) in self.pending_submits.drain() {
            let _ = tx.send(SubmitReply::Failed(err.clone()));
        }
        self.sessions.clear(); // dropping senders ends the streams
        self.pending_cancels.clear();
    }
}

/// A blocking client for one `peert-wire` connection.
pub struct WireClient {
    pub(crate) stream: TcpStream,
    router: Arc<Mutex<Router>>,
    reader: Option<JoinHandle<()>>,
    next_request: u64,
}

impl WireClient {
    /// Connect with `TCP_NODELAY` set (a submission is one complete
    /// frame; waiting for the server's delayed ACK only adds latency)
    /// and start the demultiplexing reader thread.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<WireClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let router: Arc<Mutex<Router>> = Arc::new(Mutex::new(Router::default()));
        let read_half = stream.try_clone()?;
        let reader = {
            let router = Arc::clone(&router);
            std::thread::Builder::new()
                .name("peert-wire-client".into())
                .spawn(move || run_reader(read_half, &router))
                .expect("spawn wire client reader")
        };
        Ok(WireClient { stream, router, reader: Some(reader), next_request: 0 })
    }

    /// Submit a session and block until the server accepts or rejects
    /// it. Mirrors `Server::submit`: a rejection is
    /// [`WireError::Rejected`] with the same typed reason.
    pub fn submit(&mut self, spec: WireSpec) -> Result<WireSession, WireError> {
        let request_id = self.next_request;
        self.next_request += 1;
        let (tx, rx) = channel();
        self.router.lock().expect("router lock").pending_submits.insert(request_id, tx);
        self.send(&Frame::Submit { request_id, spec })?;
        match rx.recv() {
            Ok(SubmitReply::Accepted(session_id, events)) => {
                Ok(WireSession { id: session_id, events })
            }
            Ok(SubmitReply::Rejected(r)) => Err(WireError::Rejected(r)),
            Ok(SubmitReply::Failed(e)) => Err(e),
            Err(_) => Err(WireError::Disconnected),
        }
    }

    /// Cancel a session by id and block until the server acknowledges.
    /// Returns whether the session was still live server-side — either
    /// way, once this returns the daemon will not step the session
    /// past its current quantum.
    pub fn cancel(&mut self, session_id: u64) -> Result<bool, WireError> {
        let (tx, rx) = channel();
        self.router.lock().expect("router lock").pending_cancels.insert(session_id, tx);
        self.send(&Frame::Cancel { session_id })?;
        rx.recv().map_err(|_| WireError::Disconnected)
    }

    /// Close the connection and join the reader thread. Outstanding
    /// sessions server-side are cancelled by the disconnect.
    pub fn close(mut self) {
        self.close_inner();
    }

    fn close_inner(&mut self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        if let Some(h) = self.reader.take() {
            let _ = h.join();
        }
    }

    fn send(&mut self, frame: &Frame) -> Result<(), WireError> {
        self.stream.write_all(&frame.encode()).map_err(|e| WireError::Io(e.to_string()))
    }
}

impl Drop for WireClient {
    fn drop(&mut self) {
        self.close_inner();
    }
}

/// The client-side view of one admitted session: the same event stream
/// a [`peert_serve::SessionHandle`] exposes, fed over the socket.
pub struct WireSession {
    id: u64,
    events: Receiver<SessionEvent>,
}

impl WireSession {
    /// Server-assigned session id (pass to [`WireClient::cancel`]).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Next stream event (blocking); `None` once the stream ends.
    pub fn next_event(&self) -> Option<SessionEvent> {
        self.events.recv().ok()
    }

    /// Drain the stream to completion, assembling the full result —
    /// the mirror of [`peert_serve::SessionHandle::join`], down to the
    /// `Failed` read for a stream that ends without `Done`.
    pub fn join(self) -> SessionResult {
        // a timeout past the clock's range waits like a plain receive
        self.join_deadline(Duration::MAX).unwrap_or_else(|why| SessionResult {
            outcome: SessionOutcome::Failed(why),
            steps: 0,
            trajectory: Vec::new(),
        })
    }

    /// Like [`WireSession::join`] but bounded per event (wedge
    /// detection for tests).
    pub fn join_deadline(self, timeout: Duration) -> Result<SessionResult, String> {
        let mut trajectory = Vec::new();
        loop {
            match self.events.recv_timeout(timeout) {
                Ok(SessionEvent::Chunk { values, .. }) => trajectory.extend(values),
                Ok(SessionEvent::Done { outcome, steps }) => {
                    return Ok(SessionResult { outcome, steps, trajectory })
                }
                Err(RecvTimeoutError::Timeout) => {
                    return Err(format!("session {} wedged: no event within {timeout:?}", self.id))
                }
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(format!("session {} stream dropped", self.id))
                }
            }
        }
    }
}

fn run_reader(stream: TcpStream, router: &Arc<Mutex<Router>>) {
    let mut deframer = Deframer::new(MAX_FRAME_PAYLOAD);
    let mut buf = [0u8; 8192];
    let mut reader = stream;
    loop {
        let n = match std::io::Read::read(&mut reader, &mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        for raw in deframer.push_slice(&buf[..n]) {
            if raw.version != PROTOCOL_VERSION {
                continue;
            }
            let Ok(frame) = Frame::decode(&raw) else { continue };
            let mut r = router.lock().expect("router lock");
            match frame {
                Frame::Accepted { request_id, session_id } => {
                    if let Some(tx) = r.pending_submits.remove(&request_id) {
                        let (ev_tx, ev_rx) = channel();
                        r.sessions.insert(session_id, ev_tx);
                        let _ = tx.send(SubmitReply::Accepted(session_id, ev_rx));
                    }
                }
                Frame::Rejected { request_id, reject } => {
                    if let Some(tx) = r.pending_submits.remove(&request_id) {
                        let _ = tx.send(SubmitReply::Rejected(reject));
                    }
                }
                Frame::Chunk { session_id, start_step, values } => {
                    if let Some(tx) = r.sessions.get(&session_id) {
                        let _ = tx.send(SessionEvent::Chunk { start_step, values });
                    }
                }
                Frame::Done { session_id, outcome, steps } => {
                    if let Some(tx) = r.sessions.remove(&session_id) {
                        let _ = tx.send(SessionEvent::Done { outcome, steps });
                    }
                }
                Frame::CancelAck { session_id, known } => {
                    if let Some(tx) = r.pending_cancels.remove(&session_id) {
                        let _ = tx.send(known);
                    }
                }
                Frame::Error { code, message } => {
                    // A protocol-level complaint can only concern the
                    // most recent thing we sent; fail whatever is
                    // pending rather than let a caller hang.
                    let err = WireError::Protocol { code, message };
                    for (_, tx) in r.pending_submits.drain() {
                        let _ = tx.send(SubmitReply::Failed(err.clone()));
                    }
                    r.pending_cancels.clear();
                }
                Frame::Submit { .. } | Frame::Cancel { .. } => {
                    // client-to-server kinds have no meaning here
                }
            }
        }
    }
    router.lock().expect("router lock").fail_all(&WireError::Disconnected);
}
