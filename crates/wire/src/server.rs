//! The socket front end: a thread-per-connection TCP loop bridging
//! deframed [`Frame`]s into [`peert_serve::Server::submit_with`].
//!
//! No async runtime — the paper's toolchain philosophy (simple,
//! inspectable concurrency) carried to the service layer. Per
//! connection: one *reader* thread (deframe → dispatch) and one
//! *writer* thread (owns all encoding: takes [`Frame`]s from an
//! internal queue, encodes each one into a single reused buffer
//! together with whatever else is already queued, and sends the batch
//! with one `write_all`, so nothing interleaves partial frames on the
//! socket), both scoped threads of the accept thread, which closes the
//! live connections when it stops. A session has no thread: its sink
//! frames its events onto the writer's queue on the shard's thread, as
//! the paper's PIL target redirects bean outputs straight into the
//! buffer its serial link drains. Both ends set `TCP_NODELAY`: every
//! batch is a complete message, so holding its tail back for the
//! peer's delayed ACK only adds latency. All buffers
//! are bounded: the deframer caps payloads at [`MAX_FRAME_PAYLOAD`],
//! reads go through a fixed read buffer, a write batch stops growing
//! once it passes the frame cap, and no frame the server sends exceeds
//! it — a result chunk too large for one frame is split at step
//! boundaries.
//!
//! Ordering guarantees clients may rely on:
//!
//! * the reader holds the connection's session table from admission
//!   until `Accepted` is queued, and a sink takes that table before it
//!   queues anything, so no `Chunk`/`Done` precedes `Accepted`;
//! * the shard releases the tenant's quota slot *before* it hands the
//!   sink `Done`, so once a client has seen `Done`, a follow-up
//!   submission cannot be quota-rejected by the session that just
//!   ended — which is what makes wire-driven schedules exactly as
//!   predictable as in-process ones;
//! * `CancelAck` is sent only after the cancel flag is set (or the id
//!   was found dead), so a client that has its ack knows the daemon
//!   will not step the session past the current quantum.
//!
//! A dropped connection cancels every session it still owns — a client
//! that vanishes mid-stream stops costing compute within one quantum —
//! and its writer exits once they have all delivered `Done`.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex};
use std::thread::{JoinHandle, Scope};

use peert_frame::Deframer;
use peert_model::graph::BlockId;
use peert_model::lock;
use peert_serve::{CancelToken, LaneOverride, Reject, Server, SessionEvent, SessionSpec, Sink};

use crate::codec::{
    chunk_frames, Frame, WireOverride, WireSpec, ERR_MALFORMED, ERR_UNEXPECTED, ERR_VERSION,
    MAX_CHUNK_VALUES, MAX_FRAME_PAYLOAD, PROTOCOL_VERSION,
};

/// A clone of every live connection's stream, by connection number.
type Conns = Mutex<HashMap<u64, TcpStream>>;
/// One connection's running sessions: id → cancel token.
type Live = Arc<Mutex<HashMap<u64, CancelToken>>>;

/// A running wire front end over a [`peert_serve::Server`].
pub struct WireServer {
    addr: SocketAddr,
    closed: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    /// The accept thread's live connections (each leaves when its
    /// reader exits), for the tests to inspect.
    #[cfg(test)]
    conns: Arc<Conns>,
}

impl WireServer {
    /// Bind `addr` (use port 0 for an ephemeral port) and start
    /// accepting connections against `server`.
    pub fn start(server: Arc<Server>, addr: impl ToSocketAddrs) -> std::io::Result<WireServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let closed = Arc::new(AtomicBool::new(false));
        let conns: Arc<Conns> = Arc::new(Mutex::new(HashMap::new()));
        let accept = {
            let closed = Arc::clone(&closed);
            let conns = Arc::clone(&conns);
            std::thread::Builder::new()
                .name("peert-wire-accept".into())
                .spawn(move || {
                    std::thread::scope(|s| accept_loop(s, &listener, &server, &closed, &conns));
                })
                .expect("spawn wire accept loop")
        };
        Ok(WireServer {
            addr,
            closed,
            accept: Some(accept),
            #[cfg(test)]
            conns,
        })
    }

    /// The bound address (resolves port 0 to the real ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, close every live connection and join all
    /// connection and writer threads. Sessions still streaming are
    /// cancelled by their connections' teardown; call this after
    /// draining (or after [`peert_serve::Server::resume`]) so cancelled
    /// sessions can reach their `Done` events. Dropping the front end
    /// does the same.
    pub fn shutdown(self) {}
}

impl Drop for WireServer {
    fn drop(&mut self) {
        self.closed.store(true, Ordering::Release);
        // Wake the blocking accept() with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

/// Accept connections until `closed`, each served by scoped reader and
/// writer threads; then close the live ones so the scope can join them.
fn accept_loop<'scope>(
    scope: &'scope Scope<'scope, '_>,
    listener: &TcpListener,
    server: &'scope Server,
    closed: &AtomicBool,
    conns: &'scope Conns,
) {
    for (id, stream) in (0u64..).zip(listener.incoming()) {
        if closed.load(Ordering::Acquire) {
            break;
        }
        let Ok(stream) = stream else { continue };
        // a failure only costs latency, never correctness
        let _ = stream.set_nodelay(true);
        // a connection shutdown cannot close is never served
        let Ok(peer) = stream.try_clone() else { continue };
        lock(conns).insert(id, peer);
        std::thread::Builder::new()
            .name("peert-wire-conn".into())
            .spawn_scoped(scope, move || {
                let _entry = ConnEntry { conns, id };
                run_connection(scope, server, stream);
            })
            .expect("spawn wire connection");
    }
    for (_, c) in lock(conns).drain() {
        let _ = c.shutdown(std::net::Shutdown::Both);
    }
}

/// A connection's `conns` entry, removed however its reader exits.
struct ConnEntry<'a> {
    conns: &'a Conns,
    id: u64,
}

impl Drop for ConnEntry<'_> {
    fn drop(&mut self) {
        lock(self.conns).remove(&self.id);
    }
}

/// One connection: start its writer, deframe and dispatch, tear down.
fn run_connection<'scope>(scope: &'scope Scope<'scope, '_>, server: &Server, stream: TcpStream) {
    let Ok(write_half) = stream.try_clone() else { return };
    // The writer thread encodes and sends every outbound frame;
    // the reader and the sinks hold a Sender<Frame>.
    let (out_tx, out_rx) = channel::<Frame>();
    std::thread::Builder::new()
        .name("peert-wire-write".into())
        .spawn_scoped(scope, move || {
            let mut w = write_half;
            let mut batch = Vec::new();
            while let Ok(frame) = out_rx.recv() {
                batch.clear();
                frame.encode_into(&mut batch);
                // append what is already queued, never waiting for more
                while batch.len() < MAX_FRAME_PAYLOAD {
                    let Ok(frame) = out_rx.try_recv() else { break };
                    frame.encode_into(&mut batch);
                }
                if w.write_all(&batch).is_err() {
                    break;
                }
            }
            let _ = w.shutdown(std::net::Shutdown::Both);
        })
        .expect("spawn wire writer");

    // Sinks remove their session at Done; teardown cancels the rest.
    let live: Live = Arc::new(Mutex::new(HashMap::new()));

    let mut reader = stream;
    let mut deframer = Deframer::new(MAX_FRAME_PAYLOAD);
    let mut buf = [0u8; 8192];
    loop {
        let n = match reader.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        for raw in deframer.push_slice(&buf[..n]) {
            if raw.version != PROTOCOL_VERSION {
                send(&out_tx, Frame::Error {
                    code: ERR_VERSION,
                    message: format!(
                        "unsupported protocol version {} (this server speaks {})",
                        raw.version, PROTOCOL_VERSION
                    ),
                });
                continue;
            }
            match Frame::decode(&raw) {
                Ok(Frame::Submit { request_id, spec }) => {
                    handle_submit(server, request_id, spec, &out_tx, &live);
                }
                Ok(Frame::Cancel { session_id }) => {
                    let token = lock(&live).get(&session_id).cloned();
                    let known = token.is_some();
                    if let Some(t) = token {
                        t.cancel();
                    }
                    send(&out_tx, Frame::CancelAck { session_id, known });
                }
                Ok(_) => {
                    send(&out_tx, Frame::Error {
                        code: ERR_UNEXPECTED,
                        message: format!("frame kind 0x{:02X} is server-to-client", raw.kind),
                    });
                }
                Err(e) => {
                    send(&out_tx, Frame::Error {
                        code: ERR_MALFORMED,
                        message: format!("kind 0x{:02X}: {e}", raw.kind),
                    });
                }
            }
        }
    }

    // Disconnect: whatever the client still owned gets cancelled.
    for (_, token) in lock(&live).drain() {
        token.cancel();
    }
}

/// Decode a submission into a [`SessionSpec`] and submit it with a
/// sink onto this connection's writer, answering `Accepted` or the
/// typed rejection.
fn handle_submit(
    server: &Server,
    request_id: u64,
    sub: WireSpec,
    out_tx: &Sender<Frame>,
    live: &Live,
) {
    // Like a build failure below, this is refused before Server::submit,
    // so the daemon's counters are untouched.
    let per_step = sub.probes.len();
    if per_step > MAX_CHUNK_VALUES {
        let reject = Reject::Invalid(format!(
            "{per_step} probes: one step of results would not fit one frame \
             (at most {MAX_CHUNK_VALUES} probes)"
        ));
        send(out_tx, Frame::Rejected { request_id, reject });
        return;
    }
    let diagram = match sub.diagram.build() {
        Ok(d) => d,
        Err(e) => {
            // An in-process caller hits this error while *building*,
            // before any Server::submit — so the daemon's counters are
            // untouched here too, keeping wire and in-process schedules
            // counter-identical.
            send(out_tx, Frame::Rejected {
                request_id,
                reject: Reject::Invalid(format!("diagram does not build: {e}")),
            });
            return;
        }
    };
    let probes = sub
        .probes
        .iter()
        .map(|&(b, p)| (BlockId::from_index(b as usize), p as usize))
        .collect();
    let overrides = sub
        .overrides
        .into_iter()
        .map(|o| match o {
            WireOverride::Param { block, index, value } => LaneOverride::Param {
                block: BlockId::from_index(block as usize),
                index: index as usize,
                value,
            },
            WireOverride::Const { block, value } => {
                LaneOverride::Const { block: BlockId::from_index(block as usize), value }
            }
        })
        .collect();
    let spec = SessionSpec {
        tenant: sub.tenant,
        diagram,
        dt: sub.dt,
        steps: sub.steps,
        probes,
        overrides,
        priority: sub.priority,
        deadline_budget: sub.deadline_ns.map(std::time::Duration::from_nanos),
    };
    // held until Accepted is queued: the sink takes `live` first
    let mut owned = lock(live);
    let make_sink = |id| session_sink(id, per_step, out_tx.clone(), Arc::clone(live));
    match server.submit_with(spec, make_sink) {
        Err(reject) => send(out_tx, Frame::Rejected { request_id, reject }),
        Ok((session_id, token)) => {
            owned.insert(session_id, token);
            send(out_tx, Frame::Accepted { request_id, session_id });
        }
    }
}

/// One session's sink: chunks become frames split at step boundaries;
/// `Done` leaves `live`, then goes out as a frame.
fn session_sink(session_id: u64, per_step: usize, out_tx: Sender<Frame>, live: Live) -> Sink {
    Box::new(move |event| {
        let mut owned = lock(&live);
        match event {
            SessionEvent::Chunk { start_step, values } => {
                for frame in chunk_frames(session_id, start_step, per_step, values) {
                    send(&out_tx, frame);
                }
            }
            SessionEvent::Done { outcome, steps } => {
                owned.remove(&session_id);
                send(&out_tx, Frame::Done { session_id, outcome, steps });
            }
        }
    })
}

fn send(out_tx: &Sender<Frame>, frame: Frame) {
    // A failed send means the writer (and connection) are gone; the
    // reader will notice on its own.
    let _ = out_tx.send(frame);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{WireClient, WireError};
    use peert_model::spec::{BlockSpec, DiagramSpec};
    use peert_model::Value;
    use peert_serve::{ServeConfig, SessionOutcome};
    use peert_verify::diff::value_bits;
    use std::time::{Duration, Instant};

    fn constant_gain() -> DiagramSpec {
        DiagramSpec {
            dt: 1e-3,
            blocks: vec![BlockSpec::Constant { value: 1.0 }, BlockSpec::Gain { gain: 2.0 }],
            wires: vec![(0, 0, 1, 0)],
        }
    }

    /// Poll `cond` until it holds, failing after ten seconds.
    fn eventually(what: &str, mut cond: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting until {what}");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    #[test]
    fn both_ends_of_a_connection_set_nodelay() {
        let server = Arc::new(Server::start(ServeConfig { shards: 1, ..ServeConfig::default() }));
        let wire = WireServer::start(Arc::clone(&server), "127.0.0.1:0").unwrap();
        let mut client = WireClient::connect(wire.local_addr()).unwrap();
        assert!(client.stream.nodelay().unwrap(), "client stream without TCP_NODELAY");
        // an answered request means the accept loop registered the stream
        assert_eq!(client.cancel(7), Ok(false));
        let conns = wire.conns.lock().unwrap();
        assert_eq!(conns.len(), 1);
        for stream in conns.values() {
            assert!(stream.nodelay().unwrap(), "accepted stream without TCP_NODELAY");
        }
        drop(conns);
        client.close();
        wire.shutdown();
    }

    #[test]
    fn closed_connections_release_their_streams_and_shutdown_closes_the_rest() {
        let config = ServeConfig { shards: 1, quantum: 4, ..ServeConfig::default() };
        let server = Arc::new(Server::start(config));
        let wire = WireServer::start(Arc::clone(&server), "127.0.0.1:0").unwrap();
        for _ in 0..64 {
            WireClient::connect(wire.local_addr()).unwrap().close();
        }
        // connections are accepted in order, so an answer on a later one
        // means all 64 were accepted and registered
        let mut live = WireClient::connect(wire.local_addr()).unwrap();
        assert_eq!(live.cancel(7), Ok(false));
        eventually("only the live connection holds a stream", || {
            wire.conns.lock().unwrap().len() <= 1
        });
        // shutdown closes the live connection, which cancels its session
        // mid-stream, and joins every connection and writer thread
        let endless = live.submit(WireSpec::new("t", constant_gain(), u64::MAX / 2)).unwrap();
        let conns = Arc::clone(&wire.conns);
        wire.shutdown();
        assert!(conns.lock().unwrap().is_empty(), "a stream outlived shutdown");
        let server = Arc::try_unwrap(server).ok().expect("a wire thread outlived shutdown");
        assert!(endless.join_deadline(Duration::from_secs(10)).is_err());
        live.close();
        assert_eq!(server.shutdown().counters.cancelled, 1);
    }

    /// A Sine feeding a chain of 600 Gains, every port probed, in
    /// quanta of 256 steps: one quantum's chunk holds 153 856 values,
    /// ~1.4 MB on the wire, so it must travel as several frames.
    #[test]
    fn chunks_over_the_frame_cap_split_at_step_boundaries() {
        const PORTS: usize = 601;
        const STEPS: u64 = 300;
        let mut blocks = vec![BlockSpec::Sine { amplitude: 1.0, freq_hz: 5.0 }];
        blocks.extend((1..PORTS).map(|_| BlockSpec::Gain { gain: 1.0001 }));
        let diagram = DiagramSpec {
            dt: 1e-3,
            blocks,
            wires: (0..PORTS - 1).map(|i| (i, 0, i + 1, 0)).collect(),
        };
        let config = ServeConfig { shards: 1, quantum: 256, ..ServeConfig::default() };
        let server = Arc::new(Server::start(config));

        let spec = SessionSpec::new("t", diagram.build().unwrap(), diagram.dt, STEPS).probe_all();
        assert_eq!(spec.probes.len(), PORTS);
        let local = server.submit(spec).unwrap().join();
        assert_eq!(local.outcome, SessionOutcome::Completed);
        assert_eq!(local.trajectory.len(), PORTS * STEPS as usize);

        let wire = WireServer::start(Arc::clone(&server), "127.0.0.1:0").unwrap();
        let mut client = WireClient::connect(wire.local_addr()).unwrap();
        let mut spec = WireSpec::new("t", diagram, STEPS);
        spec.probes = (0..PORTS as u32).map(|b| (b, 0)).collect();
        let session = client.submit(spec).unwrap();
        let (mut trajectory, mut pieces) = (Vec::new(), Vec::new());
        let outcome = loop {
            match session.next_event().expect("stream ends with Done") {
                SessionEvent::Chunk { start_step, values } => {
                    assert!(values.len() <= MAX_CHUNK_VALUES);
                    assert_eq!(values.len() % PORTS, 0, "split inside a step");
                    pieces.push((start_step, values.len() / PORTS));
                    trajectory.extend(values);
                }
                SessionEvent::Done { outcome, steps } => {
                    assert_eq!(steps, STEPS);
                    break outcome;
                }
            }
        };
        assert_eq!(outcome, SessionOutcome::Completed);
        // 116 506 values fit one frame: 193 steps of 601
        assert_eq!(pieces, vec![(0, 193), (193, 63), (256, 44)]);
        let bits = |t: Vec<Value>| t.into_iter().map(value_bits).collect::<Vec<_>>();
        assert_eq!(bits(trajectory), bits(local.trajectory));
        client.close();
        wire.shutdown();
    }

    #[test]
    fn a_step_wider_than_one_frame_is_rejected_invalid() {
        let server = Arc::new(Server::start(ServeConfig { shards: 1, ..ServeConfig::default() }));
        let wire = WireServer::start(Arc::clone(&server), "127.0.0.1:0").unwrap();
        let mut client = WireClient::connect(wire.local_addr()).unwrap();
        let before = server.stats().counters;
        let mut spec = WireSpec::new("t", constant_gain(), 2);
        spec.probes = vec![(1, 0); MAX_CHUNK_VALUES + 1];
        match client.submit(spec.clone()) {
            Err(WireError::Rejected(Reject::Invalid(msg))) => assert!(msg.contains("116507 probes")),
            Err(e) => panic!("expected Reject::Invalid, got {e}"),
            Ok(_) => panic!("expected Reject::Invalid, the session was accepted"),
        }
        assert_eq!(server.stats().counters, before, "rejected before Server::submit");
        // one probe fewer: each step fills one frame to within two bytes
        spec.probes.pop();
        let result = client.submit(spec).unwrap().join();
        assert_eq!(result.outcome, SessionOutcome::Completed);
        assert_eq!(result.trajectory.len(), 2 * MAX_CHUNK_VALUES);
        assert!(result.trajectory.iter().all(|v| *v == Value::F64(2.0)));
        client.close();
        wire.shutdown();
    }

    /// Submit `diagram` to a fresh 1-shard server over the wire: it must
    /// be answered `Reject::Invalid`, leave the daemon's counters exactly
    /// as the same submission leaves them in-process, and the same
    /// connection must then complete a healthy session.
    fn rejected_invalid_then_healthy(diagram: DiagramSpec) {
        let config = ServeConfig { shards: 1, ..ServeConfig::default() };
        let local = Server::start(config.clone());
        // a spec that does not build never reaches Server::submit
        if let Ok(d) = diagram.build() {
            let spec = SessionSpec::new("t", d, diagram.dt, 10);
            assert!(matches!(local.submit(spec), Err(Reject::Invalid(_))), "in-process admits it");
        }
        let want = local.shutdown().counters;

        let server = Arc::new(Server::start(config));
        let wire = WireServer::start(Arc::clone(&server), "127.0.0.1:0").unwrap();
        let mut client = WireClient::connect(wire.local_addr()).unwrap();
        match client.submit(WireSpec::new("t", diagram, 10)) {
            Err(WireError::Rejected(Reject::Invalid(_))) => {}
            Err(e) => panic!("expected Reject::Invalid, got {e}"),
            Ok(_) => panic!("expected Reject::Invalid, the session was accepted"),
        }
        assert_eq!(server.stats().counters, want, "counters as the in-process path leaves them");
        let mut healthy = WireSpec::new("t", constant_gain(), 4);
        healthy.probes = vec![(1, 0)];
        let result = client.submit(healthy).unwrap().join();
        assert_eq!(result.outcome, SessionOutcome::Completed);
        assert_eq!(result.trajectory, vec![Value::F64(2.0); 4]);
        client.close();
        wire.shutdown();
    }

    fn one_block(block: BlockSpec, dt: f64) -> DiagramSpec {
        DiagramSpec {
            dt,
            blocks: vec![BlockSpec::Sine { amplitude: 1.0, freq_hz: 5.0 }, block],
            wires: vec![(0, 0, 1, 0)],
        }
    }

    #[test]
    fn an_empty_saturation_interval_is_rejected_on_a_live_connection() {
        rejected_invalid_then_healthy(one_block(BlockSpec::Saturation { lo: 1.0, hi: 0.0 }, 1e-3));
    }

    #[test]
    fn a_negative_rate_limiter_is_rejected_before_it_reaches_a_shard() {
        rejected_invalid_then_healthy(one_block(BlockSpec::RateLimiter { rate: -1.0 }, 1e-3));
    }

    #[test]
    fn an_empty_integrator_limit_interval_is_rejected_before_it_reaches_a_shard() {
        let block = BlockSpec::DiscreteIntegrator { period: 1e-3, lo: 1.0, hi: 0.0 };
        rejected_invalid_then_healthy(one_block(block, 1e-3));
        let block = BlockSpec::DiscreteIntegrator { period: 1e-3, lo: f64::NAN, hi: 0.0 };
        rejected_invalid_then_healthy(one_block(block, 1e-3));
    }

    #[test]
    fn a_block_wider_than_one_frame_can_wire_is_rejected_before_it_reaches_a_shard() {
        // one input past the bound: the plan would size a per-input
        // table for every one of them
        let inputs = peert_model::spec::MAX_BLOCK_INPUTS + 1;
        rejected_invalid_then_healthy(one_block(BlockSpec::Product { inputs }, 1e-3));
        let block = BlockSpec::MinMax { is_max: true, inputs };
        rejected_invalid_then_healthy(one_block(block, 1e-3));
    }

    #[test]
    fn an_infinite_dt_is_rejected_before_it_reaches_a_shard() {
        let spec = one_block(BlockSpec::RateLimiter { rate: 0.0 }, f64::INFINITY);
        rejected_invalid_then_healthy(spec);
    }

    /// `Accepted` precedes every `Chunk`/`Done` of its session (the
    /// client drops frames for sessions it does not know, so an early
    /// `Done` would wedge the join), and the quota slot is back before
    /// `Done` is visible (or the next submission would be refused at a
    /// quota of one).
    #[test]
    fn a_client_that_has_seen_done_resubmits_at_quota_one() {
        let config = ServeConfig { shards: 1, tenant_quota: 1, ..ServeConfig::default() };
        let server = Arc::new(Server::start(config));
        let wire = WireServer::start(Arc::clone(&server), "127.0.0.1:0").unwrap();
        let mut client = WireClient::connect(wire.local_addr()).unwrap();
        for _ in 0..256 {
            let spec = WireSpec::new("t", constant_gain(), 1).probe(1, 0);
            let session = client.submit(spec).expect("a client that saw Done is under quota");
            let result = session.join_deadline(Duration::from_secs(10)).unwrap();
            assert_eq!(result.outcome, SessionOutcome::Completed);
            assert_eq!(result.trajectory, vec![Value::F64(2.0)]);
        }
        client.close();
        wire.shutdown();
    }
}
