//! One end-to-end trial: a real `Server` bound on loopback TCP, one
//! ingest connection and one query connection, driven from this
//! process exactly as a remote client would drive it.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::thread;
use std::time::{Duration, Instant};

use hh::engine::Engine;
use hh::net::{sys, NetOptions, ServeOptions, Server};

use crate::alloc;
use crate::trace::Tracer;
use crate::workload::{BenchItem, Chunk, Input, QueryKind, Spec};

/// Kernel socket buffer requested on the client's ingest connection,
/// matching what the server asks for on its side.
const SOCK_BUF: usize = 4 * 1024 * 1024;

/// One query reply, as a byte range of the trial's reply log.
#[derive(Debug, Clone, Copy)]
pub struct Reply {
    pub kind: QueryKind,
    pub start: usize,
    pub end: usize,
    /// Items the ingest sender had handed to its socket when the reply
    /// was read: an upper bound on what the reply may count.
    pub sent_at: u64,
}

/// Buffers reused by every trial, reserved before the trial's heap
/// baseline is taken so the client's own bookkeeping stays out of
/// `peak_heap_mib`.
pub struct Scratch {
    pub queries: QueryLog,
    pub lateness_ms: Vec<f64>,
}

/// Every reply of a trial's query connection, and the latencies.
pub struct QueryLog {
    pub log: Vec<u8>,
    pub replies: Vec<Reply>,
    pub topk_ms: Vec<f64>,
    pub snapshot_ms: Vec<f64>,
}

impl Scratch {
    pub fn new() -> Self {
        Scratch {
            queries: QueryLog {
                log: Vec::with_capacity(64 << 20),
                replies: Vec::with_capacity(4096),
                topk_ms: Vec::with_capacity(4096),
                snapshot_ms: Vec::with_capacity(4096),
            },
            lateness_ms: Vec::with_capacity(8192),
        }
    }

    fn clear(&mut self) {
        let q = &mut self.queries;
        q.log.clear();
        q.replies.clear();
        q.topk_ms.clear();
        q.snapshot_ms.clear();
        self.lateness_ms.clear();
    }
}

impl QueryLog {
    /// Sends one query, reads its reply into the log, and records its
    /// latency from `due`.
    fn ask(
        &mut self,
        query: &mut TcpStream,
        kind: QueryKind,
        due: Instant,
        sent: &AtomicU64,
    ) -> Result<(), String> {
        query
            .write_all(kind.line())
            .map_err(|e| format!("query write: {e}"))?;
        let (start, end) =
            read_reply(query, &mut self.log).map_err(|e| format!("query reply: {e}"))?;
        let latency = ms(Instant::now() - due);
        self.replies.push(Reply {
            kind,
            start,
            end,
            sent_at: sent.load(SeqCst),
        });
        match kind {
            QueryKind::TopK => self.topk_ms.push(latency),
            QueryKind::Snapshot => self.snapshot_ms.push(latency),
            QueryKind::Stats => {}
        }
        Ok(())
    }
}

/// What one trial measured. The samples stay in the [`Scratch`].
pub struct Trial<I: BenchItem> {
    pub setup_s: f64,
    pub sent: u64,
    pub ingest_s: f64,
    pub peak_heap: i64,
    pub queries_sent: u64,
    /// `routed` of the drain acknowledgement.
    pub ack_routed: Option<u64>,
    pub engine: Engine<I>,
}

/// The files a query_mix trial reads and writes.
pub struct Paths {
    pub resume: Option<String>,
    pub checkpoint: Option<String>,
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        thread::sleep(t - now);
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Reads one newline-terminated reply into `log`. A connection carries
/// at most one outstanding request, so the reply ends the data.
fn read_reply(stream: &mut TcpStream, log: &mut Vec<u8>) -> io::Result<(usize, usize)> {
    let start = log.len();
    let mut buf = [0u8; 64 * 1024];
    loop {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection before replying",
            ));
        }
        log.extend_from_slice(&buf[..n]);
        if buf[n - 1] == b'\n' {
            return Ok((start, log.len()));
        }
    }
}

fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    Ok(stream)
}

/// Runs one trial: bind, connect, ingest the sent lines, run the query
/// schedule, drain. The server thread is always joined, also when the
/// client side fails.
pub fn trial<I: BenchItem>(
    spec: &Spec,
    input: &Input<I>,
    chunks: &[Chunk],
    paths: &Paths,
    scratch: &mut Scratch,
    tracer: &mut Tracer,
) -> Result<Trial<I>, String> {
    scratch.clear();
    sys::reset_drain();
    let base = alloc::reset_peak();
    let setup = tracer.begin("server.setup", 0);
    let t0 = Instant::now();
    let opts: ServeOptions =
        spec.serve_options(paths.resume.as_deref(), paths.checkpoint.as_deref());
    let server: Server<I> = Server::bind(opts, NetOptions::new().tcp("127.0.0.1:0"))
        .map_err(|e| format!("Server::bind: {e}"))?;
    let addr = server.tcp_addr().ok_or("server has no TCP address")?;
    let handle = thread::spawn(move || server.run(&mut io::sink()));

    let client = drive(spec, input, chunks, scratch, tracer, addr, t0, setup);
    if client.is_err() {
        sys::request_drain();
    }
    let engine = handle
        .join()
        .map_err(|_| "server thread panicked".to_string())?
        .map_err(|e| format!("Server::run: {e}"))?;
    let peak_heap = alloc::peak_since(base);
    let c = client?;
    Ok(Trial {
        setup_s: c.setup_s,
        sent: c.sent,
        ingest_s: c.ingest_s,
        peak_heap,
        queries_sent: c.queries_sent,
        ack_routed: c.ack_routed,
        engine,
    })
}

struct ClientOut {
    setup_s: f64,
    sent: u64,
    ingest_s: f64,
    queries_sent: u64,
    ack_routed: Option<u64>,
}

#[allow(clippy::too_many_arguments)]
fn drive<I: BenchItem>(
    spec: &Spec,
    input: &Input<I>,
    chunks: &[Chunk],
    scratch: &mut Scratch,
    tracer: &mut Tracer,
    addr: SocketAddr,
    t0: Instant,
    setup: crate::trace::Open,
) -> Result<ClientOut, String> {
    let io_err = |what: &'static str| move |e: io::Error| format!("{what}: {e}");
    let mut ingest = connect(addr).map_err(io_err("connect ingest"))?;
    // Best effort, as on the server side: a refused size leaves the
    // kernel default, which only slows the sender.
    let _ = sys::set_socket_buffers(ingest.as_raw_fd(), SOCK_BUF);
    let mut query = connect(addr).map_err(io_err("connect query"))?;
    query.write_all(b"?ping\n").map_err(io_err("ping"))?;
    read_reply(&mut query, &mut Vec::with_capacity(64)).map_err(io_err("pong"))?;
    let setup_s = t0.elapsed().as_secs_f64();
    tracer.end(setup, 0);

    let sent = AtomicU64::new(0);
    let mut queries_sent = 0u64;
    let Scratch {
        queries: asked,
        lateness_ms,
    } = scratch;

    let span = tracer.begin("server.ingest", 0);
    let t_first = Instant::now();
    let ingest_end = match spec.pace {
        None => {
            for c in chunks {
                sent.fetch_add(c.items as u64, SeqCst);
                ingest
                    .write_all(&input.lines[c.start..c.end])
                    .map_err(io_err("ingest write"))?;
            }
            barrier(&mut ingest)?
        }
        Some(rate) => {
            let horizon = t_first + Duration::from_secs_f64(spec.sent_items() as f64 / rate);
            thread::scope(|s| -> Result<Instant, String> {
                let sender = s.spawn(|| -> Result<Instant, String> {
                    let mut done = 0u64;
                    for c in chunks {
                        let due = t_first + Duration::from_secs_f64(done as f64 / rate);
                        sleep_until(due);
                        lateness_ms.push(ms(Instant::now() - due));
                        done += c.items as u64;
                        sent.fetch_add(c.items as u64, SeqCst);
                        ingest
                            .write_all(&input.lines[c.start..c.end])
                            .map_err(io_err("ingest write"))?;
                    }
                    barrier(&mut ingest)
                });
                let mut i = 1u32;
                loop {
                    let due = t_first + spec.query_every * i;
                    if due >= horizon {
                        break;
                    }
                    let kind = spec.mix[(i as usize - 1) % spec.mix.len()];
                    sleep_until(due);
                    asked.ask(&mut query, kind, due, &sent)?;
                    queries_sent += 1;
                    i += 1;
                }
                sender
                    .join()
                    .map_err(|_| "ingest sender panicked".to_string())?
            })?
        }
    };
    let ingest_s = (ingest_end - t_first).as_secs_f64();
    tracer.end(span, sent.load(SeqCst));

    if spec.pace.is_none() {
        let t_q = Instant::now();
        for i in 0..spec.queries {
            let due = t_q + spec.query_every * (i as u32 + 1);
            sleep_until(due);
            lateness_ms.push(ms(Instant::now() - due));
            let kind = spec.mix[i % spec.mix.len()];
            let span = tracer.begin("server.query", 1 + i as u64);
            asked.ask(&mut query, kind, due, &sent)?;
            tracer.end(span, 0);
            queries_sent += 1;
        }
    }
    asked.ask(&mut query, QueryKind::Stats, Instant::now(), &sent)?;
    queries_sent += 1;

    ingest
        .write_all(b"?shutdown\n")
        .map_err(io_err("shutdown"))?;
    let mut ack = Vec::with_capacity(256);
    read_reply(&mut ingest, &mut ack).map_err(io_err("drain ack"))?;
    let ack_routed =
        serde_json::from_str::<serde_json::Value>(String::from_utf8_lossy(&ack).trim())
            .ok()
            .and_then(|v| v["routed"].as_u64());
    Ok(ClientOut {
        setup_s,
        sent: sent.load(SeqCst),
        ingest_s,
        queries_sent,
        ack_routed,
    })
}

/// Sends `?ping` after the last item and waits for the pong. The server
/// writes it at the same point of its loop as a drain acknowledgement:
/// after every earlier line was parsed and its items shipped to the
/// shards.
fn barrier(ingest: &mut TcpStream) -> Result<Instant, String> {
    ingest
        .write_all(b"?ping\n")
        .map_err(|e| format!("barrier: {e}"))?;
    let mut pong = Vec::with_capacity(64);
    read_reply(ingest, &mut pong).map_err(|e| format!("barrier reply: {e}"))?;
    Ok(Instant::now())
}
