//! `serve_mixed`: a closed loop against an in-process `tessera-serve`
//! daemon (2 workers, loopback HTTP). A *reader* client rotates over
//! four shared, pre-warmed designs — lint, SCOAP, fault-sim and
//! dictionary are cache hits, PODEM on varied faults computes — while a
//! *writer* client rotates over four private designs, alternating an ECO
//! with the reads it invalidates.
//!
//! Clients address designs by name, as `tessera-client` does. The
//! daemon resolves a name by scanning sessions in content-key order and
//! read-locking each one on the way, so a name lookup waits for any
//! write-locked session that sorts before its target. Which session
//! sorts first depends on content hashes; the private designs' names are
//! chosen so that their keys sort first on every seed, which makes the
//! reader's exposure to the writer's rebuilds the same on every seed
//! instead of a coin flip.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dft_json::Value;
use dft_serve::{
    decode_response, encode_request, encode_response, serve, EcoEdit, LoadError, Request, Response,
    ServerConfig, ServerHandle, Service,
};

use crate::inputs::{random_bench, sub_seed, Source, SETUP_REPS};
use crate::stats::{median, LatencyLog};
use crate::trace::Tracer;
use crate::{Args, Report};

const INPUTS: usize = 16;
const GATES: usize = 300;
/// Net indices requests may name (inputs plus logic gates).
const NETS: usize = INPUTS + GATES;
const SHARED_DESIGNS: usize = 4;
const PRIVATE_DESIGNS: usize = 4;
const WORKERS: usize = 2;
/// Requests per client round: the reader's four reads and PODEM, the
/// writer's ECO and four reads. A round is the operation `op_p50_ms`
/// times: single requests mix cache hits, lock waits and rebuilds, and
/// their median lands between those modes.
const ROUND: usize = 5;
const FAULT_SIM: (usize, u64) = (256, 1);
const DICTIONARY: (usize, u64) = (128, 2);

/// The reader's `k`-th request: per shared design in turn, four cache
/// hits, then PODEM on a fault that cycles over gates and stuck values.
fn reader_request(k: usize, shared: &[Source]) -> Request {
    let round = k / ROUND;
    let design = shared[round % shared.len()].name.clone();
    match k % ROUND {
        0 => Request::Lint { design },
        1 => Request::Scoap { design },
        2 => Request::FaultSim {
            design,
            patterns: FAULT_SIM.0,
            seed: FAULT_SIM.1,
        },
        3 => Request::Dictionary {
            design,
            patterns: DICTIONARY.0,
            seed: DICTIONARY.1,
        },
        _ => Request::Podem {
            design,
            gate: (round * 7919 + 13) % NETS,
            pin: None,
            stuck: round.is_multiple_of(2),
        },
    }
}

/// The writer's `k`-th request: per private design in turn, an ECO
/// adding a NAND over two existing nets, then the four reads it
/// invalidates.
fn writer_request(k: usize, private: &[Source]) -> Request {
    let round = k / ROUND;
    let design = private[round % private.len()].name.clone();
    match k % ROUND {
        0 => Request::Eco {
            design,
            edits: vec![EcoEdit::AddGate {
                kind: "nand".into(),
                inputs: vec![(round * 31 + 7) % NETS, (round * 57 + 3) % NETS],
            }],
        },
        1 => Request::Lint { design },
        2 => Request::Scoap { design },
        3 => Request::FaultSim {
            design,
            patterns: FAULT_SIM.0,
            seed: FAULT_SIM.1,
        },
        _ => Request::Dictionary {
            design,
            patterns: DICTIONARY.0,
            seed: DICTIONARY.1,
        },
    }
}

/// The set-up requests that load a design and build its artifacts.
fn warm_requests(source: &Source, podem: bool) -> Vec<Request> {
    let design = source.name.clone();
    let mut reqs = vec![
        Request::LoadBench {
            name: design.clone(),
            text: source.text.clone(),
        },
        Request::Lint {
            design: design.clone(),
        },
        Request::Scoap {
            design: design.clone(),
        },
        Request::FaultSim {
            design: design.clone(),
            patterns: FAULT_SIM.0,
            seed: FAULT_SIM.1,
        },
        Request::Dictionary {
            design: design.clone(),
            patterns: DICTIONARY.0,
            seed: DICTIONARY.1,
        },
    ];
    if podem {
        reqs.push(Request::Podem {
            design,
            gate: 0,
            pin: None,
            stuck: false,
        });
    }
    reqs
}

fn service() -> Arc<Service> {
    Arc::new(Service::new(Box::new(|name: &str| {
        Err(LoadError {
            message: format!("designs are shipped inline; '{name}' is not one"),
            available: Vec::new(),
        })
    })))
}

/// The daemon's content key for `source`.
fn content_key(source: &Source) -> Result<String, String> {
    let req = Request::LoadBench {
        name: source.name.clone(),
        text: source.text.clone(),
    };
    match service().handle(&req) {
        Response::Loaded(info) => Ok(info.key),
        other => Err(format!(
            "cannot load {}: {}",
            source.name,
            encode_response(&other)
        )),
    }
}

/// The workload's designs: the shared ones, then the private ones, each
/// named so its content key sorts before every shared key.
fn designs(seed: u64) -> Result<(Vec<Source>, Vec<Source>), String> {
    let generate = |i: usize, name: String| {
        let mut s = random_bench(INPUTS, GATES, sub_seed(seed, i as u64));
        s.name = name;
        s
    };
    let shared: Vec<Source> = (0..SHARED_DESIGNS)
        .map(|i| generate(i, format!("shared{i}")))
        .collect();
    let keys = shared
        .iter()
        .map(content_key)
        .collect::<Result<Vec<_>, _>>()?;
    let first_shared = keys.into_iter().min().expect("shared designs exist");
    let mut private = Vec::with_capacity(PRIVATE_DESIGNS);
    for p in 0..PRIVATE_DESIGNS {
        let mut design = generate(SHARED_DESIGNS + p, String::new());
        if shared.iter().any(|s| s.text == design.text) {
            return Err("the writer's designs must differ in content from the shared ones".into());
        }
        let found = (0..10_000).find_map(|j| {
            design.name = format!("private{p}_{j}");
            match content_key(&design) {
                Ok(key) if key < first_shared => Some(Ok(())),
                Ok(_) => None,
                Err(e) => Some(Err(e)),
            }
        });
        found.ok_or("no private design name sorts before the shared designs")??;
        private.push(design);
    }
    Ok((shared, private))
}

/// FNV-1a digest of a response body.
fn digest(body: &str) -> u64 {
    body.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// A keep-alive HTTP/1.1 connection that posts `tessera-serve/1`
/// envelopes to `/api`, optionally timing the codec calls.
struct Conn {
    stream: TcpStream,
}

/// One answered request.
struct Answer {
    body: String,
    response: Response,
}

impl Conn {
    fn open(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        Ok(Conn { stream })
    }

    fn call(&mut self, req: &Request, t: &mut Tracer) -> Result<Answer, String> {
        let wire = t.span("serve.codec", || encode_request(req));
        t.enter("serve.round_trip");
        let body = self.round_trip(&wire);
        t.exit();
        let body = body?;
        let response = t.span("serve.codec", || decode_response(&body));
        let response = response.map_err(|e| format!("undecodable response: {e}"))?;
        Ok(Answer { body, response })
    }

    fn round_trip(&mut self, wire: &str) -> Result<String, String> {
        let head = format!(
            "POST /api HTTP/1.1\r\nHost: tessbench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            wire.len()
        );
        let io = |e: std::io::Error| format!("transport: {e}");
        self.stream.write_all(head.as_bytes()).map_err(io)?;
        self.stream.write_all(wire.as_bytes()).map_err(io)?;
        let mut buf = Vec::new();
        let mut chunk = [0u8; 8192];
        let head_end = loop {
            if let Some(p) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break p;
            }
            let n = self.stream.read(&mut chunk).map_err(io)?;
            if n == 0 {
                return Err("connection closed mid-response".into());
            }
            buf.extend_from_slice(&chunk[..n]);
        };
        let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
        let length = head
            .split("\r\n")
            .filter_map(|l| l.split_once(':'))
            .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
            .and_then(|(_, v)| v.trim().parse::<usize>().ok())
            .ok_or("response without Content-Length")?;
        let start = head_end + 4;
        while buf.len() < start + length {
            let n = self.stream.read(&mut chunk).map_err(io)?;
            if n == 0 {
                return Err("connection closed mid-body".into());
            }
            buf.extend_from_slice(&chunk[..n]);
        }
        String::from_utf8(buf[start..start + length].to_vec())
            .map_err(|_| "body is not UTF-8".into())
    }
}

/// A running daemon with every design loaded and warmed.
struct Daemon {
    addr: SocketAddr,
    handle: ServerHandle,
}

impl Daemon {
    fn start(shared: &[Source], private: &[Source]) -> Result<Daemon, String> {
        let config = ServerConfig {
            threads: WORKERS,
            ..ServerConfig::default()
        };
        let handle = serve(service(), &config).map_err(|e| format!("bind: {e}"))?;
        let daemon = Daemon {
            addr: handle.addr(),
            handle,
        };
        let mut conn = Conn::open(daemon.addr)?;
        let mut off = Tracer::new(false);
        let warm = shared.iter().flat_map(|s| warm_requests(s, true));
        for req in warm.chain(private.iter().flat_map(|s| warm_requests(s, false))) {
            let a = conn.call(&req, &mut off)?;
            if a.response.is_error() {
                return Err(format!("set-up request failed: {}", a.body));
            }
        }
        Ok(daemon)
    }

    fn stats(&self) -> Result<Value, String> {
        let a = Conn::open(self.addr)?.call(&Request::Stats, &mut Tracer::new(false))?;
        match a.response {
            Response::Stats { stats } => Ok(stats),
            _ => Err(format!("unexpected /stats answer: {}", a.body)),
        }
    }

    fn stop(self) -> Result<(), String> {
        let answer = Conn::open(self.addr)?.call(&Request::Shutdown, &mut Tracer::new(false));
        self.handle.join();
        answer.map(|_| ())
    }
}

/// What one client saw.
#[derive(Default)]
struct ClientLog {
    /// Wall seconds from the first request to the last answer.
    span_s: f64,
    requests: Vec<Request>,
    /// Digest of each response body, aligned with `requests`.
    digests: Vec<u64>,
    latencies: LatencyLog,
    /// Latency of each complete round begun in this phase.
    rounds: LatencyLog,
    failed: u64,
    /// First fault-sim coverage reported per design.
    coverage: BTreeMap<String, f64>,
    podem_backtracks: Vec<u64>,
    wall_ms: f64,
    errors: Vec<String>,
}

/// Runs one client's sequence from request `from` until `deadline`.
fn client(
    addr: SocketAddr,
    next: impl Fn(usize) -> Request,
    from: usize,
    deadline: Instant,
    tracer: &mut Tracer,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut conn = match Conn::open(addr) {
        Ok(c) => c,
        Err(e) => {
            log.errors.push(e);
            log.failed += 1;
            log.latencies.fail();
            return log;
        }
    };
    let mut k = from;
    // `(ms so far, every request ok)` of the round in progress.
    let mut round: Option<(f64, bool)> = None;
    let started = Instant::now();
    while Instant::now() < deadline {
        let req = next(k);
        let position = k % ROUND;
        k += 1;
        if position == 0 {
            round = Some((0.0, true));
        }
        tracer.next_op();
        let t = Instant::now();
        let answer = conn.call(&req, tracer);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        log.wall_ms += ms;
        let ok = matches!(&answer, Ok(a) if !a.response.is_error());
        if let Some((sum, all_ok)) = &mut round {
            *sum += ms;
            *all_ok &= ok;
        }
        if position == ROUND - 1 || answer.is_err() {
            match round.take() {
                Some((sum, true)) => log.rounds.ok(sum),
                Some(_) => log.rounds.fail(),
                None => {}
            }
        }
        match answer {
            Ok(a) if !a.response.is_error() => {
                log.latencies.ok(ms);
                match &a.response {
                    Response::FaultSim {
                        design, coverage, ..
                    } => {
                        log.coverage.entry(design.clone()).or_insert(*coverage);
                    }
                    Response::Podem { backtracks, .. } => log.podem_backtracks.push(*backtracks),
                    _ => {}
                }
                log.digests.push(digest(&a.body));
            }
            Ok(a) => {
                log.failed += 1;
                log.latencies.fail();
                log.errors.push(format!("error response: {}", a.body));
                log.digests.push(digest(&a.body));
            }
            Err(e) => {
                log.failed += 1;
                log.latencies.fail();
                log.errors.push(e);
                break;
            }
        }
        log.requests.push(req);
    }
    log.span_s = started.elapsed().as_secs_f64();
    log
}

/// Runs both clients concurrently for `secs`, each starting its
/// sequence at request `from`.
fn phase(
    addr: SocketAddr,
    shared: &[Source],
    private: &[Source],
    from: [usize; 2],
    secs: f64,
    trace: bool,
) -> ([ClientLog; 2], [Tracer; 2]) {
    let deadline = Instant::now() + Duration::from_secs_f64(secs);
    let started = Instant::now();
    let out = std::thread::scope(|s| {
        let reader = s.spawn(move || {
            let mut t = Tracer::new(trace);
            let log = client(
                addr,
                |k| reader_request(k, shared),
                from[0],
                deadline,
                &mut t,
            );
            (log, t)
        });
        let writer = s.spawn(move || {
            let mut t = Tracer::new(trace);
            let log = client(
                addr,
                |k| writer_request(k, private),
                from[1],
                deadline,
                &mut t,
            );
            (log, t)
        });
        let (r, rt) = reader.join().expect("reader client panicked");
        let (w, wt) = writer.join().expect("writer client panicked");
        ([r, w], [rt, wt])
    });
    eprintln!(
        "tessbench: {} + {} requests in {:.1} s",
        out.0[0].requests.len(),
        out.0[1].requests.len(),
        started.elapsed().as_secs_f64()
    );
    out
}

/// Replays `log`'s requests single-threaded against a fresh in-process
/// service warmed like the daemon, and reports any byte divergence.
fn replay(warm: &[Request], log: &ClientLog) -> Vec<String> {
    let svc = service();
    for req in warm {
        let _ = svc.handle(req);
    }
    let mut diverged = Vec::new();
    for (i, (req, d)) in log.requests.iter().zip(&log.digests).enumerate() {
        if digest(&encode_response(&svc.handle(req))) != *d {
            diverged.push(format!(
                "request {i} ({}) diverged from the canonical replay",
                req.kind()
            ));
        }
    }
    diverged
}

fn num(v: &Value, path: &[&str]) -> f64 {
    path.iter()
        .try_fold(v, |v, k| v.get(k))
        .and_then(Value::as_f64)
        .unwrap_or(0.0)
}

pub fn run(args: &Args, tracer: &mut Tracer) -> Result<Report, String> {
    let (shared, private) = designs(args.seed)?;

    // Set-up: daemon start, every load and the first artifact builds.
    // Repeated; the last daemon stays up for the measurement.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut daemon = None;
    for rep in 0..SETUP_REPS {
        let t = Instant::now();
        let d = Daemon::start(&shared, &private)?;
        setups.push(t.elapsed().as_secs_f64());
        if rep + 1 < SETUP_REPS {
            d.stop()?;
        } else {
            daemon = Some(d);
        }
    }
    let daemon = daemon.expect("at least one set-up");

    // A traced run spends half its time untraced, for the overhead.
    let (untraced, traced) = if args.trace {
        let (logs, _) = phase(
            daemon.addr,
            &shared,
            &private,
            [0, 0],
            args.seconds / 2.0,
            false,
        );
        let mid = daemon.stats()?;
        let from = [logs[0].requests.len(), logs[1].requests.len()];
        let (tlogs, tracers) = phase(
            daemon.addr,
            &shared,
            &private,
            from,
            args.seconds / 2.0,
            true,
        );
        (logs, Some((tlogs, tracers, mid)))
    } else {
        (
            phase(daemon.addr, &shared, &private, [0, 0], args.seconds, false).0,
            None,
        )
    };
    let after = daemon.stats()?;
    daemon.stop()?;

    let mut report = Report::default();
    crate::record_peak_rss(&mut report);
    let mut all_logs: Vec<&ClientLog> = untraced.iter().collect();
    if let Some((tlogs, _, _)) = &traced {
        all_logs.extend(tlogs.iter());
    }
    for log in &all_logs {
        report.tally.attempted += log.latencies.len() as u64;
        report.tally.failed += log.failed;
        for e in &log.errors {
            report.problem(e.clone());
        }
    }

    // Output check, outside the timed region: every response must match
    // a canonical single-threaded replay byte for byte. The two
    // sequences touch different designs, so each replays on its own.
    let merged: [ClientLog; 2] = std::array::from_fn(|c| {
        // Logs alternate reader, writer per phase.
        let mut m = ClientLog::default();
        for p in all_logs.iter().skip(c).step_by(2) {
            m.requests.extend(p.requests.iter().cloned());
            m.digests.extend_from_slice(&p.digests);
        }
        m
    });
    let reader_warm: Vec<Request> = shared.iter().flat_map(|s| warm_requests(s, true)).collect();
    let writer_warm: Vec<Request> = private
        .iter()
        .flat_map(|s| warm_requests(s, false))
        .collect();
    let diverged = std::thread::scope(|s| {
        let r = s.spawn(|| replay(&reader_warm, &merged[0]));
        let w = s.spawn(|| replay(&writer_warm, &merged[1]));
        let mut d = r.join().expect("reader replay panicked");
        d.extend(w.join().expect("writer replay panicked"));
        d
    });
    for d in diverged {
        report.fail_check(d);
    }

    let Some((tlogs, tracers, mid)) = traced else {
        let requests = (untraced[0].latencies.len() + untraced[1].latencies.len()) as f64;
        let mut rounds = untraced[0].rounds.clone();
        rounds.extend(&untraced[1].rounds);
        let coverage: Vec<f64> = untraced
            .iter()
            .flat_map(|l| l.coverage.values().copied())
            .collect();
        let m = &mut report.metrics;
        m.insert("setup_s", median(&setups));
        m.insert("op_p50_ms", rounds.p50().map_or(f64::INFINITY, |p| p.ms));
        let span_s = untraced[0].span_s.max(untraced[1].span_s);
        m.insert("work_per_s", requests / span_s);
        m.insert(
            "fault_coverage",
            coverage.iter().sum::<f64>() / coverage.len().max(1) as f64,
        );
        return Ok(report);
    };

    // Per-layer figures of the traced half.
    let m = &mut report.metrics;
    let endpoints = [
        ("lint", "lint"),
        ("scoap", "scoap"),
        ("fault-sim", "fault_sim"),
        ("dictionary", "dictionary"),
        ("podem", "podem"),
        ("eco", "eco"),
    ];
    for (wire, name) in endpoints {
        let p50 = num(&after, &["endpoints", wire, "p50_us"]) / 1e3;
        let p99 = num(&after, &["endpoints", wire, "p99_us"]) / 1e3;
        m.insert(layer_name(format!("serve.{name}_p50_ms")), p50);
        m.insert(layer_name(format!("serve.{name}_p99_ms")), p99);
    }
    m.insert(
        "analyze.eco_ms",
        num(&after, &["endpoints", "eco", "p50_us"]) / 1e3,
    );
    m.insert(
        "analyze.scoap_ms",
        num(&after, &["endpoints", "scoap", "p50_us"]) / 1e3,
    );
    for (c, side) in ["read", "write"].iter().enumerate() {
        let lat = &tlogs[c].latencies;
        let tail = lat.tail();
        m.insert(
            layer_name(format!("serve.{side}_p50_ms")),
            lat.p50().map_or(0.0, |p| p.ms),
        );
        m.insert(
            layer_name(format!("serve.{side}_tail_ms")),
            tail.map_or(0.0, |p| p.ms),
        );
        m.insert(
            layer_name(format!("serve.{side}_tail_q")),
            tail.map_or(0.0, |p| p.q),
        );
        m.insert(
            layer_name(format!("serve.{side}_samples")),
            lat.len() as f64,
        );
    }

    // Server-side busy time of the traced half, from /stats totals.
    let server_ms = |s: &Value| -> f64 {
        ["lint", "scoap", "fault-sim", "dictionary", "podem", "eco"]
            .iter()
            .map(|e| {
                num(s, &["endpoints", e, "mean_us"]) * num(s, &["endpoints", e, "count"]) / 1e3
            })
            .sum()
    };
    let requests = (tlogs[0].latencies.len() + tlogs[1].latencies.len()) as f64;
    let client_ms = tlogs[0].wall_ms + tlogs[1].wall_ms;
    let server = server_ms(&after) - server_ms(&mid);
    m.insert("serve.transport_ms", (client_ms - server) / requests);
    let codec_s: f64 = tracers.iter().map(|t| t.total_secs("serve.codec")).sum();
    m.insert("serve.codec_us", codec_s / requests * 1e6);

    let delta = |k: &str| num(&after, &["artifacts", k]) - num(&mid, &["artifacts", k]);
    let ecos = delta("eco_incremental") + delta("eco_rejected");
    let hits = delta("lint_hits")
        + delta("scoap_hits")
        + delta("fault_sim_hits")
        + delta("dictionary_hits");
    let builds = delta("lint_builds")
        + delta("scoap_refreshes")
        + delta("fault_sim_runs")
        + delta("dictionary_builds");
    m.insert("serve.cache_hit_ratio", hits / (hits + builds));
    m.insert("serve.lint_builds", delta("lint_builds") / ecos);
    m.insert("serve.dictionary_builds", delta("dictionary_builds") / ecos);
    m.insert("serve.fault_sim_runs", delta("fault_sim_runs") / ecos);
    m.insert("serve.eco_incremental", delta("eco_incremental") / ecos);
    let bt = &tlogs[0].podem_backtracks;
    m.insert(
        "serve.podem_backtracks",
        bt.iter().sum::<u64>() as f64 / bt.len().max(1) as f64,
    );

    // Layer accounting: the codec and round-trip spans tile each request.
    let untraced_ms = untraced[0].wall_ms + untraced[1].wall_ms;
    let untraced_n = (untraced[0].latencies.len() + untraced[1].latencies.len()) as f64;
    let layers: f64 = tracers
        .iter()
        .flat_map(|t| t.self_secs().into_values())
        .sum();
    m.insert("trace.wall_s", client_ms / requests / 1e3);
    m.insert("trace.coverage", layers * 1e3 / client_ms);
    m.insert(
        "trace.overhead_ratio",
        (client_ms / requests) / (untraced_ms / untraced_n) - 1.0,
    );
    for t in tracers {
        tracer.absorb(t);
    }
    Ok(report)
}

/// The per-layer metric named `name`.
fn layer_name(name: String) -> &'static str {
    crate::metrics::per_layer(&name)
        .unwrap_or_else(|| panic!("{name} is not a per-layer metric"))
        .name
}
