//! The live catch-all ingest workloads (`ingest-small`, `ingest-large`).
//!
//! An in-process `SmtpServer` with the default `ServerOptions` serves the
//! 76 study domains on loopback. An owner thread drains
//! `SmtpServer::received()` and runs each message through
//! `Message::parse`, `Funnel::features` and `Pipeline::process`. Two
//! client threads (two connections at most) deliver the seeded plan:
//!
//! * closed loop: batches of one pass over the message pool; each
//!   connection sends its next session when the previous one completes,
//!   and a batch ends when its last accepted message is sealed;
//! * open loop: sessions on an absolute schedule at the fixed offered
//!   rate, timed from their scheduled start.
//!
//! Each phase binds a fresh server, so the server's latency histograms
//! and counters cover that phase alone.

use crate::inputs::{self, Planned, PoolMsg, Size};
use crate::span;
use crate::stats::{median, quantile, Quantile};
use ets_collector::crypto::Key;
use ets_collector::extract;
use ets_collector::funnel::Funnel;
use ets_collector::infra::{CollectedEmail, CollectionInfra};
use ets_collector::pipeline::{Pipeline, StoredEmail};
use ets_collector::scrub;
use ets_collector::time::SimDate;
use ets_core::DomainName;
use ets_mail::Message;
use ets_smtp::client::{ClientOutcome, Email};
use ets_smtp::codec::{stuff, unstuff};
use ets_smtp::fault::DeliveryOutcome;
use ets_smtp::net_client::{send_email, RawSession, SendError};
use ets_smtp::server::{ConcurrencyModel, ServerOptions, SmtpServer};
use ets_smtp::session::ServerPolicy;
use ets_smtp::telemetry::outcome_label;
use serde_json::{json, Value};
use std::collections::HashMap;
use std::io::ErrorKind;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Client connections (and client threads).
pub const CONNECTIONS: usize = 2;
/// Client-side socket timeout.
pub const CLIENT_TIMEOUT: Duration = Duration::from_secs(10);
/// How long the harness waits for the owner to seal what the server
/// accepted before it calls the phase failed.
const SEAL_DEADLINE: Duration = Duration::from_secs(60);
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 51;
const KEY: Key = [0x5b; 32];
const HOSTNAME: &str = "mx.collector.invalid";

/// Command-line arguments of one ingest run.
pub struct Args {
    pub size: Size,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Open-loop offered rate, sessions per second.
    pub rate: f64,
    /// Where the traced run writes its spans (JSON lines).
    pub spans_out: Option<std::path::PathBuf>,
}

/// What the client saw of one session.
#[derive(Debug, Clone, Copy)]
struct ClientRec {
    id: u64,
    planned: Planned,
    observed: DeliveryOutcome,
    /// Scheduled start (open loop) or actual start (closed loop).
    sched_ns: u64,
    start_ns: u64,
    end_ns: u64,
}

/// What the owner did with one message.
#[derive(Debug, Clone, Copy)]
struct OwnerRec {
    id: u64,
    take_ns: u64,
    done_ns: u64,
}

/// The owner's output for one phase.
struct OwnerOut {
    recs: Vec<OwnerRec>,
    /// Messages that did not parse or named no request id.
    unjoined: u64,
    kept: Vec<(u64, Message, StoredEmail)>,
    sealed_bytes: u64,
    queue_max: usize,
}

/// Server-side telemetry of one phase, read after shutdown.
struct ServerStats {
    session_us: Quantile,
    data_us: Quantile,
    accepted: u64,
    commands: u64,
    bytes_in: u64,
    outcomes: [u64; 5],
}

/// One executed phase.
struct Phase {
    clients: Vec<ClientRec>,
    owner: OwnerOut,
    server: ServerStats,
    /// Per closed-loop batch: (sessions, stored, client seconds, stored seconds).
    batches: Vec<(usize, usize, f64, f64)>,
    /// Sampled pool slot of each kept request id.
    sampled: HashMap<u64, usize>,
    /// Client threads' CPU seconds.
    client_cpu_s: f64,
    /// Open loop: scheduled start of the first session to last seal.
    wall_s: f64,
    failed_sessions: u64,
    /// Sampled messages whose body line endings SMTP rewrote.
    crlf_rewritten: u64,
    notes: Vec<String>,
}

/// CPU seconds (user + system) of the calling thread.
fn thread_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/thread-self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, in clock ticks (100 Hz).
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (tick(11) + tick(12)) / 100.0
}

fn classify_transport(e: &SendError) -> DeliveryOutcome {
    match e {
        SendError::Io(io) => match io.kind() {
            ErrorKind::TimedOut | ErrorKind::WouldBlock => DeliveryOutcome::Timeout,
            _ => DeliveryOutcome::NetworkError,
        },
        SendError::ProtocolGarbage(_) | SendError::ConnectionClosed => DeliveryOutcome::OtherError,
    }
}

fn send(addr: &str, email: Email, helo: &str) -> DeliveryOutcome {
    match send_email(addr, email, helo, false, CLIENT_TIMEOUT) {
        Ok(ClientOutcome::Accepted) => DeliveryOutcome::NoError,
        Ok(ClientOutcome::Rejected { .. }) => DeliveryOutcome::Bounce,
        Ok(ClientOutcome::TransientFailure { .. }) => DeliveryOutcome::OtherError,
        Err(e) => classify_transport(&e),
    }
}

/// Runs one planned session against `addr`.
fn execute(addr: &str, pool: &[PoolMsg], planned: Planned, id: u64) -> DeliveryOutcome {
    match planned {
        Planned::Deliver { pool: p } => {
            let m = &pool[p];
            let email = Email::new(m.mail_from.clone(), vec![m.rcpt_to.clone()], m.wire_for(id));
            send(addr, email, &m.helo)
        }
        Planned::Bounce => {
            let scenario = ets_loadgen::scenario::Scenario::BounceProbe;
            match ets_loadgen::scenario::build_email(scenario, 0, id, "unused.invalid") {
                Some(email) => send(addr, email, "probe.example"),
                None => DeliveryOutcome::OtherError,
            }
        }
        Planned::Malformed => {
            let mut s = match RawSession::connect(addr, CLIENT_TIMEOUT) {
                Ok(s) => s,
                Err(e) => return classify_transport(&e),
            };
            if let Err(e) = s.read_code() {
                return classify_transport(&e);
            }
            for junk in [b"XYZZY plugh\r\n".as_slice(), b"MAIL WITHOUT COLON\r\n"] {
                if let Err(e) = s.write_raw(junk).and_then(|()| s.read_code().map(|_| ())) {
                    return classify_transport(&e);
                }
            }
            DeliveryOutcome::OtherError
        }
        Planned::SilentDrop => match RawSession::connect(addr, CLIENT_TIMEOUT) {
            Ok(s) => {
                drop(s);
                DeliveryOutcome::NetworkError
            }
            Err(e) => classify_transport(&e),
        },
    }
}

/// The system under test, built once per set-up.
struct Sut {
    infra: CollectionInfra,
    pipeline: Pipeline,
    policy: ServerPolicy,
}

/// One set-up: collector, funnel and pipeline built, server bound, and
/// the first banner read. Returns the system and the seconds it took.
fn set_up() -> std::io::Result<(Sut, f64)> {
    let t0 = Instant::now();
    let infra = CollectionInfra::build();
    let funnel = Funnel::new(&infra);
    std::hint::black_box(&funnel);
    let pipeline = Pipeline::new(KEY);
    let policy = ServerPolicy::catch_all(HOSTNAME, &inputs::study_domains(&infra));
    let server = SmtpServer::bind_with("127.0.0.1:0", policy.clone(), ServerOptions::default())?;
    let mut probe = RawSession::connect(&server.addr().to_string(), CLIENT_TIMEOUT)
        .map_err(|e| std::io::Error::other(e.to_string()))?;
    let banner = probe
        .read_code()
        .map_err(|e| std::io::Error::other(e.to_string()))?;
    let secs = t0.elapsed().as_secs_f64();
    if banner != 220 {
        return Err(std::io::Error::other(format!("banner code {banner}")));
    }
    drop(probe);
    drop(server.shutdown());
    Ok((
        Sut {
            infra,
            pipeline,
            policy,
        },
        secs,
    ))
}

/// How a phase issues its sessions.
enum Mode {
    /// Closed loop over the given batches (each one pool pass).
    Closed { batches: Vec<Vec<Planned>> },
    /// Open loop at `rate` sessions per second over the plan.
    Open { plan: Vec<Planned>, rate: f64 },
}

/// The request id of session `i` of batch `b` in phase `phase`.
pub(crate) fn request_id(phase: u64, b: usize, i: usize) -> u64 {
    phase * 100_000_000_000 + (b as u64) * 1_000_000 + i as u64
}

fn run_phase(
    sut: &mut Sut,
    pool: &[PoolMsg],
    size: Size,
    phase_tag: u64,
    mode: Mode,
    budget: Option<Duration>,
) -> std::io::Result<Phase> {
    ets_obs::latency::reset();
    let counters_before = server_counters();
    let server =
        SmtpServer::bind_with("127.0.0.1:0", sut.policy.clone(), ServerOptions::default())?;
    let addr = server.addr().to_string();
    let rx = server.received().clone();
    let funnel = Funnel::new(&sut.infra);
    let infra = &sut.infra;
    let pipeline = &mut sut.pipeline;
    let stride = size.sample_stride();

    let sealed = AtomicU64::new(0);
    let last_done = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let wanted: Mutex<HashMap<u64, usize>> = Mutex::new(HashMap::new());
    let mut sampled_slots = vec![false; pool.len()];

    let (clients, batches, client_cpu_s, owner, wall_s) = std::thread::scope(|s| {
        let owner = s.spawn(|| {
            owner_loop(
                &rx, &funnel, infra, pipeline, &sealed, &last_done, &stop, &wanted,
            )
        });
        let mut clients: Vec<ClientRec> = Vec::new();
        let mut batches = Vec::new();
        let mut client_cpu_s = 0.0;
        let mut wall_s = 0.0;
        let mut accepted_so_far = 0u64;
        let mut want = |b: usize, plan: &[Planned]| {
            let mut w = wanted.lock().expect("sample set lock");
            for (i, p) in plan.iter().enumerate() {
                if let Planned::Deliver { pool: slot } = p {
                    if slot % stride == 0 && !sampled_slots[*slot] {
                        sampled_slots[*slot] = true;
                        w.insert(request_id(phase_tag, b, i), *slot);
                    }
                }
            }
        };
        let wait_sealed = |target: u64| -> bool {
            let deadline = Instant::now() + SEAL_DEADLINE;
            while sealed.load(Ordering::SeqCst) < target {
                if Instant::now() > deadline {
                    return false;
                }
                std::thread::sleep(Duration::from_micros(200));
            }
            true
        };
        match mode {
            Mode::Closed { batches: plans } => {
                let started = Instant::now();
                for (b, plan) in plans.iter().enumerate() {
                    if b > 0 && budget.is_some_and(|d| started.elapsed() >= d) {
                        break;
                    }
                    want(b, plan);
                    let (recs, cpu) = closed_batch(&addr, pool, plan, phase_tag, b);
                    client_cpu_s += cpu;
                    let accepted = recs
                        .iter()
                        .filter(|r| r.observed == DeliveryOutcome::NoError)
                        .count() as u64;
                    accepted_so_far += accepted;
                    let complete = wait_sealed(accepted_so_far);
                    let first = recs.iter().map(|r| r.start_ns).min().unwrap_or(0);
                    let last_end = recs.iter().map(|r| r.end_ns).max().unwrap_or(first);
                    let last_seal = last_done.load(Ordering::SeqCst).max(last_end);
                    batches.push((
                        recs.len(),
                        accepted as usize,
                        (last_end - first) as f64 / 1e9,
                        (last_seal - first) as f64 / 1e9,
                    ));
                    clients.extend(recs);
                    if !complete {
                        break;
                    }
                }
            }
            Mode::Open { plan, rate } => {
                want(0, &plan);
                let (recs, cpu, t0) = open_loop(&addr, pool, &plan, phase_tag, rate);
                client_cpu_s += cpu;
                accepted_so_far = recs
                    .iter()
                    .filter(|r| r.observed == DeliveryOutcome::NoError)
                    .count() as u64;
                wait_sealed(accepted_so_far);
                let last_end = recs.iter().map(|r| r.end_ns).max().unwrap_or(t0);
                wall_s = (last_done.load(Ordering::SeqCst).max(last_end) - t0) as f64 / 1e9;
                clients = recs;
            }
        }
        stop.store(true, Ordering::SeqCst);
        let owner = owner.join().expect("owner thread panicked");
        (clients, batches, client_cpu_s, owner, wall_s)
    });

    let leftover = server.shutdown();
    let server_stats = server_stats(&counters_before);
    let sampled = wanted.into_inner().expect("sample set lock");
    let mut phase = Phase {
        clients,
        owner,
        server: server_stats,
        batches,
        sampled,
        client_cpu_s,
        wall_s,
        failed_sessions: 0,
        crlf_rewritten: 0,
        notes: Vec::new(),
    };
    if !leftover.is_empty() {
        phase.notes.push(format!(
            "{} accepted messages never reached the owner",
            leftover.len()
        ));
        phase.failed_sessions += leftover.len() as u64;
    }
    check_phase(&mut phase, pool, &sut.pipeline);
    Ok(phase)
}

#[allow(clippy::too_many_arguments)]
fn owner_loop(
    rx: &crossbeam::channel::Receiver<ets_smtp::session::ReceivedEmail>,
    funnel: &Funnel<'_>,
    infra: &CollectionInfra,
    pipeline: &mut Pipeline,
    sealed: &AtomicU64,
    last_done: &AtomicU64,
    stop: &AtomicBool,
    wanted: &Mutex<HashMap<u64, usize>>,
) -> OwnerOut {
    let mut out = OwnerOut {
        recs: Vec::new(),
        unjoined: 0,
        kept: Vec::new(),
        sealed_bytes: 0,
        queue_max: 0,
    };
    loop {
        let received = match rx.recv_timeout(Duration::from_millis(2)) {
            Ok(r) => r,
            Err(_) if stop.load(Ordering::SeqCst) => break,
            Err(_) => continue,
        };
        let take_ns = span::now_ns();
        out.queue_max = out.queue_max.max(rx.len());
        let Ok(message) = span::span("mail.parse", || Message::parse(&received.data)) else {
            out.unjoined += 1;
            continue;
        };
        let Some(id) = inputs::request_id(&message) else {
            out.unjoined += 1;
            continue;
        };
        let Some(rcpt) = received.rcpt_to.first().cloned() else {
            out.unjoined += 1;
            continue;
        };
        // All mail arrives on one loopback address, so the envelope
        // carries the VPS assigned to the recipient's study domain.
        let domain = DomainName::parse(rcpt.domain()).ok();
        let vps_ip = domain
            .as_ref()
            .and_then(|d| infra.vps_map.get(d).copied())
            .unwrap_or(std::net::Ipv4Addr::UNSPECIFIED);
        let collected = CollectedEmail {
            domain: domain.unwrap_or_else(|| DomainName::parse("invalid.invalid").expect("valid")),
            vps_ip,
            date: SimDate(0),
            client_helo: received.client_helo,
            mail_from: received.mail_from,
            rcpt_to: rcpt,
            message,
            smtp_submission: false,
        };
        let features = span::span("collector.features", || funnel.features(&collected));
        std::hint::black_box(&features);
        let stored = span::span("collector.pipeline", || {
            pipeline.process(&collected.message)
        });
        let done_ns = span::now_ns();
        out.sealed_bytes += (stored.header.ciphertext.len()
            + stored.body.ciphertext.len()
            + stored
                .attachments
                .iter()
                .map(|a| a.ciphertext.len())
                .sum::<usize>()) as u64;
        out.recs.push(OwnerRec {
            id,
            take_ns,
            done_ns,
        });
        if wanted.lock().expect("sample set lock").contains_key(&id) {
            out.kept.push((id, collected.message, stored));
        }
        last_done.store(done_ns, Ordering::SeqCst);
        sealed.fetch_add(1, Ordering::SeqCst);
    }
    span::flush_thread();
    out
}

/// Runs `work(c)` for each client thread `c` and returns every record
/// with the threads' CPU seconds.
fn on_clients(work: impl Fn(usize) -> Vec<ClientRec> + Sync) -> (Vec<ClientRec>, f64) {
    let work = &work;
    let results: Vec<(Vec<ClientRec>, f64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                s.spawn(move || {
                    let cpu0 = thread_cpu_s();
                    let recs = work(c);
                    (recs, thread_cpu_s() - cpu0)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut recs = Vec::new();
    let mut cpu = 0.0;
    for (r, c) in results {
        recs.extend(r);
        cpu += c;
    }
    (recs, cpu)
}

/// One closed-loop batch: each connection takes the next session of the
/// plan when its previous one completes.
fn closed_batch(
    addr: &str,
    pool: &[PoolMsg],
    plan: &[Planned],
    phase: u64,
    b: usize,
) -> (Vec<ClientRec>, f64) {
    let next = AtomicUsize::new(0);
    on_clients(|_| {
        let mut recs = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::SeqCst);
            let Some(&planned) = plan.get(i) else { break };
            let id = request_id(phase, b, i);
            let start_ns = span::now_ns();
            let observed = execute(addr, pool, planned, id);
            recs.push(ClientRec {
                id,
                planned,
                observed,
                sched_ns: start_ns,
                start_ns,
                end_ns: span::now_ns(),
            });
        }
        recs
    })
}

/// The open loop: session `j` is due at `t0 + j / rate` and runs on
/// client thread `j % CONNECTIONS`. Returns the records (by id), the
/// client CPU seconds and `t0`.
fn open_loop(
    addr: &str,
    pool: &[PoolMsg],
    plan: &[Planned],
    phase: u64,
    rate: f64,
) -> (Vec<ClientRec>, f64, u64) {
    let t0 = Instant::now() + Duration::from_millis(5);
    let t0_ns = span::now_ns() + 5_000_000;
    let (mut recs, cpu) = on_clients(|c| {
        let mut recs = Vec::new();
        for j in (c..plan.len()).step_by(CONNECTIONS) {
            let offset = Duration::from_secs_f64(j as f64 / rate);
            let due = t0 + offset;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let id = request_id(phase, 0, j);
            let start_ns = span::now_ns();
            let observed = execute(addr, pool, plan[j], id);
            recs.push(ClientRec {
                id,
                planned: plan[j],
                observed,
                sched_ns: t0_ns + offset.as_nanos() as u64,
                start_ns,
                end_ns: span::now_ns(),
            });
        }
        recs
    });
    recs.sort_by_key(|r| r.id);
    (recs, cpu, t0_ns)
}

const COUNTERS: [&str; 3] = ["smtp.messages_accepted", "smtp.commands", "smtp.bytes_in"];

fn server_counters() -> Vec<u64> {
    COUNTERS
        .iter()
        .map(|c| ets_obs::metrics::counter_value(c))
        .chain(DeliveryOutcome::ALL.iter().map(|o| {
            ets_obs::metrics::counter_value(&format!("smtp.session_outcome.{}", outcome_label(*o)))
        }))
        .collect()
}

fn server_stats(before: &[u64]) -> ServerStats {
    let after = server_counters();
    let d: Vec<u64> = after
        .iter()
        .zip(before)
        .map(|(a, b)| a.saturating_sub(*b))
        .collect();
    let hist = |name: &str| -> Quantile {
        let h = ets_obs::latency::snapshots()
            .into_iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h);
        match h {
            Some(h) => Quantile {
                n: h.count() as usize,
                p50: h.quantile(0.5).unwrap_or(0) as f64 / 1e3,
                p99: h.quantile(0.99).unwrap_or(0) as f64 / 1e3,
            },
            None => Quantile::default(),
        }
    };
    let mut outcomes = [0u64; 5];
    outcomes.copy_from_slice(&d[3..8]);
    ServerStats {
        session_us: hist("smtp.session_us"),
        data_us: hist("smtp.data_us"),
        accepted: d[0],
        commands: d[1],
        bytes_in: d[2],
        outcomes,
    }
}

fn outcome_index(o: DeliveryOutcome) -> usize {
    DeliveryOutcome::ALL
        .iter()
        .position(|x| *x == o)
        .expect("every outcome is listed")
}

/// Output checks: the Table-5 taxonomy, sealed-exactly-once, parse
/// fidelity and opened records. Failures are counted per session.
fn check_phase(phase: &mut Phase, pool: &[PoolMsg], pipeline: &Pipeline) {
    let mut expected = [0u64; 5];
    let mut observed = [0u64; 5];
    let mut failed: std::collections::HashSet<u64> = Default::default();
    for r in &phase.clients {
        let want = r.planned.scenario().expected_outcome();
        expected[outcome_index(want)] += 1;
        observed[outcome_index(r.observed)] += 1;
        if r.observed != want {
            failed.insert(r.id);
        }
    }
    if observed != expected {
        phase.notes.push(format!(
            "client Table-5 counts {observed:?} differ from the plan's {expected:?}"
        ));
    }
    if phase.server.outcomes != expected {
        phase.notes.push(format!(
            "server Table-5 counts {:?} differ from the plan's {expected:?}",
            phase.server.outcomes
        ));
        failed.insert(u64::MAX);
    }
    let mut seals: HashMap<u64, u32> = HashMap::new();
    for o in &phase.owner.recs {
        *seals.entry(o.id).or_default() += 1;
    }
    let accepted: Vec<u64> = phase
        .clients
        .iter()
        .filter(|r| r.observed == DeliveryOutcome::NoError)
        .map(|r| r.id)
        .collect();
    for id in &accepted {
        if seals.get(id) != Some(&1) {
            failed.insert(*id);
        }
    }
    let sealed_total = phase.owner.recs.len() as u64;
    if sealed_total != accepted.len() as u64 || sealed_total != phase.server.accepted {
        phase.notes.push(format!(
            "sealed {sealed_total}, client-accepted {}, server smtp.messages_accepted {}",
            accepted.len(),
            phase.server.accepted
        ));
        failed.insert(u64::MAX - 1);
    }
    if phase.owner.unjoined > 0 {
        phase
            .notes
            .push(format!("{} messages not joined", phase.owner.unjoined));
    }
    let mut sample_failures = 0;
    for (id, parsed, stored) in &phase.owner.kept {
        let slot = phase.sampled[id];
        let ok = check_record(&pool[slot], *id, parsed, stored, pipeline);
        if ok == Ok(true) {
            phase.crlf_rewritten += 1;
        }
        if let Err(why) = ok {
            sample_failures += 1;
            if sample_failures <= 3 {
                phase.notes.push(format!("request {id}: {why}"));
            }
            failed.insert(*id);
        }
    }
    if phase.owner.kept.len() < phase.sampled.len().min(accepted.len()) {
        phase.notes.push(format!(
            "kept {} sampled records of {} wanted",
            phase.owner.kept.len(),
            phase.sampled.len()
        ));
    }
    phase.failed_sessions += failed.len() as u64 + phase.owner.unjoined;
}

/// The sampled record parses as sent and opens to scrubbed text with no
/// planted identifier in clear. `Ok(true)` flags a message that arrived
/// intact but whose bare-LF body SMTP rewrote to CRLF.
fn check_record(
    msg: &PoolMsg,
    id: u64,
    parsed: &Message,
    stored: &StoredEmail,
    pipeline: &Pipeline,
) -> Result<bool, String> {
    // The sent wire text is what the client transmits: SMTP carries
    // CRLF line endings, so `stuff` rewrites bare LFs; dropping the
    // terminator and unstuffing removes only the transparency framing.
    let wire = msg.wire_for(id);
    let stuffed = stuff(&wire);
    let transmitted = unstuff(stuffed.strip_suffix(".\r\n").unwrap_or(&stuffed));
    let sent = Message::parse(&transmitted).map_err(|e| format!("sent wire: {e}"))?;
    if &sent != parsed {
        return Err("received message parses differently from the sent wire".into());
    }
    let open = |s: &ets_collector::crypto::Sealed| {
        pipeline.open(s).map_err(|e| format!("open failed: {e:?}"))
    };
    let mut texts = vec![
        (
            open(&stored.header)?,
            scrub::scrub(&parsed.headers.to_wire()).text,
        ),
        (open(&stored.body)?, scrub::scrub(&parsed.body).text),
    ];
    if stored.attachments.len() != parsed.attachments.len() {
        return Err("attachment count differs".into());
    }
    for (sealed, att) in stored.attachments.iter().zip(&parsed.attachments) {
        let extraction = extract::extract(att);
        texts.push((
            open(sealed)?,
            scrub::scrub(extraction.text().unwrap_or("")).text,
        ));
    }
    for (opened, want) in &texts {
        if opened != want {
            return Err("opened record differs from the scrubbed text".into());
        }
        if let Some(p) = msg.planted.iter().find(|p| opened.contains(p.as_str())) {
            return Err(format!("planted identifier {p} stored in clear"));
        }
    }
    // Whether the message as built (before transmission) parses
    // differently: its body had bare LFs that SMTP rewrote to CRLF.
    Ok(Message::parse(&wire).ok().as_ref() != Some(parsed))
}

fn ms(ns: i128) -> f64 {
    ns as f64 / 1e6
}

/// Everything one ingest run reports.
pub fn run(args: &Args) -> std::io::Result<Value> {
    let size = args.size;
    let pool = inputs::pool(size, args.seed);
    let pool_len = pool.len();

    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut sut = None;
    for _ in 0..SETUP_REPS {
        let (s, secs) = set_up()?;
        setups.push(secs);
        sut = Some(s);
    }
    let mut sut = sut.expect("at least one set-up");

    // Warm-up: a slice of one batch, untimed.
    let warm: Vec<Planned> = inputs::plan(900, pool_len, 1)
        .into_iter()
        .take(match size {
            Size::Small => 512,
            Size::Large => 8,
        })
        .collect();
    let warm_phase = run_phase(
        &mut sut,
        &pool,
        size,
        9,
        Mode::Closed {
            batches: vec![warm],
        },
        None,
    )?;

    let closed_budget = Duration::from_secs_f64(args.seconds * 0.5);
    let closed_plans = |tag: u64, n: usize| -> Vec<Vec<Planned>> {
        (0..n)
            .map(|b| inputs::plan(tag * 1000 + b as u64, pool_len, 1))
            .collect()
    };
    let max_batches = 400;
    let closed = run_phase(
        &mut sut,
        &pool,
        size,
        1,
        Mode::Closed {
            batches: closed_plans(1, max_batches),
        },
        Some(closed_budget),
    )?;

    // The traced run repeats the closed loop with spans on, over the same
    // batches, so the difference is the tracing overhead.
    let traced_closed = if args.trace {
        span::set_enabled(true);
        let n = closed.batches.len();
        Some(run_phase(
            &mut sut,
            &pool,
            size,
            2,
            Mode::Closed {
                batches: closed_plans(1, n),
            },
            None,
        )?)
    } else {
        None
    };

    let open_secs = args.seconds * 0.3;
    let deliveries = args.rate * open_secs * inputs::mix().weights[..4].iter().sum::<f64>();
    let cycles = ((deliveries / pool_len as f64).round() as usize).max(1);
    let open_plan = inputs::plan(3, pool_len, cycles);
    let open = run_phase(
        &mut sut,
        &pool,
        size,
        3,
        Mode::Open {
            plan: open_plan.clone(),
            rate: args.rate,
        },
        None,
    )?;
    span::set_enabled(false);

    let mut out = report(args, &setups, &closed, &open);
    let mut notes: Vec<String> = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut crlf_rewritten = 0u64;
    let mut sampled = 0u64;
    for (name, p) in [
        ("warm-up", Some(&warm_phase)),
        ("closed", Some(&closed)),
        ("closed-traced", traced_closed.as_ref()),
        ("open", Some(&open)),
    ] {
        let Some(p) = p else { continue };
        attempted += p.clients.len() as u64;
        failed += p.failed_sessions;
        crlf_rewritten += p.crlf_rewritten;
        sampled += p.owner.kept.len() as u64;
        notes.extend(p.notes.iter().map(|n| format!("{name}: {n}")));
    }
    set(&mut out, "attempted", json!(attempted));
    set(&mut out, "failed", json!(failed));
    set(&mut out, "notes", json!(notes));
    set(
        &mut out,
        "sample",
        json!({ "checked": sampled, "crlf_rewritten": crlf_rewritten }),
    );

    if let Some(traced) = &traced_closed {
        let spans = span::take_all();
        if let Some(path) = &args.spans_out {
            span::write_jsonl(&spans, path)?;
        }
        let replay = crate::replay::run(&pool, &open_plan, 3, &sut.policy);
        set(
            &mut out,
            "per_layer",
            per_layer(&spans, &closed, traced, &open, &replay),
        );
    }
    Ok(out)
}

fn set(obj: &mut Value, key: &str, value: Value) {
    if let Value::Object(map) = obj {
        map.insert(key.to_owned(), value);
    }
}

fn batch_totals(p: &Phase) -> (usize, usize, f64, f64) {
    p.batches.iter().fold((0, 0, 0.0, 0.0), |acc, b| {
        (acc.0 + b.0, acc.1 + b.1, acc.2 + b.2, acc.3 + b.3)
    })
}

struct OpenLatency {
    session: Quantile,
    session_actual: Quantile,
    stored: Quantile,
    lateness: Quantile,
    owner_wait: Quantile,
}

fn open_latency(open: &Phase) -> OpenLatency {
    let done: HashMap<u64, &OwnerRec> = open.owner.recs.iter().map(|o| (o.id, o)).collect();
    let mut session = Vec::new();
    let mut session_actual = Vec::new();
    let mut stored = Vec::new();
    let mut lateness = Vec::new();
    let mut owner_wait = Vec::new();
    for r in &open.clients {
        session.push(ms(r.end_ns as i128 - r.sched_ns as i128));
        session_actual.push(ms(r.end_ns as i128 - r.start_ns as i128));
        lateness.push(ms(r.start_ns as i128 - r.sched_ns as i128));
        if let Some(o) = done.get(&r.id) {
            stored.push(ms(o.done_ns as i128 - r.sched_ns as i128));
            owner_wait.push(ms(o.take_ns as i128 - r.end_ns as i128));
        }
    }
    OpenLatency {
        session: quantile(&mut session),
        session_actual: quantile(&mut session_actual),
        stored: quantile(&mut stored),
        lateness: quantile(&mut lateness),
        owner_wait: quantile(&mut owner_wait),
    }
}

fn report(args: &Args, setups: &[f64], closed: &Phase, open: &Phase) -> Value {
    let (sessions, stored, client_s, stored_s) = batch_totals(closed);
    let mut batch_stored_s: Vec<f64> = closed.batches.iter().map(|b| b.3).collect();
    let lat = open_latency(open);
    let open_wall = open.wall_s.max(1e-9);
    let client_cpu_share = open.client_cpu_s / (open_wall * CONNECTIONS as f64);
    // The generator fell behind when sessions started late by more than
    // a tenth of a client thread's period (and at least 1 ms): either its
    // threads ran out of CPU (see the CPU share) or sessions outlasted a
    // thread's period, so later sessions waited for a connection.
    let period_ms = 1e3 * CONNECTIONS as f64 / args.rate;
    let behind = lat.lateness.p99 > (0.1 * period_ms).max(1.0);
    let o = ServerOptions::default();
    let (workers, conn_queue) = match o.model {
        ConcurrencyModel::WorkerPool { workers, queue } => (workers, queue),
        ConcurrencyModel::ThreadPerConnection => (0, 0),
    };
    let pool_messages = match args.size {
        Size::Small => inputs::SMALL_POOL,
        Size::Large => inputs::LARGE_POOL,
    };
    json!({
        "workload": args.size.name(),
        "seed": args.seed,
        "config": {
            "connections": CONNECTIONS,
            "client_threads": CONNECTIONS,
            "offered_rate_per_s": args.rate,
            "server_workers": workers,
            "conn_queue": conn_queue,
            "owner_queue": o.owner_queue,
            "read_timeout_s": o.read_timeout.as_secs_f64(),
            "client_timeout_s": CLIENT_TIMEOUT.as_secs_f64(),
            "pool_messages": pool_messages,
        },
        "end_to_end": {
            "setup_s": median(&mut setups.to_vec()),
            "wall_s": median(&mut batch_stored_s),
        },
        "detail": {
            "setup_reps": setups.len(),
            "closed_batches": closed.batches.len(),
            "batch_stored_s": closed.batches.iter().map(|b| b.3).collect::<Vec<f64>>(),
            "sessions_per_s": sessions as f64 / client_s.max(1e-9),
            "stored_per_s": stored as f64 / stored_s.max(1e-9),
            "closed_sessions": sessions,
            "closed_stored": stored,
            "session_p50_ms": lat.session.p50,
            "session_p99_ms": lat.session.p99,
            "session_n": lat.session.n,
            "stored_p50_ms": lat.stored.p50,
            "stored_p99_ms": lat.stored.p99,
            "stored_n": lat.stored.n,
            "open_sessions": open.clients.len(),
            "open_wall_s": open.wall_s,
            "lateness_p99_ms": lat.lateness.p99,
            "client_cpu_share": client_cpu_share,
            "generator_behind": behind,
        },
    })
}

fn per_layer(
    spans: &[span::Span],
    untraced: &Phase,
    traced: &Phase,
    open: &Phase,
    replay: &crate::replay::Replay,
) -> Value {
    let own = span::self_seconds(spans);
    let layer = |name: &str| own.get(name).copied().unwrap_or(0.0);
    let parse = layer("mail.parse");
    let features = layer("collector.features");
    let pipeline = layer("collector.pipeline");
    let (_, _, _, untraced_s) = batch_totals(untraced);
    let (_, _, _, traced_s) = batch_totals(traced);
    // The owner's timeline over the traced phases: its calls plus the
    // time it waited for the server (the residual) add up to the wall.
    let owner_wall = traced_s + open.wall_s;
    let lat = open_latency(open);
    let open_wall = open.wall_s.max(1e-9);
    json!({
        "loadgen.lateness_p99_ms": lat.lateness.p99,
        "loadgen.client_cpu_share": open.client_cpu_s / (open_wall * CONNECTIONS as f64),
        "smtp.server_session_p50_ms": open.server.session_us.p50,
        "smtp.server_session_p99_ms": open.server.session_us.p99,
        "smtp.server_data_p50_ms": open.server.data_us.p50,
        "smtp.client_residual_p50_ms": lat.session_actual.p50 - open.server.session_us.p50,
        "smtp.codec_s": replay.codec_s,
        "smtp.session_s": replay.session_s,
        "smtp.commands": traced.server.commands + open.server.commands,
        "smtp.bytes_in": traced.server.bytes_in + open.server.bytes_in,
        "ingest.owner_wait_p50_ms": lat.owner_wait.p50,
        "ingest.owner_wait_p99_ms": lat.owner_wait.p99,
        "ingest.owner_queue_max": open.owner.queue_max,
        "mail.parse_s": parse,
        "collector.features_s": features,
        "collector.pipeline_s": pipeline,
        "collector.sealed_bytes": traced.owner.sealed_bytes + open.owner.sealed_bytes,
        "smtp.replay_wall_s": replay.wall_s,
        "smtp.replay_residual_s": replay.wall_s - replay.codec_s - replay.session_s,
        "smtp.replay_sessions": replay.sessions,
        "trace.overhead_s": traced_s - untraced_s,
        "trace.wall_s": owner_wall,
        "trace.residual_s": owner_wall - parse - features - pipeline,
        "samples": {
            "loadgen.lateness_p99_ms": lat.lateness.n,
            "smtp.server_session_p50_ms": open.server.session_us.n,
            "smtp.server_session_p99_ms": open.server.session_us.n,
            "smtp.server_data_p50_ms": open.server.data_us.n,
            "smtp.client_residual_p50_ms": lat.session_actual.n,
            "ingest.owner_wait_p50_ms": lat.owner_wait.n,
            "ingest.owner_wait_p99_ms": lat.owner_wait.n,
            "trace.batches": traced.batches.len(),
        },
    })
}
