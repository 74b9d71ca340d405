//! Seeded inputs of the ingest workloads: the message pool and the
//! session plan. Nothing here is timed.
//!
//! * `ingest-small` draws its pool from the collector's own study traffic
//!   (`TrafficGenerator::day`), keeping mail addressed to the study
//!   domains; SMTP relay submissions, which a catch-all refuses, are left
//!   out.
//! * `ingest-large` builds one message per size stratum: total wire sizes
//!   are log-uniform over 32 KiB–2 MiB by stratified sampling, so every
//!   seed carries the same size distribution and only content and order
//!   change with the seed.
//!
//! Every sent message carries a fixed-width `Message-ID` naming its
//! request id, which joins the client's record to the owner's.

use ets_collector::corpus;
use ets_collector::extract::build;
use ets_collector::infra::CollectionInfra;
use ets_collector::scrub::luhn_valid;
use ets_collector::traffic::{TrafficConfig, TrafficGenerator};
use ets_loadgen::scenario::{Scenario, ScenarioMix};
use ets_mail::{EmailAddress, Message};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use std::collections::HashSet;

/// Messages in the `ingest-small` pool.
pub const SMALL_POOL: usize = 2048;
/// Messages (size strata) in the `ingest-large` pool.
pub const LARGE_POOL: usize = 24;
const LARGE_MIN: f64 = 32.0 * 1024.0;
const LARGE_MAX: f64 = 2.0 * 1024.0 * 1024.0;

/// Width of the decimal request id inside the `Message-ID` header.
const ID_DIGITS: usize = 12;
const ID_PLACEHOLDER: &str = "<ets-bench-000000000000@perfbench.invalid>";

/// Which ingest workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Small,
    Large,
}

impl Size {
    pub fn name(self) -> &'static str {
        match self {
            Size::Small => "ingest-small",
            Size::Large => "ingest-large",
        }
    }

    /// Pool slots whose records are kept for the opened-record and parse
    /// checks: a fixed set of size ranks, so the memory the sample holds
    /// does not move with the seed or the throughput.
    pub fn sample_stride(self) -> usize {
        match self {
            Size::Small => 64,
            Size::Large => 6,
        }
    }
}

/// One pooled message, ready to send.
pub struct PoolMsg {
    pub mail_from: Option<EmailAddress>,
    pub rcpt_to: EmailAddress,
    pub helo: String,
    /// Wire text with the id placeholder at `id_at`.
    pub wire: String,
    id_at: usize,
    /// Identifiers planted in clear text that must never reach storage
    /// unscrubbed (empty for study traffic, whose planted values the
    /// generator does not expose).
    pub planted: Vec<String>,
}

impl PoolMsg {
    fn new(
        mail_from: Option<EmailAddress>,
        rcpt_to: EmailAddress,
        helo: String,
        mut message: Message,
        planted: Vec<String>,
    ) -> PoolMsg {
        message.headers.set("Message-ID", ID_PLACEHOLDER);
        let wire = message.to_wire();
        let id_at = wire
            .find(ID_PLACEHOLDER)
            .expect("the placeholder Message-ID survives serialization")
            + "<ets-bench-".len();
        PoolMsg {
            mail_from,
            rcpt_to,
            helo,
            wire,
            id_at,
            planted,
        }
    }

    /// The wire text sent for request `id`.
    pub fn wire_for(&self, id: u64) -> String {
        let mut wire = self.wire.clone();
        let digits = format!("{id:0ID_DIGITS$}");
        wire.replace_range(self.id_at..self.id_at + ID_DIGITS, &digits);
        wire
    }
}

/// The request id named by a received message's `Message-ID`.
pub fn request_id(msg: &Message) -> Option<u64> {
    let v = msg.headers.get("Message-ID")?;
    let digits = v.strip_prefix("<ets-bench-")?.get(..ID_DIGITS)?;
    digits.parse().ok()
}

/// The study domains the catch-all serves.
pub fn study_domains(infra: &CollectionInfra) -> Vec<String> {
    infra
        .domains
        .iter()
        .map(|d| d.domain().as_str().to_owned())
        .collect()
}

/// Builds the pool for `size` from `seed`.
pub fn pool(size: Size, seed: u64) -> Vec<PoolMsg> {
    match size {
        Size::Small => small_pool(seed),
        Size::Large => large_pool(seed),
    }
}

fn small_pool(seed: u64) -> Vec<PoolMsg> {
    let infra = CollectionInfra::build();
    let ours: HashSet<String> = study_domains(&infra).into_iter().collect();
    let gen = TrafficGenerator::new(
        &infra,
        TrafficConfig {
            seed,
            ..TrafficConfig::default()
        },
    );
    let setup = gen.setup();
    let mut out = Vec::with_capacity(SMALL_POOL);
    for day in 0.. {
        for e in gen.day(&setup, day) {
            let c = e.collected;
            if c.smtp_submission || !ours.contains(c.rcpt_to.domain()) {
                continue;
            }
            out.push(PoolMsg::new(
                c.mail_from,
                c.rcpt_to,
                c.client_helo,
                c.message,
                Vec::new(),
            ));
            if out.len() == SMALL_POOL {
                return out;
            }
        }
    }
    unreachable!("the study period yields more than {SMALL_POOL} messages")
}

/// A Luhn-valid 15-digit Amex-style number.
fn card(rng: &mut ChaCha8Rng) -> String {
    let mut digits = String::from("37");
    while digits.len() < 14 {
        digits.push(char::from(b'0' + rng.gen_range(0..10u8)));
    }
    (0..10u8)
        .map(|d| format!("{digits}{d}"))
        .find(|c| luhn_valid(c.as_bytes()))
        .expect("some check digit satisfies Luhn")
}

fn ssn(rng: &mut ChaCha8Rng) -> String {
    format!(
        "{:03}-{:02}-{:04}",
        rng.gen_range(100..600),
        rng.gen_range(10..99),
        rng.gen_range(1000..9999)
    )
}

/// Roughly `len` bytes of Enron-like business text, with planted
/// identifiers recorded in `planted`.
fn text(rng: &mut ChaCha8Rng, len: usize, planted: &mut Vec<String>) -> String {
    let mut out = String::with_capacity(len + 512);
    while out.len() < len {
        let batch = corpus::enron_like(16, 0.35, rng.gen());
        for e in batch {
            out.push_str(&e.message.body);
            if rng.gen_bool(0.2) {
                let (line, secret) = if rng.gen_bool(0.5) {
                    let c = card(rng);
                    (format!("Amex {c} Exp 06/03\n"), c)
                } else {
                    let s = ssn(rng);
                    (format!("My SSN is {s}\n"), s)
                };
                out.push_str(&line);
                planted.push(secret);
            }
            if out.len() >= len {
                break;
            }
        }
    }
    out
}

fn large_pool(seed: u64) -> Vec<PoolMsg> {
    let domains = study_domains(&CollectionInfra::build());
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x1a26e);
    (0..LARGE_POOL)
        .map(|rank| {
            let frac = (rank as f64 + 0.5) / LARGE_POOL as f64;
            let target = (LARGE_MIN * (LARGE_MAX / LARGE_MIN).powf(frac)) as usize;
            let mut planted = Vec::new();
            let body_len = ((4096.0 * 16f64.powf(rng.gen::<f64>())) as usize).min(target / 2);
            let body = text(&mut rng, body_len, &mut planted);
            // Attachments are base64 on the wire (4/3, plus a CRLF per
            // 76 characters), so their text fills the rest of the target.
            let att_total = (target.saturating_sub(body.len() + 1024)) * 3 / 4 * 76 / 78;
            let n_att = rng.gen_range(1..=2usize);
            let from = format!("sender{}@mail{}.example", rng.gen::<u16>(), rank);
            let to = format!(
                "user{}@{}",
                rng.gen::<u16>(),
                domains[rng.gen_range(0..domains.len())]
            );
            let mut builder = ets_mail::MessageBuilder::new()
                .from(&from)
                .expect("valid sender")
                .to(&to)
                .expect("valid recipient")
                .subject(&format!("documents for review ({rank})"))
                .date("Tue, 7 Jun 2016 09:00:00 +0000")
                .body(&body);
            for a in 0..n_att {
                let t = text(&mut rng, att_total / n_att, &mut planted);
                let name = format!("part{a}");
                let att = match rng.gen_range(0..5) {
                    0 => build::pdf(&format!("{name}.pdf"), &t),
                    1 => build::ooxml(&format!("{name}.docx"), &t),
                    2 => build::doc(&format!("{name}.doc"), &t),
                    3 => build::image(&format!("{name}.jpg"), &t),
                    _ => build::txt(&format!("{name}.txt"), &t),
                };
                builder = builder.attach(&att.filename, &att.content_type, att.data);
            }
            PoolMsg::new(
                Some(from.parse().expect("valid sender")),
                to.parse().expect("valid recipient"),
                format!("relay{rank}.example"),
                builder.build(),
                planted,
            )
        })
        .collect()
}

/// One planned session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Planned {
    /// Deliver pool message `pool` (request id = the session's id).
    Deliver { pool: usize },
    /// The loadgen bounce probe: RCPT to a foreign domain.
    Bounce,
    /// Protocol garbage that never forms a transaction.
    Malformed,
    /// Connect and close without a word.
    SilentDrop,
}

impl Planned {
    /// The loadgen scenario whose Table-5 outcome this session expects.
    pub fn scenario(self) -> Scenario {
        match self {
            Planned::Deliver { .. } => Scenario::Spam,
            Planned::Bounce => Scenario::BounceProbe,
            Planned::Malformed => Scenario::Malformed,
            Planned::SilentDrop => Scenario::SilentDrop,
        }
    }
}

/// The serving mix: `ScenarioMix::paper()` without slowloris, whose
/// share goes to delivery, so the fault shares stay at the paper's
/// bounce 10%, malformed 8% and silent drop 6%.
pub fn mix() -> ScenarioMix {
    let mut mix = ScenarioMix::paper();
    let slow = Scenario::ALL
        .iter()
        .position(|s| *s == Scenario::Slowloris)
        .expect("slowloris is a scenario");
    mix.weights[0] += mix.weights[slow];
    mix.weights[slow] = 0.0;
    mix
}

/// A phase's session plan: scenarios drawn from [`mix`] by a stream keyed
/// on the phase, with deliveries walking the pool in a fixed stride order
/// that spreads large and small messages evenly over the run. The plan's
/// shape is the same for every seed, so the seed decides message content
/// but not which client thread meets which message size. The plan ends
/// when `cycles` full passes over the pool are delivered.
pub fn plan(phase: u64, pool_len: usize, cycles: usize) -> Vec<Planned> {
    let mix = mix();
    let mut rng = ets_loadgen::scenario::conn_rng(0x5eed, phase);
    let stride = (1..pool_len)
        .rev()
        .find(|s| gcd(*s, pool_len) == 1 && *s <= pool_len * 5 / 16)
        .unwrap_or(1);
    let mut out = Vec::new();
    let mut delivered = 0;
    while delivered < pool_len * cycles {
        out.push(match mix.draw(&mut rng) {
            Scenario::BounceProbe => Planned::Bounce,
            Scenario::Malformed => Planned::Malformed,
            Scenario::SilentDrop => Planned::SilentDrop,
            _ => {
                delivered += 1;
                Planned::Deliver {
                    pool: (delivered - 1) * stride % pool_len,
                }
            }
        });
    }
    out
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}
