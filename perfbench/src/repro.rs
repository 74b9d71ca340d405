//! The traced replay behind `repro-10k`'s per-layer numbers.
//!
//! It calls the public functions that `repro all --scale 10k` calls, with
//! the same inputs, in the same order and as many times, at the same
//! thread count, and records a span around each call. What `repro` does
//! besides these calls (its own orchestration, the analyses left
//! untimed, JSON writing and the microbenches) is the `experiments`
//! residual: the median untraced `repro all` wall time minus the timed
//! calls.

use crate::span::{self, span};
use ets_collector::corpus::{self, SpamDataset};
use ets_collector::funnel::Funnel;
use ets_collector::infra::{CollectedEmail, CollectionInfra};
use ets_collector::scrub;
use ets_collector::spamscore::SpamScorer;
use ets_collector::stream::stream_collect;
use ets_collector::traffic::{GenEmail, TrafficConfig, TrafficGenerator};
use ets_dns::Fqdn;
use ets_ecosystem::mxconc::MxConcentration;
use ets_ecosystem::population::{PopulationConfig, World};
use ets_ecosystem::scan::scan_world;
use ets_ecosystem::whois_cluster::{self, WhoisRow};
use ets_honeypot::behavior::BehaviorModel;
use ets_honeypot::campaign::{HoneyCampaign, ProbeCampaign, ProbeReport};
use serde_json::{json, Value};
use std::hint::black_box;
use std::time::Instant;

/// World scale of the workload.
pub const SCALE: usize = 10_000;

/// Work counts the replay observed.
#[derive(Debug, Default)]
pub struct Counts {
    pub ctypos: usize,
    pub whois_rows: usize,
    pub probe_calls: usize,
    pub emails: usize,
}

fn probe(world: &World, counts: &mut Counts) -> ProbeReport {
    counts.probe_calls += 1;
    span("honeypot.probe", || {
        ProbeCampaign::new(world, BehaviorModel::default()).run()
    })
}

/// One replay of `repro all`'s timed calls. Returns its wall seconds and
/// the work counts.
pub fn replay(seed: u64) -> (f64, Counts) {
    let t0 = Instant::now();
    let mut counts = Counts::default();

    // table2: the scrubber over the Enron-like corpus.
    span("collector.corpus_eval", || {
        let corpus = corpus::enron_like(4_000, 0.35, seed ^ 0x7ab1e2);
        for email in &corpus {
            black_box(scrub::scrub(&email.message.body));
        }
    });
    // table3: the spam scorer over the four datasets.
    span("collector.corpus_eval", || {
        let scorer = SpamScorer::new();
        for ds in SpamDataset::ALL {
            let corpus = corpus::spam_dataset(ds, 3_000, seed ^ 0x5e7);
            for email in &corpus {
                black_box(scorer.score(&email.message).is_spam());
            }
        }
    });
    // table4 builds the world, then scans it.
    let world = span("ecosystem.world_build", || {
        World::build(PopulationConfig::at_scale(SCALE, seed))
    });
    counts.ctypos = world.ctypos.len();
    black_box(span("ecosystem.scan_world", || scan_world(&world)));
    // table5.
    black_box(probe(&world, &mut counts));
    // table6: MX concentration of the accepting domains.
    let report = probe(&world, &mut counts);
    let resolver = world.resolver();
    let accepted: Vec<Fqdn> = report.accepted.iter().map(Fqdn::from_domain).collect();
    black_box(span("ecosystem.mx_concentration", || {
        MxConcentration::measure(&resolver, accepted.iter())
    }));
    // fig3 streams the collection run.
    let infra = CollectionInfra::build();
    let config = TrafficConfig {
        seed,
        spam_scale: 1.0 / 1_000.0,
        ..TrafficConfig::default()
    };
    let gen = TrafficGenerator::new(&infra, config);
    let funnel = Funnel::new(&infra);
    let mut collected: Vec<CollectedEmail> = Vec::new();
    let state = span("collector.stream_collect", || {
        let mut sink = |e: GenEmail| collected.push(e.collected);
        stream_collect(&gen, &funnel, &mut sink)
    });
    counts.emails = collected.len();
    black_box(span("collector.funnel_finish", || state.finish()));
    // fig8: MX concentration of every ctypo, then registrant clusters.
    let resolver = world.resolver();
    let domains: Vec<Fqdn> = world
        .ctypos
        .iter()
        .map(|c| Fqdn::from_domain(&c.candidate.domain))
        .collect();
    black_box(span("ecosystem.mx_concentration", || {
        MxConcentration::measure(&resolver, domains.iter())
    }));
    let rows: Vec<WhoisRow> = world
        .ctypos
        .iter()
        .map(|c| {
            let fq = Fqdn::from_domain(&c.candidate.domain);
            let reg = world
                .registry
                .registration(&fq)
                .expect("ctypos are registered");
            WhoisRow {
                domain: fq,
                whois: reg.public_whois(),
                private: reg.is_private(),
            }
        })
        .collect();
    counts.whois_rows = rows.len();
    black_box(span("ecosystem.whois_cluster", || {
        whois_cluster::cluster_registrants(&rows)
    }));
    // honey: a third probe run, then the pilot and main campaigns.
    let report = probe(&world, &mut counts);
    span("honeypot.honey", || {
        let campaign = HoneyCampaign::new(&world, BehaviorModel::default());
        let pilot = campaign.pilot_selection(&report.accepted, 4, 738);
        black_box(campaign.run(&pilot));
        black_box(campaign.run(&report.accepted));
    });
    (t0.elapsed().as_secs_f64(), counts)
}

/// The layer spans of the replay, in report order.
pub const LAYERS: [(&str, &str); 9] = [
    ("ecosystem.world_build_s", "ecosystem.world_build"),
    ("ecosystem.scan_world_s", "ecosystem.scan_world"),
    ("ecosystem.mx_concentration_s", "ecosystem.mx_concentration"),
    ("ecosystem.whois_cluster_s", "ecosystem.whois_cluster"),
    ("honeypot.probe_s", "honeypot.probe"),
    ("honeypot.honey_s", "honeypot.honey"),
    ("collector.corpus_eval_s", "collector.corpus_eval"),
    ("collector.stream_collect_s", "collector.stream_collect"),
    ("collector.funnel_finish_s", "collector.funnel_finish"),
];

/// Runs the replay traced, then untraced, and reports the layers.
pub fn run(seed: u64, threads: usize, spans_out: Option<&std::path::Path>) -> Value {
    ets_parallel::set_threads(threads);
    span::set_enabled(true);
    let (traced_wall, counts) = replay(seed);
    span::set_enabled(false);
    let spans = span::take_all();
    if let Some(path) = spans_out {
        if let Err(e) = span::write_jsonl(&spans, path) {
            eprintln!("cannot write spans to {}: {e}", path.display());
        }
    }
    let (untraced_wall, _) = replay(seed);
    let own = span::self_seconds(&spans);
    let mut layers = serde_json::Map::new();
    let mut timed = 0.0;
    for (metric, name) in LAYERS {
        let s = own.get(name).copied().unwrap_or(0.0);
        timed += s;
        layers.insert(metric.to_string(), json!(s));
    }
    json!({
        "layers": layers,
        "timed_s": timed,
        "traced_wall_s": traced_wall,
        "untraced_wall_s": untraced_wall,
        "counts": {
            "ecosystem.ctypos": counts.ctypos,
            "ecosystem.whois_rows": counts.whois_rows,
            "honeypot.probe_calls": counts.probe_calls,
            "collector.emails": counts.emails,
        },
        "spans": spans.len(),
    })
}
