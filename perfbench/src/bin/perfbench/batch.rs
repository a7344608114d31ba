//! The batch workloads: `batch_report`, `out_of_core` and
//! `replicate_small`. Each iteration calls the layers' public
//! functions in the order `Experiment::try_run` and `taster report`
//! (or `taster replicate`) call them, so the untraced timings are the
//! program's own.

use crate::child::{digest, run_child};
use crate::measure::{Clock, Peak, Tracer};
use crate::outcome::{Records, Samples};
use crate::speed::Speed;
use crate::Config;
use std::hint::black_box;
use taster::analysis::classify::Category;
use taster::analysis::Classified;
use taster::core::replicate::{render_replication, replicate, ReplicateOptions};
use taster::core::{Experiment, Scenario};
use taster::ecosystem::GroundTruth;
use taster::feeds::try_collect_all_observed;
use taster::mailsim::MailWorld;
use taster::sim::{Obs, Parallelism};

/// Workers of `replicate_small`, the one workload where `sim::par`
/// fans out whole pipelines: the machine the benchmark was sized on has
/// two cores.
pub const FANOUT_WORKERS: usize = 2;

/// Workers of the other workloads. Worker count never changes output
/// bytes, and on the two-core machine the benchmark was sized on, a
/// one-worker `taster report` repeats its wall time within 1.5%
/// (quartile spread over ten runs) against 7.6% at two workers.
pub const BATCH_WORKERS: usize = 1;

/// `out_of_core` memory budget, as a multiple of the floor the streaming
/// core cannot go below: its rank permutation, 4 bytes per event. At the
/// default seed 1.4x that floor is 4 MiB. A fixed budget would put some
/// seeds' larger worlds at the floor, where a run takes 20x longer.
fn out_of_core_budget(events: usize) -> u64 {
    events as u64 * 4 * 7 / 5
}

/// The paper scenario at `scale`, as `taster report --scale --seed
/// --threads` builds it.
pub fn scenario(scale: f64, seed: u64, workers: usize) -> Scenario {
    Scenario::default_paper()
        .with_scale(scale)
        .with_seed(seed)
        .with_threads(workers)
}

/// The scenario a batch workload runs.
fn batch_scenario(cfg: &Config) -> Scenario {
    match cfg.workload.as_str() {
        "out_of_core" => {
            let mut sc = scenario(cfg.scale(0.3), cfg.world_seed, BATCH_WORKERS);
            sc.ecosystem.max_mem_bytes = cfg.max_mem_bytes;
            sc
        }
        _ => scenario(cfg.scale(1.0), cfg.world_seed, BATCH_WORKERS),
    }
}

/// The `replicate_small` options.
pub fn replicate_options(cfg: &Config) -> ReplicateOptions {
    let (seeds, resamples) = if cfg.smoke { (2, 20) } else { (8, 200) };
    ReplicateOptions {
        seeds,
        resamples,
        level: 0.95,
    }
}

/// Spawns iterations until `cfg.seconds` have passed and at least
/// `min_iterations` ran, each bracketed by speed probes; a traced run
/// alternates traced and untraced iterations so it can measure its own
/// overhead. Every iteration's
/// output must equal `want`, or the first iteration's when `want` is
/// `None`.
pub fn repeat(
    cfg: &Config,
    min_iterations: u64,
    want: Option<String>,
    rec: &mut Records,
) -> Result<(), String> {
    let mut speed = Speed::start(cfg.smoke, cfg.trace)?;
    let start = Clock::start();
    let mut want = want;
    let mut i = 0u64;
    while i < min_iterations || start.secs() < cfg.seconds {
        let traced = cfg.trace && i.is_multiple_of(2);
        let mark = speed.mark(rec);
        let got = run_child(cfg, i, traced, rec)?;
        speed.settle(rec, mark)?;
        if let Some(got) = got {
            let want = want.get_or_insert_with(|| got.clone());
            rec.tally
                .check_output(&format!("iteration {i}"), &got, want);
        }
        i += 1;
    }
    Ok(())
}

/// Records one iteration's `total_s`, split by whether it was traced.
pub fn record_total(rec: &mut Records, total: f64) {
    let name = if rec.tracer.is_on() {
        "trace.total_s"
    } else {
        "total_s"
    };
    rec.samples.push(name, total);
}

/// Turns a traced iteration's spans into per-layer samples: each
/// layer's self time, and the part of the iteration no layer span
/// covers.
pub fn layer_samples(rec: &mut Records, layers: &[(&str, &str)]) {
    if !rec.tracer.is_on() {
        return;
    }
    for (span, metric) in layers {
        let own: f64 = rec.tracer.self_secs_per_run(span).iter().sum();
        rec.samples.push(metric, own);
    }
    for v in rec.tracer.self_secs_per_run("iteration") {
        rec.samples.push("trace.remainder_s", v);
    }
}

/// Calls the Experiment accessors behind Tables 1-3, Figs 2-12 and
/// the exclusive share, in one span.
pub fn probe_paper(e: &Experiment, tracer: &mut Tracer) {
    tracer.time("analysis.paper", || {
        black_box(e.table1());
        black_box(e.table2());
        black_box(e.table3());
        for category in [Category::Live, Category::Tagged] {
            black_box(e.fig2(category));
            black_box(e.fig3(category));
            black_box(e.exclusive_share(category));
        }
        black_box(e.fig4());
        black_box(e.fig5());
        black_box(e.fig6());
        black_box(e.fig7());
        black_box(e.fig8());
        black_box(e.fig9());
        black_box(e.fig10());
        black_box(e.fig11());
        black_box(e.fig12());
    });
}

/// Calls the accessors behind the studies the report adds to the
/// paper's figures, in one span.
pub fn probe_studies(e: &Experiment, tracer: &mut Tracer) {
    tracer.time("analysis.studies", || {
        black_box(e.campaigns());
        black_box(e.granularity());
        black_box(e.blocking());
        for category in [Category::Live, Category::Tagged] {
            black_box(e.selection(category));
            black_box(e.redundancy(category));
        }
    });
}

/// One pass of the batch pipeline, scenario to report bytes.
struct Pass {
    experiment: Experiment,
    report: String,
}

/// Runs one pass: world (the set-up), collection, classification,
/// render. A traced pass also gives each layer call a span and its own
/// peak RSS, and reads the program's registry counters.
fn pass(sc: &Scenario, rec: &mut Records) -> Result<Pass, String> {
    let traced = rec.tracer.is_on();
    let obs = if traced {
        Obs::with(true, false)
    } else {
        Obs::off()
    };
    let plan = sc.fault_plan();
    let par = &sc.parallelism;
    let mut peak = Peak::start();
    let layer_peak = |samples: &mut Samples, peak: &mut Peak, name: &str| {
        if traced {
            samples.push_opt(name, peak.take());
        }
    };

    let start = Clock::start();
    let root = rec.tracer.begin("iteration");
    let open = rec.tracer.begin("ecosystem.generate");
    let truth = GroundTruth::generate(&sc.ecosystem, sc.seed);
    rec.tracer.end(open);
    let truth = truth.map_err(|e| format!("ground truth: {e}"))?;
    layer_peak(&mut rec.samples, &mut peak, "ecosystem.peak_rss_mb");
    let open = rec.tracer.begin("mailsim.provider");
    let world = MailWorld::build(truth, sc.mail.clone());
    rec.tracer.end(open);
    let world = world.map_err(|e| format!("mail world: {e}"))?;
    let setup = start.secs();
    layer_peak(&mut rec.samples, &mut peak, "mailsim.peak_rss_mb");
    let open = rec.tracer.begin("feeds.collect");
    let feeds = try_collect_all_observed(&world, &sc.feeds, &plan, par, &obs);
    let collect_s = rec.tracer.end(open);
    let feeds = feeds.map_err(|e| format!("collect: {e}"))?;
    layer_peak(&mut rec.samples, &mut peak, "feeds.peak_rss_mb");
    let classified = rec.tracer.time("classify.build", || {
        Classified::build_observed(&world.truth, &feeds, sc.classify, &plan, par, &obs)
    });
    let events = world.truth.log.len as f64;
    let experiment = Experiment {
        scenario: sc.clone(),
        world,
        feeds,
        classified,
        faults: plan,
        obs: Obs::off(),
    };
    let report = rec
        .tracer
        .time("report.render", || experiment.report().full_report());
    rec.tracer.end(root);
    let total = start.secs();
    peak.take();

    record_total(rec, total);
    rec.samples.push("setup_s", setup);
    rec.samples.push_opt("peak_rss_mb", peak.max);
    if traced {
        let m = &obs.metrics;
        rec.samples.push("ecosystem.events", events);
        rec.samples.push("feeds.events_per_s", events / collect_s);
        rec.samples
            .push("feeds.renders", m.counter("collect/renders") as f64);
        rec.samples
            .push("feeds.records", m.counter("collect/records") as f64);
        rec.samples.push(
            "classify.crawl_attempts",
            m.counter("crawl/attempts") as f64,
        );
        rec.samples.push(
            "classify.bitset_word_ops",
            m.counter("classify/bitset_word_ops") as f64,
        );
        rec.samples.push("report.bytes", report.len() as f64);
    }
    Ok(Pass { experiment, report })
}

/// One `batch_report` or `out_of_core` iteration, in its own process.
/// Returns the report's digest.
pub fn batch_iteration(cfg: &Config, index: u64, rec: &mut Records) -> Option<String> {
    let sc = batch_scenario(cfg);
    let p = match pass(&sc, rec) {
        Ok(p) => p,
        Err(e) => {
            rec.tally.error(&format!("iteration {index}"), &e);
            return None;
        }
    };
    let got = digest(&p.report);
    if rec.tracer.is_on() {
        probe_paper(&p.experiment, &mut rec.tracer);
        probe_studies(&p.experiment, &mut rec.tracer);
        if index == 0 {
            // The layer-by-layer pass must be the program's own
            // pipeline: compare it with `Experiment::try_run`.
            drop(p);
            match Experiment::try_run(&sc) {
                Ok(e) => {
                    rec.tally.check_output(
                        "Experiment::try_run",
                        &digest(&e.render_report()),
                        &got,
                    );
                }
                Err(e) => rec.tally.error("Experiment::try_run", &e.to_string()),
            }
        }
    }
    layer_samples(
        rec,
        &[
            ("ecosystem.generate", "ecosystem.generate_s"),
            ("mailsim.provider", "mailsim.provider_s"),
            ("feeds.collect", "feeds.collect_s"),
            ("classify.build", "classify.build_s"),
            ("analysis.paper", "analysis.paper_s"),
            ("analysis.studies", "analysis.studies_s"),
            ("report.render", "report.render_s"),
        ],
    );
    Some(got)
}

/// `batch_report`: `taster report` at scale 1.0 on one worker. Every
/// iteration must render the first one's bytes.
pub fn batch_report(cfg: &Config, rec: &mut Records) -> Result<(), String> {
    repeat(cfg, 4, None, rec)
}

/// `out_of_core`: scale 0.3 under a budget of 1.4x the rank-permutation
/// floor. Every iteration must render the in-core report of the same
/// scenario.
pub fn out_of_core(cfg: &Config, rec: &mut Records) -> Result<(), String> {
    let in_core = Config {
        max_mem_bytes: None,
        ..cfg.clone()
    };
    let reference = Experiment::try_run(&batch_scenario(&in_core))
        .map_err(|e| format!("in-core reference: {e}"))?;
    let budgeted = Config {
        max_mem_bytes: Some(out_of_core_budget(reference.world.truth.log.len)),
        ..cfg.clone()
    };
    let want = digest(&reference.render_report());
    drop(reference);
    repeat(&budgeted, 4, Some(want), rec)
}

/// `replicate_small`: 8 replicate seeds at scale 0.1 on two workers,
/// 200 bootstrap resamples, as `taster replicate` runs it. Every
/// iteration must render the first one's table.
pub fn replicate_small(cfg: &Config, rec: &mut Records) -> Result<(), String> {
    repeat(cfg, 6, None, rec)
}

/// One `replicate_small` iteration, in its own process. Returns the
/// replication table's digest.
pub fn replicate_iteration(cfg: &Config, index: u64, rec: &mut Records) -> Option<String> {
    let options = replicate_options(cfg);
    let start = Clock::start();
    let mut peak = Peak::start();
    let root = rec.tracer.begin("iteration");
    // Set-up is everything before the fan-out can start: the scenario
    // and the option checks `replicate` itself repeats.
    let sc = scenario(cfg.scale(0.1), cfg.world_seed, FANOUT_WORKERS);
    let valid = options.validate().and_then(|()| sc.validate());
    let setup = start.secs();
    let open = rec.tracer.begin("replicate.fanout");
    let rep = valid.and_then(|()| replicate(&sc, options).map_err(|e| e.to_string()));
    rec.tracer.end(open);
    let rep = match rep {
        Ok(r) => r,
        Err(e) => {
            rec.tracer.end(root);
            rec.tally.error(&format!("iteration {index}"), &e);
            return None;
        }
    };
    let table = rec
        .tracer
        .time("replicate.render", || render_replication(&rep));
    rec.tracer.end(root);
    let total = start.secs();
    peak.take();
    record_total(rec, total);
    rec.samples.push("setup_s", setup);
    rec.samples.push_opt("peak_rss_mb", peak.max);
    let got = digest(&table);
    if rec.tracer.is_on() {
        rec.tracer
            .time("stats.bootstrap", || black_box(rep.metric_cis()));
        rec.samples.push("report.bytes", table.len() as f64);
        if index == 0 {
            probe_replicate(&sc, &rep.seeds, options, &got, rec);
        }
    }
    let mut layers = vec![
        ("replicate.fanout", "replicate.fanout_s"),
        ("replicate.render", "report.render_s"),
        ("stats.bootstrap", "stats.bootstrap_s"),
    ];
    if index == 0 {
        layers.push(("analysis.paper", "analysis.paper_s"));
    }
    layer_samples(rec, &layers);
    Some(got)
}

/// Once per traced run: each replicate's pipeline run serially on its
/// own (the work the fan-out spreads over its workers) with the paper
/// analyses its metrics come from, and a one-worker replication that
/// must render the same table.
fn probe_replicate(
    sc: &Scenario,
    seeds: &[u64],
    options: ReplicateOptions,
    want: &str,
    rec: &mut Records,
) {
    let mut serial_sum = 0.0;
    for &seed in seeds {
        let mut inner = sc.clone().with_seed(seed);
        inner.parallelism = Parallelism::serial();
        let open = rec.tracer.begin("replicate.serial_run");
        let e = Experiment::try_run(&inner);
        serial_sum += rec.tracer.end(open);
        match e {
            Ok(e) => probe_paper(&e, &mut rec.tracer),
            Err(e) => rec.tally.error("serial replicate run", &e.to_string()),
        }
    }
    rec.samples.push("replicate.serial_sum_s", serial_sum);
    match replicate(&sc.clone().with_threads(1), options) {
        Ok(rep) => {
            rec.tally.check_output(
                "one-worker replication",
                &digest(&render_replication(&rep)),
                want,
            );
        }
        Err(e) => rec.tally.error("one-worker replication", &e.to_string()),
    }
}
