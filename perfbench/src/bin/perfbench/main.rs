//! The repository's benchmark: four workloads that drive the `taster`
//! reproduction through its public API and its `taster serve` daemon,
//! report end-to-end metrics from an untraced run and per-layer metrics
//! from a traced one, and check every output.
//!
//! ```text
//! perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! ```
//!
//! Run it from the repository root. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`. A
//! traced run also writes its spans to `.bench_out/`. See `README.md`
//! next to this package for the workloads and what each metric should
//! move.

mod batch;
mod child;
mod measure;
mod outcome;
mod serve;
mod speed;
mod world;

use outcome::{render_result, Records, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;

/// The workloads, by name.
pub const WORKLOADS: &[&str] = &[
    "batch_report",
    "out_of_core",
    "serve_mixed",
    "replicate_small",
];

/// One run's settings.
#[derive(Clone)]
pub struct Config {
    /// Workload name, one of [`WORKLOADS`].
    pub workload: String,
    /// Workload seed; the program receives only the scenario it yields.
    pub seed: u64,
    /// Seed of the world the run measures, picked from `seed` (see
    /// [`world`]).
    pub world_seed: u64,
    /// How long the run measures, in seconds.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Tiny scenarios, for the benchmark's own tests.
    pub smoke: bool,
    /// Set in the process that runs one iteration for a run: the
    /// iteration's index.
    pub child: Option<u64>,
    /// The memory budget the run chose for its iterations
    /// (`out_of_core`).
    pub max_mem_bytes: Option<u64>,
}

impl Config {
    /// The scenario scale to use where a workload runs at `full`.
    pub fn scale(&self, full: f64) -> f64 {
        if self.smoke {
            0.02
        } else {
            full
        }
    }
}

const USAGE: &str =
    "usage: perfbench --workload <batch_report|out_of_core|serve_mixed|replicate_small> \
                     [--seed N] [--seconds S] [--trace 0|1] [--smoke]";

fn parse_args(args: impl Iterator<Item = String>) -> Result<Config, String> {
    let mut cfg = Config {
        workload: String::new(),
        seed: world::DEFAULT_SEED,
        world_seed: world::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        smoke: false,
        child: None,
        max_mem_bytes: None,
    };
    let mut args = args;
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            cfg.smoke = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => cfg.workload = value,
            "--world-seed" => {
                cfg.world_seed = value
                    .parse()
                    .map_err(|e| format!("bad --world-seed: {e}"))?
            }
            "--child" => cfg.child = Some(value.parse().map_err(|e| format!("bad --child: {e}"))?),
            "--max-mem-bytes" => {
                cfg.max_mem_bytes = Some(
                    value
                        .parse()
                        .map_err(|e| format!("bad --max-mem-bytes: {e}"))?,
                )
            }
            "--seed" => cfg.seed = value.parse().map_err(|e| format!("bad --seed: {e}"))?,
            "--seconds" => {
                cfg.seconds = value.parse().map_err(|e| format!("bad --seconds: {e}"))?;
                if cfg.seconds.is_nan() || cfg.seconds < 0.0 {
                    return Err("--seconds must be a non-negative number".to_string());
                }
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&cfg.workload.as_str()) {
        return Err(format!("unknown workload `{}`", cfg.workload));
    }
    if cfg.child.is_none() {
        cfg.world_seed = cfg.seed;
    }
    Ok(cfg)
}

/// A run: the workload's iterations, then the result line.
fn run(cfg: &Config) -> Result<String, String> {
    let cfg = &Config {
        world_seed: if cfg.smoke {
            cfg.seed
        } else {
            world::world_seed(cfg)?
        },
        ..cfg.clone()
    };
    eprintln!(
        "perfbench: seed {} measures the world of seed {}",
        cfg.seed, cfg.world_seed
    );
    let mut rec = Records::new(false);
    let workload = match cfg.workload.as_str() {
        "batch_report" => batch::batch_report,
        "out_of_core" => batch::out_of_core,
        "serve_mixed" => serve::serve_mixed,
        _ => batch::replicate_small,
    };
    workload(cfg, &mut rec)?;
    let Records {
        tracer,
        mut samples,
        tally,
    } = rec;
    for why in &tally.wrong {
        eprintln!("perfbench: {why}");
    }
    if !cfg.trace {
        let shown = END_TO_END.iter().map(|(name, _)| *name);
        for name in shown.chain(["machine.probe_s"]) {
            eprintln!("perfbench: {name} samples {:?}", samples.get(name));
        }
        return Ok(render_result(&tally, &samples, END_TO_END, false));
    }
    outcome::derived(&mut samples);
    samples.push(
        "fail_ratio",
        tally.failed as f64 / tally.attempted.max(1) as f64,
    );
    let path = PathBuf::from(format!(
        ".bench_out/spans-{}-{}.jsonl",
        cfg.workload, cfg.seed
    ));
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!("perfbench: spans written to {}", path.display());
    Ok(render_result(&tally, &samples, PER_LAYER, true))
}

/// One iteration of a run, in this process; prints its records.
fn iteration(cfg: &Config, index: u64) -> String {
    let mut rec = Records::new(cfg.trace);
    rec.tracer.set_run(index);
    let digest = match cfg.workload.as_str() {
        "batch_report" | "out_of_core" => batch::batch_iteration(cfg, index, &mut rec),
        "serve_mixed" => serve::serve_iteration(cfg, &mut rec),
        _ => batch::replicate_iteration(cfg, index, &mut rec),
    };
    child::emit(&rec, digest.as_deref())
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1).peekable();
    if args.peek().map(String::as_str) == Some("--probe") {
        // A speed probe, in a process of its own (see `speed`).
        return match args.nth(1).map(|n| n.parse()) {
            Some(Ok(size)) => {
                println!("{}", speed::probe_work(size));
                ExitCode::SUCCESS
            }
            _ => ExitCode::from(2),
        };
    }
    let cfg = match parse_args(args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(index) = cfg.child {
        print!("{}", iteration(&cfg, index));
        return ExitCode::SUCCESS;
    }
    match run(&cfg) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
