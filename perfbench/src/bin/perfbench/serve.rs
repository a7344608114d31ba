//! `serve_mixed`: the `taster serve` daemon ingests a scenario while
//! one open-loop client queries it over its Unix socket.
//!
//! The client keeps one connection open at a time and sends a seeded
//! `status`/`epoch`/`feeds` mix on a fixed schedule from the moment the
//! daemon has sealed its first epoch until the final report exists,
//! then ends the run with `shutdown`. Latency is timed from each
//! request's due time, so a stalled daemon also delays the requests
//! queued behind the stall.

use crate::batch::{record_total, scenario, FANOUT_WORKERS};
use crate::child::{digest, run_child};
use crate::measure::{peak_rss_mb, percentile, Clock};
use crate::outcome::Records;
use crate::speed::Speed;
use crate::world::splitmix;
use crate::Config;
use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;
use taster::core::Experiment;
use taster::serve::protocol::parse_reply;
use taster::serve::{ServeConfig, ServeCore, ServeError};

/// Client send rate, requests per second.
pub const RATE: f64 = 40.0;
/// Rows per epoch and per ingestion slice: the daemon's defaults,
/// passed explicitly so the in-process probe uses the same values.
const EPOCH_EVENTS: usize = 50_000;
const TICK_ROWS: usize = 8_192;
/// How long the client waits for one reply.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(2);
/// How long the daemon may take to seal its first epoch, and to exit
/// after `shutdown`.
const START_DEADLINE: Duration = Duration::from_secs(120);
const EXIT_DEADLINE: Duration = Duration::from_secs(30);
/// Where the daemon's socket and final report live, relative to the
/// checkout (a relative socket path stays inside the 108-byte limit).
const WORK_DIR: &str = ".bench_out/serve";

/// The `taster serve` process; killed and reaped if dropped early.
struct Daemon {
    child: Child,
}

impl Daemon {
    fn spawn(
        bin: &Path,
        scale: f64,
        seed: u64,
        socket: &Path,
        report: &Path,
    ) -> Result<Daemon, String> {
        let child = Command::new(bin)
            .arg("serve")
            .args(["--scale", &scale.to_string(), "--seed", &seed.to_string()])
            .args(["--threads", "1"])
            .args(["--epoch-events", &EPOCH_EVENTS.to_string()])
            .args(["--tick-rows", &TICK_ROWS.to_string()])
            .arg("--socket")
            .arg(socket)
            .arg("--final-report")
            .arg(report)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        Ok(Daemon { child })
    }

    /// Waits for the daemon to exit on its own; kills it after the
    /// deadline.
    fn wait(mut self, deadline: Duration) -> Result<(), String> {
        let start = Clock::start();
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if start.secs() > deadline.as_secs_f64() => {
                    return Err("daemon did not exit after shutdown".to_string())
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(2)),
                Err(e) => return Err(format!("wait for daemon: {e}")),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// How one query ended, by the reply's typed error code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    Ok,
    Shed,
    NotReady,
    Timeout,
    IoError,
}

/// Longest reply body the client reads.
const MAX_REPLY_BYTES: usize = 1 << 20;

/// Sends one request on a fresh connection and classifies the reply.
fn request(socket: &Path, command: &str) -> Outcome {
    let reply = (|| -> std::io::Result<Result<String, ServeError>> {
        let mut stream = UnixStream::connect(socket)?;
        stream.set_read_timeout(Some(CLIENT_TIMEOUT))?;
        stream.set_write_timeout(Some(CLIENT_TIMEOUT))?;
        stream.write_all(format!("{command}\n").as_bytes())?;
        let mut reader = BufReader::new(stream);
        let mut header = String::new();
        reader.by_ref().take(512).read_line(&mut header)?;
        let header = header.trim_end_matches('\n');
        let mut body = Vec::new();
        if let Some(len) = header.strip_prefix("OK ") {
            let len: usize = len.trim().parse().unwrap_or(0);
            if len > MAX_REPLY_BYTES {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "reply too long",
                ));
            }
            body.resize(len, 0);
            reader.read_exact(&mut body)?;
        }
        Ok(parse_reply(header, &body))
    })();
    match reply {
        Ok(Ok(_)) => Outcome::Ok,
        Ok(Err(e)) => classify(&e),
        Err(e)
            if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) =>
        {
            Outcome::Timeout
        }
        Err(_) => Outcome::IoError,
    }
}

/// Maps a typed error reply to the client's failure classes.
pub fn classify(err: &ServeError) -> Outcome {
    match err {
        ServeError::Overloaded(_) => Outcome::Shed,
        ServeError::NotReady(_) => Outcome::NotReady,
        ServeError::Timeout(_) => Outcome::Timeout,
        _ => Outcome::IoError,
    }
}

/// The seeded command mix: request `k` of a daemon run.
fn command(seed: u64, k: u64) -> &'static str {
    ["status", "epoch", "feeds"][(splitmix(seed, k + 1) % 3) as usize]
}

/// Client-side counts over a run.
#[derive(Debug, Default)]
struct Client {
    latencies_ms: Vec<f64>,
    counts: [u64; 5],
    lag_max_ms: f64,
}

impl Client {
    fn count(&self, o: Outcome) -> u64 {
        self.counts[o as usize]
    }
}

/// Builds the `taster` binary from the checkout and returns its path.
fn build_taster() -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--quiet",
            "--manifest-path",
            "Cargo.toml",
            "--bin",
            "taster",
        ])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cargo build: {e}"))?;
    if !status.success() {
        return Err(format!("cargo build of taster failed: {status}"));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    let bin = target.join("release").join("taster");
    if !bin.is_file() {
        return Err(format!("no taster binary at {}", bin.display()));
    }
    Ok(bin)
}

/// One daemon lifetime: spawn, wait for readiness, query under load
/// until the final report exists, shut down, verify.
fn daemon_run(
    cfg: &Config,
    bin: &Path,
    scale: f64,
    want: &str,
    client: &mut Client,
    rec: &mut Records,
) -> Result<(), String> {
    let dir = Path::new(WORK_DIR);
    std::fs::create_dir_all(dir).map_err(|e| format!("create {WORK_DIR}: {e}"))?;
    let socket = dir.join("s.sock");
    let report = dir.join("final.txt");
    for f in [&socket, &report] {
        match std::fs::remove_file(f) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                return Err(format!("remove {}: {e}", f.display()))
            }
            _ => {}
        }
    }

    let start = Clock::start();
    let root = rec.tracer.begin("iteration");
    let open = rec.tracer.begin("serve.setup");
    let daemon = Daemon::spawn(bin, scale, cfg.world_seed, &socket, &report)?;
    // Ready means the first epoch is sealed: before that the daemon
    // refuses `epoch` and `feeds` as `not-ready` by design.
    while request(&socket, "epoch") != Outcome::Ok {
        if start.secs() > START_DEADLINE.as_secs_f64() {
            return Err("daemon never sealed its first epoch".to_string());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    rec.tracer.end(open);
    let ready = Clock::start();
    let setup = start.secs();

    let open = rec.tracer.begin("serve.ingest");
    let (mut sent, mut failed) = (0u64, 0u64);
    let ingest = loop {
        let due = sent as f64 / RATE;
        let wait = due - ready.secs();
        if wait > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(wait));
        }
        if report.exists() {
            break ready.secs();
        }
        client.lag_max_ms = client.lag_max_ms.max((ready.secs() - due) * 1e3);
        let outcome = request(&socket, command(cfg.seed, sent));
        client.latencies_ms.push((ready.secs() - due) * 1e3);
        client.counts[outcome as usize] += 1;
        sent += 1;
        failed += u64::from(outcome != Outcome::Ok);
    };
    rec.tracer.end(open);
    let peak = peak_rss_mb(Some(daemon.child.id()));

    let open = rec.tracer.begin("serve.shutdown");
    let outcome = request(&socket, "shutdown");
    if outcome != Outcome::Ok {
        return Err(format!("shutdown was refused: {outcome:?}"));
    }
    daemon.wait(EXIT_DEADLINE)?;
    rec.tracer.end(open);
    let open = rec.tracer.begin("serve.verify");
    let text = std::fs::read_to_string(&report).map_err(|e| format!("read final report: {e}"))?;
    rec.tally.queries(sent, failed, &text, want);
    rec.tracer.end(open);
    rec.tracer.end(root);
    let total = start.secs();

    record_total(rec, total);
    rec.samples.push("setup_s", setup);
    rec.samples.push_opt("peak_rss_mb", peak);
    rec.samples.push("serve.ingest_s", ingest);
    Ok(())
}

/// The traced run's probe, in its own process: the serve engine driven
/// in-process the way the daemon loop drives it, every call timed.
/// Returns the digest of the final report as the daemon would write it.
pub fn serve_iteration(cfg: &Config, rec: &mut Records) -> Option<String> {
    let sc = scenario(cfg.scale(1.0), cfg.world_seed, 1);
    let par = sc.parallelism;
    let config = ServeConfig {
        epoch_events: EPOCH_EVENTS,
        checkpoint_dir: None,
    };
    let open = rec.tracer.begin("serve.new");
    let core = ServeCore::new(&sc, config);
    rec.samples.push("serve.new_s", rec.tracer.end(open));
    let mut core = match core {
        Ok(c) => c,
        Err(e) => {
            rec.tally.error("ServeCore::new", &e.to_string());
            return None;
        }
    };
    rec.samples
        .push("ecosystem.events", core.total_rows() as f64);
    let (mut advance, mut seal) = (Vec::new(), Vec::new());
    while !core.ingest_complete() {
        let boundary = core.next_epoch_target();
        let open = rec.tracer.begin("serve.advance");
        core.advance_rows(&par, TICK_ROWS);
        advance.push(rec.tracer.end(open) * 1e3);
        if core.rows_done() >= boundary {
            let open = rec.tracer.begin("serve.seal");
            let sealed = core.seal(&par).map(|_| ());
            seal.push(rec.tracer.end(open) * 1e3);
            if let Err(e) = sealed {
                rec.tally.error("ServeCore::seal", &e.to_string());
                return None;
            }
        }
    }
    rec.samples
        .push_opt("serve.advance_ms_p50", percentile(&advance, 50.0));
    rec.samples
        .push_opt("serve.advance_ms_p99", percentile(&advance, 99.0));
    rec.samples
        .push_opt("serve.seal_ms_p50", percentile(&seal, 50.0));
    rec.samples
        .push_opt("serve.seal_ms_p99", percentile(&seal, 99.0));
    rec.samples.push("serve.epochs", seal.len() as f64);
    let open = rec.tracer.begin("serve.final_report");
    let text = core.final_report(&par).map(|t| format!("{t}\n"));
    rec.samples
        .push("serve.final_report_s", rec.tracer.end(open));
    match text {
        Ok(text) => Some(digest(&text)),
        Err(e) => {
            rec.tally.error("ServeCore::final_report", &e.to_string());
            None
        }
    }
}

/// `serve_mixed`: scale 1.0 ingested by a one-worker daemon under a
/// fixed-rate query load; its final report must equal the batch report.
pub fn serve_mixed(cfg: &Config, rec: &mut Records) -> Result<(), String> {
    let bin = build_taster()?;
    let scale = cfg.scale(1.0);
    // `taster report` prints the report with a trailing newline, and
    // the daemon's report file matches that output byte for byte.
    // Untimed, so it may use every worker.
    let want = Experiment::try_run(&scenario(scale, cfg.world_seed, FANOUT_WORKERS))
        .map_err(|e| format!("batch reference: {e}"))?
        .render_report()
        + "\n";
    let mut client = Client::default();
    let mut speed = Speed::start(cfg.smoke, cfg.trace)?;
    let start = Clock::start();
    let mut i = 0u64;
    // A daemon run takes ~8 s, so `--seconds` alone would give a median
    // of 2 or 3; five steady the median, and give a traced run the
    // 1,000 queries a p99 needs (~240 per daemon run at 40 req/s).
    let min_runs = 5;
    while i < min_runs || start.secs() < cfg.seconds {
        rec.tracer.set_on(cfg.trace && i.is_multiple_of(2));
        rec.tracer.set_run(i);
        let mark = speed.mark(rec);
        daemon_run(cfg, &bin, scale, &want, &mut client, rec)?;
        speed.settle(rec, mark)?;
        i += 1;
    }
    rec.tracer.set_on(false);
    for v in rec.tracer.self_secs_per_run("iteration") {
        rec.samples.push("trace.remainder_s", v);
    }
    if cfg.trace {
        let got = run_child(cfg, i, true, rec)?;
        if let Some(got) = got {
            rec.tally
                .check_output("ServeCore::final_report", &got, &digest(&want));
        }
    }
    let sent = client.latencies_ms.len() as f64;
    let ok = client.count(Outcome::Ok) as f64;
    rec.samples.push_opt(
        "client.query_p50_ms",
        percentile(&client.latencies_ms, 50.0),
    );
    rec.samples.push_opt(
        "client.query_p99_ms",
        percentile(&client.latencies_ms, 99.0),
    );
    rec.samples.push("client.sent", sent);
    rec.samples.push("client.ok", ok);
    rec.samples
        .push("client.shed", client.count(Outcome::Shed) as f64);
    rec.samples
        .push("client.not_ready", client.count(Outcome::NotReady) as f64);
    rec.samples
        .push("client.timeouts", client.count(Outcome::Timeout) as f64);
    rec.samples
        .push("client.io_errors", client.count(Outcome::IoError) as f64);
    rec.samples.push("client.lag_ms_max", client.lag_max_ms);
    Ok(())
}
