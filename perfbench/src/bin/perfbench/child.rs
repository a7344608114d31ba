//! One iteration per process.
//!
//! A process that has already run an iteration keeps its allocator's
//! freed pages, so its next iteration page-faults less and its peak
//! resident set creeps up. Each measured iteration therefore runs in a
//! fresh copy of this binary (`--child <index>`), as a user's
//! `taster report` would, and hands its samples, spans and checks back
//! on standard output, one record per line:
//!
//! ```text
//! sample <metric> <value>
//! span <id> <parent id or -> <name> <start s> <end s>
//! digest <output digest>
//! tally <attempted> <failed>
//! wrong <message>
//! ```

use crate::measure::Span;
use crate::outcome::{Records, Samples, Tally};
use crate::Config;
use std::fmt::Write as _;
use std::process::{Command, Stdio};

/// What one iteration hands back.
#[derive(Debug, Default)]
pub struct Iteration {
    /// Metric samples the iteration measured.
    pub samples: Samples,
    /// Spans it recorded (traced iterations only).
    pub spans: Vec<Span>,
    /// Checks it made itself.
    pub tally: Tally,
    /// Digest of its output, for the spawning run to compare.
    pub digest: Option<String>,
}

/// Length and FNV-1a hash of an output: equal digests mean equal bytes
/// for every practical purpose, and a digest is short enough to pass
/// between processes.
pub fn digest(text: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{}:{h:016x}", text.len())
}

/// Renders an iteration's records.
pub fn emit(rec: &Records, digest: Option<&str>) -> String {
    let mut out = String::new();
    for (name, values) in rec.samples.iter() {
        for v in values {
            let _ = writeln!(out, "sample {name} {v}");
        }
    }
    for s in rec.tracer.spans() {
        let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "span {} {parent} {} {} {}",
            s.id, s.name, s.start, s.end
        );
    }
    if let Some(d) = digest {
        let _ = writeln!(out, "digest {d}");
    }
    let _ = writeln!(out, "tally {} {}", rec.tally.attempted, rec.tally.failed);
    for w in &rec.tally.wrong {
        let _ = writeln!(out, "wrong {w}");
    }
    out
}

/// Parses the records [`emit`] wrote.
pub fn parse(text: &str) -> Result<Iteration, String> {
    let mut it = Iteration::default();
    for line in text.lines() {
        let bad = || format!("bad iteration record `{line}`");
        let (kind, rest) = line.split_once(' ').ok_or_else(bad)?;
        let fields: Vec<&str> = rest.split(' ').collect();
        let num = |i: usize| -> Result<f64, String> {
            fields.get(i).and_then(|f| f.parse().ok()).ok_or_else(bad)
        };
        match kind {
            "sample" if fields.len() == 2 => it.samples.push(fields[0], num(1)?),
            "span" if fields.len() == 5 => it.spans.push(Span {
                id: fields[0].parse().map_err(|_| bad())?,
                parent: fields[1].parse().ok(),
                run: 0,
                name: fields[2].to_string(),
                start: num(3)?,
                end: num(4)?,
            }),
            "digest" => it.digest = Some(rest.to_string()),
            "tally" if fields.len() == 2 => {
                it.tally.attempted = fields[0].parse().map_err(|_| bad())?;
                it.tally.failed = fields[1].parse().map_err(|_| bad())?;
            }
            "wrong" => it.tally.wrong.push(rest.to_string()),
            _ => return Err(bad()),
        }
    }
    Ok(it)
}

/// Runs iteration `index` of the configured workload in a fresh process
/// and folds what it hands back into the run's records. Returns the
/// iteration's output digest.
pub fn run_child(
    cfg: &Config,
    index: u64,
    traced: bool,
    rec: &mut Records,
) -> Result<Option<String>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate perfbench: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", &cfg.workload])
        .args(["--seed", &cfg.seed.to_string()])
        .args(["--world-seed", &cfg.world_seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .args(["--child", &index.to_string()]);
    if cfg.smoke {
        cmd.arg("--smoke");
    }
    if let Some(b) = cfg.max_mem_bytes {
        cmd.args(["--max-mem-bytes", &b.to_string()]);
    }
    let started = rec.tracer.now();
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn iteration {index}: {e}"))?;
    if !out.status.success() {
        return Err(format!("iteration {index} exited with {}", out.status));
    }
    let text = String::from_utf8(out.stdout)
        .map_err(|_| format!("iteration {index}: output is not UTF-8"))?;
    let it = parse(&text)?;
    for (name, values) in it.samples.iter() {
        for &v in values {
            rec.samples.push(name, v);
        }
    }
    rec.tracer.absorb(it.spans, index, started);
    rec.tally.attempted += it.tally.attempted;
    rec.tally.failed += it.tally.failed;
    rec.tally.wrong.extend(it.tally.wrong);
    Ok(it.digest)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_round_trip() {
        let mut rec = Records::new(true);
        rec.samples.push("total_s", 1.25);
        rec.samples.push("total_s", 0.1 + 0.2);
        let root = rec.tracer.begin("iteration");
        let child = rec.tracer.begin("feeds.collect");
        rec.tracer.end(child);
        rec.tracer.end(root);
        rec.tally.check_output("x", "a", "b");
        let text = emit(&rec, Some(&digest("report")));
        let it = parse(&text).unwrap();
        assert_eq!(it.samples.get("total_s"), &[1.25, 0.1 + 0.2]);
        assert_eq!(it.spans.len(), 2);
        assert_eq!(it.spans[1].parent, Some(0));
        assert_eq!(it.digest, Some(digest("report")));
        assert_eq!(it.tally, rec.tally);
    }

    #[test]
    fn digest_tells_altered_bytes_apart() {
        assert_eq!(digest("report"), digest("report"));
        assert_ne!(digest("report"), digest("Report"));
        assert_ne!(digest("report"), digest("report\n"));
    }
}
