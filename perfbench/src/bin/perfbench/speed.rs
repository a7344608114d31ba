//! Wall times at a reference machine speed.
//!
//! The benchmark was sized on a 2-vCPU VM whose speed drifts with its
//! neighbours' load: back-to-back `out_of_core` iterations slowed from
//! 1.3 s to 2.9 s and back over a few minutes, and a fixed piece of
//! plain computation slowed with them (0.16 to 0.25 s). Medians over a
//! run cannot remove a drift that lasts longer than the run.
//!
//! So the run times a fixed probe, code of the benchmark's own that
//! never calls the program, between every two iterations, and scales
//! each untraced iteration's wall times by [`REFERENCE_PROBE_S`] over
//! the mean of the probes just before and just after it. The result
//! reads as the iteration's wall time on a machine where the probe
//! takes [`REFERENCE_PROBE_S`]: a change to the program moves it as
//! much as it moves the wall time, a change in the machine's speed
//! moves it much less. Over ten seeds per workload on the sizing VM,
//! the quartile spread of `total_s` over its median was 3.2% to 13.6%
//! against 10.6% to 19.4% for plain wall time in the same runs (see
//! the package's README). Traced runs are probed but not scaled, so
//! their layer times still add up to their wall time.

use crate::measure::Clock;
use crate::outcome::Records;
use crate::world::splitmix;
// lint:allow(std-hash) -- the probe's map hashes with its own fixed `MulHasher`, not RandomState, and must not use the program's FxHashMap, or it would measure changes to it
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::hint::black_box;
use std::process::{Command, Stdio};

/// Probe time on the sizing VM (Intel Xeon, 2.1 GHz, 2 vCPUs) at its
/// usual speed. A run on that machine at that speed reports plain
/// wall times.
pub const REFERENCE_PROBE_S: f64 = 0.2;

/// The wall-time metrics a run scales; the iteration records them
/// under these names.
pub const SCALED: &[&str] = &["total_s", "setup_s"];

/// Distinct keys of the probe's hash map: about 5 MB of entries.
const PROBE_KEYS: u64 = 300_000;

/// A multiply-rotate hasher, the kind the program's hash maps use.
#[derive(Default)]
struct MulHasher(u64);

impl Hasher for MulHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, i: u64) {
        self.0 = (self.0.rotate_left(5) ^ i).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

/// The probe: a fixed, program-like piece of work of `size` units,
/// seeded random draws counted into a hash map and then sorted. Returns
/// its wall time in seconds. It runs in a fresh process, as each
/// iteration does, so that it allocates and faults in its tables the
/// way the program does, whatever the run's own heap holds. Timed
/// against the program's own layers on the sizing VM, it tracked their
/// slowdowns better than pure arithmetic, cache-bound or memory-bound
/// loops did.
pub fn probe_work(size: u64) -> f64 {
    let start = Clock::start();
    let mut counts: HashMap<u64, u32, BuildHasherDefault<MulHasher>> = HashMap::default();
    for k in 0..size {
        *counts.entry(splitmix(1, k) % PROBE_KEYS).or_insert(0) += 1;
    }
    let mut keys: Vec<u64> = (0..size * 3 / 2).map(|k| splitmix(2, k)).collect();
    keys.sort_unstable();
    black_box((counts.len(), keys[keys.len() / 2]));
    start.secs()
}

/// Runs [`probe_work`] in a fresh copy of this binary.
fn probe(size: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate perfbench: {e}"))?;
    let out = Command::new(exe)
        .args(["--probe", &size.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn probe: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    match text.trim().parse() {
        Ok(secs) if out.status.success() => Ok(secs),
        _ => Err(format!(
            "probe exited with {} and printed `{}`",
            out.status,
            text.trim()
        )),
    }
}

/// Units of work per probe: about 0.2 s on the sizing VM.
const PROBE_SIZE: u64 = 2_000_000;

/// Units of work per probe in the benchmark's own tests.
const SMOKE_PROBE_SIZE: u64 = 20_000;

/// Brackets a run's iterations with probes and scales their wall times.
pub struct Speed {
    size: u64,
    /// The probe that ended the previous iteration.
    last: f64,
    /// Whether iterations are scaled (untraced runs) or only probed.
    scale: bool,
}

/// Where one iteration's samples start.
pub struct Mark(Vec<usize>);

impl Speed {
    /// Times the probe once. Traced runs probe but do not scale: their
    /// layer times must add up to their wall time.
    pub fn start(smoke: bool, trace: bool) -> Result<Speed, String> {
        let size = if smoke { SMOKE_PROBE_SIZE } else { PROBE_SIZE };
        Ok(Speed {
            size,
            last: probe(size)?,
            scale: !trace,
        })
    }

    /// Marks where the next iteration's samples start.
    pub fn mark(&self, rec: &Records) -> Mark {
        Mark(SCALED.iter().map(|n| rec.samples.get(n).len()).collect())
    }

    /// Probes after an iteration and scales the wall times it recorded
    /// since `mark`. Records the probe time as `machine.probe_s`.
    pub fn settle(&mut self, rec: &mut Records, mark: Mark) -> Result<(), String> {
        let now = probe(self.size)?;
        self.record(rec, mark, now);
        Ok(())
    }

    /// Scales the samples since `mark` by the probes that bracket them,
    /// the last one `now` seconds long.
    fn record(&mut self, rec: &mut Records, mark: Mark, now: f64) {
        let probe = (self.last + now) / 2.0;
        self.last = now;
        rec.samples.push("machine.probe_s", probe);
        if self.scale {
            for (name, from) in SCALED.iter().zip(mark.0) {
                rec.samples
                    .scale_since(name, from, REFERENCE_PROBE_S / probe);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn speed(scale: bool) -> Speed {
        Speed {
            size: 0,
            last: 0.1,
            scale,
        }
    }

    #[test]
    fn an_iteration_is_scaled_by_the_probes_around_it() {
        let mut speed = speed(true);
        let mut rec = Records::new(false);
        rec.samples.push("total_s", 1.0);
        let mark = speed.mark(&rec);
        rec.samples.push("total_s", 1.0);
        rec.samples.push("setup_s", 0.5);
        rec.samples.push("peak_rss_mb", 1.0);
        speed.record(&mut rec, mark, 0.3);
        let factor = REFERENCE_PROBE_S / 0.2;
        assert_eq!(rec.samples.get("total_s"), &[1.0, factor]);
        assert_eq!(rec.samples.get("setup_s"), &[0.5 * factor]);
        assert_eq!(rec.samples.get("peak_rss_mb"), &[1.0]);
        assert_eq!(rec.samples.get("machine.probe_s"), &[0.2]);
        assert_eq!(speed.last, 0.3);
    }

    #[test]
    fn traced_runs_are_probed_but_not_scaled() {
        let mut speed = speed(false);
        let mut rec = Records::new(true);
        let mark = speed.mark(&rec);
        rec.samples.push("total_s", 1.0);
        speed.record(&mut rec, mark, 0.1);
        assert_eq!(rec.samples.get("total_s"), &[1.0]);
        assert_eq!(rec.samples.get("machine.probe_s"), &[0.1]);
    }

    #[test]
    fn the_probe_does_measurable_work() {
        assert!(probe_work(20_000) > 0.0);
    }
}
