//! From the workload seed to the world a run measures.
//!
//! The simulator's event count depends heavily on the seed: over 24
//! seeds at scale 1.0 it spans 3.6M to 5.8M events (quartiles 18% of
//! the median apart), and at scale 0.3 the quartiles are 27% apart.
//! Ingest, out-of-core replay and memory all grow with it, so runs on
//! different seeds would mostly measure different input sizes. A run
//! therefore derives candidate world seeds from its seed and measures
//! the first whose world has, within 4% (`out_of_core`: 2%), as many
//! events as the default seed's world: the seed picks the world's content, not its size.

use crate::batch::{replicate_options, scenario};
use crate::Config;
use taster::core::replicate::replicate_seed;
use taster::ecosystem::GroundTruth;
use taster::sim::Parallelism;

/// The paper's collection start, the seed every `taster` command
/// defaults to.
pub const DEFAULT_SEED: u64 = 20_100_801;

/// How far a world's event count may be from the default world's.
/// Sizing a scale-1.0 candidate takes about a second, so the scale-1.0
/// workloads accept 4%. `out_of_core` sizes its scale-0.3 candidates
/// in a fraction of that and takes 2%: its time tracks the event count
/// closely, and at 4% the worlds' sizes alone spread its `total_s` by
/// about as much as the machine did.
fn tolerance(cfg: &Config) -> f64 {
    if cfg.workload == "out_of_core" {
        0.02
    } else {
        0.04
    }
}

/// Candidates tried before giving up.
const MAX_CANDIDATES: u64 = 256;

/// Events the workload processes in the world `seed` gives: its ground
/// truth's, or for `replicate_small` all replicate worlds' together.
fn events(cfg: &Config, seed: u64) -> Result<u64, String> {
    let count = |scale: f64, seed: u64| -> Result<u64, String> {
        let sc = scenario(scale, seed, 1);
        GroundTruth::generate(&sc.ecosystem, seed)
            .map(|t| t.log.len as u64)
            .map_err(|e| format!("ground truth for seed {seed}: {e}"))
    };
    match cfg.workload.as_str() {
        "out_of_core" => count(cfg.scale(0.3), seed),
        "replicate_small" => (0..replicate_options(cfg).seeds as u64)
            .map(|i| count(cfg.scale(0.1), replicate_seed(seed, i)))
            .sum(),
        _ => count(cfg.scale(1.0), seed),
    }
}

/// The `k`-th output of the splitmix64 stream that starts at `seed`.
pub fn splitmix(seed: u64, k: u64) -> u64 {
    let mut z = seed.wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `k`-th candidate world seed for `seed` (the seed itself first).
fn candidate(seed: u64, k: u64) -> u64 {
    if k == 0 {
        seed
    } else {
        splitmix(seed, k)
    }
}

/// The world seed a run on `cfg.seed` measures. Candidates are sized
/// two at a time; the default seed's own size is measured alongside the
/// first.
pub fn world_seed(cfg: &Config) -> Result<u64, String> {
    let par = Parallelism::fixed(2);
    let sizes = |seeds: &[u64]| -> Result<Vec<u64>, String> {
        par.par_map(seeds.to_vec(), |s| events(cfg, s))
            .into_iter()
            .collect()
    };
    let first = sizes(&[DEFAULT_SEED, cfg.seed])?;
    let target = first[0] as f64;
    let tolerance = tolerance(cfg);
    let fits = |n: u64| (n as f64 / target - 1.0).abs() <= tolerance;
    if fits(first[1]) {
        return Ok(cfg.seed);
    }
    for k in (1..MAX_CANDIDATES).step_by(2) {
        let pair = [candidate(cfg.seed, k), candidate(cfg.seed, k + 1)];
        for (s, n) in pair.into_iter().zip(sizes(&pair)?) {
            if fits(n) {
                return Ok(s);
            }
        }
    }
    Err(format!(
        "no world within {tolerance} of {target} events among {MAX_CANDIDATES} candidates for seed {}",
        cfg.seed
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn candidates_start_at_the_seed_and_differ() {
        assert_eq!(candidate(7, 0), 7);
        let c: Vec<u64> = (0..50).map(|k| candidate(7, k)).collect();
        let mut d = c.clone();
        d.sort_unstable();
        d.dedup();
        assert_eq!(c.len(), d.len());
    }
}
