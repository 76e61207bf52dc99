//! The correctness check: digests of every simulated result, compared
//! against the digests stored with the benchmark (for the default and
//! one held-out seed) and across the passes of one run.

use gmmu::prelude::RunStats;
use gmmu_sim::ckpt::fnv1a64;
use std::fmt::Write as _;

/// Digests stored with the benchmark: `<workload> <seed> <key> <hex>`
/// lines, where `<key>` is a sim index in job order or `output` (the
/// digest of the tables or snapshots a pass prints).
const STORED: &str = include_str!("../digests.txt");

/// The seed a run uses when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 7;

/// A digest of every deterministic field of `s`: everything except
/// `wall_s`, the only field allowed to differ between runs.
pub fn digest(s: &RunStats) -> u64 {
    let RunStats {
        cycles,
        completed,
        instructions,
        mem_instructions,
        idle_cycles,
        stall_breakdown,
        live_cycles,
        page_divergence,
        l1_miss_latency,
        tlb_miss_latency,
        tlb_accesses,
        tlb_hits,
        l1_accesses,
        l1_hits,
        walk_refs_issued,
        walk_refs_naive,
        walks,
        walk_l2_hit_rate,
        dram_requests,
        replays,
        dwarps_formed,
        blocks_done,
        faults,
        shootdowns,
        squashed_walks,
        watchdog_fired,
        tenants,
        wall_s: _,
    } = s;
    let mut text = String::new();
    let _ = write!(
        text,
        "{cycles}|{completed}|{instructions}|{mem_instructions}|{idle_cycles}|\
         {stall_breakdown:?}|{live_cycles}|{page_divergence:?}|{l1_miss_latency:?}|\
         {tlb_miss_latency:?}|{tlb_accesses}|{tlb_hits}|{l1_accesses}|{l1_hits}|\
         {walk_refs_issued}|{walk_refs_naive}|{walks}|{:016x}|{dram_requests}|\
         {replays}|{dwarps_formed}|{blocks_done}|{faults}|{shootdowns}|\
         {squashed_walks}|{watchdog_fired}|{tenants:?}",
        walk_l2_hit_rate.to_bits()
    );
    fnv1a64(text.as_bytes())
}

/// The digests stored for `workload` at `seed`: per-sim digests in job
/// order and the output digest, or `None` when the seed has none.
pub fn stored(workload: &str, seed: u64) -> Option<(Vec<u64>, u64)> {
    let mut sims = Vec::new();
    let mut output = None;
    for line in STORED.lines().filter(|l| !l.starts_with('#')) {
        let f: Vec<&str> = line.split_whitespace().collect();
        let [w, s, key, hex] = f[..] else { continue };
        if w != workload || s.parse::<u64>().ok() != Some(seed) {
            continue;
        }
        let value = u64::from_str_radix(hex, 16).expect("stored digests are hex");
        match key {
            "output" => output = Some(value),
            i => {
                let i: usize = i.parse().expect("sim keys are indices");
                assert_eq!(i, sims.len(), "stored sims must be listed in order");
                sims.push(value);
            }
        }
    }
    output.map(|o| (sims, o))
}

/// The stored-digest lines for one pass's results.
pub fn emit(workload: &str, seed: u64, sims: &[u64], output: u64) -> String {
    let mut text = String::new();
    for (i, d) in sims.iter().enumerate() {
        let _ = writeln!(text, "{workload} {seed} {i} {d:016x}");
    }
    let _ = writeln!(text, "{workload} {seed} output {output:016x}");
    text
}

/// Checks passes against a reference: the stored digests when the seed
/// has them, otherwise the run's first pass.
pub struct Checker {
    reference: Option<(Vec<u64>, Option<u64>)>,
    stored: bool,
    /// Sims checked.
    pub attempted: u64,
    /// Sims that failed: did not complete, tripped the watchdog, or
    /// digested differently from the reference.
    pub failed: u64,
    /// Passes whose printed output digested differently.
    pub output_mismatches: u64,
}

impl Checker {
    pub fn new(workload: &str, seed: u64) -> Self {
        let reference = stored(workload, seed).map(|(sims, out)| (sims, Some(out)));
        Self {
            stored: reference.is_some(),
            reference,
            attempted: 0,
            failed: 0,
            output_mismatches: 0,
        }
    }

    /// Whether the reference came from the stored digests.
    pub fn has_stored(&self) -> bool {
        self.stored
    }

    /// Checks one pass's sims, plus its output digest when the pass
    /// printed one (`None` for passes that run the sims another way).
    pub fn check(&mut self, stats: &[RunStats], output: Option<u64>) {
        let digests: Vec<u64> = stats.iter().map(digest).collect();
        let reference = self
            .reference
            .get_or_insert_with(|| (digests.clone(), output));
        if reference.1.is_none() {
            reference.1 = output;
        }
        for (i, (s, d)) in stats.iter().zip(&digests).enumerate() {
            self.attempted += 1;
            let expected = reference.0.get(i);
            if !s.completed || s.watchdog_fired || expected != Some(d) {
                self.failed += 1;
                eprintln!(
                    "check: sim {i} failed (completed {}, watchdog {}, digest {d:016x}, \
                     expected {expected:016x?})",
                    s.completed, s.watchdog_fired
                );
            }
        }
        if reference.0.len() != digests.len() {
            self.failed += reference.0.len().abs_diff(digests.len()) as u64;
        }
        if output.is_some_and(|o| Some(o) != reference.1) {
            self.output_mismatches += 1;
            eprintln!("check: the pass printed different output ({output:016x?})");
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.output_mismatches == 0
    }
}
