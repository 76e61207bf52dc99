//! The gmmu benchmark: end-to-end host throughput of the simulator on
//! four workloads, and a per-layer ledger from a separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1] [--emit-digests]
//! ```
//!
//! Every metric is printed by name with its unit; the last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. The process exits non-zero when a check
//! fails. See README.md for the workloads, the metrics and what each
//! layer metric is predicted to move.

mod check;
mod ledger;
mod stats;
mod workloads;

#[cfg(test)]
mod tests;

use check::Checker;
use stats::{median, Metric};
use std::time::{Duration, Instant};
use workloads::{Name, SetupTimes};

/// Passes measured at least, however long they take.
const MIN_PASSES: usize = 3;

/// Shortest run of back-to-back set-ups timed as one `setup_s` sample.
/// One set-up of a few milliseconds reads up to twice as slow as the
/// next (5-12 ms on `divergent`); a burst averages over that.
const SETUP_BURST: Duration = Duration::from_millis(40);

struct Args {
    workloads: Vec<Name>,
    seed: u64,
    seconds: f64,
    trace: bool,
    emit_digests: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "error: {msg}\nusage: perfbench [--workload divergent|streaming-tcws|\
         multitenant-observed|figure-sweep|all] [--seed N] [--seconds S] [--trace 0|1] \
         [--emit-digests]"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        workloads: Name::ALL.to_vec(),
        seed: check::DEFAULT_SEED,
        seconds: 55.0,
        trace: false,
        emit_digests: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--emit-digests" {
            args.emit_digests = true;
            continue;
        }
        let Some(value) = it.next() else {
            usage(&format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" if value == "all" => args.workloads = Name::ALL.to_vec(),
            "--workload" => {
                let name = Name::parse(&value)
                    .unwrap_or_else(|| usage(&format!("unknown workload {value}")));
                args.workloads = vec![name];
            }
            "--seed" => {
                args.seed = value
                    .parse()
                    .unwrap_or_else(|_| usage("--seed takes an unsigned integer"))
            }
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .unwrap_or_else(|| usage("--seconds takes a positive number"))
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    args
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The untraced run: end-to-end metrics. Pass timings are time-averages
/// over every pass (total time over total work): host speed on a shared
/// machine switches between phases lasting seconds, and a median would
/// jump to whichever phase covered most of the run. For the same reason
/// a burst of set-ups is timed after every pass, and `setup_s` is the
/// median of the bursts' means spread over the whole run.
fn end_to_end(name: Name, seed: u64, budget: Duration, checker: &mut Checker) -> Vec<Metric> {
    let (mut inputs, first) = workloads::setup(name, seed);
    if name == Name::FigureSweep {
        // The sweep's passes build their own workloads through the
        // runner; keeping the set-up's copies would only raise the peak.
        inputs.workloads = Vec::new();
    }
    let mut setup = vec![first];
    let (mut passes, mut wall, mut cycles, mut insns) = (0u32, 0.0, 0u64, 0u64);
    let mut sims = 0;
    let mut peak_rss = f64::NAN;
    let started = Instant::now();
    while (passes as usize) < MIN_PASSES || started.elapsed() < budget {
        let (pass_wall, stats, output) = inputs.pass();
        checker.check(&stats, Some(output));
        passes += 1;
        wall += pass_wall;
        cycles += stats.iter().map(|s| s.cycles).sum::<u64>();
        insns += stats.iter().map(|s| s.instructions).sum::<u64>();
        sims = stats.len();
        if passes == 1 {
            // Before any extra set-up, whose inputs would coexist with
            // the pass's.
            peak_rss = peak_rss_mb();
        }
        setup.push(setup_burst(name, seed));
    }
    eprintln!(
        "[{}] seed {seed}: {sims} sims per pass, {passes} passes; simulated cycles {}, \
         IPC {:.4} (exact, checked)",
        name.as_str(),
        cycles / u64::from(passes),
        insns as f64 / cycles as f64
    );
    let setup_s: Vec<f64> = setup.iter().map(SetupTimes::total).collect();
    vec![
        Metric::new("pass_wall_s", wall / f64::from(passes), "s"),
        Metric::new("sim_kcycles_per_s", cycles as f64 / 1e3 / wall, "kcycle/s"),
        Metric::new("warp_insns_per_s", insns as f64 / wall, "insn/s"),
        Metric::new("setup_s", median(&setup_s), "s"),
        Metric::new("peak_rss_mb", peak_rss, "MiB"),
        Metric::new(
            "ok_frac",
            1.0 - checker.failed as f64 / checker.attempted.max(1) as f64,
            "fraction",
        ),
    ]
}

/// The mean of back-to-back set-ups lasting at least [`SETUP_BURST`].
fn setup_burst(name: Name, seed: u64) -> SetupTimes {
    let started = Instant::now();
    let (mut n, mut build_s, mut gpu_new_s) = (0.0, 0.0, 0.0);
    while n == 0.0 || started.elapsed() < SETUP_BURST {
        let t = workloads::setup(name, seed).1;
        build_s += t.build_s;
        gpu_new_s += t.gpu_new_s;
        n += 1.0;
    }
    SetupTimes {
        build_s: build_s / n,
        gpu_new_s: gpu_new_s / n,
    }
}

/// Prints the digest lines of one pass at `seed` (for `digests.txt`).
fn emit_digests(name: Name, seed: u64) {
    let (inputs, _) = workloads::setup(name, seed);
    let (_, stats, output) = inputs.pass();
    let sims: Vec<u64> = stats.iter().map(check::digest).collect();
    print!("{}", check::emit(name.as_str(), seed, &sims, output));
}

fn main() {
    let args = parse_args();
    if args.emit_digests {
        for &name in &args.workloads {
            emit_digests(name, args.seed);
        }
        return;
    }
    let budget = Duration::from_secs_f64(args.seconds);
    let prefix = args.workloads.len() > 1;
    let (mut attempted, mut failed, mut correct) = (0, 0, true);
    let mut all = Vec::new();
    for &name in &args.workloads {
        let mut checker = Checker::new(name.as_str(), args.seed);
        let metrics = if args.trace {
            ledger::traced(name, args.seed, budget, &mut checker)
        } else {
            end_to_end(name, args.seed, budget, &mut checker)
        };
        let against = if checker.has_stored() {
            "stored digests"
        } else {
            "the first pass"
        };
        println!(
            "{}: {} sims checked against {against}, {} failed (failed_frac {})",
            name.as_str(),
            checker.attempted,
            checker.failed,
            checker.failed as f64 / checker.attempted.max(1) as f64
        );
        for m in &metrics {
            println!(
                "{:<22} {:<40} {:>18} {}",
                name.as_str(),
                m.name,
                m.value,
                m.unit
            );
        }
        attempted += checker.attempted;
        failed += checker.failed;
        correct &= checker.correct();
        all.extend(metrics.into_iter().map(|m| {
            if prefix {
                Metric {
                    name: format!("{}.{}", name.as_str(), m.name),
                    ..m
                }
            } else {
                m
            }
        }));
    }
    println!("{}", stats::result_json(correct, attempted, failed, &all));
    if !correct {
        std::process::exit(1);
    }
}
