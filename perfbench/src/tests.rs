//! Self-tests of the benchmark. Run with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use crate::check::{self, Checker, DEFAULT_SEED};
use crate::ledger::{self, group_stream};
use crate::stats::{valid_name, Metric};
use crate::workloads::{self, Name};
use gmmu::prelude::Scale;
use gmmu_vm::VAddr;
use std::time::Duration;

/// The `name`s listed in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json is at the repository root");
    let start = json
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &json[start..start + json[start..].find(']').expect("sections are arrays")];
    body.split("\"name\"")
        .skip(1)
        .map(|rest| {
            let value = rest.split('"').nth(1).expect("a name is a string");
            value.to_string()
        })
        .collect()
}

fn names(metrics: &[Metric]) -> Vec<String> {
    metrics.iter().map(|m| m.name.clone()).collect()
}

fn value(metrics: &[Metric], name: &str) -> f64 {
    metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("no metric {name}"))
        .value
}

#[test]
fn metric_name_grammar() {
    for ok in [
        "pass_wall_s",
        "tlb.hit_rate",
        "simt.stall_l1_mshr_frac",
        "9-x",
        "a",
    ] {
        assert!(valid_name(ok), "{ok} should be valid");
    }
    let long = "a".repeat(65);
    for bad in ["", ".x", "_x", "a b", "a/b", "mt:x", long.as_str()] {
        assert!(!valid_name(bad), "{bad:?} should be invalid");
    }
}

#[test]
fn workloads_in_benchmark_json_are_the_benchmarks() {
    let listed = declared("workloads");
    assert!(!listed.is_empty());
    for name in listed {
        assert!(Name::parse(&name).is_some(), "unknown workload {name}");
    }
}

#[test]
fn untraced_run_reports_exactly_the_end_to_end_metrics() {
    let mut checker = Checker::new("divergent", DEFAULT_SEED);
    let m = crate::end_to_end(Name::Divergent, DEFAULT_SEED, Duration::ZERO, &mut checker);
    assert!(checker.has_stored() && checker.correct());
    assert_eq!(names(&m), declared("end_to_end"));
    assert!(m.iter().all(|m| valid_name(&m.name) && m.value > 0.0));
}

#[test]
fn traced_run_reports_the_per_layer_metrics_and_attribution_adds_up() {
    let mut checker = Checker::new("streaming-tcws", DEFAULT_SEED);
    let m = ledger::traced(
        Name::StreamingTcws,
        DEFAULT_SEED,
        Duration::ZERO,
        &mut checker,
    );
    assert!(
        checker.has_stored() && checker.correct(),
        "tracing changed the simulation"
    );
    assert_eq!(names(&m), declared("per_layer"));
    assert!(m.iter().all(|m| valid_name(&m.name) && m.value.is_finite()));
    let parts: f64 = [
        "workloads.ns_per_kcycle",
        "coalesce.ns_per_kcycle",
        "mmu.ns_per_kcycle",
        "l1.ns_per_kcycle",
        "mem.ns_per_kcycle",
        "policy.ns_per_kcycle",
        "gpu.unattributed_ns_per_kcycle",
    ]
    .iter()
    .map(|n| value(&m, n))
    .sum();
    let total = value(&m, "gpu.total_ns_per_kcycle");
    assert!((parts - total).abs() <= 1e-9 * total, "{parts} != {total}");
    assert!(
        value(&m, "policy.ns_per_kcycle") > 0.0,
        "TCWS hooks cost something"
    );
}

#[test]
fn digests_are_stable_across_two_in_process_runs() {
    let digests = |_: u32| {
        let (inputs, _) = workloads::setup(Name::MultitenantObserved, DEFAULT_SEED);
        let (_, stats, output) = inputs.pass();
        (stats.iter().map(check::digest).collect::<Vec<_>>(), output)
    };
    let first = digests(0);
    assert_eq!(first, digests(1));
    assert_eq!(
        Some(first),
        check::stored("multitenant-observed", DEFAULT_SEED)
    );
}

#[test]
fn the_tenant_mix_is_the_scenario_draw_at_the_default_seed() {
    let drawn = gmmu_workloads::tenants::scenario(4, Scale::Small, DEFAULT_SEED, true);
    assert_eq!(workloads::tenant_scenario(DEFAULT_SEED), drawn);
}

#[test]
fn recorded_calls_group_into_warp_instructions() {
    let va = |x| VAddr::new(x);
    let calls = [
        (0, 1, va(0)),
        (1, 1, va(8)),
        (31, 1, va(16)),
        (32, 1, va(24)), // next warp
        (33, 1, va(32)),
        (33, 2, va(40)), // next site
        (0, 1, va(48)),  // thread ids restart
    ];
    let groups = group_stream(3, &calls);
    let sizes: Vec<usize> = groups.iter().map(|g| g.addrs.len()).collect();
    assert_eq!(sizes, [3, 2, 1, 1]);
    assert!(groups.iter().all(|g| g.asid == 3));
    assert_eq!(groups[1].warp, 1);
}
