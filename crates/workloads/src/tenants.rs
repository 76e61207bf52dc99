//! Deterministic multi-tenant scenario generation.
//!
//! A *scenario* assigns each of N concurrent tenants a benchmark, a
//! scale, and a data seed, all derived from a single scenario seed.
//! Benchmark choice is Zipf-weighted over the six evaluation workloads
//! in the paper's figure order, mirroring how consolidated GPUs see a
//! skewed popularity distribution of co-resident kernels rather than a
//! uniform one. Optionally one tenant is designated the *thrasher*: it
//! runs `memcached` (the workload with the largest, flattest reuse
//! footprint) one scale step up, so its TLB working set dwarfs every
//! co-runner's and the scenario stresses cross-tenant eviction and
//! fairness.
//!
//! Everything is a pure function of `(scenario seed, tenant index)`, so
//! scenarios are reproducible across runs, processes, and replays.

use crate::{build_tenant_paged, Bench, Scale, Workload};
use gmmu_sim::fault::{FaultInjectConfig, FaultInjector};
use gmmu_sim::rng::{mix2, Zipf};
use gmmu_vm::PageSize;

/// Zipf skew used for tenant-arrival popularity. Matches the skew of
/// the memcached request trace (Wikipedia-like, theta = 0.99).
pub const ARRIVAL_THETA: f64 = 0.99;

/// One tenant's assignment within a scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantSpec {
    /// Benchmark the tenant runs.
    pub bench: Bench,
    /// Scale the tenant runs at.
    pub scale: Scale,
    /// Data seed for the tenant's workload build.
    pub seed: u64,
    /// Whether this tenant is the designated thrasher.
    pub thrasher: bool,
}

/// A generated multi-tenant scenario: per-tenant specs in ASID order.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Scenario seed everything was derived from.
    pub seed: u64,
    /// One spec per tenant; index == ASID.
    pub tenants: Vec<TenantSpec>,
}

impl Scale {
    /// The next scale up (saturating at [`Scale::Full`]); the thrasher
    /// runs at this scale relative to its co-runners.
    pub fn step_up(self) -> Scale {
        match self {
            Scale::Tiny => Scale::Small,
            Scale::Small => Scale::Full,
            Scale::Full => Scale::Full,
        }
    }
}

/// Zipf-weighted benchmark mix: tenant `t` runs the benchmark at the
/// Zipf rank sampled at `(seed, t)` over [`Bench::all`] in figure
/// order. Deterministic and independent per index, so extending a
/// scenario by one tenant never reshuffles the existing ones.
///
/// # Examples
///
/// ```
/// use gmmu_workloads::tenants::zipf_mix;
/// let a = zipf_mix(4, 7);
/// let b = zipf_mix(4, 7);
/// assert_eq!(a, b);
/// // A prefix of a larger scenario is the smaller scenario.
/// assert_eq!(zipf_mix(8, 7)[..4], a[..]);
/// ```
pub fn zipf_mix(n_tenants: usize, seed: u64) -> Vec<Bench> {
    let z = Zipf::new(Bench::all().len(), ARRIVAL_THETA);
    (0..n_tenants)
        .map(|t| Bench::all()[z.sample_at(seed, t as u64)])
        .collect()
}

/// Generates an `n_tenants`-way scenario at `scale`. When
/// `with_thrasher` is set, the tenant whose Zipf rank is *least*
/// popular (ties broken toward the highest ASID) is replaced by
/// `memcached` one scale step up.
pub fn scenario(n_tenants: usize, scale: Scale, seed: u64, with_thrasher: bool) -> Scenario {
    assert!(n_tenants > 0, "a scenario needs at least one tenant");
    let mix = zipf_mix(n_tenants, seed);
    let mut tenants: Vec<TenantSpec> = mix
        .into_iter()
        .enumerate()
        .map(|(t, bench)| TenantSpec {
            bench,
            scale,
            seed: mix2(seed, t as u64) | 1,
            thrasher: false,
        })
        .collect();
    if with_thrasher && n_tenants > 1 {
        // Deterministic victim choice: the tenant running the rarest
        // bench in this mix (popularity by Zipf rank = figure order).
        let rank = |b: Bench| Bench::all().iter().position(|&x| x == b).unwrap_or(0);
        let victim = tenants
            .iter()
            .enumerate()
            .max_by_key(|(t, s)| (rank(s.bench), *t))
            .map(|(t, _)| t)
            .expect("n_tenants > 1");
        tenants[victim] = TenantSpec {
            bench: Bench::Memcached,
            scale: scale.step_up(),
            seed: tenants[victim].seed,
            thrasher: true,
        };
    }
    Scenario { seed, tenants }
}

impl Scenario {
    /// Builds every tenant's workload with 4 KiB pages. Workload `t`
    /// owns the `t`-th physical window (ASID `t`), matching the ASID
    /// order `Gpu::run_tenants` requires.
    pub fn build(&self) -> Vec<Workload> {
        self.tenants
            .iter()
            .enumerate()
            .map(|(t, spec)| {
                build_tenant_paged(
                    spec.bench,
                    spec.scale,
                    spec.seed,
                    PageSize::Base4K,
                    t as u16,
                )
            })
            .collect()
    }

    /// [`Scenario::build`], then demand-unmaps each tenant's data pages
    /// per the injection config re-seeded for that tenant
    /// ([`FaultInjectConfig::for_tenant`]), so every tenant runs its own
    /// deterministic first-touch fault schedule. Returns the workloads
    /// and how many pages start unmapped per tenant.
    pub fn build_demand_paged(&self, inject: &FaultInjectConfig) -> (Vec<Workload>, Vec<u64>) {
        let mut unmapped = Vec::with_capacity(self.tenants.len());
        let built = self
            .build()
            .into_iter()
            .enumerate()
            .map(|(t, mut w)| {
                let inj = FaultInjector::new(inject.for_tenant(t as u16));
                unmapped.push(w.space.unmap_pages_where(|vpn| inj.unmap_page(vpn.raw())));
                w
            })
            .collect();
        (built, unmapped)
    }

    /// One-line description, e.g. `"4T seed=7: bfs kmeans bfs memcached*"`
    /// (`*` marks the thrasher).
    pub fn describe(&self) -> String {
        let mut s = format!("{}T seed={}:", self.tenants.len(), self.seed);
        for spec in &self.tenants {
            s.push(' ');
            s.push_str(spec.bench.name());
            if spec.thrasher {
                s.push('*');
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_are_deterministic_and_prefix_stable() {
        let a = scenario(4, Scale::Tiny, 7, true);
        let b = scenario(4, Scale::Tiny, 7, true);
        assert_eq!(a, b);
        let plain4 = scenario(4, Scale::Tiny, 7, false);
        let plain6 = scenario(6, Scale::Tiny, 7, false);
        assert_eq!(plain6.tenants[..4], plain4.tenants[..]);
    }

    #[test]
    fn thrasher_runs_memcached_one_scale_up() {
        let s = scenario(4, Scale::Tiny, 9, true);
        let thrashers: Vec<_> = s.tenants.iter().filter(|t| t.thrasher).collect();
        assert_eq!(thrashers.len(), 1);
        assert_eq!(thrashers[0].bench, Bench::Memcached);
        assert_eq!(thrashers[0].scale, Scale::Small);
    }

    #[test]
    fn built_workloads_carry_their_asid() {
        let s = scenario(3, Scale::Tiny, 11, false);
        let built = s.build();
        for (t, w) in built.iter().enumerate() {
            assert_eq!(w.space.asid(), t as u16);
            assert!(w.space.mapped_bytes() > 0);
        }
    }

    #[test]
    fn zipf_mix_favors_popular_ranks() {
        // Over many draws the head of the figure order must dominate.
        let mix = zipf_mix(256, 3);
        let head = mix.iter().filter(|&&b| b == Bench::Bfs).count();
        let tail = mix.iter().filter(|&&b| b == Bench::Memcached).count();
        assert!(head > tail, "Zipf head {head} should beat tail {tail}");
    }
}
