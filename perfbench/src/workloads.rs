//! The four benchmark workloads: how each is built from the seed, and
//! how one pass over its simulations runs.
//!
//! README.md in this directory records why each workload was chosen.

use gmmu::experiments::{ExperimentOpts, PointSpec, Runner};
use gmmu::figures;
use gmmu::prelude::*;
use gmmu_sim::metrics::Metrics;
use gmmu_simt::{Kernel, TenantJob, TenantPolicy};
use gmmu_vm::AddressSpace;
use gmmu_workloads::tenants::{Scenario, TenantSpec};
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::time::Instant;

/// The benchmark's workloads, in the order `--workload all` runs them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    Divergent,
    StreamingTcws,
    MultitenantObserved,
    FigureSweep,
}

impl Name {
    pub const ALL: [Name; 4] = [
        Name::Divergent,
        Name::StreamingTcws,
        Name::MultitenantObserved,
        Name::FigureSweep,
    ];

    pub fn as_str(self) -> &'static str {
        match self {
            Name::Divergent => "divergent",
            Name::StreamingTcws => "streaming-tcws",
            Name::MultitenantObserved => "multitenant-observed",
            Name::FigureSweep => "figure-sweep",
        }
    }

    pub fn parse(s: &str) -> Option<Name> {
        Name::ALL.into_iter().find(|n| n.as_str() == s)
    }
}

/// One simulation: a GPU configuration and the workloads (indices into
/// [`Inputs::workloads`]) it runs. One workload is a plain run; several
/// are co-running tenants under `policy`.
#[derive(Debug, Clone)]
pub struct Job {
    pub cfg: GpuConfig,
    pub tenants: Vec<usize>,
    pub policy: TenantPolicy,
}

/// Everything a workload's passes read, built from the seed during
/// set-up.
pub struct Inputs {
    pub name: Name,
    pub seed: u64,
    pub workloads: Vec<Workload>,
    pub jobs: Vec<Job>,
    /// The figure sweep's design points, parallel to `jobs` (empty for
    /// the other workloads).
    pub specs: Vec<PointSpec>,
}

/// Set-up time split the way the ledger reports it.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    pub build_s: f64,
    pub gpu_new_s: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.build_s + self.gpu_new_s
    }
}

/// The scope `all_figures --quick` runs at, with the benchmark's seed
/// and one sweep worker.
pub fn sweep_opts(seed: u64) -> ExperimentOpts {
    ExperimentOpts {
        seed,
        jobs: 1,
        ..ExperimentOpts::quick()
    }
}

/// Every figure function `all_figures` batches through the runner.
const SWEEP_FIGS: [fn(&mut Runner) -> Vec<Table>; 15] = [
    figures::fig02,
    figures::fig03,
    figures::fig04,
    figures::fig06,
    figures::fig07,
    figures::fig10,
    figures::fig10_stalls,
    figures::fig11,
    figures::fig13,
    figures::fig16,
    figures::fig17,
    figures::fig18,
    figures::fig20,
    figures::fig22,
    figures::sec9,
];

/// The deduplicated design points of the figure sweep, in the order
/// `Runner::run_points_parallel` simulates them.
pub fn sweep_specs(opts: ExperimentOpts) -> Vec<PointSpec> {
    let mut runner = Runner::new(opts);
    let (_, specs) = runner.record(|r| {
        for f in SWEEP_FIGS {
            f(r);
        }
    });
    let mut seen = HashSet::new();
    specs.into_iter().filter(|s| seen.insert(s.key())).collect()
}

/// The multi-tenant mix. The benchmark pins the tenant list to the one
/// `tenants::scenario(4, Small, 7, true)` draws (bfs, kmeans, bfs and a
/// memcached thrasher one scale up) and takes only the per-tenant data
/// seeds from `--seed`, the way `scenario` derives them; a fresh Zipf
/// draw per seed would change which kernels run and swamp the host-time
/// spread with workload choice.
pub fn tenant_scenario(seed: u64) -> Scenario {
    let mix = [
        (Bench::Bfs, false),
        (Bench::Kmeans, false),
        (Bench::Bfs, false),
        (Bench::Memcached, true),
    ];
    let tenants = mix
        .iter()
        .enumerate()
        .map(|(t, &(bench, thrasher))| TenantSpec {
            bench,
            scale: if thrasher {
                Scale::Small.step_up()
            } else {
                Scale::Small
            },
            seed: gmmu_sim::rng::mix2(seed, t as u64) | 1,
            thrasher,
        })
        .collect();
    Scenario { seed, tenants }
}

/// The experiment scope of the three Small workloads (8 cores).
fn small_opts(seed: u64) -> ExperimentOpts {
    ExperimentOpts {
        seed,
        jobs: 1,
        ..ExperimentOpts::default()
    }
}

/// Builds a workload's inputs (workload builds and address spaces only;
/// a pass builds each job's GPU just before running it). Returns the
/// build time.
pub fn build_inputs(name: Name, seed: u64) -> (Inputs, f64) {
    let t0 = Instant::now();
    let single = |cfg: &GpuConfig, i: usize| Job {
        cfg: cfg.clone(),
        tenants: vec![i],
        policy: TenantPolicy::default(),
    };
    let mut specs = Vec::new();
    let (workloads, jobs) = match name {
        Name::Divergent => {
            let cfg = small_opts(seed).gpu(MmuModel::augmented());
            let benches = [Bench::Bfs, Bench::Mummergpu];
            let ws = benches.iter().map(|&b| build(b, Scale::Small, seed));
            (ws.collect(), vec![single(&cfg, 0), single(&cfg, 1)])
        }
        Name::StreamingTcws => {
            let mut cfg = small_opts(seed).gpu(MmuModel::augmented());
            cfg.policy = PolicyKind::tcws_best();
            let benches = [Bench::Kmeans, Bench::Streamcluster, Bench::Pathfinder];
            let ws = benches.iter().map(|&b| build(b, Scale::Small, seed));
            let jobs = (0..3).map(|i| single(&cfg, i)).collect();
            (ws.collect(), jobs)
        }
        Name::MultitenantObserved => {
            let cfg = small_opts(seed).gpu(MmuModel::augmented());
            let ws = tenant_scenario(seed).build();
            let job = Job {
                cfg,
                tenants: (0..ws.len()).collect(),
                policy: TenantPolicy::default(),
            };
            (ws, vec![job])
        }
        Name::FigureSweep => {
            specs = sweep_specs(sweep_opts(seed));
            let mut index: HashMap<(Bench, bool), usize> = HashMap::new();
            let mut ws = Vec::new();
            let mut jobs = Vec::with_capacity(specs.len());
            for spec in &specs {
                let i = *index
                    .entry((spec.bench, spec.large_pages))
                    .or_insert_with(|| {
                        let pages = if spec.large_pages {
                            PageSize::Large2M
                        } else {
                            PageSize::Base4K
                        };
                        ws.push(build_paged(spec.bench, Scale::Tiny, seed, pages));
                        ws.len() - 1
                    });
                jobs.push(single(&spec.cfg, i));
            }
            (ws, jobs)
        }
    };
    let inputs = Inputs {
        name,
        seed,
        workloads,
        jobs,
        specs,
    };
    (inputs, t0.elapsed().as_secs_f64())
}

/// One set-up: build the inputs and every GPU a pass needs, timed
/// separately. GPUs are built and dropped one at a time, as a pass and
/// `gmmu::Runner` hold them, so set-up adds no memory peak of its own.
pub fn setup(name: Name, seed: u64) -> (Inputs, SetupTimes) {
    let (inputs, build_s) = build_inputs(name, seed);
    let mut gpu_new_s = 0.0;
    for job in &inputs.jobs {
        let t0 = Instant::now();
        let gpu = Gpu::new(job.cfg.clone());
        gpu_new_s += t0.elapsed().as_secs_f64();
        drop(gpu);
    }
    (inputs, SetupTimes { build_s, gpu_new_s })
}

/// How a pass observes its simulations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Observe {
    /// No instruments.
    Off,
    /// The metrics channel records and a snapshot is built per sim.
    Metrics,
}

/// One simulation's result, with the GPU it ran on (its component
/// getters feed the per-layer ledger) and the metrics snapshot when
/// one was built.
pub struct SimOut {
    pub stats: RunStats,
    pub gpu: Gpu,
    pub snapshot: Option<String>,
    pub wall_s: f64,
}

impl Inputs {
    /// The observation the workload's own passes use.
    pub fn observe(&self) -> Observe {
        match self.name {
            Name::MultitenantObserved => Observe::Metrics,
            _ => Observe::Off,
        }
    }

    /// A fresh GPU for job `j`, and copies of its tenants' address
    /// spaces when it is multi-tenant (tenant runs own their spaces
    /// mutably; `None` for single runs).
    pub fn prepare_job(&self, j: usize) -> (Gpu, Option<Vec<AddressSpace>>) {
        let job = &self.jobs[j];
        let spaces = (job.tenants.len() > 1).then(|| {
            job.tenants
                .iter()
                .map(|&i| self.workloads[i].space.clone())
                .collect()
        });
        (Gpu::new(job.cfg.clone()), spaces)
    }

    /// Runs job `j` on `gpu` with the given kernels (one per tenant, in
    /// tenant order) and observation.
    pub fn run_job(
        &self,
        j: usize,
        mut gpu: Gpu,
        kernels: &[&dyn Kernel],
        spaces: Option<Vec<AddressSpace>>,
        observe: Observe,
    ) -> SimOut {
        let job = &self.jobs[j];
        let mut obs = Observer::off();
        if observe == Observe::Metrics {
            obs.metrics = Metrics::recording();
        }
        let t0 = Instant::now();
        let stats = match spaces {
            None => {
                let space = &self.workloads[job.tenants[0]].space;
                gpu.run_observed(kernels[0], space, &mut obs)
            }
            Some(mut spaces) => {
                let mut tjobs: Vec<TenantJob<'_>> = kernels
                    .iter()
                    .zip(spaces.iter_mut())
                    .map(|(&kernel, space)| TenantJob { kernel, space })
                    .collect();
                gpu.run_tenants(&mut tjobs, job.policy, &mut obs)
            }
        };
        let snapshot = gpu.metrics_snapshot(&obs);
        let wall_s = t0.elapsed().as_secs_f64();
        SimOut {
            stats,
            gpu,
            snapshot,
            wall_s,
        }
    }

    /// The kernels of job `j`, unwrapped.
    pub fn kernels(&self, j: usize) -> Vec<&dyn Kernel> {
        self.jobs[j]
            .tenants
            .iter()
            .map(|&i| self.workloads[i].kernel.as_ref() as &dyn Kernel)
            .collect()
    }

    /// Every job once, each job's GPU and tenant spaces prepared
    /// outside its sim time; returns the summed sim time.
    pub fn direct_pass(&self, observe: Observe, mut on_sim: impl FnMut(usize, SimOut)) -> f64 {
        let mut wall = 0.0;
        for j in 0..self.jobs.len() {
            let (gpu, sp) = self.prepare_job(j);
            let out = self.run_job(j, gpu, &self.kernels(j), sp, observe);
            wall += out.wall_s;
            on_sim(j, out);
        }
        wall
    }

    /// One pass the way users run the workload: the figure sweep goes
    /// through a fresh `gmmu::Runner` (workload builds and GPU
    /// construction included, tables rendered), every other workload
    /// runs its jobs directly. Returns the pass wall time, every sim's
    /// stats in job order, and the digest of the pass's printed output
    /// (the sweep's tables, or the metrics snapshots).
    pub fn pass(&self) -> (f64, Vec<RunStats>, u64) {
        if self.name == Name::FigureSweep {
            return self.sweep_pass();
        }
        let mut stats = Vec::with_capacity(self.jobs.len());
        let mut out_text = String::new();
        let wall = self.direct_pass(self.observe(), |_, out| {
            if let Some(s) = &out.snapshot {
                out_text.push_str(s);
            }
            stats.push(out.stats);
        });
        (wall, stats, gmmu_sim::ckpt::fnv1a64(out_text.as_bytes()))
    }

    fn sweep_pass(&self) -> (f64, Vec<RunStats>, u64) {
        let opts = sweep_opts(self.seed);
        let t0 = Instant::now();
        let mut runner = Runner::new(opts);
        let mut text = String::new();
        for table in figures::table_config(opts)
            .into_iter()
            .chain(figures::fig09())
        {
            let _ = writeln!(text, "{table}");
        }
        let (_, specs) = runner.record(|r| {
            for f in SWEEP_FIGS {
                f(r);
            }
        });
        runner.run_points_parallel(specs);
        for f in SWEEP_FIGS {
            for table in f(&mut runner) {
                let _ = writeln!(text, "{table}");
            }
        }
        let wall = t0.elapsed().as_secs_f64();
        // Every point is now memoized: asking for it again returns the
        // cached stats without simulating.
        let stats = self
            .specs
            .iter()
            .map(|spec| {
                let cfg = spec.cfg.clone();
                if spec.large_pages {
                    runner.run_large_pages(spec.bench, |c| *c = cfg)
                } else {
                    runner.run(spec.bench, |c| *c = cfg)
                }
            })
            .collect();
        assert_eq!(
            runner.runs,
            self.jobs.len(),
            "the sweep simulated a point the benchmark did not record"
        );
        (wall, stats, gmmu_sim::ckpt::fnv1a64(text.as_bytes()))
    }
}
