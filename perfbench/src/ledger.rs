//! The traced run: the per-layer ledger, measured from outside the
//! simulator.
//!
//! Three kinds of pass run back to back until the time budget is spent:
//! a plain pass (no instruments), a wrapped pass, whose kernels are
//! [`Recorder`]s counting and sampling every call into the workload
//! layer and recording the access stream, and an observed pass (metrics
//! channel recording, snapshot built). Model counters come from
//! `RunStats` and the components' public getters after the wrapped
//! pass. Host time per layer comes from *replays*: the recorded stream
//! is fed into one layer's public entry point at a time, giving ns per
//! call, which times the real run's calls per simulated kilocycle gives
//! that layer's ns per kilocycle. Every pass's results are checked like
//! the untraced run's.

use crate::check::Checker;
use crate::stats::{median, Metric};
use crate::workloads::{self, Inputs, Job, Name, Observe, SimOut};
use gmmu::prelude::*;
use gmmu_core::ccws::LocalityPolicy;
use gmmu_core::mmu::{Mmu, PageReq, TranslateBuf};
use gmmu_core::tlb::Tlb;
use gmmu_mem::{AccessKind, Cache, CacheAccess, MemorySystem, LINE_SHIFT};
use gmmu_sim::trace::Tracer;
use gmmu_simt::coalesce::{coalesce_granule, CoalesceBuf};
use gmmu_simt::program::{Program, ThreadId};
use gmmu_simt::Kernel;
use gmmu_vm::{AddressSpace, Ppn, VAddr, Vpn};
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One call in this many into the workload layer is timed.
const SAMPLE_EVERY: u64 = 16;
/// Sampled calls slower than this are dropped as preempted.
const MAX_SAMPLE_NS: u64 = 4_000;
/// Accesses recorded per simulation, at most.
const STREAM_CAP: usize = 32_768;
/// Accesses recorded across all of a workload's simulations, at most
/// (before the per-sim floor below).
const STREAM_TOTAL: usize = 131_072;
/// Accesses recorded per simulation, at least (if the sim makes them).
const STREAM_FLOOR: usize = 1_024;
/// Each replay repeats until it has run this long.
const REPLAY_MIN: Duration = Duration::from_millis(40);
/// Set-ups a traced run times; `setup.*` are their medians.
const TRACED_SETUPS: usize = 5;
/// Warps a replayed scheduling policy tracks (warp ids wrap to this).
const POLICY_WARPS: usize = 48;

/// The cost of one `Instant::now()` pair, subtracted from every sampled
/// call (a median over many pairs).
fn clock_pair_ns() -> f64 {
    let mut samples: Vec<f64> = (0..64)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..256 {
                black_box(Instant::now());
                black_box(Instant::now());
            }
            t.elapsed().as_nanos() as f64 / 256.0
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// A kernel wrapper that counts every call, times one in
/// [`SAMPLE_EVERY`], and records the first `cap` memory accesses as
/// `(thread, site, address)`. Answers are the wrapped kernel's, so the
/// simulation is unchanged (the check compares digests).
pub struct Recorder<'k> {
    inner: &'k dyn Kernel,
    calls: AtomicU64,
    sampled_calls: AtomicU64,
    sampled_ns: AtomicU64,
    cap: usize,
    recorded: AtomicU64,
    stream: Mutex<Vec<(ThreadId, u16, VAddr)>>,
}

impl<'k> Recorder<'k> {
    pub fn new(inner: &'k dyn Kernel, cap: usize) -> Self {
        Self {
            inner,
            calls: AtomicU64::new(0),
            sampled_calls: AtomicU64::new(0),
            sampled_ns: AtomicU64::new(0),
            cap,
            recorded: AtomicU64::new(0),
            stream: Mutex::new(Vec::new()),
        }
    }

    fn timed<T>(&self, f: impl FnOnce() -> T) -> T {
        // A load and a store rather than `fetch_add`: the simulator's
        // serial engine calls the kernel from one thread, and the
        // locked read-modify-write would be most of the wrapper's cost.
        let n = self.calls.load(Relaxed);
        self.calls.store(n + 1, Relaxed);
        if !n.is_multiple_of(SAMPLE_EVERY) {
            return f();
        }
        let t = Instant::now();
        let out = f();
        let ns = t.elapsed().as_nanos() as u64;
        // A kernel call is pure arithmetic; one this slow was preempted.
        if ns <= MAX_SAMPLE_NS {
            self.sampled_ns.fetch_add(ns, Relaxed);
            self.sampled_calls.fetch_add(1, Relaxed);
        }
        out
    }

    pub fn calls(&self) -> u64 {
        self.calls.load(Relaxed)
    }

    /// Mean host ns per call, clock cost removed (never negative).
    pub fn ns_per_call(&self, clock_ns: f64) -> f64 {
        let n = self.sampled_calls.load(Relaxed);
        if n == 0 {
            return 0.0;
        }
        (self.sampled_ns.load(Relaxed) as f64 / n as f64 - clock_ns).max(0.0)
    }

    pub fn into_stream(self) -> Vec<(ThreadId, u16, VAddr)> {
        self.stream.into_inner().expect("no recorder call panicked")
    }
}

impl Kernel for Recorder<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn program(&self) -> &Program {
        self.inner.program()
    }
    fn num_threads(&self) -> u32 {
        self.inner.num_threads()
    }
    fn block_threads(&self) -> u32 {
        self.inner.block_threads()
    }
    fn mem_addr(&self, tid: ThreadId, site: u16, iter: u32) -> VAddr {
        let va = self.timed(|| self.inner.mem_addr(tid, site, iter));
        let recorded = self.recorded.load(Relaxed);
        if (recorded as usize) < self.cap {
            self.recorded.store(recorded + 1, Relaxed);
            self.stream
                .lock()
                .expect("no recorder call panicked")
                .push((tid, site, va));
        }
        va
    }
    fn branch_taken(&self, tid: ThreadId, site: u16, iter: u32) -> bool {
        self.timed(|| self.inner.branch_taken(tid, site, iter))
    }
}

/// One span of the traced run, kept in memory and written at the end.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span log; ids start at 1 and 0 means "no parent".
pub struct Spans {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Spans::close`].
    fn open(&mut self, name: impl Into<String>, parent: u32) -> u32 {
        let id = self.spans.len() as u32 + 1;
        let start_ns = self.now();
        self.spans.push(Span {
            id,
            parent,
            name: name.into(),
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    fn close(&mut self, id: u32) {
        self.spans[id as usize - 1].end_ns = self.now();
    }

    /// Records a finished span that lasted `wall_s` up to now.
    fn finished(&mut self, name: impl Into<String>, parent: u32, wall_s: f64) {
        let id = self.open(name, parent);
        let end = self.spans[id as usize - 1].start_ns;
        self.spans[id as usize - 1].start_ns = end.saturating_sub((wall_s * 1e9) as u64);
    }

    pub fn to_json(&self) -> String {
        let mut s = String::from("[\n");
        for (i, sp) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                s,
                "  {{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \
                 \"end_ns\": {}}}{sep}",
                sp.id, sp.parent, sp.name, sp.start_ns, sp.end_ns
            );
        }
        s.push_str("]\n");
        s
    }
}

/// Where a traced run writes its spans: `out/` in the benchmark's
/// directory.
fn spans_path(name: Name, seed: u64) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}-seed{seed}.json", name.as_str()))
}

/// Model counters summed over one pass's sims, plus the component
/// counts the replays are scaled by.
#[derive(Debug, Default, Clone)]
pub struct Counters {
    cycles: u64,
    instructions: u64,
    mem_instructions: u64,
    idle_cycles: u64,
    live_cycles: u64,
    stalls: [u64; StallCause::COUNT],
    replays: u64,
    divergence_sum: u64,
    divergence_count: u64,
    tlb_lookups: u64,
    tlb_hits: u64,
    tlb_fills: u64,
    walks: u64,
    refs_issued: u64,
    refs_naive: u64,
    miss_latency_sum: u64,
    miss_latency_count: u64,
    l1_accesses: u64,
    l1_hits: u64,
    walk_refs: u64,
    walk_l2_hits: u64,
    mem_data: u64,
    dram: u64,
    dwarps: u64,
    shootdowns: u64,
    squashed: u64,
}

impl Counters {
    /// Adds one sim: its `RunStats` and its GPU's component getters.
    pub fn add(&mut self, s: &RunStats, gpu: &Gpu) {
        self.cycles += s.cycles;
        self.instructions += s.instructions;
        self.mem_instructions += s.mem_instructions;
        self.idle_cycles += s.idle_cycles;
        self.live_cycles += s.live_cycles;
        for (i, c) in StallCause::ALL.iter().enumerate() {
            self.stalls[i] += s.stall_breakdown.get(*c);
        }
        self.replays += s.replays;
        self.divergence_sum += s.page_divergence.sum();
        self.divergence_count += s.page_divergence.count();
        self.tlb_lookups += s.tlb_accesses;
        self.tlb_hits += s.tlb_hits;
        self.walks += s.walks;
        self.refs_issued += s.walk_refs_issued;
        self.refs_naive += s.walk_refs_naive;
        self.miss_latency_sum += s.tlb_miss_latency.sum();
        self.miss_latency_count += s.tlb_miss_latency.count();
        self.l1_accesses += s.l1_accesses;
        self.l1_hits += s.l1_hits;
        self.dram += s.dram_requests;
        self.dwarps += s.dwarps_formed;
        self.shootdowns += s.shootdowns;
        self.squashed += s.squashed_walks;
        for core in gpu.cores() {
            if let Some(tlb) = core.mmu().tlb() {
                self.tlb_fills += tlb.fills.get();
            }
        }
        let mem = gpu.memory();
        self.walk_refs += mem.walk_refs.get();
        self.walk_l2_hits += mem.walk_l2_hits.get();
        self.mem_data += mem.loads.get() + mem.stores.get();
    }

    fn kcycles(&self) -> f64 {
        self.cycles as f64 / 1e3
    }

    fn per_kcycle(&self, n: u64) -> f64 {
        n as f64 / self.kcycles()
    }

    /// The real run's calls into each replayed entry point, in
    /// [`LAYERS`] order. `coalesce` and `Mmu::translate` run once per
    /// issue of a memory instruction, first issue or replay; the TLB is
    /// probed per lookup and written per fill; the page table is walked
    /// per walk; the L1 per access; the shared memory per load or store
    /// entering it; the policy hooks are an issue check per instruction,
    /// a TLB hook per lookup, an eviction hook per fill, and a miss and
    /// an eviction hook per L1 miss.
    fn layer_calls(&self) -> [u64; 7] {
        let translations = self.mem_instructions + self.replays;
        let l1_misses = self.l1_accesses - self.l1_hits;
        [
            translations,
            self.tlb_lookups + self.tlb_fills,
            translations,
            self.walks,
            self.l1_accesses,
            self.mem_data,
            self.instructions + self.tlb_lookups + self.tlb_fills + 2 * l1_misses,
        ]
    }

    /// The exact model counters, normalised per simulated kilocycle.
    fn metrics(&self) -> Vec<Metric> {
        let frac = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let mut m = vec![Metric::new(
            "simt.idle_frac",
            frac(self.idle_cycles, self.live_cycles),
            "fraction",
        )];
        for (i, name) in STALL_NAMES.iter().enumerate() {
            m.push(Metric::new(
                format!("simt.stall_{name}_frac"),
                frac(self.stalls[i], self.live_cycles),
                "fraction",
            ));
        }
        m.extend([
            Metric::new("simt.replays", self.per_kcycle(self.replays), "1/kcycle"),
            Metric::new(
                "coalesce.page_divergence_mean",
                frac(self.divergence_sum, self.divergence_count),
                "pages",
            ),
            Metric::new("tlb.lookups", self.per_kcycle(self.tlb_lookups), "1/kcycle"),
            Metric::new(
                "tlb.hit_rate",
                frac(self.tlb_hits, self.tlb_lookups),
                "fraction",
            ),
            Metric::new("walker.walks", self.per_kcycle(self.walks), "1/kcycle"),
            Metric::new(
                "walker.refs_issued",
                self.per_kcycle(self.refs_issued),
                "1/kcycle",
            ),
            Metric::new(
                "walker.refs_eliminated_frac",
                1.0 - frac(self.refs_issued, self.refs_naive.max(self.refs_issued)),
                "fraction",
            ),
            Metric::new(
                "walker.miss_latency_mean_cyc",
                frac(self.miss_latency_sum, self.miss_latency_count),
                "cycle",
            ),
            Metric::new("l1.accesses", self.per_kcycle(self.l1_accesses), "1/kcycle"),
            Metric::new(
                "l1.hit_rate",
                frac(self.l1_hits, self.l1_accesses),
                "fraction",
            ),
            Metric::new(
                "l2.walk_hit_rate",
                frac(self.walk_l2_hits, self.walk_refs),
                "fraction",
            ),
            Metric::new("dram.requests", self.per_kcycle(self.dram), "1/kcycle"),
            Metric::new(
                "tbc.dwarps_formed",
                self.per_kcycle(self.dwarps),
                "1/kcycle",
            ),
            Metric::new(
                "mt.shootdowns",
                self.per_kcycle(self.shootdowns),
                "1/kcycle",
            ),
            Metric::new(
                "mt.squashed_walks",
                self.per_kcycle(self.squashed),
                "1/kcycle",
            ),
        ]);
        m
    }
}

/// Metric-name spelling of each [`StallCause`], in `StallCause::ALL`
/// order.
const STALL_NAMES: [&str; StallCause::COUNT] = [
    "fault_service",
    "tlb_fill",
    "mmu_reject",
    "dram",
    "l1_mshr",
    "replay_wake",
    "throttled",
    "pipeline",
    "dispatch",
];

/// One warp memory instruction of a recorded stream.
#[derive(Debug, Clone)]
pub struct Group {
    pub asid: u16,
    pub warp: u16,
    pub addrs: Vec<VAddr>,
}

/// Splits a tenant's recorded calls into warp memory instructions: the
/// core asks for one warp's active lanes in ascending thread order at
/// one site, so a group ends where the site or the warp changes or the
/// thread id stops rising.
pub fn group_stream(asid: u16, calls: &[(ThreadId, u16, VAddr)]) -> Vec<Group> {
    let mut groups: Vec<Group> = Vec::new();
    let mut last: Option<(ThreadId, u16)> = None;
    for &(tid, site, va) in calls {
        let same = last.is_some_and(|(t, s)| s == site && t / 32 == tid / 32 && tid > t);
        if !same {
            groups.push(Group {
                asid,
                warp: ((tid / 32) as usize % POLICY_WARPS) as u16,
                addrs: Vec::new(),
            });
        }
        groups.last_mut().expect("pushed above").addrs.push(va);
        last = Some((tid, site));
    }
    groups
}

/// Interleaves tenants' groups round-robin (a single tenant passes
/// through unchanged).
fn interleave(per_tenant: Vec<Vec<Group>>) -> Vec<Group> {
    let mut iters: Vec<_> = per_tenant.into_iter().map(Vec::into_iter).collect();
    let mut out = Vec::new();
    loop {
        let before = out.len();
        for it in &mut iters {
            out.extend(it.next());
        }
        if out.len() == before {
            return out;
        }
    }
}

/// A policy hook call, in replay order.
#[derive(Debug, Clone, Copy)]
enum Hook {
    Issue(u16),
    TlbHit(u16, u8),
    TlbMiss(u16, Vpn),
    TlbEvict(u16, Vpn),
    L1Miss(u16, u64, bool),
    L1Evict(u16, u64),
    Tick(u64),
}

/// One job's recorded stream, prepared (untimed) into the inputs of
/// every layer replay.
pub struct Prepared<'a> {
    job: &'a Job,
    spaces: Vec<&'a AddressSpace>,
    groups: Vec<Group>,
    /// Per group: its coalesced pages, and their frames.
    reqs: Vec<Vec<PageReq>>,
    ppns: Vec<Vec<Ppn>>,
    /// Physical lines every group touches, with the group's warp.
    lines: Vec<(u16, u64)>,
    /// Pages that missed a shadow TLB (inputs of the page-table walk).
    miss_pages: Vec<(u16, Vpn)>,
    /// Lines that missed a shadow L1 (inputs of the shared memory).
    miss_lines: Vec<u64>,
    hooks: Vec<Hook>,
    /// Simulated cycles between two translations on one core in the
    /// real run.
    step: u64,
}

impl<'a> Prepared<'a> {
    fn new(job: &'a Job, spaces: Vec<&'a AddressSpace>, groups: Vec<Group>, step: u64) -> Self {
        let mut buf = CoalesceBuf::new();
        let mut reqs = Vec::with_capacity(groups.len());
        let mut ppns = Vec::with_capacity(groups.len());
        let mut lines = Vec::new();
        let mut miss_pages = Vec::new();
        let mut miss_lines = Vec::new();
        let mut hooks = Vec::new();
        let mut tlb = match job.cfg.mmu {
            MmuModel::Real { tlb, .. } => Some(Tlb::new(tlb)),
            MmuModel::Ideal => None,
        };
        let mut l1 = Cache::new(job.cfg.l1);
        let mut now = 0u64;
        for g in &groups {
            now += step;
            let space = spaces[g.asid as usize];
            coalesce_granule(
                g.addrs.iter().map(|&va| (va, g.warp)),
                job.cfg.granule,
                &mut buf,
            );
            let group_ppns: Vec<Ppn> = buf
                .pages
                .iter()
                .map(|p| {
                    let (pa, _) = space
                        .translate(p.vpn.base())
                        .expect("recorded pages are mapped");
                    pa.ppn()
                })
                .collect();
            hooks.push(Hook::Tick(now));
            hooks.push(Hook::Issue(g.warp));
            let mut tlb_missed = false;
            for (req, ppn) in buf.pages.iter().zip(&group_ppns) {
                let Some(tlb) = tlb.as_mut() else { break };
                match tlb.lookup_asid(g.asid, req.vpn, req.warp, now) {
                    Some(hit) => hooks.push(Hook::TlbHit(req.warp, hit.lru_depth)),
                    None => {
                        tlb_missed = true;
                        hooks.push(Hook::TlbMiss(req.warp, req.vpn));
                        miss_pages.push((g.asid, req.vpn));
                        if let Some(v) = tlb.fill_asid(g.asid, req.vpn, *ppn, req.warp, now) {
                            hooks.push(Hook::TlbEvict(v.owner, v.vpn));
                        }
                    }
                }
            }
            for l in &buf.lines {
                let req = buf.pages[l.page_idx as usize];
                let ppn = group_ppns[l.page_idx as usize];
                let offset = (l.vline << LINE_SHIFT) & job.cfg.granule.offset_mask();
                let line = (ppn.base().raw() + offset) >> LINE_SHIFT;
                lines.push((req.warp, line));
                if let CacheAccess::Miss { victim } = l1.access(line, req.warp as u32, now) {
                    hooks.push(Hook::L1Miss(req.warp, line, tlb_missed));
                    miss_lines.push(line);
                    if let Some(v) = victim {
                        hooks.push(Hook::L1Evict(v.meta as u16, v.line));
                    }
                }
            }
            reqs.push(buf.pages.clone());
            ppns.push(group_ppns);
        }
        Self {
            job,
            spaces,
            groups,
            reqs,
            ppns,
            lines,
            miss_pages,
            miss_lines,
            hooks,
            step,
        }
    }
}

/// Repeats `run` over fresh state from `fresh` until [`REPLAY_MIN`] has
/// been spent inside `run`; returns ns per call (`run` returns its call
/// count).
fn replay<S>(mut fresh: impl FnMut() -> S, mut run: impl FnMut(&mut S) -> u64) -> f64 {
    let (mut spent, mut calls) = (Duration::ZERO, 0u64);
    while spent < REPLAY_MIN {
        let mut state = fresh();
        let t = Instant::now();
        let n = run(&mut state);
        spent += t.elapsed();
        calls += n;
        black_box(&state);
        if n == 0 {
            return 0.0;
        }
    }
    spent.as_nanos() as f64 / calls as f64
}

/// The replayed layers, in replay and report order.
const LAYERS: [&str; 7] = ["coalesce", "tlb", "mmu", "vm", "l1", "mem", "policy"];
/// Replayed layers whose time is part of `mmu` (translation includes the
/// TLB probe and the walk), so it is not subtracted from the total again.
const INSIDE_MMU: [&str; 2] = ["tlb", "vm"];

/// Runs every layer replay over `prepared`, with `spans` recording one
/// span per layer under `parent`; returns host ns per call, in
/// [`LAYERS`] order.
pub fn replays(prepared: &[Prepared<'_>], spans: &mut Spans, parent: u32) -> [f64; 7] {
    let timed = |name: &str, spans: &mut Spans, f: &mut dyn FnMut() -> f64| {
        let id = spans.open(format!("replay.{name}"), parent);
        let ns = f();
        spans.close(id);
        ns
    };
    let coalesce = timed("coalesce", spans, &mut || {
        replay(CoalesceBuf::new, |buf| {
            let mut n = 0;
            for p in prepared {
                for g in &p.groups {
                    coalesce_granule(
                        g.addrs.iter().map(|&va| (va, g.warp)),
                        p.job.cfg.granule,
                        buf,
                    );
                    black_box(buf.pages.len());
                    n += 1;
                }
            }
            n
        })
    });
    let tlb = timed("tlb", spans, &mut || {
        replay(
            || {
                prepared
                    .iter()
                    .map(|p| match p.job.cfg.mmu {
                        MmuModel::Real { tlb, .. } => Some(Tlb::new(tlb)),
                        MmuModel::Ideal => None,
                    })
                    .collect::<Vec<_>>()
            },
            |tlbs| {
                let mut n = 0;
                let mut stamp = 0;
                for (p, tlb) in prepared.iter().zip(tlbs.iter_mut()) {
                    let Some(tlb) = tlb else { continue };
                    for ((g, reqs), ppns) in p.groups.iter().zip(&p.reqs).zip(&p.ppns) {
                        for (req, ppn) in reqs.iter().zip(ppns) {
                            stamp += 1;
                            n += 1;
                            if tlb.lookup_asid(g.asid, req.vpn, req.warp, stamp).is_none() {
                                n += 1;
                                black_box(tlb.fill_asid(g.asid, req.vpn, *ppn, req.warp, stamp));
                            }
                        }
                    }
                }
                n
            },
        )
    });
    let mmu = timed("mmu", spans, &mut || {
        replay(
            || {
                prepared
                    .iter()
                    .map(|p| {
                        let mut mmu = Mmu::new(p.job.cfg.mmu);
                        if p.spaces.len() > 1 {
                            mmu.set_tagging(p.job.policy.tagged);
                            mmu.set_walker_fairness(
                                p.spaces.len(),
                                p.job.policy.walker_tokens,
                                p.job.policy.walker_max_age,
                            );
                        }
                        (mmu, MemorySystem::new(p.job.cfg.mem), TranslateBuf::new())
                    })
                    .collect::<Vec<_>>()
            },
            |state| {
                let mut n = 0;
                for (p, (mmu, mem, buf)) in prepared.iter().zip(state.iter_mut()) {
                    let mut now = 0;
                    for (g, reqs) in p.groups.iter().zip(&p.reqs) {
                        now += p.step;
                        mmu.advance_tenants(now, mem, &p.spaces, &mut Tracer::Off, 0);
                        let space = p.spaces[g.asid as usize];
                        black_box(mmu.translate_tenant(now, g.warp, g.asid, reqs, space, buf));
                        for e in mmu.events() {
                            black_box(e);
                        }
                        n += 1;
                    }
                }
                n
            },
        )
    });
    let vm = timed("vm", spans, &mut || {
        replay(
            || (),
            |_| {
                let mut n = 0;
                for p in prepared {
                    for &(asid, vpn) in &p.miss_pages {
                        black_box(p.spaces[asid as usize].walk(vpn));
                        n += 1;
                    }
                }
                n
            },
        )
    });
    let l1 = timed("l1", spans, &mut || {
        replay(
            || {
                prepared
                    .iter()
                    .map(|p| Cache::new(p.job.cfg.l1))
                    .collect::<Vec<_>>()
            },
            |caches| {
                let mut n = 0;
                for (p, l1) in prepared.iter().zip(caches.iter_mut()) {
                    for &(warp, line) in &p.lines {
                        n += 1;
                        black_box(l1.access(line, warp as u32, n));
                    }
                }
                n
            },
        )
    });
    let mem = timed("mem", spans, &mut || {
        replay(
            || {
                prepared
                    .iter()
                    .map(|p| MemorySystem::new(p.job.cfg.mem))
                    .collect::<Vec<_>>()
            },
            |mems| {
                let mut n = 0;
                for (p, mem) in prepared.iter().zip(mems.iter_mut()) {
                    let mut now = 0;
                    for &line in &p.miss_lines {
                        now += p.step;
                        black_box(mem.access(now, line, AccessKind::Load));
                        n += 1;
                    }
                }
                n
            },
        )
    });
    let policy = timed("policy", spans, &mut || {
        replay(
            || {
                prepared
                    .iter()
                    .map(|p| {
                        LocalityPolicy::new(p.job.cfg.policy, POLICY_WARPS, p.job.cfg.policy_config)
                    })
                    .collect::<Vec<_>>()
            },
            |policies| {
                let mut n = 0;
                for (p, policy) in prepared.iter().zip(policies.iter_mut()) {
                    for &h in &p.hooks {
                        match h {
                            Hook::Issue(w) => {
                                black_box(policy.issue_allowed(w));
                            }
                            Hook::TlbHit(w, d) => policy.on_tlb_hit(w, d),
                            Hook::TlbMiss(w, vpn) => policy.on_tlb_miss(w, vpn),
                            Hook::TlbEvict(w, vpn) => policy.on_tlb_evict(w, vpn),
                            Hook::L1Miss(w, line, missed) => policy.on_l1_miss(w, line, missed),
                            Hook::L1Evict(w, line) => policy.on_l1_evict(w, line),
                            Hook::Tick(now) => policy.tick(now),
                        }
                        n += 1;
                    }
                }
                n
            },
        )
    });
    [coalesce, tlb, mmu, vm, l1, mem, policy]
}

/// What one wrapped pass leaves behind.
pub struct Wrapped {
    wall: f64,
    stats: Vec<RunStats>,
    counters: Counters,
    calls: u64,
    sampled_ns: Vec<(f64, u64)>,
    /// Per job, per tenant: the recorded calls.
    streams: Vec<Vec<Vec<(ThreadId, u16, VAddr)>>>,
}

pub fn wrapped_pass(inputs: &Inputs, spans: &mut Spans, parent: u32, clock_ns: f64) -> Wrapped {
    let cap = (STREAM_TOTAL / inputs.jobs.len()).clamp(STREAM_FLOOR, STREAM_CAP);
    let mut out = Wrapped {
        wall: 0.0,
        stats: Vec::new(),
        counters: Counters::default(),
        calls: 0,
        sampled_ns: Vec::new(),
        streams: Vec::new(),
    };
    for j in 0..inputs.jobs.len() {
        let (gpu, sp) = inputs.prepare_job(j);
        let recorders: Vec<Recorder<'_>> = inputs
            .kernels(j)
            .into_iter()
            .map(|k| Recorder::new(k, cap))
            .collect();
        let kernels: Vec<&dyn Kernel> = recorders.iter().map(|r| r as &dyn Kernel).collect();
        let SimOut {
            stats, gpu, wall_s, ..
        } = inputs.run_job(j, gpu, &kernels, sp, Observe::Off);
        spans.finished(format!("sim {j}"), parent, wall_s);
        out.wall += wall_s;
        out.counters.add(&stats, &gpu);
        out.stats.push(stats);
        for r in &recorders {
            out.calls += r.calls();
            out.sampled_ns.push((r.ns_per_call(clock_ns), r.calls()));
        }
        out.streams
            .push(recorders.into_iter().map(Recorder::into_stream).collect());
    }
    out
}

/// Prepares every job's recorded stream for the replays. Replayed
/// translations are spaced by the real run's mean cycles between two
/// translations on one core.
pub fn prepare<'a>(inputs: &'a Inputs, w: &Wrapped) -> Vec<Prepared<'a>> {
    let c = &w.counters;
    let cores = inputs.jobs[0].cfg.n_cores as u64;
    let step = (c.cycles * cores / c.layer_calls()[0].max(1)).max(1);
    inputs
        .jobs
        .iter()
        .zip(&w.streams)
        .map(|(job, tenant_streams)| {
            let groups = interleave(
                tenant_streams
                    .iter()
                    .enumerate()
                    .map(|(t, s)| group_stream(t as u16, s))
                    .collect(),
            );
            let spaces = job
                .tenants
                .iter()
                .map(|&i| &inputs.workloads[i].space)
                .collect();
            Prepared::new(job, spaces, groups, step)
        })
        .collect()
}

/// The traced run of one workload: every per-layer metric.
pub fn traced(name: Name, seed: u64, budget: Duration, checker: &mut Checker) -> Vec<Metric> {
    let mut spans = Spans::new();
    let run = spans.open(format!("traced {} seed {seed}", name.as_str()), 0);
    let clock_ns = clock_pair_ns();
    eprintln!("[{}] clock pair {clock_ns:.1} ns", name.as_str());

    let setup_span = spans.open("setup", run);
    let (inputs, first) = workloads::setup(name, seed);
    let mut setups = vec![first];
    setups.extend((1..TRACED_SETUPS).map(|_| workloads::setup(name, seed).1));
    spans.close(setup_span);

    // Observation cost and tracing overhead are paired differences
    // against the plain pass just before, so a machine-speed phase
    // shifts both sides alike. The wrapped pass goes first: a pass that
    // follows an observed one was measured to run slower.
    let (mut plain, mut observe_cost, mut overhead) = (Vec::new(), Vec::new(), Vec::new());
    let mut last: Option<Wrapped> = None;
    let started = Instant::now();
    while last.is_none() || started.elapsed() < budget {
        let run_pass = |kind: &str, observe: Observe, spans: &mut Spans, checker: &mut Checker| {
            let id = spans.open(format!("pass.{kind}"), run);
            let mut stats = Vec::new();
            let wall = inputs.direct_pass(observe, |j, out| {
                spans.finished(format!("sim {j}"), id, out.wall_s);
                stats.push(out.stats);
            });
            spans.close(id);
            checker.check(&stats, None);
            wall
        };
        let p = run_pass("plain", Observe::Off, &mut spans, checker);
        plain.push(p);
        let id = spans.open("pass.wrapped", run);
        let w = wrapped_pass(&inputs, &mut spans, id, clock_ns);
        spans.close(id);
        checker.check(&w.stats, None);
        overhead.push((w.wall - p) / p);
        last = Some(w);
        let o = run_pass("observed", Observe::Metrics, &mut spans, checker);
        observe_cost.push(o - p);
    }
    let w = last.expect("at least one wrapped pass ran");
    let c = &w.counters;

    let prep_span = spans.open("replay.prepare", run);
    let prepared = prepare(&inputs, &w);
    spans.close(prep_span);
    let replay_span = spans.open("replays", run);
    let per_call = replays(&prepared, &mut spans, replay_span);
    spans.close(replay_span);
    spans.close(run);
    write_spans(name, seed, &spans);

    let kc = c.kcycles();
    let workload_ns = w
        .sampled_ns
        .iter()
        .map(|&(ns, n)| ns * n as f64)
        .sum::<f64>()
        / kc;
    let layer_ns: Vec<f64> = per_call
        .iter()
        .zip(c.layer_calls())
        .map(|(ns, calls)| ns * c.per_kcycle(calls))
        .collect();
    let pass_s = median(&plain);
    let total = pass_s * 1e9 / kc;
    let attributed = workload_ns
        + LAYERS
            .iter()
            .zip(&layer_ns)
            .filter(|(l, _)| !INSIDE_MMU.contains(l))
            .map(|(_, ns)| ns)
            .sum::<f64>();

    let setup_total: Vec<f64> = setups.iter().map(|s| s.total()).collect();
    let setup_s = median(&setup_total);
    let setup_frac = if name == Name::FigureSweep {
        // The sweep builds its workloads and GPUs inside the pass.
        setup_s / pass_s
    } else {
        setup_s / (setup_s + pass_s)
    };
    let mut m = c.metrics();
    m.extend([
        Metric::new(
            "workloads.calls_per_kcycle",
            w.calls as f64 / kc,
            "1/kcycle",
        ),
        Metric::new("workloads.ns_per_kcycle", workload_ns, "ns/kcycle"),
    ]);
    m.extend(
        LAYERS
            .iter()
            .zip(layer_ns)
            .map(|(l, ns)| Metric::new(format!("{l}.ns_per_kcycle"), ns, "ns/kcycle")),
    );
    m.extend([
        Metric::new("gpu.total_ns_per_kcycle", total, "ns/kcycle"),
        // The driver, issue logic and SIMT stacks: what no replay covers.
        Metric::new(
            "gpu.unattributed_ns_per_kcycle",
            total - attributed,
            "ns/kcycle",
        ),
        Metric::new(
            "observe.metrics_ns_per_kcycle",
            median(&observe_cost) * 1e9 / kc,
            "ns/kcycle",
        ),
        Metric::new(
            "setup.build_s",
            median(&setups.iter().map(|s| s.build_s).collect::<Vec<_>>()),
            "s",
        ),
        Metric::new(
            "setup.gpu_new_s",
            median(&setups.iter().map(|s| s.gpu_new_s).collect::<Vec<_>>()),
            "s",
        ),
        Metric::new("sweep.sims", inputs.jobs.len() as f64, "count"),
        Metric::new("sweep.setup_frac", setup_frac, "fraction"),
        Metric::new("trace.overhead_frac", median(&overhead), "fraction"),
    ]);
    m
}

fn write_spans(name: Name, seed: u64, spans: &Spans) {
    let path = spans_path(name, seed);
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, spans.to_json()));
    match written {
        Ok(()) => eprintln!(
            "[{}] {} spans written to {}",
            name.as_str(),
            spans.spans.len(),
            path.display()
        ),
        Err(e) => eprintln!(
            "[{}] could not write spans to {}: {e}",
            name.as_str(),
            path.display()
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::DEFAULT_SEED;

    #[test]
    fn every_layer_replay_has_a_stream_on_every_workload() {
        for name in Name::ALL {
            let (inputs, _) = workloads::setup(name, DEFAULT_SEED);
            let w = wrapped_pass(&inputs, &mut Spans::new(), 0, 0.0);
            let prepared = prepare(&inputs, &w);
            let sum = |f: &dyn Fn(&Prepared<'_>) -> usize| prepared.iter().map(f).sum::<usize>();
            let counts = [
                ("coalesce and mmu", sum(&|p| p.groups.len())),
                (
                    "tlb",
                    sum(&|p| {
                        if p.job.cfg.mmu.is_ideal() {
                            0
                        } else {
                            p.reqs.len()
                        }
                    }),
                ),
                ("vm", sum(&|p| p.miss_pages.len())),
                ("l1", sum(&|p| p.lines.len())),
                ("mem", sum(&|p| p.miss_lines.len())),
                ("policy", sum(&|p| p.hooks.len())),
            ];
            for (layer, n) in counts {
                assert!(n > 0, "{}: empty {layer} replay stream", name.as_str());
            }
        }
    }
}
