//! The three fixed-work workloads, each split into a set-up phase
//! ([`prepare`]: generate inputs from the seed, build every system) and a
//! measured phase ([`Prepared::execute`]: run, verify, report).
//!
//! Every system is built here with the public `SystemBuilder`, the same
//! way the repository's sweeps and SLO pipeline build theirs, so the
//! benchmark can wrap bodies and the allocation policy in a traced pass
//! and time `build`, `run` and the reporting calls separately.

use crate::fold;
use crate::host::Digest;
use crate::probe::Hooks;
use sa_core::sa_kernel::{AllocPolicyKind, DaemonSpec};
use sa_core::sa_machine::CostModel;
use sa_core::sa_sim::span::SpanBook;
use sa_core::sa_sim::{CpuState, SimDuration, SimTime};
use sa_core::sa_uthread::CriticalSectionMode;
use sa_core::scenario::systems;
use sa_core::slo::{SloCell, SloReport};
use sa_core::sweeps::{latency_rows, table5_runs, upcall_measurements};
use sa_core::{AppSpec, PolicyConfig, RunReport, System, SystemBuilder, ThreadApi};
use sa_workload::nbody::{nbody_parallel, nbody_sequential, NBodyConfig, NBodyHandle};
use sa_workload::openloop::shard_listener;
use sa_workload::synthetic::thread_churn;
use std::cell::RefCell;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::time::Instant;

/// The seed at which every workload reproduces the repository's default
/// configuration (and `paper` its committed golden outputs).
pub const DEFAULT_SEED: u64 = 1;

/// The churn application's per-thread TCB budget (hot bytes per peak
/// row), the same bound the repository's `churn` command enforces.
const CHURN_BYTES_PER_THREAD_LIMIT: f64 = 256.0;

/// Window width of the windowed ledger when instrumentation is on: the
/// SLO profiles' width, so the `slo_bursty` report matches the
/// repository's `slo` command.
const WINDOW: SimDuration = SimDuration::from_millis(50);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Tables 1/4, §5.2, Figure 1, Figure 2 and Table 5.
    Paper,
    /// The 120k-request bursty open-loop SLO profile, three systems.
    SloBursty,
    /// 10⁶ fork/yield/exit lifecycles in one scheduler-activation space.
    ThreadChurn,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Paper, Workload::SloBursty, Workload::ThreadChurn];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper => "paper",
            Workload::SloBursty => "slo_bursty",
            Workload::ThreadChurn => "thread_churn",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload runs with the windowed ledger and decision
    /// audit on (the SLO report needs both; the others run bare).
    pub fn instrumented(self) -> bool {
        self == Workload::SloBursty
    }
}

/// How one pass is set up.
#[derive(Debug, Clone)]
pub struct PassConfig {
    pub workload: Workload,
    pub seed: u64,
    /// Test-sized inputs: the same code paths on a fraction of the work.
    pub small: bool,
    /// Windowed metrics and decision audit on.
    pub instrumented: bool,
    pub hooks: Hooks,
}

impl PassConfig {
    pub fn new(workload: Workload, seed: u64) -> Self {
        PassConfig {
            workload,
            seed,
            small: false,
            instrumented: workload.instrumented(),
            hooks: Hooks::default(),
        }
    }

    /// How far the seed is from [`DEFAULT_SEED`]; added to each
    /// workload's own default seed.
    fn offset(&self) -> u64 {
        self.seed.wrapping_sub(DEFAULT_SEED)
    }

    /// Byte-compare against the committed outputs (full size, default
    /// seed; instrumentation does not change them).
    fn compares_goldens(&self) -> bool {
        !self.small && self.seed == DEFAULT_SEED
    }
}

/// Output checks of a pass: each counts as attempted, and a failing one
/// keeps its message.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failures.extend(other.failures);
    }
}

/// Counters read from the program's public metrics after a pass, summed
/// over every system the pass ran.
#[derive(Debug, Default, Clone)]
pub struct Counters {
    pub events: u64,
    pub segs: u64,
    pub rebalances: u64,
    pub reallocations: u64,
    pub decisions: u64,
    pub upcall_events: u64,
    pub upcall_batches: u64,
    pub preemptions: u64,
    pub acts_fresh: u64,
    pub acts_cached: u64,
    pub traps: u64,
    pub disk_ops: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub ready_wait_ns: u64,
    pub tcb_rows: u64,
    pub hot_bytes: u64,
}

/// Everything one pass produced.
#[derive(Debug, Default)]
pub struct PassOutput {
    /// Digest of every simulated output of the pass.
    pub digest: Digest,
    pub checks: Checks,
    pub counters: Counters,
    /// Host seconds in `SystemBuilder::build`.
    pub build_s: f64,
    /// Host seconds in `System::run`.
    pub run_s: f64,
    /// Host seconds in ledger verification, report folding and `render_*`.
    pub report_s: f64,
    /// Simulated completion times (ns, sorted) of the
    /// scheduler-activation system's units of work: requests on
    /// `slo_bursty`, N-body applications on `paper`, the churn
    /// application on `thread_churn`.
    pub sa_latency_ns: Vec<u64>,
}

struct Cell {
    label: String,
    sys: System,
    nbody: Vec<NBodyHandle>,
    book: Option<Rc<RefCell<SpanBook>>>,
    sa: bool,
}

/// A pass whose systems are built and ready to run.
pub struct Prepared {
    cfg: PassConfig,
    cells: Vec<Cell>,
    build_s: f64,
}

/// The set-up phase: derives inputs from the seed and builds every system.
pub fn prepare(cfg: &PassConfig) -> Prepared {
    let mut p = Prepared {
        cfg: cfg.clone(),
        cells: Vec::new(),
        build_s: 0.0,
    };
    match cfg.workload {
        Workload::Paper => prepare_paper(&mut p),
        Workload::SloBursty => prepare_slo(&mut p),
        Workload::ThreadChurn => prepare_churn(&mut p),
    }
    p
}

impl Prepared {
    fn base(&self, cpus: u16) -> SystemBuilder {
        let b = SystemBuilder::new(cpus).alloc_policy(ALLOC);
        if self.cfg.instrumented {
            b.windowed_metrics(WINDOW).decision_audit(true)
        } else {
            b
        }
    }

    fn push(&mut self, label: String, builder: SystemBuilder, sa: bool) -> &mut Cell {
        let t = Instant::now();
        let mut sys = builder.build();
        self.build_s += t.elapsed().as_secs_f64();
        self.cfg.hooks.install_alloc(&mut sys, ALLOC);
        self.cells.push(Cell {
            label,
            sys,
            nbody: Vec::new(),
            book: None,
            sa,
        });
        self.cells.last_mut().expect("just pushed")
    }

    /// The measured phase: runs every system, verifies, and reports.
    /// The systems stay alive until `self` drops, outside the phase.
    pub fn execute(&mut self) -> PassOutput {
        let mut out = PassOutput {
            build_s: self.build_s,
            ..PassOutput::default()
        };
        match self.cfg.workload {
            Workload::Paper => execute_paper(self, &mut out),
            Workload::SloBursty => execute_slo(self, &mut out),
            Workload::ThreadChurn => execute_churn(self, &mut out),
        }
        out.sa_latency_ns.sort_unstable();
        out
    }
}

/// The policy pair every workload runs under: the paper's default.
const ALLOC: AllocPolicyKind = AllocPolicyKind::SpaceShareEven;

fn is_sa(api: &ThreadApi) -> bool {
    matches!(api, ThreadApi::SchedulerActivations { .. })
}

/// Runs one cell (a panic counts as a failed check, not an abort),
/// verifies its flat ledger, and folds its counters into the pass.
fn run_cell(cell: &mut Cell, out: &mut PassOutput) -> Option<RunReport> {
    let t = Instant::now();
    let report = catch_unwind(AssertUnwindSafe(|| cell.sys.run()));
    out.run_s += t.elapsed().as_secs_f64();
    let label = &cell.label;
    let report = match report {
        Ok(r) => r,
        Err(_) => {
            out.checks.check(false, || format!("{label}: run panicked"));
            return None;
        }
    };
    out.checks.check(report.all_done(), || {
        format!("{label}: {:?}", report.outcome)
    });
    if !report.all_done() {
        return None;
    }
    let t = Instant::now();
    let verified = cell.sys.time_ledger().verify(report.outcome.end);
    out.report_s += t.elapsed().as_secs_f64();
    out.checks.check(verified.is_ok(), || {
        format!("{label}: flat ledger: {verified:?}")
    });

    let sys = &cell.sys;
    let c = &mut out.counters;
    let m = sys.kernel().kernel_metrics();
    c.events += m.events.get();
    c.segs += m.segs.get();
    c.rebalances += m.rebalances.get();
    c.reallocations += m.reallocations.get();
    c.decisions += sys.decision_log().map_or(0, |l| l.decisions.len() as u64);
    for &app in sys.apps() {
        let s = sys.metrics(app);
        c.upcall_events += s.upcalls_by_kind.iter().map(|k| k.get()).sum::<u64>();
        c.upcall_batches += s.upcall_batches.get();
        c.preemptions += s.preemptions.get();
        c.acts_fresh += s.acts_fresh.get();
        c.acts_cached += s.acts_cached.get();
        c.traps += s.traps.get();
        c.disk_ops += s.disk_ops.get();
        c.ready_wait_ns += sys.runtime_ready_wait_ns(app);
        if let Some(slab) = sys.tcb_slab_stats(app) {
            c.tcb_rows += slab.rows as u64;
            c.hot_bytes += slab.hot_bytes as u64;
        }
    }
    for h in &cell.nbody {
        c.cache_hits += h.cache_hits();
        c.cache_misses += h.cache_misses();
    }

    let d = &mut out.digest;
    d.bytes(label.as_bytes());
    d.u64(report.outcome.end.as_nanos());
    d.u64(m.events.get());
    d.u64(m.segs.get());
    d.u64(m.reallocations.get());
    for e in &report.elapsed {
        d.u64(e.map_or(u64::MAX, |e| e.as_nanos()));
    }
    Some(report)
}

/// Times a reporting step into `report_s` and digests what it rendered.
fn render(out: &mut PassOutput, f: impl FnOnce() -> String) -> String {
    let t = Instant::now();
    let text = f();
    out.report_s += t.elapsed().as_secs_f64();
    out.digest.bytes(text.as_bytes());
    text
}

fn golden(out: &mut PassOutput, name: &str, got: &str, want: &str) {
    out.checks.check(got == want, || {
        format!("{name}: output differs from the committed copy:\n{got}")
    });
}

// ---------------------------------------------------------------------
// paper
// ---------------------------------------------------------------------

const FIG2_FRACS: [f64; 7] = [1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4];
const PAPER_CPUS: u16 = 6;

fn paper_nbody(cfg: &PassConfig) -> NBodyConfig {
    let base = NBodyConfig::default();
    let mut n = if cfg.small {
        NBodyConfig {
            bodies: 150,
            steps: 1,
            ..base
        }
    } else {
        base
    };
    n.seed = n.seed.wrapping_add(cfg.offset());
    n
}

fn prepare_paper(p: &mut Prepared) {
    let nbody = paper_nbody(&p.cfg);
    let seed = p.cfg.seed;
    let hooks = p.cfg.hooks.clone();
    let run_limit = SimTime::from_millis(3_600_000);

    // The sequential baseline every speedup divides by (Fig. 1, Table 5).
    let (body, handle) = nbody_sequential(nbody.clone());
    let b = p.base(1).seed(seed).run_limit(run_limit).app(AppSpec::new(
        "nbody-seq",
        ThreadApi::TopazThreads,
        hooks.body(body),
    ));
    p.push("seq".into(), b, false).nbody.push(handle);

    let add = |p: &mut Prepared,
               label: String,
               api: ThreadApi,
               cpus: u16,
               cfg: NBodyConfig,
               copies: usize| {
        let mut b = p
            .base(cpus)
            .cost(CostModel::firefly_prototype())
            .seed(seed)
            .daemons(DaemonSpec::topaz_default_set())
            .run_limit(run_limit);
        let mut handles = Vec::new();
        for i in 0..copies {
            let mut c = cfg.clone();
            c.seed = cfg.seed + i as u64;
            let (body, h) = nbody_parallel(c);
            handles.push(h);
            b = b.app(AppSpec::new(
                format!("nbody-{i}"),
                api.clone(),
                hooks.body(body),
            ));
        }
        let sa = is_sa(&api);
        p.push(label, b, sa).nbody = handles;
    };
    for cpus in 1..=PAPER_CPUS {
        for (name, api) in systems(cpus as u32) {
            // Topaz parallelism cannot be capped from user level, so its
            // cells size the machine to the row (as `fig1_grid` does).
            let machine = if name == "Topaz threads" {
                cpus
            } else {
                PAPER_CPUS
            };
            add(
                p,
                format!("fig1 {cpus} {name}"),
                api,
                machine,
                nbody.clone(),
                1,
            );
        }
    }
    for frac in FIG2_FRACS {
        for (name, api) in systems(PAPER_CPUS as u32) {
            let cfg = NBodyConfig {
                memory_fraction: frac,
                ..nbody.clone()
            };
            add(p, format!("fig2 {frac} {name}"), api, PAPER_CPUS, cfg, 1);
        }
    }
    for (name, api) in systems(PAPER_CPUS as u32) {
        add(
            p,
            format!("table5 {name}"),
            api,
            PAPER_CPUS,
            nbody.clone(),
            2,
        );
    }
}

fn execute_paper(p: &mut Prepared, out: &mut PassOutput) {
    // Mean application elapsed time per cell, `None` where the cell failed.
    let mut elapsed: Vec<Option<SimDuration>> = Vec::with_capacity(p.cells.len());
    for cell in &mut p.cells {
        let Some(report) = run_cell(cell, out) else {
            elapsed.push(None);
            continue;
        };
        let apps = report.elapsed.len() as u64;
        let total: u64 = report.elapsed.iter().flatten().map(|e| e.as_nanos()).sum();
        if cell.sa {
            out.sa_latency_ns
                .extend(report.elapsed.iter().flatten().map(|e| e.as_nanos()));
        }
        elapsed.push(Some(SimDuration::from_nanos(total / apps)));
    }

    if let Some(e) = elapsed.iter().copied().collect::<Option<Vec<_>>>() {
        let (seq, rest) = e.split_first().expect("the baseline cell is first");
        let (fig1, rest) = rest.split_at(3 * PAPER_CPUS as usize);
        let (fig2, table5) = rest.split_at(3 * FIG2_FRACS.len());
        let speedup = |d: &SimDuration| seq.as_nanos() as f64 / d.as_nanos() as f64;
        let f1 = render(out, || fold::render_fig1(*seq, fig1, speedup));
        let f2 = render(out, || fold::render_fig2(&FIG2_FRACS, fig2));
        let t5 = render(out, || fold::render_table5(table5, speedup));
        if p.cfg.compares_goldens() {
            golden(
                out,
                "fig1",
                &f1,
                include_str!("../../tests/golden/fig1.stdout"),
            );
            golden(
                out,
                "fig2",
                &f2,
                include_str!("../../tests/golden/fig2.stdout"),
            );
            golden(
                out,
                "table5",
                &t5,
                include_str!("../../tests/golden/table5.stdout"),
            );
        }
    } else {
        out.checks.check(false, || {
            "paper: figures not rendered (a cell failed)".into()
        });
    }

    for text in micro_tables(&mut out.checks, &mut Vec::new()) {
        out.digest.bytes(text.as_bytes());
    }
}

/// Fidelity to the paper: the mean relative error (%) of every value the
/// repository prints next to a paper value — Tables 1/4, §5.2 and
/// Table 5 — at the configuration it prints them (the default seed and
/// size). It depends on no benchmark input, so every workload reports
/// the same figure; it moves only when the simulated results do.
pub fn paper_err_pct(checks: &mut Checks) -> f64 {
    let mut pairs = Vec::new();
    micro_tables(checks, &mut pairs);
    let nbody = NBodyConfig::default();
    let cost = CostModel::firefly_prototype();
    let t5 = catch_unwind(AssertUnwindSafe(|| {
        table5_runs(
            &nbody,
            &cost,
            PAPER_CPUS,
            PolicyConfig::default(),
            DEFAULT_SEED,
            false,
            NonZeroUsize::MIN,
        )
    }));
    if let Ok(Ok(t5)) = t5 {
        let speedup = |d: &SimDuration| t5.seq.as_nanos() as f64 / d.as_nanos() as f64;
        let elapsed: Vec<_> = t5.multi.iter().map(|r| r.elapsed).collect();
        let text = fold::render_table5(&elapsed, speedup);
        checks.check(
            text == include_str!("../../tests/golden/table5.stdout"),
            || format!("table5 (default configuration) differs from the committed copy:\n{text}"),
        );
        for (d, paper) in elapsed.iter().zip(fold::TABLE5_PAPER) {
            pairs.push((fold::round2(speedup(d)), paper));
        }
    } else {
        checks.check(false, || {
            "table5 (default configuration): a run panicked".into()
        });
    }
    let sum: f64 = pairs.iter().map(|(m, p)| ((m - p) / p).abs()).sum();
    100.0 * sum / pairs.len().max(1) as f64
}

/// Tables 1/4 and §5.2, the paper's operation latencies, checked against
/// the expected copies under `perfbench/expected/`. Pushes each printed
/// `(measured, paper)` pair and returns the rendered tables.
fn micro_tables(checks: &mut Checks, pairs: &mut Vec<(f64, f64)>) -> Vec<String> {
    let jobs = NonZeroUsize::MIN;
    let cost = CostModel::firefly_prototype();
    let zero = CriticalSectionMode::ZeroOverhead;
    let rows: [(&str, ThreadApi, CriticalSectionMode, f64, f64); 5] = [
        (
            "FastThreads on Topaz threads",
            ThreadApi::OrigFastThreads { vps: 1 },
            zero,
            34.0,
            37.0,
        ),
        (
            "FastThreads on Sched Activations",
            ThreadApi::SchedulerActivations { max_processors: 1 },
            zero,
            37.0,
            42.0,
        ),
        (
            "  without zero-overhead CS",
            ThreadApi::SchedulerActivations { max_processors: 1 },
            CriticalSectionMode::ExplicitFlag,
            49.0,
            48.0,
        ),
        ("Topaz threads", ThreadApi::TopazThreads, zero, 948.0, 441.0),
        (
            "Ultrix processes",
            ThreadApi::UltrixProcesses,
            zero,
            11300.0,
            1840.0,
        ),
    ];
    let specs = rows.iter().map(|r| (r.1.clone(), r.2)).collect();
    let micro = catch_unwind(AssertUnwindSafe(|| {
        (latency_rows(specs, &cost, jobs), upcall_measurements(jobs))
    }));
    let Ok((Ok(lat), Ok(up))) = micro else {
        checks.check(false, || "Tables 1/4/§5.2: a measurement panicked".into());
        return Vec::new();
    };
    // Table 1 is Table 4's first and last two rows.
    let t1_rows: Vec<_> = [0, 3, 4]
        .into_iter()
        .map(|i| {
            let name = if i == 0 { "FastThreads" } else { rows[i].0 };
            (
                name,
                lat[i].null_fork,
                rows[i].3,
                lat[i].signal_wait,
                rows[i].4,
            )
        })
        .collect();
    let t4_rows: Vec<_> = rows
        .iter()
        .zip(&lat)
        .map(|(r, l)| (r.0, l.null_fork, r.3, l.signal_wait, r.4))
        .collect();
    let texts = [
        (
            "table1",
            fold::render_table1(&t1_rows),
            include_str!("../expected/table1.txt"),
        ),
        (
            "table4",
            fold::render_table4(&t4_rows),
            include_str!("../expected/table4.txt"),
        ),
        (
            "upcall",
            fold::render_upcall(&up),
            include_str!("../expected/upcall.txt"),
        ),
    ];
    for (_, nf, nf_paper, sw, sw_paper) in t1_rows.iter().chain(&t4_rows) {
        pairs.push((fold::round1(nf.as_micros_f64()), *nf_paper));
        pairs.push((fold::round1(sw.as_micros_f64()), *sw_paper));
    }
    let proto = up.proto.as_micros_f64();
    let topaz = up.topaz.as_micros_f64();
    pairs.push((proto.round(), 2400.0));
    pairs.push((topaz.round(), 441.0));
    pairs.push((fold::round1(proto / topaz), 5.0));
    texts
        .into_iter()
        .map(|(name, got, want)| {
            checks.check(got == want, || {
                format!("{name}: output differs from the expected copy:\n{got}")
            });
            got
        })
        .collect()
}

// ---------------------------------------------------------------------
// slo_bursty
// ---------------------------------------------------------------------

fn slo_profile(cfg: &PassConfig) -> sa_core::slo::SloProfile {
    let mut profile = sa_core::slo::find("slo_bursty").expect("slo_bursty is a registered profile");
    if cfg.small {
        profile.cfg.requests = 4_000;
    }
    profile.cfg.seed = profile.cfg.seed.wrapping_add(cfg.offset());
    profile
}

fn prepare_slo(p: &mut Prepared) {
    let profile = slo_profile(&p.cfg);
    let hooks = p.cfg.hooks.clone();
    for (name, api) in systems(profile.cpus as u32) {
        let book = Rc::new(RefCell::new(SpanBook::with_capacity(profile.cfg.requests)));
        let mut b = p
            .base(profile.cpus)
            .daemons(DaemonSpec::topaz_default_set());
        for shard in 0..profile.cfg.shards {
            let body = shard_listener(&profile.cfg, shard, Rc::clone(&book));
            b = b.app(AppSpec::new(
                format!("slo{shard}"),
                api.clone(),
                hooks.body(body),
            ));
        }
        p.push(name.to_string(), b, is_sa(&api)).book = Some(book);
    }
}

fn execute_slo(p: &mut Prepared, out: &mut PassOutput) {
    let profile = slo_profile(&p.cfg);
    let requests = profile.cfg.requests;
    let mut cells: Vec<SloCell> = Vec::new();
    let names = systems(profile.cpus as u32).map(|(name, _)| name);
    for (cell, system) in p.cells.iter_mut().zip(names) {
        let Some(report) = run_cell(cell, out) else {
            continue;
        };
        let makespan = report.outcome.end;
        let book = cell.book.take().expect("slo cells carry a span book");
        let spans = book.borrow().spans().to_vec();
        out.checks.check(
            spans.len() == requests && spans.iter().all(|s| s.done),
            || {
                format!(
                    "{system}: {} of {requests} requests completed",
                    spans.iter().filter(|s| s.done).count()
                )
            },
        );
        if cell.sa {
            out.sa_latency_ns
                .extend(spans.iter().map(|s| s.response().as_nanos()));
        }
        for s in &spans {
            out.digest.u64(s.response().as_nanos());
        }

        // Exact span-vs-ledger reconciliation: per shard, summed request
        // service equals the ledger's user time for that space.
        let t = Instant::now();
        let ledger = cell.sys.time_ledger();
        let first_app = ledger.num_spaces() - cell.sys.apps().len();
        let mut service = vec![0u64; cell.sys.apps().len()];
        for s in &spans {
            service[s.shard as usize] += s.service_ns;
        }
        let per_shard: Vec<(u64, u64)> = service
            .iter()
            .enumerate()
            .map(|(i, &svc)| (svc, ledger.space_ns(first_app + i, CpuState::User)))
            .collect();
        out.report_s += t.elapsed().as_secs_f64();
        out.checks.check(per_shard.iter().all(|(a, b)| a == b), || {
            format!("{system}: span service vs ledger running_user {per_shard:?}")
        });

        if !p.cfg.instrumented {
            continue;
        }
        let t = Instant::now();
        let windowed = cell.sys.windowed_ledger().expect("windowed metrics are on");
        let wv = windowed.verify(makespan);
        let dwell = cell.sys.dwell_ledger().expect("decision audit is on");
        let dv = dwell.verify(makespan);
        let slo_cell = fold::slo_cell(system, makespan, &spans, per_shard, &windowed);
        out.report_s += t.elapsed().as_secs_f64();
        out.checks
            .check(wv.is_ok(), || format!("{system}: windowed ledger: {wv:?}"));
        out.checks
            .check(dv.is_ok(), || format!("{system}: dwell ledger: {dv:?}"));
        let r = &slo_cell.reconcile;
        out.checks
            .check(r.windowed_total_ns == r.machine_total_ns, || {
                format!(
                    "{system}: windowed states {} != cpus x makespan {}",
                    r.windowed_total_ns, r.machine_total_ns
                )
            });
        cells.push(slo_cell);
    }
    if p.cfg.instrumented {
        out.checks.check(cells.len() == p.cells.len(), || {
            "slo_bursty: report not rendered (a cell failed)".into()
        });
        if cells.len() == p.cells.len() {
            let report = SloReport {
                profile_name: profile.name,
                cpus: profile.cpus,
                window: profile.window,
                cfg: profile.cfg.clone(),
                policies: PolicyConfig::default(),
                cells,
            };
            render(out, || sa_core::slo::render_table(&report));
        }
    }
}

// ---------------------------------------------------------------------
// thread_churn
// ---------------------------------------------------------------------

fn prepare_churn(p: &mut Prepared) {
    let (total, window) = if p.cfg.small {
        (20_000, 2_048)
    } else {
        (1_000_000, 8_192)
    };
    // The seed varies the children's compute burst around the
    // repository's 2 µs, so each seed is a different simulation of the
    // same lifecycle mix.
    let work = SimDuration::from_nanos(2_000 + (p.cfg.offset() % 8) * 125);
    let body = p.cfg.hooks.body(thread_churn(total, window, work));
    let b = p
        .base(4)
        .cost(CostModel::firefly_prototype())
        .seed(7u64.wrapping_add(p.cfg.offset()))
        .run_limit(SimTime::from_millis(3_600_000))
        .app(AppSpec::new(
            "thread-churn",
            ThreadApi::SchedulerActivations { max_processors: 4 },
            body,
        ));
    p.push("thread-churn".into(), b, true);
}

fn execute_churn(p: &mut Prepared, out: &mut PassOutput) {
    let cell = &mut p.cells[0];
    let Some(report) = run_cell(cell, out) else {
        return;
    };
    out.sa_latency_ns
        .extend(report.elapsed.iter().flatten().map(|e| e.as_nanos()));
    let app = cell.sys.apps()[0];
    let slab = cell.sys.tcb_slab_stats(app);
    out.checks
        .check(slab.is_some(), || "thread-churn: no slab stats".into());
    if let Some(s) = slab {
        let per_thread = s.hot_bytes as f64 / s.rows as f64;
        out.checks.check(per_thread <= CHURN_BYTES_PER_THREAD_LIMIT, || {
            format!("thread-churn: {per_thread:.1} hot bytes per thread exceeds {CHURN_BYTES_PER_THREAD_LIMIT}")
        });
        out.digest.u64(s.rows as u64);
        out.digest.u64(s.hot_bytes as u64);
    }
}
