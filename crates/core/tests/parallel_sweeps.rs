//! Host-parallel sweeps must be invisible in the results: running a grid
//! at `jobs = 1` and `jobs = 4` must produce identical per-cell outputs —
//! virtual times, statistics, and trace record streams — because each
//! cell is a self-contained single-threaded simulation and the harness
//! collects results by job index.

use sa_core::experiments::NBodyRun;
use sa_core::scenario::PolicyConfig;
use sa_core::sweeps::{fig1_grid, fig2_sweep, table5_runs};
use sa_core::{AppSpec, SystemBuilder, ThreadApi};
use sa_harness::{run_ordered, Job};
use sa_machine::CostModel;
use sa_sim::{Trace, TraceRecord};
use sa_workload::nbody::NBodyConfig;
use std::num::NonZeroUsize;

fn jobs(n: usize) -> NonZeroUsize {
    NonZeroUsize::new(n).unwrap()
}

/// A small Figure 1-shaped configuration that keeps the grids cheap.
fn small_cfg() -> NBodyConfig {
    NBodyConfig {
        bodies: 60,
        steps: 1,
        ..NBodyConfig::default()
    }
}

/// Everything a sweep job closes over must be `Send` — the audit the
/// harness's API enforces at every call site, stated here explicitly so
/// a regression (e.g. an `Rc` slipping into a config struct) fails this
/// test rather than some distant bench build.
#[test]
fn sweep_inputs_and_outputs_are_send() {
    fn assert_send<T: Send>() {}
    // Inputs: the configuration surface jobs close over.
    assert_send::<ThreadApi>();
    assert_send::<CostModel>();
    assert_send::<NBodyConfig>();
    assert_send::<sa_kernel::DaemonSpec>();
    assert_send::<sa_machine::disk::DiskConfig>();
    assert_send::<sa_uthread::FtConfig>();
    assert_send::<sa_uthread::CriticalSectionMode>();
    assert_send::<sa_uthread::SpinPolicy>();
    assert_send::<sa_sim::SimTime>();
    assert_send::<sa_sim::SimDuration>();
    // Outputs: what jobs hand back across the thread boundary.
    assert_send::<NBodyRun>();
    assert_send::<sa_core::experiments::ThreadOpLatencies>();
    assert_send::<sa_core::RunReport>();
    assert_send::<TraceRecord>();
    assert_send::<Vec<TraceRecord>>();
    // NOTE deliberately absent: `AppSpec` / `Box<dyn ThreadBody>` are
    // *not* `Send` — workload bodies share per-space state via
    // `Rc<RefCell<…>>` (the simulator is single-threaded). Bodies are
    // therefore constructed *inside* each job, never sent across.
}

#[test]
fn fig1_grid_parallel_equals_serial_per_cell() {
    let cfg = small_cfg();
    let cost = CostModel::firefly_prototype();
    let serial = fig1_grid(&cfg, &cost, 4, 1..=2, PolicyConfig::default(), 1, jobs(1)).unwrap();
    let parallel = fig1_grid(&cfg, &cost, 4, 1..=2, PolicyConfig::default(), 1, jobs(4)).unwrap();
    assert_eq!(serial.seq, parallel.seq);
    assert_eq!(serial.rows.len(), parallel.rows.len());
    for (i, (s, p)) in serial.rows.iter().zip(&parallel.rows).enumerate() {
        assert_eq!(s, p, "Figure 1 grid row {i} differs between job counts");
    }
}

#[test]
fn fig2_sweep_parallel_equals_serial_per_cell() {
    let cfg = small_cfg();
    let cost = CostModel::firefly_prototype();
    let fracs = [1.0, 0.5];
    let serial = fig2_sweep(
        &cfg,
        &cost,
        4,
        &fracs,
        false,
        PolicyConfig::default(),
        1,
        jobs(1),
    )
    .unwrap();
    let parallel = fig2_sweep(
        &cfg,
        &cost,
        4,
        &fracs,
        false,
        PolicyConfig::default(),
        1,
        jobs(4),
    )
    .unwrap();
    assert_eq!(serial, parallel);
}

#[test]
fn table5_runs_parallel_equals_serial_per_cell() {
    let cfg = small_cfg();
    let cost = CostModel::firefly_prototype();
    let serial = table5_runs(&cfg, &cost, 6, PolicyConfig::default(), 1, true, jobs(1)).unwrap();
    let parallel = table5_runs(&cfg, &cost, 6, PolicyConfig::default(), 1, true, jobs(4)).unwrap();
    assert_eq!(serial, parallel);
}

/// One traced cell: a small N-body run under scheduler activations whose
/// full trace-record stream is the job's result. Every cell takes the
/// policy pair it should run under, so the identity tests below cover
/// the entire allocation × ready-queue grid, not just the defaults.
fn traced_cell(seed: u64, policies: PolicyConfig) -> (Vec<TraceRecord>, u64) {
    let cfg = NBodyConfig {
        bodies: 40,
        steps: 1,
        ..NBodyConfig::default()
    };
    let (body, handle) = sa_workload::nbody::nbody_parallel(cfg);
    let mut app = AppSpec::new(
        "traced-cell",
        ThreadApi::SchedulerActivations { max_processors: 4 },
        body,
    );
    app.ready_policy = policies.ready;
    let mut sys = SystemBuilder::new(4)
        .cost(CostModel::firefly_prototype())
        .seed(seed)
        .daemons(sa_kernel::DaemonSpec::topaz_default_set())
        .alloc_policy(policies.alloc)
        .trace(Trace::unbounded())
        .app(app)
        .build();
    let report = sys.run();
    assert!(report.all_done(), "{:?}", report.outcome);
    let records = sys.kernel().trace().records().cloned().collect();
    (records, handle.cache_misses())
}

#[test]
fn trace_record_streams_are_identical_across_job_counts() {
    // One cell per (allocation, ready-queue) policy pair: a job count
    // must be invisible under every discipline, not just the default.
    let combos: Vec<PolicyConfig> = PolicyConfig::all().collect();
    let make = || -> Vec<Job<'_, (Vec<TraceRecord>, u64)>> {
        combos
            .iter()
            .map(|&policies| -> Job<'_, (Vec<TraceRecord>, u64)> {
                Box::new(move || traced_cell(7, policies))
            })
            .collect()
    };
    let serial = run_ordered(jobs(1), make()).unwrap();
    let parallel = run_ordered(jobs(4), make()).unwrap();
    for (i, ((s_trace, s_misses), (p_trace, p_misses))) in serial.iter().zip(&parallel).enumerate()
    {
        let combo = combos[i];
        assert!(!s_trace.is_empty(), "cell {i} ({combo}) traced nothing");
        assert_eq!(s_misses, p_misses, "cell {i} ({combo}) stats differ");
        assert_eq!(
            s_trace.len(),
            p_trace.len(),
            "cell {i} ({combo}) trace lengths differ"
        );
        for (j, (a, b)) in s_trace.iter().zip(p_trace).enumerate() {
            assert_eq!(a, b, "cell {i} ({combo}) traces diverge at record {j}");
        }
    }
}

/// A histogram cell's result: raw log2 buckets plus the rendered
/// summary strings.
type HistCell = (Vec<Vec<u64>>, Vec<String>);

/// One histogram-bearing cell: the same run as [`traced_cell`], but its
/// result is the latency histograms (raw log2 buckets *and* the rendered
/// summary strings) rather than the trace stream.
fn histogram_cell(seed: u64, policies: PolicyConfig) -> HistCell {
    let cfg = NBodyConfig {
        bodies: 40,
        steps: 1,
        ..NBodyConfig::default()
    };
    let (body, _handle) = sa_workload::nbody::nbody_parallel(cfg);
    let mut app = AppSpec::new(
        "hist-cell",
        ThreadApi::SchedulerActivations { max_processors: 4 },
        body,
    );
    app.ready_policy = policies.ready;
    let mut sys = SystemBuilder::new(4)
        .cost(CostModel::firefly_prototype())
        .seed(seed)
        .daemons(sa_kernel::DaemonSpec::topaz_default_set())
        .alloc_policy(policies.alloc)
        .app(app)
        .build();
    let report = sys.run();
    assert!(report.all_done(), "{:?}", report.outcome);
    let app = sys.apps()[0];
    let m = sys.metrics(app);
    let buckets = vec![
        m.upcall_delivery.buckets().to_vec(),
        m.block_unblock.buckets().to_vec(),
    ];
    let rendered = vec![
        m.upcall_delivery.summary(),
        m.block_unblock.summary(),
        sys.runtime_stats(app),
    ];
    (buckets, rendered)
}

/// The latency histograms are deterministic functions of the seed: a
/// cell run under `jobs = 1` and `jobs = 4` must produce byte-identical
/// bucket arrays and rendered `p50/p90/p99` summaries.
#[test]
fn latency_histograms_are_identical_across_job_counts() {
    let combos: Vec<PolicyConfig> = PolicyConfig::all().collect();
    let make = || -> Vec<Job<'_, HistCell>> {
        combos
            .iter()
            .map(|&policies| -> Job<'_, HistCell> {
                Box::new(move || histogram_cell(11, policies))
            })
            .collect()
    };
    let serial = run_ordered(jobs(1), make()).unwrap();
    let parallel = run_ordered(jobs(4), make()).unwrap();
    for (i, ((s_buckets, s_text), (p_buckets, p_text))) in serial.iter().zip(&parallel).enumerate()
    {
        let combo = combos[i];
        assert_eq!(
            s_buckets, p_buckets,
            "cell {i} ({combo}) histogram buckets differ"
        );
        assert_eq!(
            s_text, p_text,
            "cell {i} ({combo}) rendered summaries differ"
        );
        assert!(
            s_buckets[0].iter().sum::<u64>() > 0,
            "cell {i} ({combo}) recorded no upcall-delivery samples"
        );
    }
}

#[test]
fn panicking_cell_reports_its_index_not_a_torn_sweep() {
    let tasks: Vec<Job<'_, u32>> = vec![
        Box::new(|| 1),
        Box::new(|| panic!("cell exploded")),
        Box::new(|| 3),
    ];
    let err = run_ordered(jobs(4), tasks).unwrap_err();
    assert_eq!(err.index, 1);
    assert!(err.message.contains("cell exploded"));
}

/// A multi-copy (Table 5-shaped) run under a bounded trace must cap its
/// memory: the ring evicts old records instead of growing with the run.
#[test]
fn bounded_trace_caps_multi_copy_runs() {
    const CAP: usize = 32;
    let mut builder = SystemBuilder::new(4)
        .cost(CostModel::firefly_prototype())
        .daemons(sa_kernel::DaemonSpec::topaz_default_set())
        .trace(Trace::bounded(CAP));
    for i in 0..2 {
        let cfg = NBodyConfig {
            bodies: 40,
            steps: 1,
            seed: 42 + i,
            ..NBodyConfig::default()
        };
        let (body, _h) = sa_workload::nbody::nbody_parallel(cfg);
        builder = builder.app(AppSpec::new(
            format!("copy-{i}"),
            ThreadApi::SchedulerActivations { max_processors: 4 },
            body,
        ));
    }
    let mut sys = builder.build();
    let report = sys.run();
    assert!(report.all_done(), "{:?}", report.outcome);
    let trace = sys.kernel().trace();
    assert_eq!(trace.records().count(), CAP, "ring retains exactly its cap");
    assert!(
        trace.dropped() > 0,
        "a two-copy run emits more than {CAP} records"
    );
}
