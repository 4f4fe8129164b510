//! The allocation-policy extension point: a policy installed with
//! `Kernel::set_alloc_policy` after the system is built must drive a run
//! byte-identical to the same policy configured through
//! `SystemBuilder::alloc_policy` — same trace records, same virtual
//! timings. This pins that `Kernel::new` caches nothing from the policy
//! it was built with (for example `Hysteresis`'s minimum dwell), which is
//! what lets the repository benchmark wrap a policy in a timing shim
//! without perturbing the run it measures.

use sa_core::{AppSpec, SystemBuilder, ThreadApi};
use sa_kernel::AllocPolicyKind;
use sa_machine::CostModel;
use sa_sim::{SimDuration, Trace, TraceRecord};
use sa_workload::nbody::NBodyConfig;

/// Runs a Table 5-shaped system (two multiprogrammed copies of the N-body
/// app on scheduler activations, six CPUs) under `kind`, either
/// configured (`installed == false`) or installed into the kernel of a
/// default-policy build, and returns the full trace plus per-app elapsed
/// times.
fn table5_run(
    kind: AllocPolicyKind,
    installed: bool,
    seed: u64,
) -> (Vec<TraceRecord>, Vec<Option<SimDuration>>) {
    let cfg = NBodyConfig {
        bodies: 30,
        steps: 1,
        ..NBodyConfig::default()
    };
    let mut builder = SystemBuilder::new(6)
        .cost(CostModel::firefly_prototype())
        .seed(seed)
        .trace(Trace::bounded(200_000));
    if !installed {
        builder = builder.alloc_policy(kind);
    }
    for copy in 0..2 {
        let (body, _handle) = sa_workload::nbody::nbody_parallel(cfg.clone());
        builder = builder.app(AppSpec::new(
            format!("nbody-mp{copy}"),
            ThreadApi::SchedulerActivations { max_processors: 6 },
            body,
        ));
    }
    let mut sys = builder.build();
    if installed {
        sys.kernel_mut().set_alloc_policy(kind.build());
    }
    let report = sys.run();
    assert!(
        report.all_done(),
        "{kind}/installed={installed}: {:?}",
        report.outcome
    );
    assert_eq!(sys.kernel().trace().dropped(), 0, "trace buffer too small");
    let records = sys.kernel().trace().records().cloned().collect();
    (records, report.elapsed)
}

#[test]
fn installed_alloc_policy_matches_configured_policy() {
    for kind in AllocPolicyKind::ALL {
        let (configured, configured_elapsed) = table5_run(kind, false, 9);
        let (installed, installed_elapsed) = table5_run(kind, true, 9);
        assert_eq!(
            configured_elapsed, installed_elapsed,
            "{kind}: elapsed times diverge"
        );
        assert!(
            !configured.is_empty(),
            "{kind}: tracing produced no records"
        );
        // Element-wise, so a divergence reports the first differing record
        // instead of dumping both multi-thousand-record traces.
        for (i, (a, b)) in configured.iter().zip(&installed).enumerate() {
            assert_eq!(a, b, "{kind}: traces diverge at record {i}");
        }
        assert_eq!(configured.len(), installed.len(), "{kind}: trace lengths");
    }
}
