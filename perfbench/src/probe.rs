//! Outside-in probes: decorators around the public trait objects the
//! simulator calls into, so the benchmark can time the workload layer
//! (thread bodies) and the kernel's allocation policy from its own files.

use sa_core::sa_kernel::policy::{AllocPolicy, AllocView};
use sa_core::sa_kernel::AllocPolicyKind;
use sa_core::sa_machine::{Op, StepEnv, ThreadBody};
use sa_core::sa_sim::SimDuration;
use sa_core::System;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

/// Host time and call counts gathered by the decorators during one pass.
/// Atomics only because `AllocPolicy` must be `Send`; the simulation
/// itself is single-threaded, so every update is uncontended.
#[derive(Debug, Default)]
pub struct Tally {
    step_ns: AtomicU64,
    steps: AtomicU64,
    alloc_ns: AtomicU64,
    alloc_calls: AtomicU64,
}

impl Tally {
    /// Host seconds inside `ThreadBody::step`.
    pub fn step_s(&self) -> f64 {
        self.step_ns.load(Relaxed) as f64 * 1e-9
    }

    /// `ThreadBody::step` calls.
    pub fn steps(&self) -> u64 {
        self.steps.load(Relaxed)
    }

    /// Host seconds inside `AllocPolicy::targets`/`pick_cpu`.
    pub fn alloc_s(&self) -> f64 {
        self.alloc_ns.load(Relaxed) as f64 * 1e-9
    }

    /// `AllocPolicy::targets`/`pick_cpu` calls.
    pub fn alloc_calls(&self) -> u64 {
        self.alloc_calls.load(Relaxed)
    }

    fn time<T>(ns: &AtomicU64, calls: &AtomicU64, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        ns.fetch_add(t.elapsed().as_nanos() as u64, Relaxed);
        calls.fetch_add(1, Relaxed);
        out
    }
}

/// What a pass wraps around the program's trait objects. The default
/// wraps nothing: that is the untraced pass every end-to-end metric
/// comes from.
#[derive(Debug, Clone, Default)]
pub struct Hooks {
    /// Time bodies and the allocation policy into this tally.
    pub tally: Option<Arc<Tally>>,
    /// Busy-wait this long inside every body step: a synthetic slowdown
    /// of the workload layer, used to show that the gate catches one.
    pub slowdown_ns: u64,
}

impl Hooks {
    /// Hooks that time every layer into a fresh tally.
    pub fn traced() -> Self {
        Hooks {
            tally: Some(Arc::default()),
            slowdown_ns: 0,
        }
    }

    /// Wraps a thread body (and, transitively, every child it forks).
    pub fn body(&self, inner: Box<dyn ThreadBody>) -> Box<dyn ThreadBody> {
        if self.tally.is_none() && self.slowdown_ns == 0 {
            return inner;
        }
        Box::new(Decorated {
            inner,
            hooks: self.clone(),
        })
    }

    /// Replaces the kernel's allocation policy with a timed copy of
    /// `kind` through the public `Kernel::set_alloc_policy` hook.
    pub fn install_alloc(&self, sys: &mut System, kind: AllocPolicyKind) {
        if let Some(tally) = &self.tally {
            sys.kernel_mut().set_alloc_policy(Box::new(TimedAlloc {
                inner: kind.build(),
                tally: Arc::clone(tally),
            }));
        }
    }
}

struct Decorated {
    inner: Box<dyn ThreadBody>,
    hooks: Hooks,
}

fn spin(ns: u64) {
    if ns > 0 {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }
}

impl ThreadBody for Decorated {
    fn step(&mut self, env: &StepEnv) -> Op {
        let Decorated { inner, hooks } = self;
        let mut step = || {
            spin(hooks.slowdown_ns);
            inner.step(env)
        };
        let op = match &hooks.tally {
            Some(t) => Tally::time(&t.step_ns, &t.steps, step),
            None => step(),
        };
        match op {
            Op::Fork(child) => Op::Fork(hooks.body(child)),
            Op::ForkPrio(child, prio) => Op::ForkPrio(hooks.body(child), prio),
            op => op,
        }
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn span_id(&self) -> Option<u64> {
        self.inner.span_id()
    }
}

struct TimedAlloc {
    inner: Box<dyn AllocPolicy>,
    tally: Arc<Tally>,
}

impl AllocPolicy for TimedAlloc {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn targets(&self, view: &AllocView<'_>) -> (Vec<u32>, bool) {
        let t = &self.tally;
        Tally::time(&t.alloc_ns, &t.alloc_calls, || self.inner.targets(view))
    }

    fn pick_cpu(&self, view: &AllocView<'_>, space: usize, free: &[usize]) -> usize {
        let t = &self.tally;
        Tally::time(&t.alloc_ns, &t.alloc_calls, || {
            self.inner.pick_cpu(view, space, free)
        })
    }

    fn min_dwell(&self) -> Option<SimDuration> {
        self.inner.min_dwell()
    }
}
