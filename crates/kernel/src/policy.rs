//! Pluggable processor-allocation policies: the *policy* half of the
//! allocator's policy/mechanism split.
//!
//! The paper's point (§4.1–§4.2) is that processor allocation is a policy
//! layered on a fixed mechanism — the kernel moves processors between
//! address spaces (preempt, release, grant, notify), while *which* space
//! deserves *how many* processors is a separable decision. This module
//! holds that decision. A policy sees only an [`AllocView`] — per-space
//! demand, priority, and current assignment plus per-CPU last-owner facts
//! — and answers two questions:
//!
//! 1. [`AllocPolicy::targets`]: how many processors should each space
//!    hold right now?
//! 2. [`AllocPolicy::pick_cpu`]: given several free processors, which one
//!    should a particular space receive?
//!
//! The mechanism in [`crate::alloc`] does the rest (victim selection,
//! deferred preemption at segment boundaries, §3.1 notifications).
//!
//! # Determinism rules for policy authors
//!
//! Policies run inside a deterministic single-threaded simulation whose
//! results must be byte-identical across runs and across host-parallel
//! sweep workers. A policy must therefore be a *pure function of its
//! view*: no interior mutability, no host randomness, no clocks, no
//! iteration over unordered containers. Ties must be broken by stable
//! criteria (lowest space index, lowest CPU index). The only sanctioned
//! source of time-variation is [`AllocView::rotation`], which the kernel
//! bumps once per quantum while a remainder exists.

use sa_sim::SimDuration;
use std::fmt;
use std::str::FromStr;

/// Read-only per-space facts a policy may consult.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpaceDemand {
    /// Current processor demand (0 for unstarted or finished spaces).
    /// Kernel-direct spaces' demand is read from internal kernel
    /// structures; SA spaces' demand comes from their Table 3 hints.
    pub demand: u32,
    /// Allocation priority: higher wins (kernel daemons sit above all
    /// application spaces).
    pub priority: u8,
    /// Processors currently assigned to the space.
    pub assigned: u32,
}

/// A read-only snapshot of the allocator-relevant kernel state.
pub struct AllocView<'a> {
    /// Per-space facts, indexed by space.
    pub spaces: &'a [SpaceDemand],
    /// Total processors in the machine.
    pub total_cpus: u32,
    /// Rotation counter for remainder processors: bumped once per quantum
    /// while the division leaves a remainder (§4.1 time-slicing).
    pub rotation: u32,
    /// Per-CPU: the space that last ran on this processor, if any
    /// (§4.2's cache-affinity consideration).
    pub last_space: &'a [Option<u32>],
}

/// A processor-allocation policy.
///
/// `Send` because whole simulations are fanned across host threads by the
/// sweep harness; policies are stateless values, never shared.
pub trait AllocPolicy: Send {
    /// Stable policy name (CLI `--alloc=` value).
    fn name(&self) -> &'static str;

    /// The target allocation: how many processors each space should hold.
    /// Also reports whether the division left a remainder, so the kernel
    /// knows to keep the rotation timer running.
    ///
    /// Every policy must satisfy the §4.1 invariants (proptested in
    /// `tests/policy_invariants.rs`): `targets[i] <= spaces[i].demand`,
    /// and `sum(targets) == min(total_cpus, sum(demands))` — no processor
    /// idles while any space has unmet demand, and allocations never
    /// exceed the machine.
    fn targets(&self, view: &AllocView<'_>) -> (Vec<u32>, bool);

    /// Given the free processors (`free` is non-empty, ascending), which
    /// one should `space` receive? Must return a member of `free`.
    fn pick_cpu(&self, _view: &AllocView<'_>, _space: usize, free: &[usize]) -> usize {
        free[0]
    }

    /// Minimum dwell: how long a space must hold a granted processor
    /// before the allocator may pick it as a reallocation or steal
    /// victim. `None` (the default) disables the debounce entirely — the
    /// mechanism takes the exact pre-hysteresis paths, so every policy
    /// without a dwell is byte-identical to before this hook existed.
    /// Voluntary releases (the runtime yields the processor, the space
    /// finishes) are never delayed.
    fn min_dwell(&self) -> Option<SimDuration> {
        None
    }
}

/// The paper's §4.1 policy: priorities strictly dominate, and within a
/// priority level processors are divided evenly, with unused shares
/// redistributed ("if some address spaces do not need all of the
/// processors in their share, those processors are divided evenly among
/// the remainder"). When the division leaves a remainder, the extra
/// processors go to a rotating subset of the claimants.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpaceShareEven;

impl AllocPolicy for SpaceShareEven {
    fn name(&self) -> &'static str {
        "even"
    }

    fn targets(&self, view: &AllocView<'_>) -> (Vec<u32>, bool) {
        let n = view.spaces.len();
        let mut targets = vec![0u32; n];
        let mut has_remainder = false;
        let mut avail = view.total_cpus;
        // Group space indices by priority, descending.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            view.spaces[b]
                .priority
                .cmp(&view.spaces[a].priority)
                .then(a.cmp(&b))
        });
        let mut i = 0;
        while i < order.len() && avail > 0 {
            let prio = view.spaces[order[i]].priority;
            let mut group: Vec<(usize, u32)> = Vec::new();
            while i < order.len() && view.spaces[order[i]].priority == prio {
                let idx = order[i];
                let d = view.spaces[idx].demand;
                if d > 0 {
                    group.push((idx, d));
                }
                i += 1;
            }
            // Waterfall even split within the priority level.
            while !group.is_empty() && avail > 0 {
                let share = avail / group.len() as u32;
                if share == 0 {
                    // Fewer processors than claimants: one each to a
                    // rotating window of claimants (time-slicing the
                    // remainder, deterministically).
                    group.sort_by_key(|&(idx, _)| idx);
                    has_remainder = true;
                    let len = group.len();
                    let start = (view.rotation as usize) % len;
                    for k in 0..(avail as usize) {
                        let (idx, _) = group[(start + k) % len];
                        targets[idx] += 1;
                    }
                    avail = 0;
                    break;
                }
                let satisfied: Vec<(usize, u32)> =
                    group.iter().copied().filter(|&(_, d)| d <= share).collect();
                if satisfied.is_empty() {
                    // Everyone wants at least the share: split evenly and
                    // hand the remainder out one-by-one, rotating who gets
                    // the extras.
                    group.sort_by_key(|&(idx, _)| idx);
                    let rem = (avail - share * group.len() as u32) as usize;
                    if rem > 0 {
                        has_remainder = true;
                    }
                    let len = group.len();
                    let start = (view.rotation as usize) % len;
                    for (k, &(idx, _)) in group.iter().enumerate() {
                        let gets_extra = (k + len - start) % len < rem;
                        targets[idx] += share + u32::from(gets_extra);
                    }
                    avail = 0;
                    break;
                }
                for &(idx, d) in &satisfied {
                    targets[idx] += d;
                    avail -= d;
                }
                group.retain(|&(idx, _)| !satisfied.iter().any(|&(s, _)| s == idx));
            }
        }
        (targets, has_remainder)
    }
}

/// §4.2's cache-affinity note made allocation policy: shares are divided
/// exactly as [`SpaceShareEven`] does, but when several processors are
/// free the space preferentially receives one it ran on most recently
/// ("processors idle in the context of the address space they were last
/// used in, so that they can be reclaimed cheaply").
#[derive(Debug, Clone, Copy, Default)]
pub struct Affinity;

impl AllocPolicy for Affinity {
    fn name(&self) -> &'static str {
        "affinity"
    }

    fn targets(&self, view: &AllocView<'_>) -> (Vec<u32>, bool) {
        SpaceShareEven.targets(view)
    }

    fn pick_cpu(&self, view: &AllocView<'_>, space: usize, free: &[usize]) -> usize {
        free.iter()
            .copied()
            .find(|&cpu| view.last_space.get(cpu).copied().flatten() == Some(space as u32))
            .unwrap_or(free[0])
    }
}

/// The §2.2 pathology as a policy: strict priority with no space-sharing.
/// Each space, in descending priority (ties by index), takes everything
/// it demands before any lower space sees a processor — so a demanding
/// high-priority space starves everyone below it, exactly the behavior
/// the paper's allocator exists to avoid. Useful for reproducing the
/// pathology on demand; never rotates shares.
#[derive(Debug, Clone, Copy, Default)]
pub struct StrictPriority;

impl AllocPolicy for StrictPriority {
    fn name(&self) -> &'static str {
        "strict-priority"
    }

    fn targets(&self, view: &AllocView<'_>) -> (Vec<u32>, bool) {
        let n = view.spaces.len();
        let mut targets = vec![0u32; n];
        let mut avail = view.total_cpus;
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            view.spaces[b]
                .priority
                .cmp(&view.spaces[a].priority)
                .then(a.cmp(&b))
        });
        for idx in order {
            if avail == 0 {
                break;
            }
            let take = view.spaces[idx].demand.min(avail);
            targets[idx] = take;
            avail -= take;
        }
        (targets, false)
    }
}

/// Default minimum dwell for [`Hysteresis`]: long enough to amortize the
/// upcall/stop machinery a reallocation costs (tens of microseconds per
/// move on the Firefly cost model) across many quanta, short enough that
/// the allocator still tracks bursty demand shifts.
pub const DEFAULT_MIN_DWELL: SimDuration = SimDuration::from_millis(50);

/// [`SpaceShareEven`] with reallocation hysteresis: targets are computed
/// exactly as the paper's §4.1 policy does, but a processor granted to a
/// space may not be *taken back* (reallocation victim or steal) until it
/// has dwelled there for [`Hysteresis::min_dwell`]. Bursty multi-space
/// loads otherwise make the allocator churn — a space's demand dips for
/// one quantum, its processor is pulled, and the next burst pays a full
/// grant + upcall round trip to get it back. The debounce trades a
/// bounded amount of allocation lag (at most `min_dwell` per move) for
/// that churn; the dwell ledger and `sa-experiments audit` judge the
/// trade.
#[derive(Debug, Clone, Copy)]
pub struct Hysteresis {
    /// Minimum time a granted processor is held before victim eligibility.
    pub min_dwell: SimDuration,
}

impl Default for Hysteresis {
    fn default() -> Self {
        Hysteresis {
            min_dwell: DEFAULT_MIN_DWELL,
        }
    }
}

impl AllocPolicy for Hysteresis {
    fn name(&self) -> &'static str {
        "hysteresis"
    }

    fn targets(&self, view: &AllocView<'_>) -> (Vec<u32>, bool) {
        SpaceShareEven.targets(view)
    }

    fn min_dwell(&self) -> Option<SimDuration> {
        Some(self.min_dwell)
    }
}

/// Selector for the built-in allocation policies (CLI / config surface).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AllocPolicyKind {
    /// [`SpaceShareEven`] — the paper's §4.1 default.
    #[default]
    SpaceShareEven,
    /// [`Affinity`] — §4.2 cache-affinity grant preference.
    Affinity,
    /// [`StrictPriority`] — the §2.2 starvation pathology.
    StrictPriority,
    /// [`Hysteresis`] — §4.1 shares with a minimum-dwell debounce.
    Hysteresis,
}

impl AllocPolicyKind {
    /// Every built-in policy, in CLI listing order.
    pub const ALL: [AllocPolicyKind; 4] = [
        AllocPolicyKind::SpaceShareEven,
        AllocPolicyKind::Affinity,
        AllocPolicyKind::StrictPriority,
        AllocPolicyKind::Hysteresis,
    ];

    /// Stable name (CLI `--alloc=` value).
    pub fn name(self) -> &'static str {
        match self {
            AllocPolicyKind::SpaceShareEven => "even",
            AllocPolicyKind::Affinity => "affinity",
            AllocPolicyKind::StrictPriority => "strict-priority",
            AllocPolicyKind::Hysteresis => "hysteresis",
        }
    }

    /// Instantiates the policy as a trait object.
    pub fn build(self) -> Box<dyn AllocPolicy> {
        match self {
            AllocPolicyKind::SpaceShareEven => Box::new(SpaceShareEven),
            AllocPolicyKind::Affinity => Box::new(Affinity),
            AllocPolicyKind::StrictPriority => Box::new(StrictPriority),
            AllocPolicyKind::Hysteresis => Box::new(Hysteresis::default()),
        }
    }
}

impl fmt::Display for AllocPolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for AllocPolicyKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "even" | "space-share-even" => Ok(AllocPolicyKind::SpaceShareEven),
            "affinity" => Ok(AllocPolicyKind::Affinity),
            "strict-priority" | "priority" => Ok(AllocPolicyKind::StrictPriority),
            "hysteresis" | "dwell" => Ok(AllocPolicyKind::Hysteresis),
            other => Err(format!(
                "unknown allocation policy '{other}' (expected one of: {})",
                AllocPolicyKind::ALL.map(|k| k.name()).join(", ")
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view_of(spaces: &[SpaceDemand], cpus: u32, rotation: u32) -> (Vec<u32>, bool, Vec<u32>) {
        let v = AllocView {
            spaces,
            total_cpus: cpus,
            rotation,
            last_space: &[],
        };
        let (even, rem) = SpaceShareEven.targets(&v);
        let (strict, _) = StrictPriority.targets(&v);
        (even, rem, strict)
    }

    fn sd(demand: u32, priority: u8) -> SpaceDemand {
        SpaceDemand {
            demand,
            priority,
            assigned: 0,
        }
    }

    #[test]
    fn even_split_redistributes_unused_shares() {
        // 6 CPUs, demands 1 and 10 at equal priority: §4.1's example —
        // the small space gets its 1, the big one absorbs the rest.
        let (even, rem, _) = view_of(&[sd(1, 1), sd(10, 1)], 6, 0);
        assert_eq!(even, vec![1, 5]);
        assert!(!rem);
    }

    #[test]
    fn remainder_rotates() {
        // 5 CPUs between two equal claimants: the extra one rotates.
        let (a, rem_a, _) = view_of(&[sd(10, 1), sd(10, 1)], 5, 0);
        let (b, rem_b, _) = view_of(&[sd(10, 1), sd(10, 1)], 5, 1);
        assert!(rem_a && rem_b);
        assert_eq!(a.iter().sum::<u32>(), 5);
        assert_eq!(b.iter().sum::<u32>(), 5);
        assert_ne!(a, b, "rotation must move the remainder processor");
    }

    #[test]
    fn strict_priority_starves_lower_spaces() {
        // The §2.2 pathology: a demanding high-priority space takes the
        // whole machine; even split would have shared it.
        let (even, _, strict) = view_of(&[sd(6, 2), sd(6, 1)], 6, 0);
        assert_eq!(strict, vec![6, 0]);
        assert_eq!(even, vec![6, 0], "priorities dominate in both policies");
        let (even_eq, _, strict_eq) = view_of(&[sd(6, 1), sd(6, 1)], 6, 0);
        assert_eq!(even_eq, vec![3, 3]);
        assert_eq!(strict_eq, vec![6, 0], "ties break by index, no sharing");
    }

    #[test]
    fn affinity_prefers_last_owner_else_first_free() {
        let spaces = [sd(2, 1), sd(2, 1)];
        let v = AllocView {
            spaces: &spaces,
            total_cpus: 4,
            rotation: 0,
            last_space: &[None, Some(1), Some(0), None],
        };
        assert_eq!(Affinity.pick_cpu(&v, 0, &[1, 2, 3]), 2);
        assert_eq!(Affinity.pick_cpu(&v, 1, &[1, 2, 3]), 1);
        // No history for the space: fall back to the lowest free CPU,
        // which is what the default (even) policy always does.
        assert_eq!(Affinity.pick_cpu(&v, 0, &[0, 3]), 0);
        assert_eq!(SpaceShareEven.pick_cpu(&v, 0, &[2, 3]), 2);
    }

    #[test]
    fn hysteresis_shares_like_even_but_declares_a_dwell() {
        let spaces = [sd(1, 1), sd(10, 1)];
        let v = AllocView {
            spaces: &spaces,
            total_cpus: 6,
            rotation: 0,
            last_space: &[],
        };
        assert_eq!(
            Hysteresis::default().targets(&v),
            SpaceShareEven.targets(&v)
        );
        assert_eq!(
            Hysteresis::default().min_dwell(),
            Some(DEFAULT_MIN_DWELL),
            "hysteresis must declare its dwell"
        );
        assert_eq!(SpaceShareEven.min_dwell(), None);
        assert_eq!(Affinity.min_dwell(), None);
        assert_eq!(StrictPriority.min_dwell(), None);
    }

    #[test]
    fn kind_round_trips_names() {
        for kind in AllocPolicyKind::ALL {
            assert_eq!(kind.name().parse::<AllocPolicyKind>().unwrap(), kind);
            assert_eq!(kind.build().name(), kind.name());
        }
        assert!("bogus".parse::<AllocPolicyKind>().is_err());
    }
}
