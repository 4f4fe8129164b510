//! Folding simulated results into the reports the repository prints:
//! the Figure 1/2 and Table 1/4/5/§5.2 text, and the SLO report's
//! windowed series and tail section. The formats match
//! `sa-experiments` byte for byte; `paper` compares its output against
//! the committed goldens.

use sa_core::sa_sim::span::{Span, SpanPhase};
use sa_core::sa_sim::stats::Histogram;
use sa_core::sa_sim::{CpuState, SimDuration, SimTime, WaitKind, WindowedLedger};
use sa_core::slo::{ReconcileReport, SloCell, TailReport, WindowRow};
use sa_core::sweeps::UpcallMeasurements;
use std::fmt::Write as _;

/// The paper's Table 5 speedups, in `systems` order.
pub const TABLE5_PAPER: [f64; 3] = [1.29, 1.26, 2.45];
const SYSTEM_NAMES: [&str; 3] = ["Topaz threads", "orig FastThrds", "new FastThrds"];

/// `x` as printed with `{:.1}`, back as a number.
pub fn round1(x: f64) -> f64 {
    format!("{x:.1}").parse().expect("a formatted float parses")
}

/// `x` as printed with `{:.2}`, back as a number.
pub fn round2(x: f64) -> f64 {
    format!("{x:.2}").parse().expect("a formatted float parses")
}

/// Figure 1 from the baseline and one row of three cells per processor
/// count.
pub fn render_fig1(
    seq: SimDuration,
    cells: &[SimDuration],
    speedup: impl Fn(&SimDuration) -> f64,
) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 1: speedup vs processors (100% memory; sequential {seq})"
    );
    let _ = writeln!(
        out,
        "{:<6} {:>14} {:>15} {:>14}",
        "procs", "Topaz threads", "orig FastThrds", "new FastThrds"
    );
    for (i, row) in cells.chunks(3).enumerate() {
        let _ = writeln!(
            out,
            "{:<6} {:>14.2} {:>15.2} {:>14.2}",
            i + 1,
            speedup(&row[0]),
            speedup(&row[1]),
            speedup(&row[2])
        );
    }
    out
}

/// Figure 2 from one row of three cells per memory fraction.
pub fn render_fig2(fracs: &[f64], cells: &[SimDuration]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 2: N-body execution time (s) vs % memory, 6 CPUs"
    );
    let _ = writeln!(
        out,
        "{:<7} {:>14} {:>15} {:>14}",
        "memory", "Topaz threads", "orig FastThrds", "new FastThrds"
    );
    for (frac, row) in fracs.iter().zip(cells.chunks(3)) {
        let _ = writeln!(
            out,
            "{:>5.0}%  {:>14.2} {:>15.2} {:>14.2}",
            frac * 100.0,
            row[0].as_secs_f64(),
            row[1].as_secs_f64(),
            row[2].as_secs_f64()
        );
    }
    out
}

/// Table 5 from the three multiprogrammed cells.
pub fn render_table5(cells: &[SimDuration], speedup: impl Fn(&SimDuration) -> f64) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 5: multiprogramming level 2, 6 CPUs (max speedup 3.0)"
    );
    for ((name, d), paper) in SYSTEM_NAMES.iter().zip(cells).zip(TABLE5_PAPER) {
        let s = speedup(d);
        let _ = writeln!(out, "  {name:<18} {s:.2}  (paper {paper:.2})");
    }
    out
}

/// One latency row: name, Null Fork, its paper value, Signal-Wait, its
/// paper value.
pub type LatencyRow<'a> = (&'a str, SimDuration, f64, SimDuration, f64);

pub fn render_table1(rows: &[LatencyRow<'_>]) -> String {
    let mut out = String::from("Table 1: Thread Operation Latencies (usec.)\n");
    let _ = writeln!(
        out,
        "{:<20} {:>10} {:>8} {:>12} {:>8}",
        "Operation", "Null Fork", "paper", "Signal-Wait", "paper"
    );
    for (name, nf, nf_paper, sw, sw_paper) in rows {
        let _ = writeln!(
            out,
            "{name:<20} {:>10.1} {nf_paper:>8} {:>12.1} {sw_paper:>8}",
            nf.as_micros_f64(),
            sw.as_micros_f64()
        );
    }
    out
}

pub fn render_table4(rows: &[LatencyRow<'_>]) -> String {
    let mut out =
        String::from("Table 4: Thread Operation Latencies incl. scheduler activations (usec.)\n");
    for (name, nf, nf_paper, sw, sw_paper) in rows {
        let _ = writeln!(
            out,
            "{name:<36} {:>8.1} (paper {nf_paper:>5})   {:>8.1} (paper {sw_paper:>4})",
            nf.as_micros_f64(),
            sw.as_micros_f64()
        );
    }
    out
}

pub fn render_upcall(m: &UpcallMeasurements) -> String {
    let (proto, topaz) = (m.proto.as_micros_f64(), m.topaz.as_micros_f64());
    let mut out = String::from("5.2 upcall performance:\n");
    let _ = writeln!(
        out,
        "  kernel-forced signal-wait (prototype): {proto:.0} usec (paper ~2400)"
    );
    let _ = writeln!(
        out,
        "  Topaz signal-wait:                     {topaz:.0} usec (paper 441)"
    );
    let _ = writeln!(out, "  ratio: {:.1}x (paper ~5x)", proto / topaz);
    let _ = writeln!(
        out,
        "  kernel-forced signal-wait (tuned):     {:.0} usec",
        m.tuned.as_micros_f64()
    );
    out
}

/// One system's SLO report cell from its completed spans and windowed
/// ledger (the folding `sa_core::slo::run_slo` does after its run).
pub fn slo_cell(
    system: &'static str,
    makespan: SimTime,
    spans: &[Span],
    per_shard: Vec<(u64, u64)>,
    windowed: &WindowedLedger,
) -> SloCell {
    let windowed_total_ns = (0..windowed.window_count())
        .map(|w| {
            CpuState::ALL
                .iter()
                .map(|&st| windowed.state_ns(w, st))
                .sum::<u64>()
        })
        .sum();
    let mut hist = Histogram::log_linear();
    for s in spans {
        hist.record(s.response());
    }
    SloCell {
        system,
        makespan,
        completed: spans.len() as u64,
        windows: window_rows(spans, windowed, makespan),
        hist,
        tail: tail_attribution(spans, windowed),
        reconcile: ReconcileReport {
            per_shard,
            windowed_total_ns,
            machine_total_ns: u64::from(windowed.cpus()) * makespan.as_nanos(),
        },
    }
}

/// Exact quantile of a sorted slice (nearest rank on `(n-1)*q`), in µs.
fn quantile_us(sorted_ns: &[u64], q: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ns.len() - 1) as f64 * q).round() as usize;
    sorted_ns[idx] as f64 / 1_000.0
}

fn window_rows(spans: &[Span], windowed: &WindowedLedger, makespan: SimTime) -> Vec<WindowRow> {
    let width_ns = windowed.width().as_nanos();
    let count = windowed.window_count();
    let mut per_window: Vec<Vec<u64>> = vec![Vec::new(); count.max(1)];
    for s in spans {
        let w = (s.completed.as_nanos() / width_ns) as usize;
        per_window[w.min(count.saturating_sub(1))].push(s.response().as_nanos());
    }
    (0..count)
        .map(|w| {
            let responses = &mut per_window[w];
            responses.sort_unstable();
            let span_ns = if (w + 1) as u64 * width_ns <= makespan.as_nanos() {
                width_ns
            } else {
                makespan.as_nanos() - w as u64 * width_ns
            };
            let total_ns: u64 = CpuState::ALL
                .iter()
                .map(|&st| windowed.state_ns(w, st))
                .sum();
            let mut state_share = [0.0; CpuState::COUNT];
            for (i, &st) in CpuState::ALL.iter().enumerate() {
                state_share[i] = windowed.state_ns(w, st) as f64 / total_ns.max(1) as f64;
            }
            WindowRow {
                start: windowed.window_start(w),
                completions: responses.len() as u64,
                throughput: responses.len() as f64 * 1e9 / span_ns as f64,
                p50_us: quantile_us(responses, 0.50),
                p99_us: quantile_us(responses, 0.99),
                p999_us: quantile_us(responses, 0.999),
                ready_backlog: windowed.wait_area_ns(w, WaitKind::Ready) as f64 / span_ns as f64,
                io_backlog: windowed.wait_area_ns(w, WaitKind::BlockedIo) as f64 / span_ns as f64,
                state_share,
            }
        })
        .collect()
}

/// The slowest 0.1% of spans (ties broken by id), their phases, and the
/// machine state in the windows they completed in.
fn tail_attribution(spans: &[Span], windowed: &WindowedLedger) -> TailReport {
    let mut by_response: Vec<(u64, usize)> = spans
        .iter()
        .enumerate()
        .map(|(i, s)| (s.response().as_nanos(), i))
        .collect();
    by_response.sort_unstable();
    let count = (spans.len() / 1000).max(1).min(spans.len());
    let tail = &by_response[by_response.len() - count..];

    let mut phase_ns = [0u64; SpanPhase::COUNT];
    let mut dominant_counts = [0u64; SpanPhase::COUNT];
    let mut tail_state_ns = [0u64; CpuState::COUNT];
    let mut tail_span_ns = 0u64;
    let width_ns = windowed.width().as_nanos();
    let wcount = windowed.window_count();
    let mut seen = vec![false; wcount.max(1)];
    for &(_, i) in tail {
        let s = &spans[i];
        let phases = s.phase_ns();
        let mut arg = 0;
        for (p, &ns) in phases.iter().enumerate() {
            phase_ns[p] += ns;
            if ns > phases[arg] {
                arg = p;
            }
        }
        dominant_counts[arg] += 1;
        let w = ((s.completed.as_nanos() / width_ns) as usize).min(wcount.saturating_sub(1));
        if wcount > 0 && !seen[w] {
            seen[w] = true;
            for (si, &st) in CpuState::ALL.iter().enumerate() {
                tail_state_ns[si] += windowed.state_ns(w, st);
            }
            tail_span_ns += CpuState::ALL
                .iter()
                .map(|&st| windowed.state_ns(w, st))
                .sum::<u64>();
        }
    }
    let mut tail_state_share = [0.0; CpuState::COUNT];
    for (si, &ns) in tail_state_ns.iter().enumerate() {
        tail_state_share[si] = ns as f64 / tail_span_ns.max(1) as f64;
    }
    let dominant = SpanPhase::ALL[phase_ns
        .iter()
        .enumerate()
        .max_by_key(|&(i, &ns)| (ns, usize::MAX - i))
        .map_or(0, |(i, _)| i)];
    TailReport {
        count,
        threshold_us: tail.first().map_or(0.0, |&(ns, _)| ns as f64 / 1_000.0),
        worst_us: tail.last().map_or(0.0, |&(ns, _)| ns as f64 / 1_000.0),
        phase_ns,
        dominant_counts,
        dominant,
        tail_state_share,
    }
}
