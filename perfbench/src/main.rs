//! The repository benchmark: host cost of the scheduler-activations
//! simulator, end to end and per layer, on three fixed-work workloads.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper --seed 1 --seconds 12 --trace 0
//! ```
//!
//! `--trace 0` measures untraced passes and prints the end-to-end
//! metrics; `--trace 1` pairs untraced, traced and instrumentation-toggled
//! passes and prints the per-layer metrics. The last line of stdout is one
//! JSON object; see `perfbench/README.md` for every metric.

mod fold;
mod host;
mod probe;
mod workloads;

use host::{Digest, Stopwatch};
use probe::Hooks;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{prepare, Checks, PassConfig, PassOutput, Workload, DEFAULT_SEED};

/// Passes measured per run at the least, however short `--seconds` is.
const MIN_PASSES: usize = 3;

/// Samples of the set-up phase per run for `setup_s`, taken after the
/// measured passes; every system is built and dropped unrun.
const SETUP_SAMPLES: usize = 11;

/// Set-up time each `setup_s` sample spans at the least.
const SETUP_SAMPLE_S: f64 = 0.02;

/// End-to-end metrics (`--trace 0`): name and unit.
const END_TO_END: [(&str, &str); 9] = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("sim_events_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("paper_err_pct", "%"),
    ("sim_p50_ms", "ms"),
    ("sim_p9999_ms", "ms"),
    ("bytes_per_thread", "bytes"),
];

/// Per-layer metrics (`--trace 1`): name and unit.
const PER_LAYER: [(&str, &str); 27] = [
    ("workload.step_s", "s"),
    ("workload.steps", "count"),
    ("workload.bufcache_hit_ratio", "ratio"),
    ("kernel.alloc_s", "s"),
    ("kernel.alloc_calls", "count"),
    ("kernel.rebalances", "count"),
    ("kernel.reallocations", "count"),
    ("kernel.realloc_per_rebalance", "ratio"),
    ("kernel.decisions", "count"),
    ("kernel.upcall_events", "count"),
    ("kernel.upcall_batches", "count"),
    ("kernel.upcall_events_per_batch", "ratio"),
    ("kernel.preemptions", "count"),
    ("kernel.act_recycle_ratio", "ratio"),
    ("kernel.traps", "count"),
    ("kernel.disk_ops", "count"),
    ("sim.events", "count"),
    ("sim.segs", "count"),
    ("sim.engine_ns_per_event", "ns"),
    ("sim.instr_overhead_ratio", "ratio"),
    ("uthread.tcb_rows_peak", "count"),
    ("uthread.hot_bytes", "bytes"),
    ("uthread.ready_wait_ms", "ms"),
    ("core.build_s", "s"),
    ("core.run_s", "s"),
    ("core.report_s", "s"),
    ("bench.trace_overhead_ratio", "ratio"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Synthetic per-step slowdown in the untraced passes' body decorator.
    slowdown_ns: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10;
    let mut trace = false;
    let mut slowdown_ns = 0;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let number = |v: String| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => seed = number(value()?)?,
            "--seconds" => seconds = number(value()?)?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace {v}: expected 0 or 1")),
                }
            }
            "--slowdown-ns" => slowdown_ns = number(value()?)?,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
    Ok(Args {
        workload: workload.ok_or(format!("--workload is required ({})", names.join("|")))?,
        seed,
        seconds,
        trace,
        slowdown_ns,
    })
}

/// The environment switches that change how the simulator runs. The
/// benchmark is serial by construction; a sharded engine would measure a
/// different program, so `SA_SHARDS` other than 1 is refused.
fn environment() -> Result<String, String> {
    let var = |k: &str| std::env::var(k).unwrap_or_else(|_| "unset".into());
    let shards = var("SA_SHARDS");
    if shards != "unset" && shards.trim() != "1" {
        return Err(format!(
            "SA_SHARDS={shards}: the benchmark runs serial only (unset it or set 1)"
        ));
    }
    Ok(format!(
        "SA_JOBS={} (ignored: jobs=1) SA_SHARDS={shards}",
        var("SA_JOBS")
    ))
}

fn median(mut v: Vec<f64>) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile of sorted values.
fn quantile(sorted: &[u64], q: f64) -> u64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// One pass: set-up then measured phase, each timed.
struct Timed {
    setup: (f64, f64),
    measured: (f64, f64),
    out: PassOutput,
}

fn timed_pass(cfg: &PassConfig) -> Timed {
    let sw = Stopwatch::start();
    let mut prepared = prepare(cfg);
    let setup = sw.read();
    let sw = Stopwatch::start();
    let out = prepared.execute();
    let measured = sw.read();
    drop(prepared);
    Timed {
        setup,
        measured,
        out,
    }
}

/// Collects checks and digest identity across every pass of a run.
struct Run {
    checks: Checks,
    digest: Option<Digest>,
}

impl Run {
    fn absorb(&mut self, what: &str, out: &mut PassOutput) {
        let digest = out.digest;
        let first = *self.digest.get_or_insert(digest);
        self.checks.check(first == digest, || {
            format!(
                "{what} pass digest {} differs from the first pass's {}",
                digest.hex(),
                first.hex()
            )
        });
        self.checks.merge(std::mem::take(&mut out.checks));
    }
}

fn measure_end_to_end(args: &Args, cfg: &PassConfig, run: &mut Run) -> Vec<f64> {
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut passes = Vec::new();
    let mut last = PassOutput::default();
    while passes.len() < MIN_PASSES || Instant::now() < deadline {
        let mut t = timed_pass(cfg);
        run.absorb("untraced", &mut t.out);
        println!(
            "# pass {}: setup {:.6}s wall {:.6}s cpu {:.6}s events {}",
            passes.len(),
            t.setup.0,
            t.measured.0,
            t.measured.1,
            t.out.counters.events
        );
        passes.push((t.measured.0, t.measured.1, t.out.counters.events as f64));
        last = t.out;
    }
    // Set-up alone is short next to a pass (microseconds on
    // `thread_churn`), so each sample averages back-to-back set-ups
    // over at least SETUP_SAMPLE_S, and the run reports their median.
    let setups: Vec<f64> = (0..SETUP_SAMPLES)
        .map(|_| {
            let (mut spent, mut count) = (0.0, 0u32);
            while spent < SETUP_SAMPLE_S {
                let sw = Stopwatch::start();
                let prepared = prepare(cfg);
                spent += sw.read().0;
                count += 1;
                drop(prepared);
            }
            spent / f64::from(count)
        })
        .collect();
    let err_pct = workloads::paper_err_pct(&mut run.checks);
    let lat = &last.sa_latency_ns;
    run.checks
        .check(!lat.is_empty(), || "no simulated completion times".into());
    let lat_ms = |q| {
        if lat.is_empty() {
            0.0
        } else {
            quantile(lat, q) as f64 / 1e6
        }
    };
    let c = &last.counters;
    vec![
        median(passes.iter().map(|p| p.0).collect()),
        median(passes.iter().map(|p| p.1).collect()),
        median(passes.iter().map(|p| ratio(p.2, p.1)).collect()),
        median(setups),
        host::peak_rss_mb(),
        err_pct,
        lat_ms(0.5),
        lat_ms(0.9999),
        ratio(c.hot_bytes as f64, c.tcb_rows as f64),
    ]
}

fn measure_per_layer(args: &Args, cfg: &PassConfig, run: &mut Run) -> Vec<f64> {
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let toggled_cfg = PassConfig {
        instrumented: !cfg.instrumented,
        ..cfg.clone()
    };
    let mut rows: Vec<Vec<f64>> = Vec::new();
    while rows.is_empty() || Instant::now() < deadline {
        let mut plain = timed_pass(cfg);
        run.absorb("untraced", &mut plain.out);
        let traced_cfg = PassConfig {
            hooks: Hooks::traced(),
            ..cfg.clone()
        };
        let mut traced = timed_pass(&traced_cfg);
        run.absorb("traced", &mut traced.out);
        let mut toggled = timed_pass(&toggled_cfg);
        // Instrumentation adds records, never events: the toggled pass
        // must simulate exactly the same run.
        run.checks.check(
            toggled.out.counters.events == plain.out.counters.events,
            || {
                format!(
                    "instrumentation toggle changed the event count: {} vs {}",
                    toggled.out.counters.events, plain.out.counters.events
                )
            },
        );
        run.checks.merge(std::mem::take(&mut toggled.out.checks));
        let (on, off) = if cfg.instrumented {
            (plain.out.run_s, toggled.out.run_s)
        } else {
            (toggled.out.run_s, plain.out.run_s)
        };
        let tally = traced_cfg
            .hooks
            .tally
            .as_ref()
            .expect("traced hooks carry a tally");
        let o = &traced.out;
        let c = &o.counters;
        let total = |t: &Timed| t.setup.1 + t.measured.1;
        let traced_wall = traced.setup.0 + traced.measured.0;
        println!(
            "# cycle {}: untraced cpu {:.6}s, traced cpu {:.6}s; build+run+report {:.6}s of the traced pass's {traced_wall:.6}s wall",
            rows.len(),
            total(&plain),
            total(&traced),
            o.build_s + o.run_s + o.report_s
        );
        rows.push(vec![
            tally.step_s(),
            tally.steps() as f64,
            ratio(c.cache_hits as f64, (c.cache_hits + c.cache_misses) as f64),
            tally.alloc_s(),
            tally.alloc_calls() as f64,
            c.rebalances as f64,
            c.reallocations as f64,
            ratio(c.reallocations as f64, c.rebalances as f64),
            c.decisions as f64,
            c.upcall_events as f64,
            c.upcall_batches as f64,
            ratio(c.upcall_events as f64, c.upcall_batches as f64),
            c.preemptions as f64,
            ratio(c.acts_cached as f64, (c.acts_fresh + c.acts_cached) as f64),
            c.traps as f64,
            c.disk_ops as f64,
            c.events as f64,
            c.segs as f64,
            ratio(
                (o.run_s - tally.step_s() - tally.alloc_s()) * 1e9,
                c.events as f64,
            ),
            ratio(on, off),
            c.tcb_rows as f64,
            c.hot_bytes as f64,
            c.ready_wait_ns as f64 / 1e6,
            o.build_s,
            o.run_s,
            o.report_s,
            ratio(total(&traced), total(&plain)),
        ]);
    }
    (0..PER_LAYER.len())
        .map(|i| median(rows.iter().map(|r| r[i]).collect()))
        .collect()
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let env = match environment() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let cfg = PassConfig {
        hooks: Hooks {
            tally: None,
            slowdown_ns: args.slowdown_ns,
        },
        ..PassConfig::new(args.workload, args.seed)
    };
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release (lto=fat, codegen-units=1)"
    };
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} slowdown_ns={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.slowdown_ns
    );
    println!(
        "# commit={} host_cores={} profile={profile} {env}",
        host::commit(),
        host::host_cores()
    );

    let mut run = Run {
        checks: Checks::default(),
        digest: None,
    };
    let (names, values) = if args.trace {
        (&PER_LAYER[..], measure_per_layer(&args, &cfg, &mut run))
    } else {
        (&END_TO_END[..], measure_end_to_end(&args, &cfg, &mut run))
    };
    let attempted = run.checks.attempted;
    let failed = run.checks.failures.len() as u64;
    for f in &run.checks.failures {
        eprintln!("perfbench: check failed: {f}");
    }
    println!(
        "# digest={} checks={attempted} failed={failed} fail_rate={}",
        run.digest.map_or("none".into(), Digest::hex),
        ratio(failed as f64, attempted as f64)
    );
    let mut metrics = Vec::new();
    for (&(name, unit), &v) in names.iter().zip(&values) {
        println!("# {name} = {v} {unit}");
        metrics.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(v)
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0 && attempted > 0,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(workload: Workload, hooks: Hooks) -> PassConfig {
        PassConfig {
            small: true,
            hooks,
            ..PassConfig::new(workload, DEFAULT_SEED)
        }
    }

    /// The decorators observe the simulation without perturbing it: a
    /// traced pass produces the untraced pass's simulated outputs.
    #[test]
    fn traced_pass_simulates_the_untraced_run() {
        for w in Workload::ALL {
            let plain = timed_pass(&small(w, Hooks::default())).out;
            let traced = timed_pass(&small(w, Hooks::traced())).out;
            assert!(
                plain.checks.failures.is_empty(),
                "{w:?}: {:?}",
                plain.checks.failures
            );
            assert!(
                traced.checks.failures.is_empty(),
                "{w:?}: {:?}",
                traced.checks.failures
            );
            assert_eq!(plain.digest, traced.digest, "{w:?}: traced digest differs");
            assert_eq!(plain.counters.events, traced.counters.events, "{w:?}");
        }
    }

    /// Share of a traced pass's host time that `build + run + report`
    /// must account for; the rest is input generation and bookkeeping.
    const COVERAGE: f64 = 0.9;

    #[test]
    fn core_layer_times_cover_the_traced_pass() {
        for w in Workload::ALL {
            let t = timed_pass(&small(w, Hooks::traced()));
            let total = t.setup.0 + t.measured.0;
            let covered = t.out.build_s + t.out.run_s + t.out.report_s;
            assert!(
                covered <= total && covered >= COVERAGE * total,
                "{w:?}: build+run+report {covered:.6}s of a {total:.6}s pass"
            );
        }
    }

    #[test]
    fn a_different_seed_is_a_different_simulation() {
        for w in Workload::ALL {
            let a = timed_pass(&small(w, Hooks::default())).out;
            let b = timed_pass(&PassConfig {
                seed: DEFAULT_SEED + 1,
                ..small(w, Hooks::default())
            })
            .out;
            assert!(
                b.checks.failures.is_empty(),
                "{w:?}: {:?}",
                b.checks.failures
            );
            assert_ne!(a.digest, b.digest, "{w:?}: the seed changed nothing");
        }
    }

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// `"name": "<value>"` entries of one top-level array of BENCHMARK.json.
    fn declared(section: &str) -> Vec<String> {
        let json = include_str!("../../BENCHMARK.json");
        let start = json
            .find(&format!("\"{section}\""))
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
        let body = &json[start..];
        let body = &body[..body.find(']').expect("the section is an array")];
        body.split("\"name\"")
            .skip(1)
            .map(|s| s.split('"').nth(1).expect("a quoted name").to_string())
            .collect()
    }

    #[test]
    fn metric_names_are_valid_unique_and_declared() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_name(name), "metric name {name}");
            assert!(seen.insert(*name), "duplicate metric {name}");
            assert!(!unit.is_empty() && unit.len() <= 16, "unit of {name}");
        }
        let names = |m: &[(&str, &str)]| m.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
        assert_eq!(declared("end_to_end"), names(&END_TO_END));
        assert_eq!(declared("per_layer"), names(&PER_LAYER));
        let workloads: Vec<_> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(declared("workloads"), workloads);
        assert!(workloads.iter().all(|w| valid_name(w)));
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let v: Vec<u64> = (1..=120_000).collect();
        // 12 samples lie beyond p99.99 of 120000.
        assert_eq!(quantile(&v, 0.9999), 119_988);
        assert_eq!(quantile(&v, 0.5), 60_000);
        assert_eq!(quantile(&[7], 0.9999), 7);
        assert_eq!(median(vec![3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
