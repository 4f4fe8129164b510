//! Benchmark gate: the repository benchmark (`BENCHMARK.json`) run in
//! interleaved parent/change pairs on one host.
//!
//! ```sh
//! sa-bench-check --parent CMD --change CMD [--seconds S]
//! ```
//!
//! Each `CMD` is a perfbench command line, split on whitespace (so
//! `'target/release/sa-perfbench --slowdown-ns 20'` works). For every
//! workload `BENCHMARK.json` declares, pair `i` (1..=10) runs
//! `CMD --workload W --seed i --seconds S --trace 0` on both sides, the
//! parent first when `i` is odd. Both sides of a pair run the same seed
//! back to back on the same host, so host drift between commits or
//! machines cannot enter the comparison.
//!
//! Per end-to-end metric it prints the parent's median and interquartile
//! range, the change's median, the change/parent ratio and the pairs the
//! change won. It exits 1, naming the cause, when a median is worse than
//! the parent's by more than the metric's `bound` in its `better`
//! direction, when the digests of simulated output differ at a seed, or
//! when the change reports more failed checks; and 2 on bad arguments,
//! a command that cannot run or fails, or output it cannot parse.
//!
//! The pair count and the default run length are the benchmark's own
//! method: 10 pairs of `run_seconds` each.

use sa_core::reporting::Table;
use std::process::{Command, Stdio};

/// The benchmark declaration, compiled in so the gate and the benchmark
/// agree on workloads, metrics and bounds.
const BENCHMARK_JSON: &str = include_str!("../../../../BENCHMARK.json");

/// Pairs run per workload, the benchmark's own count.
const PAIRS: u64 = 10;

fn usage() -> &'static str {
    "usage: sa-bench-check --parent CMD --change CMD [--seconds S]\n\
     \n\
     Runs every BENCHMARK.json workload in 10 interleaved parent/change\n\
     pairs (seeds 1..=10) of S seconds each (default: the declared\n\
     run_seconds). Exits 0 when every end-to-end median is\n\
     within its bound, 1 on a regression, a digest mismatch or more\n\
     failed checks, 2 on bad arguments or unparsable output."
}

/// One end-to-end metric as `BENCHMARK.json` declares it.
struct Metric {
    name: String,
    higher_is_better: bool,
    /// Relative amount the change's median may be worse by.
    bound: f64,
}

impl Metric {
    /// The direction as `BENCHMARK.json` spells it.
    fn better(&self) -> &'static str {
        if self.higher_is_better {
            "higher"
        } else {
            "lower"
        }
    }
}

/// What the gate reads from `BENCHMARK.json`.
struct Benchmark {
    run_seconds: u64,
    workloads: Vec<String>,
    metrics: Vec<Metric>,
}

/// The `"key": "value"` string field of one flat JSON object.
fn string_field<'a>(obj: &'a str, key: &str) -> Option<&'a str> {
    let rest = &obj[obj.find(&format!("\"{key}\""))? + key.len() + 2..];
    let rest = &rest[rest.find('"')? + 1..];
    Some(&rest[..rest.find('"')?])
}

/// The `"key": number` field of a flat JSON object.
fn number_field(obj: &str, key: &str) -> Option<f64> {
    let rest = &obj[obj.find(&format!("\"{key}\""))? + key.len() + 2..];
    let rest = rest.trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The flat objects of the top-level array `section`.
fn objects<'a>(json: &'a str, section: &str) -> Vec<&'a str> {
    let start = json
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json declares {section}"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("the section is an array")];
    body.split('{').skip(1).collect()
}

fn parse_benchmark(json: &str) -> Benchmark {
    Benchmark {
        run_seconds: number_field(json, "run_seconds").expect("BENCHMARK.json declares run_seconds")
            as u64,
        workloads: objects(json, "workloads")
            .into_iter()
            .map(|o| {
                string_field(o, "name")
                    .expect("a workload name")
                    .to_string()
            })
            .collect(),
        metrics: objects(json, "end_to_end")
            .into_iter()
            .map(|o| Metric {
                name: string_field(o, "name").expect("a metric name").to_string(),
                higher_is_better: match string_field(o, "better") {
                    Some("higher") => true,
                    Some("lower") => false,
                    other => panic!("BENCHMARK.json: better = {other:?}"),
                },
                bound: number_field(o, "bound").expect("a metric bound"),
            })
            .collect(),
    }
}

struct Options {
    parent: Vec<String>,
    change: Vec<String>,
    seconds: u64,
}

fn parse_args(
    mut args: impl Iterator<Item = String>,
    default_seconds: u64,
) -> Result<Options, String> {
    let (mut parent, mut change, mut seconds) = (None, None, None);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        let count = |v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: '{v}' is not a count"))
        };
        let command = |v: String| {
            let cmd: Vec<String> = v.split_whitespace().map(str::to_string).collect();
            if cmd.is_empty() {
                Err(format!("{flag}: empty command"))
            } else {
                Ok(cmd)
            }
        };
        match flag.as_str() {
            "--parent" => parent = Some(command(value()?)?),
            "--change" => change = Some(command(value()?)?),
            "--seconds" => seconds = Some(count(value()?)?),
            _ => return Err(format!("unknown argument '{flag}'")),
        }
    }
    Ok(Options {
        parent: parent.ok_or("--parent is required")?,
        change: change.ok_or("--change is required")?,
        seconds: seconds.unwrap_or(default_seconds),
    })
}

/// Whether the parent side runs first in pair `i` (1-based).
fn parent_first(i: u64) -> bool {
    i % 2 == 1
}

/// What the gate keeps of one perfbench run.
#[derive(Clone)]
struct RunResult {
    digest: String,
    failed: u64,
    /// One value per metric, in declaration order.
    values: Vec<f64>,
}

/// Parses perfbench stdout: the `# digest=` line and the final JSON line.
fn parse_run(stdout: &str, metrics: &[Metric]) -> Result<RunResult, String> {
    let digest = stdout
        .lines()
        .find_map(|l| l.strip_prefix("# digest="))
        .and_then(|rest| rest.split_whitespace().next())
        .ok_or("no '# digest=' line")?
        .to_string();
    let last = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .unwrap_or("");
    if !(last.starts_with('{') && last.ends_with('}')) {
        return Err(format!("last line is not a JSON object: '{last}'"));
    }
    let failed = number_field(last, "failed").ok_or("no 'failed' count")? as u64;
    let values = metrics
        .iter()
        .map(|m| {
            let at = last
                .find(&format!("\"{}\":", m.name))
                .ok_or(format!("no metric {}", m.name))?;
            number_field(&last[at..], "value").ok_or(format!("no value for {}", m.name))
        })
        .collect::<Result<_, String>>()?;
    Ok(RunResult {
        digest,
        failed,
        values,
    })
}

/// Runs one perfbench invocation and parses its output.
fn run_once(
    cmd: &[String],
    workload: &str,
    seed: u64,
    seconds: u64,
    metrics: &[Metric],
) -> Result<RunResult, String> {
    let shown = format!(
        "{} --workload {workload} --seed {seed} --seconds {seconds} --trace 0",
        cmd.join(" ")
    );
    let out = Command::new(&cmd[0])
        .args(&cmd[1..])
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{shown}: {e}"))?;
    if !out.status.success() {
        return Err(format!("{shown}: exited with {}", out.status));
    }
    parse_run(&String::from_utf8_lossy(&out.stdout), metrics).map_err(|e| format!("{shown}: {e}"))
}

/// Linearly interpolated quantile of sorted values.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let h = q * (sorted.len() - 1) as f64;
    let lo = h.floor() as usize;
    let hi = (lo + 1).min(sorted.len() - 1);
    sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo])
}

/// Median and interquartile range.
fn median_iqr(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    (quantile(&v, 0.5), quantile(&v, 0.75) - quantile(&v, 0.25))
}

/// `v` to six significant digits.
fn sig(v: f64) -> String {
    let digits = if v == 0.0 {
        0
    } else {
        (5 - v.abs().log10().floor() as i32).max(0) as usize
    };
    format!("{v:.digits$}")
}

/// Whether `change` is worse than `parent` by more than the metric's
/// bound. With a parent of 0 the bound allows nothing worse than 0.
fn regressed(m: &Metric, parent: f64, change: f64) -> bool {
    if m.higher_is_better {
        change < parent * (1.0 - m.bound)
    } else {
        change > parent * (1.0 + m.bound)
    }
}

/// Whether `change` beats `parent` outright (ties count for neither).
fn won(m: &Metric, parent: f64, change: f64) -> bool {
    if m.higher_is_better {
        change > parent
    } else {
        change < parent
    }
}

/// Compares one workload's pairs; returns its report table and the
/// causes that fail the gate.
fn judge(
    bench: &Benchmark,
    workload: &str,
    pairs: &[(RunResult, RunResult)],
) -> (String, Vec<String>) {
    let mut causes = Vec::new();
    for (i, (p, c)) in pairs.iter().enumerate() {
        if p.digest != c.digest {
            causes.push(format!(
                "{workload}: digests differ at seed {}: parent {} change {}",
                i + 1,
                p.digest,
                c.digest
            ));
        }
    }
    let parent_failed: u64 = pairs.iter().map(|(p, _)| p.failed).sum();
    let change_failed: u64 = pairs.iter().map(|(_, c)| c.failed).sum();
    if change_failed > parent_failed {
        causes.push(format!(
            "{workload}: change failed {change_failed} checks, parent {parent_failed}"
        ));
    }
    let mut t = Table::new(&[
        "metric",
        "better",
        "bound",
        "parent median",
        "parent IQR",
        "change median",
        "change/parent",
        "won",
        "verdict",
    ]);
    for (k, m) in bench.metrics.iter().enumerate() {
        let (pv, cv): (Vec<f64>, Vec<f64>) = pairs
            .iter()
            .map(|(p, c)| (p.values[k], c.values[k]))
            .unzip();
        let (pm, piqr) = median_iqr(&pv);
        let (cm, _) = median_iqr(&cv);
        let wins = pv.iter().zip(&cv).filter(|&(&p, &c)| won(m, p, c)).count();
        let bad = regressed(m, pm, cm);
        if bad {
            causes.push(format!(
                "{workload}: {} median {} is worse than the parent's {} by more than {}% \
                 ({} is better)",
                m.name,
                sig(cm),
                sig(pm),
                m.bound * 100.0,
                m.better()
            ));
        }
        t.row(vec![
            m.name.clone(),
            m.better().to_string(),
            format!("{}%", m.bound * 100.0),
            sig(pm),
            sig(piqr),
            sig(cm),
            if pm == 0.0 {
                "-".to_string()
            } else {
                format!("{:.3}", cm / pm)
            },
            format!("{wins}/{}", pairs.len()),
            if bad { "REGRESSED" } else { "ok" }.to_string(),
        ]);
    }
    (t.render(), causes)
}

fn main() {
    let bench = parse_benchmark(BENCHMARK_JSON);
    let opts = match parse_args(std::env::args().skip(1), bench.run_seconds) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("sa-bench-check: {msg}");
            eprintln!("{}", usage());
            std::process::exit(2);
        }
    };
    let run = |cmd: &[String], workload: &str, seed: u64| {
        run_once(cmd, workload, seed, opts.seconds, &bench.metrics).unwrap_or_else(|e| {
            eprintln!("sa-bench-check: {e}");
            std::process::exit(2);
        })
    };
    let mut results: Vec<Vec<(RunResult, RunResult)>> = vec![Vec::new(); bench.workloads.len()];
    for seed in 1..=PAIRS {
        for (w, workload) in bench.workloads.iter().enumerate() {
            let pair = if parent_first(seed) {
                let p = run(&opts.parent, workload, seed);
                (p, run(&opts.change, workload, seed))
            } else {
                let c = run(&opts.change, workload, seed);
                (run(&opts.parent, workload, seed), c)
            };
            println!(
                "# pair {seed}/{PAIRS} {workload}: {} first; digest {} / {}",
                if parent_first(seed) {
                    "parent"
                } else {
                    "change"
                },
                pair.0.digest,
                pair.1.digest
            );
            results[w].push(pair);
        }
    }
    let mut causes = Vec::new();
    for (workload, pairs) in bench.workloads.iter().zip(&results) {
        let (table, mut c) = judge(&bench, workload, pairs);
        println!(
            "\n{workload} ({PAIRS} pairs of {} s, seeds 1..={PAIRS})",
            opts.seconds
        );
        print!("{table}");
        causes.append(&mut c);
    }
    if !causes.is_empty() {
        for c in &causes {
            eprintln!("sa-bench-check: FAIL {c}");
        }
        std::process::exit(1);
    }
    println!(
        "\nsa-bench-check: ok ({} workloads x {} metrics within bounds; digests equal)",
        bench.workloads.len(),
        bench.metrics.len()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(higher_is_better: bool, bound: f64) -> Metric {
        Metric {
            name: "m".into(),
            higher_is_better,
            bound,
        }
    }

    #[test]
    fn reads_the_declared_benchmark() {
        let b = parse_benchmark(BENCHMARK_JSON);
        assert!(b.run_seconds > 0);
        assert_eq!(b.workloads, ["paper", "slo_bursty", "thread_churn"]);
        let names: Vec<&str> = b.metrics.iter().map(|m| m.name.as_str()).collect();
        assert!(names.contains(&"cpu_s") && names.contains(&"sim_events_per_s"));
        let events = &b.metrics[names.iter().position(|&n| n == "sim_events_per_s").unwrap()];
        assert!(events.higher_is_better);
        assert!(b.metrics.iter().all(|m| m.bound > 0.0 && m.bound < 1.0));
    }

    #[test]
    fn median_and_iqr_on_odd_and_even_counts() {
        assert_eq!(median_iqr(&[5.0, 1.0, 3.0]), (3.0, 2.0));
        // Even count: the median interpolates between the middle two.
        let (m, iqr) = median_iqr(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(m, 2.5);
        assert_eq!(iqr, 1.5);
        assert_eq!(median_iqr(&[7.0]), (7.0, 0.0));
    }

    #[test]
    fn values_print_to_six_significant_digits() {
        assert_eq!(sig(7501142.238577), "7501142");
        assert_eq!(sig(1.721419), "1.72142");
        assert_eq!(sig(0.0000134567), "0.0000134567");
        assert_eq!(sig(0.0), "0");
    }

    #[test]
    fn parent_runs_first_on_odd_pairs() {
        let order: Vec<bool> = (1..=4).map(parent_first).collect();
        assert_eq!(order, [true, false, true, false]);
    }

    #[test]
    fn bounds_follow_the_better_direction() {
        let lower = metric(false, 0.25);
        assert!(!regressed(&lower, 1.0, 1.25));
        assert!(regressed(&lower, 1.0, 1.26));
        let higher = metric(true, 0.25);
        assert!(!regressed(&higher, 1.0, 0.75));
        assert!(regressed(&higher, 1.0, 0.74));
        assert!(won(&lower, 1.0, 0.9) && won(&higher, 1.0, 1.1));
        assert!(!won(&lower, 1.0, 1.0));
    }

    #[test]
    fn a_parent_value_of_zero_allows_nothing_worse() {
        let lower = metric(false, 0.1);
        assert!(!regressed(&lower, 0.0, 0.0));
        assert!(regressed(&lower, 0.0, 0.001));
        let higher = metric(true, 0.1);
        assert!(!regressed(&higher, 0.0, 0.0));
    }

    #[test]
    fn parses_perfbench_output() {
        let metrics = vec![metric(false, 0.25)];
        let out = "# perfbench workload=paper\n# digest=00ff checks=3 failed=0 fail_rate=0\n\
                   {\"correct\": true, \"attempted\": 3, \"failed\": 0, \
                   \"metrics\": {\"m\": {\"value\": 1.5e-3, \"unit\": \"s\"}}}\n";
        let r = parse_run(out, &metrics).unwrap();
        assert_eq!(r.digest, "00ff");
        assert_eq!(r.values, [1.5e-3]);
        let truncated = &out[..out.len() - 12];
        assert!(parse_run(truncated, &metrics).is_err());
    }

    #[test]
    fn rejects_bad_arguments() {
        let parse = |a: &[&str]| parse_args(a.iter().map(|s| s.to_string()), 30);
        let o = parse(&["--parent", "a --x 1", "--change", "b"]).unwrap();
        assert_eq!(o.parent, ["a", "--x", "1"]);
        assert_eq!(o.seconds, 30);
        assert!(parse(&["--parent", "a"]).is_err());
        assert!(parse(&["--parent", "a", "--change", "b", "--seconds", "x"]).is_err());
        assert!(parse(&["--parent", " ", "--change", "b"]).is_err());
        assert!(parse(&["--parent", "a", "--change", "b", "--bogus", "1"]).is_err());
    }
}
