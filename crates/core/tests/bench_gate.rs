//! The benchmark gate end to end: `sa-bench-check` drives two perfbench
//! command lines, here stand-in scripts that print canned perfbench
//! output, and must pass identical sides, fail each kind of regression
//! with exit 1 naming it, and exit 2 on output it cannot parse.
#![cfg(unix)]

use std::os::unix::fs::PermissionsExt;
use std::path::PathBuf;
use std::process::Command;

const WORKLOADS: [&str; 3] = ["paper", "slo_bursty", "thread_churn"];

/// End-to-end metrics as perfbench prints them, at neutral values.
const METRICS: [(&str, f64); 9] = [
    ("wall_s", 1.0),
    ("cpu_s", 1.0),
    ("sim_events_per_s", 4.0e6),
    ("setup_s", 0.01),
    ("peak_rss_mb", 50.0),
    ("paper_err_pct", 0.0),
    ("sim_p50_ms", 2.0),
    ("sim_p9999_ms", 9.0),
    ("bytes_per_thread", 60.0),
];

/// One side's canned output for a workload.
struct Canned {
    digest: &'static str,
    failed: u64,
    /// A metric scaled by a factor.
    scale: Option<(&'static str, f64)>,
    /// A metric left out of the JSON line.
    omit: Option<&'static str>,
    truncate: bool,
}

const NEUTRAL: Canned = Canned {
    digest: "0123456789abcdef",
    failed: 0,
    scale: None,
    omit: None,
    truncate: false,
};

fn perfbench_output(c: &Canned) -> String {
    let metrics: Vec<String> = METRICS
        .iter()
        .filter(|&&(name, _)| c.omit != Some(name))
        .map(|&(name, v)| {
            let v = match c.scale {
                Some((scaled, by)) if scaled == name => v * by,
                _ => v,
            };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"s\"}}")
        })
        .collect();
    let json = format!(
        "{{\"correct\": {}, \"attempted\": 40, \"failed\": {}, \"metrics\": {{{}}}}}",
        c.failed == 0,
        c.failed,
        metrics.join(", ")
    );
    let json = if c.truncate {
        json[..json.len() - 20].to_string()
    } else {
        json
    };
    format!(
        "# perfbench workload=w seed=1 seconds=1 trace=0 slowdown_ns=0\n\
         # pass 0: setup 0.001s wall 1.0s cpu 1.0s events 10\n\
         # digest={} checks=40 failed={} fail_rate=0\n{json}\n",
        c.digest, c.failed
    )
}

/// A scratch directory removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("sa-bench-gate-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }

    /// An executable script printing `outputs(workload)` for the
    /// workload named after `--workload`.
    fn side(&self, name: &str, outputs: impl Fn(&str) -> Canned) -> String {
        let dir = self.0.join(name);
        std::fs::create_dir_all(&dir).expect("create side dir");
        for w in WORKLOADS {
            std::fs::write(dir.join(format!("{w}.out")), perfbench_output(&outputs(w)))
                .expect("write canned output");
        }
        let script = dir.join("perfbench");
        std::fs::write(
            &script,
            format!("#!/bin/sh\ncat \"{}/$2.out\"\n", dir.display()),
        )
        .expect("write script");
        std::fs::set_permissions(&script, std::fs::Permissions::from_mode(0o755))
            .expect("make script executable");
        script.display().to_string()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn gate(parent: &str, change: &str) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_sa-bench-check"))
        .args(["--parent", parent, "--change", change])
        .args(["--seconds", "1"])
        .output()
        .expect("run sa-bench-check");
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (out.status.code().expect("exit code"), text)
}

/// Runs the gate with a neutral parent against `change`.
fn against_neutral(name: &str, change: impl Fn(&str) -> Canned) -> (i32, String) {
    let dir = Scratch::new(name);
    let parent = dir.side("parent", |_| NEUTRAL);
    let change = dir.side("change", change);
    gate(&parent, &change)
}

#[test]
fn identical_sides_pass() {
    let (code, text) = against_neutral("identical", |_| NEUTRAL);
    assert_eq!(code, 0, "identical outputs must pass:\n{text}");
    assert!(text.contains("sa-bench-check: ok"), "{text}");
    assert!(text.contains("10/10"), "pairs column missing:\n{text}");
}

#[test]
fn lower_is_better_regression_names_metric_and_workload() {
    let (code, text) = against_neutral("cpu", |w| Canned {
        scale: (w == "slo_bursty").then_some(("cpu_s", 1.3)),
        ..NEUTRAL
    });
    assert_eq!(code, 1, "cpu_s +30% must fail:\n{text}");
    assert!(text.contains("FAIL slo_bursty: cpu_s"), "{text}");
    assert!(!text.contains("FAIL paper") && !text.contains("FAIL thread_churn"));
}

#[test]
fn higher_is_better_regression_fails() {
    let (code, text) = against_neutral("events", |w| Canned {
        scale: (w == "thread_churn").then_some(("sim_events_per_s", 0.7)),
        ..NEUTRAL
    });
    assert_eq!(code, 1, "sim_events_per_s -30% must fail:\n{text}");
    assert!(
        text.contains("FAIL thread_churn: sim_events_per_s"),
        "{text}"
    );
}

#[test]
fn digest_mismatch_fails() {
    let (code, text) = against_neutral("digest", |w| Canned {
        digest: if w == "paper" {
            "fedcba9876543210"
        } else {
            NEUTRAL.digest
        },
        ..NEUTRAL
    });
    assert_eq!(code, 1, "a digest mismatch must fail:\n{text}");
    assert!(
        text.contains("FAIL paper: digests differ at seed 1"),
        "{text}"
    );
}

#[test]
fn more_failed_checks_fail() {
    let (code, text) = against_neutral("failed", |_| Canned {
        failed: 1,
        ..NEUTRAL
    });
    assert_eq!(code, 1, "more failed checks must fail:\n{text}");
    assert!(
        text.contains("FAIL paper: change failed 10 checks, parent 0"),
        "{text}"
    );
}

#[test]
fn truncated_output_is_a_usage_error() {
    let (code, text) = against_neutral("truncated", |w| Canned {
        truncate: w == "thread_churn",
        ..NEUTRAL
    });
    assert_eq!(code, 2, "a truncated last line must exit 2:\n{text}");
    assert!(text.contains("not a JSON object"), "{text}");
}

#[test]
fn a_missing_metric_is_a_usage_error() {
    let (code, text) = against_neutral("missing", |w| Canned {
        omit: (w == "slo_bursty").then_some("sim_p9999_ms"),
        ..NEUTRAL
    });
    assert_eq!(
        code, 2,
        "a JSON line without a declared metric must exit 2:\n{text}"
    );
    assert!(text.contains("no metric sim_p9999_ms"), "{text}");
}

#[test]
fn rejects_bad_arguments() {
    let run = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_sa-bench-check"))
            .args(args)
            .output()
            .expect("run sa-bench-check")
            .status
            .code()
    };
    assert_eq!(run(&["--parent", "true"]), Some(2));
    assert_eq!(
        run(&["--parent", "a", "--change", "b", "--seconds", "x"]),
        Some(2)
    );
    let missing = "/nonexistent/perfbench";
    assert_eq!(run(&["--parent", missing, "--change", missing]), Some(2));
}
