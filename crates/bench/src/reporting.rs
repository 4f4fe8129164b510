//! Text-table reporting helpers shared by the bench harnesses.

use std::num::NonZeroUsize;

/// The sweep worker count from `SA_JOBS` (default: host cores), exiting
/// with a clear message on an invalid value. Bench targets take no
/// command-line flags, so the environment variable is their only knob.
pub fn jobs_or_exit(tool: &str) -> NonZeroUsize {
    sa_harness::jobs_from_env().unwrap_or_else(|e| {
        eprintln!("{tool}: {e}");
        std::process::exit(2);
    })
}

/// Prints a separator line sized to the given column widths.
pub fn rule(widths: &[usize]) {
    let total: usize = widths.iter().sum::<usize>() + 3 * widths.len().saturating_sub(1);
    println!("{}", "-".repeat(total));
}

/// Formats a ratio as `x.xx×`.
pub fn times(x: f64) -> String {
    format!("{x:.2}x")
}

#[cfg(test)]
mod tests {
    #[test]
    fn times_formats() {
        assert_eq!(super::times(2.456), "2.46x");
    }
}
