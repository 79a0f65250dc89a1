//! The one way a bench binary reads its command line.
//!
//! Flags are looked up by name in the process's arguments, so a binary
//! states each flag once, where it uses it. A value that does not parse
//! is the user's mistake, not a bug: it prints
//! `--x: expected <type>, got "…"` and exits 2 instead of panicking.

use std::str::FromStr;

fn argv() -> Vec<String> {
    std::env::args().skip(1).collect()
}

/// Whether the switch `name` (e.g. `"--quick"`) was passed.
pub fn flag(name: &str) -> bool {
    argv().iter().any(|a| a == name)
}

/// The value following `name` (e.g. `--seed 7`), or `None` when the flag
/// is absent. Exits 2 with a one-line message when the value is missing
/// or does not parse as `T`.
pub fn value<T: FromStr>(name: &str) -> Option<T> {
    value_in(&argv(), name).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    })
}

/// The first word that is neither a `--flag` nor the value of one of
/// `value_flags` (the value-taking flags the binary accepts) — e.g.
/// `fig8_sweep`'s workload name.
pub fn positional(value_flags: &[&str]) -> Option<String> {
    positional_in(&argv(), value_flags)
}

/// `--jobs N`, the worker count every sweep binary takes: absent or 0
/// means the machine's available parallelism (the same resolver as
/// `RunOptions::lanes`).
pub fn jobs() -> usize {
    xenic::resolve_parallelism(value("--jobs").unwrap_or(0))
}

fn positional_in(argv: &[String], value_flags: &[&str]) -> Option<String> {
    let is_value = |i: usize| i > 0 && value_flags.contains(&argv[i - 1].as_str());
    (0..argv.len())
        .find(|&i| !argv[i].starts_with("--") && !is_value(i))
        .map(|i| argv[i].clone())
}

fn value_in<T: FromStr>(argv: &[String], name: &str) -> Result<Option<T>, String> {
    let Some(i) = argv.iter().position(|a| a == name) else {
        return Ok(None);
    };
    let ty = std::any::type_name::<T>().rsplit("::").next().unwrap_or("value");
    match argv.get(i + 1) {
        None => Err(format!("{name}: expected {ty}, got nothing")),
        Some(v) => v
            .parse()
            .map(Some)
            .map_err(|_| format!("{name}: expected {ty}, got {v:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn values_parse_by_name() {
        let a = argv(&["--fast", "--jobs", "3", "--trace", "out.json"]);
        assert_eq!(value_in::<usize>(&a, "--jobs"), Ok(Some(3)));
        assert_eq!(value_in::<String>(&a, "--trace"), Ok(Some("out.json".to_string())));
        assert_eq!(value_in::<u64>(&a, "--seed"), Ok(None));
    }

    #[test]
    fn positional_skips_flags_and_their_values() {
        let flags = ["--trace", "--jobs"];
        let a = argv(&["--jobs", "3", "--fast", "retwis", "--trace", "out.json"]);
        assert_eq!(positional_in(&a, &flags), Some("retwis".to_string()));
        assert_eq!(positional_in(&argv(&["--trace", "out.json"]), &flags), None);
    }

    #[test]
    fn malformed_values_name_flag_type_and_text() {
        let a = argv(&["--jitter", "fast", "--jobs"]);
        assert_eq!(
            value_in::<u64>(&a, "--jitter"),
            Err("--jitter: expected u64, got \"fast\"".to_string())
        );
        assert_eq!(
            value_in::<usize>(&a, "--jobs"),
            Err("--jobs: expected usize, got nothing".to_string())
        );
        assert_eq!(
            value_in::<String>(&argv(&["--trace"]), "--trace"),
            Err("--trace: expected String, got nothing".to_string())
        );
    }
}
