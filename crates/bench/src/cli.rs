//! Minimal flag parsing shared by the experiment binaries.
//!
//! Each binary historically took positional arguments only; the
//! observability flags ride alongside them:
//!
//! ```text
//! table2 [trials] [seed] [jobs] --metrics out/metrics.json --trace out/trace.jsonl
//! ```
//!
//! `--jobs N` is equivalent to the positional jobs argument; both beat the
//! `BLAP_JOBS` environment variable, which beats the hardware default.
//! Wall-clock timings are excluded from metrics exports unless
//! `BLAP_METRICS_WALL=1`, keeping the artifact byte-comparable across
//! runs and machines.

use blap::runner::{Jobs, JobsResolution, JOBS_ENV_VAR};
use blap_obs::{export_json, prof, MetaValue, Metrics};

/// Parsed command line: positionals in order, plus the shared flags.
#[derive(Clone, Debug, Default)]
pub struct Args {
    /// Positional arguments, in the order given.
    pub positional: Vec<String>,
    /// `--metrics <path>`: write a metrics.json artifact here.
    pub metrics_path: Option<String>,
    /// `--trace <path>`: write the JSONL trace here.
    pub trace_path: Option<String>,
    /// `--jobs <n>`: explicit worker count (same as the jobs positional).
    pub jobs: Option<String>,
    /// `--profile <prefix>`: enable wall-time profiling and write the
    /// sidecar `<prefix>.json` + `<prefix>.folded` pair.
    pub profile_prefix: Option<String>,
    /// Binary-specific valued flags that were present (flag → value), as
    /// declared to [`Args::parse_with`].
    pub extra: Vec<(String, String)>,
    /// Binary-specific boolean switches that were present, as declared to
    /// [`Args::parse_with`].
    pub switches: Vec<String>,
}

impl Args {
    /// Parses `std::env::args` (program name skipped).
    ///
    /// Exits with an error message on a flag with a missing value, a
    /// repeated flag, or an unknown `--flag`; positionals are kept verbatim
    /// for the binary to interpret.
    pub fn parse() -> Args {
        Args::parse_with(&[], &[])
    }

    /// [`Args::parse`] plus binary-specific flags: `valued` flags take one
    /// value (`--digits 6`), `switches` take none (`--once`). Anything
    /// not in either list still errors as unknown.
    pub fn parse_with(valued: &[&str], switches: &[&str]) -> Args {
        match Args::try_from_iter_with(std::env::args().skip(1), valued, switches) {
            Ok(args) => args,
            Err(message) => {
                eprintln!("error: {message}");
                std::process::exit(2);
            }
        }
    }

    /// [`Args::parse`] without the exit: returns the parse error instead.
    pub fn try_from_iter(iter: impl Iterator<Item = String>) -> Result<Args, String> {
        Args::try_from_iter_with(iter, &[], &[])
    }

    /// [`Args::parse_with`] without the exit: returns the parse error
    /// instead.
    ///
    /// Repeating any flag is an error rather than last-one-wins: a
    /// duplicated artifact flag in a CI job almost always means a
    /// copy-paste mistake silently discarding one artifact.
    pub fn try_from_iter_with(
        mut iter: impl Iterator<Item = String>,
        valued: &[&str],
        switches: &[&str],
    ) -> Result<Args, String> {
        fn set(slot: &mut Option<String>, flag: &str, value: Option<String>) -> Result<(), String> {
            let value = value.ok_or_else(|| format!("{flag} requires a value"))?;
            if slot.is_some() {
                return Err(format!("{flag} given more than once"));
            }
            *slot = Some(value);
            Ok(())
        }
        let mut args = Args::default();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--metrics" => set(&mut args.metrics_path, "--metrics", iter.next())?,
                "--trace" => set(&mut args.trace_path, "--trace", iter.next())?,
                "--jobs" => set(&mut args.jobs, "--jobs", iter.next())?,
                "--profile" => set(&mut args.profile_prefix, "--profile", iter.next())?,
                flag if valued.contains(&flag) => {
                    let mut slot = None;
                    if args.extra.iter().any(|(f, _)| f == flag) {
                        return Err(format!("{flag} given more than once"));
                    }
                    set(&mut slot, flag, iter.next())?;
                    args.extra.push((flag.to_owned(), slot.expect("just set")));
                }
                flag if switches.contains(&flag) => {
                    if args.switches.iter().any(|f| f == flag) {
                        return Err(format!("{flag} given more than once"));
                    }
                    args.switches.push(flag.to_owned());
                }
                flag if flag.starts_with("--") => {
                    return Err(format!("unknown flag {flag}"));
                }
                _ => args.positional.push(arg),
            }
        }
        Ok(args)
    }

    /// The value of a binary-specific valued flag parsed as `T`, or
    /// `default` when the flag is absent.
    ///
    /// A present-but-unparseable value is an error, not a silent default: a
    /// typo in `--digits` must not quietly run a different search space.
    pub fn extra_or<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.extra.iter().find(|(f, _)| f == flag) {
            None => Ok(default),
            Some((_, value)) => value
                .parse()
                .map_err(|_| format!("{flag} value {value:?} is not valid")),
        }
    }

    /// Whether a binary-specific boolean switch was present.
    pub fn has_switch(&self, flag: &str) -> bool {
        self.switches.iter().any(|f| f == flag)
    }

    /// The `i`-th positional parsed as `T`, or `default` when absent or
    /// unparseable.
    pub fn positional_or<T: std::str::FromStr>(&self, i: usize, default: T) -> T {
        self.positional
            .get(i)
            .and_then(|s| s.parse().ok())
            .unwrap_or(default)
    }

    /// Enables wall-time profiling when `--profile` was given or
    /// `BLAP_PROF=1` is set. Call once, before the workload runs. The
    /// profile is sidecar-only, so flipping this can never change a
    /// `--metrics`/`--trace` byte.
    pub fn init_profiling(&self) {
        if self.profile_prefix.is_some() {
            prof::set_enabled(true);
        } else {
            prof::enable_from_env();
        }
    }

    /// Drains the profiler and writes `<prefix>.json` + `<prefix>.folded`
    /// when profiling was requested via `--profile`. Call after the
    /// workload finishes.
    pub fn write_profile(&self) {
        let Some(prefix) = &self.profile_prefix else {
            return;
        };
        let report = prof::report();
        write_artifact(&format!("{prefix}.json"), &report.to_json());
        write_artifact(&format!("{prefix}.folded"), &report.to_folded());
        eprintln!("profile sidecar: {prefix}.json, {prefix}.folded");
    }

    /// Resolves the worker count: `--jobs` / positional `i` (CLI), then
    /// `BLAP_JOBS`, then the hardware default. Prints any resolution
    /// warnings (e.g. a zero value falling back) to stderr.
    pub fn resolve_jobs(&self, positional_index: usize) -> Jobs {
        let cli = self
            .jobs
            .clone()
            .or_else(|| self.positional.get(positional_index).cloned());
        let env = std::env::var(JOBS_ENV_VAR).ok();
        let JobsResolution { jobs, warnings, .. } =
            Jobs::resolve_from(cli.as_deref(), env.as_deref());
        for warning in &warnings {
            eprintln!("warning: {warning}");
        }
        jobs
    }
}

/// Writes `contents` to `path`, exiting with a message on failure.
pub fn write_artifact(path: &str, contents: &str) {
    if let Err(err) = std::fs::write(path, contents) {
        eprintln!("error: cannot write {path}: {err}");
        std::process::exit(1);
    }
}

/// Renders and writes a metrics.json artifact.
///
/// `meta` identifies the run (experiment name, seed, ...) and must not
/// contain schedule-dependent values — notably the worker count — because
/// the artifact is byte-compared across parallelism levels. Virtual-time
/// metrics only by default; when `BLAP_METRICS_WALL=1`, the wall-clock
/// duration of the run is appended to the metadata (intentionally opt-in:
/// it breaks byte-comparability between runs).
pub fn write_metrics(
    path: &str,
    meta: &[(&str, MetaValue)],
    metrics: &Metrics,
    wall: std::time::Duration,
) {
    let mut meta = meta.to_vec();
    if std::env::var("BLAP_METRICS_WALL").is_ok_and(|v| v == "1") {
        meta.push(("wall_ms", MetaValue::Int(wall.as_millis() as u64)));
    }
    write_artifact(path, &export_json(&meta, metrics));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Args {
        try_parse(tokens).expect("valid command line")
    }

    fn try_parse(tokens: &[&str]) -> Result<Args, String> {
        Args::try_from_iter(tokens.iter().map(|s| s.to_string()))
    }

    #[test]
    fn flags_and_positionals_interleave() {
        let args = parse(&["100", "--metrics", "m.json", "7", "--trace", "t.jsonl"]);
        assert_eq!(args.positional, vec!["100", "7"]);
        assert_eq!(args.metrics_path.as_deref(), Some("m.json"));
        assert_eq!(args.trace_path.as_deref(), Some("t.jsonl"));
        assert_eq!(args.jobs, None);
    }

    #[test]
    fn positional_defaults_apply() {
        let args = parse(&["50"]);
        assert_eq!(args.positional_or(0, 100usize), 50);
        assert_eq!(args.positional_or(1, 2022u64), 2022);
    }

    #[test]
    fn jobs_flag_is_captured() {
        let args = parse(&["--jobs", "4"]);
        assert_eq!(args.jobs.as_deref(), Some("4"));
    }

    #[test]
    fn duplicate_artifact_flags_are_rejected() {
        for flag in ["--metrics", "--trace", "--jobs"] {
            let err = try_parse(&[flag, "a", flag, "b"]).expect_err("duplicate must error");
            assert_eq!(err, format!("{flag} given more than once"));
        }
    }

    #[test]
    fn flag_with_missing_value_names_the_flag() {
        let err = try_parse(&["--metrics"]).expect_err("missing value must error");
        assert_eq!(err, "--metrics requires a value");
        let err = try_parse(&["100", "--trace"]).expect_err("missing value must error");
        assert_eq!(err, "--trace requires a value");
    }

    #[test]
    fn unknown_flag_is_rejected() {
        let err = try_parse(&["--frobnicate"]).expect_err("unknown flag must error");
        assert_eq!(err, "unknown flag --frobnicate");
    }

    fn try_parse_with(tokens: &[&str], valued: &[&str], switches: &[&str]) -> Result<Args, String> {
        Args::try_from_iter_with(tokens.iter().map(|s| s.to_string()), valued, switches)
    }

    #[test]
    fn extra_flags_parse_and_default() {
        let args = try_parse_with(
            &["987654", "--digits", "6", "--reference"],
            &["--digits", "--trials"],
            &["--reference"],
        )
        .expect("valid command line");
        assert_eq!(args.positional, vec!["987654"]);
        assert_eq!(args.extra_or("--digits", 4u32), Ok(6));
        assert_eq!(args.extra_or("--trials", 1u32), Ok(1));
        assert!(args.has_switch("--reference"));
        assert!(!args.has_switch("--verify"));
    }

    #[test]
    fn extra_flags_must_be_declared() {
        let err = try_parse_with(&["--digits", "6"], &[], &[]).expect_err("undeclared flag");
        assert_eq!(err, "unknown flag --digits");
    }

    #[test]
    fn extra_flag_bad_value_is_an_error_not_a_default() {
        let args = try_parse_with(&["--digits", "six"], &["--digits"], &[]).expect("parses");
        assert_eq!(
            args.extra_or("--digits", 6u32),
            Err("--digits value \"six\" is not valid".to_owned())
        );
    }

    #[test]
    fn duplicate_extra_flags_are_rejected() {
        let err = try_parse_with(&["--digits", "4", "--digits", "6"], &["--digits"], &[])
            .expect_err("duplicate must error");
        assert_eq!(err, "--digits given more than once");
        let err = try_parse_with(&["--reference", "--reference"], &[], &["--reference"])
            .expect_err("duplicate must error");
        assert_eq!(err, "--reference given more than once");
    }
}
