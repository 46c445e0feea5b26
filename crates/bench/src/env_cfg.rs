//! Validated environment-knob parsing shared by the bench binaries.
//!
//! Every knob (`PPC_SCALE`, `PPC_WORKERS`, …) used to be read with a
//! silent `.ok().and_then(parse).unwrap_or(default)` chain, so a typo like
//! `PPC_SCALE=0,1` quietly ran the full paper workload. All reads now go
//! through [`env_or`], which treats garbage as a hard configuration error
//! with a message naming the variable and the rejected value. The parsing
//! itself is the pure [`parse`] function, unit-testable without mutating
//! process state (env-var mutation is racy under the parallel test
//! runner).
//!
//! The five knobs: `PPC_SCALE` (workload size), `PPC_WORKERS` and
//! `PPC_SWEEP_CACHE` (how a sweep runs, read by
//! [`crate::sweep::SweepOptions::from_env`]), `PPC_CSV_DIR` (where the
//! latency tables also write CSV) and `PPC_FP_EPOCH` (`ppc replay` and
//! `ppc diff` only). None of them changes the machine a sweep cell runs
//! on: a [`crate::sweep::RunSpec`] is the cell's whole input.

use std::fmt::Display;
use std::str::FromStr;

/// Parses an optional raw environment value. Pure: `None` or a
/// blank/empty string mean "unset" (`Ok(None)`); anything else must parse
/// as `T` or the error names the variable and the offending value.
pub fn parse<T: FromStr>(name: &str, raw: Option<&str>) -> Result<Option<T>, String>
where
    T::Err: Display,
{
    match raw {
        None => Ok(None),
        Some(s) if s.trim().is_empty() => Ok(None),
        Some(s) => s
            .trim()
            .parse::<T>()
            .map(Some)
            .map_err(|e| format!("invalid {name}={s:?}: {e} (unset it or pass a valid value)")),
    }
}

/// Reads and parses `name` from the process environment, falling back to
/// `default` when unset. A value that does not parse aborts the process
/// with a clear error instead of being silently ignored.
pub fn env_or<T: FromStr>(name: &str, default: T) -> T
where
    T::Err: Display,
{
    env_or_else(name, || default)
}

/// [`env_or`] with a lazily computed default (e.g. querying the host's
/// available parallelism only when `PPC_WORKERS` is unset).
pub fn env_or_else<T: FromStr>(name: &str, default: impl FnOnce() -> T) -> T
where
    T::Err: Display,
{
    match parse(name, std::env::var(name).ok().as_deref()) {
        Ok(v) => v.unwrap_or_else(default),
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    }
}

/// [`parse`] for a strictly positive, finite `f64` (threshold ratios such
/// as `ppc overhead --max-ratio`): `0`, negatives, `NaN`, and `inf` are
/// errors, not values.
pub fn parse_positive_f64(name: &str, raw: Option<&str>) -> Result<Option<f64>, String> {
    match parse::<f64>(name, raw)? {
        Some(v) if v.is_finite() && v > 0.0 => Ok(Some(v)),
        Some(v) => Err(format!("invalid {name}={v}: must be a positive finite number")),
        None => Ok(None),
    }
}

/// [`parse`] for a strictly positive count (epoch lengths, cadences):
/// `0` is a configuration error, not "run nothing".
pub fn parse_count(name: &str, raw: Option<&str>) -> Result<Option<usize>, String> {
    match parse::<usize>(name, raw)? {
        Some(0) => Err(format!("invalid {name}=0: must be a positive count")),
        other => Ok(other),
    }
}

/// Reads `PPC_FP_EPOCH` — events per determinism-fingerprint epoch
/// (default [`sim_stats::HostObsConfig::default`]'s 8192) for `ppc
/// replay` and `ppc diff`. Replay checkpoints once per epoch, and
/// divergence localization quantizes to it. `0` and garbage are
/// configuration errors.
pub fn env_fp_epoch() -> Option<u64> {
    match parse_count("PPC_FP_EPOCH", std::env::var("PPC_FP_EPOCH").ok().as_deref()) {
        Ok(v) => v.map(|n| n as u64),
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unset_and_blank_mean_default() {
        assert_eq!(parse::<f64>("PPC_SCALE", None), Ok(None));
        assert_eq!(parse::<f64>("PPC_SCALE", Some("")), Ok(None));
        assert_eq!(parse::<f64>("PPC_SCALE", Some("   ")), Ok(None));
    }

    #[test]
    fn valid_values_parse_with_whitespace_trimmed() {
        assert_eq!(parse::<f64>("PPC_SCALE", Some("0.25")), Ok(Some(0.25)));
        assert_eq!(parse::<f64>("PPC_SCALE", Some(" 1.5 ")), Ok(Some(1.5)));
        assert_eq!(parse::<usize>("PPC_WORKERS", Some("4")), Ok(Some(4)));
    }

    #[test]
    fn garbage_names_the_variable_and_value() {
        let err = parse::<f64>("PPC_SCALE", Some("0,1")).unwrap_err();
        assert!(err.contains("PPC_SCALE"), "{err}");
        assert!(err.contains("0,1"), "{err}");
        let err = parse::<usize>("PPC_WORKERS", Some("many")).unwrap_err();
        assert!(err.contains("PPC_WORKERS"), "{err}");
        assert!(err.contains("many"), "{err}");
    }

    #[test]
    fn negative_count_is_garbage_not_default() {
        assert!(parse::<usize>("PPC_WORKERS", Some("-2")).is_err());
    }

    #[test]
    fn positive_f64_accepts_thresholds_and_rejects_nonsense() {
        assert_eq!(parse_positive_f64("--max-ratio", Some("3.0")), Ok(Some(3.0)));
        assert_eq!(parse_positive_f64("--max-ratio", None), Ok(None));
        for bad in ["0", "-1.5", "nan", "inf", "fast"] {
            let err = parse_positive_f64("--max-ratio", Some(bad)).unwrap_err();
            assert!(err.contains("--max-ratio"), "{bad}: {err}");
        }
    }

    #[test]
    fn fp_epoch_and_checkpoint_knobs_reject_zero_and_garbage() {
        // `PPC_FP_EPOCH` is the one time-travel knob: it sets the epoch
        // grid and, for `ppc replay`, the checkpoint cadence. It routes
        // through `parse_count`; the pure layer is what's testable without
        // racing on process-global env.
        assert_eq!(parse_count("PPC_FP_EPOCH", None), Ok(None), "unset keeps the 8192 default");
        assert_eq!(parse_count("PPC_FP_EPOCH", Some("512")), Ok(Some(512)));
        let err = parse_count("PPC_FP_EPOCH", Some("0")).unwrap_err();
        assert!(err.contains("PPC_FP_EPOCH"), "{err}");
        assert!(err.contains("positive count"), "{err}");
        assert!(parse_count("PPC_FP_EPOCH", Some("8k")).is_err());
        let err = parse_count("PPC_FP_EPOCH", Some("often")).unwrap_err();
        assert!(err.contains("often"), "{err}");
    }

    #[test]
    fn count_rejects_zero_by_name() {
        assert_eq!(parse_count("PPC_FP_EPOCH", Some("3")), Ok(Some(3)));
        assert_eq!(parse_count("PPC_FP_EPOCH", None), Ok(None));
        let err = parse_count("PPC_FP_EPOCH", Some("0")).unwrap_err();
        assert!(err.contains("PPC_FP_EPOCH"), "{err}");
        assert!(parse_count("PPC_FP_EPOCH", Some("two")).is_err());
    }
}
