//! The paper's user-facing configuration interface (§III-A): verification
//! options are supplied "by adding directives or using environment
//! variables (e.g., `verificationOptions=complement=0,kernels=main_kernel0`
//! informs the compiler to verify a specific kernel ... and
//! `minValueToCheck=1e-32` enforces that result is compared only if its
//! value is bigger than a specified threshold)".

use crate::exec::VerifyOptions;
use std::collections::BTreeSet;

/// Every key `parse_verification_options` accepts, sorted — quoted in
/// the unknown-key diagnostic so a typo'd spec names its own fix.
pub const ACCEPTED_KEYS: [&str; 7] = [
    "absTol",
    "complement",
    "devices",
    "kernels",
    "minValueToCheck",
    "queue",
    "relTol",
];

/// Error from parsing an option string.
#[derive(Debug, Clone, PartialEq)]
pub struct OptionError(pub String);

impl std::fmt::Display for OptionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid option: {}", self.0)
    }
}

impl std::error::Error for OptionError {}

/// Parse the paper's `verificationOptions` syntax into [`VerifyOptions`].
///
/// Grammar (comma-separated `key=value` pairs):
///
/// * `complement=0|1` — verify only the listed kernels (`0`) or everything
///   except them (`1`);
/// * `kernels=<name>[:<name>...]` — target kernel names;
/// * `minValueToCheck=<float>`;
/// * `relTol=<float>` / `absTol=<float>` — comparison margins;
/// * `queue=<int>` — async queue used for demoted transfers;
/// * `devices=<int>` — simulated devices that independent launches are
///   spread across, round-robin per dependency level (clamped to 1..=8).
///
/// ```
/// use openarc_core::options::parse_verification_options;
/// let v = parse_verification_options(
///     "complement=0,kernels=main_kernel0,minValueToCheck=1e-32",
/// ).unwrap();
/// assert!(!v.complement);
/// assert!(v.targets.unwrap().contains("main_kernel0"));
/// assert_eq!(v.min_value_to_check, 1e-32);
/// ```
pub fn parse_verification_options(spec: &str) -> Result<VerifyOptions, OptionError> {
    let mut opts = VerifyOptions::default();
    let mut seen: BTreeSet<&str> = BTreeSet::new();
    for pair in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        let Some((key, value)) = pair.split_once('=') else {
            return Err(OptionError(format!("`{pair}` is not key=value")));
        };
        let key = key.trim();
        if !seen.insert(key) {
            return Err(OptionError(format!(
                "duplicate key `{key}` (each key may appear once)"
            )));
        }
        match key {
            "complement" => {
                opts.complement = match value.trim() {
                    "0" => false,
                    "1" => true,
                    other => {
                        return Err(OptionError(format!(
                            "complement must be 0 or 1, got `{other}`"
                        )))
                    }
                }
            }
            "kernels" => {
                let names: BTreeSet<String> = value
                    .split(':')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect();
                if names.is_empty() {
                    return Err(OptionError("kernels list is empty".into()));
                }
                opts.targets = Some(names);
            }
            "minValueToCheck" => {
                opts.min_value_to_check = value
                    .trim()
                    .parse()
                    .map_err(|_| OptionError(format!("bad float `{value}`")))?;
            }
            "relTol" => {
                opts.rel_tol = value
                    .trim()
                    .parse()
                    .map_err(|_| OptionError(format!("bad float `{value}`")))?;
            }
            "absTol" => {
                opts.abs_tol = value
                    .trim()
                    .parse()
                    .map_err(|_| OptionError(format!("bad float `{value}`")))?;
            }
            "queue" => {
                opts.queue = value
                    .trim()
                    .parse()
                    .map_err(|_| OptionError(format!("bad integer `{value}`")))?;
            }
            "devices" => {
                let n: usize = value
                    .trim()
                    .parse()
                    .map_err(|_| OptionError(format!("bad integer `{value}`")))?;
                if n == 0 {
                    return Err(OptionError("devices must be >= 1".into()));
                }
                opts.devices = n.min(openarc_runtime::MAX_DEVICES);
            }
            other => {
                return Err(OptionError(format!(
                    "unknown key `{other}` (accepted: {})",
                    ACCEPTED_KEYS.join(", ")
                )))
            }
        }
    }
    Ok(opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_example() {
        let v = parse_verification_options("complement=0,kernels=main_kernel0").unwrap();
        assert!(!v.complement);
        assert_eq!(
            v.targets.unwrap().into_iter().collect::<Vec<_>>(),
            vec!["main_kernel0"]
        );
    }

    #[test]
    fn parses_multiple_kernels_and_margins() {
        let v = parse_verification_options(
            "complement=1,kernels=main_kernel0:main_kernel2,relTol=1e-4,absTol=1e-8,queue=3",
        )
        .unwrap();
        assert!(v.complement);
        assert_eq!(v.targets.as_ref().unwrap().len(), 2);
        assert_eq!(v.rel_tol, 1e-4);
        assert_eq!(v.abs_tol, 1e-8);
        assert_eq!(v.queue, 3);
    }

    #[test]
    fn parses_min_value_to_check() {
        let v = parse_verification_options("minValueToCheck=1e-32").unwrap();
        assert_eq!(v.min_value_to_check, 1e-32);
    }

    #[test]
    fn empty_spec_is_default() {
        let v = parse_verification_options("").unwrap();
        assert!(v.targets.is_none());
        assert!(!v.complement);
    }

    #[test]
    fn rejects_the_removed_comparejobs_key() {
        // The comparison fan-out is gone; its key is rejected like any
        // other unknown key, whatever the value.
        for spec in ["compareJobs=2", "devices=2,compareJobs=1"] {
            let e = parse_verification_options(spec).unwrap_err();
            assert!(
                e.0.starts_with("unknown key `compareJobs` (accepted: "),
                "{spec}: {e}"
            );
        }
    }

    #[test]
    fn rejects_the_removed_dagjobs_and_placement_keys() {
        // The in-flight window and EFT placement are gone; their keys are
        // rejected like any other unknown key, whatever the value.
        for (spec, key) in [
            ("dagJobs=4", "dagJobs"),
            ("dagJobs=1", "dagJobs"),
            ("placement=eft", "placement"),
            ("devices=2,placement=roundrobin", "placement"),
        ] {
            let e = parse_verification_options(spec).unwrap_err();
            assert!(
                e.0.starts_with(&format!("unknown key `{key}` (accepted: ")),
                "{spec}: {e}"
            );
        }
    }

    #[test]
    fn parses_devices() {
        let v = parse_verification_options("devices=2").unwrap();
        assert_eq!(v.devices, 2);
        // The default is one device.
        assert_eq!(parse_verification_options("").unwrap().devices, 1);
        // Device count clamps to the journal's side-name table.
        let big = parse_verification_options("devices=99").unwrap();
        assert_eq!(big.devices, openarc_runtime::MAX_DEVICES);
        assert!(parse_verification_options("devices=0").is_err());
    }

    #[test]
    fn whitespace_tolerated() {
        let v = parse_verification_options(" complement = 1 , kernels = k0 ").unwrap();
        assert!(v.complement);
        assert!(v.targets.unwrap().contains("k0"));
    }

    #[test]
    fn rejects_bad_pairs() {
        assert!(parse_verification_options("complement").is_err());
        assert!(parse_verification_options("complement=2").is_err());
        assert!(parse_verification_options("kernels=").is_err());
        assert!(parse_verification_options("minValueToCheck=abc").is_err());
        assert!(parse_verification_options("frobnicate=1").is_err());
    }

    #[test]
    fn rejects_duplicate_keys() {
        for spec in [
            "complement=0,complement=1",
            "kernels=k0,kernels=k1",
            "relTol=1e-4,absTol=1e-8,relTol=1e-6",
            // Whitespace around a key does not hide the repeat.
            "queue=1, queue =2",
        ] {
            let err = parse_verification_options(spec).unwrap_err();
            assert!(err.0.contains("duplicate key"), "{spec}: {err}");
        }
        // The message names the offending key, not just "a duplicate".
        let err = parse_verification_options("devices=2,devices=3").unwrap_err();
        assert!(err.0.contains("`devices`"), "{err}");
        // Distinct keys never trip the check.
        assert!(parse_verification_options("relTol=1e-4,absTol=1e-8").is_ok());
    }

    #[test]
    fn unknown_key_reports_the_accepted_set() {
        let err = parse_verification_options("frobnicate=1").unwrap_err();
        assert!(err.0.contains("`frobnicate`"), "{err}");
        for key in ACCEPTED_KEYS {
            assert!(err.0.contains(key), "missing {key} in: {err}");
        }
        // The list stays sorted so the diagnostic is scannable.
        let mut sorted = ACCEPTED_KEYS;
        sorted.sort_unstable();
        assert_eq!(sorted, ACCEPTED_KEYS);
    }

    #[test]
    fn malformed_input_classes_each_name_their_problem() {
        for (spec, needle) in [
            ("complement", "not key=value"),
            ("complement=2", "complement must be 0 or 1"),
            ("kernels=", "kernels list is empty"),
            ("kernels=::", "kernels list is empty"),
            ("minValueToCheck=abc", "bad float"),
            ("relTol=", "bad float"),
            ("absTol=1e", "bad float"),
            ("queue=1.5", "bad integer"),
            ("compareJobs=2", "unknown key `compareJobs`"),
            ("devices=-1", "bad integer"),
            ("devices=0", "devices must be >= 1"),
            ("dagJobs=4", "unknown key `dagJobs`"),
            ("placement=eft", "unknown key `placement`"),
            ("queue=1,queue=2", "duplicate key"),
            ("frobnicate=1", "unknown key"),
        ] {
            let err = parse_verification_options(spec).unwrap_err();
            assert!(err.0.contains(needle), "{spec}: {err}");
        }
    }
}
