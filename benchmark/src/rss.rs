//! Peak resident set size of this process, from `/proc/self/status`.

/// Parse the `VmHWM:` line of a `/proc/<pid>/status` text into MiB.
pub fn parse_vm_hwm_mib(status: &str) -> Option<f64> {
    let rest = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?;
    let mut fields = rest.split_whitespace();
    let value: f64 = fields.next()?.parse().ok()?;
    match fields.next()? {
        "kB" => Some(value / 1024.0),
        _ => None,
    }
}

/// `VmHWM` of the calling process in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    parse_vm_hwm_mib(&status).ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_kernel_format() {
        let status = "Name:\tx\nVmPeak:\t  999999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t   1024 kB\n";
        assert_eq!(parse_vm_hwm_mib(status), Some(20.0));
    }

    #[test]
    fn rejects_missing_or_malformed_lines() {
        assert_eq!(parse_vm_hwm_mib("VmRSS:\t 10 kB\n"), None);
        assert_eq!(parse_vm_hwm_mib("VmHWM:\t lots kB\n"), None);
        assert_eq!(parse_vm_hwm_mib("VmHWM:\t 10 pages\n"), None);
        assert_eq!(parse_vm_hwm_mib("VmHWM:\n"), None);
    }

    #[test]
    fn this_process_has_a_peak() {
        assert!(peak_rss_mib().unwrap() > 0.0);
    }
}
