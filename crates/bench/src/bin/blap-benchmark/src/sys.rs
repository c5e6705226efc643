//! Process resource readings from Linux `/proc`.

/// Peak resident set size (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kib: u64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("status reports VmHWM in kB");
    kib as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_grows_with_touched_memory() {
        let before = peak_rss_mib();
        assert!(before > 0.0);
        let block = std::hint::black_box(vec![1u8; 16 << 20]);
        assert!(peak_rss_mib() >= before + 8.0, "16 MiB touched");
        drop(block);
    }
}
