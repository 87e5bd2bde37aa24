//! Process resource readings from Linux `/proc`.

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`, which
/// Linux fixes at 100 on every architecture it exposes to user space).
const USER_HZ: f64 = 100.0;

fn proc_file(pid: Option<u32>, file: &str) -> std::io::Result<String> {
    let who = pid.map_or("self".to_string(), |p| p.to_string());
    std::fs::read_to_string(format!("/proc/{who}/{file}"))
}

/// High-water resident set size in MiB (`VmHWM`).
pub fn peak_rss_mb(pid: Option<u32>) -> std::io::Result<f64> {
    let status = proc_file(pid, "status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| std::io::Error::other("no VmHWM in /proc status"))
}

/// User plus system CPU seconds consumed by the process, all threads.
pub fn cpu_s(pid: Option<u32>) -> std::io::Result<f64> {
    let stat = proc_file(pid, "stat")?;
    // Fields after the parenthesised command name, which may hold spaces.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or_else(|| std::io::Error::other("malformed /proc stat"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of stat(5); `rest` starts at 3.
    let tick = |i: usize| -> std::io::Result<f64> {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .ok_or_else(|| std::io::Error::other("malformed /proc stat"))
    };
    Ok((tick(11)? + tick(12)?) / USER_HZ)
}

/// Online CPUs, as `nproc` reports them.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_own_usage() {
        assert!(peak_rss_mb(None).unwrap() > 0.0);
        let spin = std::time::Instant::now();
        while spin.elapsed().as_millis() < 50 {
            std::hint::black_box(0u64);
        }
        assert!(cpu_s(None).unwrap() > 0.0);
    }
}
