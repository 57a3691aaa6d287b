//! What the harness reads from the operating system: process CPU time,
//! peak resident memory, and the environment block written into every
//! result (core count, CPU model, kernel, compiler, commit, filesystem).

use std::path::Path;
use std::process::Command;

/// Kernel clock ticks per second for `/proc/<pid>/stat` times. Linux has
/// reported `USER_HZ = 100` to user space on every architecture since 2.6.
const USER_HZ: f64 = 100.0;

/// `utime + stime` in seconds from the text of `/proc/<pid>/stat`.
///
/// The second field (`comm`) is the executable name in parentheses and may
/// itself contain spaces and parentheses, so fields are counted from the
/// *last* `)`: after it come `state` (field 3) …, `utime` (14), `stime`
/// (15).
pub fn parse_stat_cpu_seconds(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

/// CPU seconds (user + system, all threads, live and joined) this process
/// has consumed so far.
pub fn process_cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_cpu_seconds(&s))
        .unwrap_or(f64::NAN)
}

/// The `VmHWM` line (peak resident set) of `/proc/<pid>/status`, in MB
/// (10⁶ bytes; the kernel reports kB = 1024 bytes).
pub fn parse_status_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_ascii_whitespace();
    let value: f64 = parts.next()?.parse().ok()?;
    let scale = match parts.next() {
        Some("kB") | None => 1024.0,
        Some("mB") | Some("MB") => 1024.0 * 1024.0,
        Some(_) => return None,
    };
    Some(value * scale / 1e6)
}

/// Peak resident memory of this process so far, in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_status_vm_hwm_mb(&s))
        .unwrap_or(f64::NAN)
}

/// Filesystem type of the mount holding `path`, from the text of
/// `/proc/self/mountinfo`: the entry with the longest mount point that is
/// a path-prefix of `path` wins (later entries shadow earlier ones).
pub fn parse_mountinfo_fs_type(mountinfo: &str, path: &Path) -> Option<String> {
    let mut best: Option<(usize, &str)> = None;
    for line in mountinfo.lines() {
        // `36 35 98:0 /root /mnt/point rw,noatime - ext4 /dev/sda1 rw`
        let Some((left, right)) = line.split_once(" - ") else {
            continue;
        };
        let (Some(mount_point), Some(fs_type)) = (
            left.split_ascii_whitespace().nth(4),
            right.split_ascii_whitespace().next(),
        ) else {
            continue;
        };
        if path.starts_with(mount_point) && best.is_none_or(|(len, _)| mount_point.len() >= len) {
            best = Some((mount_point.len(), fs_type));
        }
    }
    best.map(|(_, t)| t.to_string())
}

/// Filesystem type behind `path` (`"unknown"` when it cannot be told).
pub fn fs_type_of(path: &Path) -> String {
    let abs = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    std::fs::read_to_string("/proc/self/mountinfo")
        .ok()
        .and_then(|m| parse_mountinfo_fs_type(&m, &abs))
        .unwrap_or_else(|| "unknown".to_string())
}

/// First line of a command's standard output, if it ran and succeeded.
fn first_line_of(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    text.lines().next().map(|l| l.trim().to_string())
}

/// The machine and build a result was measured on.
#[derive(Clone, Debug)]
pub struct Environment {
    /// Cores available to this process.
    pub nproc: usize,
    /// `model name` of the first CPU in `/proc/cpuinfo`.
    pub cpu_model: String,
    /// Kernel release.
    pub kernel: String,
    /// `rustc -V`.
    pub rustc: String,
    /// `git rev-parse HEAD`, or `"unknown"` outside a git checkout.
    pub git_commit: String,
    /// Build profile of the harness (and, through it, of the crates under
    /// test).
    pub profile: String,
}

impl Environment {
    /// Collect the environment block.
    pub fn collect() -> Self {
        let unknown = || "unknown".to_string();
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(unknown);
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| unknown());
        let profile = if cfg!(debug_assertions) {
            "debug (unoptimized: numbers are not comparable)"
        } else {
            "release lto=thin debug=true"
        };
        Self {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            kernel,
            rustc: first_line_of("rustc", &["-V"]).unwrap_or_else(unknown),
            git_commit: first_line_of("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown),
            profile: profile.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parser_survives_hostile_comm() {
        // comm = "a) b (c" — spaces and parentheses inside the name.
        let stat = "4242 (a) b (c) S 1 4242 4242 0 -1 4194560 \
                    1234 0 0 0 731 269 0 0 20 0 3 0 100 1000 10 rest";
        assert_eq!(parse_stat_cpu_seconds(stat), Some(10.0));
        let plain = "7 (nitro-benchmark) R 1 7 7 0 -1 0 0 0 0 0 5 2 0 0 20 0 1 0 1 1 1";
        assert_eq!(parse_stat_cpu_seconds(plain), Some(0.07));
        assert_eq!(parse_stat_cpu_seconds("garbage"), None);
        assert_eq!(parse_stat_cpu_seconds("1 (x) S 1 2"), None);
    }

    #[test]
    fn stat_of_this_process_is_readable() {
        let cpu = process_cpu_seconds();
        assert!(cpu.is_finite() && cpu >= 0.0, "cpu {cpu}");
    }

    #[test]
    fn vm_hwm_parser_reads_kilobytes() {
        let status = "Name:\tx\nVmPeak:\t  999999 kB\nVmHWM:\t  250000 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_status_vm_hwm_mb(status), Some(256.0));
        assert_eq!(parse_status_vm_hwm_mb("Name:\tx\n"), None);
        assert_eq!(parse_status_vm_hwm_mb("VmHWM:\tmany kB\n"), None);
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn mountinfo_picks_the_longest_prefix_mount() {
        let info = "\
21 1 8:1 / / rw,relatime - ext4 /dev/vda rw
22 21 0:5 / /dev rw - devtmpfs devtmpfs rw
23 22 0:20 / /dev/shm rw,nosuid - tmpfs tmpfs rw
24 21 0:21 / /dev/shmoo rw - xfs /dev/vdb rw";
        let fs = |p: &str| parse_mountinfo_fs_type(info, Path::new(p));
        assert_eq!(fs("/dev/shm/bench").as_deref(), Some("tmpfs"));
        assert_eq!(fs("/dev/shmoo/x").as_deref(), Some("xfs"));
        assert_eq!(fs("/root/repo").as_deref(), Some("ext4"));
        assert_eq!(fs("/dev/null").as_deref(), Some("devtmpfs"));
    }
}
