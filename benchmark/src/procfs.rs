//! Memory and CPU use of a command's process tree, read from `/proc`
//! while the command runs.
//!
//! `ru_maxrss` is not used: a spawned child inherits the harness's own
//! high-water mark at exec, so every command would read the harness's
//! RSS. `VmHWM` in `/proc/<pid>/status` belongs to the process itself.

use std::collections::BTreeMap;

/// Kernel clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`):
/// 100 on every Linux architecture this product builds for.
const TICKS_PER_SECOND: f64 = 100.0;

/// `VmHWM` (peak resident set, KiB) from the text of
/// `/proc/<pid>/status`.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let rest = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?;
    rest.split_whitespace().next()?.parse().ok()
}

/// `utime + stime` (clock ticks) from the text of `/proc/<pid>/stat`.
/// The command name sits in parentheses and may itself hold spaces and
/// parentheses, so fields are counted from the *last* `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    // After the command name: state(3) ppid(4) … utime(14) stime(15).
    let mut fields = after_comm.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Child pids from the text of `/proc/<pid>/task/<tid>/children`.
pub fn parse_children(text: &str) -> Vec<u32> {
    text.split_whitespace()
        .filter_map(|pid| pid.parse().ok())
        .collect()
}

/// `root` and every process below it, given each process's children.
pub fn descendants(root: u32, children_of: &mut dyn FnMut(u32) -> Vec<u32>) -> Vec<u32> {
    let mut tree = vec![root];
    let mut next = 0;
    while next < tree.len() {
        for child in children_of(tree[next]) {
            // A pid can be listed once only; the guard is against a
            // `children_of` that loops, so discovery always ends.
            if !tree.contains(&child) {
                tree.push(child);
            }
        }
        next += 1;
    }
    tree
}

/// Children of `pid`: the union over its threads, because a child is
/// listed under the thread that spawned it (`kagen launch` spawns its
/// workers from supervisor threads).
fn children_from_proc(pid: u32) -> Vec<u32> {
    let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) else {
        return Vec::new();
    };
    tasks
        .flatten()
        .filter_map(|task| std::fs::read_to_string(task.path().join("children")).ok())
        .flat_map(|text| parse_children(&text))
        .collect()
}

/// The last sample taken of every process seen in one command's tree.
#[derive(Debug, Default)]
pub struct TreeUsage {
    /// pid → (`VmHWM` KiB, `utime + stime` ticks).
    last: BTreeMap<u32, (u64, u64)>,
}

impl TreeUsage {
    /// Sample `root` and its descendants. A process that has exited
    /// keeps its previous sample.
    pub fn sample(&mut self, root: u32) {
        for pid in descendants(root, &mut children_from_proc) {
            let hwm = std::fs::read_to_string(format!("/proc/{pid}/status"))
                .ok()
                .and_then(|s| parse_vm_hwm_kib(&s));
            let ticks = std::fs::read_to_string(format!("/proc/{pid}/stat"))
                .ok()
                .and_then(|s| parse_stat_cpu_ticks(&s));
            if let (Some(hwm), Some(ticks)) = (hwm, ticks) {
                self.last.insert(pid, (hwm, ticks));
            }
        }
    }

    /// Sum of every process's last-sampled peak RSS, in MiB.
    pub fn peak_rss_mib(&self) -> f64 {
        self.last.values().map(|&(hwm, _)| hwm).sum::<u64>() as f64 / 1024.0
    }

    /// Sum of every process's last-sampled user + system time, seconds.
    pub fn cpu_s(&self) -> f64 {
        self.last.values().map(|&(_, ticks)| ticks).sum::<u64>() as f64 / TICKS_PER_SECOND
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATUS: &str = "Name:\tkagen\nUmask:\t0022\nState:\tR (running)\nVmPeak:\t  270112 kB\n\
                          VmSize:\t  204576 kB\nVmHWM:\t   12720 kB\nVmRSS:\t    9000 kB\nThreads:\t3\n";

    #[test]
    fn reads_vm_hwm_from_status_text() {
        assert_eq!(parse_vm_hwm_kib(STATUS), Some(12720));
        // A kernel thread's status has no Vm* lines.
        assert_eq!(parse_vm_hwm_kib("Name:\tkthreadd\nState:\tS\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\tlots kB\n"), None);
    }

    #[test]
    fn reads_cpu_ticks_past_a_hostile_command_name() {
        let stat = "4242 (ka gen) x) R 1 4242 4242 0 -1 4194304 500 0 0 0 \
                    137 21 0 0 20 0 3 0 123456 209485824 3180 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(137 + 21));
        assert_eq!(parse_stat_cpu_ticks("4242 (kagen) R 1 2 3"), None);
        assert_eq!(parse_stat_cpu_ticks("no parenthesis here"), None);
    }

    #[test]
    fn reads_children_lists() {
        assert_eq!(parse_children("6099 6101 \n"), vec![6099, 6101]);
        assert_eq!(parse_children(""), Vec::<u32>::new());
    }

    #[test]
    fn discovers_the_whole_tree_once() {
        // 1 → {2, 3}, 2 → {4}, 4 → {5}; 9 is somebody else's child.
        let mut children_of = |pid: u32| match pid {
            1 => vec![2, 3],
            2 => vec![4],
            4 => vec![5, 1], // a cycle must not loop forever
            9 => vec![10],
            _ => vec![],
        };
        assert_eq!(descendants(1, &mut children_of), vec![1, 2, 3, 4, 5]);
        assert_eq!(descendants(3, &mut children_of), vec![3]);
    }

    #[test]
    fn sums_last_samples_over_the_tree() {
        let mut usage = TreeUsage::default();
        usage.last.insert(10, (2048, 150));
        usage.last.insert(11, (1024, 50));
        assert_eq!(usage.peak_rss_mib(), 3.0);
        assert_eq!(usage.cpu_s(), 2.0);
    }

    #[test]
    fn samples_the_running_test_process() {
        let mut usage = TreeUsage::default();
        usage.sample(std::process::id());
        assert!(usage.peak_rss_mib() > 0.0);
    }
}
