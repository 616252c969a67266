//! Reads the OS's own counters for a process and its threads from
//! `/proc`: CPU time, context switches, peak RSS and thread names. The
//! server is measured from outside, so nothing is added to it. Also pins
//! the benchmark's own replay thread to one CPU at a time.

use std::collections::BTreeMap;
use std::path::Path;

/// Kernel clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`, 100
/// on every Linux ABI this runs on).
pub const TICKS_PER_S: f64 = 100.0;

/// `(comm, utime + stime ticks)` from one `/proc/<pid>[/task/<tid>]/stat`
/// line. The command name sits in parentheses and may itself hold
/// spaces or parentheses, so fields are counted from the last `)`.
pub fn parse_stat(text: &str) -> Option<(String, u64)> {
    let open = text.find('(')?;
    let close = text.rfind(')')?;
    let comm = text.get(open + 1..close)?.to_string();
    // After ") ": state is field 3, utime field 14, stime field 15.
    let rest: Vec<&str> = text.get(close + 1..)?.split_whitespace().collect();
    let utime: u64 = rest.get(11)?.parse().ok()?;
    let stime: u64 = rest.get(12)?.parse().ok()?;
    Some((comm, utime + stime))
}

/// The leading number of a `Key:   value [kB]` line of a `status` file.
pub fn status_field(text: &str, key: &str) -> Option<u64> {
    text.lines().find_map(|line| {
        let (k, v) = line.split_once(':')?;
        if k.trim() != key {
            return None;
        }
        v.split_whitespace().next()?.parse().ok()
    })
}

/// The CPUs of a `Cpus_allowed_list` value such as `0-3,8,10-11`.
pub fn parse_cpu_list(list: &str) -> Option<Vec<usize>> {
    let mut cpus = Vec::new();
    for part in list.trim().split(',').filter(|p| !p.is_empty()) {
        match part.split_once('-') {
            Some((a, b)) => {
                let (a, b): (usize, usize) = (a.parse().ok()?, b.parse().ok()?);
                if b < a {
                    return None;
                }
                cpus.extend(a..=b);
            }
            None => cpus.push(part.parse().ok()?),
        }
    }
    Some(cpus)
}

/// Which server layer a thread belongs to, by the name the server gives
/// it (`ddc-shard-<k>`, `ddc-proc-<k>`, `ddc-farm-<k>`).
pub fn thread_group(name: &str) -> &'static str {
    if name.starts_with("ddc-shard") {
        "shard"
    } else if name.starts_with("ddc-proc") {
        "proc"
    } else if name.starts_with("ddc-farm") {
        "farm"
    } else {
        "other"
    }
}

/// CPU time a task has run, ns: the first field of its `schedstat`,
/// which the scheduler keeps exactly (the tick counts in `stat` are
/// sampled at [`TICKS_PER_S`] and too coarse for a mostly idle server).
pub fn parse_schedstat(text: &str) -> Option<u64> {
    text.split_whitespace().next()?.parse().ok()
}

/// Per-thread counters of one process at one instant.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TaskSnapshot {
    /// CPU ns per thread group ([`thread_group`]).
    pub group_cpu_ns: BTreeMap<&'static str, u64>,
    /// Voluntary plus involuntary context switches over all threads.
    pub ctx_switches: u64,
    /// Thread count per thread name.
    pub names: BTreeMap<String, usize>,
}

impl TaskSnapshot {
    /// CPU ns over every thread.
    pub fn cpu_ns(&self) -> u64 {
        self.group_cpu_ns.values().sum()
    }
}

/// CPU ns of one task directory (`/proc/<pid>/task/<tid>` or
/// `/proc/thread-self`), from `schedstat`, else from `stat` ticks.
fn task_cpu_ns(dir: &Path) -> Option<u64> {
    let sched = std::fs::read_to_string(dir.join("schedstat")).ok();
    sched.as_deref().and_then(parse_schedstat).or_else(|| {
        let stat = std::fs::read_to_string(dir.join("stat")).ok()?;
        parse_stat(&stat).map(|(_, ticks)| (ticks as f64 * 1e9 / TICKS_PER_S) as u64)
    })
}

/// Reads every thread of `pid` (`/proc/<pid>/task/*/{stat,schedstat,status}`).
/// A thread that exits mid-read is skipped; the server's threads live
/// as long as the process, so window deltas lose nothing.
pub fn read_tasks(pid: &str) -> TaskSnapshot {
    let mut snap = TaskSnapshot::default();
    let Ok(dir) = std::fs::read_dir(format!("/proc/{pid}/task")) else {
        return snap;
    };
    for entry in dir.flatten() {
        let path = entry.path();
        let Some((comm, _)) = std::fs::read_to_string(path.join("stat"))
            .ok()
            .and_then(|t| parse_stat(&t))
        else {
            continue;
        };
        let Some(cpu_ns) = task_cpu_ns(&path) else {
            continue;
        };
        let status = std::fs::read_to_string(path.join("status")).unwrap_or_default();
        *snap.group_cpu_ns.entry(thread_group(&comm)).or_default() += cpu_ns;
        snap.ctx_switches += status_field(&status, "voluntary_ctxt_switches").unwrap_or(0)
            + status_field(&status, "nonvoluntary_ctxt_switches").unwrap_or(0);
        *snap.names.entry(comm).or_default() += 1;
    }
    snap
}

/// CPU ns the calling thread has run.
pub fn thread_cpu_ns() -> u64 {
    task_cpu_ns(Path::new("/proc/thread-self")).unwrap_or(0)
}

/// A field of `/proc/<pid>/status` (e.g. `VmHWM` in kB).
pub fn process_status(pid: &str, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status_field(&text, key)
}

/// `(steal, total)` jiffies over all CPUs, from the first line of
/// `/proc/stat` (`cpu user nice system idle iowait irq softirq steal …`;
/// guest time is already counted in user).
pub fn parse_cpu_line(text: &str) -> Option<(u64, u64)> {
    let mut fields = text.lines().next()?.split_whitespace();
    if fields.next()? != "cpu" {
        return None;
    }
    let v: Vec<u64> = fields
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((*v.get(7)?, v.iter().sum()))
}

/// The host's `(steal, total)` jiffies so far. Steal is time the
/// hypervisor ran something else while this machine's CPUs had work.
pub fn host_cpu() -> Option<(u64, u64)> {
    parse_cpu_line(&std::fs::read_to_string("/proc/stat").ok()?)
}

/// CPUs the calling thread may run on, as `nproc` counts them (empty
/// if unknown).
pub fn allowed_cpus() -> Vec<usize> {
    let text = std::fs::read_to_string("/proc/thread-self/status").unwrap_or_default();
    text.lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .and_then(parse_cpu_list)
        .unwrap_or_default()
}

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Lets the calling thread run only on `cpus`; false if the kernel
/// refuses (or `cpus` is empty).
pub fn pin_current_thread(cpus: &[usize]) -> bool {
    let mut mask = [0u64; 16];
    for &c in cpus.iter().filter(|&&c| c < 1024) {
        mask[c / 64] |= 1 << (c % 64);
    }
    if mask == [0; 16] {
        return false;
    }
    // SAFETY: `mask` is a 128-byte cpu_set_t that outlives the call, and
    // pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_count_from_the_last_parenthesis() {
        let line = "4242 (ddc (odd) name) S 1 4242 4242 0 -1 4194560 120 0 0 0 \
                    731 269 0 0 20 0 7 0 123456 1000000 500 18446744073709551615";
        assert_eq!(parse_stat(line), Some(("ddc (odd) name".to_string(), 1000)));
        assert_eq!(parse_stat("12 (x) S 1 2"), None);
        assert_eq!(parse_stat("garbage"), None);
    }

    #[test]
    fn status_fields_parse_numbers_and_ignore_units() {
        let status = "Name:\tddc_server\nVmHWM:\t   10240 kB\n\
                      voluntary_ctxt_switches:\t17\nnonvoluntary_ctxt_switches:\t3\n";
        assert_eq!(status_field(status, "VmHWM"), Some(10240));
        assert_eq!(status_field(status, "voluntary_ctxt_switches"), Some(17));
        assert_eq!(status_field(status, "nonvoluntary_ctxt_switches"), Some(3));
        assert_eq!(status_field(status, "VmRSS"), None);
    }

    #[test]
    fn schedstat_gives_run_time_in_ns() {
        assert_eq!(parse_schedstat("123456789 2000 17\n"), Some(123456789));
        assert_eq!(parse_schedstat(""), None);
    }

    #[test]
    fn cpu_line_gives_steal_and_total() {
        let stat = "cpu  100 0 20 800 5 0 3 12 40 0\ncpu0 50 0 10 400 2 0 1 6 20 0\n";
        assert_eq!(parse_cpu_line(stat), Some((12, 940)));
        assert_eq!(parse_cpu_line("cpu0 1 2 3"), None);
        assert_eq!(parse_cpu_line("cpu 1 2 3"), None);
        assert!(host_cpu().is_some());
    }

    #[test]
    fn cpu_lists_expand_ranges_and_singletons() {
        assert_eq!(parse_cpu_list("0-1\n"), Some(vec![0, 1]));
        assert_eq!(parse_cpu_list("0-3,8,10-11"), Some(vec![0, 1, 2, 3, 8, 10, 11]));
        assert_eq!(parse_cpu_list("5"), Some(vec![5]));
        assert_eq!(parse_cpu_list("3-1"), None);
        assert_eq!(parse_cpu_list("x"), None);
    }

    #[test]
    fn thread_names_map_to_server_layers() {
        assert_eq!(thread_group("ddc-shard-0"), "shard");
        assert_eq!(thread_group("ddc-proc-1"), "proc");
        assert_eq!(thread_group("ddc-farm-0"), "farm");
        assert_eq!(thread_group("ddc_server"), "other");
    }

    #[test]
    fn this_process_reads_back() {
        let snap = read_tasks("self");
        assert!(snap.names.values().sum::<usize>() >= 1);
        assert!(snap.cpu_ns() > 0);
        // The scheduler folds a thread's current slice into its total
        // when the thread is switched out; sleeping forces one switch.
        std::thread::sleep(std::time::Duration::from_millis(1));
        assert!(thread_cpu_ns() > 0);
        assert!(process_status("self", "VmHWM").unwrap() > 0);
        assert!(!allowed_cpus().is_empty());
    }

    #[test]
    fn a_thread_pins_to_each_allowed_cpu_and_back() {
        let cpus = allowed_cpus();
        std::thread::spawn(move || {
            for &c in &cpus {
                assert!(pin_current_thread(&[c]));
                assert_eq!(allowed_cpus(), vec![c]);
            }
            assert!(pin_current_thread(&cpus));
            assert_eq!(allowed_cpus(), cpus);
            assert!(!pin_current_thread(&[]));
        })
        .join()
        .unwrap();
    }
}
