//! Readings of this process from `/proc/self`: per-thread CPU from
//! `schedstat`, minor faults from `stat`, peak resident set from
//! `status`. Each returns `None` (or an empty set) where procfs is
//! missing; the benchmark then reports the reading as absent.

use std::collections::BTreeMap;

/// Thread ids of this process, ascending.
pub fn task_ids() -> Vec<u32> {
    let mut ids: Vec<u32> = std::fs::read_dir("/proc/self/task")
        .map(|dir| dir.filter_map(|entry| entry.ok()?.file_name().to_str()?.parse().ok()).collect())
        .unwrap_or_default();
    ids.sort_unstable();
    ids
}

/// The calling thread's id (`/proc/thread-self` links to `PID/task/TID`).
pub fn current_tid() -> Option<u32> {
    let link = std::fs::read_link("/proc/thread-self").ok()?;
    link.file_name()?.to_str()?.parse().ok()
}

/// `(on-CPU ns, runnable-but-waiting ns)` of one thread.
pub fn schedstat(tid: u32) -> Option<(u64, u64)> {
    let text = std::fs::read_to_string(format!("/proc/self/task/{tid}/schedstat")).ok()?;
    let mut fields = text.split_whitespace().map(|f| f.parse::<u64>().ok());
    Some((fields.next()??, fields.next()??))
}

/// Minor page faults of the whole process so far.
pub fn minor_faults() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name: state is the first,
    // minflt the eighth.
    let rest = &text[text.rfind(')')? + 1..];
    rest.split_whitespace().nth(7)?.parse().ok()
}

/// `(all ticks, stolen ticks)` from `/proc/stat`, of the whole machine
/// or of one CPU: stolen ticks are time the hypervisor ran something
/// else while a virtual CPU of this machine wanted to run.
pub fn steal_ticks(cpu: Option<usize>) -> Option<(u64, u64)> {
    let text = std::fs::read_to_string("/proc/stat").ok()?;
    let label = cpu.map_or_else(|| "cpu".to_owned(), |n| format!("cpu{n}"));
    let line = text.lines().find(|l| l.split_whitespace().next() == Some(label.as_str()))?;
    let ticks: Vec<u64> = line.split_whitespace().skip(1).filter_map(|f| f.parse().ok()).collect();
    Some((ticks.iter().sum(), *ticks.get(7)?))
}

/// Peak resident set (`VmHWM`) in KiB.
pub fn vm_hwm_kib() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    line["VmHWM:".len()..].trim().trim_end_matches("kB").trim().parse().ok()
}

/// Per-thread `schedstat` readings at one instant.
#[derive(Debug, Clone, Default)]
pub struct CpuSnapshot(BTreeMap<u32, (u64, u64)>);

impl CpuSnapshot {
    /// Reads every live thread of the process.
    pub fn take() -> Self {
        CpuSnapshot(task_ids().into_iter().filter_map(|t| Some((t, schedstat(t)?))).collect())
    }

    /// `(on-CPU ns, wait ns)` the threads `tids` added since `earlier`.
    /// A thread born in between counts from zero.
    pub fn delta(&self, earlier: &CpuSnapshot, tids: &[u32]) -> (u64, u64) {
        tids.iter().fold((0, 0), |(run, wait), tid| {
            let (r1, w1) = self.0.get(tid).copied().unwrap_or_default();
            let (r0, w0) = earlier.0.get(tid).copied().unwrap_or_default();
            (run + r1.saturating_sub(r0), wait + w1.saturating_sub(w0))
        })
    }

    /// On-CPU ns added since `earlier` by every thread not in `excluded`.
    pub fn run_delta_except(&self, earlier: &CpuSnapshot, excluded: &[u32]) -> u64 {
        let others: Vec<u32> = self.0.keys().copied().filter(|t| !excluded.contains(t)).collect();
        self.delta(earlier, &others).0
    }
}

/// Thread ids that exist now but did not in `before` — the threads a
/// launch call between the two readings started.
pub fn new_tasks(before: &[u32]) -> Vec<u32> {
    task_ids().into_iter().filter(|t| !before.contains(t)).collect()
}

/// `cpu_set_t` as glibc lays it out: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// CPUs this process may run on, ascending (empty if unknown).
pub fn allowed_cpus() -> Vec<usize> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a live, writable buffer of exactly the size passed.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) } != 0 {
        return Vec::new();
    }
    (0..1024).filter(|cpu| set[cpu / 64] & (1 << (cpu % 64)) != 0).collect()
}

/// Restricts thread `tid` of this process to `cpus`. Returns whether
/// the kernel accepted it.
pub fn pin(tid: u32, cpus: &[usize]) -> bool {
    let mut set: CpuSet = [0; 16];
    for &cpu in cpus.iter().filter(|&&cpu| cpu < 1024) {
        set[cpu / 64] |= 1 << (cpu % 64);
    }
    let Ok(tid) = i32::try_from(tid) else { return false };
    // SAFETY: `set` is a live buffer of exactly the size passed; the
    // call only reads it.
    unsafe { sched_setaffinity(tid, std::mem::size_of::<CpuSet>(), &set) == 0 }
}

extern "C" {
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}

/// Sets the calling thread's timer slack to 1 ns, so that its sleeps
/// end on time instead of up to 50 µs late (the default slack).
pub fn tight_timer_slack() -> bool {
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument and touches
    // only the calling thread's scheduling attributes.
    unsafe { prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0) == 0 }
}
