//! What the benchmark asks of the operating system: memory and CPU
//! accounting from `/proc`, CPU placement, the machine fingerprint, and an
//! interrupt flag.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};

fn read(path: impl AsRef<Path>) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

fn status_kib(pid: &str, key: &str) -> Option<f64> {
    let text = read(format!("/proc/{pid}/status"))?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_kib("self", "VmHWM:").map_or(0.0, |k| k / 1024.0)
}

/// Current resident set of another process, MiB (`VmRSS`).
pub fn rss_mb(pid: u32) -> f64 {
    status_kib(&pid.to_string(), "VmRSS:").map_or(0.0, |k| k / 1024.0)
}

/// CPU-seconds the live threads of process `pid` have run, from the
/// scheduler's nanosecond accounting (`/proc/<pid>/task/*/schedstat`); 0
/// once the process is gone. The tick-sampled `utime`/`stime` of
/// `/proc/<pid>/stat` misjudge threads that wake for microseconds at a
/// time, which is most of what a server's I/O threads do.
pub fn cpu_seconds_of(pid: u32) -> f64 {
    let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) else {
        return 0.0;
    };
    let ns: u64 = tasks
        .flatten()
        .filter_map(|t| read(t.path().join("schedstat")))
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum();
    ns as f64 / 1e9
}

/// CPU-seconds of this process's live threads.
pub fn cpu_seconds_self() -> f64 {
    cpu_seconds_of(std::process::id())
}

/// Where and on what a result was measured, as the members of a JSON
/// object (no braces), stamped into every file under `out/`.
pub fn fingerprint_json() -> String {
    let cpu = read("/proc/cpuinfo")
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_owned());
    format!(
        "\"cpu\":\"{}\",\"nproc\":{},\"rustc\":\"{}\",\"git_sha\":\"{}\"",
        escape(&cpu),
        nproc,
        escape(&rustc),
        escape(&git_sha())
    )
}

/// The checked-out commit, read from `.git` without running git; a checkout
/// that is not a repository reports `unknown`.
fn git_sha() -> String {
    let head = match read(".git/HEAD") {
        Some(h) => h.trim().to_owned(),
        None => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => {
            read(format!(".git/{r}")).map_or_else(|| "unknown".into(), |s| s.trim().to_owned())
        }
        None => head,
    }
}

/// Escapes a string for inclusion between JSON double quotes.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

static INTERRUPTED: AtomicBool = AtomicBool::new(false);

/// True once SIGINT or SIGTERM arrived. Workload loops poll it and return,
/// so every drop guard (shard processes, listeners) runs before exit.
pub fn interrupted() -> bool {
    // Relaxed: the flag publishes no other data.
    INTERRUPTED.load(Ordering::Relaxed)
}

extern "C" fn on_signal(_signum: i32) {
    INTERRUPTED.store(true, Ordering::Relaxed);
}

/// Words of the CPU mask passed to the affinity calls: 1024 CPUs.
const MASK_WORDS: usize = 16;

extern "C" {
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    fn setpriority(which: i32, who: u32, prio: i32) -> i32;
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}

/// Makes the calling thread wake as close to its timers as an ordinary
/// thread can: timer slack down from the default 50 µs to 1 ns, and the
/// highest ordinary priority (nice −20) so that kernel housekeeping on its
/// CPU does not run ahead of it. Returns whether the kernel granted the
/// priority; without the privilege the generator runs as it is, and its
/// lateness, reported either way, says whether that was good enough.
///
/// A real-time class would wake faster still, but the generator shares a
/// lock-free channel with ordinary-priority reader threads: a real-time
/// thread spinning on a half-finished push starves the very thread it
/// waits for until the kernel's real-time throttle steps in, a second later.
pub fn prefer_this_thread() -> bool {
    const PR_SET_TIMERSLACK: i32 = 29;
    const PRIO_PROCESS: i32 = 0;
    // SAFETY: C library calls taking plain integers; `who = 0` names the
    // calling thread on Linux.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0);
        setpriority(PRIO_PROCESS, 0, -20) == 0
    }
}

/// The CPUs the calling thread may run on, ascending.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: pid 0 is the calling thread; the kernel writes at most the
    // `size` bytes the mask really has.
    let ok = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) == 0 };
    if !ok {
        return Vec::new();
    }
    (0..MASK_WORDS * 64)
        .filter(|c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Restricts the calling thread, and every thread or process it creates
/// from now on, to `cpus`. Returns whether the kernel agreed.
pub fn run_on(cpus: &[usize]) -> bool {
    let mut mask = [0u64; MASK_WORDS];
    for &c in cpus.iter().filter(|c| **c < MASK_WORDS * 64) {
        mask[c / 64] |= 1 << (c % 64);
    }
    // SAFETY: pid 0 is the calling thread; the kernel reads `size` bytes of
    // a mask that lives across the call.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// How the serving workloads share the machine: the load generator (this
/// thread and the client's reader threads) gets the first allowed CPU to
/// itself, the system under test (server threads or shard processes) gets
/// the rest. The generator is then never queued behind the work it
/// generates, which is what keeps its lateness in the tens of microseconds;
/// on a single CPU both sides share it and lateness says what that cost.
pub struct CpuSplit {
    generator: Vec<usize>,
    system: Vec<usize>,
    /// Set by [`CpuSplit::share_one_cpu`]: the `enter_*` calls do nothing.
    shared: AtomicBool,
}

impl CpuSplit {
    /// The split of the CPUs this process was started on, decided once
    /// (later calls see the same answer however threads are pinned by then).
    pub fn get() -> &'static CpuSplit {
        static SPLIT: std::sync::OnceLock<CpuSplit> = std::sync::OnceLock::new();
        SPLIT.get_or_init(|| {
            let all = allowed_cpus();
            match all.split_first() {
                Some((first, rest)) if !rest.is_empty() => CpuSplit {
                    generator: vec![*first],
                    system: rest.to_vec(),
                    shared: AtomicBool::new(false),
                },
                _ => CpuSplit {
                    generator: all.clone(),
                    system: all,
                    shared: AtomicBool::new(false),
                },
            }
        })
    }

    /// Call before creating the system under test.
    pub fn enter_system(&self) {
        if self.shared.load(Ordering::Relaxed) {
            return;
        }
        if !self.system.is_empty() && !run_on(&self.system) {
            eprintln!(
                "slicebench: could not set CPU affinity; generator and system share all CPUs"
            );
        }
    }

    /// Call before connecting clients and generating load.
    pub fn enter_generator(&self) {
        if !self.shared.load(Ordering::Relaxed) && !self.generator.is_empty() {
            run_on(&self.generator);
        }
    }

    /// From now on this thread and everything it creates, on either side,
    /// stays on one CPU. The idle-system probes use this: a batch pushed
    /// through an otherwise idle stack would otherwise pay, at each hand-off
    /// to the other CPU, for waking a virtual CPU that has gone to sleep,
    /// which says more about the hypervisor than about the layer.
    pub fn share_one_cpu(&self) {
        if !self.generator.is_empty() {
            run_on(&self.generator);
        }
        self.shared.store(true, Ordering::Relaxed);
    }
}

/// Routes SIGINT and SIGTERM to the [`interrupted`] flag instead of killing
/// the process outright, which would orphan the shard processes.
pub fn install_interrupt_handler() {
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    // SAFETY: `signal` is the C library's; the handler only stores to an
    // atomic, which is async-signal-safe, and has the signature C expects.
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_see_this_process() {
        assert!(peak_rss_mb() > 0.0);
        assert!(rss_mb(std::process::id()) > 0.0);
        let before = cpu_seconds_self();
        let mut x = 0u64;
        while cpu_seconds_self() - before < 0.02 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(cpu_seconds_of(std::process::id()) > 0.0);
        assert_eq!(cpu_seconds_of(u32::MAX), 0.0);
    }

    #[test]
    fn affinity_round_trips() {
        let all = allowed_cpus();
        assert!(!all.is_empty());
        assert!(run_on(&all[..1]));
        assert_eq!(allowed_cpus(), all[..1]);
        assert!(run_on(&all));
        assert_eq!(allowed_cpus(), all);
    }

    #[test]
    fn escape_quotes_and_controls() {
        assert_eq!(escape("a\"b\\c\n"), "a\\\"b\\\\c\\u000a");
    }
}
