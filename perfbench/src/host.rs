//! The host a result was measured on, and the process's peak memory.

use std::collections::HashMap;
use std::hint::black_box;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

/// Run `cmd` and return its trimmed standard output, or `None` if it
/// could not run or failed.
fn output(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push(' '),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Host fingerprint as a JSON object: hardware threads, rustc version,
/// CPU model, source revision with its dirty flag, and build profile.
/// Git discovery stops at the current directory, so a checkout that is
/// not itself a repository reports `unknown`.
pub fn fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = output(Command::new("rustc").arg("-V")).unwrap_or_else(|| "unknown".into());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let cwd = std::env::current_dir().unwrap_or_default();
    let ceiling = cwd.parent().unwrap_or(Path::new("/")).to_path_buf();
    let git = |args: &[&str]| {
        output(
            Command::new("git")
                .args(args)
                .env("GIT_CEILING_DIRECTORIES", &ceiling),
        )
    };
    let revision = match git(&["rev-parse", "--short=12", "HEAD"]) {
        Some(rev) => {
            let dirty = git(&["status", "--porcelain", "--untracked-files=no"])
                .is_some_and(|s| !s.is_empty());
            if dirty {
                format!("{rev}-dirty")
            } else {
                rev
            }
        }
        None => "unknown".into(),
    };
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"nproc\": {nproc}, \"rustc\": {}, \"cpu\": {}, \"git\": {}, \"profile\": {}}}",
        json_str(&rustc),
        json_str(&cpu),
        json_str(&revision),
        json_str(profile)
    )
}

/// Peak resident set of this process in MB (`VmHWM`), 0 if unknown.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host speed right now relative to a nominal host (about the median
/// of a 2-thread x86-64 cloud host): the geometric mean, over three
/// fixed loops, of nominal over measured time. The loops are a
/// dependency-chained integer loop, a sort of 16K random integers and
/// 20K hash-map updates; together they take about 6 ms. Co-tenant load
/// moves this host's speed by up to a quarter over tens of seconds and
/// slows branchy, memory-bound code such as the simulator more than
/// plain arithmetic, so the mix tracks the simulator better than any
/// one loop.
pub fn host_speed() -> f64 {
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let t0 = Instant::now();
    let mut acc: u64 = 0;
    for _ in 0..2_000_000 {
        acc = acc.wrapping_add(next() >> 3);
    }
    black_box(acc);
    let chain = 5.0e-3 / t0.elapsed().as_secs_f64();

    let mut v: Vec<u32> = (0..16_384).map(|_| next() as u32).collect();
    let t0 = Instant::now();
    v.sort_unstable();
    black_box(&v);
    let sort = 0.33e-3 / t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let mut map: HashMap<u64, u64> = HashMap::new();
    for i in 0..20_000 {
        *map.entry(next() % 8192).or_insert(0) += i;
    }
    black_box(&map);
    let hash = 0.93e-3 / t0.elapsed().as_secs_f64();

    (chain * sort * hash).cbrt()
}
