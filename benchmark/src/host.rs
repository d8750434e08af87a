//! Host facts printed with every result, so a number always travels with
//! the machine and the code that produced it.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Facts about the machine and the measured source tree.
#[derive(Clone, Debug)]
pub struct HostFacts {
    /// Cores available to this process.
    pub nproc: usize,
    /// Last-level (L3) cache size as the kernel reports it.
    pub l3: String,
    /// `rustc --version`.
    pub rustc: String,
    /// `git rev-parse HEAD` when run from a git checkout.
    pub commit: String,
    /// FNV-1a digest of the measured sources (`Cargo.lock`, `Cargo.toml`,
    /// `crates/`, `vendor/`), which identifies the code even where the
    /// checkout is not a git repository.
    pub source_digest: String,
}

impl HostFacts {
    /// Gathers the facts; anything unavailable reads `unknown`.
    pub fn gather() -> HostFacts {
        HostFacts {
            nproc: nproc(),
            l3: std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index3/size")
                .map(|s| s.trim().to_string())
                .unwrap_or_else(|_| "unknown".to_string()),
            rustc: command_line("rustc", &["--version"]),
            commit: if Path::new(".git").exists() {
                command_line("git", &["rev-parse", "HEAD"])
            } else {
                "unknown (not a git checkout)".to_string()
            },
            source_digest: source_digest(Path::new(".")),
        }
    }

    /// One-line rendering.
    pub fn line(&self) -> String {
        format!(
            "host: nproc={} l3={} rustc=\"{}\" commit={} source_fnv={}",
            self.nproc, self.l3, self.rustc, self.commit, self.source_digest
        )
    }
}

/// Cores available to this process (at least 1).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// First line of a command's standard output, or `unknown`. The child is
/// always waited for.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// FNV-1a-64 over the relative path and bytes of every file under the
/// source roots, in sorted path order.
fn source_digest(root: &Path) -> String {
    let mut files = Vec::new();
    for top in ["Cargo.lock", "Cargo.toml", "crates", "vendor"] {
        collect(&root.join(top), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for f in &files {
        feed(f.to_string_lossy().as_bytes());
        if let Ok(bytes) = std::fs::read(f) {
            feed(&bytes);
        }
    }
    if files.is_empty() {
        return "unknown".to_string();
    }
    format!("{h:016x}")
}

fn collect(path: &Path, out: &mut Vec<PathBuf>) {
    if path.is_file() {
        out.push(path.to_path_buf());
    } else if let Ok(entries) = std::fs::read_dir(path) {
        for e in entries.flatten() {
            let p = e.path();
            if p.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect(&p, out);
        }
    }
}
