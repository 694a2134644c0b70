//! The host a run measured on, read from the machine itself: logical
//! cores, CPU model, L2 and L3 sizes from sysfs, the compiler, the source
//! commit and the build profile. Printed with every result so a number is
//! never quoted without its hardware.

use std::fs;
use std::process::Command;

use crate::report::json_string;

/// First line of a command's stdout, or `"unavailable"`.
fn first_line(command: &mut Command) -> String {
    command
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unavailable".into())
}

/// The commit checked out in the working directory itself. Git is not
/// let climb to a parent directory, so a copy of the sources that is not
/// a git checkout reports `unavailable` rather than some enclosing
/// repository's commit.
fn git_commit() -> String {
    let ceiling = std::env::current_dir()
        .ok()
        .and_then(|dir| dir.parent().map(|p| p.as_os_str().to_owned()));
    let mut git = Command::new("git");
    git.args(["rev-parse", "HEAD"]);
    if let Some(ceiling) = ceiling {
        git.env("GIT_CEILING_DIRECTORIES", ceiling);
    }
    first_line(&mut git)
}

fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unavailable".into())
}

/// The size string of cpu0's unified or data cache at `level`.
fn cache_size(level: u32) -> String {
    let base = "/sys/devices/system/cpu/cpu0/cache";
    for index in 0..8 {
        let dir = format!("{base}/index{index}");
        let read = |f: &str| fs::read_to_string(format!("{dir}/{f}")).map(|s| s.trim().to_owned());
        let (Ok(lvl), Ok(kind)) = (read("level"), read("type")) else {
            continue;
        };
        if lvl == level.to_string() && kind != "Instruction" {
            return read("size").unwrap_or_else(|_| "unavailable".into());
        }
    }
    "unavailable".into()
}

/// Logical cores this process may run on.
pub fn logical_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// The host description as one JSON object line: `{"host": {...}}`.
pub fn host_json() -> String {
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let fields = [
        ("nproc", logical_cores().to_string()),
        ("cpu_model", json_string(&cpu_model())),
        ("l2", json_string(&cache_size(2))),
        ("l3", json_string(&cache_size(3))),
        (
            "rustc",
            json_string(&first_line(Command::new("rustc").arg("-V"))),
        ),
        ("git_commit", json_string(&git_commit())),
        ("build_profile", json_string(profile)),
    ];
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("{{\"host\": {{{}}}}}", body.join(", "))
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_line_names_every_field() {
        let line = host_json();
        for key in [
            "nproc",
            "cpu_model",
            "l2",
            "l3",
            "rustc",
            "git_commit",
            "build_profile",
        ] {
            assert!(line.contains(&format!("\"{key}\"")), "{key} missing");
        }
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        assert!(peak_rss_mib() > 0.0);
    }
}
