//! The host block of every `BENCH_*.json` file: which machine, toolchain
//! and source revision a recorded number came from.

use std::process::Command;

/// Renders the `"host"` object every `BENCH_*.json` writer embeds, as one
/// line of JSON:
///
/// * `logical_cpus` — CPUs online (`getconf _NPROCESSORS_ONLN`);
/// * `available_parallelism` — what this process may use, which caps every
///   `_tN` row;
/// * `simd_backend` — the backend the bitsliced kernels ran on;
/// * `mode` — `quick` under `MICROBENCH_QUICK`, else `full`;
/// * `rustc` — `rustc --version`;
/// * `git_rev` — `git rev-parse --short HEAD` at the repository root.
///
/// A command that cannot run reports `"unknown"` (`null` for the CPU count).
pub fn host_block() -> String {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let logical_cpus = command_output("getconf", &["_NPROCESSORS_ONLN"], root)
        .and_then(|n| n.parse::<usize>().ok())
        .map_or_else(|| "null".to_owned(), |n| n.to_string());
    let parallelism = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mode = if std::env::var_os("MICROBENCH_QUICK").is_some() {
        "quick"
    } else {
        "full"
    };
    let text = |program: &str, args: &[&str]| {
        json_string(&command_output(program, args, root).unwrap_or_else(|| "unknown".to_owned()))
    };
    format!(
        "{{\"logical_cpus\": {logical_cpus}, \"available_parallelism\": {parallelism}, \
         \"simd_backend\": \"{}\", \"mode\": \"{mode}\", \"rustc\": {}, \"git_rev\": {}}}",
        sealpaa_cells::Backend::active().name(),
        text("rustc", &["--version"]),
        text("git", &["rev-parse", "--short", "HEAD"]),
    )
}

/// The trimmed standard output of a command that exits successfully.
fn command_output(program: &str, args: &[&str], dir: &str) -> Option<String> {
    let output = Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()?;
    if !output.status.success() {
        return None;
    }
    let text = String::from_utf8(output.stdout).ok()?;
    Some(text.trim().to_owned())
}

/// `text` as a JSON string literal.
fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c.is_control() => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_block_names_every_field() {
        let block = host_block();
        for field in [
            "\"logical_cpus\": ",
            "\"available_parallelism\": ",
            "\"simd_backend\": \"",
            "\"mode\": \"",
            "\"rustc\": \"",
            "\"git_rev\": \"",
        ] {
            assert!(block.contains(field), "{field} missing from {block}");
        }
        assert!(block.starts_with('{') && block.ends_with('}'), "{block}");
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
