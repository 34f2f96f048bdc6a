//! Repo automation: `lint-unsafe`, the unsafe-hygiene static-analysis
//! pass that CI runs on every push.
//!
//! ```text
//! cargo run -p xtask -- lint-unsafe            # enforce the unsafe allowlist
//! cargo run -p xtask -- lint-unsafe --counts   # print per-file unsafe-site counts
//! ```
//!
//! The pass walks every `.rs` file in the repository (excluding build
//! output) and:
//!
//! 1. counts `unsafe` tokens in *code* — a comment/string-aware scanner
//!    strips doc prose, `// SAFETY:` comments and string literals first,
//!    so only real unsafe sites count;
//! 2. fails if any file outside [`ALLOWED`] contains one — new unsafe
//!    islands must be added here deliberately, with a budget, in the
//!    same change that introduces them;
//! 3. fails if an allowlisted file exceeds its site budget — adding an
//!    unsafe site to an island is a conscious, reviewed bump of the
//!    budget next to this comment, not a drive-by;
//! 4. fails if an allowlisted file is missing
//!    `#![deny(unsafe_op_in_unsafe_fn)]` — inside the islands every
//!    unsafe operation needs its own `unsafe {}` block (and
//!    `clippy::undocumented_unsafe_blocks`, denied workspace-wide via
//!    `[workspace.lints]`, forces a `// SAFETY:` comment onto each);
//! 5. fails if an allowlist entry matches no unsafe at all — stale
//!    entries would silently widen the permitted surface.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The unsafe islands: every file permitted to contain `unsafe`, with
/// the maximum number of `unsafe` tokens it may carry. Everything else
/// in the repository must be 100% safe code (most crates additionally
/// carry `#![forbid(unsafe_code)]`).
///
/// Raising a budget is a reviewed act: the new site needs a `// SAFETY:`
/// comment (clippy enforces it) and, where the invariant is not local,
/// a matching shim or scenario in `proofs/`.
const ALLOWED: &[(&str, usize)] = &[
    // RCU snapshot cell: raw-pointer Arc juggling on the epoch
    // reclamation path. Checked by `proofs/` (the snapshot_reclamation
    // shim + publish/load/collect model-checker scenarios).
    ("crates/runtime/src/snapshot.rs", 8),
    // Lamport SPSC ring: UnsafeCell slot transfers guarded by the
    // head/tail protocol. Checked by `proofs/` (the ring_indices shim
    // + wraparound model-checker scenario). The sixth site is
    // `drain_owned`, the supervisor's backlog-recovery drain, which only
    // runs after `Arc::try_unwrap` proved exclusive ownership
    // (cross-checked against the model queue in `proofs/`).
    ("crates/runtime/src/ring.rs", 6),
    // Best-effort sched_setaffinity FFI (one syscall, read-only mask).
    ("crates/runtime/src/pin.rs", 1),
    // SIMD trie kernels: arch intrinsics + unchecked arena gathers.
    // Checked equivalent to the scalar walk by `proofs/` (the
    // simd_walk_equivalence shim) and the in-tree proptests.
    // The count includes every `unsafe fn` in the private `Lanes`
    // vocabulary plus its explicit `unsafe {}` body block (one SAFETY
    // comment each, enforced by clippy).
    ("crates/algorithms/src/trie/simd.rs", 108),
    // Counting global allocator for the zero-alloc hot-path probes:
    // verbatim forwarding to `System` plus a thread-local counter bump.
    ("crates/bench/src/alloc_probe.rs", 9),
];

/// Directories never scanned (build output, VCS internals).
const SKIP_DIRS: &[&str] = &["target", ".git"];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint-unsafe") => lint_unsafe(args.iter().any(|a| a == "--counts")),
        _ => {
            eprintln!("usage: cargo run -p xtask -- lint-unsafe [--counts]");
            ExitCode::FAILURE
        }
    }
}

/// Workspace root: xtask lives at `<root>/xtask`.
fn repo_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest.parent().expect("xtask sits inside the workspace").to_path_buf()
}

fn lint_unsafe(print_counts: bool) -> ExitCode {
    let root = repo_root();
    let mut files = Vec::new();
    collect_rs_files(&root, &mut files);
    files.sort();

    let mut failures: Vec<String> = Vec::new();
    let mut seen: Vec<&str> = Vec::new();
    for path in &files {
        let rel = path
            .strip_prefix(&root)
            .expect("walk stays under the root")
            .to_string_lossy()
            .replace('\\', "/");
        let source = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                failures.push(format!("{rel}: unreadable: {e}"));
                continue;
            }
        };
        let sites = count_unsafe_tokens(&source);
        if print_counts && sites > 0 {
            println!("{sites:4}  {rel}");
        }
        match ALLOWED.iter().find(|(allowed, _)| *allowed == rel) {
            None => {
                if sites > 0 {
                    failures.push(format!(
                        "{rel}: {sites} unsafe site(s) outside the allowlist — either make the \
                         code safe or add the file to xtask's ALLOWED with a budget and a proof \
                         obligation"
                    ));
                }
            }
            Some(&(allowed, budget)) => {
                seen.push(allowed);
                if sites == 0 {
                    failures.push(format!(
                        "{rel}: allowlisted but contains no unsafe — remove the stale entry"
                    ));
                }
                if sites > budget {
                    failures.push(format!(
                        "{rel}: {sites} unsafe site(s) exceeds the budget of {budget} — new \
                         unsafe needs a SAFETY comment, a proofs/ obligation, and a conscious \
                         budget bump in xtask"
                    ));
                }
                if !source.contains("#![deny(unsafe_op_in_unsafe_fn)]") {
                    failures.push(format!(
                        "{rel}: unsafe island must carry #![deny(unsafe_op_in_unsafe_fn)]"
                    ));
                }
            }
        }
    }
    for (allowed, _) in ALLOWED {
        if !seen.contains(allowed) {
            failures.push(format!("{allowed}: allowlisted file does not exist"));
        }
    }

    if failures.is_empty() {
        println!(
            "lint-unsafe: OK — {} files scanned, unsafe confined to {} island(s)",
            files.len(),
            ALLOWED.len()
        );
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("lint-unsafe: FAIL: {f}");
        }
        ExitCode::FAILURE
    }
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_ref()) && !name.starts_with('.') {
                collect_rs_files(&path, out);
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// Counts `unsafe` tokens in code, ignoring comments, strings and char
/// literals. This is a lexer-level scan, not a parse: it cannot tell an
/// `unsafe fn` from an `unsafe {}` block, and it does not need to —
/// both are sites the budget covers.
fn count_unsafe_tokens(source: &str) -> usize {
    stripped_code(source)
        .split(|c: char| !c.is_alphanumeric() && c != '_')
        .filter(|w| *w == "unsafe")
        .count()
}

/// Returns `source` with comments, string literals and char literals
/// blanked out (replaced by spaces), leaving only code tokens.
fn stripped_code(source: &str) -> String {
    #[derive(PartialEq)]
    enum S {
        Code,
        LineComment,
        BlockComment(u32),
        Str,
        RawStr(u32),
        Char,
    }
    let mut out = String::with_capacity(source.len());
    let b: Vec<char> = source.chars().collect();
    let mut st = S::Code;
    let mut i = 0;
    while i < b.len() {
        let c = b[i];
        let next = b.get(i + 1).copied();
        match st {
            S::Code => match (c, next) {
                ('/', Some('/')) => {
                    st = S::LineComment;
                    out.push_str("  ");
                    i += 2;
                    continue;
                }
                ('/', Some('*')) => {
                    st = S::BlockComment(1);
                    out.push_str("  ");
                    i += 2;
                    continue;
                }
                ('"', _) => {
                    st = S::Str;
                    out.push(' ');
                }
                ('r', Some('"' | '#')) if !prev_is_ident(&b, i) => {
                    // Raw string: r"..." or r#"..."# etc.
                    let mut hashes = 0;
                    let mut j = i + 1;
                    while b.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if b.get(j) == Some(&'"') {
                        st = S::RawStr(hashes);
                        for _ in i..=j {
                            out.push(' ');
                        }
                        i = j + 1;
                        continue;
                    }
                    out.push(c);
                }
                ('\'', _) => {
                    // Char literal vs lifetime: a literal closes with a
                    // quote after one (possibly escaped) character.
                    let is_char = match next {
                        Some('\\') => true,
                        Some(_) => b.get(i + 2) == Some(&'\''),
                        None => false,
                    };
                    if is_char {
                        st = S::Char;
                    }
                    out.push(' ');
                }
                _ => out.push(c),
            },
            S::LineComment => {
                out.push(if c == '\n' { '\n' } else { ' ' });
                if c == '\n' {
                    st = S::Code;
                }
            }
            S::BlockComment(depth) => {
                out.push(if c == '\n' { '\n' } else { ' ' });
                if c == '/' && next == Some('*') {
                    st = S::BlockComment(depth + 1);
                    out.push(' ');
                    i += 2;
                    continue;
                }
                if c == '*' && next == Some('/') {
                    st = if depth == 1 { S::Code } else { S::BlockComment(depth - 1) };
                    out.push(' ');
                    i += 2;
                    continue;
                }
            }
            S::Str => {
                out.push(if c == '\n' { '\n' } else { ' ' });
                if c == '\\' {
                    out.push(' ');
                    i += 2;
                    continue;
                }
                if c == '"' {
                    st = S::Code;
                }
            }
            S::RawStr(hashes) => {
                out.push(if c == '\n' { '\n' } else { ' ' });
                if c == '"' {
                    let mut ok = true;
                    for k in 0..hashes {
                        if b.get(i + 1 + k as usize) != Some(&'#') {
                            ok = false;
                            break;
                        }
                    }
                    if ok {
                        for _ in 0..hashes {
                            out.push(' ');
                        }
                        i += 1 + hashes as usize;
                        st = S::Code;
                        continue;
                    }
                }
            }
            S::Char => {
                out.push(' ');
                if c == '\\' {
                    out.push(' ');
                    i += 2;
                    continue;
                }
                if c == '\'' {
                    st = S::Code;
                }
            }
        }
        i += 1;
    }
    out
}

/// Whether the character before index `i` continues an identifier (so
/// `r` in `var"` is not mistaken for a raw-string prefix).
fn prev_is_ident(b: &[char], i: usize) -> bool {
    i > 0 && (b[i - 1].is_alphanumeric() || b[i - 1] == '_')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_strings_do_not_count() {
        let src = r##"
            // unsafe in a line comment
            /* unsafe in /* a nested */ block */
            /// unsafe in docs
            let s = "unsafe in a string";
            let r = r#"unsafe in a raw string"#;
            let c = 'u';
            let lifetime: &'unsafe_not_really str = s; // lifetime-ish
        "##;
        assert_eq!(count_unsafe_tokens(src), 0);
    }

    #[test]
    fn code_tokens_count() {
        let src = r#"
            unsafe fn f() {}
            fn g() { unsafe { f() } }
            unsafe impl Send for X {}
            let not_unsafe_ident = my_unsafe; // identifiers do not count
        "#;
        assert_eq!(count_unsafe_tokens(src), 3);
    }

    #[test]
    fn escaped_quotes_and_string_edges() {
        let src = r#"let s = "escaped \" quote then unsafe"; unsafe { () }"#;
        assert_eq!(count_unsafe_tokens(src), 1);
    }

    #[test]
    fn allowlist_paths_are_normalized() {
        for (path, budget) in ALLOWED {
            assert!(!path.contains('\\'), "{path}: use forward slashes");
            assert!(*budget > 0, "{path}: zero budget means the entry is stale");
        }
    }
}
