//! Workspace task runner. One command so far:
//!
//! ```text
//! cargo run -p xtask -- lint
//! ```
//!
//! A pure-text lint pass (no extra dependencies, no proc macros) enforcing
//! the workspace's concurrency-invariant conventions over `crates/*/src`:
//!
//! * **lock-unwrap** — no `.unwrap()` / `.expect(` directly on
//!   `lock()`/`read()`/`write()` results. Long-running services recover
//!   from poisoning (`unwrap_or_else(PoisonError::into_inner)`) instead of
//!   turning one panicked request into a permanent outage (the engine
//!   template cache's module docs say when that recovery is sound).
//! * **ordering-relaxed** — every `Ordering::Relaxed` on an atomic must
//!   carry a `// ordering:` audit comment (same line or within the
//!   preceding eight lines) justifying why relaxed is enough. Atomics that
//!   participate in cross-cell invariants use Release/Acquire and are
//!   model-checked (`--features sched-model`).
//! * **words-mut-tail** — a file that writes raw words through
//!   `BitVec::words_mut` must also assert `tail_is_clear` (the padding
//!   bits past `len` stay zero; the popcount fast paths rely on it).
//! * **wall-clock** — *sched-reachable* files (those importing from their
//!   crate's `sync` shim module) must not read the real clock directly:
//!   `Instant` comes from `crate::sync` so models run on virtual time, and
//!   `SystemTime` is banned outright. Deliberate wall-clock reads are
//!   allowlisted with a reason.
//!
//! Findings print as `file:line: [rule] message` and the process exits
//! nonzero. Deliberate exceptions live in `crates/xtask/lint.allow`
//! (`rule path # reason`), one documented waiver per line.
//!
//! Scope and limits: this is a *text* lint. Lines are matched after
//! stripping `//` comments; everything from the first `#[cfg(test)]` to the
//! end of a file is skipped (the workspace convention keeps test modules
//! last), and `tests/` trees are not walked — tests may take whatever
//! shortcuts they like. The lint is deliberately dumb and loud: it exists
//! to force a human-written justification into the diff, not to prove
//! anything.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// How many lines above an `Ordering::Relaxed` use the `// ordering:`
/// audit comment may sit.
const ORDERING_COMMENT_WINDOW: usize = 8;

/// Crates the lint does not walk: the deterministic scheduler *implements*
/// the shims (it wraps the real std primitives by design), and the lint
/// itself would otherwise flag its own pattern strings.
const EXCLUDED_CRATES: &[&str] = &["compat/sched", "xtask"];

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("lint") => lint(),
        Some(other) => {
            eprintln!("xtask: unknown command `{other}`; try `cargo run -p xtask -- lint`");
            ExitCode::FAILURE
        }
        None => {
            eprintln!("xtask: no command given; try `cargo run -p xtask -- lint`");
            ExitCode::FAILURE
        }
    }
}

fn workspace_root() -> PathBuf {
    // crates/xtask/ -> crates/ -> workspace root
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("xtask lives two levels below the workspace root")
        .to_path_buf()
}

fn lint() -> ExitCode {
    let root = workspace_root();
    let allow = Allowlist::load(&root.join("crates/xtask/lint.allow"));
    let mut findings: Vec<Finding> = Vec::new();
    let mut files = 0usize;
    for file in rust_sources(&root.join("crates")) {
        let rel = file
            .strip_prefix(&root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        let content = match std::fs::read_to_string(&file) {
            Ok(content) => content,
            Err(e) => {
                eprintln!("xtask lint: cannot read {rel}: {e}");
                return ExitCode::FAILURE;
            }
        };
        files += 1;
        findings.extend(lint_file(&rel, &content, &allow));
    }
    for waiver in allow.unused() {
        findings.push(Finding {
            file: "crates/xtask/lint.allow".to_string(),
            line: waiver.line,
            rule: "stale-allow",
            message: format!(
                "waiver `{} {}` matched nothing — remove it",
                waiver.rule, waiver.path
            ),
        });
    }
    if findings.is_empty() {
        println!("xtask lint: {files} files clean");
        ExitCode::SUCCESS
    } else {
        for f in &findings {
            println!("{}:{}: [{}] {}", f.file, f.line, f.rule, f.message);
        }
        println!("xtask lint: {} finding(s) in {files} files", findings.len());
        ExitCode::FAILURE
    }
}

/// All `.rs` files under `crates/*/src`, excluding [`EXCLUDED_CRATES`].
fn rust_sources(crates_dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![crates_dir.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let rel = path.to_string_lossy().replace('\\', "/");
            if EXCLUDED_CRATES
                .iter()
                .any(|c| rel.ends_with(&format!("crates/{c}")))
            {
                continue;
            }
            if path.is_dir() {
                stack.push(path);
            } else if rel.ends_with(".rs") && rel.contains("/src/") {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

struct Finding {
    file: String,
    line: usize,
    rule: &'static str,
    message: String,
}

/// One waiver line from `lint.allow`.
struct Waiver {
    rule: String,
    path: String,
    line: usize,
}

struct Allowlist {
    waivers: Vec<Waiver>,
    used: std::cell::RefCell<BTreeSet<usize>>,
}

impl Allowlist {
    fn load(path: &Path) -> Allowlist {
        let content = std::fs::read_to_string(path).unwrap_or_default();
        Allowlist::parse(&content)
    }

    fn parse(content: &str) -> Allowlist {
        let mut waivers = Vec::new();
        for (i, raw) in content.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut parts = line.split_whitespace();
            if let (Some(rule), Some(path)) = (parts.next(), parts.next()) {
                waivers.push(Waiver {
                    rule: rule.to_string(),
                    path: path.to_string(),
                    line: i + 1,
                });
            }
        }
        Allowlist {
            waivers,
            used: std::cell::RefCell::new(BTreeSet::new()),
        }
    }

    /// Whether `rule` is waived for `file`, marking the waiver as used.
    fn allows(&self, rule: &str, file: &str) -> bool {
        for (i, w) in self.waivers.iter().enumerate() {
            if w.rule == rule && w.path == file {
                self.used.borrow_mut().insert(i);
                return true;
            }
        }
        false
    }

    /// Waivers that never matched a finding (stale entries are findings
    /// themselves: the allowlist must shrink when the code gets fixed).
    fn unused(&self) -> Vec<&Waiver> {
        let used = self.used.borrow();
        self.waivers
            .iter()
            .enumerate()
            .filter(|(i, _)| !used.contains(i))
            .map(|(_, w)| w)
            .collect()
    }
}

/// The code part of a line: everything before the first `//`. Crude (a
/// `//` inside a string literal truncates the match window early) but
/// errs toward missing a string-literal edge case rather than flagging
/// comments and docs.
fn code_part(line: &str) -> &str {
    match line.find("//") {
        Some(i) => &line[..i],
        None => line,
    }
}

fn lint_file(rel: &str, content: &str, allow: &Allowlist) -> Vec<Finding> {
    let lines: Vec<&str> = content.lines().collect();
    // The workspace convention keeps `#[cfg(test)] mod tests` last in the
    // file; everything from there on plays by test rules (panicking on
    // poison is exactly what a test wants).
    let cut = lines
        .iter()
        .position(|l| l.contains("#[cfg(test)]"))
        .unwrap_or(lines.len());
    let prod = &lines[..cut];

    let mut findings = Vec::new();

    // lock-unwrap: panicking on a poisoned lock turns one panicked request
    // into a cascading outage; recover with PoisonError::into_inner (and
    // justify why recovery is sound) instead.
    const LOCK_UNWRAP: &[&str] = &[
        ".lock().unwrap(",
        ".lock().expect(",
        ".read().unwrap(",
        ".read().expect(",
        ".write().unwrap(",
        ".write().expect(",
    ];
    for (i, line) in prod.iter().enumerate() {
        let code = code_part(line);
        if LOCK_UNWRAP.iter().any(|pat| code.contains(pat)) {
            findings.push(Finding {
                file: rel.to_string(),
                line: i + 1,
                rule: "lock-unwrap",
                message: "unwrap/expect on a lock result; recover from poisoning with \
                          `unwrap_or_else(PoisonError::into_inner)` and document why \
                          that is sound"
                    .to_string(),
            });
        }
    }

    // ordering-relaxed: every relaxed atomic op carries a human-written
    // justification close enough to survive code review.
    for (i, line) in prod.iter().enumerate() {
        if !code_part(line).contains("Ordering::Relaxed") {
            continue;
        }
        let start = i.saturating_sub(ORDERING_COMMENT_WINDOW);
        let justified = lines[start..=i].iter().any(|l| l.contains("// ordering:"));
        if !justified {
            findings.push(Finding {
                file: rel.to_string(),
                line: i + 1,
                rule: "ordering-relaxed",
                message: format!(
                    "Ordering::Relaxed without a `// ordering:` audit comment within \
                     {ORDERING_COMMENT_WINDOW} lines"
                ),
            });
        }
    }

    // words-mut-tail: raw word writes can set padding bits past `len`;
    // the popcount fast paths assume they never do.
    let asserts_tail = prod.iter().any(|l| l.contains("tail_is_clear"));
    for (i, line) in prod.iter().enumerate() {
        if code_part(line).contains(".words_mut(") && !asserts_tail {
            findings.push(Finding {
                file: rel.to_string(),
                line: i + 1,
                rule: "words-mut-tail",
                message: "writes raw words via words_mut() but the file never asserts \
                          tail_is_clear; add a debug_assert covering the mutation"
                    .to_string(),
            });
        }
    }

    // wall-clock: sched-reachable code takes Instant from crate::sync so
    // the model checker can drive time virtually.
    {
        let sched_reachable = prod.iter().any(|l| code_part(l).contains("crate::sync"));
        if sched_reachable {
            let imports_std_instant = prod.iter().any(|l| {
                code_part(l).contains("use std::time::") && code_part(l).contains("Instant")
            });
            for (i, line) in prod.iter().enumerate() {
                let code = code_part(line);
                if code.contains("SystemTime") {
                    findings.push(Finding {
                        file: rel.to_string(),
                        line: i + 1,
                        rule: "wall-clock",
                        message: "SystemTime in sched-reachable code; use crate::sync::Instant \
                                  (or allowlist with a reason)"
                            .to_string(),
                    });
                } else if imports_std_instant && code.contains("Instant::now(") {
                    findings.push(Finding {
                        file: rel.to_string(),
                        line: i + 1,
                        rule: "wall-clock",
                        message: "std::time::Instant::now() in sched-reachable code; import \
                                  Instant from crate::sync so models run on virtual time \
                                  (or allowlist with a reason)"
                            .to_string(),
                    });
                }
            }
        }
    }

    // Waivers suppress findings (and are marked used only when they do, so
    // stale entries surface once the underlying code is fixed).
    findings.retain(|f| !allow.allows(f.rule, &f.file));
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_waivers() -> Allowlist {
        Allowlist::parse("")
    }

    fn rules(findings: &[Finding]) -> Vec<(&'static str, usize)> {
        findings.iter().map(|f| (f.rule, f.line)).collect()
    }

    #[test]
    fn clean_file_has_no_findings() {
        let src = "\
use crate::sync::{Instant, Mutex, PoisonError};

fn fine(m: &Mutex<u32>) -> u32 {
    // ordering: Relaxed — statistical counter.
    let _ = std::sync::atomic::Ordering::Relaxed;
    let t = Instant::now();
    let _ = t;
    *m.lock().unwrap_or_else(PoisonError::into_inner)
}
";
        assert!(lint_file("crates/x/src/a.rs", src, &no_waivers()).is_empty());
    }

    #[test]
    fn lock_unwrap_is_flagged_with_line() {
        let src = "fn bad(m: &std::sync::Mutex<u32>) -> u32 {\n    *m.lock().unwrap()\n}\n";
        let findings = lint_file("crates/x/src/a.rs", src, &no_waivers());
        assert_eq!(rules(&findings), vec![("lock-unwrap", 2)]);
        let expect =
            "fn bad(m: &std::sync::RwLock<u32>) -> u32 {\n    *m.read().expect(\"x\")\n}\n";
        let findings = lint_file("crates/x/src/a.rs", expect, &no_waivers());
        assert_eq!(rules(&findings), vec![("lock-unwrap", 2)]);
    }

    #[test]
    fn relaxed_without_audit_comment_is_flagged() {
        let src = "fn f(a: &std::sync::atomic::AtomicU64) {\n    a.load(Ordering::Relaxed);\n}\n";
        let findings = lint_file("crates/x/src/a.rs", src, &no_waivers());
        assert_eq!(rules(&findings), vec![("ordering-relaxed", 2)]);
        let ok = "fn f(a: &A) {\n    // ordering: Relaxed — advisory read.\n    a.load(Ordering::Relaxed);\n}\n";
        assert!(lint_file("crates/x/src/a.rs", ok, &no_waivers()).is_empty());
    }

    #[test]
    fn audit_comment_outside_the_window_does_not_count() {
        let filler = "    let _ = 0;\n".repeat(ORDERING_COMMENT_WINDOW + 1);
        let src = format!("// ordering: too far away\n{filler}    a.load(Ordering::Relaxed);\n");
        let findings = lint_file("crates/x/src/a.rs", &src, &no_waivers());
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "ordering-relaxed");
    }

    #[test]
    fn words_mut_requires_tail_assert_in_file() {
        let bad = "fn f(b: &mut BitVec) {\n    b.words_mut()[0] = 1;\n}\n";
        let findings = lint_file("crates/x/src/a.rs", bad, &no_waivers());
        assert_eq!(rules(&findings), vec![("words-mut-tail", 2)]);
        let good = "fn f(b: &mut BitVec) {\n    b.words_mut()[0] = 1;\n    debug_assert!(b.tail_is_clear());\n}\n";
        assert!(lint_file("crates/x/src/a.rs", good, &no_waivers()).is_empty());
    }

    #[test]
    fn wall_clock_flags_only_sched_reachable_std_instant() {
        let bad = "use std::time::Instant;\nuse crate::sync::Mutex;\nfn f() {\n    let _ = Instant::now();\n}\n";
        let findings = lint_file("crates/x/src/a.rs", bad, &no_waivers());
        assert_eq!(rules(&findings), vec![("wall-clock", 4)]);
        // Not sched-reachable: free to use the real clock.
        let plain = "use std::time::Instant;\nfn f() {\n    let _ = Instant::now();\n}\n";
        assert!(lint_file("crates/x/src/a.rs", plain, &no_waivers()).is_empty());
        // Sched-reachable but Instant comes from the shim: fine.
        let shim = "use crate::sync::Instant;\nfn f() {\n    let _ = Instant::now();\n}\n";
        assert!(lint_file("crates/x/src/a.rs", shim, &no_waivers()).is_empty());
        // SystemTime is banned in sched-reachable files regardless.
        let st =
            "use crate::sync::Mutex;\nfn f() {\n    let _ = std::time::SystemTime::now();\n}\n";
        let findings = lint_file("crates/x/src/a.rs", st, &no_waivers());
        assert_eq!(rules(&findings), vec![("wall-clock", 3)]);
    }

    #[test]
    fn test_modules_and_comments_are_skipped() {
        let src = "\
// a comment mentioning m.lock().unwrap() is fine
fn f() {}

#[cfg(test)]
mod tests {
    fn t(m: &std::sync::Mutex<u32>) -> u32 {
        *m.lock().unwrap()
    }
}
";
        assert!(lint_file("crates/x/src/a.rs", src, &no_waivers()).is_empty());
    }

    #[test]
    fn allowlist_waives_by_rule_and_path_and_tracks_use() {
        let allow = Allowlist::parse(
            "# comment\nlock-unwrap crates/x/src/a.rs # reason\nwall-clock crates/y/src/b.rs # reason\n",
        );
        let src = "fn f(m: &std::sync::Mutex<u32>) {\n    m.lock().unwrap();\n}\n";
        assert!(lint_file("crates/x/src/a.rs", src, &allow).is_empty());
        // Same rule, different file: still flagged.
        assert_eq!(lint_file("crates/x/src/c.rs", src, &allow).len(), 1);
        // The wall-clock waiver never matched: reported as stale.
        let unused = allow.unused();
        assert_eq!(unused.len(), 1);
        assert_eq!(unused[0].rule, "wall-clock");
    }
}
