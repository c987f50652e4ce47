//! Workspace task runner. One command so far:
//!
//! ```text
//! cargo run -p xtask -- lint
//! ```
//!
//! A lint pass with no extra dependencies. Four text rules enforce the
//! workspace's concurrency-invariant conventions over `crates/*/src`, and
//! one asks rustc which public functions are called:
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
//! * **dead-pub-fn** — a `pub fn` or `pub const fn` in a `crates/*/src`
//!   file must be used by some production target: the libraries,
//!   binaries and examples of the workspace, the benches or perfbench.
//!   That includes the `crates/compat` shims that production code links
//!   (their API is what the workspace calls, not all of the crate they
//!   stand in for); only [`API_EXEMPT_CRATES`] are exempt. rustc decides:
//!   the rule mirrors the workspace into [`API_MIRROR`], puts a unique
//!   `#[deprecated(note = "api=<file>:<line>:<name>")]` before each such
//!   function, runs the [`API_CHECKS`] and flags every note that no "use
//!   of deprecated" warning names. A function only tests use is deleted,
//!   made private, moved into the one test that uses it, or waived with a
//!   reason naming its users.
//!
//! Findings print as `file:line: [rule] message` and the process exits
//! nonzero. Deliberate exceptions live in `crates/xtask/lint.allow`
//! (`rule path [fn name] # reason`), one documented waiver per line; a
//! waiver that suppresses nothing is itself reported as `stale-allow`.
//!
//! Scope and limits: the text rules read `crates/*/src` with comments and
//! literals blanked and every item a `#[cfg(test)]` gates skipped (the
//! attribute to the item's closing brace or semicolon; code after it is
//! read again). They are deliberately dumb and loud: they force a
//! human-written justification into the diff, they prove nothing.
//! dead-pub-fn only finds its functions this way (and marks every `use`
//! item `#[allow(deprecated)]`, so an import or re-export is no use); a
//! call resolves to one function, so `Vec::len` keeps no other `len`
//! live. Code the checks do not compile (tests, doc examples, the
//! `sched-model` feature) is no caller. The mirror and its build stay
//! under `target/`; a mirrored file is rewritten only when its text
//! changed, so a repeat run rebuilds only what was edited.

use std::collections::{BTreeSet, HashSet};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// How many lines above an `Ordering::Relaxed` use the `// ordering:`
/// audit comment may sit.
const ORDERING_COMMENT_WINDOW: usize = 8;

/// Crates the per-file rules do not walk: the deterministic scheduler
/// *implements* the shims (it wraps the real std primitives by design), and
/// the lint itself would otherwise flag its own pattern strings.
const EXCLUDED_CRATES: &[&str] = &["compat/sched", "xtask"];

/// What dead-pub-fn mirrors: every tree and manifest the [`API_CHECKS`]
/// build (`target/` directories inside them are not copied).
const MIRRORED: &[&str] = &[
    "Cargo.toml",
    "Cargo.lock",
    "crates",
    "src",
    "examples",
    "tests",
    "perfbench",
];

/// Where dead-pub-fn mirrors the workspace, relative to its root; the
/// checks build into its `target/`.
const API_MIRROR: &str = "target/xtask-api";

/// The `cargo check` arguments whose targets count as callers: every
/// library, binary and example of the workspace, the benches, and the
/// serving benchmark, a package of its own.
const API_CHECKS: &[&[&str]] = &[
    &["--workspace", "--lib", "--bins", "--examples"],
    &["-p", "quclear-bench", "--benches"],
    &["--manifest-path", "perfbench/Cargo.toml"],
];

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
    let mut files = 0;
    for file in files_under(&root.join("crates")) {
        let rel = relative(&root, &file);
        if !(rel.ends_with(".rs") && file_rules_apply(&rel)) {
            continue;
        }
        match std::fs::read_to_string(&file) {
            Ok(content) => findings.extend(lint_file(&rel, &content, &allow)),
            Err(e) => {
                eprintln!("xtask lint: cannot read {rel}: {e}");
                return ExitCode::FAILURE;
            }
        }
        files += 1;
    }
    match uncalled_pub_fns(&root, API_CHECKS) {
        Ok(uncalled) => findings.extend(dead_pub_fns(uncalled, &allow)),
        Err(e) => {
            eprintln!("xtask lint: dead-pub-fn: {e}");
            return ExitCode::FAILURE;
        }
    }
    for waiver in allow.unused() {
        findings.push(Finding {
            file: "crates/xtask/lint.allow".to_string(),
            line: waiver.line,
            rule: "stale-allow",
            message: format!(
                "waiver `{}` matched nothing — remove it",
                format!("{} {} {}", waiver.rule, waiver.path, waiver.name).trim_end()
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

/// `file` relative to `root`, with `/` separators.
fn relative(root: &Path, file: &Path) -> String {
    file.strip_prefix(root)
        .unwrap_or(file)
        .to_string_lossy()
        .replace('\\', "/")
}

/// All files under `path` (or `path` itself when it is a file), skipping
/// `target/` trees.
fn files_under(path: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![path.to_path_buf()];
    while let Some(path) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&path) else {
            if path.is_file() {
                out.push(path);
            }
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if !(path.is_dir() && path.ends_with("target")) {
                stack.push(path);
            }
        }
    }
    out.sort();
    out
}

/// Whether the per-file rules cover `rel`: `crates/*/src`, minus
/// [`EXCLUDED_CRATES`].
fn file_rules_apply(rel: &str) -> bool {
    rel.starts_with("crates/")
        && rel.contains("/src/")
        && !EXCLUDED_CRATES
            .iter()
            .any(|c| rel.starts_with(&format!("crates/{c}/")))
}

/// Crates whose `pub fn`s the dead-pub-fn rule does not check: the
/// `proptest` and `sched` shims exist for tests, which never count as
/// callers, and the lint itself has no library API.
const API_EXEMPT_CRATES: &[&str] = &["compat/proptest", "compat/sched", "xtask"];

/// Whether the dead-pub-fn rule checks the `pub fn`s `rel` defines.
fn defines_api(rel: &str) -> bool {
    rel.starts_with("crates/")
        && rel.contains("/src/")
        && !API_EXEMPT_CRATES
            .iter()
            .any(|c| rel.starts_with(&format!("crates/{c}/")))
}

struct Finding {
    file: String,
    line: usize,
    rule: &'static str,
    message: String,
}

/// One waiver line from `lint.allow`; `name` is empty for per-file rules.
struct Waiver {
    rule: String,
    path: String,
    name: String,
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
            let mut parts = line.split_whitespace();
            if let (Some(rule), Some(path)) = (parts.next(), parts.next()) {
                waivers.push(Waiver {
                    rule: rule.to_string(),
                    path: path.to_string(),
                    name: parts.next().unwrap_or("").to_string(),
                    line: i + 1,
                });
            }
        }
        Allowlist {
            waivers,
            used: std::cell::RefCell::new(BTreeSet::new()),
        }
    }

    /// Whether `rule` is waived for `name` in `file` (`name` is empty for
    /// per-file rules), marking the waiver as used.
    fn allows(&self, rule: &str, file: &str, name: &str) -> bool {
        for (i, w) in self.waivers.iter().enumerate() {
            if w.rule == rule && w.path == file && w.name == name {
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

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// `content` with every comment and string, byte-string, raw-string and
/// char literal blanked to spaces. Newlines stay, so line `i` of the result
/// is line `i` of `content`; lifetimes (`'a`) are code and stay too.
fn code_only(content: &str) -> String {
    let chars: Vec<char> = content.chars().collect();
    let mut out = String::with_capacity(content.len());
    let mut i = 0;
    while i < chars.len() {
        let rest = &chars[i..];
        let fresh = i == 0 || !is_ident(chars[i - 1]);
        let skip = match rest {
            ['/', '/', ..] => rest.iter().position(|&c| c == '\n').unwrap_or(rest.len()),
            ['/', '*', ..] => closing_len(rest, &['*', '/']),
            ['"', ..] => quoted_len(rest),
            ['\'', '\\', ..] => rest[3..]
                .iter()
                .position(|&c| c == '\'')
                .map_or(0, |p| p + 4),
            ['\'', _, '\'', ..] => 3,
            ['r', '"' | '#', ..] if fresh => raw_string_len(rest),
            ['b', 'r', '"' | '#', ..] if fresh => raw_string_len(&rest[1..]) + 1,
            _ => 0,
        };
        if skip == 0 {
            out.push(chars[i]);
            i += 1;
        } else {
            let end = (i + skip).min(chars.len());
            out.extend(
                chars[i..end]
                    .iter()
                    .map(|&c| if c == '\n' { c } else { ' ' }),
            );
            i = end;
        }
    }
    out
}

/// Length of `s` up to and including the first `close` after its first two
/// characters (so `/*…*/` ends at its first `*/`: nested block comments are
/// not tracked), or all of `s` when `close` never comes.
fn closing_len(s: &[char], close: &[char]) -> usize {
    let from = 2.min(s.len());
    s[from..]
        .windows(close.len())
        .position(|w| w == close)
        .map_or(s.len(), |p| from + p + close.len())
}

/// Length of the `"…"` literal `s` starts with, escapes included.
fn quoted_len(s: &[char]) -> usize {
    let mut i = 1;
    while i < s.len() {
        match s[i] {
            '\\' => i += 2,
            '"' => return i + 1,
            _ => i += 1,
        }
    }
    s.len()
}

/// Length of the `r#…#"…"#…#` literal `s` starts with, or 0 when the `r`
/// begins something else (a raw identifier such as `r#type`).
fn raw_string_len(s: &[char]) -> usize {
    let hashes = s[1..].iter().take_while(|&&c| c == '#').count();
    if s.get(1 + hashes) != Some(&'"') {
        return 0;
    }
    let close: Vec<char> = std::iter::once('"').chain(vec!['#'; hashes]).collect();
    hashes + closing_len(&s[hashes..], &close)
}

/// The lines of `content` as the rules see them: [`code_only`], with every
/// line of a `#[cfg(test)]`-gated item emptied. The gated item runs from the
/// attribute to the first `;` outside brackets or to the `}` that closes its
/// body, whichever comes first; code after it is production code again.
fn production_lines(content: &str) -> Vec<String> {
    const GATE: &str = "#[cfg(test)]";
    let mut lines: Vec<String> = code_only(content).lines().map(str::to_string).collect();
    let mut i = 0;
    while i < lines.len() {
        let Some(at) = lines[i].find(GATE) else {
            i += 1;
            continue;
        };
        let end = gated_item_end(&lines, i, at + GATE.len());
        for line in &mut lines[i..=end] {
            line.clear();
        }
        i = end + 1;
    }
    lines
}

/// The line on which the item starting at `lines[line][col..]` ends.
fn gated_item_end(lines: &[String], line: usize, col: usize) -> usize {
    let mut depth = 0usize;
    for (i, text) in lines.iter().enumerate().skip(line) {
        let text = if i == line { &text[col..] } else { &text[..] };
        for c in text.chars() {
            match c {
                '{' | '(' | '[' => depth += 1,
                ')' | ']' => depth = depth.saturating_sub(1),
                '}' => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        return i;
                    }
                }
                ';' if depth == 0 => return i,
                _ => {}
            }
        }
    }
    lines.len() - 1
}

fn lint_file(rel: &str, content: &str, allow: &Allowlist) -> Vec<Finding> {
    let lines: Vec<&str> = content.lines().collect();
    // Test-gated items play by test rules (panicking on poison is exactly
    // what a test wants), so their lines are empty here.
    let prod = production_lines(content);

    let mut findings = Vec::new();
    let mut flag = |i: usize, rule: &'static str, message: &str| {
        findings.push(Finding {
            file: rel.to_string(),
            line: i + 1,
            rule,
            message: message.to_string(),
        });
    };

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
    for (i, code) in prod.iter().enumerate() {
        if LOCK_UNWRAP.iter().any(|pat| code.contains(pat)) {
            flag(
                i,
                "lock-unwrap",
                "unwrap/expect on a lock result; recover from poisoning with \
                 `unwrap_or_else(PoisonError::into_inner)` and document why that is sound",
            );
        }
    }

    // ordering-relaxed: every relaxed atomic op carries a human-written
    // justification close enough to survive code review.
    for (i, code) in prod.iter().enumerate() {
        if !code.contains("Ordering::Relaxed") {
            continue;
        }
        let start = i.saturating_sub(ORDERING_COMMENT_WINDOW);
        let justified = lines[start..=i].iter().any(|l| l.contains("// ordering:"));
        if !justified {
            let message = format!(
                "Ordering::Relaxed without a `// ordering:` audit comment within \
                 {ORDERING_COMMENT_WINDOW} lines"
            );
            flag(i, "ordering-relaxed", &message);
        }
    }

    // words-mut-tail: raw word writes can set padding bits past `len`;
    // the popcount fast paths assume they never do.
    let asserts_tail = prod.iter().any(|l| l.contains("tail_is_clear"));
    for (i, code) in prod.iter().enumerate() {
        if code.contains(".words_mut(") && !asserts_tail {
            flag(
                i,
                "words-mut-tail",
                "writes raw words via words_mut() but the file never asserts \
                 tail_is_clear; add a debug_assert covering the mutation",
            );
        }
    }

    // wall-clock: sched-reachable code takes Instant from crate::sync so
    // the model checker can drive time virtually.
    if prod.iter().any(|l| l.contains("crate::sync")) {
        let imports_std_instant = prod
            .iter()
            .any(|l| l.contains("use std::time::") && l.contains("Instant"));
        for (i, code) in prod.iter().enumerate() {
            if code.contains("SystemTime") {
                flag(
                    i,
                    "wall-clock",
                    "SystemTime in sched-reachable code; use crate::sync::Instant \
                     (or allowlist with a reason)",
                );
            } else if imports_std_instant && code.contains("Instant::now(") {
                flag(
                    i,
                    "wall-clock",
                    "std::time::Instant::now() in sched-reachable code; import Instant from \
                     crate::sync so models run on virtual time (or allowlist with a reason)",
                );
            }
        }
    }

    // Waivers suppress findings (and are marked used only when they do, so
    // stale entries surface once the underlying code is fixed).
    findings.retain(|f| !allow.allows(f.rule, &f.file, ""));
    findings
}

/// The `pub fn` / `pub const fn` items declared on `code`, a line of
/// [`production_lines`]: the char column of each `pub`, and the name.
fn pub_fns(code: &str) -> Vec<(usize, &str)> {
    let mut found = Vec::new();
    for (at, _) in code.match_indices("pub ") {
        if code[..at].ends_with(is_ident) {
            continue;
        }
        let rest = code[at + 4..].trim_start();
        let rest = rest.strip_prefix("const ").map_or(rest, str::trim_start);
        let Some(rest) = rest.strip_prefix("fn ").map(str::trim_start) else {
            continue;
        };
        let name = &rest[..rest.find(|c| !is_ident(c)).unwrap_or(rest.len())];
        if !name.is_empty() {
            found.push((code[..at].chars().count(), name));
        }
    }
    found
}

/// The char column where a `use` item (an import or a re-export) starts
/// on `code`, a line of [`production_lines`].
fn use_item(code: &str) -> Option<usize> {
    let item = code.trim_start();
    let mut rest = item.strip_prefix("pub").unwrap_or(item);
    if rest.starts_with('(') {
        rest = &rest[rest.find(')')? + 1..];
    }
    let rest = rest.trim_start().strip_prefix("use")?;
    (!rest.starts_with(is_ident)).then(|| code.len() - item.len())
}

/// `content` as the dead-pub-fn checks compile it, and the
/// `(rel, line, name)` of each function it declares. Every `use` item gets
/// `#[allow(deprecated)]`, since naming a function there calls nothing.
/// When `declares_api`, every [`pub_fns`] item gets
/// `#[deprecated(note = "api=<rel>:<line>:<name>")]`. Both go on the
/// item's own line, so line numbers stay as they are.
fn annotate(rel: &str, content: &str, declares_api: bool) -> (String, Vec<PubFn>) {
    let mut out = String::with_capacity(content.len());
    let mut defined = Vec::new();
    for (i, (line, code)) in content.lines().zip(production_lines(content)).enumerate() {
        let mut inserts: Vec<(usize, String)> = use_item(&code)
            .map(|col| (col, "#[allow(deprecated)] ".to_string()))
            .into_iter()
            .collect();
        if declares_api {
            for (col, name) in pub_fns(&code) {
                let note = format!("#[deprecated(note = \"api={rel}:{}:{name}\")] ", i + 1);
                inserts.push((col, note));
                defined.push((rel.to_string(), i + 1, name.to_string()));
            }
        }
        inserts.sort();
        let mut copied = 0;
        for (col, text) in inserts {
            let at = line.char_indices().nth(col).map_or(line.len(), |(b, _)| b);
            out.push_str(&line[copied..at]);
            out.push_str(&text);
            copied = at;
        }
        out.push_str(&line[copied..]);
        out.push('\n');
    }
    (out, defined)
}

/// A `pub fn` as `(file, line, name)`.
type PubFn = (String, usize, String);

/// dead-pub-fn, the compiler's half: mirrors the [`MIRRORED`] part of the
/// workspace at `root` into [`API_MIRROR`], [`annotate`]s every `.rs` file,
/// runs `cargo check` with each of `checks` there and returns every
/// function of a file that [`defines_api`] that no "use of deprecated"
/// warning names.
fn uncalled_pub_fns(root: &Path, checks: &[&[&str]]) -> std::io::Result<Vec<PubFn>> {
    let mirror = root.join(API_MIRROR);
    let mut defined = Vec::new();
    let mut mirrored = HashSet::new();
    for entry in MIRRORED {
        for file in files_under(&root.join(entry)) {
            let rel = relative(root, &file);
            let mut bytes = std::fs::read(&file)?;
            if rel.ends_with(".rs") {
                let (text, fns) =
                    annotate(&rel, &String::from_utf8_lossy(&bytes), defines_api(&rel));
                defined.extend(fns);
                bytes = text.into_bytes();
            }
            // Rewriting an unchanged file would make cargo rebuild it.
            let dst = mirror.join(&rel);
            if std::fs::read(&dst).ok().as_ref() != Some(&bytes) {
                std::fs::create_dir_all(dst.parent().unwrap_or(&mirror))?;
                std::fs::write(&dst, &bytes)?;
            }
            mirrored.insert(rel);
        }
    }
    // A file deleted from the workspace must leave the build too (cargo
    // would still compile a stale example or bench).
    for entry in MIRRORED {
        for file in files_under(&mirror.join(entry)) {
            if !mirrored.contains(&relative(&mirror, &file)) {
                std::fs::remove_file(&file)?;
            }
        }
    }
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let mut used = HashSet::new();
    for args in checks {
        let out = Command::new(&cargo)
            .current_dir(&mirror)
            .args(["check", "--offline", "--color=never"])
            .args(["--message-format=short", "--target-dir=target"])
            .args(*args)
            // Every use stays a warning, and the caller's flags cannot
            // invalidate the mirror's build cache.
            .env("RUSTFLAGS", "--cap-lints=warn")
            .output()?;
        let stderr = String::from_utf8_lossy(&out.stderr);
        if !out.status.success() {
            let failed = format!("cargo check {args:?} failed:\n{stderr}");
            return Err(std::io::Error::other(failed));
        }
        for line in stderr.lines() {
            if let (true, Some(at)) = (line.contains("use of deprecated"), line.find("api=")) {
                used.insert(line[at + 4..].trim_end().to_string());
            }
        }
    }
    defined.retain(|(rel, line, name)| !used.contains(&format!("{rel}:{line}:{name}")));
    Ok(defined)
}

/// dead-pub-fn, the waivers' half: a finding for every `uncalled` function
/// that `allow` does not waive.
fn dead_pub_fns(uncalled: Vec<PubFn>, allow: &Allowlist) -> Vec<Finding> {
    uncalled
        .into_iter()
        .filter(|(rel, _, name)| !allow.allows("dead-pub-fn", rel, name))
        .map(|(file, line, name)| Finding {
            file,
            line,
            rule: "dead-pub-fn",
            message: format!(
                "`pub fn {name}` has no caller outside tests and docs; delete it, make it \
                 private, move it into the one test that uses it, or waive it in lint.allow \
                 naming its users"
            ),
        })
        .collect()
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
    fn code_after_a_test_gated_fn_is_linted_again() {
        let src = "\
struct Memo(std::sync::Mutex<u32>);

impl Memo {
    #[cfg(test)]
    fn len(&self) -> u32 {
        *self.0.lock().unwrap()
    }

    fn get(&self) -> u32 {
        *self.0.lock().unwrap()
    }
}

#[cfg(test)]
use std::sync::{Mutex, PoisonError};

fn also_prod(m: &std::sync::RwLock<u32>) -> u32 {
    *m.read().unwrap()
}

#[cfg(test)]
mod tests {
    fn t(m: &std::sync::Mutex<u32>) -> u32 {
        *m.lock().unwrap()
    }
}
";
        let findings = lint_file("crates/x/src/a.rs", src, &no_waivers());
        assert_eq!(
            rules(&findings),
            vec![("lock-unwrap", 10), ("lock-unwrap", 18)]
        );
    }

    #[test]
    fn braces_in_literals_do_not_end_a_test_item() {
        let src = "\
#[cfg(test)]
mod tests {
    const OPEN: char = '}';
    const TEXT: &str = \"}}\";
    const RAW: &str = r#\"}\"#;
    fn t<'a>(m: &'a std::sync::Mutex<u32>) -> u32 {
        *m.lock().unwrap() /* } */
    }
}
fn prod(m: &std::sync::Mutex<u32>) -> u32 {
    *m.lock().unwrap()
}
";
        let findings = lint_file("crates/x/src/a.rs", src, &no_waivers());
        assert_eq!(rules(&findings), vec![("lock-unwrap", 11)]);
    }

    #[test]
    fn annotate_marks_each_production_pub_fn_in_place() {
        let src = "\
/// `pub fn in_docs()`
pub fn one() {}
    pub const fn two() -> u8 { 2 } /* é */ pub fn three() {}
pub(crate) fn crate_private() {}
const S: &str = \"pub fn in_string()\";
#[cfg(test)]
pub fn test_only() {}
";
        let (text, defined) = annotate("crates/a/src/lib.rs", src, true);
        let names: Vec<(usize, &str)> = defined.iter().map(|(_, l, n)| (*l, n.as_str())).collect();
        assert_eq!(names, [(2, "one"), (3, "two"), (3, "three")]);
        let note = |line: usize, name: &str| {
            format!("#[deprecated(note = \"api=crates/a/src/lib.rs:{line}:{name}\")] ")
        };
        let want = format!(
            "    {}pub const fn two() -> u8 {{ 2 }} /* é */ {}pub fn three() {{}}",
            note(3, "two"),
            note(3, "three")
        );
        assert_eq!(text.lines().nth(2), Some(want.as_str()));
        assert_eq!(text.lines().count(), src.lines().count());
    }

    /// A two-crate workspace: `app` calls `Bag::new` and `Vec::len`, its
    /// example calls `by_example`, and nothing else of `lib` is called by a
    /// production target.
    const FIXTURE: &[(&str, &str)] = &[
        (
            "Cargo.toml",
            "[workspace]\nmembers = [\"crates/lib\", \"crates/app\"]\nresolver = \"2\"\n",
        ),
        (
            "crates/lib/Cargo.toml",
            "[package]\nname = \"lib\"\nversion = \"0.1.0\"\nedition = \"2021\"\n",
        ),
        (
            "crates/lib/src/lib.rs",
            "\
pub struct Bag(Vec<u8>);
impl Bag {
    pub fn new() -> Bag { Bag(Vec::new()) }
    pub fn len(&self) -> usize { self.0.len() }
}
/// ```
/// lib::docs_only();
/// ```
pub fn docs_only() {}
pub const fn by_test_module() -> u32 { 1 }
pub fn by_tests_tree() {}
pub fn by_example() {}
pub fn waived() {}
#[cfg(test)]
mod tests {
    #[test]
    fn t() { assert_eq!(super::by_test_module(), 1); }
}
pub mod inner { pub fn reexported_only() {} }
pub use inner::reexported_only;
",
        ),
        (
            "crates/lib/tests/it.rs",
            "#[test]\nfn t() { lib::by_tests_tree(); }\n",
        ),
        (
            "crates/app/Cargo.toml",
            "[package]\nname = \"app\"\nversion = \"0.1.0\"\nedition = \"2021\"\n\n\
             [dependencies]\nlib = { path = \"../lib\" }\n",
        ),
        (
            "crates/app/src/main.rs",
            "fn main() { let _ = (lib::Bag::new(), vec![1].len()); }\n",
        ),
        (
            "crates/app/examples/demo.rs",
            "fn main() { lib::by_example(); }\n",
        ),
    ];

    /// [`FIXTURE`]'s uncalled functions, written to a temp dir and checked
    /// once (offline: the fixture has no dependencies) for every test.
    fn fixture_uncalled() -> Vec<PubFn> {
        static UNCALLED: std::sync::OnceLock<Vec<PubFn>> = std::sync::OnceLock::new();
        UNCALLED
            .get_or_init(|| {
                let root =
                    std::env::temp_dir().join(format!("xtask-dead-api-{}", std::process::id()));
                for (rel, text) in FIXTURE {
                    let path = root.join(rel);
                    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
                    std::fs::write(path, text).unwrap();
                }
                let checks: &[&[&str]] = &[&["--workspace", "--lib", "--bins", "--examples"]];
                let uncalled = uncalled_pub_fns(&root, checks);
                std::fs::remove_dir_all(&root).unwrap();
                uncalled.unwrap()
            })
            .clone()
    }

    fn names(uncalled: &[PubFn]) -> Vec<(&str, usize)> {
        uncalled.iter().map(|(_, l, n)| (n.as_str(), *l)).collect()
    }

    #[test]
    fn dead_pub_fn_flags_functions_without_a_production_caller() {
        let want = [
            ("len", 4),
            ("docs_only", 9),
            ("by_test_module", 10),
            ("by_tests_tree", 11),
            ("waived", 13),
            ("reexported_only", 19),
        ];
        assert_eq!(names(&fixture_uncalled()), want);
    }

    /// A call resolves to one function: `Vec::len` keeps `Bag::len` no more
    /// live than any other name would (a name match reads it as called),
    /// and a re-export calls nothing.
    #[test]
    fn dead_pub_fn_counts_calls_not_names() {
        let uncalled = fixture_uncalled();
        let flagged: Vec<&str> = names(&uncalled).into_iter().map(|(n, _)| n).collect();
        assert!(flagged.contains(&"len"));
        assert!(flagged.contains(&"reexported_only"));
        assert!(!flagged.contains(&"new"));
    }

    #[test]
    fn dead_pub_fn_waivers_suppress_and_go_stale() {
        let allow = Allowlist::parse(
            "dead-pub-fn crates/lib/src/lib.rs waived # used by a tool\n\
             dead-pub-fn crates/lib/src/lib.rs by_example # example calls it\n",
        );
        let findings = dead_pub_fns(fixture_uncalled(), &allow);
        assert_eq!(findings.len(), 5);
        assert!(findings.iter().all(|f| f.rule == "dead-pub-fn"));
        assert!(!findings.iter().any(|f| f.message.contains("fn waived`")));
        // The waiver for a live function matched nothing: stale.
        let unused = allow.unused();
        assert_eq!(unused.len(), 1);
        assert_eq!(unused[0].name, "by_example");
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
