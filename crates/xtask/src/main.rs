//! Workspace task runner. One command so far:
//!
//! ```text
//! cargo run -p xtask -- lint
//! ```
//!
//! A pure-text lint pass (no extra dependencies, no proc macros). Four rules
//! enforce the workspace's concurrency-invariant conventions over
//! `crates/*/src`, and one keeps the public API down to what is called:
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
//!   file must be used by some caller: called (`name(`, `.name(`), named
//!   in a path (`::name`) or passed as a function value. That includes the
//!   `crates/compat` shims that production code links (`serde`,
//!   `serde_json`, `simd`, `rand`, `criterion`): their API is what the
//!   workspace calls, not all of the crate they stand in for. Only [`API_EXEMPT_CRATES`] (the shims
//!   that only tests call, and `xtask`) are exempt. Callers are the
//!   production code of `crates/*/src`, `crates/*/benches`, `src`,
//!   `examples` and `perfbench/src`; the definition itself, `tests/`
//!   trees, `#[cfg(test)]` items and doc examples do not count. A
//!   function only tests use is deleted, made private, moved into the one
//!   test that uses it, or waived with a reason naming its users.
//!
//! Findings print as `file:line: [rule] message` and the process exits
//! nonzero. Deliberate exceptions live in `crates/xtask/lint.allow`
//! (`rule path [fn name] # reason`), one documented waiver per line; a
//! waiver that suppresses nothing is itself reported as `stale-allow`.
//!
//! Scope and limits: this is a *text* lint. Comments and string or char
//! literals are blanked before any rule looks at a line, and every item a
//! `#[cfg(test)]` gates (a `mod`, a `fn`, a `use …;`: the attribute to the
//! item's closing brace or semicolon) is skipped; code after that item is
//! linted again. `tests/` trees are not walked — tests may take whatever
//! shortcuts they like. Uses match by name, so a dead `pub fn` whose name
//! some other function also has (`new`, `len`) reads as live; a field or a
//! local of that name does not. The rule errs toward missing dead code.
//! The lint is deliberately dumb and loud: it exists to force a
//! human-written justification into the diff, not to prove anything.

use std::collections::{BTreeSet, HashSet};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// How many lines above an `Ordering::Relaxed` use the `// ordering:`
/// audit comment may sit.
const ORDERING_COMMENT_WINDOW: usize = 8;

/// Crates the per-file rules do not walk: the deterministic scheduler
/// *implements* the shims (it wraps the real std primitives by design), and
/// the lint itself would otherwise flag its own pattern strings.
const EXCLUDED_CRATES: &[&str] = &["compat/sched", "xtask"];

/// Trees the lint reads (`target/` directories inside them are not walked).
/// Their production code, outside `tests/` trees, is what may call a
/// `pub fn`.
const SOURCE_ROOTS: &[&str] = &["crates", "src", "examples", "perfbench/src"];

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
    let mut sources: Vec<(String, String)> = Vec::new();
    for dir in SOURCE_ROOTS {
        for file in rust_files(&root.join(dir)) {
            let rel = file
                .strip_prefix(&root)
                .unwrap_or(&file)
                .to_string_lossy()
                .replace('\\', "/");
            match std::fs::read_to_string(&file) {
                Ok(content) => sources.push((rel, content)),
                Err(e) => {
                    eprintln!("xtask lint: cannot read {rel}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    let mut findings: Vec<Finding> = Vec::new();
    for (rel, content) in &sources {
        if file_rules_apply(rel) {
            findings.extend(lint_file(rel, content, &allow));
        }
    }
    findings.extend(dead_pub_fns(&sources, &allow));
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
    let files = sources
        .iter()
        .filter(|(rel, _)| !in_tests_tree(rel))
        .count();
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

/// All `.rs` files under `dir`, skipping `target/` trees.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                if !path.ends_with("target") {
                    stack.push(path);
                }
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
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

/// `code` with every `use …;` item blanked to spaces up to its `;`,
/// newlines kept, and the words those items named: an import or a
/// `pub use` re-export names a function without calling it, but brings it
/// into scope. The `;` stays, so a `pub` before the blanked item never
/// reads as adjacent to the next `fn`. `code` must already be
/// [`code_only`], so `use` is always the keyword.
fn blank_use_items(code: &str) -> (String, HashSet<String>) {
    let chars: Vec<char> = code.chars().collect();
    let mut out = String::with_capacity(code.len());
    let mut imported = HashSet::new();
    let mut i = 0;
    while i < chars.len() {
        let keyword = chars[i..].starts_with(&['u', 's', 'e'])
            && (i == 0 || !is_ident(chars[i - 1]))
            && chars.get(i + 3).is_none_or(|&c| !is_ident(c));
        if !keyword {
            out.push(chars[i]);
            i += 1;
            continue;
        }
        let end = chars[i..]
            .iter()
            .position(|&c| c == ';')
            .map_or(chars.len(), |p| i + p);
        let item: String = chars[i..end].iter().collect();
        imported.extend(item.split(|c| !is_ident(c)).map(str::to_string));
        out.extend(
            chars[i..end]
                .iter()
                .map(|&c| if c == '\n' { c } else { ' ' }),
        );
        i = end;
    }
    (out, imported)
}

/// Keywords a `(` can follow without opening a call.
const KEYWORDS: &[&str] = &[
    "for", "if", "in", "let", "match", "move", "mut", "return", "while", "where",
];

/// One identifier-like token of [`code_only`] text, with the punctuation
/// around it.
struct Token<'a> {
    /// 0-based line index.
    line: usize,
    text: &'a str,
    /// Only whitespace separates the token from the one before it (so
    /// `pub fn name` is three adjacent tokens, `pub(crate) fn` is not).
    adjacent: bool,
    /// The punctuation between the previous token and this one, whitespace
    /// removed (`::`, `(`, `.`, `,`, …).
    before: String,
    /// The innermost bracket open at the token is the `(` of a call: it
    /// directly follows a name that is not a keyword, or a `>`.
    in_call: bool,
}

/// The identifier-like tokens of `code`. The punctuation after token `k` is
/// `before` of token `k + 1`; the returned `String` is what follows the
/// last token.
fn tokens(code: &str) -> (Vec<Token<'_>>, String) {
    let mut out = Vec::new();
    let (mut line, mut start) = (0, None);
    let mut gap = String::new();
    // Per open bracket: whether it is a call's `(`.
    let mut brackets: Vec<bool> = Vec::new();
    for (i, c) in code.char_indices().chain([(code.len(), ' ')]) {
        if is_ident(c) {
            if start.is_none() {
                start = Some(i);
                out.push(Token {
                    line,
                    text: "",
                    adjacent: !out.is_empty() && gap.is_empty(),
                    before: std::mem::take(&mut gap),
                    in_call: brackets.last() == Some(&true),
                });
            }
            continue;
        }
        if let Some(s) = start.take() {
            out.last_mut().expect("pushed at the token start").text = &code[s..i];
        }
        match c {
            '\n' => line += 1,
            '(' => {
                let after_name = gap.is_empty()
                    && out
                        .last()
                        .is_some_and(|t: &Token| !KEYWORDS.contains(&t.text));
                brackets.push(after_name || gap.ends_with('>'));
            }
            '[' | '{' => brackets.push(false),
            ')' | ']' | '}' => {
                brackets.pop();
            }
            _ => {}
        }
        if !c.is_whitespace() {
            gap.push(c);
        }
    }
    (out, gap)
}

/// The names `toks` binds as locals: every name in a `let` pattern (up to
/// its `=`), a `for` pattern (up to `in`) or a closure's `|…|` parameters,
/// and every name followed by a single `:` (parameters, fields). Errs
/// toward binding too much: `a | b` reads as a closure opening at `b`.
fn local_bindings<'a>(toks: &[Token<'a>], tail: &str) -> HashSet<&'a str> {
    let mut locals = HashSet::new();
    let mut pattern: Option<&str> = None;
    for (k, tok) in toks.iter().enumerate() {
        let ended = pattern.is_some_and(|open| match open {
            "let" => tok.before.contains(['=', ';']),
            "for" => tok.text == "in",
            _ => tok.before.contains('|'),
        });
        if ended {
            pattern = None;
        } else if pattern.is_some() {
            locals.insert(tok.text);
        } else if tok.before.ends_with('|') && !tok.before.ends_with("||") {
            locals.insert(tok.text);
            pattern = Some("|");
        }
        if tok.text == "let" || tok.text == "for" {
            pattern = Some(tok.text);
        }
        let next = toks.get(k + 1).map_or(tail, |t| t.before.as_str());
        if next.starts_with(':') && !next.starts_with("::") {
            locals.insert(tok.text);
        }
    }
    locals
}

/// Whether `rel` lies in a `tests/` tree, whose code never counts as a caller.
fn in_tests_tree(rel: &str) -> bool {
    rel.starts_with("tests/") || rel.contains("/tests/")
}

/// dead-pub-fn: every `pub fn` / `pub const fn` that [`defines_api`] files
/// declare must be used somewhere in the production code of `sources`
/// (`(path, content)` pairs) outside `tests/` trees and its own definition.
/// A name counts as used where it is called (`name(`, `.name(`,
/// `name::<`), named in a path (`::name`), or passed as a function value:
/// a whole argument of a call (`f(name)`, `f(a, name)`) in a file that has
/// a function of that name in scope (defines it or imports it with `use`)
/// and binds no local of that name ([`local_bindings`]). A field, a local
/// binding or a struct-literal field of the same name is not a use.
fn dead_pub_fns(sources: &[(String, String)], allow: &Allowlist) -> Vec<Finding> {
    let mut used: HashSet<String> = HashSet::new();
    let mut defined: Vec<(&str, usize, String)> = Vec::new();
    for (rel, content) in sources {
        if in_tests_tree(rel) {
            continue;
        }
        let (code, imported) = blank_use_items(&production_lines(content).join("\n"));
        let (toks, tail) = tokens(&code);
        let locals = local_bindings(&toks, &tail);
        let mut in_scope: HashSet<&str> = imported.iter().map(String::as_str).collect();
        in_scope.extend(
            toks.windows(2)
                .filter(|w| w[0].text == "fn")
                .map(|w| w[1].text),
        );
        for (k, tok) in toks.iter().enumerate() {
            let before = |n: usize, word: &str| k >= n && toks[k - n].text == word;
            if tok.adjacent && before(1, "fn") {
                let public = toks[k - 1].adjacent
                    && (before(2, "pub")
                        || (before(2, "const") && toks[k - 2].adjacent && before(3, "pub")));
                if public && defines_api(rel) {
                    defined.push((rel, tok.line + 1, tok.text.to_string()));
                }
                continue;
            }
            let next = toks.get(k + 1).map_or(tail.as_str(), |t| t.before.as_str());
            let called = next.starts_with('(') || next.starts_with("::<");
            let in_path = tok.before.ends_with("::");
            let as_value = tok.in_call
                && (tok.before.ends_with('(') || tok.before.ends_with(','))
                && (next.starts_with(')') || next.starts_with(','))
                && in_scope.contains(tok.text)
                && !locals.contains(tok.text);
            if called || in_path || as_value {
                used.insert(tok.text.to_string());
            }
        }
    }
    defined
        .into_iter()
        .filter(|(rel, _, name)| !used.contains(name) && !allow.allows("dead-pub-fn", rel, name))
        .map(|(rel, line, name)| Finding {
            file: rel.to_string(),
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

    fn dead(sources: &[(&str, &str)], allow: &Allowlist) -> Vec<(String, usize)> {
        let sources: Vec<(String, String)> = sources
            .iter()
            .map(|(rel, content)| (rel.to_string(), content.to_string()))
            .collect();
        dead_pub_fns(&sources, allow)
            .into_iter()
            .map(|f| {
                assert_eq!(f.rule, "dead-pub-fn");
                let quoted = f.message.split('`').nth(1).unwrap_or("");
                let name = quoted.trim_start_matches("pub fn ").to_string();
                (name, f.line)
            })
            .collect()
    }

    /// One library file whose `pub fn`s are each reached (or not) by one
    /// kind of caller.
    const LIB: &str = "\
/// Mentioned only here: `docs_only()`; see also [`by_test_module`].
///
/// ```
/// assert!(mylib::docs_only());
/// ```
pub fn docs_only() -> bool {
    true
}
pub fn unused() {}
pub const fn by_test_module() -> u32 {
    1
}
pub fn by_tests_tree() {}
pub fn by_other_crate() {}
pub fn by_example() {}
pub fn by_bench() {}
pub fn by_own_file() {}
pub(crate) fn crate_private() {}
fn private() {
    by_own_file();
}

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        assert_eq!(super::by_test_module(), 1);
    }
}
";

    fn dead_api_fixture() -> Vec<(&'static str, &'static str)> {
        vec![
            ("crates/lib/src/lib.rs", LIB),
            (
                "crates/lib/tests/it.rs",
                "fn t() { mylib::by_tests_tree(); }\n",
            ),
            (
                "crates/app/src/main.rs",
                "fn main() { mylib::by_other_crate(); shim::linked_api(); }\n",
            ),
            ("examples/demo.rs", "fn main() { mylib::by_example(); }\n"),
            (
                "crates/bench/benches/b.rs",
                "fn b() { mylib::by_bench(); }\n",
            ),
            (
                "crates/compat/shim/src/lib.rs",
                "pub fn linked_api() {}\npub fn unlinked_api() {}\n",
            ),
            (
                "crates/compat/proptest/src/lib.rs",
                "pub fn test_only_api() {}\n",
            ),
        ]
    }

    #[test]
    fn dead_pub_fn_flags_functions_without_a_production_caller() {
        let mut sources = dead_api_fixture();
        // A crate root that re-exports two functions and calls one: the
        // `use` lines are not callers.
        sources.extend([
            (
                "crates/lib2/src/lib.rs",
                "mod inner;\npub use inner::{reexported_only, reexported_and_called};\n\
                 use self::inner::imported_only;\n\
                 fn f() {\n    reexported_and_called();\n}\n",
            ),
            (
                "crates/lib2/src/inner.rs",
                "pub fn reexported_only() {}\npub fn reexported_and_called() {}\n\
                 pub fn imported_only() {}\n",
            ),
        ]);
        let findings = dead(&sources, &no_waivers());
        let want = [
            ("docs_only", 6),
            ("unused", 9),
            ("by_test_module", 10),
            ("by_tests_tree", 13),
            ("unlinked_api", 2),
            ("reexported_only", 1),
            ("imported_only", 3),
        ];
        let want: Vec<(String, usize)> = want.iter().map(|&(n, l)| (n.to_string(), l)).collect();
        assert_eq!(findings, want);
    }

    /// A field, a local binding, a struct-literal field or a pattern of the
    /// same name is not a use; a call, a path or a function value is.
    #[test]
    fn dead_pub_fn_counts_calls_not_names() {
        let sources = [
            (
                "crates/lib/src/lib.rs",
                "pub fn fingerprint() -> u64 { 1 }\npub fn config() {}\npub fn width() {}\n\
                 pub fn called() {}\npub fn in_path() {}\npub fn as_value(x: u8) -> u8 { x }\n\
                 pub fn shadowed(x: u8) -> u8 { x }\n",
            ),
            (
                "crates/app/src/main.rs",
                "use lib::{as_value, fingerprint, shadowed};\n\
                 struct Template { fingerprint: u64, width: usize }\n\
                 fn main() {\n    let fingerprint = 7;\n    lookup(&fingerprint);\n    \
                 store(fingerprint, 1);\n    let t = Template { fingerprint, width: 2 };\n    \
                 let _ = t.fingerprint + t.width as u64;\n    \
                 for (config, shadowed) in pairs() {\n        use_both(config, shadowed);\n    }\n    \
                 lib::called();\n    let f = lib::in_path;\n    \
                 let _ = [1u8].iter().copied().map(as_value);\n}\n",
            ),
        ];
        let findings = dead(&sources, &no_waivers());
        let names: Vec<&str> = findings.iter().map(|(name, _)| name.as_str()).collect();
        assert_eq!(names, ["fingerprint", "config", "width", "shadowed"]);
    }

    #[test]
    fn dead_pub_fn_waivers_suppress_and_go_stale() {
        let allow = Allowlist::parse(
            "dead-pub-fn crates/lib/src/lib.rs unused # used by a tool\n\
             dead-pub-fn crates/lib/src/lib.rs by_example # example calls it\n",
        );
        let findings = dead(&dead_api_fixture(), &allow);
        assert!(findings.iter().all(|(name, _)| name != "unused"));
        assert_eq!(findings.len(), 4);
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
