//! Repo-hygiene auditing (the `repo_lint` binary).
//!
//! A zero-dependency source auditor enforcing the workspace's source-level
//! invariants. It lexes Rust the honest way — strings, char literals, raw
//! strings and nested block comments are recognised, so a `"unsafe"` string
//! literal or a doc-comment mention of `.unwrap()` never trips a rule:
//!
//! * **`SAFETY:` comments** — every `unsafe` keyword is immediately preceded
//!   by a comment containing `SAFETY:` explaining why the invariants hold.
//! * **Crate-level gates** — every crate root carries
//!   `#![forbid(unsafe_code)]` (or `#![deny(unsafe_code)]` for the two
//!   crates with audited blocks).
//! * **Hot-path panic ratchet** — `.unwrap()` / `.expect(` in the kernel
//!   hot paths must not grow beyond the recorded per-file budgets, and
//!   every budgeted file must still exist.
//! * **No test-only public surface** (`test-only-pub`) — a `pub fn` in a
//!   library crate (`crates/*/src`) that no other file names, and that its
//!   own file's code before `#[cfg(test)]` names only at the definition, is
//!   surface only its unit tests use. It is a finding unless the reviewed
//!   `TEST_ONLY_KEEP` table lists it with a reason; a keep entry whose
//!   function no longer exists is a finding too.
//! * **Shims-only dependencies** — every dependency in every manifest
//!   resolves by `path` or `workspace`, never the registry.
//! * **Benchmark schema** — each `BENCH_<n>.json` parses and carries the
//!   fields the regression tooling reads; a paired-protocol file (one with a
//!   `"protocol"` field) records both sides' times and the speedup median
//!   inside its quartiles on every row.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// The hygiene rule a violation falls under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum HygieneRule {
    /// An `unsafe` keyword without an adjacent `// SAFETY:` comment.
    SafetyComment,
    /// A crate root without an `unsafe_code` lint gate.
    UnsafeGate,
    /// `.unwrap()` / `.expect(` growth in a hot-path module.
    PanicRatchet,
    /// A manifest dependency that would resolve via the registry.
    RegistryDependency,
    /// A malformed benchmark artefact.
    BenchSchema,
    /// A library `pub fn` that only its own file's unit tests call.
    TestOnlyPub,
}

impl fmt::Display for HygieneRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            HygieneRule::SafetyComment => "safety-comment",
            HygieneRule::UnsafeGate => "unsafe-gate",
            HygieneRule::PanicRatchet => "panic-ratchet",
            HygieneRule::RegistryDependency => "registry-dependency",
            HygieneRule::BenchSchema => "bench-schema",
            HygieneRule::TestOnlyPub => "test-only-pub",
        })
    }
}

/// One audit finding.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The rule that fired.
    pub rule: HygieneRule,
    /// Repo-relative path of the offending file.
    pub path: PathBuf,
    /// 1-indexed line, when the finding anchors to one.
    pub line: Option<usize>,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.line {
            Some(l) => write!(f, "[{}] {}:{}: {}", self.rule, self.path.display(), l, self.message),
            None => write!(f, "[{}] {}: {}", self.rule, self.path.display(), self.message),
        }
    }
}

/// Hot-path modules and the number of `.unwrap()` / `.expect(` calls each is
/// allowed outside its test module. The budgets are a ratchet: they record
/// the audited state of the tree, may go down freely, and going up means a
/// reviewed change to this table. An entry whose file no longer exists is a
/// violation, so a deleted or renamed hot-path file cannot drop out of the
/// ratchet unseen.
const PANIC_BUDGETS: &[(&str, usize)] = &[
    ("crates/qudit-core/src/apply.rs", 2),
    ("crates/qudit-core/src/superop.rs", 0),
    ("crates/qudit-core/src/par.rs", 5),
    ("crates/qudit-circuit/src/sim/kernels.rs", 8),
    ("crates/qudit-circuit/src/sim/statevector.rs", 1),
    ("crates/qudit-circuit/src/sim/density.rs", 0),
    ("crates/qudit-circuit/src/sim/fusion.rs", 4),
    ("crates/qudit-circuit/src/sim/trajectory.rs", 1),
    // The branch-prefix trajectory executor is a hot path like the
    // one-state run loop.
    ("crates/qudit-circuit/src/sim/ensemble.rs", 0),
    // The step driver every run loop goes through.
    ("crates/qudit-circuit/src/sim/driver.rs", 0),
];

/// Library `pub fn`s kept although nothing but their own file's unit tests
/// names them, as `(path, name)`. Every entry is a reviewed exception with
/// its reason; an entry whose function no longer exists is a violation.
const TEST_ONLY_KEEP: &[(&str, &str)] = &[
    // `states_at` is documented and tested as bitwise equal to the
    // one-time evolution, and the type's doc example is written around it.
    ("crates/lgt/src/trotter.rs", "state_at"),
    // The only way to build a multi-factor term; both `expectation` paths
    // implement that case.
    ("crates/qudit-circuit/src/observable.rs", "add_term"),
    // The crate's documented dispersive cavity–transmon model, and the only
    // code that gives meaning to the `DispersiveParams` every device module
    // carries.
    ("crates/cavity-sim/src/dispersive.rs", "dispersive_hamiltonian"),
];

/// How many lines above an `unsafe` keyword a `SAFETY:` comment may sit.
const SAFETY_WINDOW: usize = 6;

/// Audits the workspace rooted at `root` and returns every violation found
/// (empty = clean tree).
///
/// # Errors
/// Returns an error only for I/O failures while walking the tree; findings
/// are data, not errors.
pub fn audit_repo(root: &Path) -> std::io::Result<Vec<Violation>> {
    let mut rust_files = Vec::new();
    let mut manifests = Vec::new();
    walk(root, root, &mut rust_files, &mut manifests)?;
    rust_files.sort();
    manifests.sort();

    let mut out = Vec::new();
    let mut sources = Vec::with_capacity(rust_files.len());
    for rel in &rust_files {
        let src = fs::read_to_string(root.join(rel))?;
        let masked = mask_source(&src);
        check_safety_comments(rel, &masked, &mut out);
        if rel.ends_with("src/lib.rs") {
            check_unsafe_gate(rel, &masked, &mut out);
        }
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        if let Some(&(_, budget)) = PANIC_BUDGETS.iter().find(|(p, _)| *p == rel_str) {
            check_panic_ratchet(rel, &masked, budget, &mut out);
        }
        sources.push((rel_str, masked.code));
    }
    check_stale_budgets(PANIC_BUDGETS, &rust_files, &mut out);
    check_test_only_pub(&sources, TEST_ONLY_KEEP, &mut out);
    for rel in &manifests {
        let src = fs::read_to_string(root.join(rel))?;
        check_manifest(rel, &src, &mut out);
    }
    check_bench_files(root, &mut out)?;
    Ok(out)
}

fn walk(
    root: &Path,
    dir: &Path,
    rust_files: &mut Vec<PathBuf>,
    manifests: &mut Vec<PathBuf>,
) -> std::io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == ".git" || name == "target" || name.starts_with('.') {
                continue;
            }
            walk(root, &path, rust_files, manifests)?;
        } else if name.ends_with(".rs") {
            rust_files.push(path.strip_prefix(root).unwrap_or(&path).to_path_buf());
        } else if name == "Cargo.toml" {
            manifests.push(path.strip_prefix(root).unwrap_or(&path).to_path_buf());
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Rust lexing: mask strings and comments, remember where comments were.
// ---------------------------------------------------------------------------

/// A source file with string/char-literal and comment *contents* blanked out
/// (newlines preserved, so byte offsets still map to the same lines), plus
/// the comment text per line for the `SAFETY:` rule.
struct Masked {
    /// The code with literals and comments replaced by spaces.
    code: String,
    /// `comment_lines[i]` = concatenated comment text on 1-indexed line `i+1`.
    comment_lines: Vec<String>,
}

#[allow(clippy::too_many_lines)]
fn mask_source(src: &str) -> Masked {
    let bytes = src.as_bytes();
    let mut code = String::with_capacity(src.len());
    let mut comment_lines: Vec<String> = vec![String::new(); src.lines().count() + 1];
    let mut line = 0usize;
    let mut i = 0usize;

    let push_comment = |comment_lines: &mut Vec<String>, line: usize, ch: char| {
        if let Some(buf) = comment_lines.get_mut(line) {
            buf.push(ch);
        }
    };
    // Emits a masked character: newlines survive, everything else blanks.
    macro_rules! blank {
        ($ch:expr) => {
            if $ch == '\n' {
                code.push('\n');
                line += 1;
            } else {
                code.push(' ');
            }
        };
    }

    while i < bytes.len() {
        let ch = bytes[i] as char;
        // Line comment.
        if ch == '/' && bytes.get(i + 1) == Some(&b'/') {
            while i < bytes.len() && bytes[i] != b'\n' {
                push_comment(&mut comment_lines, line, bytes[i] as char);
                code.push(' ');
                i += 1;
            }
            continue;
        }
        // Block comment (nested).
        if ch == '/' && bytes.get(i + 1) == Some(&b'*') {
            let mut depth = 0usize;
            while i < bytes.len() {
                if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                    depth += 1;
                    push_comment(&mut comment_lines, line, '/');
                    push_comment(&mut comment_lines, line, '*');
                    code.push_str("  ");
                    i += 2;
                } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                    depth -= 1;
                    code.push_str("  ");
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    let c = bytes[i] as char;
                    push_comment(&mut comment_lines, line, c);
                    blank!(c);
                    i += 1;
                }
            }
            continue;
        }
        // Raw (and raw-byte) string literals: r"...", r#"..."#, br"...".
        let prev_is_ident = i > 0 && (bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_');
        if !prev_is_ident && (ch == 'r' || (ch == 'b' && bytes.get(i + 1) == Some(&b'r'))) {
            let after_r = if ch == 'b' { i + 2 } else { i + 1 };
            let mut hashes = 0usize;
            let mut j = after_r;
            while j < bytes.len() && bytes[j] == b'#' {
                hashes += 1;
                j += 1;
            }
            if j < bytes.len() && bytes[j] == b'"' {
                // Emit the prefix verbatim (it is code, not contents).
                for _ in i..=j {
                    code.push(' ');
                }
                i = j + 1;
                let terminator: String =
                    std::iter::once('"').chain(std::iter::repeat_n('#', hashes)).collect();
                while i < bytes.len() && !bytes[i..].starts_with(terminator.as_bytes()) {
                    blank!(bytes[i] as char);
                    i += 1;
                }
                for _ in 0..terminator.len().min(bytes.len() - i) {
                    code.push(' ');
                    i += 1;
                }
                continue;
            }
        }
        // Ordinary string literal.
        if ch == '"' {
            code.push(' ');
            i += 1;
            while i < bytes.len() {
                let c = bytes[i] as char;
                if c == '\\' {
                    code.push_str("  ");
                    i += 2;
                    continue;
                }
                if c == '"' {
                    code.push(' ');
                    i += 1;
                    break;
                }
                blank!(c);
                i += 1;
            }
            continue;
        }
        // Char literal vs lifetime: 'x' or '\n' is a literal, 'a in
        // `&'a str` is not.
        if ch == '\'' {
            let is_char = match bytes.get(i + 1) {
                Some(b'\\') => true,
                Some(_) => bytes.get(i + 2) == Some(&b'\''),
                None => false,
            };
            if is_char {
                code.push(' ');
                i += 1;
                while i < bytes.len() {
                    let c = bytes[i] as char;
                    if c == '\\' {
                        code.push_str("  ");
                        i += 2;
                        continue;
                    }
                    code.push(' ');
                    i += 1;
                    if c == '\'' {
                        break;
                    }
                }
                continue;
            }
        }
        if ch == '\n' {
            code.push('\n');
            line += 1;
        } else {
            code.push(ch);
        }
        i += 1;
    }
    Masked { code, comment_lines }
}

/// 0-indexed line of byte offset `pos` in `text`.
fn line_of(text: &str, pos: usize) -> usize {
    text.as_bytes()[..pos].iter().filter(|&&b| b == b'\n').count()
}

/// Finds word-boundary occurrences of `word` in already-masked code.
fn find_tokens(code: &str, word: &str) -> Vec<usize> {
    let bytes = code.as_bytes();
    let mut out = Vec::new();
    let mut from = 0usize;
    while let Some(at) = code[from..].find(word) {
        let pos = from + at;
        let before_ok = pos == 0 || !is_ident_byte(bytes[pos - 1]);
        let end = pos + word.len();
        let after_ok = end >= bytes.len() || !is_ident_byte(bytes[end]);
        if before_ok && after_ok {
            out.push(pos);
        }
        from = pos + word.len();
    }
    out
}

fn check_safety_comments(path: &Path, masked: &Masked, out: &mut Vec<Violation>) {
    for pos in find_tokens(&masked.code, "unsafe") {
        let line = line_of(&masked.code, pos);
        // Walk upward from the `unsafe` token: comment lines extend the
        // search indefinitely (block-style SAFETY comments can be long);
        // only intervening *code* lines spend the window budget.
        let mut documented = false;
        let mut budget = SAFETY_WINDOW;
        let mut l = line + 1;
        while l > 0 {
            l -= 1;
            match masked.comment_lines.get(l) {
                Some(c) if c.contains("SAFETY:") => {
                    documented = true;
                    break;
                }
                Some(c) if !c.is_empty() => {}
                _ => {
                    if budget == 0 {
                        break;
                    }
                    budget -= 1;
                }
            }
        }
        if !documented {
            out.push(Violation {
                rule: HygieneRule::SafetyComment,
                path: path.to_path_buf(),
                line: Some(line + 1),
                message: format!(
                    "`unsafe` without a `// SAFETY:` comment within the preceding \
                     {SAFETY_WINDOW} lines"
                ),
            });
        }
    }
}

fn check_unsafe_gate(path: &Path, masked: &Masked, out: &mut Vec<Violation>) {
    let gated = ["#![forbid(unsafe_code)]", "#![deny(unsafe_code)]"]
        .iter()
        .any(|g| masked.code.contains(g));
    if !gated {
        out.push(Violation {
            rule: HygieneRule::UnsafeGate,
            path: path.to_path_buf(),
            line: None,
            message: "crate root carries neither #![forbid(unsafe_code)] nor \
                      #![deny(unsafe_code)]"
                .to_string(),
        });
    }
}

fn check_panic_ratchet(path: &Path, masked: &Masked, budget: usize, out: &mut Vec<Violation>) {
    // The ratchet covers shipping code only; unit tests below the
    // `#[cfg(test)]` marker unwrap freely.
    let code = before_tests(&masked.code);
    let count = code.matches(".unwrap()").count() + code.matches(".expect(").count();
    if count > budget {
        out.push(Violation {
            rule: HygieneRule::PanicRatchet,
            path: path.to_path_buf(),
            line: None,
            message: format!(
                "{count} `.unwrap()`/`.expect(` calls outside tests exceed the recorded \
                 budget of {budget}; handle the error or lower-bound the budget in a \
                 reviewed change"
            ),
        });
    }
}

/// Flags every budget entry whose path is not among the audited `files`.
fn check_stale_budgets(budgets: &[(&str, usize)], files: &[PathBuf], out: &mut Vec<Violation>) {
    for &(path, _) in budgets {
        if !files.iter().any(|f| f.to_string_lossy().replace('\\', "/") == path) {
            out.push(Violation {
                rule: HygieneRule::PanicRatchet,
                path: PathBuf::from(path),
                line: None,
                message: "panic budget names a file that no longer exists; move the entry to \
                          the file's new path or drop it"
                    .to_string(),
            });
        }
    }
}

/// Shipping code: everything before the file's `#[cfg(test)]` marker.
fn before_tests(code: &str) -> &str {
    &code[..code.find("#[cfg(test)]").unwrap_or(code.len())]
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Every `pub fn` defined in masked `code`, as `(byte offset, name)`.
/// `pub(crate) fn` and friends are not public and are skipped.
fn pub_fns(code: &str) -> Vec<(usize, &str)> {
    let bytes = code.as_bytes();
    let mut out = Vec::new();
    for pos in find_tokens(code, "fn") {
        // Walk back over the qualifiers that may sit between `pub` and `fn`.
        let mut end = pos;
        let word = loop {
            let head = code[..end].trim_end();
            let start = head.bytes().rposition(|b| !is_ident_byte(b));
            let word = &head[start.map_or(0, |s| s + 1)..];
            if matches!(word, "const" | "unsafe" | "async" | "extern") {
                end = head.len() - word.len();
            } else {
                break word;
            }
        };
        if word != "pub" {
            continue;
        }
        let rest = &code[pos + 2..];
        let skip = rest.len() - rest.trim_start().len();
        let start = pos + 2 + skip;
        let len = bytes[start..].iter().take_while(|&&b| is_ident_byte(b)).count();
        if len > 0 {
            out.push((pos, &code[start..start + len]));
        }
    }
    out
}

/// Flags every `pub fn` in a `crates/*/src` file that no other file names
/// and that its own shipping code names only at the definition, unless
/// `keep` lists it; flags every `keep` entry whose function is gone.
/// `sources` holds `(repo-relative path, masked code)` for every walked
/// `.rs` file, so doc comments and strings never count as a use.
fn check_test_only_pub(
    sources: &[(String, String)],
    keep: &[(&str, &str)],
    out: &mut Vec<Violation>,
) {
    // Number of files whose code names each identifier.
    let mut files_naming: HashMap<&str, usize> = HashMap::new();
    for (_, code) in sources {
        let idents: HashSet<&str> =
            code.split(|c: char| !c.is_ascii() || !is_ident_byte(c as u8)).collect();
        for ident in idents {
            *files_naming.entry(ident).or_default() += 1;
        }
    }
    let mut defined: HashSet<(&str, &str)> = HashSet::new();
    for (path, code) in sources {
        let mut parts = path.split('/');
        let in_library =
            parts.next() == Some("crates") && parts.next().is_some() && parts.next() == Some("src");
        if !in_library {
            continue;
        }
        let shipping = before_tests(code);
        for (pos, name) in pub_fns(shipping) {
            defined.insert((path.as_str(), name));
            let test_only =
                files_naming.get(name) == Some(&1) && find_tokens(shipping, name).len() == 1;
            if test_only && !keep.contains(&(path.as_str(), name)) {
                out.push(Violation {
                    rule: HygieneRule::TestOnlyPub,
                    path: PathBuf::from(path),
                    line: Some(line_of(code, pos) + 1),
                    message: format!(
                        "`pub fn {name}` is named only by its own unit tests; delete it or list \
                         it in TEST_ONLY_KEEP with the reason it stays"
                    ),
                });
            }
        }
    }
    for &(path, name) in keep {
        if !defined.contains(&(path, name)) {
            out.push(Violation {
                rule: HygieneRule::TestOnlyPub,
                path: PathBuf::from(path),
                line: None,
                message: format!(
                    "TEST_ONLY_KEEP names `pub fn {name}`, which no longer exists; drop the entry"
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Manifest audit: every dependency must resolve by path or workspace.
// ---------------------------------------------------------------------------

fn check_manifest(path: &Path, src: &str, out: &mut Vec<Violation>) {
    let mut in_dep_section = false;
    let mut dep_subtable: Option<(usize, bool)> = None; // header line, saw path/workspace
    for (idx, raw) in src.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if line.starts_with('[') {
            // Close a pending `[dependencies.name]` subtable.
            if let Some((hline, ok)) = dep_subtable.take() {
                if !ok {
                    push_registry(path, hline, out);
                }
            }
            let section = line.trim_matches(['[', ']']);
            let is_dep_table = section.ends_with("dependencies");
            let is_dep_entry = section.contains("dependencies.");
            in_dep_section = is_dep_table;
            if is_dep_entry {
                dep_subtable = Some((idx + 1, false));
            }
            continue;
        }
        if let Some((_, ok)) = &mut dep_subtable {
            if line.starts_with("path") || line.starts_with("workspace") {
                *ok = true;
            }
            continue;
        }
        if in_dep_section && line.contains('=') {
            let local = line.contains("path") || line.contains("workspace");
            if !local {
                push_registry(path, idx + 1, out);
            }
        }
    }
    if let Some((hline, ok)) = dep_subtable {
        if !ok {
            push_registry(path, hline, out);
        }
    }
}

fn push_registry(path: &Path, line: usize, out: &mut Vec<Violation>) {
    out.push(Violation {
        rule: HygieneRule::RegistryDependency,
        path: path.to_path_buf(),
        line: Some(line),
        message: "dependency does not resolve by `path` or `workspace`; the build \
                  environment has no registry access (see shims/README.md)"
            .to_string(),
    });
}

// ---------------------------------------------------------------------------
// Benchmark artefact schema.
// ---------------------------------------------------------------------------

fn check_bench_files(root: &Path, out: &mut Vec<Violation>) -> std::io::Result<()> {
    for entry in fs::read_dir(root)? {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy().into_owned();
        let Some(index) = name
            .strip_prefix("BENCH_")
            .and_then(|s| s.strip_suffix(".json"))
            .and_then(|s| s.parse::<u64>().ok())
        else {
            continue;
        };
        let rel = PathBuf::from(&name);
        let src = fs::read_to_string(entry.path())?;
        match json::parse(&src) {
            Err(e) => out.push(Violation {
                rule: HygieneRule::BenchSchema,
                path: rel,
                line: None,
                message: format!("not valid JSON: {e}"),
            }),
            Ok(doc) => validate_bench(&rel, index, &doc, out),
        }
    }
    Ok(())
}

fn validate_bench(path: &Path, index: u64, doc: &json::Value, out: &mut Vec<Violation>) {
    let mut bad = |message: String| {
        out.push(Violation {
            rule: HygieneRule::BenchSchema,
            path: path.to_path_buf(),
            line: None,
            message,
        });
    };
    let json::Value::Object(top) = doc else {
        bad("top level is not an object".to_string());
        return;
    };
    match top.iter().find(|(k, _)| k == "bench").map(|(_, v)| v) {
        Some(json::Value::Number(n)) if *n == index as f64 => {}
        Some(_) => bad(format!("\"bench\" does not equal the filename index {index}")),
        None => bad("missing \"bench\" field".to_string()),
    }
    let paired = top.iter().any(|(k, _)| k == "protocol");
    match top.iter().find(|(k, _)| k == "results").map(|(_, v)| v) {
        Some(json::Value::Array(rows)) => {
            if rows.is_empty() {
                bad("\"results\" is empty".to_string());
            }
            for (i, row) in rows.iter().enumerate() {
                let json::Value::Object(fields) = row else {
                    bad(format!("results[{i}] is not an object"));
                    continue;
                };
                let has_name =
                    fields.iter().any(|(k, v)| k == "name" && matches!(v, json::Value::String(_)));
                if !has_name {
                    bad(format!("results[{i}] lacks a string \"name\""));
                }
                let has_number = fields.iter().any(|(_, v)| matches!(v, json::Value::Number(_)));
                if !has_number {
                    bad(format!("results[{i}] records no numeric measurement"));
                }
                if paired {
                    let number = |key: &str| {
                        fields.iter().find(|(k, _)| k == key).and_then(|(_, v)| match v {
                            json::Value::Number(n) => Some(*n),
                            _ => None,
                        })
                    };
                    let keys = ["baseline_ms", "optimized_ms", "speedup", "q1", "q3"];
                    let missing: Vec<&str> =
                        keys.into_iter().filter(|k| number(k).is_none()).collect();
                    let (q1, m, q3) = (number("q1"), number("speedup"), number("q3"));
                    if !missing.is_empty() {
                        bad(format!("results[{i}] lacks numeric {}", missing.join(", ")));
                    } else if !(q1 <= m && m <= q3) {
                        bad(format!(
                            "results[{i}] needs q1 ≤ speedup ≤ q3, has {q1:?}, {m:?}, {q3:?}"
                        ));
                    }
                }
            }
        }
        Some(_) => bad("\"results\" is not an array".to_string()),
        None => bad("missing \"results\" array".to_string()),
    }
}

/// A minimal JSON reader — just enough to validate benchmark artefacts
/// without a serde dependency (object keys keep file order).
mod json {
    /// A parsed JSON value.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        /// `null`
        Null,
        /// `true` / `false`
        Bool(bool),
        /// Any number (f64 precision suffices for validation).
        Number(f64),
        /// A string (escapes decoded).
        String(String),
        /// An array.
        Array(Vec<Value>),
        /// An object, in file order.
        Object(Vec<(String, Value)>),
    }

    /// Parses a complete JSON document.
    pub fn parse(src: &str) -> Result<Value, String> {
        let bytes = src.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn expect(b: &[u8], pos: &mut usize, ch: u8) -> Result<(), String> {
        skip_ws(b, pos);
        if *pos < b.len() && b[*pos] == ch {
            *pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {pos}", ch as char))
        }
    }

    fn parse_value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        skip_ws(b, pos);
        match b.get(*pos) {
            None => Err("unexpected end of input".to_string()),
            Some(b'{') => {
                *pos += 1;
                let mut fields = Vec::new();
                skip_ws(b, pos);
                if b.get(*pos) == Some(&b'}') {
                    *pos += 1;
                    return Ok(Value::Object(fields));
                }
                loop {
                    skip_ws(b, pos);
                    let key = parse_string(b, pos)?;
                    expect(b, pos, b':')?;
                    let value = parse_value(b, pos)?;
                    fields.push((key, value));
                    skip_ws(b, pos);
                    match b.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b'}') => {
                            *pos += 1;
                            return Ok(Value::Object(fields));
                        }
                        _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                    }
                }
            }
            Some(b'[') => {
                *pos += 1;
                let mut items = Vec::new();
                skip_ws(b, pos);
                if b.get(*pos) == Some(&b']') {
                    *pos += 1;
                    return Ok(Value::Array(items));
                }
                loop {
                    items.push(parse_value(b, pos)?);
                    skip_ws(b, pos);
                    match b.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b']') => {
                            *pos += 1;
                            return Ok(Value::Array(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                    }
                }
            }
            Some(b'"') => Ok(Value::String(parse_string(b, pos)?)),
            Some(b't') => parse_literal(b, pos, "true", Value::Bool(true)),
            Some(b'f') => parse_literal(b, pos, "false", Value::Bool(false)),
            Some(b'n') => parse_literal(b, pos, "null", Value::Null),
            Some(_) => parse_number(b, pos),
        }
    }

    fn parse_literal(b: &[u8], pos: &mut usize, lit: &str, v: Value) -> Result<Value, String> {
        if b[*pos..].starts_with(lit.as_bytes()) {
            *pos += lit.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {pos}"))
        }
    }

    fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected string at byte {pos}"));
        }
        *pos += 1;
        let mut out = String::new();
        while *pos < b.len() {
            match b[*pos] {
                b'"' => {
                    *pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    *pos += 1;
                    match b.get(*pos) {
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'u') => {
                            let hex = b
                                .get(*pos + 1..*pos + 5)
                                .ok_or_else(|| "truncated \\u escape".to_string())?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                            *pos += 4;
                        }
                        Some(&c) => out.push(c as char),
                        None => return Err("truncated escape".to_string()),
                    }
                    *pos += 1;
                }
                c => {
                    out.push(c as char);
                    *pos += 1;
                }
            }
        }
        Err("unterminated string".to_string())
    }

    fn parse_number(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        let start = *pos;
        while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
            *pos += 1;
        }
        std::str::from_utf8(&b[start..*pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Value::Number)
            .ok_or_else(|| format!("invalid number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexer_masks_strings_comments_and_raw_strings() {
        let src = concat!(
            "// this mentions .unwrap() and unsafe in a comment\n",
            "let a = \"unsafe in a string\";\n",
            "let b = r#\"raw .unwrap() \"# ;\n",
            "/* block\n * unsafe inside\n */\n",
            "let c = 'u';\n",
        );
        let masked = mask_source(src);
        assert!(find_tokens(&masked.code, "unsafe").is_empty(), "{}", masked.code);
        assert_eq!(masked.code.matches(".unwrap()").count(), 0);
        // Comment text is preserved per line for the SAFETY rule.
        assert!(masked.comment_lines[0].contains("unsafe"));
        // Newlines survive masking, so line mapping is stable.
        assert_eq!(masked.code.lines().count(), src.lines().count());
    }

    #[test]
    fn lexer_survives_multibyte_characters() {
        // '†' is multibyte; the lexer must stay on byte boundaries without
        // panicking and keep line accounting intact.
        let src = "// K†K accumulation\nlet d = \"B† = B\"; // dagger †\nunsafe {}\n";
        let masked = mask_source(src);
        let toks = find_tokens(&masked.code, "unsafe");
        assert_eq!(toks.len(), 1);
        assert_eq!(line_of(&masked.code, toks[0]), 2);
    }

    #[test]
    fn safety_walk_accepts_long_comment_blocks_and_rejects_distant_ones() {
        // A block-style SAFETY comment with one code line between it and the
        // `unsafe` token is accepted: comment lines never spend the budget.
        let documented = concat!(
            "// SAFETY: the transmute below is sound because\n",
            "// the payload is repr(C) and both lifetimes are 'static,\n",
            "// as checked by the constructor.\n",
            "let job = make_job();\n",
            "unsafe { run(job) }\n",
        );
        let mut out = Vec::new();
        check_safety_comments(Path::new("x.rs"), &mask_source(documented), &mut out);
        assert!(out.is_empty(), "{out:?}");

        // More than SAFETY_WINDOW code lines of separation exhausts it.
        let mut far = String::from("// SAFETY: too far away\n");
        for i in 0..=SAFETY_WINDOW {
            far.push_str(&format!("let x{i} = {i};\n"));
        }
        far.push_str("unsafe {}\n");
        let mut out = Vec::new();
        check_safety_comments(Path::new("x.rs"), &mask_source(&far), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, HygieneRule::SafetyComment);
    }

    #[test]
    fn panic_ratchet_ignores_the_test_module() {
        let src = concat!(
            "fn hot() { x().unwrap(); y().expect(\"y\"); }\n",
            "#[cfg(test)]\n",
            "mod tests { fn t() { z().unwrap(); } }\n",
        );
        let masked = mask_source(src);
        let mut out = Vec::new();
        check_panic_ratchet(Path::new("x.rs"), &masked, 2, &mut out);
        assert!(out.is_empty(), "{out:?}");
        check_panic_ratchet(Path::new("x.rs"), &masked, 1, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, HygieneRule::PanicRatchet);
    }

    #[test]
    fn panic_ratchet_flags_budgets_for_missing_files() {
        let budgets = [("crates/a/src/hot.rs", 0), ("crates/a/src/gone.rs", 2)];
        let files = [PathBuf::from("crates/a/src/hot.rs"), PathBuf::from("crates/a/src/lib.rs")];
        let mut out = Vec::new();
        check_stale_budgets(&budgets, &files, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, HygieneRule::PanicRatchet);
        assert_eq!(out[0].path, PathBuf::from("crates/a/src/gone.rs"));
        let mut out = Vec::new();
        check_stale_budgets(&budgets[..1], &files, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    /// `(path, masked code)` pairs, as the auditor walks them.
    fn sources(files: &[(&str, &str)]) -> Vec<(String, String)> {
        files.iter().map(|&(p, src)| (p.to_string(), mask_source(src).code)).collect()
    }

    const HELPER: &str = concat!(
        "/// `helper` is mentioned in its own docs, which do not count.\n",
        "pub fn helper() -> u8 { 1 }\n",
        "pub fn used() -> u8 { 2 }\n",
        "fn caller() -> u8 { used() }\n",
        "#[cfg(test)]\n",
        "mod tests { fn t() { assert_eq!(super::helper(), 1); } }\n",
    );

    #[test]
    fn test_only_pub_flags_a_function_only_its_tests_call() {
        let files = sources(&[("crates/a/src/lib.rs", HELPER)]);
        let mut out = Vec::new();
        check_test_only_pub(&files, &[], &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, HygieneRule::TestOnlyPub);
        assert_eq!(out[0].line, Some(2));
        assert!(out[0].message.contains("`pub fn helper`"), "{out:?}");
        // A reviewed keep entry silences it.
        let mut out = Vec::new();
        check_test_only_pub(&files, &[("crates/a/src/lib.rs", "helper")], &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn test_only_pub_passes_when_another_file_names_the_function() {
        let files = sources(&[
            ("crates/a/src/lib.rs", HELPER),
            ("examples/demo.rs", "fn main() { a::helper(); }\n"),
        ]);
        let mut out = Vec::new();
        check_test_only_pub(&files, &[], &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn test_only_pub_ignores_restricted_visibility_and_non_library_files() {
        let restricted = HELPER.replace("pub fn helper", "pub(crate) fn helper");
        let files =
            sources(&[("crates/a/src/lib.rs", &restricted), ("crates/a/tests/t.rs", HELPER)]);
        let mut out = Vec::new();
        check_test_only_pub(&files, &[], &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn test_only_pub_flags_a_stale_keep_entry() {
        let files = sources(&[("crates/a/src/lib.rs", "pub fn kept() {}\n")]);
        let keep = [("crates/a/src/lib.rs", "kept"), ("crates/a/src/lib.rs", "gone")];
        let mut out = Vec::new();
        check_test_only_pub(&files, &keep, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, HygieneRule::TestOnlyPub);
        assert!(out[0].message.contains("`pub fn gone`"), "{out:?}");
    }

    #[test]
    fn manifest_audit_flags_registry_dependencies_only() {
        let clean = concat!(
            "[dependencies]\n",
            "qudit-core = { workspace = true }\n",
            "rand = { path = \"../../shims/rand\" }\n",
            "[dependencies.qudit-circuit]\n",
            "workspace = true\n",
            "[dev-dependencies]\n",
            "criterion = { workspace = true }\n",
        );
        let mut out = Vec::new();
        check_manifest(Path::new("Cargo.toml"), clean, &mut out);
        assert!(out.is_empty(), "{out:?}");

        let dirty = "[dependencies]\nserde = \"1.0\"\n[dependencies.rayon]\nversion = \"1\"\n";
        let mut out = Vec::new();
        check_manifest(Path::new("Cargo.toml"), dirty, &mut out);
        assert_eq!(out.len(), 2, "{out:?}");
        assert!(out.iter().all(|v| v.rule == HygieneRule::RegistryDependency));
    }

    #[test]
    fn bench_schema_validation_catches_malformed_artefacts() {
        let good = r#"{"bench": 8, "results": [{"name": "apply", "ns": 12.5}]}"#;
        let doc = json::parse(good).unwrap();
        let mut out = Vec::new();
        validate_bench(Path::new("BENCH_8.json"), 8, &doc, &mut out);
        assert!(out.is_empty(), "{out:?}");

        let wrong_index =
            json::parse(r#"{"bench": 7, "results": [{"name": "a", "ns": 1}]}"#).unwrap();
        let mut out = Vec::new();
        validate_bench(Path::new("BENCH_8.json"), 8, &wrong_index, &mut out);
        assert_eq!(out.len(), 1);

        let no_number = json::parse(r#"{"bench": 8, "results": [{"name": "a"}]}"#).unwrap();
        let mut out = Vec::new();
        validate_bench(Path::new("BENCH_8.json"), 8, &no_number, &mut out);
        assert_eq!(out.len(), 1);
        assert!(json::parse("{\"bench\": }").is_err());
    }

    #[test]
    fn paired_bench_rows_need_both_times_and_ordered_quartiles() {
        let check = |row: &str| {
            let src = format!(r#"{{"bench": 18, "protocol": "paired", "results": [{row}]}}"#);
            let mut out = Vec::new();
            validate_bench(Path::new("BENCH_18.json"), 18, &json::parse(&src).unwrap(), &mut out);
            out
        };
        let good = r#"{"name": "a", "baseline_ms": 2, "optimized_ms": 1, "speedup": 2, "q1": 1.9, "q3": 2.1}"#;
        assert!(check(good).is_empty());

        let no_q1 =
            r#"{"name": "a", "baseline_ms": 2, "optimized_ms": 1, "speedup": 2, "q3": 2.1}"#;
        let out = check(no_q1);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("q1"), "{out:?}");

        let unordered = r#"{"name": "a", "baseline_ms": 2, "optimized_ms": 1, "speedup": 2, "q1": 2.1, "q3": 1.9}"#;
        let out = check(unordered);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("q1 ≤ speedup ≤ q3"), "{out:?}");
    }

    #[test]
    fn audit_runs_clean_on_this_workspace() {
        // The auditor's own acceptance test: the committed tree is clean.
        // (Walks upward to the workspace root so `cargo test -p` works from
        // the crate directory too.)
        let mut root = std::env::current_dir().unwrap();
        while !root.join("Cargo.toml").exists() || !root.join("crates").is_dir() {
            assert!(root.pop(), "workspace root not found");
        }
        let violations = audit_repo(&root).unwrap();
        assert!(violations.is_empty(), "{violations:#?}");
    }
}
