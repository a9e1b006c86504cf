//! `raincore-lint` — repo-specific static analysis for the Raincore
//! workspace. Rules the stock toolchain cannot express:
//!
//! | rule                  | scope                      | what it forbids |
//! |-----------------------|----------------------------|-----------------|
//! | `no-panic`            | protocol crates            | `.unwrap()`, `.expect(…)`, `panic!`, `unreachable!`, `todo!`, `unimplemented!` in non-test code — a networking element must degrade, not abort (§3.2) |
//! | `no-wall-clock`       | everywhere but `crates/net`| `std::time::Instant` / `SystemTime` — all protocol time flows through the virtual clock |
//! | `exhaustive-dispatch` | protocol crates + dispatch files | `_ =>` catch-alls in `match`es over protocol enums — adding a message variant must be a compile-time event everywhere it is handled |
//! | `relaxed-ordering`    | everywhere but `crates/obs`| `Ordering::Relaxed` — only the obs counters (never used for control flow) may be relaxed |
//! | `typestate-escape`    | `crates/core` outside `src/typestate.rs` | constructing or matching the raw role-state machinery (`RoleInner`, `Hungry`/`Eating`/`Starving`/`Down` literals) — every transition must go through the `Role` typestate API so illegal ones stay unrepresentable |
//!
//! Protocol crates: `crates/core`, `crates/transport`, `crates/broadcast`,
//! `crates/dlm`. Dispatch files (exhaustive-dispatch only): the sim/chaos
//! harness and batched-I/O runtime sources listed in `DISPATCH_FILES`,
//! which fan out over the protocol and chaos-fault enums but are allowed
//! to panic.
//!
//! Findings can be suppressed by `lint-allow.txt` at the lint root, one
//! entry per line: `rule|path-suffix|needle|reason`. Unused allowlist
//! entries are themselves errors (dead suppressions rot).
//!
//! Usage: `cargo run -p raincore-lint [-- --root DIR] [--json FILE]`.
//! Exits non-zero if any unsuppressed finding (or unused allowlist
//! entry) exists. `--json` additionally writes a machine-readable
//! report.
//!
//! The analysis is textual (comments, strings and `#[cfg(test)]` blocks
//! are stripped before matching) — deliberately dependency-free rather
//! than AST-exact. The false-positive escape hatch is the allowlist.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Crates whose code runs the group-communication protocol itself.
const PROTOCOL_CRATES: &[&str] = &[
    "crates/core",
    "crates/transport",
    "crates/broadcast",
    "crates/dlm",
];

/// Enum paths whose dispatch must be exhaustive in protocol crates.
///
/// `Verdict911::` was retired from this list when the typestate core
/// landed: verdict handling is a method on every role state
/// (`on_verdict` returns a `#[must_use]` outcome), so a missing
/// handler is a compile error — the type system subsumes the textual
/// rule.
const PROTOCOL_ENUMS: &[&str] = &[
    "SessionMsg::",
    "SessionEvent::",
    "TransportEvent::",
    "BMsg::",
    "Frame::",
    "LockOp::",
    "WireMsg::",
    "ChaosFault::",
    "TraceKind::",
    "Stage::",
    "RecKind::",
    "AttachedBody::",
];

/// Files outside the protocol crates whose `match`es over the enums in
/// `PROTOCOL_ENUMS` must still be exhaustive: the simulation and chaos
/// harness dispatch on protocol events and fault classes, and adding a
/// variant must be a compile-time event there too. Only
/// `exhaustive-dispatch` applies — harness code may panic.
const DISPATCH_FILES: &[&str] = &[
    "crates/net/src/batch.rs",
    "crates/net/src/sim.rs",
    "src/runtime.rs",
    "src/shard.rs",
    "crates/sim/src/audit.rs",
    "crates/sim/src/chaos.rs",
    "crates/sim/src/explore.rs",
    "crates/types/src/messages.rs",
    "crates/types/src/digest.rs",
    "crates/types/src/token_codec.rs",
    "crates/bench/src/bin/micro_bench.rs",
    "crates/obs/src/trace.rs",
    "crates/obs/src/span.rs",
    "crates/obs/src/recorder.rs",
    "crates/obs/src/parse.rs",
    "crates/procher/src/cluster.rs",
    "crates/procher/src/proxy.rs",
    "crates/procher/src/bin/tracectl.rs",
];

#[derive(Debug)]
struct Finding {
    rule: &'static str,
    path: String,
    line: usize,
    text: String,
    allowed: Option<String>,
}

#[derive(Debug)]
struct AllowEntry {
    rule: String,
    path_suffix: String,
    needle: String,
    reason: String,
    line: usize,
    used: std::cell::Cell<bool>,
}

fn main() {
    let mut root = PathBuf::from(".");
    let mut json_path: Option<PathBuf> = None;
    let mut quiet = false;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--root" => {
                i += 1;
                root = PathBuf::from(args.get(i).map(String::as_str).unwrap_or_else(|| usage()));
            }
            "--json" => {
                i += 1;
                json_path = Some(args.get(i).map(PathBuf::from).unwrap_or_else(|| usage()));
            }
            "--quiet" => quiet = true,
            _ => usage(),
        }
        i += 1;
    }

    let allowlist = match load_allowlist(&root.join("lint-allow.txt")) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("raincore-lint: {e}");
            std::process::exit(2);
        }
    };
    let mut files = Vec::new();
    collect_rs_files(&root, &root, &mut files);
    files.sort();
    if files.is_empty() {
        eprintln!("raincore-lint: no .rs files under {}", root.display());
        std::process::exit(2);
    }

    let mut findings = Vec::new();
    for rel in &files {
        let abs = root.join(rel);
        let Ok(source) = std::fs::read_to_string(&abs) else {
            continue;
        };
        lint_file(
            &rel.to_string_lossy().replace('\\', "/"),
            &source,
            &mut findings,
        );
    }
    for f in &mut findings {
        for a in &allowlist {
            if a.rule == f.rule
                && f.path.ends_with(&a.path_suffix)
                && (a.needle.is_empty() || f.text.contains(&a.needle))
            {
                f.allowed = Some(a.reason.clone());
                a.used.set(true);
                break;
            }
        }
    }

    let violations: Vec<&Finding> = findings.iter().filter(|f| f.allowed.is_none()).collect();
    let unused: Vec<&AllowEntry> = allowlist.iter().filter(|a| !a.used.get()).collect();

    if let Some(path) = &json_path {
        let json = render_json(&root, &files, &findings);
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("raincore-lint: cannot write {}: {e}", path.display());
            std::process::exit(2);
        }
    }

    if !quiet {
        for f in &findings {
            match &f.allowed {
                None => println!("{}:{}: [{}] {}", f.path, f.line, f.rule, f.text.trim()),
                Some(reason) => println!(
                    "{}:{}: [{}] allowed ({reason}): {}",
                    f.path,
                    f.line,
                    f.rule,
                    f.text.trim()
                ),
            }
        }
        for a in &unused {
            // Name the stale entry precisely — rule, path suffix AND
            // needle — so the fix is an unambiguous one-line delete.
            println!(
                "lint-allow.txt:{}: unused allowlist entry `{}|{}|{}` — delete it ({})",
                a.line, a.rule, a.path_suffix, a.needle, a.reason
            );
        }
        println!(
            "raincore-lint: {} files, {} findings ({} allowed, {} violations), {} unused allowlist entries",
            files.len(),
            findings.len(),
            findings.len() - violations.len(),
            violations.len(),
            unused.len(),
        );
    }
    if !violations.is_empty() || !unused.is_empty() {
        std::process::exit(1);
    }
}

fn usage() -> ! {
    eprintln!("usage: raincore-lint [--root DIR] [--json FILE] [--quiet]");
    std::process::exit(2);
}

fn load_allowlist(path: &Path) -> Result<Vec<AllowEntry>, String> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Ok(Vec::new()); // no allowlist: nothing suppressed
    };
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let parts: Vec<&str> = line.splitn(4, '|').collect();
        if parts.len() != 4 {
            return Err(format!(
                "{}:{}: expected 'rule|path-suffix|needle|reason'",
                path.display(),
                i + 1
            ));
        }
        out.push(AllowEntry {
            rule: parts[0].trim().to_string(),
            path_suffix: parts[1].trim().to_string(),
            needle: parts[2].trim().to_string(),
            reason: parts[3].trim().to_string(),
            line: i + 1,
            used: std::cell::Cell::new(false),
        });
    }
    Ok(out)
}

/// Recursively collects workspace .rs source files (relative paths),
/// skipping build output, vendored shims, test/bench trees and the
/// lint's own fixtures.
fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if matches!(
                name.as_ref(),
                "target" | ".git" | "shims" | "fixtures" | "tests" | "benches" | "node_modules"
            ) {
                continue;
            }
            collect_rs_files(root, &path, out);
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_path_buf());
            }
        }
    }
}

fn is_protocol_path(path: &str) -> bool {
    PROTOCOL_CRATES
        .iter()
        .any(|c| path.starts_with(&format!("{c}/")))
}

fn lint_file(path: &str, source: &str, findings: &mut Vec<Finding>) {
    let stripped = strip_comments_and_strings(source);
    let masked = mask_test_blocks(&stripped);
    let lines: Vec<&str> = masked.lines().collect();
    let orig_lines: Vec<&str> = source.lines().collect();
    let protocol = is_protocol_path(path);
    let dispatch = protocol || DISPATCH_FILES.contains(&path);
    let in_net = path.starts_with("crates/net/");
    let in_obs = path.starts_with("crates/obs/");
    // The typestate module is the one place allowed to name the raw
    // role-state machinery; everywhere else in the core crate must go
    // through the `Role` API.
    let typestate_guard =
        path.starts_with("crates/core/") && !path.ends_with("core/src/typestate.rs");

    let mut push = |rule: &'static str, line_idx: usize| {
        findings.push(Finding {
            rule,
            path: path.to_string(),
            line: line_idx + 1,
            text: orig_lines.get(line_idx).unwrap_or(&"").to_string(),
            allowed: None,
        });
    };

    for (i, line) in lines.iter().enumerate() {
        if protocol {
            const PANICKY: &[&str] = &[
                ".unwrap()",
                ".expect(",
                "panic!(",
                "unreachable!(",
                "todo!(",
                "unimplemented!(",
            ];
            if PANICKY.iter().any(|n| line.contains(n)) {
                push("no-panic", i);
            }
        }
        if !in_net
            && (line.contains("std::time::Instant")
                || line.contains("std::time::SystemTime")
                || contains_word(line, "Instant")
                || contains_word(line, "SystemTime"))
        {
            push("no-wall-clock", i);
        }
        if !in_obs && line.contains("Ordering::Relaxed") {
            push("relaxed-ordering", i);
        }
        if typestate_guard {
            const ROLE_STATES: &[&str] = &["Hungry", "Eating", "Starving", "Down"];
            if contains_word(line, "RoleInner")
                || ROLE_STATES.iter().any(|w| word_constructs(line, w))
            {
                push("typestate-escape", i);
            }
        }
    }

    if dispatch {
        for (line_idx, arm_line) in find_catchall_protocol_matches(&masked) {
            findings.push(Finding {
                rule: "exhaustive-dispatch",
                path: path.to_string(),
                line: line_idx + 1,
                text: orig_lines
                    .get(line_idx)
                    .map_or_else(|| arm_line.clone(), |l| (*l).to_string()),
                allowed: None,
            });
        }
    }
}

/// True when `word` occurs as a whole identifier immediately followed
/// (after whitespace) by `{` or `(` — i.e. a struct/variant literal or
/// tuple construction, not a mere mention of the name.
fn word_constructs(line: &str, word: &str) -> bool {
    let bytes = line.as_bytes();
    let mut start = 0;
    while let Some(pos) = line[start..].find(word) {
        let at = start + pos;
        let before_ok = at == 0 || !is_ident_char(bytes[at - 1]);
        let after = at + word.len();
        let after_ok = after >= bytes.len() || !is_ident_char(bytes[after]);
        if before_ok && after_ok {
            let rest = line[after..].trim_start();
            if rest.starts_with('{') || rest.starts_with('(') {
                return true;
            }
        }
        start = at + word.len();
    }
    false
}

fn contains_word(line: &str, word: &str) -> bool {
    let bytes = line.as_bytes();
    let mut start = 0;
    while let Some(pos) = line[start..].find(word) {
        let at = start + pos;
        let before_ok = at == 0 || !is_ident_char(bytes[at - 1]);
        let after = at + word.len();
        let after_ok = after >= bytes.len() || !is_ident_char(bytes[after]);
        if before_ok && after_ok {
            return true;
        }
        start = at + word.len();
    }
    false
}

fn is_ident_char(b: u8) -> bool {
    b == b'_' || b.is_ascii_alphanumeric()
}

/// Replaces the contents of comments, string literals and char literals
/// with spaces (newlines preserved), so later passes match code only.
fn strip_comments_and_strings(src: &str) -> String {
    #[derive(PartialEq)]
    enum S {
        Code,
        Line,
        Block(u32),
        Str,
        RawStr(u32),
        Char,
    }
    let b = src.as_bytes();
    let mut out = Vec::with_capacity(b.len());
    let mut st = S::Code;
    let mut i = 0;
    while i < b.len() {
        let c = b[i];
        match st {
            S::Code => {
                if c == b'/' && b.get(i + 1) == Some(&b'/') {
                    st = S::Line;
                    out.extend_from_slice(b"  ");
                    i += 2;
                    continue;
                }
                if c == b'/' && b.get(i + 1) == Some(&b'*') {
                    st = S::Block(1);
                    out.extend_from_slice(b"  ");
                    i += 2;
                    continue;
                }
                if c == b'"' {
                    st = S::Str;
                    out.push(b'"');
                    i += 1;
                    continue;
                }
                // Raw strings: r"…", r#"…"#, br"…", br#"…"# etc.
                if c == b'r' || (c == b'b' && b.get(i + 1) == Some(&b'r')) {
                    let r_at = if c == b'r' { i } else { i + 1 };
                    let prev_ident = i > 0 && is_ident_char(b[i - 1]);
                    if !prev_ident {
                        let mut j = r_at + 1;
                        let mut hashes = 0u32;
                        while b.get(j) == Some(&b'#') {
                            hashes += 1;
                            j += 1;
                        }
                        if b.get(j) == Some(&b'"') {
                            out.resize(out.len() + (j - i + 1), b' ');
                            st = S::RawStr(hashes);
                            i = j + 1;
                            continue;
                        }
                    }
                    out.push(c);
                    i += 1;
                    continue;
                }
                if c == b'\'' {
                    // Lifetime ('a) vs char literal ('x').
                    let next = b.get(i + 1).copied().unwrap_or(0);
                    let after = b.get(i + 2).copied().unwrap_or(0);
                    if (next == b'_' || next.is_ascii_alphabetic()) && after != b'\'' {
                        out.push(c); // lifetime
                        i += 1;
                        continue;
                    }
                    st = S::Char;
                    out.push(b'\'');
                    i += 1;
                    continue;
                }
                out.push(c);
                i += 1;
            }
            S::Line => {
                if c == b'\n' {
                    st = S::Code;
                    out.push(b'\n');
                } else {
                    out.push(b' ');
                }
                i += 1;
            }
            S::Block(depth) => {
                if c == b'/' && b.get(i + 1) == Some(&b'*') {
                    st = S::Block(depth + 1);
                    out.extend_from_slice(b"  ");
                    i += 2;
                } else if c == b'*' && b.get(i + 1) == Some(&b'/') {
                    st = if depth > 1 {
                        S::Block(depth - 1)
                    } else {
                        S::Code
                    };
                    out.extend_from_slice(b"  ");
                    i += 2;
                } else {
                    out.push(if c == b'\n' { b'\n' } else { b' ' });
                    i += 1;
                }
            }
            S::Str => {
                if c == b'\\' && i + 1 < b.len() {
                    // Preserve line-continuation newlines (`\` at EOL).
                    out.push(b' ');
                    out.push(if b[i + 1] == b'\n' { b'\n' } else { b' ' });
                    i += 2;
                } else if c == b'"' {
                    st = S::Code;
                    out.push(b'"');
                    i += 1;
                } else {
                    out.push(if c == b'\n' { b'\n' } else { b' ' });
                    i += 1;
                }
            }
            S::RawStr(hashes) => {
                if c == b'"' {
                    let mut j = i + 1;
                    let mut k = 0;
                    while k < hashes && b.get(j) == Some(&b'#') {
                        k += 1;
                        j += 1;
                    }
                    if k == hashes {
                        out.resize(out.len() + (j - i), b' ');
                        st = S::Code;
                        i = j;
                        continue;
                    }
                }
                out.push(if c == b'\n' { b'\n' } else { b' ' });
                i += 1;
            }
            S::Char => {
                if c == b'\\' && i + 1 < b.len() {
                    out.push(b' ');
                    out.push(if b[i + 1] == b'\n' { b'\n' } else { b' ' });
                    i += 2;
                } else if c == b'\'' {
                    st = S::Code;
                    out.push(b'\'');
                    i += 1;
                } else {
                    out.push(if c == b'\n' { b'\n' } else { b' ' });
                    i += 1;
                }
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Blanks out `#[cfg(test)]`-attributed items (the attribute, any
/// attributes/doc lines between it and the item, and the item's whole
/// brace-balanced body). Test code may panic freely.
fn mask_test_blocks(stripped: &str) -> String {
    let b = stripped.as_bytes();
    let mut out = b.to_vec();
    let mut i = 0;
    while let Some(pos) = stripped[i..].find("#[cfg(test)]") {
        let start = i + pos;
        // Find the start of the item's block (or a `;` for extern mods).
        let mut j = start;
        let mut depth = 0usize;
        let mut end = stripped.len();
        while j < b.len() {
            match b[j] {
                b'{' => depth += 1,
                b'}' if depth > 0 => {
                    depth -= 1;
                    if depth == 0 {
                        end = j + 1;
                        break;
                    }
                }
                b';' if depth == 0 => {
                    end = j + 1;
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        for k in start..end.min(out.len()) {
            if out[k] != b'\n' {
                out[k] = b' ';
            }
        }
        i = end.min(stripped.len());
        if i <= start {
            break;
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Finds `match` blocks that both dispatch on a protocol enum and
/// contain a top-level `_` catch-all arm. Returns `(line_index,
/// arm_text)` per offense.
fn find_catchall_protocol_matches(masked: &str) -> Vec<(usize, String)> {
    let b = masked.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while let Some(pos) = masked[i..].find("match") {
        let at = i + pos;
        let before_ok = at == 0 || !is_ident_char(b[at - 1]);
        let after = at + "match".len();
        let after_ok = after < b.len() && !is_ident_char(b[after]);
        if !(before_ok && after_ok) {
            i = after;
            continue;
        }
        // Find the match block: first `{` after the scrutinee.
        let Some(open_rel) = masked[after..].find('{') else {
            break;
        };
        let open = after + open_rel;
        let mut depth = 0usize;
        let mut close = masked.len();
        for (j, &c) in b.iter().enumerate().skip(open) {
            match c {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        close = j;
                        break;
                    }
                }
                _ => {}
            }
        }
        let block = &masked[open + 1..close.min(masked.len())];
        if PROTOCOL_ENUMS.iter().any(|e| block.contains(e)) {
            if let Some(arm_off) = find_toplevel_wildcard_arm(block) {
                let abs = open + 1 + arm_off;
                let line_idx = masked[..abs].matches('\n').count();
                let text = masked.lines().nth(line_idx).unwrap_or_default().to_string();
                out.push((line_idx, text));
            }
        }
        i = open + 1;
    }
    out
}

/// Offset of a top-level `_ =>` / `_ if … =>` arm inside a match block
/// body, if present.
fn find_toplevel_wildcard_arm(block: &str) -> Option<usize> {
    let b = block.as_bytes();
    let mut depth = 0usize;
    let mut prev_sig = b','; // virtual separator before the first arm
    let mut j = 0;
    while j < b.len() {
        let c = b[j];
        match c {
            b'{' | b'(' | b'[' => depth += 1,
            b'}' | b')' | b']' => depth = depth.saturating_sub(1),
            b'_' if depth == 0 => {
                let standalone_before = matches!(prev_sig, b',' | b'{' | b'}' | b'|');
                let after = b.get(j + 1).copied().unwrap_or(b' ');
                if standalone_before && !is_ident_char(after) {
                    // `_` as a whole pattern: next significant token must
                    // be `=>` or an `if` guard.
                    let rest = block[j + 1..].trim_start();
                    if rest.starts_with("=>") || rest.starts_with("if ") {
                        return Some(j);
                    }
                }
            }
            _ => {}
        }
        if !c.is_ascii_whitespace() {
            prev_sig = c;
        }
        j += 1;
    }
    None
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 8);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn render_json(root: &Path, files: &[PathBuf], findings: &[Finding]) -> String {
    let violations = findings.iter().filter(|f| f.allowed.is_none()).count();
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(
        out,
        "  \"root\": \"{}\",",
        json_escape(&root.display().to_string())
    );
    let _ = writeln!(out, "  \"files_scanned\": {},", files.len());
    let _ = writeln!(
        out,
        "  \"counts\": {{\"total\": {}, \"allowed\": {}, \"violations\": {}}},",
        findings.len(),
        findings.len() - violations,
        violations
    );
    let _ = writeln!(out, "  \"findings\": [");
    for (i, f) in findings.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"rule\": \"{}\", \"path\": \"{}\", \"line\": {}, \"text\": \"{}\", \"allowed\": {}{}}}",
            f.rule,
            json_escape(&f.path),
            f.line,
            json_escape(f.text.trim()),
            f.allowed.is_some(),
            match &f.allowed {
                Some(r) => format!(", \"reason\": \"{}\"", json_escape(r)),
                None => String::new(),
            }
        );
        let _ = writeln!(out, "{}", if i + 1 < findings.len() { "," } else { "" });
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stripper_removes_comments_and_strings() {
        let src = r#"
let a = ".unwrap()"; // .unwrap() in comment
/* panic!("x") */
let b = x.unwrap();
"#;
        let s = strip_comments_and_strings(src);
        assert_eq!(s.matches(".unwrap()").count(), 1, "{s}");
        assert!(!s.contains("panic!"));
        assert_eq!(s.lines().count(), src.lines().count());
    }

    #[test]
    fn stripper_handles_lifetimes_and_chars() {
        let src = "fn f<'a>(x: &'a str) { let c = '\\''; let d = 'x'; }";
        let s = strip_comments_and_strings(src);
        assert!(s.contains("<'a>"));
        assert!(!s.contains('x') || s.contains("x:"), "{s}");
    }

    #[test]
    fn test_blocks_are_masked() {
        let src =
            "fn prod() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n    fn t() { y.unwrap(); }\n}\n";
        let masked = mask_test_blocks(&strip_comments_and_strings(src));
        assert_eq!(masked.matches(".unwrap()").count(), 1, "{masked}");
    }

    #[test]
    fn wildcard_arm_detection() {
        let hit = "match m { SessionMsg::Token(t) => go(t), _ => {} }";
        assert_eq!(find_catchall_protocol_matches(hit).len(), 1);
        let guard = "match m { SessionMsg::Token(t) => go(t), _ if x => {} }";
        assert_eq!(find_catchall_protocol_matches(guard).len(), 1);
        let ok = "match m { SessionMsg::Token(t) => go(t), SessionMsg::Call911(c) => vote(c) }";
        assert!(find_catchall_protocol_matches(ok).is_empty());
        let non_protocol = "match opt { Some(v) => v, _ => 0 }";
        assert!(find_catchall_protocol_matches(non_protocol).is_empty());
        let inner_wildcard =
            "match m { SessionMsg::Token(_) => t(), SessionMsg::Call911(_) => c() }";
        assert!(find_catchall_protocol_matches(inner_wildcard).is_empty());
    }

    #[test]
    fn rules_fire_on_fixture_sources() {
        let mut findings = Vec::new();
        lint_file(
            "crates/core/src/x.rs",
            "fn f() { q.unwrap(); match m { SessionMsg::Token(_) => {}, _ => {} } }",
            &mut findings,
        );
        lint_file(
            "crates/data/src/y.rs",
            "use std::time::Instant;\nfn g() { a.load(Ordering::Relaxed); }",
            &mut findings,
        );
        let rules: Vec<&str> = findings.iter().map(|f| f.rule).collect();
        assert!(rules.contains(&"no-panic"), "{rules:?}");
        assert!(rules.contains(&"exhaustive-dispatch"), "{rules:?}");
        assert!(rules.contains(&"no-wall-clock"), "{rules:?}");
        assert!(rules.contains(&"relaxed-ordering"), "{rules:?}");
    }

    #[test]
    fn dispatch_files_get_exhaustive_dispatch_only() {
        let mut findings = Vec::new();
        lint_file(
            "crates/sim/src/chaos.rs",
            "fn f() { q.unwrap(); match m { ChaosFault::Crash(n) => go(n), _ => {} } }",
            &mut findings,
        );
        let rules: Vec<&str> = findings.iter().map(|f| f.rule).collect();
        assert_eq!(rules, ["exhaustive-dispatch"], "{findings:?}");
        // The same source in a file not on the dispatch list is clean.
        let mut elsewhere = Vec::new();
        lint_file(
            "crates/sim/src/engine.rs",
            "fn f() { q.unwrap(); match m { ChaosFault::Crash(n) => go(n), _ => {} } }",
            &mut elsewhere,
        );
        assert!(elsewhere.is_empty(), "{elsewhere:?}");
    }

    #[test]
    fn typestate_escape_fires_outside_typestate_module() {
        let rogue = "fn f(r: &Role) { if let RoleInner::Eating(_) = r.peek() {} }\n\
                     fn g() -> Hungry { Hungry { deferred: vec![] } }\n";
        let mut findings = Vec::new();
        lint_file("crates/core/src/node.rs", rogue, &mut findings);
        let hits: Vec<usize> = findings
            .iter()
            .filter(|f| f.rule == "typestate-escape")
            .map(|f| f.line)
            .collect();
        assert_eq!(hits, [1, 2], "{findings:?}");

        // The typestate module itself is the one legal home.
        let mut home = Vec::new();
        lint_file("crates/core/src/typestate.rs", rogue, &mut home);
        assert!(
            !home.iter().any(|f| f.rule == "typestate-escape"),
            "{home:?}"
        );
        // Other crates never get the rule: `Down`/`Eating` are only
        // reserved words inside the core crate.
        let mut sim = Vec::new();
        lint_file("crates/sim/src/explore.rs", rogue, &mut sim);
        assert!(sim.iter().all(|f| f.rule != "typestate-escape"), "{sim:?}");
    }

    #[test]
    fn typestate_escape_ignores_mentions_and_lookalikes() {
        // Mentioning a state name without constructing it is fine, and
        // `ShutDown {` must not trip the word-boundary check for `Down`.
        let benign = "fn f() { ev(SessionEvent::ShutDown { reason }); }\n\
                      fn g(r: &Role) -> bool { r.state_name() == HUNGRY_NAME }\n";
        let mut findings = Vec::new();
        lint_file("crates/core/src/node.rs", benign, &mut findings);
        assert!(
            findings.iter().all(|f| f.rule != "typestate-escape"),
            "{findings:?}"
        );
    }

    #[test]
    fn scopes_respected() {
        let mut findings = Vec::new();
        // net may use Instant; obs may use Relaxed; non-protocol crates
        // may unwrap.
        lint_file(
            "crates/net/src/udp.rs",
            "use std::time::Instant;",
            &mut findings,
        );
        lint_file(
            "crates/obs/src/metrics.rs",
            "a.load(Ordering::Relaxed);",
            &mut findings,
        );
        lint_file("crates/sim/src/cluster.rs", "q.unwrap();", &mut findings);
        assert!(findings.is_empty(), "{findings:?}");
    }
}

#[cfg(test)]
mod stripper_line_tests {
    use super::*;

    #[test]
    fn string_line_continuation_preserves_line_count() {
        let src = "let s = \"usage: \\\n         more\";\nuse std::time::Instant;\n";
        let stripped = strip_comments_and_strings(src);
        assert_eq!(stripped.lines().count(), src.lines().count());
        assert!(stripped.lines().nth(2).unwrap_or("").contains("Instant"));
    }
}
