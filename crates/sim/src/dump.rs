//! The failing-schedule artifact, written once for both verifiers: one
//! shrink, one dump writer and reader, one replay. A dump is `#` header
//! lines (a title, `# reason:`, chaos's `# tick:`, the config line and
//! `# replay:`), then one step per line.
//!
//! The rule that lives here: a dump's header is the verdict its own
//! schedule reproduces. [`shrink`] takes it from one run of the shrunk
//! schedule, never from the run that found the failure, and
//! [`Format::replay`] fails a dump whose schedule reproduces another.

use crate::text::TextFields;
use crate::{out, outln};
use raincore_types::{Error, Result};
use std::fmt::{Display, Write as _};
use std::marker::PhantomData;
use std::str::FromStr;

/// What one run of a schedule came to, as a dump's header states it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Verdict {
    /// Which claim broke, where and when: the `# reason:` line.
    pub reason: String,
    /// The tick and virtual time it broke at, for a verifier that counts
    /// ticks (chaos): the `# tick:` line.
    pub tick: Option<String>,
}

/// A failing schedule, shrunk, with what the shrunk one reproduces.
#[derive(Clone, Debug)]
pub struct Found<S, W = ()> {
    /// The failing schedule as the search ran it.
    pub schedule: Vec<S>,
    /// Its 1-minimal shrink: the steps a dump holds.
    pub minimized: Vec<S>,
    /// What a run of `minimized` reproduced: the dump's header.
    pub verdict: Verdict,
    /// What else that run left (chaos: its trace evidence).
    pub evidence: W,
}

/// Shrinks `failing` to a 1-minimal schedule under `run` (one run of a
/// schedule: its verdict, `None` if clean, and its evidence) — or, if not
/// `minimal`, keeps it whole — then runs the result once: that run's
/// verdict and evidence are the dump's. Steps after the violation go
/// first; a 1-minimal schedule comes back unchanged. An error if the
/// result runs clean: the runs are not deterministic.
pub fn shrink<S: Clone, W>(
    failing: &[S],
    minimal: bool,
    mut run: impl FnMut(&[S]) -> Result<(Option<Verdict>, W)>,
) -> Result<Found<S, W>> {
    let mut minimized = failing.to_vec();
    if minimal {
        minimized = minimize(failing, |s| Ok(run(s)?.0.is_some()))?;
    }
    let (verdict, evidence) = run(&minimized)?;
    let verdict = verdict.ok_or(Error::Config("the shrunk schedule ran clean"))?;
    let schedule = failing.to_vec();
    Ok(Found {
        schedule,
        minimized,
        verdict,
        evidence,
    })
}

/// Greedy 1-minimal delta debugging: repeatedly try dropping single
/// steps of a `failing` schedule, keeping any shorter one that
/// `still_fails`, until a fixpoint.
fn minimize<T: Clone>(
    failing: &[T],
    mut still_fails: impl FnMut(&[T]) -> Result<bool>,
) -> Result<Vec<T>> {
    let mut schedule = failing.to_vec();
    loop {
        let mut shrunk = false;
        let mut i = schedule.len();
        while i > 0 {
            i -= 1;
            let mut candidate = schedule.clone();
            candidate.remove(i);
            if still_fails(&candidate)? {
                schedule = candidate;
                shrunk = true;
            }
        }
        if !shrunk {
            return Ok(schedule);
        }
    }
}

/// One verifier's dump: `C` is the config whose `text_fields!` words its
/// config line holds, `S` one step of its schedule.
pub struct Format<C, S> {
    /// The verifier, as its title and report lines name it.
    pub name: &'static str,
    /// The config line's key: `scenario`, `config`.
    pub key: &'static str,
    /// The binary that replays the dump: `model_check`, `chaos`.
    pub bin: &'static str,
    /// The config and step types.
    pub types: PhantomData<fn() -> (C, S)>,
}

impl<C: TextFields, S: Display + FromStr<Err = String>> Format<C, S> {
    /// `r`'s value, or exit 2 naming what went wrong and why.
    pub fn or_exit<T>(&self, r: std::result::Result<T, impl Display>, what: &str) -> T {
        r.unwrap_or_else(|e| {
            eprintln!("{}: {what}: {e}", self.name);
            std::process::exit(2)
        })
    }

    /// The dump of `steps` in `cfg`'s world, headed by `verdict`: what
    /// the steps reproduce.
    pub fn render(&self, cfg: &C, verdict: &Verdict, steps: &[S]) -> String {
        let mut out = format!("# raincore {} failing schedule\n", self.name);
        let _ = writeln!(out, "# reason: {}", verdict.reason);
        if let Some(tick) = &verdict.tick {
            let _ = writeln!(out, "# tick: {tick}");
        }
        let _ = writeln!(out, "# {}: {}", self.key, cfg.words());
        let bin = self.bin;
        let _ = writeln!(
            out,
            "# replay: cargo run -p raincore-sim --bin {bin} -- --replay <this file>"
        );
        for step in steps {
            let _ = writeln!(out, "{step}");
        }
        out
    }

    /// Writes the dump of `found` in `cfg`'s world to `path` and each
    /// `(suffix, body)` of its evidence beside it (`<path less .txt><suffix>`;
    /// exit 2 if one cannot be written), then reports the find, `what`
    /// saying where it was made: as the fault a seeded run must find, or
    /// as a failure (exit 1).
    pub fn report<W>(
        &self,
        cfg: &C,
        found: &Found<S, W>,
        path: &str,
        evidence: &[(&str, &str)],
        seeded: bool,
        what: &str,
    ) {
        let (name, reason) = (self.name, &found.verdict.reason);
        let dump = self.render(cfg, &found.verdict, &found.minimized);
        let stem = path.strip_suffix(".txt").unwrap_or(path);
        let beside = evidence
            .iter()
            .map(|&(suffix, body)| (stem.to_owned() + suffix, body));
        for (file, body) in std::iter::once((path.to_owned(), dump.as_str())).chain(beside) {
            self.or_exit(std::fs::write(&file, body), &format!("cannot write {file}"));
            eprintln!("{name}: wrote {file}");
        }
        let (n, m) = (found.schedule.len(), found.minimized.len());
        let report = format!("{what}: {reason}\n{name}: minimized {n} steps to {m}\n{dump}");
        if !seeded {
            eprintln!("{name}: FAIL — {report}");
            std::process::exit(1)
        }
        outln!("{name}: seeded fault FOUND {report}");
    }

    /// Reads a dump [`Format::render`] wrote, or one written by hand, over
    /// `cfg`: the config line sets the fields it names (a dump without
    /// one, or an older build's with fewer words, keeps the rest); the
    /// `# reason:` line, if any, is the verdict it states; any other `#`
    /// line is a comment and every other line a step.
    pub fn read(
        &self,
        text: &str,
        mut cfg: C,
    ) -> std::result::Result<(C, Option<String>, Vec<S>), String> {
        let (mut reason, mut steps) = (None, Vec::new());
        for line in text.lines().map(str::trim).filter(|l| !l.is_empty()) {
            let Some(comment) = line.strip_prefix('#') else {
                steps.push(line.parse()?);
                continue;
            };
            match comment.split_once(':').map(|(k, v)| (k.trim(), v)) {
                Some(("reason", value)) => reason = Some(value.trim().to_owned()),
                Some((key, words)) if key == self.key => cfg.read_words(words)?,
                _ => {}
            }
        }
        Ok((cfg, reason, steps))
    }

    /// `--replay FILE`: reads the dump at `path` over `cfg` and exits with
    /// what `run` tells of its steps — the verdict (`None`: clean), how
    /// far the run got (`after 3 of 5 actions`) and what to print after
    /// the verdict line. Exit 0 if the steps reproduce the reason the dump
    /// states (any, if it states none), 1 if they run clean or reproduce
    /// another, 2 if the dump cannot be read or run.
    pub fn replay(
        &self,
        path: &str,
        cfg: C,
        run: impl FnOnce(&C, &[S]) -> Result<(Option<Verdict>, String, String)>,
    ) -> ! {
        let text = std::fs::read_to_string(path);
        let text = self.or_exit(text, &format!("cannot read {path}"));
        let read = self.read(&text, cfg);
        let (cfg, stated, steps) = self.or_exit(read, &format!("bad dump in {path}"));
        let ran = run(&cfg, &steps);
        let (verdict, progress, detail) = self.or_exit(ran, "replay setup failed");
        let name = self.name;
        let Some(Verdict { reason, .. }) = verdict else {
            outln!("{name}: schedule replayed clean ({progress}) — violation did NOT reproduce");
            out!("{detail}");
            std::process::exit(1)
        };
        outln!("{name}: violation reproduced {progress}: {reason}");
        out!("{detail}");
        if let Some(stated) = stated.filter(|stated| *stated != reason) {
            eprintln!("{name}: FAIL — the dump states the reason `{stated}`,");
            eprintln!("{name}: but its schedule reproduces `{reason}`");
            std::process::exit(1)
        }
        std::process::exit(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shrinking_is_one_minimal() {
        // Fails while it still holds a 3 and a 7.
        let fails = |s: &[u32]| Ok(s.contains(&3) && s.contains(&7));
        assert_eq!(minimize(&[1, 3, 4, 7, 9, 3], fails).unwrap(), [3, 7]);
    }

    #[test]
    fn the_verdict_is_the_shrunk_schedules_own() {
        // The run reports the first step of what it ran: the search found
        // the schedule failing at 1, the shrunk one fails at 3.
        let run = |s: &[u32]| {
            let verdict = (s.contains(&3) && s.contains(&7)).then(|| Verdict {
                reason: format!("fails at {}", s[0]),
                tick: None,
            });
            Ok((verdict, s.len()))
        };
        let found = shrink(&[1, 3, 4, 7], true, run).unwrap();
        assert_eq!(found.schedule, [1, 3, 4, 7]);
        assert_eq!(found.minimized, [3, 7]);
        assert_eq!(found.verdict.reason, "fails at 3");
        assert_eq!(found.evidence, 2, "the evidence of that same run");
        assert_eq!(shrink(&[3, 7], true, run).unwrap().minimized, [3, 7]);
        assert_eq!(
            shrink(&[1, 3, 7], false, run).unwrap().verdict.reason,
            "fails at 1"
        );
        let clean = |_: &[u32]| Ok((None, ()));
        assert!(shrink(&[1], true, clean).is_err());
    }
}
