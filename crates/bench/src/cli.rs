//! The experiment binaries' one optional argument.

use std::fmt::Display;
use std::ops::RangeInclusive;
use std::str::FromStr;

/// The binary's one optional argument: `default` when it is absent, else
/// its value if that parses and lies in `range`. Anything else — text
/// that does not parse, a value out of range, a second argument — prints
/// `usage: <binary> [<what>]` and the range to stderr and exits with
/// status 2, so a typo never runs the default silently.
pub fn arg<T>(what: &str, default: T, range: RangeInclusive<T>) -> T
where
    T: FromStr + PartialOrd + Display,
{
    let mut args = std::env::args();
    let bin = args.next().unwrap_or_default();
    let given: Vec<String> = args.collect();
    let value = match given.as_slice() {
        [] => return default,
        [one] => one.parse::<T>().ok().filter(|v| range.contains(v)),
        [_, _, ..] => None,
    };
    value.unwrap_or_else(|| {
        let bin = bin.rsplit('/').next().unwrap_or(&bin);
        eprintln!(
            "usage: {bin} [{what}]  ({what}: {}..={}, default {default}; got {given:?})",
            range.start(),
            range.end()
        );
        std::process::exit(2)
    })
}
