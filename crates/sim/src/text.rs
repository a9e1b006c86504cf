//! The text forms of the harnesses, each declared once (DESIGN.md §6b,
//! §7, §10.2). A model-check dump replays from its `# scenario:` line, a
//! chaos dump from its `# config:` line and its `@tick fault` lines; the
//! dump around those lines (its `# reason:`, its steps) is written and
//! read by [`crate::dump`], one format for both. `raincore-procher`
//! declares its child's command line, its ctl words, its export header
//! and its flags the same way.
//!
//! A config declares one row per field (`text_fields!`): the header
//! key, the field, its `Codec` and, where a command-line flag sets
//! exactly that field, the flag. From the rows come the header's writer,
//! its reader and the flags ([`TextFields`]), so a new field is one row.
//! An enum written as words declares one row per variant
//! (`text_enum!`): its verb and a codec per word, from which come its
//! `Display`, its strict `FromStr` and, if asked for, a method naming
//! the verb.

use raincore_net::Addr;
use raincore_types::{Duration, NodeId};
use std::fmt::Display;
use std::str::FromStr;

/// How a value is written as one word of a dump, and read back.
pub trait Codec<T> {
    /// The word.
    fn write(v: &T) -> String;
    /// The value `word` names, or `None` if it names none.
    fn read(word: &str) -> Option<T>;
    /// What a command-line flag naming the field does with its value:
    /// replaces the field, unless the codec says otherwise.
    fn push(field: &mut T, word: &str) -> Option<()> {
        *field = Self::read(word)?;
        Some(())
    }
}

/// `Display` out, `FromStr` in: numbers, `true`/`false` and the enums
/// `text_enum!` declares.
pub struct Plain;

impl<T: Display + FromStr> Codec<T> for Plain {
    fn write(v: &T) -> String {
        v.to_string()
    }
    fn read(word: &str) -> Option<T> {
        word.parse().ok()
    }
}

/// A node id: `n3`.
pub struct Node;

impl Codec<NodeId> for Node {
    fn write(v: &NodeId) -> String {
        v.to_string()
    }
    fn read(word: &str) -> Option<NodeId> {
        word.strip_prefix('n')?.parse().ok().map(NodeId)
    }
}

/// One NIC of a node: `n3.1`.
pub struct Nic;

impl Codec<Addr> for Nic {
    fn write(v: &Addr) -> String {
        v.to_string()
    }
    fn read(word: &str) -> Option<Addr> {
        let (node, nic) = word.split_once('.')?;
        Some(Addr::new(Node::read(node)?, nic.parse().ok()?))
    }
}

/// The sides of a partition: `n0,n1|n2,n3`.
pub struct Groups;

impl Codec<Vec<Vec<NodeId>>> for Groups {
    fn write(v: &Vec<Vec<NodeId>>) -> String {
        let group = |g: &Vec<NodeId>| g.iter().map(Node::write).collect::<Vec<_>>().join(",");
        v.iter().map(group).collect::<Vec<_>>().join("|")
    }
    fn read(word: &str) -> Option<Vec<Vec<NodeId>>> {
        let group = |g: &str| g.split(',').map(Node::read).collect();
        word.split('|').map(group).collect()
    }
}

/// A duration in the largest of ms, us and ns that states it whole
/// (`5ms`). Also reads the decimal form of `Duration`'s `Debug`
/// (`5.000ms`) that older dumps carry, to the nanosecond.
pub struct Exact;

impl Codec<Duration> for Exact {
    fn write(v: &Duration) -> String {
        match v.as_nanos() {
            ns if ns % 1_000_000 == 0 => format!("{}ms", ns / 1_000_000),
            ns if ns % 1_000 == 0 => format!("{}us", ns / 1_000),
            ns => format!("{ns}ns"),
        }
    }
    fn read(word: &str) -> Option<Duration> {
        let (number, unit) = word.split_at(word.find(|c: char| c.is_ascii_alphabetic())?);
        let scale: u64 = match unit {
            "s" => 1_000_000_000,
            "ms" => 1_000_000,
            "us" => 1_000,
            "ns" => 1,
            _ => return None,
        };
        let (whole, fraction) = number.split_once('.').unwrap_or((number, ""));
        let mut ns = whole.parse::<u64>().ok()?.checked_mul(scale)?;
        let mut place = scale;
        for digit in fraction.chars() {
            place /= 10;
            ns = ns.checked_add(u64::from(digit.to_digit(10)?) * place)?;
        }
        Some(Duration::from_nanos(ns))
    }
}

/// A duration in whole microseconds: `10000`.
pub struct Micros;

impl Codec<Duration> for Micros {
    fn write(v: &Duration) -> String {
        (v.as_nanos() / 1_000).to_string()
    }
    fn read(word: &str) -> Option<Duration> {
        word.parse().ok().map(Duration::from_micros)
    }
}

/// A file path, as it displays; a path that is not UTF-8 is written
/// lossily.
pub struct FilePath;

impl Codec<std::path::PathBuf> for FilePath {
    fn write(v: &std::path::PathBuf) -> String {
        v.display().to_string()
    }
    fn read(word: &str) -> Option<std::path::PathBuf> {
        Some(word.into())
    }
}

/// Seeded multicasts, `ORIGIN:LEN` each, comma-separated (`0:30,1:120`;
/// none is the empty word). A flag adds one.
pub struct Multicasts;

fn multicast(word: &str) -> Option<(NodeId, usize)> {
    let (origin, len) = word.split_once(':')?;
    Some((NodeId(origin.parse().ok()?), len.parse().ok()?))
}

impl Codec<Vec<(NodeId, usize)>> for Multicasts {
    fn write(v: &Vec<(NodeId, usize)>) -> String {
        let one = |(origin, len): &(NodeId, usize)| format!("{}:{len}", origin.0);
        v.iter().map(one).collect::<Vec<_>>().join(",")
    }
    fn read(word: &str) -> Option<Vec<(NodeId, usize)>> {
        word.split(',')
            .filter(|m| !m.is_empty())
            .map(multicast)
            .collect()
    }
    fn push(field: &mut Vec<(NodeId, usize)>, word: &str) -> Option<()> {
        field.push(multicast(word)?);
        Some(())
    }
}

/// One field's row of a config's text form (`text_fields!`).
pub struct Field<C> {
    /// The key of the field's `key=value` header word.
    pub key: &'static str,
    /// The flag that sets exactly this field, with its metavariable
    /// (`"--depth N"`), if one does.
    pub flag: Option<&'static str>,
    /// The field's value as its codec writes it.
    pub write: fn(&C) -> String,
    /// Replaces the field with the value a word names.
    pub set: fn(&mut C, &str) -> Option<()>,
    /// What the field's flag does with its value.
    pub push: fn(&mut C, &str) -> Option<()>,
}

/// A config written as one line of `key=value` words, one per row.
pub trait TextFields: Sized + 'static {
    /// The rows, in the order the words are written.
    const FIELDS: &'static [Field<Self>];

    /// Every row's `key=value` word, in row order.
    fn pairs(&self) -> Vec<String> {
        let pair = |f: &Field<Self>| format!("{}={}", f.key, (f.write)(self));
        Self::FIELDS.iter().map(pair).collect()
    }

    /// Every row's `key=value` word, space-separated.
    fn words(&self) -> String {
        self.pairs().join(" ")
    }

    /// Sets the field a `key=value` word names and returns its key. A
    /// word without `=`, an unknown key or a value the row's codec does
    /// not read is an error, so a replay never runs a world other than
    /// the one the line records.
    fn read_pair(&mut self, word: &str) -> Result<&'static str, String> {
        let bad = |what| format!("{what}: {word:?}");
        let (key, value) = word.split_once('=').ok_or_else(|| bad("no value"))?;
        let field = Self::FIELDS.iter().find(|f| f.key == key);
        let field = field.ok_or_else(|| bad("unknown key"))?;
        (field.set)(self, value).ok_or_else(|| bad("bad value"))?;
        Ok(field.key)
    }

    /// Sets every field a word of `line` names; the rest keep their value.
    fn read_words(&mut self, line: &str) -> Result<(), String> {
        let mut read = |word| self.read_pair(word).map(drop);
        line.split_whitespace().try_for_each(&mut read)
    }

    /// Sets every field, one `key=value` pair each (a value may hold
    /// spaces); a row no pair names is an error too.
    fn read_all<'a>(&mut self, pairs: impl IntoIterator<Item = &'a str>) -> Result<(), String> {
        let named: Vec<_> = pairs
            .into_iter()
            .map(|p| self.read_pair(p))
            .collect::<Result<_, _>>()?;
        match Self::FIELDS.iter().find(|f| !named.contains(&f.key)) {
            Some(f) => Err(format!("missing key: {:?}", f.key)),
            None => Ok(()),
        }
    }

    /// Applies command-line `flag` with `value`; `None` if no row names
    /// the flag or its codec does not read the value.
    fn set_flag(&mut self, flag: &str, value: &str) -> Option<()> {
        let named = |f: &&Field<Self>| f.flag.and_then(|spec| spec.split(' ').next()) == Some(flag);
        (Self::FIELDS.iter().find(named)?.push)(self, value)
    }

    /// `[--flag METAVAR]` for every row that has a flag: a usage line's.
    fn flag_usage() -> String {
        let flags = Self::FIELDS.iter().filter_map(|f| f.flag);
        flags
            .map(|f| format!("[{f}]"))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// Declares a config's text form, one row per field, in header order:
/// `"key" => field.path: Codec`, then `, "--flag METAVAR"` if a flag sets
/// exactly that field. Implements [`TextFields`].
#[macro_export]
macro_rules! text_fields {
    (impl $cfg:ty { $( $key:literal => $($path:ident).+ : $codec:ty $(, $flag:literal)? ; )* }) => {
        impl $crate::text::TextFields for $cfg {
            const FIELDS: &'static [$crate::text::Field<Self>] = &[$(
                $crate::text::Field {
                    key: $key,
                    flag: $crate::text::text_fields!(@flag $($flag)?),
                    write: |c| <$codec as $crate::text::Codec<_>>::write(&c.$($path).+),
                    set: |c, v| {
                        c.$($path).+ = <$codec as $crate::text::Codec<_>>::read(v)?;
                        Some(())
                    },
                    push: |c, v| <$codec as $crate::text::Codec<_>>::push(&mut c.$($path).+, v),
                },
            )*];
        }
    };
    (@flag) => { None };
    (@flag $flag:literal) => { Some($flag) };
}
pub use crate::text_fields;

/// Declares an enum written as words, one row per variant: the variant,
/// unit or a tuple of `name: Type as Codec` words, then `= "verb"`.
/// Generates `Display` (the verb, then each word), a strict `FromStr`
/// (the verb, exactly the variant's words, nothing after) and, given a
/// trailing `fn name;`, a method returning the verb.
#[macro_export]
macro_rules! text_enum {
    ($(#[$meta:meta])* $vis:vis enum $name:ident {
        $( $(#[$vmeta:meta])* $variant:ident $(( $($w:ident: $t:ty as $c:ty),* ))?
           = $verb:literal, )*
    } $($(#[$fmeta:meta])* $fvis:vis fn $method:ident;)?) => {
        $(#[$meta])*
        $vis enum $name {
            $( $(#[$vmeta])* $variant $(( $($t),* ))?, )*
        }

        impl $name {
            fn verb(&self) -> &'static str {
                match self {
                    $( Self::$variant { .. } => $verb, )*
                }
            }
            $($(#[$fmeta])* $fvis fn $method(&self) -> &'static str {
                self.verb()
            })?
        }

        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.write_str(self.verb())?;
                match self {
                    $( Self::$variant $(( $($w),* ))? => {
                        $($( write!(f, " {}", <$c as $crate::text::Codec<$t>>::write($w))?; )*)?
                    } )*
                }
                Ok(())
            }
        }

        impl std::str::FromStr for $name {
            type Err = String;

            fn from_str(s: &str) -> std::result::Result<Self, String> {
                let bad = || format!("not a {}: {s:?}", stringify!($name));
                let mut words = s.split_whitespace();
                let mut word = || words.next().ok_or_else(bad);
                let value = match word()? {
                    $( $verb => Self::$variant $(( $(
                        <$c as $crate::text::Codec<$t>>::read(word()?).ok_or_else(bad)?
                    ),* ))?, )*
                    _ => return Err(bad()),
                };
                // A word past the value's own would be dropped on replay,
                // which would then run something other than the line says.
                word().map_or(Ok(value), |_| Err(bad()))
            }
        }
    };
}
pub use crate::text_enum;
