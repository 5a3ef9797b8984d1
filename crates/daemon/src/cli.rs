//! The workspace's one command-line parser. Every binary hands its
//! argument words to [`Args::parse`] with the flags and positional words
//! each subcommand takes, and reads them back through the typed getters.
//!
//! A command line is a boundary where bytes enter the system, so any
//! argument vector gets [`Args`] or an [`ArgError`], never a silent
//! default or a panic. A word starting with `--` that the command does
//! not declare is refused (so `--shard` is not `--shards`, `--seed=1` is
//! not a seed and `--` is not an end-of-options marker); a valued flag in
//! last place or followed by another flag has no value; a value that does
//! not parse as the getter's type is refused naming flag and value;
//! every other word is positional, and a missing or surplus one is an
//! error. When a flag repeats, its last occurrence wins.

use std::ffi::OsString;
use std::fmt;
use std::str::FromStr;

/// Why a command line was refused. Every variant names the offending
/// argument.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ArgError {
    /// A word starting with `--` that the command does not declare.
    UnknownFlag(String),
    /// A valued flag in last place, or followed by another flag.
    MissingValue(String),
    /// A flag's value, or a positional word, that does not parse.
    BadValue {
        /// The flag, or the positional word's name.
        flag: String,
        /// The word as given.
        value: String,
    },
    /// A positional word the command needs is absent (its name).
    MissingWord(String),
    /// A positional word past the ones the command takes.
    SurplusWord(String),
    /// A word that is not valid Unicode (shown lossily).
    NotUnicode(String),
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::UnknownFlag(flag) => write!(f, "unknown flag {flag:?}"),
            ArgError::MissingValue(flag) => write!(f, "{flag} needs a value"),
            ArgError::BadValue { flag, value } => write!(f, "bad value for {flag}: {value:?}"),
            ArgError::MissingWord(name) => write!(f, "missing {name}"),
            ArgError::SurplusWord(word) => write!(f, "unexpected argument {word:?}"),
            ArgError::NotUnicode(word) => write!(f, "argument {word:?} is not valid Unicode"),
        }
    }
}

impl std::error::Error for ArgError {}

/// A parsed command line: its positional words and the last value of
/// each declared flag.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Args {
    values: Vec<(String, String)>,
    switches: Vec<String>,
    words: Vec<String>,
    names: Vec<String>,
}

impl Args {
    /// Splits `argv` (the words after the program or subcommand name)
    /// into `valued` flags with their values, `switches`, and at most
    /// `words.len()` positional words, which `words` names in order.
    ///
    /// # Errors
    ///
    /// The [`ArgError`] of the first word that is not one of these.
    pub fn parse(
        argv: impl IntoIterator<Item = impl Into<OsString>>,
        valued: &[&str],
        switches: &[&str],
        words: &[&str],
    ) -> Result<Args, ArgError> {
        let is_flag = |w: &str| w.starts_with("--") || valued.contains(&w) || switches.contains(&w);
        let mut args = Args {
            values: Vec::new(),
            switches: Vec::new(),
            words: Vec::new(),
            names: words.iter().map(|&w| w.to_string()).collect(),
        };
        let mut argv = argv.into_iter().map(|w| {
            w.into().into_string().map_err(|w| ArgError::NotUnicode(w.to_string_lossy().into()))
        });
        while let Some(word) = argv.next() {
            let word = word?;
            if valued.contains(&word.as_str()) {
                match argv.next().transpose()? {
                    Some(value) if !is_flag(&value) => args.values.push((word, value)),
                    _ => return Err(ArgError::MissingValue(word)),
                }
            } else if switches.contains(&word.as_str()) {
                args.switches.push(word);
            } else if word.starts_with("--") {
                return Err(ArgError::UnknownFlag(word));
            } else if args.words.len() == words.len() {
                return Err(ArgError::SurplusWord(word));
            } else {
                args.words.push(word);
            }
        }
        Ok(args)
    }

    /// The last value given for `flag`, parsed as `T`, or `None` when the
    /// flag is absent.
    ///
    /// # Errors
    ///
    /// [`ArgError::BadValue`] when the value does not parse.
    pub fn get<T: FromStr>(&self, flag: &str) -> Result<Option<T>, ArgError> {
        self.values.iter().rev().find(|(f, _)| f == flag).map(|(_, v)| parse(flag, v)).transpose()
    }

    /// [`Args::get`], with `default` when the flag is absent.
    ///
    /// # Errors
    ///
    /// [`ArgError::BadValue`] when the value does not parse.
    pub fn get_or<T: FromStr>(&self, flag: &str, default: T) -> Result<T, ArgError> {
        Ok(self.get(flag)?.unwrap_or(default))
    }

    /// Whether the switch `name` was given.
    pub fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    /// Positional word `index` parsed as `T`.
    ///
    /// # Errors
    ///
    /// [`ArgError::MissingWord`] when the word is absent, and
    /// [`ArgError::BadValue`] when it does not parse.
    pub fn positional<T: FromStr>(&self, index: usize) -> Result<T, ArgError> {
        let name = self.names.get(index).map_or("argument", String::as_str);
        match self.words.get(index) {
            Some(word) => parse(name, word),
            None => Err(ArgError::MissingWord(name.to_string())),
        }
    }

    /// [`Args::positional`], with `default` when the word is absent.
    ///
    /// # Errors
    ///
    /// [`ArgError::BadValue`] when the word does not parse.
    pub fn positional_or<T: FromStr>(&self, index: usize, default: T) -> Result<T, ArgError> {
        if index < self.words.len() {
            self.positional(index)
        } else {
            Ok(default)
        }
    }
}

fn parse<T: FromStr>(flag: &str, value: &str) -> Result<T, ArgError> {
    value
        .parse()
        .map_err(|_| ArgError::BadValue { flag: flag.to_string(), value: value.to_string() })
}

#[cfg(test)]
mod tests {
    use super::*;

    const VALUED: &[&str] = &["--seed", "--out"];
    const SWITCHES: &[&str] = &["--check"];

    fn parse_args(argv: &[&str]) -> Result<Args, ArgError> {
        Args::parse(argv.iter().copied(), VALUED, SWITCHES, &["FILE", "OUT"])
    }

    #[test]
    fn an_undeclared_flag_is_refused() {
        for flag in ["--sed", "--seed=1", "--", "--help"] {
            assert_eq!(parse_args(&[flag]), Err(ArgError::UnknownFlag(flag.into())));
        }
        // A single dash is not flag syntax: such a word is positional.
        assert_eq!(parse_args(&["-h"]).unwrap().positional::<String>(0).as_deref(), Ok("-h"));
    }

    #[test]
    fn a_valued_flag_in_last_place_has_no_value() {
        assert_eq!(parse_args(&["--seed"]), Err(ArgError::MissingValue("--seed".into())));
        assert_eq!(parse_args(&["a", "--out"]), Err(ArgError::MissingValue("--out".into())));
    }

    #[test]
    fn a_flag_is_not_a_value() {
        for next in ["--seed", "--check", "--bogus"] {
            assert_eq!(
                parse_args(&["--out", next, "5"]),
                Err(ArgError::MissingValue("--out".into())),
                "{next}"
            );
        }
        // A declared name is a flag even without the `--` prefix.
        let args = Args::parse(["--protocol", "-h"], &["--protocol"], &["-h"], &[]);
        assert_eq!(args, Err(ArgError::MissingValue("--protocol".into())));
    }

    #[test]
    fn an_unparsable_value_names_the_flag_and_the_value() {
        let args = parse_args(&["--seed", "abc"]).unwrap();
        let err = args.get::<u64>("--seed").unwrap_err();
        assert_eq!(err, ArgError::BadValue { flag: "--seed".into(), value: "abc".into() });
        let msg = err.to_string();
        assert!(msg.contains("--seed") && msg.contains("abc"), "{msg}");
        assert!(args.get_or::<u64>("--seed", 1).is_err());
        let words = parse_args(&["x"]).unwrap();
        assert_eq!(
            words.positional::<u32>(0),
            Err(ArgError::BadValue { flag: "FILE".into(), value: "x".into() })
        );
    }

    #[test]
    fn the_last_occurrence_of_a_flag_wins() {
        let args = parse_args(&["--seed", "1", "--check", "--seed", "2", "--check"]).unwrap();
        assert_eq!(args.get::<u64>("--seed"), Ok(Some(2)));
        assert!(args.switch("--check"));
    }

    #[test]
    fn absent_flags_read_as_absent() {
        let args = parse_args(&[]).unwrap();
        assert_eq!(args.get::<u64>("--seed"), Ok(None));
        assert_eq!(args.get_or("--seed", 9u64), Ok(9));
        assert!(!args.switch("--check"));
    }

    #[test]
    fn positional_words_keep_their_order_around_flags() {
        let args = parse_args(&["a", "--seed", "3", "b"]).unwrap();
        assert_eq!(args.positional::<String>(0).as_deref(), Ok("a"));
        assert_eq!(args.positional::<String>(1).as_deref(), Ok("b"));
        assert_eq!(args.get::<u64>("--seed"), Ok(Some(3)));
        let one = parse_args(&["a"]).unwrap();
        assert_eq!(one.positional::<String>(1), Err(ArgError::MissingWord("OUT".into())));
        assert_eq!(one.positional_or(1, "dflt".to_string()).as_deref(), Ok("dflt"));
    }

    #[test]
    fn a_surplus_positional_word_is_refused() {
        assert_eq!(parse_args(&["a", "b", "c"]), Err(ArgError::SurplusWord("c".into())));
        let none = Args::parse(["stray"], VALUED, SWITCHES, &[]);
        assert_eq!(none, Err(ArgError::SurplusWord("stray".into())));
    }

    #[cfg(unix)]
    #[test]
    fn a_word_that_is_not_unicode_is_refused() {
        use std::os::unix::ffi::OsStringExt;
        let word = OsString::from_vec(vec![b'-', b'-', 0xFF]);
        let args = Args::parse([word], VALUED, SWITCHES, &[]);
        assert_eq!(args, Err(ArgError::NotUnicode("--\u{FFFD}".into())));
    }
}
