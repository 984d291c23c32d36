//! The workspace's one command-line grammar. Every binary, and
//! `LauncherOptions`, reads its arguments through [`Flags`]:
//!
//! * a value flag is `--name=value`; a bare `--name` reads as the empty
//!   value, so `--profile` and `--profile=` mean the same;
//! * a switch is a bare `--name` or `--name=true|false|1|0|yes|no`;
//! * a malformed typed value fails as ``--name: invalid value `v` ``;
//! * a repeated flag: the last occurrence wins;
//! * any other argument is positional, and `-h` spells `--help`;
//! * a flag nobody took fails as ``unknown option `--x` ``.

use std::fmt;
use std::str::FromStr;

/// One `--name[=value]` argument.
#[derive(Debug)]
pub struct Flag {
    name: String,
    value: Option<String>,
}

impl Flag {
    /// The text after the first `=`; a bare flag reads as empty.
    pub fn value(&self) -> &str {
        self.value.as_deref().unwrap_or("")
    }

    /// True when the flag was given without `=`.
    pub fn is_bare(&self) -> bool {
        self.value.is_none()
    }

    /// The value parsed as `T`, surrounding whitespace ignored.
    pub fn parse<T: FromStr>(&self) -> Result<T, String> {
        self.value().trim().parse().map_err(|_| self.invalid())
    }

    /// The flag read as a switch: bare, `true`, `1` or `yes` is on;
    /// `false`, `0` or `no` is off.
    pub fn switch(&self) -> Result<bool, String> {
        match self.value.as_deref() {
            None | Some("true" | "1" | "yes") => Ok(true),
            Some("false" | "0" | "no") => Ok(false),
            Some(other) => Err(format!("{}: invalid boolean `{other}`", self.name)),
        }
    }

    /// The error for a value the flag does not take.
    pub fn invalid(&self) -> String {
        format!("{}: invalid value `{}`", self.name, self.value())
    }
}

/// The flag as it was spelled on the command line.
impl fmt::Display for Flag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.value {
            Some(value) => write!(f, "{}={value}", self.name),
            None => f.write_str(&self.name),
        }
    }
}

/// One command line: its flags, at most one per name, and its positional
/// arguments, each in command-line order. Callers take what they know;
/// [`Flags::finish`] rejects the rest.
#[derive(Debug, Default)]
pub struct Flags {
    flags: Vec<Flag>,
    positional: Vec<String>,
}

impl Flags {
    /// Splits `args` into flags and positional arguments.
    pub fn new<I>(args: I) -> Flags
    where
        I: IntoIterator,
        I::Item: AsRef<str>,
    {
        let mut parsed = Flags::default();
        for arg in args {
            let arg = match arg.as_ref() {
                "-h" => "--help",
                arg => arg,
            };
            if !arg.starts_with("--") {
                parsed.positional.push(arg.to_owned());
                continue;
            }
            let (name, value) = match arg.split_once('=') {
                Some((name, value)) => (name, Some(value.to_owned())),
                None => (arg, None),
            };
            parsed.flags.retain(|flag| flag.name != name);
            parsed.flags.push(Flag { name: name.to_owned(), value });
        }
        parsed
    }

    /// The process's command line. `--help` (or `-h`) prints `usage` on
    /// stdout and exits 0 before anything else runs.
    pub fn from_env(usage: &str) -> Flags {
        let mut flags = Flags::new(std::env::args().skip(1));
        if flags.switch("--help") != Ok(false) {
            println!("{usage}");
            std::process::exit(0);
        }
        flags
    }

    /// Removes and returns the flag `name`.
    pub fn take(&mut self, name: &str) -> Option<Flag> {
        let at = self.flags.iter().position(|flag| flag.name == name)?;
        Some(self.flags.remove(at))
    }

    /// The value of the flag `name`, when given ([`Flag::value`]).
    pub fn value(&mut self, name: &str) -> Option<String> {
        self.take(name).map(|flag| flag.value.unwrap_or_default())
    }

    /// The value of the flag `name` parsed as `T`, when given.
    pub fn parse<T: FromStr>(&mut self, name: &str) -> Result<Option<T>, String> {
        self.take(name).map(|flag| flag.parse()).transpose()
    }

    /// Whether the switch `name` is on; off when absent.
    pub fn switch(&mut self, name: &str) -> Result<bool, String> {
        self.take(name).map_or(Ok(false), |flag| flag.switch())
    }

    /// Removes and returns the positional arguments.
    pub fn positionals(&mut self) -> Vec<String> {
        std::mem::take(&mut self.positional)
    }

    /// Ends parsing: an error names the first flag, else the first
    /// positional argument, that nobody took.
    pub fn finish(self) -> Result<(), String> {
        let first = self.flags.first().map(Flag::to_string);
        match first.or_else(|| self.positional.into_iter().next()) {
            Some(arg) => Err(format!("unknown option `{arg}`")),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_flags_bare_flags_and_empty_values() {
        let mut flags = Flags::new(["in.xml", "--format=c", "--profile", "--store=", "out"]);
        assert_eq!(flags.value("--format").as_deref(), Some("c"));
        let bare = flags.take("--profile").unwrap();
        assert!(bare.is_bare());
        assert_eq!(bare.value(), "");
        let empty = flags.take("--store").unwrap();
        assert!(!empty.is_bare());
        assert_eq!(empty.value(), "");
        assert_eq!(flags.value("--missing"), None);
        assert_eq!(flags.positionals(), ["in.xml", "out"]);
        assert_eq!(flags.finish(), Ok(()));
        // Only the first `=` splits: the value keeps the rest verbatim.
        let mut flags = Flags::new(["--options=--frequency=2.0 --cores=4"]);
        assert_eq!(flags.value("--options").as_deref(), Some("--frequency=2.0 --cores=4"));
    }

    #[test]
    fn every_switch_spelling() {
        for (arg, on) in [
            ("--x", true),
            ("--x=true", true),
            ("--x=1", true),
            ("--x=yes", true),
            ("--x=false", false),
            ("--x=0", false),
            ("--x=no", false),
        ] {
            assert_eq!(Flags::new([arg]).switch("--x"), Ok(on), "{arg}");
        }
        assert_eq!(Flags::new(["--y"]).switch("--x"), Ok(false), "absent is off");
        for bad in ["--x=", "--x=maybe", "--x=TRUE"] {
            let err = Flags::new([bad]).switch("--x").unwrap_err();
            assert_eq!(err, format!("--x: invalid boolean `{}`", &bad[4..]));
        }
    }

    #[test]
    fn typed_values_name_flag_and_value_on_error() {
        let mut flags = Flags::new(["--n=12", "--f= 1.5 ", "--bad=ten", "--bare"]);
        assert_eq!(flags.parse::<u32>("--n"), Ok(Some(12)));
        assert_eq!(flags.parse::<f64>("--f"), Ok(Some(1.5)));
        assert_eq!(flags.parse::<u32>("--bad"), Err("--bad: invalid value `ten`".into()));
        assert_eq!(flags.parse::<u32>("--bare"), Err("--bare: invalid value ``".into()));
        assert_eq!(flags.parse::<u32>("--missing"), Ok(None));
        let zero = Flags::new(["--jobs=0"]).parse::<std::num::NonZeroUsize>("--jobs");
        assert_eq!(zero, Err("--jobs: invalid value `0`".into()));
    }

    #[test]
    fn the_last_occurrence_wins() {
        let mut flags = Flags::new(["--n=1", "--quiet", "--n=oops", "--n=3", "--quiet=false"]);
        assert_eq!(flags.parse::<u32>("--n"), Ok(Some(3)), "earlier values are not read");
        assert_eq!(flags.switch("--quiet"), Ok(false));
        assert_eq!(flags.finish(), Ok(()), "one flag per name is left to take");
    }

    #[test]
    fn leftovers_are_unknown_options() {
        let mut flags = Flags::new(["--known", "--last=3", "stray"]);
        assert_eq!(flags.switch("--known"), Ok(true));
        assert_eq!(flags.finish(), Err("unknown option `--last=3`".into()));
        let flags = Flags::new(["stray", "--"]);
        assert_eq!(flags.finish(), Err("unknown option `--`".into()));
        let flags = Flags::new(["stray"]);
        assert_eq!(flags.finish(), Err("unknown option `stray`".into()));
    }

    #[test]
    fn short_help_spells_long_help() {
        let mut flags = Flags::new(["-h", "x"]);
        assert_eq!(flags.switch("--help"), Ok(true));
        assert_eq!(flags.positionals(), ["x"]);
    }
}
