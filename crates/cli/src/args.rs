//! A minimal `--flag value` argument parser (the allowed dependency set
//! has no CLI crate; this keeps `memifctl --help` honest without one).

use std::collections::BTreeMap;

/// Parsed command line: a subcommand plus `--key value` options.
#[derive(Debug, Default)]
pub struct Args {
    /// The subcommand (first non-flag argument).
    pub command: Option<String>,
    opts: BTreeMap<String, String>,
}

impl Args {
    /// Parses `std::env::args`-style input (program name excluded).
    ///
    /// # Errors
    ///
    /// Returns a message for a dangling `--flag` without a value, a flag
    /// given twice, or stray positional arguments after the subcommand.
    pub fn parse(input: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args::default();
        let mut it = input.peekable();
        while let Some(tok) = it.next() {
            if let Some(key) = tok.strip_prefix("--") {
                let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
                if args.opts.insert(key.to_owned(), value).is_some() {
                    return Err(format!("--{key} given more than once"));
                }
            } else if args.command.is_none() {
                args.command = Some(tok);
            } else {
                return Err(format!("unexpected positional argument '{tok}'"));
            }
        }
        Ok(args)
    }

    /// Builds an `Args` from pre-parsed `key=value` pairs, a later pair
    /// overriding an earlier one — the replay path reconstructs a command
    /// line from a trace header plus its own flags.
    #[must_use]
    pub fn from_pairs(command: &str, pairs: impl IntoIterator<Item = (String, String)>) -> Args {
        Args {
            command: Some(command.to_owned()),
            opts: pairs.into_iter().collect(),
        }
    }

    /// String option.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&str> {
        self.opts.get(key).map(String::as_str)
    }

    /// Every `(flag, value)` given, in flag order.
    pub fn pairs(&self) -> impl Iterator<Item = (&str, &str)> {
        self.opts.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }

    /// The first flag given that is not in `declared`, if any.
    #[must_use]
    pub fn undeclared(&self, declared: &[&str]) -> Option<&str> {
        self.opts
            .keys()
            .map(String::as_str)
            .find(|k| !declared.contains(k))
    }

    /// Typed option with a default.
    ///
    /// # Errors
    ///
    /// Returns a message if the value does not parse as `T`.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.opts.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key}: cannot parse '{v}'")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{RunSpec, SpecError};

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn command_and_flags() {
        let a = parse("migspeed --pages 1500 --profile xeon").unwrap();
        assert_eq!(a.command.as_deref(), Some("migspeed"));
        assert_eq!(a.get("profile"), Some("xeon"));
        assert_eq!(a.get_or("pages", 0u32).unwrap(), 1500);
        assert_eq!(a.get_or("batches", 7u32).unwrap(), 7, "default applies");
    }

    #[test]
    fn errors() {
        assert!(parse("move --pages").is_err(), "dangling flag");
        assert!(parse("move extra").is_err(), "stray positional");
        assert!(parse("move --pages abc")
            .unwrap()
            .get_or("pages", 0u32)
            .is_err());
    }

    #[test]
    fn repeated_flag_is_an_error() {
        let err = parse("move --count 4 --count 8").unwrap_err();
        assert!(
            err.contains("--count") && err.contains("more than once"),
            "{err}"
        );
        // The same value twice is still a repeat.
        assert!(parse("move --count 4 --count 4").is_err());
    }

    #[test]
    fn undeclared_flag_on_move_is_an_error() {
        let a = parse("move --batchmax 8").unwrap();
        assert_eq!(a.undeclared(&["batch-max"]), Some("batchmax"));
        assert_eq!(
            RunSpec::parse("move", &a, &["trace-events"]),
            Err(SpecError::Undeclared {
                cmd: "move".to_owned(),
                flag: "batchmax".to_owned()
            })
        );
        // A flag another command declares is just as foreign here.
        let a = parse("move --overlap-depth 4").unwrap();
        assert!(matches!(
            RunSpec::parse("move", &a, &["trace-events"]),
            Err(SpecError::Undeclared { flag, .. }) if flag == "overlap-depth"
        ));
    }

    #[test]
    fn later_pairs_override_earlier_ones() {
        let pairs = [("count", "8"), ("pages", "4"), ("count", "9")]
            .map(|(k, v)| (k.to_owned(), v.to_owned()));
        let a = Args::from_pairs("move", pairs);
        assert_eq!(a.get("count"), Some("9"));
        assert_eq!(a.pairs().count(), 2);
    }
}
