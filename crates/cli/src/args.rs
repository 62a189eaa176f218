//! A minimal `--flag value` argument parser (no external dependencies).

use std::collections::HashMap;

/// Parsed command line: a subcommand plus `--key value` / `--switch`
/// options.
#[derive(Clone, Debug, Default)]
pub struct Args {
    /// The subcommand (first non-flag argument).
    pub command: Option<String>,
    options: HashMap<String, String>,
    switches: Vec<String>,
}

impl Args {
    /// Parses raw arguments (excluding the program name).
    ///
    /// Grammar: the first bare word is the subcommand; `--key value` sets
    /// an option; a `--key` followed by another flag or nothing is a
    /// boolean switch.
    pub fn parse<I: IntoIterator<Item = String>>(raw: I) -> Args {
        let mut args = Args::default();
        let mut iter = raw.into_iter().peekable();
        while let Some(tok) = iter.next() {
            if let Some(key) = tok.strip_prefix("--") {
                match iter.peek() {
                    Some(next) if !next.starts_with("--") => {
                        let value = iter.next().expect("peeked");
                        args.options.insert(key.to_string(), value);
                    }
                    _ => args.switches.push(key.to_string()),
                }
            } else if args.command.is_none() {
                args.command = Some(tok);
            }
        }
        args
    }

    /// An option parsed as `T`, or `default` when absent; an error
    /// naming the flag and its value when the value does not parse.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.options.get(key) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|e| format!("invalid --{key} `{raw}`: {e}")),
        }
    }

    /// The raw (unparsed) value of an option, if present — for callers
    /// with their own validation.
    pub fn get_raw(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// True if the boolean switch is present.
    pub fn has(&self, key: &str) -> bool {
        self.switches.iter().any(|s| s == key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_command_options_switches() {
        let a = parse("pif --n 5 --loss 0.3 --corrupt --seed 42");
        assert_eq!(a.command.as_deref(), Some("pif"));
        assert_eq!(a.get_or("n", 0usize), Ok(5));
        assert!((a.get_or("loss", 0.0f64).unwrap() - 0.3).abs() < 1e-9);
        assert_eq!(a.get_or("seed", 0u64), Ok(42));
        assert!(a.has("corrupt"));
        assert!(!a.has("trace"));
    }

    #[test]
    fn defaults_apply() {
        let a = parse("me");
        assert_eq!(a.get_or("n", 3usize), Ok(3));
        assert_eq!(a.get_or("steps", 10_000u64), Ok(10_000));
    }

    #[test]
    fn trailing_switch() {
        let a = parse("idl --corrupt");
        assert_eq!(a.command.as_deref(), Some("idl"));
        assert!(a.has("corrupt"));
    }

    #[test]
    fn empty_input() {
        let a = parse("");
        assert!(a.command.is_none());
    }
}
