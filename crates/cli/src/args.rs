//! Tiny dependency-free flag parser for the CLI.

use std::collections::HashMap;

/// Parsed command line: a subcommand plus `--key value` / `--flag` pairs.
#[derive(Debug, Clone, Default)]
pub struct Args {
    pub command: Option<String>,
    values: HashMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    /// Parse an argument vector (excluding the program name).
    pub fn parse<I: IntoIterator<Item = String>>(argv: I) -> Result<Args, String> {
        let mut out = Args::default();
        let mut it = argv.into_iter().peekable();
        if let Some(first) = it.peek() {
            if !first.starts_with("--") {
                out.command = it.next();
            }
        }
        while let Some(a) = it.next() {
            let Some(key) = a.strip_prefix("--") else {
                return Err(format!("unexpected positional argument {a:?}"));
            };
            if key.is_empty() {
                return Err("empty flag name".into());
            }
            match it.peek() {
                Some(v) if !v.starts_with("--") => {
                    let v = it.next().expect("peeked");
                    out.values.insert(key.to_string(), v);
                }
                _ => out.flags.push(key.to_string()),
            }
        }
        Ok(out)
    }

    /// A boolean flag (`--paper`).
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// A required or optional typed value (`--ms 500`).
    pub fn get<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.values.get(name) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("invalid value for --{name}: {v:?}")),
        }
    }

    /// Typed value with a default.
    pub fn get_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        Ok(self.get(name)?.unwrap_or(default))
    }

    pub fn get_string(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    /// A flag given that is neither in `known` (space-separated) nor global
    /// (`--stats`, `--stats-json`), the first by name so it reads stably.
    pub fn unknown_flag(&self, known: &str) -> Option<&str> {
        let known = known.split_whitespace().chain(["stats", "stats-json"]);
        let names = self.flags.iter().chain(self.values.keys());
        names
            .map(String::as_str)
            .filter(|n| !known.clone().any(|k| k == *n))
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_command_values_and_flags() {
        let a = parse("simulate --ms 500 --seed 7 --paper").unwrap();
        assert_eq!(a.command.as_deref(), Some("simulate"));
        assert_eq!(a.get_or("ms", 0u64).unwrap(), 500);
        assert_eq!(a.get_or("seed", 0u64).unwrap(), 7);
        assert!(a.flag("paper"));
        assert!(!a.flag("missing"));
    }

    #[test]
    fn defaults_apply_when_absent() {
        let a = parse("eval").unwrap();
        assert_eq!(a.get_or("epochs", 30usize).unwrap(), 30);
        assert_eq!(a.get::<u64>("ms").unwrap(), None);
    }

    #[test]
    fn rejects_bad_values_and_positionals() {
        let a = parse("simulate --ms abc").unwrap();
        assert!(a.get::<u64>("ms").is_err());
        assert!(parse("simulate stray").is_err());
    }

    #[test]
    fn unknown_flags_are_named_and_globals_pass() {
        let a = parse("serve --max-secs 1 --stats --stats-json f --zz --max-restarts 3").unwrap();
        assert_eq!(a.unknown_flag("max-secs"), Some("max-restarts"));
        assert_eq!(a.unknown_flag("zz max-secs max-restarts"), None);
    }

    #[test]
    fn no_command_is_allowed() {
        let a = parse("--help").unwrap();
        assert_eq!(a.command, None);
        assert!(a.flag("help"));
    }
}
