//! The one command-line scanner behind every workspace binary.
//!
//! A binary's parse function walks an [`Args`] with a `match` over its
//! flags, reads values with [`Args::value`] or [`Args::parse`], and
//! returns `Result<_, Usage>`. Only `main` exits, through [`or_exit`]:
//! `--help` / `-h` prints the usage text to stdout and exits 0; a
//! missing or malformed value, an unknown flag or a missing required
//! flag prints the reason and the usage text to stderr and exits 2.

use std::str::FromStr;

/// Why parsing stopped short of a result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Usage {
    /// `--help` / `-h`: print the usage text and succeed.
    Help,
    /// A bad command line; the message says why (empty: usage alone).
    Error(String),
}

impl Usage {
    /// The error for a token no flag matched: `--help` and `-h` ask for
    /// usage, anything else is an unknown argument.
    pub fn unknown(token: &str) -> Usage {
        match token {
            "--help" | "-h" => Usage::Help,
            _ => Usage::Error(format!("unknown argument `{token}`")),
        }
    }
}

impl From<String> for Usage {
    fn from(msg: String) -> Self {
        Usage::Error(msg)
    }
}

impl From<&str> for Usage {
    fn from(msg: &str) -> Self {
        Usage::Error(msg.to_string())
    }
}

/// A command line, scanned front to back; iterating yields its tokens.
#[derive(Debug)]
pub struct Args(std::vec::IntoIter<String>);

impl Args {
    /// This process's arguments, without the program name.
    pub fn from_env() -> Args {
        Args::new(std::env::args().skip(1))
    }

    /// Scans `tokens` (a subcommand's tail, or a test's command line).
    pub fn new(tokens: impl IntoIterator<Item = impl Into<String>>) -> Args {
        Args(
            tokens
                .into_iter()
                .map(Into::into)
                .collect::<Vec<_>>()
                .into_iter(),
        )
    }

    /// The value after `flag`: the next token, whatever it is.
    pub fn value(&mut self, flag: &str) -> Result<String, Usage> {
        self.next()
            .ok_or_else(|| Usage::Error(format!("{flag} needs a value")))
    }

    /// The value after `flag`, parsed as a `T`.
    pub fn parse<T: FromStr>(&mut self, flag: &str) -> Result<T, Usage> {
        let v = self.value(flag)?;
        v.parse()
            .map_err(|_| Usage::Error(format!("{flag}: cannot parse `{v}`")))
    }
}

impl Iterator for Args {
    type Item = String;

    fn next(&mut self) -> Option<String> {
        self.0.next()
    }
}

/// Unwraps a parse result in `main`: [`Usage::Help`] prints `usage` to
/// stdout and exits 0; [`Usage::Error`] prints its message and `usage`
/// to stderr and exits 2.
pub fn or_exit<T>(parsed: Result<T, Usage>, usage: &str) -> T {
    match parsed {
        Ok(v) => v,
        Err(Usage::Help) => {
            println!("{usage}");
            std::process::exit(0)
        }
        Err(Usage::Error(msg)) => {
            if !msg.is_empty() {
                eprintln!("{msg}");
            }
            fail(usage)
        }
    }
}

/// Prints `msg` to stderr and exits 2: the exit for a command line or
/// an output path (an unwritable `--metrics`) the program cannot use.
pub fn fail(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn jobs_and_quick(mut args: Args) -> Result<(usize, bool), Usage> {
        let (mut jobs, mut quick) = (0, false);
        while let Some(flag) = args.next() {
            match flag.as_str() {
                "--jobs" => jobs = args.parse(&flag)?,
                "--quick" => quick = true,
                other => return Err(Usage::unknown(other)),
            }
        }
        Ok((jobs, quick))
    }

    #[test]
    fn flags_and_values_scan_in_order() {
        assert_eq!(
            jobs_and_quick(Args::new(Vec::<String>::new())),
            Ok((0, false))
        );
        assert_eq!(
            jobs_and_quick(Args::new(["--quick", "--jobs", "3"])),
            Ok((3, true))
        );
    }

    #[test]
    fn missing_value_is_an_error() {
        assert_eq!(
            jobs_and_quick(Args::new(["--jobs"])),
            Err(Usage::Error("--jobs needs a value".into()))
        );
    }

    #[test]
    fn non_numeric_value_is_an_error() {
        assert_eq!(
            jobs_and_quick(Args::new(["--jobs", "many"])),
            Err(Usage::Error("--jobs: cannot parse `many`".into()))
        );
        assert!(jobs_and_quick(Args::new(["--jobs", "-1"])).is_err());
    }

    #[test]
    fn unknown_flag_is_an_error() {
        assert_eq!(
            jobs_and_quick(Args::new(["--frobnicate"])),
            Err(Usage::Error("unknown argument `--frobnicate`".into()))
        );
    }

    #[test]
    fn help_asks_for_usage() {
        assert_eq!(jobs_and_quick(Args::new(["--help"])), Err(Usage::Help));
        assert_eq!(jobs_and_quick(Args::new(["-h"])), Err(Usage::Help));
        // Earlier errors win: the scan stops at the first bad token.
        assert!(matches!(
            jobs_and_quick(Args::new(["--jobs", "x", "--help"])),
            Err(Usage::Error(_))
        ));
    }

    #[test]
    fn a_value_is_the_next_token_whatever_it_is() {
        let mut args = Args::new(["--filter", "--quick"]);
        args.next();
        assert_eq!(args.value("--filter"), Ok("--quick".to_string()));
        assert_eq!(args.next(), None);
    }
}
