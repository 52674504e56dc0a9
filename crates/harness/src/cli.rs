//! Strict command-line parsing shared by the four harness binaries, each
//! of which includes this file with `#[path = "../cli.rs"] mod cli;`.
//! A typo must not fall through to a default: `chaos --smok` would
//! otherwise run the full multi-minute sweep.

// Every binary uses a different subset of the accessors.
#![allow(dead_code)]

/// Print why the command line was rejected, then the usage; exit 2.
pub(crate) fn usage_exit(usage: &str, why: &str) -> ! {
    eprintln!("error: {why}\n\nusage: {usage}");
    std::process::exit(2)
}

/// A parsed command line: at most one subcommand, the boolean flags that
/// were given, and the `--name N` options with their parsed values.
#[derive(Debug, Default, PartialEq, Eq)]
pub(crate) struct Cli {
    pub(crate) command: Option<String>,
    flags: Vec<String>,
    values: Vec<(String, u64)>,
}

impl Cli {
    /// Parse the process arguments. Anything that is not one subcommand
    /// out of `commands`, one of `flags`, or one of `valued` followed by
    /// an unsigned integer prints `usage` and exits 2.
    pub(crate) fn parse(usage: &str, commands: &[&str], flags: &[&str], valued: &[&str]) -> Cli {
        Cli::parse_from(std::env::args().skip(1), commands, flags, valued)
            .unwrap_or_else(|why| usage_exit(usage, &why))
    }

    pub(crate) fn parse_from(
        args: impl IntoIterator<Item = String>,
        commands: &[&str],
        flags: &[&str],
        valued: &[&str],
    ) -> Result<Cli, String> {
        let mut cli = Cli::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            if valued.contains(&arg.as_str()) {
                let value = args.next().ok_or_else(|| format!("{arg} needs a value"))?;
                let n = value.parse().map_err(|_| format!("{arg} {value}: not a number"))?;
                cli.values.push((arg, n));
            } else if flags.contains(&arg.as_str()) {
                cli.flags.push(arg);
            } else if commands.contains(&arg.as_str()) && cli.command.is_none() {
                cli.command = Some(arg);
            } else {
                return Err(format!("unexpected argument `{arg}`"));
            }
        }
        Ok(cli)
    }

    pub(crate) fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|f| f == flag)
    }

    /// The value of `--name N`, if given (the last one wins).
    pub(crate) fn value(&self, name: &str) -> Option<u64> {
        self.values.iter().rev().find(|(n, _)| n == name).map(|&(_, v)| v)
    }
}
