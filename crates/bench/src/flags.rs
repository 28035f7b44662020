//! The command-line flags of the paper binaries (`table1`, `fig5`, `fig6`,
//! `summary`), parsed in one place.
//!
//! A flag a binary does not take, a value that does not parse, or a
//! non-positive count or time limit is an error: a run that silently fell
//! back to a default would regenerate a different experiment than the one
//! asked for.

use std::time::Duration;

use crate::suite::Scale;

/// The flags given to a paper binary.  An absent flag is `false`/`None`;
/// each binary applies its own defaults.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PaperFlags {
    /// `--full`: the paper-sized circuits and key widths.
    pub full: bool,
    /// `--circuits N`: run the first `N` Table I circuits.
    pub circuits: Option<usize>,
    /// `--timeout SECS`: the time limit of each attack, in (fractional)
    /// seconds.
    pub timeout: Option<Duration>,
    /// `--skip-sat`: leave out the SAT-attack runs.
    pub skip_sat: bool,
}

impl PaperFlags {
    /// Parses `args` (the command line without the program name), accepting
    /// only the flags named in `accepted`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending argument when a flag is not
    /// in `accepted`, lacks its value, or has a value that is unparsable,
    /// non-finite or not positive.
    pub fn parse<S: AsRef<str>>(args: &[S], accepted: &[&str]) -> Result<PaperFlags, String> {
        let mut flags = PaperFlags::default();
        let mut args = args.iter().map(AsRef::as_ref);
        while let Some(flag) = args.next() {
            if !accepted.contains(&flag) {
                return Err(format!("unknown argument `{flag}`"));
            }
            let mut value = || args.next().ok_or_else(|| format!("`{flag}` needs a value"));
            match flag {
                "--full" => flags.full = true,
                "--skip-sat" => flags.skip_sat = true,
                "--circuits" => {
                    let value = value()?;
                    let circuits = value.parse().ok().filter(|&n: &usize| n > 0);
                    flags.circuits = Some(circuits.ok_or_else(|| {
                        format!("`--circuits` needs a positive integer, got `{value}`")
                    })?);
                }
                "--timeout" => {
                    let value = value()?;
                    let timeout = value
                        .parse()
                        .ok()
                        .and_then(|secs| Duration::try_from_secs_f64(secs).ok())
                        .filter(|timeout| !timeout.is_zero());
                    flags.timeout = Some(timeout.ok_or_else(|| {
                        format!("`--timeout` needs a positive number of seconds, got `{value}`")
                    })?);
                }
                _ => return Err(format!("unknown argument `{flag}`")),
            }
        }
        Ok(flags)
    }

    /// Parses the process's command line like [`PaperFlags::parse`]; on an
    /// error, prints it with the accepted flags and exits with status 2.
    pub fn from_env(accepted: &[&str]) -> PaperFlags {
        let args: Vec<String> = std::env::args().skip(1).collect();
        PaperFlags::parse(&args, accepted).unwrap_or_else(|message| {
            eprintln!("error: {message} (accepted: {})", accepted.join(" "));
            std::process::exit(2)
        })
    }

    /// The circuit scale `--full` selects.
    pub fn scale(&self) -> Scale {
        if self.full {
            Scale::Paper
        } else {
            Scale::Scaled
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: &[&str] = &["--full", "--circuits", "--timeout", "--skip-sat"];

    #[test]
    fn good_values_are_parsed() {
        let flags = PaperFlags::parse(&["--circuits", "3", "--timeout", "2", "--full"], ALL);
        assert_eq!(
            flags,
            Ok(PaperFlags {
                full: true,
                circuits: Some(3),
                timeout: Some(Duration::from_secs(2)),
                skip_sat: false,
            })
        );
    }

    #[test]
    fn missing_flags_are_left_to_the_binary() {
        assert_eq!(
            PaperFlags::parse::<&str>(&[], ALL),
            Ok(PaperFlags::default())
        );
        assert_eq!(PaperFlags::default().scale(), Scale::Scaled);
    }

    #[test]
    fn fractional_timeouts_are_seconds() {
        let flags = PaperFlags::parse(&["--timeout", "0.5"], ALL).expect("parses");
        assert_eq!(flags.timeout, Some(Duration::from_millis(500)));
    }

    #[test]
    fn garbage_values_are_rejected() {
        for args in [
            ["--circuits", "abc"],
            ["--circuits", "1.5"],
            ["--timeout", "abc"],
            ["--timeout", "inf"],
            ["--timeout", "NaN"],
        ] {
            let error = PaperFlags::parse(&args, ALL).expect_err("rejected");
            assert!(error.contains(args[1]), "{error}");
        }
        assert!(PaperFlags::parse(&["--circuits"], ALL).is_err());
    }

    #[test]
    fn non_positive_values_are_rejected() {
        for args in [
            ["--timeout", "-1"],
            ["--timeout", "0"],
            ["--circuits", "0"],
            ["--circuits", "-2"],
        ] {
            assert!(PaperFlags::parse(&args, ALL).is_err(), "{args:?}");
        }
    }

    #[test]
    fn unknown_and_unaccepted_flags_are_rejected() {
        let error = PaperFlags::parse(&["--timout", "1"], ALL).expect_err("rejected");
        assert!(error.contains("--timout"), "{error}");
        assert!(PaperFlags::parse(&["--timeout", "1"], &["--full", "--circuits"]).is_err());
        assert!(PaperFlags::parse(&["extra"], ALL).is_err());
    }
}
