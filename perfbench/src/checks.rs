//! Output checks. A run fails when any of these does not hold:
//!
//! * its report digest equals that of the first run with the same seed;
//! * with a reference digest (the 1-worker run of a multi-worker
//!   workload), its digest equals the reference: reports must not
//!   depend on the worker count;
//! * its paper-outcome band holds ([`crate::workloads::paper_band`]).
//!
//! A run that did not complete at all is passed in as `None`.

/// Outcome of checking a set of runs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Verdict {
    /// Runs attempted.
    pub attempted: u64,
    /// Runs that failed a check (or did not complete).
    pub failed: u64,
    /// One line per failure.
    pub reasons: Vec<String>,
}

impl Verdict {
    /// Failed runs over attempted runs.
    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// What a check needs of one run: its digest and band verdict.
#[derive(Debug, Clone)]
pub struct Checked {
    /// Report digest.
    pub digest: u64,
    /// Paper-outcome band verdict.
    pub band: Result<(), String>,
}

/// Checks `runs` (all with the same seed) against the first completed
/// run and, when given, the worker-count reference digest.
pub fn check(runs: &[Option<Checked>], reference: Option<u64>) -> Verdict {
    let first = runs.iter().flatten().next().map(|r| r.digest);
    let mut v = Verdict::default();
    for (i, run) in runs.iter().enumerate() {
        v.attempted += 1;
        let why = match run {
            None => Some("did not complete".to_string()),
            Some(r) if Some(r.digest) != first => Some(format!(
                "digest {:016x} differs from the first run's {:016x}",
                r.digest,
                first.unwrap_or(0)
            )),
            Some(r) if reference.is_some_and(|d| d != r.digest) => Some(format!(
                "digest {:016x} differs from the 1-worker reference {:016x}",
                r.digest,
                reference.unwrap_or(0)
            )),
            Some(Checked { band: Err(e), .. }) => Some(format!("outside paper band: {e}")),
            Some(_) => None,
        };
        if let Some(why) = why {
            v.failed += 1;
            v.reasons.push(format!("run {i}: {why}"));
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok(digest: u64) -> Option<Checked> {
        Some(Checked {
            digest,
            band: Ok(()),
        })
    }

    #[test]
    fn identical_runs_pass() {
        let v = check(&[ok(7), ok(7), ok(7)], Some(7));
        assert_eq!((v.attempted, v.failed), (3, 0));
        assert_eq!(v.failed_share(), 0.0);
    }

    #[test]
    fn a_corrupted_digest_is_counted_as_failed() {
        let v = check(&[ok(7), ok(7 ^ 1), ok(7)], None);
        assert_eq!((v.attempted, v.failed), (3, 1));
        assert!(v.reasons[0].starts_with("run 1"));
    }

    #[test]
    fn a_worker_count_mismatch_fails_every_run() {
        let v = check(&[ok(7), ok(7)], Some(8));
        assert_eq!(v.failed, 2);
    }

    #[test]
    fn band_misses_and_incomplete_runs_fail() {
        let missed = Some(Checked {
            digest: 7,
            band: Err("retained 0.9".into()),
        });
        let v = check(&[ok(7), missed, None], None);
        assert_eq!((v.attempted, v.failed), (3, 2));
        assert!((v.failed_share() - 2.0 / 3.0).abs() < 1e-12);
    }
}
