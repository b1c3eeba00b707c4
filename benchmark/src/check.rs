//! Output checks. A job the program refused, failed, timed out on or
//! answered with the wrong simulated result is a failed job; a check that
//! belongs to no single job (`workers=2` equal to serial, say) is a
//! violation. Either makes the run incorrect and its exit code non-zero.

use ra_cosim::RunResult;
use ra_serve::proto::ResultBody;

/// The simulated outcome of a job, compared bit for bit: a change meant
/// only to speed the simulator up must leave every one of these alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    pub cycles: u64,
    pub messages: u64,
    pub latency_mean_bits: u64,
}

impl Fingerprint {
    pub fn of_run(result: &RunResult) -> Fingerprint {
        Fingerprint {
            cycles: result.cycles,
            messages: result.messages,
            latency_mean_bits: result.latency.mean().to_bits(),
        }
    }

    pub fn of_body(body: &ResultBody) -> Fingerprint {
        Fingerprint {
            cycles: body.cycles,
            messages: body.messages,
            latency_mean_bits: body.latency_mean.to_bits(),
        }
    }
}

/// Jobs attempted and failed, and violated run-level checks.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few reasons, for the report; the counts are complete.
    pub reasons: Vec<String>,
    pub violations: u64,
}

const REASONS_KEPT: usize = 8;

impl Tally {
    pub fn job_ok(&mut self) {
        self.attempted += 1;
    }

    pub fn job_failed(&mut self, why: impl Into<String>) {
        self.attempted += 1;
        self.failed += 1;
        self.note(why.into());
    }

    /// Counts one job: failed unless `got` is the expected fingerprint.
    pub fn job_matches(&mut self, what: &str, got: Fingerprint, want: Fingerprint) {
        if got == want {
            self.job_ok();
        } else {
            self.job_failed(format!("{what}: got {got:?}, want {want:?}"));
        }
    }

    /// A run-level check that is not a job of the measured phase.
    pub fn require_same(&mut self, what: &str, got: Fingerprint, want: Fingerprint) {
        if got != want {
            self.violation(format!("{what}: got {got:?}, want {want:?}"));
        }
    }

    pub fn violation(&mut self, why: impl Into<String>) {
        self.violations += 1;
        self.note(why.into());
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.violations += other.violations;
        for reason in other.reasons {
            self.note(reason);
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations == 0
    }

    /// The process exit code for a run with this tally.
    pub fn exit_code(&self) -> i32 {
        i32::from(!self.correct())
    }

    fn note(&mut self, reason: String) {
        if self.reasons.len() < REASONS_KEPT {
            self.reasons.push(reason);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(cycles: u64) -> Fingerprint {
        Fingerprint {
            cycles,
            messages: 64_410,
            latency_mean_bits: 69.1324f64.to_bits(),
        }
    }

    #[test]
    fn forged_mismatch_fails_the_job_and_the_run() {
        let mut tally = Tally::default();
        tally.job_matches("job 0", fp(15_364), fp(15_364));
        assert!(tally.correct());
        assert_eq!(tally.exit_code(), 0);

        // One cycle off: the job counts as failed and the run exits 1.
        tally.job_matches("job 1", fp(15_365), fp(15_364));
        assert_eq!((tally.attempted, tally.failed), (2, 1));
        assert!(!tally.correct());
        assert_eq!(tally.exit_code(), 1);
        assert!(tally.reasons[0].contains("job 1"));
    }

    #[test]
    fn a_mean_latency_differing_in_its_last_bit_is_a_mismatch() {
        let mut forged = fp(1);
        forged.latency_mean_bits += 1;
        let mut tally = Tally::default();
        tally.require_same("workers=2 against serial", forged, fp(1));
        assert_eq!((tally.attempted, tally.failed, tally.violations), (0, 0, 1));
        assert_eq!(tally.exit_code(), 1);
    }

    #[test]
    fn merge_adds_counts_and_bounds_the_reasons() {
        let mut a = Tally::default();
        for i in 0..20 {
            a.job_failed(format!("refused {i}"));
        }
        let mut b = Tally::default();
        b.job_ok();
        b.merge(a);
        assert_eq!((b.attempted, b.failed), (21, 20));
        assert_eq!(b.reasons.len(), REASONS_KEPT);
    }
}
