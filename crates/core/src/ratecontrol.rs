//! Deduplication rate control (paper §4.4.2, evaluated in Fig. 14).
//!
//! The controller observes foreground IOPS over a sliding window and admits
//! background deduplication I/O at a ratio chosen by two watermarks:
//!
//! * above the high watermark — 1 dedup I/O per `high_ratio` (500)
//!   foreground I/Os;
//! * between the watermarks — 1 per `mid_ratio` (100);
//! * below the low watermark — unlimited.
//!
//! The controller keeps no window of its own. Each foreground op is marked
//! once, on the engine's `rate.foreground_ops` [`Meter`] (a 1 s window).
//! The controller reads that meter's rate to pick the band and its
//! lifetime total to fund admissions.

use dedup_obs::Meter;
use dedup_sim::{SimDuration, SimTime};

use crate::config::Watermarks;

/// Width of the window foreground IOPS are observed over.
pub(crate) const WINDOW: SimDuration = SimDuration::from_secs(1);

/// Admission decision state for background deduplication I/O.
#[derive(Debug)]
pub struct RateController {
    watermarks: Watermarks,
    foreground: Meter,
    /// Foreground ops already spent on admissions: the budget is the
    /// meter's total minus this.
    spent: u64,
    dedup_admitted: u64,
    dedup_denied: u64,
}

impl RateController {
    /// Creates a controller that reads foreground I/O from `foreground`,
    /// a meter marked once per completed foreground op.
    pub fn new(watermarks: Watermarks, foreground: Meter) -> Self {
        RateController {
            watermarks,
            foreground,
            spent: 0,
            dedup_admitted: 0,
            dedup_denied: 0,
        }
    }

    /// The foreground I/Os currently required between dedup I/Os, or `None`
    /// for unlimited (below the low watermark).
    pub fn required_ratio(&self, now: SimTime) -> Option<u64> {
        match self.watermarks.band(self.foreground.rate(now)) {
            0 => None,
            1 => Some(self.watermarks.mid_ratio),
            _ => Some(self.watermarks.high_ratio),
        }
    }

    /// Asks to admit one background dedup I/O at `now`. Admission consumes
    /// `ratio` foreground I/Os of accumulated budget, so `N` accumulated
    /// foreground ops fund `⌊N / ratio⌋` back-to-back admissions — the
    /// 1-per-`ratio` pacing the paper's throttle describes. (Resetting the
    /// budget to zero on admission would forfeit the remainder and admit
    /// only once per accumulation burst.) Below the low watermark
    /// admission is unlimited and the budget is left untouched.
    pub fn admit_dedup(&mut self, now: SimTime) -> bool {
        match self.required_ratio(now) {
            None => {
                self.dedup_admitted += 1;
                true
            }
            Some(ratio) => {
                if self.foreground.total() - self.spent >= ratio {
                    self.spent += ratio;
                    self.dedup_admitted += 1;
                    true
                } else {
                    self.dedup_denied += 1;
                    false
                }
            }
        }
    }

    /// (admitted, denied) dedup admission counts.
    pub fn admission_counts(&self) -> (u64, u64) {
        (self.dedup_admitted, self.dedup_denied)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dedup_obs::Registry;

    fn marks() -> Watermarks {
        Watermarks {
            low_iops: 100.0,
            high_iops: 1_000.0,
            mid_ratio: 10,
            high_ratio: 50,
        }
    }

    /// A controller and the meter it reads.
    fn controller() -> (RateController, Meter) {
        let fg = Registry::new().meter("rate.foreground_ops", WINDOW);
        (RateController::new(marks(), fg.clone()), fg)
    }

    fn load(fg: &Meter, ops: u64, start: SimTime, spacing: SimDuration) -> SimTime {
        let mut t = start;
        for _ in 0..ops {
            fg.mark(t, 1);
            t += spacing;
        }
        t
    }

    #[test]
    fn idle_system_is_unlimited() {
        let (mut rc, _) = controller();
        let now = SimTime::from_secs(5);
        assert_eq!(rc.required_ratio(now), None);
        assert!(rc.admit_dedup(now));
        assert!(rc.admit_dedup(now));
    }

    #[test]
    fn mid_load_uses_mid_ratio() {
        let (rc, fg) = controller();
        // ~500 IOPS: between watermarks.
        let now = load(&fg, 500, SimTime::ZERO, SimDuration::from_millis(2));
        assert_eq!(rc.required_ratio(now), Some(10));
    }

    #[test]
    fn high_load_uses_high_ratio() {
        let (rc, fg) = controller();
        // ~5000 IOPS: above high watermark.
        let now = load(&fg, 5_000, SimTime::ZERO, SimDuration::from_micros(200));
        assert_eq!(rc.required_ratio(now), Some(50));
    }

    #[test]
    fn admission_consumes_budget() {
        let (mut rc, fg) = controller();
        let now = load(&fg, 500, SimTime::ZERO, SimDuration::from_millis(2));
        // 500 foreground ops accumulated at ratio 10: each admission
        // subtracts 10, so exactly ⌊500/10⌋ = 50 admissions fit before the
        // budget runs dry.
        for i in 0..50 {
            assert!(rc.admit_dedup(now), "admission {i} within budget");
        }
        assert!(!rc.admit_dedup(now));
        // 10 more foreground ops refill exactly one admission.
        let now = load(&fg, 10, now, SimDuration::from_millis(2));
        assert!(rc.admit_dedup(now));
        assert!(!rc.admit_dedup(now));
    }

    #[test]
    fn iops_exactly_at_low_watermark_is_throttled() {
        let (rc, fg) = controller();
        // Exactly 100 events inside the 1-second window ending at t=1s:
        // rate_per_sec == low_iops == 100.0 precisely (no float error —
        // both are small integers). The strict `<` comparison puts this
        // on the throttled side.
        load(
            &fg,
            100,
            SimTime::from_nanos(1),
            SimDuration::from_millis(1),
        );
        let at = SimTime::from_secs(1);
        assert_eq!(fg.rate(at), marks().low_iops);
        assert_eq!(rc.required_ratio(at), Some(marks().mid_ratio));
    }

    #[test]
    fn iops_exactly_at_high_watermark_uses_high_ratio() {
        let (rc, fg) = controller();
        // Exactly 1000 events in the window: rate == high_iops == 1000.0.
        load(
            &fg,
            1_000,
            SimTime::from_nanos(1),
            SimDuration::from_micros(100),
        );
        let at = SimTime::from_secs(1);
        assert_eq!(fg.rate(at), marks().high_iops);
        assert_eq!(rc.required_ratio(at), Some(marks().high_ratio));
    }

    #[test]
    fn just_below_low_watermark_is_unlimited() {
        let (rc, fg) = controller();
        // 99 events in-window: strictly below the low watermark.
        load(&fg, 99, SimTime::from_nanos(1), SimDuration::from_millis(1));
        let at = SimTime::from_secs(1);
        assert!(fg.rate(at) < marks().low_iops);
        assert_eq!(rc.required_ratio(at), None);
    }

    #[test]
    fn load_decay_restores_unlimited() {
        let (rc, fg) = controller();
        let now = load(&fg, 5_000, SimTime::ZERO, SimDuration::from_micros(200));
        assert!(rc.required_ratio(now).is_some());
        // Two idle seconds later the window is empty.
        let later = now + SimDuration::from_secs(2);
        assert_eq!(rc.required_ratio(later), None);
    }

    #[test]
    fn counters_track_decisions() {
        let (mut rc, fg) = controller();
        let now = load(&fg, 500, SimTime::ZERO, SimDuration::from_millis(2));
        // Budget 500 at ratio 10 funds 50 admissions; two more attempts
        // are denied.
        for _ in 0..52 {
            let _ = rc.admit_dedup(now);
        }
        let (ok, denied) = rc.admission_counts();
        assert_eq!(ok, 50);
        assert_eq!(denied, 2);
    }
}
