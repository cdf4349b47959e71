//! Signal logging — time series captured by Scope/ToWorkspace sinks.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// A logged time series of one signal.
#[derive(Clone, Debug, Default)]
pub struct SignalLog {
    /// Sample times in seconds.
    pub t: Vec<f64>,
    /// Sample values.
    pub y: Vec<f64>,
}

impl SignalLog {
    /// New empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one sample.
    pub fn push(&mut self, t: f64, y: f64) {
        self.t.push(t);
        self.y.push(y);
    }

    /// Make room for `additional` more samples, so a run of known
    /// length appends without regrowing.
    pub fn reserve(&mut self, additional: usize) {
        self.t.reserve(additional);
        self.y.reserve(additional);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.t.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.t.is_empty()
    }

    /// Last value, if any.
    pub fn last(&self) -> Option<(f64, f64)> {
        match (self.t.last(), self.y.last()) {
            (Some(&t), Some(&y)) => Some((t, y)),
            _ => None,
        }
    }

    /// Linear interpolation at time `t` (clamped to the record range).
    pub fn sample_at(&self, t: f64) -> Option<f64> {
        if self.t.is_empty() {
            return None;
        }
        if t <= self.t[0] {
            return Some(self.y[0]);
        }
        if t >= *self.t.last().unwrap() {
            return Some(*self.y.last().unwrap());
        }
        let i = self.t.partition_point(|&x| x <= t);
        let (t0, t1) = (self.t[i - 1], self.t[i]);
        let (y0, y1) = (self.y[i - 1], self.y[i]);
        let a = if t1 > t0 { (t - t0) / (t1 - t0) } else { 0.0 };
        Some(y0 + a * (y1 - y0))
    }

    /// Root-mean-square difference against another log, resampling `other`
    /// at this log's time points — the PIL-vs-MIL deviation metric (E6).
    pub fn rms_diff(&self, other: &SignalLog) -> f64 {
        if self.is_empty() || other.is_empty() {
            return f64::NAN;
        }
        let mut sum = 0.0;
        let mut n = 0usize;
        for (&t, &y) in self.t.iter().zip(&self.y) {
            if let Some(o) = other.sample_at(t) {
                sum += (y - o) * (y - o);
                n += 1;
            }
        }
        if n == 0 {
            f64::NAN
        } else {
            (sum / n as f64).sqrt()
        }
    }

    /// Clear all samples.
    pub fn clear(&mut self) {
        self.t.clear();
        self.y.clear();
    }
}

/// A shareable handle to a log written by a Scope block and read by the
/// experiment harness after the run.
pub type SharedLog = Arc<Mutex<SignalLog>>;

/// Create a fresh shared log.
pub fn shared_log() -> SharedLog {
    Arc::new(Mutex::new(SignalLog::new()))
}

/// Lock `m`, ignoring poisoning, as the workspace's locks always have:
/// they guard logs, counters and caches, and a panic while holding one
/// already fails the run that panicked without making the value unsafe
/// for other threads to read.
pub fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp() -> SignalLog {
        let mut l = SignalLog::new();
        for i in 0..=10 {
            l.push(i as f64, 2.0 * i as f64);
        }
        l
    }

    #[test]
    fn push_and_last() {
        let l = ramp();
        assert_eq!(l.len(), 11);
        assert_eq!(l.last(), Some((10.0, 20.0)));
    }

    #[test]
    fn sample_at_interpolates() {
        let l = ramp();
        assert_eq!(l.sample_at(2.5), Some(5.0));
        assert_eq!(l.sample_at(-1.0), Some(0.0), "clamps left");
        assert_eq!(l.sample_at(99.0), Some(20.0), "clamps right");
        assert_eq!(SignalLog::new().sample_at(0.0), None);
    }

    #[test]
    fn rms_diff_of_identical_logs_is_zero() {
        let l = ramp();
        assert!(l.rms_diff(&ramp()) < 1e-12);
    }

    #[test]
    fn rms_diff_of_offset_logs() {
        let a = ramp();
        let mut b = SignalLog::new();
        for i in 0..=10 {
            b.push(i as f64, 2.0 * i as f64 + 1.0);
        }
        assert!((a.rms_diff(&b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rms_diff_empty_is_nan() {
        assert!(ramp().rms_diff(&SignalLog::new()).is_nan());
    }
}
