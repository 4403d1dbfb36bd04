//! Interval time-series sampling: phase-resolved bus utilization, hit
//! rate, and outstanding lock-waiters.
//!
//! The simulator feeds the sampler *spans* in absolute cycles — "the bus
//! was busy from cycle `s` for `len` cycles", "cache 2 waited on a lock
//! from `s` for `len` cycles" — plus point references. Spans are split
//! across window boundaries, so an event-driven engine that skips from
//! cycle 900 to cycle 3_100 in one step attributes the covered busy time
//! to windows 0, 1, 2 and 3 exactly as a cycle-by-cycle engine would.
//! That makes the per-window integrals engine-mode invariant, which the
//! equivalence suite pins.

use std::fmt::Write as _;

/// Default sampling window, in cycles.
pub const DEFAULT_WINDOW: u64 = 1_000;

/// Accumulated integrals for one sampling window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Window {
    /// Cycles the bus spent busy inside this window.
    pub bus_busy: u64,
    /// Processor references issued in this window.
    pub refs: u64,
    /// Of those, cache hits.
    pub hits: u64,
    /// Lock-waiter-cycles: sum over waiters of cycles spent waiting inside
    /// this window (2 waiters for the whole window ⇒ `2 * window_cycles`).
    pub waiter_cycles: u64,
}

impl Window {
    /// Hit rate among references in this window, or `None` when idle.
    pub fn hit_rate(&self) -> Option<f64> {
        (self.refs > 0).then(|| self.hits as f64 / self.refs as f64)
    }
}

/// Fixed-window time-series sampler.
///
/// Windows are `[k*w, (k+1)*w)` for window size `w`. Storage grows with
/// the highest cycle touched, not with event count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntervalSampler {
    window: u64,
    windows: Vec<Window>,
}

impl IntervalSampler {
    /// A sampler with the given window size (clamped to ≥ 1).
    pub fn new(window_cycles: u64) -> Self {
        IntervalSampler { window: window_cycles.max(1), windows: Vec::new() }
    }

    /// The window size in cycles.
    pub fn window_cycles(&self) -> u64 {
        self.window
    }

    /// The windows touched so far (trailing windows may be partial).
    pub fn windows(&self) -> &[Window] {
        &self.windows
    }

    fn window_mut(&mut self, index: usize) -> &mut Window {
        if self.windows.len() <= index {
            self.windows.resize(index + 1, Window::default());
        }
        &mut self.windows[index]
    }

    /// Records one processor reference at `cycle`.
    pub fn add_ref(&mut self, cycle: u64, hit: bool) {
        let w = self.window_mut((cycle / self.window) as usize);
        w.refs += 1;
        if hit {
            w.hits += 1;
        }
    }

    /// Attributes `len` busy bus cycles starting at `start`, splitting
    /// across window boundaries.
    pub fn add_bus_span(&mut self, start: u64, len: u64) {
        self.add_span(start, len, |w, part| w.bus_busy += part);
    }

    /// Attributes `len` cycles of one lock-waiter waiting from `start`.
    /// Call once per waiter; overlapping waiters accumulate.
    pub fn add_waiter_span(&mut self, start: u64, len: u64) {
        self.add_span(start, len, |w, part| w.waiter_cycles += part);
    }

    fn add_span(&mut self, start: u64, len: u64, mut add: impl FnMut(&mut Window, u64)) {
        let mut cursor = start;
        let end = start.saturating_add(len);
        while cursor < end {
            let index = cursor / self.window;
            let window_end = (index + 1).saturating_mul(self.window);
            let part = end.min(window_end) - cursor;
            add(self.window_mut(index as usize), part);
            cursor += part;
        }
    }

    /// Exports the series as a JSON object.
    ///
    /// `end_cycle` (the run's final cycle) sizes the last window so
    /// utilization rates stay honest for a partial trailing window.
    pub fn to_json(&self, end_cycle: u64) -> String {
        let mut out = String::with_capacity(64 + self.windows.len() * 96);
        let _ = write!(out, "{{\"window_cycles\":{},\"windows\":[", self.window);
        for (i, w) in self.windows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let start = i as u64 * self.window;
            let span = end_cycle.saturating_sub(start).min(self.window).max(1);
            let _ = write!(
                out,
                "{{\"start\":{start},\"bus_busy\":{},\"refs\":{},\"hits\":{},\"waiter_cycles\":{},\"bus_util\":{},\"avg_waiters\":{}}}",
                w.bus_busy,
                w.refs,
                w.hits,
                w.waiter_cycles,
                fmt_ratio(w.bus_busy, span),
                fmt_ratio(w.waiter_cycles, span),
            );
        }
        out.push_str("]}");
        out
    }
}

impl Default for IntervalSampler {
    fn default() -> Self {
        Self::new(DEFAULT_WINDOW)
    }
}

/// Formats `num/den` with fixed 4-decimal precision so JSON output is
/// byte-stable across platforms (no shortest-float formatting).
fn fmt_ratio(num: u64, den: u64) -> String {
    if den == 0 {
        return "0.0000".to_string();
    }
    // Round half-up in integer arithmetic to avoid float nondeterminism.
    let scaled = (num as u128 * 10_000 + den as u128 / 2) / den as u128;
    format!("{}.{:04}", scaled / 10_000, scaled % 10_000)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate_line;

    #[test]
    fn refs_land_in_their_window() {
        let mut s = IntervalSampler::new(100);
        s.add_ref(0, true);
        s.add_ref(99, false);
        s.add_ref(100, true);
        s.add_ref(250, true);
        assert_eq!(s.windows().len(), 3);
        assert_eq!(s.windows()[0], Window { refs: 2, hits: 1, ..Default::default() });
        assert_eq!(s.windows()[1], Window { refs: 1, hits: 1, ..Default::default() });
        assert_eq!(s.windows()[2], Window { refs: 1, hits: 1, ..Default::default() });
        assert_eq!(s.windows()[0].hit_rate(), Some(0.5));
        assert_eq!(Window::default().hit_rate(), None);
    }

    #[test]
    fn spans_split_across_window_boundaries() {
        let mut s = IntervalSampler::new(100);
        // 90..=309: 10 cycles in window 0, 100 in window 1, 100 in window 2,
        // 10 in window 3.
        s.add_bus_span(90, 220);
        let busy: Vec<u64> = s.windows().iter().map(|w| w.bus_busy).collect();
        assert_eq!(busy, vec![10, 100, 100, 10]);
        assert_eq!(busy.iter().sum::<u64>(), 220);
    }

    #[test]
    fn split_spans_equal_cycle_by_cycle_attribution() {
        // The engine-equivalence property in miniature: one big skipped span
        // must attribute identically to per-cycle increments.
        let (start, len, window) = (37, 415, 64);
        let mut skipping = IntervalSampler::new(window);
        skipping.add_waiter_span(start, len);
        let mut stepping = IntervalSampler::new(window);
        for c in start..start + len {
            stepping.add_waiter_span(c, 1);
        }
        assert_eq!(skipping, stepping);
    }

    #[test]
    fn overlapping_waiters_accumulate() {
        let mut s = IntervalSampler::new(100);
        s.add_waiter_span(0, 100);
        s.add_waiter_span(50, 100);
        assert_eq!(s.windows()[0].waiter_cycles, 150);
        assert_eq!(s.windows()[1].waiter_cycles, 50);
    }

    #[test]
    fn cut_spans_in_any_order_equal_the_whole_span() {
        // What per-phase crediting relies on: a waiter's span cut at phase
        // boundaries and reported out of order attributes exactly like the
        // uncut span.
        let (start, window) = (730, 256);
        let cuts = [730, 731, 900, 1024, 1025, 1400, 1641];
        let mut whole = IntervalSampler::new(window);
        whole.add_waiter_span(start, 1641 - start);
        let mut pieces = IntervalSampler::new(window);
        for pair in cuts.windows(2).rev() {
            pieces.add_waiter_span(pair[0], pair[1] - pair[0]);
        }
        assert_eq!(whole, pieces);
    }

    #[test]
    fn zero_length_spans_are_noops() {
        let mut s = IntervalSampler::new(100);
        s.add_bus_span(42, 0);
        assert!(s.windows().is_empty());
    }

    #[test]
    fn json_export_is_valid_and_stable() {
        let mut s = IntervalSampler::new(100);
        s.add_ref(5, true);
        s.add_bus_span(90, 30);
        s.add_waiter_span(0, 150);
        let json = s.to_json(150);
        validate_line(&json).unwrap_or_else(|e| panic!("{json}: {e}"));
        // Window 0 is full (100 cycles): bus 10/100, waiters 100/100.
        assert!(json.contains("\"bus_util\":0.1000"), "{json}");
        assert!(json.contains("\"avg_waiters\":1.0000"), "{json}");
        // Window 1 is partial (50 cycles): bus 20/50, waiters 50/50.
        assert!(json.contains("\"bus_util\":0.4000"), "{json}");
        assert_eq!(json, s.to_json(150), "export must be deterministic");
    }

    #[test]
    fn ratio_formatting_is_fixed_point() {
        assert_eq!(fmt_ratio(1, 3), "0.3333");
        assert_eq!(fmt_ratio(2, 3), "0.6667");
        assert_eq!(fmt_ratio(5, 4), "1.2500");
        assert_eq!(fmt_ratio(0, 7), "0.0000");
        assert_eq!(fmt_ratio(7, 0), "0.0000");
    }
}
