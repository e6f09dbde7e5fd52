//! Simulation time: cycles, nanoseconds, and exact conversions.
//!
//! The simulator's base unit of time is the **machine cycle** of the node's
//! base clock (the invariant TSC rate). The paper's scheduler API works in
//! **nanoseconds stored in 64-bit integers** (§3.3), so conversions between
//! the two appear on every hot path. Conversions use 128-bit intermediates
//! and are exact up to the stated rounding direction; a 64-bit nanosecond
//! counter does not overflow for the lifetime of a machine (the paper makes
//! the same observation). A result past `u64::MAX` saturates there rather
//! than wrapping, so an out-of-range span reads as "forever" and trips the
//! simulator's time-overflow checks instead of aliasing a short one.

/// A point in (or span of) simulation time measured in machine cycles.
pub type Cycles = u64;

/// A span of time in nanoseconds, as used by the scheduler-facing API.
pub type Nanos = u64;

/// A fixed clock frequency used to convert between cycles and nanoseconds.
///
/// Frequencies are stored in kHz so that common HPC clocks (e.g. the Xeon
/// Phi 7210's 1.3 GHz) are represented exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Freq {
    khz: u64,
}

impl Freq {
    /// A frequency from a kHz count. Panics on zero: a zero-frequency clock
    /// cannot measure time.
    pub fn from_khz(khz: u64) -> Self {
        assert!(khz > 0, "clock frequency must be nonzero");
        Freq { khz }
    }

    /// A frequency from a MHz count.
    pub fn from_mhz(mhz: u64) -> Self {
        Self::from_khz(mhz * 1000)
    }

    /// The Xeon Phi 7210 (KNL) clock used in the paper's main testbed.
    pub fn phi() -> Self {
        Self::from_mhz(1300)
    }

    /// The AMD Opteron 4122 clock of the paper's Dell R415 testbed.
    pub fn r415() -> Self {
        Self::from_mhz(2200)
    }

    /// Frequency in kHz.
    pub fn khz(&self) -> u64 {
        self.khz
    }

    /// Frequency in MHz, rounded down.
    pub fn mhz(&self) -> u64 {
        self.khz / 1000
    }

    /// Convert a cycle count to nanoseconds, rounding down.
    ///
    /// `ns = cycles * 1e6 / khz`, computed in 128-bit arithmetic and
    /// saturating at `u64::MAX` (reachable only below 1 GHz).
    pub fn cycles_to_ns(&self, cycles: Cycles) -> Nanos {
        saturate((cycles as u128) * 1_000_000 / self.khz as u128)
    }

    /// Convert nanoseconds to a cycle count, rounding down and saturating
    /// at `u64::MAX`.
    pub fn ns_to_cycles(&self, ns: Nanos) -> Cycles {
        saturate((ns as u128) * self.khz as u128 / 1_000_000)
    }

    /// Convert nanoseconds to a cycle count, rounding up.
    ///
    /// Used where a *conservative* (never-late) duration is required, e.g.
    /// for slice budgets. Saturates at `u64::MAX`.
    pub fn ns_to_cycles_ceil(&self, ns: Nanos) -> Cycles {
        saturate(((ns as u128) * self.khz as u128).div_ceil(1_000_000))
    }

    /// Convert microseconds to cycles, rounding down.
    pub fn us_to_cycles(&self, us: u64) -> Cycles {
        self.ns_to_cycles(us * 1000)
    }
}

/// Narrow a 128-bit conversion result, clamping at `u64::MAX`.
#[inline]
fn saturate(x: u128) -> u64 {
    u64::try_from(x).unwrap_or(u64::MAX)
}

/// Convenience constructors for nanosecond quantities.
pub const fn us(n: u64) -> Nanos {
    n * 1_000
}

/// Milliseconds to nanoseconds.
pub const fn ms(n: u64) -> Nanos {
    n * 1_000_000
}

/// Seconds to nanoseconds.
pub const fn secs(n: u64) -> Nanos {
    n * 1_000_000_000
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phi_frequency_is_exact() {
        assert_eq!(Freq::phi().khz(), 1_300_000);
        assert_eq!(Freq::phi().mhz(), 1300);
    }

    #[test]
    fn cycles_ns_round_trip_at_phi() {
        let f = Freq::phi();
        // 1.3 cycles per ns: 13_000 cycles == 10_000 ns exactly.
        assert_eq!(f.cycles_to_ns(13_000), 10_000);
        assert_eq!(f.ns_to_cycles(10_000), 13_000);
    }

    #[test]
    fn ns_to_cycles_rounding_directions() {
        let f = Freq::phi();
        // 1 ns = 1.3 cycles: floor is 1, ceil is 2.
        assert_eq!(f.ns_to_cycles(1), 1);
        assert_eq!(f.ns_to_cycles_ceil(1), 2);
        // Exact conversions agree in both directions.
        assert_eq!(f.ns_to_cycles(10), f.ns_to_cycles_ceil(10));
    }

    #[test]
    fn large_values_do_not_overflow() {
        let f = Freq::from_mhz(4000);
        // A century of cycles at 4 GHz fits comfortably.
        let century_ns: u64 = 100 * 365 * 24 * 3600 * 1_000_000_000u64;
        let c = f.ns_to_cycles(century_ns / 1_000_000_000 * 1_000_000_000);
        assert!(c > 0);
    }

    #[test]
    fn conversions_saturate_at_the_u64_boundary() {
        for f in [Freq::phi(), Freq::r415()] {
            let khz = f.khz() as u128;
            // The largest ns whose floor conversion still fits in u64.
            let last = ((u64::MAX as u128 + 1) * 1_000_000 - 1) / khz;
            let last = last as u64;
            assert_eq!(
                f.ns_to_cycles(last) as u128,
                last as u128 * khz / 1_000_000,
                "{f:?}: last in-range floor conversion must be exact"
            );
            assert_eq!(f.ns_to_cycles(last + 1), u64::MAX, "{f:?}");
            assert_eq!(f.ns_to_cycles(u64::MAX), u64::MAX, "{f:?}");
            // The largest ns whose ceiling conversion still fits.
            let last_ceil = (u64::MAX as u128 * 1_000_000 / khz) as u64;
            assert_eq!(
                f.ns_to_cycles_ceil(last_ceil) as u128,
                (last_ceil as u128 * khz).div_ceil(1_000_000),
                "{f:?}: last in-range ceiling conversion must be exact"
            );
            assert_eq!(f.ns_to_cycles_ceil(last_ceil + 1), u64::MAX, "{f:?}");
            assert_eq!(f.ns_to_cycles_ceil(u64::MAX), u64::MAX, "{f:?}");
            // Above 1 GHz a cycle count always fits in nanoseconds.
            assert_eq!(
                f.cycles_to_ns(u64::MAX) as u128,
                u64::MAX as u128 * 1_000_000 / khz,
                "{f:?}"
            );
        }
        // Below 1 GHz a long cycle count outgrows nanoseconds.
        let slow = Freq::from_mhz(500);
        assert_eq!(slow.cycles_to_ns(u64::MAX / 2), u64::MAX - 1);
        assert_eq!(slow.cycles_to_ns(u64::MAX / 2 + 1), u64::MAX);
        assert_eq!(slow.cycles_to_ns(u64::MAX), u64::MAX);
    }

    #[test]
    fn unit_helpers() {
        assert_eq!(us(10), 10_000);
        assert_eq!(ms(3), 3_000_000);
        assert_eq!(secs(2), 2_000_000_000);
    }

    #[test]
    #[should_panic]
    fn zero_frequency_panics() {
        let _ = Freq::from_khz(0);
    }
}
