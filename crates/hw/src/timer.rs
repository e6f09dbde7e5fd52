//! Per-CPU one-shot timer slots.
//!
//! Each CPU has exactly one APIC one-shot countdown pending at a time, and
//! the scheduler re-arms it on every scheduler exit (tickless operation,
//! §3.3). Funneling those programmings through the global future-event heap
//! made every re-arm an O(log n) insert plus a tombstone for the cancelled
//! predecessor — and on a 256-CPU Phi the heap was mostly timers.
//!
//! [`TimerSlots`] stores the single pending deadline per CPU in a flat
//! array instead, and the next timer to fire is read in O(1) from a cached
//! earliest-slot index. The index is updated in O(1) when an arm improves
//! on the cached earliest. When the current earliest is demoted or cleared,
//! the new one is read off the root of a min-tournament tree over the
//! slots (ties to the lower index). Every arm and disarm replays only its
//! own leaf-to-root path, stopping as soon as a match result cannot have
//! changed, so a store costs at most O(log n_cpus) and a firing no longer
//! pays an O(n_cpus) scan.

use nautix_des::Cycles;

/// An unarmed slot. `Cycles::MAX` is unreachable as a real deadline: the
/// simulation asserts against time overflow long before.
const UNARMED: Cycles = Cycles::MAX;

/// One pending one-shot deadline per CPU, with an O(1) earliest read.
#[derive(Debug, Clone)]
pub struct TimerSlots {
    /// Absolute fire time per CPU; `UNARMED` when the slot is empty.
    deadlines: Vec<Cycles>,
    /// Index of a slot holding the minimum deadline (any slot when none are
    /// armed). Invariant: `deadlines[earliest] == min(deadlines)`.
    earliest: usize,
    /// Min-tournament tree over `size = n.next_power_of_two()` leaves,
    /// heap-indexed: `winners[size + i] == i`, and each inner node holds the
    /// slot that wins its subtree (earlier deadline, ties to the lower
    /// index; padding leaves count as unarmed). `winners[1]` is therefore
    /// the lowest-index slot holding the minimum deadline.
    winners: Vec<u32>,
    /// Total arms, for diagnostics (matches the old APIC programmings
    /// counter, summed over CPUs).
    arms: u64,
}

impl TimerSlots {
    /// `n` unarmed slots.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1);
        let mut t = TimerSlots {
            deadlines: vec![UNARMED; n],
            earliest: 0,
            winners: Vec::new(),
            arms: 0,
        };
        t.build_tree();
        t
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.deadlines.len()
    }

    /// Return to `n` unarmed slots, reusing the backing storage.
    pub fn reset(&mut self, n: usize) {
        assert!(n >= 1);
        self.deadlines.clear();
        self.deadlines.resize(n, UNARMED);
        self.earliest = 0;
        self.arms = 0;
        self.build_tree();
    }

    /// True when no slot is armed.
    pub fn is_empty(&self) -> bool {
        self.deadlines[self.earliest] == UNARMED
    }

    /// Arm (or re-arm) `cpu`'s one-shot to fire at absolute time `deadline`.
    /// The previous programming, if any, is simply overwritten — one slot
    /// per CPU means re-arm storms cannot grow any state.
    pub fn arm(&mut self, cpu: usize, deadline: Cycles) {
        assert!(deadline < UNARMED, "timer deadline overflow");
        self.arms += 1;
        let was_earliest = cpu == self.earliest;
        let improves = deadline <= self.deadlines[self.earliest];
        self.deadlines[cpu] = deadline;
        self.replay(cpu);
        if improves {
            self.earliest = cpu;
        } else if was_earliest {
            // The earliest slot moved later; another slot may now be first.
            self.reseat();
        }
    }

    /// Disarm `cpu`'s one-shot, if armed.
    pub fn disarm(&mut self, cpu: usize) {
        self.deadlines[cpu] = UNARMED;
        self.replay(cpu);
        if cpu == self.earliest {
            self.reseat();
        }
    }

    /// `cpu`'s pending deadline, if armed.
    pub fn deadline(&self, cpu: usize) -> Option<Cycles> {
        match self.deadlines[cpu] {
            UNARMED => None,
            d => Some(d),
        }
    }

    /// The next timer to fire: `(cpu, deadline)`, in O(1).
    ///
    /// Ties are deterministic: among equal deadlines the slot most recently
    /// promoted by [`arm`](Self::arm) (or else the lowest index)
    /// is reported, and the firing order of simultaneous timers follows
    /// from the deterministic sequence of arm/disarm calls.
    pub fn earliest(&self) -> Option<(usize, Cycles)> {
        match self.deadlines[self.earliest] {
            UNARMED => None,
            d => Some((self.earliest, d)),
        }
    }

    /// The earliest timer, but only if it is due no later than `head` —
    /// the timestamp-order merge condition between the timer slots and the
    /// future-event queue. `head == None` means the queue is empty, so any
    /// armed timer is due. Equality fires the timer first: hardware raises
    /// the interrupt line before any same-instant software-visible event.
    pub fn due_before(&self, head: Option<Cycles>) -> Option<(usize, Cycles)> {
        let (cpu, deadline) = self.earliest()?;
        match head {
            Some(h) if deadline > h => None,
            _ => Some((cpu, deadline)),
        }
    }

    /// Total arm operations performed.
    pub fn arms(&self) -> u64 {
        self.arms
    }

    /// Re-derive the cached earliest from the tournament root: the
    /// lowest-index slot holding the minimum deadline.
    fn reseat(&mut self) {
        self.earliest = self.winners[1] as usize;
    }

    /// Deadline of slot `i`; padding leaves past the last CPU are unarmed.
    fn key(&self, i: u32) -> Cycles {
        self.deadlines.get(i as usize).copied().unwrap_or(UNARMED)
    }

    /// The winner of one match: the earlier deadline, ties to `left` (whose
    /// subtree always holds the lower indices).
    fn play(&self, left: u32, right: u32) -> u32 {
        if self.key(right) < self.key(left) {
            right
        } else {
            left
        }
    }

    /// Lay out the leaves and play every match bottom-up.
    fn build_tree(&mut self) {
        let size = self.deadlines.len().next_power_of_two();
        self.winners.clear();
        self.winners.resize(2 * size, 0);
        for i in 0..size {
            self.winners[size + i] = i as u32;
        }
        for k in (1..size).rev() {
            self.winners[k] = self.play(self.winners[2 * k], self.winners[2 * k + 1]);
        }
    }

    /// Replay the matches on `cpu`'s leaf-to-root path after its deadline
    /// changed. Once a match is still won by the same *other* slot, that
    /// subtree's result is unchanged and so is every match above it.
    fn replay(&mut self, cpu: usize) {
        let mut k = (self.winners.len() / 2 + cpu) / 2;
        while k >= 1 {
            let w = self.play(self.winners[2 * k], self.winners[2 * k + 1]);
            if w == self.winners[k] && w as usize != cpu {
                break;
            }
            self.winners[k] = w;
            k /= 2;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_unarmed() {
        let t = TimerSlots::new(4);
        assert!(t.is_empty());
        assert_eq!(t.earliest(), None);
        assert_eq!(t.deadline(2), None);
    }

    #[test]
    fn earliest_tracks_min_across_arms() {
        let mut t = TimerSlots::new(4);
        t.arm(1, 500);
        assert_eq!(t.earliest(), Some((1, 500)));
        t.arm(3, 200);
        assert_eq!(t.earliest(), Some((3, 200)));
        t.arm(0, 900);
        assert_eq!(t.earliest(), Some((3, 200)));
    }

    #[test]
    fn rearm_later_demotes_and_rescans() {
        let mut t = TimerSlots::new(3);
        t.arm(0, 100);
        t.arm(1, 300);
        // Re-arm the earliest CPU to a later deadline: CPU 1 must surface.
        t.arm(0, 1000);
        assert_eq!(t.earliest(), Some((1, 300)));
        assert_eq!(t.deadline(0), Some(1000));
    }

    #[test]
    fn disarm_clears_and_rescans() {
        let mut t = TimerSlots::new(3);
        t.arm(0, 100);
        t.arm(2, 150);
        t.disarm(0);
        assert_eq!(t.earliest(), Some((2, 150)));
        t.disarm(2);
        assert!(t.is_empty());
        assert_eq!(t.earliest(), None);
    }

    #[test]
    fn disarming_unarmed_slot_is_noop() {
        let mut t = TimerSlots::new(2);
        t.arm(1, 50);
        t.disarm(0);
        assert_eq!(t.earliest(), Some((1, 50)));
    }

    #[test]
    fn rearm_storm_keeps_single_slot() {
        let mut t = TimerSlots::new(2);
        for i in 0..10_000u64 {
            t.arm(0, 10 + i);
        }
        // Only the latest programming is live.
        assert_eq!(t.deadline(0), Some(10_009));
        assert_eq!(t.earliest(), Some((0, 10_009)));
        assert_eq!(t.arms(), 10_000);
    }

    #[test]
    fn equal_deadlines_resolve_deterministically() {
        let mut a = TimerSlots::new(4);
        let mut b = TimerSlots::new(4);
        for t in [&mut a, &mut b] {
            t.arm(2, 100);
            t.arm(1, 100);
            t.arm(3, 100);
        }
        assert_eq!(a.earliest(), b.earliest());
    }

    #[test]
    fn due_before_merges_on_deadline_not_after() {
        let mut t = TimerSlots::new(2);
        assert_eq!(t.due_before(None), None);
        assert_eq!(t.due_before(Some(100)), None);
        t.arm(1, 50);
        // Queue empty: any armed timer is due.
        assert_eq!(t.due_before(None), Some((1, 50)));
        // Earlier or equal head: due (equality fires the timer first).
        assert_eq!(t.due_before(Some(80)), Some((1, 50)));
        assert_eq!(t.due_before(Some(50)), Some((1, 50)));
        // Head strictly earlier than the deadline: queue event goes first.
        assert_eq!(t.due_before(Some(49)), None);
    }

    #[test]
    fn matches_bruteforce_min_under_mixed_ops() {
        let mut t = TimerSlots::new(8);
        let mut state = 0x9E37_79B9u64;
        let mut next = |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        for _ in 0..5000 {
            let cpu = next(8) as usize;
            if next(5) == 0 {
                t.disarm(cpu);
            } else {
                t.arm(cpu, next(1 << 40));
            }
            let brute = t.deadlines.iter().copied().filter(|&d| d != UNARMED).min();
            assert_eq!(t.earliest().map(|(_, d)| d), brute);
        }
    }

    /// Reference model: the same cached earliest index, but re-derived by
    /// an O(n) linear rescan whenever the earliest slot is demoted or
    /// cleared — the obviously-correct form of the tie rule.
    struct LinearSlots {
        deadlines: Vec<Cycles>,
        earliest: usize,
    }

    impl LinearSlots {
        fn new(n: usize) -> Self {
            LinearSlots {
                deadlines: vec![UNARMED; n],
                earliest: 0,
            }
        }

        fn arm(&mut self, cpu: usize, deadline: Cycles) {
            let was_earliest = cpu == self.earliest;
            let improves = deadline <= self.deadlines[self.earliest];
            self.deadlines[cpu] = deadline;
            if improves {
                self.earliest = cpu;
            } else if was_earliest {
                self.rescan();
            }
        }

        fn disarm(&mut self, cpu: usize) {
            self.deadlines[cpu] = UNARMED;
            if cpu == self.earliest {
                self.rescan();
            }
        }

        fn earliest(&self) -> Option<(usize, Cycles)> {
            match self.deadlines[self.earliest] {
                UNARMED => None,
                d => Some((self.earliest, d)),
            }
        }

        fn rescan(&mut self) {
            let mut best = 0;
            for (i, &d) in self.deadlines.iter().enumerate() {
                if d < self.deadlines[best] {
                    best = i;
                }
            }
            self.earliest = best;
        }
    }

    /// Random arm/disarm over a deadline domain of `domain` values (small,
    /// so equal deadlines are the common case): the tournament tree must
    /// report exactly the slot the linear rescan would, ties included.
    fn lockstep(n: usize, domain: u64, steps: usize, seed: u64) {
        let mut t = TimerSlots::new(n);
        let mut r = LinearSlots::new(n);
        let mut state = seed;
        let mut next = |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        for step in 0..steps {
            let cpu = next(n as u64) as usize;
            if next(4) == 0 {
                t.disarm(cpu);
                r.disarm(cpu);
            } else {
                let d = next(domain);
                t.arm(cpu, d);
                r.arm(cpu, d);
            }
            assert_eq!(
                t.earliest(),
                r.earliest(),
                "n={n} step={step}: tree and linear rescan disagree"
            );
            assert_eq!(t.deadlines, r.deadlines);
        }
    }

    #[test]
    fn tree_matches_linear_rescan_in_lockstep() {
        for n in [1, 3, 64, 256] {
            for (domain, seed) in [(2, 0x9E37_79B9u64), (5, 0xD1B5_4A32), (64, 0x2545_F491)] {
                lockstep(n, domain, 20_000, seed);
            }
        }
    }

    #[test]
    fn reset_rebuilds_the_tree_for_a_new_size() {
        let mut t = TimerSlots::new(3);
        t.arm(2, 7);
        t.reset(5);
        assert_eq!(t.earliest(), None);
        t.arm(4, 9);
        t.arm(3, 9);
        t.disarm(3);
        // The demoted earliest falls back to the lowest index among ties.
        t.arm(1, 9);
        t.arm(1, 10);
        assert_eq!(t.earliest(), Some((4, 9)));
        t.reset(1);
        t.arm(0, 3);
        t.arm(0, 4);
        assert_eq!(t.earliest(), Some((0, 4)));
    }
}
