//! The set `W` of current context windows (§4.1) realized as the
//! per-partition *context bit vector* of §6.2.
//!
//! "For each stream partition we save which context windows currently
//! hold in the context bit vector W. This vector W has a time stamp
//! W.time and a one-bit entry for each context type. The entries are
//! sorted alphabetically by context names to allow for constant time
//! access."
//!
//! Beyond the bits, each entry keeps the current window's span so the
//! `(t_i, t_t]` admission semantics of Definition 1 can be honoured, and
//! an *epoch* counter identifying window instances. Nothing outside this
//! module's tests reads the epoch: the context history expires partial
//! matches by the open windows' initiation times
//! ([`PartitionContexts::open_span`]).
//!
//! A row does not outlive its differences from the startup row: once a
//! partition's windows are back to the default one alone and no closed
//! span admits a later time, the engine's sweep removes the row
//! ([`ContextTable::release`]), and the partition's next transition
//! re-creates it from the startup row. A re-created row restarts its
//! epochs and `W.time`, which no reader observes.

use caesar_events::{PartitionId, PartitionMap, Time, WindowSpan, TIME_MAX};
use serde::{Deserialize, Serialize};

/// A context transition produced by a context initiation / termination
/// operator, applied to the table by the runtime scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Transition {
    /// What happens.
    pub kind: TransitionKind,
    /// Bit index of the affected context (alphabetical order).
    pub context_bit: u8,
    /// Application time of the triggering event.
    pub time: Time,
    /// The partition whose context state changes.
    pub partition: PartitionId,
}

/// Kinds of context transitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TransitionKind {
    /// Start window `w_c` (no-op if already open) — operator `CI_c`.
    Initiate,
    /// End window `w_c` (no-op if not open) — operator `CT_c`.
    Terminate,
}

/// Per-context-entry state inside one partition.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
struct Slot {
    /// Exclusive start of the open window; meaningful when the bit is set.
    initiated: Time,
    /// The window was open "since genesis" (default context at startup):
    /// admits every timestamp.
    genesis: bool,
    /// The most recently closed window, kept so events carrying exactly
    /// the termination timestamp are still admitted within the closing
    /// transaction (`t <= t_t`).
    recent: Option<WindowSpan>,
    /// Window-instance counter; bumped on every initiation.
    epoch: u64,
}

/// Context window state of one stream partition.
#[derive(Debug, Serialize, Deserialize)]
pub struct PartitionContexts {
    /// The context bit vector: bit `i` set ⇔ window of context `i` holds.
    bits: u64,
    /// `W.time`: application time of the last update.
    time: Time,
    slots: Vec<Slot>,
    default_bit: u8,
}

impl Clone for PartitionContexts {
    fn clone(&self) -> Self {
        Self {
            slots: self.slots.clone(),
            ..*self
        }
    }

    /// Keeps the slot vector's allocation
    /// ([`ContextTable::copy_partition`]).
    fn clone_from(&mut self, src: &Self) {
        self.slots.clone_from(&src.slots);
        (self.bits, self.time, self.default_bit) = (src.bits, src.time, src.default_bit);
    }
}

impl PartitionContexts {
    fn new(num_contexts: usize, default_bit: u8) -> Self {
        let mut slots = vec![Slot::default(); num_contexts];
        // The default context holds at startup and admits all times.
        slots[default_bit as usize].genesis = true;
        slots[default_bit as usize].epoch = 1;
        Self {
            bits: 1 << default_bit,
            time: 0,
            slots,
            default_bit,
        }
    }

    /// The raw bit vector.
    #[must_use]
    pub fn bits(&self) -> u64 {
        self.bits
    }

    /// `W.time` — when the vector was last updated.
    #[must_use]
    pub fn time(&self) -> Time {
        self.time
    }

    /// Returns `true` if the window of context `bit` currently holds.
    #[must_use]
    pub fn holds(&self, bit: u8) -> bool {
        self.bits & (1 << bit) != 0
    }

    /// Number of currently open windows.
    #[must_use]
    pub fn open_count(&self) -> u32 {
        self.bits.count_ones()
    }

    /// Window-instance epoch of context `bit` (0 = never opened).
    #[must_use]
    pub fn epoch(&self, bit: u8) -> u64 {
        self.slots[bit as usize].epoch
    }

    /// The context window operator's admission test (`CW_c`): does an
    /// event at time `t` occur during the current (or just-terminated)
    /// window of context `bit`?
    ///
    /// Honours the `(t_i, t_t]` semantics: events at the initiation
    /// timestamp are *not* admitted; events at the termination timestamp
    /// *are* (via the `recent` span kept until the watermark passes it).
    #[must_use]
    pub fn admits(&self, bit: u8, t: Time) -> bool {
        let slot = &self.slots[bit as usize];
        if self.holds(bit) && (slot.genesis || slot.initiated < t) {
            return true;
        }
        slot.recent.is_some_and(|w| w.admits(t))
    }

    /// Span of the currently open window of `bit`, if any.
    #[must_use]
    pub fn open_span(&self, bit: u8) -> Option<WindowSpan> {
        self.holds(bit).then(|| WindowSpan {
            initiated: if self.slots[bit as usize].genesis {
                0
            } else {
                self.slots[bit as usize].initiated
            },
            terminated: TIME_MAX,
        })
    }

    /// Applies `CI_c` at time `t` (§4.1):
    /// "starts a new context window w_c, adds it to the set of current
    /// context windows and removes the default context window, if there."
    /// No-op if `w_c` is already open.
    pub fn initiate(&mut self, bit: u8, t: Time) {
        self.time = self.time.max(t);
        if self.holds(bit) {
            return;
        }
        self.open_slot(bit, t);
        // Remove the default window (unless the initiated context IS the
        // default, which would be unusual but harmless).
        if bit != self.default_bit && self.holds(self.default_bit) {
            self.close_slot(self.default_bit, t);
        }
    }

    /// Applies `CT_c` at time `t` (§4.1):
    /// "ends the context window w_c, removes it from the set of current
    /// context windows, if the set becomes empty adds the default
    /// context window."
    /// No-op if `w_c` is not open.
    pub fn terminate(&mut self, bit: u8, t: Time) {
        self.time = self.time.max(t);
        if !self.holds(bit) {
            return;
        }
        self.close_slot(bit, t);
        if self.bits == 0 {
            self.open_slot(self.default_bit, t);
        }
    }

    fn open_slot(&mut self, bit: u8, t: Time) {
        let slot = &mut self.slots[bit as usize];
        slot.initiated = t;
        slot.genesis = false;
        slot.epoch += 1;
        self.bits |= 1 << bit;
    }

    /// Whether the row answers every `holds` and `admits` query at or
    /// after `watermark` as the startup row does: only the default
    /// window is open and no closed window's span is left. The default
    /// window then opened before `watermark` (or at genesis): whatever
    /// closed when it reopened left a span, which
    /// [`ContextTable::expire`] clears only once `watermark` passed it.
    fn idle(&self) -> bool {
        self.bits == 1 << self.default_bit && self.slots.iter().all(|slot| slot.recent.is_none())
    }

    fn close_slot(&mut self, bit: u8, t: Time) {
        let slot = &mut self.slots[bit as usize];
        let initiated = if slot.genesis { 0 } else { slot.initiated };
        slot.recent = Some(WindowSpan {
            initiated,
            terminated: t,
        });
        slot.genesis = false;
        self.bits &= !(1 << bit);
    }
}

/// The full context table: one [`PartitionContexts`] per stream
/// partition, created lazily.
///
/// Partition state is keyed by id, not indexed by it: ids are sparse
/// (clickstream workloads hash millions of user keys into the 32-bit id
/// space), so touching partition `u32::MAX` must cost one entry — not a
/// dense vector materializing four billion default states.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ContextTable {
    partitions: PartitionMap<PartitionContexts>,
    /// The state every partition is in until its first transition
    /// (default context only) — what reads of an untouched partition
    /// borrow instead of materializing it.
    startup: PartitionContexts,
}

impl ContextTable {
    /// Creates a table for `num_contexts` context types (alphabetical bit
    /// order) with the given default context bit.
    ///
    /// # Panics
    /// Panics if `num_contexts` exceeds 64 or `default_bit` is out of
    /// range.
    #[must_use]
    pub fn new(num_contexts: usize, default_bit: u8) -> Self {
        assert!(
            num_contexts <= 64,
            "context bit vector holds at most 64 types"
        );
        assert!(
            (default_bit as usize) < num_contexts,
            "default bit out of range"
        );
        Self {
            partitions: PartitionMap::default(),
            startup: PartitionContexts::new(num_contexts, default_bit),
        }
    }

    /// Number of context types.
    #[must_use]
    pub fn num_contexts(&self) -> usize {
        self.startup.slots.len()
    }

    /// Bit of the default context.
    #[must_use]
    pub fn default_bit(&self) -> u8 {
        self.startup.default_bit
    }

    /// The state of one partition (creating it on first touch).
    pub fn partition_mut(&mut self, p: PartitionId) -> &mut PartitionContexts {
        let startup = &self.startup;
        self.partitions
            .entry(p.0)
            .or_insert_with(|| startup.clone())
    }

    /// Read access to one partition's state; partitions never touched
    /// report the startup state (default context only). Borrowed, not
    /// copied: context-history maintenance reads it on every closed
    /// window.
    #[must_use]
    pub fn partition(&self, p: PartitionId) -> &PartitionContexts {
        self.partitions.get(&p.0).unwrap_or(&self.startup)
    }

    /// Whether context `bit` admits an event at `(p, t)` — the `CW_c`
    /// test without materializing the partition.
    #[must_use]
    pub fn admits(&self, p: PartitionId, bit: u8, t: Time) -> bool {
        self.partition(p).admits(bit, t)
    }

    /// Whether the window of context `bit` currently holds at `p`.
    #[must_use]
    pub fn holds(&self, p: PartitionId, bit: u8) -> bool {
        self.partition(p).holds(bit)
    }

    /// Applies one transition. A window it closes leaves a `recent`
    /// span stamped with the transition time, which
    /// [`expire`](Self::expire) clears once progress has passed it.
    pub fn apply(&mut self, transition: Transition) {
        let pc = self.partition_mut(transition.partition);
        match transition.kind {
            TransitionKind::Initiate => pc.initiate(transition.context_bit, transition.time),
            TransitionKind::Terminate => pc.terminate(transition.context_bit, transition.time),
        }
    }

    /// Overwrites partition `p`'s state with what `other` — a table of
    /// the same context types — holds for it, in place.
    pub fn copy_partition(&mut self, other: &ContextTable, p: PartitionId) {
        match other.partitions.get(&p.0) {
            Some(src) => self.partition_mut(p).clone_from(src),
            None => drop(self.partitions.remove(&p.0)),
        }
    }

    /// Clears partition `p`'s `recent` spans that terminated before
    /// `watermark` — the storage layer's garbage collector (§6.1), run
    /// by the engine's expiry worklist for the partitions whose windows
    /// closed. When it runs costs memory, never results: an expired
    /// span admits only timestamps the watermark already passed.
    /// Returns whether anything was cleared.
    pub fn expire(&mut self, p: PartitionId, watermark: Time) -> bool {
        let Some(pc) = self.partitions.get_mut(&p.0) else {
            return false;
        };
        let mut cleared = false;
        for slot in &mut pc.slots {
            if slot.recent.is_some_and(|w| w.terminated < watermark) {
                slot.recent = None;
                cleared = true;
            }
        }
        cleared
    }

    /// Clears partition `p`'s closed spans as [`expire`](Self::expire)
    /// does and, if the row then answers as the startup row does at
    /// every time from `watermark` on — the default window alone,
    /// opened before `watermark`, no span left — removes it: reads
    /// borrow the startup row, and the partition's next transition
    /// re-creates it. The caller vouches that `p` holds no run state,
    /// the only reader of an open window's initiation time. Returns
    /// whether anything was cleared or removed.
    pub fn release(&mut self, p: PartitionId, watermark: Time) -> bool {
        let cleared = self.expire(p, watermark);
        let idle = self
            .partitions
            .get(&p.0)
            .is_some_and(PartitionContexts::idle);
        if idle {
            self.partitions.remove(&p.0);
        }
        cleared || idle
    }

    /// `W.time` of partition `p`'s row, if it has one.
    #[must_use]
    pub fn updated(&self, p: PartitionId) -> Option<Time> {
        self.partitions.get(&p.0).map(PartitionContexts::time)
    }

    /// Every row's partition and `W.time`, in no particular order.
    pub fn rows(&self) -> impl Iterator<Item = (PartitionId, Time)> + '_ {
        self.partitions
            .iter()
            .map(|(&id, pc)| (PartitionId(id), pc.time))
    }

    /// Number of rows: partitions not back at the startup state.
    #[must_use]
    pub fn materialized_partitions(&self) -> usize {
        self.partitions.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CLEAR: u8 = 1; // default
    const ACCIDENT: u8 = 0;
    const CONGESTION: u8 = 2;
    const P: PartitionId = PartitionId(0);

    fn table() -> ContextTable {
        ContextTable::new(3, CLEAR)
    }

    #[test]
    fn default_context_holds_at_startup_and_admits_time_zero() {
        let t = table();
        assert!(t.holds(P, CLEAR));
        assert!(!t.holds(P, CONGESTION));
        assert!(t.admits(P, CLEAR, 0));
        assert!(t.admits(P, CLEAR, 1_000_000));
        assert!(!t.admits(P, CONGESTION, 5));
    }

    #[test]
    fn initiate_opens_window_and_closes_default() {
        let mut t = table();
        t.partition_mut(P).initiate(CONGESTION, 10);
        assert!(t.holds(P, CONGESTION));
        assert!(!t.holds(P, CLEAR), "default removed on initiation");
        // (t_i, t_t] semantics: event at the initiation time is NOT in
        // the new window...
        assert!(!t.admits(P, CONGESTION, 10));
        assert!(t.admits(P, CONGESTION, 11));
        // ...but still in the just-closed default window.
        assert!(t.admits(P, CLEAR, 10));
        assert!(!t.admits(P, CLEAR, 11));
    }

    #[test]
    fn initiate_is_idempotent_while_open() {
        let mut t = table();
        t.partition_mut(P).initiate(CONGESTION, 10);
        let epoch = t.partition(P).epoch(CONGESTION);
        t.partition_mut(P).initiate(CONGESTION, 20);
        assert_eq!(
            t.partition(P).epoch(CONGESTION),
            epoch,
            "CI on open window is a no-op"
        );
    }

    #[test]
    fn terminate_restores_default_when_set_empties() {
        let mut t = table();
        t.partition_mut(P).initiate(CONGESTION, 10);
        t.partition_mut(P).terminate(CONGESTION, 50);
        assert!(!t.holds(P, CONGESTION));
        assert!(t.holds(P, CLEAR), "default restored");
        // Terminated window still admits its termination timestamp.
        assert!(t.admits(P, CONGESTION, 50));
        assert!(!t.admits(P, CONGESTION, 51));
        // The restored default is half-open at 50.
        assert!(!t.admits(P, CLEAR, 50));
        assert!(t.admits(P, CLEAR, 51));
    }

    #[test]
    fn overlapping_windows_coexist() {
        let mut t = table();
        t.partition_mut(P).initiate(CONGESTION, 10);
        t.partition_mut(P).initiate(ACCIDENT, 20);
        assert!(t.holds(P, CONGESTION));
        assert!(t.holds(P, ACCIDENT));
        assert_eq!(t.partition(P).open_count(), 2);
        // Terminating one leaves the other (|W| > 1 branch of CT).
        t.partition_mut(P).terminate(ACCIDENT, 30);
        assert!(t.holds(P, CONGESTION));
        assert!(
            !t.holds(P, CLEAR),
            "default NOT restored while another window holds"
        );
    }

    #[test]
    fn terminate_unopened_window_is_noop() {
        let mut t = table();
        t.partition_mut(P).terminate(ACCIDENT, 5);
        assert!(t.holds(P, CLEAR));
        assert!(!t.admits(P, ACCIDENT, 5));
    }

    #[test]
    fn epochs_count_window_instances() {
        let mut t = table();
        let pc = t.partition_mut(P);
        pc.initiate(CONGESTION, 10);
        pc.terminate(CONGESTION, 20);
        pc.initiate(CONGESTION, 30);
        assert_eq!(pc.epoch(CONGESTION), 2);
        assert_eq!(pc.epoch(CLEAR), 2, "default reopened once after genesis");
    }

    #[test]
    fn gc_drops_stale_recent_spans() {
        let mut t = table();
        t.apply(Transition {
            kind: TransitionKind::Initiate,
            context_bit: CONGESTION,
            partition: P,
            time: 10,
        });
        t.apply(Transition {
            kind: TransitionKind::Terminate,
            context_bit: CONGESTION,
            partition: P,
            time: 20,
        });
        assert!(t.admits(P, CONGESTION, 20));
        assert!(
            t.expire(P, 20),
            "the displaced default window's span, closed at 10"
        );
        assert!(
            t.admits(P, CONGESTION, 20),
            "a span is live until the watermark passes its termination"
        );
        assert!(t.expire(P, 21));
        assert!(!t.admits(P, CONGESTION, 20), "recent span collected");
    }

    /// A row is released exactly when it is back at the startup state
    /// from the watermark on — default window alone, opened before the
    /// watermark, no span left — and a released row cannot be observed:
    /// it answered `holds` and `admits` as the startup row does at every
    /// later time, and after further transitions the re-created row
    /// answers them as the kept one does (window starts agree from the
    /// watermark on, the only initiation times partial matches there
    /// can be compared with).
    #[test]
    fn a_released_row_answers_as_the_startup_row() {
        use proptest::test_runner::TestRng;
        let startup = table();
        let transition = |rng: &mut TestRng, time: Time| Transition {
            kind: if rng.below(2) == 0 {
                TransitionKind::Initiate
            } else {
                TransitionKind::Terminate
            },
            context_bit: rng.below(3) as u8,
            time,
            partition: P,
        };
        let agree = |a: &PartitionContexts, b: &PartitionContexts, from: Time| {
            (0..3u8).all(|bit| {
                let start =
                    |pc: &PartitionContexts| pc.open_span(bit).map(|w| w.initiated.max(from));
                a.holds(bit) == b.holds(bit)
                    && start(a) == start(b)
                    && (from..from + 12).all(|t| a.admits(bit, t) == b.admits(bit, t))
            })
        };
        let mut released = 0;
        for seed in 0..2_000 {
            let rng = &mut TestRng::from_seed(seed);
            let mut t = table();
            let mut time = 0;
            for _ in 0..1 + rng.below(8) {
                time += rng.below(3);
                t.apply(transition(rng, time));
            }
            let watermark = 1 + rng.below(time + 4);
            let mut kept_table = t.clone();
            kept_table.expire(P, watermark);
            let kept = kept_table.partition(P).clone();
            let default = &kept.slots[CLEAR as usize];
            let idle = kept.bits == 1 << CLEAR
                && (default.genesis || default.initiated < watermark)
                && kept.slots.iter().all(|slot| slot.recent.is_none());
            t.release(P, watermark);
            assert_eq!(t.materialized_partitions() == 0, idle, "seed {seed}");
            if !idle {
                continue;
            }
            released += 1;
            assert!(agree(&kept, startup.partition(P), watermark), "seed {seed}");
            let mut time = watermark;
            for _ in 0..rng.below(6) {
                time += rng.below(3);
                let next = transition(rng, time);
                t.apply(next);
                kept_table.apply(next);
                assert!(
                    agree(t.partition(P), kept_table.partition(P), watermark),
                    "seed {seed}: re-created row diverged at {time}"
                );
            }
        }
        assert!(released > 100, "only {released} rows released");
    }

    #[test]
    fn partitions_are_independent() {
        let mut t = table();
        t.partition_mut(PartitionId(0)).initiate(CONGESTION, 10);
        assert!(t.holds(PartitionId(0), CONGESTION));
        assert!(!t.holds(PartitionId(1), CONGESTION));
        assert!(t.holds(PartitionId(1), CLEAR));
    }

    #[test]
    fn apply_transitions() {
        let mut t = table();
        t.apply(Transition {
            kind: TransitionKind::Initiate,
            context_bit: CONGESTION,
            time: 10,
            partition: P,
        });
        assert!(t.holds(P, CONGESTION));
        t.apply(Transition {
            kind: TransitionKind::Terminate,
            context_bit: CONGESTION,
            time: 12,
            partition: P,
        });
        assert!(t.holds(P, CLEAR));
    }

    #[test]
    fn w_time_tracks_latest_update() {
        let mut t = table();
        let pc = t.partition_mut(P);
        pc.initiate(CONGESTION, 10);
        pc.terminate(CONGESTION, 25);
        assert_eq!(pc.time(), 25);
    }

    #[test]
    #[should_panic(expected = "at most 64")]
    fn too_many_contexts_panics() {
        let _ = ContextTable::new(65, 0);
    }

    #[test]
    fn sparse_partition_ids_materialize_only_touched_state() {
        let mut t = table();
        // Ids spread across the whole u32 space: state must track the
        // touched partitions, never the largest id.
        t.partition_mut(PartitionId(u32::MAX)).initiate(ACCIDENT, 5);
        t.partition_mut(PartitionId(1_000_000))
            .initiate(CONGESTION, 7);
        assert_eq!(t.materialized_partitions(), 2);
        assert!(t.holds(PartitionId(u32::MAX), ACCIDENT));
        assert!(t.holds(PartitionId(1_000_000), CONGESTION));
        // Untouched ids in between still report the startup default.
        assert!(t.holds(PartitionId(500_000), CLEAR));
        assert!(t.admits(PartitionId(500_000), CLEAR, 123));
    }
}
