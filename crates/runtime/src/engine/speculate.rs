//! Speculative out-of-order processing: emit now, retract if wrong.
//!
//! Strict consistency buys §6.2's in-order assumption by holding every
//! event in the reorder buffer until the stream's high-watermark passes
//! it by `reorder_slack` — so *all* output on a disordered stream pays
//! worst-case latency. The CEDR lineage (Barga et al., "Consistent
//! Streaming Through Time") shows the alternative this module
//! implements: process events the moment they arrive, and when a late
//! event (still within slack) invalidates what was emitted, issue
//! compensating retractions followed by the corrected output.
//!
//! # The revision ledger
//!
//! The engine keeps its strict internals untouched — the reorder buffer
//! still decides *settlement* (it becomes a revision tracker instead of
//! a gate), and the settled core still produces the byte-identical
//! strict output. On top sits a [`Speculation`] overlay:
//!
//! * `spec` — a fork of the settled core, advanced eagerly over the
//!   arrival stream. Its outputs are emitted immediately as
//!   [`OutputRecord::Emit`] records.
//! * `unsettled` — the events released to the fork but not yet past the
//!   slack, in `(time, arrival)` order (mirroring the reorder heap).
//! * `books` — the per-window emitted-output index: a multiset, keyed
//!   by wire encoding, of outputs emitted speculatively but not yet
//!   confirmed by the settled core.
//!
//! The invariant after every arrival: *fold(records) = settled outputs
//! ⊎ books* — cancelling each retraction against a prior emission of
//! the same event leaves exactly the settled core's outputs so far plus
//! the outstanding speculative ones. At `finish()` everything settles,
//! `books` drains to empty, and the fold equals the strict output — the
//! equality the testkit's differential gate checks byte-for-byte.
//!
//! An arrival is one of three cases:
//!
//! 1. **Too late** (beyond slack): counted and dropped, exactly like
//!    strict mode. Nothing was ever speculated on it, so nothing is
//!    retracted.
//! 2. **Append** (in arrival order so far): the fork processes it, its
//!    new outputs are emitted and booked, and whatever the reorder
//!    buffer released settles into the core (confirming books entries).
//! 3. **Revision** (late but within slack): the overlay re-forks from
//!    the settled core and replays the unsettled suffix with the late
//!    event spliced into its `(time, arrival)` position. The multiset
//!    difference between the old books and the replay's outputs becomes
//!    the compensation: retractions for emissions the replay no longer
//!    produces, then the corrected emissions. Outputs untouched by the
//!    late event cancel in the diff, so unaffected windows produce no
//!    record traffic.
//!
//! Correctness leans on engine determinism (same state + same settled
//! order ⇒ same outputs), the property the batch-equivalence and
//! snapshot tests already pin down.

use super::{Consistency as C, Engine, EngineConfig};
use crate::obs::{CounterId, MetricsRegistry, ObservabilityLevel, Stage};
use crate::programs::PartitionRun;
use caesar_events::{Event, EventError, OutputRecord, Time};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::time::Duration;

/// When outputs become visible relative to the reorder slack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Consistency {
    /// Wait out the slack: output is emitted only once no late arrival
    /// can change it (today's behavior, the default).
    #[default]
    Strict,
    /// Emit output the moment its inputs are processed; compensate late
    /// arrivals with retraction records. The settled result is
    /// identical to `Strict` — only visibility latency differs.
    Speculative,
}

impl Consistency {
    /// The level's lower-case name (`strict` / `speculative`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Consistency::Strict => "strict",
            Consistency::Speculative => "speculative",
        }
    }
}

impl std::str::FromStr for Consistency {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "strict" => Ok(Consistency::Strict),
            "speculative" => Ok(Consistency::Speculative),
            other => Err(format!(
                "unknown consistency level `{other}` (expected strict or speculative)"
            )),
        }
    }
}

/// One outstanding entry of the emitted-output books.
#[derive(Debug)]
struct BookEntry {
    /// Emitted-but-unsettled copies of this event.
    count: u64,
    /// The event itself (the key is its wire encoding).
    event: Event,
    /// Stream high-watermark at first emission — settling at watermark
    /// `h` means speculation led strictness by `h − emit_high` ticks.
    emit_high: Time,
}

/// The speculative overlay of an [`Engine`] (see the module docs).
#[derive(Debug)]
pub(super) struct Speculation {
    /// Fork of the settled core, advanced eagerly over arrival order.
    spec: Box<Engine>,
    /// Events released to the fork but not yet settled, `(time,
    /// arrival)`-ordered — a mirror of the reorder buffer's contents.
    unsettled: Vec<Event>,
    /// Emitted-but-unsettled outputs, keyed by wire encoding.
    books: BTreeMap<Vec<u8>, BookEntry>,
}

fn record_key(event: &Event) -> Vec<u8> {
    caesar_events::encode_to_vec(event)
}

impl Engine {
    /// (Re-)creates the speculative overlay to match the configured
    /// consistency level; called on construction and after a restore.
    pub(super) fn init_speculation(&mut self) {
        self.speculation = if self.config.consistency == C::Speculative {
            Some(Box::new(Speculation {
                spec: self.fork_core(),
                unsettled: Vec::new(),
                books: BTreeMap::new(),
            }))
        } else {
            None
        };
    }

    /// True when no speculative state is outstanding (trivially true in
    /// strict mode) — the precondition of [`snapshot_state`](Self::snapshot_state).
    #[must_use]
    pub fn speculation_settled(&self) -> bool {
        self.speculation
            .as_ref()
            .is_none_or(|sp| sp.unsettled.is_empty() && sp.books.is_empty())
    }

    /// A strict fork of the settled core: same semantic state, fresh
    /// non-semantic machinery (no reorder buffer — it is fed in settled
    /// order; outputs collected so emission deltas can be drained).
    fn fork_core(&self) -> Box<Engine> {
        let (template, partitions) = self.unbound_program();
        Box::new(Engine {
            config: EngineConfig {
                consistency: C::Strict,
                reorder_slack: 0,
                collect_outputs: true,
                observability: ObservabilityLevel::Off,
                ..self.config
            },
            table: self.table.clone(),
            template,
            default_bit: self.default_bit,
            run_state_bytes: partitions.values().map(PartitionRun::bytes).sum(),
            partitions,
            bound: None,
            active: Vec::new(),
            scratch: Default::default(),
            scheduler: self.scheduler.clone(),
            router: self.router.clone(),
            clock: self.clock,
            latency: self.latency.clone(),
            type_names: self.type_names.clone(),
            outputs_by_type: self.outputs_by_type.clone(),
            inputs_by_type: self.inputs_by_type.clone(),
            events_in: self.events_in,
            events_out: self.events_out,
            transitions_applied: self.transitions_applied,
            last_gc: self.last_gc,
            busy: Duration::ZERO,
            reorder: None,
            obs: MetricsRegistry::new(ObservabilityLevel::Off),
            late_dropped: 0,
            collected_outputs: Vec::new(),
            speculation: None,
            spec_capture: None,
            collected_records: Vec::new(),
            spec_emits: 0,
            spec_retractions: 0,
            spec_rebuilds: 0,
        })
    }

    /// One speculative arrival (the distributor entry point in
    /// speculative mode).
    pub(super) fn ingest_speculative(&mut self, event: Event) -> Result<(), EventError> {
        // The reorder buffer is now a revision tracker: it still judges
        // lateness and decides what settles, but visibility no longer
        // waits for it.
        let released = if let Some(mut reorder) = self.reorder.take() {
            let reorder_span = self.obs.span_start();
            let result = reorder.push(event.clone());
            self.obs.span_end(Stage::Reorder, reorder_span);
            self.late_dropped = reorder.late_dropped;
            self.reorder = Some(reorder);
            match result {
                Ok(ready) => ready,
                // Beyond slack: counted and dropped, like strict mode.
                // Nothing was speculated on it, so nothing to retract.
                Err(_late) => return Ok(()),
            }
        } else {
            vec![event.clone()]
        };
        let mut sp = self.speculation.take().expect("speculative mode");
        let result = self.speculative_arrival(&mut sp, event, released);
        self.speculation = Some(sp);
        result
    }

    fn speculative_arrival(
        &mut self,
        sp: &mut Speculation,
        event: Event,
        released: Vec<Event>,
    ) -> Result<(), EventError> {
        let t = event.time();
        // Equal timestamps append (arrival order is the tie-break, so
        // the newest event sorts after every buffered equal-time one).
        let in_order = sp.unsettled.last().is_none_or(|last| t >= last.time());
        if in_order {
            // Fast path: the fork simply advances; new outputs are
            // emitted and booked.
            sp.spec.ingest(event.clone())?;
            let delta = std::mem::take(&mut sp.spec.collected_outputs);
            self.emit_outputs(sp, delta);
            sp.unsettled.push(event);
            let settled = self.settle_into_core(&released)?;
            let leftover = self.confirm_settled(sp, settled);
            debug_assert!(
                leftover.is_empty(),
                "append-path settled outputs were all emitted before"
            );
            sp.unsettled.drain(..released.len());
        } else {
            // Revision: splice the late event into its settled position
            // and replay the unsettled suffix on a fresh fork.
            self.spec_rebuilds += 1;
            self.obs.inc(CounterId::SpeculativeRebuilds);
            let pos = sp.unsettled.partition_point(|e| e.time() <= t);
            sp.unsettled.insert(pos, event);
            // Settle first: `released` is exactly the (time, arrival)
            // prefix of the spliced list, and may include outputs never
            // emitted (the late event can release immediately).
            let settled = self.settle_into_core(&released)?;
            sp.unsettled.drain(..released.len());
            let mut spec = self.fork_core();
            for e in &sp.unsettled {
                spec.ingest(e.clone())?;
            }
            let replay = std::mem::take(&mut spec.collected_outputs);
            sp.spec = spec;
            self.revise_books(sp, settled, replay);
        }
        Ok(())
    }

    /// Feeds released (settled-order) events into the strict core,
    /// returning every output the core produced while doing so — which
    /// may include outputs of *earlier*-settled events whose
    /// transactions only now matured.
    fn settle_into_core(&mut self, released: &[Event]) -> Result<Vec<Event>, EventError> {
        if released.is_empty() {
            return Ok(Vec::new());
        }
        self.spec_capture = Some(Vec::new());
        let mut outcome = Ok(());
        for e in released {
            outcome = self.ingest_one_ordered(e.clone());
            if outcome.is_err() {
                break;
            }
        }
        let captured = self.spec_capture.take().unwrap_or_default();
        outcome.map(|()| captured)
    }

    /// Emits `delta` as speculative output: one `Emit` record each,
    /// booked as outstanding.
    fn emit_outputs(&mut self, sp: &mut Speculation, delta: Vec<Event>) {
        if delta.is_empty() {
            return;
        }
        let high = self.arrival_watermark();
        self.spec_emits += delta.len() as u64;
        self.obs
            .add(CounterId::SpeculativeEmits, delta.len() as u64);
        for event in delta {
            if self.config.collect_outputs {
                self.collected_records
                    .push(OutputRecord::Emit(event.clone()));
            }
            sp.books
                .entry(record_key(&event))
                .and_modify(|b| b.count += 1)
                .or_insert(BookEntry {
                    count: 1,
                    event,
                    emit_high: high,
                });
        }
    }

    /// Cancels settled outputs against the books (they are confirmed,
    /// no longer outstanding), crediting the speculation-lead metric.
    /// Returns the settled outputs that were never emitted — empty on
    /// the append path, revision fodder on the rebuild path.
    fn confirm_settled(&mut self, sp: &mut Speculation, settled: Vec<Event>) -> Vec<Event> {
        let high = self.arrival_watermark();
        let mut leftover = Vec::new();
        for event in settled {
            let key = record_key(&event);
            if let Some(entry) = sp.books.get_mut(&key) {
                self.obs.add(
                    CounterId::SpeculationLeadTicks,
                    high.saturating_sub(entry.emit_high),
                );
                entry.count -= 1;
                if entry.count == 0 {
                    sp.books.remove(&key);
                }
            } else {
                leftover.push(event);
            }
        }
        leftover
    }

    /// The revision step: reconcile the old books against what the
    /// settle produced plus what the replay now says the unsettled
    /// suffix derives. Emissions the replay no longer produces are
    /// retracted; new ones (including never-emitted settled outputs)
    /// are emitted after the retractions; the books become the replay's
    /// outputs. Outputs the late event did not disturb cancel here, so
    /// they cause no record traffic.
    fn revise_books(&mut self, sp: &mut Speculation, settled: Vec<Event>, replay: Vec<Event>) {
        let corrected = self.confirm_settled(sp, settled);
        let high = self.arrival_watermark();
        let old = std::mem::take(&mut sp.books);
        let mut new_books: BTreeMap<Vec<u8>, BookEntry> = BTreeMap::new();
        for event in replay {
            new_books
                .entry(record_key(&event))
                .and_modify(|b| b.count += 1)
                .or_insert(BookEntry {
                    count: 1,
                    event,
                    emit_high: high,
                });
        }
        let mut retractions: Vec<(Event, u64)> = Vec::new();
        let mut emissions: Vec<(Event, u64)> = Vec::new();
        // BTreeMap order keys both walks, so the record stream is
        // deterministic for a given arrival sequence.
        for (key, entry) in &old {
            let kept = new_books.get(key).map_or(0, |b| b.count);
            if entry.count > kept {
                retractions.push((entry.event.clone(), entry.count - kept));
            }
        }
        for (key, entry) in &mut new_books {
            if let Some(prior) = old.get(key) {
                // Still outstanding from before the revision: keep the
                // original emission watermark for the lead metric.
                entry.emit_high = prior.emit_high;
                if entry.count > prior.count {
                    emissions.push((entry.event.clone(), entry.count - prior.count));
                }
            } else {
                emissions.push((entry.event.clone(), entry.count));
            }
        }
        sp.books = new_books;
        for (event, n) in retractions {
            self.spec_retractions += n;
            self.obs.add(CounterId::SpeculativeRetractions, n);
            if self.config.collect_outputs {
                for _ in 0..n {
                    self.collected_records
                        .push(OutputRecord::Retract(event.clone()));
                }
            }
        }
        // Corrected output strictly after the retractions it replaces.
        let emitted = corrected.len() as u64 + emissions.iter().map(|(_, n)| n).sum::<u64>();
        self.spec_emits += emitted;
        self.obs.add(CounterId::SpeculativeEmits, emitted);
        if self.config.collect_outputs {
            for event in corrected {
                self.collected_records.push(OutputRecord::Emit(event));
            }
            for (event, n) in emissions {
                for _ in 0..n {
                    self.collected_records
                        .push(OutputRecord::Emit(event.clone()));
                }
            }
        }
    }

    /// Forces full settlement of the speculative overlay: every
    /// buffered event settles into the strict core and every books
    /// entry is confirmed. Afterwards the engine's state is a plain
    /// strict state — the precondition for
    /// [`snapshot_state`](Self::snapshot_state), which is why the
    /// checkpoint paths call this first.
    ///
    /// No records are emitted (everything settling was already emitted
    /// speculatively). Note the settlement advances the lateness
    /// watermark: events arriving after a settle that are older than
    /// the settled horizon are dropped, exactly as if the slack had
    /// been waited out. A no-op in strict mode.
    pub fn settle(&mut self) {
        let Some(mut sp) = self.speculation.take() else {
            return;
        };
        if let Some(mut reorder) = self.reorder.take() {
            let flushed = reorder.flush();
            self.reorder = Some(reorder);
            self.spec_capture = Some(Vec::new());
            for e in flushed {
                let _ = self.ingest_one_ordered(e);
            }
            let settled = self.spec_capture.take().unwrap_or_default();
            let leftover = self.confirm_settled(&mut sp, settled);
            debug_assert!(leftover.is_empty(), "settle outputs were all emitted");
        }
        sp.unsettled.clear();
        debug_assert!(
            sp.books.is_empty(),
            "fork and core agree once everything settled"
        );
        sp.books.clear();
        self.speculation = Some(sp);
    }

    /// Speculative end-of-stream: the fork finishes first (its trailing
    /// outputs are emitted as records), then the strict core finishes
    /// and confirms everything outstanding.
    pub(super) fn finish_speculative(&mut self) {
        let mut sp = self.speculation.take().expect("speculative mode");
        let _ = sp.spec.finish();
        let delta = std::mem::take(&mut sp.spec.collected_outputs);
        self.emit_outputs(&mut sp, delta);
        self.spec_capture = Some(Vec::new());
        self.finish_strict();
        let settled = self.spec_capture.take().unwrap_or_default();
        let leftover = self.confirm_settled(&mut sp, settled);
        debug_assert!(leftover.is_empty(), "finish outputs were all emitted");
        debug_assert!(sp.books.is_empty(), "books drain to empty at finish");
        sp.unsettled.clear();
        sp.books.clear();
        self.speculation = Some(sp);
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{build_engine_with, marker, pr, registry};
    use super::*;
    use crate::engine::ExecutionMode as Mode;
    use caesar_events::SchemaRegistry;

    fn spec_config(slack: Time) -> EngineConfig {
        EngineConfig::builder()
            .reorder_slack(slack)
            .collect_outputs(true)
            .consistency(Consistency::Speculative)
            .build()
    }

    fn strict_config(slack: Time) -> EngineConfig {
        EngineConfig::builder()
            .reorder_slack(slack)
            .collect_outputs(true)
            .build()
    }

    /// Folds a record stream: retractions cancel a prior emission of the
    /// same event. Returns the surviving multiset as sorted keys.
    fn fold(records: &[OutputRecord]) -> Vec<Vec<u8>> {
        let mut counts: BTreeMap<Vec<u8>, i64> = BTreeMap::new();
        for record in records {
            let entry = counts.entry(record_key(record.event())).or_default();
            if record.is_retraction() {
                *entry -= 1;
                assert!(*entry >= 0, "retraction without a prior emission");
            } else {
                *entry += 1;
            }
        }
        let mut out = Vec::new();
        for (key, n) in counts {
            for _ in 0..n {
                out.push(key.clone());
            }
        }
        out
    }

    fn canonical(events: &[Event]) -> Vec<Vec<u8>> {
        let mut keys: Vec<Vec<u8>> = events.iter().map(record_key).collect();
        keys.sort();
        keys
    }

    /// A disordered arrival sequence exercising ties, a within-slack
    /// straggler, and a beyond-slack drop.
    fn disordered_arrivals(reg: &SchemaRegistry) -> Vec<Event> {
        vec![
            pr(reg, 1, 1, "travel", 0),
            marker(reg, "ManySlowCars", 5, 0),
            pr(reg, 6, 2, "travel", 0),
            pr(reg, 4, 3, "travel", 0), // straggler: within slack, forces a revision
            pr(reg, 6, 4, "travel", 0), // equal-timestamp tie: appends
            marker(reg, "FewFastCars", 10, 0),
            pr(reg, 11, 5, "travel", 0),
            pr(reg, 2, 6, "travel", 0), // beyond slack: dropped, never retracted
            pr(reg, 12, 7, "travel", 0),
        ]
    }

    #[test]
    fn consistency_level_parses_and_names() {
        assert_eq!(
            "strict".parse::<Consistency>().unwrap(),
            Consistency::Strict
        );
        assert_eq!(
            "speculative".parse::<Consistency>().unwrap(),
            Consistency::Speculative
        );
        assert!("eventual".parse::<Consistency>().is_err());
        assert_eq!(Consistency::Speculative.name(), "speculative");
        assert_eq!(Consistency::default(), Consistency::Strict);
    }

    #[test]
    fn speculative_settles_to_strict_on_disordered_stream() {
        let (mut strict, reg) = build_engine_with(Mode::ContextAware, strict_config(4));
        let (mut spec, _) = build_engine_with(Mode::ContextAware, spec_config(4));
        for event in disordered_arrivals(&reg) {
            strict.ingest(event.clone()).unwrap();
            spec.ingest(event).unwrap();
        }
        let a = strict.finish();
        let b = spec.finish();
        assert_eq!(a.events_in, b.events_in);
        assert_eq!(a.events_out, b.events_out);
        assert_eq!(a.transitions_applied, b.transitions_applied);
        assert_eq!(a.outputs_by_type, b.outputs_by_type);
        assert_eq!(strict.late_dropped, spec.late_dropped);
        assert_eq!(strict.late_dropped, 1);
        // Settled outputs are byte-identical, in the same order.
        assert_eq!(
            canonical(&strict.collected_outputs),
            canonical(&spec.collected_outputs)
        );
        // Folding the record stream recovers exactly the settled outputs.
        assert_eq!(
            fold(&spec.collected_records),
            canonical(&spec.collected_outputs)
        );
        assert!(spec.spec_emits > 0, "something was emitted speculatively");
        assert!(spec.spec_rebuilds >= 1, "the straggler forced a revision");
        assert!(spec.speculation_settled());
    }

    #[test]
    fn late_context_switch_retracts_speculative_output() {
        let (mut engine, reg) = build_engine_with(Mode::ContextAware, spec_config(10));
        engine.ingest(marker(&reg, "ManySlowCars", 5, 0)).unwrap();
        engine.ingest(pr(&reg, 8, 1, "travel", 0)).unwrap();
        // Advancing past t=8 makes the fork produce the toll speculatively.
        engine.ingest(pr(&reg, 12, 2, "travel", 0)).unwrap();
        assert_eq!(engine.spec_emits, 1, "toll emitted before settlement");
        assert_eq!(engine.spec_retractions, 0);
        // Late congestion end at t=6: the toll at t=8 never happened.
        engine.ingest(marker(&reg, "FewFastCars", 6, 0)).unwrap();
        assert_eq!(engine.spec_rebuilds, 1);
        assert_eq!(engine.spec_retractions, 1, "the toll was retracted");
        let report = engine.finish();
        assert_eq!(report.outputs_of("TollNotification"), 0);
        assert!(engine.collected_outputs.is_empty());
        let toll = reg.lookup("TollNotification").unwrap();
        assert_eq!(engine.collected_records.len(), 2);
        assert!(!engine.collected_records[0].is_retraction());
        assert!(engine.collected_records[1].is_retraction());
        assert_eq!(engine.collected_records[0].event().type_id, toll);
        assert_eq!(
            engine.collected_records[0].event(),
            engine.collected_records[1].event(),
            "the retraction names the exact event it cancels"
        );
        assert!(fold(&engine.collected_records).is_empty());
    }

    #[test]
    fn unaffected_windows_produce_no_record_traffic() {
        // A straggler that does not change any derivation: the revision
        // replays, the books diff cancels, and no retraction is emitted.
        let (mut engine, reg) = build_engine_with(Mode::ContextAware, spec_config(10));
        engine.ingest(marker(&reg, "ManySlowCars", 5, 0)).unwrap();
        engine.ingest(pr(&reg, 8, 1, "travel", 0)).unwrap();
        engine.ingest(pr(&reg, 12, 2, "travel", 0)).unwrap();
        assert_eq!(engine.spec_emits, 1);
        // Late, but an exit-lane report derives nothing.
        engine.ingest(pr(&reg, 7, 3, "exit", 0)).unwrap();
        assert_eq!(engine.spec_rebuilds, 1);
        assert_eq!(engine.spec_retractions, 0, "no output changed");
        assert_eq!(engine.spec_emits, 1, "no re-emission either");
        // Congestion never ends here, so the report at t=12 also derives
        // a toll — produced (and emitted) when the stream finishes.
        let report = engine.finish();
        assert_eq!(report.outputs_of("TollNotification"), 2);
        assert_eq!(engine.spec_emits, 2);
        assert_eq!(
            fold(&engine.collected_records),
            canonical(&engine.collected_outputs)
        );
    }

    #[test]
    fn settle_forces_strict_state_for_snapshots() {
        let (mut engine, reg) = build_engine_with(Mode::ContextAware, spec_config(8));
        engine.ingest(pr(&reg, 1, 1, "travel", 0)).unwrap();
        engine.ingest(marker(&reg, "ManySlowCars", 5, 0)).unwrap();
        engine.ingest(pr(&reg, 6, 2, "travel", 0)).unwrap();
        assert!(!engine.speculation_settled(), "events are in flight");
        engine.settle();
        assert!(engine.speculation_settled());

        // The snapshot restores into a second speculative engine, which
        // then finishes exactly like the original.
        let state: super::super::EngineState =
            serde::from_bytes(&serde::to_bytes(&engine.snapshot_state())).unwrap();
        let (mut restored, _) = build_engine_with(Mode::ContextAware, spec_config(8));
        restored.restore_state(state).unwrap();
        for target in [&mut engine, &mut restored] {
            target.ingest(pr(&reg, 7, 3, "travel", 0)).unwrap();
            target.ingest(marker(&reg, "FewFastCars", 10, 0)).unwrap();
        }
        let a = engine.finish();
        let b = restored.finish();
        assert_eq!(a.events_out, b.events_out);
        assert_eq!(a.outputs_by_type, b.outputs_by_type);
        assert_eq!(
            canonical(&engine.collected_outputs),
            canonical(&restored.collected_outputs)
        );
    }

    #[test]
    fn strict_and_speculative_snapshots_interchange() {
        // Consistency is a latency knob, not a semantic one: a strict
        // snapshot restores into a speculative engine and vice versa.
        let (strict, reg) = build_engine_with(Mode::ContextAware, strict_config(4));
        let state = strict.snapshot_state();
        let (mut spec, _) = build_engine_with(Mode::ContextAware, spec_config(4));
        spec.restore_state(state).unwrap();
        spec.ingest(pr(&reg, 1, 1, "travel", 0)).unwrap();
        spec.finish();

        let (mut spec2, _) = build_engine_with(Mode::ContextAware, spec_config(4));
        spec2.ingest(pr(&reg, 1, 1, "travel", 0)).unwrap();
        spec2.settle();
        let (mut strict2, _) = build_engine_with(Mode::ContextAware, strict_config(4));
        strict2.restore_state(spec2.snapshot_state()).unwrap();
    }

    #[test]
    fn settle_advances_the_lateness_floor() {
        // After a settle, events older than the settled horizon are
        // dropped (the checkpoint documented trade-off), not revised.
        let (mut engine, reg) = build_engine_with(Mode::ContextAware, spec_config(8));
        engine.ingest(pr(&reg, 10, 1, "travel", 0)).unwrap();
        engine.settle();
        engine.ingest(pr(&reg, 3, 2, "travel", 0)).unwrap();
        assert_eq!(engine.late_dropped, 1);
        assert_eq!(engine.spec_rebuilds, 0, "a dropped event never revises");
        engine.finish();
    }

    #[test]
    fn equal_timestamp_ties_append_in_arrival_order() {
        let (mut engine, reg) = build_engine_with(Mode::ContextAware, spec_config(6));
        engine.ingest(pr(&reg, 5, 1, "travel", 0)).unwrap();
        engine.ingest(pr(&reg, 5, 2, "travel", 0)).unwrap();
        engine.ingest(pr(&reg, 5, 3, "travel", 0)).unwrap();
        assert_eq!(engine.spec_rebuilds, 0, "ties are in-order, not revisions");
        engine.finish();
    }

    #[test]
    fn zero_slack_speculation_is_a_passthrough() {
        // Degenerate but legal: with no slack nothing is ever revised,
        // and every output is emitted exactly once then confirmed.
        let (mut engine, reg) = build_engine_with(Mode::ContextAware, spec_config(0));
        engine.ingest(marker(&reg, "ManySlowCars", 5, 0)).unwrap();
        engine.ingest(pr(&reg, 8, 1, "travel", 0)).unwrap();
        engine.ingest(pr(&reg, 12, 2, "travel", 0)).unwrap();
        let report = engine.finish();
        assert_eq!(report.outputs_of("TollNotification"), 2);
        assert_eq!(engine.spec_retractions, 0);
        assert_eq!(engine.spec_rebuilds, 0);
        assert_eq!(
            fold(&engine.collected_records),
            canonical(&engine.collected_outputs)
        );
    }

    /// A stateful pair model (the TRAFFIC toll pattern is a stateless
    /// passthrough, so it never exercises the partial slab).
    fn build_pair_engine(config: EngineConfig) -> (Engine, SchemaRegistry) {
        use caesar_algebra::translate::{translate_query_set, TranslateOptions};
        use caesar_optimizer::{Optimizer, OptimizerConfig};
        use caesar_query::{parser::parse_model, queryset::QuerySet};
        const PAIRS: &str = r#"
            MODEL pairs DEFAULT on
            CONTEXT on {
                DERIVE Pair(a.vid, b.vid)
                    PATTERN SEQ(PositionReport a, PositionReport b) WITHIN 10
            }
        "#;
        let model = parse_model(PAIRS).unwrap();
        let qs = QuerySet::from_model(&model).unwrap();
        let mut reg = registry();
        let t = translate_query_set(&qs, &mut reg, &TranslateOptions::default()).unwrap();
        let program =
            Optimizer::new(OptimizerConfig::default(), Default::default()).optimize(t, &reg);
        let engine = Engine::new(program, &reg, config);
        (engine, reg)
    }

    /// Every partial-slab slot of the settled core satisfies the
    /// generation-index invariants.
    fn pools_consistent(engine: &Engine) -> bool {
        let (_, partitions) = engine.unbound_program();
        let mut states = partitions.values().flat_map(PartitionRun::states);
        states.all(|state| state.pool_consistent())
    }

    /// Hand-computed pool accounting across a speculative splice+replay.
    ///
    /// `SEQ(PositionReport a, PositionReport b) WITHIN 10`, slack 6,
    /// arrivals `t = 1, 20, 22` then straggler `t = 18`:
    ///
    /// * t=1  (vid 1): opens partial P1 → slot 0. Live 1.
    /// * t=20 (vid 2): P1 is outside the window (20−1 > 10), so it is
    ///   expired and its slot freed around this transaction; P2 opens.
    /// * t=22 (vid 3): extends P2 → `Pair(2,3)`; P3 opens on a recycled
    ///   slot. The fork emitted `Pair(2,3)` speculatively.
    /// * t=18 (vid 4): within slack (watermark 22−6 = 16), forces a
    ///   revision; the replay of `18, 20, 22` derives `Pair(4,2)`,
    ///   `Pair(4,3)` and `Pair(2,3)` — the books diff re-emits the two
    ///   new pairs and retracts nothing.
    ///
    /// Settled-core slab timeline (strict order `1, 18, 20, 22`): P1 is
    /// the only partial ever freed, and P(18), P(20), P(22) are live
    /// together at t=22. Exactly **one** slot reuse and a **peak of 3**
    /// live partials — in both the speculative engine's settled core and
    /// the strict twin — and the metrics counters report them.
    #[test]
    fn splice_replay_reuses_pooled_partials() {
        let spec_cfg = spec_config(6)
            .to_builder()
            .observability(ObservabilityLevel::Counters)
            .build();
        let strict_cfg = strict_config(6)
            .to_builder()
            .observability(ObservabilityLevel::Counters)
            .build();
        let (mut spec, reg) = build_pair_engine(spec_cfg);
        let (mut strict, _) = build_pair_engine(strict_cfg);
        let arrivals = [
            pr(&reg, 1, 1, "travel", 0),
            pr(&reg, 20, 2, "travel", 0),
            pr(&reg, 22, 3, "travel", 0),
            pr(&reg, 18, 4, "travel", 0), // straggler: splice + replay
        ];
        for event in arrivals {
            spec.ingest(event.clone()).unwrap();
            strict.ingest(event).unwrap();
        }
        assert!(spec.spec_rebuilds >= 1, "the straggler forced a revision");
        let a = spec.finish();
        let b = strict.finish();

        // The replay over recycled slots produced exactly the strict
        // outputs: no match ever assembled from a stale partial.
        assert_eq!(a.outputs_of("Pair"), 3);
        assert_eq!(a.outputs_by_type, b.outputs_by_type);
        assert_eq!(
            canonical(&spec.collected_outputs),
            canonical(&strict.collected_outputs)
        );
        assert_eq!(
            fold(&spec.collected_records),
            canonical(&spec.collected_outputs)
        );
        assert_eq!(spec.spec_retractions, 0, "old pairs all survived replay");

        // Hand-computed slab accounting, surfaced through the metrics.
        for engine in [&spec, &strict] {
            assert!(pools_consistent(engine));
            let counters = &engine.metrics_snapshot().counters;
            assert_eq!(counters["spec_pool_reuse"], 1, "P1's slot reused once");
            assert_eq!(counters["partials_peak"], 3, "P18, P20, P22 live at t=22");
        }
    }
}
