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
//! still decides *settlement*, and the settled core still produces the
//! byte-identical strict output. On top sits a [`Speculation`] overlay:
//!
//! * `spec` — a fork of the settled core, made once and advanced
//!   eagerly over the arrival stream; what it derives is emitted at
//!   once as [`OutputRecord::Emit`] records.
//! * `pending` — per stream partition, its *unsettled* events (its
//!   share of the reorder buffer, `(time, arrival)`-ordered) and its
//!   *unconfirmed* emissions: one entry per producing transaction the
//!   fork has executed and the core has not, oldest first.
//!
//! After every arrival, *fold(records) = settled outputs ⊎ unconfirmed
//! emissions*, and a partition's unconfirmed entries are what the core
//! will derive, transaction by transaction, from the events the fork
//! has executed there. At `finish()` everything settles, `pending`
//! drains, and the fold equals the strict output byte for byte.
//!
//! An arrival `(p, t)` is one of four cases:
//!
//! 1. **Too late** (beyond slack): counted and dropped, like strict.
//! 2. **Append** (`t` at or after the fork's frontier timestamp): the
//!    fork ingests it and emits what that releases.
//! 3. **Late, head state** (`t` below the frontier, `p` has executed
//!    nothing at or after `t`): the fork executes `(p, t)` as `p`'s
//!    next transaction.
//! 4. **Revision** (`p` has executed at or after `t`): the fork's run
//!    state and context row *of `p`* are overwritten with the settled
//!    core's, and `p`'s events the core has not executed — its
//!    scheduler's frontier events of `p`, then `p`'s unsettled events
//!    below the fork's frontier — run again. `p`'s emissions from `t`
//!    on are diffed against the replay's, transaction by transaction:
//!    retractions for what is no longer derived, then the corrections.
//!
//! In every case the buffer's release settles into the core first, and
//! what the core derives confirms the oldest entries of the partitions
//! it executed. Nothing walks another partition: §6.2 orders only
//! conflicting operations and transactions of different partitions
//! never conflict, so the fork's schedule — `p` rewound and replayed
//! while the others stay ahead — is as correct as the strict one, and
//! determinism makes fork and core agree partition by partition
//! (DESIGN.md, "The revision ledger").

use super::{Capture, Consistency as C, Engine};
use crate::obs::{CounterId, Stage};
use caesar_events::{Event, EventError, OutputRecord, PartitionId, PartitionMap, Time};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

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

/// One unconfirmed producing transaction of a partition.
#[derive(Debug, Clone, Copy)]
struct Emitted {
    time: Time,
    /// How many of the partition's `outputs` it emitted.
    count: usize,
    /// Stream high-watermark at first emission — settling at watermark
    /// `h` means speculation led strictness by `h − emit_high` ticks.
    emit_high: Time,
}

/// What one partition has in flight (see the module docs).
#[derive(Debug, Default)]
struct Pending {
    /// Its events in the reorder buffer, `(time, arrival)`-ordered.
    events: VecDeque<Event>,
    /// Its transactions the fork executed and the core has not, by
    /// time, and what they emitted, end to end.
    txns: VecDeque<Emitted>,
    outputs: VecDeque<Event>,
}

/// The speculative overlay of an [`Engine`] (see the module docs).
#[derive(Debug)]
pub(super) struct Speculation {
    /// Fork of the settled core, advanced eagerly over arrival order.
    spec: Box<Engine>,
    /// The partitions with anything in flight.
    pending: PartitionMap<Pending>,
    /// What the core derived while the current arrival settled.
    settled: Capture,
    /// Buffers of a revision, empty between arrivals: the events to run
    /// again, the revised partition's emissions from the late event on,
    /// the corrected emissions, the diff's match marks.
    replay: Vec<Event>,
    old: Pending,
    corrected: Vec<Event>,
    matched: Vec<bool>,
}

/// Drops `p`'s record once nothing of `p` is in flight.
fn release(pending: &mut PartitionMap<Pending>, p: PartitionId) {
    let idle = |list: &Pending| list.events.is_empty() && list.txns.is_empty();
    if pending.get(&p.0).is_some_and(idle) {
        pending.remove(&p.0);
    }
}

impl Engine {
    /// (Re-)creates the speculative overlay to match the configured
    /// consistency level; called on construction and after a restore —
    /// the only places the core is forked.
    pub(super) fn init_speculation(&mut self) {
        self.speculation = (self.config.consistency == C::Speculative).then(|| {
            Box::new(Speculation {
                spec: self.fork_core(),
                pending: PartitionMap::default(),
                settled: Capture::default(),
                replay: Vec::new(),
                old: Pending::default(),
                corrected: Vec::new(),
                matched: Vec::new(),
            })
        });
    }

    /// True when no speculative state is outstanding (trivially true in
    /// strict mode) — the precondition of [`snapshot_state`](Self::snapshot_state).
    #[must_use]
    pub fn speculation_settled(&self) -> bool {
        self.speculation
            .as_ref()
            .is_none_or(|sp| sp.pending.is_empty())
    }

    /// One speculative arrival (the distributor entry point in
    /// speculative mode).
    pub(super) fn ingest_speculative(&mut self, event: Event) -> Result<(), EventError> {
        // The reorder buffer still judges lateness and decides what
        // settles, but visibility no longer waits for it.
        let released = if let Some(reorder) = self.reorder.as_mut() {
            let reorder_span = self.obs.span_start();
            let pushed = reorder.push(event.clone());
            self.late_dropped = reorder.late_dropped;
            self.obs.span_end(Stage::Reorder, reorder_span);
            match pushed {
                Ok(ready) => ready,
                // Beyond slack: dropped; nothing was speculated on it.
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
        let (p, t) = (event.partition, event.time());
        // The fork has executed every transaction below its frontier
        // timestamp, so an older arrival is late. Equal timestamps
        // append: the frontier's transactions have not run.
        let frontier = sp.spec.scheduler.progress();
        let late = t < frontier;
        let mut revise = false;
        if self.reorder.is_some() {
            // Mirror the buffer first: whatever fails below, `pending`
            // holds exactly the buffer's contents. `released` is a
            // `(time, arrival)` prefix of it, hence of each partition's
            // share.
            let list = sp.pending.entry(p.0).or_default();
            let pos = list.events.partition_point(|e| e.time() <= t);
            // Has the fork executed `p` at or after `t`? Its unsettled
            // events below the frontier ran, and so did its settled
            // ones, which the core holds unexecuted at one timestamp:
            // its own frontier's.
            let ran = |e: &Event| e.partition == p && (t..frontier).contains(&e.time());
            let core = &self.scheduler;
            revise = late
                && (list.events.iter().any(ran)
                    || (core.progress() == t && core.frontier().iter().any(ran)));
            list.events.insert(pos, event.clone());
            for e in &released {
                let settled = sp.pending.get_mut(&e.partition.0);
                let settled = settled.and_then(|list| list.events.pop_front());
                debug_assert_eq!(settled.as_ref(), Some(e), "pending mirrors the buffer");
                release(&mut sp.pending, e.partition);
            }
        }
        // Settle before the fork moves: a revision rewinds to the state
        // the release leaves. The core never passes the fork — what it
        // executes here the fork executed on an earlier arrival, or
        // (zero slack) executes below, before `confirm`.
        let mut released = released.into_iter();
        self.capturing(sp, |core| {
            released.try_for_each(|e| core.ingest_one_ordered(e))
        })?;
        if !late {
            sp.spec.ingest_one_ordered(event)?;
        } else if revise {
            self.rewind_and_replay(sp, p, t, frontier);
        } else {
            sp.spec.execute_all(std::slice::from_ref(&event));
        }
        self.publish(sp, revise.then_some((p, t)));
        self.confirm(sp);
        // Not the fork's own progress: a late arrival may still run
        // below it, but never below the settled core's.
        sp.spec.sweep_to(self.scheduler.progress());
        Ok(())
    }

    /// Runs `settle` on the strict core, capturing into `sp.settled`
    /// what the core derives meanwhile — which may include outputs of
    /// *earlier*-settled events whose transactions only now matured.
    fn capturing<R>(&mut self, sp: &mut Speculation, settle: impl FnOnce(&mut Self) -> R) -> R {
        self.spec_capture = Some(std::mem::take(&mut sp.settled));
        let result = settle(self);
        sp.settled = self.spec_capture.take().unwrap_or_default();
        result
    }

    /// The revision step for a late `(p, t)` (see the module docs): the
    /// fork's state of `p` becomes the settled core's, and `p`'s events
    /// the core has not executed run again, the late one among them.
    /// The fork's capture then holds everything `p` derives from `t`
    /// on: what the core just settled, then the replay.
    fn rewind_and_replay(&mut self, sp: &mut Speculation, p: PartitionId, t: Time, frontier: Time) {
        sp.spec.copy_partition_from(self, p);
        let capture = sp.spec.spec_capture.as_mut().expect("the fork captures");
        for (q, time, events) in sp.settled.iter() {
            if q == p && time >= t {
                capture.push(q, time, events);
            }
        }
        let replay = &mut sp.replay;
        let in_core = self.scheduler.frontier().iter();
        replay.extend(in_core.filter(|e| e.partition == p).cloned());
        let unsettled = sp.pending.get(&p.0).into_iter().flat_map(|l| &l.events);
        let below = unsettled.take_while(|e| e.time() < frontier);
        replay.extend(below.cloned());
        let replayed = replay.len() as u64;
        self.spec_rebuilds += 1;
        self.spec_replayed += replayed;
        self.obs.inc(CounterId::SpeculativeRebuilds);
        self.obs.add(CounterId::SpeculativeReplayedEvents, replayed);
        sp.spec.execute_all(replay);
        replay.clear();
    }

    /// Turns what the fork derived during this arrival into records and
    /// unconfirmed entries. After a revision of `(p, t)` the capture is
    /// `p`'s alone and is diffed, transaction by transaction, against
    /// what `p` had emitted for the same stretch (before `t`, the same
    /// by determinism). All retractions precede the corrected
    /// emissions, and both follow execution order, so the record stream
    /// is deterministic for a given arrival sequence.
    fn publish(&mut self, sp: &mut Speculation, revised: Option<(PartitionId, Time)>) {
        let high = self.arrival_watermark();
        let capture = sp.spec.spec_capture.as_mut().expect("the fork captures");
        let (old, corrected) = (&mut sp.old, &mut sp.corrected);
        // From where the revised partition ran again: the late event,
        // or — it precedes the settled horizon — the core's frontier.
        let from = revised.map_or(0, |(_, t)| t.min(self.scheduler.progress()));
        if let Some(list) = revised.and_then(|(p, _)| sp.pending.get_mut(&p.0)) {
            let first = list.txns.partition_point(|e| e.time < from);
            let emitted: usize = list.txns.range(first..).map(|e| e.count).sum();
            old.txns.extend(list.txns.drain(first..));
            let kept = list.outputs.len() - emitted;
            old.outputs.extend(list.outputs.drain(kept..));
        }
        let mut rest = &*old.outputs.make_contiguous();
        let mut take = |e: &Emitted| {
            let (events, tail) = rest.split_at(e.count);
            rest = tail;
            events
        };
        let mut old_txns = old.txns.iter().peekable();
        for (q, time, new) in capture.iter() {
            let (mut prior, mut emit_high): (&[Event], _) = (&[], high);
            while let Some(e) = old_txns.next_if(|e| e.time <= time) {
                if e.time == time {
                    (prior, emit_high) = (take(e), e.emit_high);
                } else {
                    self.retract(take(e));
                }
            }
            debug_assert!(revised.is_none_or(|(_, t)| time >= t) || prior == new);
            self.diff(prior, new, &mut sp.matched, corrected);
            let list = sp.pending.entry(q.0).or_default();
            list.outputs.extend(new.iter().cloned());
            list.txns.push_back(Emitted {
                time,
                count: new.len(),
                emit_high,
            });
        }
        for e in old_txns {
            self.retract(take(e));
        }
        self.spec_emits += corrected.len() as u64;
        self.obs
            .add(CounterId::SpeculativeEmits, corrected.len() as u64);
        if self.config.collect_outputs {
            let records = corrected.drain(..).map(OutputRecord::Emit);
            self.collected_records.extend(records);
        }
        corrected.clear();
        old.txns.clear();
        old.outputs.clear();
        capture.clear();
    }

    /// One transaction's emissions before (`prior`) and after (`new`) a
    /// revision: what is no longer derived is retracted, what is newly
    /// derived joins `corrected` — by event equality and multiplicity.
    /// Untouched transactions, nearly all, re-derive the same events in
    /// the same order and cost one comparison per output.
    fn diff(
        &mut self,
        prior: &[Event],
        new: &[Event],
        matched: &mut Vec<bool>,
        corrected: &mut Vec<Event>,
    ) {
        let head = prior.iter().zip(new).take_while(|(a, b)| a == b).count();
        let (prior, new) = (&prior[head..], &new[head..]);
        let pairs = prior.iter().rev().zip(new.iter().rev());
        let tail = pairs.take_while(|(a, b)| a == b).count();
        let (prior, new) = (&prior[..prior.len() - tail], &new[..new.len() - tail]);
        matched.clear();
        matched.resize(new.len(), false);
        for event in prior {
            let mut candidates = new.iter().zip(matched.iter_mut());
            match candidates.find(|(n, seen)| !**seen && *n == event) {
                Some((_, seen)) => *seen = true,
                None => self.retract(std::slice::from_ref(event)),
            }
        }
        let unmatched = new.iter().zip(matched.iter()).filter(|(_, seen)| !**seen);
        corrected.extend(unmatched.map(|(n, _)| n.clone()));
    }

    /// Retracts emitted events: one `Retract` record each.
    fn retract(&mut self, events: &[Event]) {
        self.spec_retractions += events.len() as u64;
        self.obs
            .add(CounterId::SpeculativeRetractions, events.len() as u64);
        if self.config.collect_outputs {
            let records = events.iter().cloned().map(OutputRecord::Retract);
            self.collected_records.extend(records);
        }
    }

    /// Confirms what the core derived while settling: each of its
    /// transactions pops its partition's oldest unconfirmed entry —
    /// which the fork emitted, or a revision corrected, before —
    /// crediting the speculation-lead metric.
    fn confirm(&mut self, sp: &mut Speculation) {
        let high = self.arrival_watermark();
        for (q, time, events) in sp.settled.iter() {
            let list = sp.pending.get_mut(&q.0);
            let list = list.expect("the fork emitted what the core derives");
            let emitted = list.txns.pop_front().expect("as above");
            debug_assert!(
                emitted.time == time && list.outputs.iter().take(emitted.count).eq(events),
                "the core derives what the fork emitted"
            );
            list.outputs.drain(..emitted.count);
            let lead = high.saturating_sub(emitted.emit_high) * emitted.count as u64;
            self.obs.add(CounterId::SpeculationLeadTicks, lead);
            release(&mut sp.pending, q);
        }
        sp.settled.clear();
    }

    /// Forces full settlement of the speculative overlay: every
    /// buffered event settles into the strict core and every
    /// unconfirmed emission is confirmed, leaving a plain strict state —
    /// the precondition for [`snapshot_state`](Self::snapshot_state),
    /// which is why the checkpoint paths call this first. No records
    /// are emitted (everything settling was emitted speculatively), but
    /// the lateness watermark advances: later arrivals older than the
    /// settled horizon are dropped, as if the slack had been waited
    /// out. A no-op in strict mode.
    pub fn settle(&mut self) {
        let Some(mut sp) = self.speculation.take() else {
            return;
        };
        if let Some(reorder) = self.reorder.as_mut() {
            let flushed = reorder.flush().into_iter();
            self.capturing(&mut sp, |core| {
                flushed.for_each(|e| drop(core.ingest_one_ordered(e)));
            });
        }
        self.close(sp);
    }

    /// Speculative end-of-stream: the fork finishes first (its trailing
    /// outputs are emitted as records), then the strict core finishes
    /// and confirms everything outstanding.
    pub(super) fn finish_speculative(&mut self) {
        let mut sp = self.speculation.take().expect("speculative mode");
        sp.spec.drain();
        self.publish(&mut sp, None);
        self.capturing(&mut sp, Self::finish_strict);
        self.close(sp);
    }

    /// Confirms a settlement that left nothing buffered: fork and core
    /// have executed the same transactions, so nothing stays in flight.
    fn close(&mut self, mut sp: Box<Speculation>) {
        self.confirm(&mut sp);
        let unconfirmed = sp.pending.values().any(|list| !list.txns.is_empty());
        debug_assert!(!unconfirmed, "fork and core agree once everything settled");
        sp.pending.clear();
        self.speculation = Some(sp);
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{build_engine_with, marker, pr, registry};
    use super::*;
    use crate::engine::{EngineConfig, ExecutionMode as Mode};
    use crate::obs::ObservabilityLevel;
    use caesar_events::{SchemaRegistry, Value};
    use std::collections::BTreeMap;

    fn record_key(event: &Event) -> Vec<u8> {
        caesar_events::encode_to_vec(event)
    }

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
        // replays, the diff finds every transaction unchanged, and no
        // retraction is emitted.
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
        let mut states = engine.partitions.values().flat_map(|run| run.states.iter());
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
    ///   `Pair(4,3)` and `Pair(2,3)` — the diff re-emits the two
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

    /// Congested traffic over `parts` partitions, `per_tick` events a
    /// tick dealt round-robin, a context flip per partition every few
    /// ticks (so outputs depend on what shares a window with what);
    /// every event then arrives up to `window` slots late — a stable
    /// sort by `index + delay`, the ledger's disorder.
    fn disordered_traffic(
        reg: &SchemaRegistry,
        parts: u32,
        ticks: Time,
        per_tick: u64,
        window: u64,
    ) -> Vec<Event> {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |below: u64| {
            // xorshift64*
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 33) % below
        };
        let mut keyed = Vec::new();
        for t in 1..=ticks {
            for i in 0..per_tick {
                let p = ((t * per_tick + i) % u64::from(parts)) as u32;
                let event = match next(16) {
                    0 => marker(reg, "ManySlowCars", t, p),
                    1 => marker(reg, "FewFastCars", t, p),
                    k => pr(
                        reg,
                        t,
                        (t * 31 + i) as i64,
                        ["travel", "exit"][(k == 2) as usize],
                        p,
                    ),
                };
                keyed.push((keyed.len() as u64 + next(window + 1), event));
            }
        }
        keyed.sort_by_key(|(key, _)| *key);
        keyed.into_iter().map(|(_, event)| event).collect()
    }

    /// Runs `arrivals` speculatively at `slack`, checks the fold
    /// against a strict run, and returns the engine.
    fn run_speculative(arrivals: &[Event], slack: Time) -> Engine {
        let (mut strict, _) = build_engine_with(Mode::ContextAware, strict_config(slack));
        let (mut spec, _) = build_engine_with(Mode::ContextAware, spec_config(slack));
        for event in arrivals {
            strict.ingest(event.clone()).unwrap();
            spec.ingest(event.clone()).unwrap();
        }
        strict.finish();
        spec.finish();
        assert_eq!(strict.late_dropped, 0, "the slack covers the disorder");
        assert_eq!(
            fold(&spec.collected_records),
            canonical(&strict.collected_outputs)
        );
        spec
    }

    /// Events replayed per rewind.
    fn replay_per_rebuild(engine: &Engine) -> f64 {
        assert!(engine.spec_rebuilds > 20, "the stream must force revisions");
        engine.spec_replayed as f64 / engine.spec_rebuilds as f64
    }

    /// `p`'s unsettled events and unexecuted settled ones.
    fn in_flight(engine: &Engine, p: PartitionId) -> usize {
        let pending = &engine.speculation.as_ref().unwrap().pending;
        let unsettled = pending.get(&p.0).map_or(0, |list| list.events.len());
        let in_core = engine.scheduler.frontier().iter();
        unsettled + in_core.filter(|e| e.partition == p).count()
    }

    /// Unconfirmed emissions by partition.
    fn unconfirmed(engine: &Engine) -> BTreeMap<u32, Vec<Event>> {
        let pending = &engine.speculation.as_ref().unwrap().pending;
        let outputs = |list: &Pending| list.outputs.iter().cloned().collect();
        pending
            .iter()
            .map(|(p, list)| (*p, outputs(list)))
            .collect()
    }

    #[test]
    fn a_revision_costs_what_its_partition_holds_unsettled() {
        let reg = registry();
        let fanned = disordered_traffic(&reg, 8, 150, 16, 48);
        let mut funnelled = fanned.clone();
        for event in &mut funnelled {
            event.partition = PartitionId(0);
        }
        // The same arrivals over one partition and over eight: a rewind
        // replays the straggler's partition, an eighth of the stream.
        let one = replay_per_rebuild(&run_speculative(&funnelled, 4));
        let eight = replay_per_rebuild(&run_speculative(&fanned, 4));
        assert!(eight * 4.0 <= one, "{eight} of {one} events per rewind");

        // Arrival by arrival: never more than the partition had in
        // flight (the late event included), and whatever the arrival
        // reveals or retracts is the partition's own; the other
        // partitions' unconfirmed emissions only ever get confirmed.
        let (mut engine, _) = build_engine_with(Mode::ContextAware, spec_config(4));
        let mut revisions = 0;
        for event in &fanned {
            let p = event.partition;
            let bound = in_flight(&engine, p) as u64 + 1;
            let before = (engine.spec_replayed, engine.spec_rebuilds);
            let (emitted, records) = (unconfirmed(&engine), engine.collected_records.len());
            engine.ingest(event.clone()).unwrap();
            assert!(engine.spec_replayed - before.0 <= bound);
            if engine.spec_rebuilds == before.1 {
                assert_eq!(engine.spec_replayed, before.0, "only rewinds replay");
                continue;
            }
            revisions += 1;
            for record in &engine.collected_records[records..] {
                assert_eq!(record.event().partition, p);
            }
            let now = unconfirmed(&engine);
            for (q, was) in emitted.iter().filter(|(q, _)| **q != p.0) {
                let left = now.get(q).map_or(&[][..], Vec::as_slice);
                assert!(was.ends_with(left), "partition {q} was revised");
            }
        }
        assert!(revisions > 20);
        engine.finish();
    }

    #[test]
    fn replay_grows_with_the_slack_and_not_with_the_partitions() {
        let reg = registry();
        // One stream, at most 4 ticks of disorder; a wider slack keeps
        // more of a partition unsettled, so a rewind replays more — at
        // most in proportion.
        let stream = disordered_traffic(&reg, 1, 400, 4, 12);
        let by_slack =
            [4, 32, 128].map(|slack| replay_per_rebuild(&run_speculative(&stream, slack)));
        assert!(
            by_slack[0] < by_slack[1] && by_slack[1] < by_slack[2],
            "{by_slack:?}"
        );
        assert!(by_slack[1] <= 8.0 * 1.25 * by_slack[0], "{by_slack:?}");
        assert!(by_slack[2] <= 4.0 * 1.25 * by_slack[1], "{by_slack:?}");

        // The same traffic in each of eight partitions: eight times the
        // stream, the same replay per rewind.
        let copies = |event: &Event| {
            let mut event = event.clone();
            (0..8).map(move |p| {
                event.partition = PartitionId(p);
                event.clone()
            })
        };
        let eightfold: Vec<Event> = stream.iter().flat_map(copies).collect();
        let eight = replay_per_rebuild(&run_speculative(&eightfold, 32));
        assert!(
            eight <= 1.1 * by_slack[1],
            "{eight} against {}",
            by_slack[1]
        );
    }

    #[test]
    fn a_late_transaction_on_head_state_is_no_revision() {
        let (mut engine, reg) = build_engine_with(Mode::ContextAware, spec_config(10));
        engine.ingest(marker(&reg, "ManySlowCars", 2, 1)).unwrap();
        for t in 3..=9 {
            engine.ingest(pr(&reg, t, t as i64, "travel", 0)).unwrap();
        }
        assert!(engine.collected_records.is_empty(), "partition 0 is clear");
        // Late for the stream, but partition 1 has executed nothing at
        // or after t = 5: the report runs as its next transaction and
        // its toll is out before the call returns.
        engine.ingest(pr(&reg, 5, 50, "travel", 1)).unwrap();
        assert_eq!((engine.spec_rebuilds, engine.spec_replayed), (0, 0));
        assert_eq!(engine.collected_records.len(), 1);
        assert_eq!(
            engine.collected_records[0].event().partition,
            PartitionId(1)
        );
        // A second report at the same timestamp joins a transaction the
        // fork has executed: that one is a revision, of two events plus
        // the switch before them.
        engine.ingest(pr(&reg, 5, 51, "travel", 1)).unwrap();
        assert_eq!((engine.spec_rebuilds, engine.spec_replayed), (1, 3));
        assert_eq!(engine.spec_retractions, 0);
        let report = engine.finish();
        assert_eq!(report.outputs_of("TollNotification"), 2);
        assert_eq!(
            fold(&engine.collected_records),
            canonical(&engine.collected_outputs)
        );
    }

    /// Hand-computed: congestion opens at t = 3; reports at t = 9 and
    /// 12 arrive in order, so `Toll(1)@9` is out. A straggler
    /// `PR(7)@6` re-derives t = 6 with one toll; its exact duplicate,
    /// later still, makes the same transaction derive the toll twice —
    /// one more emission, no retraction. A late `FewFastCars@5` then
    /// ends the congestion before all of them: both copies and
    /// `Toll(1)` are retracted, copy by copy, in execution order.
    #[test]
    fn late_duplicates_retract_and_re_emit_by_multiplicity() {
        let (mut engine, reg) = build_engine_with(Mode::ContextAware, spec_config(10));
        engine.ingest(marker(&reg, "ManySlowCars", 3, 0)).unwrap();
        engine.ingest(pr(&reg, 9, 1, "travel", 0)).unwrap();
        engine.ingest(pr(&reg, 12, 2, "travel", 0)).unwrap();
        for emits in [2, 3] {
            engine.ingest(pr(&reg, 6, 7, "travel", 0)).unwrap();
            assert_eq!((engine.spec_emits, engine.spec_retractions), (emits, 0));
        }
        engine.ingest(marker(&reg, "FewFastCars", 5, 0)).unwrap();
        assert_eq!((engine.spec_emits, engine.spec_retractions), (3, 3));
        assert_eq!(engine.spec_rebuilds, 3);
        let vids: Vec<(bool, Value)> = engine
            .collected_records
            .iter()
            .map(|r| (r.is_retraction(), r.event().attrs[0].clone()))
            .collect();
        let expected = [
            (false, 1),
            (false, 7),
            (false, 7),
            (true, 7),
            (true, 7),
            (true, 1),
        ];
        assert_eq!(
            vids,
            expected.map(|(retract, vid)| (retract, Value::Int(vid)))
        );
        let report = engine.finish();
        assert_eq!(report.outputs_of("TollNotification"), 0, "clear from 5 on");
        assert_eq!(
            fold(&engine.collected_records),
            canonical(&engine.collected_outputs)
        );
    }

    #[test]
    fn a_transaction_is_diffed_as_a_multiset() {
        let (mut engine, reg) = build_engine_with(Mode::ContextAware, spec_config(4));
        let [a, b, c] = [1, 2, 3].map(|vid| pr(&reg, 5, vid, "travel", 0));
        let prior = [a.clone(), a.clone(), b.clone(), c.clone()];
        let new = [a.clone(), c.clone(), c.clone(), c.clone()];
        let (mut matched, mut corrected) = (Vec::new(), Vec::new());
        engine.diff(&prior, &new, &mut matched, &mut corrected);
        // One of the two `a`s and the `b` are gone, two `c`s are new.
        let retracted: Vec<&Event> = engine.collected_records.iter().map(|r| r.event()).collect();
        assert_eq!(retracted, [&a, &b]);
        assert!(engine
            .collected_records
            .iter()
            .all(OutputRecord::is_retraction));
        assert_eq!(corrected, [c.clone(), c]);
    }

    #[test]
    fn a_refused_event_leaves_overlay_and_buffer_agreeing() {
        // Zero slack: the only ingest error an arrival can raise. The
        // stale event is refused, nothing is recorded or left in
        // flight, and the stream goes on to the strict result.
        let (mut spec, reg) = build_engine_with(Mode::ContextAware, spec_config(0));
        let (mut strict, _) = build_engine_with(Mode::ContextAware, strict_config(0));
        for engine in [&mut spec, &mut strict] {
            engine.ingest(marker(&reg, "ManySlowCars", 5, 0)).unwrap();
            engine.ingest(pr(&reg, 8, 1, "travel", 0)).unwrap();
            let refused = engine.ingest(pr(&reg, 6, 2, "travel", 0));
            assert!(matches!(
                refused,
                Err(EventError::OutOfOrder {
                    watermark: 8,
                    timestamp: 6
                })
            ));
        }
        assert!(spec.collected_records.is_empty());
        assert!(spec.speculation_settled(), "nothing was left in flight");
        for engine in [&mut spec, &mut strict] {
            engine.ingest(pr(&reg, 12, 3, "travel", 0)).unwrap();
        }
        let (a, b) = (spec.finish(), strict.finish());
        assert_eq!(a.events_in, b.events_in);
        assert_eq!(a.outputs_by_type, b.outputs_by_type);
        assert_eq!(
            fold(&spec.collected_records),
            canonical(&strict.collected_outputs)
        );
    }
}
