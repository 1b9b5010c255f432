//! Negation: one buffer of negated-type events per check
//! ([`NegBuffer`]), its keyed index ([`NegIndex`]), the probe plan
//! compiled once per check ([`NegPlan`]), key hashing, and the borrow
//! bundle a probe runs through ([`NegCtx`]).

use super::{Candidate, NegationCheck, PatternStats, WithCand};
use crate::expr::{CompiledExpr, Slots};
use caesar_events::{Event, PartitionHasher, Time, Value};
use caesar_query::ast::BinOp;
use serde::{Deserialize, Deserializer, Serialize, Serializer};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::hash::BuildHasherDefault;

/// Splits an equality conjunct into `(negated side, positives side)`
/// when one operand is a pure function of the candidate slot and the
/// other never touches it.
fn split_equality(pred: &CompiledExpr, cand_slot: u8) -> Option<(&CompiledExpr, &CompiledExpr)> {
    let CompiledExpr::Bin {
        op: BinOp::Eq,
        lhs,
        rhs,
    } = pred
    else {
        return None;
    };
    let (l_cand, l_other) = lhs.slot_usage(cand_slot);
    let (r_cand, r_other) = rhs.slot_usage(cand_slot);
    if l_cand && !l_other && !r_cand {
        Some((lhs, rhs))
    } else if r_cand && !r_other && !l_cand {
        Some((rhs, lhs))
    } else {
        None
    }
}

/// The negated side of a key component.
#[derive(Debug, Clone)]
enum NegSide {
    /// An attribute of the negated event: its value is read from the
    /// buffered event itself.
    Attr(usize),
    /// Anything else (`p1.sec + 30`): evaluated once per buffered event,
    /// its value stored beside the event.
    Eval(CompiledExpr),
}

/// One component of a composite key: `negated side = positives side`.
#[derive(Debug, Clone)]
struct KeyPart {
    neg: NegSide,
    /// Evaluated once per probe.
    pos: CompiledExpr,
}

/// How one negation check probes its buffer, compiled once from the
/// check's conjuncts when its program is built
/// ([`NfaProgram::new`]): every conjunct that [`split_equality`] splits
/// into `negated side = positives side` is one component of a composite
/// key, the others are residual. A plan without a key component scans.
#[derive(Debug, Clone, Default)]
pub(crate) struct NegPlan {
    key: Vec<KeyPart>,
    /// Components with an [`NegSide::Eval`] side — the values an
    /// indexed entry stores.
    stored: usize,
    /// The conjuncts outside the key, evaluated only on entries whose
    /// key equals the probe's.
    residual: Vec<CompiledExpr>,
}

impl NegPlan {
    /// The plans of `negations`, whose negated candidate binds at slot
    /// `arity`.
    pub(crate) fn compile_all(arity: usize, negations: &[NegationCheck]) -> Vec<NegPlan> {
        let cand_slot = arity as u8;
        let compile = |check: &NegationCheck| {
            let mut plan = NegPlan::default();
            for pred in &check.predicates {
                let Some((neg, pos)) = split_equality(pred, cand_slot) else {
                    plan.residual.push(pred.clone());
                    continue;
                };
                let neg = match neg {
                    CompiledExpr::Attr { attr, .. } => NegSide::Attr(usize::from(*attr)),
                    _ => {
                        plan.stored += 1;
                        NegSide::Eval(neg.clone())
                    }
                };
                let pos = pos.clone();
                plan.key.push(KeyPart { neg, pos });
            }
            plan
        };
        negations.iter().map(compile).collect()
    }

    /// The key values of a buffered event, in component order:
    /// attributes read from the event, the other components from
    /// `stored`.
    fn entry_key<'a>(
        &'a self,
        event: &'a Event,
        mut stored: impl Iterator<Item = &'a Value> + 'a,
    ) -> impl Iterator<Item = &'a Value> + 'a {
        self.key.iter().map(move |part| match part.neg {
            NegSide::Attr(attr) => &event.attrs[attr],
            NegSide::Eval(_) => stored.next().expect("one stored value per evaluated side"),
        })
    }
}

/// Whether a value can be a key component. Between Int, Bool and Str
/// values `eq_value` holds exactly when variant and payload are equal,
/// so keys compare exactly and hash consistently; Float (NaN, `1 =
/// 1.0`) and Null (equal to nothing) cannot be keys.
fn hashable(v: &Value) -> bool {
    matches!(v, Value::Int(_) | Value::Bool(_) | Value::Str(_))
}

#[cfg(test)]
thread_local! {
    /// Test hook: every key hashes alike, so a test can show that
    /// exactness never rests on the hash.
    static COLLIDE: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Hash of a composite key of [`hashable`] values, the key of the
/// chain-head table. A collision costs a longer chain walk, never a
/// wrong answer: probes compare keys exactly. The hash is unkeyed, like
/// the partition maps': values crafted to collide make a probe walk
/// every live entry with their hash, which is at most what a scan of
/// the buffer examines.
fn key_hash<'a>(key: impl Iterator<Item = &'a Value>) -> u32 {
    #[cfg(test)]
    if COLLIDE.with(std::cell::Cell::get) {
        return 0;
    }
    let mut h = 0u64;
    for v in key {
        let word = match v {
            Value::Int(i) => *i as u64,
            Value::Bool(b) => u64::from(*b),
            Value::Str(s) => s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            }),
            Value::Float(_) | Value::Null => unreachable!("not a key value"),
        };
        h = (h ^ word)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .rotate_left(29);
    }
    // MurmurHash3's finalizer, then the well-mixed low half.
    h = (h ^ (h >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
    h = (h ^ (h >> 33)).wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    (h ^ (h >> 33)) as u32
}

/// One indexed buffer entry's place in its chain. Chains are walked by
/// buffer position, so 32 bits hold any distance a buffer can span.
#[derive(Debug, Clone, Copy)]
struct Link {
    /// The entry's key hash (0 for an unkeyed entry).
    hash: u32,
    /// How many entries back the next older entry of its chain sits;
    /// 0 if there is none.
    back: u32,
}

/// One negation check's buffer — the negated-type events inside the
/// `within` horizon, in arrival order — and its keyed index. Entry `i`
/// of the buffer has sequence number `base + i`. On the wire a buffer
/// is its events alone: the index is transient, and a restored
/// buffer's first probe indexes it.
#[derive(Debug, Default)]
pub(super) struct NegBuffer {
    pub(super) events: VecDeque<Event>,
    /// Events evicted from the front so far.
    base: u64,
    index: NegIndex,
}

/// The keyed index over a [`NegBuffer`], flat and parallel to the
/// buffer's front: its first `links.len()` entries are indexed, each
/// chained to the next older entry with the same key hash (an unkeyed
/// entry to the next older unkeyed one). Entries are indexed by the
/// first probe after they were buffered, so a buffer that is never
/// probed — a trailing negation's — is never indexed. Sequence numbers
/// are kept modulo 2³², which tells apart any two entries one buffer
/// holds.
#[derive(Debug, Default)]
struct NegIndex {
    /// Key hash → sequence number of the newest entry with that hash.
    /// Live entries only: evicting a chain's last entry removes it.
    /// Hashed like the partition maps (one multiplication per `u32`).
    heads: HashMap<u32, u32, BuildHasherDefault<PartitionHasher>>,
    /// Sequence number of the newest unkeyed entry — one whose negated
    /// side did not evaluate to a [`hashable`] value.
    unkeyed: Option<u32>,
    links: VecDeque<Link>,
    /// The entries' evaluated key values, [`NegPlan::stored`] per entry
    /// (Nulls for an unkeyed one).
    keys: VecDeque<Value>,
    /// Stored values per entry: the plan's [`NegPlan::stored`], kept
    /// here for evictions, which have no plan at hand.
    width: usize,
    /// Work counter: probes answered.
    probes: u64,
    /// Work counter: buffer entries those probes examined — chain
    /// entries walked, unkeyed entries checked, the whole buffer for a
    /// scan.
    examined: u64,
}

impl NegIndex {
    /// Buffer position of the live entry with sequence number `seq`.
    fn position(&self, seq: u32, base: u64) -> usize {
        let pos = seq.wrapping_sub(base as u32) as usize;
        debug_assert!(pos < self.links.len(), "chains start at live entries");
        pos
    }

    /// Position of the next older entry on `pos`'s chain, if it is
    /// still buffered.
    fn older(&self, pos: usize) -> Option<usize> {
        let back = self.links[pos].back as usize;
        (back != 0 && back <= pos).then(|| pos - back)
    }
}

impl Clone for NegIndex {
    fn clone(&self) -> Self {
        let mut index = Self::default();
        index.clone_from(self);
        index
    }

    fn clone_from(&mut self, src: &Self) {
        self.heads.clone_from(&src.heads);
        self.unkeyed = src.unkeyed;
        self.links.clone_from(&src.links);
        self.keys.clone_from(&src.keys);
        (self.width, self.probes, self.examined) = (src.width, src.probes, src.examined);
    }
}

impl Clone for NegBuffer {
    fn clone(&self) -> Self {
        Self {
            events: self.events.clone(),
            base: self.base,
            index: self.index.clone(),
        }
    }

    /// In place ([`RunState::copy_from`]): the vectors and the table
    /// keep their allocations.
    fn clone_from(&mut self, src: &Self) {
        self.events.clone_from(&src.events);
        self.base = src.base;
        self.index.clone_from(&src.index);
    }
}

impl Serialize for NegBuffer {
    fn serialize(&self, out: &mut Serializer) {
        self.events.serialize(out);
    }
}

impl Deserialize for NegBuffer {
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, serde::Error> {
        Ok(Self {
            events: VecDeque::deserialize(de)?,
            ..Self::default()
        })
    }
}

impl NegBuffer {
    /// Evicts the oldest event and, if it was indexed, its entry.
    pub(super) fn pop_front(&mut self) {
        self.events.pop_front();
        let seq = self.base as u32;
        self.base += 1;
        let ix = &mut self.index;
        let Some(link) = ix.links.pop_front() else {
            return;
        };
        ix.keys.drain(..ix.width);
        // The oldest entry still heads its chain only if it is the
        // chain's last one.
        if let Entry::Occupied(head) = ix.heads.entry(link.hash) {
            if *head.get() == seq {
                head.remove();
            }
        }
        if ix.unkeyed == Some(seq) {
            ix.unkeyed = None;
        }
    }

    /// Empties the buffer and its index, keeping their capacity.
    pub(super) fn clear(&mut self) {
        self.events.clear();
        let ix = &mut self.index;
        ix.heads.clear();
        ix.unkeyed = None;
        ix.links.clear();
        ix.keys.clear();
    }

    /// Capacity-based heap estimate, in O(1).
    pub(super) fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let ix = &self.index;
        self.events.capacity() * size_of::<Event>()
            // A table slot is a `(u32, u32)` pair plus a control byte.
            + ix.heads.capacity() * (size_of::<(u32, u32)>() + 1)
            + ix.links.capacity() * size_of::<Link>()
            + ix.keys.capacity() * size_of::<Value>()
    }

    /// Indexes the entries buffered since the last probe: evaluates
    /// their negated sides once and links each into its chain.
    fn catch_up(&mut self, plan: &NegPlan) {
        let NegBuffer {
            events,
            base,
            index: ix,
        } = self;
        if ix.links.is_empty() {
            ix.width = plan.stored;
        }
        for (pos, event) in events.iter().enumerate().skip(ix.links.len()) {
            let seq = (*base + pos as u64) as u32;
            let start = ix.keys.len();
            let keyed = plan.key.iter().all(|part| match &part.neg {
                NegSide::Attr(attr) => hashable(&event.attrs[*attr]),
                NegSide::Eval(neg) => match neg.eval_in(&AllSlots(event)) {
                    Ok(v) if hashable(&v) => {
                        ix.keys.push_back(v);
                        true
                    }
                    _ => false,
                },
            });
            let (hash, newest) = if keyed {
                let hash = key_hash(plan.entry_key(event, ix.keys.range(start..)));
                (hash, ix.heads.insert(hash, seq))
            } else {
                ix.keys.truncate(start);
                ix.keys.resize(start + ix.width, Value::Null);
                (0, ix.unkeyed.replace(seq))
            };
            let back = newest.map_or(0, |newest| seq.wrapping_sub(newest));
            ix.links.push_back(Link { hash, back });
        }
    }
}

/// Borrow bundle for negation checking — everything a probe touches,
/// split from the operator so candidate bindings may keep borrowing the
/// partial store while checks run.
pub(super) struct NegCtx<'a> {
    pub(super) negations: &'a [NegationCheck],
    pub(super) plans: &'a [NegPlan],
    pub(super) negs: &'a mut [NegBuffer],
    /// Scratch for the probe key.
    pub(super) probe_key: &'a mut Vec<Value>,
    pub(super) stats: &'a mut PatternStats,
}

impl NegCtx<'_> {
    /// Does a buffered event of check `i` fall strictly inside
    /// `(lo, hi)` (`None` bounds are open) with every conjunct holding?
    ///
    /// With a hashable probe key the answer comes from walking the
    /// key's chain — comparing keys exactly and evaluating only the
    /// residual conjuncts — and the unkeyed chain; without one (no key
    /// component, or a positives side that is Float, Null or fails to
    /// evaluate) from a scan of the whole buffer. Both are exact
    /// (DESIGN.md, "The keyed negation index"); only `eval_errors`
    /// depends on which conjuncts were evaluated.
    pub(super) fn violates(
        &mut self,
        i: usize,
        positives: Candidate<'_>,
        lo: Option<Time>,
        hi: Option<Time>,
    ) -> bool {
        let (check, plan, buf) = (&self.negations[i], &self.plans[i], &mut self.negs[i]);
        let errors = &mut self.stats.eval_errors;
        let inside = |t: Time| lo.is_none_or(|l| t > l) && hi.is_none_or(|h| t < h);
        let holds = |preds: &[CompiledExpr], cand: &Event, errors: &mut u64| {
            let binding = WithCand {
                pos: positives,
                cand,
            };
            preds.iter().all(|p| p.matches_in(&binding, errors))
        };
        buf.index.probes += 1;
        let probe = &mut *self.probe_key;
        probe.clear();
        let keyed = !plan.key.is_empty()
            && plan
                .key
                .iter()
                .all(|part| match part.pos.eval_in(&positives) {
                    Ok(v) if hashable(&v) => {
                        probe.push(v);
                        true
                    }
                    _ => false,
                });
        if !keyed {
            buf.index.examined += buf.events.len() as u64;
            return buf
                .events
                .iter()
                .any(|cand| inside(cand.time()) && holds(&check.predicates, cand, errors));
        }
        buf.catch_up(plan);
        let NegBuffer {
            events,
            base,
            index: ix,
        } = buf;
        let head = ix.heads.get(&key_hash(probe.iter()));
        let mut at = head.map(|&seq| ix.position(seq, *base));
        while let Some(pos) = at {
            ix.examined += 1;
            let cand = &events[pos];
            let stored = ix.keys.range(pos * ix.width..);
            let key = plan.entry_key(cand, stored);
            if key.zip(probe.iter()).all(|(k, p)| k.eq_value(p))
                && inside(cand.time())
                && holds(&plan.residual, cand, errors)
            {
                return true;
            }
            at = ix.older(pos);
        }
        let mut at = ix.unkeyed.map(|seq| ix.position(seq, *base));
        while let Some(pos) = at {
            ix.examined += 1;
            let cand = &events[pos];
            if inside(cand.time()) && holds(&check.predicates, cand, errors) {
                return true;
            }
            at = ix.older(pos);
        }
        false
    }
}

/// Binds the same event at every slot — used to evaluate the negated
/// side of a key component, which references the candidate slot alone.
struct AllSlots<'a>(&'a Event);

impl Slots for AllSlots<'_> {
    #[inline]
    fn slot(&self, _slot: usize) -> &Event {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{
        ev, figure_three, layout, leading_negation_pattern, pr, registry, Solo,
    };
    use super::*;
    use crate::nfa::PatternBuilder;
    use caesar_events::{AttrType, PartitionId, Schema, SchemaRegistry};
    use caesar_query::ast::Expr;
    use proptest::test_runner::TestRng;
    use std::sync::Arc;

    /// The keyed negation index must be invisible: `live` keeps its
    /// incrementally maintained index (unlinking entries across horizon
    /// evictions and resets); `fresh` is serde round-tripped every step,
    /// which drops the transient index and recompiles the probe plans,
    /// so the next probe indexes the buffer afresh. Outputs and every
    /// counter except `eval_errors` must match exactly.
    #[test]
    fn negation_index_survives_evictions_and_restores() {
        let reg = registry();
        let mut live = leading_negation_pattern(&reg);
        let mut fresh = leading_negation_pattern(&reg);
        let mut out_live = Vec::new();
        let mut out_fresh = Vec::new();
        // Same-time runs of 8 cars, with per-car gaps so some reports
        // are "new" (no report 30s earlier) and some are not; long
        // enough that the `within = 60` horizon evicts indexed entries.
        for step in 0..10u64 {
            let t = step * 30;
            let batch: Vec<Event> = (0..8)
                .filter(|vid| (step + vid) % 3 != 0)
                .map(|vid| pr(&reg, t, vid as i64))
                .collect();
            for e in &batch {
                live.process(e, &mut out_live);
                fresh.process(e, &mut out_fresh);
            }
            if step == 6 {
                live.reset();
                fresh.reset();
            }
            fresh = fresh.round_trip();
        }
        assert!(!out_live.is_empty());
        assert_eq!(out_live, out_fresh, "outputs must be byte-identical");
        assert_eq!(live.stats.matches, fresh.stats.matches);
        assert_eq!(
            live.stats.negation_rejections,
            fresh.stats.negation_rejections
        );
        assert_eq!(live.stats.partials_created, fresh.stats.partials_created);
        assert!(live.stats.negation_rejections > 0, "rejections exercised");
        assert!(
            !live.run.negs[0].index.links.is_empty(),
            "index path exercised"
        );
    }

    /// A twin of `op` whose probes always scan — the fallback inside
    /// `NegCtx::violates`, the reference a keyed probe must equal.
    fn scanning(mut op: Solo) -> Solo {
        let scan = |check: &NegationCheck| NegPlan {
            residual: check.predicates.clone(),
            ..NegPlan::default()
        };
        let plans = op.program.negations.iter().map(scan).collect();
        Arc::make_mut(&mut op.program).neg_plans = plans;
        op
    }

    /// A join value of every kind a key meets: Int (one whose `+ 1`
    /// overflows), Str, Bool, Float (equal to an Int when whole) and
    /// Null.
    fn join_value(rng: &mut TestRng) -> Value {
        match rng.below(10) {
            0..=2 => Value::Int(rng.below(3) as i64),
            3 => Value::Int(i64::MAX),
            4 => Value::str(["x", "y"][rng.below(2) as usize]),
            5 => Value::Bool(rng.below(2) == 1),
            6 => Value::Float(rng.below(3) as f64),
            7 => Value::Float(0.5),
            _ => Value::Null,
        }
    }

    /// Exactness of the keyed probe: on random buffers, a keyed operator
    /// and its scanning twin produce the same outputs and the same
    /// `matches`, `negation_rejections`, `partials_created` — with two
    /// key components (attribute to attribute, and an arithmetic
    /// negated side that errors on overflow and on non-numbers) plus a
    /// residual conjunct, join values of every kind, evictions, watermark
    /// advances and snapshot restores, for a leading and a between
    /// negation, and again with every key hashing alike.
    #[test]
    fn keyed_probe_equals_the_full_scan() {
        let mut reg = SchemaRegistry::new();
        let abc = [
            ("a", AttrType::Int),
            ("b", AttrType::Int),
            ("c", AttrType::Int),
        ];
        for ty in ["N", "Q", "O"] {
            reg.register(Schema::new(ty, &abc)).unwrap();
        }
        let (n, q) = (reg.lookup("N").unwrap(), reg.lookup("Q").unwrap());
        let bin = |op, l, r| Expr::bin(op, l, r);
        let plus_one = |e| bin(BinOp::Add, e, Expr::int(1));
        // SEQ(NOT N n, Q q) WHERE n.a = q.a AND n.b + 1 = q.b AND n.c < q.c
        let lay = layout(&reg, &[("q", "Q"), ("n", "N")]);
        let preds = [
            bin(BinOp::Eq, Expr::attr("n", "a"), Expr::attr("q", "a")),
            bin(
                BinOp::Eq,
                plus_one(Expr::attr("n", "b")),
                Expr::attr("q", "b"),
            ),
            bin(BinOp::Lt, Expr::attr("n", "c"), Expr::attr("q", "c")),
        ];
        let compiled = preds.map(|p| CompiledExpr::compile(&p, &lay, &reg).unwrap());
        let leading = PatternBuilder::new(reg.lookup("O").unwrap())
            .then(q)
            .not_before(n, compiled.to_vec())
            .within(3)
            .offsets(vec![0])
            .build();
        let leading = Solo::from(leading);
        // SEQ(Q q1, NOT N n, Q q2) WHERE q1.a = n.a AND n.b + 1 = q2.b
        //   AND n.c != q1.c
        let lay = layout(&reg, &[("q1", "Q"), ("q2", "Q"), ("n", "N")]);
        let preds = [
            bin(BinOp::Eq, Expr::attr("q1", "a"), Expr::attr("n", "a")),
            bin(
                BinOp::Eq,
                plus_one(Expr::attr("n", "b")),
                Expr::attr("q2", "b"),
            ),
            bin(BinOp::Ne, Expr::attr("n", "c"), Expr::attr("q1", "c")),
        ];
        let compiled = preds.map(|p| CompiledExpr::compile(&p, &lay, &reg).unwrap());
        let between = PatternBuilder::new(reg.lookup("O").unwrap())
            .then(q)
            .then(q)
            .not_between(0, n, compiled.to_vec())
            .within(3)
            .offsets(vec![0, 3])
            .build();
        for template in [leading, Solo::from(between)] {
            assert_eq!(template.program.neg_plans[0].key.len(), 2);
            assert_eq!(template.program.neg_plans[0].stored, 1);
            assert_eq!(template.program.neg_plans[0].residual.len(), 1);
            for collide in [false, true] {
                COLLIDE.with(|c| c.set(collide));
                let (mut examined, mut scanned, mut unkeyed) = (0, 0, false);
                for seed in 0..150 {
                    let mut keyed = template.clone();
                    let mut scan = scanning(template.clone());
                    let rng = &mut TestRng::from_seed(seed);
                    let (mut out_keyed, mut out_scan) = (Vec::new(), Vec::new());
                    let mut t = 0;
                    for _ in 0..120 {
                        t += rng.below(2);
                        let ty = if rng.below(2) == 0 { n } else { q };
                        let attrs: Vec<Value> = (0..3).map(|_| join_value(rng)).collect();
                        let e = Event::simple(ty, t, PartitionId(0), attrs);
                        keyed.process(&e, &mut out_keyed);
                        scan.process(&e, &mut out_scan);
                        unkeyed |= keyed.run.negs[0].index.unkeyed.is_some();
                        match rng.below(40) {
                            0 => {
                                keyed.advance_time(t, &mut out_keyed);
                                scan.advance_time(t, &mut out_scan);
                            }
                            1 => keyed = keyed.round_trip(),
                            _ => {}
                        }
                    }
                    let case = format!("seed {seed}, collide {collide}");
                    assert_eq!(out_keyed, out_scan, "{case}");
                    let (k, s) = (keyed.stats, scan.stats);
                    assert_eq!(k.matches, s.matches, "{case}");
                    assert_eq!(k.negation_rejections, s.negation_rejections, "{case}");
                    assert_eq!(k.partials_created, s.partials_created, "{case}");
                    examined += keyed.run.negs[0].index.examined;
                    scanned += scan.run.negs[0].index.examined;
                }
                assert!(examined < scanned, "the keyed path answered probes");
                assert!(unkeyed, "the unkeyed chain was exercised");
            }
        }
        COLLIDE.with(|c| c.set(false));
    }

    /// ROADMAP item 6's bound for the Figure 3 negation, in work units
    /// the index counts itself: with one vehicle reporting every tick, a
    /// probe examines at most the one report that can match (30 ticks
    /// earlier), whatever the `WITHIN` horizon — a per-vehicle bucket
    /// would examine about `WITHIN - 30`.
    #[test]
    fn negation_probe_work_is_bounded_by_what_can_match() {
        let reg = registry();
        for within in [60, 240] {
            let mut p = figure_three(&reg, within);
            let mut out = Vec::new();
            for t in 0..2_000 {
                p.process(&pr(&reg, t, 7), &mut out);
            }
            let ix = &p.run.negs[0].index;
            println!(
                "WITHIN {within}: {} probes examined {} entries",
                ix.probes, ix.examined
            );
            assert_eq!(ix.probes, 2_000);
            assert_eq!(p.stats.negation_rejections, 2_000 - 30);
            assert!(ix.examined <= ix.probes, "WITHIN {within}");
        }
    }

    /// The `run_state_bytes` gauge counts the negation index: a state
    /// whose buffer was probed, and so indexed, reports more heap than
    /// a twin holding the same buffer unprobed.
    #[test]
    fn probed_state_counts_its_index_bytes() {
        let reg = registry();
        let (a, c) = (reg.lookup("A").unwrap(), reg.lookup("C").unwrap());
        // SEQ(NOT C c, A a) WHERE c.v = a.v
        let join = CompiledExpr::compile(
            &Expr::bin(BinOp::Eq, Expr::attr("c", "v"), Expr::attr("a", "v")),
            &layout(&reg, &[("a", "A"), ("c", "C")]),
            &reg,
        )
        .unwrap();
        let build = || {
            Solo::from(
                PatternBuilder::new(reg.lookup("M").unwrap())
                    .then(a)
                    .not_before(c, vec![join.clone()])
                    .within(100)
                    .offsets(vec![0])
                    .build(),
            )
        };
        let (mut probed, mut unprobed) = (build(), build());
        let mut out = Vec::new();
        for t in 0..50 {
            let e = ev(&reg, "C", t, t as i64);
            probed.process(&e, &mut out);
            unprobed.process(&e, &mut out);
        }
        probed.process(&ev(&reg, "A", 50, 7), &mut out);
        assert!(out.is_empty(), "C(7) at t = 7 vetoes A(7)");
        assert!(probed.run.bytes() > unprobed.run.bytes());
    }
}
