//! Seeded, shrink-friendly generators for CAESAR workloads: context
//! transition networks, attached query sets and timestamped,
//! partitioned event streams.
//!
//! Everything is derived deterministically from one `u64` seed through
//! the vendored proptest [`TestRng`], so a failing workload is
//! reproduced exactly by its seed (see README "Reproducing a
//! differential failure"). The [`GenConfig`] knobs deliberately steer
//! toward the features that historically break stream engines:
//! overlapping context windows (`INITIATE` next to `SWITCH`), leading /
//! between / trailing negation, subsumable predicate pairs, dense
//! same-timestamp runs, and bounded out-of-order arrival.
//!
//! The generated envelope matches what both the engine's translator and
//! the reference oracle accept: flat `SEQ` patterns, at most one
//! negated variable per predicate, passthrough deriving queries (the
//! runtime discards context transitions produced by the watermark
//! advance phase, so trailing negation on a *deriving* query is
//! deliberately never generated — see DESIGN.md "Testing &
//! correctness").

use caesar_events::{
    max_lateness, AttrType, Event, PartitionId, Schema, SchemaRegistry, Time, Value,
};
use caesar_query::pretty::query_signature;
use caesar_query::{
    BinOp, CaesarModel, ContextAction, ContextDef, DeriveClause, EventQuery, Expr, Pattern,
};
use proptest::strategy::Strategy;
use proptest::test_runner::TestRng;
use std::collections::BTreeSet;

/// Generation knobs. All probabilities are in `[0, 1]`.
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// Maximum number of context types (≥ 1; the first is the default).
    pub max_contexts: usize,
    /// Maximum number of input event types (≥ 2).
    pub max_input_types: usize,
    /// Maximum deriving queries attached to each context.
    pub max_deriving_per_context: usize,
    /// Maximum processing queries in the model (≥ 1).
    pub max_processing: usize,
    /// Stream length bounds.
    pub min_events: usize,
    /// Upper stream length bound.
    pub max_events: usize,
    /// Number of stream partitions drawn from `1..=max_partitions`.
    pub max_partitions: u64,
    /// Chance a processing query uses a multi-event `SEQ`.
    pub seq_bias: f64,
    /// Chance a processing query carries a negated pattern element.
    pub negation_bias: f64,
    /// Chance a `WHERE` clause contains a subsumable predicate pair
    /// (two bounds on the same attribute, one implying the other).
    pub subsumable_bias: f64,
    /// Chance the next event reuses the current timestamp (dense
    /// same-time runs make many-event transactions).
    pub same_time_bias: f64,
    /// Fraction of adjacent swaps applied to the stream, producing
    /// bounded out-of-order arrival.
    pub disorder: f64,
    /// Fraction of events displaced far from their timestamp so they
    /// arrive near the end of the stream — the workload's reorder slack
    /// is recomputed afterwards, so the worst straggler sits *exactly*
    /// at the slack boundary. Zero (the default) leaves the stream's
    /// disorder to the adjacent-swap pass alone.
    pub straggler_bias: f64,
    /// Chance a displaced straggler is retimed onto another event's
    /// timestamp, producing same-timestamp late ties (the arrival-order
    /// tie-break regime of the reorder buffer).
    pub late_tie_bias: f64,
    /// Chance a displaced straggler is re-emitted as an exact duplicate
    /// later still — retractions and re-emissions must respect
    /// multiplicity, not just presence.
    pub late_dup_bias: f64,
    /// Chance each straggler is accompanied by a brand-new
    /// early-timestamped event injected near the end of arrival order —
    /// prime material for flipping context transitions mid-window,
    /// which is what forces speculative retraction cascades.
    pub late_flip_bias: f64,
    /// `WITHIN` fallback for queries without an explicit horizon.
    pub default_within: Time,
}

impl Default for GenConfig {
    fn default() -> Self {
        Self {
            max_contexts: 4,
            max_input_types: 4,
            max_deriving_per_context: 2,
            max_processing: 4,
            min_events: 10,
            max_events: 100,
            max_partitions: 3,
            seq_bias: 0.4,
            negation_bias: 0.45,
            subsumable_bias: 0.3,
            same_time_bias: 0.35,
            disorder: 0.25,
            straggler_bias: 0.0,
            late_tie_bias: 0.0,
            late_dup_bias: 0.0,
            late_flip_bias: 0.0,
            default_within: 5,
        }
    }
}

impl GenConfig {
    /// The retraction-hostile profile: heavier disorder plus max-slack
    /// stragglers, same-timestamp late ties, late duplicates and late
    /// context-transition flips — the arrival patterns that force a
    /// speculative engine to revise (and a strict one to buffer).
    #[must_use]
    pub fn retraction_hostile() -> Self {
        Self {
            disorder: 0.35,
            straggler_bias: 0.15,
            late_tie_bias: 0.4,
            late_dup_bias: 0.25,
            late_flip_bias: 0.5,
            ..Self::default()
        }
    }
}

/// A complete generated workload: model, input schemas, event stream
/// and the exact reorder slack the stream needs.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The seed everything was derived from.
    pub seed: u64,
    /// The generated CAESAR model (valid by construction).
    pub model: CaesarModel,
    /// Registry holding the *input* schemas, in deterministic order.
    /// Derived output types are registered by translation, so every
    /// harness leg that clones this registry assigns identical ids.
    pub registry: SchemaRegistry,
    /// The event stream in arrival order (possibly out of order).
    pub events: Vec<Event>,
    /// `WITHIN` fallback used at translation time.
    pub default_within: Time,
    /// Exact slack a reorder stage needs to release every event.
    pub reorder_slack: Time,
    /// Names of the derived output types (`O0`, `O1`, ...).
    pub output_types: Vec<String>,
}

const ATTRS: [&str; 2] = ["a0", "a1"];
const WITHINS: [Time; 6] = [2, 3, 5, 8, 13, 21];
const CMPS: [BinOp; 6] = [
    BinOp::Lt,
    BinOp::Le,
    BinOp::Gt,
    BinOp::Ge,
    BinOp::Eq,
    BinOp::Ne,
];

fn chance(rng: &mut TestRng, p: f64) -> bool {
    rng.unit_f64() < p
}

fn pick<'a, T>(rng: &mut TestRng, items: &'a [T]) -> &'a T {
    &items[rng.below(items.len() as u64) as usize]
}

fn attr_of(rng: &mut TestRng, var: &str) -> Expr {
    Expr::attr(var, *pick(rng, &ATTRS))
}

fn small_const(rng: &mut TestRng) -> Expr {
    Expr::int(rng.below(4) as i64)
}

/// One `WHERE` conjunct over positive variables only.
fn gen_filter_conjunct(rng: &mut TestRng, vars: &[String]) -> Expr {
    let v = pick(rng, vars).clone();
    match rng.below(3) {
        0 => Expr::bin(*pick(rng, &CMPS), attr_of(rng, &v), small_const(rng)),
        1 => {
            let w = pick(rng, vars).clone();
            Expr::bin(*pick(rng, &CMPS), attr_of(rng, &v), attr_of(rng, &w))
        }
        _ => Expr::bin(
            *pick(rng, &CMPS),
            Expr::bin(BinOp::Add, attr_of(rng, &v), small_const(rng)),
            small_const(rng),
        ),
    }
}

/// A subsumable pair: two lower (or upper) bounds on one attribute,
/// one strictly implying the other — food for the subsumption pass.
fn gen_subsumable_pair(rng: &mut TestRng, vars: &[String]) -> (Expr, Expr) {
    let v = pick(rng, vars).clone();
    let attr = *pick(rng, &ATTRS);
    let (op, tight, loose) = if chance(rng, 0.5) {
        (BinOp::Gt, 2, 0)
    } else {
        (BinOp::Lt, 1, 3)
    };
    (
        Expr::bin(op, Expr::attr(v.clone(), attr), Expr::int(tight)),
        Expr::bin(op, Expr::attr(v, attr), Expr::int(loose)),
    )
}

/// One or two conjuncts on the negated variable `neg_var`, each
/// possibly joining a positive variable (still only one negated
/// variable referenced): a comparison with a constant or with an
/// attribute, or an equality join `n.a = v.b` / `n.a + k = v.b` (either
/// way round) — the shapes the engine's negation index keys on, so two
/// of them make a composite key.
fn gen_neg_preds(rng: &mut TestRng, neg_var: &str, vars: &[String]) -> Vec<Expr> {
    let conjunct = |rng: &mut TestRng| {
        let v = pick(rng, vars).clone();
        let neg = attr_of(rng, neg_var);
        match rng.below(4) {
            0 => Expr::bin(*pick(rng, &CMPS), neg, small_const(rng)),
            1 => Expr::bin(*pick(rng, &CMPS), neg, attr_of(rng, &v)),
            k => {
                let neg = if k == 2 {
                    neg
                } else {
                    Expr::bin(BinOp::Add, neg, small_const(rng))
                };
                let pos = attr_of(rng, &v);
                if chance(rng, 0.5) {
                    Expr::bin(BinOp::Eq, neg, pos)
                } else {
                    Expr::bin(BinOp::Eq, pos, neg)
                }
            }
        }
    };
    (0..1 + rng.below(2)).map(|_| conjunct(rng)).collect()
}

fn gen_derive_arg(rng: &mut TestRng, vars: &[String]) -> Expr {
    let v = pick(rng, vars).clone();
    match rng.below(3) {
        0 => attr_of(rng, &v),
        1 => small_const(rng),
        _ => Expr::bin(BinOp::Add, attr_of(rng, &v), small_const(rng)),
    }
}

/// Generates one workload from a seed.
#[must_use]
pub fn workload_from_seed(seed: u64, config: &GenConfig) -> Workload {
    let rng = &mut TestRng::from_seed(seed);

    // Context network: c0 is the default; names are generated in
    // alphabetical order, so bit order equals index order.
    let n_ctx = 1 + rng.below(config.max_contexts.max(1) as u64) as usize;
    let ctx_names: Vec<String> = (0..n_ctx).map(|i| format!("c{i}")).collect();

    // Input schemas, registered in a fixed order.
    let n_types = 2 + rng.below((config.max_input_types.max(2) - 1) as u64) as usize;
    let type_names: Vec<String> = (0..n_types).map(|i| format!("E{i}")).collect();
    let mut registry = SchemaRegistry::new();
    for name in &type_names {
        registry
            .register(Schema::new(
                name,
                &[("a0", AttrType::Int), ("a1", AttrType::Int)],
            ))
            .expect("fresh registry");
    }

    let mut contexts: Vec<ContextDef> = ctx_names.iter().map(ContextDef::new).collect();

    // Deriving queries: passthrough patterns driving the transition
    // network. INITIATE creates overlapping windows; SWITCH walks the
    // network; TERMINATE closes (possibly its own) windows.
    let mut signatures: BTreeSet<String> = BTreeSet::new();
    let mut n_deriving = 0usize;
    if n_ctx > 1 {
        for (ci, ctx) in contexts.iter_mut().enumerate() {
            let per_ctx = rng.below(config.max_deriving_per_context as u64 + 1) as usize;
            for _ in 0..per_ctx {
                let query = gen_deriving(rng, ci, &ctx_names, &type_names, n_deriving);
                if signatures.insert(query_signature(&query)) {
                    ctx.deriving.push(query);
                    n_deriving += 1;
                }
            }
        }
        if n_deriving == 0 {
            // Keep the network reachable: at least one transition out
            // of the default context.
            let query = EventQuery {
                name: Some("d0".into()),
                action: Some(ContextAction::Switch(ctx_names[1].clone())),
                derive: None,
                pattern: Pattern::event(type_names[0].clone(), "v"),
                where_clause: None,
                within: None,
                contexts: vec![ctx_names[0].clone()],
            };
            contexts[0].deriving.push(query);
        }
    }

    // Processing queries: the analytics workload under test.
    let n_proc = 1 + rng.below(config.max_processing.max(1) as u64) as usize;
    let mut output_types = Vec::with_capacity(n_proc);
    for j in 0..n_proc {
        let ci = rng.below(n_ctx as u64) as usize;
        let (query, out_type) = gen_processing(rng, config, &type_names, j);
        output_types.push(out_type);
        contexts[ci].processing.push(query);
    }

    let model = CaesarModel::new(format!("gen{seed:016x}"), ctx_names[0].clone(), contexts)
        .expect("generated model is valid by construction");

    // Event stream: small timestamps with dense same-time runs, then
    // bounded disorder via adjacent swaps.
    let span = (config.max_events - config.min_events).max(1) as u64;
    let n_events = config.min_events + rng.below(span + 1) as usize;
    let n_parts = 1 + rng.below(config.max_partitions.max(1));
    let mut events = Vec::with_capacity(n_events);
    let mut t: Time = 1;
    for _ in 0..n_events {
        if !events.is_empty() && !chance(rng, config.same_time_bias) {
            t += 1 + rng.below(2);
        }
        let type_idx = rng.below(n_types as u64) as usize;
        let type_id = registry.lookup(&type_names[type_idx]).expect("registered");
        let attrs: Vec<Value> = (0..2).map(|_| Value::Int(rng.below(4) as i64)).collect();
        events.push(Event::simple(
            type_id,
            t,
            PartitionId(rng.below(n_parts) as u32),
            attrs,
        ));
    }
    let swaps = (config.disorder * n_events as f64) as usize;
    for _ in 0..swaps {
        if n_events >= 2 {
            let i = rng.below(n_events as u64 - 1) as usize;
            events.swap(i, i + 1);
        }
    }

    // Retraction-hostile post-pass (all biases default to zero): pull
    // events from the first half and re-insert them in the second half
    // of arrival order, optionally retimed onto an existing timestamp
    // (late ties), duplicated (late duplicates), or chased by a fresh
    // early-timestamped injection (late transition flips). The slack is
    // recomputed below from the final stream, so the worst straggler
    // arrives exactly at the slack boundary, never beyond it.
    let stragglers = (config.straggler_bias * events.len() as f64) as usize;
    for _ in 0..stragglers {
        if events.len() < 4 {
            break;
        }
        let i = rng.below(events.len() as u64 / 2) as usize;
        let mut event = events.remove(i);
        if chance(rng, config.late_tie_bias) {
            let donor = &events[rng.below(events.len() as u64) as usize];
            event = Event::simple(
                event.type_id,
                donor.time(),
                event.partition,
                event.attrs.clone(),
            );
        }
        let half = events.len() / 2;
        let j = half + rng.below((events.len() - half) as u64 + 1) as usize;
        events.insert(j, event.clone());
        if chance(rng, config.late_dup_bias) {
            let k = j + 1 + rng.below((events.len() - j) as u64) as usize;
            events.insert(k.min(events.len()), event.clone());
        }
        if chance(rng, config.late_flip_bias) {
            let type_idx = rng.below(n_types as u64) as usize;
            let type_id = registry.lookup(&type_names[type_idx]).expect("registered");
            let flip = Event::simple(
                type_id,
                1 + rng.below(event.time().max(2)),
                PartitionId(rng.below(n_parts) as u32),
                (0..2)
                    .map(|_| Value::Int(rng.below(4) as i64))
                    .collect::<Vec<_>>(),
            );
            let half = events.len() / 2;
            let pos = half + rng.below((events.len() - half) as u64 + 1) as usize;
            events.insert(pos, flip);
        }
    }
    let reorder_slack = max_lateness(&events);

    Workload {
        seed,
        model,
        registry,
        events,
        default_within: config.default_within,
        reorder_slack,
        output_types,
    }
}

fn gen_deriving(
    rng: &mut TestRng,
    ci: usize,
    ctx_names: &[String],
    type_names: &[String],
    idx: usize,
) -> EventQuery {
    let n_ctx = ctx_names.len();
    let other = |rng: &mut TestRng| {
        // Any context other than the enclosing one.
        let mut k = rng.below(n_ctx as u64 - 1) as usize;
        if k >= ci {
            k += 1;
        }
        k
    };
    let action = match rng.below(3) {
        0 => ContextAction::Initiate(ctx_names[other(rng)].clone()),
        1 => ContextAction::Switch(ctx_names[other(rng)].clone()),
        _ => ContextAction::Terminate(ctx_names[rng.below(n_ctx as u64) as usize].clone()),
    };
    let is_switch = matches!(action, ContextAction::Switch(_));
    let trigger = pick(rng, type_names).clone();
    let where_clause =
        chance(rng, 0.5).then(|| gen_filter_conjunct(rng, std::slice::from_ref(&"v".to_string())));
    EventQuery {
        name: Some(format!("d{idx}")),
        action: Some(action),
        derive: None,
        pattern: Pattern::event(trigger, "v"),
        where_clause,
        within: None,
        // SWITCH must name its enclosing context explicitly.
        contexts: if is_switch {
            vec![ctx_names[ci].clone()]
        } else {
            Vec::new()
        },
    }
}

fn gen_processing(
    rng: &mut TestRng,
    config: &GenConfig,
    type_names: &[String],
    idx: usize,
) -> (EventQuery, String) {
    // Positives: 1, or a SEQ of 2–3 (types may repeat).
    let n_pos = if chance(rng, config.seq_bias) {
        2 + rng.below(2) as usize
    } else {
        1
    };
    let vars: Vec<String> = (0..n_pos).map(|i| format!("v{i}")).collect();
    let mut elements: Vec<Pattern> = (0..n_pos)
        .map(|i| Pattern::event(pick(rng, type_names).clone(), vars[i].clone()))
        .collect();

    // Optional negation at a random position; its type must differ
    // from every positive to stay inside the oracle's envelope.
    let positive_types: BTreeSet<String> = elements
        .iter()
        .filter_map(|p| match p {
            Pattern::Event { event_type, .. } => Some(event_type.clone()),
            Pattern::Seq(_) => None,
        })
        .collect();
    let free_types: Vec<String> = type_names
        .iter()
        .filter(|t| !positive_types.contains(*t))
        .cloned()
        .collect();
    let mut neg_var = None;
    if chance(rng, config.negation_bias) && !free_types.is_empty() {
        let neg_type = pick(rng, &free_types).clone();
        // Insert leading, between, or trailing.
        let slot = rng.below(n_pos as u64 + 1) as usize;
        elements.insert(slot, Pattern::not_event(neg_type, "n"));
        neg_var = Some("n".to_string());
    }
    let pattern = if elements.len() == 1 {
        elements.pop().expect("one element")
    } else {
        Pattern::Seq(elements)
    };

    // WHERE: 0–2 positive-only conjuncts, possibly a subsumable pair,
    // plus optionally one or two conjuncts on the negated variable.
    let mut conjuncts: Vec<Expr> = Vec::new();
    if chance(rng, config.subsumable_bias) {
        let (tight, loose) = gen_subsumable_pair(rng, &vars);
        conjuncts.push(tight);
        conjuncts.push(loose);
    } else {
        for _ in 0..rng.below(3) {
            conjuncts.push(gen_filter_conjunct(rng, &vars));
        }
    }
    if let Some(n) = &neg_var {
        if chance(rng, 0.6) {
            conjuncts.extend(gen_neg_preds(rng, n, &vars));
        }
    }
    let where_clause = Expr::conjoin(conjuncts);

    let out_type = format!("O{idx}");
    let n_args = 1 + rng.below(2) as usize;
    let args: Vec<Expr> = (0..n_args).map(|_| gen_derive_arg(rng, &vars)).collect();
    let query = EventQuery {
        name: Some(format!("q{idx}")),
        action: None,
        derive: Some(DeriveClause {
            event_type: out_type.clone(),
            args,
        }),
        pattern,
        where_clause,
        within: Some(*pick(rng, &WITHINS)),
        contexts: Vec::new(),
    };
    (query, out_type)
}

/// A [`Strategy`] producing workloads, for use inside proptest-style
/// properties. The workload remembers its seed, so failures printed by
/// the harness are reproducible outside the property runner too.
pub fn workload_strategy(config: GenConfig) -> impl Strategy<Value = Workload> {
    (0u64..u64::MAX).prop_map(move |seed| workload_from_seed(seed, &config))
}
