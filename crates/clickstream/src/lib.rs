//! Clickstream/funnel substrate: a web-analytics workload where the
//! *session state* of each user is the application context.
//!
//! The paper's use cases derive contexts from the physical world (road
//! conditions, activity phases). This crate models the same idea for a
//! web shop: every user is one stream partition, and the per-user
//! session state — *browsing* (the default), *engaged* (items in the
//! cart), *abandoning* (cart going stale), *bot_suspect* (rate alarm
//! raised) — is the context. Funnel analytics attach per state:
//! browse-path pairs while browsing, funnel conversion and
//! cart-abandonment (a negated `Purchase` between cart and session end)
//! while engaged, win-back detection while abandoning, and burst
//! detection while bot-suspect. Out of every state, those queries are
//! suspended — exactly the §6.2 suspension opportunity, on a workload
//! whose partition count scales to millions of user keys.
//!
//! The generator scripts whole sessions (view → cart → purchase
//! funnels, churn/abandonment, bot bursts) per user, with Zipf-skewed
//! user sampling over a configurable key population, an optional
//! coverage floor that pins leading sessions to distinct users (so
//! partition-cardinality floors hold by construction), an optional
//! id-scattering mode that spreads partition ids over the full `u32`
//! space (exercising sparse partition structures), and an optional
//! disorder pass. Sessions of the same user never overlap, so the
//! scripted ground truth ([`ClickSummary`]) stays exact.
//!
//! The model stays inside the reference-oracle envelope (flat `SEQ`,
//! at most one negated element whose type differs from every positive
//! element), so the whole substrate runs through the differential
//! harness byte-for-byte.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(deprecated)]

use caesar_events::generator::rng;
use caesar_events::{AttrType, Event, PartitionId, Schema, SchemaRegistry, Time, Value};
use caesar_query::parser::parse_model;
use caesar_query::CaesarModel;
use rand::Rng;
use std::collections::BTreeMap;
use std::fmt::Write;

/// Queries the model gains per replication step (one browse-path, one
/// conversion, one cart-abandonment, one win-back, one bot-burst).
pub const QUERIES_PER_REPLICATION: usize = 5;

/// `WITHIN` horizon of the browse-path query (ticks).
pub const BROWSE_WITHIN: Time = 30;
/// `WITHIN` horizon of the conversion query.
pub const CONVERSION_WITHIN: Time = 120;
/// `WITHIN` horizon of the cart-abandonment query.
pub const ABANDON_WITHIN: Time = 240;
/// `WITHIN` horizon of the win-back query.
pub const WINBACK_WITHIN: Time = 60;
/// `WITHIN` horizon of the bot-burst query.
pub const BOT_WITHIN: Time = 5;
/// Translation fallback for queries without an explicit horizon (all
/// clickstream queries carry one; this only matters as a default).
pub const DEFAULT_WITHIN: Time = 60;

/// Input schemas of the clickstream substrate (attribute lists shared
/// with the CLI example files and tests).
pub const SCHEMAS: &[(&str, &[(&str, AttrType)])] = &[
    (
        "View",
        &[
            ("user", AttrType::Int),
            ("page", AttrType::Int),
            ("dwell", AttrType::Int),
        ],
    ),
    (
        "CartAdd",
        &[
            ("user", AttrType::Int),
            ("item", AttrType::Int),
            ("value", AttrType::Int),
        ],
    ),
    (
        "Purchase",
        &[
            ("user", AttrType::Int),
            ("value", AttrType::Int),
            ("items", AttrType::Int),
        ],
    ),
    (
        "IdleTick",
        &[("user", AttrType::Int), ("sec", AttrType::Int)],
    ),
    (
        "SessionEnd",
        &[("user", AttrType::Int), ("sec", AttrType::Int)],
    ),
    (
        "BotAlarm",
        &[("user", AttrType::Int), ("rate", AttrType::Int)],
    ),
    (
        "CaptchaOk",
        &[("user", AttrType::Int), ("sec", AttrType::Int)],
    ),
];

/// Registers the input event schemas.
pub fn register_schemas(registry: &mut SchemaRegistry) {
    for (name, attrs) in SCHEMAS {
        registry
            .register(Schema::new(*name, attrs))
            .expect("clickstream schemas are consistent");
    }
}

/// Builds the registry pre-loaded with the clickstream input schemas.
#[must_use]
pub fn clickstream_registry() -> SchemaRegistry {
    let mut registry = SchemaRegistry::new();
    register_schemas(&mut registry);
    registry
}

/// Builds the clickstream CAESAR model with `replication` copies of
/// each funnel query ([`QUERIES_PER_REPLICATION`] per copy).
///
/// Replicas differ only in a predicate on the *last* pattern variable,
/// so predicate push-down leaves the pattern prefixes identical and the
/// optimizer's prefix sharing applies across the whole replica set.
#[must_use]
pub fn clickstream_model(replication: usize) -> CaesarModel {
    assert!(replication >= 1);
    let mut browsing = String::new();
    let mut engaged = String::new();
    let mut abandoning = String::new();
    let mut bot = String::new();
    for i in 0..replication {
        let sfx = if i == 0 {
            String::new()
        } else {
            format!("_{i}")
        };
        let _ = writeln!(
            browsing,
            "DERIVE BrowsePath{sfx}(a.page, b.page) PATTERN SEQ(View a, View b) \
             WHERE b.dwell > {} WITHIN {BROWSE_WITHIN}",
            2 + i
        );
        let _ = writeln!(
            engaged,
            "DERIVE Conversion{sfx}(c.value, p.value) PATTERN SEQ(CartAdd c, Purchase p) \
             WHERE p.value >= {} WITHIN {CONVERSION_WITHIN}",
            5 + i
        );
        let _ = writeln!(
            engaged,
            "DERIVE CartAbandoned{sfx}(c.value, e.sec) \
             PATTERN SEQ(CartAdd c, NOT Purchase n, SessionEnd e) \
             WHERE e.sec >= {i} WITHIN {ABANDON_WITHIN}"
        );
        let _ = writeln!(
            abandoning,
            "DERIVE WinBack{sfx}(t.sec, c.item) PATTERN SEQ(IdleTick t, CartAdd c) \
             WHERE c.value > {} WITHIN {WINBACK_WITHIN}",
            5 * i
        );
        let _ = writeln!(
            bot,
            "DERIVE BotBurst{sfx}(a.page, c.page) PATTERN SEQ(View a, View b, View c) \
             WHERE c.dwell < {} WITHIN {BOT_WITHIN}",
            5 + i
        );
    }
    let text = format!(
        r#"
        MODEL clickstream DEFAULT browsing
        CONTEXT browsing {{
            SWITCH CONTEXT engaged PATTERN CartAdd
            SWITCH CONTEXT bot_suspect PATTERN BotAlarm
            {browsing}
        }}
        CONTEXT engaged {{
            SWITCH CONTEXT browsing PATTERN Purchase
            SWITCH CONTEXT browsing PATTERN SessionEnd
            SWITCH CONTEXT abandoning PATTERN IdleTick
            SWITCH CONTEXT bot_suspect PATTERN BotAlarm
            {engaged}
        }}
        CONTEXT abandoning {{
            SWITCH CONTEXT engaged PATTERN CartAdd
            SWITCH CONTEXT browsing PATTERN SessionEnd
            {abandoning}
        }}
        CONTEXT bot_suspect {{
            SWITCH CONTEXT browsing PATTERN CaptchaOk
            {bot}
        }}
        "#
    );
    parse_model(&text).expect("generated clickstream model is valid")
}

/// Derived output type names of [`clickstream_model`] at the given
/// replication (what a differential workload lists as `output_types`).
#[must_use]
pub fn output_types(replication: usize) -> Vec<String> {
    let mut out = Vec::new();
    for i in 0..replication {
        let sfx = if i == 0 {
            String::new()
        } else {
            format!("_{i}")
        };
        for base in [
            "BrowsePath",
            "Conversion",
            "CartAbandoned",
            "WinBack",
            "BotBurst",
        ] {
            out.push(format!("{base}{sfx}"));
        }
    }
    out
}

/// A [`CaesarBuilder`] pre-loaded with the clickstream model at the
/// given replication, all seven input schemas and the default horizon.
///
/// [`CaesarBuilder`]: caesar_core::CaesarBuilder
#[must_use]
pub fn clickstream_builder(replication: usize) -> caesar_core::CaesarBuilder {
    let mut builder = caesar_core::Caesar::builder()
        .model(clickstream_model(replication))
        .within(DEFAULT_WITHIN);
    for (name, attrs) in SCHEMAS {
        builder = builder.schema(name, attrs);
    }
    builder
}

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct ClickConfig {
    /// User-key population the Zipf sampler draws from (up to millions;
    /// must fit in `u32`).
    pub users: u64,
    /// Number of sessions to script.
    pub sessions: usize,
    /// Leading sessions pinned to distinct sequential users, so a
    /// partition-cardinality floor holds regardless of Zipf collisions.
    pub coverage_floor: usize,
    /// Zipf exponent for user sampling (`0.0` = uniform; `~1.1` = the
    /// classic heavy head where a few hot users dominate traffic).
    pub zipf_s: f64,
    /// RNG seed.
    pub seed: u64,
    /// Fraction of sessions that are bot bursts.
    pub bot_fraction: f64,
    /// Fraction of sessions that convert (view → cart → purchase).
    pub buy_fraction: f64,
    /// Fraction of sessions that add to cart and abandon.
    pub abandon_fraction: f64,
    /// Minimum page views per session.
    pub min_views: u32,
    /// Maximum page views per session.
    pub max_views: u32,
    /// Mean inter-session spacing (scales the scripted horizon).
    pub mean_gap: Time,
    /// Per-event probability of being displaced by one slot per
    /// disorder pass (`0.0` = in-order stream).
    pub disorder: f64,
    /// Number of adjacent-displacement passes (bounds max lateness).
    pub disorder_passes: u32,
    /// Scatter partition ids over the full `u32` space instead of
    /// using dense `0..users` ranks — exercises sparse partition
    /// structures end to end.
    pub scatter_ids: bool,
}

impl Default for ClickConfig {
    fn default() -> Self {
        Self {
            users: 10_000,
            sessions: 2_000,
            coverage_floor: 0,
            zipf_s: 1.1,
            seed: 7,
            bot_fraction: 0.08,
            buy_fraction: 0.25,
            abandon_fraction: 0.25,
            min_views: 1,
            max_views: 4,
            mean_gap: 8,
            disorder: 0.0,
            disorder_passes: 3,
            scatter_ids: false,
        }
    }
}

/// Exact scripted ground truth of one generated stream.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClickSummary {
    /// Total sessions scripted.
    pub sessions: usize,
    /// Sessions that only browse (views, then session end).
    pub browse_sessions: usize,
    /// Sessions that convert (cart adds followed by a purchase).
    pub buyer_sessions: usize,
    /// Sessions that add to cart and never purchase.
    pub abandon_sessions: usize,
    /// Abandoning sessions that end while still *engaged* (the session
    /// end terminates the engaged window, so cart-abandonment fires).
    pub direct_abandons: usize,
    /// Abandoning sessions that go idle and then add to cart again
    /// (the win-back pattern fires in the *abandoning* context).
    pub winback_sessions: usize,
    /// Bot sessions (alarm, view burst, captcha).
    pub bot_sessions: usize,
    /// Distinct partition ids touched.
    pub partitions_touched: usize,
    /// Total events scripted.
    pub events: usize,
    /// Largest event timestamp.
    pub max_time: Time,
}

/// Maps a uniform draw `u ∈ [0, 1)` to a Zipf(`s`) rank in `0..n`
/// (rank 0 is the hottest key), via the continuous inverse-CDF
/// approximation of the Zipf mass function — exact enough for workload
/// skew, and O(1) per draw with no precomputed table over millions of
/// keys.
#[must_use]
pub fn zipf_rank(u: f64, n: u64, s: f64) -> u64 {
    debug_assert!((0.0..1.0).contains(&u));
    let n_f = n.max(1) as f64;
    let k = if (s - 1.0).abs() < 1e-9 {
        // s → 1: CDF ~ ln(k)/ln(n), inverse k = n^u.
        n_f.powf(u)
    } else {
        let one_s = 1.0 - s;
        ((u * ((n_f + 1.0).powf(one_s) - 1.0)) + 1.0).powf(1.0 / one_s)
    };
    (k.floor() as u64).clamp(1, n.max(1)) - 1
}

/// SplitMix64 finalizer — scatters a dense rank over the id space.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The partition id of a sampled user rank.
#[must_use]
pub fn partition_for(rank: u64, scatter: bool) -> PartitionId {
    if scatter {
        PartitionId((mix(rank) >> 32) as u32)
    } else {
        PartitionId(rank as u32)
    }
}

/// What a scripted session does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SessionKind {
    Browse,
    Buyer,
    AbandonDirect,
    AbandonIdle { winback: bool },
    Bot,
}

/// Generates the clickstream; returns the events (time-sorted, then
/// optionally disordered) and the exact scripted ground truth.
///
/// Panics if `config.users` does not fit in `u32`.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn generate(config: &ClickConfig, registry: &SchemaRegistry) -> (Vec<Event>, ClickSummary) {
    assert!(config.users <= u64::from(u32::MAX), "partition ids are u32");
    let view = registry.lookup("View").expect("registered");
    let cart = registry.lookup("CartAdd").expect("registered");
    let purchase = registry.lookup("Purchase").expect("registered");
    let idle = registry.lookup("IdleTick").expect("registered");
    let end = registry.lookup("SessionEnd").expect("registered");
    let alarm = registry.lookup("BotAlarm").expect("registered");
    let captcha = registry.lookup("CaptchaOk").expect("registered");

    let mut r = rng(config.seed);
    let mut events = Vec::new();
    let mut summary = ClickSummary {
        sessions: config.sessions,
        ..ClickSummary::default()
    };
    // Next timestamp at which each user is free again — sessions of the
    // same user never overlap, so per-state ground truth stays exact.
    let mut next_free: BTreeMap<u32, Time> = BTreeMap::new();
    let horizon: Time = (config.sessions as Time).saturating_mul(config.mean_gap.max(1)) + 2;
    let min_views = config.min_views.max(1);
    let max_views = config.max_views.max(min_views);

    for s in 0..config.sessions {
        let rank = if s < config.coverage_floor {
            (s as u64) % config.users.max(1)
        } else {
            zipf_rank(r.gen_range(0.0..1.0f64), config.users, config.zipf_s)
        };
        let pid = partition_for(rank, config.scatter_ids);
        let user = i64::from(pid.0);
        let free = next_free.get(&pid.0).copied().unwrap_or(0);
        let mut t = r.gen_range(1..horizon).max(free);

        let roll: f64 = r.gen_range(0.0..1.0);
        let kind = if roll < config.bot_fraction {
            SessionKind::Bot
        } else if roll < config.bot_fraction + config.buy_fraction {
            SessionKind::Buyer
        } else if roll < config.bot_fraction + config.buy_fraction + config.abandon_fraction {
            if r.gen_bool(0.5) {
                SessionKind::AbandonDirect
            } else {
                SessionKind::AbandonIdle {
                    winback: r.gen_bool(0.4),
                }
            }
        } else {
            SessionKind::Browse
        };

        let int = Value::Int;
        let mut session = Vec::new();
        let mut push = |ty, t: Time, attrs: Vec<Value>| {
            session.push(Event::simple(ty, t, pid, attrs));
        };
        let views = |r: &mut caesar_events::generator::WorkloadRng,
                     push: &mut dyn FnMut(caesar_events::TypeId, Time, Vec<Value>),
                     t: &mut Time,
                     n: u32,
                     bot: bool| {
            for _ in 0..n {
                let (dwell, page, dt) = if bot {
                    (
                        r.gen_range(0..3i64),
                        r.gen_range(1..9i64),
                        r.gen_range(0..2),
                    )
                } else {
                    (
                        r.gen_range(3..30i64),
                        r.gen_range(1..41i64),
                        r.gen_range(1..5),
                    )
                };
                *t += dt;
                push(
                    view,
                    *t,
                    vec![Value::Int(user), Value::Int(page), Value::Int(dwell)],
                );
            }
        };

        match kind {
            SessionKind::Browse => {
                summary.browse_sessions += 1;
                let n = r.gen_range(min_views..=max_views);
                views(&mut r, &mut push, &mut t, n, false);
                t += r.gen_range(1..5);
                push(end, t, vec![int(user), int(t as i64)]);
            }
            SessionKind::Buyer => {
                summary.buyer_sessions += 1;
                let n = r.gen_range(min_views..=max_views);
                views(&mut r, &mut push, &mut t, n, false);
                // First cart add switches browsing → engaged; initiation
                // is exclusive, so a second in-window cart add carries
                // the conversion match.
                t += r.gen_range(1..4);
                push(
                    cart,
                    t,
                    vec![int(user), int(r.gen_range(1..41)), int(r.gen_range(5..200))],
                );
                t += r.gen_range(1..4);
                let value = r.gen_range(5..200i64);
                push(
                    cart,
                    t,
                    vec![int(user), int(r.gen_range(1..41)), int(value)],
                );
                t += r.gen_range(1..8);
                push(
                    purchase,
                    t,
                    vec![int(user), int(value + r.gen_range(5..50)), int(2)],
                );
                t += r.gen_range(1..5);
                push(end, t, vec![int(user), int(t as i64)]);
            }
            SessionKind::AbandonDirect => {
                summary.abandon_sessions += 1;
                summary.direct_abandons += 1;
                let n = r.gen_range(min_views..=max_views);
                views(&mut r, &mut push, &mut t, n, false);
                t += r.gen_range(1..4);
                push(
                    cart,
                    t,
                    vec![int(user), int(r.gen_range(1..41)), int(r.gen_range(5..200))],
                );
                t += r.gen_range(1..4);
                push(
                    cart,
                    t,
                    vec![int(user), int(r.gen_range(1..41)), int(r.gen_range(5..200))],
                );
                // Session ends while still engaged: the end terminates
                // the engaged window (inclusive), so the negated-pattern
                // abandonment query fires.
                t += r.gen_range(2..30);
                push(end, t, vec![int(user), int(t as i64)]);
            }
            SessionKind::AbandonIdle { winback } => {
                summary.abandon_sessions += 1;
                let n = r.gen_range(min_views..=max_views);
                views(&mut r, &mut push, &mut t, n, false);
                t += r.gen_range(1..4);
                push(
                    cart,
                    t,
                    vec![int(user), int(r.gen_range(1..41)), int(r.gen_range(5..200))],
                );
                // Idle tick switches engaged → abandoning (the switching
                // tick itself is excluded from the abandoning window).
                t += r.gen_range(2..10);
                push(idle, t, vec![int(user), int(t as i64)]);
                for _ in 0..r.gen_range(1..3) {
                    t += r.gen_range(3..10);
                    push(idle, t, vec![int(user), int(t as i64)]);
                }
                if winback {
                    summary.winback_sessions += 1;
                    // The cart add terminates abandoning (inclusive), so
                    // it pairs with an in-window idle tick: WinBack.
                    t += r.gen_range(1..8);
                    push(
                        cart,
                        t,
                        vec![int(user), int(r.gen_range(1..41)), int(r.gen_range(6..200))],
                    );
                    t += r.gen_range(1..4);
                    push(
                        cart,
                        t,
                        vec![int(user), int(r.gen_range(1..41)), int(r.gen_range(5..200))],
                    );
                    // ... and the session still ends unbought while
                    // engaged, so abandonment fires here too.
                    summary.direct_abandons += 1;
                    t += r.gen_range(2..20);
                    push(end, t, vec![int(user), int(t as i64)]);
                } else {
                    t += r.gen_range(1..8);
                    push(end, t, vec![int(user), int(t as i64)]);
                }
            }
            SessionKind::Bot => {
                summary.bot_sessions += 1;
                push(alarm, t, vec![int(user), int(r.gen_range(50..200))]);
                t += 1;
                let n = r.gen_range(4..7u32);
                views(&mut r, &mut push, &mut t, n, true);
                t += 1;
                push(captcha, t, vec![int(user), int(t as i64)]);
                t += 1;
                push(end, t, vec![int(user), int(t as i64)]);
            }
        }
        events.extend(session);
        next_free.insert(pid.0, t + r.gen_range(20..120));
    }

    events.sort_by_key(Event::time);
    if config.disorder > 0.0 {
        for _ in 0..config.disorder_passes.max(1) {
            for i in 1..events.len() {
                if r.gen_bool(config.disorder) {
                    events.swap(i - 1, i);
                }
            }
        }
    }
    summary.partitions_touched = next_free.len();
    summary.events = events.len();
    summary.max_time = events.iter().map(Event::time).max().unwrap_or(0);
    (events, summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_shape_and_replication() {
        let model = clickstream_model(1);
        assert_eq!(model.default_context, "browsing");
        assert_eq!(model.contexts.len(), 4);
        assert_eq!(model.context("browsing").unwrap().processing.len(), 1);
        assert_eq!(model.context("engaged").unwrap().processing.len(), 2);
        assert_eq!(model.context("abandoning").unwrap().processing.len(), 1);
        assert_eq!(model.context("bot_suspect").unwrap().processing.len(), 1);
        let model3 = clickstream_model(3);
        let queries: usize = model3.contexts.iter().map(|c| c.processing.len()).sum();
        assert_eq!(queries, 3 * QUERIES_PER_REPLICATION);
        assert_eq!(output_types(3).len(), 3 * QUERIES_PER_REPLICATION);
    }

    #[test]
    fn generation_is_deterministic_and_sorted() {
        let reg = clickstream_registry();
        let config = ClickConfig {
            sessions: 300,
            ..ClickConfig::default()
        };
        let (a, sa) = generate(&config, &reg);
        let (b, sb) = generate(&config, &reg);
        assert_eq!(a, b);
        assert_eq!(sa, sb);
        assert!(a.windows(2).all(|w| w[0].time() <= w[1].time()));
        assert_eq!(sa.events, a.len());
        assert_eq!(
            sa.browse_sessions + sa.buyer_sessions + sa.abandon_sessions + sa.bot_sessions,
            sa.sessions
        );
    }

    #[test]
    fn disorder_permutes_without_losing_events() {
        let reg = clickstream_registry();
        let ordered = ClickConfig {
            sessions: 200,
            ..ClickConfig::default()
        };
        let (a, _) = generate(&ordered, &reg);
        let disordered = ClickConfig {
            disorder: 0.3,
            ..ordered
        };
        let (mut b, _) = generate(&disordered, &reg);
        assert!(
            caesar_events::max_lateness(&b) > 0,
            "disorder had no effect"
        );
        b.sort_by_key(Event::time);
        let key = |e: &Event| {
            format!(
                "{}/{}/{:?}/{:?}",
                e.time(),
                e.partition.0,
                e.type_id,
                e.attrs
            )
        };
        let mut ka: Vec<_> = a.iter().map(key).collect();
        let mut kb: Vec<_> = b.iter().map(key).collect();
        ka.sort();
        kb.sort();
        assert_eq!(ka, kb);
    }

    #[test]
    fn coverage_floor_guarantees_distinct_partitions() {
        let reg = clickstream_registry();
        let config = ClickConfig {
            users: 10_000,
            sessions: 700,
            coverage_floor: 500,
            ..ClickConfig::default()
        };
        let (_, summary) = generate(&config, &reg);
        assert!(summary.partitions_touched >= 500);
    }

    #[test]
    fn zipf_skews_hot_keys() {
        let mut r = rng(3);
        let n = 1_000u64;
        let mut counts = vec![0u64; n as usize];
        for _ in 0..20_000 {
            counts[zipf_rank(r.gen_range(0.0..1.0f64), n, 1.2) as usize] += 1;
        }
        assert!(
            counts[0] > 50 * counts[200].max(1),
            "head not heavy: {} vs {}",
            counts[0],
            counts[200]
        );
        // Uniform at s = 0: the head holds no outsized share.
        let mut uniform = vec![0u64; n as usize];
        for _ in 0..20_000 {
            uniform[zipf_rank(r.gen_range(0.0..1.0f64), n, 0.0) as usize] += 1;
        }
        assert!(
            uniform[0] < 200,
            "s=0 should be near-uniform: {}",
            uniform[0]
        );
    }

    #[test]
    fn scatter_ids_spread_over_u32_space() {
        let reg = clickstream_registry();
        let config = ClickConfig {
            users: 1_000,
            sessions: 300,
            scatter_ids: true,
            ..ClickConfig::default()
        };
        let (events, _) = generate(&config, &reg);
        assert!(
            events.iter().any(|e| e.partition.0 > 1_000_000),
            "scattered ids should leave the dense range"
        );
    }

    #[test]
    fn model_translates_against_registry() {
        let system = clickstream_builder(3).build();
        assert!(system.is_ok(), "{:?}", system.err().map(|e| e.to_string()));
    }

    #[test]
    fn end_to_end_funnels_fire_per_state() {
        let reg = clickstream_registry();
        let config = ClickConfig {
            users: 200,
            sessions: 400,
            ..ClickConfig::default()
        };
        let (events, summary) = generate(&config, &reg);
        let mut system = clickstream_builder(1).build().unwrap();
        let report = system.run_stream(events).unwrap();
        assert!(summary.buyer_sessions > 0 && summary.bot_sessions > 0);
        assert!(report.outputs_of("BrowsePath") > 0);
        assert!(report.outputs_of("Conversion") >= summary.buyer_sessions as u64);
        assert!(report.outputs_of("CartAbandoned") >= summary.direct_abandons as u64);
        assert!(report.outputs_of("WinBack") >= summary.winback_sessions as u64);
        assert!(report.outputs_of("BotBurst") > 0);
    }
}
