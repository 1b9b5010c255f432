//! Abstract syntax of context-aware event queries (Definition 3).
//!
//! A context-aware event query consists of clauses performing one task
//! each: context initiation / switch / termination, complex event
//! derivation (`DERIVE`), event pattern matching (`PATTERN`), event
//! filtering (`WHERE`) and context window specification (`CONTEXT`).

use caesar_events::Value;
use serde::Serialize;
use std::collections::BTreeSet;
use std::fmt;

/// Identifier of a query within one compiled query set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct QueryId(pub u32);

impl QueryId {
    /// Index into query-ordered arrays.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for QueryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Q{}", self.0)
    }
}

/// What a context-deriving query does when its pattern matches (§3.4):
/// initiate a new window, terminate an existing one, or switch
/// (terminate current + initiate new, for non-overlapping sequences).
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub enum ContextAction {
    /// `INITIATE CONTEXT c` — starts window `w_c` (may overlap others).
    Initiate(String),
    /// `SWITCH CONTEXT c` — terminates the current window, starts `w_c`.
    Switch(String),
    /// `TERMINATE CONTEXT c` — ends window `w_c`.
    Terminate(String),
}

impl ContextAction {
    /// The context named by the action.
    #[must_use]
    pub fn target(&self) -> &str {
        match self {
            ContextAction::Initiate(c) | ContextAction::Switch(c) | ContextAction::Terminate(c) => {
                c
            }
        }
    }

    /// The clause keyword.
    #[must_use]
    pub fn keyword(&self) -> &'static str {
        match self {
            ContextAction::Initiate(_) => "INITIATE",
            ContextAction::Switch(_) => "SWITCH",
            ContextAction::Terminate(_) => "TERMINATE",
        }
    }
}

/// `DERIVE EventType(arg, arg, ...)` — complex event derivation.
///
/// Arguments are full expressions: `DERIVE TollNotification(p.vid, p.sec, 5)`
/// mixes attribute references and constants (Figure 3, query 1).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DeriveClause {
    /// Name of the derived (complex) event type.
    pub event_type: String,
    /// Expressions computing the derived event's attributes.
    pub args: Vec<Expr>,
}

/// An event pattern (`PATTERN` clause, grammar Figure 4):
/// `Patt := NOT? EventType Var? | SEQ( (Patt ,?)+ )`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub enum Pattern {
    /// A (possibly negated) single event of a named type, optionally
    /// bound to a variable.
    Event {
        /// Event type name.
        event_type: String,
        /// Variable binding the event for `WHERE` / `DERIVE` references.
        var: Option<String>,
        /// `true` for `NOT E` — the event must be *absent*.
        negated: bool,
    },
    /// `SEQ(p1, ..., pn)` — a temporally ordered sequence.
    Seq(Vec<Pattern>),
}

impl Pattern {
    /// Convenience constructor for a plain positive event pattern.
    #[must_use]
    pub fn event(event_type: impl Into<String>, var: impl Into<String>) -> Self {
        Pattern::Event {
            event_type: event_type.into(),
            var: Some(var.into()),
            negated: false,
        }
    }

    /// Convenience constructor for an unbound positive event pattern.
    #[must_use]
    pub fn event_unbound(event_type: impl Into<String>) -> Self {
        Pattern::Event {
            event_type: event_type.into(),
            var: None,
            negated: false,
        }
    }

    /// Convenience constructor for a negated event pattern.
    #[must_use]
    pub fn not_event(event_type: impl Into<String>, var: impl Into<String>) -> Self {
        Pattern::Event {
            event_type: event_type.into(),
            var: Some(var.into()),
            negated: true,
        }
    }

    /// Flattens the pattern into its element list (a single event pattern
    /// is a one-element sequence). Nested `SEQ`s are flattened too, since
    /// `SEQ(a, SEQ(b, c))` ≡ `SEQ(a, b, c)` under the sequence semantics
    /// of §4.1.
    #[must_use]
    pub fn elements(&self) -> Vec<&Pattern> {
        match self {
            Pattern::Event { .. } => vec![self],
            Pattern::Seq(items) => items.iter().flat_map(Pattern::elements).collect(),
        }
    }

    /// All variables bound by the pattern, positive and negated.
    #[must_use]
    pub fn variables(&self) -> Vec<(&str, bool)> {
        self.elements()
            .into_iter()
            .filter_map(|p| match p {
                Pattern::Event {
                    var: Some(v),
                    negated,
                    ..
                } => Some((v.as_str(), *negated)),
                _ => None,
            })
            .collect()
    }

    /// All event type names referenced by the pattern.
    #[must_use]
    pub fn event_types(&self) -> BTreeSet<&str> {
        self.elements()
            .into_iter()
            .filter_map(|p| match p {
                Pattern::Event { event_type, .. } => Some(event_type.as_str()),
                _ => None,
            })
            .collect()
    }

    /// Returns `true` if every element of the pattern is negated — such a
    /// pattern can never match and is rejected by validation.
    #[must_use]
    pub fn all_negated(&self) -> bool {
        self.elements().iter().all(|p| match p {
            Pattern::Event { negated, .. } => *negated,
            _ => false,
        })
    }
}

/// Binary operators of the expression grammar (Figure 4):
/// `+ - * / = ≠ > ≥ < ≤ AND OR`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `=`
    Eq,
    /// `!=` / `≠`
    Ne,
    /// `<`
    Lt,
    /// `<=` / `≤`
    Le,
    /// `>`
    Gt,
    /// `>=` / `≥`
    Ge,
    /// `AND`
    And,
    /// `OR`
    Or,
}

impl BinOp {
    /// Surface syntax of the operator.
    #[must_use]
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Eq => "=",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "AND",
            BinOp::Or => "OR",
        }
    }

    /// Returns `true` for comparison operators producing booleans.
    #[must_use]
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }

    /// Returns `true` for `AND` / `OR`.
    #[must_use]
    pub fn is_logical(self) -> bool {
        matches!(self, BinOp::And | BinOp::Or)
    }
}

/// An expression (`Expr` of Figure 4).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum Expr {
    /// A literal constant.
    Const(Value),
    /// An attribute reference `var.attr`, or a bare `attr` resolved
    /// against the query's only pattern variable (`var == None`).
    Attr {
        /// Pattern variable, if qualified.
        var: Option<String>,
        /// Attribute name.
        attr: String,
    },
    /// A binary operation.
    Binary {
        /// The operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
}

impl Expr {
    /// Builds an integer constant.
    #[must_use]
    pub fn int(v: i64) -> Self {
        Expr::Const(Value::Int(v))
    }

    /// Builds a string constant.
    #[must_use]
    pub fn string(s: impl AsRef<str>) -> Self {
        Expr::Const(Value::str(s))
    }

    /// Builds a qualified attribute reference `var.attr`.
    #[must_use]
    pub fn attr(var: impl Into<String>, attr: impl Into<String>) -> Self {
        Expr::Attr {
            var: Some(var.into()),
            attr: attr.into(),
        }
    }

    /// Builds a bare attribute reference.
    #[must_use]
    pub fn bare(attr: impl Into<String>) -> Self {
        Expr::Attr {
            var: None,
            attr: attr.into(),
        }
    }

    /// Combines two expressions with a binary operator.
    #[must_use]
    pub fn bin(op: BinOp, lhs: Expr, rhs: Expr) -> Self {
        Expr::Binary {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        }
    }

    /// Conjunction helper.
    #[must_use]
    pub fn and(self, rhs: Expr) -> Self {
        Expr::bin(BinOp::And, self, rhs)
    }

    /// Splits a conjunction tree into its conjuncts: `a AND (b AND c)`
    /// yields `[a, b, c]`. Non-`AND` expressions yield themselves.
    #[must_use]
    pub fn conjuncts(&self) -> Vec<&Expr> {
        match self {
            Expr::Binary {
                op: BinOp::And,
                lhs,
                rhs,
            } => {
                let mut out = lhs.conjuncts();
                out.extend(rhs.conjuncts());
                out
            }
            other => vec![other],
        }
    }

    /// Rebuilds a conjunction from conjuncts; `None` for an empty list.
    #[must_use]
    pub fn conjoin(exprs: Vec<Expr>) -> Option<Expr> {
        exprs.into_iter().reduce(|a, b| a.and(b))
    }

    /// All pattern variables referenced by the expression
    /// (`None` entries are bare references).
    #[must_use]
    pub fn referenced_vars(&self) -> BTreeSet<Option<&str>> {
        let mut out = BTreeSet::new();
        self.collect_vars(&mut out);
        out
    }

    fn collect_vars<'a>(&'a self, out: &mut BTreeSet<Option<&'a str>>) {
        match self {
            Expr::Const(_) => {}
            Expr::Attr { var, .. } => {
                out.insert(var.as_deref());
            }
            Expr::Binary { lhs, rhs, .. } => {
                lhs.collect_vars(out);
                rhs.collect_vars(out);
            }
        }
    }
}

/// A context-aware event query (Definition 3).
///
/// Exactly one of `action` (context-deriving query) or `derive`
/// (context-processing query) is set; validation enforces this.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct EventQuery {
    /// Optional human-readable name.
    pub name: Option<String>,
    /// Context transition performed on match (deriving queries only).
    pub action: Option<ContextAction>,
    /// Complex event derivation (processing queries only).
    pub derive: Option<DeriveClause>,
    /// The event pattern to match.
    pub pattern: Pattern,
    /// Optional filter predicate.
    pub where_clause: Option<Expr>,
    /// Optional temporal constraint: maximum span (in ticks) of a
    /// sequence match, and the negation-buffer horizon. `None` falls
    /// back to the translation default.
    pub within: Option<u64>,
    /// Contexts the query belongs to. Optional in the surface syntax
    /// (implied by the model); made mandatory by Phase-1 translation.
    pub contexts: Vec<String>,
}

impl EventQuery {
    /// Returns `true` for context-deriving queries.
    #[must_use]
    pub fn is_deriving(&self) -> bool {
        self.action.is_some()
    }

    /// Returns `true` for context-processing queries.
    #[must_use]
    pub fn is_processing(&self) -> bool {
        self.derive.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_where() -> Expr {
        // p1.sec + 30 = p2.sec AND p1.vid = p2.vid AND p2.lane != "exit"
        Expr::bin(
            BinOp::Eq,
            Expr::bin(BinOp::Add, Expr::attr("p1", "sec"), Expr::int(30)),
            Expr::attr("p2", "sec"),
        )
        .and(Expr::bin(
            BinOp::Eq,
            Expr::attr("p1", "vid"),
            Expr::attr("p2", "vid"),
        ))
        .and(Expr::bin(
            BinOp::Ne,
            Expr::attr("p2", "lane"),
            Expr::string("exit"),
        ))
    }

    #[test]
    fn conjuncts_flatten_left_and_right_nesting() {
        let e = sample_where();
        assert_eq!(e.conjuncts().len(), 3);
        let nested = Expr::int(1).and(Expr::int(2).and(Expr::int(3)));
        assert_eq!(nested.conjuncts().len(), 3);
    }

    #[test]
    fn conjoin_round_trips() {
        let e = sample_where();
        let parts: Vec<Expr> = e.conjuncts().into_iter().cloned().collect();
        let rebuilt = Expr::conjoin(parts).unwrap();
        assert_eq!(rebuilt.conjuncts().len(), 3);
        assert!(Expr::conjoin(vec![]).is_none());
    }

    #[test]
    fn referenced_vars_collects_all() {
        let w = sample_where();
        let vars = w.referenced_vars();
        assert!(vars.contains(&Some("p1")));
        assert!(vars.contains(&Some("p2")));
        assert_eq!(vars.len(), 2);
        let bare = Expr::bin(BinOp::Gt, Expr::bare("X"), Expr::int(10));
        assert!(bare.referenced_vars().contains(&None));
    }

    #[test]
    fn pattern_flattening_and_vars() {
        // SEQ(NOT PositionReport p1, PositionReport p2)
        let p = Pattern::Seq(vec![
            Pattern::not_event("PositionReport", "p1"),
            Pattern::event("PositionReport", "p2"),
        ]);
        assert_eq!(p.elements().len(), 2);
        assert_eq!(p.variables(), vec![("p1", true), ("p2", false)]);
        assert_eq!(p.event_types().len(), 1);
        assert!(!p.all_negated());
    }

    #[test]
    fn nested_seq_flattens() {
        let p = Pattern::Seq(vec![
            Pattern::event("A", "a"),
            Pattern::Seq(vec![Pattern::event("B", "b"), Pattern::event("C", "c")]),
        ]);
        assert_eq!(p.elements().len(), 3);
    }

    #[test]
    fn all_negated_pattern_detected() {
        let p = Pattern::Seq(vec![Pattern::not_event("A", "a")]);
        assert!(p.all_negated());
    }

    #[test]
    fn context_action_accessors() {
        let a = ContextAction::Switch("congestion".into());
        assert_eq!(a.target(), "congestion");
        assert_eq!(a.keyword(), "SWITCH");
    }

    #[test]
    fn query_kind_predicates() {
        let deriving = EventQuery {
            name: None,
            action: Some(ContextAction::Initiate("accident".into())),
            derive: None,
            pattern: Pattern::event_unbound("Accident"),
            where_clause: None,
            within: None,
            contexts: vec![],
        };
        assert!(deriving.is_deriving());
        assert!(!deriving.is_processing());
    }

    #[test]
    fn binop_classification() {
        assert!(BinOp::Eq.is_comparison());
        assert!(!BinOp::Add.is_comparison());
        assert!(BinOp::And.is_logical());
        assert_eq!(BinOp::Ne.symbol(), "!=");
    }
}
