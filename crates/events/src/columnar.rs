//! Columnar (structure-of-arrays) views over event batches.
//!
//! Row-oriented [`Event`]s are ideal for routing and state
//! maintenance, but predicate-heavy operator chains touch the same one
//! or two attributes of every event in a batch. A [`ColumnarView`]
//! transposes the events of one type into per-attribute `Vec` columns so
//! vectorized kernels (see `caesar-algebra`) can scan a flat `Vec<i64>`
//! instead of chasing `Arc<[Value]>` rows, and compare interned string
//! ids instead of string bytes.
//!
//! Views are *positional*: every column has one entry per event of the
//! underlying batch slice (not per event of the view's type), indexed by
//! the event's position in that slice. Rows belonging to other types
//! hold unread filler values. This lets **selection vectors** — sorted
//! lists of row indices — flow unchanged between columnar kernels and
//! the row-oriented fallback interpreter: index `i` means
//! `events[i]` everywhere.
//!
//! Column kinds are taken from the *runtime* values in the batch, not
//! the declared schema, so interpreter semantics (e.g. integer-typed
//! arithmetic on an attribute declared `Float` but populated with
//! `Int`s) are preserved exactly. Any attribute containing a `Null` or
//! a mix of runtime types becomes [`Column::Opaque`], which kernels
//! refuse to touch — the interpreter fallback handles those rows.

use crate::event::Event;
use crate::schema::TypeId;
use crate::value::Value;
use std::collections::HashMap;
use std::sync::Arc;

/// The runtime type of a column, used by the kernel compiler to decide
/// which specialized kernel (if any) applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnKind {
    /// Every value of the attribute is `Value::Int`.
    Int,
    /// Every value of the attribute is `Value::Float`.
    Float,
    /// Every value of the attribute is `Value::Bool`.
    Bool,
    /// Every value of the attribute is `Value::Str` (interned).
    Str,
    /// Mixed runtime types or at least one `Null`: kernels fall back to
    /// the tree-walking interpreter for this attribute.
    Opaque,
}

/// One attribute of one event type, transposed across a batch slice.
#[derive(Debug, Clone)]
pub enum Column {
    /// Dense `i64` column.
    Int(Vec<i64>),
    /// Dense `f64` column.
    Float(Vec<f64>),
    /// Dense `bool` column.
    Bool(Vec<bool>),
    /// Dictionary-interned string column: `ids[row]` indexes `dict`.
    Str(StrColumn),
    /// Not transposed (mixed types or nulls); rows must go through the
    /// interpreter.
    Opaque,
}

impl Column {
    /// The kind tag of this column.
    pub fn kind(&self) -> ColumnKind {
        match self {
            Column::Int(_) => ColumnKind::Int,
            Column::Float(_) => ColumnKind::Float,
            Column::Bool(_) => ColumnKind::Bool,
            Column::Str(_) => ColumnKind::Str,
            Column::Opaque => ColumnKind::Opaque,
        }
    }
}

/// A dictionary-encoded string column. Equal strings share one
/// dictionary id, so equality predicates compare `u32`s instead of
/// string bytes (and a constant absent from the dictionary matches
/// nothing without any per-row work).
#[derive(Debug, Clone, Default)]
pub struct StrColumn {
    /// Per-row dictionary index (filler rows hold `u32::MAX`).
    pub ids: Vec<u32>,
    /// Distinct strings, in first-appearance order.
    pub dict: Vec<Arc<str>>,
}

impl StrColumn {
    /// Resolves a string constant to its dictionary id, if present in
    /// this batch.
    pub fn lookup(&self, s: &str) -> Option<u32> {
        self.dict.iter().position(|d| &**d == s).map(|i| i as u32)
    }

    /// The string at `row` (must be a row of the view's type).
    pub fn str_at(&self, row: usize) -> &str {
        &self.dict[self.ids[row] as usize]
    }
}

/// A columnar transpose of the events of one type within a batch slice.
#[derive(Debug, Clone)]
pub struct ColumnarView {
    /// The event type this view covers.
    pub type_id: TypeId,
    /// Number of rows (== length of the source slice, *not* the number
    /// of events of `type_id`).
    pub rows: usize,
    /// One column per attribute of the type.
    pub columns: Vec<Column>,
}

impl ColumnarView {
    /// Transposes the events of `type_id` in `events` into columns.
    /// Positions holding other types get filler values that selection
    /// vectors never reference.
    pub fn build(events: &[Event], type_id: TypeId) -> Self {
        let arity = events
            .iter()
            .find(|e| e.type_id == type_id)
            .map_or(0, |e| e.attrs.len());
        let columns = (0..arity)
            .map(|attr| build_column(events, type_id, attr))
            .collect();
        ColumnarView {
            type_id,
            rows: events.len(),
            columns,
        }
    }

    /// The kind of attribute column `attr`, or `Opaque` out of range.
    pub fn kind(&self, attr: usize) -> ColumnKind {
        self.columns
            .get(attr)
            .map_or(ColumnKind::Opaque, Column::kind)
    }

    /// The kind signature of every column, used to validate cached
    /// compiled kernels against a new batch.
    pub fn kinds(&self) -> Vec<ColumnKind> {
        self.columns.iter().map(Column::kind).collect()
    }

    /// The `i64` column for `attr`. Panics if the column is not
    /// [`Column::Int`]; kernel compilation guarantees it is.
    pub fn int_col(&self, attr: usize) -> &[i64] {
        match &self.columns[attr] {
            Column::Int(v) => v,
            other => panic!("column {attr} is {:?}, not Int", other.kind()),
        }
    }

    /// The `f64` column for `attr` (see [`Self::int_col`]).
    pub fn float_col(&self, attr: usize) -> &[f64] {
        match &self.columns[attr] {
            Column::Float(v) => v,
            other => panic!("column {attr} is {:?}, not Float", other.kind()),
        }
    }

    /// The `bool` column for `attr` (see [`Self::int_col`]).
    pub fn bool_col(&self, attr: usize) -> &[bool] {
        match &self.columns[attr] {
            Column::Bool(v) => v,
            other => panic!("column {attr} is {:?}, not Bool", other.kind()),
        }
    }

    /// The interned string column for `attr` (see [`Self::int_col`]).
    pub fn str_col(&self, attr: usize) -> &StrColumn {
        match &self.columns[attr] {
            Column::Str(c) => c,
            other => panic!("column {attr} is {:?}, not Str", other.kind()),
        }
    }
}

/// Builds one attribute column, falling back to `Opaque` on the first
/// null or runtime-type mismatch.
fn build_column(events: &[Event], type_id: TypeId, attr: usize) -> Column {
    enum Builder {
        Start,
        Int(Vec<i64>),
        Float(Vec<f64>),
        Bool(Vec<bool>),
        Str {
            ids: Vec<u32>,
            dict: Vec<Arc<str>>,
            seen: HashMap<Arc<str>, u32>,
        },
    }
    let mut state = Builder::Start;
    for (row, event) in events.iter().enumerate() {
        if event.type_id != type_id {
            // Filler for rows of other types; never read through a
            // selection vector.
            match &mut state {
                Builder::Start => {}
                Builder::Int(v) => v.push(0),
                Builder::Float(v) => v.push(0.0),
                Builder::Bool(v) => v.push(false),
                Builder::Str { ids, .. } => ids.push(u32::MAX),
            }
            continue;
        }
        let Some(value) = event.attrs.get(attr) else {
            return Column::Opaque;
        };
        if let Builder::Start = state {
            state = match value {
                Value::Int(_) => Builder::Int(filled(row, 0)),
                Value::Float(_) => Builder::Float(filled(row, 0.0)),
                Value::Bool(_) => Builder::Bool(filled(row, false)),
                Value::Str(_) => Builder::Str {
                    ids: filled(row, u32::MAX),
                    dict: Vec::new(),
                    seen: HashMap::new(),
                },
                Value::Null => return Column::Opaque,
            };
        }
        match (&mut state, value) {
            (Builder::Int(v), Value::Int(x)) => v.push(*x),
            (Builder::Float(v), Value::Float(x)) => v.push(*x),
            (Builder::Bool(v), Value::Bool(x)) => v.push(*x),
            (Builder::Str { ids, dict, seen }, Value::Str(s)) => {
                let id = *seen.entry(s.clone()).or_insert_with(|| {
                    dict.push(s.clone());
                    (dict.len() - 1) as u32
                });
                ids.push(id);
            }
            _ => return Column::Opaque,
        }
    }
    match state {
        Builder::Start => Column::Opaque,
        Builder::Int(v) => Column::Int(v),
        Builder::Float(v) => Column::Float(v),
        Builder::Bool(v) => Column::Bool(v),
        Builder::Str { ids, dict, .. } => Column::Str(StrColumn { ids, dict }),
    }
}

/// A vec pre-padded with `n` filler entries (rows before the first
/// event of the view's type).
fn filled<T: Clone>(n: usize, fill: T) -> Vec<T> {
    vec![fill; n]
}

/// Lazily built, per-transaction cache of [`ColumnarView`]s, one per
/// event type actually filtered or projected. Shared by every plan that
/// processes the same batch, so the transpose cost is paid once however
/// many queries scan the type.
#[derive(Debug)]
pub struct ColumnarBatch<'a> {
    events: &'a [Event],
    views: Vec<ColumnarView>,
}

impl<'a> ColumnarBatch<'a> {
    /// Wraps a batch slice. No columns are built until [`Self::view`]
    /// is called.
    pub fn new(events: &'a [Event]) -> Self {
        ColumnarBatch {
            events,
            views: Vec::new(),
        }
    }

    /// The underlying row-oriented events. The returned reference
    /// borrows the original slice, not `self`, so it stays usable while
    /// views are being built.
    pub fn events(&self) -> &'a [Event] {
        self.events
    }

    /// The columnar view for `type_id`, building and caching it on
    /// first use.
    pub fn view(&mut self, type_id: TypeId) -> &ColumnarView {
        if let Some(pos) = self.views.iter().position(|v| v.type_id == type_id) {
            return &self.views[pos];
        }
        self.views.push(ColumnarView::build(self.events, type_id));
        self.views.last().expect("just pushed")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::PartitionId;
    use crate::time::Interval;

    fn ev(type_id: u32, attrs: Vec<Value>) -> Event {
        Event::complex(
            TypeId(type_id),
            Interval::point(1),
            PartitionId(0),
            Arc::from(attrs),
        )
    }

    #[test]
    fn builds_typed_columns_with_filler_rows() {
        let events = vec![
            ev(2, vec![Value::Int(99)]),
            ev(1, vec![Value::Int(7), Value::Float(1.5), Value::Bool(true)]),
            ev(
                1,
                vec![Value::Int(8), Value::Float(2.5), Value::Bool(false)],
            ),
        ];
        let view = ColumnarView::build(&events, TypeId(1));
        assert_eq!(view.rows, 3);
        assert_eq!(
            view.kinds(),
            vec![ColumnKind::Int, ColumnKind::Float, ColumnKind::Bool]
        );
        // Row indices are positions in the full slice.
        assert_eq!(view.int_col(0), &[0, 7, 8]);
        assert_eq!(view.float_col(1), &[0.0, 1.5, 2.5]);
        assert_eq!(view.bool_col(2), &[false, true, false]);
    }

    #[test]
    fn interns_strings_by_content() {
        let events = vec![
            ev(1, vec![Value::from("travel")]),
            ev(1, vec![Value::from("exit")]),
            ev(1, vec![Value::from("travel")]),
        ];
        let view = ColumnarView::build(&events, TypeId(1));
        let col = view.str_col(0);
        assert_eq!(col.ids, vec![0, 1, 0]);
        assert_eq!(col.lookup("exit"), Some(1));
        assert_eq!(col.lookup("entrance"), None);
        assert_eq!(col.str_at(2), "travel");
    }

    #[test]
    fn nulls_and_mixed_types_become_opaque() {
        let with_null = vec![ev(1, vec![Value::Int(1)]), ev(1, vec![Value::Null])];
        assert_eq!(
            ColumnarView::build(&with_null, TypeId(1)).kind(0),
            ColumnKind::Opaque
        );
        let mixed = vec![ev(1, vec![Value::Int(1)]), ev(1, vec![Value::Float(2.0)])];
        assert_eq!(
            ColumnarView::build(&mixed, TypeId(1)).kind(0),
            ColumnKind::Opaque
        );
    }

    #[test]
    fn batch_caches_views_per_type() {
        let events = vec![ev(1, vec![Value::Int(1)]), ev(2, vec![Value::Int(2)])];
        let mut batch = ColumnarBatch::new(&events);
        assert_eq!(batch.view(TypeId(1)).int_col(0), &[1, 0]);
        assert_eq!(batch.view(TypeId(2)).int_col(0), &[0, 2]);
        // Second access hits the cache (same pointer).
        let first = batch.view(TypeId(1)) as *const ColumnarView;
        assert_eq!(first, batch.view(TypeId(1)) as *const ColumnarView);
    }
}
