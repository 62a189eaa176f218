//! One row type for the committed trajectories (`BENCH_RUNTIME.json`,
//! `BENCH_STEPLOOP.json`).
//!
//! A [`Row`] is an ordered list of named cells. A `const` [`Schema`] per
//! document lists its sections in emission order: each section's JSON
//! key, table title and fields, and each field's key, [`Kind`] (which
//! fixes its JSON format) and table column. [`to_json`], [`from_json`]
//! and [`render`] walk that schema; no other code spells a field's
//! format. A measured row may carry more cells than its section emits.
//!
//! The workspace is offline and carries no serde, so the document is
//! hand-written here and read back through [`crate::jsonv`].
//! [`validate_roundtrip`] is the gate the bench binaries pass before they
//! write: the emitted document parses back and re-emits to the same
//! bytes, so field drift fails the binary, not the next change.

use std::time::Duration;

use crate::jsonv::{self, Value};
use crate::table::Table;

/// What a field holds; the kind fixes the field's JSON format.
#[derive(Clone, Copy, Debug)]
pub enum Kind {
    /// A string tag from a closed set.
    Tag(&'static [&'static str]),
    /// A non-negative integer.
    Int,
    /// A non-negative integer count of nanoseconds; tables show it in ms.
    Nanos,
    /// A real: `Some(d)` prints `d` decimals, `None` the shortest form
    /// that reads back exactly (`{}`).
    Real(Option<usize>),
    /// A list of non-negative integers.
    Ints,
}

/// One field of a section.
#[derive(Clone, Copy, Debug)]
pub struct Field {
    /// The JSON key.
    pub key: &'static str,
    /// What it holds.
    pub kind: Kind,
    /// The table column header; `None` keeps the field out of the table.
    pub column: Option<&'static str>,
}

impl Field {
    /// A field that has a table column.
    pub const fn col(key: &'static str, kind: Kind, column: &'static str) -> Field {
        Field {
            key,
            kind,
            column: Some(column),
        }
    }

    /// A field only the JSON document carries.
    pub const fn json(key: &'static str, kind: Kind) -> Field {
        Field {
            key,
            kind,
            column: None,
        }
    }

    /// Formats `row`'s cell for the JSON document (`table`: for a table).
    ///
    /// # Panics
    ///
    /// Panics if the row lacks the field or holds another kind: that is
    /// a measurement building the wrong row.
    pub(crate) fn show(&self, row: &Row, table: bool) -> String {
        let cell = row
            .get(self.key)
            .unwrap_or_else(|| panic!("row lacks field `{}`", self.key));
        match (self.kind, cell) {
            (Kind::Tag(_), Cell::Tag(s)) if table => s.to_string(),
            (Kind::Tag(_), Cell::Tag(s)) => format!("\"{s}\""),
            (Kind::Nanos, Cell::Int(v)) if table => format!("{:.2}", *v as f64 / 1e6),
            (Kind::Int | Kind::Nanos, Cell::Int(v)) => v.to_string(),
            (Kind::Real(Some(d)), Cell::Real(x)) => format!("{x:.d$}"),
            (Kind::Real(None), Cell::Real(x)) => x.to_string(),
            (Kind::Ints, Cell::Ints(v)) => {
                let items: Vec<String> = v.iter().map(u64::to_string).collect();
                format!("[{}]", items.join(", "))
            }
            (kind, cell) => panic!("field `{}` is {kind:?} but holds {cell:?}", self.key),
        }
    }

    /// Reads this field out of a parsed JSON row object, checking that it
    /// is present and of this field's kind.
    fn read(&self, row: &Value) -> Result<Cell, String> {
        let key = self.key;
        let value = row
            .get(key)
            .ok_or_else(|| format!("missing field `{key}`"))?;
        let int = |v: &Value| match v {
            Value::Num(x) if *x >= 0.0 && x.fract() == 0.0 => Ok(*x as u64),
            Value::Num(x) => Err(format!("field `{key}` holds {x}, not an integer")),
            _ => Err(format!("field `{key}` is not a number")),
        };
        match self.kind {
            Kind::Tag(valid) => {
                let s = value
                    .as_str()
                    .ok_or_else(|| format!("field `{key}` is not a string"))?;
                let tag = valid.iter().find(|t| **t == s).ok_or_else(|| {
                    format!("unknown `{key}` tag `{s}` (valid: {})", valid.join(", "))
                })?;
                Ok(Cell::Tag(tag))
            }
            Kind::Int | Kind::Nanos => int(value).map(Cell::Int),
            Kind::Real(_) => value
                .as_num()
                .map(Cell::Real)
                .ok_or_else(|| format!("field `{key}` is not a number")),
            Kind::Ints => value
                .as_arr()
                .ok_or_else(|| format!("field `{key}` is not an array"))?
                .iter()
                .map(int)
                .collect::<Result<_, _>>()
                .map(Cell::Ints),
        }
    }
}

/// One JSON array of rows and its table.
#[derive(Debug)]
pub struct Section {
    /// The JSON key of the array.
    pub key: &'static str,
    /// The table title.
    pub title: &'static str,
    /// The fields of each row, in emission order.
    pub fields: &'static [Field],
}

/// One document: its tags and sections, in emission order.
#[derive(Debug)]
pub struct Schema {
    /// The `experiment` tag.
    pub experiment: &'static str,
    /// The `unit` tag.
    pub unit: &'static str,
    /// The row arrays.
    pub sections: &'static [Section],
    /// The document ends with `total_served`: the sum of every row's
    /// [`SERVED_KEYS`] fields, which the parser checks.
    pub total_served: bool,
}

/// The fields `total_served` adds up.
pub const SERVED_KEYS: [&str; 3] = ["served", "base_served", "mon_served"];

/// One measured value.
#[derive(Clone, PartialEq, Debug)]
pub enum Cell {
    /// A string tag.
    Tag(&'static str),
    /// An integer (also a nanosecond count).
    Int(u64),
    /// A real.
    Real(f64),
    /// A list of integers.
    Ints(Vec<u64>),
}

impl From<u64> for Cell {
    fn from(v: u64) -> Cell {
        Cell::Int(v)
    }
}

impl From<usize> for Cell {
    fn from(v: usize) -> Cell {
        Cell::Int(v as u64)
    }
}

impl From<Duration> for Cell {
    fn from(d: Duration) -> Cell {
        Cell::Int(u64::try_from(d.as_nanos()).expect("a measured duration fits u64 ns"))
    }
}

impl From<f64> for Cell {
    fn from(x: f64) -> Cell {
        Cell::Real(x)
    }
}

impl From<&'static str> for Cell {
    fn from(s: &'static str) -> Cell {
        Cell::Tag(s)
    }
}

impl From<Vec<u64>> for Cell {
    fn from(v: Vec<u64>) -> Cell {
        Cell::Ints(v)
    }
}

/// One row: named cells, in the order they were set.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Row(Vec<(&'static str, Cell)>);

impl Row {
    /// The row with `key` set to `value` (replacing an earlier value).
    pub fn with(mut self, key: &'static str, value: impl Into<Cell>) -> Row {
        let value = value.into();
        match self.0.iter_mut().find(|(k, _)| *k == key) {
            Some((_, cell)) => *cell = value,
            None => self.0.push((key, value)),
        }
        self
    }

    /// The cell at `key`.
    pub fn get(&self, key: &str) -> Option<&Cell> {
        self.0.iter().find(|(k, _)| *k == key).map(|(_, c)| c)
    }

    /// The integer at `key` (panics if absent or of another kind).
    pub fn int(&self, key: &str) -> u64 {
        match self.get(key) {
            Some(Cell::Int(v)) => *v,
            other => panic!("`{key}` is not an integer: {other:?}"),
        }
    }

    /// The real at `key` (panics if absent or of another kind).
    pub fn real(&self, key: &str) -> f64 {
        match self.get(key) {
            Some(Cell::Real(x)) => *x,
            other => panic!("`{key}` is not a real: {other:?}"),
        }
    }
}

/// The sum of every emitted [`SERVED_KEYS`] field over all rows.
fn total_served(schema: &Schema, sections: &[Vec<Row>]) -> u64 {
    schema
        .sections
        .iter()
        .zip(sections)
        .flat_map(|(s, rows)| {
            s.fields
                .iter()
                .filter(|f| SERVED_KEYS.contains(&f.key))
                .map(move |f| rows.iter().map(|r| r.int(f.key)).sum::<u64>())
        })
        .sum()
}

/// The document holding `sections` (one row list per schema section, in
/// schema order).
///
/// # Panics
///
/// Panics if the section count differs from the schema's, or a row lacks
/// a field of its section or holds it as another kind.
pub fn to_json(schema: &Schema, sections: &[Vec<Row>]) -> String {
    assert_eq!(
        sections.len(),
        schema.sections.len(),
        "one row list per section"
    );
    let mut out = format!(
        "{{\n  \"experiment\": \"{}\",\n  \"unit\": \"{}\",\n",
        schema.experiment, schema.unit
    );
    for (i, (section, rows)) in schema.sections.iter().zip(sections).enumerate() {
        out.push_str(&format!("  \"{}\": [\n", section.key));
        for (j, row) in rows.iter().enumerate() {
            let cells: Vec<String> = section
                .fields
                .iter()
                .map(|f| format!("\"{}\": {}", f.key, f.show(row, false)))
                .collect();
            let sep = if j + 1 < rows.len() { "," } else { "" };
            out.push_str(&format!("    {{{}}}{sep}\n", cells.join(", ")));
        }
        let last = i + 1 == sections.len() && !schema.total_served;
        out.push_str(if last { "  ]\n" } else { "  ],\n" });
    }
    if schema.total_served {
        let total = total_served(schema, sections);
        out.push_str(&format!("  \"total_served\": {total}\n"));
    }
    out.push_str("}\n");
    out
}

/// Parses a document back through `schema`: the tags must match, every
/// section array must be present, and every row must carry every field
/// of its section in that field's kind, tags from their closed sets. A
/// document with `total_served` must agree with its rows' sum.
pub fn from_json(schema: &Schema, doc: &str) -> Result<Vec<Vec<Row>>, String> {
    let value = jsonv::parse(doc)?;
    for (key, want) in [("experiment", schema.experiment), ("unit", schema.unit)] {
        if value.get(key).and_then(Value::as_str) != Some(want) {
            return Err(format!("wrong or missing `{key}` tag"));
        }
    }
    let sections = schema
        .sections
        .iter()
        .map(|s| {
            let rows = value
                .get(s.key)
                .and_then(Value::as_arr)
                .ok_or_else(|| format!("missing `{}` array", s.key))?;
            rows.iter()
                .enumerate()
                .map(|(i, row)| {
                    s.fields
                        .iter()
                        .try_fold(Row::default(), |r, f| Ok(r.with(f.key, f.read(row)?)))
                        .map_err(|e: String| format!("{}[{i}]: {e}", s.key))
                })
                .collect::<Result<Vec<Row>, String>>()
        })
        .collect::<Result<Vec<_>, String>>()?;
    if schema.total_served {
        let total = value
            .get("total_served")
            .and_then(Value::as_num)
            .ok_or("missing `total_served`")?;
        let sum = total_served(schema, &sections);
        if total != sum as f64 {
            return Err(format!(
                "total_served {total} disagrees with the rows' sum {sum}"
            ));
        }
    }
    Ok(sections)
}

/// Parses `doc` and emits it again: the result must be the same bytes.
/// Run on a freshly emitted document, this is emit → parse → emit.
pub fn validate_roundtrip(schema: &Schema, doc: &str) -> Result<(), String> {
    let again = to_json(schema, &from_json(schema, doc)?);
    match doc.lines().zip(again.lines()).find(|(a, b)| a != b) {
        Some((was, now)) => Err(format!("`{was}` re-emits as `{now}`")),
        None if doc != again => Err("the document re-emits to other bytes".into()),
        None => Ok(()),
    }
}

/// Every non-empty section as a titled ASCII table over its columns,
/// then the total served, if the schema counts one.
pub fn render(schema: &Schema, sections: &[Vec<Row>]) -> String {
    let mut out = String::new();
    for (section, rows) in schema.sections.iter().zip(sections) {
        if rows.is_empty() {
            continue;
        }
        let columns: Vec<(&Field, &str)> = section
            .fields
            .iter()
            .filter_map(|f| Some((f, f.column?)))
            .collect();
        let headers: Vec<&str> = columns.iter().map(|(_, c)| *c).collect();
        let mut table = Table::new(&headers);
        for row in rows {
            let cells: Vec<String> = columns.iter().map(|(f, _)| f.show(row, true)).collect();
            table.row(&cells);
        }
        out.push_str(&format!("\n{}:\n{}", section.title, table.render()));
    }
    if schema.total_served {
        let total = total_served(schema, sections);
        out.push_str(&format!("\ntotal requests served end-to-end: {total}\n"));
    }
    out
}
