//! Differential property suite: `QueryPlan`'s one-pass evaluator (hashed
//! group index, streaming accumulators) against the two-pass evaluator it
//! replaced, which gathered each group's member rows by a linear
//! `total_cmp` scan and then aggregated every group column by column.
//!
//! The oracle below is that evaluator, kept as it was except for two
//! rules both evaluators now share:
//! - an integer `sum`/`avg` whose `i64` addition overflows yields the
//!   `f64` sum as `Scalar::Real` (it used to panic in debug builds and
//!   wrap in release builds);
//! - `order by` sorts by a total order, with NaN above every number
//!   (sorting by the non-transitive `total_cmp` could panic).
//!
//! Inputs are random schemas and rows with group columns of every type,
//! drawn from small domains so groups collide. `real` keys include NaN,
//! `-0.0`/`0.0` and `Int` values stored in `real` and `tstamp` columns —
//! the cases where `total_cmp` equality is not plain value equality and
//! grouping must stay first-match. Queries cover all five aggregates, the
//! implicit `count`, `since` + `where`, `order by` on a group or aggregate
//! output with `limit`, plain projections and empty input. Results are
//! compared by their `Debug` form, so NaN equals itself and `-0.0`
//! differs from `0.0`.

use std::sync::Arc;

use proptest::prelude::*;

use gapl::event::{AttrType, Scalar, Schema, Tuple};
use pscache::{Aggregate, Comparison, Predicate, Query, QueryPlan};

/// The replaced two-pass evaluator.
mod oracle {
    use std::cmp::Ordering;
    use std::sync::Arc;

    use gapl::event::{Scalar, Schema, Timestamp, Tuple};
    use pscache::{Aggregate, Comparison, Predicate, Query, ResultSet, Row};

    fn compare(op: Comparison, lhs: &Scalar, rhs: &Scalar) -> bool {
        use std::cmp::Ordering::*;
        let ord = lhs.total_cmp(rhs);
        match op {
            Comparison::Eq => ord == Equal,
            Comparison::NotEq => ord != Equal,
            Comparison::Lt => ord == Less,
            Comparison::Le => ord != Greater,
            Comparison::Gt => ord == Greater,
            Comparison::Ge => ord != Less,
        }
    }

    /// The second shared rule: `order by`'s total order, as `QueryPlan`
    /// sorts (numbers by exact value with NaN above them all, strings
    /// and booleans as `total_cmp` does, then booleans < numbers <
    /// strings across kinds).
    fn sort_cmp(a: &Scalar, b: &Scalar) -> Ordering {
        /// A number's exact value: integers widened, reals as they are.
        enum Num {
            Int(i128),
            Real(f64),
        }
        fn num(v: &Scalar) -> Option<Num> {
            match v {
                Scalar::Int(i) => Some(Num::Int(i128::from(*i))),
                Scalar::Tstamp(t) => Some(Num::Int(i128::from(*t))),
                Scalar::Real(r) => Some(Num::Real(*r)),
                Scalar::Bool(_) | Scalar::Str(_) => None,
            }
        }
        fn int_vs_real(i: i128, r: f64) -> Ordering {
            // Stored integers lie within ±2^64, so a real beyond that (or
            // infinite, or NaN) is decided by its sign; any other real's
            // integer part converts to `i128` exactly.
            const TWO_POW_64: f64 = 18_446_744_073_709_551_616.0;
            if r.is_nan() || r >= TWO_POW_64 {
                return Ordering::Less;
            }
            if r <= -TWO_POW_64 {
                return Ordering::Greater;
            }
            let whole = r.trunc();
            i.cmp(&(whole as i128))
                .then_with(|| whole.partial_cmp(&r).unwrap_or(Ordering::Equal))
        }
        fn kind(v: &Scalar) -> u8 {
            match v {
                Scalar::Bool(_) => 0,
                Scalar::Int(_) | Scalar::Real(_) | Scalar::Tstamp(_) => 1,
                Scalar::Str(_) => 2,
            }
        }
        match (a, b) {
            (Scalar::Str(x), Scalar::Str(y)) => x.cmp(y),
            (Scalar::Bool(x), Scalar::Bool(y)) => x.cmp(y),
            _ => match (num(a), num(b)) {
                (Some(Num::Int(x)), Some(Num::Int(y))) => x.cmp(&y),
                (Some(Num::Int(x)), Some(Num::Real(y))) => int_vs_real(x, y),
                (Some(Num::Real(x)), Some(Num::Int(y))) => int_vs_real(y, x).reverse(),
                (Some(Num::Real(x)), Some(Num::Real(y))) => x
                    .is_nan()
                    .cmp(&y.is_nan())
                    .then_with(|| x.partial_cmp(&y).unwrap_or(Ordering::Equal)),
                _ => kind(a).cmp(&kind(b)),
            },
        }
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum ColRef {
        Index(usize),
        Tstamp,
    }

    impl ColRef {
        fn resolve(schema: &Schema, name: &str) -> ColRef {
            if let Some(ix) = schema.index_of(name) {
                return ColRef::Index(ix);
            }
            assert_eq!(name, "tstamp", "unknown column `{name}`");
            ColRef::Tstamp
        }

        fn load<'t>(&self, tuple: &'t Tuple, scratch: &'t mut Scalar) -> &'t Scalar {
            match self {
                ColRef::Index(ix) => &tuple.values()[*ix],
                ColRef::Tstamp => {
                    *scratch = Scalar::Tstamp(tuple.tstamp());
                    scratch
                }
            }
        }

        fn load_cloned(&self, tuple: &Tuple) -> Scalar {
            match self {
                ColRef::Index(ix) => tuple.values()[*ix].clone(),
                ColRef::Tstamp => Scalar::Tstamp(tuple.tstamp()),
            }
        }
    }

    #[derive(Debug, Clone)]
    enum CompiledPredicate {
        Compare {
            col: ColRef,
            op: Comparison,
            value: Scalar,
        },
        And(Box<CompiledPredicate>, Box<CompiledPredicate>),
        Or(Box<CompiledPredicate>, Box<CompiledPredicate>),
        Not(Box<CompiledPredicate>),
    }

    impl CompiledPredicate {
        fn compile(p: &Predicate, schema: &Schema) -> CompiledPredicate {
            match p {
                Predicate::Compare { column, op, value } => CompiledPredicate::Compare {
                    col: ColRef::resolve(schema, column),
                    op: *op,
                    value: value.clone(),
                },
                Predicate::And(a, b) => CompiledPredicate::And(
                    Box::new(Self::compile(a, schema)),
                    Box::new(Self::compile(b, schema)),
                ),
                Predicate::Or(a, b) => CompiledPredicate::Or(
                    Box::new(Self::compile(a, schema)),
                    Box::new(Self::compile(b, schema)),
                ),
                Predicate::Not(a) => CompiledPredicate::Not(Box::new(Self::compile(a, schema))),
            }
        }

        fn matches(&self, tuple: &Tuple) -> bool {
            match self {
                CompiledPredicate::Compare { col, op, value } => {
                    let mut scratch = Scalar::Int(0);
                    compare(*op, col.load(tuple, &mut scratch), value)
                }
                CompiledPredicate::And(a, b) => a.matches(tuple) && b.matches(tuple),
                CompiledPredicate::Or(a, b) => a.matches(tuple) || b.matches(tuple),
                CompiledPredicate::Not(a) => !a.matches(tuple),
            }
        }
    }

    #[derive(Debug, Clone)]
    struct CompiledAggregate {
        input: Option<ColRef>,
        kind: AggKind,
        output_name: String,
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum AggKind {
        Count,
        Sum,
        Avg,
        Min,
        Max,
    }

    impl CompiledAggregate {
        fn compile(agg: &Aggregate, schema: &Schema) -> CompiledAggregate {
            let (kind, column) = match agg {
                Aggregate::Count => (AggKind::Count, None),
                Aggregate::Sum(c) => (AggKind::Sum, Some(c)),
                Aggregate::Avg(c) => (AggKind::Avg, Some(c)),
                Aggregate::Min(c) => (AggKind::Min, Some(c)),
                Aggregate::Max(c) => (AggKind::Max, Some(c)),
            };
            CompiledAggregate {
                input: column.map(|name| ColRef::resolve(schema, name)),
                kind,
                output_name: agg.output_name(),
            }
        }

        fn compute(&self, tuples: &[&Tuple]) -> Scalar {
            let Some(col) = self.input else {
                return Scalar::Int(tuples.len() as i64);
            };
            match self.kind {
                AggKind::Count => Scalar::Int(tuples.len() as i64),
                AggKind::Sum => sum_column(col, tuples),
                AggKind::Avg => {
                    if tuples.is_empty() {
                        Scalar::Real(0.0)
                    } else {
                        let total = match sum_column(col, tuples) {
                            Scalar::Int(i) => i as f64,
                            Scalar::Real(r) => r,
                            _ => 0.0,
                        };
                        Scalar::Real(total / tuples.len() as f64)
                    }
                }
                AggKind::Min => extremum(col, tuples, std::cmp::Ordering::Less),
                AggKind::Max => extremum(col, tuples, std::cmp::Ordering::Greater),
            }
        }
    }

    fn sum_column(col: ColRef, tuples: &[&Tuple]) -> Scalar {
        let mut scratch = Scalar::Int(0);
        let all_int = tuples.iter().all(|t| {
            matches!(
                col.load(t, &mut scratch),
                Scalar::Int(_) | Scalar::Tstamp(_)
            )
        });
        if all_int {
            // The overflow rule: a checked sum, falling through to the
            // `f64` sum when it overflows.
            if let Some(sum) = tuples
                .iter()
                .filter_map(|t| col.load(t, &mut scratch).as_int())
                .try_fold(0i64, i64::checked_add)
            {
                return Scalar::Int(sum);
            }
        }
        Scalar::Real(
            tuples
                .iter()
                .filter_map(|t| col.load(t, &mut scratch).as_real())
                .sum(),
        )
    }

    fn extremum(col: ColRef, tuples: &[&Tuple], want: std::cmp::Ordering) -> Scalar {
        let mut best: Option<Scalar> = None;
        let mut scratch = Scalar::Int(0);
        for t in tuples {
            let v = col.load(t, &mut scratch);
            best = match best {
                None => Some(v.clone()),
                Some(b) => {
                    if v.total_cmp(&b) == want {
                        Some(v.clone())
                    } else {
                        Some(b)
                    }
                }
            };
        }
        best.unwrap_or(Scalar::Int(0))
    }

    #[derive(Debug, Clone)]
    pub struct Plan {
        since: Option<Timestamp>,
        predicate: Option<CompiledPredicate>,
        projection: Vec<(String, ColRef)>,
        order_by: Option<(ColRef, bool)>,
        order_by_output: Option<(String, bool)>,
        group_by: Option<(String, ColRef)>,
        aggregates: Vec<CompiledAggregate>,
        limit: Option<usize>,
    }

    impl Plan {
        pub fn compile(query: &Query, schema: &Arc<Schema>) -> Plan {
            let predicate = query
                .predicate()
                .map(|p| CompiledPredicate::compile(p, schema));
            let projection = if query.projected_columns().is_empty() {
                schema
                    .attributes()
                    .iter()
                    .enumerate()
                    .map(|(ix, a)| (a.name.clone(), ColRef::Index(ix)))
                    .collect()
            } else {
                query
                    .projected_columns()
                    .iter()
                    .map(|name| (name.clone(), ColRef::resolve(schema, name)))
                    .collect()
            };
            let group_by = query.group_by_column().map(|name| {
                let ix = schema.index_of(name).expect("group by column");
                (name.to_owned(), ColRef::Index(ix))
            });
            let aggregates = query
                .aggregate_list()
                .iter()
                .map(|a| CompiledAggregate::compile(a, schema))
                .collect();
            let order_by = match query.order_by_spec() {
                Some((name, descending)) if group_by.is_none() => {
                    Some((ColRef::resolve(schema, name), *descending))
                }
                _ => None,
            };
            Plan {
                since: query.since_tstamp(),
                predicate,
                projection,
                order_by,
                group_by,
                aggregates,
                limit: query.limit_rows(),
                order_by_output: query
                    .order_by_spec()
                    .filter(|_| query.group_by_column().is_some())
                    .map(|(name, desc)| (name.clone(), *desc)),
            }
        }

        pub fn evaluate(&self, tuples: &[Tuple]) -> ResultSet {
            let mut selected: Vec<&Tuple> = Vec::new();
            for t in tuples {
                if let Some(since) = self.since {
                    if t.tstamp() <= since {
                        continue;
                    }
                }
                if let Some(p) = &self.predicate {
                    if !p.matches(t) {
                        continue;
                    }
                }
                selected.push(t);
            }

            if let Some((group_name, group_col)) = &self.group_by {
                return self.evaluate_grouped(group_name, *group_col, &selected);
            }
            if !self.aggregates.is_empty() {
                let mut columns = Vec::with_capacity(self.aggregates.len());
                let mut values = Vec::with_capacity(self.aggregates.len());
                for agg in &self.aggregates {
                    columns.push(agg.output_name.clone());
                    values.push(agg.compute(&selected));
                }
                return ResultSet {
                    columns,
                    rows: vec![Row { values, tstamp: 0 }],
                };
            }

            if let Some((col, descending)) = self.order_by {
                selected.sort_by(|a, b| {
                    let (mut sa, mut sb) = (Scalar::Int(0), Scalar::Int(0));
                    let ord = sort_cmp(col.load(a, &mut sa), col.load(b, &mut sb));
                    if descending {
                        ord.reverse()
                    } else {
                        ord
                    }
                });
            }

            let limit = self.limit.unwrap_or(usize::MAX);
            let columns: Vec<String> = self
                .projection
                .iter()
                .map(|(name, _)| name.clone())
                .collect();
            let rows = selected
                .into_iter()
                .take(limit)
                .map(|t| Row {
                    values: self
                        .projection
                        .iter()
                        .map(|(_, col)| col.load_cloned(t))
                        .collect(),
                    tstamp: t.tstamp(),
                })
                .collect();
            ResultSet { columns, rows }
        }

        fn evaluate_grouped(
            &self,
            group_name: &str,
            group_col: ColRef,
            selected: &[&Tuple],
        ) -> ResultSet {
            let mut order: Vec<Scalar> = Vec::new();
            let mut groups: Vec<Vec<&Tuple>> = Vec::new();
            for t in selected {
                let key = group_col.load_cloned(t);
                match order
                    .iter()
                    .position(|k| k.total_cmp(&key) == std::cmp::Ordering::Equal)
                {
                    Some(ix) => groups[ix].push(t),
                    None => {
                        order.push(key);
                        groups.push(vec![t]);
                    }
                }
            }
            let count_fallback = [CompiledAggregate {
                input: None,
                kind: AggKind::Count,
                output_name: "count".to_owned(),
            }];
            let aggregates: &[CompiledAggregate] = if self.aggregates.is_empty() {
                &count_fallback
            } else {
                &self.aggregates
            };
            let mut columns = vec![group_name.to_owned()];
            columns.extend(aggregates.iter().map(|a| a.output_name.clone()));
            let mut rows = Vec::with_capacity(groups.len());
            for (key, members) in order.into_iter().zip(groups) {
                let mut values = vec![key];
                for agg in aggregates {
                    values.push(agg.compute(&members));
                }
                rows.push(Row { values, tstamp: 0 });
            }
            if let Some((col, descending)) = &self.order_by_output {
                if let Some(ix) = columns.iter().position(|c| c == col) {
                    rows.sort_by(|a, b| {
                        let ord = sort_cmp(&a.values[ix], &b.values[ix]);
                        if *descending {
                            ord.reverse()
                        } else {
                            ord
                        }
                    });
                }
            }
            if let Some(limit) = self.limit {
                rows.truncate(limit);
            }
            ResultSet { columns, rows }
        }
    }
}

/// SplitMix64: one `u64` case seed drawn by proptest expands into a
/// whole case (schema, rows, query), whose parts depend on each other.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.next() % 100 < percent
    }

    fn pick<T: Clone>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())].clone()
    }
}

const TYPES: [AttrType; 5] = [
    AttrType::Int,
    AttrType::Real,
    AttrType::Tstamp,
    AttrType::Bool,
    AttrType::Str,
];

/// A value for a column of type `ty`, from a domain small enough that
/// groups collide and including every value that makes `total_cmp`
/// equality differ from plain equality.
fn value(g: &mut Gen, ty: AttrType) -> Scalar {
    match ty {
        AttrType::Int => {
            if g.chance(15) {
                Scalar::Int(g.pick(&[i64::MAX, i64::MAX - 1, i64::MIN, i64::MIN + 1]))
            } else {
                Scalar::Int(g.below(7) as i64 - 3)
            }
        }
        AttrType::Real => g.pick(&[
            Scalar::Real(0.0),
            Scalar::Real(-0.0),
            Scalar::Real(f64::NAN),
            Scalar::Real(1.5),
            Scalar::Real(-1.5),
            Scalar::Real(2.0),
            Scalar::Real(9_007_199_254_740_992.0),
            Scalar::Real(f64::INFINITY),
            Scalar::Real(1e300),
            Scalar::Int(2),
            Scalar::Int(0),
            Scalar::Int(9_007_199_254_740_993),
            Scalar::Int(i64::MAX),
        ]),
        AttrType::Tstamp => g.pick(&[
            Scalar::Tstamp(0),
            Scalar::Tstamp(1),
            Scalar::Tstamp(5),
            Scalar::Tstamp(1 << 63),
            Scalar::Tstamp(u64::MAX),
            Scalar::Tstamp(9_007_199_254_740_992),
            Scalar::Int(1),
            Scalar::Int(5),
            Scalar::Int(-1),
            Scalar::Int(i64::MAX),
            Scalar::Int(9_007_199_254_740_993),
        ]),
        AttrType::Bool => Scalar::Bool(g.chance(50)),
        AttrType::Str => Scalar::from(g.pick(&["a", "b", "c", "", "ab", "b "])),
    }
}

struct Case {
    schema: Arc<Schema>,
    rows: Vec<Tuple>,
    query: Query,
}

/// A column name of the schema, or the `tstamp` pseudo-column.
fn any_column(g: &mut Gen, schema: &Schema, with_tstamp: bool) -> (String, AttrType) {
    let attrs = schema.attributes();
    if with_tstamp && g.chance(15) {
        return ("tstamp".to_owned(), AttrType::Tstamp);
    }
    let a = &attrs[g.below(attrs.len())];
    (a.name.clone(), a.ty)
}

fn predicate(g: &mut Gen, schema: &Schema, depth: u32) -> Predicate {
    if depth > 0 && g.chance(35) {
        let a = Box::new(predicate(g, schema, depth - 1));
        return match g.below(3) {
            0 => Predicate::And(a, Box::new(predicate(g, schema, depth - 1))),
            1 => Predicate::Or(a, Box::new(predicate(g, schema, depth - 1))),
            _ => Predicate::Not(a),
        };
    }
    let (column, ty) = any_column(g, schema, true);
    let op = g.pick(&[
        Comparison::Eq,
        Comparison::NotEq,
        Comparison::Lt,
        Comparison::Le,
        Comparison::Gt,
        Comparison::Ge,
    ]);
    let literal = if column == "tstamp" {
        Scalar::Tstamp(g.below(30) as u64)
    } else {
        value(g, ty)
    };
    Predicate::Compare {
        column,
        op,
        value: literal,
    }
}

fn aggregate(g: &mut Gen, schema: &Schema) -> Aggregate {
    let (column, _) = any_column(g, schema, true);
    match g.below(5) {
        0 => Aggregate::Count,
        1 => Aggregate::Sum(column),
        2 => Aggregate::Avg(column),
        3 => Aggregate::Min(column),
        _ => Aggregate::Max(column),
    }
}

fn case(seed: u64) -> Case {
    let mut g = Gen(seed);
    let arity = 1 + g.below(4);
    let schema = Arc::new(
        Schema::new(
            "T",
            (0..arity).map(|i| (format!("c{i}"), TYPES[g.below(TYPES.len())])),
        )
        .unwrap(),
    );
    let n_rows = if g.chance(10) { 0 } else { g.below(48) };
    // Now and then rows do not conform to the plan's schema: each row
    // draws every column's type afresh, so any kind of value can meet
    // the hashed group index.
    let mixed = g.chance(10);
    let mut ts = 1;
    let rows = (0..n_rows)
        .map(|_| {
            // Steps of 0 give runs of equal timestamps, as batches do.
            ts += g.below(3) as u64;
            let row_schema = if mixed {
                let types: Vec<AttrType> = (0..arity).map(|_| g.pick(&TYPES)).collect();
                Arc::new(
                    Schema::new(
                        "T",
                        schema
                            .attributes()
                            .iter()
                            .map(|a| a.name.clone())
                            .zip(types),
                    )
                    .unwrap(),
                )
            } else {
                Arc::clone(&schema)
            };
            let values = row_schema.attributes().iter().map(|a| value(&mut g, a.ty));
            Tuple::new(Arc::clone(&row_schema), values.collect(), ts).unwrap()
        })
        .collect();

    let mut query = Query::new("T");
    if g.chance(30) {
        query = query.since(g.below(ts as usize + 2) as u64);
    }
    if g.chance(40) {
        query = query.filter(predicate(&mut g, &schema, 2));
    }
    let grouped = g.chance(60);
    let mut outputs = Vec::new();
    if grouped {
        let (column, _) = any_column(&mut g, &schema, false);
        outputs.push(column.clone());
        query = query.group_by(column);
    }
    // Grouped queries sometimes carry no aggregate: the implicit `count`.
    let n_aggs = if grouped { g.below(4) } else { g.below(3) };
    for _ in 0..n_aggs {
        let agg = aggregate(&mut g, &schema);
        outputs.push(agg.output_name());
        query = query.aggregate(agg);
    }
    if grouped && n_aggs == 0 {
        outputs.push("count".to_owned());
    }
    if grouped {
        if g.chance(50) {
            // An output name, or one that matches no output (no sort).
            let name = if g.chance(85) {
                g.pick(&outputs)
            } else {
                "nope".to_owned()
            };
            query = query.order_by(name, g.chance(50));
        }
    } else {
        if g.chance(50) && n_aggs == 0 {
            let cols: Vec<String> = (0..1 + g.below(3))
                .map(|_| any_column(&mut g, &schema, true).0)
                .collect();
            query = query.columns(cols);
        }
        // Without `group by`, `order by` names a table column; a global
        // aggregate compiles it and then has one row to order.
        if g.chance(50) {
            let (column, _) = any_column(&mut g, &schema, true);
            query = query.order_by(column, g.chance(50));
        }
    }
    if g.chance(40) {
        query = query.limit(g.below(6));
    }
    Case {
        schema,
        rows,
        query,
    }
}

fn check(case: &Case) {
    let expected = oracle::Plan::compile(&case.query, &case.schema).evaluate(&case.rows);
    let plan = QueryPlan::compile(&case.query, &case.schema).unwrap();
    let got = plan.evaluate(&case.rows).unwrap();
    assert_eq!(
        format!("{got:?}"),
        format!("{expected:?}"),
        "query {:?} over {} rows",
        case.query,
        case.rows.len()
    );
    // The borrowed-row entry point is the same evaluator.
    let borrowed = plan.evaluate_rows(case.rows.iter()).unwrap();
    assert_eq!(format!("{borrowed:?}"), format!("{got:?}"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// Random schemas, rows and queries evaluate identically under the
    /// one-pass evaluator and the replaced two-pass one.
    #[test]
    fn one_pass_matches_two_pass(seed in any::<u64>()) {
        check(&case(seed));
    }
}

/// `real` and `tstamp` keys group by first match, where `total_cmp`
/// equality is not transitive: NaN joins the first group it meets, and
/// a group opened by NaN absorbs every number after it.
#[test]
fn real_keys_keep_first_match_grouping() {
    let schema =
        Arc::new(Schema::new("T", vec![("k", AttrType::Real), ("n", AttrType::Int)]).unwrap());
    let keys = [
        Scalar::Real(1.0),
        Scalar::Real(f64::NAN),
        Scalar::Real(-0.0),
        Scalar::Real(0.0),
        Scalar::Int(1),
        Scalar::Real(2.0),
    ];
    let rows: Vec<Tuple> = keys
        .iter()
        .enumerate()
        .map(|(i, k)| {
            Tuple::new(
                Arc::clone(&schema),
                vec![k.clone(), Scalar::Int(i as i64)],
                i as u64 + 1,
            )
            .unwrap()
        })
        .collect();
    for query in [
        Query::new("T").group_by("k"),
        Query::new("T")
            .group_by("k")
            .aggregate(Aggregate::Sum("n".into())),
    ] {
        check(&Case {
            schema: Arc::clone(&schema),
            rows: rows.clone(),
            query: query.clone(),
        });
        // NaN leads: everything numeric after it joins its group.
        let mut reversed = rows.clone();
        reversed.swap(0, 1);
        check(&Case {
            schema: Arc::clone(&schema),
            rows: reversed,
            query,
        });
    }
}

/// Empty input: no groups with `group by`, one zero row without.
#[test]
fn empty_input_matches() {
    let schema = Arc::new(Schema::new("T", vec![("k", AttrType::Str)]).unwrap());
    for query in [
        Query::new("T"),
        Query::new("T").group_by("k"),
        Query::new("T")
            .aggregate(Aggregate::Count)
            .aggregate(Aggregate::Sum("k".into()))
            .aggregate(Aggregate::Avg("k".into()))
            .aggregate(Aggregate::Min("k".into()))
            .aggregate(Aggregate::Max("tstamp".into())),
    ] {
        check(&Case {
            schema: Arc::clone(&schema),
            rows: Vec::new(),
            query,
        });
    }
}
