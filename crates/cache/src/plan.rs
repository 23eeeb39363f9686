//! Compiled query plans: name resolution done once, evaluation by index.
//!
//! A [`crate::query::Query`] refers to columns by name. Evaluating it
//! directly would re-resolve every name against the schema *per tuple* —
//! the paper's periodic `select * from T since τ` workload (Fig. 1) makes
//! that the hottest loop in the cache. A [`QueryPlan`] is the query
//! compiled against a concrete schema: every projection, predicate,
//! `order by` and `group by` column is resolved to an attribute index (or
//! to the `tstamp` pseudo-column) exactly once, and evaluation then
//! touches tuples only through index loads and refcount clones.
//!
//! Evaluation is one streaming pass over the rows. A row that passes
//! `since` and `where` is either projected or fed straight into its
//! group's running aggregates; the group is found through a hash index
//! over the borrowed key (for `str`, `int` and `bool` group columns) or
//! by a first-match scan (for `real` and `tstamp` ones), and only the
//! row that opens a group has its key cloned.
//!
//! Plans are immutable and cheap to share; [`crate::Cache`] keeps a
//! cache of them keyed by the SQL text so a periodic query compiles only
//! on its first submission.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::Arc;

use gapl::event::{AttrType, Scalar, Schema, Timestamp, Tuple};

use crate::error::{Error, Result};
use crate::query::{Aggregate, Comparison, Predicate, Query, ResultSet, Row};

/// A resolved column reference: either an attribute index in the schema,
/// or the `tstamp` pseudo-column every tuple carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColRef {
    /// Index into the tuple's value array.
    Index(usize),
    /// The insertion timestamp.
    Tstamp,
}

impl ColRef {
    fn resolve(schema: &Schema, name: &str) -> Result<ColRef> {
        if let Some(ix) = schema.index_of(name) {
            return Ok(ColRef::Index(ix));
        }
        if name == "tstamp" {
            return Ok(ColRef::Tstamp);
        }
        Err(Error::schema(format!(
            "unknown column `{name}` in table `{}`",
            schema.name()
        )))
    }

    /// The referenced value: borrowed from the tuple, or built for the
    /// `tstamp` pseudo-column, which has no backing storage.
    fn value<'t>(&self, tuple: &'t Tuple) -> Cow<'t, Scalar> {
        match self {
            ColRef::Index(ix) => Cow::Borrowed(&tuple.values()[*ix]),
            ColRef::Tstamp => Cow::Owned(Scalar::Tstamp(tuple.tstamp())),
        }
    }
}

/// The order `order by` sorts in. [`Scalar::total_cmp`] cannot serve:
/// it finds NaN equal to every number and compares mixed `int`, `real`
/// and `tstamp` values through `f64`, so it is not transitive, and the
/// standard sort may panic on a comparator that is not a total order.
/// This one is total: numbers compare by exact value with NaN above all
/// of them, strings and booleans as `total_cmp` does, and across kinds
/// booleans sort before numbers and numbers before strings (one column
/// only ever holds one kind).
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

/// A predicate with every column name resolved to a [`ColRef`].
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
    fn compile(p: &Predicate, schema: &Schema) -> Result<CompiledPredicate> {
        Ok(match p {
            Predicate::Compare { column, op, value } => CompiledPredicate::Compare {
                col: ColRef::resolve(schema, column)?,
                op: *op,
                value: value.clone(),
            },
            Predicate::And(a, b) => CompiledPredicate::And(
                Box::new(Self::compile(a, schema)?),
                Box::new(Self::compile(b, schema)?),
            ),
            Predicate::Or(a, b) => CompiledPredicate::Or(
                Box::new(Self::compile(a, schema)?),
                Box::new(Self::compile(b, schema)?),
            ),
            Predicate::Not(a) => CompiledPredicate::Not(Box::new(Self::compile(a, schema)?)),
        })
    }

    fn matches(&self, tuple: &Tuple) -> bool {
        match self {
            CompiledPredicate::Compare { col, op, value } => op.evaluate(&col.value(tuple), value),
            CompiledPredicate::And(a, b) => a.matches(tuple) && b.matches(tuple),
            CompiledPredicate::Or(a, b) => a.matches(tuple) || b.matches(tuple),
            CompiledPredicate::Not(a) => !a.matches(tuple),
        }
    }
}

/// An aggregate with its input column resolved and its output name
/// rendered once at compile time.
#[derive(Debug, Clone)]
struct CompiledAggregate {
    func: AggFn,
    output_name: String,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AggFn {
    Count,
    Sum(ColRef),
    Avg(ColRef),
    Min(ColRef),
    Max(ColRef),
}

impl CompiledAggregate {
    fn compile(agg: &Aggregate, schema: &Schema) -> Result<CompiledAggregate> {
        let resolve = |name: &str| {
            ColRef::resolve(schema, name)
                .map_err(|_| Error::schema(format!("unknown column `{name}` in aggregate")))
        };
        let func = match agg {
            Aggregate::Count => AggFn::Count,
            Aggregate::Sum(c) => AggFn::Sum(resolve(c)?),
            Aggregate::Avg(c) => AggFn::Avg(resolve(c)?),
            Aggregate::Min(c) => AggFn::Min(resolve(c)?),
            Aggregate::Max(c) => AggFn::Max(resolve(c)?),
        };
        Ok(CompiledAggregate {
            func,
            output_name: agg.output_name(),
        })
    }
}

/// The running state of one aggregate that reads a column, over one
/// group, fed a row at a time. Each aggregate function reads only its
/// own fields.
#[derive(Debug)]
struct Accumulator<'t> {
    /// `sum`/`avg`: every input so far was an `int` or a `tstamp`.
    all_int: bool,
    /// `sum`/`avg`: the exact integer sum, `None` once an addition
    /// overflowed `i64`.
    int: Option<i64>,
    /// `sum`/`avg`: the `f64` sum of every numeric input, in row order.
    /// It is the result whenever the integer sum is not.
    real: f64,
    /// `min`/`max`: the best value so far.
    best: Option<Cow<'t, Scalar>>,
}

impl<'t> Accumulator<'t> {
    fn new() -> Self {
        Accumulator {
            all_int: true,
            int: Some(0),
            // The additive identity `Iterator::sum` folds from, so a sum
            // of only `-0.0` stays `-0.0`.
            real: -0.0,
            best: None,
        }
    }

    #[inline]
    fn feed(&mut self, func: AggFn, tuple: &'t Tuple) {
        match func {
            AggFn::Count => {}
            AggFn::Sum(col) | AggFn::Avg(col) => match *col.value(tuple) {
                // `as_int`/`as_real` of the value, added to each sum.
                Scalar::Int(i) => self.add(Some(i), i as f64),
                Scalar::Tstamp(t) => self.add(Some(t as i64), t as f64),
                Scalar::Real(r) => self.add(None, r),
                Scalar::Bool(_) | Scalar::Str(_) => self.all_int = false,
            },
            AggFn::Min(col) => self.keep_best(col.value(tuple), Ordering::Less),
            AggFn::Max(col) => self.keep_best(col.value(tuple), Ordering::Greater),
        }
    }

    fn add(&mut self, int: Option<i64>, real: f64) {
        match int {
            Some(i) => self.int = self.int.and_then(|s| s.checked_add(i)),
            None => self.all_int = false,
        }
        self.real += real;
    }

    /// Replace the best value only when `v` is strictly better, so ties
    /// (and NaN, which `total_cmp` finds equal to any number) keep the
    /// first value seen.
    fn keep_best(&mut self, v: Cow<'t, Scalar>, want: Ordering) {
        if self.best.as_ref().is_none_or(|b| v.total_cmp(b) == want) {
            self.best = Some(v);
        }
    }

    /// The aggregate's value over a group of `count` rows.
    fn finish(&self, func: AggFn, count: usize) -> Scalar {
        let sum = || match self.int {
            Some(i) if self.all_int => Scalar::Int(i),
            _ => Scalar::Real(self.real),
        };
        match func {
            AggFn::Count => Scalar::Int(count as i64),
            AggFn::Sum(_) => sum(),
            AggFn::Avg(_) if count == 0 => Scalar::Real(0.0),
            AggFn::Avg(_) => {
                let total = match sum() {
                    Scalar::Int(i) => i as f64,
                    _ => self.real,
                };
                Scalar::Real(total / count as f64)
            }
            AggFn::Min(_) | AggFn::Max(_) => {
                self.best.as_deref().cloned().unwrap_or(Scalar::Int(0))
            }
        }
    }
}

/// A `group by` key in the hash index, borrowed from the row that
/// created its group.
#[derive(Debug, PartialEq, Eq)]
enum HashKey<'t> {
    Str(&'t str),
    Int(i64),
    Bool(bool),
}

impl<'t> HashKey<'t> {
    /// The index key of `value` in a column declared `ty`. Only `str`,
    /// `int` and `bool` columns are indexed: there `total_cmp` equality
    /// is plain value equality. In `real` and `tstamp` columns it is not:
    /// NaN equals every number (so equality is not even transitive),
    /// `-0.0` equals `0.0`, and a stored `Int` equals any value that
    /// rounds to it. Their keys, and any value not of its column's
    /// declared type, return `None` and are grouped by first match.
    fn of(ty: AttrType, value: &'t Scalar) -> Option<Self> {
        match (ty, value) {
            (AttrType::Str, Scalar::Str(s)) => Some(HashKey::Str(s)),
            (AttrType::Int, Scalar::Int(i)) => Some(HashKey::Int(*i)),
            (AttrType::Bool, Scalar::Bool(b)) => Some(HashKey::Bool(*b)),
            _ => None,
        }
    }
}

impl Hash for HashKey<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // One column's keys are all of one variant: no discriminant.
        match self {
            HashKey::Str(s) => state.write(s.as_bytes()),
            HashKey::Int(i) => state.write_u64(*i as u64),
            HashKey::Bool(b) => state.write_u8(u8::from(*b)),
        }
    }
}

/// The `group by` column, resolved.
#[derive(Debug, Clone)]
struct GroupBy {
    name: String,
    ix: usize,
    /// The column's declared type, which picks hashed or first-match
    /// grouping (see [`HashKey::of`]).
    ty: AttrType,
}

/// The group index's hash: per 8-byte word, a folded 64×64→128-bit
/// multiply (the construction of aHash's portable fallback), keyed from
/// [`RandomState`] for every evaluation so that rows cannot be chosen to
/// collide. It runs once per scanned row, where std's SipHash costs
/// several times as much for short keys.
#[derive(Debug, Clone, Copy)]
struct KeyHash(u64);

impl BuildHasher for KeyHash {
    type Hasher = KeyHash;

    fn build_hasher(&self) -> KeyHash {
        *self
    }
}

impl Hasher for KeyHash {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        self.write_usize(bytes.len());
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.write_u64(u64::from_le_bytes(word.try_into().expect("8-byte chunk")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut word = [0; 8];
            word[..tail.len()].copy_from_slice(tail);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, v: u8) {
        self.write_u64(u64::from(v));
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    fn write_u64(&mut self, v: u64) {
        let product = u128::from(self.0 ^ v) * 0x5851_F42D_4C95_7F2D;
        self.0 = (product as u64) ^ ((product >> 64) as u64);
    }
}

/// The groups of one evaluation: keys in first-seen order, and per
/// group a row count and one accumulator per aggregate that reads a
/// column. Without `group by` there is one group and no key.
struct Groups<'t> {
    keys: Vec<Scalar>,
    index: HashMap<HashKey<'t>, usize, KeyHash>,
    /// Groups whose key has no [`HashKey`], in creation order.
    unhashed: Vec<usize>,
    counts: Vec<usize>,
    /// `fed.len()` accumulators per group, group after group.
    accs: Vec<Accumulator<'t>>,
    /// The aggregates that read a column, in output order; `count`
    /// needs only the row count.
    fed: Vec<AggFn>,
}

impl<'t> Groups<'t> {
    fn new(aggregates: &[CompiledAggregate]) -> Self {
        Groups {
            keys: Vec::new(),
            index: HashMap::with_hasher(KeyHash(RandomState::new().hash_one(0u64))),
            unhashed: Vec::new(),
            counts: Vec::new(),
            accs: Vec::new(),
            fed: aggregates
                .iter()
                .map(|a| a.func)
                .filter(|f| *f != AggFn::Count)
                .collect(),
        }
    }

    fn push_group(&mut self) -> usize {
        self.counts.push(0);
        self.accs
            .extend(self.fed.iter().map(|_| Accumulator::new()));
        self.counts.len() - 1
    }

    /// The group `key` belongs to, created if new: the first group whose
    /// key `total_cmp`-equals it. A hash hit is that first match, since
    /// hashed keys equal only themselves and every older unhashed group
    /// was checked (and missed) when the hit's group was created.
    #[inline]
    fn group_of(&mut self, ty: AttrType, key: &'t Scalar) -> usize {
        let hashed = HashKey::of(ty, key);
        if let Some(g) = hashed.as_ref().and_then(|h| self.index.get(h)) {
            return *g;
        }
        self.group_of_unindexed(hashed, key)
    }

    /// [`Groups::group_of`] past the hash index: a first-match scan (of
    /// the unhashed groups only, for a hashable key), else a new group.
    /// Only the key that creates a group is cloned.
    fn group_of_unindexed(&mut self, hashed: Option<HashKey<'t>>, key: &'t Scalar) -> usize {
        let equal = |g: &usize| self.keys[*g].total_cmp(key) == Ordering::Equal;
        let found = match hashed {
            Some(_) => self.unhashed.iter().copied().find(equal),
            None => (0..self.keys.len()).find(equal),
        };
        if let Some(g) = found {
            return g;
        }
        let g = self.push_group();
        self.keys.push(key.clone());
        match hashed {
            Some(h) => {
                self.index.insert(h, g);
            }
            None => self.unhashed.push(g),
        }
        g
    }

    #[inline]
    fn feed(&mut self, g: usize, tuple: &'t Tuple) {
        self.counts[g] += 1;
        let width = self.fed.len();
        let accs = &mut self.accs[g * width..(g + 1) * width];
        for (acc, &func) in accs.iter_mut().zip(&self.fed) {
            acc.feed(func, tuple);
        }
    }

    /// One output row per group: its key (if any), then each aggregate.
    fn into_rows(self, aggregates: &[CompiledAggregate]) -> Vec<Row> {
        let width = self.fed.len();
        let mut keys = self.keys.into_iter();
        self.counts
            .iter()
            .enumerate()
            .map(|(g, &count)| {
                let mut accs = self.accs[g * width..(g + 1) * width].iter();
                let mut values = Vec::with_capacity(aggregates.len() + 1);
                values.extend(keys.next());
                values.extend(aggregates.iter().map(|agg| {
                    match agg.func {
                        AggFn::Count => Scalar::Int(count as i64),
                        func => accs
                            .next()
                            .expect("an accumulator per aggregate that reads a column")
                            .finish(func, count),
                    }
                }));
                Row { values, tstamp: 0 }
            })
            .collect()
    }
}

/// A query compiled against a concrete schema.
///
/// Construction resolves every column reference; evaluation walks tuples
/// by index and produces rows whose values are refcount clones of the
/// stored scalars — no string is ever copied on the read path.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use gapl::event::{AttrType, Schema, Scalar, Tuple};
/// use pscache::{Query, QueryPlan};
///
/// let schema = Arc::new(Schema::new(
///     "Flows",
///     vec![("srcip", AttrType::Str), ("nbytes", AttrType::Int)],
/// )?);
/// let plan = QueryPlan::compile(&Query::new("Flows").columns(["nbytes"]), &schema)?;
/// let rows = vec![Tuple::new(
///     Arc::clone(&schema),
///     vec![Scalar::from("10.0.0.1"), Scalar::Int(1500)],
///     7,
/// )?];
/// let rs = plan.evaluate(&rows)?;
/// assert_eq!(rs.rows[0].values, vec![Scalar::Int(1500)]);
/// # Ok::<(), pscache::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct QueryPlan {
    schema: Arc<Schema>,
    since: Option<Timestamp>,
    predicate: Option<CompiledPredicate>,
    /// Output column names and where each comes from.
    projection: Vec<(String, ColRef)>,
    order_by: Option<(ColRef, bool)>,
    /// `order by` over a grouped result addresses output columns (the
    /// group key or an aggregate name), which only exist after grouping;
    /// it is matched against the output header during evaluation.
    order_by_output: Option<(String, bool)>,
    group_by: Option<GroupBy>,
    /// With `group by` and no aggregate, the implicit `count`.
    aggregates: Vec<CompiledAggregate>,
    limit: Option<usize>,
}

impl QueryPlan {
    /// Compile `query` against `schema`, resolving every column name.
    ///
    /// # Errors
    ///
    /// Returns a schema error when the query references unknown columns.
    pub fn compile(query: &Query, schema: &Arc<Schema>) -> Result<QueryPlan> {
        let predicate = query
            .predicate()
            .map(|p| CompiledPredicate::compile(p, schema))
            .transpose()?;
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
                .map(|name| Ok((name.clone(), ColRef::resolve(schema, name)?)))
                .collect::<Result<Vec<_>>>()?
        };
        let group_by = query
            .group_by_column()
            .map(|name| {
                schema
                    .index_of(name)
                    .map(|ix| GroupBy {
                        name: name.to_owned(),
                        ix,
                        ty: schema.attributes()[ix].ty,
                    })
                    .ok_or_else(|| Error::schema(format!("unknown group by column `{name}`")))
            })
            .transpose()?;
        let mut aggregates = query
            .aggregate_list()
            .iter()
            .map(|a| CompiledAggregate::compile(a, schema))
            .collect::<Result<Vec<_>>>()?;
        if group_by.is_some() && aggregates.is_empty() {
            aggregates.push(CompiledAggregate {
                func: AggFn::Count,
                output_name: "count".to_owned(),
            });
        }
        // `order by` over a grouped result addresses *output* columns
        // (the group key or an aggregate name), which only exist after
        // grouping; it is resolved during evaluation in that case.
        let order_by = match query.order_by_spec() {
            Some((name, descending)) if group_by.is_none() => Some((
                ColRef::resolve(schema, name)
                    .map_err(|_| Error::schema(format!("unknown order by column `{name}`")))?,
                *descending,
            )),
            _ => None,
        };
        Ok(QueryPlan {
            schema: Arc::clone(schema),
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
        })
    }

    /// The schema this plan was compiled against. A cached plan is only
    /// reusable while the table still has this exact schema (compared by
    /// pointer identity, since schemas are immutable once created).
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// The `since` window carried by the plan, used by the cache to take
    /// an already-windowed snapshot under the table lock.
    pub fn since_tstamp(&self) -> Option<Timestamp> {
        self.since
    }

    /// Evaluate the plan over tuples in time-of-insertion order.
    ///
    /// Tuples at or before the plan's `since` timestamp are skipped, so
    /// callers may pass either a full scan or an already-windowed
    /// snapshot (the re-check on a windowed snapshot is a single integer
    /// comparison per tuple).
    ///
    /// # Errors
    ///
    /// Currently infallible (all names were resolved at compile time);
    /// the `Result` is kept for evaluator extensions.
    pub fn evaluate(&self, tuples: &[Tuple]) -> Result<ResultSet> {
        self.evaluate_rows(tuples)
    }

    /// Evaluate the plan over *borrowed* tuples in time-of-insertion
    /// order — the lock-free read path's entry point. Rows stream
    /// straight out of a published
    /// [`TableSnapshot`](crate::snapshot::TableSnapshot) without a
    /// single tuple clone, in one pass: each row that passes `since` and
    /// `where` is fed into its group's aggregates or projected (a
    /// refcount bump per value), and an unordered projection stops
    /// reading at `limit`.
    ///
    /// # Errors
    ///
    /// See [`QueryPlan::evaluate`].
    pub fn evaluate_rows<'a, I>(&self, tuples: I) -> Result<ResultSet>
    where
        I: IntoIterator<Item = &'a Tuple>,
    {
        let selected = tuples.into_iter().filter(|t| {
            self.since.is_none_or(|since| t.tstamp() > since)
                && self.predicate.as_ref().is_none_or(|p| p.matches(t))
        });
        if self.group_by.is_some() || !self.aggregates.is_empty() {
            return Ok(self.aggregate(selected));
        }
        let columns = self
            .projection
            .iter()
            .map(|(name, _)| name.clone())
            .collect();
        let limit = self.limit.unwrap_or(usize::MAX);
        // Without `order by`, rows keep time-of-insertion order, which
        // `tuples` already follows, and the walk stops at `limit`. The
        // matches are gathered by reference first so the result rows are
        // allocated once, at their final count.
        let matched: Vec<&Tuple> = match self.order_by {
            None => selected.take(limit).collect(),
            Some((col, descending)) => {
                let mut sorted: Vec<&Tuple> = selected.collect();
                sorted.sort_by(|a, b| {
                    let ord = sort_cmp(&col.value(a), &col.value(b));
                    if descending {
                        ord.reverse()
                    } else {
                        ord
                    }
                });
                sorted.truncate(limit);
                sorted
            }
        };
        let rows = matched
            .into_iter()
            .map(|t| Row {
                values: self
                    .projection
                    .iter()
                    .map(|(_, col)| col.value(t).into_owned())
                    .collect(),
                tstamp: t.tstamp(),
            })
            .collect();
        Ok(ResultSet { columns, rows })
    }

    /// Grouped or global aggregation: each row goes straight into its
    /// group's accumulators. Groups keep first-seen order unless `order
    /// by` names the group key or an aggregate output; `limit` applies
    /// after ordering.
    fn aggregate<'a>(&self, rows: impl Iterator<Item = &'a Tuple>) -> ResultSet {
        let mut groups = Groups::new(&self.aggregates);
        let mut columns: Vec<String> = self.group_by.iter().map(|gb| gb.name.clone()).collect();
        columns.extend(self.aggregates.iter().map(|a| a.output_name.clone()));
        let Some(gb) = &self.group_by else {
            // A global aggregate is one row, even over no input; `order
            // by` and `limit` leave it as it is.
            let g = groups.push_group();
            for t in rows {
                groups.feed(g, t);
            }
            let rows = groups.into_rows(&self.aggregates);
            return ResultSet { columns, rows };
        };
        for t in rows {
            let g = groups.group_of(gb.ty, &t.values()[gb.ix]);
            groups.feed(g, t);
        }
        let mut rows = groups.into_rows(&self.aggregates);
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

#[cfg(test)]
mod tests {
    use super::*;

    fn column(ty: AttrType, values: Vec<Scalar>) -> (Arc<Schema>, Vec<Tuple>) {
        let schema = Arc::new(Schema::new("T", vec![("v", ty)]).unwrap());
        let rows = values
            .into_iter()
            .enumerate()
            .map(|(i, v)| Tuple::new(Arc::clone(&schema), vec![v], i as u64 + 1).unwrap())
            .collect();
        (schema, rows)
    }

    fn run(query: Query, schema: &Arc<Schema>, rows: &[Tuple]) -> ResultSet {
        QueryPlan::compile(&query, schema)
            .unwrap()
            .evaluate(rows)
            .unwrap()
    }

    #[test]
    fn integer_sum_overflow_falls_back_to_the_real_sum() {
        let (a, b) = (i64::MAX - 1, i64::MAX - 2);
        let (schema, rows) = column(AttrType::Int, vec![Scalar::Int(a), Scalar::Int(b)]);
        let query = Query::new("T")
            .aggregate(Aggregate::Sum("v".into()))
            .aggregate(Aggregate::Avg("v".into()));
        let rs = run(query.clone(), &schema, &rows);
        let real = a as f64 + b as f64;
        assert_eq!(
            rs.rows[0].values,
            vec![Scalar::Real(real), Scalar::Real(real / 2.0)]
        );

        // A sum back in range stays an exact integer.
        let (schema, rows) = column(AttrType::Int, vec![Scalar::Int(a), Scalar::Int(-a)]);
        let rs = run(query, &schema, &rows);
        assert_eq!(rs.rows[0].values, vec![Scalar::Int(0), Scalar::Real(0.0)]);
    }

    #[test]
    fn order_by_sorts_nan_after_every_number() {
        // More rows than the standard sort handles by insertion, where a
        // comparator that is not a total order can make it panic.
        let values: Vec<Scalar> = (0..64_i32)
            .map(|i| match i % 3 {
                0 => Scalar::Real(f64::NAN),
                1 => Scalar::Real(f64::from(i) + 0.5),
                _ => Scalar::Int(i64::from(-i)),
            })
            .collect();
        let (schema, rows) = column(AttrType::Real, values);
        let rs = run(Query::new("T").order_by("v", false), &schema, &rows);
        let sorted: Vec<f64> = rs
            .rows
            .iter()
            .map(|r| r.values[0].as_real().unwrap())
            .collect();
        let numbers = sorted.iter().take_while(|v| !v.is_nan()).count();
        assert_eq!(numbers, 42);
        assert!(sorted[numbers..].iter().all(|v| v.is_nan()));
        assert!(sorted[..numbers].windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn sort_order_compares_mixed_numbers_exactly() {
        let big = 1_i64 << 53;
        let real = Scalar::Real(big as f64);
        assert_eq!(sort_cmp(&Scalar::Int(big), &real), Ordering::Equal);
        assert_eq!(sort_cmp(&Scalar::Int(big + 1), &real), Ordering::Greater);
        assert_eq!(sort_cmp(&real, &Scalar::Int(big + 1)), Ordering::Less);
        assert_eq!(
            sort_cmp(&Scalar::Tstamp(u64::MAX), &Scalar::Int(i64::MAX)),
            Ordering::Greater
        );
        assert_eq!(
            sort_cmp(&Scalar::Int(-2), &Scalar::Real(-1.5)),
            Ordering::Less
        );
        assert_eq!(
            sort_cmp(&Scalar::Real(f64::INFINITY), &Scalar::Real(f64::NAN)),
            Ordering::Less
        );
        assert_eq!(
            sort_cmp(&Scalar::Real(-0.0), &Scalar::Int(0)),
            Ordering::Equal
        );
    }
}
