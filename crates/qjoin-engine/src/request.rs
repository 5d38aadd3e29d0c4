//! One typed request: every verb of the REPL and of the wire protocol, parsed
//! once by [`Request::parse`], and the one error every verb answers with, a
//! [`RequestError`] whose [`ErrorClass`] says what kind of failure it is — so a
//! client acts on the class, never on message text.

use crate::error::EngineError;
use qjoin_core::Accuracy;
use qjoin_ranking::AggregateKind;
use qjoin_telemetry::TraceId;
use qjoin_workload::path::PathConfig;
use qjoin_workload::random_acyclic::RandomAcyclicConfig;
use qjoin_workload::social::SocialConfig;
use qjoin_workload::star::StarConfig;
use qjoin_workload::star_schema::StarSchemaConfig;
use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;

/// One command line of the REPL or the wire protocol (`help` lists them). A
/// `<plan>` or `<db>` is a name; a `<phi>` is a fraction in `[0, 1]`.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// A blank line: a keep-alive, answered with an empty payload.
    Empty,
    /// `help`.
    Help,
    /// `open <db> <workload> [key=value ...]`: generate and catalog a database.
    Open(String, Workload),
    /// `replace <db> <workload> [key=value ...]`: swap a database in.
    Replace(String, Workload),
    /// `register <plan> <db> [ranking=<spec>]`; no spec takes the workload's.
    Register(String, String, Option<RankingSpec>),
    /// `quantile <plan> <phi> [eps=<ε>] [delta=<δ>] [seed=<s>]`.
    Quantile(String, f64, Accuracy),
    /// `batch <plan> <phi> [<phi> ...] [eps=<ε>] [delta=<δ>] [seed=<s>]`.
    Batch(String, Vec<f64>, Accuracy),
    /// `plans`.
    Plans,
    /// `stats`.
    Stats,
    /// `stats json`.
    StatsJson,
    /// `metrics`.
    Metrics,
    /// `trace last [n]`, `trace id <id>` or `trace chrome <id|last>`.
    Trace(TraceQuery),
    /// `explain <plan> <phi>`.
    Explain(String, f64),
    /// `explain analyze <plan> <phi>`: also one traced uncached solve.
    ExplainAnalyze(String, f64),
    /// `ping`.
    Ping,
    /// `quit` or `exit`: ends the connection, or the REPL.
    Quit,
    /// `shutdown`: stops the server, or ends the REPL.
    Shutdown,
    /// `slowlog`: the server's slow-query log.
    SlowLog,
}

/// The liveness probe's verb, which `qjoin-server`'s `Client::ping` sends.
pub const PING: &str = "ping";

/// Which recorded span traces a `trace` request reads: `trace last [n]`,
/// `trace id <id>`, `trace chrome last` or `trace chrome <id>`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceQuery {
    /// One trace by id; `None` reads the newest.
    pub id: Option<TraceId>,
    /// How many of the newest (at least 1; always 1 by id or as Chrome JSON).
    pub count: usize,
    /// Chrome trace-event JSON instead of an indented tree.
    pub chrome: bool,
}

/// A database generator and its configuration, read from optional `key=value`
/// parameters. Every value a generator would panic on is refused here.
#[derive(Clone, Debug, PartialEq)]
pub enum Workload {
    /// `social rows= seed= users= events= likes= skew=`.
    Social(SocialConfig),
    /// `path atoms= rows= domain= weights= skew= seed=`.
    Path(PathConfig),
    /// `star arms= rows= domain= weights= skew= seed=`.
    Star(StarConfig),
    /// `starschema lineitems= orders= parts= weights= skew= seed=`.
    StarSchema(StarSchemaConfig),
    /// `random atoms= arity= rows= domain= seed=`.
    Random(RandomAcyclicConfig),
}

impl Workload {
    /// Parses `<workload> [key=value ...]`.
    pub fn parse(name: &str, tokens: &[&str]) -> Result<Workload, RequestError> {
        let keys = |keys| parse_params(tokens, keys);
        match name {
            "social" => {
                let p = &keys(&["rows", "seed", "users", "events", "likes", "skew"])?;
                let rows = param(p, "rows", 200usize)?;
                Ok(Workload::Social(SocialConfig {
                    users: positive(p, "users", rows.max(1))?,
                    events: positive(p, "events", (rows / 10).max(1))?,
                    rows_per_relation: rows,
                    max_likes: param(p, "likes", 1_000i64)?,
                    event_skew: skew(p, 0.8)?,
                    seed: param(p, "seed", 7u64)?,
                }))
            }
            "path" => {
                let p = &keys(&["atoms", "rows", "domain", "weights", "skew", "seed"])?;
                let rows = param(p, "rows", 100usize)?;
                Ok(Workload::Path(PathConfig {
                    atoms: positive(p, "atoms", 3usize)?,
                    tuples_per_relation: rows,
                    join_domain: positive(p, "domain", (rows / 10).max(2))?,
                    weight_range: param(p, "weights", 1_000_000i64)?,
                    skew: skew(p, 0.2)?,
                    seed: param(p, "seed", 7u64)?,
                }))
            }
            "star" => {
                let p = &keys(&["arms", "rows", "domain", "weights", "skew", "seed"])?;
                let rows = param(p, "rows", 100usize)?;
                Ok(Workload::Star(StarConfig {
                    arms: positive(p, "arms", 3usize)?,
                    tuples_per_relation: rows,
                    center_domain: positive(p, "domain", (rows / 10).max(2))?,
                    weight_range: param(p, "weights", 1_000_000i64)?,
                    skew: skew(p, 0.2)?,
                    seed: param(p, "seed", 7u64)?,
                }))
            }
            "starschema" => {
                let p = &keys(&["lineitems", "orders", "parts", "weights", "skew", "seed"])?;
                let mut config = StarSchemaConfig::with_scale(positive(p, "lineitems", 10_000)?);
                config.orders = positive(p, "orders", config.orders)?;
                config.parts = positive(p, "parts", config.parts)?;
                config.weight_range = param(p, "weights", config.weight_range)?;
                config.skew = skew(p, config.skew)?;
                config.seed = param(p, "seed", config.seed)?;
                Ok(Workload::StarSchema(config))
            }
            "random" => {
                let p = &keys(&["atoms", "arity", "rows", "domain", "seed"])?;
                Ok(Workload::Random(RandomAcyclicConfig {
                    atoms: positive(p, "atoms", 3usize)?,
                    max_arity: positive(p, "arity", 3usize)?,
                    tuples_per_relation: param(p, "rows", 20usize)?,
                    domain: positive(p, "domain", 6i64)?,
                    seed: param(p, "seed", 7u64)?,
                }))
            }
            other => {
                let expected = "social, path, star, starschema, or random";
                usage(format!("unknown workload {other:?} (expected {expected})"))
            }
        }
    }

    /// The generator's name on a command line.
    pub fn name(&self) -> &'static str {
        match self {
            Workload::Social(_) => "social",
            Workload::Path(_) => "path",
            Workload::Star(_) => "star",
            Workload::StarSchema(_) => "starschema",
            Workload::Random(_) => "random",
        }
    }
}

/// A generator size the generators assert is at least 1.
fn positive<T: FromStr + PartialOrd + From<u8>>(
    params: &BTreeMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, RequestError> {
    let value = param(params, key, default)?;
    if value < T::from(1) {
        return usage(format!("{key} must be at least 1"));
    }
    Ok(value)
}

/// A Zipf skew: any number but NaN, which leaves the sampler an empty range.
fn skew(params: &BTreeMap<String, String>, default: f64) -> Result<f64, RequestError> {
    let skew = param(params, "skew", default)?;
    if skew.is_nan() {
        return usage("skew must be a number, got NaN");
    }
    Ok(skew)
}

/// A ranking spec, `kind:v1,v2` or `kind:*`; its variables are checked against
/// the database's query when the plan is registered.
#[derive(Clone, Debug, PartialEq)]
pub struct RankingSpec {
    /// The aggregate.
    pub kind: AggregateKind,
    /// The ranked variables; `None` is `*`, every variable of the query.
    pub vars: Option<Vec<String>>,
}

impl RankingSpec {
    fn parse(spec: &str) -> Result<RankingSpec, RequestError> {
        let Some((kind, vars)) = spec.split_once(':') else {
            let form = "must look like kind:v1,v2 or kind:*";
            return usage(format!("ranking spec {spec:?} {form}"));
        };
        let kind = match kind {
            "sum" => AggregateKind::Sum,
            "min" => AggregateKind::Min,
            "max" => AggregateKind::Max,
            "lex" => AggregateKind::Lex,
            other => return usage(format!("unknown ranking kind {other:?}")),
        };
        let names = vars.split(',').filter(|name| !name.is_empty());
        let vars = (vars != "*").then(|| names.map(str::to_string).collect::<Vec<_>>());
        if vars.as_ref().is_some_and(Vec::is_empty) {
            return usage("ranking needs at least one variable");
        }
        Ok(RankingSpec { kind, vars })
    }
}

impl Request {
    /// Parses one command line. Every malformed line — an unknown verb, a wrong
    /// arity, a value out of range, an unknown `key=` — is an
    /// [`ErrorClass::Usage`] error.
    pub fn parse(line: &str) -> Result<Request, RequestError> {
        let tokens: Vec<&str> = line.split_whitespace().collect();
        let Some((&verb, args)) = tokens.split_first() else {
            return Ok(Request::Empty);
        };
        let bare = |request| match args {
            [] => Ok(request),
            _ => usage(format!("{verb} takes no arguments")),
        };
        match verb {
            "help" => bare(Request::Help),
            "plans" => bare(Request::Plans),
            "metrics" => bare(Request::Metrics),
            PING => bare(Request::Ping),
            "quit" | "exit" => bare(Request::Quit),
            "shutdown" => bare(Request::Shutdown),
            "slowlog" => bare(Request::SlowLog),
            "stats" => match args {
                [] => Ok(Request::Stats),
                ["json"] => Ok(Request::StatsJson),
                _ => usage("stats [json]"),
            },
            "open" | "replace" => {
                let [db, workload, params @ ..] = args else {
                    return usage("open|replace <db> <workload> [key=value ...]");
                };
                let (db, workload) = (db.to_string(), Workload::parse(workload, params)?);
                match verb {
                    "open" => Ok(Request::Open(db, workload)),
                    _ => Ok(Request::Replace(db, workload)),
                }
            }
            "register" => match args {
                [plan, db, params @ ..] => {
                    let ranking = parse_ranking(params)?;
                    Ok(Request::Register(plan.to_string(), db.to_string(), ranking))
                }
                _ => usage("register <plan> <db> [ranking=<spec>]"),
            },
            "quantile" => match args {
                [plan, phi, params @ ..] => {
                    let (phi, accuracy) = (parse_phi(phi)?, parse_accuracy(params)?);
                    Ok(Request::Quantile(plan.to_string(), phi, accuracy))
                }
                _ => usage("quantile <plan> <phi> [eps=<ε>] [delta=<δ>] [seed=<s>]"),
            },
            "batch" => {
                let form = "batch <plan> <phi> [<phi> ...] [eps=<ε>] [delta=<δ>] [seed=<s>]";
                let [plan, rest @ ..] = args else {
                    return usage(form);
                };
                let (phis, params): (Vec<&str>, Vec<&str>) =
                    rest.iter().partition(|t| !t.contains('='));
                let (phis, accuracy) = (parse_phis(&phis)?, parse_accuracy(&params)?);
                Ok(Request::Batch(plan.to_string(), phis, accuracy))
            }
            "trace" => {
                let id = |raw: &str| match TraceId::parse(raw) {
                    Some(id) => Ok(Some(id)),
                    None => usage(format!("invalid trace id {raw:?} (expected hex)")),
                };
                let (id, count, chrome) = match args {
                    [] | ["last"] => (None, 1, false),
                    ["last", n] => (None, param_value("trace count", n)?, false),
                    ["id", raw] => (id(raw)?, 1, false),
                    ["chrome", "last"] => (None, 1, true),
                    ["chrome", raw] => (id(raw)?, 1, true),
                    _ => return usage("trace last [n] | trace id <id> | trace chrome <id|last>"),
                };
                let count = usize::max(count, 1);
                Ok(Request::Trace(TraceQuery { id, count, chrome }))
            }
            "explain" => match args {
                [plan, phi] => Ok(Request::Explain(plan.to_string(), parse_phi(phi)?)),
                ["analyze", plan, phi] => {
                    Ok(Request::ExplainAnalyze(plan.to_string(), parse_phi(phi)?))
                }
                _ => usage("explain [analyze] <plan> <phi>"),
            },
            other => usage(format!("unknown command {other:?}; try `help`")),
        }
    }
}

/// What kind of failure a reply reports: the `<class>` of the wire's
/// `err <class>: <message>`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorClass {
    /// The line does not parse: an unknown verb, a wrong arity, a bad value or
    /// key, a fraction or accuracy out of range.
    Usage,
    /// The request names a database, plan or trace that does not exist.
    Unknown,
    /// The request is well formed, but is not served as asked: an intractable
    /// exact SUM (Theorem 5.6), a sample budget no cheaper than an exact solve,
    /// a name already taken, a query with no answers.
    Refused,
    /// The instance exceeds one of the engine's fixed-width limits.
    TooLarge,
    /// A bug: two stages of a solve disagreed, or the request panicked.
    Internal,
    /// The server's worker queue is full: nothing was run; ask again later.
    Busy,
}

impl ErrorClass {
    /// Every class and its wire label, in declaration order.
    pub const ALL: [(ErrorClass, &'static str); 6] = [
        (ErrorClass::Usage, "usage"),
        (ErrorClass::Unknown, "unknown"),
        (ErrorClass::Refused, "refused"),
        (ErrorClass::TooLarge, "too-large"),
        (ErrorClass::Internal, "internal"),
        (ErrorClass::Busy, "busy"),
    ];
}

impl fmt::Display for ErrorClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(ErrorClass::ALL[*self as usize].1)
    }
}

/// Reads a `<class>` back, as a client does off an `err` line.
impl FromStr for ErrorClass {
    type Err = String;
    fn from_str(label: &str) -> Result<ErrorClass, String> {
        let named = |&(class, name): &(ErrorClass, &str)| (name == label).then_some(class);
        let class = ErrorClass::ALL.iter().find_map(named);
        class.ok_or_else(|| format!("unknown error class {label:?}"))
    }
}

/// A failed request: its class, and one line for a person to read.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RequestError {
    /// What kind of failure.
    pub class: ErrorClass,
    /// What went wrong, and what to do instead.
    pub message: String,
}

impl RequestError {
    /// An error of `class`.
    pub fn new(class: ErrorClass, message: impl Into<String>) -> RequestError {
        RequestError {
            class,
            message: message.into(),
        }
    }

    /// A malformed request ([`ErrorClass::Usage`]).
    pub fn usage(message: impl Into<String>) -> RequestError {
        RequestError::new(ErrorClass::Usage, message)
    }
}

/// `<class>: <message>`: the text after the wire's `err `.
impl fmt::Display for RequestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.class, self.message)
    }
}

impl std::error::Error for RequestError {}

impl From<EngineError> for RequestError {
    fn from(e: EngineError) -> Self {
        RequestError::new(e.class(), e.to_string())
    }
}

/// Parses `key=value` tokens, refusing any key outside `allowed`, so a typo
/// (`row=` for `rows=`) fails loudly instead of running on a default.
pub fn parse_params(
    tokens: &[&str],
    allowed: &[&str],
) -> Result<BTreeMap<String, String>, RequestError> {
    let mut params = BTreeMap::new();
    for token in tokens {
        let Some((key, value)) = token.split_once('=') else {
            return usage(format!("expected key=value, got {token:?}"));
        };
        if !allowed.contains(&key) {
            let allowed = allowed.join(", ");
            return usage(format!(
                "unknown parameter {key:?}; expected one of: {allowed}"
            ));
        }
        params.insert(key.to_string(), value.to_string());
    }
    Ok(params)
}

/// The value of `key`, or `default` when the parameters do not name it.
pub fn param<T: FromStr>(
    params: &BTreeMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, RequestError> {
    params
        .get(key)
        .map_or(Ok(default), |raw| param_value(key, raw))
}

fn param_value<T: FromStr>(key: &str, raw: &str) -> Result<T, RequestError> {
    raw.parse()
        .or_else(|_| usage(format!("invalid value {raw:?} for {key}")))
}

/// A malformed request: an [`ErrorClass::Usage`] error.
fn usage<T>(message: impl Into<String>) -> Result<T, RequestError> {
    Err(RequestError::usage(message))
}

fn parse_phi(token: &str) -> Result<f64, RequestError> {
    match token.parse::<f64>() {
        Ok(phi) if (0.0..=1.0).contains(&phi) => Ok(phi),
        Ok(phi) => usage(format!("φ must be in [0, 1], got {phi}")),
        Err(_) => usage(format!("invalid φ {token:?}")),
    }
}

/// Fractions, each in `[0, 1]`: at least one.
pub(crate) fn parse_phis(tokens: &[&str]) -> Result<Vec<f64>, RequestError> {
    match tokens {
        [] => usage("batch needs at least one φ"),
        _ => tokens.iter().map(|t| parse_phi(t)).collect(),
    }
}

/// The optional `ranking=<spec>` of `register`.
pub(crate) fn parse_ranking(tokens: &[&str]) -> Result<Option<RankingSpec>, RequestError> {
    let params = parse_params(tokens, &["ranking"])?;
    params
        .get("ranking")
        .map(|s| RankingSpec::parse(s))
        .transpose()
}

/// `eps=` alone selects the deterministic ε-approximation; adding `delta=` and/or
/// `seed=` switches to the randomized sampler (Hoeffding bound, reproducible by
/// seed), defaulting δ = 0.01 and seed = 0x5eed.
pub(crate) fn parse_accuracy(tokens: &[&str]) -> Result<Accuracy, RequestError> {
    let params = parse_params(tokens, &["eps", "delta", "seed"])?;
    let epsilon = param(&params, "eps", f64::NAN)?;
    let sampled = params.contains_key("delta") || params.contains_key("seed");
    match (params.contains_key("eps"), sampled) {
        (false, false) => Ok(Accuracy::Exact),
        (false, true) => usage("delta=/seed= request randomized sampling and need eps= too"),
        (true, false) => Ok(Accuracy::Approximate { epsilon }),
        (true, true) => Ok(Accuracy::Bounded {
            epsilon,
            delta: param(&params, "delta", 0.01)?,
            seed: param(&params, "seed", 0x5eed)?,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qjoin_core::CoreError;

    /// A seeded SplitMix64 stream: the case generator of the parse property.
    struct Cases(u64);

    impl Cases {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        /// In `[0, 1]`, the ends included often.
        fn fraction(&mut self) -> f64 {
            match self.below(8) {
                0 => 0.0,
                1 => 1.0,
                _ => (self.next() >> 11) as f64 / (1u64 << 53) as f64,
            }
        }

        fn name(&mut self) -> String {
            format!("n{}", self.below(50))
        }

        fn accuracy(&mut self) -> Accuracy {
            match self.below(3) {
                0 => Accuracy::Exact,
                1 => Accuracy::Approximate {
                    epsilon: self.fraction(),
                },
                _ => Accuracy::Bounded {
                    epsilon: self.fraction(),
                    delta: self.fraction(),
                    seed: self.next(),
                },
            }
        }

        /// A generator with every parameter given, each one it accepts.
        fn workload(&mut self) -> Workload {
            let mut size = || 1 + self.below(500) as usize;
            let (a, b, c) = (size(), size(), size());
            let (weights, skew) = (1 + self.below(1 << 20) as i64, 3.0 * self.fraction());
            let seed = self.next();
            match self.below(5) {
                0 => Workload::Social(SocialConfig {
                    users: a,
                    events: b,
                    rows_per_relation: c,
                    max_likes: weights,
                    event_skew: skew,
                    seed,
                }),
                1 => Workload::Path(PathConfig {
                    atoms: a,
                    tuples_per_relation: b,
                    join_domain: c,
                    weight_range: weights,
                    skew,
                    seed,
                }),
                2 => Workload::Star(StarConfig {
                    arms: a,
                    tuples_per_relation: b,
                    center_domain: c,
                    weight_range: weights,
                    skew,
                    seed,
                }),
                3 => Workload::StarSchema(StarSchemaConfig {
                    lineitems: a,
                    orders: b,
                    parts: c,
                    weight_range: weights,
                    skew,
                    seed,
                }),
                _ => Workload::Random(RandomAcyclicConfig {
                    atoms: a,
                    max_arity: b,
                    tuples_per_relation: c,
                    domain: weights,
                    seed,
                }),
            }
        }

        fn trace_id(&mut self) -> TraceId {
            TraceId(1 + self.below(1 << 40))
        }

        /// One request of verb number `verb` (every verb has one).
        fn request(&mut self, verb: u64) -> Request {
            let kinds = [
                AggregateKind::Sum,
                AggregateKind::Min,
                AggregateKind::Max,
                AggregateKind::Lex,
            ];
            match verb {
                0 => Request::Empty,
                1 => Request::Help,
                2 => Request::Open(self.name(), self.workload()),
                3 => Request::Replace(self.name(), self.workload()),
                4 => {
                    let ranking = (self.below(3) > 0).then(|| RankingSpec {
                        kind: kinds[self.below(4) as usize],
                        vars: (self.below(3) > 0)
                            .then(|| (0..=self.below(3)).map(|_| self.name()).collect()),
                    });
                    Request::Register(self.name(), self.name(), ranking)
                }
                5 => Request::Quantile(self.name(), self.fraction(), self.accuracy()),
                6 => {
                    let phis = (0..=self.below(6)).map(|_| self.fraction()).collect();
                    Request::Batch(self.name(), phis, self.accuracy())
                }
                7 => Request::Plans,
                8 => Request::Stats,
                9 => Request::StatsJson,
                10 => Request::Metrics,
                11 => {
                    let id = (self.below(2) == 0).then(|| self.trace_id());
                    let chrome = self.below(2) == 0;
                    let count = match (id, chrome) {
                        (None, false) => 1 + self.below(20) as usize,
                        _ => 1,
                    };
                    Request::Trace(TraceQuery { id, count, chrome })
                }
                12 => Request::Explain(self.name(), self.fraction()),
                13 => Request::ExplainAnalyze(self.name(), self.fraction()),
                14 => Request::Ping,
                15 => Request::Quit,
                16 => Request::Shutdown,
                _ => Request::SlowLog,
            }
        }
    }

    const VERBS: u64 = 18;

    fn render_accuracy(accuracy: &Accuracy) -> String {
        match accuracy {
            Accuracy::Exact => String::new(),
            Accuracy::Approximate { epsilon } => format!(" eps={epsilon}"),
            Accuracy::Bounded {
                epsilon,
                delta,
                seed,
            } => format!(" eps={epsilon} delta={delta} seed={seed}"),
        }
    }

    fn render_workload(workload: &Workload) -> String {
        let params = match workload {
            Workload::Social(c) => format!(
                "rows={} seed={} users={} events={} likes={} skew={}",
                c.rows_per_relation, c.seed, c.users, c.events, c.max_likes, c.event_skew
            ),
            Workload::Path(c) => format!(
                "atoms={} rows={} domain={} weights={} skew={} seed={}",
                c.atoms, c.tuples_per_relation, c.join_domain, c.weight_range, c.skew, c.seed
            ),
            Workload::Star(c) => format!(
                "arms={} rows={} domain={} weights={} skew={} seed={}",
                c.arms, c.tuples_per_relation, c.center_domain, c.weight_range, c.skew, c.seed
            ),
            Workload::StarSchema(c) => format!(
                "lineitems={} orders={} parts={} weights={} skew={} seed={}",
                c.lineitems, c.orders, c.parts, c.weight_range, c.skew, c.seed
            ),
            Workload::Random(c) => format!(
                "atoms={} arity={} rows={} domain={} seed={}",
                c.atoms, c.max_arity, c.tuples_per_relation, c.domain, c.seed
            ),
        };
        format!("{} {params}", workload.name())
    }

    /// The command line `request` is parsed from.
    fn render(request: &Request) -> String {
        match request {
            Request::Empty => String::new(),
            Request::Help => "help".to_string(),
            Request::Open(db, workload) => format!("open {db} {}", render_workload(workload)),
            Request::Replace(db, workload) => {
                format!("replace {db} {}", render_workload(workload))
            }
            Request::Register(plan, db, ranking) => {
                let ranking = ranking.as_ref().map_or(String::new(), |spec| {
                    let kind = format!("{:?}", spec.kind).to_lowercase();
                    let vars = spec.vars.as_ref().map_or("*".to_string(), |v| v.join(","));
                    format!(" ranking={kind}:{vars}")
                });
                format!("register {plan} {db}{ranking}")
            }
            Request::Quantile(plan, phi, accuracy) => {
                format!("quantile {plan} {phi}{}", render_accuracy(accuracy))
            }
            Request::Batch(plan, phis, accuracy) => {
                let phis: Vec<String> = phis.iter().map(f64::to_string).collect();
                format!(
                    "batch {plan} {}{}",
                    phis.join(" "),
                    render_accuracy(accuracy)
                )
            }
            Request::Plans => "plans".to_string(),
            Request::Stats => "stats".to_string(),
            Request::StatsJson => "stats json".to_string(),
            Request::Metrics => "metrics".to_string(),
            Request::Trace(TraceQuery { id, count, chrome }) => match (id, chrome) {
                (None, false) => format!("trace last {count}"),
                (Some(id), false) => format!("trace id {id}"),
                (None, true) => "trace chrome last".to_string(),
                (Some(id), true) => format!("trace chrome {id}"),
            },
            Request::Explain(plan, phi) => format!("explain {plan} {phi}"),
            Request::ExplainAnalyze(plan, phi) => format!("explain analyze {plan} {phi}"),
            Request::Ping => "ping".to_string(),
            Request::Quit => "quit".to_string(),
            Request::Shutdown => "shutdown".to_string(),
            Request::SlowLog => "slowlog".to_string(),
        }
    }

    fn class(line: &str) -> Option<ErrorClass> {
        Request::parse(line).err().map(|e| e.class)
    }

    /// Every request of every verb parses back from its rendering, and the same
    /// line with one more `key=value` token is a usage error.
    #[test]
    fn every_rendered_request_parses_back() {
        let mut cases = Cases(0x5eed);
        for case in 0..4000 {
            let request = cases.request(case % VERBS);
            let line = render(&request);
            assert_eq!(Request::parse(&line), Ok(request), "{line:?}");
            let extra = format!("{line} nosuch=1");
            assert_eq!(class(&extra), Some(ErrorClass::Usage), "{extra:?}");
        }
        assert_eq!(Request::parse("exit"), Ok(Request::Quit));
        assert_eq!(Request::parse(" \t "), Ok(Request::Empty));
    }

    /// Mutation: `delta=` without `eps=` parsed as an exact request.
    #[test]
    fn malformed_lines_are_usage_errors() {
        let mut cases = Cases(7);
        for _ in 0..200 {
            // A fraction outside [0, 1], wherever a verb takes one.
            let phi = 1.0 + f64::from(1 + cases.below(1000) as u32) / 100.0;
            for line in [
                format!("quantile p {phi}"),
                format!("quantile p -{phi}"),
                format!("batch p 0.5 {phi}"),
                format!("explain analyze p {phi}"),
            ] {
                assert_eq!(class(&line), Some(ErrorClass::Usage), "{line:?}");
            }
        }
        for line in [
            "frobnicate",
            "quantile p",
            "quantile p 0.5 0.7",
            "batch p",
            "batch p eps=0.1",
            "explain p",
            "explain analyze p 0.5 0.7",
            "open s",
            "register p",
            "stats json please",
            "trace id",
            "trace id zz",
            "trace last many",
            "ping now",
            "quit now",
            "open s nosuch",
            "open s social row=5",
            "register p s rank=max:*",
            "register p s ranking=weird:*",
            "register p s ranking=sum",
            "register p s ranking=sum:",
            "quantile p 0.5 esp=0.1",
            "quantile p 0.5 eps=x",
            "quantile p 0.5 delta=0.1",
            "quantile p 0.5 seed=3",
            "batch p 0.5 delta=0.1 seed=3",
            "quantile p 0.5 eps=0.1 seed=-1",
        ] {
            assert_eq!(class(line), Some(ErrorClass::Usage), "{line:?}");
        }
    }

    /// One value of every engine and solver error variant, and its class.
    /// Mutation: two class arms swapped.
    #[test]
    fn every_error_variant_has_its_class() {
        use ErrorClass::{Busy, Internal, Refused, TooLarge, Unknown, Usage};
        let name = || "x".to_string();
        let core = |e: CoreError| EngineError::Core(e);
        let query = qjoin_query::QueryError::EmptyQuery;
        let table = [
            (EngineError::UnknownDatabase(name()), Unknown),
            (EngineError::DuplicateDatabase(name()), Refused),
            (EngineError::UnknownPlan(name()), Unknown),
            (EngineError::DuplicatePlan(name()), Refused),
            (
                EngineError::PlanCannotServe {
                    plan: name(),
                    reason: name(),
                },
                Refused,
            ),
            (EngineError::TooLarge { plan: name() }, TooLarge),
            (core(CoreError::InvalidPhi(2.0)), Usage),
            (core(CoreError::InvalidEpsilon(2.0)), Usage),
            (core(CoreError::InvalidDelta(2.0)), Usage),
            (core(CoreError::NoAnswers), Refused),
            (core(CoreError::CyclicQuery(name())), Refused),
            (core(CoreError::IntractableSum(name())), Refused),
            (core(CoreError::UnsupportedRanking(name())), Refused),
            (core(CoreError::UnsupportedPredicate(name())), Internal),
            (
                core(CoreError::QueryTooLarge { atoms: 9, limit: 8 }),
                TooLarge,
            ),
            (core(CoreError::TooLarge(name())), TooLarge),
            (core(CoreError::ApproxRefused(name())), Refused),
            (core(CoreError::Internal(name())), Internal),
            (
                core(CoreError::Exec(qjoin_exec::ExecError::Query(query.clone()))),
                Refused,
            ),
            (core(CoreError::Query(query)), Refused),
            (
                core(CoreError::Data(qjoin_data::DataError::UnknownRelation(
                    name(),
                ))),
                Refused,
            ),
        ];
        for (error, class) in table {
            assert_eq!(error.class(), class, "{error:?}");
            let reply = RequestError::from(error.clone());
            assert_eq!(reply.to_string(), format!("{class}: {error}"));
        }
        let labels = [Usage, Unknown, Refused, TooLarge, Internal, Busy].map(|c| c.to_string());
        assert_eq!(
            labels,
            [
                "usage",
                "unknown",
                "refused",
                "too-large",
                "internal",
                "busy"
            ]
        );
    }

    /// Mutation: a row of `ALL` out of declaration order, and a class prints,
    /// or reads back, as another.
    #[test]
    fn every_error_class_reads_back_from_its_label() {
        for (class, label) in ErrorClass::ALL {
            assert_eq!(
                (class.to_string(), label.parse()),
                (label.to_string(), Ok(class))
            );
        }
        assert!("Usage".parse::<ErrorClass>().is_err());
        assert!("".parse::<ErrorClass>().is_err());
    }
}
