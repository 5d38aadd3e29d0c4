//! Set-up of the system under test: an engine holding the generated databases
//! and their plans, served over TCP by an in-process `Server`, with one blocking
//! `Client` connected to it.

use crate::host;
use crate::workloads::Source;
use qjoin_data::Database;
use qjoin_engine::cli::CliSession;
use qjoin_engine::{Engine, EngineConfig};
use qjoin_query::JoinQuery;
use qjoin_ranking::Ranking;
use qjoin_server::{Client, Server, ServerConfig, ServerHandle, ServerSummary};
use std::net::SocketAddr;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A generated database with the plans to register on it.
#[derive(Clone)]
pub struct Catalogued {
    pub name: &'static str,
    pub database: Arc<Database>,
    pub query: JoinQuery,
    pub plans: Vec<(&'static str, Ranking)>,
}

impl Catalogued {
    /// Generates a database from a source and seed.
    pub fn generate(
        name: &'static str,
        source: Source,
        seed: u64,
        plans: Vec<(&'static str, Ranking)>,
    ) -> Catalogued {
        let (query, database) = source.generate(seed).into_parts();
        Catalogued {
            name,
            database: Arc::new(database),
            query,
            plans,
        }
    }
}

/// The fixed engine configuration: one solve thread (thread scaling is a
/// per-layer metric; on a shared two-core host a second solve thread makes cold
/// medians depend on whether the other core is free).
pub fn engine_config(flight_recorder_capacity: usize) -> EngineConfig {
    EngineConfig {
        threads: Some(1),
        flight_recorder_capacity,
        ..EngineConfig::default()
    }
}

/// The flight recorder's default capacity, as production runs it.
pub fn default_recorder_capacity() -> usize {
    EngineConfig::default().flight_recorder_capacity
}

/// Builds an engine over the databases and registers every plan.
pub fn build_engine(databases: &[Catalogued], flight_recorder_capacity: usize) -> Arc<Engine> {
    let engine = Arc::new(Engine::with_config(engine_config(flight_recorder_capacity)));
    for db in databases {
        engine
            .create_database(db.name, Arc::clone(&db.database))
            .expect("fresh database name");
        for (plan, ranking) in &db.plans {
            engine
                .register(plan, db.name, db.query.clone(), ranking.clone())
                .expect("generated plans compile");
        }
    }
    engine
}

/// A running server and the engine behind it.
pub struct Served {
    pub engine: Arc<Engine>,
    pub addr: SocketAddr,
    handle: ServerHandle,
    thread: JoinHandle<std::io::Result<ServerSummary>>,
}

impl Served {
    /// Serves an engine on an ephemeral loopback port.
    pub fn start(engine: Arc<Engine>) -> Served {
        let session = Arc::new(CliSession::with_engine(Arc::clone(&engine)));
        let config = ServerConfig {
            workers: host::nproc(),
            ..ServerConfig::default()
        };
        let server = Server::bind("127.0.0.1:0", session, config).expect("bind loopback");
        let handle = server.handle().expect("bound address");
        let addr = handle.addr();
        let thread = std::thread::spawn(move || server.run());
        Served {
            engine,
            addr,
            handle,
            thread,
        }
    }

    /// Opens one more connection.
    pub fn connect(&self) -> Client {
        let client = Client::connect(self.addr).expect("connect to the in-process server");
        client
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("set a read timeout");
        client
    }

    /// Stops the server and waits for its threads.
    pub fn stop(self) -> ServerSummary {
        self.handle.shutdown();
        self.thread
            .join()
            .expect("server thread does not panic")
            .expect("server drains cleanly")
    }
}

/// One timed set-up: engine construction, every `create_database` and
/// `register`, `Server::bind`, and the first `ping` round trip.
pub fn set_up(
    databases: &[Catalogued],
    flight_recorder_capacity: usize,
) -> (Served, Client, Duration) {
    let started = Instant::now();
    let served = Served::start(build_engine(databases, flight_recorder_capacity));
    let mut client = served.connect();
    client.ping().expect("first ping");
    (served, client, started.elapsed())
}
