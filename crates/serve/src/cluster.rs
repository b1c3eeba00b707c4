//! The `ra-relay` coordinator: shards jobs across N backend nodes with
//! health-checked failover and exactly-once handoff.
//!
//! # Shape
//!
//! The relay speaks the same wire protocol as a single backend — both
//! codecs, sniffed per connection — so every existing client
//! (`ra-loadgen`, the integration tests, curl-with-netcat) points at
//! the relay unchanged. Internally:
//!
//! * a [`HashRing`](crate::ring::HashRing) consistent-hashes each
//!   [`JobKey`] to an owning backend, so identical specs always land on
//!   the same node and its memo store keeps deduplicating across the
//!   whole cluster;
//! * requests and responses are typed ([`Request`]/[`Response`]) end to
//!   end — the relay decodes once at its edge, routes the enum, and
//!   re-encodes per client codec. Forwards to backends ride the binary
//!   codec; the client side keeps whatever it sniffed;
//! * every relayed verb is a batch, and a single verb is a batch of one:
//!   `submit`/`submit_batch` run through one submit core and
//!   `status`/`result`/`cancel` (and their batch forms) through one
//!   ticket core. Each core works in rounds: answer what the edge can,
//!   group the rest by live owner, forward one request per owner in the
//!   client's own shape (a batch becomes one sub-batch per owner), and
//!   carry only the items whose forward failed into the next round.
//!   A `result_batch` wait is one deadline for the whole call, across
//!   every owner and every round;
//! * a probe loop drives one [`HealthMachine`] per backend
//!   (Up/Suspect/Down, consecutive-failure thresholds, probe RTT),
//!   emitting `node_up` / `node_down` obs events on transitions;
//! * layered on the health machine, every backend carries a
//!   [`CircuitBreaker`] fed by the *request* stream: error rate or
//!   over-budget RTTs trip it open, routing steers around open
//!   breakers, and a probe-limited half-open phase closes it again
//!   (`breaker_transition` obs events mark every flip);
//! * when every owner for a key is down, saturated (`queue_full`), or
//!   breaker-open, a submit that opted into degradation
//!   (`allow_degraded` with a floor admitting `hop`) is answered *at
//!   the edge*: the relay runs the analytic hop model inline and
//!   returns a `fidelity=hop` result with disposition `degraded`
//!   instead of an error — the cluster's outermost brownout rung;
//! * every forward carries a deadline (connect + read timeouts), and a
//!   call gets `retry_budget` rounds after its first, each after one
//!   seeded-jitter backoff — the same exponential policy the scheduler
//!   uses for transient job faults;
//! * a small LRU at the relay edge replicates hot memo entries, so
//!   duplicate-heavy traffic is answered without a backend hop even
//!   while a shard is failing over.
//!
//! # Exactly-once failover
//!
//! When a node dies mid-job the relay re-submits the dead shard's
//! in-flight specs to the ring's next live owner. Re-submission is safe
//! for the same reason journal replay is: a job is content-addressed by
//! its canonical spec hash, results are deterministic, and the
//! survivor's memo store + single-flight coalescing collapse any
//! duplicate arrival (prober re-route racing a client retry) into one
//! run. The client observes exactly one terminal result per submitted
//! job, bit-identical to what the dead node would have produced.

#![deny(clippy::too_many_lines)]

use std::collections::{BTreeMap, HashMap};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ra_cosim::ModeSpec;
use ra_obs::{json_object, Event, JsonField, ObsSink};

use crate::breaker::{BreakerConfig, BreakerState, CircuitBreaker};
use crate::health::{HealthMachine, HealthPolicy, NodeState, Transition};
use crate::json::Json;
use crate::proto::{
    ErrorCode, OutcomeOk, Request, Response, ResultBody, SubmitItem, SubmitOk, WireError,
};
use crate::ring::{HashRing, DEFAULT_VNODES};
use crate::scheduler::{backoff_delay, ServiceStats, HOP_ERROR_BOUND};
use crate::spec::{Fidelity, JobKey, JobSpec};
use crate::store::ratio;
use crate::wire::{ok_fields, serve_stream, WireClient};

/// Tuning knobs for [`RelayServer`].
#[derive(Debug, Clone)]
pub struct RelayConfig {
    /// Backend addresses, one per shard slot; slot order is identity.
    pub backends: Vec<String>,
    /// Virtual nodes per backend on the hash ring.
    pub vnodes: usize,
    /// Probe loop tuning (interval, timeout, thresholds).
    pub health: HealthPolicy,
    /// Per-backend circuit-breaker tuning for the forwarding path.
    pub breaker: BreakerConfig,
    /// Per-forward connect + response deadline.
    pub forward_deadline: Duration,
    /// Forward attempts per request beyond the first.
    pub retry_budget: u32,
    /// Base backoff between forward attempts; doubles per attempt, plus
    /// seeded jitter so synchronized clients do not stampede.
    pub retry_backoff: Duration,
    /// Relay-edge hot-memo LRU capacity in entries (0 disables it).
    pub edge_cache: usize,
    /// Seed for retry jitter (deterministic tests pin it).
    pub seed: u64,
    /// Idle-connection budget for the relay's own listener.
    pub idle_timeout: Duration,
}

impl Default for RelayConfig {
    fn default() -> Self {
        RelayConfig {
            backends: Vec::new(),
            vnodes: DEFAULT_VNODES,
            health: HealthPolicy::default(),
            breaker: BreakerConfig::default(),
            forward_deadline: Duration::from_secs(2),
            retry_budget: 3,
            retry_backoff: Duration::from_millis(10),
            edge_cache: 64,
            seed: 42,
            idle_timeout: crate::wire::DEFAULT_IDLE_TIMEOUT,
        }
    }
}

/// Relay-level counters (the backend counters live on the backends and
/// are aggregated by the `stats` verb).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RelayStats {
    /// Submits received by the relay (batch items count individually).
    pub submitted: u64,
    /// Requests forwarded to a backend (a sub-batch counts once).
    pub forwards: u64,
    /// Forward attempts retried after a transport failure.
    pub retries: u64,
    /// Jobs re-routed from a failed backend to a survivor.
    pub reroutes: u64,
    /// Node-down transitions (each fires one failover pass).
    pub failovers: u64,
    /// Submits and results answered from the relay-edge memo LRU.
    pub edge_hits: u64,
    /// Shedable jobs answered at `fidelity=hop` by the relay edge
    /// because every owner was saturated or breaker-open.
    pub edge_brownouts: u64,
}

/// Locks relay state, recovering from poisoning: a panicking holder
/// never leaves a relay map half-updated, so the data stays usable.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

/// xorshift64* — the same tiny deterministic generator `ra-loadgen`
/// uses for client backoff jitter.
struct Jitter(u64);

impl Jitter {
    fn new(seed: u64) -> Jitter {
        Jitter(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.next() % bound
        }
    }
}

/// Hot-memo LRU at the relay edge: typed terminal `result` responses
/// keyed by job hash, served without a backend hop. Re-encoding a
/// cached [`Response`] is deterministic per codec, so an edge hit is
/// bit-identical to the backend's own answer on either wire.
struct EdgeEntry {
    when: u64,
    /// A brownout answer produced below full fidelity. Degraded entries
    /// only satisfy submits that opted into degradation, and any
    /// full-fidelity result replaces them in place (never the reverse).
    degraded: bool,
    response: Response,
}

struct EdgeCache {
    capacity: usize,
    tick: u64,
    map: HashMap<u64, EdgeEntry>,
}

impl EdgeCache {
    fn new(capacity: usize) -> EdgeCache {
        EdgeCache {
            capacity,
            tick: 0,
            map: HashMap::new(),
        }
    }

    fn get(&mut self, key: JobKey) -> Option<Response> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(&key.0).map(|entry| {
            entry.when = tick;
            entry.response.clone()
        })
    }

    /// Whether a submit may be answered from the edge: degraded entries
    /// count only when the submitter accepts degraded answers.
    fn hit(&self, key: JobKey, accept_degraded: bool) -> bool {
        self.map
            .get(&key.0)
            .is_some_and(|entry| !entry.degraded || accept_degraded)
    }

    fn insert(&mut self, key: JobKey, response: Response, degraded: bool) {
        if self.capacity == 0 {
            return;
        }
        // Upgrade-only: a degraded answer never displaces a full one.
        if degraded && self.map.get(&key.0).is_some_and(|e| !e.degraded) {
            return;
        }
        self.tick += 1;
        self.map.insert(
            key.0,
            EdgeEntry {
                when: self.tick,
                degraded,
                response,
            },
        );
        if self.map.len() > self.capacity {
            // Evict the least-recently-used entry. Linear scan: the
            // edge cache is deliberately small (tens of entries).
            if let Some(&oldest) = self
                .map
                .iter()
                .min_by_key(|(_, entry)| entry.when)
                .map(|(k, _)| k)
            {
                self.map.remove(&oldest);
            }
        }
    }
}

/// One in-flight relay ticket: enough to re-drive the job anywhere.
#[derive(Debug, Clone)]
struct TicketEntry {
    key: JobKey,
    /// The canonicalized submit item (spec text re-submittable
    /// verbatim, plus priority/deadline and the degradation contract —
    /// a re-routed job keeps its `allow_degraded`/`min_fidelity`).
    item: SubmitItem,
    /// Backend slot currently owning the job; `None` for a ticket
    /// answered purely from the edge cache.
    backend: Option<usize>,
    /// The owning backend's ticket for this job.
    remote_ticket: u64,
    /// Bumped on every re-route so a forwarder blocked on the old
    /// backend can tell the prober already moved the job.
    generation: u64,
}

struct Node {
    addr: SocketAddr,
    health: Mutex<HealthMachine>,
    /// Request-stream circuit breaker, layered on the probe-driven
    /// health machine: a node can be probe-alive yet tripping here.
    breaker: Mutex<CircuitBreaker>,
}

/// Shared relay state: ring, node table, ticket map, edge cache,
/// counters. Connection threads and the probe loop all hold an `Arc`.
pub struct Relay {
    config: RelayConfig,
    ring: HashRing,
    nodes: Vec<Node>,
    tickets: Mutex<HashMap<u64, TicketEntry>>,
    next_ticket: AtomicU64,
    edge: Mutex<EdgeCache>,
    stats: Mutex<RelayStats>,
    obs: ObsSink,
    stop: AtomicBool,
    /// Monotonic origin for breaker timestamps (`now_ns`).
    started: Instant,
}

impl Relay {
    /// Resolves the backend addresses and builds the shared state (no
    /// I/O beyond DNS resolution; probing starts with
    /// [`RelayServer::spawn`]).
    ///
    /// # Errors
    ///
    /// When `backends` is empty or an address does not resolve.
    pub fn new(config: RelayConfig, obs: ObsSink) -> io::Result<Relay> {
        if config.backends.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a relay needs at least one --backend",
            ));
        }
        let mut nodes = Vec::with_capacity(config.backends.len());
        for text in &config.backends {
            let addr = text.to_socket_addrs()?.next().ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("backend `{text}` does not resolve"),
                )
            })?;
            nodes.push(Node {
                addr,
                health: Mutex::new(HealthMachine::new(&config.health)),
                breaker: Mutex::new(CircuitBreaker::new(config.breaker.clone())),
            });
        }
        let ring = HashRing::new(nodes.len(), config.vnodes.max(1));
        let edge = EdgeCache::new(config.edge_cache);
        Ok(Relay {
            config,
            ring,
            nodes,
            tickets: Mutex::new(HashMap::new()),
            next_ticket: AtomicU64::new(1),
            edge: Mutex::new(edge),
            stats: Mutex::new(RelayStats::default()),
            obs,
            stop: AtomicBool::new(false),
            started: Instant::now(),
        })
    }

    /// Relay-level counter snapshot.
    pub fn stats(&self) -> RelayStats {
        *lock(&self.stats)
    }

    /// Health state of one backend slot.
    pub fn node_state(&self, node: usize) -> NodeState {
        lock(&self.nodes[node].health).state()
    }

    /// Circuit-breaker state of one backend slot.
    pub fn breaker_state(&self, node: usize) -> BreakerState {
        lock(&self.nodes[node].breaker).state()
    }

    /// Total breaker trips across every backend slot.
    pub fn breaker_trips(&self) -> u64 {
        self.nodes.iter().map(|n| lock(&n.breaker).trips()).sum()
    }

    /// Nanoseconds since relay construction (breaker clock).
    fn now_ns(&self) -> u64 {
        self.started.elapsed().as_nanos() as u64
    }

    /// Runs `f` on `node`'s breaker at the breaker clock, emitting a
    /// `breaker_transition` event when that flips its state.
    fn on_breaker<T>(&self, node: usize, f: impl FnOnce(&mut CircuitBreaker, u64) -> T) -> T {
        let now = self.now_ns();
        let (out, from, to) = {
            let mut breaker = lock(&self.nodes[node].breaker);
            let from = breaker.state();
            let out = f(&mut breaker, now);
            (out, from, breaker.state())
        };
        if from != to {
            self.obs.emit(|| Event::BreakerTransition {
                node: node as u64,
                from: from.name().into(),
                to: to.name().into(),
            });
            // Breaker flips gate routing; a live tail must see them promptly.
            let _ = self.obs.flush();
        }
        out
    }

    /// Asks `node`'s breaker whether a forward may go out now; an open
    /// breaker whose cooldown elapsed flips to half-open here.
    fn breaker_admits(&self, node: usize) -> bool {
        self.on_breaker(node, |breaker, now| breaker.allow(now))
    }

    /// Feeds one forward outcome into `node`'s breaker.
    fn breaker_report(&self, node: usize, outcome: Result<Duration, ()>) {
        self.on_breaker(node, |breaker, now| match outcome {
            Ok(rtt) => breaker.on_success(now, rtt),
            Err(()) => breaker.on_failure(now),
        });
    }

    fn bump<F: FnOnce(&mut RelayStats)>(&self, f: F) {
        f(&mut lock(&self.stats));
    }

    /// Per-node liveness mask for the ring.
    fn alive_mask(&self) -> Vec<bool> {
        self.nodes
            .iter()
            .map(|n| lock(&n.health).state().routes())
            .collect()
    }

    /// Liveness mask further restricted to breakers willing to route
    /// (non-consuming: the forward itself still asks `allow`). Both
    /// cores steer around probe-alive nodes whose requests are tripping.
    fn routable_mask(&self) -> Vec<bool> {
        let now = self.now_ns();
        self.alive_mask()
            .into_iter()
            .enumerate()
            .map(|(node, alive)| alive && lock(&self.nodes[node].breaker).would_allow(now))
            .collect()
    }

    /// Mints a relay ticket and records its entry.
    fn register_ticket(
        &self,
        key: JobKey,
        item: SubmitItem,
        backend: Option<usize>,
        remote_ticket: u64,
    ) -> u64 {
        let ticket = self.next_ticket.fetch_add(1, Ordering::Relaxed);
        let entry = TicketEntry {
            key,
            item,
            backend,
            remote_ticket,
            generation: 0,
        };
        lock(&self.tickets).insert(ticket, entry);
        ticket
    }

    /// A snapshot of one relay ticket's entry.
    fn ticket(&self, ticket: u64) -> Option<TicketEntry> {
        lock(&self.tickets).get(&ticket).cloned()
    }

    /// Drops a spent relay ticket.
    fn forget(&self, ticket: u64) {
        lock(&self.tickets).remove(&ticket);
    }

    /// Moves `ticket` to `remote_ticket` on `target` unless another
    /// thread re-homed it since `seen` was read — the generation race
    /// check between the prober's failover and client-path re-drives —
    /// and accounts the reroute.
    fn move_ticket(
        &self,
        ticket: u64,
        seen: &TicketEntry,
        target: usize,
        remote_ticket: u64,
    ) -> Option<TicketEntry> {
        let moved = {
            let mut tickets = lock(&self.tickets);
            let live = tickets
                .get_mut(&ticket)
                .filter(|live| live.generation == seen.generation)?;
            live.backend = Some(target);
            live.remote_ticket = remote_ticket;
            live.generation += 1;
            live.clone()
        };
        self.bump(|s| s.reroutes += 1);
        let job = seen.key.0;
        let from = seen.backend.map_or(u64::MAX, |node| node as u64);
        self.obs.emit(|| Event::Reroute {
            job,
            from,
            to: target as u64,
        });
        Some(moved)
    }

    /// Feeds one probe (or forward) outcome into a node's machine and
    /// reacts to transitions: obs events, and failover on `WentDown`.
    fn record_probe(&self, node: usize, outcome: Result<Duration, ()>) {
        let transition = {
            let mut machine = lock(&self.nodes[node].health);
            match outcome {
                Ok(rtt) => machine.on_success(rtt),
                Err(()) => machine.on_failure(),
            }
        };
        match transition {
            Some(Transition::CameUp) => {
                let rtt_ns = lock(&self.nodes[node].health).last_rtt_ns();
                self.obs.emit(|| Event::NodeUp {
                    node: node as u64,
                    rtt_ns,
                });
                // Membership changes must be visible to a live tail
                // (CI greps the trace mid-run), not sit buffered.
                let _ = self.obs.flush();
            }
            Some(Transition::WentDown) => {
                let failures = u64::from(lock(&self.nodes[node].health).failures());
                self.obs.emit(|| Event::NodeDown {
                    node: node as u64,
                    failures,
                });
                self.bump(|s| s.failovers += 1);
                self.fail_over(node);
            }
            None => {}
        }
    }

    /// Re-routes every in-flight job owned by `dead` to the ring's next
    /// routable owner, through the same grouped re-submit the ticket
    /// core uses. Orphans left unmoved stay with the client path, which
    /// re-drives them on its next call.
    fn fail_over(&self, dead: usize) {
        let orphans: Vec<(u64, TicketEntry)> = {
            let tickets = lock(&self.tickets);
            tickets
                .iter()
                .filter(|(_, e)| e.backend == Some(dead))
                .map(|(&t, e)| (t, e.clone()))
                .collect()
        };
        let mut pool = BackendPool::new(self);
        let handed_off = rehome(self, &mut pool, &orphans, &self.routable_mask())
            .iter()
            .filter(|home| matches!(home, Rehomed::Moved(..)))
            .count() as u64;
        self.obs.emit(|| Event::Failover {
            node: dead as u64,
            inflight: handed_off,
        });
        let _ = self.obs.flush();
    }

    /// One probe round over every backend.
    fn probe_all(&self) {
        for node in 0..self.nodes.len() {
            let started = Instant::now();
            let outcome = WireClient::connect_timeout(
                &self.nodes[node].addr,
                self.config.health.probe_timeout,
            )
            .and_then(|mut client| {
                client.set_read_timeout(Some(self.config.health.probe_timeout))?;
                client.health()
            });
            match outcome {
                Ok(response) if response.get("ok").and_then(Json::as_bool) == Some(true) => {
                    self.record_probe(node, Ok(started.elapsed()));
                }
                _ => self.record_probe(node, Err(())),
            }
        }
    }

    fn probe_loop(&self) {
        // First round immediately: traffic may arrive before the first
        // interval elapses and the mask should reflect reality.
        while !self.stop.load(Ordering::Relaxed) {
            self.probe_all();
            let mut waited = Duration::ZERO;
            let step = Duration::from_millis(25);
            while waited < self.config.health.probe_interval {
                if self.stop.load(Ordering::Relaxed) {
                    return;
                }
                std::thread::sleep(step);
                waited += step;
            }
        }
    }
}

/// A per-connection pool of backend clients: lazily connected, dropped
/// on any transport error so the next use reconnects fresh. One pool
/// per relay connection thread — forwards never contend on a shared
/// backend socket. Pooled clients speak the binary codec: the
/// relay→backend hop is the hot path and the framed TLV is both
/// smaller and checksummed.
pub struct BackendPool {
    clients: Vec<Option<WireClient>>,
}

impl BackendPool {
    /// An empty pool sized for `relay`'s node table.
    pub fn new(relay: &Relay) -> BackendPool {
        BackendPool {
            clients: (0..relay.nodes.len()).map(|_| None).collect(),
        }
    }

    /// A connected client for `node`, reusing the pooled connection.
    fn client(&mut self, relay: &Relay, node: usize) -> io::Result<&mut WireClient> {
        if self.clients[node].is_none() {
            let client = WireClient::connect_timeout(
                &relay.nodes[node].addr,
                relay.config.forward_deadline,
            )?
            .with_binary(true);
            client.set_read_timeout(Some(relay.config.forward_deadline))?;
            self.clients[node] = Some(client);
        }
        Ok(self.clients[node].as_mut().expect("just inserted"))
    }

    fn invalidate(&mut self, node: usize) {
        self.clients[node] = None;
    }
}

/// Forwards one typed request to `node`, with the read deadline
/// stretched to `read_deadline` (long-poll `result` calls must outlive
/// the job they wait for). `None` means no answer: the breaker refused
/// locally, or the transport failed.
///
/// Every forward first asks the node's circuit breaker and reports its
/// outcome back with the measured round-trip, so the breaker sees the
/// real request stream (slow successes included). A transport failure
/// also counts as a failed probe of the node's health machine; a local
/// breaker refusal touched no socket and feeds neither.
fn forward(
    relay: &Relay,
    pool: &mut BackendPool,
    node: usize,
    request: &Request,
    read_deadline: Duration,
) -> Option<Response> {
    if !relay.breaker_admits(node) {
        return None;
    }
    let started = Instant::now();
    let outcome = (|| {
        let client = pool.client(relay, node)?;
        client.set_read_timeout(Some(read_deadline))?;
        let response = client.call_request(request);
        // Restore the default forward deadline for the next reuse.
        let _ = client.set_read_timeout(Some(relay.config.forward_deadline));
        response
    })();
    match outcome {
        Ok(response) => {
            // A stretched-deadline long poll measures the *job*, not the
            // backend; only short forwards judge their RTT against the
            // breaker's budget.
            let rtt = if read_deadline > relay.config.forward_deadline {
                Duration::ZERO
            } else {
                started.elapsed()
            };
            relay.breaker_report(node, Ok(rtt));
            relay.bump(|s| s.forwards += 1);
            Some(response)
        }
        Err(_) => {
            relay.breaker_report(node, Err(()));
            // A desynchronized connection (timed-out long poll) cannot
            // be reused: a stale response would answer the wrong call.
            pool.invalidate(node);
            relay.record_probe(node, Err(()));
            None
        }
    }
}

/// Forwards one owner's share of a call and splits the reply into one
/// answer per item: a single verb's reply is its answer, a sub-batch's
/// is its `batch`. `None` when the forward failed or the reply has the
/// wrong shape.
fn forward_items(
    relay: &Relay,
    pool: &mut BackendPool,
    node: usize,
    request: &Request,
    items: usize,
    read_deadline: Duration,
) -> Option<Vec<Response>> {
    let batched = matches!(
        request,
        Request::SubmitBatch(_) | Request::StatusBatch { .. } | Request::ResultBatch { .. }
    );
    match forward(relay, pool, node, request, read_deadline)? {
        Response::Batch(answers) => (batched && answers.len() == items).then_some(answers),
        answer => (!batched).then(|| vec![answer]),
    }
}

/// Paces a core's rounds: the first runs at once, and each of the
/// `retry_budget` rounds after it first waits out one jittered
/// exponential backoff, counted as a retry.
struct Rounds<'a> {
    relay: &'a Relay,
    jitter: Jitter,
    /// Rounds begun so far.
    begun: u32,
}

impl<'a> Rounds<'a> {
    fn new(relay: &'a Relay, salt: u64) -> Rounds<'a> {
        Rounds {
            relay,
            jitter: Jitter::new(relay.config.seed ^ salt),
            begun: 0,
        }
    }

    /// Starts the next round; `false` once the retry budget is spent.
    fn next_round(&mut self) -> bool {
        if self.begun > self.relay.config.retry_budget {
            return false;
        }
        if self.begun > 0 {
            self.relay.bump(|s| s.retries += 1);
            let base = backoff_delay(self.relay.config.retry_backoff, self.begun);
            let extra = self.jitter.below(base.as_millis().max(1) as u64);
            std::thread::sleep(base + Duration::from_millis(extra));
        }
        self.begun += 1;
        true
    }
}

/// The longest a relayed `result` waits when the client set no timeout:
/// the relay never parks a thread forever on one backend read.
const MAX_RESULT_WAIT_MS: u64 = 600_000;

fn no_backend(verb: &str) -> Response {
    Response::Error(
        WireError::new(ErrorCode::NoBackend, verb)
            .with_detail("no live backend for this key"),
    )
}

fn unknown_ticket(verb: &str) -> Response {
    Response::Error(WireError::new(ErrorCode::UnknownTicket, verb))
}

/// Whether a backend response means "this backend no longer knows the
/// job" (restart lost the ticket) rather than a client error.
fn is_lost_ticket(response: &Response) -> bool {
    matches!(response, Response::Error(err) if err.code == ErrorCode::UnknownTicket)
}

/// The three ticket-addressed verbs a relay forwards.
enum TicketAction {
    Status,
    Result { timeout_ms: Option<u64> },
    Cancel,
}

impl TicketAction {
    fn verb(&self, batch: bool) -> &'static str {
        match (self, batch) {
            (TicketAction::Status, false) => "status",
            (TicketAction::Status, true) => "status_batch",
            (TicketAction::Result { .. }, false) => "result",
            (TicketAction::Result { .. }, true) => "result_batch",
            (TicketAction::Cancel, _) => "cancel",
        }
    }

    /// One owner's request in the client's shape, and its read deadline.
    /// A `result` waits for what is `left` of the call's deadline, in
    /// whole milliseconds rounded up, with one forward deadline of slack
    /// for transport. A single verb carries exactly one ticket; there is
    /// no `cancel_batch`, so a cancel always goes per ticket.
    fn request(
        &self,
        remote: Vec<u64>,
        batch: bool,
        left: Duration,
        forward_deadline: Duration,
    ) -> (Request, Duration) {
        let timeout_ms = Some(left.as_nanos().div_ceil(1_000_000) as u64);
        let request = match (self, batch) {
            (TicketAction::Status, false) => Request::Status { ticket: remote[0] },
            (TicketAction::Status, true) => Request::StatusBatch { tickets: remote },
            (TicketAction::Result { .. }, false) => Request::Result {
                ticket: remote[0],
                timeout_ms,
            },
            (TicketAction::Result { .. }, true) => Request::ResultBatch {
                tickets: remote,
                timeout_ms,
            },
            (TicketAction::Cancel, _) => Request::Cancel { ticket: remote[0] },
        };
        match self {
            TicketAction::Result { .. } => (request, left + forward_deadline),
            _ => (request, forward_deadline),
        }
    }
}

/// Dispatches one typed relay request — the relay's counterpart of
/// [`crate::wire::dispatch`]. Pure with respect to listener I/O (the
/// pool does backend I/O), so tests drive it without sockets on the
/// front side. A single verb is a batch of one through the same core as
/// its batch form.
pub fn handle_relay_request(
    relay: &Relay,
    pool: &mut BackendPool,
    request: &Request,
) -> Response {
    match request {
        Request::Submit(item) => relay_submits(relay, pool, std::slice::from_ref(item), false),
        Request::SubmitBatch(items) => relay_submits(relay, pool, items, true),
        Request::Status { ticket } => {
            relay_tickets(relay, pool, &[*ticket], &TicketAction::Status, false)
        }
        Request::StatusBatch { tickets } => {
            relay_tickets(relay, pool, tickets, &TicketAction::Status, true)
        }
        Request::Result { ticket, timeout_ms } => {
            let action = TicketAction::Result {
                timeout_ms: *timeout_ms,
            };
            relay_tickets(relay, pool, &[*ticket], &action, false)
        }
        Request::ResultBatch {
            tickets,
            timeout_ms,
        } => {
            let action = TicketAction::Result {
                timeout_ms: *timeout_ms,
            };
            relay_tickets(relay, pool, tickets, &action, true)
        }
        Request::Cancel { ticket } => {
            relay_tickets(relay, pool, &[*ticket], &TicketAction::Cancel, false)
        }
        Request::Stats => {
            // Mirror the backend: a stats poll is a sync point for the
            // relay's own trace stream.
            let _ = relay.obs.flush();
            relay_stats(relay, pool)
        }
        Request::NodeStats => relay_node_stats(relay, pool),
        Request::Health => {
            let alive = relay.alive_mask();
            let up = alive.iter().filter(|a| **a).count() as u64;
            Response::Report {
                json: ok_fields(vec![
                    ("role", JsonField::Str("relay".into())),
                    ("state", JsonField::Str("up".into())),
                    ("nodes", JsonField::Int(alive.len() as u64)),
                    ("nodes_routable", JsonField::Int(up)),
                ]),
            }
        }
    }
}

/// The client's reply from its items' answers: a batch answers item by
/// item, in order; a single verb with its one item's answer.
fn reply(answers: Vec<Option<Response>>, batch: bool) -> Response {
    let mut answers: Vec<Response> = answers
        .into_iter()
        .map(|answer| answer.expect("every item answered"))
        .collect();
    if batch {
        Response::Batch(answers)
    } else {
        answers.pop().expect("a single verb has one item")
    }
}

/// The edge's half of a submit: canonicalize, count, and answer from
/// the edge LRU when possible.
enum Prepared {
    /// Decided without a backend hop (bad spec or edge hit).
    Answered(Response),
    /// Needs a ring hop: the routing key and the canonicalized item.
    Route(JobKey, SubmitItem),
}

fn prepare_submit(relay: &Relay, item: &SubmitItem, verb: &str) -> Prepared {
    // Canonicalize at the edge: routing must hash the canonical form,
    // and malformed specs should never cost a backend hop.
    let spec: JobSpec = match item.spec.parse() {
        Ok(spec) => spec,
        Err(err) => {
            return Prepared::Answered(Response::Error(
                WireError::new(ErrorCode::BadSpec, verb).with_detail(err.to_string()),
            ))
        }
    };
    let key = spec.job_hash();
    let item = SubmitItem {
        spec: spec.canonical(),
        ..item.clone()
    };
    relay.bump(|s| s.submitted += 1);

    // Edge hit: answer without a backend hop, even mid-failover. A
    // degraded (brownout) entry only answers submitters that accept
    // degraded results themselves.
    let edge_hit = lock(&relay.edge).hit(key, item_accepts_hop(&item));
    if !edge_hit {
        return Prepared::Route(key, item);
    }
    relay.bump(|s| s.edge_hits += 1);
    let ticket = relay.register_ticket(key, item, None, 0);
    Prepared::Answered(edge_submit(ticket, key, "cached"))
}

/// A submit answered at the relay edge, with no backend behind it.
fn edge_submit(ticket: u64, key: JobKey, disposition: &str) -> Response {
    Response::Submit(SubmitOk {
        ticket,
        job: key.to_string(),
        disposition: disposition.into(),
        depth: 0,
        node: None,
        edge: true,
    })
}

/// Whether a submit item's degradation contract admits a hop-fidelity
/// answer: it opted in, and its floor (if any) is the hop rung.
fn item_accepts_hop(item: &SubmitItem) -> bool {
    item.allow_degraded
        && !matches!(item.min_fidelity.as_deref(), Some(floor) if floor != Fidelity::Hop.name())
}

/// The submit core behind `submit` (a batch of one) and `submit_batch`.
/// Bad specs and edge hits are answered at the edge. The rest go round
/// by round to their ring owners under the routable mask, one forward
/// per owner in the client's shape, and only the items whose forward
/// failed are carried into the next round. An item left with no
/// routable owner, refused by a saturated owner, or out of rounds takes
/// the edge brownout when it opted in, and an error otherwise.
fn relay_submits(
    relay: &Relay,
    pool: &mut BackendPool,
    items: &[SubmitItem],
    batch: bool,
) -> Response {
    let verb = if batch { "submit_batch" } else { "submit" };
    if batch {
        relay.obs.emit(|| Event::WireBatch {
            verb: verb.into(),
            items: items.len() as u64,
        });
    }
    let shed = |key, item: &SubmitItem| {
        edge_brownout(relay, key, item).unwrap_or_else(|| no_backend(verb))
    };
    let mut answers: Vec<Option<Response>> = vec![None; items.len()];
    let mut pending: Vec<(usize, JobKey, SubmitItem)> = Vec::new();
    for (index, item) in items.iter().enumerate() {
        match prepare_submit(relay, item, verb) {
            Prepared::Answered(answer) => answers[index] = Some(answer),
            Prepared::Route(key, item) => pending.push((index, key, item)),
        }
    }
    let mut rounds = Rounds::new(relay, pending.first().map_or(0, |(_, key, _)| key.0));
    while !pending.is_empty() && rounds.next_round() {
        let routable = relay.routable_mask();
        let mut by_owner: BTreeMap<usize, Vec<(usize, JobKey, SubmitItem)>> = BTreeMap::new();
        for (index, key, item) in pending.drain(..) {
            match relay.ring.route_live(key, &routable) {
                Some(owner) => by_owner.entry(owner).or_default().push((index, key, item)),
                None => answers[index] = Some(shed(key, &item)),
            }
        }
        for (owner, group) in by_owner {
            let request = if batch {
                Request::SubmitBatch(group.iter().map(|(_, _, item)| item.clone()).collect())
            } else {
                Request::Submit(group[0].2.clone())
            };
            let deadline = relay.config.forward_deadline;
            let Some(replies) = forward_items(relay, pool, owner, &request, group.len(), deadline)
            else {
                pending.extend(group);
                continue;
            };
            for ((index, key, item), answer) in group.into_iter().zip(replies) {
                answers[index] = Some(match answer {
                    Response::Submit(ok) => {
                        let ticket = relay.register_ticket(key, item, Some(owner), ok.ticket);
                        Response::Submit(SubmitOk {
                            ticket,
                            job: key.to_string(),
                            node: Some(owner as u64),
                            edge: false,
                            ..ok
                        })
                    }
                    // A saturated owner refused: answer shedable work
                    // degraded at the edge rather than bouncing it back.
                    Response::Error(err) if err.code == ErrorCode::QueueFull => {
                        edge_brownout(relay, key, &item).unwrap_or(Response::Error(err))
                    }
                    // Other refusals (bad spec, shutting down): the
                    // client owns that policy.
                    other => other,
                });
            }
        }
    }
    for (index, key, item) in pending {
        answers[index] = Some(shed(key, &item));
    }
    reply(answers, batch)
}

/// The relay edge's own brownout rung: when no owner can take a
/// shedable job, run the analytic hop model inline and answer at
/// `fidelity=hop` — a degraded result now instead of a `no_backend` or
/// `queue_full` error. Returns `None` when the item did not opt in,
/// its floor forbids the hop rung, or the spec has no cheaper rung to
/// degrade to (only reciprocal modes do).
fn edge_brownout(relay: &Relay, key: JobKey, item: &SubmitItem) -> Option<Response> {
    if !item_accepts_hop(item) {
        return None;
    }
    let spec: JobSpec = item.spec.parse().ok()?;
    if !Fidelity::degradable(&spec.mode) {
        return None;
    }
    let mut hop_spec = spec;
    hop_spec.mode = ModeSpec::Hop;
    let run_started = Instant::now();
    let result = hop_spec.to_run_spec().run().ok()?;
    let run_ns = run_started.elapsed().as_nanos() as u64;
    let response = Response::Outcome(OutcomeOk {
        outcome: "completed".into(),
        detail: None,
        queue_ns: Some(0),
        run_ns: Some(run_ns),
        body: Some(ResultBody::from_run(&result, Fidelity::Hop, HOP_ERROR_BOUND)),
    });
    lock(&relay.edge).insert(key, response, true);
    let ticket = relay.register_ticket(key, item.clone(), None, 0);
    relay.bump(|s| s.edge_brownouts += 1);
    relay.obs.emit(|| Event::EdgeBrownout { job: key.0 });
    let _ = relay.obs.flush();
    Some(edge_submit(ticket, key, "degraded"))
}

/// A ticket the ticket core still owes an answer.
struct Owed {
    /// Position in the client's call.
    index: usize,
    ticket: u64,
    /// The owner generation whose forward failed this ticket (transport
    /// failure or lost ticket): the next round re-homes it unless
    /// another thread moved it meanwhile.
    failed_at: Option<u64>,
}

/// What the edge can answer for an edge ticket (no backend behind it):
/// its status, its cancel, and its result while the LRU still holds
/// it. An evicted result is re-driven on the ring instead.
fn edge_answer(
    relay: &Relay,
    ticket: u64,
    entry: &TicketEntry,
    action: &TicketAction,
) -> Option<Response> {
    if entry.backend.is_some() {
        return None;
    }
    match action {
        TicketAction::Status => Some(Response::Status {
            state: "done".into(),
        }),
        TicketAction::Cancel => Some(Response::Cancel {
            cancel: "already_done".into(),
        }),
        TicketAction::Result { .. } => {
            let cached = lock(&relay.edge).get(entry.key)?;
            relay.bump(|s| s.edge_hits += 1);
            relay.forget(ticket);
            Some(cached)
        }
    }
}

/// The ticket core behind `status`, `result`, and `cancel` (each a
/// batch of one) and `status_batch`/`result_batch`. Each round answers
/// what the edge can, re-homes tickets whose owner is gone or failed
/// them, and forwards one request per live owner in the client's shape.
/// Only tickets whose forward failed or whose backend lost them are
/// carried into the next round. A `result` wait is one deadline for the
/// whole call: every forward waits only for what is left of it.
fn relay_tickets(
    relay: &Relay,
    pool: &mut BackendPool,
    tickets: &[u64],
    action: &TicketAction,
    batch: bool,
) -> Response {
    let verb = action.verb(batch);
    if batch {
        relay.obs.emit(|| Event::WireBatch {
            verb: verb.into(),
            items: tickets.len() as u64,
        });
    }
    let wait_ms = match action {
        TicketAction::Result { timeout_ms } => timeout_ms.unwrap_or(MAX_RESULT_WAIT_MS),
        _ => 0,
    };
    let deadline = Instant::now() + Duration::from_millis(wait_ms);
    let mut answers: Vec<Option<Response>> = vec![None; tickets.len()];
    let mut pending: Vec<Owed> = tickets
        .iter()
        .enumerate()
        .map(|(index, &ticket)| Owed {
            index,
            ticket,
            failed_at: None,
        })
        .collect();
    let mut rounds = Rounds::new(relay, tickets.first().copied().unwrap_or(0));
    while !pending.is_empty() && rounds.next_round() {
        let routable = relay.routable_mask();
        let mut by_owner: BTreeMap<usize, Vec<(Owed, TicketEntry)>> = BTreeMap::new();
        let (mut strays, mut orphans) = (Vec::new(), Vec::new());
        for owed in pending.drain(..) {
            let Some(entry) = relay.ticket(owed.ticket) else {
                answers[owed.index] = Some(unknown_ticket(verb));
                continue;
            };
            if let Some(answer) = edge_answer(relay, owed.ticket, &entry, action) {
                answers[owed.index] = Some(answer);
                continue;
            }
            match entry.backend {
                Some(node) if routable[node] && owed.failed_at != Some(entry.generation) => {
                    by_owner.entry(node).or_default().push((owed, entry));
                }
                _ => {
                    orphans.push((owed.ticket, entry));
                    strays.push(owed);
                }
            }
        }
        let homes = rehome(relay, pool, &orphans, &routable);
        for (owed, home) in strays.into_iter().zip(homes) {
            match home {
                Rehomed::Moved(node, moved) => {
                    by_owner.entry(node).or_default().push((owed, moved));
                }
                Rehomed::Stranded => answers[owed.index] = Some(no_backend(verb)),
                Rehomed::Retry => pending.push(owed),
            }
        }
        for (node, group) in by_owner {
            let remote = group.iter().map(|(_, entry)| entry.remote_ticket).collect();
            let left = deadline.saturating_duration_since(Instant::now());
            let (request, read_deadline) =
                action.request(remote, batch, left, relay.config.forward_deadline);
            let mut replies =
                forward_items(relay, pool, node, &request, group.len(), read_deadline)
                    .map(Vec::into_iter);
            for (owed, entry) in group {
                match replies.as_mut().and_then(Iterator::next) {
                    Some(answer) if !is_lost_ticket(&answer) => {
                        if matches!(action, TicketAction::Result { .. }) {
                            cache_terminal_result(relay, &entry, owed.ticket, &answer);
                        }
                        answers[owed.index] = Some(answer);
                    }
                    // The forward failed, or the backend restarted and
                    // lost the ticket (its journal replay may still be
                    // re-running the job): re-home it next round.
                    _ => pending.push(Owed {
                        failed_at: Some(entry.generation),
                        ..owed
                    }),
                }
            }
        }
    }
    for owed in pending {
        answers[owed.index] = Some(Response::Error(
            WireError::new(ErrorCode::Unavailable, verb)
                .with_detail("backends unreachable within the retry budget"),
        ));
    }
    reply(answers, batch)
}

/// How [`rehome`] left one orphaned ticket.
enum Rehomed {
    /// Re-submitted to this node and moved there.
    Moved(usize, TicketEntry),
    /// No routable owner is left for the job.
    Stranded,
    /// Not moved this time: the re-submit failed or was refused, or
    /// another thread moved the ticket first.
    Retry,
}

/// Re-homes orphaned tickets (owner dead, restarted, or failing) on
/// their ring owners under `routable`: one batched re-submit per owner,
/// then each accepted ticket moves via [`Relay::move_ticket`]. The
/// ticket core and the prober's failover both re-home through here.
/// Exactly-once holds because the owner's memo store and single-flight
/// coalescing dedup any racing re-submit of the same `JobKey`.
fn rehome(
    relay: &Relay,
    pool: &mut BackendPool,
    orphans: &[(u64, TicketEntry)],
    routable: &[bool],
) -> Vec<Rehomed> {
    let mut homes: Vec<Rehomed> = orphans.iter().map(|_| Rehomed::Stranded).collect();
    let mut by_owner: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (index, (_, entry)) in orphans.iter().enumerate() {
        if let Some(owner) = relay.ring.route_live(entry.key, routable) {
            by_owner.entry(owner).or_default().push(index);
            homes[index] = Rehomed::Retry;
        }
    }
    for (owner, group) in by_owner {
        let items = group
            .iter()
            .map(|&index| orphans[index].1.item.clone())
            .collect();
        let request = Request::SubmitBatch(items);
        let deadline = relay.config.forward_deadline;
        let Some(replies) = forward_items(relay, pool, owner, &request, group.len(), deadline)
        else {
            continue;
        };
        for (&index, answer) in group.iter().zip(replies) {
            let (ticket, seen) = &orphans[index];
            if let Response::Submit(ok) = answer {
                if let Some(moved) = relay.move_ticket(*ticket, seen, owner, ok.ticket) {
                    homes[index] = Rehomed::Moved(owner, moved);
                }
            }
        }
    }
    homes
}

/// A terminal `result` response replicates into the edge LRU (and the
/// consumed relay ticket is dropped). Only memoizable outcomes are
/// cached: completed/cached results are deterministic; failures are
/// not replicated so a transient fault cannot get pinned at the edge.
fn cache_terminal_result(
    relay: &Relay,
    entry: &TicketEntry,
    ticket: u64,
    response: &Response,
) {
    let Response::Outcome(ok) = response else {
        return;
    };
    if matches!(ok.outcome.as_str(), "completed" | "cached") {
        // A brownout answer replicates as degraded: it serves only
        // degradation-tolerant submits, and a later full-fidelity
        // result replaces it in place.
        let degraded = ok.body.as_ref().is_some_and(|body| {
            matches!(body.fidelity.as_deref(), Some(rung) if rung != Fidelity::Reciprocal.name())
        });
        lock(&relay.edge).insert(entry.key, response.clone(), degraded);
    }
    // The backend collected its ticket; ours is spent too.
    relay.forget(ticket);
}

/// One backend's parsed `stats` report, or `None` when it cannot be
/// had.
fn backend_stats(relay: &Relay, pool: &mut BackendPool, node: usize) -> Option<Json> {
    let deadline = relay.config.forward_deadline;
    match forward(relay, pool, node, &Request::Stats, deadline)? {
        Response::Report { json } => Json::parse(&json).ok(),
        _ => None,
    }
}

/// Aggregated cluster stats: the numeric counters of every reachable
/// backend summed, plus the relay's own counters and node tallies.
fn relay_stats(relay: &Relay, pool: &mut BackendPool) -> Response {
    let mut sums: HashMap<&str, u64> = ServiceStats::summed().map(|name| (name, 0)).collect();
    let mut unreachable: Vec<u64> = Vec::new();
    for node in 0..relay.nodes.len() {
        let Some(response) = backend_stats(relay, pool, node) else {
            unreachable.push(node as u64);
            continue;
        };
        for (field, sum) in &mut sums {
            *sum += response.get(field).and_then(Json::as_u64).unwrap_or(0);
        }
    }
    let memo_ratio = ratio(sums["cache_hits"] + sums["coalesced"], sums["submitted"]);
    let hit_ratio = ratio(sums["store_hits"], sums["store_hits"] + sums["store_misses"]);
    let alive = relay.alive_mask();
    let nodes_routable = alive.iter().filter(|a| **a).count() as u64;
    let relay_counters = relay.stats();
    let mut fields: Vec<(&'static str, JsonField)> = ServiceStats::summed()
        .map(|name| (name, JsonField::Int(sums[name])))
        .collect();
    fields.push(("hit_ratio", JsonField::Num(hit_ratio)));
    fields.push(("memo_ratio", JsonField::Num(memo_ratio)));
    fields.push(("role", JsonField::Str("relay".into())));
    fields.push(("nodes", JsonField::Int(alive.len() as u64)));
    fields.push(("nodes_routable", JsonField::Int(nodes_routable)));
    let reporting = (alive.len() - unreachable.len()) as u64;
    fields.push(("nodes_reporting", JsonField::Int(reporting)));
    fields.push(("relay_submitted", JsonField::Int(relay_counters.submitted)));
    fields.push(("relay_forwards", JsonField::Int(relay_counters.forwards)));
    fields.push(("relay_retries", JsonField::Int(relay_counters.retries)));
    fields.push(("relay_reroutes", JsonField::Int(relay_counters.reroutes)));
    fields.push(("relay_failovers", JsonField::Int(relay_counters.failovers)));
    fields.push(("relay_edge_hits", JsonField::Int(relay_counters.edge_hits)));
    fields.push((
        "relay_edge_brownouts",
        JsonField::Int(relay_counters.edge_brownouts),
    ));
    fields.push(("relay_breaker_trips", JsonField::Int(relay.breaker_trips())));
    let breakers_open = (0..relay.nodes.len())
        .filter(|&node| relay.breaker_state(node) != BreakerState::Closed)
        .count() as u64;
    fields.push(("breakers_open", JsonField::Int(breakers_open)));
    // Honest aggregation: when any backend failed to report, the sums
    // above under-count the cluster — flag it and name the gaps so a
    // dashboard never mistakes a partial view for a quiet cluster.
    if !unreachable.is_empty() {
        fields.push(("degraded_stats", JsonField::Raw("true".into())));
        let rows: Vec<String> = unreachable.iter().map(u64::to_string).collect();
        fields.push((
            "nodes_unreachable",
            JsonField::Raw(format!("[{}]", rows.join(","))),
        ));
    }
    Response::Report {
        json: ok_fields(fields),
    }
}

/// Per-node breakdown: health state, probe RTT, and each reachable
/// backend's own headline counters, as a JSON array.
fn relay_node_stats(relay: &Relay, pool: &mut BackendPool) -> Response {
    let mut rows = Vec::with_capacity(relay.nodes.len());
    for node in 0..relay.nodes.len() {
        let (state, failures, rtt_ns) = {
            let machine = lock(&relay.nodes[node].health);
            (
                machine.state(),
                u64::from(machine.failures()),
                machine.last_rtt_ns(),
            )
        };
        let (breaker_state, breaker_trips) = {
            let breaker = lock(&relay.nodes[node].breaker);
            (breaker.state(), breaker.trips())
        };
        let mut fields = vec![
            ("node", JsonField::Int(node as u64)),
            ("addr", JsonField::Str(relay.nodes[node].addr.to_string())),
            ("state", JsonField::Str(state.name().into())),
            ("failures", JsonField::Int(failures)),
            ("rtt_ns", JsonField::Int(rtt_ns)),
            ("breaker", JsonField::Str(breaker_state.name().into())),
            ("breaker_trips", JsonField::Int(breaker_trips)),
        ];
        let report = state.routes().then(|| backend_stats(relay, pool, node)).flatten();
        match report {
            Some(response) => fields.extend(ServiceStats::per_node().filter_map(|name| {
                let v = response.get(name).and_then(Json::as_u64)?;
                Some((name, JsonField::Int(v)))
            })),
            // A row that carries no counters says so explicitly: Down,
            // breaker-open, and mid-crash backends all read as
            // `unreachable` instead of silently thinner rows.
            None => fields.push(("unreachable", JsonField::Raw("true".into()))),
        }
        rows.push(json_object(&fields));
    }
    Response::Report {
        json: ok_fields(vec![
            ("role", JsonField::Str("relay".into())),
            ("nodes", JsonField::Raw(format!("[{}]", rows.join(",")))),
        ]),
    }
}

/// A bound, not-yet-running relay server (mirrors
/// [`WireServer`](crate::wire::WireServer)).
pub struct RelayServer {
    listener: TcpListener,
    relay: Arc<Relay>,
}

impl RelayServer {
    /// Binds `addr` around a relay.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(addr: impl ToSocketAddrs, relay: Relay) -> io::Result<RelayServer> {
        Ok(RelayServer {
            listener: TcpListener::bind(addr)?,
            relay: Arc::new(relay),
        })
    }

    /// The bound address (resolves port 0).
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Starts the probe loop and the accept loop on background
    /// threads; the handle stops both.
    ///
    /// # Errors
    ///
    /// Propagates the socket query / thread spawn failure.
    pub fn spawn(self) -> io::Result<RelayHandle> {
        let addr = self.local_addr()?;
        let relay = self.relay.clone();
        let prober_relay = relay.clone();
        let prober = std::thread::Builder::new()
            .name("ra-relay-probe".into())
            .spawn(move || prober_relay.probe_loop())?;
        let accept_relay = relay.clone();
        let listener = self.listener;
        let accept = std::thread::Builder::new()
            .name("ra-relay-accept".into())
            .spawn(move || accept_loop(&listener, &accept_relay))?;
        Ok(RelayHandle {
            addr,
            relay,
            threads: vec![prober, accept],
        })
    }
}

fn accept_loop(listener: &TcpListener, relay: &Arc<Relay>) {
    for conn in listener.incoming() {
        if relay.stop.load(Ordering::Relaxed) {
            return;
        }
        let Ok(stream) = conn else { continue };
        let relay = relay.clone();
        let _ = std::thread::Builder::new()
            .name("ra-relay-conn".into())
            .spawn(move || {
                let mut pool = BackendPool::new(&relay);
                let idle = relay.config.idle_timeout;
                serve_stream(stream, idle, |request| {
                    handle_relay_request(&relay, &mut pool, request)
                });
            });
    }
}

/// Stops a spawned relay (probe + accept loops) on drop or explicitly.
pub struct RelayHandle {
    addr: SocketAddr,
    relay: Arc<Relay>,
    threads: Vec<JoinHandle<()>>,
}

impl RelayHandle {
    /// Where the relay listens.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared relay state (stats, node health).
    pub fn relay(&self) -> Arc<Relay> {
        self.relay.clone()
    }

    /// Signals both loops and joins them.
    pub fn stop(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        if self.threads.is_empty() {
            return;
        }
        self.relay.stop.store(true, Ordering::Relaxed);
        // Unblock the accept() so the loop observes the flag.
        let _ = TcpStream::connect(self.addr);
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
        let _ = self.relay.obs.flush();
    }
}

impl Drop for RelayHandle {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{Codec, JsonCodec};
    use crate::scheduler::{JobService, ServeConfig};
    use crate::wire::WireServer;

    const SPEC: &str = "target=2x2 app=water mode=fixed:10 instructions=20 budget=100000";

    fn backend(workers: usize) -> crate::wire::ServerHandle {
        let service = JobService::start(
            ServeConfig {
                workers,
                ..ServeConfig::default()
            },
            ObsSink::disabled(),
        )
        .expect("service starts");
        WireServer::bind("127.0.0.1:0", service)
            .expect("bind backend")
            .spawn()
            .expect("spawn backend")
    }

    fn relay_over(addrs: &[SocketAddr]) -> RelayHandle {
        relay_probing(addrs, Duration::from_millis(50))
    }

    fn relay_probing(addrs: &[SocketAddr], probe_interval: Duration) -> RelayHandle {
        let config = RelayConfig {
            backends: addrs.iter().map(|a| a.to_string()).collect(),
            health: HealthPolicy {
                probe_interval,
                probe_timeout: Duration::from_millis(250),
                fail_threshold: 2,
                recover_threshold: 1,
            },
            forward_deadline: Duration::from_millis(500),
            retry_backoff: Duration::from_millis(5),
            ..RelayConfig::default()
        };
        let relay = Relay::new(config, ObsSink::disabled()).expect("relay config");
        RelayServer::bind("127.0.0.1:0", relay)
            .expect("bind relay")
            .spawn()
            .expect("spawn relay")
    }

    /// A free 127.0.0.1 address: bound once to pick a port, then
    /// released so the test controls when (if ever) something listens.
    fn reserved_addr() -> SocketAddr {
        let parked = TcpListener::bind("127.0.0.1:0").expect("park a port");
        let addr = parked.local_addr().expect("parked addr");
        drop(parked);
        addr
    }

    /// A relay built directly (no spawn: no probe loop, no listener) so
    /// tests drive `handle_relay_request` deterministically. The health
    /// thresholds are set sky-high so only the *breaker* reacts to
    /// forward failures.
    fn relay_direct(addrs: &[SocketAddr], breaker: BreakerConfig) -> Relay {
        let config = RelayConfig {
            backends: addrs.iter().map(|a| a.to_string()).collect(),
            health: HealthPolicy {
                probe_interval: Duration::from_secs(3600),
                probe_timeout: Duration::from_millis(250),
                fail_threshold: 10_000,
                recover_threshold: 1,
            },
            breaker,
            forward_deadline: Duration::from_millis(300),
            retry_budget: 2,
            retry_backoff: Duration::from_millis(1),
            ..RelayConfig::default()
        };
        Relay::new(config, ObsSink::disabled()).expect("relay config")
    }

    fn backend_at(addr: SocketAddr) -> crate::wire::ServerHandle {
        let service = JobService::start(
            ServeConfig {
                workers: 1,
                ..ServeConfig::default()
            },
            ObsSink::disabled(),
        )
        .expect("service starts");
        WireServer::bind(addr, service)
            .expect("bind backend at reserved addr")
            .spawn()
            .expect("spawn backend")
    }

    fn test_breaker() -> BreakerConfig {
        BreakerConfig {
            window: 4,
            min_samples: 2,
            error_threshold: 0.5,
            rtt_budget: Duration::from_secs(5),
            open_cooldown: Duration::from_millis(100),
            half_open_probes: 1,
            close_after: 1,
        }
    }

    #[test]
    fn empty_batches_answer_an_empty_batch_without_a_forward() {
        // Nothing listens at the backend: an empty batch must not need it.
        let relay = relay_direct(&[reserved_addr()], test_breaker());
        let mut pool = BackendPool::new(&relay);
        for request in [
            Request::SubmitBatch(vec![]),
            Request::StatusBatch { tickets: vec![] },
            Request::ResultBatch {
                tickets: vec![],
                timeout_ms: None,
            },
        ] {
            let answer = handle_relay_request(&relay, &mut pool, &request);
            assert_eq!(answer, Response::Batch(vec![]), "{request:?}");
            assert_eq!(
                JsonCodec.encode_response(&answer),
                b"{\"ok\":true,\"batch\":[]}\n",
            );
        }
        assert_eq!(relay.stats().forwards, 0);
    }

    #[test]
    fn a_tripped_breaker_steers_submits_and_recovers_half_open() {
        let addr = reserved_addr();
        let relay = relay_direct(&[addr], test_breaker());
        let mut pool = BackendPool::new(&relay);

        // Nothing listens yet: the first two rounds fail, which is
        // exactly min_samples at 100% error rate — the breaker trips,
        // and the last round finds no routable owner.
        let refused = handle_relay_request(
            &relay,
            &mut pool,
            &Request::Submit(SubmitItem::new(SPEC)),
        );
        assert!(
            matches!(&refused, Response::Error(err) if err.code == ErrorCode::NoBackend),
            "{refused:?}"
        );
        assert_eq!(relay.breaker_state(0), BreakerState::Open);
        assert_eq!(relay.breaker_trips(), 1);
        assert!(
            relay.node_state(0).routes(),
            "the breaker must trip without the health machine demoting the node"
        );

        // While open (cooldown running) the routing mask refuses
        // locally: no connection attempt, no extra breaker samples.
        let still_refused = handle_relay_request(
            &relay,
            &mut pool,
            &Request::Submit(SubmitItem::new(SPEC)),
        );
        assert!(
            matches!(&still_refused, Response::Error(err) if err.code == ErrorCode::NoBackend),
            "{still_refused:?}"
        );
        assert_eq!(relay.breaker_state(0), BreakerState::Open);

        // The backend comes up; once the cooldown elapses the next
        // submit is the half-open probe, and its success closes the
        // breaker (close_after=1).
        let b0 = backend_at(addr);
        std::thread::sleep(Duration::from_millis(120));
        let recovered = handle_relay_request(
            &relay,
            &mut pool,
            &Request::Submit(SubmitItem::new(SPEC)),
        );
        let Response::Submit(ok) = &recovered else {
            panic!("the half-open probe must carry the submit: {recovered:?}");
        };
        assert_eq!(ok.node, Some(0));
        assert_eq!(relay.breaker_state(0), BreakerState::Closed);
        assert_eq!(relay.breaker_trips(), 1, "recovery is not another trip");
        b0.stop();
    }

    #[test]
    fn unreachable_owners_brownout_shedable_submits_at_the_edge() {
        let addr = reserved_addr();
        let relay = relay_direct(&[addr], test_breaker());
        let mut pool = BackendPool::new(&relay);
        let rspec = "target=2x2 app=water mode=reciprocal instructions=40 budget=100000";

        // A shedable submit (allow_degraded, no floor) with every owner
        // unreachable: the edge answers it at fidelity=hop instead of
        // failing with no_backend.
        let item = SubmitItem::new(rspec)
            .client("edge-test")
            .allow_degraded(true);
        let submitted =
            handle_relay_request(&relay, &mut pool, &Request::Submit(item.clone()));
        let Response::Submit(ok) = &submitted else {
            panic!("shedable submit must be answered degraded: {submitted:?}");
        };
        assert_eq!(ok.disposition, "degraded");
        assert!(ok.edge);
        assert_eq!(ok.node, None);
        assert_eq!(relay.stats().edge_brownouts, 1);

        let outcome = handle_relay_request(
            &relay,
            &mut pool,
            &Request::Result {
                ticket: ok.ticket,
                timeout_ms: Some(1_000),
            },
        );
        let Response::Outcome(out) = &outcome else {
            panic!("edge ticket must resolve from the edge cache: {outcome:?}");
        };
        assert_eq!(out.outcome, "completed");
        let body = out.body.as_ref().expect("degraded answers carry a body");
        assert_eq!(body.fidelity.as_deref(), Some("hop"));
        assert_eq!(body.error_bound, Some(HOP_ERROR_BOUND));
        assert!(body.cycles > 0);

        // A second shedable submit is served from the degraded edge
        // entry without any backend traffic.
        let again = handle_relay_request(&relay, &mut pool, &Request::Submit(item));
        let Response::Submit(hit) = &again else {
            panic!("{again:?}");
        };
        assert_eq!(hit.disposition, "cached");
        assert!(hit.edge);

        // A full-fidelity submitter of the same spec must NOT be fed
        // the degraded entry: with the breaker open it fails fast with
        // no_backend rather than silently accepting a hop answer.
        let strict = handle_relay_request(
            &relay,
            &mut pool,
            &Request::Submit(SubmitItem::new(rspec)),
        );
        assert!(
            matches!(&strict, Response::Error(err) if err.code == ErrorCode::NoBackend),
            "a degraded edge entry must not satisfy a full-fidelity submit: {strict:?}"
        );
    }

    /// A job that runs for seconds, so it is still in flight whenever a
    /// test looks at it.
    fn slow_item(seed: u64) -> SubmitItem {
        SubmitItem::new(format!(
            "target=4x4 app=water mode=fixed:10 instructions=2000000 budget=10000000000 \
             seed={seed}"
        ))
    }

    #[test]
    fn every_verb_makes_the_retry_budget_plus_one_attempts() {
        let addr = reserved_addr();
        // A breaker that never trips, so every round reaches the socket.
        let never_trips = BreakerConfig {
            min_samples: usize::MAX,
            ..test_breaker()
        };
        let submits = [
            Request::Submit(SubmitItem::new(SPEC)),
            Request::SubmitBatch(vec![SubmitItem::new(SPEC)]),
        ];
        for request in submits {
            let relay = relay_direct(&[addr], never_trips.clone());
            let mut pool = BackendPool::new(&relay);
            let answer = match handle_relay_request(&relay, &mut pool, &request) {
                Response::Batch(mut answers) => answers.pop().expect("one item"),
                single => single,
            };
            assert!(
                matches!(&answer, Response::Error(err) if err.code == ErrorCode::NoBackend),
                "{answer:?}"
            );
            assert_eq!(relay.breaker_state(0), BreakerState::Closed);
            assert_eq!(
                relay.stats().retries,
                u64::from(relay.config.retry_budget),
                "retry_budget counts the attempts beyond the first: {request:?}"
            );
        }

        // A ticket verb on a job whose owner is unreachable spends the
        // same budget before giving up.
        let relay = relay_direct(&[addr], never_trips);
        let mut pool = BackendPool::new(&relay);
        let key = SPEC.parse::<JobSpec>().expect("spec parses").job_hash();
        let ticket = relay.register_ticket(key, SubmitItem::new(SPEC), Some(0), 7);
        let answer = handle_relay_request(&relay, &mut pool, &Request::Status { ticket });
        assert!(
            matches!(&answer, Response::Error(err) if err.code == ErrorCode::Unavailable),
            "{answer:?}"
        );
        assert_eq!(relay.stats().retries, u64::from(relay.config.retry_budget));
    }

    #[test]
    fn a_batch_and_its_singles_route_past_an_unreachable_owner_alike() {
        let dead = reserved_addr();
        let specs: Vec<String> = (0..8).map(|seed| format!("{SPEC} seed={seed}")).collect();
        let keys: Vec<JobKey> = specs
            .iter()
            .map(|spec| spec.parse::<JobSpec>().expect("spec parses").job_hash())
            .collect();

        // One submit_batch over a live node 0 and an unreachable node 1.
        let live = backend(1);
        let relay = relay_direct(&[live.addr(), dead], test_breaker());
        let owners: Vec<usize> = keys.iter().map(|&key| relay.ring.route(key)).collect();
        assert!(
            owners.contains(&0) && owners.contains(&1),
            "the specs must span both owners: {owners:?}"
        );
        let mut pool = BackendPool::new(&relay);
        let items = specs.iter().map(SubmitItem::new).collect();
        let batched = match handle_relay_request(&relay, &mut pool, &Request::SubmitBatch(items)) {
            Response::Batch(answers) => answers,
            other => panic!("{other:?}"),
        };
        assert_eq!(relay.breaker_state(1), BreakerState::Open);
        live.stop();

        // The same specs as single submits, against a fresh pair.
        let live = backend(1);
        let relay = relay_direct(&[live.addr(), dead], test_breaker());
        let mut pool = BackendPool::new(&relay);
        let singles: Vec<Response> = specs
            .iter()
            .map(|spec| {
                let request = Request::Submit(SubmitItem::new(spec));
                handle_relay_request(&relay, &mut pool, &request)
            })
            .collect();
        live.stop();

        assert_eq!(batched.len(), specs.len());
        for (index, (batch, single)) in batched.iter().zip(&singles).enumerate() {
            let (Response::Submit(batch), Response::Submit(single)) = (batch, single) else {
                panic!("item {index}: {batch:?} / {single:?}");
            };
            let job = keys[index].to_string();
            assert_eq!(batch.job, job, "answers come back in request order");
            assert_eq!(single.job, job);
            assert_eq!(batch.node, Some(0), "item {index} lands on the live node");
            assert_eq!(
                (batch.node, &batch.disposition),
                (single.node, &single.disposition),
                "item {index}"
            );
        }
    }

    #[test]
    fn relay_cancel_reaches_backend_tickets_and_answers_edge_tickets() {
        let live = backend(1);
        let relay = relay_direct(&[live.addr()], test_breaker());
        let mut pool = BackendPool::new(&relay);
        let mut call = |request: Request| handle_relay_request(&relay, &mut pool, &request);
        let mut submit = |item: SubmitItem| match call(Request::Submit(item)) {
            Response::Submit(ok) => ok,
            other => panic!("{other:?}"),
        };

        // A backend ticket: the job queued behind a slow one is cancelled
        // on its owner.
        let running = submit(slow_item(1));
        let queued = submit(slow_item(2));
        let done = submit(SubmitItem::new(SPEC));
        assert_eq!(
            call(Request::Cancel {
                ticket: queued.ticket
            }),
            Response::Cancel {
                cancel: "cancelled".into()
            }
        );
        let stopped = call(Request::Cancel {
            ticket: running.ticket,
        });
        assert!(matches!(stopped, Response::Cancel { .. }), "{stopped:?}");

        // An edge ticket: the result already sits at the edge, so there
        // is nothing left to cancel.
        let outcome = call(Request::Result {
            ticket: done.ticket,
            timeout_ms: Some(30_000),
        });
        assert!(matches!(&outcome, Response::Outcome(ok) if ok.outcome == "completed"));
        let Response::Submit(edge) = call(Request::Submit(SubmitItem::new(SPEC))) else {
            panic!("a repeat submit is answered");
        };
        assert!(edge.edge, "{edge:?}");
        assert_eq!(
            call(Request::Cancel {
                ticket: edge.ticket
            }),
            Response::Cancel {
                cancel: "already_done".into()
            }
        );
        live.stop();
    }

    #[test]
    fn result_batch_re_drives_lost_tickets_within_one_deadline() {
        let addr = reserved_addr();
        let relay = relay_direct(&[addr], test_breaker());
        let first = backend_at(addr);
        let tickets: Vec<u64> = {
            let mut pool = BackendPool::new(&relay);
            let request = Request::SubmitBatch(vec![slow_item(1), slow_item(2)]);
            let Response::Batch(answers) = handle_relay_request(&relay, &mut pool, &request) else {
                panic!("a batch answers with a batch");
            };
            let tickets = answers
                .iter()
                .map(|answer| match answer {
                    Response::Submit(ok) => ok.ticket,
                    other => panic!("{other:?}"),
                })
                .collect();
            // Stop the jobs on the first backend; its connection closes
            // with the pool.
            for &ticket in &tickets {
                let stopped = handle_relay_request(&relay, &mut pool, &Request::Cancel { ticket });
                assert!(matches!(stopped, Response::Cancel { .. }), "{stopped:?}");
            }
            tickets
        };
        first.stop();

        // A new backend at the same address never heard of the tickets:
        // both come back unknown_ticket, are re-submitted, and then wait
        // out whatever is left of the one deadline.
        let second = backend_at(addr);
        let mut pool = BackendPool::new(&relay);
        let timeout_ms = 300;
        let started = Instant::now();
        let request = Request::ResultBatch {
            tickets: tickets.clone(),
            timeout_ms: Some(timeout_ms),
        };
        let answers = handle_relay_request(&relay, &mut pool, &request);
        let elapsed = started.elapsed();
        let Response::Batch(answers) = answers else {
            panic!("{answers:?}");
        };
        for answer in &answers {
            assert!(
                matches!(answer, Response::Error(err) if err.code == ErrorCode::Timeout),
                "{answer:?}"
            );
        }
        assert!(
            elapsed < Duration::from_millis(2 * timeout_ms),
            "two re-driven tickets must share one deadline: {elapsed:?}"
        );
        assert_eq!(
            relay.stats().reroutes,
            2,
            "each lost ticket is re-homed once"
        );
        for ticket in tickets {
            handle_relay_request(&relay, &mut pool, &Request::Cancel { ticket });
        }
        second.stop();
    }

    #[test]
    fn aggregated_stats_are_flagged_degraded_when_a_backend_is_unreachable() {
        let live = backend(1);
        let dead_addr = reserved_addr();
        let relay = relay_direct(&[live.addr(), dead_addr], test_breaker());
        let mut pool = BackendPool::new(&relay);

        let stats = handle_relay_request(&relay, &mut pool, &Request::Stats);
        let Response::Report { json } = &stats else {
            panic!("{stats:?}");
        };
        let parsed = Json::parse(json).expect("stats json parses");
        assert_eq!(
            parsed.get("degraded_stats").and_then(Json::as_bool),
            Some(true),
            "partial sums must be flagged: {json}"
        );
        assert_eq!(parsed.get("nodes_reporting").and_then(Json::as_u64), Some(1));
        let unreachable = match parsed.get("nodes_unreachable") {
            Some(Json::Arr(rows)) => rows.clone(),
            other => panic!("nodes_unreachable must be an array, got {other:?}"),
        };
        assert_eq!(unreachable.len(), 1);
        assert_eq!(unreachable[0].as_u64(), Some(1));

        let nodes = handle_relay_request(&relay, &mut pool, &Request::NodeStats);
        let Response::Report { json } = &nodes else {
            panic!("{nodes:?}");
        };
        let parsed = Json::parse(json).expect("node_stats json parses");
        let rows = match parsed.get("nodes") {
            Some(Json::Arr(rows)) => rows.clone(),
            other => panic!("nodes must be an array, got {other:?}"),
        };
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].get("unreachable"), None, "live node reports");
        assert!(rows[0].get("breaker").and_then(Json::as_str).is_some());
        assert_eq!(
            rows[1].get("unreachable").and_then(Json::as_bool),
            Some(true),
            "dead node row must say so: {json}"
        );

        // A fully reachable cluster is never flagged.
        let live2 = backend(1);
        let relay_ok = relay_direct(&[live.addr(), live2.addr()], test_breaker());
        let mut pool_ok = BackendPool::new(&relay_ok);
        let stats = handle_relay_request(&relay_ok, &mut pool_ok, &Request::Stats);
        let Response::Report { json } = &stats else {
            panic!("{stats:?}");
        };
        let parsed = Json::parse(json).expect("stats json parses");
        assert_eq!(parsed.get("degraded_stats"), None, "{json}");
        assert_eq!(parsed.get("nodes_unreachable"), None, "{json}");
        live.stop();
        live2.stop();
    }

    #[test]
    fn relay_round_trips_submit_and_result() {
        let b0 = backend(1);
        let b1 = backend(1);
        let relay = relay_over(&[b0.addr(), b1.addr()]);
        let mut client = WireClient::connect(relay.addr()).unwrap();

        let submit = client.submit(SPEC, Some("high"), None).unwrap();
        assert_eq!(submit.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(
            submit.get("disposition").and_then(Json::as_str),
            Some("enqueued")
        );
        let ticket = submit.get("ticket").and_then(Json::as_u64).unwrap();
        let node = submit.get("node").and_then(Json::as_u64).unwrap();
        assert!(node < 2);

        let result = client.result(ticket, Some(30_000)).unwrap();
        assert_eq!(
            result.get("outcome").and_then(Json::as_str),
            Some("completed")
        );
        let cycles = result
            .get("result")
            .and_then(|r| r.get("cycles"))
            .and_then(Json::as_u64)
            .unwrap();
        assert!(cycles > 0);

        // Same spec again: the edge LRU answers without a backend hop.
        let again = client.submit(SPEC, None, None).unwrap();
        assert_eq!(
            again.get("disposition").and_then(Json::as_str),
            Some("cached")
        );
        assert_eq!(again.get("edge").and_then(Json::as_bool), Some(true));
        let ticket2 = again.get("ticket").and_then(Json::as_u64).unwrap();
        let cached = client.result(ticket2, Some(5_000)).unwrap();
        assert_eq!(
            cached
                .get("result")
                .and_then(|r| r.get("cycles"))
                .and_then(Json::as_u64),
            Some(cycles),
            "edge-cached result must be bit-identical"
        );
        assert!(relay.relay().stats().edge_hits >= 2);
        relay.stop();
        b0.stop();
        b1.stop();
    }

    #[test]
    fn relay_stats_aggregate_and_node_stats_break_down() {
        let b0 = backend(1);
        let b1 = backend(1);
        let relay = relay_over(&[b0.addr(), b1.addr()]);
        let mut client = WireClient::connect(relay.addr()).unwrap();
        let submit = client.submit(SPEC, None, None).unwrap();
        let ticket = submit.get("ticket").and_then(Json::as_u64).unwrap();
        client.result(ticket, Some(30_000)).unwrap();

        let stats = client.stats().unwrap();
        assert_eq!(stats.get("role").and_then(Json::as_str), Some("relay"));
        assert_eq!(stats.get("submitted").and_then(Json::as_u64), Some(1));
        assert_eq!(stats.get("completed").and_then(Json::as_u64), Some(1));
        assert_eq!(stats.get("nodes").and_then(Json::as_u64), Some(2));
        assert!(stats.get("relay_forwards").and_then(Json::as_u64).unwrap() >= 2);

        let nodes = client.node_stats().unwrap();
        let rows = match nodes.get("nodes") {
            Some(Json::Arr(rows)) => rows,
            other => panic!("nodes must be an array, got {other:?}"),
        };
        assert_eq!(rows.len(), 2);
        for row in rows {
            assert_eq!(row.get("state").and_then(Json::as_str), Some("up"));
        }
        relay.stop();
        b0.stop();
        b1.stop();
    }

    #[test]
    fn relay_stats_carry_every_summable_backend_counter() {
        // Regression: the relay kept its own list of counters to sum,
        // which had drifted from the backend's schema and silently
        // dropped the speculation counters.
        let b0 = backend(1);
        let relay = relay_over(&[b0.addr()]);
        let mut client = WireClient::connect(relay.addr()).unwrap();
        let pipelined = "target=4x4 app=water mode=reciprocal:quantum=300,pipeline=on \
                         instructions=200 budget=500000 seed=1";
        let submit = client.submit(pipelined, None, None).unwrap();
        let ticket = submit.get("ticket").and_then(Json::as_u64).unwrap();
        client.result(ticket, Some(30_000)).unwrap();

        let relayed = client.stats().unwrap();
        let direct = WireClient::connect(b0.addr()).unwrap().stats().unwrap();
        for name in ServiceStats::summed() {
            assert_eq!(
                relayed.get(name).and_then(Json::as_u64),
                direct.get(name).and_then(Json::as_u64),
                "one backend: the relay's `{name}` is the backend's"
            );
        }
        let decisions = ["spec_commits", "spec_rollbacks"]
            .iter()
            .filter_map(|name| relayed.get(name).and_then(Json::as_u64))
            .sum::<u64>();
        assert!(decisions > 0, "the pipelined run speculated: {relayed:?}");
        relay.stop();
        b0.stop();
    }

    #[test]
    fn killing_a_backend_fails_over_with_the_same_result() {
        let b0 = backend(1);
        let b1 = backend(1);
        let relay = relay_over(&[b0.addr(), b1.addr()]);
        let mut backends = [Some(b0), Some(b1)];
        let mut client = WireClient::connect(relay.addr()).unwrap();

        // Pin down which node owns the spec, then kill exactly that one.
        let submit = client.submit(SPEC, None, None).unwrap();
        let ticket = submit.get("ticket").and_then(Json::as_u64).unwrap();
        let owner = submit.get("node").and_then(Json::as_u64).unwrap() as usize;
        let baseline = client.result(ticket, Some(30_000)).unwrap();
        let cycles = baseline
            .get("result")
            .and_then(|r| r.get("cycles"))
            .and_then(Json::as_u64)
            .unwrap();

        // Kill the owner; the cluster must keep serving the same spec
        // with a bit-identical result (edge LRU or survivor memo).
        backends[owner].take().unwrap().stop();
        // Probe loop: fail_threshold=2 at 50ms interval -> Down well
        // within a second.
        let relay_state = relay.relay();
        let deadline = Instant::now() + Duration::from_secs(5);
        while relay_state.node_state(owner).routes() {
            assert!(
                Instant::now() < deadline,
                "probe loop never marked the dead node Down"
            );
            std::thread::sleep(Duration::from_millis(20));
        }

        let again = client.submit(SPEC, None, None).unwrap();
        assert_eq!(again.get("ok").and_then(Json::as_bool), Some(true));
        let ticket2 = again.get("ticket").and_then(Json::as_u64).unwrap();
        let failed_over = client.result(ticket2, Some(30_000)).unwrap();
        assert_eq!(
            failed_over
                .get("result")
                .and_then(|r| r.get("cycles"))
                .and_then(Json::as_u64),
            Some(cycles),
            "post-failover result must be bit-identical"
        );
        relay.stop();
        for handle in backends.into_iter().flatten() {
            handle.stop();
        }
    }

    #[test]
    fn in_flight_jobs_survive_a_backend_death() {
        // Probing every 25 ms, the relay marks a dead node Down within
        // about 50 ms; the job takes a release build about 700 ms, so it
        // is still in flight when that happens.
        let slow_spec =
            "target=4x4 app=water mode=fixed:10 instructions=400000 budget=1000000000";
        let b0 = backend(2);
        let b1 = backend(2);
        let relay = relay_probing(&[b0.addr(), b1.addr()], Duration::from_millis(25));
        let mut backends = [Some(b0), Some(b1)];
        let mut client = WireClient::connect(relay.addr()).unwrap();
        let submit = client.submit(slow_spec, None, None).unwrap();
        assert_eq!(submit.get("ok").and_then(Json::as_bool), Some(true));
        let ticket = submit.get("ticket").and_then(Json::as_u64).unwrap();
        let owner = submit.get("node").and_then(Json::as_u64).unwrap() as usize;

        // Kill the owner while the job is in flight.
        backends[owner].take().unwrap().stop();
        let result = client.result(ticket, Some(60_000)).unwrap();
        assert_eq!(
            result.get("outcome").and_then(Json::as_str),
            Some("completed"),
            "failover must re-drive the in-flight job: {result:?}"
        );
        let stats = relay.relay().stats();
        assert!(
            stats.reroutes >= 1,
            "the handoff must be accounted as a reroute: {stats:?}"
        );
        relay.stop();
        for handle in backends.into_iter().flatten() {
            handle.stop();
        }
    }

    #[test]
    fn bad_specs_are_rejected_at_the_edge() {
        let b0 = backend(1);
        let relay = relay_over(&[b0.addr()]);
        let mut client = WireClient::connect(relay.addr()).unwrap();
        let response = client
            .call(r#"{"verb":"submit","spec":"target=4x4 app=water mode=warp"}"#)
            .unwrap();
        assert_eq!(response.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(
            response.get("error").and_then(Json::as_str),
            Some("bad_spec")
        );
        assert_eq!(response.get("verb").and_then(Json::as_str), Some("submit"));
        // No forwards spent on it.
        assert_eq!(relay.relay().stats().submitted, 0);
        relay.stop();
        b0.stop();
    }

    #[test]
    fn batch_verbs_fan_out_across_the_ring() {
        for binary in [false, true] {
            let b0 = backend(2);
            let b1 = backend(2);
            let relay = relay_over(&[b0.addr(), b1.addr()]);
            let mut client = WireClient::connect(relay.addr())
                .unwrap()
                .with_binary(binary);

            // Distinct seeds spread the items across both ring owners;
            // one bad spec must fail per-item, not kill the batch.
            let mut items: Vec<SubmitItem> = (0..6)
                .map(|seed| SubmitItem::new(format!("{SPEC} seed={seed}")))
                .collect();
            items.push(SubmitItem::new("not a spec"));
            let responses = client.submit_batch(items).unwrap();
            assert_eq!(responses.len(), 7, "binary={binary}");
            let mut tickets = Vec::new();
            for response in &responses[..6] {
                let Response::Submit(ok) = response else {
                    panic!("binary={binary}: {response:?}");
                };
                tickets.push(ok.ticket);
                assert!(ok.node.is_some(), "relay submits carry the node");
            }
            assert!(
                matches!(&responses[6], Response::Error(err) if err.code == ErrorCode::BadSpec),
                "binary={binary}: {:?}",
                responses[6]
            );

            let outcomes = client.result_batch(tickets.clone(), Some(60_000)).unwrap();
            assert_eq!(outcomes.len(), 6, "binary={binary}");
            for outcome in &outcomes {
                let Response::Outcome(ok) = outcome else {
                    panic!("binary={binary}: {outcome:?}");
                };
                assert_eq!(ok.outcome, "completed", "binary={binary}");
            }

            // Collected tickets are spent; status_batch says so item
            // by item.
            let states = client.status_batch(tickets).unwrap();
            for state in &states {
                assert!(
                    matches!(state, Response::Error(err) if err.code == ErrorCode::UnknownTicket),
                    "binary={binary}: {state:?}"
                );
            }
            relay.stop();
            b0.stop();
            b1.stop();
        }
    }

    #[test]
    fn a_json_client_through_a_binary_forwarding_relay_matches_the_direct_path() {
        // The mixed path: JSON client -> relay -> (binary) backend must
        // produce a result body byte-identical to a JSON client talking
        // to a backend directly.
        let direct_backend = backend(1);
        let mut direct = WireClient::connect(direct_backend.addr()).unwrap();
        let submit = direct.submit(SPEC, None, None).unwrap();
        let ticket = submit.get("ticket").and_then(Json::as_u64).unwrap();
        let direct_line = direct
            .call_raw(&format!(
                r#"{{"verb":"result","ticket":{ticket},"timeout_ms":30000}}"#
            ))
            .unwrap();
        direct_backend.stop();

        let b0 = backend(1);
        let relay = relay_over(&[b0.addr()]);
        let mut client = WireClient::connect(relay.addr()).unwrap();
        let submit = client.submit(SPEC, None, None).unwrap();
        let ticket = submit.get("ticket").and_then(Json::as_u64).unwrap();
        let relayed_line = client
            .call_raw(&format!(
                r#"{{"verb":"result","ticket":{ticket},"timeout_ms":30000}}"#
            ))
            .unwrap();

        // Compare the deterministic payload: the result body (timings
        // differ run to run, so strip them by extracting the body).
        let body = |line: &str| {
            let json = Json::parse(line).unwrap();
            assert_eq!(
                json.get("outcome").and_then(Json::as_str),
                Some("completed"),
                "{line}"
            );
            let start = line.find(r#""result":{"#).expect("result body present");
            line[start..].to_owned()
        };
        assert_eq!(body(&direct_line), body(&relayed_line));
        relay.stop();
        b0.stop();
    }
}
