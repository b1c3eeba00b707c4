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
//! * the batch verbs fan out as batches: `submit_batch` partitions its
//!   items by ring owner and forwards one sub-batch per owner,
//!   `status_batch`/`result_batch` group tickets by owning backend —
//!   one round-trip per backend instead of one per item, with a
//!   per-item retrying fallback when a sub-batch forward dies;
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
//! * every forward carries a deadline (connect + read timeouts) and a
//!   bounded, seeded-jitter retry budget — the same exponential policy
//!   the scheduler uses for transient job faults;
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

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ra_bench::{json_object, JsonField};
use ra_cosim::ModeSpec;
use ra_obs::{Event, ObsSink};

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
        *self.stats.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Health state of one backend slot.
    pub fn node_state(&self, node: usize) -> NodeState {
        self.nodes[node]
            .health
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .state()
    }

    /// Circuit-breaker state of one backend slot.
    pub fn breaker_state(&self, node: usize) -> BreakerState {
        self.nodes[node]
            .breaker
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .state()
    }

    /// Total breaker trips across every backend slot.
    pub fn breaker_trips(&self) -> u64 {
        self.nodes
            .iter()
            .map(|n| n.breaker.lock().unwrap_or_else(|e| e.into_inner()).trips())
            .sum()
    }

    /// Nanoseconds since relay construction (breaker clock).
    fn now_ns(&self) -> u64 {
        self.started.elapsed().as_nanos() as u64
    }

    fn emit_breaker_transition(&self, node: usize, from: BreakerState, to: BreakerState) {
        self.obs.emit(|| Event::BreakerTransition {
            node: node as u64,
            from: from.name().into(),
            to: to.name().into(),
        });
        // Breaker flips gate routing; a live tail must see them promptly.
        let _ = self.obs.flush();
    }

    /// Asks `node`'s breaker whether a forward may go out now; an open
    /// breaker whose cooldown elapsed flips to half-open here.
    fn breaker_admits(&self, node: usize) -> bool {
        let now = self.now_ns();
        let (allowed, from, to) = {
            let mut breaker = self.nodes[node]
                .breaker
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            let from = breaker.state();
            let allowed = breaker.allow(now);
            (allowed, from, breaker.state())
        };
        if from != to {
            self.emit_breaker_transition(node, from, to);
        }
        allowed
    }

    /// Feeds one forward outcome into `node`'s breaker.
    fn breaker_report(&self, node: usize, outcome: Result<Duration, ()>) {
        let now = self.now_ns();
        let (from, to) = {
            let mut breaker = self.nodes[node]
                .breaker
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            let from = breaker.state();
            match outcome {
                Ok(rtt) => breaker.on_success(now, rtt),
                Err(()) => breaker.on_failure(now),
            }
            (from, breaker.state())
        };
        if from != to {
            self.emit_breaker_transition(node, from, to);
        }
    }

    /// Whether the routing mask may steer traffic at `node`'s breaker
    /// (non-consuming; the forward itself still asks `allow`).
    fn breaker_would_route(&self, node: usize) -> bool {
        self.nodes[node]
            .breaker
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .would_allow(self.now_ns())
    }

    fn bump<F: FnOnce(&mut RelayStats)>(&self, f: F) {
        f(&mut self.stats.lock().unwrap_or_else(|e| e.into_inner()));
    }

    /// Per-node liveness mask for the ring.
    fn alive_mask(&self) -> Vec<bool> {
        self.nodes
            .iter()
            .map(|n| {
                n.health
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .state()
                    .routes()
            })
            .collect()
    }

    /// Liveness mask further restricted to breakers willing to route:
    /// the submit path steers around probe-alive nodes whose request
    /// stream is tripping.
    fn routable_mask(&self) -> Vec<bool> {
        self.alive_mask()
            .into_iter()
            .enumerate()
            .map(|(node, alive)| alive && self.breaker_would_route(node))
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
        self.tickets
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(
                ticket,
                TicketEntry {
                    key,
                    item,
                    backend,
                    remote_ticket,
                    generation: 0,
                },
            );
        ticket
    }

    /// Feeds one probe (or forward) outcome into a node's machine and
    /// reacts to transitions: obs events, and failover on `WentDown`.
    fn record_probe(&self, node: usize, outcome: Result<Duration, ()>) {
        let transition = {
            let mut machine = self.nodes[node]
                .health
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            match outcome {
                Ok(rtt) => machine.on_success(rtt),
                Err(()) => machine.on_failure(),
            }
        };
        match transition {
            Some(Transition::CameUp) => {
                let rtt_ns = self.nodes[node]
                    .health
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .last_rtt_ns();
                self.obs.emit(|| Event::NodeUp {
                    node: node as u64,
                    rtt_ns,
                });
                // Membership changes must be visible to a live tail
                // (CI greps the trace mid-run), not sit buffered.
                let _ = self.obs.flush();
            }
            Some(Transition::WentDown) => {
                let failures = u64::from(
                    self.nodes[node]
                        .health
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .failures(),
                );
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
    /// live owner. Grouped into one batched re-submit per survivor;
    /// exactly-once because the survivor's memo store and coalescing
    /// dedup any racing client-path retry by `JobKey`.
    fn fail_over(&self, dead: usize) {
        let alive = self.alive_mask();
        let moved: Vec<(u64, TicketEntry)> = {
            let tickets = self.tickets.lock().unwrap_or_else(|e| e.into_inner());
            tickets
                .iter()
                .filter(|(_, e)| e.backend == Some(dead))
                .map(|(&t, e)| (t, e.clone()))
                .collect()
        };
        // Partition the orphans by their new ring owner so each
        // survivor gets one batched re-submit instead of N round-trips.
        let mut by_target: HashMap<usize, Vec<&(u64, TicketEntry)>> = HashMap::new();
        for pair in &moved {
            if let Some(target) = self.ring.route_live(pair.1.key, &alive) {
                by_target.entry(target).or_default().push(pair);
            }
            // Nothing alive: the client path will surface it.
        }
        let mut handed_off = 0u64;
        let mut targets: Vec<usize> = by_target.keys().copied().collect();
        targets.sort_unstable();
        for target in targets {
            let group = &by_target[&target];
            let items: Vec<SubmitItem> = group
                .iter()
                .map(|(_, entry)| entry.item.clone())
                .collect();
            let Ok(responses) = self.resubmit_batch(target, items) else {
                // Survivor unreachable too; its own probes will demote
                // it. The client path keeps retrying meanwhile.
                continue;
            };
            for ((ticket, entry), response) in group.iter().zip(responses) {
                let Response::Submit(ok) = response else {
                    continue; // refused (queue full); the client retries
                };
                let mut tickets = self.tickets.lock().unwrap_or_else(|e| e.into_inner());
                if let Some(live) = tickets.get_mut(ticket) {
                    // Only move it if a client thread has not already
                    // re-driven it elsewhere.
                    if live.backend == Some(dead) {
                        live.backend = Some(target);
                        live.remote_ticket = ok.ticket;
                        live.generation += 1;
                        handed_off += 1;
                        let job = entry.key.0;
                        self.obs.emit(|| Event::Reroute {
                            job,
                            from: dead as u64,
                            to: target as u64,
                        });
                    }
                }
            }
        }
        self.bump(|s| s.reroutes += handed_off);
        self.obs.emit(|| Event::Failover {
            node: dead as u64,
            inflight: handed_off,
        });
        let _ = self.obs.flush();
    }

    /// Submits an entry's spec to `target` over a fresh short-lived
    /// connection, returning the backend's ticket.
    fn resubmit(&self, target: usize, entry: &TicketEntry) -> io::Result<u64> {
        let items = vec![entry.item.clone()];
        match self.resubmit_batch(target, items)?.pop() {
            Some(Response::Submit(ok)) => Ok(ok.ticket),
            _ => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "resubmit response carried no ticket",
            )),
        }
    }

    /// One batched re-submit to `target` over a fresh short-lived
    /// binary connection; one response per item, in order.
    fn resubmit_batch(
        &self,
        target: usize,
        items: Vec<SubmitItem>,
    ) -> io::Result<Vec<Response>> {
        let mut client = WireClient::connect_timeout(
            &self.nodes[target].addr,
            self.config.forward_deadline,
        )?
        .with_binary(true);
        client.set_read_timeout(Some(self.config.forward_deadline))?;
        let responses = client.submit_batch(items)?;
        self.bump(|s| s.forwards += 1);
        Ok(responses)
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

/// The local refusal a forward returns when `node`'s breaker is open.
/// No socket was touched, so callers must not feed it to the health
/// machine (see [`is_breaker_open`]).
fn breaker_open_error() -> io::Error {
    io::Error::new(io::ErrorKind::WouldBlock, "circuit breaker open")
}

/// Whether a forward error is the breaker's local refusal rather than
/// a transport failure.
fn is_breaker_open(err: &io::Error) -> bool {
    err.kind() == io::ErrorKind::WouldBlock
}

/// Forwards one typed request to `node`, with the read deadline
/// stretched to `read_deadline` (long-poll `result` calls must outlive
/// the job they wait for). Invalidates the pooled connection on error.
///
/// Every forward first asks the node's circuit breaker and reports its
/// outcome back with the measured round-trip, so the breaker sees the
/// real request stream (slow successes included) — an open breaker
/// refuses locally with [`breaker_open_error`].
fn forward(
    relay: &Relay,
    pool: &mut BackendPool,
    node: usize,
    request: &Request,
    read_deadline: Duration,
) -> io::Result<Response> {
    if !relay.breaker_admits(node) {
        return Err(breaker_open_error());
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
            Ok(response)
        }
        Err(err) => {
            relay.breaker_report(node, Err(()));
            // A desynchronized connection (timed-out long poll) cannot
            // be reused: a stale response would answer the wrong call.
            pool.invalidate(node);
            Err(err)
        }
    }
}

/// How long a `result` forward may block: the client's requested wait
/// plus one forward deadline of slack for transport. An unbounded
/// client wait is capped — the relay never parks a thread forever on
/// one backend read.
fn result_read_deadline(relay: &Relay, timeout_ms: Option<u64>) -> (u64, Duration) {
    let wait_ms = timeout_ms.unwrap_or(600_000);
    let deadline = Duration::from_millis(wait_ms) + relay.config.forward_deadline;
    (wait_ms, deadline)
}

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

/// Dispatches one typed relay request — the relay's counterpart of
/// [`crate::wire::dispatch`]. Pure with respect to listener I/O (the
/// pool does backend I/O), so tests drive it without sockets on the
/// front side.
pub fn handle_relay_request(
    relay: &Relay,
    pool: &mut BackendPool,
    request: &Request,
) -> Response {
    match request {
        Request::Submit(item) => relay_submit(relay, pool, item, "submit"),
        Request::SubmitBatch(items) => relay_submit_batch(relay, pool, items),
        Request::Status { ticket } => {
            relay_forward_ticket(relay, pool, *ticket, &TicketAction::Status, "status")
        }
        Request::StatusBatch { tickets } => {
            relay_ticket_batch(relay, pool, tickets, &TicketAction::Status, "status_batch")
        }
        Request::Result { ticket, timeout_ms } => relay_forward_ticket(
            relay,
            pool,
            *ticket,
            &TicketAction::Result {
                timeout_ms: *timeout_ms,
            },
            "result",
        ),
        Request::ResultBatch {
            tickets,
            timeout_ms,
        } => relay_ticket_batch(
            relay,
            pool,
            tickets,
            &TicketAction::Result {
                timeout_ms: *timeout_ms,
            },
            "result_batch",
        ),
        Request::Cancel { ticket } => {
            relay_forward_ticket(relay, pool, *ticket, &TicketAction::Cancel, "cancel")
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

/// The edge's half of a submit: canonicalize, count, and answer from
/// the edge LRU when possible — shared by `submit` and the first pass
/// of `submit_batch`.
enum Prepared {
    /// Decided without a backend hop (bad spec or edge hit).
    Answered(Response),
    /// Needs a ring hop: the canonical spec and its routing key.
    Route { key: JobKey, canonical: String },
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
    let canonical = spec.canonical();
    relay.bump(|s| s.submitted += 1);

    // Edge hit: answer without a backend hop, even mid-failover. A
    // degraded (brownout) entry only answers submitters that accept
    // degraded results themselves.
    let edge_hit = {
        let edge = relay.edge.lock().unwrap_or_else(|e| e.into_inner());
        edge.hit(key, item_accepts_hop(item))
    };
    if edge_hit {
        relay.bump(|s| s.edge_hits += 1);
        let canonical_item = SubmitItem {
            spec: canonical,
            ..item.clone()
        };
        let ticket = relay.register_ticket(key, canonical_item, None, 0);
        return Prepared::Answered(Response::Submit(SubmitOk {
            ticket,
            job: key.to_string(),
            disposition: "cached".into(),
            depth: 0,
            node: None,
            edge: true,
        }));
    }
    Prepared::Route { key, canonical }
}

/// Whether a submit item's degradation contract admits a hop-fidelity
/// answer: it opted in, and its floor (if any) is the hop rung.
fn item_accepts_hop(item: &SubmitItem) -> bool {
    item.allow_degraded
        && !matches!(item.min_fidelity.as_deref(), Some(floor) if floor != Fidelity::Hop.name())
}

fn relay_submit(
    relay: &Relay,
    pool: &mut BackendPool,
    item: &SubmitItem,
    verb: &str,
) -> Response {
    match prepare_submit(relay, item, verb) {
        Prepared::Answered(response) => response,
        Prepared::Route { key, canonical } => {
            submit_via_ring(relay, pool, key, &canonical, item, verb)
        }
    }
}

/// Forwards one submit to the ring owner, with bounded jittered retries
/// walking past nodes that fail mid-forward or whose breaker refuses.
/// When every owner is down, saturated, or breaker-open, a shedable
/// item is answered at the edge via [`edge_brownout`] instead of
/// failing with `no_backend`.
fn submit_via_ring(
    relay: &Relay,
    pool: &mut BackendPool,
    key: JobKey,
    canonical: &str,
    item: &SubmitItem,
    verb: &str,
) -> Response {
    let canonical_item = SubmitItem {
        spec: canonical.to_owned(),
        ..item.clone()
    };
    let forward_request = Request::Submit(canonical_item.clone());
    let mut jitter = Jitter::new(relay.config.seed ^ key.0);
    let attempts = relay.config.retry_budget.max(1);
    for attempt in 1..=attempts {
        let routable = relay.routable_mask();
        let Some(node) = relay.ring.route_live(key, &routable) else {
            return edge_brownout(relay, key, &canonical_item)
                .unwrap_or_else(|| no_backend(verb));
        };
        match forward(
            relay,
            pool,
            node,
            &forward_request,
            relay.config.forward_deadline,
        ) {
            Ok(Response::Submit(ok)) => {
                let ticket =
                    relay.register_ticket(key, canonical_item, Some(node), ok.ticket);
                return Response::Submit(SubmitOk {
                    ticket,
                    job: key.to_string(),
                    disposition: ok.disposition,
                    depth: ok.depth,
                    node: Some(node as u64),
                    edge: false,
                });
            }
            // A saturated owner refused: answer shedable work degraded
            // at the edge rather than bouncing it back to the client.
            Ok(Response::Error(err)) if err.code == ErrorCode::QueueFull => {
                return edge_brownout(relay, key, &canonical_item)
                    .unwrap_or(Response::Error(err));
            }
            // Other refusals (bad spec, shutting down): the client owns
            // that policy.
            Ok(other) => return other,
            Err(err) => {
                if !is_breaker_open(&err) {
                    relay.record_probe(node, Err(()));
                }
                backoff_sleep(relay, &mut jitter, attempt, attempts);
            }
        }
    }
    edge_brownout(relay, key, &canonical_item).unwrap_or_else(|| no_backend(verb))
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
    {
        let mut edge = relay.edge.lock().unwrap_or_else(|e| e.into_inner());
        edge.insert(key, response, true);
    }
    let ticket = relay.register_ticket(key, item.clone(), None, 0);
    relay.bump(|s| s.edge_brownouts += 1);
    relay.obs.emit(|| Event::EdgeBrownout { job: key.0 });
    let _ = relay.obs.flush();
    Some(Response::Submit(SubmitOk {
        ticket,
        job: key.to_string(),
        disposition: "degraded".into(),
        depth: 0,
        node: None,
        edge: true,
    }))
}

/// `submit_batch` at the relay: answer bad specs and edge hits locally,
/// partition the rest by ring owner, and forward one sub-batch per
/// owner. A sub-batch that dies in transit falls back to the retrying
/// single-submit path per item, so one slow owner cannot fail the
/// whole batch.
fn relay_submit_batch(
    relay: &Relay,
    pool: &mut BackendPool,
    items: &[SubmitItem],
) -> Response {
    relay.obs.emit(|| Event::WireBatch {
        verb: "submit_batch".into(),
        items: items.len() as u64,
    });
    let mut responses: Vec<Option<Response>> = vec![None; items.len()];
    let mut routes: Vec<Option<(JobKey, String)>> = vec![None; items.len()];
    let mut by_owner: HashMap<usize, Vec<usize>> = HashMap::new();
    let routable = relay.routable_mask();
    for (index, item) in items.iter().enumerate() {
        match prepare_submit(relay, item, "submit_batch") {
            Prepared::Answered(response) => responses[index] = Some(response),
            Prepared::Route { key, canonical } => {
                match relay.ring.route_live(key, &routable) {
                    Some(owner) => {
                        by_owner.entry(owner).or_default().push(index);
                        routes[index] = Some((key, canonical));
                    }
                    None => {
                        let canonical_item = SubmitItem {
                            spec: canonical,
                            ..item.clone()
                        };
                        responses[index] = Some(
                            edge_brownout(relay, key, &canonical_item)
                                .unwrap_or_else(|| no_backend("submit_batch")),
                        );
                    }
                }
            }
        }
    }
    let mut owners: Vec<usize> = by_owner.keys().copied().collect();
    owners.sort_unstable();
    for owner in owners {
        let indices = &by_owner[&owner];
        let sub_batch = Request::SubmitBatch(
            indices
                .iter()
                .map(|&index| {
                    let (_, canonical) = routes[index].as_ref().expect("routed item");
                    SubmitItem {
                        spec: canonical.clone(),
                        ..items[index].clone()
                    }
                })
                .collect(),
        );
        let sub_responses = match forward(
            relay,
            pool,
            owner,
            &sub_batch,
            relay.config.forward_deadline,
        ) {
            Ok(Response::Batch(sub)) if sub.len() == indices.len() => Some(sub),
            Ok(_) => None,
            Err(err) => {
                if !is_breaker_open(&err) {
                    relay.record_probe(owner, Err(()));
                }
                None
            }
        };
        match sub_responses {
            Some(sub) => {
                for (&index, sub_response) in indices.iter().zip(sub) {
                    let (key, canonical) = routes[index].clone().expect("routed item");
                    responses[index] = Some(match sub_response {
                        Response::Submit(ok) => {
                            let canonical_item = SubmitItem {
                                spec: canonical,
                                ..items[index].clone()
                            };
                            let ticket = relay.register_ticket(
                                key,
                                canonical_item,
                                Some(owner),
                                ok.ticket,
                            );
                            Response::Submit(SubmitOk {
                                ticket,
                                job: key.to_string(),
                                disposition: ok.disposition,
                                depth: ok.depth,
                                node: Some(owner as u64),
                                edge: false,
                            })
                        }
                        other => other,
                    });
                }
            }
            None => {
                // The whole sub-batch failed in transit: re-drive each
                // item through the retrying single-submit path, which
                // walks the ring past the failed owner.
                for &index in indices {
                    let (key, canonical) = routes[index].clone().expect("routed item");
                    responses[index] = Some(submit_via_ring(
                        relay,
                        pool,
                        key,
                        &canonical,
                        &items[index],
                        "submit_batch",
                    ));
                }
            }
        }
    }
    Response::Batch(
        responses
            .into_iter()
            .map(|response| response.expect("every batch item answered"))
            .collect(),
    )
}

/// `status_batch` / `result_batch` at the relay: group the tickets by
/// their live owning backend and forward one sub-batch per backend.
/// Edge tickets, unknown tickets, dead owners, lost tickets, and
/// failed sub-batches all take the single-ticket path, which answers
/// locally or re-drives on the ring.
fn relay_ticket_batch(
    relay: &Relay,
    pool: &mut BackendPool,
    tickets: &[u64],
    action: &TicketAction,
    verb: &str,
) -> Response {
    relay.obs.emit(|| Event::WireBatch {
        verb: verb.to_owned(),
        items: tickets.len() as u64,
    });
    let mut responses: Vec<Option<Response>> = vec![None; tickets.len()];
    // node -> (item index, relay ticket, backend ticket)
    let mut by_backend: HashMap<usize, Vec<(usize, u64, u64)>> = HashMap::new();
    for (index, &ticket) in tickets.iter().enumerate() {
        let entry = {
            let map = relay.tickets.lock().unwrap_or_else(|e| e.into_inner());
            map.get(&ticket).cloned()
        };
        match entry {
            None => responses[index] = Some(unknown_ticket(verb)),
            Some(entry) => match entry.backend {
                Some(node) if relay.node_state(node).routes() => {
                    by_backend
                        .entry(node)
                        .or_default()
                        .push((index, ticket, entry.remote_ticket));
                }
                _ => {
                    responses[index] =
                        Some(relay_forward_ticket(relay, pool, ticket, action, verb));
                }
            },
        }
    }
    let mut backends: Vec<usize> = by_backend.keys().copied().collect();
    backends.sort_unstable();
    for node in backends {
        let group = &by_backend[&node];
        let remote: Vec<u64> = group.iter().map(|&(_, _, remote)| remote).collect();
        let (sub_batch, deadline) = match action {
            TicketAction::Status => (
                Request::StatusBatch { tickets: remote },
                relay.config.forward_deadline,
            ),
            TicketAction::Result { timeout_ms } => {
                // One whole-batch deadline, exactly the backend's own
                // result_batch semantics.
                let (wait_ms, deadline) = result_read_deadline(relay, *timeout_ms);
                (
                    Request::ResultBatch {
                        tickets: remote,
                        timeout_ms: Some(wait_ms),
                    },
                    deadline,
                )
            }
            TicketAction::Cancel => {
                // No cancel_batch verb exists; answer item by item.
                for &(index, ticket, _) in group {
                    responses[index] =
                        Some(relay_forward_ticket(relay, pool, ticket, action, verb));
                }
                continue;
            }
        };
        let outcome = forward(relay, pool, node, &sub_batch, deadline);
        match outcome {
            Ok(Response::Batch(sub)) if sub.len() == group.len() => {
                for (&(index, ticket, _), item_response) in group.iter().zip(sub) {
                    if is_lost_ticket(&item_response) {
                        // The backend restarted; re-drive this one.
                        responses[index] =
                            Some(relay_forward_ticket(relay, pool, ticket, action, verb));
                        continue;
                    }
                    if matches!(action, TicketAction::Result { .. }) {
                        let entry = {
                            let map =
                                relay.tickets.lock().unwrap_or_else(|e| e.into_inner());
                            map.get(&ticket).cloned()
                        };
                        if let Some(entry) = entry {
                            cache_terminal_result(relay, &entry, ticket, &item_response);
                        }
                    }
                    responses[index] = Some(item_response);
                }
            }
            other => {
                if let Err(err) = &other {
                    if !is_breaker_open(err) {
                        relay.record_probe(node, Err(()));
                    }
                }
                for &(index, ticket, _) in group {
                    responses[index] =
                        Some(relay_forward_ticket(relay, pool, ticket, action, verb));
                }
            }
        }
    }
    Response::Batch(
        responses
            .into_iter()
            .map(|response| response.expect("every batch item answered"))
            .collect(),
    )
}

/// status / result / cancel for one ticket: look the relay ticket up,
/// forward to the owning backend, and on transport failure or a
/// backend restart re-drive the job on the ring's live owner (the
/// failover path).
fn relay_forward_ticket(
    relay: &Relay,
    pool: &mut BackendPool,
    ticket: u64,
    action: &TicketAction,
    verb: &str,
) -> Response {
    let entry = {
        let tickets = relay.tickets.lock().unwrap_or_else(|e| e.into_inner());
        tickets.get(&ticket).cloned()
    };
    let Some(mut entry) = entry else {
        return unknown_ticket(verb);
    };

    // Edge tickets: the result is (or was) in the edge LRU.
    if entry.backend.is_none() {
        match action {
            TicketAction::Status => {
                return Response::Status {
                    state: "done".into(),
                }
            }
            TicketAction::Cancel => {
                return Response::Cancel {
                    cancel: "already_done".into(),
                }
            }
            TicketAction::Result { .. } => {
                let cached = {
                    let mut edge = relay.edge.lock().unwrap_or_else(|e| e.into_inner());
                    edge.get(entry.key)
                };
                if let Some(response) = cached {
                    relay.bump(|s| s.edge_hits += 1);
                    relay
                        .tickets
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .remove(&ticket);
                    return response;
                }
                // Evicted between submit and result: fall through to a
                // re-drive on the owning ring node.
            }
        }
    }

    let timeout_ms = match action {
        TicketAction::Result { timeout_ms } => *timeout_ms,
        _ => None,
    };
    let (wait_ms, read_deadline) = result_read_deadline(relay, timeout_ms);
    let attempts = relay.config.retry_budget.max(1) + 1;
    let mut jitter = Jitter::new(relay.config.seed ^ entry.key.0 ^ ticket);
    for attempt in 1..=attempts {
        // Ensure the job is owned by a live backend, re-submitting it
        // if its owner died or restarted (exactly-once: the survivor
        // memo dedups by JobKey whether this thread or the prober wins).
        let node = match entry.backend {
            Some(node) if relay.node_state(node).routes() => node,
            _ => {
                let alive = relay.alive_mask();
                let Some(target) = relay.ring.route_live(entry.key, &alive) else {
                    return no_backend(verb);
                };
                match relay.resubmit(target, &entry) {
                    Ok(remote_ticket) => {
                        relay.bump(|s| s.reroutes += 1);
                        let from = entry.backend.map_or(u64::MAX, |n| n as u64);
                        let job = entry.key.0;
                        relay.obs.emit(|| Event::Reroute {
                            job,
                            from,
                            to: target as u64,
                        });
                        entry.backend = Some(target);
                        entry.remote_ticket = remote_ticket;
                        entry.generation += 1;
                        let mut tickets =
                            relay.tickets.lock().unwrap_or_else(|e| e.into_inner());
                        if let Some(live) = tickets.get_mut(&ticket) {
                            *live = entry.clone();
                        }
                        target
                    }
                    Err(_) => {
                        relay.record_probe(target, Err(()));
                        backoff_sleep(relay, &mut jitter, attempt, attempts);
                        continue;
                    }
                }
            }
        };
        let forward_request = match action {
            TicketAction::Result { .. } => Request::Result {
                ticket: entry.remote_ticket,
                timeout_ms: Some(wait_ms),
            },
            TicketAction::Status => Request::Status {
                ticket: entry.remote_ticket,
            },
            TicketAction::Cancel => Request::Cancel {
                ticket: entry.remote_ticket,
            },
        };
        let deadline = if matches!(action, TicketAction::Result { .. }) {
            read_deadline
        } else {
            relay.config.forward_deadline
        };
        match forward(relay, pool, node, &forward_request, deadline) {
            Ok(response) => {
                if is_lost_ticket(&response) {
                    // The backend restarted and lost its tickets; the
                    // journal replay may still be re-running the job.
                    // Re-submit (memo/coalescing dedups) and retry.
                    entry.backend = None;
                    backoff_sleep(relay, &mut jitter, attempt, attempts);
                    continue;
                }
                if matches!(action, TicketAction::Result { .. }) {
                    cache_terminal_result(relay, &entry, ticket, &response);
                }
                return response;
            }
            Err(err) => {
                if !is_breaker_open(&err) {
                    relay.record_probe(node, Err(()));
                }
                // The prober may have moved the job already; pick up
                // its new home before re-driving it ourselves.
                let latest = {
                    let tickets = relay.tickets.lock().unwrap_or_else(|e| e.into_inner());
                    tickets.get(&ticket).cloned()
                };
                match latest {
                    Some(live) if live.generation > entry.generation => entry = live,
                    Some(live) => {
                        entry = live;
                        entry.backend = None; // force a re-route
                    }
                    None => return unknown_ticket(verb),
                }
                backoff_sleep(relay, &mut jitter, attempt, attempts);
            }
        }
    }
    Response::Error(
        WireError::new(ErrorCode::Unavailable, verb)
            .with_detail("backends unreachable within the retry budget"),
    )
}

fn backoff_sleep(relay: &Relay, jitter: &mut Jitter, attempt: u32, attempts: u32) {
    if attempt < attempts {
        relay.bump(|s| s.retries += 1);
        let base = backoff_delay(relay.config.retry_backoff, attempt);
        let extra = jitter.below(base.as_millis().max(1) as u64);
        std::thread::sleep(base + Duration::from_millis(extra));
    }
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
        let mut edge = relay.edge.lock().unwrap_or_else(|e| e.into_inner());
        edge.insert(entry.key, response.clone(), degraded);
    }
    // The backend collected its ticket; ours is spent too.
    relay
        .tickets
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .remove(&ticket);
}

/// One backend's parsed `stats` report, or `None` when it cannot be
/// had; a transport failure (not an open breaker) counts as a failed
/// probe.
fn backend_stats(relay: &Relay, pool: &mut BackendPool, node: usize) -> Option<Json> {
    let deadline = relay.config.forward_deadline;
    match forward(relay, pool, node, &Request::Stats, deadline) {
        Ok(Response::Report { json }) => Json::parse(&json).ok(),
        Ok(_) => None,
        Err(err) => {
            if !is_breaker_open(&err) {
                relay.record_probe(node, Err(()));
            }
            None
        }
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
            let machine = relay.nodes[node]
                .health
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            (
                machine.state(),
                u64::from(machine.failures()),
                machine.last_rtt_ns(),
            )
        };
        let (breaker_state, breaker_trips) = {
            let breaker = relay.nodes[node]
                .breaker
                .lock()
                .unwrap_or_else(|e| e.into_inner());
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
    fn a_tripped_breaker_steers_submits_and_recovers_half_open() {
        let addr = reserved_addr();
        let relay = relay_direct(&[addr], test_breaker());
        let mut pool = BackendPool::new(&relay);

        // Nothing listens yet: both forward attempts fail, which is
        // exactly min_samples at 100% error rate — the breaker trips.
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
