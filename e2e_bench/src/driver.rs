//! The closed-loop round driver.
//!
//! Exactly two driver threads; each owns one alpenhornd connection and a
//! fixed, disjoint half of the clients (client `i` belongs to thread
//! `i % 2`). Within a thread, clients participate one after another. Thread
//! 0 leads: it plans each round, issues the admin `Begin*Round` and
//! `Close*Round` calls between phases, and times the round from `Begin` to
//! the last client's mailbox scan. Every client operation's outcome is
//! checked against the round's plan.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use alpenhorn::{Client, ClientConfig, ClientEvent, Transport};
use alpenhorn_crypto::ChaChaRng;
use alpenhorn_ibe::sig::VerifyingKey;
use alpenhorn_keywheel::SessionKey;
use alpenhorn_wire::{Identity, Request, Response, Round, RoundKind};

use crate::host;
use crate::topology::{dir_bytes, Net, Shape, Topology};
use crate::trace::{self, Outcome};

/// Driver threads.
pub const THREADS: usize = 2;
/// Application intents per client (the client default).
const INTENTS: u64 = 10;

/// The population and traffic of one workload.
#[derive(Debug, Clone)]
pub struct Spec {
    /// The protocol the measured rounds run.
    pub protocol: RoundKind,
    /// Registered clients.
    pub clients: usize,
    /// Add-friend rounds: clients starting a request to a fresh partner each
    /// round.
    pub initiations_per_round: usize,
    /// Dialing rounds: friend pairs confirmed during set-up.
    pub setup_pairs: usize,
    /// Dialing rounds: calls placed each round.
    pub calls_per_round: usize,
    /// The deployment.
    pub shape: Shape,
}

/// One round's plan, shared by both threads.
#[derive(Debug, Default)]
struct Plan {
    protocol: Option<RoundKind>,
    round: u64,
    traced: bool,
    /// Add-friend: (initiator, recipient) pairs starting this round.
    initiations: Vec<(usize, usize)>,
    /// Add-friend: pairs started last round, confirmed this round.
    confirmations: Vec<(usize, usize)>,
    /// Dialing: (caller, callee, intent).
    calls: Vec<(usize, usize, u32)>,
}

/// What one client should see in one round.
#[derive(Debug, Default, Clone, Copy)]
struct Expect {
    /// Add-friend: queue a request to this client before participating.
    initiate_to: Option<usize>,
    /// Add-friend: a request from this client arrives in the scan.
    request_from: Option<usize>,
    /// Add-friend: the confirmation from this client arrives in the scan.
    confirmed_by: Option<usize>,
    /// Dialing: place this call before participating.
    call: Option<(usize, u32)>,
    /// Dialing: this call arrives in the scan.
    called_by: Option<(usize, u32)>,
}

impl Plan {
    fn expectations(&self) -> HashMap<usize, Expect> {
        let mut map: HashMap<usize, Expect> = HashMap::new();
        for &(a, b) in &self.initiations {
            map.entry(a).or_default().initiate_to = Some(b);
            map.entry(b).or_default().request_from = Some(a);
        }
        for &(a, b) in &self.confirmations {
            map.entry(a).or_default().confirmed_by = Some(b);
        }
        for &(caller, callee, intent) in &self.calls {
            map.entry(caller).or_default().call = Some((callee, intent));
            map.entry(callee).or_default().called_by = Some((caller, intent));
        }
        map
    }
}

/// A client and its population index.
pub struct Member {
    /// Population index.
    pub index: usize,
    /// The client.
    pub client: Client,
}

/// Which rounds record spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tracing {
    /// None.
    Off,
    /// Two of every three, starting with the second: the untraced third is
    /// the baseline for the tracing overhead.
    Sampled,
}

/// When to stop driving rounds.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// Exactly this many rounds.
    Rounds(usize),
    /// Until `seconds` have passed and every percentile has its samples.
    Timed {
        /// Measurement time.
        seconds: f64,
        /// Samples per client metric the untraced rounds must reach.
        untraced_samples: usize,
        /// Samples per client metric the traced rounds must reach.
        traced_samples: usize,
    },
}

/// Hard bound on one deployment's measurement, so a run of three ends well
/// within its deadline even on a slowed host.
const MAX_MEASURE: Duration = Duration::from_secs(40);
/// Fewest measured rounds in a timed run.
const MIN_ROUNDS: usize = 3;

/// One timed round.
#[derive(Debug, Clone)]
pub struct RoundRecord {
    /// Which protocol ran.
    pub protocol: RoundKind,
    /// Round number.
    pub round: u64,
    /// Whether spans were recorded.
    pub traced: bool,
    /// From `Begin` to the last mailbox scan.
    pub seconds: f64,
    /// Data-directory growth between the end of `Begin` and the end of the
    /// round, for a durable coordinator; read on traced rounds only, with
    /// the reading kept out of `seconds`.
    pub dir_growth: Option<i64>,
    /// Share of CPU time the hypervisor stole during the round.
    pub steal: f64,
}

/// Everything a batch of rounds produced.
#[derive(Debug, Default)]
pub struct RoundsOutput {
    /// Per round, in order.
    pub rounds: Vec<RoundRecord>,
    /// `participate_*` latencies of untraced rounds: (round, ms).
    pub submit_ms: Vec<(u64, f64)>,
    /// `process_*_mailbox` latencies of untraced rounds: (round, ms).
    pub fetch_ms: Vec<(u64, f64)>,
    /// Client operations attempted.
    pub attempted: u64,
    /// Client operations that failed or produced a wrong outcome.
    pub failed: u64,
    /// First few failure descriptions.
    pub failures: Vec<String>,
    /// Client event stream, when logging: (protocol, round, client, line).
    pub events: Vec<(u8, u64, usize, String)>,
}

/// A booted deployment with its registered population.
pub struct Session {
    spec: Spec,
    topology: Topology,
    nets: Vec<Net>,
    halves: Vec<Vec<Member>>,
    identities: Arc<Vec<Identity>>,
    schedule: ChaChaRng,
    next_round: [u64; 2],
    /// Add-friend pairs already used, as (min, max).
    used_pairs: HashSet<(usize, usize)>,
    /// Add-friend pairs confirmed so far, (initiator, recipient).
    confirmed: Vec<(usize, usize)>,
    /// Pairs started in the previous add-friend round.
    pending: Vec<(usize, usize)>,
    /// Dialing: friend pairs.
    friend_pairs: Vec<(usize, usize)>,
    /// Pairs the next add-friend round starts instead of fresh ones.
    queued_pairs: Option<Vec<(usize, usize)>>,
    log_events: bool,
}

/// 32 bytes derived from the workload seed and a label.
pub fn derive_seed(seed: u64, label: &str, index: u64) -> [u8; 32] {
    let mut input = Vec::with_capacity(label.len() + 16);
    input.extend_from_slice(&seed.to_le_bytes());
    input.extend_from_slice(&index.to_le_bytes());
    input.extend_from_slice(label.as_bytes());
    alpenhorn_crypto::sha256::digest(&input)
}

fn admin(net: &mut Net, name: &'static str, request: Request) -> Result<Response, String> {
    let response = trace::in_span(name, || net.call(request), |_| Outcome::default())
        .map_err(|e| format!("{name}: {e}"))?;
    if let Response::Error(e) = &response {
        return Err(format!("{name}: {e}"));
    }
    Ok(response)
}

fn protocol_index(protocol: RoundKind) -> usize {
    protocol.code() as usize
}

impl Session {
    /// Boots the deployment and registers the population (both threads,
    /// each its own half). Friendships for a dialing workload are made by
    /// [`Session::befriend`].
    pub fn boot(spec: &Spec, seed: u64, log_events: bool) -> Result<Session, String> {
        let topology = Topology::boot(&spec.shape)?;
        let mut nets = (0..THREADS)
            .map(|_| topology.client_net())
            .collect::<Result<Vec<_>, _>>()?;
        let Response::PkgKeys(keys) = admin(&mut nets[0], "round.admin", Request::GetPkgKeys)?
        else {
            return Err("GetPkgKeys: unexpected response".into());
        };
        let pkg_keys = keys
            .iter()
            .map(|bytes| {
                VerifyingKey::from_bytes(bytes).map_err(|_| "malformed PKG key".to_string())
            })
            .collect::<Result<Vec<_>, _>>()?;
        let identities: Arc<Vec<Identity>> = Arc::new(
            (0..spec.clients)
                .map(|i| Identity::new(&format!("user{i}@s{seed}.bench.example")))
                .collect::<Result<_, _>>()
                .map_err(|e| format!("identity: {e}"))?,
        );

        let registered: Vec<Result<Vec<Member>, String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = nets
                .iter_mut()
                .enumerate()
                .map(|(t, net)| {
                    let pkg_keys = pkg_keys.clone();
                    let identities = Arc::clone(&identities);
                    scope.spawn(move || -> Result<Vec<Member>, String> {
                        trace::set_thread(t as u8);
                        trace::set_correlation(0);
                        (t..identities.len())
                            .step_by(THREADS)
                            .map(|index| {
                                let mut client = Client::new(
                                    identities[index].clone(),
                                    pkg_keys.clone(),
                                    ClientConfig::default(),
                                    derive_seed(seed, "client", index as u64),
                                );
                                trace::in_span(
                                    "core.register",
                                    || client.register(net),
                                    |_| Outcome::default(),
                                )
                                .map_err(|e| format!("register client {index}: {e}"))?;
                                Ok(Member { index, client })
                            })
                            .collect()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("registration thread panicked"))
                .collect()
        });
        let halves = registered.into_iter().collect::<Result<Vec<_>, _>>()?;
        Ok(Session {
            spec: spec.clone(),
            topology,
            nets,
            halves,
            identities,
            schedule: ChaChaRng::from_seed_bytes(derive_seed(seed, "schedule", 0)),
            next_round: [1, 1],
            used_pairs: HashSet::new(),
            confirmed: Vec::new(),
            pending: Vec::new(),
            friend_pairs: Vec::new(),
            queued_pairs: None,
            log_events,
        })
    }

    /// Confirms `spec.setup_pairs` friend pairs through two add-friend
    /// rounds, then moves the dialing round counter to where the new
    /// keywheels start.
    pub fn befriend(&mut self, tracing: Tracing) -> Result<RoundsOutput, String> {
        let mut order: Vec<usize> = (0..self.spec.clients).collect();
        self.schedule.shuffle(&mut order);
        let pairs: Vec<(usize, usize)> = order
            .chunks_exact(2)
            .take(self.spec.setup_pairs)
            .map(|c| (c[0], c[1]))
            .collect();
        self.friend_pairs = pairs.clone();
        self.queued_pairs = Some(pairs);
        let out = self.run(RoundKind::AddFriend, Stop::Rounds(2), tracing)?;
        // Calls are possible from the round every new keywheel has started.
        let start = self
            .halves
            .iter()
            .flatten()
            .flat_map(|m| {
                m.client
                    .keywheels()
                    .wheels()
                    .map(|(_, w)| w.round().as_u64())
            })
            .max()
            .unwrap_or(1);
        self.next_round[protocol_index(RoundKind::Dialing)] = start.max(1);
        Ok(out)
    }

    /// Stops the deployment.
    pub fn shutdown(self) {
        drop(self.nets);
        self.topology.shutdown();
    }

    /// Checks that both sides of every confirmed pair derive the same
    /// keywheel. Returns (pairs checked, failure descriptions).
    pub fn check_keywheels(&self) -> (u64, Vec<String>) {
        let by_index: HashMap<usize, &Client> = self
            .halves
            .iter()
            .flatten()
            .map(|m| (m.index, &m.client))
            .collect();
        let mut failures = Vec::new();
        for &(a, b) in &self.confirmed {
            let (ca, cb) = (by_index[&a], by_index[&b]);
            let (ia, ib) = (&self.identities[a], &self.identities[b]);
            let agree = match (ca.keywheels().get(ib), cb.keywheels().get(ia)) {
                (Some(wa), Some(wb)) => {
                    let round = Round(wa.round().as_u64().max(wb.round().as_u64()));
                    let ta = ca.keywheels().dial_token(ib, round, 0).and_then(Result::ok);
                    let tb = cb.keywheels().dial_token(ia, round, 0).and_then(Result::ok);
                    ta.is_some() && ta == tb
                }
                _ => false,
            };
            if !agree {
                failures.push(format!(
                    "pair ({a}, {b}) has no matching keywheel on both sides"
                ));
            }
        }
        (self.confirmed.len() as u64, failures)
    }

    /// Plans the next round. `last` rounds start no new friendships, so
    /// every friendship started in the run confirms within it.
    fn plan(&mut self, protocol: RoundKind, traced: bool, last: bool) -> Plan {
        let p = protocol_index(protocol);
        let round = self.next_round[p];
        self.next_round[p] += 1;
        let mut plan = Plan {
            protocol: Some(protocol),
            round,
            traced,
            ..Plan::default()
        };
        match protocol {
            RoundKind::AddFriend => {
                plan.confirmations = std::mem::take(&mut self.pending);
                self.confirmed.extend_from_slice(&plan.confirmations);
                if let Some(pairs) = self.queued_pairs.take() {
                    plan.initiations = pairs;
                } else if !last {
                    plan.initiations = self.fresh_pairs(&plan.confirmations);
                }
                for &(a, b) in &plan.initiations {
                    self.used_pairs.insert((a.min(b), a.max(b)));
                }
                self.pending = plan.initiations.clone();
            }
            RoundKind::Dialing => {
                let mut pairs = self.friend_pairs.clone();
                self.schedule.shuffle(&mut pairs);
                plan.calls = pairs
                    .into_iter()
                    .take(self.spec.calls_per_round)
                    .map(|(a, b)| {
                        let (caller, callee) = if self.schedule.gen_range(2) == 0 {
                            (a, b)
                        } else {
                            (b, a)
                        };
                        (caller, callee, self.schedule.gen_range(INTENTS) as u32)
                    })
                    .collect();
            }
        }
        plan
    }

    /// Up to `initiations_per_round` pairs of clients that have never been
    /// paired, drawn from clients idle this round: a client busy confirming
    /// last round's friendship sends that reply this round, and a second
    /// queued request would wait a round.
    fn fresh_pairs(&mut self, busy: &[(usize, usize)]) -> Vec<(usize, usize)> {
        let busy: HashSet<usize> = busy.iter().flat_map(|&(a, b)| [a, b]).collect();
        let mut idle: Vec<usize> = (0..self.spec.clients)
            .filter(|i| !busy.contains(i))
            .collect();
        self.schedule.shuffle(&mut idle);
        let mut pairs = Vec::new();
        let mut taken = HashSet::new();
        for window in idle.chunks_exact(2) {
            if pairs.len() == self.spec.initiations_per_round {
                break;
            }
            let (a, b) = (window[0], window[1]);
            if !self.used_pairs.contains(&(a.min(b), a.max(b)))
                && taken.insert(a)
                && taken.insert(b)
            {
                pairs.push((a, b));
            }
        }
        pairs
    }

    /// Drives rounds of `protocol` until `stop`, recording spans as
    /// `tracing` says.
    pub fn run(
        &mut self,
        protocol: RoundKind,
        stop: Stop,
        tracing: Tracing,
    ) -> Result<RoundsOutput, String> {
        let shared = Shared {
            barrier: Barrier::new(THREADS),
            plan: Mutex::new(Arc::new(Plan::default())),
            stop: AtomicBool::new(false),
            call_keys: Mutex::new(HashMap::new()),
            abort: Mutex::new(None),
        };
        let identities = Arc::clone(&self.identities);
        let log = self.log_events;
        let mut halves = std::mem::take(&mut self.halves);
        let mut nets = std::mem::take(&mut self.nets);
        let mut records = Vec::new();

        let outs: Vec<ThreadOut> = std::thread::scope(|scope| {
            let shared = &shared;
            let mut handles = Vec::new();
            let mut leader_state = Some((&mut *self, &mut records));
            for (t, (members, net)) in halves.iter_mut().zip(nets.iter_mut()).enumerate() {
                let identities = Arc::clone(&identities);
                let mut leader = if t == 0 {
                    leader_state.take().map(|(session, records)| Leader {
                        session,
                        records,
                        protocol,
                        stop,
                        tracing,
                        started: Instant::now(),
                        last_round_s: 0.0,
                        finishing: false,
                    })
                } else {
                    None
                };
                handles.push(scope.spawn(move || {
                    drive_thread(t, shared, net, members, &identities, leader.as_mut(), log)
                }));
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("driver thread panicked"))
                .collect()
        });
        self.halves = halves;
        self.nets = nets;
        trace::set_enabled(false);
        if let Some(reason) = shared.abort.into_inner().expect("abort mutex") {
            return Err(reason);
        }

        let mut out = RoundsOutput {
            rounds: records,
            ..RoundsOutput::default()
        };
        for t in outs {
            out.submit_ms.extend(t.submit_ms);
            out.fetch_ms.extend(t.fetch_ms);
            out.attempted += t.attempted;
            out.failed += t.failed;
            out.failures.extend(t.failures);
            out.events.extend(t.events);
        }
        out.events.sort_by_key(|e| (e.0, e.1, e.2));
        out.failures.truncate(20);
        Ok(out)
    }
}

struct Shared {
    barrier: Barrier,
    plan: Mutex<Arc<Plan>>,
    stop: AtomicBool,
    /// Dialing: callee → the session key its caller derived.
    call_keys: Mutex<HashMap<usize, SessionKey>>,
    /// Set when an admin call fails; every thread stops.
    abort: Mutex<Option<String>>,
}

struct Leader<'a> {
    session: &'a mut Session,
    records: &'a mut Vec<RoundRecord>,
    protocol: RoundKind,
    stop: Stop,
    tracing: Tracing,
    started: Instant,
    last_round_s: f64,
    finishing: bool,
}

impl Leader<'_> {
    fn clients(&self) -> usize {
        self.session.spec.clients
    }

    fn round_traced(&self, index: usize) -> bool {
        match self.tracing {
            Tracing::Off => false,
            Tracing::Sampled => !index.is_multiple_of(3),
        }
    }

    /// Decides whether another round runs and whether it is the last.
    /// Returns `None` to stop.
    fn next(&mut self) -> Option<Plan> {
        if self.finishing {
            return None;
        }
        let index = self.records.len();
        let traced = self.round_traced(index);
        let last = match self.stop {
            Stop::Rounds(n) => index + 1 >= n,
            Stop::Timed {
                seconds,
                untraced_samples,
                traced_samples,
            } => {
                let elapsed = self.started.elapsed();
                let rounds = index + 1;
                let traced_rounds = (0..rounds).filter(|&i| self.round_traced(i)).count();
                let enough = rounds >= MIN_ROUNDS
                    && (rounds - traced_rounds) * self.clients() >= untraced_samples
                    && traced_rounds * self.clients() >= traced_samples;
                (enough && elapsed.as_secs_f64() + self.last_round_s >= seconds)
                    || elapsed + Duration::from_secs_f64(self.last_round_s) >= MAX_MEASURE
            }
        };
        self.finishing = last;
        Some(self.session.plan(self.protocol, traced, last))
    }
}

#[derive(Default)]
struct ThreadOut {
    submit_ms: Vec<(u64, f64)>,
    fetch_ms: Vec<(u64, f64)>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    events: Vec<(u8, u64, usize, String)>,
}

impl ThreadOut {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(what);
        }
    }
}

fn begin_request(protocol: RoundKind, round: Round, expected_real: u64) -> Request {
    match protocol {
        RoundKind::AddFriend => Request::BeginAddFriendRound {
            round,
            expected_real,
        },
        RoundKind::Dialing => Request::BeginDialingRound {
            round,
            expected_real,
        },
    }
}

fn close_request(protocol: RoundKind, round: Round) -> Request {
    match protocol {
        RoundKind::AddFriend => Request::CloseAddFriendRound { round },
        RoundKind::Dialing => Request::CloseDialingRound { round },
    }
}

fn abort(shared: &Shared, reason: String) {
    shared
        .abort
        .lock()
        .expect("abort mutex")
        .get_or_insert(reason);
}

fn drive_thread(
    t: usize,
    shared: &Shared,
    net: &mut Net,
    members: &mut [Member],
    identities: &[Identity],
    mut leader: Option<&mut Leader<'_>>,
    log: bool,
) -> ThreadOut {
    trace::set_thread(t as u8);
    let mut out = ThreadOut::default();
    loop {
        // Plan and open the round.
        let mut round_start = Instant::now();
        let mut ticks = None;
        let mut dir_start = None;
        if let Some(leader) = leader.as_deref_mut() {
            let aborted = shared.abort.lock().expect("abort mutex").is_some();
            match leader.next().filter(|_| !aborted) {
                None => shared.stop.store(true, Ordering::SeqCst),
                Some(plan) => {
                    let protocol = plan.protocol.expect("planned rounds have a protocol");
                    trace::set_enabled(plan.traced);
                    trace::set_correlation(alpenhorn_obs::correlation_id(
                        protocol.code(),
                        plan.round,
                    ));
                    ticks = host::cpu_ticks();
                    round_start = Instant::now();
                    let begin = begin_request(protocol, Round(plan.round), leader.clients() as u64);
                    if let Err(e) = admin(net, "round.begin", begin) {
                        abort(shared, e);
                        shared.stop.store(true, Ordering::SeqCst);
                    }
                    if plan.traced {
                        // Benchmark I/O: the clock is moved past it.
                        let reading = Instant::now();
                        dir_start = leader.session.topology.data_dir().map(dir_bytes);
                        round_start += reading.elapsed();
                    }
                    *shared.plan.lock().expect("plan mutex") = Arc::new(plan);
                }
            }
        }
        shared.barrier.wait();
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let plan = Arc::clone(&shared.plan.lock().expect("plan mutex"));
        let protocol = plan.protocol.expect("planned rounds have a protocol");
        let kind = protocol.code();
        trace::set_correlation(alpenhorn_obs::correlation_id(kind, plan.round));
        let expect = plan.expectations();

        // Submit phase.
        for m in members.iter_mut() {
            let e = expect.get(&m.index).copied().unwrap_or_default();
            if let Some(to) = e.initiate_to {
                m.client.add_friend(identities[to].clone(), None);
            }
            if let Some((callee, intent)) = e.call {
                if let Err(err) = m.client.call(identities[callee].clone(), intent) {
                    out.fail(format!("client {} could not queue a call: {err}", m.index));
                }
            }
            out.attempted += 1;
            let started = Instant::now();
            let result = trace::in_span(
                "core.participate",
                || match protocol {
                    RoundKind::AddFriend => m
                        .client
                        .participate_add_friend(net)
                        .map(|r| (Some(r), None)),
                    RoundKind::Dialing => m.client.participate_dialing(net).map(|e| (None, e)),
                },
                |_| Outcome::default(),
            );
            if !plan.traced {
                out.submit_ms
                    .push((plan.round, started.elapsed().as_secs_f64() * 1e3));
            }
            match result {
                Err(err) => out.fail(format!(
                    "client {} round {} submit: {err}",
                    m.index, plan.round
                )),
                Ok((joined, event)) => {
                    if let Some(joined) = joined {
                        if joined.as_u64() != plan.round {
                            out.fail(format!(
                                "client {} joined round {joined:?}, not {}",
                                m.index, plan.round
                            ));
                        }
                    }
                    match (&event, e.call) {
                        (None, None) => {}
                        (
                            Some(ClientEvent::OutgoingCallPlaced {
                                friend,
                                intent,
                                session_key,
                                round,
                            }),
                            Some((callee, want_intent)),
                        ) if *friend == identities[callee]
                            && *intent == want_intent
                            && round.as_u64() == plan.round =>
                        {
                            shared
                                .call_keys
                                .lock()
                                .expect("call key mutex")
                                .insert(callee, *session_key);
                        }
                        _ => out.fail(format!(
                            "client {} round {}: unexpected submit outcome {event:?}",
                            m.index, plan.round
                        )),
                    }
                    if log {
                        if let Some(event) = event {
                            out.events.push((
                                kind,
                                plan.round,
                                m.index,
                                format!("submit {event:?}"),
                            ));
                        }
                    }
                }
            }
        }
        shared.barrier.wait();

        // Close: mix, build mailboxes, publish shards.
        if let Some(leader) = leader.as_deref_mut() {
            match admin(
                net,
                "round.close",
                close_request(protocol, Round(plan.round)),
            ) {
                Ok(Response::RoundClosed(stats))
                    if stats.client_messages == leader.clients() as u64 => {}
                Ok(other) => abort(
                    shared,
                    format!(
                        "round {} closed with unexpected stats {other:?}",
                        plan.round
                    ),
                ),
                Err(e) => abort(shared, e),
            }
        }
        shared.barrier.wait();

        // Fetch and scan phase.
        for m in members.iter_mut() {
            let e = expect.get(&m.index).copied().unwrap_or_default();
            out.attempted += 1;
            let started = Instant::now();
            let result = trace::in_span(
                "core.scan",
                || match protocol {
                    RoundKind::AddFriend => m.client.process_add_friend_mailbox(net),
                    RoundKind::Dialing => m.client.process_dialing_mailbox(net),
                },
                |_| Outcome::default(),
            );
            if !plan.traced {
                out.fetch_ms
                    .push((plan.round, started.elapsed().as_secs_f64() * 1e3));
            }
            let events = match result {
                Err(err) => {
                    out.fail(format!(
                        "client {} round {} scan: {err}",
                        m.index, plan.round
                    ));
                    continue;
                }
                Ok(events) => events,
            };
            if !scan_matches(&events, &e, m.index, identities, plan.round, shared) {
                out.fail(format!(
                    "client {} round {}: expected {e:?}, scanned {events:?}",
                    m.index, plan.round
                ));
            }
            if log {
                for event in events {
                    out.events
                        .push((kind, plan.round, m.index, format!("scan {event:?}")));
                }
            }
        }
        shared.barrier.wait();

        if let Some(leader) = leader.as_deref_mut() {
            let seconds = round_start.elapsed().as_secs_f64();
            let steal = host::steal_share(ticks, host::cpu_ticks());
            let dir_growth = match (dir_start, leader.session.topology.data_dir()) {
                (Some(before), Some(dir)) => Some(dir_bytes(dir) as i64 - before as i64),
                _ => None,
            };
            leader.last_round_s = seconds;
            leader.records.push(RoundRecord {
                protocol,
                round: plan.round,
                traced: plan.traced,
                seconds,
                dir_growth,
                steal,
            });
            if protocol == RoundKind::Dialing {
                shared.call_keys.lock().expect("call key mutex").clear();
            }
        }
    }
    out
}

/// Whether a scan produced exactly the events the plan predicts.
fn scan_matches(
    events: &[ClientEvent],
    e: &Expect,
    me: usize,
    ids: &[Identity],
    round: u64,
    shared: &Shared,
) -> bool {
    let expected = usize::from(e.request_from.is_some())
        + usize::from(e.confirmed_by.is_some())
        + usize::from(e.called_by.is_some());
    events.len() == expected
        && events.iter().all(|event| match event {
            ClientEvent::FriendRequestReceived {
                from,
                auto_accepted: true,
                ..
            } => e.request_from.is_some_and(|a| *from == ids[a]),
            ClientEvent::FriendConfirmed { friend, .. } => {
                e.confirmed_by.is_some_and(|b| *friend == ids[b])
            }
            ClientEvent::IncomingCall {
                from,
                intent,
                session_key,
                round: got,
            } => e.called_by.is_some_and(|(caller, want_intent)| {
                *from == ids[caller]
                    && *intent == want_intent
                    && got.as_u64() == round
                    && shared.call_keys.lock().expect("call key mutex").get(&me)
                        == Some(session_key)
            }),
            _ => false,
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use alpenhorn_coordinator::ClusterConfig;

    /// A small seeded dialing workload: two add-friend rounds make the
    /// friendships, three dialing rounds place calls.
    fn event_stream(shims: bool) -> Vec<(u8, u64, usize, String)> {
        let spec = Spec {
            protocol: RoundKind::Dialing,
            clients: 8,
            initiations_per_round: 0,
            setup_pairs: 4,
            calls_per_round: 2,
            shape: Shape {
                config: ClusterConfig::test(7),
                data_dir: None,
                token_budget: None,
                down_node: Some(1),
                shims,
            },
        };
        trace::set_enabled(shims);
        let mut session = Session::boot(&spec, 7, true).expect("boots");
        let tracing = if shims {
            Tracing::Sampled
        } else {
            Tracing::Off
        };
        let befriended = session.befriend(tracing).expect("add-friend rounds run");
        let dialed = session
            .run(RoundKind::Dialing, Stop::Rounds(3), tracing)
            .expect("dialing rounds run");
        let (pairs, keywheel_failures) = session.check_keywheels();
        session.shutdown();
        assert_eq!((pairs, keywheel_failures), (4, vec![]));
        for out in [&befriended, &dialed] {
            assert_eq!(out.failed, 0, "{:?}", out.failures);
        }
        befriended.events.into_iter().chain(dialed.events).collect()
    }

    #[test]
    fn timing_shims_leave_the_client_event_stream_unchanged() {
        let traced = event_stream(true);
        let spans = trace::take();
        trace::set_enabled(false);
        let plain = event_stream(false);
        assert!(
            spans.iter().any(|s| s.name == "mixd.h2.process")
                && spans.iter().any(|s| s.name == "cdn.get_parity")
                && spans.iter().any(|s| s.name == "pkg.extract"),
            "the shimmed run recorded spans at every layer"
        );
        assert!(trace::take().is_empty(), "the plain run recorded no spans");
        let calls = plain
            .iter()
            .filter(|e| e.3.starts_with("scan IncomingCall"))
            .count();
        assert_eq!(calls, 6, "two calls per dialing round arrive");
        assert_eq!(traced, plain);
    }
}
