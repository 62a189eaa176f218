//! Sharded multi-leader mutual exclusion: S independent Algorithm 3
//! instances over one transport, with batched grants.
//!
//! The live-runtime benchmarks showed end-to-end mutex throughput
//! collapsing as `n` grows while the transport sustains millions of
//! messages per second: Algorithm 3's leader grants **one** critical
//! section per `Value` rotation step, so the service is protocol-bound.
//! This module multiplies the req/s ceiling with two composable moves that
//! leave the paper's correctness argument untouched:
//!
//! * **Sharding** — the resource space is hash-partitioned
//!   ([`shard_of`]) across `S` independent [`MeProcess`] instances. Each
//!   instance is a complete, unmodified Algorithm 3 system with its *own*
//!   leader (placed round-robin: shard `s` is led by process `s mod n`),
//!   so `S` `Value` pointers rotate concurrently. Requests for one key
//!   always land in one shard, so per-key exclusivity is exactly that
//!   shard's Specification 3.
//! * **Batching** — one critical-section grant of a shard serves a whole
//!   batch of pairwise non-conflicting client requests
//!   ([`crate::request::BatchQueue`]) atomically inside the single CS
//!   interval. Conflicting requests (same [`ResourceKey`]) are split
//!   across grants in FIFO order.
//!
//! [`ShardedMe`] packages the `S` instances as **one**
//! [`Protocol`] whose messages and events carry a
//! shard tag, so a sharded fleet runs unchanged on *both* substrates: the
//! deterministic simulator (`snapstab_sim::Runner`) and the live runtime
//! (`snapstab_runtime::MuxRunner`) — which is what keeps sim-vs-live
//! conformance testable. [`project_shard_trace`] slices a sharded trace
//! back into `S` plain mutual-exclusion traces that
//! [`crate::spec::analyze_me_trace`] judges exactly as before, and
//! [`GrantLog`] records every batch grant for the service-level audit
//! ([`GrantLog::audit`]): batches conflict-free, requests routed to the
//! right shard, every injected request served exactly once.
//!
//! This mirrors how the snap-stabilizing message-forwarding line of work
//! composes independent snap-stabilizing instances to scale a service:
//! each shard's guarantees are per-instance, and the partition function is
//! the only glue.

use snapstab_sim::{
    Capacity, Context, NetworkBuilder, ProcessId, Protocol, RandomScheduler, Runner, SimRng, Trace,
    TraceEvent,
};

use crate::me::{MeConfig, MeEvent, MeMsg, MeProcess, MeState};
use crate::request::{BatchQueue, ClientRequest, RequestState, ResourceKey};

/// Hash-partitions a resource key onto one of `shards` shards
/// (SplitMix64 finalizer, so adjacent keys spread uniformly).
///
/// # Panics
///
/// Panics if `shards` is zero.
pub fn shard_of(key: ResourceKey, shards: usize) -> usize {
    assert!(shards >= 1, "at least one shard");
    let mut z = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z % shards as u64) as usize
}

/// The leader's process index for a shard: leaders are placed round-robin
/// so no single process serializes every shard's grants.
pub fn shard_leader(shard: usize, n: usize) -> ProcessId {
    ProcessId::new(shard % n)
}

/// Builds the marker label `"{label}@{shard}"` used to attribute harness
/// markers (e.g. `request`) to one shard of a sharded trace;
/// [`project_shard_trace`] strips the suffix back off.
pub fn shard_marker(label: &str, shard: usize) -> String {
    format!("{label}@{shard}")
}

/// A mutual-exclusion protocol message tagged with its shard.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ShardedMeMsg {
    /// The shard (protocol instance) this message belongs to.
    pub shard: u32,
    /// The underlying Algorithm 3 message.
    pub msg: MeMsg,
}

/// A mutual-exclusion protocol event tagged with its shard.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ShardedMeEvent {
    /// The shard (protocol instance) this event belongs to.
    pub shard: u32,
    /// The underlying Algorithm 3 event.
    pub event: MeEvent,
}

/// `S` independent [`MeProcess`] instances hosted by one process, exposed
/// as a single [`Protocol`] whose messages/events carry a shard tag.
///
/// Every activation runs each shard's enabled actions in shard order —
/// the composite is still one atomic step per substrate step, and each
/// sub-instance cannot tell it shares a process with the others. Shard
/// `s`'s identities are assigned so that process `s mod n` holds the
/// minimum id (the leader), spreading the leaders across the fleet.
#[derive(Clone, Debug)]
pub struct ShardedMe {
    me: ProcessId,
    n: usize,
    shards: Vec<MeProcess>,
    /// Per-activation scratch buffers: sub-instance sends/events land here
    /// and are re-emitted tagged, so the hot path does not allocate.
    scratch_sends: Vec<(ProcessId, MeMsg)>,
    scratch_events: Vec<MeEvent>,
}

impl ShardedMe {
    /// Creates the composite process for `me` in an `n`-process system
    /// with `shards` instances, every instance configured with `config`.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(me: ProcessId, n: usize, shards: usize, config: MeConfig) -> Self {
        assert!(shards >= 1, "at least one shard");
        let instances = (0..shards)
            .map(|s| {
                // Shard s's leader is process s % n: give it the minimum
                // identity, everyone else a distinct larger one.
                let id = if me == shard_leader(s, n) {
                    1
                } else {
                    2 + me.index() as u64
                };
                MeProcess::with_config(me, n, id, config)
            })
            .collect();
        ShardedMe {
            me,
            n,
            shards: instances,
            scratch_sends: Vec::new(),
            scratch_events: Vec::new(),
        }
    }

    /// This process's id.
    pub fn me(&self) -> ProcessId {
        self.me
    }

    /// System size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of shards hosted.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The sub-instance of shard `s`.
    pub fn shard(&self, s: usize) -> &MeProcess {
        &self.shards[s]
    }

    /// Mutable access to the sub-instance of shard `s` (request
    /// injection).
    pub fn shard_mut(&mut self, s: usize) -> &mut MeProcess {
        &mut self.shards[s]
    }
}

impl Protocol for ShardedMe {
    type Msg = ShardedMeMsg;
    type Event = ShardedMeEvent;
    type State = Vec<MeState>;

    fn activate(&mut self, ctx: &mut Context<'_, ShardedMeMsg, ShardedMeEvent>) -> bool {
        let (me, n, step) = (self.me, self.n, ctx.step());
        let mut acted = false;
        for (s, proc) in self.shards.iter_mut().enumerate() {
            let sub_acted = {
                let mut inner = Context::new(
                    me,
                    n,
                    step,
                    ctx.rng(),
                    &mut self.scratch_sends,
                    &mut self.scratch_events,
                );
                proc.activate(&mut inner)
            };
            acted |= sub_acted;
            for (to, msg) in self.scratch_sends.drain(..) {
                ctx.send(
                    to,
                    ShardedMeMsg {
                        shard: s as u32,
                        msg,
                    },
                );
            }
            for event in self.scratch_events.drain(..) {
                ctx.emit(ShardedMeEvent {
                    shard: s as u32,
                    event,
                });
            }
        }
        acted
    }

    fn on_receive(
        &mut self,
        from: ProcessId,
        msg: ShardedMeMsg,
        ctx: &mut Context<'_, ShardedMeMsg, ShardedMeEvent>,
    ) {
        let s = msg.shard as usize;
        // A tag outside the shard range can only come from a corrupted
        // channel; dropping it is the §4-faithful reaction (channels are
        // unreliable anyway).
        if s >= self.shards.len() {
            return;
        }
        let (me, n, step) = (self.me, self.n, ctx.step());
        {
            let mut inner = Context::new(
                me,
                n,
                step,
                ctx.rng(),
                &mut self.scratch_sends,
                &mut self.scratch_events,
            );
            self.shards[s].on_receive(from, msg.msg, &mut inner);
        }
        for (to, msg) in self.scratch_sends.drain(..) {
            ctx.send(
                to,
                ShardedMeMsg {
                    shard: s as u32,
                    msg,
                },
            );
        }
        for event in self.scratch_events.drain(..) {
            ctx.emit(ShardedMeEvent {
                shard: s as u32,
                event,
            });
        }
    }

    fn has_enabled_action(&self) -> bool {
        self.shards.iter().any(|p| p.has_enabled_action())
    }

    fn corrupt(&mut self, rng: &mut SimRng) {
        for proc in &mut self.shards {
            proc.corrupt(rng);
        }
    }

    fn snapshot(&self) -> Vec<MeState> {
        self.shards.iter().map(|p| p.snapshot()).collect()
    }

    fn restore(&mut self, state: Vec<MeState>) {
        assert_eq!(state.len(), self.shards.len(), "shard count mismatch");
        for (proc, s) in self.shards.iter_mut().zip(state) {
            proc.restore(s);
        }
    }

    /// [`MeProcess`]'s rule on the untagged event: per-shard
    /// Specification 3 reads no PIF wave event.
    fn event_is_spec_relevant(event: &ShardedMeEvent) -> bool {
        MeProcess::event_is_spec_relevant(&event.event)
    }
}

/// One batched critical-section grant: shard `shard` granted its CS to
/// `grantee`, which served `requests` atomically inside it.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Grant {
    /// The granting shard.
    pub shard: usize,
    /// The process that executed the critical section.
    pub grantee: ProcessId,
    /// Per-shard monotone sequence number, assigned at record time.
    pub seq: u64,
    /// Global step stamp of the grant observation.
    pub step: u64,
    /// The batch served inside this grant.
    pub requests: Vec<ClientRequest>,
}

/// The per-shard grant log: every batched grant the service performed, in
/// observation order, auditable against the injected request set.
#[derive(Clone, Debug, Default)]
pub struct GrantLog {
    grants: Vec<Grant>,
    next_seq: Vec<u64>,
}

impl GrantLog {
    /// An empty log for `shards` shards.
    pub fn new(shards: usize) -> Self {
        GrantLog {
            grants: Vec::new(),
            next_seq: vec![0; shards],
        }
    }

    /// Records a grant and returns its per-shard sequence number.
    pub fn record(
        &mut self,
        shard: usize,
        grantee: ProcessId,
        step: u64,
        requests: Vec<ClientRequest>,
    ) -> u64 {
        if shard >= self.next_seq.len() {
            self.next_seq.resize(shard + 1, 0);
        }
        let seq = self.next_seq[shard];
        self.next_seq[shard] += 1;
        self.grants.push(Grant {
            shard,
            grantee,
            seq,
            step,
            requests,
        });
        seq
    }

    /// All grants, in observation order.
    pub fn grants(&self) -> &[Grant] {
        &self.grants
    }

    /// Number of grants recorded.
    pub fn len(&self) -> usize {
        self.grants.len()
    }

    /// True if nothing was granted.
    pub fn is_empty(&self) -> bool {
        self.grants.is_empty()
    }

    /// Total client requests served across all grants.
    pub fn served_requests(&self) -> u64 {
        self.grants.iter().map(|g| g.requests.len() as u64).sum()
    }

    /// Audits the log against the injected request set — the
    /// service-level acceptance check (see [`GrantAudit`]).
    pub fn audit(&self, shards: usize, injected: &[ClientRequest]) -> GrantAudit {
        let mut audit = GrantAudit::default();
        let mut seen_ids: std::collections::HashMap<u64, u32> = std::collections::HashMap::new();
        for (idx, grant) in self.grants.iter().enumerate() {
            let mut keys: Vec<ResourceKey> = grant.requests.iter().map(|r| r.key).collect();
            keys.sort_unstable();
            if keys.windows(2).any(|w| w[0] == w[1]) {
                audit.conflicting_grants.push(idx);
            }
            if grant
                .requests
                .iter()
                .any(|r| shard_of(r.key, shards) != grant.shard)
            {
                audit.misrouted_grants.push(idx);
            }
            for r in &grant.requests {
                *seen_ids.entry(r.id).or_insert(0) += 1;
            }
        }
        for req in injected {
            match seen_ids.get(&req.id) {
                None => audit.unserved_ids.push(req.id),
                Some(1) => {}
                Some(_) => audit.duplicate_ids.push(req.id),
            }
        }
        let injected_ids: std::collections::HashSet<u64> = injected.iter().map(|r| r.id).collect();
        for id in seen_ids.keys() {
            if !injected_ids.contains(id) {
                audit.unknown_ids.push(*id);
            }
        }
        audit.unserved_ids.sort_unstable();
        audit.duplicate_ids.sort_unstable();
        audit.unknown_ids.sort_unstable();
        audit
    }
}

/// Verdict of the grant-log audit: the sharded service's own executable
/// specification, checked on top of each shard's Specification 3.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct GrantAudit {
    /// Indices of grants whose batch contained two requests for the same
    /// key — a conflict served without serialization.
    pub conflicting_grants: Vec<usize>,
    /// Indices of grants containing a request whose key hashes to a
    /// different shard — a partition violation.
    pub misrouted_grants: Vec<usize>,
    /// Injected request ids never served (Start violations if the run
    /// budget was generous).
    pub unserved_ids: Vec<u64>,
    /// Injected request ids served more than once.
    pub duplicate_ids: Vec<u64>,
    /// Served request ids that were never injected.
    pub unknown_ids: Vec<u64>,
}

impl GrantAudit {
    /// True if every property holds: batches conflict-free, routing
    /// respected, every injected request served exactly once, nothing
    /// invented.
    pub fn holds(&self) -> bool {
        self.conflicting_grants.is_empty()
            && self.misrouted_grants.is_empty()
            && self.unserved_ids.is_empty()
            && self.duplicate_ids.is_empty()
            && self.unknown_ids.is_empty()
    }
}

/// Projects one shard out of a sharded trace: `Sent`/`Delivered`/
/// `Protocol` entries keep only shard `shard`'s payloads (untagged),
/// markers labelled `"{label}@{s}"` are kept (as `"{label}"`) iff
/// `s == shard`, and unsuffixed markers (e.g. `crash`) survive into every
/// projection. The result is a plain mutual-exclusion trace that
/// [`crate::spec::analyze_me_trace`] checks exactly as an unsharded one.
pub fn project_shard_trace(
    trace: &Trace<ShardedMeMsg, ShardedMeEvent>,
    shard: usize,
) -> Trace<MeMsg, MeEvent> {
    let mut out = Trace::new();
    for entry in trace.iter() {
        match &entry.event {
            TraceEvent::Activated { p, acted } => out.push(
                entry.step,
                TraceEvent::Activated {
                    p: *p,
                    acted: *acted,
                },
            ),
            TraceEvent::Sent {
                from,
                to,
                msg,
                fate,
            } if msg.shard as usize == shard => out.push(
                entry.step,
                TraceEvent::Sent {
                    from: *from,
                    to: *to,
                    msg: msg.msg.clone(),
                    fate: *fate,
                },
            ),
            TraceEvent::Delivered { from, to, msg } if msg.shard as usize == shard => out.push(
                entry.step,
                TraceEvent::Delivered {
                    from: *from,
                    to: *to,
                    msg: msg.msg.clone(),
                },
            ),
            TraceEvent::Protocol { p, event } if event.shard as usize == shard => out.push(
                entry.step,
                TraceEvent::Protocol {
                    p: *p,
                    event: event.event.clone(),
                },
            ),
            TraceEvent::Corrupted { p } => out.push(entry.step, TraceEvent::Corrupted { p: *p }),
            TraceEvent::Marker { p, label } => match label.rsplit_once('@') {
                Some((base, suffix)) => {
                    if suffix.parse::<usize>() == Ok(shard) {
                        out.push_marker(entry.step, *p, base);
                    }
                }
                None => out.push_marker(entry.step, *p, label.clone()),
            },
            _ => {}
        }
    }
    out
}

/// Configuration of the simulator-side sharded service mirror
/// ([`run_sim_sharded_service`]).
#[derive(Clone, Copy, Debug)]
pub struct SimShardedConfig {
    /// Number of processes.
    pub n: usize,
    /// Number of independent protocol instances (leaders).
    pub shards: usize,
    /// Maximum client requests per grant.
    pub batch: usize,
    /// Client requests injected per process.
    pub requests_per_process: u64,
    /// Resource keys are drawn uniformly from `0..key_space`; small
    /// spaces force intra-batch conflicts.
    pub key_space: u64,
    /// Scheduler / key-stream seed.
    pub seed: u64,
    /// Step budget; the run stops early once every request is served.
    pub max_steps: u64,
    /// Per-instance protocol configuration.
    pub config: MeConfig,
}

impl Default for SimShardedConfig {
    fn default() -> Self {
        SimShardedConfig {
            n: 3,
            shards: 2,
            batch: 2,
            requests_per_process: 2,
            key_space: 8,
            seed: 1,
            max_steps: 4_000_000,
            config: MeConfig::default(),
        }
    }
}

/// Outcome of a simulated sharded service run.
#[derive(Clone, Debug)]
pub struct SimShardedReport {
    /// Every injected client request (ids globally unique).
    pub injected: Vec<ClientRequest>,
    /// Requests served (batch members of observed grants).
    pub served: u64,
    /// The grant log, ready for [`GrantLog::audit`].
    pub grant_log: GrantLog,
    /// The sharded trace (project per shard for Specification 3).
    pub trace: Trace<ShardedMeMsg, ShardedMeEvent>,
    /// Steps executed.
    pub steps: u64,
}

/// Builds the deterministic client-request workload both service
/// substrates share: `requests_per_process` requests per process with
/// globally unique ids (`i·requests_per_process + k`) and keys drawn
/// uniformly from `0..key_space`, each routed into its process's
/// per-shard [`BatchQueue`] by [`shard_of`]. Returns `(all injected
/// requests, per-process per-shard queues)`.
///
/// The sim-vs-live conformance tests rest on both substrates running the
/// *same* workload — this helper is the single source of that stream, so
/// the two services cannot silently diverge.
pub fn inject_requests(
    n: usize,
    requests_per_process: u64,
    key_space: u64,
    seed: u64,
    shards: usize,
    batch: usize,
) -> (Vec<ClientRequest>, Vec<Vec<BatchQueue>>) {
    let mut key_rng = SimRng::seed_from(seed ^ 0x5AAD_ED01);
    let mut injected: Vec<ClientRequest> = Vec::new();
    let mut queues: Vec<Vec<BatchQueue>> = (0..n)
        .map(|_| (0..shards).map(|_| BatchQueue::new(batch)).collect())
        .collect();
    for (i, proc_queues) in queues.iter_mut().enumerate() {
        for k in 0..requests_per_process {
            let key = key_rng.gen_range(0..key_space.max(1) as usize) as ResourceKey;
            let req = ClientRequest {
                id: i as u64 * requests_per_process + k,
                key,
            };
            injected.push(req);
            proc_queues[shard_of(key, shards)].push(req);
        }
    }
    (injected, queues)
}

/// Runs the sharded, batching mutex service inside the deterministic
/// simulator — the mirror of `snapstab_runtime`'s live `ShardedService`,
/// used by the sim-vs-live conformance tests. Same partition function,
/// same batching queue, same grant log; only the substrate differs.
pub fn run_sim_sharded_service(cfg: &SimShardedConfig) -> SimShardedReport {
    // The simulator's channels are capacity-1 and shared by all shards:
    // per-shard occupancy can never exceed 1, so the paper's five-flag
    // domain stays sound, and a sibling shard occupying the slot just
    // reads as fair loss. (The live runtime instead runs one capacity
    // lane per shard inside each `LiveLink` — same per-shard channel
    // semantics, the sim being strictly more adversarial about drops.)
    let processes: Vec<ShardedMe> = (0..cfg.n)
        .map(|i| ShardedMe::new(ProcessId::new(i), cfg.n, cfg.shards, cfg.config))
        .collect();
    let network = NetworkBuilder::new(cfg.n)
        .capacity(Capacity::Bounded(1))
        .build();
    let mut runner = Runner::new(processes, network, RandomScheduler::new(), cfg.seed);

    // Inject everything upfront: per-process, per-shard batch queues.
    let (injected, mut queues) = inject_requests(
        cfg.n,
        cfg.requests_per_process,
        cfg.key_space,
        cfg.seed,
        cfg.shards,
        cfg.batch,
    );
    let total = injected.len() as u64;

    let mut grant_log = GrantLog::new(cfg.shards);
    let mut outstanding: Vec<Vec<Option<Vec<ClientRequest>>>> =
        (0..cfg.n).map(|_| vec![None; cfg.shards]).collect();
    let mut served = 0u64;
    let mut executed = 0u64;
    while served < total && executed < cfg.max_steps {
        executed += runner.run_steps(500).expect("sim sharded run").steps;
        for i in 0..cfg.n {
            let p = ProcessId::new(i);
            for s in 0..cfg.shards {
                let done = runner.process(p).shard(s).request() == RequestState::Done;
                if done {
                    if let Some(batch) = outstanding[i][s].take() {
                        served += batch.len() as u64;
                        runner.mark(p, shard_marker("grant", s));
                        grant_log.record(s, p, runner.step_count(), batch);
                    }
                    if !queues[i][s].is_empty() {
                        let batch = queues[i][s].take_batch();
                        runner.mark(p, shard_marker("request", s));
                        assert!(runner.process_mut(p).shard_mut(s).request_cs());
                        outstanding[i][s] = Some(batch);
                    }
                }
            }
        }
    }
    SimShardedReport {
        injected,
        served,
        grant_log,
        trace: runner.trace().clone(),
        steps: executed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::analyze_me_trace;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn shard_of_is_stable_and_in_range() {
        for key in 0..1000u64 {
            let s = shard_of(key, 4);
            assert!(s < 4);
            assert_eq!(s, shard_of(key, 4), "deterministic");
        }
        // Rough uniformity: every shard gets a decent share of 1000 keys.
        let mut counts = [0usize; 4];
        for key in 0..1000u64 {
            counts[shard_of(key, 4)] += 1;
        }
        assert!(counts.iter().all(|&c| c > 150), "skewed: {counts:?}");
        assert_eq!(shard_of(42, 1), 0, "one shard takes everything");
    }

    #[test]
    fn leaders_are_spread_round_robin() {
        let n = 3;
        for s in 0..5 {
            let leader = shard_leader(s, n);
            assert_eq!(leader.index(), s % n);
            for i in 0..n {
                let proc = ShardedMe::new(p(i), n, 5, MeConfig::default());
                let id = proc.shard(s).my_id();
                if i == s % n {
                    assert_eq!(id, 1, "shard {s} leader holds the minimum id");
                } else {
                    assert!(id > 1, "non-leader ids exceed the leader's");
                }
            }
        }
        // Ids are pairwise distinct within a shard.
        let ids: Vec<u64> = (0..3)
            .map(|i| {
                ShardedMe::new(p(i), 3, 2, MeConfig::default())
                    .shard(1)
                    .my_id()
            })
            .collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 3, "duplicate ids in a shard: {ids:?}");
    }

    #[test]
    fn activation_tags_sends_with_their_shard() {
        let mut proc = ShardedMe::new(p(0), 3, 2, MeConfig::default());
        let mut rng = SimRng::seed_from(0);
        let mut sends = Vec::new();
        let mut events = Vec::new();
        // Drive a few activations; both shards start their IDL waves and
        // send tagged PIF messages.
        for step in 0..6 {
            let mut ctx = Context::new(p(0), 3, step, &mut rng, &mut sends, &mut events);
            proc.activate(&mut ctx);
        }
        assert!(!sends.is_empty());
        let shards_seen: std::collections::HashSet<u32> =
            sends.iter().map(|(_, m)| m.shard).collect();
        assert!(shards_seen.contains(&0) && shards_seen.contains(&1));
        assert!(sends.iter().all(|(_, m)| m.shard < 2));
    }

    #[test]
    fn receive_routes_by_shard_and_drops_out_of_range() {
        let mut sender = ShardedMe::new(p(1), 2, 2, MeConfig::default());
        let mut rng = SimRng::seed_from(1);
        let mut sends = Vec::new();
        let mut events = Vec::new();
        {
            let mut ctx = Context::new(p(1), 2, 0, &mut rng, &mut sends, &mut events);
            sender.activate(&mut ctx);
        }
        let (_, tagged) = sends
            .iter()
            .find(|(to, m)| *to == p(0) && m.shard == 1)
            .expect("shard 1 sent something")
            .clone();
        let mut receiver = ShardedMe::new(p(0), 2, 2, MeConfig::default());
        let before_s0 = receiver.shard(0).snapshot();
        let mut r_sends = Vec::new();
        let mut r_events = Vec::new();
        {
            let mut ctx = Context::new(p(0), 2, 1, &mut rng, &mut r_sends, &mut r_events);
            receiver.on_receive(p(1), tagged.clone(), &mut ctx);
        }
        assert_eq!(
            receiver.shard(0).snapshot(),
            before_s0,
            "shard 0 untouched by a shard-1 message"
        );
        assert!(r_events.iter().all(|e| e.shard == 1));
        // Out-of-range tag: silently dropped, nothing changes.
        let snap = receiver.snapshot();
        let mut ctx = Context::new(p(0), 2, 2, &mut rng, &mut r_sends, &mut r_events);
        receiver.on_receive(
            p(1),
            ShardedMeMsg {
                shard: 99,
                msg: tagged.msg,
            },
            &mut ctx,
        );
        assert_eq!(receiver.snapshot(), snap);
    }

    #[test]
    fn snapshot_restore_and_corrupt_roundtrip() {
        let mut proc = ShardedMe::new(p(1), 3, 3, MeConfig::default());
        let mut rng = SimRng::seed_from(9);
        proc.corrupt(&mut rng);
        let snap = proc.snapshot();
        assert_eq!(snap.len(), 3);
        proc.corrupt(&mut rng);
        proc.restore(snap.clone());
        assert_eq!(proc.snapshot(), snap);
    }

    #[test]
    fn grant_log_audit_happy_path() {
        let injected = vec![
            ClientRequest { id: 0, key: 10 },
            ClientRequest { id: 1, key: 11 },
            ClientRequest { id: 2, key: 12 },
        ];
        let shards = 2;
        let mut log = GrantLog::new(shards);
        // Route each request to its true shard, conflict-free batches.
        let mut by_shard: Vec<Vec<ClientRequest>> = vec![Vec::new(); shards];
        for r in &injected {
            by_shard[shard_of(r.key, shards)].push(*r);
        }
        for (s, batch) in by_shard.into_iter().enumerate() {
            if !batch.is_empty() {
                let seq = log.record(s, p(0), 5, batch);
                assert_eq!(seq, 0);
            }
        }
        let audit = log.audit(shards, &injected);
        assert!(audit.holds(), "{audit:?}");
        assert_eq!(log.served_requests(), 3);
    }

    #[test]
    fn grant_log_audit_flags_violations() {
        let injected = vec![
            ClientRequest { id: 0, key: 10 },
            ClientRequest { id: 1, key: 10 },
            ClientRequest { id: 2, key: 11 },
        ];
        let shards = 1;
        let mut log = GrantLog::new(shards);
        // Conflict: ids 0 and 1 share key 10 inside one grant; id 2 never
        // served; id 7 invented.
        log.record(
            0,
            p(1),
            9,
            vec![
                ClientRequest { id: 0, key: 10 },
                ClientRequest { id: 1, key: 10 },
                ClientRequest { id: 7, key: 12 },
            ],
        );
        let audit = log.audit(shards, &injected);
        assert!(!audit.holds());
        assert_eq!(audit.conflicting_grants, vec![0]);
        assert_eq!(audit.unserved_ids, vec![2]);
        assert_eq!(audit.unknown_ids, vec![7]);
        // Duplicate service of id 0 in a later grant.
        let mut log2 = GrantLog::new(shards);
        log2.record(0, p(0), 1, vec![ClientRequest { id: 0, key: 10 }]);
        log2.record(0, p(0), 2, vec![ClientRequest { id: 0, key: 10 }]);
        let audit2 = log2.audit(shards, &injected[..1]);
        assert_eq!(audit2.duplicate_ids, vec![0]);
        // Misrouting: a key recorded against the wrong shard.
        let mut log3 = GrantLog::new(4);
        let key = 77u64;
        let wrong = (shard_of(key, 4) + 1) % 4;
        log3.record(wrong, p(0), 1, vec![ClientRequest { id: 0, key }]);
        let audit3 = log3.audit(4, &[ClientRequest { id: 0, key }]);
        assert_eq!(audit3.misrouted_grants, vec![0]);
    }

    #[test]
    fn grant_seq_is_per_shard_monotone() {
        let mut log = GrantLog::new(2);
        assert_eq!(log.record(0, p(0), 1, vec![]), 0);
        assert_eq!(log.record(1, p(1), 2, vec![]), 0);
        assert_eq!(log.record(0, p(2), 3, vec![]), 1);
        assert_eq!(log.record(1, p(0), 4, vec![]), 1);
        assert_eq!(log.len(), 4);
    }

    #[test]
    fn projection_splits_tagged_entries_and_markers() {
        let mut t: Trace<ShardedMeMsg, ShardedMeEvent> = Trace::new();
        t.push_marker(1, p(0), shard_marker("request", 0));
        t.push_marker(2, p(1), shard_marker("request", 1));
        t.push_marker(3, p(0), "crash");
        t.push(
            4,
            TraceEvent::Protocol {
                p: p(0),
                event: ShardedMeEvent {
                    shard: 0,
                    event: MeEvent::CsEnter,
                },
            },
        );
        t.push(
            5,
            TraceEvent::Protocol {
                p: p(1),
                event: ShardedMeEvent {
                    shard: 1,
                    event: MeEvent::CsEnter,
                },
            },
        );
        let t0 = project_shard_trace(&t, 0);
        let t1 = project_shard_trace(&t, 1);
        let m0: Vec<_> = t0.markers().map(|(_, q, l)| (q, l.to_string())).collect();
        assert_eq!(
            m0,
            vec![(p(0), "request".to_string()), (p(0), "crash".to_string())]
        );
        assert_eq!(t0.protocol_events_of(p(0)).count(), 1);
        assert_eq!(t0.protocol_events_of(p(1)).count(), 0);
        let m1: Vec<_> = t1.markers().map(|(_, q, l)| (q, l.to_string())).collect();
        assert_eq!(
            m1,
            vec![(p(1), "request".to_string()), (p(0), "crash".to_string())]
        );
        assert_eq!(t1.protocol_events_of(p(1)).count(), 1);
    }

    #[test]
    fn sim_sharded_service_serves_audits_and_satisfies_spec3_per_shard() {
        let cfg = SimShardedConfig {
            n: 3,
            shards: 2,
            batch: 2,
            requests_per_process: 2,
            key_space: 2, // force same-key conflicts across batches
            seed: 7,
            ..SimShardedConfig::default()
        };
        let report = run_sim_sharded_service(&cfg);
        assert_eq!(report.served, 6, "all requests served");
        let audit = report.grant_log.audit(cfg.shards, &report.injected);
        assert!(audit.holds(), "{audit:?}");
        // With key_space=2 and batch=2, some batch must have been split.
        assert!(
            report.grant_log.len() as u64 >= report.served / cfg.batch as u64,
            "grant count sanity"
        );
        for s in 0..cfg.shards {
            let shard_trace = project_shard_trace(&report.trace, s);
            let me = analyze_me_trace(&shard_trace, cfg.n);
            assert!(
                me.exclusivity_holds(),
                "shard {s} genuine CS overlap: {:?}",
                me.genuine_overlaps
            );
            assert!(me.all_served(), "shard {s} unserved: {:?}", me.unserved);
        }
    }
}
