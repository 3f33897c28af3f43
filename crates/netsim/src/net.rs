//! The network graph and its packet-walking engine.
//!
//! A [`Network`] is a set of nodes (hosts, routers, CG-NATs, service-provider
//! edges, DNS servers) joined by `Link`s. A probe is walked hop by hop:
//! every router on the way decrements the packet's TTL, exactly as `mtr`
//! would experience it. When the TTL expires the router answers with an
//! ICMP time-exceeded that retraces the path, and the probe's RTT is the
//! walk clock's arrival time back at the source — jitter, loss, fault
//! outages and unresponsive hops included. One walk kernel serves pings and
//! traceroutes alike and books every packet event with the telemetry
//! recorder, which drops them unless it is on.

use crate::engine::Flow;
use crate::faults::{FaultPlane, FaultSpec, NodeFaultState};
use crate::ip::is_private;
use crate::link::{LatencyModel, Link, LinkClass};
use crate::registry::IpRegistry;
use crate::time::SimTime;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use roam_geo::City;
use roam_telemetry::{Counter, Hist, Recorder, TelemetryMode, TelemetrySnapshot};
use std::collections::{BinaryHeap, HashMap};
use std::net::Ipv4Addr;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Identifier of a node in a [`Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// What role a node plays. The kind does not change forwarding behaviour —
/// it exists so scenario builders and reports can reason about topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// An end host (measurement endpoint / UE).
    Host,
    /// A forwarding router.
    Router,
    /// Carrier-grade NAT: owns the public address the outside world sees.
    CgNat,
    /// A service-provider edge (Google, Facebook, CDN, speedtest server).
    SpEdge,
    /// A DNS resolver.
    DnsResolver,
}

/// A node in the network.
#[derive(Debug, Clone)]
pub struct Node {
    /// Human-readable name (shows up in traces and error messages).
    pub name: String,
    /// Role of the node.
    pub kind: NodeKind,
    /// Where the node physically sits.
    pub city: City,
    /// The node's address (private hops carry RFC1918/RFC6598 space).
    pub ip: Ipv4Addr,
    /// Whether the node answers ICMP (time-exceeded / echo). The paper sees
    /// silent hops where "the PGW provider's CG-NAT fails to respond
    /// within the traceroute timeout" (§4.3.3); scenario builders set this
    /// to false to reproduce that.
    pub icmp_responds: bool,
}

/// Result of a ping.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PingResult {
    /// Round-trip time in milliseconds.
    pub rtt_ms: f64,
}

/// Why a probe failed, as the network saw it. The measurement layer maps
/// these onto its typed `MeasureError` so failed rows carry a cause
/// instead of a silent gap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeError {
    /// No route exists between the endpoints.
    NoRoute,
    /// The destination never answers ICMP (silent host) — retrying is
    /// pointless.
    Silent,
    /// The probe (or its reply) was lost on every retry.
    Lost,
}

impl std::fmt::Display for ProbeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProbeError::NoRoute => write!(f, "no route"),
            ProbeError::Silent => write!(f, "destination is ICMP-silent"),
            ProbeError::Lost => write!(f, "probe lost after every retry"),
        }
    }
}

/// An RTT measurement with its probe cost: how many echo attempts the
/// client needed before one round trip survived. Probe loss is data — the
/// campaign CSVs report it rather than silently absorbing retries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RttSample {
    /// Round-trip time of the successful echo, milliseconds.
    pub rtt_ms: f64,
    /// Echo attempts consumed, including the successful one (1..=3).
    pub attempts: u32,
}

/// One TTL step of a traceroute.
#[derive(Debug, Clone)]
pub struct TraceHop {
    /// The TTL this row corresponds to (1-based).
    pub ttl: u8,
    /// Responding node, when any probe got an answer.
    pub node: Option<NodeId>,
    /// Responding address (as reported in the ICMP source).
    pub ip: Option<Ipv4Addr>,
    /// RTTs of the probes that were answered, in ms.
    pub rtts: Vec<f64>,
}

impl TraceHop {
    /// Best (minimum) RTT across probes — the value `mtr` reports as "Best"
    /// and the one the paper uses for PGW RTT CDFs (Figs. 8–9).
    #[must_use]
    pub fn best_rtt(&self) -> Option<f64> {
        self.rtts.iter().copied().min_by(|a, b| a.total_cmp(b))
    }

    /// Mean RTT across answered probes — unlike [`TraceHop::best_rtt`],
    /// this keeps transient congestion in view, which matters when judging
    /// how much of the end-to-end latency the public path contributes.
    #[must_use]
    pub fn avg_rtt(&self) -> Option<f64> {
        if self.rtts.is_empty() {
            None
        } else {
            Some(self.rtts.iter().sum::<f64>() / self.rtts.len() as f64)
        }
    }

    /// Did any probe at this TTL get an answer?
    #[must_use]
    pub fn responded(&self) -> bool {
        self.ip.is_some()
    }
}

/// A full traceroute.
#[derive(Debug, Clone)]
pub struct Traceroute {
    /// Hops in TTL order, one entry per TTL probed.
    pub hops: Vec<TraceHop>,
    /// True when the destination itself answered.
    pub reached: bool,
}

impl Traceroute {
    /// Index (into `hops`) of the first hop that answered with a public IP —
    /// the paper's private/public demarcation point (§4.3).
    #[must_use]
    pub fn first_public_hop(&self) -> Option<usize> {
        self.hops
            .iter()
            .position(|h| h.ip.is_some_and(|ip| !is_private(ip)))
    }

    /// Best RTT at the final responding hop, ms.
    #[must_use]
    pub fn final_rtt(&self) -> Option<f64> {
        self.hops.iter().rev().find_map(|h| h.best_rtt())
    }

    /// Mean RTT at the final responding hop, ms.
    #[must_use]
    pub fn final_avg_rtt(&self) -> Option<f64> {
        self.hops.iter().rev().find_map(|h| h.avg_rtt())
    }
}

/// Options controlling a traceroute run.
#[derive(Debug, Clone, Copy)]
pub struct TracerouteOpts {
    /// Maximum TTL to probe.
    pub max_ttl: u8,
    /// Probes per TTL (mtr default is 3… we follow).
    pub probes_per_hop: u32,
}

impl Default for TracerouteOpts {
    fn default() -> Self {
        TracerouteOpts {
            max_ttl: 30,
            probes_per_hop: 3,
        }
    }
}

/// An immutable resolved route: the node sequence plus, for every
/// consecutive pair, the index of the link a packet traverses. Shared
/// behind an [`Arc`] so cache hits and probe loops never copy the path.
#[derive(Debug)]
struct RouteEntry {
    nodes: Vec<NodeId>,
    /// `hop_links[i]` joins `nodes[i]` and `nodes[i + 1]` (the
    /// lowest-latency link when parallel links exist).
    hop_links: Vec<u32>,
    /// Dense per-hop walk state baked at route-build time.
    plan: WalkPlan,
}

impl PartialEq for RouteEntry {
    fn eq(&self, other: &Self) -> bool {
        // The plan is derived from (nodes, hop_links) and the link table,
        // so identity is fully captured by the path itself.
        self.nodes == other.nodes && self.hop_links == other.hop_links
    }
}
impl Eq for RouteEntry {}

/// The packet walk's hot state in structure-of-arrays form, baked once per
/// cached route: the walk loop is index-chasing over these dense arrays
/// instead of pointer-hopping through [`Link`]/[`Node`] structs. Entries
/// `[i]` describe the link joining path positions `i` and `i + 1`
/// (`fault_kind` is per *node*, so it has one more element). Any mutation
/// that can invalidate a plan (new links, [`Network::set_link_loss`])
/// clears the route cache.
#[derive(Debug)]
struct WalkPlan {
    /// Per-hop deterministic delay, ms.
    base_ms: Vec<f64>,
    /// Per-hop jitter bound, ms.
    jitter_ms: Vec<f64>,
    /// Per-hop congestion-spike probability.
    spike_prob: Vec<f64>,
    /// Per-hop spike magnitude bound, ms.
    spike_ms: Vec<f64>,
    /// Per-hop base loss probability.
    loss: Vec<f64>,
    /// Per-node fault classification along the path (see [`FaultClass`]).
    fault_kind: Vec<FaultClass>,
}

/// How the fault plane treats a node on the walk path — precomputed so the
/// hot loop matches on a byte instead of re-deriving it from [`NodeKind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FaultClass {
    /// No fault calendar applies.
    Plain,
    /// CG-NAT: rebind/outage calendars with possible failover.
    CgNat,
    /// DNS resolver: blackhole calendar.
    Dns,
}

impl WalkPlan {
    fn build(nodes: &[NodeId], hop_links: &[u32], links: &[Link], all: &[Node]) -> Self {
        let mut plan = WalkPlan {
            base_ms: Vec::with_capacity(hop_links.len()),
            jitter_ms: Vec::with_capacity(hop_links.len()),
            spike_prob: Vec::with_capacity(hop_links.len()),
            spike_ms: Vec::with_capacity(hop_links.len()),
            loss: Vec::with_capacity(hop_links.len()),
            fault_kind: Vec::with_capacity(nodes.len()),
        };
        for &li in hop_links {
            let link = &links[li as usize];
            plan.base_ms.push(link.latency.base_ms);
            plan.jitter_ms.push(link.latency.jitter_ms);
            plan.spike_prob.push(link.latency.spike_prob);
            plan.spike_ms.push(link.latency.spike_ms);
            plan.loss.push(link.loss);
        }
        for &id in nodes {
            plan.fault_kind.push(match all[id.0 as usize].kind {
                NodeKind::CgNat => FaultClass::CgNat,
                NodeKind::DnsResolver => FaultClass::Dns,
                _ => FaultClass::Plain,
            });
        }
        plan
    }

    /// Sample one traversal of hop `i` — exactly [`LatencyModel::sample`]'s
    /// draw sequence (jitter first, then the spike gate) over the baked
    /// arrays, so a walk consumes exactly the stream the link model would.
    /// `inline(always)`: this runs per hop, and the call frame alone is
    /// measurable at population scale (the `#[inline]` hint was not taken).
    #[inline(always)]
    fn sample_ms(&self, i: usize, rng: &mut SmallRng) -> f64 {
        let jitter = if self.jitter_ms[i] > 0.0 {
            rng.gen_range(0.0..self.jitter_ms[i])
        } else {
            0.0
        };
        let spike = if self.spike_prob[i] > 0.0 && rng.gen_bool(self.spike_prob[i]) {
            rng.gen_range(0.0..self.spike_ms[i].max(f64::MIN_POSITIVE))
        } else {
            0.0
        };
        self.base_ms[i] + jitter + spike
    }
}

/// Hasher for route-cache keys — a `(src, dst)` node-id pair packed into
/// one word and finished with a SplitMix64 avalanche. The default SipHash
/// costs more than a packet hop's RNG draws, and the cache is only ever
/// probed by key (never iterated), so DoS resistance buys nothing here.
#[derive(Debug, Default, Clone)]
struct RouteKeyHasher(u64);

type BuildRouteKeyHasher = std::hash::BuildHasherDefault<RouteKeyHasher>;

impl std::hash::Hasher for RouteKeyHasher {
    fn finish(&self) -> u64 {
        let mut z = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn write(&mut self, bytes: &[u8]) {
        // Not reachable from `(u32, u32)` keys, but keep it correct for
        // any future key shape.
        for &b in bytes {
            self.0 = (self.0 << 8) | u64::from(b);
        }
    }

    fn write_u32(&mut self, v: u32) {
        self.0 = (self.0 << 32) | u64::from(v);
    }
}

/// A handle to a cached route. Cheap to clone (it is an [`Arc`] bump) and
/// derefs to the node sequence, so slice operations (`len`, indexing,
/// `iter`, `windows`) work directly on it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutePath {
    entry: Arc<RouteEntry>,
}

impl RoutePath {
    /// The node sequence, source and destination inclusive.
    #[must_use]
    pub fn nodes(&self) -> &[NodeId] {
        &self.entry.nodes
    }
}

impl std::ops::Deref for RoutePath {
    type Target = [NodeId];
    fn deref(&self) -> &[NodeId] {
        &self.entry.nodes
    }
}

impl PartialEq<Vec<NodeId>> for RoutePath {
    fn eq(&self, other: &Vec<NodeId>) -> bool {
        self.entry.nodes == *other
    }
}

impl PartialEq<[NodeId]> for RoutePath {
    fn eq(&self, other: &[NodeId]) -> bool {
        self.entry.nodes == other
    }
}

/// Which way a packet walks a [`RouteEntry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WalkDir {
    /// `nodes[0] → nodes[upto]`.
    Forward,
    /// `nodes[upto] → nodes[0]` (ICMP answers retrace the path).
    Reverse,
}

/// Routes by `(src, dst)` node index; `None` marks a pair known to be
/// unroutable.
type RouteMap = HashMap<(u32, u32), Option<RoutePath>, BuildRouteKeyHasher>;

/// The routes any clone of a network has found, behind a lock so that
/// clones on different threads fill one table. A copy (made when a
/// mutator copies the topology on write) starts with the same entries.
#[derive(Debug, Default)]
struct RouteTable(Mutex<RouteMap>);

impl RouteTable {
    /// The table, locked. Entries are inserted whole, so a panic that
    /// poisoned the lock left nothing half-written behind.
    fn lock(&self) -> MutexGuard<'_, RouteMap> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Forget every route (the links changed).
    fn clear(&mut self) {
        self.0
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
    }
}

impl Clone for RouteTable {
    fn clone(&self) -> Self {
        RouteTable(Mutex::new(self.lock().clone()))
    }
}

/// What every clone of a [`Network`] shares: the topology and the
/// routes found on it.
#[derive(Debug, Clone, Default)]
struct Topology {
    nodes: Vec<Node>,
    links: Vec<Link>,
    adj: Vec<Vec<u32>>, // node index -> indices into `links`
    registry: IpRegistry,
    routes: RouteTable,
}

/// The simulated network.
///
/// The topology (nodes, links, adjacency and address registry) and the
/// table of routes found on it sit behind one [`Arc`] that every clone
/// shares. A clone copies only its own state — RNG cursor, telemetry
/// recorder, fault plane and its map of the routes it has looked up —
/// so a run can set one network up once and start every shard from a
/// copy of it, at a cost that does not grow with the topology. A route
/// one clone finds serves all of them. The mutators copy the topology
/// on write, so an edit on one clone never reaches another.
#[derive(Debug, Clone)]
pub struct Network {
    topo: Arc<Topology>,
    rng: SmallRng,
    master_seed: u64,
    /// The routes this network has looked up: hits need no lock.
    route_cache: RouteMap,
    /// The telemetry plane: counters, histograms, events and the packet
    /// story all accumulate here. Disabled by default (one branch per
    /// walk leg, no allocation).
    telemetry: Recorder,
    /// The fault-injection plane: keyed-seed calendars of link flaps,
    /// gateway outages, DNS blackholes and CG-NAT rebinds, plus the
    /// failover detours the session layer registers. Disabled (one bool
    /// check per walk) unless the network's spec says otherwise.
    faults: FaultPlane,
}

/// The knobs one run resolves once and hands to every [`Network`] it
/// builds ([`Network::set_knobs`]): what telemetry records and the fault
/// schedule. Neither is read from a process-global while the run
/// executes, so two runs in one process cannot see each other's choices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunKnobs {
    /// What the telemetry plane records.
    pub telemetry: TelemetryMode,
    /// The fault schedule.
    pub faults: FaultSpec,
}

/// One packet-level event, recorded when tracing is enabled — the
/// simulator's analogue of a pcap line.
#[derive(Debug, Clone, PartialEq)]
pub struct PacketEvent {
    /// When it happened.
    pub at: SimTime,
    /// Node where it happened.
    pub node: NodeId,
    /// What happened.
    pub kind: PacketEventKind,
}

/// The kinds of packet events a trace records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketEventKind {
    /// Sent from the source host.
    Sent,
    /// Forwarded onward with the remaining TTL.
    Forwarded {
        /// TTL after decrement.
        ttl: u8,
    },
    /// TTL hit zero here (a time-exceeded answer follows if the node talks).
    TtlExpired,
    /// Delivered to the final node.
    Delivered,
    /// Dropped by a lossy link leaving this node.
    Dropped,
}

impl PacketEventKind {
    /// Encode as the `(code, arg)` pair the telemetry plane stores.
    fn code(self) -> (u8, u8) {
        match self {
            PacketEventKind::Sent => (0, 0),
            PacketEventKind::Forwarded { ttl } => (1, ttl),
            PacketEventKind::TtlExpired => (2, 0),
            PacketEventKind::Delivered => (3, 0),
            PacketEventKind::Dropped => (4, 0),
        }
    }

    /// Decode from a stored `(code, arg)` pair.
    fn from_code(code: u8, arg: u8) -> Self {
        match code {
            0 => PacketEventKind::Sent,
            1 => PacketEventKind::Forwarded { ttl: arg },
            2 => PacketEventKind::TtlExpired,
            3 => PacketEventKind::Delivered,
            _ => PacketEventKind::Dropped,
        }
    }

    /// The counter this packet event bumps.
    fn counter(self) -> Counter {
        match self {
            PacketEventKind::Sent => Counter::PacketsSent,
            PacketEventKind::Forwarded { .. } => Counter::PacketsForwarded,
            PacketEventKind::TtlExpired => Counter::TtlExpired,
            PacketEventKind::Delivered => Counter::PacketsDelivered,
            PacketEventKind::Dropped => Counter::PacketsDropped,
        }
    }
}

impl std::fmt::Display for PacketEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let what = match self.kind {
            PacketEventKind::Sent => "sent".to_string(),
            PacketEventKind::Forwarded { ttl } => format!("forwarded (ttl {ttl})"),
            PacketEventKind::TtlExpired => "ttl expired".to_string(),
            PacketEventKind::Delivered => "delivered".to_string(),
            PacketEventKind::Dropped => "DROPPED".to_string(),
        };
        write!(f, "{} node#{} {what}", self.at, self.node.0)
    }
}

impl Network {
    /// An empty network with a deterministic RNG seeded by `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Network {
            topo: Arc::default(),
            rng: SmallRng::seed_from_u64(seed),
            master_seed: seed,
            route_cache: HashMap::default(),
            telemetry: Recorder::off(),
            faults: FaultPlane::new(FaultSpec::current()),
        }
    }

    /// Hand the network a run's resolved knobs: telemetry mode and fault
    /// schedule.
    pub fn set_knobs(&mut self, knobs: RunKnobs) {
        self.set_telemetry_mode(knobs.telemetry);
        self.set_faults(knobs.faults);
    }

    /// Swap the fault schedule in place (calendars rebuild lazily). The
    /// default is whatever [`FaultSpec::current`] said when the network
    /// was built.
    pub fn set_faults(&mut self, spec: FaultSpec) {
        self.faults.set_spec(spec);
    }

    /// Read access to the fault plane (spec, drop/failover tallies).
    #[must_use]
    pub fn faults(&self) -> &FaultPlane {
        &self.faults
    }

    /// Is the fault plane injecting anything?
    #[must_use]
    pub fn faults_enabled(&self) -> bool {
        self.faults.enabled()
    }

    /// Packets the fault plane has killed so far (dark gateways, DNS
    /// blackholes, rebind windows). Deterministic and independent of the
    /// telemetry mode, so clients can classify failures cheaply.
    #[must_use]
    pub fn fault_drops(&self) -> u64 {
        self.faults.drops()
    }

    /// Failover detours packets have taken so far. Clients snapshot this
    /// around a probe to tag results that survived via the next-nearest
    /// gateway.
    #[must_use]
    pub fn fault_failovers(&self) -> u64 {
        self.faults.failovers()
    }

    /// Register the failover detour for a gateway node: the extra one-way
    /// delay packets pay when the gateway is dark but the session can
    /// break out at the next-nearest site. The session layer computes the
    /// detour from provider geography at attach time.
    pub fn set_failover(&mut self, node: NodeId, detour: SimTime) {
        self.faults.set_failover(node.0, detour);
    }

    /// The seed this network was built from — the master every flow key
    /// derives its stream from (see [`crate::engine::flow_seed`]).
    #[must_use]
    pub fn master_seed(&self) -> u64 {
        self.master_seed
    }

    /// Start recording packet events (pcap-style). Any previously recorded
    /// events are discarded. The story flows through the telemetry sink:
    /// unlike the old consume-once buffer, reading it does not erase it.
    pub fn enable_tracing(&mut self) {
        self.telemetry.enable_packet_trace();
    }

    /// The packet story captured since [`Network::enable_tracing`].
    ///
    /// Historically this consumed the trace buffer — a second call was
    /// silently empty. The records now live in the telemetry sink, so the
    /// call is repeatable: it returns everything captured so far, and
    /// recording continues. The name is kept for API continuity.
    pub fn take_trace(&mut self) -> Vec<PacketEvent> {
        self.telemetry
            .packet_records()
            .iter()
            .map(|r| PacketEvent {
                at: SimTime::from_nanos(r.at_ns),
                node: NodeId(r.node),
                kind: PacketEventKind::from_code(r.code, r.arg),
            })
            .collect()
    }

    /// Select what the telemetry plane records (counters/histograms/events).
    pub fn set_telemetry_mode(&mut self, mode: TelemetryMode) {
        self.telemetry.set_mode(mode);
    }

    /// Read access to the recorder (mode checks, packet story).
    #[must_use]
    pub fn telemetry(&self) -> &Recorder {
        &self.telemetry
    }

    /// Write access to the recorder, for the layers above (probes record
    /// their latencies and events through the network they run on).
    pub fn telemetry_mut(&mut self) -> &mut Recorder {
        &mut self.telemetry
    }

    /// Drain the accumulated telemetry into a mergeable snapshot (the
    /// shard hand-off point). The recorder's mode and packet story stay.
    pub fn take_telemetry(&mut self) -> TelemetrySnapshot {
        self.telemetry.take()
    }

    /// The topology for editing: this network's own copy of it, made on
    /// the first write after a clone, so no sibling sees the edit.
    fn topo_mut(&mut self) -> &mut Topology {
        Arc::make_mut(&mut self.topo)
    }

    /// Add a node.
    pub fn add_node(&mut self, name: &str, kind: NodeKind, city: City, ip: Ipv4Addr) -> NodeId {
        let topo = self.topo_mut();
        let id = NodeId(topo.nodes.len() as u32);
        topo.nodes.push(Node {
            name: name.to_string(),
            kind,
            city,
            ip,
            icmp_responds: true,
        });
        topo.adj.push(Vec::new());
        id
    }

    /// Node accessor.
    #[must_use]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.topo.nodes[id.0 as usize]
    }

    /// Number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.topo.nodes.len()
    }

    /// Make a node ICMP-silent (or responsive again).
    pub fn set_icmp_responds(&mut self, id: NodeId, responds: bool) {
        self.topo_mut().nodes[id.0 as usize].icmp_responds = responds;
    }

    /// Connect two nodes with a link whose latency derives from their
    /// cities' geography and the link class. Returns the link index.
    pub fn link_geo(&mut self, a: NodeId, b: NodeId, class: LinkClass) -> usize {
        let model = LatencyModel::from_geo(
            self.node(a).city.location(),
            self.node(b).city.location(),
            class,
        );
        self.link_with(a, b, model, 0.0)
    }

    /// Connect two nodes with an explicit latency model and loss rate.
    pub fn link_with(&mut self, a: NodeId, b: NodeId, latency: LatencyModel, loss: f64) -> usize {
        assert!((0.0..=1.0).contains(&loss), "loss must be a probability");
        assert_ne!(a, b, "self-links are not allowed");
        let topo = self.topo_mut();
        let idx = topo.links.len();
        topo.links.push(Link {
            a: a.0,
            b: b.0,
            latency,
            loss,
        });
        topo.adj[a.0 as usize].push(idx as u32);
        topo.adj[b.0 as usize].push(idx as u32);
        topo.routes.clear(); // topology changed
        self.route_cache.clear();
        idx
    }

    /// Set a link's loss probability (fault injection). Drops the cached
    /// routes: their walk plans bake per-hop loss in, and a stale plan
    /// would keep sampling the old rate.
    pub fn set_link_loss(&mut self, link_idx: usize, loss: f64) {
        assert!((0.0..=1.0).contains(&loss));
        let topo = self.topo_mut();
        topo.links[link_idx].loss = loss;
        topo.routes.clear();
        self.route_cache.clear();
    }

    /// The IP registry (ipinfo analogue).
    #[must_use]
    pub fn registry(&self) -> &IpRegistry {
        &self.topo.registry
    }

    /// Mutable registry access, for scenario builders.
    pub fn registry_mut(&mut self) -> &mut IpRegistry {
        &mut self.topo_mut().registry
    }

    /// Least-latency route from `src` to `dst` (Dijkstra over base delays),
    /// inclusive of both endpoints. A pair this network looked up before
    /// is answered from its own map, without a lock or a copy of the path.
    /// Otherwise the lookup takes the table shared with its clones, runs
    /// Dijkstra only if no clone has routed the pair yet, and both keep
    /// the answer (unroutable included) until a link changes.
    pub fn route(&mut self, src: NodeId, dst: NodeId) -> Option<RoutePath> {
        let key = (src.0, dst.0);
        if let Some(cached) = self.route_cache.get(&key) {
            return cached.clone();
        }
        let topo = &*self.topo;
        let found = topo
            .routes
            .lock()
            .entry(key)
            .or_insert_with(|| topo.find_route(src.0, dst.0))
            .clone();
        self.route_cache.insert(key, found.clone());
        found
    }

    /// The public address the outside world sees for traffic from `src`
    /// toward `dst` — the first public IP along the route (the CG-NAT /
    /// breakout address). This is "the device's public IP" in the paper's
    /// methodology.
    pub fn egress_public_ip(&mut self, src: NodeId, dst: NodeId) -> Option<Ipv4Addr> {
        let path = self.route(src, dst)?;
        path.iter()
            .map(|&id| self.node(id).ip)
            .find(|ip| !is_private(*ip))
    }

    /// Sum of base one-way delays along the route, ms (no jitter) — the
    /// deterministic component of the RTT/2.
    pub fn base_one_way_ms(&mut self, src: NodeId, dst: NodeId) -> Option<f64> {
        let path = self.route(src, dst)?;
        Some(
            path.entry
                .hop_links
                .iter()
                .map(|&li| self.topo.links[li as usize].latency.base_ms)
                .sum(),
        )
    }

    /// ICMP echo from `src` to `dst`. Returns `None` when there is no route
    /// or the probe (or its reply) is lost.
    ///
    /// Draws loss/jitter from the network's shared RNG — results depend on
    /// call order. Measurement clients use [`Network::ping_flow_checked`]
    /// instead.
    pub fn ping(&mut self, src: NodeId, dst: NodeId) -> Option<PingResult> {
        // An ICMP-silent destination never answers echo, matching the
        // traceroute engine's handling of silent hops.
        if !self.node(dst).icmp_responds {
            return None;
        }
        let path = self.route(src, dst)?;
        let mut rng = self.rng.clone();
        let result = self.ping_with(&path, &mut rng);
        self.rng = rng;
        result
    }

    /// [`Network::ping`] on a flow's private RNG stream — the result is a
    /// function of the flow, not of whatever ran before it — with a typed
    /// failure cause instead of a silent `None`.
    pub fn ping_flow_checked(
        &mut self,
        src: NodeId,
        dst: NodeId,
        flow: &mut Flow,
    ) -> Result<PingResult, ProbeError> {
        if !self.node(dst).icmp_responds {
            return Err(ProbeError::Silent);
        }
        let Some(path) = self.route(src, dst) else {
            return Err(ProbeError::NoRoute);
        };
        self.ping_with(&path, flow.rng()).ok_or(ProbeError::Lost)
    }

    fn ping_with(&mut self, path: &RoutePath, rng: &mut SmallRng) -> Option<PingResult> {
        let last = path.len() - 1;
        let WalkEnd::Delivered(t_fwd) =
            self.walk(path, last, WalkDir::Forward, ECHO_TTL, SimTime::ZERO, rng)
        else {
            return None;
        };
        // The reply retraces the path in reverse.
        let WalkEnd::Delivered(t_total) =
            self.walk(path, last, WalkDir::Reverse, ECHO_TTL, t_fwd, rng)
        else {
            return None;
        };
        Some(PingResult {
            rtt_ms: t_total.as_ms(),
        })
    }

    /// `mtr`-style traceroute: probe each TTL, record responder and RTTs.
    ///
    /// Shared-RNG variant; see [`Network::traceroute_flow`] for the
    /// order-insensitive one the measurement clients use.
    pub fn traceroute(&mut self, src: NodeId, dst: NodeId, opts: TracerouteOpts) -> Traceroute {
        let Some(path) = self.route(src, dst) else {
            return Traceroute {
                hops: vec![],
                reached: false,
            };
        };
        let mut rng = self.rng.clone();
        let result = self.traceroute_with(&path, opts, &mut rng);
        self.rng = rng;
        result
    }

    /// [`Network::traceroute`] on a flow's private RNG stream.
    pub fn traceroute_flow(
        &mut self,
        src: NodeId,
        dst: NodeId,
        opts: TracerouteOpts,
        flow: &mut Flow,
    ) -> Traceroute {
        let Some(path) = self.route(src, dst) else {
            return Traceroute {
                hops: vec![],
                reached: false,
            };
        };
        self.traceroute_with(&path, opts, flow.rng())
    }

    fn traceroute_with(
        &mut self,
        path: &RoutePath,
        opts: TracerouteOpts,
        rng: &mut SmallRng,
    ) -> Traceroute {
        let last = path.len() - 1;
        let mut hops = Vec::new();
        let mut reached = false;
        // TTL 1 expires at the first node *after* the source.
        for ttl in 1..=opts.max_ttl {
            let mut hop = TraceHop {
                ttl,
                node: None,
                ip: None,
                rtts: vec![],
            };
            let mut hit_dst = false;
            for _ in 0..opts.probes_per_hop {
                // `pos` is the responder's index on the path: the walk
                // reports where the TTL ran out, so no scan is needed.
                let (arrived, pos, t_fwd) =
                    match self.walk(path, last, WalkDir::Forward, ttl, SimTime::ZERO, rng) {
                        WalkEnd::Delivered(t) => (true, last, t),
                        WalkEnd::Expired { pos, at } => (false, pos, at),
                        WalkEnd::Lost => continue, // probe lost on the way out
                    };
                let responder = path[pos];
                let (r_ip, r_responds) = {
                    let n = self.node(responder);
                    (n.ip, n.icmp_responds)
                };
                if !r_responds {
                    continue; // silent hop: no time-exceeded, probe times out
                }
                // The ICMP answer (echo reply or time exceeded) retraces the
                // path from the responder back to the source.
                let WalkEnd::Delivered(t_total) =
                    self.walk(path, pos, WalkDir::Reverse, ECHO_TTL, t_fwd, rng)
                else {
                    continue; // reply lost
                };
                hop.node = Some(responder);
                hop.ip = Some(r_ip);
                hop.rtts.push(t_total.as_ms());
                if arrived {
                    hit_dst = true;
                }
            }
            hops.push(hop);
            if hit_dst {
                reached = true;
                break;
            }
            // mtr also stops when the path simply ends (host unreachable
            // beyond the last hop); the TTL walk covers path length anyway.
            if ttl as usize >= path.len() + 2 {
                break;
            }
        }
        Traceroute { hops, reached }
    }

    /// Round-trip time measured by a single ping with retries (up to 3).
    /// Shared-RNG variant retained for scenario tooling; measurement
    /// clients use [`Network::rtt_probe_checked`], which also reports how
    /// many probes the retries burned.
    pub fn rtt_ms(&mut self, src: NodeId, dst: NodeId) -> Option<f64> {
        for attempt in 1..=3u32 {
            if let Some(r) = self.ping(src, dst) {
                self.telemetry
                    .add(Counter::EchoAttempts, u64::from(attempt));
                self.telemetry
                    .add(Counter::ProbeRetransmits, u64::from(attempt - 1));
                return Some(r.rtt_ms);
            }
        }
        self.telemetry.add(Counter::EchoAttempts, 3);
        self.telemetry.add(Counter::ProbeRetransmits, 2);
        self.telemetry.add(Counter::ProbesLost, 1);
        None
    }

    /// RTT with retries (up to 3) on a flow's private stream, reporting the
    /// attempt count so probe loss surfaces in campaign datasets instead of
    /// being silently swallowed. Permanent conditions (no route,
    /// ICMP-silent destination) return immediately — retrying cannot help
    /// — but book the same probe cost as a full retry burn, matching
    /// [`Network::rtt_ms`]'s counter arithmetic.
    pub fn rtt_probe_checked(
        &mut self,
        src: NodeId,
        dst: NodeId,
        flow: &mut Flow,
    ) -> Result<RttSample, ProbeError> {
        let mut cause = ProbeError::Lost;
        for attempt in 1..=3u32 {
            match self.ping_flow_checked(src, dst, flow) {
                Ok(r) => {
                    self.telemetry
                        .add(Counter::EchoAttempts, u64::from(attempt));
                    self.telemetry
                        .add(Counter::ProbeRetransmits, u64::from(attempt - 1));
                    return Ok(RttSample {
                        rtt_ms: r.rtt_ms,
                        attempts: attempt,
                    });
                }
                Err(e @ (ProbeError::NoRoute | ProbeError::Silent)) => {
                    cause = e;
                    break;
                }
                Err(ProbeError::Lost) => {}
            }
        }
        self.telemetry.add(Counter::EchoAttempts, 3);
        self.telemetry.add(Counter::ProbeRetransmits, 2);
        self.telemetry.add(Counter::ProbesLost, 1);
        Err(cause)
    }

    // -- internals ---------------------------------------------------------

    /// Walk a packet with initial TTL `ttl` along `route`, starting at
    /// `start`, drawing loss/jitter from `rng`.
    ///
    /// `Forward` visits `nodes[0..=upto]` in order; `Reverse` visits
    /// `nodes[upto..=0]` (how ICMP answers retrace the path) — neither
    /// direction materializes a path copy. Every node after the first
    /// decrements the TTL before forwarding; the hop loop is index
    /// arithmetic over the route's baked [`WalkPlan`], with one arrival in
    /// flight at a time. Per walk the RNG draws are: the fault-calendar
    /// phase (only with the fault plane on), then per traversed link the
    /// loss coin (only when the link can lose) and the latency sample.
    /// Telemetry bookings never touch the draws or the clock, so results
    /// are identical whatever the recorder's mode.
    fn walk(
        &mut self,
        route: &RoutePath,
        upto: usize,
        dir: WalkDir,
        mut ttl: u8,
        start: SimTime,
        rng: &mut SmallRng,
    ) -> WalkEnd {
        let entry = &*route.entry;
        let plan = &entry.plan;
        let faults_on = self.faults.enabled();
        // One phase draw per walk from the caller's own stream: different
        // flows (and retries) land on different regions of the cyclic
        // fault calendars, the alignment is a pure function of flow
        // identity, and the draw sequence is untouched when the plane is
        // off — preserving bit-identical behaviour with `ROAM_FAULTS=off`.
        let phase = if faults_on {
            rng.gen_range(0..self.faults.spec().period_ns())
        } else {
            0
        };
        let master = self.master_seed;
        let mut now = start;
        for step in 0..=upto {
            let phys = match dir {
                WalkDir::Forward => step,
                WalkDir::Reverse => upto - step,
            };
            let here = entry.nodes[phys];
            // Fault plane: a dark node (gateway outage, DNS blackhole,
            // rebind window) disposes of the packet before it is
            // forwarded or delivered there; a dark gateway with a
            // registered failover detours instead, paying extra delay on
            // its outgoing hop.
            let mut detour = SimTime::ZERO;
            if faults_on && step != 0 && plan.fault_kind[phys] != FaultClass::Plain {
                let at = SimTime::from_nanos(phase.wrapping_add(now.as_nanos()));
                let state = match plan.fault_kind[phys] {
                    FaultClass::CgNat => self.faults.cgnat_state(master, here.0, at),
                    FaultClass::Dns => {
                        if self.faults.dns_dark(master, here.0, at) {
                            NodeFaultState::Dark
                        } else {
                            NodeFaultState::Up
                        }
                    }
                    FaultClass::Plain => NodeFaultState::Up,
                };
                match state {
                    NodeFaultState::Up => {}
                    NodeFaultState::Failover(d) => {
                        detour = d;
                        self.telemetry.add(Counter::FaultFailovers, 1);
                    }
                    NodeFaultState::Dark => {
                        self.telemetry.add(Counter::FaultDrops, 1);
                        self.book(now, here, PacketEventKind::Dropped);
                        return WalkEnd::Lost; // the fault ate the packet
                    }
                }
            }
            if step == upto {
                self.book(now, here, PacketEventKind::Delivered);
                return WalkEnd::Delivered(now);
            }
            // Intermediate forwarding: routers (not the source host itself)
            // decrement the TTL before sending the packet onward.
            if step == 0 {
                self.book(now, here, PacketEventKind::Sent);
            } else {
                ttl -= 1;
                if ttl == 0 {
                    self.book(now, here, PacketEventKind::TtlExpired);
                    return WalkEnd::Expired { pos: phys, at: now };
                }
                self.book(now, here, PacketEventKind::Forwarded { ttl });
            }
            let hop = match dir {
                WalkDir::Forward => step,
                WalkDir::Reverse => upto - 1 - step,
            };
            let mut loss = plan.loss[hop];
            if faults_on {
                // A flapping link in its Gilbert–Elliott bad window loses
                // in bursts: the burst rate replaces the base rate.
                let at = SimTime::from_nanos(phase.wrapping_add(now.as_nanos()));
                if let Some(burst) = self
                    .faults
                    .link_burst_loss(master, entry.hop_links[hop], at)
                {
                    loss = loss.max(burst);
                }
            }
            if loss > 0.0 && rng.gen_bool(loss) {
                self.book(now, here, PacketEventKind::Dropped);
                return WalkEnd::Lost; // dropped on this link
            }
            now = now.after(SimTime::from_ms(plan.sample_ms(hop, rng)) + detour);
            // The next hop's arrival is the one event in flight: book it
            // as a depth-1 calendar entry.
            if self.telemetry.active() {
                self.telemetry.add(Counter::CalendarEvents, 1);
                self.telemetry.observe(Hist::CalendarDepth, 1.0);
            }
        }
        unreachable!("the loop returns at step == upto")
    }

    /// Book one packet event: its counter, and a line of the packet story
    /// when tracing is on.
    fn book(&mut self, at: SimTime, node: NodeId, kind: PacketEventKind) {
        self.telemetry.add(kind.counter(), 1);
        let (code, arg) = kind.code();
        self.telemetry.packet(at.as_nanos(), node.0, code, arg);
    }
}

impl Topology {
    /// Resolve a route from scratch: Dijkstra, then each hop's link and
    /// the baked walk plan.
    fn find_route(&self, src: u32, dst: u32) -> Option<RoutePath> {
        let p = self.dijkstra(src, dst)?;
        // A hop pair without a shared link means the predecessor map
        // and adjacency disagree — treat it as unroutable rather than
        // panicking mid-campaign.
        let hop_links: Vec<u32> = p
            .windows(2)
            .map(|w| self.best_link_index(w[0], w[1]))
            .collect::<Option<_>>()?;
        let nodes: Vec<NodeId> = p.into_iter().map(NodeId).collect();
        let plan = WalkPlan::build(&nodes, &hop_links, &self.links, &self.nodes);
        Some(RoutePath {
            entry: Arc::new(RouteEntry {
                nodes,
                hop_links,
                plan,
            }),
        })
    }

    fn dijkstra(&self, src: u32, dst: u32) -> Option<Vec<u32>> {
        const UNSEEN: u64 = u64::MAX;
        let n = self.nodes.len();
        let mut dist = vec![UNSEEN; n];
        let mut prev = vec![u32::MAX; n];
        let mut heap: BinaryHeap<std::cmp::Reverse<(u64, u32)>> = BinaryHeap::new();
        dist[src as usize] = 0;
        heap.push(std::cmp::Reverse((0, src)));
        while let Some(std::cmp::Reverse((d, u))) = heap.pop() {
            if d > dist[u as usize] {
                continue;
            }
            if u == dst {
                break;
            }
            for &li in &self.adj[u as usize] {
                let link = &self.links[li as usize];
                let Some(v) = link.other(u) else {
                    continue; // stale adjacency entry: skip, don't panic
                };
                let w = SimTime::from_ms(link.latency.base_ms).as_nanos().max(1);
                let nd = d.saturating_add(w);
                if nd < dist[v as usize] {
                    dist[v as usize] = nd;
                    prev[v as usize] = u;
                    heap.push(std::cmp::Reverse((nd, v)));
                }
            }
        }
        if dist[dst as usize] == UNSEEN {
            return None;
        }
        let mut path = vec![dst];
        let mut cur = dst;
        while cur != src {
            cur = prev[cur as usize];
            path.push(cur);
        }
        path.reverse();
        Some(path)
    }

    /// Index of the lowest-latency link joining two adjacent nodes, or
    /// `None` when they share none. Resolved once per route (the result
    /// lives in the route cache's `hop_links`), not once per forwarded
    /// packet.
    fn best_link_index(&self, a: u32, b: u32) -> Option<u32> {
        self.adj[a as usize]
            .iter()
            .copied()
            .filter(|&li| self.links[li as usize].other(a) == Some(b))
            .min_by(|&x, &y| {
                let (lx, ly) = (&self.links[x as usize], &self.links[y as usize]);
                lx.latency.base_ms.total_cmp(&ly.latency.base_ms)
            })
    }
}

/// The TTL every echo request and ICMP answer leaves its sender with.
const ECHO_TTL: u8 = 64;

/// How one walk leg ended.
#[derive(Debug, Clone, Copy)]
enum WalkEnd {
    /// Delivered to the far end of the leg at this time.
    Delivered(SimTime),
    /// The TTL ran out at path index `pos` at time `at`.
    Expired { pos: usize, at: SimTime },
    /// A lossy link or a dark node ate the packet.
    Lost,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    /// A small chain: host(private) - router(private) - cgnat(public) -
    /// router(public) - spedge(public), with geography spanning Europe.
    fn chain() -> (Network, NodeId, NodeId, NodeId) {
        chain_seeded(99)
    }

    fn chain_seeded(seed: u64) -> (Network, NodeId, NodeId, NodeId) {
        let mut net = Network::new(seed);
        let ue = net.add_node("ue", NodeKind::Host, City::Berlin, ip("10.55.0.2"));
        let r1 = net.add_node("core-r1", NodeKind::Router, City::Berlin, ip("10.55.0.1"));
        let nat = net.add_node("cgnat", NodeKind::CgNat, City::Amsterdam, ip("131.188.1.1"));
        let r2 = net.add_node("transit", NodeKind::Router, City::Amsterdam, ip("80.1.2.3"));
        let sp = net.add_node(
            "google",
            NodeKind::SpEdge,
            City::Frankfurt,
            ip("142.250.1.1"),
        );
        net.link_with(ue, r1, LatencyModel::fixed(12.0, 0.0), 0.0);
        net.link_geo(r1, nat, LinkClass::Backbone);
        net.link_with(nat, r2, LatencyModel::fixed(0.4, 0.0), 0.0);
        net.link_geo(r2, sp, LinkClass::Peering);
        (net, ue, sp, nat)
    }

    #[test]
    fn route_follows_the_chain() {
        let (mut net, ue, sp, _) = chain();
        let path = net.route(ue, sp).unwrap();
        assert_eq!(path.len(), 5);
        assert_eq!(path[0], ue);
        assert_eq!(path[4], sp);
    }

    #[test]
    fn no_route_between_disconnected_nodes() {
        let mut net = Network::new(1);
        let a = net.add_node("a", NodeKind::Host, City::Paris, ip("10.0.0.1"));
        let b = net.add_node("b", NodeKind::Host, City::London, ip("10.0.0.2"));
        assert!(net.route(a, b).is_none());
        assert!(net.ping(a, b).is_none());
        let tr = net.traceroute(a, b, TracerouteOpts::default());
        assert!(tr.hops.is_empty() && !tr.reached);
    }

    #[test]
    fn ping_rtt_is_about_twice_one_way() {
        let (mut net, ue, sp, _) = chain();
        let one_way = net.base_one_way_ms(ue, sp).unwrap();
        let r = net.ping(ue, sp).unwrap();
        // RTT within [2*base, 2*base + total jitter bound].
        assert!(
            r.rtt_ms >= 2.0 * one_way,
            "rtt {} vs base {}",
            r.rtt_ms,
            one_way
        );
        assert!(r.rtt_ms < 2.0 * one_way + 40.0);
    }

    #[test]
    fn traceroute_visits_every_hop_in_order() {
        let (mut net, ue, sp, _) = chain();
        let tr = net.traceroute(ue, sp, TracerouteOpts::default());
        assert!(tr.reached);
        assert_eq!(tr.hops.len(), 4, "four hops beyond the source");
        let ips: Vec<Ipv4Addr> = tr.hops.iter().filter_map(|h| h.ip).collect();
        assert_eq!(ips[0], ip("10.55.0.1"));
        assert_eq!(ips[1], ip("131.188.1.1"));
        assert_eq!(ips[2], ip("80.1.2.3"));
        assert_eq!(ips[3], ip("142.250.1.1"));
        // RTTs are monotonically non-decreasing in expectation; check best
        // RTTs are at least ordered between first and last hop.
        assert!(tr.hops[0].best_rtt().unwrap() < tr.hops[3].best_rtt().unwrap());
    }

    #[test]
    fn first_public_hop_is_the_cgnat() {
        let (mut net, ue, sp, nat) = chain();
        let tr = net.traceroute(ue, sp, TracerouteOpts::default());
        let idx = tr.first_public_hop().unwrap();
        assert_eq!(tr.hops[idx].node, Some(nat));
        assert_eq!(net.egress_public_ip(ue, sp), Some(ip("131.188.1.1")));
    }

    #[test]
    fn silent_hop_shows_as_no_response() {
        let (mut net, ue, sp, nat) = chain();
        net.set_icmp_responds(nat, false);
        let tr = net.traceroute(ue, sp, TracerouteOpts::default());
        assert!(tr.reached, "silent middle hop must not stop the trace");
        let silent = &tr.hops[1];
        assert!(!silent.responded());
        assert!(silent.rtts.is_empty());
    }

    #[test]
    fn lossy_link_loses_probes_but_trace_completes() {
        let (mut net, ue, sp, _) = chain();
        // 40% loss on the radio link.
        net.set_link_loss(0, 0.4);
        let tr = net.traceroute(
            ue,
            sp,
            TracerouteOpts {
                max_ttl: 30,
                probes_per_hop: 20,
            },
        );
        assert!(tr.reached);
        let h = &tr.hops[0];
        assert!(h.rtts.len() < 20, "some probes must be lost");
        assert!(!h.rtts.is_empty(), "not all probes lost at 40%");
    }

    #[test]
    fn determinism_same_seed_same_results() {
        let run = |seed: u64| {
            let mut net = Network::new(seed);
            let a = net.add_node("a", NodeKind::Host, City::Paris, ip("10.0.0.1"));
            let b = net.add_node("b", NodeKind::SpEdge, City::Tokyo, ip("1.2.3.4"));
            net.link_geo(a, b, LinkClass::Backbone);
            (0..20)
                .map(|_| net.ping(a, b).unwrap().rtt_ms.to_bits())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn dijkstra_prefers_lower_latency_path() {
        let mut net = Network::new(3);
        let a = net.add_node("a", NodeKind::Host, City::Paris, ip("10.0.0.1"));
        let m1 = net.add_node("m1", NodeKind::Router, City::Frankfurt, ip("80.0.0.1"));
        let m2 = net.add_node("m2", NodeKind::Router, City::Tokyo, ip("80.0.0.2"));
        let b = net.add_node("b", NodeKind::SpEdge, City::Amsterdam, ip("90.0.0.1"));
        // Fast two-hop path via Frankfurt vs slow detour via Tokyo.
        net.link_with(a, m1, LatencyModel::fixed(5.0, 0.0), 0.0);
        net.link_with(m1, b, LatencyModel::fixed(5.0, 0.0), 0.0);
        net.link_with(a, m2, LatencyModel::fixed(100.0, 0.0), 0.0);
        net.link_with(m2, b, LatencyModel::fixed(100.0, 0.0), 0.0);
        let path = net.route(a, b).unwrap();
        assert_eq!(path, vec![a, m1, b]);
    }

    #[test]
    fn route_cache_invalidated_by_new_links() {
        let mut net = Network::new(3);
        let a = net.add_node("a", NodeKind::Host, City::Paris, ip("10.0.0.1"));
        let m = net.add_node("m", NodeKind::Router, City::Tokyo, ip("80.0.0.2"));
        let b = net.add_node("b", NodeKind::SpEdge, City::Amsterdam, ip("90.0.0.1"));
        net.link_with(a, m, LatencyModel::fixed(100.0, 0.0), 0.0);
        net.link_with(m, b, LatencyModel::fixed(100.0, 0.0), 0.0);
        assert_eq!(net.route(a, b).unwrap().len(), 3);
        // Add a direct cheap link; the cached 3-hop route must be dropped.
        net.link_with(a, b, LatencyModel::fixed(1.0, 0.0), 0.0);
        assert_eq!(net.route(a, b).unwrap(), vec![a, b]);
    }

    fn same_entry(a: &RoutePath, b: &RoutePath) -> bool {
        Arc::ptr_eq(&a.entry, &b.entry)
    }

    #[test]
    fn clones_share_the_routes_either_one_finds() {
        let (net, ue, sp, nat) = chain();
        let (mut a, mut b) = (net.clone(), net.clone());
        let via_a = a.route(ue, sp).unwrap();
        let via_b = b.route(ue, sp).unwrap();
        assert!(same_entry(&via_a, &via_b), "b ran Dijkstra again");
        let (mut fresh, ..) = chain();
        assert_eq!(via_a, fresh.route(ue, sp).unwrap());
        assert!(!same_entry(&via_a, &fresh.route(ue, sp).unwrap()));
        // Whichever clone finds a route first serves the others.
        let back = b.route(nat, ue).unwrap();
        assert!(same_entry(&back, &a.route(nat, ue).unwrap()));
        assert!(same_entry(&via_a, &net.clone().route(ue, sp).unwrap()));
        // An unroutable pair is cached as such.
        let mut c = net.clone();
        let lone = c.add_node("lone", NodeKind::Host, City::Tokyo, ip("10.9.9.9"));
        assert!(c.route(ue, lone).is_none());
        assert_eq!(c.topo.routes.lock().get(&(ue.0, lone.0)), Some(&None));
    }

    #[test]
    fn an_edit_on_one_clone_never_reaches_a_sibling() {
        let (mut net, ue, sp, _) = chain();
        let before = net.route(ue, sp).unwrap();
        let (mut lossy, mut linked, mut other) = (net.clone(), net.clone(), net.clone());
        lossy.set_link_loss(0, 1.0);
        let rederived = lossy.route(ue, sp).unwrap();
        assert_eq!(rederived, before, "same path");
        assert!(!same_entry(&rederived, &before), "the stale plan survived");
        assert_eq!(rederived.entry.plan.loss[0], 1.0);
        assert!(lossy.ping(ue, sp).is_none());
        linked.link_with(ue, sp, LatencyModel::fixed(0.1, 0.0), 0.0);
        let extra = linked.add_node("extra", NodeKind::Router, City::Paris, ip("80.9.9.9"));
        assert_eq!(linked.route(ue, sp).unwrap(), vec![ue, sp]);
        assert_eq!(linked.route(ue, extra), None);
        // The network they were cloned from copies on write as well.
        net.set_link_loss(1, 0.5);
        net.add_node("late", NodeKind::Host, City::Rome, ip("10.8.8.8"));
        assert_eq!(net.node_count(), 6);
        // The sibling keeps its topology, its route and the loss its
        // plan baked in, and pings as before.
        assert_eq!((other.node_count(), other.topo.links.len()), (5, 4));
        assert!(other.topo.links.iter().all(|l| l.loss == 0.0));
        let kept = other.route(ue, sp).unwrap();
        assert!(same_entry(&kept, &before));
        assert_eq!(kept.entry.plan.loss[0], 0.0);
        assert!((0..20).all(|_| other.ping(ue, sp).is_some()));
    }

    #[test]
    fn clones_on_racing_threads_end_with_one_entry_per_pair() {
        const THREADS: usize = 4;
        let (net, ..) = long_chain(12);
        let nodes: Vec<NodeId> = (0..net.node_count() as u32).map(NodeId).collect();
        let barrier = std::sync::Barrier::new(THREADS);
        let found: Vec<Vec<Option<RoutePath>>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    let mut mine = net.clone();
                    let (nodes, barrier) = (&nodes, &barrier);
                    s.spawn(move || {
                        barrier.wait();
                        let mut out = Vec::new();
                        for &a in nodes {
                            for &b in nodes {
                                out.push(mine.route(a, b));
                            }
                        }
                        out
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let table = net.topo.routes.lock();
        // `long_chain` routed its end-to-end pair before cloning.
        assert_eq!(table.len(), nodes.len() * nodes.len());
        for (i, first) in found[0].iter().enumerate() {
            let first = first.as_ref().expect("the chain is connected");
            let key = (first[0].0, first[first.len() - 1].0);
            let shared = table[&key].as_ref().unwrap();
            for other in &found[1..] {
                assert!(
                    same_entry(other[i].as_ref().unwrap(), shared),
                    "pair {key:?}"
                );
            }
            assert!(same_entry(first, shared), "pair {key:?}");
        }
    }

    #[test]
    fn pinging_a_silent_node_times_out() {
        let (mut net, ue, sp, nat) = chain();
        assert!(
            net.ping(ue, nat).is_some(),
            "responsive CG-NAT answers echo"
        );
        net.set_icmp_responds(nat, false);
        assert!(net.ping(ue, nat).is_none(), "silent node must not answer");
        assert!(net.rtt_ms(ue, nat).is_none());
        // Transit *through* the silent node still works.
        assert!(net.ping(ue, sp).is_some());
    }

    #[test]
    fn tracing_records_the_packet_story() {
        let (mut net, ue, sp, _) = chain();
        net.enable_tracing();
        let r = net.ping(ue, sp);
        assert!(r.is_some());
        let events = net.take_trace();
        // Forward + reply legs: sent, forwards, delivered, twice.
        let sent = events
            .iter()
            .filter(|e| e.kind == PacketEventKind::Sent)
            .count();
        let delivered = events
            .iter()
            .filter(|e| e.kind == PacketEventKind::Delivered)
            .count();
        assert_eq!(sent, 2, "echo + reply each get a Sent");
        assert_eq!(delivered, 2);
        assert!(
            events
                .windows(2)
                .all(|w| w[0].at <= w[1].at || w[1].kind == PacketEventKind::Sent),
            "events within a leg are time-ordered"
        );
        // The trace is repeatable: a second take tells the same story.
        assert_eq!(net.take_trace(), events);
        // Further traffic extends it while tracing stays on.
        net.ping(ue, sp);
        assert!(net.take_trace().len() > events.len());
        // Display is human-readable.
        assert!(events[0].to_string().contains("sent"));
    }

    #[test]
    fn telemetry_counts_packets_and_probes() {
        let (mut net, ue, sp, _) = chain();
        net.set_telemetry_mode(TelemetryMode::Summary);
        assert!(net.ping(ue, sp).is_some());
        assert!(net.rtt_ms(ue, sp).is_some());
        let snap = net.take_telemetry();
        assert_eq!(snap.counters[Counter::PacketsSent as usize], 4);
        assert_eq!(snap.counters[Counter::PacketsDelivered as usize], 4);
        assert!(snap.counters[Counter::CalendarEvents as usize] > 0);
        // Walks keep exactly one arrival in flight: one depth-1 entry per
        // scheduled hop.
        let depth = &snap.hists[Hist::CalendarDepth as usize];
        assert_eq!(
            depth.count(),
            snap.counters[Counter::CalendarEvents as usize]
        );
        assert_eq!(depth.sum(), depth.count() as f64);
        assert!(snap.counters[Counter::EchoAttempts as usize] >= 1);
        assert_eq!(snap.counters[Counter::ProbesLost as usize], 0);
        // Taking resets the tallies but keeps recording.
        assert!(net.ping(ue, sp).is_some());
        let again = net.take_telemetry();
        assert_eq!(again.counters[Counter::PacketsSent as usize], 2);
    }

    #[test]
    fn tracing_shows_ttl_expiry() {
        let (mut net, ue, sp, _) = chain();
        net.enable_tracing();
        let _ = net.traceroute(
            ue,
            sp,
            TracerouteOpts {
                max_ttl: 1,
                probes_per_hop: 1,
            },
        );
        let events = net.take_trace();
        assert!(
            events.iter().any(|e| e.kind == PacketEventKind::TtlExpired),
            "TTL-1 probe must expire at the first router"
        );
    }

    #[test]
    fn flow_probes_are_order_insensitive() {
        use crate::engine::{flow_seed, Flow};
        let (mut net, ue, sp, _) = chain();
        net.set_link_loss(0, 0.2);
        let open = |key: &str| Flow::open(flow_seed(99, key));
        let first = net.ping_flow_checked(ue, sp, &mut open("p/a"));
        // Perturb the shared stream and run unrelated flows in between:
        // the repeat of flow "p/a" must not notice.
        let _ = net.ping(ue, sp);
        let _ = net.ping_flow_checked(ue, sp, &mut open("p/b"));
        let _ = net.rtt_probe_checked(ue, sp, &mut open("p/c"));
        let again = net.ping_flow_checked(ue, sp, &mut open("p/a"));
        assert_eq!(first, again);
        let s1 = net.rtt_probe_checked(ue, sp, &mut open("p/c"));
        let s2 = net.rtt_probe_checked(ue, sp, &mut open("p/c"));
        assert_eq!(s1, s2);
    }

    /// A chain with every stochastic feature armed (jitter, spikes, loss)
    /// — the workload where telemetry that perturbed the draw order would
    /// show immediately.
    fn spiky_chain() -> (Network, NodeId, NodeId) {
        // Master 0 gives the CG-NAT an outage calendar once outages are
        // on, so a registered failover gets taken.
        let (mut net, ue, sp, nat) = chain_seeded(0);
        net.set_failover(nat, SimTime::from_ms(30.0));
        net.set_link_loss(0, 0.15);
        let li = net.link_with(
            ue,
            sp,
            LatencyModel::fixed(200.0, 6.0).with_spikes(0.2, 40.0),
            0.05,
        );
        // Make the detour link irrelevant for routing but keep the chain
        // stochastic end to end.
        net.set_link_loss(li, 0.05);
        (net, ue, sp)
    }

    /// Who watches a walk: nobody, the counters, or the packet story.
    #[derive(Debug, Clone, Copy)]
    enum Watch {
        Off,
        Summary,
        Tracing,
    }

    impl Watch {
        const ALL: [Watch; 3] = [Watch::Off, Watch::Summary, Watch::Tracing];

        fn arm(self, net: &mut Network) {
            match self {
                Watch::Off => {}
                Watch::Summary => net.set_telemetry_mode(TelemetryMode::Summary),
                Watch::Tracing => net.enable_tracing(),
            }
        }
    }

    /// A traceroute as exact bits: `(ttl, responder, rtt bits)` per hop.
    type TraceBits = (Vec<(u8, Option<NodeId>, Vec<u64>)>, bool);

    fn trace_bits(tr: &Traceroute) -> TraceBits {
        let hops = tr
            .hops
            .iter()
            .map(|h| (h.ttl, h.node, h.rtts.iter().map(|r| r.to_bits()).collect()))
            .collect();
        (hops, tr.reached)
    }

    #[test]
    fn walk_results_do_not_depend_on_the_telemetry_mode() {
        use crate::engine::{flow_seed, Flow};
        // Heavy faults as shipped, and the same spec with every entity on
        // the path fault-prone, so drops and failovers are sure to fire.
        let saturated = FaultSpec {
            link_flap_rate: 1.0,
            gateway_outage_rate: 1.0,
            cgnat_rebind_rate: 1.0,
            ..FaultSpec::heavy()
        };
        for (faults, must_fire) in [
            (FaultSpec::off(), false),
            (FaultSpec::heavy(), false),
            (saturated, true),
        ] {
            let runs: Vec<_> = Watch::ALL
                .iter()
                .map(|&watch| {
                    let (mut net, ue, sp) = spiky_chain();
                    net.set_faults(faults);
                    watch.arm(&mut net);
                    let results: Vec<_> = (0..200u32)
                        .map(|i| {
                            let mut flow = Flow::open(flow_seed(7, &format!("eq/{i}")));
                            let ping = net
                                .ping_flow_checked(ue, sp, &mut flow)
                                .map(|r| r.rtt_ms.to_bits());
                            let tr =
                                net.traceroute_flow(ue, sp, TracerouteOpts::default(), &mut flow);
                            (ping, trace_bits(&tr))
                        })
                        .collect();
                    let snap = net.take_telemetry();
                    let booked = snap.counters[Counter::PacketsSent as usize];
                    let story = net.take_trace().len();
                    match watch {
                        Watch::Off => assert_eq!((booked, story), (0, 0), "{watch:?}"),
                        Watch::Summary => {
                            assert!(booked > 0 && story == 0, "{watch:?}");
                            // The fault hooks book exactly the plane's tallies.
                            assert_eq!(
                                snap.counters[Counter::FaultDrops as usize],
                                net.fault_drops()
                            );
                            assert_eq!(
                                snap.counters[Counter::FaultFailovers as usize],
                                net.fault_failovers()
                            );
                        }
                        Watch::Tracing => assert!(story > 0, "{watch:?}"),
                    }
                    if must_fire {
                        assert!(net.fault_drops() > 0 && net.fault_failovers() > 0);
                    }
                    results
                })
                .collect();
            assert_eq!(runs[0], runs[1], "Off vs Summary under {faults:?}");
            assert_eq!(runs[0], runs[2], "Off vs tracing under {faults:?}");
            assert!(runs[0].iter().any(|(p, _)| p.is_ok()));
            assert!(
                runs[0].iter().any(|(p, _)| *p == Err(ProbeError::Lost)),
                "loss must fire at 15%"
            );
        }
    }

    /// `hops` lossless, jitter-free 1 ms links in a row, host to SP edge.
    fn long_chain(hops: u8) -> (Network, RoutePath) {
        let mut net = Network::new(11);
        let src = net.add_node("n0", NodeKind::Host, City::Berlin, ip("10.0.0.1"));
        let mut prev = src;
        for i in 1..=hops {
            let kind = if i == hops {
                NodeKind::SpEdge
            } else {
                NodeKind::Router
            };
            let node = net.add_node(
                &format!("n{i}"),
                kind,
                City::Berlin,
                Ipv4Addr::new(80, 0, 0, i),
            );
            net.link_with(prev, node, LatencyModel::fixed(1.0, 0.0), 0.0);
            prev = node;
        }
        let path = net.route(src, prev).unwrap();
        (net, path)
    }

    #[test]
    fn echo_ttl_expires_on_a_seventy_hop_chain() {
        use crate::engine::{flow_seed, Flow};
        let opts = TracerouteOpts {
            max_ttl: 80,
            probes_per_hop: 1,
        };
        let runs: Vec<_> = Watch::ALL
            .iter()
            .map(|&watch| {
                let (mut net, path) = long_chain(70);
                let (src, dst) = (path[0], path[70]);
                watch.arm(&mut net);
                let mut flow = Flow::open(flow_seed(1, "long/0"));
                // The echo leaves with TTL 64: the 64th node after the
                // source decrements it to zero and the probe dies there.
                let ping = net.ping_flow_checked(src, dst, &mut flow);
                assert_eq!(ping, Err(ProbeError::Lost), "{watch:?}");
                if let Watch::Tracing = watch {
                    let story = net.take_trace();
                    let expired: Vec<_> = story
                        .iter()
                        .filter(|e| e.kind == PacketEventKind::TtlExpired)
                        .collect();
                    assert_eq!(expired.len(), 1);
                    assert_eq!(expired[0].node, path[64]);
                    assert_eq!(expired[0].at, SimTime::from_ms(64.0));
                }
                let tr = net.traceroute_flow(src, dst, opts, &mut flow);
                // TTLs up to 64 are answered in 2·ttl ms; beyond that the
                // answer's own TTL of 64 runs out on the way back, so the
                // far hops — the destination included — stay dark.
                for h in &tr.hops {
                    if h.ttl <= 64 {
                        assert_eq!(h.node, Some(path[usize::from(h.ttl)]));
                        assert_eq!(h.rtts, vec![2.0 * f64::from(h.ttl)]);
                    } else {
                        assert!(!h.responded(), "ttl {} answered", h.ttl);
                    }
                }
                assert!(!tr.reached);
                assert_eq!(tr.hops.len(), 73, "mtr stops two TTLs past the path");
                (ping, trace_bits(&tr))
            })
            .collect();
        assert_eq!(runs[0], runs[1]);
        assert_eq!(runs[0], runs[2]);
    }

    #[test]
    fn set_link_loss_invalidates_baked_plans() {
        let (mut net, ue, sp, _) = chain();
        let mut ok = 0;
        for _ in 0..50 {
            ok += u32::from(net.ping(ue, sp).is_some());
        }
        assert_eq!(ok, 50, "lossless chain never drops");
        // Route is cached now; cranking loss to 1.0 must still take effect.
        net.set_link_loss(0, 1.0);
        assert!(net.ping(ue, sp).is_none(), "stale plan kept the old loss");
        net.set_link_loss(0, 0.0);
        assert!(net.ping(ue, sp).is_some());
    }

    #[test]
    fn rtt_retries_through_loss() {
        let (mut net, ue, sp, _) = chain();
        // 20% per-traversal loss; a ping crosses the lossy link twice, so
        // each attempt succeeds w.p. 0.64 and 3 retries w.p. ~95%.
        net.set_link_loss(0, 0.2);
        let mut got = 0;
        for _ in 0..20 {
            if net.rtt_ms(ue, sp).is_some() {
                got += 1;
            }
        }
        assert!(got >= 15, "expected ~19 of 20 successes, got {got}/20");
    }
}
