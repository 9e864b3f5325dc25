package obs

import (
	"strconv"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// NetMetrics feeds the registry from one shard's network as a
// netsim.Tracer tee: frames sent/delivered/dropped (total, by kind, by
// drop reason), node lifecycle events, and the lease renewal/refusal
// exchange as observed on the wire (SubscriptionRenew requests and
// RenewError refusals). Per-message work is atomic adds plus RLocked
// map lookups — nothing allocates, so the conditioned fast-path alloc
// gates hold with telemetry attached.
type NetMetrics struct {
	sent, delivered, dropped *Counter
	renewals, refusals       *Counter
	sentKind                 *CounterVec
	dropReason               *CounterVec
	nodeEvents               *CounterVec
}

// NetTracer builds the frame-metrics tracer for one shard. Series are
// registered on first use and shared across repeated attachments (a
// sweep's runs aggregate into one set of counters).
func (r *Registry) NetTracer(shard int) *NetMetrics {
	s := strconv.Itoa(shard)
	return &NetMetrics{
		sent:       r.Counter("sd_frames_sent_total", "shard", s),
		delivered:  r.Counter("sd_frames_delivered_total", "shard", s),
		dropped:    r.Counter("sd_frames_dropped_total", "shard", s),
		renewals:   r.Counter("sd_lease_renewals_total", "shard", s),
		refusals:   r.Counter("sd_lease_refusals_total", "shard", s),
		sentKind:   r.CounterVec("sd_frames_sent_kind_total", "kind", "shard", s),
		dropReason: r.CounterVec("sd_frames_dropped_reason_total", "reason", "shard", s),
		nodeEvents: r.CounterVec("sd_node_events_total", "event", "shard", s),
	}
}

// MessageSent implements netsim.Tracer.
func (nm *NetMetrics) MessageSent(t sim.Time, m *netsim.Message) {
	nm.sent.Inc()
	nm.sentKind.Get(m.Kind).Inc()
}

// MessageDelivered implements netsim.Tracer.
func (nm *NetMetrics) MessageDelivered(t sim.Time, m *netsim.Message) {
	nm.delivered.Inc()
	switch m.Kind {
	case "SubscriptionRenew":
		nm.renewals.Inc()
	case "RenewError":
		nm.refusals.Inc()
	}
}

// MessageDropped implements netsim.Tracer.
func (nm *NetMetrics) MessageDropped(t sim.Time, m *netsim.Message, reason string) {
	nm.dropped.Inc()
	nm.dropReason.Get(reason).Inc()
}

// NodeEvent implements netsim.Tracer.
func (nm *NetMetrics) NodeEvent(t sim.Time, node netsim.NodeID, event string) {
	nm.nodeEvents.Get(event).Inc()
}

// ShardMetrics is one shard's slice of the PDES barrier accounting:
// where its wall time goes (running windows vs parked at the barrier)
// and how much crosses the shard boundary. Busy and Stall count wall
// nanoseconds — reading the wall clock never touches virtual time or
// any kernel's random stream, so sharded runs stay deterministic with
// metrics attached.
type ShardMetrics struct {
	// Busy is wall nanoseconds spent ingesting cross frames and running
	// windows; Stall is wall nanoseconds parked between windows (the
	// barrier wait). Busy/(Busy+Stall) is the shard's window occupancy.
	Busy, Stall *Counter
	// CrossIn counts frames ingested from other shards at barriers;
	// CrossOut counts frames this shard handed to the coordinator.
	CrossIn, CrossOut *Counter
	// Events mirrors the shard kernel's fired-event count as of the last
	// barrier; Pending its queue depth, which counts live events only
	// (canceled events leave the kernel's heap at once).
	Events, Pending *Gauge
}

// FabricMetrics aggregates the per-shard accounting plus the window
// protocol's own counters.
type FabricMetrics struct {
	Shards []*ShardMetrics
	// Windows counts barrier rounds; WindowWidth records each round's
	// virtual width (the conservative lookahead bound in action).
	Windows     *Counter
	WindowWidth *Histogram
}

// NewFabricMetrics registers the sharded-fabric series for S shards.
func NewFabricMetrics(r *Registry, shards int) *FabricMetrics {
	fm := &FabricMetrics{
		Windows:     r.Counter("sd_fabric_windows_total"),
		WindowWidth: r.Histogram("sd_fabric_window_width_virtual"),
	}
	for s := 0; s < shards; s++ {
		fm.Shards = append(fm.Shards, NewShardMetrics(r, s))
	}
	return fm
}

// NewShardMetrics registers one shard's series.
func NewShardMetrics(r *Registry, shard int) *ShardMetrics {
	s := strconv.Itoa(shard)
	return &ShardMetrics{
		Busy:     r.Counter("sd_shard_busy_nanos_total", "shard", s),
		Stall:    r.Counter("sd_shard_barrier_stall_nanos_total", "shard", s),
		CrossIn:  r.Counter("sd_shard_cross_frames_in_total", "shard", s),
		CrossOut: r.Counter("sd_shard_cross_frames_out_total", "shard", s),
		Events:   r.Gauge("sd_kernel_events", "shard", s),
		Pending:  r.Gauge("sd_kernel_pending", "shard", s),
	}
}

// Occupancy reports Busy/(Busy+Stall), the fraction of the shard's
// wall time spent computing rather than parked at the barrier.
func (sm *ShardMetrics) Occupancy() float64 {
	b, st := sm.Busy.Load(), sm.Stall.Load()
	if b+st == 0 {
		return 0
	}
	return float64(b) / float64(b+st)
}

// BusyDur and StallDur read the wall-time counters as durations.
func (sm *ShardMetrics) BusyDur() time.Duration  { return time.Duration(sm.Busy.Load()) }
func (sm *ShardMetrics) StallDur() time.Duration { return time.Duration(sm.Stall.Load()) }
