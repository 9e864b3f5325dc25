package netsim

import (
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/sim"
)

// stableByArrival is the fan-out sort sortFanout replaced: stable by
// arrival alone, so same-instant receivers keep their append order.
func stableByArrival(entries []fanEntry) {
	slices.SortStableFunc(entries, func(a, b fanEntry) int {
		switch {
		case a.at < b.at:
			return -1
		case a.at > b.at:
			return 1
		default:
			return 0
		}
	})
}

// randomTrain builds n entries in append order (ord = index), with
// arrivals drawn from [0, spread] — spread 0 makes every arrival tie,
// spread 1 gives a two-value range.
func randomTrain(rng *rand.Rand, n int, spread int64) []fanEntry {
	entries := make([]fanEntry, n)
	for i := range entries {
		entries[i] = fanEntry{at: sim.Time(rng.Int63n(spread + 1)), to: NodeID(rng.Intn(1 << 20)),
			gen: rng.Uint32(), ord: uint32(i)}
	}
	return entries
}

func TestSortFanoutMatchesStableSort(t *testing.T) {
	if size := unsafe.Sizeof(fanEntry{}); size != 24 {
		t.Errorf("fanEntry is %d bytes, want 24 (ord must fill the padding)", size)
	}
	rng := rand.New(rand.NewSource(1))
	for _, spread := range []int64{0, 1, 7, 1 << 30} {
		for trial := 0; trial < 50; trial++ {
			got := randomTrain(rng, 1+rng.Intn(400), spread)
			want := slices.Clone(got)
			stableByArrival(want)
			sortFanout(got)
			if !slices.Equal(got, want) {
				t.Fatalf("spread %d, %d entries: sortFanout order differs from the stable sort", spread, len(got))
			}
		}
	}
}

func TestSortFanoutAllocs(t *testing.T) {
	src := randomTrain(rand.New(rand.NewSource(2)), 256, 3)
	entries := make([]fanEntry, len(src))
	allocs := testing.AllocsPerRun(100, func() {
		copy(entries, src)
		sortFanout(entries)
	})
	if allocs != 0 {
		t.Errorf("sortFanout allocates %.1f per sort, want 0", allocs)
	}
}

// arrival is one observed fan-out delivery.
type arrival struct {
	at sim.Time
	to NodeID
}

// shuffledGroup adds n receivers to nw and joins them to g in a random
// order, with some leaves and rejoins, so membership order (the
// tie-breaker) differs from NodeID order. Every delivery is logged.
func shuffledGroup(nw *Network, g Group, n int, rng *rand.Rand, log *[]arrival) {
	ids := make([]NodeID, n)
	for i := range ids {
		node := nw.AddNode("")
		ids[i] = node.ID
		node.SetEndpoint(EndpointFunc(func(m *Message) {
			*log = append(*log, arrival{at: nw.k.Now(), to: m.To})
		}))
	}
	rng.Shuffle(n, func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	for _, id := range ids {
		nw.Join(id, g)
	}
	for _, id := range ids[:n/4] {
		nw.Leave(id, g)
	}
	for _, id := range ids[:n/8] {
		nw.Join(id, g)
	}
}

// checkTrainOrder asserts the delivered train is what the stable sort by
// arrival produced: each receiver once, arrivals non-decreasing, and
// same-instant receivers in membership order. ties reports how many
// deliveries shared their instant with the previous one, so callers can
// confirm the tie-breaking was exercised.
func checkTrainOrder(t *testing.T, members []NodeID, got []arrival) (ties int) {
	t.Helper()
	if len(got) != len(members) {
		t.Fatalf("delivered %d frames to %d members", len(got), len(members))
	}
	arrived := make(map[NodeID]sim.Time, len(got))
	for _, a := range got {
		arrived[a.to] = a.at
	}
	want := make([]fanEntry, 0, len(members))
	for _, id := range members {
		at, ok := arrived[id]
		if !ok {
			t.Fatalf("member %d received nothing", id)
		}
		want = append(want, fanEntry{at: at, to: id})
	}
	stableByArrival(want)
	for i, a := range got {
		if a.to != want[i].to || a.at != want[i].at {
			t.Fatalf("delivery %d: node %d at %v, stable sort by arrival puts node %d at %v there",
				i, a.to, a.at, want[i].to, want[i].at)
		}
		if i > 0 && a.at == got[i-1].at {
			ties++
		}
	}
	return ties
}

// The local multicastCopy train delivers in the stable-sort order, with
// every arrival tied (MinDelay == MaxDelay) and with a two-value range.
func TestLocalFanoutTrainOrder(t *testing.T) {
	for _, spread := range []sim.Duration{0, 1} {
		cfg := DefaultConfig()
		cfg.MaxDelay = cfg.MinDelay + spread
		k := sim.New(3)
		nw := mustNew(k, cfg)
		sender := nw.AddNode("sender")
		g := Group(1)
		var got []arrival
		shuffledGroup(nw, g, 200, rand.New(rand.NewSource(4)), &got)
		members := slices.Clone(nw.members(g))
		nw.Multicast(sender.ID, g, Outgoing{Kind: "announce"}, 1)
		k.Run(sim.Second)
		if ties := checkTrainOrder(t, members, got); ties == 0 {
			t.Fatalf("spread %v: no same-instant arrivals, the tie-break is untested", spread)
		}
	}
}

// The cross-shard ingestCrossMulticast train re-fans a remote wire copy
// in the same order, under the same forced ties on the cross link.
func TestCrossFanoutTrainOrder(t *testing.T) {
	for _, spread := range []sim.Duration{0, 1} {
		link := CrossLink{MinDelay: 200 * sim.Millisecond, MaxDelay: 200*sim.Millisecond + spread}
		kA, kB := sim.New(5), sim.New(6)
		rA := NewShardRouter(2, link)
		nwA, nwB := mustNew(kA, DefaultConfig()), mustNew(kB, DefaultConfig())
		nwA.SetShard(0, rA)
		nwB.SetShard(1, NewShardRouter(2, link))
		sender := nwA.AddNode("sender")
		g := Group(1)
		var got []arrival
		shuffledGroup(nwB, g, 200, rand.New(rand.NewSource(7)), &got)
		members := slices.Clone(nwB.members(g))
		nwA.Multicast(sender.ID, g, Outgoing{Kind: "announce"}, 1)
		nwB.IngestCross(rA.Drain(1, nil))
		kB.Run(10 * sim.Second)
		if ties := checkTrainOrder(t, members, got); ties == 0 {
			t.Fatalf("spread %v: no same-instant arrivals, the tie-break is untested", spread)
		}
	}
}
