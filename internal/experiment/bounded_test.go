package experiment

import (
	"testing"

	"repro/internal/frodo"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// The event heap stays bounded under churn and partitions: every FRODO
// 300D node re-arms its Central lease on each Registry announce, and a
// canceled timer must leave the heap at once rather than sit there until
// its old expiry. Lazy cancellation ended the 3000-User churn run with
// about 320 queued events per User; live timers are a handful per node.
func TestEventHeapBoundedUnderChurn(t *testing.T) {
	const users = 1000
	p := DefaultParams()
	p.Topology = Topology{Users: users, BootSpacing: 3 * sim.Second}
	p.RunDuration = 1200 * sim.Second
	p.ChangeMin, p.ChangeMax = 100*sim.Second, 600*sim.Second
	p.Churn = Churn{Departures: 0.2, MeanAbsence: 200 * sim.Second, Arrivals: users / 50}
	p.Partitions = []netsim.Partition{{Start: 400 * sim.Second, Duration: 300 * sim.Second, Bisect: true}}
	var k *sim.Kernel
	peak := 0
	spec := RunSpec{
		System: Frodo2P,
		Seed:   1,
		Params: p,
		Opts:   Options{Frodo: func(c *frodo.Config) { c.AnnouncePeriod = 20 * sim.Second }},
		Attach: func(sc *Scenario) {
			k = sc.K
			sim.NewTicker(k, 10*sim.Second, func() { peak = max(peak, k.Pending()) }).Start(0)
		},
	}
	Run(spec)
	end := k.Pending()
	t.Logf("N=%d: %d events fired, %d pending at end, peak %d", users, k.Fired(), end, peak)
	if end > 10*users {
		t.Errorf("%d events pending at the end of the run, want ≤ 10·N = %d", end, 10*users)
	}
	if peak > 10*users {
		t.Errorf("event heap peaked at %d, want ≤ 10·N = %d", peak, 10*users)
	}
}
