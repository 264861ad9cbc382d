package radiobcast_test

import (
	"testing"

	"radiobcast"
)

// traceGolden is Trace.String() of two runs as the engine recorded them
// round by round before the Trace became a view of the Result: figure1
// under b, and b on grid/9 under a crash with Lose (seed 2), where
// crashes wipe node 0's round-5 and node 8's round-7 delivery of µ.
var traceGolden = map[string]string{
	"figure1/b": `round 1:
  node 0 transmits ("µ")
  node 1 hears ("µ")
  node 2 hears ("µ")
  node 3 hears ("µ")
round 3:
  node 1 transmits ("µ")
  node 2 transmits ("µ")
  node 3 transmits ("µ")
  node 4 hears ("µ")
  node 5 hears ("µ")
  node 6 hears ("µ")
round 4:
  node 5 transmits (stay)
  node 6 transmits (stay)
  node 2 hears (stay)
  node 3 hears (stay)
  node 10 hears (stay)
  node 11 hears (stay)
round 5:
  node 2 transmits ("µ")
  node 3 transmits ("µ")
  node 4 transmits ("µ")
  node 5 transmits ("µ")
  node 6 transmits ("µ")
  node 7 hears ("µ")
  node 8 hears ("µ")
  node 9 hears ("µ")
  node 10 hears ("µ")
  node 11 hears ("µ")
round 6:
  node 7 transmits (stay)
  node 1 hears (stay)
  node 3 hears (stay)
round 7:
  node 3 transmits ("µ")
  node 0 hears ("µ")
  node 5 hears ("µ")
  node 7 hears ("µ")
  node 12 hears ("µ")
`,
	"grid/9/b/crash-lose": `round 1:
  node 0 transmits ("µ")
  node 1 hears ("µ")
  node 3 hears ("µ")
round 3:
  node 1 transmits ("µ")
  node 3 transmits ("µ")
  node 6 hears ("µ")
round 4:
  node 6 transmits (stay)
  node 3 hears (stay)
  node 7 hears (stay)
round 5:
  node 3 transmits ("µ")
  node 6 transmits ("µ")
  node 0 hears ("µ")
  node 4 hears ("µ")
  node 7 hears ("µ")
round 7:
  node 7 transmits ("µ")
  node 4 hears ("µ")
  node 6 hears ("µ")
  node 8 hears ("µ")
`,
}

// TestTraceGolden pins Result.Trace to the recorded traces byte for
// byte, the wiped deliveries included: the crash-lose run's trace lists
// two deliveries more than its Result has receptions.
func TestTraceGolden(t *testing.T) {
	grid, err := radiobcast.Family("grid", 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		run   func() (*radiobcast.Outcome, error)
		wiped int
	}{
		{"figure1/b", func() (*radiobcast.Outcome, error) {
			return radiobcast.Run(radiobcast.Figure1(), "b", radiobcast.WithMessage("µ"))
		}, 0},
		{"grid/9/b/crash-lose", func() (*radiobcast.Outcome, error) {
			return radiobcast.Run(grid, "b", radiobcast.WithFaultSpec(radiobcast.FaultSpec{
				Model: radiobcast.FaultModelCrash, Rate: 0.1, Down: 2, Lose: true, Seed: 2,
			}))
		}, 2},
	} {
		out, err := c.run()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		tr := out.Result.Trace()
		if got := tr.String(); got != traceGolden[c.name] {
			t.Errorf("%s: trace\n%s\nwant\n%s", c.name, got, traceGolden[c.name])
		}
		deliveries, receptions := 0, 0
		for _, r := range tr.Rounds {
			deliveries += len(r.Deliveries)
		}
		for v := range out.Result.N() {
			receptions += len(out.Result.Receives(v))
		}
		if deliveries-receptions != c.wiped {
			t.Errorf("%s: %d deliveries, %d receptions; want %d wiped", c.name, deliveries, receptions, c.wiped)
		}
	}
}
