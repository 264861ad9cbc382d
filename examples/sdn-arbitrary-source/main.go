// SDN scenario from the paper's introduction (§1.2): a central controller
// assigns each network device a *role* — a forwarding behaviour. The paper's
// λarb scheme needs only six roles (3-bit labels), and broadcast then works
// no matter which device originates a message: any device can be the source
// without relabeling, because the coordinator r (role "111") orchestrates
// the three-phase algorithm Barb. The facade expresses this as one
// LabelNetwork call followed by RunLabeled with different WithSource values.
//
//	go run ./examples/sdn-arbitrary-source
package main

import (
	"fmt"
	"log"

	"radiobcast"
)

func main() {
	// The data-plane topology: a 6×6 grid of switches; switch 0 is the
	// coordinator.
	net, err := radiobcast.Family("grid", 36)
	if err != nil {
		log.Fatal(err)
	}
	net.Coordinated(0)

	// The controller assigns roles once, without knowing future sources.
	labeling, err := radiobcast.LabelNetwork(net, "barb")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("topology: %v; roles assigned by the controller:\n", net)
	for label, count := range labeling.Histogram() {
		fmt.Printf("  role %s: %d switches\n", label, count)
	}
	fmt.Printf("(%d distinct roles — the paper's bound is 6)\n\n", labeling.Distinct())

	// Three different switches originate alerts over the same role
	// assignment; each time, all switches learn the alert AND agree on a
	// common round from which everyone knows dissemination completed.
	alerts := map[int]string{
		35: "link-failure: sw35 port 2",
		17: "congestion: queue above threshold at sw17",
		6:  "intrusion: unexpected flow at sw6",
	}
	for _, src := range []int{35, 17, 6} {
		out, err := radiobcast.RunLabeled(labeling,
			radiobcast.WithSource(src), radiobcast.WithMessage(alerts[src]))
		if err != nil {
			log.Fatal(err)
		}
		if err := radiobcast.Verify(out); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("source sw%-2d: %q\n", src, alerts[src])
		fmt.Printf("  all %d switches informed; common completion-knowledge round: %d (total %d rounds)\n",
			net.Graph.N(), out.KnowsCompleteRound[0], out.Result.Rounds)
	}
	fmt.Println("\nno relabeling was needed between sources — the roles are source-independent.")
}
