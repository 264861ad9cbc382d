// IoT scenario from the paper's introduction (§1.2): transmitting devices
// are already deployed in a business complex; only a central monitor knows
// their locations and ranges, hence the topology. One gateway node must
// broadcast a *sequence* of firmware chunks to all devices. The monitor
// assigns 3-bit λack labels once (radiobcast.LabelNetwork); the gateway
// then uses acknowledged broadcast (scheme "back") so that it sends chunk
// k+1 only after every device has provably received chunk k.
//
//	go run ./examples/iot-acknowledged
package main

import (
	"fmt"
	"log"

	"radiobcast"
	"radiobcast/internal/graph"
)

func main() {
	// The deployed device mesh: a random connected network of 40 devices.
	// Node 0 is the gateway.
	net := radiobcast.NewNetwork(graph.GNPConnected(40, 0.08, 2026))
	net.Name = "device mesh"

	// One-time labeling by the central monitor (3 bits per device — tiny
	// enough for the weakest device ROM).
	labeling, err := radiobcast.LabelNetwork(net, "back")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("network: %v, max degree %d\n", net, net.Graph.MaxDegree())
	fmt.Printf("labels: %d bits each, %d distinct values, ack initiator z = node %d\n",
		labeling.Bits(), labeling.Distinct(), labeling.Z())

	// Stream the firmware: each chunk is a fresh acknowledged broadcast
	// over the same labels. The gateway proceeds only on acknowledgement.
	firmware := []string{
		"chunk-0: bootloader",
		"chunk-1: radio stack",
		"chunk-2: application",
		"chunk-3: checksum table",
	}
	totalRounds := 0
	for _, chunk := range firmware {
		out, err := radiobcast.RunLabeled(labeling, radiobcast.WithMessage(chunk))
		if err != nil {
			log.Fatal(err)
		}
		if err := radiobcast.Verify(out); err != nil {
			log.Fatalf("chunk %q not acknowledged: %v", chunk, err)
		}
		totalRounds += out.AckRound
		fmt.Printf("%-24s delivered to all %d devices by round %3d, acknowledged in round %3d\n",
			chunk, net.Graph.N()-1, out.CompletionRound, out.AckRound)
	}
	fmt.Printf("\nfirmware rollout complete: %d chunks in %d total rounds\n",
		len(firmware), totalRounds)
	fmt.Println("(the gateway never sent a chunk before the previous one was acknowledged)")
}
