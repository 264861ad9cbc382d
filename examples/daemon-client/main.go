// Daemon walkthrough: radiobcastd served in-process on a loopback port,
// driven end to end through the typed client — the full central-monitor
// loop over HTTP. Label a topology and keep the artifact, run broadcasts
// against the shared Session (the second run is a cache hit), upload the
// saved labeling to run-labeled, stream a sweep as its cells complete,
// scrape the metrics, and finally drain the daemon and watch readiness
// flip while in-flight work completes. It exits non-zero when a run or
// sweep cell it prints is not verified.
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"strings"
	"time"

	"radiobcast/client"
	"radiobcast/internal/httpd"
)

func main() {
	// An OS-assigned loopback port so the example never collides with a
	// real deployment; production runs `radiobcastd -addr :8080` instead.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	srv := httpd.New(httpd.Config{DrainTimeout: 5 * time.Second})
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln) }()

	c := client.New("http://" + ln.Addr().String())
	if err := c.Ready(context.Background()); err != nil {
		log.Fatal(err)
	}
	fmt.Println("daemon ready on", ln.Addr())

	// Label once: the artifact comes back in the binary wire format with
	// its metadata envelope.
	l, meta, err := c.Label(context.Background(), client.LabelRequest{
		Graph:  client.GraphSpec{Family: "grid", N: 64},
		Scheme: "b",
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("labeled %s n=%d: %d-bit labels, %d distinct, %d wire bytes\n",
		meta.Scheme, meta.N, meta.Bits, meta.Distinct, meta.Bytes)

	// Run twice: the daemon's Session labels the topology on the first
	// request and serves the second from its cache.
	for i := 0; i < 2; i++ {
		out, err := c.Run(context.Background(), client.RunRequest{
			Graph:  client.GraphSpec{Family: "grid", N: 64},
			Scheme: "b",
			Mu:     fmt.Sprintf("update-%d", i),
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("run %d: informed all %d nodes by round %d (verified=%t)\n",
			i, out.N, out.CompletionRound, out.Verified)
		if !out.Verified {
			log.Fatalf("run %d not verified: %s", i, out.VerifyError)
		}
	}

	// Ship the saved labeling back: run-labeled never touches the
	// labeler, exactly like handing labels to nodes in the paper.
	out, err := c.RunLabeled(context.Background(), l, client.RunLabeledParams{Mu: "from-artifact"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("run-labeled: completion round %d over uploaded labeling (verified=%t)\n",
		out.CompletionRound, out.Verified)
	if !out.Verified {
		log.Fatalf("run-labeled not verified: %s", out.VerifyError)
	}

	// Stream a sweep: cells arrive as NDJSON in completion order.
	cells, err := c.Sweep(context.Background(), client.SweepRequest{
		Families: []string{"path", "grid"},
		Sizes:    []int{16, 64},
		Schemes:  []string{"b", "back"},
	}, func(cell client.SweepCellResult) error {
		fmt.Printf("  cell %s/n=%d/%s: completion=%d verified=%t\n",
			cell.Family, cell.Size, cell.Scheme, cell.CompletionRound, cell.Verified)
		if !cell.Verified {
			return fmt.Errorf("cell %s/n=%d/%s not verified: %s", cell.Family, cell.Size, cell.Scheme, cell.Error)
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sweep streamed %d cells\n", cells)

	// The metrics endpoint exposes the Session cache counters the two
	// /v1/run calls just exercised.
	text, err := c.Metrics(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "radiobcastd_session_cache_hits_total") ||
			strings.HasPrefix(line, "radiobcastd_session_cache_misses_total") {
			fmt.Println(line)
		}
	}

	// Graceful drain: readiness flips to 503 while the daemon finishes
	// up, then Serve returns cleanly.
	cancel()
	if err := <-done; err != nil {
		log.Fatal(err)
	}
	if err := c.Ready(context.Background()); err != nil {
		fmt.Println("after drain, readiness probe says:", err)
	}
	fmt.Println("daemon drained cleanly")
}
