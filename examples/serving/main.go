// Serving walkthrough for the v2 API: one Session fields a stream of
// broadcast requests over recurring topologies (the labeling cache makes
// repeat topologies label-free), a deadline bounds an oversized job (the
// run stops within one round and reports its partial prefix), and the
// labeling travels to "another process" through the wire format.
package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log"
	"time"

	"radiobcast"
)

func main() {
	sess := radiobcast.NewSession()
	ctx := context.Background()

	// A request stream with recurring topologies: only the first request
	// per topology pays the graph generation and the labeling, the rest
	// share the session's cached graph and are cache hits served by a
	// pooled engine.
	for i, req := range []struct {
		family string
		n      int
	}{
		{"grid", 64}, {"path", 32}, {"grid", 64}, {"grid", 64}, {"path", 32},
	} {
		net, err := sess.Family(req.family, req.n)
		if err != nil {
			log.Fatal(err)
		}
		out, err := sess.Run(ctx, net, "b", radiobcast.WithMessage(fmt.Sprintf("update-%d", i)))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("request %d: %s n=%d completed in round %d\n",
			i, req.family, out.Graph.N(), out.CompletionRound)
	}
	st := sess.Stats()
	fmt.Printf("cache after 5 requests: %d hits, %d misses, %d entries\n\n",
		st.Hits, st.Misses, st.Entries)

	// A deadline-bounded job: the engine checks the context between
	// rounds, so an oversized broadcast stops promptly and still reports
	// the prefix it executed.
	big, err := radiobcast.Family("path", 20000)
	if err != nil {
		log.Fatal(err)
	}
	bigLabeling, err := sess.Label(ctx, big, "b") // label off the critical path
	if err != nil {
		log.Fatal(err)
	}
	tight, cancel := context.WithTimeout(ctx, 250*time.Millisecond)
	defer cancel()
	out, err := sess.RunLabeled(tight, bigLabeling)
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		fmt.Printf("oversized job timed out after %d rounds (partial: %d/%d nodes informed)\n\n",
			out.Result.Rounds, informed(out), out.Graph.N())
	case err != nil:
		log.Fatal(err)
	default:
		fmt.Printf("oversized job finished anyway in round %d\n\n", out.CompletionRound)
	}

	// The labeling as a durable artifact: marshal it here, "ship" the
	// bytes, rerun it from bytes alone — bit-identical.
	net, err := radiobcast.Family("grid", 36)
	if err != nil {
		log.Fatal(err)
	}
	l, err := sess.Label(ctx, net, "back")
	if err != nil {
		log.Fatal(err)
	}
	var wire bytes.Buffer
	if err := radiobcast.WriteLabeling(&wire, l); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("λack labeling for n=%d ships as %d bytes\n", net.Graph.N(), wire.Len())

	shipped, err := radiobcast.ReadLabeling(&wire)
	if err != nil {
		log.Fatal(err)
	}
	here, _ := sess.RunLabeled(ctx, l, radiobcast.WithMessage("m"))
	there, err := sess.RunLabeled(ctx, shipped, radiobcast.WithMessage("m"))
	if err != nil {
		log.Fatal(err)
	}
	if err := radiobcast.Verify(there); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("shipped labeling: completion round %d here, %d there, ack round %d vs %d — identical\n",
		here.CompletionRound, there.CompletionRound, here.AckRound, there.AckRound)
}

func informed(out *radiobcast.Outcome) int {
	count := 1 // the source
	for v, r := range out.InformedRound {
		if v != out.Source && r != radiobcast.NoReception {
			count++
		}
	}
	return count
}
