// Distributed group formation: the GF-coordinator protocol in action.
//
// Instead of calling the library's in-process pipeline, this program runs
// the paper's coordination as an actual message-passing protocol: every
// cache is an agent that handles the messages delivered to it; the
// coordinator drives the PLSet probing round, the feature round, and the
// assignment broadcast over a lossy transport, with retries. The transport
// runs in virtual time, so the run and its output are the same every time.
// A handful of agents are crashed up front to show the protocol degrading
// gracefully.
//
//	go run ./examples/distributed
package main

import (
	"fmt"
	"log"
	"sort"

	ecg "edgecachegroups"
)

const (
	numCaches = 120
	numGroups = 12
	msgLoss   = 0.10 // 10% of protocol messages vanish
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	src := ecg.NewRand(55)

	graph, err := ecg.GenerateTransitStub(ecg.DefaultTransitStubParams(), src.Split("topology"))
	if err != nil {
		return fmt.Errorf("generate topology: %w", err)
	}
	nw, err := ecg.NewNetwork(graph, ecg.PlaceParams{NumCaches: numCaches}, src.Split("placement"))
	if err != nil {
		return fmt.Errorf("place network: %w", err)
	}
	prober, err := ecg.NewProber(nw, ecg.DefaultProbeConfig(), src.Split("probe"))
	if err != nil {
		return fmt.Errorf("build prober: %w", err)
	}

	// Lossy transport + agents.
	transport, err := ecg.NewFaultTransport(ecg.FaultConfig{Loss: msgLoss}, src.Split("loss"))
	if err != nil {
		return fmt.Errorf("build transport: %w", err)
	}
	defer transport.Close()
	agents := make([]*ecg.ProtocolAgent, numCaches)
	for i := range agents {
		a, err := ecg.NewProtocolAgent(ecg.CacheIndex(i), prober, transport)
		if err != nil {
			return fmt.Errorf("start agent %d: %w", i, err)
		}
		agents[i] = a
	}

	// Crash a few caches before the protocol starts.
	crashed := []ecg.CacheIndex{7, 42, 99}
	for _, ci := range crashed {
		transport.Kill(ecg.ProtocolCacheAddr(ci))
	}
	fmt.Printf("network: %d caches (%d crashed), %.0f%% message loss\n",
		numCaches, len(crashed), msgLoss*100)

	cfg := ecg.ProtocolConfig{L: 10, M: 4, K: numGroups, Theta: 1, Retries: 5}
	coord, err := ecg.NewProtocolCoordinator(cfg, numCaches, transport, src.Split("coordinator"))
	if err != nil {
		return fmt.Errorf("build coordinator: %w", err)
	}

	res, err := coord.Run()
	if err != nil {
		return fmt.Errorf("protocol run: %w", err)
	}
	fmt.Printf("protocol completed: %d messages sent, %d retries\n", res.MessagesSent, res.Retries)
	fmt.Printf("landmarks: %v\n", res.Plan.Landmarks)
	fmt.Printf("assigned:  %d caches into %d groups (plan checksum %016x)\n",
		len(res.Members), res.Plan.NumGroups(), res.Plan.Checksum())
	fmt.Printf("unresponsive (crashed or unlucky): %v\n", res.Unresponsive)
	if len(res.UnackedAssignments) > 0 {
		fmt.Printf("assignments sent but never acked: %v\n", res.UnackedAssignments)
	}

	// Quality check against the true topology.
	cost := ecg.AvgGroupInteractionCost(nw, res.Groups())
	fmt.Printf("avg group interaction cost: %.1f ms (network-wide mean pair RTT %.1f ms)\n",
		cost, nw.MeanPairwiseDist())

	// Show a few groups.
	sizes := res.Plan.Sizes()
	sort.Sort(sort.Reverse(sort.IntSlice(sizes)))
	fmt.Printf("group sizes (desc): %v\n", sizes)

	// Agents know their assignments.
	applied := 0
	for i, ci := range res.Members {
		if g, _ := agents[ci].Group(); g == res.Plan.Assignments[i] {
			applied++
		}
	}
	fmt.Printf("agents with applied assignment: %d/%d\n", applied, len(res.Members))
	return nil
}
