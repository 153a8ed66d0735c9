package main

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/sim"
)

// The load shape every workload shares. Each shard world draws an
// open-loop AC2T stream on its virtual clock; the host runs all shards
// to completion as fast as it can.
const (
	// benchTxs is the AC2T count of every workload: enough that the
	// p99 latency has at least ten samples beyond it, and that seeds
	// differ little in the seed-pure metrics.
	benchTxs    = 2000
	benchShards = 8
	// setupProbes is how many one-AC2T-per-shard processes the setup_s
	// measurement starts; it reports their median wall time.
	setupProbes = 25
)

// workload is one named benchmark input.
type workload struct {
	name        string
	protocol    engine.Protocol
	batchWindow sim.Time
}

// workloads are the benchmark's inputs. Why each was chosen is in
// README.md and BENCHMARK.json.
var workloads = []workload{
	{name: "ac3wn", protocol: engine.ProtoAC3WN},
	{name: "ac3wn-batched", protocol: engine.ProtoAC3WN, batchWindow: 3 * sim.Minute},
	{name: "htlc", protocol: engine.ProtoHTLC},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// config is the engine configuration of one run of the workload.
func (w workload) config(seed uint64, txs, workers int) engine.Config {
	return engine.Config{
		Seed:    seed,
		Shards:  benchShards,
		Workers: workers,
		Workload: engine.Workload{
			Protocol:     w.protocol,
			Txs:          txs,
			ArrivalEvery: 20 * sim.Second,
			MaxInFlight:  8,
			TxTimeout:    45 * sim.Minute,
			AssetChains:  2,
			Sizes:        []engine.SizeWeight{{Size: 2, Weight: 6}, {Size: 3, Weight: 3}, {Size: 4, Weight: 1}},
			Mix:          engine.Mix{Commit: 7, Abort: 2, Crash: 1, Race: 1},
			BatchWindow:  w.batchWindow,
		},
	}
}
